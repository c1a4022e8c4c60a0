"""dlash benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload rewrite --seed 1 --seconds 30 --trace 0

runs whole rounds of the workload's operations until --seconds have
passed, checks every output, and prints one JSON line with the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1).  See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
HASH_SEED = "0"
SETUP_SAMPLES = 4

sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- set-up ---------------------------------------------------------------


def _import_and_warm_up() -> None:
    """What a fresh ``dlash`` process does before its first request:
    import the package and its CLI, then answer a request that fills no
    cache (the usage text and one Adem relation)."""
    sys.path.insert(0, str(SRC))
    import dlash  # noqa: F401
    import dlash.cli  # noqa: F401

    harness.run_cli(["--help"])
    harness.run_cli(["adem", "6", "2"])


def _setup_sample() -> float:
    """Time of a cold import plus warm-up, in a child of a process that
    has imported nothing of dlash or click, normalised by the reference
    loop timed right before and after it and given in seconds at the
    reference speed (harness.REF_NOMINAL_S)."""

    def timed():
        t0 = time.perf_counter()
        _import_and_warm_up()
        return time.perf_counter() - t0

    ref_before = harness.time_reference()
    seconds = harness.in_child(timed)
    ref = (ref_before + harness.time_reference()) / 2
    return seconds / ref * harness.REF_NOMINAL_S


class SetupSampler:
    """A process forked before the benchmark imports dlash, which takes
    a set-up sample whenever asked.  Samples are taken at the start and
    after every round, so their median covers the whole run."""

    def __init__(self):
        req_r, self.req_w = os.pipe()
        self.res_r, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 0
            try:
                os.close(self.req_w)
                os.close(self.res_r)
                while os.read(req_r, 1):
                    os.write(res_w, repr(_setup_sample()).encode() + b"\n")
            except BaseException:
                status = 70
            finally:
                os._exit(status)
        os.close(req_r)
        os.close(res_w)
        self.results = os.fdopen(self.res_r, "rb")
        self.samples: list = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            os.write(self.req_w, b"x")
            line = self.results.readline()
            if not line:
                raise RuntimeError("the set-up sampler ended early")
            self.samples.append(float(line))

    def close(self) -> float:
        """Stop the sampler and return the median sample."""
        os.close(self.req_w)
        self.results.close()
        os.waitpid(self.pid, 0)
        return statistics.median(self.samples)


# -- rounds ---------------------------------------------------------------


def run_round(ops, tracer=None) -> list:
    return [harness.run_op(op, tracer) for op in ops]


def end_to_end(ops, rounds, setup_s) -> dict:
    """Metrics of the untraced rounds; each per-round figure is the median
    over rounds, each per-operation figure the median over rounds first."""
    per_op = [statistics.median(r[k]["seconds"] / r[k]["ref"] for r in rounds)
              for k in range(len(ops))]
    return {
        "setup_s": (setup_s, "s"),
        "cost_ref": (statistics.median(
            sum(x["seconds"] / x["ref"] for x in r) for r in rounds), "ref"),
        "op_p50_ref": (statistics.median(per_op), "ref"),
        "op_p90_ref": (statistics.quantiles(per_op, n=10)[8], "ref"),
        "peak_rss_mb": (max(x["rss_mb"] for r in rounds for x in r), "MB"),
    }


PER_LAYER_TIMED = (
    "f2.poly_mul", "laurent.series_mul", "laurent.series_pow",
    "laurent.series_inverse", "laurent.series_reversion", "laurent.series_compose",
    "steenrod.q_op", "steenrod.q_total_on_zeta",
    "dyer_lashof.reduce_to_admissible", "dyer_lashof.adem_relation",
    "parser.parse_sum",
)
PER_LAYER_SELF_ONLY = (
    "steenrod.conjugate_zeta", "dyer_lashof.symmetry_extract_relations", "cli",
)


def per_layer(traced, plain) -> dict:
    """Per-round totals of the traced rounds (times: median over rounds),
    and the tracing overhead against the untraced rounds of the same run."""

    def round_totals(r):
        totals, counters = {}, {}
        for x in r:
            for name, (calls, self_s) in x["trace"]["totals"].items():
                t = totals.setdefault(name, [0, 0.0])
                t[0] += calls
                t[1] += self_s
            for name, v in x["trace"]["counters"].items():
                if name == "f2.peak_poly_terms":
                    counters[name] = max(counters.get(name, 0), v)
                else:
                    counters[name] = counters.get(name, 0) + v
        return totals, counters

    per_round = [round_totals(r) for r in traced]
    totals, counters = per_round[0]

    def self_s(name):
        return statistics.median(t.get(name, (0, 0.0))[1] for t, _ in per_round)

    m = {}
    for name in PER_LAYER_TIMED:
        m[f"{name}.calls"] = (totals.get(name, (0, 0.0))[0], "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in PER_LAYER_SELF_ONLY:
        m[f"{name}.self_s"] = (self_s(name), "s")
    products = counters["f2.monomial_products"]
    scanned = counters["dyer_lashof.binomials_scanned"]
    m["f2.monomial_products"] = (products, "count")
    m["f2.ns_per_monomial_product"] = (
        self_s("f2.poly_mul") / products * 1e9 if products else 0.0, "ns")
    m["f2.peak_poly_terms"] = (counters["f2.peak_poly_terms"], "count")
    m["dyer_lashof.binomials_scanned"] = (scanned, "count")
    m["dyer_lashof.adem_rhs_terms"] = (counters["dyer_lashof.adem_rhs_terms"], "count")
    m["dyer_lashof.adem_yield"] = (
        counters["dyer_lashof.adem_rhs_terms"] / scanned if scanned else 0.0, "ratio")
    m["cli.output_bytes"] = (counters["cli.output_bytes"], "bytes")
    m["trace.overhead"] = (
        sum(x["seconds"] for r in traced for x in r)
        / sum(x["seconds"] for r in plain for x in r), "ratio")
    # raw wall time of an untraced round: it moves with the machine's speed
    m["run.wall_s"] = (statistics.median(sum(x["seconds"] for x in r) for r in plain), "s")
    return m


def write_spans(path, ops, traced) -> None:
    """One JSON line per span: operation id = round * ops + index."""
    with open(path, "w") as f:
        for n, r in enumerate(traced):
            for op, x in zip(ops, r):
                op_id = n * len(ops) + op["index"]
                for span_id, name, start, end, parent, self_s in x["trace"]["spans"]:
                    f.write(json.dumps({
                        "op": op_id, "label": op["label"], "span": span_id,
                        "name": name, "start": start, "end": end,
                        "parent": parent, "self_s": self_s,
                    }) + "\n")


def main(argv) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # fix the hash seed of the measured process: set iteration order,
        # and with it the work of every operation, stays the same
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    if not (SRC / "dlash" / "__init__.py").is_file():
        print(f"error: no dlash sources under {SRC}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    sampler = SetupSampler()
    sampler.sample(SETUP_SAMPLES)
    _import_and_warm_up()
    harness.prepare_parent()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    plain, traced = [], []
    start = time.perf_counter()
    try:
        while True:
            plain.append(run_round(ops))
            if tracer is not None:
                traced.append(run_round(ops, tracer))
            sampler.sample()
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        setup_s = sampler.close()

    adem = oracles.AdemOracle()
    failed = 0
    problems = []
    for r in plain + traced:
        for op, res in zip(ops, r):
            op_failed, problem = oracles.check(op, res, adem)
            failed += op_failed
            if problem:
                problems.append(f"{op['label']} {op['args']}: {problem}")
    for p in sorted(set(problems))[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(traced, plain)
    else:
        metrics = end_to_end(ops, plain, setup_s)
    result = {
        "correct": not problems,
        "attempted": len(ops) * (len(plain) + len(traced)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(OUT / f"spans-{stem}.jsonl", ops, traced)
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    (OUT / f"ops-{stem}.json").write_text(json.dumps([
        [{"label": op["label"], "seconds": x["seconds"], "ref": x["ref"]}
         for op, x in zip(ops, r)] for r in plain]) + "\n")
    print(f"{args.workload}: {len(plain) + len(traced)} rounds of {len(ops)} operations",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
