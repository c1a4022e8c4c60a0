"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that input generation is deterministic for a seed, that every
output check accepts today's correct outputs and rejects a deliberately
corrupted one, that a malformed request counts as failed until it is
refused cleanly, and that a one-round run of each workload completes
with every output correct.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def test_inputs_deterministic() -> None:
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        expect(a == b, f"{name}: seed 7 gives the same inputs twice")
        expect(len(a) >= 40, f"{name}: {len(a)} operations in a round")
        expect(len(a) == len(workloads.build(name, 8)),
               f"{name}: the round size does not depend on the seed")
        expect(sum(1 for op in a if op.get("malformed")) == 1,
               f"{name}: one malformed request per round")
    for name in ("rewrite", "milnor"):
        expect(workloads.build(name, 7) != workloads.build(name, 8),
               f"{name}: seeds 7 and 8 give different inputs")


def _corrupt(op: dict, res: dict) -> dict:
    """The same outcome with a wrong output."""
    out = res["stdout"]
    kind = op["check"]
    if kind == "reduce":
        # the input word is not the normal form of a nonzero answer's input
        wrong = workloads.word_text(op["word"], op["degree"])
        out = "0\n" if out.strip() != "0" else wrong + "\n"
    elif kind == "adem":
        i, j = op["pair"]
        right = out.strip()
        out = f"Q^{i} Q^{j} = 0\n" if not right.endswith("= 0") else f"Q^{i} Q^{j} = Q^{i + j} Q^0\n"
    elif kind == "symmetry":
        lines = out.splitlines()
        lines[1] = lines[1].split(" + ")[0]  # one word alone is not a relation
        out = "\n".join(lines) + "\n"
    elif kind == "q_op":
        i, exps = op["args"]
        d = workloads.monomial_degree(exps) + i
        out = f"z1^{d + 1}" if out.strip() == "0" else f"{out.strip()} + z1^{d + 1}"
    elif kind == "zeta_action":
        payload = json.loads(out)
        term = payload["series"]["terms"][0]
        term["coeff"] = term["coeff"] + " + z1"
        out = json.dumps(payload)
    elif kind == "conjugate":
        out = out.rstrip() + " + z1\n"
    elif kind == "report":
        out = out.replace("ok    ", "FAIL  ", 1)
    elif kind == "verify_all":
        out = out.replace("PASS  ", "FAIL  ", 1)
    return dict(res, stdout=out)


def test_checks() -> None:
    adem = oracles.AdemOracle()
    seen = set()
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 3):
            if op.get("malformed") or op["check"] in seen:
                continue
            if op["check"] == "report" and op["label"] != "steinberger/2":
                continue
            if op["check"] == "q_op" and workloads.monomial_degree(op["args"][1]) > 20:
                continue
            seen.add(op["check"])
            res = harness.run_op(op)
            expect(oracles.check(op, res, adem) == (False, None),
                   f"{op['check']}: today's output of {op['label']} passes")
            failed, problem = oracles.check(op, _corrupt(op, res), adem)
            expect(problem is not None, f"{op['check']}: a corrupted output is rejected")
    expect(seen == set(oracles.CHECKS), f"every check kind exercised: {sorted(seen)}")
    # a few direct cases of the oracles
    expect(oracles.adem_rhs(6, 2) == {(5, 3)}, "Q^6 Q^2 = Q^5 Q^3")
    expect(oracles.adem_rhs(5, 2) == frozenset(), "Q^5 Q^2 = 0")
    expect(oracles.AdemOracle().reduce((6, 2), 2) == {(5, 3)},
           "the rewriting oracle: Q^6 Q^2 x[2] = Q^5 Q^3 x[2]")
    expect(oracles.conjugates(2)[1] == oracles.parse_poly("z1^3 + z2"), "zbar2 = z1^3 + z2")


def test_malformed() -> None:
    op = {"malformed": True, "check": "error"}
    today = {"code": 0, "stdout": "Q^3 Q^-1 = 0\n", "stderr": "", "traceback": None}
    expect(oracles.check(op, today, None) == (True, None),
           "an answer with exit 0 counts as failed")
    crash = {"code": 1, "stdout": "", "stderr": "Traceback ...\nValueError: x\n",
             "traceback": "ValueError: x"}
    expect(oracles.check(op, crash, None) == (True, None), "a traceback counts as failed")
    clean = {"code": 2, "stdout": "", "stderr": "Error: max_i must be >= 1\n", "traceback": None}
    expect(oracles.check(op, clean, None) == (False, None),
           "a one-line error with status 2 counts as answered")


def test_short_runs() -> None:
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
             "--seed", "1", "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=170,
        )
        expect(proc.returncode == 0, f"{name}: a one-round run exits 0")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rounds = result["attempted"] // len(workloads.build(name, 1))
        expect(result["correct"] and result["failed"] == rounds,
               f"{name}: {result['attempted']} attempted, {result['failed']} failed "
               "(the malformed request), every output correct")
        expect(set(result["metrics"]) == {"setup_s", "cost_ref", "op_p50_ref",
                                          "op_p90_ref", "peak_rss_mb"},
               f"{name}: every end-to-end metric is reported")


def main() -> int:
    run._import_and_warm_up()
    harness.prepare_parent()
    test_inputs_deterministic()
    test_checks()
    test_malformed()
    test_short_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
