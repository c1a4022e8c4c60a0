"""Runs one operation at a time, each in a child forked from a parent
that has imported dlash but run nothing that fills a cache, so every
operation starts from the cold state a fresh ``dlash`` process has.

The child times the operation and reports back through a pipe; the
parent times the reference loop right before forking and right after
the child ends, and waits for the child before starting the next
operation (a closed loop with one client).  The reference loop runs in
the parent because a freshly forked child pays copy-on-write faults
that the loop would count and the operation mostly would not.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import pickle
import resource
import statistics
import time
import traceback

# -- the reference loop --------------------------------------------------
#
# A fixed product of two sparse polynomials over GF(2) in pure Python,
# done the way dlash's F2Poly multiplies (merge exponent maps, sort,
# symmetric difference of sets).  Its time, taken right before and right
# after an operation, is the unit of every normalised ("ref") metric, so
# that a machine running slower for a while slows both alike; of the
# loops tried, this one followed the operations' times best from one
# process to the next.  It must never change: changing it changes the
# unit.

REF_REPEATS = 3
# The reference loop's time on the machine the benchmark was written on:
# set-up time is reported in seconds at that speed.
REF_NOMINAL_S = 0.003


def _ref_factor(shift: int) -> tuple:
    monomials = set()
    for k in range(36):
        gens = {1 + k % 6, 1 + (k + 2 + shift) % 6, 1 + (k // 6 + 4) % 6}
        monomials.add(tuple((g, 1 + (5 * k + 3 * g + shift) % 9) for g in sorted(gens)))
    return tuple(sorted(monomials))


_REF_A, _REF_B = _ref_factor(0), _ref_factor(1)


def reference_loop() -> int:
    acc: set = set()
    for a in _REF_A:
        for b in _REF_B:
            exps: dict = {}
            for g, e in a:
                exps[g] = exps.get(g, 0) + e
            for g, e in b:
                exps[g] = exps.get(g, 0) + e
            acc ^= {tuple(sorted(exps.items()))}
    return len(acc)


def time_reference() -> float:
    """Median of a few timings of the reference loop, in seconds: the
    typical speed of the moment, where the shortest would follow only
    the machine's fastest moments."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- peak memory ---------------------------------------------------------


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MB."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- one operation, in a child -------------------------------------------


def run_cli(args: list) -> dict:
    """Call the click group in-process, as the installed ``dlash`` script
    would, with stdout and stderr captured."""
    from dlash.cli import main

    out, err = io.StringIO(), io.StringIO()
    tb = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="dlash", standalone_mode=True)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except Exception as e:  # a real process would print a traceback
            code = 1
            tb = f"{type(e).__name__}: {e}"
            err.write(traceback.format_exc())
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "traceback": tb}


def milnor_monomial(exps: dict):
    from dlash import F2Poly

    m = F2Poly.one()
    for g, e in sorted(exps.items()):
        m = m * F2Poly.zeta(g, e)
    return m


def _child(op: dict, tracer) -> dict:
    """Runs inside the child: set up, time, and describe the outcome."""
    import dlash.steenrod

    if op["kind"] == "q_op":
        i, exps = op["args"]
        m = milnor_monomial(exps)

        def call():
            try:
                return {"value": dlash.steenrod.q_op(i, m)}
            except Exception as e:
                return {"code": 1, "stdout": "", "stderr": traceback.format_exc(),
                        "traceback": f"{type(e).__name__}: {e}"}
    else:
        def call():
            return run_cli(op["args"])

    if tracer is not None:
        tracer.install()
        tracer.begin(op)
    t0 = time.perf_counter()
    res = call()
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end(t0, t1, res)
    if "value" in res:
        res = {"code": 0, "stdout": str(res["value"]), "stderr": "", "traceback": None}
    res.update(
        seconds=t1 - t0,
        rss_mb=peak_rss_mb(),
        trace=None if tracer is None else tracer.report(),
    )
    return res


def in_child(fn):
    """Run fn() in a forked child, wait for the child to end, and return
    what fn returned (pickled through a pipe)."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 0
        try:
            os.close(rfd)
            payload = pickle.dumps(fn())
            with os.fdopen(wfd, "wb") as w:
                w.write(payload)
        except BaseException:
            traceback.print_exc()
            status = 70
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as r:
        data = r.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"the benchmark's child process ended with status {status}")
    return pickle.loads(data)


def run_op(op: dict, tracer=None) -> dict:
    """Run one operation in a forked child and return what it reported,
    with the reference time taken in the parent right before and after."""
    ref_before = time_reference()
    res = in_child(lambda: _child(op, tracer))
    res["ref"] = (ref_before + time_reference()) / 2
    return res


def prepare_parent() -> None:
    """Once dlash is imported and warmed up: move what the parent holds
    out of the collector's way, so children do not copy it by touching it."""
    gc.collect()
    gc.freeze()
