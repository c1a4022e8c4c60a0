"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each dlash layer (and
``F2Poly.__mul__``) in the child that runs one operation, so the parent
stays untouched.  A wrapper records a span (name, start, end, parent,
operation id) and adds its count and self time to the operation's
totals; self time is a span's time minus the time of the wrapped calls
it made.  Functions called very often (``F2Poly.__mul__``,
``adem_relation``) only add to the totals and write no span.  Work
counts are computed from arguments and results at the boundary.

The root span of an operation is ``cli`` for a CLI request (its self
time is click, argument handling and rendering) and ``bench.call`` for
a direct library call.
"""

from __future__ import annotations

import importlib
import inspect
import time

# layer -> public functions left unwrapped: series_add runs inside every
# series product and would only move time between its callers;
# coefficient is an alias of LaurentSeries.coefficient
SKIP = {"laurent": {"series_add", "coefficient"}}
LAYERS = ("laurent", "steenrod", "dyer_lashof", "parser", "verify")
AGGREGATE_ONLY = {"f2.poly_mul", "dyer_lashof.adem_relation"}

COUNTERS = ("f2.monomial_products", "f2.peak_poly_terms",
            "dyer_lashof.binomials_scanned", "dyer_lashof.adem_rhs_terms")


class Tracer:
    # -- set-up ----------------------------------------------------------

    def install(self) -> None:
        """Replace each traced function, in every dlash module that holds
        it, by its wrapper.  Called once, in the child."""
        import dlash
        from dlash.f2 import F2Poly

        modules = [dlash] + [importlib.import_module(f"dlash.{m}")
                             for m in ("f2", "cli") + LAYERS]
        for layer in LAYERS:
            mod = importlib.import_module(f"dlash.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr in SKIP.get(layer, ())):
                    continue
                wrapped = self._wrap(fn, f"{layer}.{attr}")
                for m in modules:
                    if vars(m).get(attr) is fn:
                        setattr(m, attr, wrapped)
        F2Poly.__mul__ = self._wrap(F2Poly.__mul__, "f2.poly_mul")

    def _wrap(self, fn, name: str):
        spans_on = name not in AGGREGATE_ONLY
        count = _COUNT.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            # a frame is [time spent in wrapped callees, id of the span]
            stack = tracer.stack
            parent = stack[-1]
            if spans_on:
                span_id = tracer.next_id
                tracer.next_id += 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                self_s = dur - frame[0]
                parent[0] += dur
                agg = tracer.totals.get(name)
                if agg is None:
                    agg = tracer.totals[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += self_s
                if spans_on:
                    tracer.spans.append((span_id, name, start, end, parent[1], self_s))
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return wrapper

    # -- one operation -----------------------------------------------------

    def begin(self, op: dict) -> None:
        self.root = "cli" if op["kind"] == "cli" else "bench.call"
        self.totals: dict = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list = []
        self.next_id = 1
        self.stack = [[0.0, 0]]

    def end(self, t0: float, t1: float, res: dict) -> None:
        self_s = (t1 - t0) - self.stack[0][0]
        self.totals[self.root] = [1, self_s]
        self.spans.append((0, self.root, t0, t1, None, self_s))
        self.counters["cli.output_bytes"] = (
            len(res["stdout"].encode()) if "stdout" in res else 0
        )

    def report(self) -> dict:
        return {"totals": self.totals, "counters": self.counters, "spans": self.spans}


def _count_poly_mul(counters, args, result):
    a, b = args
    counters["f2.monomial_products"] += len(a.monomials) * len(b.monomials)
    counters["f2.peak_poly_terms"] = max(
        counters["f2.peak_poly_terms"], len(result.monomials),
        len(a.monomials), len(b.monomials),
    )


def _count_adem(counters, args, result):
    i, j = args[:2]
    # the relation scans l from ceil(i/2) to i + j
    counters["dyer_lashof.binomials_scanned"] += i + j + 1 - (i + 1) // 2
    counters["dyer_lashof.adem_rhs_terms"] += len(result.rhs)


_COUNT = {"f2.poly_mul": _count_poly_mul, "dyer_lashof.adem_relation": _count_adem}
