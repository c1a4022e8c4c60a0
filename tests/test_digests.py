"""Output digests: each argv entry of the manifest pins the sha256 of
stdout, the sha256 of stderr and the exit status of one `dlash` run, and
each expression entry pins the sha256 of the repr of one Python
expression over the names `dlash` exports and its `verify` module.

The tests replay the entries that answer quickly in-process, the argv
entries through click's CliRunner, with stderr kept apart, and parse the
stdout of each entry that passes `--json` first as strict JSON, with no
Infinity or NaN.  Run as a script, this file replays every entry, each
argv as a subprocess of the `dlash` importable from the current
PYTHONPATH and each expression in-process, and reports each one that
differs or whose `--json` stdout is not strict JSON (``--write`` records
the digests instead):

    PYTHONPATH=src python tests/test_digests.py [--write]
"""

import functools
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import dlash
from dlash import verify
from dlash.cli import main

MANIFEST = pathlib.Path(__file__).parent / "golden" / "digests.json"
NINE_OPERATIONS = "Q^3992 Q^2057 Q^1064 Q^502 Q^205 Q^88 Q^35 Q^13 Q^4 x[0]"
ARGVS = [
    ["adem", "6", "2"],
    ["adem", "5", "2"],
    ["adem", "300", "20"],
    ["--json", "adem", "1000", "5"],
    ["adem", "--", "3", "-1"],
    ["adem", "99999999999999999999", "1"],
    ["reduce", "Q^6 Q^2 x[2]"],
    ["reduce", "Q^3 x[1] + Q^3 x[1]"],
    ["reduce", "Q^7 Q^4 Q^2 x[1]"],
    ["--json", "reduce", "Q^40 Q^20 Q^9 x[2]"],
    ["reduce", NINE_OPERATIONS],
    ["reduce", "Q^x"],
    ["reduce", "Q^3 x[1] + Q^2 y[1]"],
    ["reduce", "x[1]"],
    ["symmetry", "1", "8"],
    ["symmetry", "0", "24"],
    ["symmetry", "--", "-3", "18"],
    ["--json", "symmetry", "2", "20"],
    ["symmetry", "1", "2000"],
    ["symmetry", "1", "256"],
    ["symmetry", "--", "-1000", "256"],
    ["--json", "--degree-bound", "16", "verify-all"],
    ["--json", "steinberger", "2"],
    ["--json", "steinberger", "5"],
    ["--json", "steinberger", "9"],
    ["--json", "steinberger", "10"],
    ["steinberger", "11"],
    ["--json", "--degree-bound", "8", "verify-all"],
    ["--json", "--degree-bound", "32", "verify-all"],
    ["--json", "--degree-bound", "192", "verify-all"],
    ["--degree-bound", "12", "nishida"],
    ["--json", "--degree-bound", "96", "nishida"],
    ["zeta-action", "0"],
    ["--json", "zeta-action", "0"],
    ["--degree-bound", "-2", "zeta-action", "1"],
    ["--json", "--degree-bound", "256", "zeta-action", "1"],
    ["--json", "--degree-bound", "256", "zeta-action", "2"],
    ["--json", "--degree-bound", "256", "zeta-action", "3"],
    ["--json", "--degree-bound", "256", "zeta-action", "4"],
    ["--json", "--degree-bound", "1", "verify-all"],
    ["--degree-bound", "0", "verify-all"],
    ["--degree-bound", "-2", "verify-all"],
    ["--degree-bound", "-2", "nishida"],
    ["--degree-bound", "192", "nishida"],
    ["conjugate", "0"],
    ["symmetry", "1", "24"],
    # usage errors, in the words of click 8.4, which the CLI used before
    ["adem", "six", "2"],
    ["adem", "6"],
    ["adem", "6", "2", "7"],
    ["bogus"],
    ["--jsn", "adem", "6", "2"],
    ["adem", "-1", "2"],
    ["adem", "--json", "6", "2"],
    ["symmetry", "1", "x"],
    ["--degree-bound"],
    ["--degree-bound", "x", "adem", "6", "2"],
    # help: each command's help line in full, where click cut it at its
    # first period; no arguments prints the help on stderr with status 2
    ["--help"],
    ["adem", "--help"],
    [],
    # each parser error state: an unmatched character (reported before any
    # syntax error), a missing token of each kind, and a syntax error after
    # mixed classes (reported before the mixing)
    ["reduce", "Q^3 x[2] @"],
    ["reduce", "Q^3 Q^ x[1]"],
    ["reduce", "Q^3 [2]"],
    ["reduce", "Q^3 x 2]"],
    ["reduce", "Q^3 x[]"],
    ["reduce", "Q^3 x[2"],
    ["reduce", "Q^3 x[2] Q^1"],
    ["reduce", "Q^3 x[2] +"],
    ["reduce", "Q^ x[2] $"],
    ["reduce", "Q^3 x[1] + Q^3 y[1] Q^2"],
    ["--json", "steinberger", "3"],
    ["--json", "steinberger", "4"],
    ["--json", "steinberger", "6"],
    ["--json", "steinberger", "7"],
    ["--json", "steinberger", "8"],
    ["--json", "conjugate", "11"],
    # one refusal past each limit
    ["--degree-bound", "193", "nishida"],
    ["--degree-bound", "193", "verify-all"],
    ["--degree-bound", "257", "zeta-action", "1"],
    ["conjugate", "12"],
]
# the series kernels' results, each read by its repr: z(t)^{-1}, the
# reversion of z(t), a bivariate inverse (its unit has a coefficient that
# holds both 1 and z1, and it is not honest in t), a product, and a
# composite that sums u^i times row i of a over many rows
EXPRS = [
    "zeta_inverse(512)",
    "series_reversion(zeta_series(128))",
    "series_inverse(LaurentSeries.exact({(0, 0): F2Poly.one(), (1, 0): F2Poly.one()"
    " + F2Poly.zeta(1), (0, 1): F2Poly.zeta(2), (2, -1): F2Poly.one()}), Window(0, -12, 24))",
    "verify._identity1_rhs(48)",
    "series_compose(verify._identity1_rhs(48), series_reversion(zeta_series(100)),"
    " Window(0, -49, 48))",
]
# entries that take well over 0.3 s; only the script replays them
SLOW = [
    ["symmetry", "1", "256"],
    ["symmetry", "--", "-1000", "256"],
    ["--json", "--degree-bound", "192", "verify-all"],
    ["--degree-bound", "192", "nishida"],
    "zeta_inverse(512)",
]
_NAMESPACE = {**{name: getattr(dlash, name) for name in dlash.__all__}, "verify": verify}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def _strict_json(text) -> object:
    """text parsed as JSON, which has no Infinity, -Infinity or NaN."""
    return json.loads(text, parse_constant=_refuse_constant)


def _asks_json(argv: list) -> bool:
    """Whether argv passes --json to dlash itself, first; after a command
    name it is an option that command does not have."""
    return argv[:1] == ["--json"]


def _entries(kind: str = "argv") -> list:
    """The manifest's entries of one kind, "argv" or "expr"."""
    return [e for e in json.loads(MANIFEST.read_text()) if kind in e]


def test_manifest_lists_every_argv_once():
    assert [e["argv"] for e in _entries()] == ARGVS


def test_manifest_lists_every_expression_once():
    assert [e["expr"] for e in _entries("expr")] == EXPRS


@functools.cache
def _invoke(argv: tuple):
    return CliRunner().invoke(main, argv, prog_name="dlash", env={"DLASH_DEGREE_BOUND": None})


_FAST = [e for e in _entries() if e["argv"] not in SLOW]


@pytest.mark.parametrize("entry", _FAST, ids=lambda e: " ".join(e["argv"]) or "no arguments")
def test_output_matches_its_digest(entry):
    r = _invoke(tuple(entry["argv"]))
    assert (_sha(r.stdout_bytes), _sha(r.stderr_bytes), r.exit_code) == (
        entry["stdout"], entry["stderr"], entry["status"]
    )


@pytest.mark.parametrize(
    "argv", [e["argv"] for e in _FAST if _asks_json(e["argv"])], ids=" ".join
)
def test_json_output_is_strict_json(argv):
    _strict_json(_invoke(tuple(argv)).stdout_bytes)


def _evaluate(expr: str) -> dict:
    """The digest record of one expression."""
    return {"expr": expr, "repr": _sha(repr(eval(expr, _NAMESPACE)).encode())}


@pytest.mark.parametrize(
    "entry", [e for e in _entries("expr") if e["expr"] not in SLOW], ids=lambda e: e["expr"]
)
def test_expression_matches_its_digest(entry):
    assert _evaluate(entry["expr"]) == entry


def _run(argv: list) -> tuple:
    """The digest record of one run, and whether it printed strict JSON
    (always true without --json)."""
    code = "import sys; from dlash.cli import main; main(sys.argv[1:], prog_name='dlash')"
    env = {k: v for k, v in os.environ.items() if k != "DLASH_DEGREE_BOUND"}
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env)
    strict = True
    if _asks_json(argv):
        try:
            _strict_json(r.stdout)
        except ValueError:
            strict = False
    record = {"argv": argv, "stdout": _sha(r.stdout), "stderr": _sha(r.stderr), "status": r.returncode}
    return record, strict


if __name__ == "__main__":
    runs, strict = zip(*(_run(argv) for argv in ARGVS))
    values = [_evaluate(expr) for expr in EXPRS]
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(json.dumps([*runs, *values], indent=1) + "\n")
    else:
        differ = [" ".join(r["argv"]) for r, e in zip(runs, _entries()) if r != e]
        differ += [" ".join(r["argv"]) + " (not strict JSON)" for r, ok in zip(runs, strict) if not ok]
        differ += [v["expr"] for v, e in zip(values, _entries("expr")) if v != e]
        print("\n".join(differ) or f"all {len(runs) + len(values)} entries match")
        sys.exit(bool(differ))
