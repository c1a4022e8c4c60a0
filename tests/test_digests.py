"""Output digests: each manifest entry pins the sha256 of stdout, the
sha256 of stderr and the exit status of one `dlash` run.

The tests replay the entries that answer quickly in-process through
click's CliRunner, with stderr kept apart, and parse the stdout of each
`--json` entry as strict JSON, with no Infinity or NaN.  Run as a
script, this file replays every entry as a subprocess of the `dlash`
importable from the current PYTHONPATH and reports each one that
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
]
# entries that take well over 0.3 s; only the script replays them
SLOW = [
    ["symmetry", "1", "256"],
    ["symmetry", "--", "-1000", "256"],
    ["--json", "--degree-bound", "192", "verify-all"],
    ["--degree-bound", "192", "nishida"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def _strict_json(text) -> object:
    """text parsed as JSON, which has no Infinity, -Infinity or NaN."""
    return json.loads(text, parse_constant=_refuse_constant)


def _entries() -> list:
    return json.loads(MANIFEST.read_text())


def test_manifest_lists_every_argv_once():
    assert [e["argv"] for e in _entries()] == ARGVS


@functools.cache
def _invoke(argv: tuple):
    return CliRunner().invoke(main, argv, prog_name="dlash", env={"DLASH_DEGREE_BOUND": None})


_FAST = [e for e in _entries() if e["argv"] not in SLOW]


@pytest.mark.parametrize("entry", _FAST, ids=lambda e: " ".join(e["argv"]))
def test_output_matches_its_digest(entry):
    r = _invoke(tuple(entry["argv"]))
    assert (_sha(r.stdout_bytes), _sha(r.stderr_bytes), r.exit_code) == (
        entry["stdout"], entry["stderr"], entry["status"]
    )


@pytest.mark.parametrize(
    "argv", [e["argv"] for e in _FAST if "--json" in e["argv"]], ids=" ".join
)
def test_json_output_is_strict_json(argv):
    _strict_json(_invoke(tuple(argv)).stdout_bytes)


def _run(argv: list) -> tuple:
    """The digest record of one run, and whether it printed strict JSON
    (always true without --json)."""
    code = "import sys; from dlash.cli import main; main(sys.argv[1:], prog_name='dlash')"
    env = {k: v for k, v in os.environ.items() if k != "DLASH_DEGREE_BOUND"}
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env)
    strict = True
    if "--json" in argv:
        try:
            _strict_json(r.stdout)
        except ValueError:
            strict = False
    record = {"argv": argv, "stdout": _sha(r.stdout), "stderr": _sha(r.stderr), "status": r.returncode}
    return record, strict


if __name__ == "__main__":
    runs, strict = zip(*(_run(argv) for argv in ARGVS))
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(json.dumps(runs, indent=1) + "\n")
    else:
        differ = [" ".join(r["argv"]) for r, e in zip(runs, _entries()) if r != e]
        differ += [" ".join(r["argv"]) + " (not strict JSON)" for r, ok in zip(runs, strict) if not ok]
        print("\n".join(differ) or f"all {len(runs)} entries match")
        sys.exit(bool(differ))
