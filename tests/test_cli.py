import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from dlash import verify
from dlash.cli import (
    IDENTITY_BOUND_LIMIT,
    SYMMETRY_BOUND_LIMIT,
    ZETA_ACTION_BOUND_LIMIT,
    main,
)
from dlash.dyer_lashof import ADEM_INDEX_BOUND

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parents[1] / "src"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env or {})


def test_adem_text(runner):
    r = invoke(runner, "adem", "6", "2")
    assert r.exit_code == 0
    assert r.output == "Q^6 Q^2 = Q^5 Q^3\n"


def test_adem_zero_rhs(runner):
    r = invoke(runner, "adem", "5", "2")
    assert r.output == "Q^5 Q^2 = 0\n"


def test_adem_admissible_pair(runner):
    r = invoke(runner, "adem", "4", "2")
    assert r.exit_code == 0
    assert "already admissible" in r.output


def test_adem_json(runner):
    r = invoke(runner, "--json", "adem", "6", "2")
    payload = json.loads(r.output)
    assert payload["schema"] == 2
    assert payload["rhs"] == [[5, 3]]


def test_reduce(runner):
    r = invoke(runner, "reduce", "Q^6 Q^2 x[2]")
    assert r.exit_code == 0
    assert r.output.strip() == "Q^5 Q^3 x[2]"


@pytest.mark.parametrize(
    "word",
    [
        "Q^4259 Q^1874 Q^907 Q^417 Q^255 Q^83 Q^32 Q^14 Q^6 x[0]",
        "Q^3992 Q^2057 Q^1064 Q^502 Q^205 Q^88 Q^35 Q^13 Q^4 x[0]",
    ],
)
def test_reduce_long_word_to_zero_is_fast(runner, word):
    # rewriting the leftmost pair first took 14 s and over 60 s on these
    start = time.perf_counter()
    r = invoke(runner, "reduce", word)
    assert time.perf_counter() - start < 2
    assert r.exit_code == 0
    assert r.output == "0\n"


def test_reduce_parse_error_exits_1(runner):
    r = invoke(runner, "reduce", "Q^x")
    assert r.exit_code == 1
    assert "syntax error" in r.output


@pytest.mark.parametrize(
    "args", [["--degree-bound", "-5", "nishida"], ["symmetry", "1", "--", "-3"]]
)
def test_window_error_exits_1(runner, args):
    r = invoke(runner, *args)
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr.startswith("Error: empty window")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("bound", ["-2", "-3", "-5"])
def test_nishida_and_verify_all_name_the_same_empty_box(runner, bound):
    """Both refuse a bound below 1 by naming the identity box e_s >= 1,
    e_t >= -d, e_s + e_t <= d."""
    nishida = invoke(runner, "--degree-bound", bound, "nishida")
    verify_all = invoke(runner, "--degree-bound", bound, "verify-all")
    assert nishida.exit_code == verify_all.exit_code == 1
    assert nishida.stderr == verify_all.stderr
    d = -int(bound)
    assert nishida.stderr == f"Error: empty window: min_s=1, min_t={d}, max_total={-d}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["adem", "--", "3", "-1"],
        ["conjugate", "0"],
        ["steinberger", "1"],
        ["zeta-action", "--", "-1"],
        ["conjugate", "12"],
        ["steinberger", "11"],
    ],
)
def test_out_of_range_argument_exits_2(runner, args):
    r = invoke(runner, *args)
    assert r.exit_code == 2
    assert r.stdout == ""
    errors = [l for l in r.stderr.splitlines() if l.startswith("Error")]
    assert len(errors) == 1
    assert "not in the range" in errors[0]


@pytest.mark.parametrize(
    "args",
    [["reduce", "Q^99999999999999999999 Q^1 x[0]"], ["adem", "99999999999999999999", "1"]],
)
def test_adem_index_past_bound_exits_1(runner, args):
    start = time.perf_counter()
    r = invoke(runner, *args)
    assert time.perf_counter() - start < 5
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr.startswith("Error: Q^99999999999999999999 Q^1: i + j exceeds")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "args, env",
    [
        (["symmetry", "1", "2000"], None),
        (["--degree-bound", "2000", "symmetry", "1"], None),
        (["symmetry", "1"], {"DLASH_DEGREE_BOUND": "2000"}),
    ],
)
def test_symmetry_bound_past_the_limit_exits_1(runner, args, env):
    start = time.perf_counter()
    r = invoke(runner, *args, env=env)
    assert time.perf_counter() - start < 1
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr == "Error: symmetry bound 2000 exceeds the limit 256\n"


@pytest.mark.parametrize(
    "args, env, error",
    [
        (["--degree-bound", "400", "nishida"], None, "nishida bound 400"),
        (["--degree-bound", "3000", "verify-all"], None, "verify-all bound 3000"),
        (["nishida"], {"DLASH_DEGREE_BOUND": "193"}, "nishida bound 193"),
        (["--quiet", "verify-all"], {"DLASH_DEGREE_BOUND": "400"}, "verify-all bound 400"),
    ],
)
def test_identity_bound_past_the_limit_exits_1(runner, args, env, error):
    start = time.perf_counter()
    r = invoke(runner, *args, env=env)
    assert time.perf_counter() - start < 1
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr == f"Error: {error} exceeds the limit 192\n"


@pytest.mark.parametrize(
    "args, env",
    [
        (["--degree-bound", "3000", "zeta-action", "1"], None),
        (["--json", "zeta-action", "11"], {"DLASH_DEGREE_BOUND": "3000"}),
    ],
)
def test_zeta_action_bound_past_the_limit_exits_1(runner, args, env):
    start = time.perf_counter()
    r = invoke(runner, *args, env=env)
    assert time.perf_counter() - start < 1
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr == "Error: zeta-action bound 3000 exceeds the limit 256\n"


def test_steinberger_at_its_cap_passes(runner):
    r = invoke(runner, "steinberger", "10")
    assert r.exit_code == 0
    assert r.stdout.splitlines()[-1] == "passed"


_A = ADEM_INDEX_BOUND
# each command's arguments at the edges of their ranges, just inside and
# just past each limit, and the degree bounds it reads, at sizes that
# answer in well under a second: a bound at symmetry's, nishida's or
# verify-all's limit, steinberger 10, and zeta-action 1..8 at its limit
# take longer, and are run elsewhere
_ARGUMENTS = {
    "adem": st.tuples(
        st.sampled_from([-1, 0, 1, 2, _A - 1, _A, _A + 1]), st.sampled_from([-1, 0, 1, 2])
    ),
    "reduce": st.tuples(
        st.builds(
            "Q^{} Q^{} x[{}]".format,
            st.sampled_from([0, 1, _A - 2, _A - 1, _A]),
            st.sampled_from([0, 1, 2]),
            st.sampled_from([-1, 0, 1]),
        )
    ),
    "symmetry": st.tuples(st.sampled_from([-1, 0, 1, 2])).flatmap(
        lambda d: st.sampled_from([d, *(d + (b,) for b in (-1, 0, 1, SYMMETRY_BOUND_LIMIT + 1))])
    ),
    "zeta-action": st.tuples(st.sampled_from([-1, 0, 1, 2, 8, 9, 64, 65])),
    "conjugate": st.tuples(st.sampled_from([0, 1, 11, 12])),
    "steinberger": st.tuples(st.sampled_from([1, 2, 11])),
    "nishida": st.just(()),
    "verify-all": st.just(()),
}
_BOUNDS = {
    "zeta-action": [-1, 0, 1, 2, ZETA_ACTION_BOUND_LIMIT, ZETA_ACTION_BOUND_LIMIT + 1],
    "nishida": [-1, 0, 1, 2, IDENTITY_BOUND_LIMIT + 1],
    "verify-all": [-1, 0, 1, IDENTITY_BOUND_LIMIT + 1],
    "symmetry": [-1, 0, 1, 2, SYMMETRY_BOUND_LIMIT + 1],
}


@st.composite
def _edge_call(draw):
    """A command line and its environment: the command's arguments, its
    degree bound from --degree-bound, DLASH_DEGREE_BOUND or the default
    (or one that is not an integer), and --json or --quiet."""
    command = draw(st.sampled_from(sorted(_ARGUMENTS)))
    args = [str(a) for a in draw(_ARGUMENTS[command])]
    bound = draw(st.sampled_from([None, "x", *map(str, _BOUNDS.get(command, [3]))]))
    if command == "zeta-action" and bound == str(ZETA_ACTION_BOUND_LIMIT):
        assume(not 1 <= int(args[0]) <= 8)
    options = [flag for flag in ("--json", "--quiet") if draw(st.booleans())]
    env = {}
    if bound is not None and draw(st.booleans()):
        env["DLASH_DEGREE_BOUND"] = bound
    elif bound is not None:
        options += ["--degree-bound", bound]
    # a negative argument is read as an option unless "--" comes first
    separator = ["--"] if draw(st.booleans()) else []
    return [*options, command, *separator, *args], env


@settings(deadline=None, max_examples=200)
@given(_edge_call())
def test_arguments_at_the_edges_of_their_ranges_end_cleanly(call):
    """Every call answers with status 0, or prints one `Error:` line (in a
    usage message with status 2, alone with status 1) and nothing on
    stdout; none raises or takes long."""
    args, env = call
    start = time.perf_counter()
    r = invoke(CliRunner(), *args, env=env)
    assert time.perf_counter() - start < 5
    assert r.exception is None or isinstance(r.exception, SystemExit), r.exception
    if r.exit_code == 0:
        return
    assert r.exit_code in (1, 2)
    assert r.stdout == ""
    errors = [l for l in r.stderr.splitlines() if l.startswith("Error: ")]
    assert len(errors) == 1
    if r.exit_code == 1:
        assert r.stderr == errors[0] + "\n"
    else:
        assert r.stderr.startswith("Usage: ")


def test_usage_error_exits_2(runner):
    r = invoke(runner, "adem", "six", "2")
    assert r.exit_code == 2


def test_unknown_command_exits_2(runner):
    r = invoke(runner, "bogus")
    assert r.exit_code == 2


@pytest.mark.parametrize(
    "spelled, plain",
    [
        (["adem", " 6", "2"], ["adem", "6", "2"]),
        (["adem", "+6", "2"], ["adem", "6", "2"]),
        (["adem", "1_0", "2"], ["adem", "10", "2"]),
        (["symmetry", "+1", " 6"], ["symmetry", "1", "6"]),
        (["symmetry", "1_0", "6"], ["symmetry", "10", "6"]),
        (["--degree-bound", "+6", "zeta-action", "1_0"], ["--degree-bound", "6", "zeta-action", "10"]),
    ],
)
def test_integer_spellings_answer_like_the_plain_integer(runner, spelled, plain):
    """An integer argument is read by int(), so surrounding spaces, a sign
    and underscores between digits are accepted."""
    r = invoke(runner, *spelled)
    assert r.exit_code == 0
    assert r.output == invoke(runner, *plain).output


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter running code, with this checkout's dlash first
    on its path and no DLASH_DEGREE_BOUND."""
    env = {k: v for k, v in os.environ.items() if k != "DLASH_DEGREE_BOUND"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )


def test_importing_dlash_leaves_click_out():
    r = _python("import sys, dlash, dlash.cli; print('click' in sys.modules)")
    assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")


# `python -m dlash.cli` with click made unimportable
_PYTHON_M_WITHOUT_CLICK = (
    "import runpy, sys; sys.modules['click'] = None; "
    "runpy.run_module('dlash.cli', run_name='__main__', alter_sys=True)"
)


@pytest.mark.parametrize(
    "args, status",
    [(["adem", "6", "2"], 0), (["adem", "99999999999999999999", "1"], 1), (["adem", "--", "3", "-1"], 2)],
)
def test_python_m_answers_without_click(args, status):
    r = _python(_PYTHON_M_WITHOUT_CLICK, *args)
    assert r.returncode == status
    if status == 0:
        assert (r.stdout, r.stderr) == ("Q^6 Q^2 = Q^5 Q^3\n", "")
        return
    assert r.stdout == ""
    errors = [l for l in r.stderr.splitlines() if l.startswith("Error: ")]
    assert len(errors) == 1
    if status == 1:
        assert r.stderr == errors[0] + "\n"
    else:
        assert r.stderr.startswith("Usage: python -m dlash.cli adem [OPTIONS] I J\n")


def test_determinism(runner):
    a = invoke(runner, "--degree-bound", "10", "symmetry", "1", "8")
    b = invoke(runner, "--degree-bound", "10", "symmetry", "1", "8")
    assert a.output == b.output
    assert a.output  # non-empty


def test_quiet_suppresses_output(runner):
    r = invoke(runner, "--quiet", "adem", "6", "2")
    assert r.exit_code == 0
    assert r.output == ""


@pytest.mark.parametrize(
    "args, printed",
    [
        (["--quiet", "zeta-action", "2"], False),
        (["--quiet", "conjugate", "4"], False),
        (["zeta-action", "2"], True),
        (["--json", "zeta-action", "2"], True),
        (["conjugate", "4"], True),
        (["--json", "conjugate", "4"], True),
    ],
)
def test_output_is_rendered_once(runner, monkeypatch, args, printed):
    """Each coefficient is stringified once, for the one form printed,
    and not at all under --quiet."""
    from dlash.f2 import F2Poly

    calls = []
    to_str = F2Poly.__str__
    monkeypatch.setattr(F2Poly, "__str__", lambda p: calls.append(p) or to_str(p))
    r = invoke(runner, "--degree-bound", "16", *args)
    assert r.exit_code == 0
    assert bool(calls) is printed
    assert len(calls) == len({id(p) for p in calls})


@pytest.mark.parametrize("bound", [18, 24, 256])
@pytest.mark.parametrize("degree", range(5))
def test_symmetry_renders_each_distinct_relation_once(runner, monkeypatch, degree, bound):
    """The relations printed are the distinct renderings of those
    extracted, and each distinct relation is rendered once."""
    from dlash import cli
    from dlash.dyer_lashof import DLSum

    extracted, rendered = [], []
    extract, to_str = cli.symmetry_extract_relations, DLSum.__str__
    monkeypatch.setattr(cli, "symmetry_extract_relations",
                        lambda *a: extracted.append(extract(*a)) or extracted[-1])
    monkeypatch.setattr(DLSum, "__str__", lambda r: rendered.append(r) or to_str(r))
    r = invoke(runner, "--json", "symmetry", str(degree), str(bound))
    assert r.exit_code == 0
    (rels,) = extracted
    assert json.loads(r.output)["relations"] == sorted({to_str(rel) for rel in rels})
    assert len(rendered) == len(set(rels))


def test_degree_bound_env_var(runner):
    r = invoke(runner, "zeta-action", "1", env={"DLASH_DEGREE_BOUND": "4"})
    assert "e_s+e_t<=4" in r.output


def test_window_printed_with_series(runner):
    r = invoke(runner, "--degree-bound", "6", "zeta-action", "2")
    assert "e_t>=3" in r.output  # instability line is part of the window


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zeta_action_golden(runner, n):
    r = invoke(runner, "--degree-bound", "32", "zeta-action", str(n))
    assert r.exit_code == 0
    golden = (GOLDEN / f"zeta_action_n{n}.txt").read_text()
    assert r.output == golden


def test_zeta_action_past_instability_line_is_fast(runner):
    start = time.perf_counter()
    r = invoke(runner, "zeta-action", "40")
    assert time.perf_counter() - start < 5
    assert r.exit_code == 0
    assert r.output.splitlines()[-1] == "0"


def test_conjugate(runner):
    r = invoke(runner, "conjugate", "2")
    assert "zbar2 = z1^3 + z2" in r.output


def test_steinberger_passes(runner):
    r = invoke(runner, "steinberger", "3")
    assert r.exit_code == 0
    assert "passed" in r.output


def test_nishida_json(runner):
    r = invoke(runner, "--json", "--degree-bound", "8", "nishida")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["report"]["passed"] is True


def test_verify_all_small_bound(runner):
    # the full suite is exercised in the acceptance tests; here just the
    # plumbing, at the cheapest meaningful bound
    r = invoke(runner, "--degree-bound", "8", "verify-all")
    assert r.exit_code == 0
    assert "all suites passed" in r.output


RECORD_KEYS = {"name", "passed", "detail", "first_mismatch"}


def _planted_failure(max_total):
    return [
        {
            "name": "planted failure",
            "passed": False,
            "detail": f"degree bound {max_total}",
            "first_mismatch": (1, 2),
        }
    ]


def test_failed_report_exits_1(runner, monkeypatch):
    monkeypatch.setattr(verify, "verify_nishida_conjugate_form", _planted_failure)
    r = invoke(runner, "--degree-bound", "8", "nishida")
    assert r.exit_code == 1
    lines = r.stdout.splitlines()
    assert "FAIL  planted failure" in lines
    assert lines[-1] == "FAILED"
    r = invoke(runner, "--json", "--degree-bound", "8", "nishida")
    assert r.exit_code == 1
    report = json.loads(r.stdout)["report"]
    assert report["passed"] is False
    assert report["checks"][0]["first_mismatch"] == [1, 2]


@pytest.mark.parametrize(
    "args",
    [["--degree-bound", "8", "nishida"], ["steinberger", "3"], ["--degree-bound", "8", "verify-all"]],
)
def test_json_records_have_the_record_keys(runner, args):
    r = invoke(runner, "--json", *args)
    assert r.exit_code == 0
    payload = json.loads(r.stdout)
    records = payload["suites"] if "suites" in payload else payload["report"]["checks"]
    assert records
    for record in records:
        assert set(record) == RECORD_KEYS
