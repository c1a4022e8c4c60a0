"""Command-line driver.

Every command prints the guaranteed window next to any truncated series,
so partial output is never mistaken for an exact answer.  ``--json``
switches to a versioned machine-readable rendering.

Arguments are read by a small parser over the COMMANDS table, with the
standard library alone.  Its usage and error text are byte for byte
those of click 8.4, which the CLI was first written with; its help is
too, but that it prints each command's help line in full.  ``main``
keeps the calling shape of a click group, so click's CliRunner drives
it in the tests.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, NamedTuple

from . import steenrod, verify
from .dyer_lashof import (
    AlreadyAdmissibleError,
    GradedClass,
    RewriteLimitError,
    adem_relation,
    reduce_to_admissible,
    symmetry_extract_relations,
)
from .laurent import LaurentError, Window
from .parser import ParseError, parse_sum

SCHEMA = 2
DEFAULT_DEGREE_BOUND = 32
# largest bound `symmetry` accepts; its work grows like the cube of the
# bound, and at 256 it answers in seconds (README gives the times)
SYMMETRY_BOUND_LIMIT = 256
# largest degree bound `nishida` and `verify-all` accept; z(zbar(t)) = t
# is checked to total 2 bound + 4, and at 192 both answer in seconds
IDENTITY_BOUND_LIMIT = 192
# largest degree bound `zeta-action` accepts; Q(t) z_n grows like the
# bound to a power between 2.5 and 3, and at 256 it answers in under a second
ZETA_ACTION_BOUND_LIMIT = 256


class _Refusal(Exception):
    """A one-line ``Error: ...`` with exit status 1."""


class _UsageError(Exception):
    """A usage error, exit status 2.  The error follows the usage line of
    `command` (None for dlash itself), unless `usage` is false."""

    def __init__(self, message: str, command: str | None = None, usage: bool = True):
        super().__init__(message)
        self.command = command
        self.usage = usage


def _echo(text: str, err: bool = False) -> None:
    """Write text and a newline to sys.stdout or sys.stderr, looked up
    now, so output follows a caller that swaps them."""
    stream = sys.stderr if err else sys.stdout
    stream.write(f"{text}\n")
    stream.flush()


def _default_bound() -> int:
    env = os.environ.get("DLASH_DEGREE_BOUND")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"DLASH_DEGREE_BOUND is not an integer: {env!r}")
    return DEFAULT_DEGREE_BOUND


def _within_limit(command: str, bound: int, limit: int) -> int:
    """The bound, or a refusal before any work when it exceeds the limit."""
    if bound > limit:
        raise _Refusal(f"{command} bound {bound} exceeds the limit {limit}")
    return bound


def _emit(opts, payload, text_lines):
    """Print the JSON payload() or the text_lines(), whichever the options
    ask for: only that one is built, and under --quiet alone neither.  The
    lines, never none, go out in one write, each ended by a newline."""
    if opts["json"]:
        _echo(json.dumps({"schema": SCHEMA, **payload()}, sort_keys=True))
    elif not opts["quiet"]:
        _echo("\n".join(text_lines()))


def _series_json(series) -> dict:
    return {
        "window": {
            "min_s": series.window.min_s,
            "min_t": series.window.min_t,
            # JSON has no infinity: an exact window's max_total is null
            "max_total": None if series.is_exact() else series.window.max_total,
        },
        "terms": series.to_json_terms(),
    }


def adem(opts, i, j):
    try:
        rel = adem_relation(i, j)
    except AlreadyAdmissibleError:
        _emit(
            opts,
            lambda: {"command": "adem", "i": i, "j": j, "admissible": True},
            lambda: [f"Q^{i} Q^{j} is already admissible"],
        )
        return
    _emit(
        opts,
        lambda: {
            "command": "adem",
            "i": i,
            "j": j,
            "admissible": False,
            "rhs": sorted(rel.rhs),
        },
        lambda: [str(rel)],
    )


def reduce(opts, expr):
    out = reduce_to_admissible(parse_sum(expr))
    _emit(
        opts,
        lambda: {
            "command": "reduce",
            "input": expr,
            "result": str(out),
            "words": [list(w) for w in sorted(out.words)],
        },
        lambda: [str(out)],
    )


def symmetry(opts, degree, bound):
    b = _within_limit(
        "symmetry", bound if bound is not None else opts["bound"], SYMMETRY_BOUND_LIMIT
    )
    x = GradedClass("x", degree)
    window = Window(0, -b, b)
    rels = symmetry_extract_relations(x, window)

    def rendered() -> list:
        # equal relations render equally, so each distinct one renders once
        return sorted({str(r) for r in set(rels)})

    def lines() -> list:
        distinct = rendered()
        return [
            f"# window e_s >= 0, e_t >= {-b}, total <= {b}",
            *distinct,
            f"# {len(distinct)} distinct relations",
        ]

    _emit(
        opts,
        lambda: {
            "command": "symmetry",
            "degree": degree,
            "bound": b,
            "relations": rendered(),
        },
        lines,
    )


def zeta_action(opts, n):
    bound = _within_limit("zeta-action", opts["bound"], ZETA_ACTION_BOUND_LIMIT)
    series = steenrod.q_total_on_zeta(n, bound)
    _emit(
        opts,
        lambda: {"command": "zeta-action", "n": n, "series": _series_json(series)},
        lambda: [f"Q(t) z{n}  [{series.window.describe()}]", str(series)],
    )


def conjugate(opts, max_i):
    zbars = steenrod.conjugate_zeta(max_i)
    _emit(
        opts,
        lambda: {
            "command": "conjugate",
            "max_i": max_i,
            "conjugates": {f"zbar{i+1}": str(z) for i, z in enumerate(zbars)},
        },
        lambda: [f"zbar{i+1} = {z}" for i, z in enumerate(zbars)],
    )


def _report_command(opts, command: str, extra: dict, records: list, suites: bool = False):
    """Render verification records, checks or whole suites; exit 1 if any failed."""
    passed = all(r["passed"] for r in records)
    if suites:
        lines = [
            f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}: {r['detail']}"
            for r in records
        ]
        lines.append("all suites passed" if passed else "some suites FAILED")
        payload = {"suites": records}
    else:
        lines = [f"{'ok' if r['passed'] else 'FAIL':4}  {r['name']}" for r in records]
        lines.append("passed" if passed else "FAILED")
        payload = {"report": {"passed": passed, "checks": records}}
    _emit(opts, lambda: {"command": command, **extra, **payload}, lambda: lines)
    if not passed:
        raise SystemExit(1)


def steinberger(opts, max_i):
    zbars = steenrod.conjugate_zeta(max_i + 1)
    records = verify.verify_steinberger_conjugate(max_i, zbars=zbars)
    records += verify.verify_steinberger_successor(max_i, zbars=zbars)
    _report_command(opts, "steinberger", {"max_i": max_i}, records)


def nishida(opts):
    bound = _within_limit("nishida", opts["bound"], IDENTITY_BOUND_LIMIT)
    records = verify.verify_nishida_conjugate_form(bound)
    _report_command(opts, "nishida", {"degree_bound": bound}, records)


def verify_all(opts):
    bound = _within_limit("verify-all", opts["bound"], IDENTITY_BOUND_LIMIT)
    reports = verify.run_all(bound)
    _report_command(opts, "verify-all", {"degree_bound": bound}, reports, suites=True)


# -- the command table and its parser ---------------------------------------


class _Arg(NamedTuple):
    """A positional argument: `kind` is str, int, or an integer range
    (min, max) with None for no maximum."""

    name: str
    kind: object
    required: bool = True


class _Command(NamedTuple):
    """A command: its handler, called with the options of dlash and the
    values of `args`, its positional arguments and its one-line help."""

    handler: Callable
    args: tuple
    help: str


_NATURAL = (0, None)
COMMANDS = {
    "adem": _Command(adem, (_Arg("I", _NATURAL), _Arg("J", _NATURAL)),
                     "Print the Adem relation for a non-admissible pair Q^I Q^J."),
    "conjugate": _Command(conjugate, (_Arg("MAX_I", (1, 11)),),
                          "Conjugates zbar_1 .. zbar_MAX_I of the Milnor generators."),
    "nishida": _Command(nishida, (),
                        "Check the conjugate form of the coaction compatibility."),
    "reduce": _Command(reduce, (_Arg("EXPR", str),),
                       "Rewrite EXPR (e.g. 'Q^6 Q^2 x[2]') to admissible normal form."),
    "steinberger": _Command(steinberger, (_Arg("MAX_I", (2, 10)),),
                            "Check the conjugate and successor formulas up to index MAX_I."),
    "symmetry": _Command(symmetry, (_Arg("DEGREE", int), _Arg("BOUND", int, required=False)),
                         "Relations forced by the symmetry of Q(t)Q(s)x on a class of DEGREE."),
    "verify-all": _Command(verify_all, (),
                           "Run every acceptance suite; exit status 1 if any check fails."),
    "zeta-action": _Command(zeta_action, (_Arg("N", _NATURAL),),
                            "The total operation Q(t) applied to the Milnor generator z_N."),
}

# each option of dlash itself, and whether it takes a value
_OPTIONS = {"--json": False, "--degree-bound": True, "--quiet": False, "--help": False}
_ABOUT = f"""\
  Mod-2 power operations: Adem relations, Laurent series windows, and the dual
  Steenrod algebra action.

Options:
  --json                  emit JSON with a schema field
  --degree-bound INTEGER  truncation bound (default {DEFAULT_DEGREE_BOUND}, or DLASH_DEGREE_BOUND)
  --quiet                 suppress text output; exit status only
  --help                  Show this message and exit."""


def _metavar(arg: _Arg) -> str:
    return arg.name if arg.required else f"[{arg.name}]"


def _usage(prog: str, command: str | None) -> str:
    if command is None:
        return f"Usage: {prog} [OPTIONS] COMMAND [ARGS]..."
    metavars = "".join(f" {_metavar(a)}" for a in COMMANDS[command].args)
    return f"Usage: {prog} {command} [OPTIONS]{metavars}"


def _help(prog: str, command: str | None) -> str:
    if command is not None:
        return (
            f"{_usage(prog, command)}\n\n  {COMMANDS[command].help}\n\n"
            "Options:\n  --help  Show this message and exit."
        )
    width = max(map(len, COMMANDS)) + 2
    rows = "".join(f"\n  {name:<{width}}{c.help}" for name, c in sorted(COMMANDS.items()))
    return f"{_usage(prog, None)}\n\n{_ABOUT}\n\nCommands:{rows}"


def _did_you_mean(name: str, choices) -> str:
    """click's suggestion of the close matches to a mistyped name."""
    from difflib import get_close_matches  # only a mistyped name pays for it

    close = sorted(get_close_matches(name, choices))
    listed = ", ".join(map(repr, close))
    if len(close) > 1:
        return f" (Did you mean one of: {listed}?)"
    return f" Did you mean {listed}?" if close else ""


def _parse(args: list, options: dict, command: str | None) -> tuple:
    """The options given in args (the last value of each) and the
    positional arguments.  Options stop at "--"; for dlash itself they
    also stop at its first positional argument, the command name."""
    given, positional = {}, []
    rest = list(args)
    while rest:
        arg = rest.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or len(arg) == 1:
            if command is None:
                rest.insert(0, arg)
                break
            positional.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in options:
            # "-x..." is read as the short option -x, and there are none
            if arg[:2] != "--":
                raise _UsageError(f"No such option {arg[:2]!r}.", command)
            raise _UsageError(f"No such option {name!r}.{_did_you_mean(name, options)}", command)
        if not options[name]:
            if eq:
                raise _UsageError(f"Option {name!r} does not take a value.", usage=False)
            value = True
        elif not eq:
            if not rest:
                raise _UsageError(f"Option {name!r} requires an argument.", usage=False)
            value = rest.pop(0)
        given[name] = value
    return given, positional + rest


def _convert(arg: _Arg, value: str | None, command: str | None):
    """The value of a command's argument, or, with command None, of an
    option of dlash itself."""
    hint = f"'{_metavar(arg)}'"
    if value is None:
        if arg.required:
            raise _UsageError(f"Missing argument {hint}.", command)
        return None
    if arg.kind is str:
        return value
    try:
        n = int(value)
    except ValueError:
        kind = "integer" if arg.kind is int else "integer range"
        raise _UsageError(f"Invalid value for {hint}: {value!r} is not a valid {kind}.", command)
    if arg.kind is not int:
        lo, hi = arg.kind
        if n < lo or (hi is not None and n > hi):
            span = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"
            raise _UsageError(f"Invalid value for {hint}: {n} is not in the range {span}.", command)
    return n


def _group_options(args: list, prog: str) -> tuple:
    """The options given to dlash itself and the arguments after them;
    --help prints the help and exits."""
    given, rest = _parse(args, _OPTIONS, None)
    if "--help" in given:
        _echo(_help(prog, None))
        raise SystemExit(0)
    bound = given.get("--degree-bound")
    if bound is not None:
        bound = _convert(_Arg("--degree-bound", int), bound, None)
    return given, bound, rest


def _run(args: list, prog: str) -> None:
    if not args:
        _echo(_help(prog, None), err=True)
        raise SystemExit(2)
    given, bound, rest = _group_options(args, prog)
    if not rest:
        raise _UsageError("Missing command.")
    name = rest[0]
    command = COMMANDS.get(name)
    if command is None:
        if name.startswith("-"):
            # an option after "--": read it as an option of dlash
            _group_options(rest, prog)
        raise _UsageError(f"No such command {name!r}.{_did_you_mean(name, COMMANDS)}")
    opts = {
        "json": "--json" in given,
        "quiet": "--quiet" in given,
        "bound": bound if bound is not None else _default_bound(),
    }
    asked, values = _parse(rest[1:], {"--help": False}, name)
    if asked:
        _echo(_help(prog, name))
        raise SystemExit(0)
    spec = command.args
    converted = [_convert(a, v, name) for a, v in zip(spec, values + [None] * len(spec))]
    extra = values[len(spec):]
    if extra:
        s = "s" if len(extra) > 1 else ""
        raise _UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})", name)
    command.handler(opts, *converted)


class _Main:
    """The dlash program, called as a click group is: ``main()`` reads
    sys.argv, ``main(args, prog_name=...)`` or ``main.main(...)`` takes
    the arguments and the name for usage lines, and other keywords are
    ignored.  It always ends in SystemExit: 0 for an answer, 1 for a
    one-line ``Error: ...`` or a failed check, 2 for a usage error."""

    name = "main"

    def main(self, args=None, prog_name=None, **_click_keywords):
        prog = prog_name or os.path.basename(sys.argv[0])
        try:
            _run(list(sys.argv[1:] if args is None else args), prog)
        except _UsageError as e:
            if e.usage:
                path = prog if e.command is None else f"{prog} {e.command}"
                _echo(f"{_usage(prog, e.command)}\nTry '{path} --help' for help.\n", err=True)
            _echo(f"Error: {e}", err=True)
            raise SystemExit(2)
        except (_Refusal, LaurentError, ParseError, RewriteLimitError) as e:
            _echo(f"Error: {e}", err=True)
            raise SystemExit(1)
        except KeyboardInterrupt:
            _echo("\nAborted!", err=True)
            raise SystemExit(1)
        except BrokenPipeError:
            # the reader has gone: send what is left to /dev/null, so the
            # flush at exit does not fail again, and exit 1
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(1)
        raise SystemExit(0)

    __call__ = main


main = _Main()

if __name__ == "__main__":
    main(prog_name="python -m dlash.cli")
