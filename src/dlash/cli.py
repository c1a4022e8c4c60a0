"""Command-line driver.

Every command prints the guaranteed window next to any truncated series,
so partial output is never mistaken for an exact answer.  ``--json``
switches to a versioned machine-readable rendering.
"""

from __future__ import annotations

import json
import os

import click

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


def _default_bound() -> int:
    env = os.environ.get("DLASH_DEGREE_BOUND")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise click.UsageError(f"DLASH_DEGREE_BOUND is not an integer: {env!r}")
    return DEFAULT_DEGREE_BOUND


def _within_limit(command: str, bound: int, limit: int) -> int:
    """The bound, or a refusal before any work when it exceeds the limit."""
    if bound > limit:
        raise click.ClickException(f"{command} bound {bound} exceeds the limit {limit}")
    return bound


def _emit(ctx, payload, text_lines):
    """Print the JSON payload() or the text_lines(), whichever the options
    ask for: only that one is built, and under --quiet alone neither.  The
    lines, never none, go out in one write, each ended by a newline."""
    opts = ctx.obj
    if opts["json"]:
        click.echo(json.dumps({"schema": SCHEMA, **payload()}, sort_keys=True))
    elif not opts["quiet"]:
        click.echo("\n".join(text_lines()))


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


class _Main(click.Group):
    """Turns window, parse and rewrite-limit errors into a one-line
    ``Error: ...`` with exit status 1, however the group is entered."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (LaurentError, ParseError, RewriteLimitError) as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Main)
@click.option("--json", "json_out", is_flag=True, help="emit JSON with a schema field")
@click.option(
    "--degree-bound",
    type=int,
    default=None,
    help=f"truncation bound (default {DEFAULT_DEGREE_BOUND}, "
    "or DLASH_DEGREE_BOUND)",
)
@click.option("--quiet", is_flag=True, help="suppress text output; exit status only")
@click.pass_context
def main(ctx, json_out, degree_bound, quiet):
    """Mod-2 power operations: Adem relations, Laurent series windows,
    and the dual Steenrod algebra action."""
    ctx.obj = {
        "json": json_out,
        "quiet": quiet,
        "bound": degree_bound if degree_bound is not None else _default_bound(),
    }


@main.command()
@click.argument("i", type=click.IntRange(min=0))
@click.argument("j", type=click.IntRange(min=0))
@click.pass_context
def adem(ctx, i, j):
    """Print the Adem relation for a non-admissible pair Q^I Q^J."""
    try:
        rel = adem_relation(i, j)
    except AlreadyAdmissibleError:
        _emit(
            ctx,
            lambda: {"command": "adem", "i": i, "j": j, "admissible": True},
            lambda: [f"Q^{i} Q^{j} is already admissible"],
        )
        return
    _emit(
        ctx,
        lambda: {
            "command": "adem",
            "i": i,
            "j": j,
            "admissible": False,
            "rhs": sorted(rel.rhs),
        },
        lambda: [str(rel)],
    )


@main.command()
@click.argument("expr")
@click.pass_context
def reduce(ctx, expr):
    """Rewrite EXPR (e.g. 'Q^6 Q^2 x[2]') to admissible normal form."""
    out = reduce_to_admissible(parse_sum(expr))
    _emit(
        ctx,
        lambda: {
            "command": "reduce",
            "input": expr,
            "result": str(out),
            "words": [list(w) for w in sorted(out.words)],
        },
        lambda: [str(out)],
    )


@main.command()
@click.argument("degree", type=int)
@click.argument("bound", type=int, required=False)
@click.pass_context
def symmetry(ctx, degree, bound):
    """Relations forced by the symmetry of Q(t)Q(s)x on a class of DEGREE."""
    b = _within_limit(
        "symmetry", bound if bound is not None else ctx.obj["bound"], SYMMETRY_BOUND_LIMIT
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
        ctx,
        lambda: {
            "command": "symmetry",
            "degree": degree,
            "bound": b,
            "relations": rendered(),
        },
        lines,
    )


@main.command("zeta-action")
@click.argument("n", type=click.IntRange(min=0))
@click.pass_context
def zeta_action(ctx, n):
    """The total operation Q(t) applied to the Milnor generator z_N."""
    bound = _within_limit("zeta-action", ctx.obj["bound"], ZETA_ACTION_BOUND_LIMIT)
    series = steenrod.q_total_on_zeta(n, bound)
    _emit(
        ctx,
        lambda: {"command": "zeta-action", "n": n, "series": _series_json(series)},
        lambda: [f"Q(t) z{n}  [{series.window.describe()}]", str(series)],
    )


@main.command()
@click.argument("max_i", type=click.IntRange(min=1, max=11))
@click.pass_context
def conjugate(ctx, max_i):
    """Conjugates zbar_1 .. zbar_MAX_I of the Milnor generators."""
    zbars = steenrod.conjugate_zeta(max_i)
    _emit(
        ctx,
        lambda: {
            "command": "conjugate",
            "max_i": max_i,
            "conjugates": {f"zbar{i+1}": str(z) for i, z in enumerate(zbars)},
        },
        lambda: [f"zbar{i+1} = {z}" for i, z in enumerate(zbars)],
    )


def _report_command(ctx, command: str, extra: dict, records: list, suites: bool = False):
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
    _emit(ctx, lambda: {"command": command, **extra, **payload}, lambda: lines)
    if not passed:
        ctx.exit(1)


@main.command()
@click.argument("max_i", type=click.IntRange(min=2, max=10))
@click.pass_context
def steinberger(ctx, max_i):
    """Check the conjugate and successor formulas up to index MAX_I."""
    zbars = steenrod.conjugate_zeta(max_i + 1)
    records = verify.verify_steinberger_conjugate(max_i, zbars=zbars)
    records += verify.verify_steinberger_successor(max_i, zbars=zbars)
    _report_command(ctx, "steinberger", {"max_i": max_i}, records)


@main.command()
@click.pass_context
def nishida(ctx):
    """Check the conjugate form of the coaction compatibility."""
    bound = _within_limit("nishida", ctx.obj["bound"], IDENTITY_BOUND_LIMIT)
    records = verify.verify_nishida_conjugate_form(bound)
    _report_command(ctx, "nishida", {"degree_bound": bound}, records)


@main.command("verify-all")
@click.pass_context
def verify_all(ctx):
    """Run every acceptance suite; exit status 1 if any check fails."""
    bound = _within_limit("verify-all", ctx.obj["bound"], IDENTITY_BOUND_LIMIT)
    reports = verify.run_all(bound)
    _report_command(ctx, "verify-all", {"degree_bound": bound}, reports, suites=True)


if __name__ == "__main__":
    main()
