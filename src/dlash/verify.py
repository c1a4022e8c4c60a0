"""Verification: the paper's identities and the acceptance suites that
`dlash verify-all` runs.

Every check and every suite yields the same record,

    {"name": str, "passed": bool, "detail": str, "first_mismatch": ...}

where first_mismatch is None on a pass and otherwise the first failure:
for an identity check, the exponent (e_s, e_t) of the first disagreeing
coefficient, or the side whose window does not cover the check's box;
for a suite, its first failing case, or the exception it raised.
Identity checks return lists of records and the suites fold them.
Everything is deterministic: randomized suites use a fixed seed, and
only the identity suites and the series kernel take a size.

Every comparison of series, in an identity check or in a suite, names
the box it holds on, and every side must cover it: each position of the
box is then answered from a side's map or as a certified zero, so
comparing the maps cut to the box compares every coefficient there.
The Steinberger checks read one coefficient of t, at t^k, and compare
their sides as polynomials; a side that differs fails at (0, k).
Each side of an identity is built only to the box's total; identity
(1)'s right side, shared by two checks, is cached for the last bound.
run_all turns a suite that raises a series error (a window miss among
them) or an F2Poly overflow into its failed record, and runs the rest.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .f2 import F2Poly, binom_exact_parity, binom_mod2
from .laurent import (
    LaurentError,
    LaurentSeries,
    Window,
    residue,
    series_compose,
    series_inverse,
    series_mul,
    series_pow,
    series_reversion,
)
from .dyer_lashof import (
    GradedClass,
    adem_relation,
    derive_relations_by_elimination,
    reduce_to_admissible,
    symmetry_extract_relations,
)
from .steenrod import (
    conjugate_zeta,
    q_op,
    q_total_coefficient,
    q_total_on_zeta,
    zeta_inverse,
    zeta_inverse_coefficient,
    zeta_series,
)


def _record(name: str, failures: list, detail: str) -> dict:
    return {
        "name": name,
        "passed": not failures,
        "detail": detail if not failures else f"{detail}; failures: {failures[:5]}",
        "first_mismatch": failures[0] if failures else None,
    }


def _box_failures(box: Window, *sides: LaurentSeries) -> list:
    """The failures of sides[0] = sides[1] = ... at every position of box.

    A side that does not cover the box fails, and its failure names it.
    Otherwise each failure is the first position of the box, by total
    degree and then e_s, where a side differs from sides[0]: covering
    sides answer off their maps with certified zeros, so the maps cut to
    the box decide every position."""
    short = [
        f"side {k} window {side.window.describe()} does not cover {box.describe()}"
        for k, side in enumerate(sides)
        if not side.covers(box)
    ]
    if short:
        return short
    return [m for side in sides[1:] if (m := sides[0].first_disagreement(side, box))]


def _check(name: str, detail: str, box: Window, *sides: LaurentSeries) -> dict:
    """The record of sides[0] = sides[1] = ... at every position of box."""
    return _record(name, _box_failures(box, *sides), detail)


def _check_at_t(name: str, detail: str, k: int, *sides: F2Poly) -> dict:
    """The record of sides[0] = sides[1] = ... as coefficients of t^k:
    each side that differs from sides[0] fails at (0, k)."""
    return _record(name, [(0, k) for side in sides[1:] if side != sides[0]], detail)


def _fold(name: str, records: list, detail: str) -> dict:
    failures = [(r["name"], r["first_mismatch"]) for r in records if not r["passed"]]
    return _record(name, failures, f"{len(records)} checks {detail}")


# -- the paper's identities ---------------------------------------------


def verify_steinberger_conjugate(i_max: int, zbars: list) -> list:
    """Q^{2^i - 2} z_1 = zbar_i for 2 <= i <= i_max, via both the total
    operation on z_1 and the residue of t^{-2^i + 1} z(t)^{-1} dt, each
    read at t^{2^i - 2} alone; zbars is conjugate_zeta(k) for some
    k >= i_max.
    """
    if i_max < 2:
        raise ValueError("i_max must be >= 2")
    records = []
    for i in range(2, i_max + 1):
        k = 2**i - 2
        # res(t^{-2^i+1} z(t)^{-1} dt) is the t^{2^i - 2} coefficient of z(t)^{-1}
        records.append(
            _check_at_t(
                f"Q^(2^{i}-2) z1 = zbar_{i}",
                f"i = {i}",
                k,
                q_total_coefficient(1, k),
                zbars[i - 1],
                zeta_inverse_coefficient(k),
            )
        )
    return records


def verify_steinberger_successor(i_max: int, zbars: list) -> list:
    """Q^{2^i} z_i = z_{i+1} + z_i^2 z_1 and Q^{2^i} zbar_i = zbar_{i+1};
    zbars is conjugate_zeta(k) for some k >= i_max + 1.
    """
    if i_max < 0:
        raise ValueError("i_max must be >= 0")
    zbars = [F2Poly.one()] + zbars
    records = []
    for i in range(0, i_max + 1):
        k = 2**i
        if i >= 1:
            lhs = q_op(k, F2Poly.zeta(i))
            rhs = F2Poly.zeta(i + 1) + F2Poly.zeta(i).square() * F2Poly.zeta(1)
        else:
            # Q^1(1) = 0 and z1 + z0^2 z1 = z1 + z1 = 0: both sides vanish
            lhs = q_op(k, F2Poly.one())
            rhs = F2Poly.zero()
        records.append(
            _check_at_t(f"Q^(2^{i}) z{i} = z{i+1} + z{i}^2 z1", f"i = {i}", k, lhs, rhs)
        )
        if i >= 1:
            # i = 0 degenerates: Q^1 kills the unit, while zbar_1 = z1
            records.append(
                _check_at_t(
                    f"Q^(2^{i}) zbar_{i} = zbar_{i+1}",
                    f"i = {i}",
                    k,
                    q_op(k, zbars[i]),
                    zbars[i + 1],
                )
            )
    return records


def _identity_box(d: int) -> Window:
    """The box of identity (1) and its conjugate form, empty for d < 1."""
    return Window(1, -d, d)


# one entry: run_all forms it once for both identity suites at its bound
@lru_cache(maxsize=1)
def _identity1_rhs(max_total: int) -> LaurentSeries:
    """sum_i (Q(t) z_i)(s^{2^i} + s^{2^{i+1}} t^{-2^i}), known at least to
    total max_total: Q(t) z_i vanishes below t^{2^i - 1}, so a term with
    2^i > max_total lies above total 2 max_total."""
    rhs = None
    i = 0
    while 2**i <= max_total:
        term = series_mul(
            q_total_on_zeta(i, max_total).shift(2**i, 0),
            LaurentSeries.exact(
                {(0, 0): F2Poly.one(), (2**i, -(2**i)): F2Poly.one()}
            ),
        )
        rhs = term if rhs is None else rhs + term
        i += 1
    return rhs


def _augmentation_collapse(series: LaurentSeries, box: Window, detail: str) -> dict:
    """Under z_i -> 0 both sides of identity (1) collapse to s + s^2 t^-1."""
    return _check(
        "augmentation collapse to s + s^2 t^-1",
        detail,
        box,
        series.map_coeffs(F2Poly.augment),
        LaurentSeries.exact({(1, 0): F2Poly.one(), (2, -1): F2Poly.one()}),
    )


def verify_bisson_joyal_identity1(max_total: int) -> list:
    """z(s) + z(s)^2 z(t)^{-1} = sum_i (Q(t) z_i)(s^{2^i} + s^{2^{i+1}} t^{-2^i})
    on the box e_s >= 1, e_t >= -max_total, total <= max_total, plus its
    augmentation collapse to s + s^2 t^{-1}."""
    d = max_total
    box = _identity_box(d)
    zs = zeta_series(d, var="s")
    lhs = zs + series_mul(zs.square(), zeta_inverse(d))
    detail = f"degree bound {d}"
    return [
        _check("bisson-joyal identity (1)", detail, box, lhs, _identity1_rhs(d)),
        _augmentation_collapse(lhs, box, detail),
    ]


def verify_nishida_conjugate_form(max_total: int) -> list:
    """The conjugate (Nishida) form of the total-operation identity for
    x = s: Q(zbar(t)) applied to psi_R(s) = z(s) must equal
    sum_i psi_R(Q^i s) t^i = z(s) + z(s)^2 t^{-1}, since z(zbar(t)) = t.

    Both sides are checked on the box of identity (1), formed first so
    that a degree bound below 1 is refused with that box named; z(zbar(t))
    = t is checked on its own window, to total 2 max_total + 4."""
    d = max_total
    box = _identity_box(d)
    work = 2 * d + 4
    zbar = series_reversion(zeta_series(work))
    tbox = Window(0, -(d + 1), work)

    # right side: Q(t) z(s) (which is identity (1)) with t -> zbar(t),
    # substituted stratum by stratum in s
    rhs = series_compose(_identity1_rhs(d), zbar, window=Window(0, -(d + 1), d))

    # left side: Q^0 s = s and Q^{-1} s = s^2 are the only operations on s
    zs = zeta_series(d, var="s")
    lhs = zs + zs.square().shift(0, -1)

    z_of_zbar = series_compose(zeta_series(work), zbar, window=tbox)
    detail = f"degree bound {d}"
    return [
        _check("z(zbar(t)) = t", detail, tbox, z_of_zbar, LaurentSeries.monomial(0, 1)),
        _check("nishida conjugate form (x = s)", detail, box, lhs, rhs),
        _augmentation_collapse(rhs, box, detail),
    ]


# -- acceptance suites ----------------------------------------------------


def check_adem_soundness() -> dict:
    """Every symmetry-extracted relation reduces to zero."""
    bound = 20
    failures = []
    count = 0
    for n in range(0, 4):
        x = GradedClass("x", n)
        window = Window(0, -bound, bound)
        for rel in symmetry_extract_relations(x, window):
            count += 1
            if not reduce_to_admissible(rel).is_zero():
                failures.append((n, str(rel)))
    return _record(
        "adem-soundness",
        failures,
        f"{count} relations over degrees 0..3, i+j <= {bound}",
    )


def check_adem_completeness() -> dict:
    """Gaussian elimination over F2 recovers adem_relation for every
    non-admissible pair reachable at bound 16."""
    bound = 16
    failures = []
    count = 0
    for n in (1, 2):
        x = GradedClass("x", n)
        solved = derive_relations_by_elimination(x, bound)
        for (i, j), rhs in solved.items():
            count += 1
            expected = frozenset(
                (a, b)
                for a, b in adem_relation(i, j).rhs
                if b >= n and a >= n + b
            )
            if expected != rhs:
                failures.append((n, i, j))
        expected_pairs = {
            (i, j)
            for j in range(n, bound)
            for i in range(2 * j + 1, bound - j + 1)
            if i >= n + j
        }
        missing = expected_pairs - set(solved)
        if missing:
            failures.append((n, "missing", sorted(missing)[:5]))
    return _record(
        "adem-completeness",
        failures,
        f"{count} non-admissible pairs re-derived by elimination, i+j <= {bound}",
    )


def check_residue_replay() -> dict:
    """The residue formula behind the Adem coefficients: the residue in s
    of t^{l+j+1} s^{i-2l-1} (t+s)^{l-j-1} is binom(l-j-1, 2l-i) t^i."""
    bound = 16
    failures = []
    count = 0
    box = Window(-2 * bound - 4, -2 * bound - 4, 2 * bound + 4)
    # every residue is a series in t, compared from t^0 (below every t^i) up
    read = Window(0, 0, 2 * bound + 4)
    t_plus_s = LaurentSeries.exact({(1, 0): F2Poly.one(), (0, 1): F2Poly.one()})
    cores: dict = {}  # (t + s)^k depends on k = l - j - 1 alone
    for i in range(0, bound + 1):
        for j in range(0, bound + 1 - i):
            for l in range((i + 1) // 2, i + j + 1):
                count += 1
                k = l - j - 1
                if k not in cores:
                    cores[k] = series_pow(t_plus_s, k, box)
                expr = cores[k].shift(i - 2 * l - 1, l + j + 1)
                want = (
                    LaurentSeries.monomial(0, i)
                    if binom_mod2(k, 2 * l - i)
                    else LaurentSeries.zero()
                )
                wrong = _box_failures(read, residue(expr), want)
                if wrong:
                    failures.append(((i, j, l), wrong[0]))
    return _record(
        "residue-replay", failures, f"{count} (i, j, l) triples with i+j <= {bound}"
    )


def check_bisson_joyal(degree_bound: int = 16) -> dict:
    return _fold(
        "bisson-joyal-identity",
        verify_bisson_joyal_identity1(degree_bound),
        f"at degree bound {degree_bound}",
    )


def check_nishida(degree_bound: int = 16) -> dict:
    return _fold(
        "nishida-conjugate-form",
        verify_nishida_conjugate_form(degree_bound),
        f"at degree bound {degree_bound}",
    )


def check_steinberger() -> dict:
    k = 5
    zbars = conjugate_zeta(k)
    return _fold(
        "steinberger-identities",
        verify_steinberger_conjugate(k, zbars=zbars)
        + verify_steinberger_successor(k - 1, zbars=zbars),
        f"(conjugates through index {k}, successors through {k - 1})",
    )


def check_binomial_oracle() -> dict:
    failures = []
    count = 0
    for n in range(0, 65):
        for k in range(0, n + 1):
            count += 1
            if binom_mod2(n, k) != binom_exact_parity(n, k):
                failures.append((n, k))
    # negative tops against the u^0 .. u^40 coefficients of (1+u)^top
    one_plus_u = LaurentSeries.exact({(0, 0): F2Poly.one(), (0, 1): F2Poly.one()})
    box, read = Window(0, 0, 44), Window(0, 0, 40)
    for top in range(-8, 0):
        count += 41
        odd = {(0, k): F2Poly.one() for k in range(0, 41) if binom_mod2(top, k)}
        wrong = _box_failures(read, series_pow(one_plus_u, top, box), LaurentSeries.exact(odd))
        if wrong:
            failures.append((top, wrong[0]))
    return _record(
        "binomial-oracle", failures, f"{count} binomial parities cross-checked"
    )


def _random_unit(rng: random.Random) -> LaurentSeries:
    """A series 1 + (positive-total terms) with small polynomial coefficients."""
    terms = {(0, 0): F2Poly.one()}
    for _ in range(rng.randint(1, 5)):
        es, et = rng.randint(0, 3), rng.randint(0, 3)
        if es == et == 0:
            continue
        c = F2Poly.one() if rng.random() < 0.6 else F2Poly.zeta(rng.randint(1, 2))
        terms[(es, et)] = terms.get((es, et), F2Poly.zero()) + c
    return LaurentSeries.exact({e: c for e, c in terms.items() if not c.is_zero()})


def _unit_round_trip(u: LaurentSeries, box: Window, small: Window) -> str | None:
    """The failure of u's inverse round trip on box ("inverse") or of its
    window soundness on small ("window"), or None."""
    inv = series_inverse(u, window=box)
    if _box_failures(box, series_mul(u, inv), LaurentSeries.one()):
        return "inverse"
    # window soundness: a smaller window computes the same coefficients
    if _box_failures(small, series_inverse(u, window=small), inv):
        return "window"
    return None


def check_series_kernel(instances: int = 500) -> dict:
    rng = random.Random(2026)
    failures = []
    box, small = Window(0, -8, 10), Window(0, -4, 5)
    ident = LaurentSeries.monomial(0, 1)
    # each round trip's outcome depends on its input alone, so each
    # distinct unit (393 of the 500 drawn) is inverted and checked once,
    # and each distinct a (t plus some of t^2 .. t^5, so 15) reversed once;
    # a unit is keyed by its coefficient map as (e_s, e_t, monomial)
    # triples, half the memory of the map's items
    units: dict = {}
    round_trips: dict = {}
    for trial in range(instances):
        u = _random_unit(rng)
        key = frozenset((es, et, m) for (es, et), p in u.coeffs.items() for m in p.monomials)
        if key not in units:
            units[key] = _unit_round_trip(u, box, small)
        if units[key] is not None:
            failures.append((units[key], trial))
            continue  # a failed trial draws no reversion input
        # reversion round-trip on t + random higher univariate terms
        terms = {(0, 1): F2Poly.one()}
        for _ in range(rng.randint(1, 4)):
            terms[(0, rng.randint(2, 5))] = F2Poly.one()
        key = frozenset(terms)
        if key not in round_trips:
            a = LaurentSeries.exact(terms)
            b = series_reversion(a, max_total=9)
            back = series_compose(a, b, window=Window(0, 0, 9))
            round_trips[key] = not _box_failures(Window(0, 1, 9), back, ident)
        if not round_trips[key]:
            failures.append(("reversion", trial))
    return _record(
        "series-kernel", failures, f"{instances} randomized round-trip instances"
    )


def _random_milnor_monomial(rng: random.Random, max_degree: int = 24) -> F2Poly:
    m = F2Poly.one()
    budget = max_degree
    for i in (4, 3, 2, 1):
        d = 2**i - 1
        if d > budget:
            continue
        e = rng.randint(0, budget // d if i == 1 else min(2, budget // d))
        if e:
            m = m * F2Poly.zeta(i, e)
            budget -= e * d
    return m


def _poly_degree(a: F2Poly) -> int:
    parts = a.degree_parts()
    return max(parts) if parts else 0


def check_property_laws() -> dict:
    rng = random.Random(7)
    samples = 24
    failures = []
    count = 0
    # instability: Q^i z_n = 0 for 0 < i < 2^n - 1 (no i for n = 1)
    for n in range(2, 6):
        count += 2**n - 2
        total = q_total_on_zeta(n, 2**n + 2)
        wrong = _box_failures(Window(0, 1, 2**n - 2), total, LaurentSeries.zero())
        if wrong:
            failures.append(("instability", n, wrong[0]))
    # squaring: Q^{deg m}(m) = m^2
    for trial in range(samples):
        m = _random_milnor_monomial(rng)
        d = _poly_degree(m)
        count += 1
        if q_op(d, m) != m.square():
            failures.append(("square", trial, str(m)))
    # Cartan: Q^n(ab) = sum_i Q^i(a) Q^{n-i}(b)
    for trial in range(samples):
        a = _random_milnor_monomial(rng, 8)
        b = _random_milnor_monomial(rng, 8)
        n = rng.randint(0, _poly_degree(a * b) + 2)
        lhs = q_op(n, a * b)
        rhs = F2Poly.zero()
        for i in range(0, n + 1):
            rhs = rhs + q_op(i, a) * q_op(n - i, b)
        count += 1
        if lhs != rhs:
            failures.append(("cartan", trial, str(a), str(b), n))
    return _record("property-laws", failures, f"{count} identities checked")


def run_all(degree_bound: int = 16) -> list:
    """Run every acceptance suite; identity suites honour degree_bound,
    refused before any suite runs when their box is empty.

    Each coefficient of z(t)^{-1} and of each Q(t) z_n is formed once,
    whatever order the suites ask for them in, and kept in its memo.  The
    right side of identity (1) is formed once, by the first identity
    suite, and the other reads it from _identity1_rhs's cache; if forming
    it raises, nothing is cached and each of the two suites fails with
    that error."""
    _identity_box(degree_bound)  # an empty box raises here, not as a suite's record
    reports = []
    for name, suite in [
        ("adem-soundness", check_adem_soundness),
        ("adem-completeness", check_adem_completeness),
        ("residue-replay", check_residue_replay),
        ("bisson-joyal-identity", lambda: check_bisson_joyal(degree_bound)),
        ("nishida-conjugate-form", lambda: check_nishida(degree_bound)),
        ("steinberger-identities", check_steinberger),
        ("binomial-oracle", check_binomial_oracle),
        ("series-kernel", check_series_kernel),
        ("property-laws", check_property_laws),
    ]:
        try:
            reports.append(suite())
        except (LaurentError, ValueError) as e:
            reports.append(_record(name, [f"{type(e).__name__}: {e}"], "raised"))
    return reports
