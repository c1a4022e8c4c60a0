"""The dual Steenrod algebra F2[z1, z2, ...] and the power operation action.

deg z_i = 2^i - 1 (forced by the coaction series z(t) = sum z_i t^{2^i}
with deg t = -1).  The total operation on generators is computed from the
closed form

    t^{2^n} Q(t) z_n = (sum_{i>=n+1} z_i t^{2^i})
                       + z(t)^{-1} (sum_{i>=n} z_i^2 t^{2^{i+1}})

and extended multiplicatively; conjugates come from compositional
reversion of z(t).  Verification routines check the Steinberger
identities, the bivariate total-operation identity, and its conjugate
(Nishida) form.
"""

from __future__ import annotations

from .f2 import F2Poly, factors
from .laurent import (
    LaurentSeries,
    Window,
    series_compose,
    series_inverse,
    series_mul,
    series_pow,
    series_reversion,
)


class WindowTooSmallError(Exception):
    pass


def zeta_series(max_total: int, var: str = "t") -> LaurentSeries:
    """z(v) = v + z1 v^2 + z2 v^4 + ... truncated at the given total degree."""
    terms = {}
    i = 0
    while 2**i <= max_total:
        poly = F2Poly.one() if i == 0 else F2Poly.zeta(i)
        e = 2**i
        terms[(e, 0) if var == "s" else (0, e)] = poly
        i += 1
    w = Window(1 if var == "s" else 0, 1 if var == "t" else 0, max_total)
    return LaurentSeries(w, terms)


def zeta_inverse(max_total: int) -> LaurentSeries:
    """z(t)^{-1} = t^{-1} + z1 + z1^2 t + (z1^3 + z2) t^2 + ..."""
    # the inverse of a series known to degree m is guaranteed to m - 2
    return series_inverse(zeta_series(max_total + 2))


def conjugate_zeta(max_i: int, max_total: int | None = None) -> list:
    """(zbar_1, ..., zbar_max_i) from the reversion of z(t).

    Cross-checked against the recursion sum_{i} z_i zbar_{n-i}^{2^i} = 0
    implied by z(zbar(t)) = t; the two computations must agree.
    """
    if max_i < 1:
        raise ValueError("max_i must be >= 1")
    needed = 2**max_i
    if max_total is None:
        max_total = needed
    if max_total < needed:
        raise WindowTooSmallError(
            f"window max_total={max_total} cannot resolve t^(2^{max_i})"
        )
    zbar_series = series_reversion(zeta_series(max_total))
    from_reversion = [
        zbar_series.coefficient(0, 2**i) for i in range(1, max_i + 1)
    ]
    from_recursion = _conjugates_by_recursion(max_i)
    if from_reversion != from_recursion:
        raise AssertionError(
            "conjugate generators from reversion and recursion disagree"
        )
    return from_reversion


def _conjugates_by_recursion(max_i: int) -> list:
    # zbar_n = sum_{i=1..n} z_i zbar_{n-i}^{2^i}  (char 2, zbar_0 = 1)
    zbar = {0: F2Poly.one()}
    for n in range(1, max_i + 1):
        acc = F2Poly.zero()
        for i in range(1, n + 1):
            acc = acc + F2Poly.zeta(i) * zbar[n - i] ** (2**i)
        zbar[n] = acc
    return [zbar[n] for n in range(1, max_i + 1)]


_q_total_cache: dict = {}


def q_total_on_zeta(n: int, max_total: int) -> LaurentSeries:
    """Q(t) z_n as a series in t with coefficients in F2[z1, z2, ...]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    key = (n, max_total)
    cached = _q_total_cache.get(key)
    if cached is not None:
        return cached
    if n == 0:
        result = LaurentSeries.one()
    else:
        # evaluate the right side of the closed form at a working bound
        # large enough that dividing by t^{2^n} still resolves max_total
        work = max_total + 2 ** (n + 1) + 4
        high = {}
        i = n + 1
        while 2**i <= work:
            high[(0, 2**i)] = F2Poly.zeta(i)
            i += 1
        first = LaurentSeries(Window(0, 2 ** (n + 1), work), high)
        sq = {}
        i = n
        while 2 ** (i + 1) <= work:
            sq[(0, 2 ** (i + 1))] = F2Poly.zeta(i).square()
            i += 1
        squares = LaurentSeries(Window(0, 2 ** (n + 1), work), sq)
        rhs = first + series_mul(zeta_inverse(work), squares)
        result = rhs.shift(0, -(2**n))
        min_t = result.window.min_t
        if min_t > max_total:
            # everything requested lies below the certified vanishing line
            result = LaurentSeries.truncated(
                {}, Window(0, max_total, max_total),
                honest_s=result.honest_s, honest_t=result.honest_t,
            )
        else:
            result = result.restricted(Window(0, min_t, max_total))
    _q_total_cache[key] = result
    return result


def q_total_on_element(a: F2Poly, max_total: int) -> LaurentSeries:
    """Q(t) a for a polynomial a, by multiplicativity (the Cartan formula
    in generating-series form): Q(t)(xy) = (Q(t)x)(Q(t)y)."""
    result = None
    for monomial in a.monomials:
        term = LaurentSeries.one()
        for n, exp in factors(monomial):
            factor = series_pow(q_total_on_zeta(n, max_total), exp)
            term = series_mul(term, factor)
        result = term if result is None else result + term
    return LaurentSeries.zero() if result is None else result


def q_op(i: int, a: F2Poly, max_total: int | None = None) -> F2Poly:
    """Q^i(a): the t^i coefficient of the total operation on a."""
    if a.is_zero():
        return F2Poly.zero()
    if max_total is None:
        max_total = max(i, 0) + 1
    total = q_total_on_element(a, max_total)
    w = total.window
    if not w.contains(0, i):
        below_axis = (total.honest_t and i < w.min_t) or (
            total.honest_s and 0 < w.min_s
        )
        if below_axis and (w.max_total is None or i <= w.max_total):
            return F2Poly.zero()
        raise WindowTooSmallError(
            f"t^{i} outside the guaranteed window {w.describe()}"
        )
    return total.coefficient(0, i)


# -- verification reports ----------------------------------------------


def _report(checks: list) -> dict:
    return {"passed": all(c["ok"] for c in checks), "checks": checks}


def verify_steinberger_conjugate(i_max: int, max_total: int | None = None) -> dict:
    """Q^{2^i - 2} z_1 = zbar_i for 2 <= i <= i_max, via both the total
    operation on z_1 and the residue of t^{-2^i + 1} z(t)^{-1} dt."""
    if i_max < 2:
        raise ValueError("i_max must be >= 2")
    if max_total is None:
        max_total = 2**i_max
    zbars = conjugate_zeta(i_max, max_total=max(max_total, 2**i_max))
    qz1 = q_total_on_zeta(1, max_total)
    zinv = zeta_inverse(max_total)
    checks = []
    for i in range(2, i_max + 1):
        lhs = qz1.coefficient(0, 2**i - 2)
        rhs = zbars[i - 1]
        # res(t^{-2^i+1} z(t)^{-1} dt) is the t^{2^i - 2} coefficient of z(t)^{-1}
        res_form = zinv.coefficient(0, 2**i - 2)
        checks.append(
            {
                "identity": f"Q^(2^{i}-2) z1 = zbar_{i}",
                "index": i,
                "ok": lhs == rhs and res_form == rhs,
            }
        )
    return _report(checks)


def verify_steinberger_successor(i_max: int, max_total: int | None = None) -> dict:
    """Q^{2^i} z_i = z_{i+1} + z_i^2 z_1 and Q^{2^i} zbar_i = zbar_{i+1}."""
    if i_max < 0:
        raise ValueError("i_max must be >= 0")
    if max_total is None:
        max_total = 2 ** (i_max + 1) + 2
    zbars = [F2Poly.one()] + conjugate_zeta(i_max + 1)
    checks = []
    for i in range(0, i_max + 1):
        lhs = q_op(2**i, F2Poly.zeta(i) if i >= 1 else F2Poly.one(), max_total)
        rhs = F2Poly.zeta(i + 1) + (
            F2Poly.zeta(i).square() * F2Poly.zeta(1) if i >= 1 else F2Poly.zero()
        )
        if i == 0:
            # Q^1(1) = 0 and z1 + z0^2 z1 = z1 + z1 = 0: both sides vanish
            rhs = F2Poly.zero()
        checks.append(
            {
                "identity": f"Q^(2^{i}) z{i} = z{i+1} + z{i}^2 z1",
                "index": i,
                "ok": lhs == rhs,
            }
        )
        if i >= 1:
            # i = 0 degenerates: Q^1 kills the unit, while zbar_1 = z1
            lhs_bar = q_op(2**i, zbars[i], max_total)
            checks.append(
                {
                    "identity": f"Q^(2^{i}) zbar_{i} = zbar_{i+1}",
                    "index": i,
                    "ok": lhs_bar == zbars[i + 1],
                }
            )
    return _report(checks)


def _identity1_rhs(work: int) -> LaurentSeries:
    """sum_i (Q(t) z_i)(s^{2^i} + s^{2^{i+1}} t^{-2^i})."""
    rhs = None
    i = 0
    while 2**i <= work:
        term = series_mul(
            q_total_on_zeta(i, work).shift(2**i, 0),
            LaurentSeries.exact(
                {(0, 0): F2Poly.one(), (2**i, -(2**i)): F2Poly.one()}
            ),
        )
        rhs = term if rhs is None else rhs + term
        i += 1
    return rhs


def verify_bisson_joyal_identity1(max_total: int) -> dict:
    """z(s) + z(s)^2 z(t)^{-1} = sum_i (Q(t) z_i)(s^{2^i} + s^{2^{i+1}} t^{-2^i})
    on the guaranteed window, plus its augmentation collapse to s + s^2 t^{-1}."""
    d = max_total
    work = 2 * d + 4
    zs = zeta_series(work, var="s")
    lhs = zs + series_mul(zs.square(), zeta_inverse(work))
    rhs = _identity1_rhs(work)
    box = Window(1, -d, d)
    lhs_r = lhs.restricted(box)
    rhs_r = rhs.restricted(box)
    mismatch = lhs_r.first_disagreement(rhs_r)
    checks = [
        {
            "identity": "bisson-joyal identity (1)",
            "index": d,
            "ok": mismatch is None,
            "first_mismatch": mismatch,
        }
    ]
    aug = lhs_r.map_coeffs(lambda p: p.augment())
    expected = LaurentSeries.exact(
        {(1, 0): F2Poly.one(), (2, -1): F2Poly.one()}
    ).restricted(box)
    checks.append(
        {
            "identity": "augmentation collapse to s + s^2 t^-1",
            "index": d,
            "ok": aug.agrees_with(expected) and not aug.is_zero(),
            "first_mismatch": aug.first_disagreement(expected),
        }
    )
    return _report(checks)


def verify_nishida_conjugate_form(max_total: int) -> dict:
    """The conjugate (Nishida) form of the total-operation identity for
    x = s: Q(zbar(t)) applied to psi_R(s) = z(s) must equal
    sum_i psi_R(Q^i s) t^i = z(s) + z(s)^2 t^{-1}, since z(zbar(t)) = t."""
    d = max_total
    work = 2 * d + 4
    zbar = series_reversion(zeta_series(work))
    box = Window(1, -d, d)
    tbox = Window(0, -(d + 1), work)

    # right side: Q(t) z(s) (which is identity (1)) with t -> zbar(t),
    # substituted stratum by stratum in s
    rhs = series_compose(_identity1_rhs(work), zbar, var="t", window=tbox)

    # left side: Q^0 s = s and Q^{-1} s = s^2 are the only operations on s
    zs = zeta_series(work, var="s")
    lhs = zs + zs.square().shift(0, -1)

    lhs_r = lhs.restricted(box)
    rhs_r = rhs.restricted(box)
    mismatch = lhs_r.first_disagreement(rhs_r)
    z_of_zbar = series_compose(zeta_series(work), zbar, var="t", window=tbox)
    checks = [
        {
            "identity": "z(zbar(t)) = t",
            "index": d,
            "ok": z_of_zbar.agrees_with(LaurentSeries.monomial(0, 1).restricted(tbox)),
            "first_mismatch": None,
        },
        {
            "identity": "nishida conjugate form (x = s)",
            "index": d,
            "ok": mismatch is None,
            "first_mismatch": mismatch,
        },
    ]
    aug = rhs_r.map_coeffs(lambda p: p.augment())
    expected = LaurentSeries.exact(
        {(1, 0): F2Poly.one(), (2, -1): F2Poly.one()}
    ).restricted(box)
    checks.append(
        {
            "identity": "augmentation collapse to s + s^2 t^-1",
            "index": d,
            "ok": aug.agrees_with(expected) and not aug.is_zero(),
            "first_mismatch": aug.first_disagreement(expected),
        }
    )
    return _report(checks)
