"""The dual Steenrod algebra F2[z1, z2, ...] and the power operation action.

deg z_i = 2^i - 1 (forced by the coaction series z(t) = sum z_i t^{2^i}
with deg t = -1).  The total operation on generators is computed from the
closed form

    t^{2^n} Q(t) z_n = (sum_{i>=n+1} z_i t^{2^i})
                       + z(t)^{-1} (sum_{i>=n} z_i^2 t^{2^{i+1}})

and extended multiplicatively; conjugates come from compositional
reversion of z(t).  z(t)^{-1} is formed once per command where it can
be: zeta_inverse keeps the largest inverse formed so far and restricts
it for a smaller request, which gives exactly the inverse formed to that
total (see its docstring), so a caller that needs several totals asks
for the largest first.  This module holds only the algebra: the checks of
the paper's identities against it live in ``verify``.
"""

from __future__ import annotations

from functools import lru_cache

from .f2 import F2Poly, factors, monomial_degree
from .laurent import (
    LaurentSeries,
    Window,
    WindowMissError,
    series_inverse,
    series_mul,
    series_pow,
    series_reversion,
)


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


# the largest z(t)^{-1} formed so far, by its max_total: one entry at most
_largest_inverse: dict = {}


def zeta_inverse(max_total: int) -> LaurentSeries:
    """z(t)^{-1} = t^{-1} + z1 + z1^2 t + (z1^3 + z2) t^2 + ..., known to
    total max_total.

    The largest inverse formed so far is kept, and a smaller request is
    answered by restricting it.  That is exact: each coefficient a window
    claims is the true one, and the inverse of z(t), a series in t alone
    with positive exponents, is honest in both axes, so restriction keeps
    the window's axes and cuts only its total.  The result, its window and
    its honesty in t are those of the inverse formed to max_total
    directly, and no answer depends on what ran before.
    """
    if _largest_inverse:
        ((largest, inverse),) = _largest_inverse.items()
        if max_total == largest:
            return inverse
        if max_total < largest:
            return inverse.restricted(Window(0, -1, max_total))
    # the inverse of a series known to degree m is guaranteed to m - 2
    inverse = series_inverse(zeta_series(max_total + 2), Window(0, -1, max_total))
    _largest_inverse.clear()
    _largest_inverse[max_total] = inverse
    return inverse


def conjugate_zeta(max_i: int) -> list:
    """(zbar_1, ..., zbar_max_i) from the reversion of z(t).

    Cross-checked against the recursion sum_{i} z_i zbar_{n-i}^{2^i} = 0
    implied by z(zbar(t)) = t; the two computations must agree.
    """
    if max_i < 1:
        raise ValueError("max_i must be >= 1")
    zbar_series = series_reversion(zeta_series(2**max_i))
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


def q_total_on_zeta(n: int, max_total: int) -> LaurentSeries:
    """Q(t) z_n as a series in t with coefficients in F2[z1, z2, ...]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= 1 and max(max_total + 1, 0).bit_length() <= n:
        # 2^n - 1 > max_total (tested without forming 2^n): every
        # requested coefficient lies below the instability line
        return LaurentSeries.truncated({}, Window(0, max_total, max_total))
    return LaurentSeries.one() if n == 0 else _q_total_closed_form(n, max_total)


# 128 entries hold every (n, max_total) one command asks for (verify-all
# asks for 41 at bound 32 and 44 at its limit 192), and cache_info()
# reports hits and size
@lru_cache(maxsize=128)
def _q_total_closed_form(n: int, max_total: int) -> LaurentSeries:
    """Q(t) z_n for n >= 1 from the closed form in the module docstring."""
    # the right side is needed to total P = max_total + 2^n; z(t)^{-1}
    # (valuation -1) known to W times the squares (valuation 2^{n+1},
    # known to S) is known to min(W + 2^{n+1}, S - 1) >= P; the clamps
    # keep both windows non-empty below the instability line
    p = max_total + 2**n
    w = max(p - 2 ** (n + 1), -1)
    s = max(p + 1, 2 ** (n + 1))
    high, sq = {}, {}
    i = n + 1
    while 2**i <= s:
        high[(0, 2**i)] = F2Poly.zeta(i)
        sq[(0, 2**i)] = F2Poly.zeta(i - 1).square()
        i += 1
    first = LaurentSeries(Window(0, 2 ** (n + 1), s), high)
    squares = LaurentSeries(Window(0, 2 ** (n + 1), s), sq)
    rhs = first + series_mul(zeta_inverse(w), squares)
    result = rhs.shift(0, -(2**n))
    min_t = result.window.min_t
    if min_t > max_total:
        # everything requested lies below the certified vanishing line
        return LaurentSeries.truncated({}, Window(0, max_total, max_total), result.honest_t)
    return result.restricted(Window(0, min_t, max_total))


def q_op(i: int, a: F2Poly, max_total: int | None = None) -> F2Poly:
    """Q^i(a): the t^i coefficient of the total operation on a.

    Q(t)(xy) = (Q(t)x)(Q(t)y), and Q(t) z_n vanishes below t^{2^n - 1}: so
    for a monomial m, each factor is needed only to its valuation plus
    i - |m|, and the windows of the product certify the answer, or raise
    WindowMissError naming t^i and the window it lies outside.  The
    product starts from the first factor's power, and Q(t) 1 = 1."""
    if max_total is None:
        max_total = max(i, 0) + 1
    result = F2Poly.zero()
    for monomial in a.monomials:
        slack = max(i - monomial_degree(monomial), 0)
        term = None
        for n, e in factors(monomial):
            bound = min(max_total, (1 << n) - 1 + slack)
            power = series_pow(q_total_on_zeta(n, bound), e)
            term = power if term is None else series_mul(term, power)
        if term is None:  # the monomial 1, and Q(t) 1 = 1
            term = LaurentSeries.one()
        try:
            result = result + term.coefficient(0, i)
        except WindowMissError:
            raise WindowMissError(
                f"t^{i} outside the guaranteed window {term.window.describe()}"
            ) from None
    return result
