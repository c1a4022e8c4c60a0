"""The dual Steenrod algebra F2[z1, z2, ...] and the power operation action.

deg z_i = 2^i - 1 (forced by the coaction series z(t) = sum z_i t^{2^i}
with deg t = -1).  The total operation on generators is computed from the
closed form

    t^{2^n} Q(t) z_n = (sum_{i>=n+1} z_i t^{2^i})
                       + z(t)^{-1} (sum_{i>=n} z_i^2 t^{2^{i+1}})

and extended multiplicatively; conjugates come from compositional
reversion of z(t).  In characteristic 2, z(t)^{-1} = z(t) (z(t)^{-1})^2,
so the coefficients c_k of z(t)^{-1} = sum_{k>=-1} c_k t^k obey

    c_k = sum_{i>=0, k - 2^i even} z_i c_{(k - 2^i)/2}^2    (z_0 = c_{-1} = 1)

and each comes from squares of earlier ones (an odd k from the one
square c_{(k-1)/2}^2).  zeta_inverse_coefficient(k) gives c_k and
q_total_coefficient(n, m) the t^m coefficient of Q(t) z_n, each memoized
by its position, so a request forms only the coefficients it reads and
those they recurse on; the series zeta_inverse and q_total_on_zeta are
read off them.

Q^i(a) is the t^i coefficient of Q(t) a, and for a monomial m it needs
only t^{|m|} .. t^i of each factor (Q(t) z_n)^e, all in t alone.  So q_op
forms no Laurent series: each factor, power and product is a list of
coefficients in t from its valuation, formed as far as the read reaches,
with three integers (lo, hi, lead) for the window that series_mul and
series_pow would certify for it.  A square is the Frobenius of the list
and each other product one sum_of_products per offset; the answer is
read inside the window, or refused naming it.  The tests keep the
Laurent product chain as the oracle of q_op.  This module holds only the
algebra: the checks of the paper's identities against it live in
``verify``.
"""

from __future__ import annotations

from functools import cache

from .f2 import F2Poly, factors, monomial_degree, sum_of_products
from .laurent import LaurentSeries, Window, WindowMissError, series_reversion

_ZERO, _ONE = F2Poly.zero(), F2Poly.one()


@cache
def _zeta(i: int, e: int = 1) -> F2Poly:
    """z_i^e with z_0 = 1, formed once for every coefficient that reads it."""
    return F2Poly.zeta(i, e) if i else _ONE


def zeta_series(max_total: int, var: str = "t") -> LaurentSeries:
    """z(v) = v + z1 v^2 + z2 v^4 + ... truncated at the given total degree."""
    terms = {}
    i = 0
    while 2**i <= max_total:
        e = 2**i
        terms[(e, 0) if var == "s" else (0, e)] = _zeta(i)
        i += 1
    w = Window(1 if var == "s" else 0, 1 if var == "t" else 0, max_total)
    return LaurentSeries(w, terms)


@cache
def zeta_inverse_coefficient(k: int) -> F2Poly:
    """c_k, the t^k coefficient of z(t)^{-1}: c_{-1} = 1, zero below, and
    above from the squares c_{(k - 2^i)/2}^2 by the recurrence in the
    module docstring.  Memoized by k, so a request forms only the
    positions its recursion reaches, about log2 k deep."""
    if k < 0:
        return _ONE if k == -1 else _ZERO
    return sum_of_products(
        (_zeta(i), zeta_inverse_coefficient((k - 2**i) // 2).square())
        for i in range((k + 2).bit_length())
        if (k - 2**i) % 2 == 0
    )


def zeta_inverse(max_total: int) -> LaurentSeries:
    """z(t)^{-1} = t^{-1} + z1 + z1^2 t + (z1^3 + z2) t^2 + ..., known to
    total max_total.

    Every coefficient is read off zeta_inverse_coefficient, which gives
    exactly the true one, so the result does not depend on what ran
    before.  The inverse of z(t), a series in t alone with positive
    exponents, is honest in both axes."""
    return LaurentSeries.truncated(
        {(0, k): zeta_inverse_coefficient(k) for k in range(-1, max_total + 1)},
        Window(0, -1, max_total),
    )


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
    """Q(t) z_n as a series in t with coefficients in F2[z1, z2, ...],
    read off q_total_coefficient on e_t >= 2^n - 1, below which it
    vanishes."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return LaurentSeries.one()
    if max(max_total + 1, 0).bit_length() <= n:
        # 2^n - 1 > max_total (tested without forming 2^n): every
        # requested coefficient lies below the instability line
        return LaurentSeries.truncated({}, Window(0, max_total, max_total))
    return LaurentSeries.truncated(
        {(0, m): q_total_coefficient(n, m) for m in range(2**n - 1, max_total + 1)},
        Window(0, 2**n - 1, max_total),
    )


@cache
def q_total_coefficient(n: int, m: int) -> F2Poly:
    """[t^m] Q(t) z_n for n >= 1, from the closed form in the module
    docstring: with p = m + 2^n,

        [t^m] Q(t) z_n = [z_j if p = 2^j] + sum_{j>=n} z_j^2 c_{p - 2^{j+1}}

    on m >= 2^n - 1 (so p = 2^j has j > n), and zero below.  Memoized by
    (n, m)."""
    if m < 2**n - 1:
        return _ZERO
    p = m + 2**n
    # z_j^2 c_{p - 2^{j+1}} for every j with p - 2^{j+1} >= -1
    pairs = [
        (_zeta(j, 2), zeta_inverse_coefficient(p - 2 ** (j + 1)))
        for j in range(n, (p + 1).bit_length() - 1)
    ]
    if p & (p - 1) == 0:
        pairs.append((_zeta(p.bit_length() - 1), _ONE))
    return sum_of_products(pairs)


def _factor(n: int, bound: int, top: int) -> tuple:
    """Q(t) z_n cut at total bound, as the truncated series (lo, hi, lead,
    coeffs): known on lo <= e_t <= hi, zero below lo, with its least nonzero
    coefficient at lead (None: none is known), and coeffs its coefficients
    at t^lo .. t^{lo + top}, as far as hi, read off q_total_coefficient.
    Cut at or above t^{2^n - 1}, it is led there by z_n^2; cut below, it
    is known to vanish through bound.  A negative top forms no
    coefficient."""
    lo = 2**n - 1
    if bound < lo:
        return bound, bound, None, [_ZERO] if top >= 0 else []
    return lo, bound, lo, [q_total_coefficient(n, lo + k) for k in range(min(top, bound - lo) + 1)]


def _square(x: tuple, top: int) -> tuple:
    """The Frobenius of x: offset k goes to 2k, squared, and the square
    is known one total further than twice x's, where odd totals vanish."""
    lo, hi, lead, c = x
    hi = 2 * hi + 1
    coeffs = [
        c[k >> 1].square() if k % 2 == 0 else _ZERO for k in range(min(top, hi - 2 * lo) + 1)
    ]
    return 2 * lo, hi, None if lead is None else 2 * lead, coeffs


def _product_window(x: tuple, y: tuple) -> tuple:
    """(lo, hi, lead) of x y, as series_mul certifies it: each factor's
    unknown terms begin past its hi, and the other's known terms vanish
    below its cert, its lead (or everything it knows, hi + 1, when it has
    none).  F2[z1, z2, ...] has no zero divisors, so the leads multiply
    to the product's lead, when the product is known that far."""
    (lo1, hi1, lead1, _), (lo2, hi2, lead2, _) = x, y
    cert1 = hi1 + 1 if lead1 is None else lead1
    cert2 = hi2 + 1 if lead2 is None else lead2
    hi = min(hi1 + cert2, hi2 + cert1)
    lead = None if lead1 is None or lead2 is None or lead1 + lead2 > hi else lead1 + lead2
    return lo1 + lo2, hi, lead


def _offset(a: list, b: list, k: int) -> F2Poly:
    """Offset k of the product of two coefficient lists, from the pairs
    both hold: every other pair meets a term the product window certifies
    zero."""
    pairs = range(max(k - len(b) + 1, 0), min(k, len(a) - 1) + 1)
    return sum_of_products((a[j], b[k - j]) for j in pairs)


def _product(x: tuple, y: tuple, top: int) -> tuple:
    """x y, formed to offset top."""
    lo, hi, lead = _product_window(x, y)
    a, b = x[3], y[3]
    return lo, hi, lead, [_offset(a, b, k) for k in range(min(top, hi - lo) + 1)]


def _power(n: int, bound: int, e: int, top: int) -> tuple:
    """(Q(t) z_n)^e from the factor cut at bound, formed to offset top by
    the square-and-multiply chain of series_pow, which starts from its
    first factor, so that the windows are the ones it certifies."""
    x, result = _factor(n, bound, top), None
    while e:
        if e & 1:
            result = x if result is None else _product(result, x, top)
        e >>= 1
        if e:
            x = _square(x, top)
    return result


def q_op(i: int, a: F2Poly, max_total: int | None = None) -> F2Poly:
    """Q^i(a): the t^i coefficient of the total operation on a.

    Q(t)(xy) = (Q(t)x)(Q(t)y), and Q(t) z_n vanishes below t^{2^n - 1}: so
    for a monomial m, each factor is needed only to its valuation plus
    i - |m|, and only at t^{2^n - 1} and above.  Each factor, each power
    (Q(t) z_n)^e and each product is a list of coefficients in t from the
    series' valuation, formed no further than the offset i - |m| that the
    read reaches, and the last product forms that offset alone.  Each
    carries the window series_mul and series_pow would certify for it,
    three integers that the products and squares combine: the answer is
    certified on it, or WindowMissError names t^i and the window it lies
    outside.  The product starts from the first factor's power, and
    Q(t) 1 = 1.  Each power is formed once per call for each (n, e) and
    offset i - |m|, which the monomials of a homogeneous a share."""
    if max_total is None:
        max_total = max(i, 0) + 1
    result = _ZERO
    powers: dict = {}
    for monomial in a.monomials:
        top = i - monomial_degree(monomial)
        terms = []
        for n, e in factors(monomial):
            power = powers.get((n, e, top))
            if power is None:
                bound = min(max_total, (1 << n) - 1 + max(top, 0))
                power = powers[(n, e, top)] = _power(n, bound, e, top)
            terms.append(power)
        if not terms:  # the monomial 1, and Q(t) 1 = 1
            if i == 0:
                result = result + _ONE
            continue
        term = terms[0]
        for power in terms[1:-1]:
            term = _product(term, power, top)
        last = terms[-1]
        lo, hi, lead = _product_window(term, last) if len(terms) > 1 else term[:3]
        if i > hi:
            raise WindowMissError(
                f"t^{i} outside the guaranteed window {Window(0, lo, hi).describe()}"
            )
        # a term with a lead starts at t^{|m|}, so i - lo is top, the
        # offset every list was formed to
        if lead is not None and i >= lead:
            k = i - lo
            result = result + (_offset(term[3], last[3], k) if len(terms) > 1 else term[3][k])
    return result
