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
forms no Laurent series: each factor, power and product is a list of its
exact coefficients in t from its valuation to offset i - |m|.  A square
is the Frobenius of the list and each other product one sum_of_products
per offset.  The tests keep the Laurent product chain as the oracle of
q_op.  This module holds only the algebra: the checks of the paper's
identities against it live in ``verify``.
"""

from __future__ import annotations

from functools import cache

from .f2 import F2Poly, factors, monomial_degree, sum_of_products
from .laurent import LaurentSeries, Window, series_reversion

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


def _factor(n: int, top: int) -> list:
    """Q(t) z_n at t^{2^n - 1} .. t^{2^n - 1 + top}, its coefficients from
    its valuation, read off q_total_coefficient."""
    lo = 2**n - 1
    return [q_total_coefficient(n, lo + k) for k in range(top + 1)]


def _square(c: list, top: int) -> list:
    """The Frobenius of c to offset top: offset k goes to 2k, squared, and
    odd offsets vanish."""
    return [c[k >> 1].square() if k % 2 == 0 else _ZERO for k in range(top + 1)]


def _offset(a: list, b: list, k: int) -> F2Poly:
    """Offset k of the product of two coefficient lists, both formed to k
    or further."""
    return sum_of_products((a[j], b[k - j]) for j in range(k + 1))


def _product(a: list, b: list, top: int) -> list:
    """a b, formed to offset top."""
    return [_offset(a, b, k) for k in range(top + 1)]


def _power(n: int, e: int, top: int) -> list:
    """(Q(t) z_n)^e formed to offset top by square-and-multiply, starting
    from its first factor."""
    x, result = _factor(n, top), None
    while e:
        if e & 1:
            result = x if result is None else _product(result, x, top)
        e >>= 1
        if e:
            x = _square(x, top)
    return result


def q_op(i: int, a: F2Poly) -> F2Poly:
    """Q^i(a): the t^i coefficient of the total operation on a.

    Q(t)(xy) = (Q(t)x)(Q(t)y), and Q(t) z_n vanishes below t^{2^n - 1}: so
    for a monomial m the t^i coefficient lies at offset top = i - |m| from
    the valuation t^{|m|} of Q(t) m, and is zero when top < 0, which forms
    nothing.  Each factor, each power (Q(t) z_n)^e and each product is a
    list of its coefficients in t from its valuation to offset top, each
    one exact, and the last product forms offset top alone.  The product
    starts from the first factor's power, and Q(t) 1 = 1.  Each power is
    formed once per call for each (n, e) and offset top, which the
    monomials of a homogeneous a share."""
    result = _ZERO
    powers: dict = {}
    for monomial in a.monomials:
        top = i - monomial_degree(monomial)
        if top < 0:
            continue
        terms = []
        for n, e in factors(monomial):
            power = powers.get((n, e, top))
            if power is None:
                power = powers[(n, e, top)] = _power(n, e, top)
            terms.append(power)
        if not terms:  # the monomial 1, and Q(t) 1 = 1
            if top == 0:
                result = result + _ONE
            continue
        term = terms[0]
        for power in terms[1:-1]:
            term = _product(term, power, top)
        result = result + (_offset(term, terms[-1], top) if len(terms) > 1 else term[top])
    return result
