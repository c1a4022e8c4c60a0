"""Scalar and polynomial arithmetic over GF(2).

Binomial parities (including generalized binomials with negative top
argument) and sparse polynomials in the dual Steenrod algebra
F2[z1, z2, ...], graded by deg z_i = 2^i - 1.  These polynomials are the
coefficient ring for everything else in the package.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import comb, factorial
from operator import or_
from typing import Iterable

# A monomial z1^e1 z2^e2 ... is one int whose bits [W(i-1), Wi) hold e_i
# (0 is 1), so a product is an integer add and the Frobenius a one-bit
# shift.  The top bit of each field is a guard: zeta, products and squares
# refuse an exponent that reaches it, so no sum of two carries into the
# next field.  Every exponent the CLI reaches is at most its degree bound
# and every index about log2 of it, and no command answers in reasonable
# time at a bound near 2^15, let alone 2^63.  Only this module looks
# inside a monomial: other code reads it through ``factors`` and
# ``monomial_degree``, and multiplies through ``sum_of_products``,
# ``map_product`` and ``map_inverse``.  The first two check the guard once
# per call: no factor's field reaches it, so nothing carries before the
# check, and an overflow that cancels is no error.  map_inverse squares
# what it forms and multiplies the squares, so it checks each coefficient
# it forms, and each square before a product: a field whose bit below the
# guard is set reaches the guard when squared.
Monomial = int
_W = 16
_MAX_INDEX = 64
_FIELD = (1 << _W) - 1
_GUARD = sum(1 << (_W * k + _W - 1) for k in range(_MAX_INDEX))
_HALF_GUARD = _GUARD >> 1  # the bit below each guard, which a square moves up


def binom_mod2(top: int, bottom: int) -> int:
    """Parity of the generalized binomial coefficient C(top, bottom).

    For top >= 0 this is the Lucas-theorem parity.  For top < 0 we use
    C(-a, k) = (-1)^k C(a+k-1, k), and the sign disappears mod 2.
    Returns 0 for bottom < 0 and for bottom > top >= 0.
    """
    if bottom < 0:
        return 0
    if top < 0:
        top = -top + bottom - 1
    if bottom > top:
        return 0
    return 1 if (bottom & (top - bottom)) == 0 else 0


def binom_exact_parity(top: int, bottom: int) -> int:
    """Independent oracle: parity of the exact integer binomial, computed
    from the falling factorial so that negative tops are included."""
    if bottom < 0:
        return 0
    if top >= 0:
        return comb(top, bottom) & 1 if bottom <= top else 0
    num = 1
    for i in range(bottom):
        num *= top - i
    return (num // factorial(bottom)) & 1


def factors(m: Monomial) -> tuple:
    """The pairs (i, e) with z_i^e in m and e > 0, by increasing i."""
    out, i = [], 1
    while m:
        if m & _FIELD:
            out.append((i, m & _FIELD))
        m, i = m >> _W, i + 1
    return tuple(out)


def monomial_degree(m: Monomial) -> int:
    return sum(((1 << i) - 1) * e for i, e in factors(m))


def _checked(monomials: set) -> "F2Poly":
    """The polynomial on these monomials, refused if a guard bit is set."""
    high = reduce(or_, monomials, 0) & _GUARD
    if high:
        i = (high & -high).bit_length() // _W
        raise ValueError(f"exponent of z{i} reaches 2^{_W - 1}: F2Poly overflow")
    return _poly(frozenset(monomials))


def sum_of_products(pairs: Iterable[tuple]) -> "F2Poly":
    """The sum of p * q over the (p, q) pairs, formed in one set."""
    acc: set = set()
    for p, q in pairs:
        qs = q.monomials
        for ma in p.monomials:  # one row's products are distinct
            acc ^= {ma + mb for mb in qs}
    return _checked(acc)


def _terms(coeffs: dict) -> list:
    """(e_s, e_t, monomials, the one monomial or None) per coefficient."""
    return [
        (es, et, p.monomials, next(iter(p.monomials)) if len(p.monomials) == 1 else None)
        for (es, et), p in coeffs.items()
    ]


def map_product(factor_pairs: Iterable[tuple], max_total: int | float) -> dict:
    """The sum of the products of the coefficient maps in each (a, b) of
    factor_pairs, maps from exponents (e_s, e_t) to nonzero polynomials,
    at the exponents of total e_s + e_t <= max_total (inf: no bound).

    Each output coefficient is formed in one set as the pairs arrive, and
    a pair past max_total forms no product; a sum that cancels is
    dropped."""
    sums: dict = {}
    for a, b in factor_pairs:
        rows = _terms(b)
        for es1, et1, ps, m1 in _terms(a):
            for es2, et2, qs, m2 in rows:
                es, et = es1 + es2, et1 + et2
                if es + et > max_total:
                    continue
                acc = sums.get((es, et))
                if acc is None:
                    acc = sums[(es, et)] = set()
                if m1 == 0:  # the constant 1
                    acc ^= qs
                elif m2 == 0:
                    acc ^= ps
                elif m1 is not None and m2 is not None:
                    m = m1 + m2
                    if m in acc:
                        acc.remove(m)
                    else:
                        acc.add(m)
                elif m1 is not None:
                    acc ^= {m1 + mb for mb in qs}
                elif m2 is not None:
                    acc ^= {ma + m2 for ma in ps}
                else:
                    for ma in ps:  # one row's products are distinct
                        acc ^= {ma + mb for mb in qs}
    # one check over all sums; the first sum past the guard is named
    if reduce(or_, chain.from_iterable(sums.values()), 0) & _GUARD:
        for acc in sums.values():
            _checked(acc)
    # each set is freed as its polynomial is made, so no two copies of the
    # product are held at once
    return {e: _poly(frozenset(acc)) for e in list(sums) if (acc := sums.pop(e))}


def map_inverse(r: dict, max_s: int, min_t: int, max_total: int) -> dict:
    """The coefficients of c = (1 + r)^{-1} at e_s <= max_s, e_t >= min_t
    and e_s + e_t <= max_total, for a map r from exponents (e_s, e_t) to
    nonzero polynomials whose keys are lexicographically positive and of
    total >= 0.

    c = sum_n r^n has no term below e_s = 0, e_t = 0 on row e_s = 0, or
    total 0.  In characteristic 2, c = (1 + r) c^2, so

        c_e = sum_f a_f c_{(e - f)/2}^2

    over the terms a_f s^f_s t^f_t of 1 + r with e - f even in both
    exponents, and c_0 = 1.  Each c_g, once final, adds a_f c_g^2 at 2g + f
    for every f.  A row e_s > 0 is fed only from rows at or below e_s/2,
    and row 0 only from lower e_t in row 0, so the rows, and row 0 by
    increasing e_t, are final in order.  Every feeder of a position has at
    most half its e_s and its total, so the recurrence forms c at
    e_s <= max_s and total <= max_total and nothing outside.  Each
    coefficient is checked for the guard as it becomes final, and its
    square before it is multiplied, and made a polynomial only at
    e_t >= min_t."""
    if max_s < 0 or max_total < 0:
        return {}
    # (f_s, f_t, monomials, or None for the constant 1) by increasing f_s
    terms = sorted(
        (fs, ft, None if p.is_one() else p.monomials)
        for (fs, ft), p in r.items()
        if fs <= max_s and fs + ft <= max_total
    )
    rows: list = [{} for _ in range(max_s + 1)]
    rows[0][0] = {0}
    out = {}
    for es, row in enumerate(rows):
        # row 0 gains positions as it is read, all at higher e_t; every
        # other row is final when it is reached
        cells = ((et, row.get(et)) for et in range(max_total + 1)) if es == 0 else row.items()
        for et, c in cells:
            if not c:
                continue
            high = reduce(or_, c, 0)
            if high & _GUARD:
                _checked(c)  # raises, naming the field
            if et >= min_t:
                out[(es, et)] = _poly(frozenset(c))
            gs, gt = 2 * es, 2 * et
            if gs > max_s or gs + gt > max_total:
                continue  # c^2 reaches no position formed
            sq = {m << 1 for m in c}
            if high & _HALF_GUARD:
                _checked(sq)  # the square reaches the guard: raises
            if es or et:  # the term 1 of 1 + r: c_0 is 1 already
                acc = rows[gs].setdefault(gt, set())
                acc ^= sq
            for fs, ft, ps in terms:
                if gs + fs > max_s:
                    break
                if gs + gt + fs + ft > max_total:
                    continue
                acc = rows[gs + fs].setdefault(gt + ft, set())
                if ps is None:
                    acc ^= sq
                else:
                    for ma in ps:  # one row's products are distinct
                        acc ^= {ma + m for m in sq}
    return out


class F2Poly:
    """Sparse polynomial over GF(2): a finite set of monomials.

    Coefficients are implicitly 1; addition is symmetric difference, so
    cancellation in characteristic 2 is free.  Values are immutable.
    """

    __slots__ = ("monomials",)

    def __init__(self, monomials: Iterable[Monomial] = ()):
        _set_monomials(self, frozenset(monomials))

    def __setattr__(self, name, value):
        raise AttributeError("F2Poly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild a polynomial through __init__, past __setattr__
        return F2Poly, (self.monomials,)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "F2Poly":
        return _ZERO

    @staticmethod
    def one() -> "F2Poly":
        return _ONE

    @staticmethod
    def zeta(i: int, exp: int = 1) -> "F2Poly":
        if not 1 <= i <= _MAX_INDEX or exp < 0:
            raise ValueError(f"z{i}^{exp}: need 1 <= index <= {_MAX_INDEX}, exponent >= 0")
        # an exponent past the guard is refused as one that reaches it
        return _checked({min(exp, 1 << (_W - 1)) << (_W * (i - 1))})

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "F2Poly") -> "F2Poly":
        return _poly(self.monomials ^ other.monomials)

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        return sum_of_products(((self, other),))

    def square(self) -> "F2Poly":
        # Frobenius: (sum m)^2 = sum m^2 in characteristic 2
        return _checked({m << 1 for m in self.monomials})

    def __pow__(self, k: int) -> "F2Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base.square()
            k >>= 1
        return result

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.monomials

    def is_one(self) -> bool:
        return self.monomials == {0}

    def degree_parts(self) -> dict:
        """Split into homogeneous components, keyed by degree."""
        parts: dict = {}
        for m in self.monomials:
            parts.setdefault(monomial_degree(m), set()).add(m)
        return {d: F2Poly(ms) for d, ms in sorted(parts.items())}

    def augment(self) -> "F2Poly":
        """The constant term: every z_i goes to 0."""
        return _ONE if 0 in self.monomials else _ZERO

    # -- canonical form -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, F2Poly):
            return NotImplemented
        return self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash(self.monomials)

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        # one pass over each monomial's fields gives its degree, its sort
        # key (i1, e1, i2, e2, ...), which orders as its factors do, and
        # its text
        keyed = []
        for m in self.monomials:
            degree, key, text, i = 0, [], [], 1
            while m:
                e = m & _FIELD
                if e:
                    degree += ((1 << i) - 1) * e
                    key += (i, e)
                    text.append(f"z{i}" if e == 1 else f"z{i}^{e}")
                m, i = m >> _W, i + 1
            keyed.append((degree, key, " ".join(text) or "1"))
        keyed.sort()
        return " + ".join(text for _, _, text in keyed)

    def __repr__(self) -> str:
        return f"F2Poly({self})"


# the slot's own setter stores a field past the refusing __setattr__
_set_monomials = F2Poly.monomials.__set__


def _poly(monomials: frozenset) -> F2Poly:
    """The polynomial on a frozenset of monomials, built without __init__."""
    p = object.__new__(F2Poly)
    _set_monomials(p, monomials)
    return p


_ZERO = F2Poly()
_ONE = F2Poly([0])
