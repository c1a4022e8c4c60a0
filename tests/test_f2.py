import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from dlash import f2
from dlash.f2 import (
    F2Poly,
    binom_exact_parity,
    binom_mod2,
    factors,
    monomial_degree,
    sum_of_products,
)
from dlash.laurent import LaurentSeries, Window, series_inverse, series_mul
from dlash.steenrod import conjugate_zeta


class TestBinomMod2:
    def test_small_values(self):
        assert binom_mod2(5, 2) == 0
        assert binom_mod2(5, 1) == 1
        assert binom_mod2(4, 2) == 0
        assert binom_mod2(3, 2) == 1
        assert binom_mod2(0, 0) == 1

    def test_negative_bottom_is_zero(self):
        assert binom_mod2(5, -1) == 0
        assert binom_mod2(-3, -2) == 0

    def test_negative_one_top(self):
        # (1+u)^{-1} = 1 + u + u^2 + ... over F2
        for k in range(0, 40):
            assert binom_mod2(-1, k) == 1

    def test_negative_two_top(self):
        # (1+u)^{-2} = 1 + u^2 + u^4 + ... (Frobenius)
        for k in range(0, 40):
            assert binom_mod2(-2, k) == (1 if k % 2 == 0 else 0)

    @given(st.integers(0, 300), st.integers(0, 300))
    def test_matches_exact_parity(self, n, k):
        assert binom_mod2(n, k) == math.comb(n, k) % 2 if k <= n else binom_mod2(n, k) == 0

    @given(st.integers(-40, -1), st.integers(0, 60))
    def test_negative_top_reflection(self, top, k):
        # C(top, k) = (-1)^k C(k - top - 1, k); signs vanish mod 2
        assert binom_mod2(top, k) == binom_exact_parity(top, k)

    @given(st.integers(-30, 60), st.integers(-5, 60))
    def test_pascal(self, n, k):
        lhs = binom_mod2(n, k)
        rhs = (binom_mod2(n - 1, k) + binom_mod2(n - 1, k - 1)) % 2
        if (n, k) != (0, 0):
            assert lhs == rhs


zeta_monomials = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 5)), min_size=0, max_size=3
).map(lambda gens: math.prod((F2Poly.zeta(i, e) for i, e in gens), start=F2Poly.one()))


class TestF2Poly:
    def test_addition_cancels(self):
        z1 = F2Poly.zeta(1)
        assert (z1 + z1).is_zero()
        assert z1 + F2Poly.zero() == z1

    def test_multiplication(self):
        z1, z2 = F2Poly.zeta(1), F2Poly.zeta(2)
        assert str(z1 * z1) == "z1^2"
        assert (z1 + z2) * (z1 + z2) == z1.square() + z2.square()

    def test_square_is_frobenius(self):
        a = F2Poly.zeta(1) + F2Poly.zeta(2) * F2Poly.zeta(1)
        assert a.square() == a * a

    @given(zeta_monomials, zeta_monomials, zeta_monomials)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(zeta_monomials, zeta_monomials)
    def test_commutativity(self, a, b):
        assert a * b == b * a

    def test_zeta_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            F2Poly.zeta(0)
        with pytest.raises(ValueError):
            F2Poly.zeta(1, -1)

    def test_pow(self):
        z1 = F2Poly.zeta(1)
        assert z1**0 == F2Poly.one()
        assert z1**5 == z1 * z1 * z1 * z1 * z1

    def test_degrees(self):
        # deg zeta_i = 2^i - 1
        m = F2Poly.zeta(1, 2) * F2Poly.zeta(3)
        assert m.degree_parts() == {9: m}

    @given(zeta_monomials, zeta_monomials)
    def test_degree_of_product_is_sum(self, a, b):
        (da,), (db,) = a.degree_parts(), b.degree_parts()
        assert list((a * b).degree_parts()) == [da + db]

    def test_str_canonical(self):
        a = F2Poly.zeta(2) + F2Poly.zeta(1, 3)
        assert str(a) == "z1^3 + z2"
        assert str(F2Poly.zero()) == "0"
        assert str(F2Poly.one()) == "1"
        # by degree, then by the (index, exponent) pairs
        assert str(conjugate_zeta(4)[3]) == (
            "z1 z3^2 + z1^3 z2^4 + z1^8 z3 + z1^9 z2^2 + z1^12 z2 + z1^15"
            " + z2^5 + z4"
        )

    def test_augmentation(self):
        assert (F2Poly.one() + F2Poly.zeta(1)).augment() == F2Poly.one()
        assert F2Poly.zeta(2).augment().is_zero()

    def test_hashable(self):
        s = {F2Poly.zeta(1), F2Poly.zeta(1), F2Poly.zero()}
        assert len(s) == 2


# An independent reference for F2Poly: a polynomial is a set of monomials,
# each the sorted tuple of its (index, exponent) pairs, built from dicts.
def _ref_key(exps: dict) -> tuple:
    return tuple(sorted((i, e) for i, e in exps.items() if e))


def _ref_mul(a: set, b: set) -> set:
    out: set = set()
    for ma in a:
        for mb in b:
            exps = dict(ma)
            for i, e in mb:
                exps[i] = exps.get(i, 0) + e
            out ^= {_ref_key(exps)}
    return out


def _ref_degree(m: tuple) -> int:
    return sum(((1 << i) - 1) * e for i, e in m)


def _ref_str(a: set) -> str:
    if not a:
        return "0"
    terms = []
    for m in sorted(a, key=lambda m: (_ref_degree(m), m)):
        terms.append(" ".join(f"z{i}" if e == 1 else f"z{i}^{e}" for i, e in m) or "1")
    return " + ".join(terms)


def _as_poly(a: set) -> F2Poly:
    out = F2Poly.zero()
    for m in a:
        out = out + math.prod((F2Poly.zeta(i, e) for i, e in m), start=F2Poly.one())
    return out


_ref_polys = st.lists(
    st.dictionaries(st.integers(1, 6), st.integers(0, 9), max_size=4).map(_ref_key),
    max_size=5,
).map(lambda ms: {m for m in ms if ms.count(m) % 2})


class TestAgainstExponentReference:
    @given(_ref_polys, _ref_polys)
    def test_product(self, a, b):
        assert (_as_poly(a) * _as_poly(b)) == _as_poly(_ref_mul(a, b))
        assert str(_as_poly(a) * _as_poly(b)) == _ref_str(_ref_mul(a, b))

    @given(
        st.lists(st.tuples(_ref_polys, _ref_polys), max_size=4),
        st.lists(st.integers(0, 3), max_size=3),
    )
    def test_sum_of_products(self, pairs, repeats):
        # a pair repeated, as (a, b) or as (b, a), cancels its product
        pairs = pairs + [pairs[i][::-1] for i in repeats if i < len(pairs)]
        want: set = set()
        for a, b in pairs:
            want ^= _ref_mul(a, b)
        got = sum_of_products((_as_poly(a), _as_poly(b)) for a, b in pairs)
        assert got == _as_poly(want)
        assert str(got) == _ref_str(want)

    @given(_ref_polys)
    def test_square(self, a):
        want = {tuple((i, 2 * e) for i, e in m) for m in a}
        assert str(_as_poly(a).square()) == _ref_str(want)

    @given(_ref_polys, st.integers(0, 5))
    def test_power(self, a, k):
        want = {()}
        for _ in range(k):
            want = _ref_mul(want, a)
        assert str(_as_poly(a) ** k) == _ref_str(want)

    @given(_ref_polys)
    def test_str_factors_and_degree(self, a):
        p = _as_poly(a)
        assert str(p) == _ref_str(a)
        assert {factors(m) for m in p.monomials} == a
        assert {monomial_degree(m) for m in p.monomials} == {_ref_degree(m) for m in a}
        assert {d: str(q) for d, q in p.degree_parts().items()} == {
            d: _ref_str({m for m in a if _ref_degree(m) == d})
            for d in sorted({_ref_degree(m) for m in a})
        }


class TestExponentOverflow:
    LIMIT = 2 ** (f2._W - 1)

    def test_zeta(self):
        assert str(F2Poly.zeta(1, self.LIMIT - 1)) == f"z1^{self.LIMIT - 1}"
        with pytest.raises(ValueError, match="z1 "):
            F2Poly.zeta(1, self.LIMIT)
        with pytest.raises(ValueError, match="z3 "):
            F2Poly.zeta(3, 4 * self.LIMIT)

    def test_product(self):
        half = F2Poly.zeta(2, self.LIMIT // 2)
        below = F2Poly.zeta(2, self.LIMIT // 2 - 1) * F2Poly.zeta(3)
        assert factors(next(iter((half * below).monomials))) == ((2, self.LIMIT - 1), (3, 1))
        with pytest.raises(ValueError, match="z2 "):
            (F2Poly.zeta(1) + half) * (half * F2Poly.zeta(4))

    def test_series_product(self):
        # the coefficient of 1 sums two products, z1 z3^h + z3^2h and 1;
        # z3^2h reaches the guard of z3 and nothing cancels it
        half = F2Poly.zeta(3, self.LIMIT // 2)
        a = LaurentSeries.exact({(0, 0): F2Poly.zeta(1) + half, (0, 1): F2Poly.one()})
        b = LaurentSeries.exact({(0, 0): half, (0, -1): F2Poly.one(), (1, 0): F2Poly.zeta(1)})
        with pytest.raises(ValueError, match="z3 "):
            series_mul(a, b)

    def test_series_inverse(self):
        # (1 + z1^(2^13) t)^-1 = sum_n z1^(2^13 n) t^n: c_4 = z1^(2^15)
        # reaches the guard outside the window, and its square c_8 would
        # carry into the field of z2
        a = LaurentSeries.exact({(0, 0): F2Poly.one(), (0, 1): F2Poly.zeta(1, self.LIMIT // 4)})
        with pytest.raises(ValueError, match=r"exponent of z1 reaches 2\^15"):
            series_inverse(a, Window(0, 8, 8))

    def test_sum_that_cancels_an_overflow(self):
        # no carry leaves a field before the check, so a monomial past the
        # guard that cancels within the sum is no error
        half = F2Poly.zeta(2, self.LIMIT // 2)
        assert sum_of_products([(half, half), (half, half)]).is_zero()
        with pytest.raises(ValueError, match="z2 "):
            sum_of_products([(half, half), (half, F2Poly.one())])

    def test_square(self):
        assert F2Poly.zeta(4, self.LIMIT // 2 - 1).square() == F2Poly.zeta(4, self.LIMIT - 2)
        with pytest.raises(ValueError, match="z4 "):
            (F2Poly.zeta(1, 3) * F2Poly.zeta(4, self.LIMIT // 2)).square()

    def test_index(self):
        with pytest.raises(ValueError):
            F2Poly.zeta(f2._MAX_INDEX + 1)

    def test_constructor(self):
        # a monomial given as an int is refused as zeta refuses its
        # exponents; a negative int sets every guard bit
        with pytest.raises(ValueError, match="z1 "):
            F2Poly([self.LIMIT])
        with pytest.raises(ValueError, match="z2 "):
            F2Poly([0, 1, self.LIMIT << f2._W])
        with pytest.raises(ValueError, match="z1 "):
            F2Poly([-1])
        with pytest.raises(ValueError):
            F2Poly([3, -(1 << (3 * f2._W))])
        p = F2Poly([0, self.LIMIT - 1, (self.LIMIT - 1) << f2._W])
        assert p == F2Poly.one() + F2Poly.zeta(1, self.LIMIT - 1) + F2Poly.zeta(2, self.LIMIT - 1)
        for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert other == p and str(other) == str(p)
