import random

import pytest
from hypothesis import given, settings, strategies as st

from dlash.f2 import F2Poly
from dlash.laurent import (
    BadValuationError,
    EmptyWindowError,
    LaurentSeries,
    NonComposableError,
    NotInvertibleError,
    Window,
    WindowMissError,
    residue,
    series_add,
    series_compose,
    series_inverse,
    series_mul,
    series_pow,
    series_reversion,
)

ONE = F2Poly.one()


def exact(*exps):
    return LaurentSeries.exact({e: ONE for e in exps})


def test_window_validation():
    with pytest.raises(EmptyWindowError):
        Window(2, 2, 3)
    w = Window(0, -4, 10)
    assert w.contains(0, -4)
    assert not w.contains(0, -5)
    assert not w.contains(6, 5)


def test_coefficient_inside_and_outside():
    s = exact((1, 0), (0, 2))
    assert s.coefficient(1, 0) == ONE
    assert s.coefficient(5, 5).is_zero()  # exact series: known everywhere
    t = s.restricted(Window(0, 0, 3))
    with pytest.raises(WindowMissError):
        t.coefficient(2, 2)


def test_addition_cancels():
    s = exact((1, 0))
    assert (s + s).is_zero()


def test_mul_monomials():
    a = exact((1, 0))
    b = exact((0, -1))
    assert series_mul(a, b).coefficient(1, -1) == ONE


def test_str_rendering():
    s = exact((1, 0)) + exact((2, -1))
    assert str(s) == "s + s^2 t^-1"
    z = LaurentSeries.exact({(0, 1): F2Poly.zeta(1) + F2Poly.zeta(2)})
    assert str(z) == "(z1 + z2) t"


def test_inverse_of_unit():
    u = exact((0, 0), (0, 1))  # 1 + t
    inv = series_inverse(u, window=Window(0, 0, 20))
    for k in range(0, 21):
        assert inv.coefficient(0, k) == ONE  # 1/(1+t) = sum t^k over F2


def test_inverse_with_negative_lead():
    # (t + s)^{-1} = t^{-1} + s t^{-2} + s^2 t^{-3} + ...
    u = exact((1, 0), (0, 1))
    inv = series_inverse(u, window=Window(0, -8, 6))
    for k in range(0, 6):
        assert inv.coefficient(k, -k - 1) == ONE
    assert inv.coefficient(0, 0).is_zero()
    assert inv.honest_s and not inv.honest_t


T_PLUS_S = exact((0, 1), (1, 0))


@pytest.mark.parametrize(
    "u, window, want_window, honest_s, honest_t",
    [
        (T_PLUS_S, Window(0, -8, 6), Window(0, -8, 6), True, False),
        (T_PLUS_S, Window(-1, -20, 12), Window(-1, -20, 12), True, False),
        (exact((0, 0), (1, -1)), Window(0, -8, 6), Window(0, -8, 6), True, False),
        (exact((0, 0), (1, -1)), Window(-1, -20, 12), Window(-1, -20, 12), True, False),
        (exact((0, 0), (0, 1)), Window(0, -8, 6), Window(0, -8, 6), True, True),
        (T_PLUS_S.restricted(Window(0, 0, 5)), None, Window(0, -2, 3), True, False),
        (T_PLUS_S.restricted(Window(0, 0, 5)), Window(0, -8, 6), Window(0, -8, 3), True, False),
        (
            LaurentSeries.exact(
                {(0, 0): ONE, (1, 0): ONE, (0, 1): F2Poly.zeta(1)}
            ).restricted(Window(0, 0, 5)),
            Window(-1, -20, 12),
            Window(-1, -20, 5),
            True,
            True,
        ),
    ],
)
def test_inverse_window_and_honesty(u, window, want_window, honest_s, honest_t):
    inv = series_inverse(u, window=window)
    assert inv.window == want_window
    assert (inv.honest_s, inv.honest_t) == (honest_s, honest_t)


def test_inverse_requires_unit_lead():
    s = LaurentSeries.exact({(0, 1): F2Poly.zeta(1)})
    with pytest.raises(NotInvertibleError):
        series_inverse(s, window=Window(0, -4, 4))


def test_compose_valuation_check():
    a = exact((0, 1))
    u = exact((0, 0))  # constant: valuation 0
    with pytest.raises(NonComposableError):
        series_compose(a, u, var="t")


def test_reversion_requires_unit_linear_term():
    with pytest.raises(BadValuationError):
        series_reversion(exact((0, 2)), var="t")


def test_reversion_simple():
    # a = t + t^2  =>  b = t + t^2 + (t^2)^2-ish tail; a(b(t)) = t
    a = exact((0, 1), (0, 2))
    b = series_reversion(a, var="t", max_total=12)
    back = series_compose(a, b, var="t", window=Window(0, 0, 12))
    assert back.agrees_with(exact((0, 1)))


REVERSION_COEFFS = [
    F2Poly.zero(),
    ONE,
    F2Poly.zeta(1),
    F2Poly.zeta(2),
    F2Poly.zeta(1) + F2Poly.zeta(2),
]


@settings(deadline=None)
@given(st.data(), st.integers(1, 16))
def test_reversion_round_trip(data, m):
    cs = data.draw(st.lists(st.sampled_from(REVERSION_COEFFS), min_size=m - 1, max_size=m - 1))
    a = LaurentSeries.exact({(0, 1): ONE, **{(0, j): c for j, c in enumerate(cs, 2)}})
    b = series_reversion(a, var="t", max_total=m)
    back = series_compose(a, b, var="t", window=Window(0, 0, m))
    assert back.window == Window(0, 1, m)
    assert back.agrees_with(exact((0, 1)))


def test_residue():
    s = exact((-1, 3), (0, 2))
    r = residue(s, "s")
    assert r.coefficient(0, 3) == ONE
    assert r.coefficient(0, 2).is_zero()


def test_residue_needs_window_coverage():
    s = exact((0, 0)).restricted(Window(0, 0, 4))
    with pytest.raises(WindowMissError):
        residue(s, "t")


def test_frobenius_square():
    s = exact((1, 0), (0, 1))
    sq = s.square()
    assert sq.coefficient(2, 0) == ONE
    assert sq.coefficient(0, 2) == ONE
    assert sq.coefficient(1, 1).is_zero()


def test_truncated_add_window_honesty():
    a = exact((0, 0)).restricted(Window(0, -2, 4))
    b = exact((0, -5), (0, 1)).restricted(Window(0, -5, 4))
    c = series_add(a, b)
    assert c.window.min_t == -5
    assert c.coefficient(0, -5) == ONE


def _random_series(rng, negative=False):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        es = rng.randint(0, 3)
        et = rng.randint(-2 if negative else 0, 3)
        c = ONE if rng.random() < 0.7 else F2Poly.zeta(rng.randint(1, 2))
        terms[(es, et)] = terms.get((es, et), F2Poly.zero()) + c
    terms = {e: c for e, c in terms.items() if not c.is_zero()}
    if not terms:
        terms = {(0, 0): ONE}
    return LaurentSeries.exact(terms)


def test_mul_associativity_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (_random_series(rng, negative=True) for _ in range(3))
        lhs = series_mul(series_mul(a, b), c)
        rhs = series_mul(a, series_mul(b, c))
        assert lhs == rhs


def test_window_soundness_of_inverse():
    """Coefficients computed at a small window agree with a large one."""
    rng = random.Random(23)
    big = Window(0, -10, 12)
    small = Window(0, -3, 4)
    for _ in range(200):
        r = _random_series(rng)
        tail = {e: c for e, c in r.coeffs.items() if e != (0, 0)}
        u = LaurentSeries.exact({(0, 0): ONE, **tail})
        inv_big = series_inverse(u, window=big)
        inv_small = series_inverse(u, window=small)
        assert inv_small.agrees_with(inv_big)


def test_pow_negative_exponent():
    u = exact((0, 0), (0, 1))
    p = series_pow(u, -3, window=Window(0, 0, 10))
    q = series_inverse(series_pow(u, 3), window=Window(0, 0, 10))
    assert p.agrees_with(q)


def test_compose_bivariate_substitution():
    # substitute s -> t^2 into s + s^2 t^{-1}: t^2 + t^3
    a = exact((1, 0), (2, -1))
    u = exact((0, 2))
    out = series_compose(a, u, var="s", window=Window(0, 0, 8))
    assert out.agrees_with(exact((0, 2), (0, 3)))
