import copy
import pickle
import random
import re
from functools import partial
from math import inf

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dlash.dyer_lashof import DLSum, GradedClass, adem_relation
from dlash.f2 import F2Poly, map_product, monomial_degree, sum_of_products
from dlash import laurent, steenrod
from dlash.laurent import (
    _cap_unknown_tail,
    _known,
    BadValuationError,
    EmptyWindowError,
    LaurentError,
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
from dlash.steenrod import _conjugates_by_recursion, q_op, zeta_series
from dlash.verify import _identity1_rhs

ONE = F2Poly.one()


def exact(*exps):
    return LaurentSeries.exact({e: ONE for e in exps})


def _agree_on(box, a, b):
    """Both series cover box, and they agree at every position of it."""
    return a.covers(box) and b.covers(box) and a.first_disagreement(b, box) is None


def _assert_stored_inside(series):
    """The invariant every producer makes: no stored key outside the
    window, and no stored coefficient zero."""
    for e, p in series.coeffs.items():
        assert series.window.contains(*e), (e, series.window)
        assert not p.is_zero(), e


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
    assert inv.coefficient(-1, 0).is_zero() and not inv.honest_t


T_PLUS_S = exact((0, 1), (1, 0))


@pytest.mark.parametrize(
    "u, window, want_window, zero_below_s, zero_below_t",
    [
        (T_PLUS_S, Window(0, -8, 6), Window(0, -8, 6), True, False),
        (T_PLUS_S, Window(-1, -20, 12), Window(-1, -20, 12), True, False),
        (exact((0, 0), (1, -1)), Window(0, -8, 6), Window(0, -8, 6), True, False),
        (exact((0, 0), (1, -1)), Window(-1, -20, 12), Window(-1, -20, 12), True, False),
        (exact((0, 0), (0, 1)), Window(0, -8, 6), Window(0, -8, 6), True, True),
        (T_PLUS_S.restricted(Window(0, 0, 5)), Window(0, -2, 3), Window(0, -2, 3), True, False),
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
        # nothing reaches the window, but the inverse sum s^k t^-k has
        # s^101 t^-101 below its t-axis
        (exact((0, 0), (1, -1)), Window(0, -100, -99), Window(0, -100, -99), True, False),
    ],
)
def test_inverse_window_and_honesty(u, window, want_window, zero_below_s, zero_below_t):
    """The window, and whether coefficient answers zero just below each
    axis: below the s-axis always, below the t-axis when honest in t."""
    inv = series_inverse(u, window=window)
    w = inv.window
    assert w == want_window
    assert _answers_zero_at(inv, w.min_s - 1, w.min_t) == zero_below_s
    assert _answers_zero_at(inv, w.min_s, w.min_t - 1) == zero_below_t == inv.honest_t


def _answers_zero_at(series, es, et):
    """Whether coefficient answers at (es, et), and with zero."""
    try:
        return series.coefficient(es, et).is_zero()
    except WindowMissError:
        return False


@pytest.mark.parametrize(
    "u, window, want_window",
    [
        (exact((0, 0), (1, 0)), Window(1, 0, 5), Window(0, 0, 5)),
        (exact((1, 0), (2, 0)), Window(0, 0, 5), Window(-1, 0, 5)),
    ],
)
def test_inverse_on_a_window_above_the_lead_s_axis_starts_at_its_lead(u, window, want_window):
    """1 + s and s + s^2 on a window above e_s = -lead_s: the inverse is
    honest, starts at s^-lead_s, and is the inverse on that window."""
    inv = series_inverse(u, window=window)
    assert inv.window == want_window and inv.honest_t
    assert inv.coefficient(want_window.min_s, 0) == ONE
    assert inv == series_inverse(u, window=want_window)


def _answers_on(series, box):
    """Whether coefficient answers at every position of the finite box."""
    for es in range(box.min_s, box.max_total - box.min_t + 1):
        for et in range(box.min_t, box.max_total - es + 1):
            try:
                series.coefficient(es, et)
            except WindowMissError:
                return False
    return True


_T_PLUS_S_INVERSE = series_inverse(T_PLUS_S, window=Window(0, -8, 6))


@pytest.mark.parametrize(
    "series, box, want",
    [
        (exact((0, 0)), Window(-5, -5, 20), True),
        # honest: the zeros below the axes count, but not past max_total
        (T_PLUS_S.restricted(Window(0, 0, 5)), Window(-3, -3, 5), True),
        (T_PLUS_S.restricted(Window(0, 0, 5)), Window(0, 0, 6), False),
        # not honest in t: nothing below its t-axis counts
        (_T_PLUS_S_INVERSE, Window(0, -8, 6), True),
        (_T_PLUS_S_INVERSE, Window(-2, -8, 6), True),
        (_T_PLUS_S_INVERSE, Window(0, -9, 6), False),
    ],
)
def test_covers_is_where_coefficient_answers(series, box, want):
    assert series.covers(box) == _answers_on(series, box) == want


def test_inverse_requires_unit_lead():
    s = LaurentSeries.exact({(0, 1): F2Poly.zeta(1)})
    with pytest.raises(NotInvertibleError):
        series_inverse(s, window=Window(0, -4, 4))


def test_inverse_refuses_a_lead_a_completion_can_undercut():
    # s + O(total 2) from e_s = 0: the completion s + t^2 leads with t^2,
    # and would have an inverse t^-2 + s t^-4 + ... with no s^-1 (it is
    # refused too, as its term s has a lower total than its lead t^2)
    a = LaurentSeries.truncated({(1, 0): ONE}, Window(0, 0, 1))
    with pytest.raises(NotInvertibleError):
        series_inverse(a, window=Window(-2, -4, 4))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: series_inverse(exact((0, 0), (0, 1)), Window(0, 0)), NotInvertibleError),
        (lambda: series_pow(exact((0, 0), (0, 1)), -1), NotInvertibleError),
        (lambda: series_pow(exact((0, 0), (0, 1)), -2, Window(0, 0)), NotInvertibleError),
        (lambda: series_compose(exact((0, 1)), exact((0, 1)), Window(0, 0)), NonComposableError),
        (lambda: series_inverse(exact((1, 0), (0, 2)), Window(-2, -4, 4)), NotInvertibleError),
    ],
    ids=[
        "inverse-on-an-infinite-window",
        "negative-power-without-a-window",
        "negative-power-on-an-infinite-window",
        "compose-on-an-infinite-window",
        "inverse-of-s-plus-t-squared",
    ],
)
def test_inputs_with_no_finite_window_or_a_term_below_the_lead_are_refused(call, error):
    """Inverses and composites are formed on a finite window only, and an
    inverse of a unit with a term of lower total than its lead is refused."""
    with pytest.raises(error):
        call()


def test_compose_refuses_negative_powers_of_an_unknown_lead():
    # a = O(total 1) from e_t = -1 and u = O(t^2): the completions
    # s^2 t^-1 and t^2 + t^5 put s^2 t^-2 in the composite
    box = Window(0, -8, 6)
    full = series_compose(exact((2, -1)), exact((0, 2), (0, 5)), window=box)
    assert full.coefficient(2, -2) == ONE
    a = LaurentSeries.truncated({}, Window(0, -1, 0))
    u = LaurentSeries.truncated({}, Window(0, 0, 1))
    with pytest.raises(NonComposableError):
        series_compose(a, u, window=box)


def test_compose_valuation_check():
    a = exact((0, 1))
    u = exact((0, 0))  # constant: valuation 0
    with pytest.raises(NonComposableError):
        series_compose(a, u, window=Window(0, 0, 6))


@pytest.mark.parametrize(
    "a, u",
    [
        # u = t^2 + s is not a series in t alone
        (LaurentSeries.truncated({}, Window(0, -1, 2)), exact((0, 2), (1, 0))),
        (LaurentSeries.truncated({(0, -1): ONE}, Window(0, -1, 2)), exact((0, 2), (1, 0))),
        # a is not honest in t
        (LaurentSeries.truncated({(0, 1): ONE}, Window(0, 0, 2), honest_t=False), exact((0, 2))),
    ],
)
def test_compose_refuses_what_it_cannot_substitute_for_t(a, u):
    with pytest.raises(NonComposableError):
        series_compose(a, u, window=Window(0, -8, 6))


@pytest.mark.parametrize("window", [Window(1, 0, 6), Window(0, 0, 6)])
def test_compose_names_the_window_that_leaves_a_negative_power_dishonest(window):
    # both inputs are honest, but u^-1 = t^-1 lies below e_t = 0 of the
    # target window, above e_s = 0 or not
    with pytest.raises(NonComposableError, match=re.escape(window.describe())):
        series_compose(exact((1, -1)), exact((0, 1)), window=window)


def test_compose_on_a_window_above_e_s_0_is_the_composite_from_e_s_0():
    # u^-1 = t^-1 is formed from e_s = 0 on, and stays honest
    a, u, window = exact((1, -1)), exact((0, 1)), Window(1, -4, 6)
    got = series_compose(a, u, window=window)
    want = series_compose(a, u, window=Window(0, -4, 6)).restricted(window)
    assert got == want and got.honest_t == want.honest_t
    assert got.coefficient(1, -1) == ONE


def test_reversion_requires_unit_linear_term():
    with pytest.raises(BadValuationError):
        series_reversion(exact((0, 2)))
    with pytest.raises(BadValuationError):  # a series in s: reversion is in t
        series_reversion(exact((1, 0)), max_total=4)
    with pytest.raises(BadValuationError):  # not honest in t: it may hold t^0
        series_reversion(LaurentSeries.truncated({(0, 1): ONE}, Window(0, 1, 4), honest_t=False))


def test_reversion_simple():
    # a = t + t^2  =>  b = t + t^2 + (t^2)^2-ish tail; a(b(t)) = t
    a = exact((0, 1), (0, 2))
    b = series_reversion(a, max_total=12)
    back = series_compose(a, b, window=Window(0, 0, 12))
    assert _agree_on(Window(0, 1, 12), back, exact((0, 1)))


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
    b = series_reversion(a, max_total=m)
    back = series_compose(a, b, window=Window(0, 0, m))
    assert back.window == Window(0, 1, m)
    assert _agree_on(Window(0, 1, m), back, exact((0, 1)))


def _reversion_by_columns(a, max_total):
    """series_reversion's column recurrence with one product and one sum
    of coefficients at a time: pows[j][n] is the t^n coefficient of b^j,
    and b_d = sum_{j>=2} a_j pows[j][d]."""
    coeffs = {et: p for (_, et), p in a.coeffs.items()}
    m = min(a.window.max_total, max_total)

    def add(acc, e, p):
        q = acc.get(e, F2Poly.zero()) + p
        if q.is_zero():
            acc.pop(e, None)
        else:
            acc[e] = q

    b = {1: ONE}
    pows = [None, b]
    for d in range(2, m + 1):
        pows.append({})
        for j in range(2, d + 1):
            for k, bk in b.items():
                p = pows[j - 1].get(d - k)
                if p is not None:
                    add(pows[j], d, p * bk)
        for j in range(2, d + 1):
            if j in coeffs and d in pows[j]:
                add(b, d, coeffs[j] * pows[j][d])
    return LaurentSeries(Window(0, 1, m), {(0, d): p for d, p in b.items()})


@settings(deadline=None)
@given(
    st.lists(st.sampled_from(REVERSION_COEFFS + [F2Poly.zeta(1, 2) * F2Poly.zeta(3) + ONE]),
             max_size=19),
    st.one_of(st.just(inf), st.integers(1, 20)),
    st.one_of(st.just(inf), st.integers(1, 20)),
)
def test_reversion_matches_the_column_reference(cs, known, max_total):
    """a = t + sum c_j t^j, exact (known inf) or known to total known."""
    assume(min(known, max_total) < inf)
    terms = {(0, j): c for j, c in {1: ONE, **dict(enumerate(cs, 2))}.items()}
    a = LaurentSeries.truncated(terms, Window(0, 1, known))
    got = series_reversion(a, max_total=max_total)
    _assert_stored_inside(got)
    assert repr(got) == repr(_reversion_by_columns(a, max_total))
    assert got.honest_t


REVERSION_OF_ZETA_128 = (
    "LaurentSeries(t + z1 t^2 + (z1^3 + z2) t^4 + (z1 z2^2 + z1^4 z2 + z1^7 + z3) t^8"
    " + (z1 z3^2 + z1^3 z2^4 + z1^8 z3 + z1^9 z2^2 + z1^12 z2 + z1^15 + z2^5"
    " + z4) t^16 + (z1 z2^10 + z1 z4^2 + z1^3 z3^4 + z1^4 z2^9 + z1^7 z2^8"
    " + z1^16 z2^5 + z1^16 z4 + z1^17 z3^2 + z1^19 z2^4 + z1^24 z3 + z1^25 z2^2"
    " + z1^28 z2 + z1^31 + z2 z3^4 + z2^8 z3 + z5) t^32 + (z1 z2^2 z3^8"
    " + z1 z2^16 z3^2 + z1 z5^2 + z1^3 z2^20 + z1^3 z4^4 + z1^4 z2 z3^8 + z1^7 z3^8"
    " + z1^8 z2^16 z3 + z1^9 z2^18 + z1^12 z2^17 + z1^15 z2^16 + z1^32 z2 z3^4"
    " + z1^32 z2^8 z3 + z1^32 z5 + z1^33 z2^10 + z1^33 z4^2 + z1^35 z3^4 + z1^36 z2^9"
    " + z1^39 z2^8 + z1^48 z2^5 + z1^48 z4 + z1^49 z3^2 + z1^51 z2^4 + z1^56 z3"
    " + z1^57 z2^2 + z1^60 z2 + z1^63 + z2 z4^4 + z2^16 z4 + z2^21 + z3^9 + z6) t^64"
    " + (z1 z2^2 z4^8 + z1 z2^32 z4^2 + z1 z2^42 + z1 z3^18 + z1 z6^2"
    " + z1^3 z2^4 z3^16 + z1^3 z2^32 z3^4 + z1^3 z5^4 + z1^4 z2 z4^8 + z1^4 z2^41"
    " + z1^7 z2^40 + z1^7 z4^8 + z1^8 z3^17 + z1^9 z2^2 z3^16 + z1^12 z2 z3^16"
    " + z1^15 z3^16 + z1^16 z2^32 z4 + z1^16 z2^37 + z1^17 z2^32 z3^2 + z1^19 z2^36"
    " + z1^24 z2^32 z3 + z1^25 z2^34 + z1^28 z2^33 + z1^31 z2^32 + z1^64 z2 z4^4"
    " + z1^64 z2^16 z4 + z1^64 z2^21 + z1^64 z3^9 + z1^64 z6 + z1^65 z2^2 z3^8"
    " + z1^65 z2^16 z3^2 + z1^65 z5^2 + z1^67 z2^20 + z1^67 z4^4 + z1^68 z2 z3^8"
    " + z1^71 z3^8 + z1^72 z2^16 z3 + z1^73 z2^18 + z1^76 z2^17 + z1^79 z2^16"
    " + z1^96 z2 z3^4 + z1^96 z2^8 z3 + z1^96 z5 + z1^97 z2^10 + z1^97 z4^2"
    " + z1^99 z3^4 + z1^100 z2^9 + z1^103 z2^8 + z1^112 z2^5 + z1^112 z4"
    " + z1^113 z3^2 + z1^115 z2^4 + z1^120 z3 + z1^121 z2^2 + z1^124 z2 + z1^127"
    " + z2 z5^4 + z2^5 z3^16 + z2^32 z5 + z2^33 z3^4 + z2^40 z3 + z3 z4^8 + z3^16 z4"
    " + z7) t^128 @ [e_s>=0, e_t>=1, e_s+e_t<=128])"
)


def test_reversion_of_zeta_pinned():
    b = series_reversion(zeta_series(128))
    assert repr(b) == REVERSION_OF_ZETA_128
    assert b.honest_t


def test_reversion_of_zeta_gives_the_conjugates_of_the_recursion():
    b = series_reversion(zeta_series(2048))
    assert set(b.coeffs) == {(0, 2**i) for i in range(12)}
    assert [b.coefficient(0, 2**i) for i in range(1, 12)] == _conjugates_by_recursion(11)


@settings(deadline=None, max_examples=200)
@example({12: ONE}, inf, 16)
@given(
    st.dictionaries(st.integers(2, 32), st.sampled_from(REVERSION_COEFFS[1:]), max_size=4),
    st.one_of(st.just(inf), st.integers(1, 32)),
    st.integers(1, 32),
)
def test_reversion_of_sparse_series_matches_the_column_reference(cs, known, max_total):
    """a = t + a few c_j t^j with gaps between the j, so that b^j comes
    from powers a lacks (b^12 from b^6 from b^3 from b^2)."""
    terms = {(0, j): c for j, c in {1: ONE, **cs}.items()}
    a = LaurentSeries.truncated(terms, Window(0, 1, known))
    got = series_reversion(a, max_total=max_total)
    _assert_stored_inside(got)
    assert repr(got) == repr(_reversion_by_columns(a, max_total))
    assert got.honest_t


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 12),
    st.data(),
    st.one_of(st.just(inf), st.integers(1, 14)),
)
def test_reversion_window_sound_by_completion(known, data, max_total):
    """Every coefficient the reversion of a = t + O(total known + 1)
    claims, in its window or below an honest axis, is that of the
    reversion of a completion of a, formed further out."""
    cs = data.draw(
        st.dictionaries(st.integers(2, known + 6), st.sampled_from(REVERSION_COEFFS[1:]), max_size=6)
    )
    full = LaurentSeries.exact({(0, j): c for j, c in {1: ONE, **cs}.items()})
    a = full.restricted(Window(0, 1, known))
    got = series_reversion(a, max_total=max_total)
    want = _reversion_by_columns(full, known + 6)
    for es in range(-3, known + 2):
        for et in range(-3, known + 2):
            try:
                claimed = got.coefficient(es, et)
            except WindowMissError:
                continue
            assert claimed == want.coefficient(es, et), (es, et)


def test_residue():
    s = exact((-1, 3), (0, 2))
    r = residue(s)
    assert r.coefficient(0, 3) == ONE
    assert r.coefficient(0, 2).is_zero()


def test_residue_needs_window_coverage():
    s = exact((0, 0)).restricted(Window(0, 0, 4))
    with pytest.raises(WindowMissError):
        residue(s)


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


def test_restricted_past_an_honest_axis_keeps_its_zeros():
    # s^3 is known up to total 4 and vanishes below e_s = 3; cut to total
    # 2, nothing of its window is left, but its zeros below the axis are
    s = exact((3, 0)).restricted(Window(3, 0, 4))
    r = s.restricted(Window(0, 0, 2))
    assert r.window.max_total == 2 and r.honest_t
    assert r.coefficient(1, 0).is_zero()


def test_inverse_of_truncated_unit_stops_at_its_window():
    # 1 + O(t^3): its inverse is 1 up to t^2, and unknown from t^3 on
    u = exact((0, 0)).restricted(Window(0, 0, 2))
    inv = series_inverse(u, window=Window(0, 0, 10))
    assert inv.window == Window(0, 0, 2)
    assert inv.coefficient(0, 0) == ONE


def test_inverse_of_an_exact_unit_below_its_s_axis_is_not_refused():
    # s + t^2 known to total 1, from e_s = 0: an unknown t^2 may lead, so
    # the inverse is refused; s known in full from e_s = 0 has no unknown
    # term, and its lead s is the true one
    with pytest.raises(NotInvertibleError, match="not minimal"):
        series_inverse(LaurentSeries.truncated({(1, 0): ONE}, Window(0, 0, 1)), Window(-1, 0, 3))
    inv = series_inverse(LaurentSeries.truncated({(1, 0): ONE}, Window(0, 0)), Window(-1, 0, 3))
    assert inv.coeffs == {(-1, 0): ONE}


def test_inverse_refuses_a_term_of_negative_total():
    # r = s^2 t^-3 has total -1: the powers of r fall back into the window
    # from above its total, so an inverse on a finite window is refused
    with pytest.raises(NotInvertibleError, match="lower total"):
        series_inverse(exact((0, 0), (2, -3)), window=Window(0, -4, -3))


def test_exact_sum_window_follows_its_support():
    assert exact((0, 0), (0, 1)) + exact((0, 0)) == exact((0, 1))
    assert exact((1, 0), (0, 1)) + exact((0, 1)) == exact((1, 0))


def test_exact_sum_that_cancels_is_the_exact_zero():
    assert exact((1, 0)) + exact((1, 0)) == LaurentSeries.zero()
    assert exact((0, 2), (3, -1)) + exact((3, -1), (0, 2)) == LaurentSeries.zero()


@st.composite
def _summand_and_completion(draw, honesty=st.booleans()):
    """A series known on a window, exact or truncated, honest in t or not
    (the flag drawn from honesty), and the terms of an exact completion of
    it: random terms at positions it does not know, above its max_total
    or below a dishonest t-axis, and never below its s-axis."""
    min_s, min_t = draw(st.integers(-2, 1)), draw(st.integers(-2, 1))
    w = Window(min_s, min_t, draw(st.one_of(st.just(inf), st.integers(min_s + min_t, 4))))
    honest_t = draw(honesty)
    box = [(es, et) for es in range(-4, 7) for et in range(-4, 7)]
    inside = [e for e in box if w.contains(*e)]
    unknown = [
        (es, et) for es, et in box
        if not (w.contains(es, et) or es < min_s or honest_t and et < min_t)
    ]
    coeffs = st.sampled_from(COMPOSE_COEFFS)
    terms = draw(st.dictionaries(st.sampled_from(inside), coeffs, max_size=4))
    a = LaurentSeries.truncated(terms, w, honest_t=honest_t)
    extra = draw(st.dictionaries(st.sampled_from(unknown), coeffs, max_size=4)) if unknown else {}
    return a, {**a.coeffs, **extra}


# honest in t more often than not, since sums and products refuse the rest
_SUMMANDS = st.one_of(_summand_and_completion(st.just(True)), _summand_and_completion())


@settings(deadline=None, max_examples=500)
@given(_SUMMANDS, _SUMMANDS)
def test_add_window_sound_by_completion(x, y):
    """Every coefficient a sum claims, in its window or below an honest
    axis up to its max_total, is that of the sum of completions of its
    summands, and below its s-axis, and its t-axis if honest in t, that
    sum vanishes at every total; a summand not honest in t is refused."""
    (a, full_a), (b, full_b) = x, y
    if not (a.honest_t and b.honest_t):
        with pytest.raises(LaurentError):
            series_add(a, b)
        return
    got = series_add(a, b)
    _assert_stored_inside(got)
    zero, w = F2Poly.zero(), got.window
    for es in range(-6, 9):
        for et in range(-6, 9):
            true = full_a.get((es, et), zero) + full_b.get((es, et), zero)
            if es < w.min_s or got.honest_t and et < w.min_t:
                assert true.is_zero(), (es, et)
            try:
                claimed = got.coefficient(es, et)
            except WindowMissError:
                continue
            assert claimed == true, (es, et)


def _neumann_inverse(a, es_max, et_max):
    """The inverse of an exact unit a at every (e_s, e_t) with e_s <= es_max
    and e_t <= et_max, as lead^-1 times the Neumann sum of the powers of r,
    where a = lead (1 + r).  Every term of r is lexicographically positive
    and lowers e_t by at most drop per unit of e_s, so the positions kept
    are exactly those that can still reach the bounds."""
    ls, lt = min(a.coeffs)
    r = {(es - ls, et - lt): p for (es, et), p in a.coeffs.items() if (es, et) != (ls, lt)}
    drop = max([-et for _, et in r] + [0])
    top_s, top_t = es_max + ls, et_max + lt
    acc = term = {(0, 0): ONE}
    while term:
        nxt: dict = {}
        for (es1, et1), p1 in term.items():
            for (es2, et2), p2 in r.items():
                es, et = es1 + es2, et1 + et2
                if es <= top_s and et <= top_t + (top_s - es) * drop:
                    nxt[(es, et)] = nxt.get((es, et), F2Poly.zero()) + p1 * p2
        term = {e: p for e, p in nxt.items() if not p.is_zero()}
        acc = {e: acc.get(e, F2Poly.zero()) + term.get(e, F2Poly.zero()) for e in {*acc, *term}}
    return {(es - ls, et - lt): p for (es, et), p in acc.items() if not p.is_zero()}


# relative terms of a unit lead (1 + r): all of them lexicographically
# positive, of any e_t, of nonnegative e_t (the check_series_kernel
# shape), and of negative total, which an inverse refuses
_REL_TERM = st.tuples(st.integers(0, 3), st.integers(-3, 3)).filter(lambda e: e > (0, 0))
_REL_TERM_NONNEGATIVE = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: e > (0, 0))
_REL_TERM_NEGATIVE_TOTAL = st.tuples(st.integers(1, 3), st.integers(-7, -2)).filter(
    lambda e: e[0] + e[1] < 0
)


@st.composite
def _unit_and_completion(draw, rel=_REL_TERM, negative_total=False):
    """A unit lead (1 + r), exact or known on a window from e_s = lead_s,
    and an exact completion of it.  The terms of r are drawn from rel, and
    one of them has negative total if negative_total; the completion adds
    terms above the window's max_total inside its quadrant."""
    ls, lt = draw(st.integers(-1, 2)), draw(st.integers(-2, 2))
    r = draw(st.dictionaries(rel, st.sampled_from(COMPOSE_COEFFS), max_size=4))
    if negative_total:
        r[draw(_REL_TERM_NEGATIVE_TOTAL)] = draw(st.sampled_from(COMPOSE_COEFFS))
    terms = {(ls, lt): ONE, **{(ls + es, lt + et): p for (es, et), p in r.items()}}
    if draw(st.booleans()):
        a = LaurentSeries.exact(terms)
        return a, a
    w = Window(ls, draw(st.integers(lt - 4, lt)), draw(st.integers(ls + lt, ls + lt + 5)))
    a = LaurentSeries.truncated(terms, w)
    tail = [
        (es, total - es)
        for total in range(w.max_total + 1, w.max_total + 6)
        for es in range(w.min_s, min(w.min_s + 4, total - w.min_t) + 1)
    ]
    extra = draw(st.dictionaries(st.sampled_from(tail), st.sampled_from(COMPOSE_COEFFS), max_size=4))
    return a, LaurentSeries.exact({**a.coeffs, **extra})


@st.composite
def _target_window(draw):
    min_s, min_t = draw(st.integers(-2, 3)), draw(st.integers(-6, 2))
    return Window(min_s, min_t, draw(st.integers(min_s + min_t, min_s + min_t + 5)))


_INVERSE_CASES = st.one_of(
    st.tuples(_unit_and_completion(), _target_window()),
    # no term of negative total, on a box whose e_s reaches much further
    # than its total, like check_series_kernel's Window(0, -8, 10)
    st.tuples(
        _unit_and_completion(_REL_TERM_NONNEGATIVE),
        st.builds(Window, st.integers(-1, 1), st.integers(-9, -6), st.integers(8, 11)),
    ),
    # a term of negative total: the total may fall back into the box, so
    # the inverse is refused
    st.tuples(_unit_and_completion(negative_total=True), _target_window()),
)
_KERNEL_UNIT = LaurentSeries.exact(
    {(0, 0): ONE, (0, 1): ONE, (1, 0): F2Poly.zeta(1), (2, 3): ONE}
)
# r = t + s^2 t^-3: t^4 lies above the box's total 3, and t^4 s^2 t^-3
# inside it, so the inverse is refused
_TOTAL_DROP_UNIT = exact((0, 0), (0, 1), (2, -3))
_NEGATIVE_T_UNIT = exact((0, 0), (1, -1), (0, 1))  # 1 + s t^-1 + t


def _has_a_term_below_its_lead(a):
    """Whether a term of a has a lower total than a's lead."""
    lead = min(a.coeffs)
    return any(es + et < sum(lead) for es, et in a.coeffs)


@settings(deadline=None, max_examples=1000)
@given(_INVERSE_CASES)
@example(((_KERNEL_UNIT, _KERNEL_UNIT), Window(0, -8, 10)))
@example(((_TOTAL_DROP_UNIT, _TOTAL_DROP_UNIT), Window(0, -6, 3)))
# a window above e_s = 0: the inverse, 1, is honest in s only if its window
# reaches down to e_s = 0
@example(((LaurentSeries.one(), LaurentSeries.one()), Window(1, 0, 1)))
# a term of negative e_t: the inverse holds s^8 t^-2 in the box's last row
# e_s = max_total - min_t = 8, which a row bound one short would leave out
@example(((_NEGATIVE_T_UNIT, _NEGATIVE_T_UNIT), Window(0, -2, 6)))
def test_inverse_window_sound_by_completion(case):
    """Every coefficient an inverse claims, inside its window or below an
    honest axis up to its max_total, is the coefficient of the exact
    inverse of a completion of its input; a unit with a term of lower
    total than its lead is refused."""
    (a, full), window = case
    if _has_a_term_below_its_lead(a):
        with pytest.raises(NotInvertibleError, match="lower total"):
            series_inverse(a, window=window)
        return
    try:
        got = series_inverse(a, window=window)
    except EmptyWindowError:  # it knows nothing, not even below an axis
        return
    _assert_stored_inside(got)
    _assert_inverse_claims(got, full)


def _assert_claims(got, want, es_range, et_range):
    """Every coefficient got claims at these positions is want's."""
    for es in es_range:
        for et in et_range:
            try:
                claimed = got.coefficient(es, et)
            except WindowMissError:
                continue
            assert claimed == want.get((es, et), F2Poly.zero()), (es, et)


def _assert_inverse_claims(got, full):
    """Every coefficient got claims, out to its window's extent, is that
    of the Neumann inverse of the exact series full."""
    w = got.window
    top_s, top_t = max(9, w.max_total - w.min_t), max(9, w.max_total - w.min_s)
    want = _neumann_inverse(full, top_s, top_t)
    _assert_claims(got, want, range(-8, top_s + 1), range(-24, top_t + 1))


def _plain_power(terms, k):
    """The k-th power (k >= 0) of an exact term map by k plain products."""
    out = {(0, 0): ONE}
    for _ in range(k):
        nxt: dict = {}
        for (es1, et1), p1 in out.items():
            for (es2, et2), p2 in terms.items():
                e = (es1 + es2, et1 + et2)
                nxt[e] = nxt.get(e, F2Poly.zero()) + p1 * p2
        out = {e: p for e, p in nxt.items() if not p.is_zero()}
    return out


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 4), _SUMMANDS, st.one_of(st.none(), _target_window()))
def test_pow_window_sound_by_completion(k, x, window):
    """Every coefficient a power claims, in its window or below an honest
    axis up to its max_total, is that of the same power of a completion
    of its base; a base dishonest in t is refused from the first product
    on."""
    a, full = x
    try:
        got = series_pow(a, k, window)
    except EmptyWindowError:  # it knows nothing, not even below an axis
        return
    except LaurentError:  # a dishonest base: it claims nothing
        assert k > 0 and not a.honest_t
        return
    _assert_stored_inside(got)
    _assert_claims(got, _plain_power(full, k), range(-20, 30), range(-20, 30))


def test_pow_refuses_an_exact_dishonest_base():
    # exact but not honest in t: a product once carried it over as honest
    # and certified coefficient(0, -1) == 0, which a completion below the
    # t-axis contradicts
    a = LaurentSeries.truncated({(0, 0): ONE}, Window(0, 0), honest_t=False)
    with pytest.raises(LaurentError):
        series_pow(a, 1)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_pow_of_a_dishonest_base_is_refused_for_every_positive_power(k):
    """a**1 and a**2 take no product, and are refused all the same."""
    a = LaurentSeries.truncated({(0, 0): ONE, (1, 0): ONE}, Window(0, 0, 4), honest_t=False)
    with pytest.raises(LaurentError):
        series_pow(a, k)
    assert series_pow(a, 0) == LaurentSeries.one()


@settings(deadline=None, max_examples=300)
@given(st.integers(-3, -1), _INVERSE_CASES)
def test_negative_pow_window_sound_by_completion(k, case):
    """Every coefficient a negative power claims, inside its window or
    below an honest axis up to its max_total, is that of the Neumann
    inverse of the same positive power of a completion of its input; a
    base with a term of lower total than its lead is refused, as is then
    its power."""
    (a, full), window = case
    if _has_a_term_below_its_lead(a):
        with pytest.raises(NotInvertibleError):
            series_pow(a, k, window)
        return
    try:
        got = series_pow(a, k, window)
    except EmptyWindowError:  # it knows nothing, not even below an axis
        return
    _assert_stored_inside(got)
    _assert_inverse_claims(got, LaurentSeries.exact(_plain_power(full.coeffs, -k)))


def _residue_terms(full):
    return {(0, et): p for (es, et), p in full.items() if es == -1}


# each operation on a series (restricted to a target window), and the same
# operation on the terms of an exact completion
UNARY_OPS = {
    "square": (
        lambda a, w: a.square(),
        lambda full: {(2 * es, 2 * et): p.square() for (es, et), p in full.items()},
    ),
    "shift": (
        lambda a, w: a.shift(2, -1),
        lambda full: {(es + 2, et - 1): p for (es, et), p in full.items()},
    ),
    "restricted": (lambda a, w: a.restricted(w), lambda full: full),
    "restricted_exact": (lambda a, w: a.restricted(Window(w.min_s, w.min_t)), lambda full: full),
    "residue_s": (lambda a, w: residue(a), _residue_terms),
    "augment": (
        lambda a, w: a.map_coeffs(F2Poly.augment),
        lambda full: {e: p.augment() for e, p in full.items()},
    ),
}


@settings(deadline=None, max_examples=200)
@pytest.mark.parametrize("op", sorted(UNARY_OPS))
@given(x=_summand_and_completion(), window=_target_window())
# s^-1 + O(total 3), completed by s^-1 t^4: the residue knows t^0 .. t^3
# and must leave t^4 unclaimed
@example(
    x=(LaurentSeries.truncated({(-1, 0): ONE}, Window(-1, 0, 2)), {(-1, 0): ONE, (-1, 4): ONE}),
    window=Window(0, 0, 0),
)
def test_unary_window_sound_by_completion(op, x, window):
    """Every coefficient square, shift, restricted, residue and augmentation
    claim, in the window or below an honest axis up to max_total, is that
    of the same operation applied to a completion of the input."""
    a, full = x
    series_op, terms_op = UNARY_OPS[op]
    try:
        got = series_op(a, window)
    except (EmptyWindowError, WindowMissError):  # it claims nothing
        return
    _assert_stored_inside(got)
    _assert_claims(got, terms_op(full), range(-10, 15), range(-10, 15))


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
        assert _agree_on(small, inv_small, inv_big)


def test_pow_negative_exponent():
    u = exact((0, 0), (0, 1))
    p = series_pow(u, -3, window=Window(0, 0, 10))
    q = series_inverse(series_pow(u, 3), window=Window(0, 0, 10))
    assert _agree_on(Window(0, 0, 10), p, q)


COMPOSE_COEFFS = [ONE, F2Poly.zeta(1), F2Poly.zeta(1) + F2Poly.zeta(2)]


@st.composite
def _truncated_series(draw):
    """A series in s and t known on a random window, honest in both axes."""
    min_s, min_t = draw(st.integers(-2, 1)), draw(st.integers(-2, 1))
    max_total = draw(st.integers(min_s + min_t, 5))
    inside = [
        (es, et)
        for es in range(min_s, max_total - min_t + 1)
        for et in range(min_t, max_total - es + 1)
    ]
    terms = draw(st.dictionaries(st.sampled_from(inside), st.sampled_from(COMPOSE_COEFFS), max_size=5))
    return LaurentSeries.truncated(terms, Window(min_s, min_t, max_total))


@st.composite
def _substitutable_series(draw, in_t=st.booleans()):
    """An exact series of total valuation >= 1 whose leading term (least
    e_s, then least e_t) has total 1 or 2 and coefficient 1: a series in
    t alone, or one with terms in s, which composition refuses."""
    in_t = draw(in_t)
    lead = draw(st.sampled_from([(0, 1), (0, 2)] if in_t else [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]))
    later = [
        (es, et)
        for es in range(lead[0], lead[0] + (1 if in_t else 3))
        for et in range(-2, 4)
        if es + et >= 1 and (es, et) > lead
    ]
    terms = draw(st.dictionaries(st.sampled_from(later), st.sampled_from(COMPOSE_COEFFS), max_size=3))
    return LaurentSeries.exact({lead: ONE, **terms})


@st.composite
def _compose_window(draw):
    min_s, min_t = draw(st.integers(-3, 1)), draw(st.integers(-4, 0))
    return Window(min_s, min_t, draw(st.integers(max(min_s + min_t, 0), 6)))


@settings(deadline=None, max_examples=100)
@given(st.data(), _truncated_series(), _substitutable_series())
def test_compose_window_sound_by_completion(data, a, u):
    """Every coefficient a composite claims, inside its window or below an
    honest axis, survives a completion of a: terms added above a's
    max_total change nothing it knows.  A u with a term in s is refused,
    and so is a composite whose window lies above the lead t^(i val(u))
    of u^i for a row i < 0 of a: that power is not honest in t."""
    window = data.draw(_compose_window())
    min_t = window.min_t
    if any(es for es, _ in u.coeffs):
        with pytest.raises(NonComposableError):
            series_compose(a, u, window=window)
        return
    try:
        got = series_compose(a, u, window=window)
    except NonComposableError:
        assert min(et for _, et in a.coeffs) * u.certified_min_total() < min_t
        return
    _assert_stored_inside(got)

    w = a.window
    tail = [
        (es, total - es)
        for total in range(w.max_total + 1, w.max_total + 9)
        for es in range(w.min_s, total - w.min_t + 1)
    ]
    extra = data.draw(st.dictionaries(st.sampled_from(tail), st.sampled_from(COMPOSE_COEFFS), min_size=1, max_size=4))
    full = series_compose(
        LaurentSeries.exact({**a.coeffs, **extra}), u, window=Window(-6, -8, window.max_total + 2)
    )
    for es in range(-5, 9):
        for et in range(-7, 9):
            try:
                claimed, true = got.coefficient(es, et), full.coefficient(es, et)
            except WindowMissError:
                continue
            assert claimed == true, (es, et)


@pytest.mark.parametrize(
    "known, a_window, u, window, tail, pos",
    [
        # a = t + O(total 3) is univariate, but its tail may hold s^3,
        # which t -> t^2 leaves at total 3
        ({(0, 1): ONE}, Window(0, 0, 2), exact((0, 2)), Window(0, 0, 8), (3, 0), (3, 0)),
        # t -> t^2 takes the tail term s^4 t^-1 of a = O(total 3) from
        # e_t = -1 down to s^4 t^-2, of total 2 = M + v_min (val(u) - 1) + 1,
        # below the t-axis of a composite that knows only its zeros ...
        ({}, Window(0, -1, 2), exact((0, 2)), Window(0, -8, 6), (4, -1), (4, -2)),
        # ... and inside the window of one that knows t^-1 down to e_t = -8
        ({(0, -1): ONE}, Window(0, -1, 2), exact((0, 2), (0, 3)), Window(0, -8, 6), (4, -1), (4, -2)),
    ],
)
def test_compose_leaves_the_unknown_tail_unclaimed(known, a_window, u, window, tail, pos):
    """A term of a above its max_total reaches pos; the composite of a
    must not claim that coefficient, in its window or below an axis."""
    got = series_compose(LaurentSeries.truncated(known, a_window), u, window=window)
    assert series_compose(exact(tail), u, window=window).coefficient(*pos) == ONE
    with pytest.raises(WindowMissError):
        got.coefficient(*pos)


def _mul_by_shifts(a, b):
    """series_mul as a sum of copies of one factor, each shifted and scaled
    by one term of the other, folded by series_add; a product of two
    truncated factors is then cut to the window both certify."""
    if not (a.honest_t and b.honest_t):
        raise LaurentError("a product needs factors honest in t")
    if a.is_exact() and not (b.is_exact() and a.coeffs):
        a, b = b, a
    if b.is_exact() and not b.coeffs:
        return LaurentSeries.zero()
    acc = None
    for (es, et), poly in b.coeffs.items():
        term = LaurentSeries(
            a.window.shifted(es, et),
            {(x + es, y + et): p * poly for (x, y), p in a.coeffs.items()},
        )
        acc = term if acc is None else series_add(acc, term)
    if b.is_exact():
        return acc
    wa, wb = a.window, b.window
    max_total = min(
        wa.max_total + b.certified_min_total(), wb.max_total + a.certified_min_total()
    )
    return LaurentSeries.truncated(
        acc.coeffs if acc else {}, Window(wa.min_s + wb.min_s, wa.min_t + wb.min_t, max_total)
    )


@pytest.mark.parametrize("b", [exact((0, 0), (0, -1)), T_PLUS_S.restricted(Window(0, 0, 3))])
def test_exact_zero_factor_gives_the_exact_zero(b):
    assert series_mul(LaurentSeries.zero(), b) == LaurentSeries.zero()
    assert series_mul(b, LaurentSeries.zero()) == LaurentSeries.zero()


def test_certified_min_total_of_a_zero_lies_past_its_window():
    # O(total 3) times O(total 4) is O(total 7): each truncated zero
    # vanishes to one past its max_total, so the product is known to 6
    a = LaurentSeries.truncated({}, Window(0, 0, 2))
    b = LaurentSeries.truncated({}, Window(0, 0, 3))
    assert (a.certified_min_total(), LaurentSeries.zero().certified_min_total()) == (3, inf)
    assert series_mul(a, b).window == Window(0, 0, 6)


@st.composite
def _mul_factor(draw):
    """An exact series (1 to 4 terms, or zero), (t + s)^-1, which is not
    honest in t, or a truncated series honest in t or not."""
    kind = draw(st.sampled_from(["exact", "zero", "inverse", "honest", "dishonest"]))
    if kind == "exact":
        exps = st.tuples(st.integers(-2, 3), st.integers(-2, 3))
        return LaurentSeries.exact(
            draw(st.dictionaries(exps, st.sampled_from(COMPOSE_COEFFS), min_size=1, max_size=4))
        )
    if kind == "zero":
        return LaurentSeries.zero()
    if kind == "inverse":
        window = Window(0, draw(st.integers(-4, 0)), draw(st.integers(0, 4)))
        return series_inverse(T_PLUS_S, window=window)
    a = draw(_truncated_series())
    if kind == "honest":
        return a
    return LaurentSeries(a.window, a.coeffs, honest_t=False)


def _product_or_error(a, b, mul):
    try:
        c = mul(a, b)
    except LaurentError as e:
        return type(e)
    _assert_stored_inside(c)
    return c.window, c.honest_t, c.coeffs


@settings(deadline=None, max_examples=300)
@given(_mul_factor(), _mul_factor())
def test_mul_matches_sum_of_shifts(a, b):
    """Same window, honesty and coefficients as the sum of shifts for exact
    and honest truncated factors; a factor that is not honest in t, exact
    or not, is refused."""
    got = _product_or_error(a, b, series_mul)
    assert got == _product_or_error(a, b, _mul_by_shifts)
    assert (got is LaurentError) == (not (a.honest_t and b.honest_t))


@pytest.mark.parametrize("dishonest_first", [True, False])
def test_mul_lowers_an_empty_window_like_the_sum_of_shifts(dishonest_first):
    # a known to total 2, not honest in t, times 1 + t^3 knew only
    # e_t >= 3, an empty window that the s-axis lowered to -1; a factor
    # not honest in t is now refused, on either side, and a product of
    # honest factors never has an empty window
    a = LaurentSeries.truncated({(0, 0): ONE}, Window(0, 0, 2), honest_t=False)
    b = exact((0, 0), (0, 3))
    if not dishonest_first:
        a, b = b, a
    assert _product_or_error(a, b, series_mul) == _product_or_error(a, b, _mul_by_shifts) == LaurentError


def _product_by_groups(factor_pairs, keep):
    """The product kernel as it was before it formed each coefficient in
    place: every pair that keep admits is grouped by its exponent, and each
    group summed by one sum_of_products call."""
    groups: dict = {}
    for a_coeffs, b_coeffs in factor_pairs:
        for (es1, et1), p1 in a_coeffs.items():
            for (es2, et2), p2 in b_coeffs.items():
                es, et = es1 + es2, et1 + et2
                if keep(es, et):
                    groups.setdefault((es, et), []).append((p1, p2))
    sums = {e: sum_of_products(pairs) for e, pairs in groups.items()}
    return {e: p for e, p in sums.items() if not p.is_zero()}


# the constant 1, single monomials, and sums of several monomials
_KERNEL_MONOMIALS = [ONE, F2Poly.zeta(1), F2Poly.zeta(2), F2Poly.zeta(1, 3),
                     F2Poly.zeta(1) * F2Poly.zeta(2), F2Poly.zeta(3, 2)]
_KERNEL_COEFF = st.one_of(
    st.just(ONE),
    st.sampled_from(_KERNEL_MONOMIALS),
    st.sets(st.sampled_from(_KERNEL_MONOMIALS), min_size=2, max_size=4).map(
        lambda ms: sum(ms, F2Poly.zero())
    ),
)
_KERNEL_MAP = st.dictionaries(
    st.tuples(st.integers(-2, 3), st.integers(-3, 3)), _KERNEL_COEFF, max_size=5
)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(_KERNEL_MAP, _KERNEL_MAP), min_size=1, max_size=4),
       st.booleans(), st.one_of(st.just(inf), st.integers(-6, 6)))
def test_map_product_matches_the_grouping_kernel(factor_pairs, repeat, max_total):
    """The same map as the grouping kernel, to the same total.  A repeated
    pair makes every sum it reaches cancel."""
    if repeat:
        factor_pairs = factor_pairs + factor_pairs[:1]
    got = map_product(factor_pairs, max_total)
    assert got == _product_by_groups(
        factor_pairs, lambda es, et: es + et <= max_total
    )
    assert all(not p.is_zero() for p in got.values())


@pytest.mark.parametrize(
    "d, want",
    [
        (4, "LaurentSeries(s + s^2 t^-1 + z1 s^2 + z1^2 s^4 t^-1 + z2 s^4 + z2^2 s^8 t^-1"
            " + z3 s^8 @ [e_s>=1, e_t>=-5, e_s+e_t<=12])"),
        (8, "LaurentSeries(s + s^2 t^-1 + z1 s^2 + z1^2 s^4 t^-1 + z2 s^4 + z2^2 s^8 t^-1"
            " + z3 s^8 + z3^2 s^16 t^-1 + z4 s^16 @ [e_s>=1, e_t>=-9, e_s+e_t<=20])"),
    ],
)
def test_nishida_right_side_pinned(d, want):
    """A pin of the compose kernel: Q(t) z(s) with t -> zbar(t), all
    three known to total 2d + 4, past the box the nishida check reads."""
    work = 2 * d + 4
    zbar = series_reversion(zeta_series(work))
    rhs = series_compose(_identity1_rhs(work), zbar, window=Window(0, -(d + 1), work))
    assert repr(rhs) == want
    assert rhs.honest_t


@pytest.mark.parametrize(
    "d, want",
    [
        (4, "LaurentSeries(s + s^2 t^-1 + z1 s^2 + z1^2 s^4 t^-1 + z2 s^4"
            " @ [e_s>=1, e_t>=-5, e_s+e_t<=4])"),
        (8, "LaurentSeries(s + s^2 t^-1 + z1 s^2 + z1^2 s^4 t^-1 + z2 s^4 + z2^2 s^8 t^-1"
            " + z3 s^8 @ [e_s>=1, e_t>=-9, e_s+e_t<=8])"),
    ],
)
def test_nishida_right_side_on_the_box_pinned(d, want):
    """Q(t) z(s) with t -> zbar(t), as verify_nishida_conjugate_form forms
    it: Q(t) z(s) and the composite to total d, zbar(t) to 2d + 4."""
    zbar = series_reversion(zeta_series(2 * d + 4))
    rhs = series_compose(_identity1_rhs(d), zbar, window=Window(0, -(d + 1), d))
    assert repr(rhs) == want
    assert rhs.honest_t


def _compose_by_products(a, u, window, square=False):
    """a(u) in t as a sum of series: every positive power of u is the one
    before it times u, or with square an even one the square of its half,
    as series_compose forms it, and each row i of a is multiplied by u^i on
    its own and added to the rows before it.  u is univariate in t, so a
    negative power needs no window wider than the target."""
    rows: dict = {}
    for (es, et), p in a.coeffs.items():
        rows.setdefault(et, {})[(es, 0)] = p
    pows = {0: LaurentSeries.one()}
    for i in range(1, max(rows, default=0) + 1):
        pows[i] = pows[i // 2].square() if square and i % 2 == 0 else series_mul(pows[i - 1], u)
        pows[i] = pows[i].restricted(window)
    result = LaurentSeries.zero() if not rows else None
    for i in sorted(rows):
        p = pows[i] if i >= 0 else series_pow(u, i, window).restricted(window)
        term = series_mul(p, LaurentSeries.exact(rows[i]))
        result = term if result is None else series_add(result, term)
    if a.window.max_total < inf:
        result = _cap_unknown_tail(result, a, u)
    return result.restricted(window)


@pytest.mark.parametrize("d", [8, 16, 31, 48])
def test_compose_by_squares_matches_the_product_chain(d):
    """Even powers formed as squares leave the Nishida composites unchanged,
    window and honesty in t included."""
    work = 2 * d + 4
    zbar = series_reversion(zeta_series(work))
    tbox = Window(0, -(d + 1), work)
    for a in (_identity1_rhs(work), zeta_series(work)):
        got = series_compose(a, zbar, window=tbox)
        want = _compose_by_products(a, zbar, tbox)
        assert repr(got) == repr(want)
        assert got.honest_t == want.honest_t


def _composite_or_refusal(compose, a, u, window):
    try:
        got = compose(a, u, window)
    except LaurentError:
        return "refused"
    return repr(got), got.honest_t


# u in t alone: exact, known to a total, or the exact zero
_U_IN_T = _substitutable_series(in_t=st.just(True)).flatmap(
    lambda u: st.sampled_from(
        [u, LaurentSeries.zero()] + [u.restricted(Window(0, 0, m)) for m in range(2, 7)]
    )
)
# exact, and known in full below its support
_T_ON_ITS_QUADRANT = LaurentSeries.truncated({(0, 1): ONE}, Window(0, 0))


@settings(deadline=None, max_examples=300)
@given(_truncated_series(), _U_IN_T, _compose_window())
# an exact u: the zero, whose powers are zeros known to the target
# window's total, and t known in full below its support
@example(
    LaurentSeries.truncated({(1, 2): ONE}, Window(0, 0, 4)), LaurentSeries.zero(), Window(0, 0, 6)
)
@example(
    LaurentSeries.truncated({(1, 0): ONE, (0, 1): ONE}, Window(0, 0, 4)),
    LaurentSeries.zero(),
    Window(0, 0, 6),
)
@example(
    LaurentSeries.truncated({(0, 2): ONE}, Window(0, 0, 4)), _T_ON_ITS_QUADRANT, Window(0, 0, 6)
)
def test_compose_matches_the_sum_of_row_products(a, u, window):
    """One product over all rows of a gives the composite that the product
    of each row by its power of u, summed row by row, gives: the same
    coefficients, window and honesty in t, and the same refusals.  The
    reference squares as series_compose does: for a u known to a total,
    the square of a power is known further than its product by u."""
    # test_compose_refuses_negative_powers_of_an_unknown_lead covers a zero
    # u below e_t = 0
    assume(u.coeffs or a.window.min_t >= 0)
    by_rows = partial(_compose_by_products, square=True)
    assert _composite_or_refusal(series_compose, a, u, window) == _composite_or_refusal(
        by_rows, a, u, window
    )


# -- every product chain starts from its first factor ----------------------
#
# The references below form each chain as it was formed from 1: a power,
# the Frobenius product of an inverse and the powers of a composite each
# multiply the bare one map {(0, 0): 1} by their first factor.


def _outcome(op, *args):
    """The repr, window and honesty in t of op(*args), or its refusal."""
    try:
        got = op(*args)
    except LaurentError as e:
        return type(e).__name__, str(e)
    return repr(got), got.window, got.honest_t


def _pow_from_one(a, k, window=None):
    """series_pow with its square-and-multiply chain started from 1."""
    if k < 0:
        return series_inverse(_pow_from_one(a, -k), window)
    result, base = LaurentSeries.one(), a
    while k:
        if k & 1:
            result = series_mul(result, base)
        k >>= 1
        if k:
            base = base.square()
    return result if window is None else result.restricted(window)


def _product_kept(a_coeffs, b_coeffs, keep):
    """The product of two coefficient maps at the exponents keep admits,
    one F2Poly product per pair of terms, with the sums that cancel
    dropped."""
    out: dict = {}
    for (es1, et1), p1 in a_coeffs.items():
        for (es2, et2), p2 in b_coeffs.items():
            e = (es1 + es2, et1 + et2)
            if keep(*e):
                out[e] = out.get(e, F2Poly.zero()) + p1 * p2
    return {e: p for e, p in out.items() if not p.is_zero()}


def _inverse_from_one(a, window):
    """series_inverse as the Frobenius product prod_k (1 + r^(2^k))
    started from 1, with a shifted to and from its lead even when the
    lead is (0, 0).  keep admits the positions that can still flow back
    into the box, and honesty in t is lost when a position below the
    t-axis is met, kept or not."""
    if window is None or window.max_total == inf:
        raise NotInvertibleError("the inverse needs a finite window")
    if not a.honest_t:
        raise NotInvertibleError("cannot invert a non-quadrant-bounded series")
    if a.is_zero():
        raise NotInvertibleError("zero series has no inverse")
    lead = min(a.coeffs)
    if not a.coeffs[lead].is_one():
        raise NotInvertibleError("leading coefficient is not 1")
    rel = a.shift(-lead[0], -lead[1])
    r = {e: p for e, p in rel.coeffs.items() if e != (0, 0)}
    if any(es + et < 0 for es, et in r):
        raise NotInvertibleError("a term has a lower total than the leading term")
    if a.window.max_total < inf and a.window.min_s < lead[0]:
        raise NotInvertibleError("leading term is not minimal in the s-small order")
    box = window.shifted(lead[0], lead[1])
    min_s = min(box.min_s, 0)
    bs = box.max_total - box.min_t
    neg_drop = max((-et for _, et in r if et < 0), default=0)
    lost_t = neg_drop > 0

    def keep(es, et):
        nonlocal lost_t
        if (
            es <= bs
            and et <= (box.max_total - min_s) + (bs - es) * neg_drop
            and es + et <= box.max_total
        ):
            return True
        lost_t = lost_t or et < box.min_t
        return False

    acc = {(0, 0): ONE} if keep(0, 0) else {}
    q = {e: p for e, p in r.items() if keep(*e)}
    while q:
        acc = _product_kept(acc, {(0, 0): ONE, **q}, keep)
        q = {(2 * es, 2 * et): p.square() for (es, et), p in q.items() if keep(2 * es, 2 * et)}
    lost_t = lost_t or any(et < box.min_t for _, et in acc)
    c = _known(
        acc, min_s, box.min_t, min(box.max_total, rel.window.max_total), not lost_t
    )
    return c.shift(-lead[0], -lead[1]).restricted(window)


_POW_BASES = [
    exact((0, 0), (0, 1)),
    T_PLUS_S,
    LaurentSeries.exact({(0, 1): F2Poly.zeta(1), (1, -1): ONE, (2, 0): ONE}),
    T_PLUS_S.restricted(Window(0, 0, 5)),
    zeta_series(9),
    LaurentSeries.truncated({}, Window(0, 3, 5)),
    LaurentSeries.zero(),
    # an exact zero away from (0, 0), as shift leaves one
    LaurentSeries.zero().shift(1, 2),
]


@pytest.mark.parametrize("a", _POW_BASES)
@pytest.mark.parametrize("window", [None, Window(0, -2, 12), Window(1, 1, 6)])
def test_pow_matches_the_chain_from_one(a, window):
    for k in range(10):
        assert _outcome(series_pow, a, k, window) == _outcome(_pow_from_one, a, k, window), k


@settings(deadline=None, max_examples=200)
@given(st.integers(-3, 9), _SUMMANDS, st.one_of(st.none(), _target_window()))
def test_pow_matches_the_chain_from_one_on_drawn_bases(k, x, window):
    """The same coefficients, window, honesty in t and refusals, for honest and
    dishonest, exact and truncated bases."""
    a, _ = x
    if k < 0 and window is None:
        window = Window(0, -6, 6)
    assert _outcome(series_pow, a, k, window) == _outcome(_pow_from_one, a, k, window)


@pytest.mark.parametrize(
    "u, window",
    [
        # lead (0, 0)
        (exact((0, 0), (0, 1)), Window(0, 0, 20)),
        (exact((0, 0), (1, -1)), Window(0, -8, 6)),
        (exact((0, 0), (1, -1)), Window(0, -100, -99)),
        (
            LaurentSeries.exact({(0, 0): ONE, (1, 0): ONE, (0, 1): F2Poly.zeta(1)})
            .restricted(Window(0, 0, 5)),
            Window(-1, -20, 12),
        ),
        # keep rejects (0, 0): below the box's total, and past its e_s with
        # (0, 0) below its t-axis, which costs honesty in t
        (exact((0, 0), (0, 1)), Window(0, -5, -2)),
        (exact((0, 0), (0, 1)), Window(-3, 1, -1)),
        (exact((0, 0), (1, -1)), Window(-4, 2, -1)),
        # other leads
        (T_PLUS_S, Window(0, -8, 6)),
        (T_PLUS_S.restricted(Window(0, 0, 5)), Window(0, -8, 6)),
        (zeta_series(34), Window(0, -1, 32)),
        (exact((1, 1), (2, 1), (1, 3)), Window(-1, -4, 6)),
    ],
)
def test_inverse_matches_the_product_from_one(u, window):
    assert _outcome(series_inverse, u, window) == _outcome(_inverse_from_one, u, window)


@settings(deadline=None, max_examples=300)
@given(_INVERSE_CASES)
def test_inverse_matches_the_product_from_one_on_drawn_units(case):
    (a, _), window = case
    assert _outcome(series_inverse, a, window) == _outcome(_inverse_from_one, a, window)


@settings(deadline=None, max_examples=300)
@given(_INVERSE_CASES)
def test_inverse_honesty_in_t_has_a_closed_form(case):
    """An inverse is honest in t exactly when no term of a lies below its
    lead in t and the window, moved to the lead, reaches e_t = 0, where
    the relative inverse holds 1; the product from one finds the same."""
    (a, _), window = case
    try:
        got = series_inverse(a, window)
    except NotInvertibleError:
        return
    lead = min(a.coeffs)
    closed = window.min_t + lead[1] <= 0 and all(et >= lead[1] for _, et in a.coeffs)
    assert got.honest_t == closed == _inverse_from_one(a, window).honest_t


@pytest.mark.parametrize(
    "a",
    [
        # rows at t^0 and t^1, and one below
        LaurentSeries.exact({(1, 0): ONE, (0, 1): ONE, (2, 1): F2Poly.zeta(1), (2, -1): ONE}),
        LaurentSeries.exact({(0, 0): ONE, (0, 1): F2Poly.zeta(2), (1, 2): ONE})
        .restricted(Window(0, 0, 5)),
        zeta_series(12),
        _identity1_rhs(6),
    ],
)
@pytest.mark.parametrize(
    "u", [zeta_series(14), exact((0, 1), (0, 2)), LaurentSeries.zero().shift(0, 2)]
)
def test_compose_matches_the_powers_from_one(a, u):
    window = Window(0, -3, 10)
    got = _composite_or_refusal(series_compose, a, u, window)
    assert got == _composite_or_refusal(_compose_by_products, a, u, window)


def _count_products(monkeypatch):
    """Every map_product call the laurent layer makes, as its pair list."""
    calls = []

    def counted(factor_pairs, max_total):
        factor_pairs = list(factor_pairs)
        calls.append(factor_pairs)
        return map_product(factor_pairs, max_total)

    monkeypatch.setattr(laurent, "map_product", counted)
    return calls


def test_pow_makes_a_product_only_past_its_first_factor(monkeypatch):
    calls = _count_products(monkeypatch)
    a = LaurentSeries.exact({(0, 0): ONE, (1, 0): F2Poly.zeta(1), (0, 1): ONE})
    counts = []
    for k in (0, 1, 2, 3, 4, 5):
        calls.clear()
        series_pow(a, k)
        counts.append(len(calls))
    assert counts == [0, 0, 0, 1, 0, 1]


def test_no_chain_multiplies_by_the_bare_one(monkeypatch):
    """q_op makes no Laurent product, and its chain of truncated products
    starts from the first factor's power: the monomial 1 and a single
    z_n^e with e a power of 2 take no product, and every other factor one,
    each of which forms the offset i - |m| once, the last that offset
    alone.  series_inverse makes no product through the kernel at all, and
    series_compose sums its rows in one product, with a pair for every row
    of a: row 0 and the rows that are the bare 1 included."""
    calls = _count_products(monkeypatch)
    offsets = []
    offset = steenrod._offset

    def counted(a, b, k):
        offsets.append(k)
        return offset(a, b, k)

    def refused(*args, **kwargs):
        raise AssertionError("q_op formed a Laurent product")

    z = F2Poly.zeta
    made = []
    with monkeypatch.context() as patched:
        patched.setattr(steenrod, "_offset", counted)
        for name in ("series_mul", "series_pow"):
            patched.setattr(laurent, name, refused)
            patched.setattr(steenrod, name, refused, raising=False)
        for i, m in [(3, ONE), (5, z(1)), (9, z(1) * z(2, 2)), (12, z(1, 2) * z(2) * z(3))]:
            offsets.clear()
            q_op(i, m)
            top = i - max(map(monomial_degree, m.monomials))
            made.append(offsets.count(top))
    assert made == [0, 0, 1, 2] and calls == []
    for u, window in [
        (exact((0, 0), (0, 1)), Window(0, 0, 20)),
        (exact((0, 0), (1, -1)), Window(0, -8, 6)),
        (zeta_series(34), Window(0, -1, 32)),
    ]:
        series_inverse(u, window)
    assert calls == []
    zbar = series_reversion(zeta_series(20))
    for a, window in [
        (_identity1_rhs(8), Window(0, -9, 8)),
        # row t^1 of z(t) is the bare 1
        (zeta_series(20), Window(0, -9, 20)),
        (exact((0, 0), (1, 0), (0, 1), (0, 3)), Window(0, -9, 20)),
    ]:
        calls.clear()
        series_compose(a, zbar, window)
        rows = {}
        for (es, et), p in a.coeffs.items():
            rows.setdefault(et, {})[(es, 0)] = p
        # odd powers of u come from series_mul first; the rows come last
        assert [row for _, row in calls[-1]] == [rows[i] for i in sorted(rows)]


def test_inverse_shifts_only_a_lead_off_the_origin(monkeypatch):
    shifts = []
    shift = LaurentSeries.shift

    def counted(self, ds, dt):
        shifts.append((ds, dt))
        return shift(self, ds, dt)

    monkeypatch.setattr(LaurentSeries, "shift", counted)
    series_inverse(exact((0, 0), (0, 1)), Window(0, 0, 8))
    assert shifts == []
    series_inverse(T_PLUS_S, Window(0, -8, 6))
    assert shifts == [(0, -1), (0, -1)]  # to the lead t and then by t^-1


def test_window_is_an_immutable_value():
    w = Window(0, -8, 10)
    for name in ("min_s", "min_t", "max_total", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, 3)
    assert w == Window(0, -8, 10) and hash(w) == hash(Window(0, -8, 10))
    assert w != Window(0, -8, 11) and w != (0, -8, 10)
    assert {w: "box"}[Window(0, -8, 10)] == "box"
    assert repr(w) == "Window(min_s=0, min_t=-8, max_total=10)"
    assert Window(1, 2).max_total == inf
    assert repr(Window(1, 2)) == "Window(min_s=1, min_t=2, max_total=inf)"
    with pytest.raises(EmptyWindowError, match="min_s=1, min_t=2, max_total=2"):
        Window(1, 2, 2)


def test_series_and_polynomials_are_immutable():
    a = exact((0, 0), (0, 1))
    for name in ("window", "coeffs", "honest_t"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        ONE.monomials = frozenset()


_X = GradedClass("x", 2)


@pytest.mark.parametrize(
    "value",
    [
        Window(0, -8, 10),
        F2Poly.zeta(1) * F2Poly.zeta(2) + ONE,
        # not honest in t; == compares the flag, and so does the check below
        _T_PLUS_S_INVERSE,
        _X,
        adem_relation(6, 2),
        DLSum(_X, {(6, 2), (5, 3)}),
    ],
    ids=lambda v: type(v).__name__,
)
def test_value_objects_survive_copy_and_pickle(value):
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value) and other == value
        assert getattr(other, "honest_t", None) == getattr(value, "honest_t", None)


def test_series_equality_compares_honesty_in_t():
    """Two series with one window and one map that answer coefficient()
    differently are unequal."""
    inverse = _T_PLUS_S_INVERSE
    honest = LaurentSeries(inverse.window, inverse.coeffs, honest_t=True)
    assert not inverse.honest_t
    assert inverse != honest and honest != inverse
    assert honest.coefficient(0, -9).is_zero()
    with pytest.raises(WindowMissError):
        inverse.coefficient(0, -9)
    assert inverse == LaurentSeries(inverse.window, inverse.coeffs, honest_t=False)
