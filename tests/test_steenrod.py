import random

import pytest
from hypothesis import given, settings, strategies as st

from dlash import laurent, steenrod, verify
from dlash.f2 import F2Poly, factors, monomial_degree
from dlash.laurent import (
    LaurentSeries,
    Window,
    WindowMissError,
    series_compose,
    series_inverse,
    series_mul,
    series_pow,
    series_reversion,
)
from dlash.steenrod import (
    conjugate_zeta,
    q_op,
    q_total_coefficient,
    q_total_on_zeta,
    zeta_inverse,
    zeta_inverse_coefficient,
    zeta_series,
)
from dlash.verify import (
    verify_bisson_joyal_identity1,
    verify_nishida_conjugate_form,
    verify_steinberger_conjugate,
    verify_steinberger_successor,
)


def test_zeta_series_shape():
    z = zeta_series(20)
    assert z.coefficient(0, 1) == F2Poly.one()
    assert z.coefficient(0, 2) == F2Poly.zeta(1)
    assert z.coefficient(0, 4) == F2Poly.zeta(2)
    assert z.coefficient(0, 3).is_zero()


def test_zeta_inverse_head():
    # z(t)^{-1} = t^{-1} + z1 + z1^2 t + (z1^3 + z2) t^2 + ...
    zi = zeta_inverse(6)
    assert zi.coefficient(0, -1) == F2Poly.one()
    assert zi.coefficient(0, 0) == F2Poly.zeta(1)
    assert zi.coefficient(0, 1) == F2Poly.zeta(1, 2)
    assert zi.coefficient(0, 2) == F2Poly.zeta(1, 3) + F2Poly.zeta(2)


def test_zeta_times_inverse_is_one():
    z = zeta_series(14)
    zi = zeta_inverse(12)
    prod = series_mul(z, zi)
    assert prod.coefficient(0, 0) == F2Poly.one()
    for k in range(1, 11):
        assert prod.coefficient(0, k).is_zero()


def test_conjugates_match_known_values():
    zb = conjugate_zeta(3)
    assert zb[0] == F2Poly.zeta(1)
    assert zb[1] == F2Poly.zeta(1, 3) + F2Poly.zeta(2)
    expected3 = (
        F2Poly.zeta(1) * F2Poly.zeta(2, 2)
        + F2Poly.zeta(1, 4) * F2Poly.zeta(2)
        + F2Poly.zeta(1, 7)
        + F2Poly.zeta(3)
    )
    assert zb[2] == expected3


def test_conjugation_is_an_involution():
    """Substituting z_i -> zbar_i in zbar_n recovers z_n."""
    zb = conjugate_zeta(3)
    subs = {i + 1: zb[i] for i in range(len(zb))}

    def conj(poly):
        out = F2Poly.zero()
        for m in poly.monomials:
            term = F2Poly.one()
            for i, exp in factors(m):
                term = term * subs[i] ** exp
            out = out + term
        return out

    for n in range(1, 4):
        assert conj(zb[n - 1]) == F2Poly.zeta(n)


def test_q_total_on_z1_head():
    total = q_total_on_zeta(1, 5)
    assert total.coefficient(0, 1) == F2Poly.zeta(1, 2)
    assert total.coefficient(0, 2) == F2Poly.zeta(1, 3) + F2Poly.zeta(2)


def _closed_form_by_product(n, max_total):
    """Q(t) z_n for n >= 1 from the closed form in the steenrod docstring
    as a product of series: z(t)^{-1} times the squares, plus the high
    terms, shifted down by t^{2^n}; also below the instability line."""
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


def test_q_total_below_instability_line_matches_closed_form():
    """For 2^n - 1 > max_total the answer is known without the closed form;
    it must equal the closed form's product, window and honesty in t
    included.  Every n <= 5, and the ends of the range for n = 6, 7."""
    cases = [(n, m) for n in range(1, 6) for m in range(0, 2**n - 1)]
    cases += [(6, 0), (6, 61), (7, 0), (7, 125)]
    for n, m in cases:
        assert q_total_on_zeta(n, m) == _closed_form_by_product(n, m), (n, m)


def test_q_total_above_instability_line_matches_the_product():
    """The closed form read coefficient by coefficient off z(t)^{-1}
    equals the closed form's product, window and honesty in t included:
    from the instability line to 64 past t^{2^n} (which covers every t^m
    with m + 2^n a power of 2 up to there), and at 128 and 256.  For
    n <= 5, q_total_coefficient(n, m) alone is the product's t^m
    coefficient."""
    for n in range(1, 8):
        for m in list(range(2**n - 1, 2**n + 65)) + [128, 256]:
            got = q_total_on_zeta(n, m)
            want = _closed_form_by_product(n, m)
            assert got == want, (n, m)
            assert repr(got) == repr(want), (n, m)
            if n <= 5:
                assert q_total_coefficient(n, m) == want.coefficient(0, m), (n, m)


def _clear_memos():
    zeta_inverse_coefficient.cache_clear()
    q_total_coefficient.cache_clear()


def test_closed_form_cache_is_bounded():
    """Each (n, m) is formed once, however many series read it: the memo
    holds one entry per position asked, t^{2^n - 1} .. t^{2^n + 48}."""
    _clear_memos()
    for n in range(1, 5):
        for m in range(2**n - 1, 2**n + 49):
            q_total_on_zeta(n, m)
    info = q_total_coefficient.cache_info()
    assert info.misses == info.currsize == 4 * 50
    assert q_total_on_zeta(4, 64) == q_total_on_zeta(4, 64)
    assert q_total_coefficient.cache_info().misses == 200


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_zeta_inverse_does_not_depend_on_what_ran_before(order):
    """Each coefficient, asked alone from cold memos, and each series,
    read off them however many have been formed, is the inverse formed
    directly to that total, window and honesty included; the series read
    leave exactly c_{-1} .. c_M in the memo for the largest M asked."""
    totals = list(range(-1, 41)) + [62, 128, 130]
    if order == "descending":
        totals.reverse()
    elif order == "shuffled":
        random.Random(19).shuffle(totals)
    _clear_memos()
    for k in totals:
        want = series_inverse(zeta_series(k + 2), Window(0, -1, k))
        assert zeta_inverse_coefficient(k) == want.coefficient(0, k), k
    _clear_memos()
    largest = -2
    for m in totals:
        got = zeta_inverse(m)
        want = series_inverse(zeta_series(m + 2), Window(0, -1, m))
        assert got == want, m
        assert got.honest_t == want.honest_t, m
        largest = max(largest, m)
        assert zeta_inverse_coefficient.cache_info().currsize == largest + 2, m


@pytest.mark.parametrize(
    "n, max_total, want",
    [
        (1, 4, "z1^2 t + (z1^3 + z2) t^2 + z1^4 t^3 + (z1^2 z2 + z1^5) t^4 @ [e_s>=0, e_t>=1, e_s+e_t<=4]"),
        (2, 2, "0 @ [e_s>=0, e_t>=2, e_s+e_t<=2]"),
        (2, 6, "z2^2 t^3 + (z1 z2^2 + z3) t^4 + z1^2 z2^2 t^5 + (z1^3 z2^2 + z2^3) t^6 @ [e_s>=0, e_t>=3, e_s+e_t<=6]"),
        (3, 9, "z3^2 t^7 + (z1 z3^2 + z4) t^8 + z1^2 z3^2 t^9 @ [e_s>=0, e_t>=7, e_s+e_t<=9]"),
        (4, 15, "z4^2 t^15 @ [e_s>=0, e_t>=15, e_s+e_t<=15]"),
        (4, 17, "z4^2 t^15 + (z1 z4^2 + z5) t^16 + z1^2 z4^2 t^17 @ [e_s>=0, e_t>=15, e_s+e_t<=17]"),
    ],
    ids=["z1-4", "z2-2", "z2-6", "z3-9", "z4-15", "z4-17"],
)
def test_q_total_on_zeta_pinned(n, max_total, want):
    total = q_total_on_zeta(n, max_total)
    assert repr(total) == f"LaurentSeries({want})"
    assert total.honest_t


def _q_op_at_full_width(i, a, max_total):
    """The t^i coefficient of Q(t) a with every factor Q(t) z_n formed out
    to max_total, or None where the window does not reach t^i."""
    total = None
    for m in a.monomials:
        term = LaurentSeries.one()
        for n, e in factors(m):
            term = series_mul(term, series_pow(q_total_on_zeta(n, max_total), e))
        total = term if total is None else total + term
    try:
        return total.coefficient(0, i)
    except WindowMissError:
        return None


def _degree(exps):
    """The degree of z1^e1 z2^e2 ... from its exponent tuple."""
    return sum(((1 << n) - 1) * e for n, e in enumerate(exps, 1))


# exponents of z1..z4 in one monomial
_exponents = st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))


@settings(deadline=None, max_examples=80)
@given(st.lists(_exponents, min_size=1, max_size=3), st.data())
def test_q_op_matches_full_width_factors(monomials, data):
    """Reading t^i with each factor cut to its valuation plus i - |m| gives
    what factors formed out to any total that reaches t^i give."""
    a = F2Poly.zero()
    for exps in monomials:
        m = F2Poly.one()
        for n, e in enumerate(exps, 1):
            m = m * F2Poly.zeta(n, e)
        a = a + m
    degree = data.draw(st.sampled_from([_degree(exps) for exps in monomials]))
    i = degree + data.draw(st.integers(-3, 4))
    max_total = max(i, 0) + data.draw(st.integers(1, 4))
    want = _q_op_at_full_width(i, a, max_total) if a.monomials else F2Poly.zero()
    assert want is not None
    assert q_op(i, a) == want


def _q_op_from_one(i, a, max_total):
    """q_op with each monomial's product started from 1."""
    result = F2Poly.zero()
    for monomial in a.monomials:
        slack = max(i - _degree_of(monomial), 0)
        term = LaurentSeries.one()
        for n, e in factors(monomial):
            bound = min(max_total, (1 << n) - 1 + slack)
            term = series_mul(term, series_pow(q_total_on_zeta(n, bound), e))
        try:
            result = result + term.coefficient(0, i)
        except WindowMissError:
            raise WindowMissError(term.window.describe()) from None
    return result


def _degree_of(monomial):
    return sum(((1 << n) - 1) * e for n, e in factors(monomial))


_Z = F2Poly.zeta


@pytest.mark.parametrize(
    "a",
    [
        F2Poly.one(),
        _Z(1),
        _Z(3, 2),
        _Z(1, 3) * _Z(2),
        _Z(2, 2) * _Z(3),
        _Z(1) * _Z(2, 2) * _Z(3),
        _Z(1, 2) * _Z(2) * _Z(4) + _Z(1),
    ],
    ids=["1", "z1", "z3^2", "z1^3 z2", "z2^2 z3", "z1 z2^2 z3", "sum"],
)
def test_q_op_matches_the_product_from_one(a):
    """Monomials of 0 to 3 factors: the same answer as the Laurent product
    chain with each factor known to total i + 1, or to 40."""
    for i in range(-2, 30, 3):
        got = q_op(i, a)
        for max_total in (max(i, 0) + 1, 40):
            assert got == _q_op_from_one(i, a, max_total), (i, max_total)


def _milnor_monomial(rng, degree):
    """A random monomial of the given degree in z1..z5, or None if the
    draw misses it."""
    exps, rest = {}, degree
    for n in rng.sample(range(1, 6), 5):
        e = rng.randint(0, rest // ((1 << n) - 1))
        exps[n], rest = e, rest - e * ((1 << n) - 1)
    if rest:
        return None
    m = F2Poly.one()
    for n, e in exps.items():
        m = m * _Z(n, e)
    return m


def test_q_op_matches_the_product_from_one_over_the_milnor_range():
    """Three monomials in z1..z5 of each degree 8 to 48, each t^i from
    |m| - 3 to |m| + 4: the same answer as the Laurent product chain with
    each factor known to total i + 1.  On the zero slots i < |m| q_op
    forms no coefficient, even from cold memos."""
    rng = random.Random("q_op/milnor")
    for degree in range(8, 49):
        monomials = set()
        while len(monomials) < 3:
            monomials.add(_milnor_monomial(rng, degree))
            monomials.discard(None)
        for m in sorted(monomials, key=str):
            for i in range(degree - 3, degree + 5):
                if i < degree:
                    _clear_memos()
                got = q_op(i, m)
                if i < degree:
                    assert got.is_zero()
                    assert zeta_inverse_coefficient.cache_info().misses == 0
                    assert q_total_coefficient.cache_info().misses == 0
                assert got == _q_op_from_one(i, m, max(i, 0) + 1), (str(m), i)


def _refuse_laurent_products(monkeypatch):
    """Make series_mul, series_pow and map_product raise wherever
    steenrod or laurent would reach them."""

    def refused(*args, **kwargs):
        raise AssertionError("q_op formed a Laurent product")

    for name in ("series_mul", "series_pow", "map_product"):
        monkeypatch.setattr(laurent, name, refused)
        monkeypatch.setattr(steenrod, name, refused, raising=False)


@pytest.mark.parametrize("n, calls_made", [(4, 13), (6, 43)])
def test_q_op_forms_each_factor_power_once(monkeypatch, n, calls_made):
    """zbar_n is homogeneous, so every factor z_i of its monomials is formed
    to one offset, and q_op(2^n, zbar_n) forms one truncated power per
    distinct z_i^e: the 13 factors of zbar_4 are distinct, and the 66 of
    zbar_6 are 43.  It makes no Laurent product on the way."""
    zbar = conjugate_zeta(n)[n - 1]
    want = _q_op_from_one(2**n, zbar, 2**n + 1)
    calls = []
    power = steenrod._power

    def counted(n, e, top):
        calls.append(e)
        return power(n, e, top)

    monkeypatch.setattr(steenrod, "_power", counted)
    _refuse_laurent_products(monkeypatch)
    got = q_op(2**n, zbar)
    assert len(calls) == len({f for m in zbar.monomials for f in factors(m)}) == calls_made
    assert got == want


def test_q_op_squaring():
    # Q^{deg a}(a) = a^2
    z2 = F2Poly.zeta(2)
    assert q_op(3, z2) == z2.square()
    m = F2Poly.zeta(1) * F2Poly.zeta(2)
    assert q_op(4, m) == m.square()


def test_q_op_instability_zeros():
    for n in range(1, 6):
        for i in range(1, 2**n - 1):
            assert q_op(i, F2Poly.zeta(n)).is_zero()


def test_q_op_additivity():
    a = F2Poly.zeta(1, 2)
    b = F2Poly.zeta(2)
    for i in range(0, 7):
        assert q_op(i, a + b) == q_op(i, a) + q_op(i, b)


def test_cartan_on_a_product():
    a = F2Poly.zeta(1)
    b = F2Poly.zeta(2)
    n = 5
    lhs = q_op(n, a * b)
    rhs = F2Poly.zero()
    for i in range(0, n + 1):
        rhs = rhs + q_op(i, a) * q_op(n - i, b)
    assert lhs == rhs


def test_steinberger_conjugate_report():
    records = verify_steinberger_conjugate(5, conjugate_zeta(5))
    assert all(r["passed"] for r in records)
    assert len(records) == 4


def test_steinberger_successor_report():
    records = verify_steinberger_successor(4, conjugate_zeta(5))
    assert all(r["passed"] for r in records)


def test_steinberger_checks_reverse_z_once(monkeypatch):
    from click.testing import CliRunner

    from dlash.cli import main

    calls = []

    def counted(max_i):
        calls.append(max_i)
        return conjugate_zeta(max_i)

    monkeypatch.setattr(steenrod, "conjugate_zeta", counted)
    monkeypatch.setattr(verify, "conjugate_zeta", counted)
    assert verify.check_steinberger()["passed"]
    assert calls == [5]
    calls.clear()
    r = CliRunner().invoke(main, ["steinberger", "4"])
    assert r.exit_code == 0
    assert calls == [5]


def _counted_inversions(monkeypatch) -> list:
    """The totals of the z(t) series that series_inverse is handed from
    now on, with the memos of z(t)^{-1} and Q(t) z_n emptied."""
    inverted = []

    def counted(a, window):
        top = max((et for _, et in a.coeffs), default=0)
        if top >= 2 and a.coeffs == zeta_series(top).coeffs:  # z(t), cut past t^2
            inverted.append(a.window.max_total)
        return series_inverse(a, window)

    monkeypatch.setattr(laurent, "series_inverse", counted)
    monkeypatch.setattr(verify, "series_inverse", counted)
    _clear_memos()
    verify._identity1_rhs.cache_clear()
    return inverted


def _steinberger_closure(i_max):
    """The k whose c_k steinberger i_max forms: c_{2^i - 2} for the
    residue and c_{2^i - 2^j}, 2 <= j <= i, for Q^{2^i - 2} z_1, closed
    under the recurrence's k -> (k - 2^l)/2.  The closure holds c_0 and
    c_{-1}, all that the successor checks read."""
    todo = [2**i - 2**j for i in range(2, i_max + 1) for j in range(1, i + 1)]
    seen = set()
    while todo:
        k = todo.pop()
        if k not in seen:
            seen.add(k)
            todo += [(k - 2**l) // 2 for l in range((k + 2).bit_length()) if (k - 2**l) % 2 == 0]
    return seen


def test_steinberger_inverts_z_once(monkeypatch):
    """From cold memos, steinberger forms exactly the coefficients of
    z(t)^{-1} that its reads recurse on, each once, and hands z(t) to no
    series_inverse."""
    from click.testing import CliRunner

    from dlash.cli import main

    for i_max, size in [(4, 11), (9, 142)]:
        inverted = _counted_inversions(monkeypatch)
        r = CliRunner().invoke(main, ["steinberger", str(i_max)])
        assert r.exit_code == 0
        info = zeta_inverse_coefficient.cache_info()
        assert info.currsize == info.misses == size
        closure = _steinberger_closure(i_max)
        assert len(closure) == size and max(closure) == 2**i_max - 2
        for k in closure:  # each is held: none is formed anew
            zeta_inverse_coefficient(k)
        assert zeta_inverse_coefficient.cache_info().misses == size
        assert inverted == []


@pytest.mark.parametrize("bound", [8, 16])
def test_verify_all_inverts_z_once(monkeypatch, bound):
    """verify-all forms each coefficient of z(t)^{-1} it reads once, 20
    at bound 8 and 21 at 16, and hands z(t) to no series_inverse."""
    inverted = _counted_inversions(monkeypatch)
    assert all(r["passed"] for r in verify.run_all(bound))
    info = zeta_inverse_coefficient.cache_info()
    assert info.currsize == info.misses == {8: 20, 16: 21}[bound]
    assert inverted == []


@pytest.mark.parametrize("bound", [1, 8])
def test_verify_all_forms_the_identity_right_side_once(bound):
    """The Bisson-Joyal and nishida suites share one right side of
    identity (1): the first forms it and the second reads the cache.
    Their records are those each suite gives on its own, from a cold cache."""
    verify._identity1_rhs.cache_clear()
    reports = {r["name"]: r for r in verify.run_all(bound)}
    info = verify._identity1_rhs.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    verify._identity1_rhs.cache_clear()
    assert reports["bisson-joyal-identity"] == verify.check_bisson_joyal(bound)
    verify._identity1_rhs.cache_clear()
    assert reports["nishida-conjugate-form"] == verify.check_nishida(bound)
    assert all(r["passed"] for r in reports.values())


def test_verify_all_never_reads_another_bounds_right_side():
    """With one cache entry, a change of bound forms the right side anew:
    each run gives the records of a cold run at its own bound."""

    def cold(bound):
        verify._identity1_rhs.cache_clear()
        return verify.run_all(bound)

    want = {bound: cold(bound) for bound in (8, 16)}
    verify._identity1_rhs.cache_clear()
    for bound in (8, 16, 8):
        assert verify.run_all(bound) == want[bound]
    info = verify._identity1_rhs.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 1)


@pytest.mark.parametrize("d", [1, 8, 16])
def test_the_cached_identity_right_side_is_the_one_formed_afresh(d):
    verify._identity1_rhs.cache_clear()
    cached = verify._identity1_rhs(d)
    assert verify._identity1_rhs(d) is cached
    _clear_memos()
    fresh = verify._identity1_rhs.__wrapped__(d)
    assert fresh is not cached
    assert fresh.coeffs == cached.coeffs
    assert fresh.window == cached.window
    assert fresh.honest_t == cached.honest_t


def test_an_identity_right_side_that_raises_fails_both_identity_suites(monkeypatch):
    def raises(d):
        raise WindowMissError("no right side")

    monkeypatch.setattr(verify, "_identity1_rhs", raises)
    failed = [r["name"] for r in verify.run_all(8) if not r["passed"]]
    assert failed == ["bisson-joyal-identity", "nishida-conjugate-form"]


def test_a_q_op_past_its_window_fails_only_the_suite_that_asks(monkeypatch):
    """Only the Cartan law asks q_op for a t^i more than one past the degree
    of a; a stub that refuses those with a window miss fails the
    property-laws suite alone, and run_all records the error."""
    q = verify.q_op

    def short(i, a):
        if i > max(map(monomial_degree, a.monomials), default=0) + 1:
            window = Window(0, 0, i - 1).describe()
            raise WindowMissError(f"t^{i} outside the guaranteed window {window}")
        return q(i, a)

    monkeypatch.setattr(verify, "q_op", short)
    records = verify.run_all(8)
    assert len(records) == 9
    assert [r["name"] for r in records if not r["passed"]] == ["property-laws"]
    assert records[-1]["first_mismatch"].startswith("WindowMissError: t^")
    assert " outside the guaranteed window [" in records[-1]["first_mismatch"]


def test_bisson_joyal_report():
    records = verify_bisson_joyal_identity1(12)
    assert all(r["passed"] for r in records)


def test_nishida_report():
    records = verify_nishida_conjugate_form(10)
    assert all(r["passed"] for r in records)


def test_nishida_report_locates_first_mismatch(monkeypatch):
    # a zbar(t) off by t^3 makes z(zbar(t)) = t fail first at t^3
    reversion = verify.series_reversion
    monkeypatch.setattr(
        verify,
        "series_reversion",
        lambda a: reversion(a) + LaurentSeries.monomial(0, 3),
    )
    record = verify_nishida_conjugate_form(6)[0]
    assert record["name"] == "z(zbar(t)) = t"
    assert record["passed"] is False
    assert record["first_mismatch"] == (0, 3)


def _nishida_sides(d):
    """The box and the two sides of the nishida check, as
    verify_nishida_conjugate_form builds them."""
    zbar = series_reversion(zeta_series(2 * d + 4))
    rhs = series_compose(verify._identity1_rhs(d), zbar, window=Window(0, -(d + 1), d))
    zs = zeta_series(d, var="s")
    return Window(1, -d, d), zs + zs.square().shift(0, -1), rhs


def _parent_check(box, *sides):
    """The comparison the checks made before they took a box: both sides
    cut to the box, compared on their common window only, from the larger
    of their minima in each axis to the lesser of their totals."""
    first, *rest = (side.restricted(box) for side in sides)
    w = first.window
    return all(
        first.first_disagreement(side, Window(
            max(w.min_s, side.window.min_s),
            max(w.min_t, side.window.min_t),
            min(w.max_total, side.window.max_total),
        )) is None
        for side in rest
    )


def _check_by_positions(box, *sides):
    """The oracle of verify._check: coefficient() at every position of the
    box, in (total, e_s) order.  Its failures are the index of each side
    that misses a position or, when none does, the first position where
    each side differs from sides[0]."""
    positions = [
        (es, total - es)
        for total in range(box.min_s + box.min_t, box.max_total + 1)
        for es in range(box.min_s, total - box.min_t + 1)
    ]
    short = []
    for k, side in enumerate(sides):
        try:
            for e in positions:
                side.coefficient(*e)
        except WindowMissError:
            short.append(k)
    if short:
        return short
    failures = []
    for side in sides[1:]:
        diffs = [e for e in positions if side.coefficient(*e) != sides[0].coefficient(*e)]
        if diffs:
            failures.append(diffs[0])
    return failures


def _assert_check_matches_oracle(box, *sides):
    record = verify._check("check", "detail", box, *sides)
    want = _check_by_positions(box, *sides)
    assert record["passed"] == (not want)
    if not want:
        assert record["first_mismatch"] is None
    elif isinstance(want[0], int):
        assert record["first_mismatch"].startswith(f"side {want[0]} window ")
        assert record["first_mismatch"].endswith(f"does not cover {box.describe()}")
    else:
        assert record["first_mismatch"] == want[0]
    return record


def _spurious_term(box, lhs, rhs):
    # s^4 t^-5 lies in the box, below the left side's honest t-axis at -1
    return box, lhs, rhs + LaurentSeries.monomial(4, -5)


def _lhs_short(box, lhs, rhs):
    return box, lhs.restricted(Window(box.min_s, box.min_t, box.max_total - 1)), rhs


def _rhs_short(box, lhs, rhs):
    return box, lhs, rhs.restricted(Window(box.min_s, box.min_t, box.max_total - 1))


def _lhs_dishonest_in_t(box, lhs, rhs):
    # the left side's coefficients, claimed only from its own e_t >= -1 up
    return box, LaurentSeries(lhs.window, lhs.coeffs, honest_t=False), rhs


@pytest.mark.parametrize(
    "mutant, first_mismatch",
    [
        (_spurious_term, (4, -5)),
        (_lhs_short, "side 0"),
        (_rhs_short, "side 1"),
        (_lhs_dishonest_in_t, "side 0"),
    ],
)
def test_box_check_fails_mutants_the_common_window_passed(mutant, first_mismatch):
    box, lhs, rhs = mutant(*_nishida_sides(12))
    assert _parent_check(box, lhs, rhs)
    record = _assert_check_matches_oracle(box, lhs, rhs)
    assert record["passed"] is False
    if isinstance(first_mismatch, str):
        assert record["first_mismatch"].startswith(first_mismatch + " window ")
    else:
        assert record["first_mismatch"] == first_mismatch


def test_box_check_reports_the_lowest_total_first():
    # s^2 t^5 comes first in e_s, s^4 t^-5 in total degree
    box, lhs, rhs = _nishida_sides(12)
    rhs = rhs + LaurentSeries.monomial(2, 5) + LaurentSeries.monomial(4, -5)
    assert _assert_check_matches_oracle(box, lhs, rhs)["first_mismatch"] == (4, -5)


@pytest.mark.parametrize("d", [2, 5, 12])
def test_box_check_matches_the_oracle_on_the_identity_sides(d):
    box, lhs, rhs = _nishida_sides(d)
    assert _assert_check_matches_oracle(box, lhs, rhs)["passed"]
    zs = zeta_series(d, var="s")
    bj_lhs = zs + series_mul(zs.square(), zeta_inverse(d))
    assert _assert_check_matches_oracle(box, bj_lhs, verify._identity1_rhs(d))["passed"]
    # three sides, the last two of which differ from the first
    record = _assert_check_matches_oracle(box, lhs, verify._identity1_rhs(d), bj_lhs)
    assert record["passed"] is False


@pytest.mark.parametrize("d", [4, 12, 19])
def test_identity_sides_on_the_box_match_those_built_past_it(d):
    """Built to total d, the sides of identity (1) and of the nishida check
    agree on the box with the same sides built to 2d + 4."""
    work = 2 * d + 4
    box, lhs, rhs = _nishida_sides(d)
    zbar = series_reversion(zeta_series(work))
    wide_rhs = series_compose(verify._identity1_rhs(work), zbar, window=Window(0, -(d + 1), work))
    zs = zeta_series(work, var="s")
    wide_lhs = zs + series_mul(zs.square(), zeta_inverse(work))
    assert verify._check("nishida", "", box, rhs, wide_rhs)["passed"]
    assert verify._check("identity (1)", "", box, verify._identity1_rhs(d),
                         verify._identity1_rhs(work), wide_lhs)["passed"]


def _series_kernel_by_trials(instances=500, seed=2026):
    """check_series_kernel as it was before it formed each distinct
    reversion round trip once: every trial reverses and composes its own a.
    Each round trip is compared on the box the suite names."""
    rng = random.Random(seed)
    failures = []
    box = Window(0, -8, 10)
    ident = LaurentSeries.monomial(0, 1)
    for trial in range(instances):
        u = verify._random_unit(rng)
        inv = verify.series_inverse(u, window=box)
        if verify._box_failures(box, verify.series_mul(u, inv), LaurentSeries.one()):
            failures.append(("inverse", trial))
            continue
        small = Window(0, -4, 5)
        if verify._box_failures(small, verify.series_inverse(u, window=small), inv):
            failures.append(("window", trial))
            continue
        terms = {(0, 1): F2Poly.one()}
        for _ in range(rng.randint(1, 4)):
            terms[(0, rng.randint(2, 5))] = F2Poly.one()
        a = LaurentSeries.exact(terms)
        b = verify.series_reversion(a, max_total=9)
        back = verify.series_compose(a, b, window=Window(0, 0, 9))
        if verify._box_failures(Window(0, 1, 9), back, ident):
            failures.append(("reversion", trial))
    return verify._record(
        "series-kernel", failures, f"{instances} randomized round-trip instances"
    )


def _compose_wrong_on_t_plus_t3(monkeypatch):
    # one of the 15 reversion inputs, a = t + t^3, comes back off by t^2
    compose = verify.series_compose

    def wrong(a, b, window=None):
        back = compose(a, b, window=window)
        if set(a.coeffs) == {(0, 1), (0, 3)}:
            back = back + LaurentSeries.monomial(0, 2)
        return back

    monkeypatch.setattr(verify, "series_compose", wrong)


def _inverse_wrong_on_units_with_st(on):
    # every unit with a term s t, inverted on the window on, is off by t
    def patch(monkeypatch):
        inverse = verify.series_inverse

        def wrong(u, window=None):
            inv = inverse(u, window=window)
            return inv.shift(0, 1) if (1, 1) in u.coeffs and window == on else inv

        monkeypatch.setattr(verify, "series_inverse", wrong)

    return patch


def _inverse_wrong_on(*units):
    # these units, inverted on the box, are off by t
    def patch(monkeypatch):
        inverse = verify.series_inverse

        def wrong(u, window=None):
            inv = inverse(u, window=window)
            return inv.shift(0, 1) if u in units and window == Window(0, -8, 10) else inv

        monkeypatch.setattr(verify, "series_inverse", wrong)

    return patch


# 1 + s^2 and 1 + s^2 t^2 recur among the first failures, and units drawn
# before them share their exponents with other coefficients: a memo keyed
# on the exponents alone, or one that reports only a unit's first trial,
# gives another record
_RECURRING_UNITS = (
    LaurentSeries.exact({(0, 0): F2Poly.one(), (2, 0): F2Poly.one()}),
    LaurentSeries.exact({(0, 0): F2Poly.one(), (2, 2): F2Poly.one()}),
)


def _mul_wrong_on_units_with_s2(monkeypatch):
    # every unit with a term s^2, times its inverse, is off by t
    mul = verify.series_mul

    def wrong(a, b):
        prod = mul(a, b)
        return prod.shift(0, 1) if (2, 0) in a.coeffs else prod

    monkeypatch.setattr(verify, "series_mul", wrong)


@pytest.mark.parametrize("instances", [500, 40])
@pytest.mark.parametrize(
    "mutant, failing",
    [
        pytest.param(None, None, id="clean"),
        pytest.param(_compose_wrong_on_t_plus_t3, "reversion", id="compose"),
        # a failed inverse skips the trial's reversion draws
        pytest.param(_inverse_wrong_on_units_with_st(Window(0, -8, 10)), "inverse", id="inverse"),
        pytest.param(_inverse_wrong_on_units_with_st(Window(0, -4, 5)), "window", id="window"),
        pytest.param(_mul_wrong_on_units_with_s2, "inverse", id="mul"),
        pytest.param(_inverse_wrong_on(*_RECURRING_UNITS), "inverse", id="recurring-units"),
    ],
)
def test_series_kernel_matches_the_loop_over_trials(monkeypatch, instances, mutant, failing):
    """Forming each distinct round trip once hides no failure: the record
    is the one the per-trial loop gives, clean and under each mutant."""
    if mutant is not None:
        mutant(monkeypatch)
    want = _series_kernel_by_trials(instances)
    assert verify.check_series_kernel(instances) == want
    assert want["passed"] is (failing is None)
    if failing is not None:
        assert want["first_mismatch"][0] == failing


# each suite compares on a box it names: a mutant of the series kernel
# fails the suite that reads it, and a suite that raises fails alone


def _residue_with_spurious_terms(monkeypatch):
    # each t^e of the residue is copied to t^(e-1); the common window of
    # the residue and t^i starts at t^i, so only a box from t^0 sees it
    residue = verify.residue

    def wrong(a):
        got = residue(a)
        coeffs = {**got.coeffs, **{(0, et - 1): p for (_, et), p in got.coeffs.items()}}
        return LaurentSeries(got.window, coeffs, honest_t=got.honest_t)

    monkeypatch.setattr(verify, "residue", wrong)


def _residue_to_total_0(monkeypatch):
    residue = verify.residue
    monkeypatch.setattr(verify, "residue", lambda a: residue(a).restricted(Window(0, 0, 0)))


def test_residue_replay_fails_spurious_terms_below_t_i(monkeypatch):
    _residue_with_spurious_terms(monkeypatch)
    record = verify.check_residue_replay()
    assert record["passed"] is False
    # the first triple with i >= 1 and an odd binomial: C(-1, 1) t
    assert record["first_mismatch"] == ((1, 1, 1), (0, 0))


def test_residue_replay_fails_a_residue_short_of_its_box(monkeypatch):
    _residue_to_total_0(monkeypatch)
    records = verify.run_all(8)
    assert [r["name"] for r in records if not r["passed"]] == ["residue-replay"]
    residue_record = records[2]
    triple, message = residue_record["first_mismatch"]
    assert triple == (0, 0, 0)
    assert message == (
        "side 0 window [e_s>=0, e_t>=0, e_s+e_t<=0] does not cover "
        "[e_s>=0, e_t>=0, e_s+e_t<=36]"
    )


def test_a_suite_that_raises_is_its_own_failed_record(monkeypatch):
    from click.testing import CliRunner

    from dlash.cli import main

    def raises(a):
        raise WindowMissError("exponent -1 in s lies outside the window")

    monkeypatch.setattr(verify, "residue", raises)
    records = verify.run_all(8)
    assert len(records) == 9
    assert [r["name"] for r in records if not r["passed"]] == ["residue-replay"]
    assert records[2]["first_mismatch"] == (
        "WindowMissError: exponent -1 in s lies outside the window"
    )
    r = CliRunner().invoke(main, ["--degree-bound", "8", "verify-all"])
    assert r.exit_code == 1
    lines = r.stdout.splitlines()
    assert len(lines) == 10
    assert lines[2].startswith("FAIL  residue-replay: raised; failures: ['WindowMissError: ")
    assert lines[-1] == "some suites FAILED"


def test_binomial_oracle_fails_a_power_missing_one_term(monkeypatch):
    power = verify.series_pow

    def wrong(a, k, window=None):
        p = power(a, k, window)
        coeffs = {e: c for e, c in p.coeffs.items() if e != (0, 5)}
        return LaurentSeries(p.window, coeffs, honest_t=p.honest_t)

    monkeypatch.setattr(verify, "series_pow", wrong)
    record = verify.check_binomial_oracle()
    assert record["passed"] is False
    # from top = -8 up, C(top, 5) is first odd at C(-3, 5) = -21
    assert record["first_mismatch"] == (-3, (0, 5))


def test_property_laws_fail_a_term_below_the_instability_line(monkeypatch):
    total = verify.q_total_on_zeta

    def wrong(n, max_total):
        series = total(n, max_total)
        return series + LaurentSeries.monomial(0, 2**n - 2) if n == 3 else series

    monkeypatch.setattr(verify, "q_total_on_zeta", wrong)
    record = verify.check_property_laws()
    assert record["passed"] is False
    assert record["first_mismatch"] == ("instability", 3, (0, 6))
