import pytest
from hypothesis import given, settings, strategies as st

from dlash import steenrod, verify
from dlash.f2 import F2Poly, factors
from dlash.laurent import LaurentSeries, WindowMissError, series_mul, series_pow
from dlash.steenrod import (
    WindowTooSmallError,
    conjugate_zeta,
    q_op,
    q_total_on_zeta,
    zeta_inverse,
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


def test_q_total_below_instability_line_matches_closed_form():
    """For 2^n - 1 > max_total the answer is known without the closed form;
    it must equal the closed form, window and honesty flags included.
    Every n <= 5, and the ends of the range for n = 6, 7."""
    cases = [(n, m) for n in range(1, 6) for m in range(0, 2**n - 1)]
    cases += [(6, 0), (6, 61), (7, 0), (7, 125)]
    for n, m in cases:
        fast = q_total_on_zeta(n, m)
        full = steenrod._q_total_closed_form(n, m)
        assert fast == full, (n, m)
        assert (fast.honest_s, fast.honest_t) == (full.honest_s, full.honest_t), (n, m)


def test_closed_form_cache_is_bounded():
    steenrod._q_total_closed_form.cache_clear()
    for n in range(1, 5):
        for m in range(2**n - 1, 2**n + 49):
            q_total_on_zeta(n, m)
    info = steenrod._q_total_closed_form.cache_info()
    assert info.misses == 200 and info.currsize <= 128
    assert q_total_on_zeta(4, 64) is q_total_on_zeta(4, 64)


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
    assert total.honest


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
    what full-width factors give, and raises exactly where they cannot
    reach t^i, also for max_total below i."""
    a = F2Poly.zero()
    for exps in monomials:
        m = F2Poly.one()
        for n, e in enumerate(exps, 1):
            m = m * F2Poly.zeta(n, e)
        a = a + m
    degree = data.draw(st.sampled_from([_degree(exps) for exps in monomials]))
    i = degree + data.draw(st.integers(-3, 4))
    max_total = i + data.draw(st.integers(-4, 3))
    want = _q_op_at_full_width(i, a, max_total) if a.monomials else F2Poly.zero()
    try:
        got = q_op(i, a, max_total)
    except WindowTooSmallError:
        got = None
    assert got == want


def test_q_op_squaring():
    # Q^{deg a}(a) = a^2
    z2 = F2Poly.zeta(2)
    assert q_op(3, z2, 8) == z2.square()
    m = F2Poly.zeta(1) * F2Poly.zeta(2)
    assert q_op(4, m, 10) == m.square()


def test_q_op_instability_zeros():
    for n in range(1, 6):
        for i in range(1, 2**n - 1):
            assert q_op(i, F2Poly.zeta(n), 2**n + 2).is_zero()


def test_q_op_additivity():
    a = F2Poly.zeta(1, 2)
    b = F2Poly.zeta(2)
    for i in range(0, 7):
        assert q_op(i, a + b, 8) == q_op(i, a, 8) + q_op(i, b, 8)


def test_q_op_window_guard():
    with pytest.raises(WindowTooSmallError):
        q_op(40, F2Poly.zeta(1), 4)


def test_cartan_on_a_product():
    a = F2Poly.zeta(1)
    b = F2Poly.zeta(2)
    n = 5
    lhs = q_op(n, a * b, n + 1)
    rhs = F2Poly.zero()
    for i in range(0, n + 1):
        rhs = rhs + q_op(i, a, n + 1) * q_op(n - i, b, n + 1)
    assert lhs == rhs


def test_steinberger_conjugate_report():
    records = verify_steinberger_conjugate(5)
    assert all(r["passed"] for r in records)
    assert len(records) == 4


def test_steinberger_successor_report():
    records = verify_steinberger_successor(4)
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
    # a check run alone still forms the conjugates it needs
    calls.clear()
    assert all(r["passed"] for r in verify_steinberger_successor(3))
    assert calls == [4]


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
