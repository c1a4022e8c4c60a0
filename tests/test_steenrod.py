import pytest

from dlash.f2 import F2Poly, factors
from dlash.laurent import series_mul
from dlash.steenrod import (
    WindowTooSmallError,
    conjugate_zeta,
    q_op,
    q_total_on_zeta,
    verify_bisson_joyal_identity1,
    verify_nishida_conjugate_form,
    verify_steinberger_conjugate,
    verify_steinberger_successor,
    zeta_inverse,
    zeta_series,
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
    rep = verify_steinberger_conjugate(5)
    assert rep["passed"]
    assert len(rep["checks"]) == 4


def test_steinberger_successor_report():
    rep = verify_steinberger_successor(4)
    assert rep["passed"]


def test_bisson_joyal_report():
    rep = verify_bisson_joyal_identity1(12)
    assert rep["passed"]


def test_nishida_report():
    rep = verify_nishida_conjugate_form(10)
    assert rep["passed"]


def test_conjugate_window_too_small():
    with pytest.raises(WindowTooSmallError):
        conjugate_zeta(4, max_total=3)
