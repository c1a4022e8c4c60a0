"""Acceptance criteria, one test per criterion.

Each test emits a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces the stated runtime budget.
"""

import time

import pytest

from dlash import verify


def _run(check, budget_seconds, *args):
    start = time.monotonic()
    report = check(*args)
    elapsed = time.monotonic() - start
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{status}: {report['name']} ({elapsed:.1f}s) — {report['detail']}")
    assert report["passed"], report["detail"]
    assert elapsed < budget_seconds, (
        f"{report['name']} took {elapsed:.1f}s (budget {budget_seconds}s)"
    )


def test_acceptance_1_adem_soundness():
    """Symmetry-extracted relations reduce to 0 for degrees 0..3, i+j <= 20."""
    _run(verify.check_adem_soundness, 30)


def test_acceptance_2_adem_completeness():
    """F2 elimination on extracted relations recovers every Adem relation,
    i+j <= 16, degrees 1 and 2."""
    _run(verify.check_adem_completeness, 60)


def test_acceptance_3_residue_replay():
    """res_s t^{l+j+1} s^{i-2l-1} (t+s)^{l-j-1} = C(l-j-1, 2l-i) t^i."""
    _run(verify.check_residue_replay, 5)


def test_acceptance_4_bisson_joyal_identity():
    """Identity (1) on the full guaranteed window at bound 16, plus its
    augmentation collapse to s + s^2 t^-1."""
    _run(verify.check_bisson_joyal, 10, 16)


def test_acceptance_5_nishida_conjugate_form():
    """The conjugate substitution t -> zbar(t) matches identity (1) at 16."""
    _run(verify.check_nishida, 10, 16)


def test_acceptance_6_steinberger():
    """Q^{2^i-2} z1 = zbar_i (coaction and residue forms, i <= 5) and the
    successor formulas up to i = 4."""
    _run(verify.check_steinberger, 30)


def test_acceptance_7_binomial_oracle():
    """binom_mod2 vs big-integer parity (n <= 64) and vs series-inverse
    coefficients for negative tops."""
    _run(verify.check_binomial_oracle, 1)


def test_acceptance_8_series_kernel():
    """500 randomized inverse/reversion round-trips and window soundness."""
    _run(verify.check_series_kernel, 10)


def test_acceptance_9_property_laws():
    """Instability, squaring Q^{deg m} m = m^2, Cartan on random products."""
    _run(verify.check_property_laws, 30)
