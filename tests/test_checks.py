"""Each shared invariant check can fail.

`radspec verify` and the acceptance criteria both rest on these functions,
so a check that always passed would hide a defect in both places. Every
measured check must fail once its tolerance drops below the measured value,
and every structural breach must measure as inf.
"""

import math
from dataclasses import replace

import pytest

from radspec import checks
from radspec.spectrum import HftCheck


def _fails_below_its_value(check, *args):
    measured = check(*args, tol=1.0)
    assert measured.passed and 0 < measured.value < 1.0
    tighter = check(*args, tol=measured.value / 2)
    assert not tighter.passed and tighter.value == measured.value


def test_check_passes_iff_value_within_tol():
    assert checks.Check("x", 1.0, 1.0, "").passed
    assert not checks.Check("x", 1.0 + 1e-12, 1.0, "").passed
    assert not checks.Check("x", math.nan, 1.0, "").passed
    assert not checks.Check("x", math.inf, 1e300, "").passed
    assert not checks.Check("x", math.inf, math.inf, "").passed     # a breach, under any tol


def test_parabola_fails_below_its_value():
    _fails_below_its_value(checks.parabola, 1, 8)


def test_residual_fails_below_its_value():
    _fails_below_its_value(checks.residual, 0, [(4, 5)])


@pytest.mark.parametrize("check, tol", [(checks.parity, 1e-12), (checks.parabola, 1e-10)],
                         ids=["parity", "parabola"])
def test_order_checks_reject_empty_scope(check, tol):
    # a check over no order proves nothing, so it must not pass or fail quietly
    with pytest.raises(ValueError, match="n_max"):
        check(0, -1, tol)


def test_residual_rejects_empty_targets():
    with pytest.raises(ValueError, match="at least one"):
        checks.residual(0, [], tol=1.0)


def test_hft_fails_below_its_value():
    _fails_below_its_value(checks.hft, 1, 2.5, 0)


def test_match_fails_below_its_value():
    _fails_below_its_value(checks.match, 0, 3, 3)


def _edit_roots(monkeypatch, n_bad, edit):
    real = checks.root_isolation

    def patched(n, l):
        roots = real(n, l)
        return edit(roots) if n == n_bad else roots

    monkeypatch.setattr(checks, "root_isolation", patched)


def test_parity_asymmetric_roots_measure_inf(monkeypatch):
    _edit_roots(monkeypatch, 3, lambda roots: roots[:-1] + (-roots[-1] / 2,))
    res = checks.parity(0, 6, 1e-12)
    assert res.value == math.inf and not res.passed
    assert "n=3" in res.detail


def test_parity_missing_zero_root_measures_inf(monkeypatch):
    _edit_roots(monkeypatch, 2, lambda roots: tuple(r for r in roots if r != 0.0))
    res = checks.parity(0, 6, 1e-12)
    assert res.value == math.inf and not res.passed
    assert "n=2" in res.detail


def test_parity_measures_a_small_asymmetry(monkeypatch):
    _edit_roots(monkeypatch, 3, lambda roots: roots[:-1] + (roots[-1] * (1 + 1e-9),))
    res = checks.parity(0, 6, 1e-12)
    assert 1e-12 < res.value < 1e-8 and not res.passed


def test_hft_nonpositive_slope_measures_inf(monkeypatch):
    monkeypatch.setattr(checks, "hft_check", lambda problem, j: HftCheck(
        dW_dnu=-0.5, r_expectation=0.5, discrepancy=1.0))
    res = checks.hft(0, 0.0, 0, 1e300)
    assert res.value == math.inf and not res.passed


def test_match_point_off_its_branch_measures_inf(monkeypatch):
    real = checks.truncation_point_set
    monkeypatch.setattr(checks, "truncation_point_set", lambda n_max, i_max, l: [
        replace(pt, i=pt.i + 1) if pt.n == 2 and pt.i == 1 else pt
        for pt in real(n_max, i_max, l)])
    res = checks.match(0, 3, 3, 1e300)
    assert res.value == math.inf and not res.passed
    assert "1 points off branch i-1" in res.detail and "n=2, i=2" in res.detail

