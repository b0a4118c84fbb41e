import csv
import math
from pathlib import Path

import pytest

from radspec.analysis import (
    PUBLISHED_CUBICS,
    DegenerateFit,
    InvalidAlpha,
    InvalidMass,
    PhysicalParams,
    branch_fit_points,
    compare_fit_to_published,
    continuity_demonstration,
    fit_cubic,
    map_physical_to_nu,
    map_W_to_E,
    match_truncation_to_curves,
    truncation_point_set,
)

ROOT_83 = math.sqrt(8.0 / 3.0)


# --- point set ---------------------------------------------------------------

def test_point_set_low_order():
    pts = truncation_point_set(1, 3, 0)
    assert [(p.n, p.i) for p in pts] == [(0, 1), (1, 1), (1, 2)]
    assert [p.nu_root for p in pts] == pytest.approx([0.0, ROOT_83, -ROOT_83],
                                                     rel=1e-12)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_point_set_matches_reference_table(l):
    """Every solution with n <= 22 reproduces the committed table by repr."""
    table = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "truncation.csv"
    with table.open(newline="") as fh:
        expected = [[row["n"], row["i"], row["nu"], row["W"]]
                    for row in csv.DictReader(fh) if int(row["s"]) == l]
    got = [[str(p.n), str(p.i), repr(p.nu_root), repr(p.W)]
           for p in truncation_point_set(22, 23, l)]
    assert got == expected


def test_point_set_figure_inventory():
    pts = truncation_point_set(22, 3, 0)
    assert len(pts) == 66
    nonneg = [p for p in pts if p.nu_root >= 0]
    assert len(nonneg) == 63


def test_point_set_single_high_l():
    pts = truncation_point_set(0, 1, 5)
    assert len(pts) == 1
    assert pts[0].nu_root == 0.0
    assert pts[0].W == 12.0


def test_point_set_rejects_bad_scope():
    with pytest.raises(ValueError):
        truncation_point_set(-1, 3, 0)
    with pytest.raises(ValueError):
        truncation_point_set(5, 0, 0)


def test_vertical_line_hits_one_point_per_branch():
    """Within each branch group i, abscissae are well separated.

    At nu=0 three points from different n share one abscissa, but they sit
    on different branches, so a vertical line still meets each curve in at
    most one truncation point.
    """
    pts = truncation_point_set(22, 3, 0)
    for i in (1, 2, 3):
        nus = sorted(p.nu_root for p in pts if p.i == i)
        gaps = [b - a for a, b in zip(nus, nus[1:])]
        assert min(gaps) > 1e-6


# --- matching ----------------------------------------------------------------

def test_match_low_orders_identifies_branches():
    report = match_truncation_to_curves(truncation_point_set(3, 3, 0))
    for res in report.results:
        assert res.matched_branch == res.i - 1
        assert res.distance <= 1e-6


def test_match_first_excited_point():
    pts = truncation_point_set(1, 1, 0)
    report = match_truncation_to_curves(pts)
    ground = report.results[-1]
    assert ground.n == 1 and ground.matched_branch == 0
    assert ground.W_truncation == pytest.approx(10.0 / 3.0, rel=1e-12)


def test_match_parabola_point_lands_on_third_branch():
    pt = [p for p in truncation_point_set(10, 3, 0) if p.n == 10 and p.i == 3]
    report = match_truncation_to_curves(pt)
    assert report.results[0].matched_branch == 2
    for res in report.results:
        assert res.matched_branch == res.i - 1
        assert res.distance <= 1e-6


# --- fits --------------------------------------------------------------------

def test_branch_fit_points_shape():
    pts = branch_fit_points(0, 0)
    assert len(pts) == 23
    assert pts[0] == (0.0, 2.0)
    assert all(a[0] < b[0] for a, b in zip(pts, pts[1:]))
    assert all(nu >= 0 for nu, _ in pts)


@pytest.mark.parametrize("j,b_atol", [(0, 0.02), (1, 0.02), (2, 0.02)])
def test_fit_coefficients_near_published(j, b_atol):
    model = fit_cubic(branch_fit_points(0, j), float(2 * (2 * j + 1)),
                      branch=j, l=0)
    pub = PUBLISHED_CUBICS[j]
    assert model.intercept == pub[0]
    assert model.coefficients[0] == pytest.approx(pub[1], abs=b_atol)
    assert model.coefficients[1] == pytest.approx(pub[2], abs=0.01)
    assert model.coefficients[2] == pytest.approx(pub[3], abs=0.001)


def test_fit_degenerate_too_few_points():
    with pytest.raises(DegenerateFit):
        fit_cubic([(0.0, 2.0), (1.0, 2.8)], 2.0, branch=0, l=0)


def test_fit_degenerate_collinear_abscissae():
    pts = [(1.0, 2.0), (1.0, 2.1), (1.0, 2.2), (1.0, 2.3)]
    with pytest.raises(DegenerateFit):
        fit_cubic(pts, 2.0, branch=0, l=0)


@pytest.mark.parametrize("scale", [0.0, 1e-9])
def test_fit_degenerate_vanishing_abscissae(scale):
    # zero nu span nothing; distinct nu near 1e-9 leave nu^3 below round-off: rank 2
    pts = [(scale * k, 2.0 + k) for k in range(1, 6)]
    with pytest.raises(DegenerateFit):
        fit_cubic(pts, 2.0, branch=0, l=0)


def test_fit_explains_own_points_better_than_foreign_cubic():
    model = fit_cubic(branch_fit_points(0, 0), 2.0, branch=0, l=0)
    assert model.rms_residual < compare_fit_to_published(model)


def test_published_cubic_misses_exact_point():
    # the published curve is a fit: at the first root it is off by ~0.017
    c0, b1, b2, b3 = PUBLISHED_CUBICS[0]
    val = c0 + b1 * ROOT_83 + b2 * ROOT_83 ** 2 + b3 * ROOT_83 ** 3
    assert val == pytest.approx(3.3163, abs=5e-4)
    assert abs(val - 10.0 / 3.0) > 0.01


def test_compare_requires_published_branch():
    model = fit_cubic(branch_fit_points(1, 0), 4.0, branch=0, l=1)
    with pytest.raises(ValueError):
        compare_fit_to_published(model)


def test_fit_predict_matches_horner():
    model = fit_cubic(branch_fit_points(0, 0), 2.0, branch=0, l=0)
    b1, b2, b3 = model.coefficients
    nu = 1.7
    assert model.predict(nu) == pytest.approx(2.0 + b1 * nu + b2 * nu ** 2
                                              + b3 * nu ** 3, rel=1e-14)


# --- physical parameter maps -------------------------------------------------

def test_energy_map_direct_substitution():
    p = PhysicalParams(m=1.0, a=0.0, theta=2.0, varpi=0.0, l=0)
    assert p.alpha == 2.0
    assert map_W_to_E(2.0, p) == pytest.approx(1.0, rel=1e-15)


def test_energy_map_l_terms_cancel_at_zero_l():
    p = PhysicalParams(m=1.0, a=1.0, theta=3.0, varpi=0.5, l=0)
    for W in (0.0, 2.0, -7.5):
        assert map_W_to_E(W, p) == pytest.approx(p.alpha * W / 4, rel=1e-15)


def test_invalid_alpha_at_degenerate_boundary():
    with pytest.raises(InvalidAlpha):
        PhysicalParams(m=1.0, a=0.0, theta=1.0, varpi=-0.25, l=0)


def test_invalid_mass():
    with pytest.raises(InvalidMass):
        PhysicalParams(m=0.0, a=0.0, theta=2.0, varpi=0.0, l=0)


def test_coupling_map_examples():
    base = dict(theta=2.0, varpi=0.0, l=0)
    assert map_physical_to_nu(PhysicalParams(m=1.0, a=0.0, **base)) == 0.0
    assert map_physical_to_nu(PhysicalParams(m=1.0, a=1.0, **base)) == pytest.approx(2.0, rel=1e-15)
    assert map_physical_to_nu(PhysicalParams(m=1.0, a=-1.0, **base)) == pytest.approx(-2.0, rel=1e-15)


# --- continuity --------------------------------------------------------------

def test_continuity_window_without_roots():
    table = continuity_demonstration(0, 0, (0.1, 0.2), 5)
    assert len(table.rows) == 5
    assert table.coincident_count == 0
    Ws = [row.W for row in table.rows]
    assert all(a < b for a, b in zip(Ws, Ws[1:]))


def test_continuity_wide_window_flags_only_exact_root():
    table = continuity_demonstration(0, 0, (0.0, 2.0), 21)
    assert len(table.rows) == 21
    flagged = [row for row in table.rows if row.coincident]
    assert len(flagged) == 1
    assert flagged[0].nu == 0.0
    # the n=1 root 1.633 sits between samples 1.6 and 1.7, so it is not flagged
    assert all(row.nearest_root is not None for row in table.rows)


def test_continuity_rejects_bad_interval():
    with pytest.raises(ValueError):
        continuity_demonstration(0, 0, (1.0, 1.0), 5)
    with pytest.raises(ValueError):
        continuity_demonstration(0, 0, (0.0, 1.0), 1)
