import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from radspec import spectrum
from radspec.analysis import match_truncation_to_curves, truncation_point_set
from radspec.cli import main
from radspec.frobenius import ReducedProblem, polynomial_solution
from radspec.spectrum import (
    DomainTooSmall,
    MonotonicityViolation,
    NotConverged,
    SolverConfig,
    SolverError,
    curve_scan,
    expectation_r,
    hft_check,
    solve_spectrum,
)

ROOT_83 = math.sqrt(8.0 / 3.0)
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _reference(name):
    with (REFERENCE / name).open() as fh:
        return json.load(fh)


def _within_tolerance(st, cfg):
    return st.error_estimate <= cfg.convergence_tol * max(1.0, abs(st.W))


# --- config validation -------------------------------------------------------

def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        SolverConfig(r_max=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(grid_points=50)
    with pytest.raises(ValueError):
        SolverConfig(levels=0)
    with pytest.raises(ValueError):
        SolverConfig(convergence_tol=0.0)


@pytest.mark.parametrize("field, value", [
    ("r_max", math.nan), ("r_max", math.inf),
    ("convergence_tol", math.nan), ("convergence_tol", math.inf),
    ("grid_points", 150.5), ("grid_points", 200.0), ("levels", 2.5),
])
def test_config_rejects_non_finite_and_non_integer_fields(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_config_default_domain_grows_with_coupling():
    cfg = SolverConfig()
    assert cfg.domain(0.0) == 12.0
    assert cfg.domain(-8.0) == 16.0
    assert SolverConfig(r_max=30.0).domain(100.0) == 30.0


# --- oscillator limit --------------------------------------------------------

def test_oscillator_spectrum_l0():
    states = solve_spectrum(ReducedProblem(0, 0.0), SolverConfig(levels=3))
    assert [st.W for st in states] == pytest.approx([2.0, 6.0, 10.0], abs=1e-7)


@pytest.mark.parametrize("l", [-3, -2, -1, 0, 1, 2, 3])
def test_oscillator_spectrum_all_l(l):
    # exact 2-D oscillator ladder W = 2(2j + |l| + 1)
    states = solve_spectrum(ReducedProblem(l, 0.0), SolverConfig(levels=4))
    for j, st in enumerate(states):
        assert st.W == pytest.approx(2 * (2 * j + abs(l) + 1), abs=1e-7)


def test_ground_state_at_first_truncation_root():
    states = solve_spectrum(ReducedProblem(0, ROOT_83), SolverConfig(levels=1))
    assert states[0].W == pytest.approx(10.0 / 3.0, abs=1e-6)


def test_branches_strictly_ordered():
    states = solve_spectrum(ReducedProblem(1, 2.5), SolverConfig(levels=4))
    Ws = [st.W for st in states]
    assert all(a < b for a, b in zip(Ws, Ws[1:]))
    assert [st.j for st in states] == [0, 1, 2, 3]


def test_eigenfunction_normalized_under_radial_measure():
    states = solve_spectrum(ReducedProblem(0, 1.0), SolverConfig(levels=2))
    for st in states:
        integral = np.sum(st.F ** 2 * st.r) * st.step
        assert integral == pytest.approx(1.0, abs=1e-10)


def test_domain_too_small_is_rejected():
    with pytest.raises(DomainTooSmall):
        solve_spectrum(ReducedProblem(0, 0.0), SolverConfig(r_max=4.0, levels=1))


def test_unreachable_tolerance_raises():
    # Ritz shifts of 3.5e-3 at |W| ~ 940 and 2.7e-6 at |W| ~ 520: truncation
    # error of the basis, far above its round-off of about 1e-12
    for l, nu, tol in ((50, 200.0, 1e-8), (0, 1000.0, 1e-9)):
        with pytest.raises(NotConverged):
            solve_spectrum(ReducedProblem(l, nu), SolverConfig(convergence_tol=tol))


def test_ritz_values_do_not_increase_with_basis_size():
    """Leading blocks of the Galerkin matrix are the smaller bases' matrices."""
    for l, nu in ((0, 0.0), (1, 3.0), (2, -7.3)):
        _, _, A0, J, *_ = spectrum._galerkin(abs(l), spectrum._shift(nu))
        A = A0 + nu * J
        ritz = [np.linalg.eigvalsh(A[:k, :k])[:3]
                for k in range(4, spectrum.BASIS_SIZE + 1, 4)]
        for coarse, fine in zip(ritz, ritz[1:]):
            assert np.all(fine <= coarse + 1e-12 * np.maximum(1.0, np.abs(coarse)))
        if nu == 0.0:
            # p_0 alone is the exact ground state e^{-r^2/2}
            assert max(abs(w[0] - 2.0) for w in ritz) <= 1e-12


def test_error_estimate_within_tolerance_on_returned_states():
    cfg = SolverConfig(levels=4)
    for l, nu in ((0, 0.0), (1, -11.3), (2, 6.0), (0, 50.0)):
        for st in solve_spectrum(ReducedProblem(l, nu), cfg):
            assert 0.0 <= st.error_estimate and _within_tolerance(st, cfg)


# --- basis build -------------------------------------------------------------

@pytest.mark.parametrize("s, c", [(0, 0.0), (1, 0.5), (2, 6.0), (7, 0.0), (30, 10.0), (60, 30.0)])
def test_galerkin_node_values_are_the_sampling_recurrence(s, c):
    # one recurrence: the Gram check certifies the values that sampling reproduces
    alpha, beta, *_, x, F = spectrum._galerkin(s, c)
    assert np.array_equal(F, spectrum._basis_values(s, c, alpha, beta, x))


def test_galerkin_gram_defect_stays_at_round_off():
    defects = [spectrum._galerkin(s, c / 2)[4] for s in range(0, 61, 5) for c in range(0, 61, 5)]
    assert max(defects) <= 1e-13


# --- accuracy at exact values ------------------------------------------------

def test_oscillator_levels_within_round_off():
    # W = 2(2j + |l| + 1) at nu = 0; worst about 3e-12, at l = 0, j = 2
    for l in (0, 1, 2, 3, 4, 5, 10, 20, 30):
        for j, curve in enumerate(curve_scan(l, 3, [0.0])):
            exact = 2 * (2 * j + l + 1)
            assert abs(curve.W[0] - exact) <= 1e-11 * exact, (l, j)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_truncation_points_within_round_off_of_their_branch(l):
    # each truncation energy is an exact eigenvalue; worst about 1.6e-12
    for res in match_truncation_to_curves(truncation_point_set(22, 3, l)).results:
        assert res.matched_branch == res.i - 1
        assert res.distance <= 1e-11 * max(1.0, abs(res.W_truncation)), (res.n, res.i)


# --- benchmark references (read only) ----------------------------------------

@pytest.mark.parametrize("s", [0, 1, 2])
def test_scan_lattice_matches_reference(s):
    """Every nu = k/20, |k| <= 242, of the committed curve_scan table to 1e-7."""
    table = _reference("scan.json")["W"][str(s)]
    keys = sorted(int(k) for k in table)
    curves = curve_scan(s, 3, [k / 20 for k in keys], keep_eigenfunctions=True)
    got = np.array([c.W for c in curves]).T
    want = np.array([table[str(k)] for k in keys])
    assert np.max(np.abs(got - want)) <= 1e-7
    cfg = SolverConfig()
    assert all(_within_tolerance(st, cfg) for c in curves for st in c.states)


@pytest.mark.parametrize("probe", _reference("envelope.json")["probes"],
                         ids=lambda p: f"s{p['s']}-nu{p['nu']:g}")
def test_envelope_probe_matches_reference(probe):
    problem = ReducedProblem(probe["s"], probe["nu"])
    try:
        Ws = [st.W for st in solve_spectrum(problem)]
    except DomainTooSmall:
        # the default r_max = 12 cuts the tail of the s = 60 ground state
        assert probe["s"] == 60
        Ws = [st.W for st in solve_spectrum(problem, SolverConfig(r_max=20.0))]
    assert np.max(np.abs(np.array(Ws) - probe["W"])) <= probe["tol"]


@pytest.mark.parametrize("nu", [-1000.0, -200.0, 200.0, 1000.0])
def test_far_couplings_solve_within_tolerance_or_raise(nu):
    cfg = SolverConfig()
    try:
        states = solve_spectrum(ReducedProblem(0, nu), cfg)
    except SolverError:
        return
    assert all(_within_tolerance(st, cfg) for st in states)


# --- expectation value -------------------------------------------------------

def test_expectation_gaussian_ground_state():
    st = solve_spectrum(ReducedProblem(0, 0.0), SolverConfig(levels=1))[0]
    assert expectation_r(st) == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-6)


def test_expectation_first_excited_against_quadrature_oracle():
    # closed-form state F ~ (1 - r^2) e^{-r^2/2}; the oracle uses Gauss rules
    # exact for both integrands: Laguerre in t = r^2 for the norm, and
    # Hermite over the whole line for the even numerator, halved
    t, wt = np.polynomial.laguerre.laggauss(2)
    norm = 0.5 * np.sum(wt * (1 - t) ** 2)
    x, wx = np.polynomial.hermite.hermgauss(4)
    num = 0.5 * np.sum(wx * x * x * (1 - x * x) ** 2)
    oracle = num / norm
    assert oracle == pytest.approx(7 * math.sqrt(math.pi) / 8, rel=1e-12)
    st = solve_spectrum(ReducedProblem(0, 0.0), SolverConfig(levels=2))[1]
    assert expectation_r(st) == pytest.approx(oracle, abs=1e-6)


def test_expectation_positive_everywhere():
    for l, nu in ((0, 0.0), (2, 3.0), (1, -1.5)):
        for st in solve_spectrum(ReducedProblem(l, nu), SolverConfig(levels=3)):
            assert expectation_r(st) > 0


# --- Hellmann-Feynman --------------------------------------------------------

def test_hft_gaussian_ground_state():
    res = hft_check(ReducedProblem(0, 0.0), 0)
    assert res.dW_dnu == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-4)
    assert res.r_expectation == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-6)
    assert res.discrepancy <= 1e-4


def test_hft_slope_positive_at_strong_coupling():
    res = hft_check(ReducedProblem(0, 5.0), 0)
    assert res.dW_dnu > 0


def test_hft_excited_branch_self_consistent():
    res = hft_check(ReducedProblem(2, 1.0), 1)
    cfg = SolverConfig()
    assert res.discrepancy <= max(1e-4, 10 * cfg.convergence_tol / 1e-4)


def test_hft_rejects_bad_delta():
    with pytest.raises(ValueError):
        hft_check(ReducedProblem(0, 0.0), 0, delta=0.0)


def test_hft_rejects_negative_branch():
    # W[j] would index from the end: j = -1 would silently check the last level
    with pytest.raises(ValueError, match="j=-1"):
        hft_check(ReducedProblem(0, 0.0), -1)


# --- curve scan --------------------------------------------------------------

def test_curve_scan_intercepts():
    curves = curve_scan(0, 3, [0.0])
    assert [c.samples[0][1] for c in curves] == pytest.approx([2.0, 6.0, 10.0],
                                                              abs=1e-7)


def test_curve_scan_monotone_in_nu():
    curve = curve_scan(0, 1, [0.0, 1.0, 2.0])[0]
    Ws = [W for _, W in curve.samples]
    assert Ws[0] < Ws[1] < Ws[2]


def test_curve_scan_l_sign_symmetric():
    grid = [0.0, 0.7, 1.9]
    plus = curve_scan(1, 2, grid)
    minus = curve_scan(-1, 2, grid)
    for cp, cm in zip(plus, minus):
        assert [W for _, W in cp.samples] == pytest.approx(
            [W for _, W in cm.samples], rel=1e-12)


def test_curve_scan_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        curve_scan(0, 1, [1.0, 0.5])
    with pytest.raises(ValueError):
        curve_scan(0, 0, [0.0, 1.0])


def test_curve_scan_keeps_eigenfunctions_on_request():
    grid = [0.0, 0.5]
    bare = curve_scan(0, 1, grid)[0]
    rich = curve_scan(0, 1, grid, keep_eigenfunctions=True)[0]
    assert bare.states is None
    assert rich.states is not None and len(rich.states) == 2


def test_monotonicity_guard_is_exercised_by_valid_scan():
    # a correct solver never trips it; the guard exists for solver faults
    try:
        curve_scan(2, 2, list(np.linspace(0.0, 4.0, 5)))
    except MonotonicityViolation as exc:  # pragma: no cover
        pytest.fail(f"spurious monotonicity violation: {exc}")


# --- eigenvalue stage without sampling ---------------------------------------

@pytest.mark.parametrize("l", [0, 1, -1, 2])
def test_curve_scan_eigenvalues_equal_solve_spectrum(l):
    # the grid crosses the shift jumps at every negative integer nu
    grid = [float(v) for v in np.linspace(-12.1, 12.1, 23)]
    solved = [solve_spectrum(ReducedProblem(l, nu)) for nu in grid]
    for keep in (False, True):
        curves = curve_scan(l, 3, grid, keep_eigenfunctions=keep)
        for j, curve in enumerate(curves):
            assert curve.W == tuple(sts[j].W for sts in solved)
            assert all(type(w) is float for w in curve.W)


def test_match_distances_equal_solve_spectrum():
    points = [polynomial_solution(n, i, l) for n, i, l in ((3, 1, 0), (4, 2, 1), (6, 3, 2))]
    report = match_truncation_to_curves(points)
    for pt, res in zip(points, report.results):
        states = solve_spectrum(ReducedProblem(pt.l, pt.nu_root), SolverConfig(levels=pt.i + 1))
        dists = [abs(st.W - pt.W) for st in states]
        assert res.matched_branch == int(np.argmin(dists))
        assert res.distance == dists[res.matched_branch]


@pytest.mark.parametrize("l, nu, config, error", [
    (40, 0.0, SolverConfig(), DomainTooSmall),
    (5, 1000.0, SolverConfig(), NotConverged),
    (0, 0.0, SolverConfig(r_max=6.5), DomainTooSmall),
])
def test_eigenvalue_stage_raises_as_solve_spectrum(l, nu, config, error):
    with pytest.raises(error):
        solve_spectrum(ReducedProblem(l, nu), config)
    with pytest.raises(error):
        curve_scan(l, config.levels, [nu], config)
    with pytest.raises(error):
        spectrum._eigensolve(ReducedProblem(l, nu), config)


def test_grid_that_misses_every_state_raises_instead_of_nan():
    # first cell centre r = 50: exp(-r^2/2) underflows in every cell, while W is exact
    problem, config = ReducedProblem(0, 0.0), SolverConfig(r_max=1e4, grid_points=100)
    assert spectrum._eigensolve(problem, config)[0][0] == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(SolverError, match="misses a state"):
        solve_spectrum(problem, config)
    with pytest.raises(SolverError, match="misses a state"):
        hft_check(problem, 0, config=config)


def test_eigenvalue_only_callers_never_sample_the_full_grid(monkeypatch):
    # curve_scan without eigenfunctions, match_truncation_to_curves, `radspec energy`
    sizes = []
    basis_values = spectrum._basis_values

    def recording(s, c, alpha, beta, r):
        sizes.append(np.size(r))
        return basis_values(s, c, alpha, beta, r)

    monkeypatch.setattr(spectrum, "_basis_values", recording)
    n = SolverConfig().grid_points
    curve_scan(1, 3, [-3.5, 0.0, 2.0])
    match_truncation_to_curves([polynomial_solution(4, i, 0) for i in (1, 3)])
    sweep = ["energy", "--theta-min", "1", "--theta-max", "2", "--theta-steps", "3"]
    assert CliRunner().invoke(main, sweep).exit_code == 0
    # one radius per eigensolve; QUAD_NODES only where a _galerkin basis is built
    assert 1 in sizes and set(sizes) <= {1, spectrum.QUAD_NODES}
    solve_spectrum(ReducedProblem(1, 2.0))     # the recorder sees a sampling solve
    assert sizes[-1] == n


def _cell_subset_tail_fails(problem, config):
    """The tail check on cells 1, 1 + n // 250, ..., n of the sampling grid,
    which the quadrature-node peak replaced: True where it raised."""
    c = spectrum._shift(problem.nu)
    alpha, beta, A0, J, *_ = spectrum._galerkin(abs(problem.l), c)
    V = np.linalg.eigh(A0 + problem.nu * J)[1]
    r_max, n = config.domain(problem.nu), config.grid_points
    r = (np.r_[1:n:max(1, n // 250), n] - 0.5) * (r_max / n)
    ground = np.abs(V[:, 0] @ spectrum._basis_values(abs(problem.l), c, alpha, beta, r))
    return not ground[-1] < spectrum.TAIL_RATIO * ground.max()


def test_tail_check_decides_as_the_cell_subset_rule():
    decisions = []
    for l in (0, 2, 40):
        for nu in (-5.0, 0.0, 3.0):
            for r_max in (None, *np.linspace(4.0, 9.0, 11)):
                for grid_points in (100, 5000):
                    problem = ReducedProblem(l, nu)
                    config = SolverConfig(r_max=r_max, grid_points=grid_points)
                    try:
                        spectrum._eigensolve(problem, config)
                        raised = False
                    except DomainTooSmall:
                        raised = True
                    assert raised == _cell_subset_tail_fails(problem, config), (l, nu, r_max)
                    decisions.append(raised)
    assert 0 < sum(decisions) < len(decisions)     # the panel has both outcomes
