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
    SolverError,
    curve_scan,
    eigenvalues,
    expectation_r,
    hft_check,
    solve_spectrum,
)

ROOT_83 = math.sqrt(8.0 / 3.0)
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _reference(name):
    with (REFERENCE / name).open() as fh:
        return json.load(fh)


def _within_tolerance(st):
    return st.error_estimate <= spectrum.CONVERGENCE_TOL * max(1.0, abs(st.W))


def _counting_builds(monkeypatch):
    """Empty the basis cache and record the keys of every stack built from now on."""
    stacks, build = [], spectrum._build

    def counting(keys):
        stacks.append(list(keys))
        return build(keys)

    monkeypatch.setattr(spectrum, "_bases", type(spectrum._bases)())
    monkeypatch.setattr(spectrum, "_build", counting)
    return stacks


def _recording_eigvalsh(monkeypatch):
    """Record the matrix order of every eigvalsh call from now on."""
    orders, eigvalsh = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        orders.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return orders


def _sample_on(monkeypatch, r_max, n=spectrum.QUAD_NODES, r_min=0.0):
    """Make solve_spectrum sample on the n-node Gauss-Legendre rule over [r_min, r_max]."""
    t, wt = np.polynomial.legendre.leggauss(n)
    monkeypatch.setattr(spectrum, "_rule", lambda s, c: (
        r_min + (t + 1) * (r_max - r_min) / 2, wt * (r_max - r_min) / 2))


# --- levels ------------------------------------------------------------------

def test_levels_must_be_a_positive_integer():
    problem = ReducedProblem(0, 0.0)
    for levels in (0, -1, 2.5, 2.0, "3"):
        with pytest.raises(ValueError, match="levels="):
            solve_spectrum(problem, levels)
        with pytest.raises(ValueError, match="levels="):
            eigenvalues([problem], [levels])
        with pytest.raises(ValueError, match="levels="):
            curve_scan(0, levels, [0.0])
    with pytest.raises(ValueError, match="2 level counts for 1 problems"):
        eigenvalues([problem], [1, 2])
    assert [st.j for st in solve_spectrum(problem, 1)] == [0]


def test_bad_levels_are_rejected_before_any_build(monkeypatch):
    stacks = _counting_builds(monkeypatch)
    with pytest.raises(ValueError, match="levels=0"):
        curve_scan(0, 0, np.linspace(-40.0, 0.0, 81))
    with pytest.raises(ValueError, match="levels=0"):
        eigenvalues([ReducedProblem(0, 0.0)], [0])
    assert stacks == []


# --- oscillator limit --------------------------------------------------------

def test_oscillator_spectrum_l0():
    states = solve_spectrum(ReducedProblem(0, 0.0), 3)
    assert [st.W for st in states] == pytest.approx([2.0, 6.0, 10.0], abs=1e-7)


@pytest.mark.parametrize("l", [-3, -2, -1, 0, 1, 2, 3])
def test_oscillator_spectrum_all_l(l):
    # exact 2-D oscillator ladder W = 2(2j + |l| + 1)
    states = solve_spectrum(ReducedProblem(l, 0.0), 4)
    for j, st in enumerate(states):
        assert st.W == pytest.approx(2 * (2 * j + abs(l) + 1), abs=1e-7)


def test_ground_state_at_first_truncation_root():
    states = solve_spectrum(ReducedProblem(0, ROOT_83), 1)
    assert states[0].W == pytest.approx(10.0 / 3.0, abs=1e-6)


def test_branches_strictly_ordered():
    states = solve_spectrum(ReducedProblem(1, 2.5), 4)
    Ws = [st.W for st in states]
    assert all(a < b for a, b in zip(Ws, Ws[1:]))
    assert [st.j for st in states] == [0, 1, 2, 3]


def test_eigenfunction_normalized_under_radial_measure():
    states = solve_spectrum(ReducedProblem(0, 1.0), 2)
    for st in states:
        integral = st.F ** 2 @ (st.w * st.r)
        assert integral == pytest.approx(1.0, abs=1e-10)


def test_domain_too_small_is_rejected(monkeypatch):
    _sample_on(monkeypatch, r_max=4.0)
    with pytest.raises(DomainTooSmall):
        solve_spectrum(ReducedProblem(0, 0.0), 1)


def test_unreachable_tolerance_raises(monkeypatch):
    # Ritz shifts of 3.5e-3 at |W| ~ 940 and 2.7e-6 at |W| ~ 520: truncation
    # error of the basis, far above its round-off of about 1e-12
    for l, nu, tol in ((50, 200.0, 1e-8), (0, 1000.0, 1e-9)):
        monkeypatch.setattr(spectrum, "CONVERGENCE_TOL", tol)
        with pytest.raises(NotConverged):
            solve_spectrum(ReducedProblem(l, nu))


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


# --- basis size --------------------------------------------------------------

def test_oscillator_levels_solve_on_the_small_rung():
    for l in (-2, -1, 0, 1, 2):
        for st in solve_spectrum(ReducedProblem(l, 0.0), 3):
            assert st.basis_size == spectrum.RUNGS[0] == 32
            assert abs(st.W - 2 * (2 * st.j + abs(l) + 1)) <= 1e-12, (l, st.j)


def test_failed_small_rung_falls_back_to_the_whole_basis():
    # at (10, 50) the 32-block's Ritz shifts for three levels reach the tolerance
    states = solve_spectrum(ReducedProblem(10, 50.0), 3)
    _, _, A0, J, _ = spectrum._galerkin(10, spectrum._shift(50.0))
    assert [st.basis_size for st in states] == [spectrum.BASIS_SIZE] * 3
    assert [st.W for st in states] == np.linalg.eigvalsh(A0 + 50.0 * J)[:3].tolist()


def test_more_levels_than_the_small_check_block_skip_its_rung(monkeypatch):
    orders = _recording_eigvalsh(monkeypatch)
    eigenvalues([ReducedProblem(0, 0.0)], [25])
    assert orders == [60, 52]
    orders.clear()
    eigenvalues([ReducedProblem(0, 0.0)], [24])     # tried on 32, where level 24 fails
    assert orders == [32, 24, 60, 52]


@pytest.mark.parametrize("l, nu, orders", [
    (1, 1.3, [32, 24] * 3),
    (10, 50.0, [32, 24] + [60, 52] * 3),     # the middle solve falls back, nu +- delta start there
])
def test_hft_check_holds_its_three_solves_to_one_block(monkeypatch, l, nu, orders):
    recorded = _recording_eigvalsh(monkeypatch)
    hft_check(ReducedProblem(l, nu), 2)
    assert recorded == orders


def test_eigenvalues_equal_solve_spectrum_on_both_rungs():
    cases = [(1, 1.3, 3), (10, 50.0, 3), (0, -200.0, 3), (0, -200.0, 25), (35, 50.0, 3), (40, 0.0, 3)]
    problems = [ReducedProblem(l, nu) for l, nu, _ in cases]
    solved = [solve_spectrum(p, k) for p, (*_, k) in zip(problems, cases)]
    assert {st.basis_size for sts in solved for st in sts} == set(spectrum.RUNGS)
    assert eigenvalues(problems, [k for *_, k in cases]) == [[st.W for st in sts] for sts in solved]


def test_error_estimate_within_tolerance_on_returned_states():
    for l, nu in ((0, 0.0), (1, -11.3), (2, 6.0), (0, 50.0)):
        for st in solve_spectrum(ReducedProblem(l, nu), 4):
            assert 0.0 <= st.error_estimate and _within_tolerance(st)


# --- basis build -------------------------------------------------------------

@pytest.mark.parametrize("s, c", [(0, 0.0), (1, 0.5), (2, 6.0), (7, 0.0), (30, 10.0), (60, 30.0)])
def test_galerkin_node_values_are_the_sampling_recurrence(s, c):
    # one recurrence: the Gram check certifies the values that sampling reproduces, so
    # sampling the cached recurrence on the build's nodes gives its defect bit for bit
    alpha, beta, *_, defect = spectrum._galerkin(s, c)
    x, wq = spectrum._mapped(*spectrum._window(s, c))
    F = spectrum._basis_values(s, c, alpha, beta, x)
    gram = (F * (wq * x)) @ F.T
    assert np.max(np.abs(gram - np.eye(spectrum.BASIS_SIZE))) == defect


@pytest.mark.parametrize("s", [0, 1, 5, 40])
def test_stacked_basis_build_is_the_build_alone(s):
    # the window's lower end leaves 0 at c = 13; a row must not see its neighbours
    shifts = [0.0, 0.5, 6.0, 12.5, 13.0, 13.5, 20.0, 30.0]
    stack = spectrum._build([(s, c) for c in shifts] + [(s + 1, 13.0)])
    for c, built in zip(shifts, stack):
        alone = spectrum._build([(s, c)])[0]
        for a, b in zip(built, alone):
            assert np.array_equal(a, b), (s, c)


def test_scan_past_the_cache_builds_each_basis_once(monkeypatch):
    # 201 shifts, more than the cache holds: each stack is solved before the next
    stacks = _counting_builds(monkeypatch)
    grid = np.linspace(-200.0, 0.0, 401)
    curve_scan(1, 2, grid)
    built = [key for keys in stacks for key in keys]
    assert sorted(built) == sorted({(1, spectrum._shift(nu)) for nu in grid})
    assert len(built) == 201 > spectrum.CACHE_SIZE
    assert max(map(len, stacks)) == spectrum.STACK_SIZE


def test_cached_bases_own_their_arrays(monkeypatch):
    # a view would keep its whole stack alive after the other bases of it are evicted
    monkeypatch.setattr(spectrum, "_bases", type(spectrum._bases)())
    eigenvalues([ReducedProblem(0, -float(k)) for k in range(32)], [3] * 32)
    assert len(spectrum._bases) == spectrum.STACK_SIZE
    for alpha, beta, A0, J, _ in spectrum._bases.values():
        assert all(arr.base is None for arr in (alpha, beta, A0, J))


def test_stored_rule_is_gauss_legendre():
    t, w = spectrum._gauss_legendre()
    ref_t, ref_w = np.polynomial.legendre.leggauss(spectrum.QUAD_NODES)
    assert np.all(np.abs(t - ref_t) <= np.spacing(np.abs(ref_t)))
    assert np.all(np.abs(w - ref_w) <= np.spacing(ref_w))
    # exact through degree 479; what is left is rounding, up to 6.9e-14 relative at k = 20
    for k in range(21):
        exact = 2 / (2 * k + 1)
        assert abs(w @ t ** (2 * k) - exact) <= 1e-13 * exact, k


def test_galerkin_gram_defect_stays_at_round_off():
    defects = [spectrum._galerkin(s, c / 2)[4] for s in range(0, 61, 5) for c in range(0, 61, 5)]
    assert max(defects) <= 1e-13


# --- accuracy at exact values ------------------------------------------------

def test_oscillator_levels_within_round_off():
    # W = 2(2j + |l| + 1) at nu = 0; worst about 6.4e-13, at l = 0, j = 2
    for l in (0, 1, 2, 3, 4, 5, 10, 20, 30):
        for j, curve in enumerate(curve_scan(l, 3, [0.0])):
            exact = 2 * (2 * j + l + 1)
            assert abs(curve.W[0] - exact) <= 1e-11 * exact, (l, j)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_truncation_points_within_round_off_of_their_branch(l):
    # each truncation energy is an exact eigenvalue; worst about 1.1e-13
    for res in match_truncation_to_curves(truncation_point_set(22, 3, l)).results:
        assert res.matched_branch == res.i - 1
        assert res.distance <= 1e-11 * max(1.0, abs(res.W_truncation)), (res.n, res.i)


# --- benchmark references (read only) ----------------------------------------

@pytest.mark.parametrize("s", [0, 1, 2])
def test_scan_lattice_matches_reference(s):
    """Every nu = k/20, |k| <= 242, of the committed curve_scan table to 1e-7."""
    table = _reference("scan.json")["W"][str(s)]
    keys = sorted(int(k) for k in table)
    # the scan raises NotConverged unless every Ritz shift is within tolerance
    curves = curve_scan(s, 3, [k / 20 for k in keys])
    got = np.array([c.W for c in curves]).T
    want = np.array([table[str(k)] for k in keys])
    assert np.max(np.abs(got - want)) <= 1e-7


@pytest.mark.parametrize("probe", _reference("envelope.json")["probes"],
                         ids=lambda p: f"s{p['s']}-nu{p['nu']:g}")
def test_envelope_probe_matches_reference(probe):
    Ws = [st.W for st in solve_spectrum(ReducedProblem(probe["s"], probe["nu"]))]
    assert np.max(np.abs(np.array(Ws) - probe["W"])) <= probe["tol"]


@pytest.mark.parametrize("nu", [-1000.0, -200.0, 200.0, 1000.0])
def test_far_couplings_solve_within_tolerance_or_raise(nu):
    try:
        states = solve_spectrum(ReducedProblem(0, nu))
    except SolverError:
        return
    assert all(_within_tolerance(st) for st in states)


# --- expectation value -------------------------------------------------------

def test_expectation_gaussian_ground_state():
    st = solve_spectrum(ReducedProblem(0, 0.0), 1)[0]
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
    st = solve_spectrum(ReducedProblem(0, 0.0), 2)[1]
    assert expectation_r(st) == pytest.approx(oracle, abs=1e-6)


def test_expectation_positive_everywhere():
    for l, nu in ((0, 0.0), (2, 3.0), (1, -1.5)):
        for st in solve_spectrum(ReducedProblem(l, nu), 3):
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
    assert res.discrepancy <= max(1e-4, 10 * spectrum.CONVERGENCE_TOL / 1e-4)


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
    for j, curve in enumerate(curve_scan(l, 3, grid)):
        assert curve.W == tuple(sts[j].W for sts in solved)
        assert all(type(w) is float for w in curve.W)


def test_match_distances_equal_solve_spectrum():
    points = [polynomial_solution(n, i, l) for n, i, l in ((3, 1, 0), (4, 2, 1), (6, 3, 2))]
    report = match_truncation_to_curves(points)
    for pt, res in zip(points, report.results):
        states = solve_spectrum(ReducedProblem(pt.l, pt.nu_root), pt.i + 1)
        dists = [abs(st.W - pt.W) for st in states]
        assert res.matched_branch == int(np.argmin(dists))
        assert res.distance == dists[res.matched_branch]


@pytest.mark.parametrize("l, nu, r_max, error", [
    (5, 1000.0, None, NotConverged),
    (0, 0.0, 6.5, DomainTooSmall),
])
def test_eigenvalue_stage_raises_as_solve_spectrum(monkeypatch, l, nu, r_max, error):
    if r_max is not None:
        _sample_on(monkeypatch, r_max)
    with pytest.raises(error):
        solve_spectrum(ReducedProblem(l, nu))
    if error is DomainTooSmall:
        # the tail check reads the sampled ground state, so only sampling raises it
        curve_scan(l, 3, [nu])
        eigenvalues([ReducedProblem(l, nu)], [3])
        return
    with pytest.raises(error):
        curve_scan(l, 3, [nu])
    with pytest.raises(error):
        eigenvalues([ReducedProblem(l, nu)], [3])


@pytest.mark.parametrize("l", [39, 40, 50, 60])
def test_eigenvalue_stage_is_exact_at_high_momentum(l):
    Ws = eigenvalues([ReducedProblem(l, 0.0)], [3])[0]
    scanned = [curve.W[0] for curve in curve_scan(l, 3, [0.0])]
    for j, (w, v) in enumerate(zip(Ws, scanned)):
        exact = 2 * (2 * j + l + 1)
        assert abs(w - exact) <= 1e-12 * exact and abs(v - exact) <= 1e-12 * exact, j


@pytest.mark.parametrize("l, nu", [(39, 0.0), (40, 0.0), (50, 0.0), (60, 0.0),
                                   (0, 510.0), (0, 600.0), (0, 1000.0)])
def test_sampled_solves_reach_the_envelope_edges(l, nu):
    # the ground state lies beyond r = 12 (l >= 39) or within r < 1 (l = 0, nu >= 510):
    # the sampling rule must follow the state, as the basis window does
    problem = ReducedProblem(l, nu)
    assert [st.W for st in solve_spectrum(problem)] == eigenvalues([problem], [3])[0]
    assert hft_check(problem, 0).discrepancy <= 1e-5


def test_ground_state_expectation_is_the_branch_slope():
    # dW_0/dnu = v^T J v exactly for the Galerkin eigenvector v, so <r> on the sampling
    # rule, whose nodes did not build J, must agree with it to round-off; at l = 0 the
    # state narrows as nu grows (width about nu^(-1/3))
    for l, nu in ((0, 0.0), (0, 5.0), (0, 200.0), (0, 300.0), (0, 1000.0), (0, -1000.0),
                  (1, 12.0), (2, -1000.0), (5, -50.0), (20, 50.0), (40, 0.0), (60, 0.0)):
        problem, c = ReducedProblem(l, nu), spectrum._shift(nu)
        _, _, A0, J, _ = spectrum._galerkin(l, c)
        x = spectrum._mapped(*spectrum._window(l, c))[0]     # the nodes that built J
        v = np.linalg.eigh(A0 + nu * J)[1][:, 0]
        slope = v @ J @ v
        st = solve_spectrum(problem, 1)[0]
        assert not np.isin(st.r, x).any(), (l, nu)
        assert abs(expectation_r(st) - slope) <= 1e-12 * slope, (l, nu)


def test_hft_check_at_l0_is_the_central_difference_error():
    # F(0) != 0 only at l = 0; <r> on the rule leaves the slope's own error, 9.2e-9
    worst = max(hft_check(ReducedProblem(0, float(nu)), j).discrepancy
                for nu in range(-3, 13) for j in range(3))
    assert worst <= 2e-7


@pytest.mark.parametrize("r_max", [200.0, 500.0])
def test_coarse_grid_raises_instead_of_a_wrong_expectation(monkeypatch, r_max):
    # 100 nodes over [0, 200] or [0, 500] miss the width-1 ground state: norm off 1 by
    # 1.1e-4 and 1.5e-2
    _sample_on(monkeypatch, r_max, 100)
    problem = ReducedProblem(0, 0.0)
    with pytest.raises(SolverError, match="misses a state"):
        solve_spectrum(problem)
    with pytest.raises(SolverError, match="misses a state"):
        hft_check(problem, 0)


def test_grid_that_misses_every_state_raises_instead_of_nan(monkeypatch):
    # every node beyond r = 50: exp(-r^2/2) underflows at each one, while W is exact
    _sample_on(monkeypatch, 1e4, 100, r_min=50.0)
    problem = ReducedProblem(0, 0.0)
    assert eigenvalues([problem], [3])[0][0] == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(SolverError, match="misses a state"):
        solve_spectrum(problem)
    with pytest.raises(SolverError, match="misses a state"):
        hft_check(problem, 0)


def test_eigenvalue_only_callers_never_sample_the_full_grid(monkeypatch):
    # curve_scan, match_truncation_to_curves, `radspec spectrum`, `radspec energy`:
    # no sampling and no eigenvectors
    sizes, eighs = [], []
    basis_values, eigh = spectrum._basis_values, np.linalg.eigh

    def recording(s, c, alpha, beta, r):
        sizes.append((len(beta), np.size(r)))
        return basis_values(s, c, alpha, beta, r)

    def counting(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(spectrum, "_basis_values", recording)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    curve_scan(1, 3, [-3.5, 0.0, 2.0])
    match_truncation_to_curves([polynomial_solution(4, i, 0) for i in (1, 3)])
    assert CliRunner().invoke(main, ["spectrum", "--l", "2", "--nu", "-5"]).exit_code == 0
    sweep = ["energy", "--theta-min", "1", "--theta-max", "2", "--theta-steps", "3"]
    assert CliRunner().invoke(main, sweep).exit_code == 0
    assert sizes == [] and eighs == []
    solve_spectrum(ReducedProblem(1, 2.0))     # the recorders see a sampling solve
    K = spectrum.RUNGS[0]     # the block that solved it
    assert sizes == [(K, spectrum.QUAD_NODES)]     # its functions on the rule's nodes
    assert eighs == [(K, K)]     # one, of its block of A0 + nu J
