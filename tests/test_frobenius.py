import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from radspec import frobenius
from radspec.frobenius import (
    IndexOutOfRange,
    ReducedProblem,
    RootRefinementFailure,
    cnp1_polynomial,
    ode_residual,
    polynomial_solution,
    root_isolation,
    truncation_energy,
)
from radspec.spectrum import solve_spectrum

ROOT_83 = math.sqrt(8.0 / 3.0)


# --- recurrence --------------------------------------------------------------

class _RecurrencePair(NamedTuple):
    """Coefficients of one recurrence step c_{j+2} = A c_{j+1} + B c_j."""

    A: float | Fraction
    B: float | Fraction


def _recurrence_coeffs(j, s, nu, W):
    """Reference recurrence in nu and a free W: (A_j, B_j) for c_{j+2} = A_j c_{j+1} + B_j c_j.

    Exact when nu and W are Fractions; float otherwise. Valid for all
    j >= -1, s >= 0 (denominators cannot vanish there).
    """
    if j < -1:
        raise ValueError(f"recurrence index j={j} must be >= -1")
    if s < 0:
        raise ValueError(f"s={s} must be >= 0")
    den = (j + 2) * (j + 2 * (s + 1))
    A = nu * (2 * j + 2 * s + 3) / (2 * den)
    B = -(4 * W - 8 * j + nu * nu - 8 * (s + 1)) / (4 * den)
    return _RecurrencePair(A=A, B=B)


def _series_coeffs(n_terms, s, nu, W):
    """Series coefficients c_0..c_{n_terms} with c_0 = 1, c_{-1} = 0."""
    coeffs = [1]
    prev = 0
    for j in range(-1, n_terms - 1):
        pair = _recurrence_coeffs(j, s, nu, W)
        coeffs.append(pair.A * coeffs[-1] + pair.B * prev)
        prev = coeffs[-2]
    return coeffs


def test_recurrence_first_step_is_nu_over_two():
    pair = _recurrence_coeffs(-1, 0, Fraction(3), Fraction(5))
    assert pair.A == Fraction(3, 2)


def test_recurrence_ground_state_kills_both():
    # s=0, nu=0, W=2: the order-0 truncation, both coefficients vanish
    pair = _recurrence_coeffs(0, 0, 0.0, 2.0)
    assert pair.A == 0
    assert pair.B == 0


def test_recurrence_truncated_B_is_nu_independent():
    """With W pinned by order-n truncation, B_j collapses to 2(j-n)/den."""
    for nu in (Fraction(0), Fraction(7, 3), Fraction(-2)):
        W = truncation_energy(1, 0, nu)
        pair = _recurrence_coeffs(0, 0, nu, W)
        assert pair.B == Fraction(-1, 2)


def test_recurrence_identity_exact():
    rng = random.Random(20240817)
    for _ in range(25):
        s = rng.randrange(0, 4)
        nu = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        W = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        c = _series_coeffs(8, s, nu, W)
        assert c[0] == 1
        for j in range(-1, 6):
            pair = _recurrence_coeffs(j, s, nu, W)
            lhs = c[j + 2]
            rhs = pair.A * c[j + 1] + pair.B * (c[j] if j >= 0 else 0)
            assert lhs == rhs


def test_recurrence_rejects_bad_indices():
    with pytest.raises(ValueError):
        _recurrence_coeffs(-2, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        _recurrence_coeffs(0, -1, 1.0, 1.0)


def test_series_c1_vanishes_at_zero_coupling():
    assert _series_coeffs(1, 0, 0.0, 17.0)[1] == 0


def test_series_c1_closed_form_any_s():
    # c_1 = nu/2 regardless of s or W
    assert _series_coeffs(1, 1, 2.0, -3.0)[1] == pytest.approx(1.0)


def test_series_c2_vanishes_at_first_root():
    c = _series_coeffs(2, 0, ROOT_83, 10.0 / 3.0)
    assert abs(c[2]) < 1e-15


# --- truncation energy -------------------------------------------------------

def test_truncation_energy_values():
    assert truncation_energy(0, 0, 0.0) == 2
    assert truncation_energy(10, 0, 0.0) == 22
    assert truncation_energy(1, 0, ROOT_83) == pytest.approx(10.0 / 3.0, rel=1e-15)


# --- truncation polynomial ---------------------------------------------------

def test_cnp1_order_zero():
    poly = cnp1_polynomial(0, 0)
    assert poly.coeffs == (Fraction(0), Fraction(1, 2))


def test_cnp1_order_one():
    # proportional to 3 nu^2 - 8: exact coefficients (-1/2, 0, 3/16)
    poly = cnp1_polynomial(1, 0)
    assert poly.coeffs == (Fraction(-1, 2), Fraction(0), Fraction(3, 16))
    assert _horner(poly.coeffs, Fraction(2)) == Fraction(1, 4)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_cnp1_degree_parity_leading_sign(l):
    for n in range(0, 23):
        poly = cnp1_polynomial(n, l)
        assert poly.degree == n + 1
        assert poly.coeffs[-1] > 0
        parity = (n + 1) % 2
        assert all(c == 0 for k, c in enumerate(poly.coeffs) if k % 2 != parity)


@pytest.mark.parametrize("s", [0, 1, 2, 5, 10])
def test_mu_recurrence_matches_public_recurrence(s):
    """c_{n+1}(nu) and every c_j = d_j(nu^2) nu^(j mod 2) equal _series_coeffs exactly,
    up to n = 40 and s = 10, where the integers of the series at a root are largest."""
    for nu in (Fraction(1, 3), Fraction(7, 2), Fraction(-5, 4)):
        for n in range(0, 41):
            c = _series_coeffs(n + 2, s, nu, truncation_energy(n, s, nu))
            assert _horner(cnp1_polynomial(n, s).coeffs, nu) == c[n + 1]
            mu = nu * nu
            D, E, _ = frobenius._series_at_root(n, s, mu.numerator, mu.denominator)
            assert [Fraction(Dj, E) * nu ** (j % 2) for j, Dj in enumerate(D)] == c


def _mu_series(n, s, mu):
    """d_0..d_{n+2} at mu = nu^2 in Fractions, from the reference recurrence at nu = 1
    with W pinned by order-n truncation: d_{j+2} = A_j m_j d_{j+1} + B_j d_j, m_j = mu
    for even j and 1 for odd j."""
    one = Fraction(1)
    d, prev = [one], 0
    for j in range(-1, n + 1):
        pair = _recurrence_coeffs(j, s, one, truncation_energy(n, s, one))
        d.append(pair.A * (mu if j % 2 == 0 else 1) * d[-1] + pair.B * prev)
        prev = d[-2]
    return d


def test_solver_records_round_the_exact_series_once():
    """Every solver record with s <= 2, n <= 22: W is 2(n+s+1) - mu/4 rounded once,
    and c_j is the exact d_j at its root mu rounded once, times nu_root for odd j."""
    series = {}
    for l in range(-2, 3):
        s = abs(l)
        for n in range(23):
            for i in range(1, n + 2):
                sol = polynomial_solution(n, i, l)
                mu = sol._mu
                assert sol.W == float(Fraction(2 * (n + s + 1)) - mu / 4), (n, i, l)
                if (n, s, mu) not in series:
                    series[n, s, mu] = _mu_series(n, s, mu)
                exact = series[n, s, mu][: n + 1]
                assert sol.coeffs == tuple(float(dj) * sol.nu_root if j % 2 else float(dj)
                                           for j, dj in enumerate(exact)), (n, i, l)


def test_cnp1_rejects_negative_order():
    with pytest.raises(ValueError):
        cnp1_polynomial(-1, 0)


@pytest.mark.parametrize("call", [lambda: root_isolation(-2, 1),
                                  lambda: polynomial_solution(-1, 1, 0),
                                  lambda: cnp1_polynomial(-1, 0)],
                         ids=["root_isolation", "polynomial_solution", "cnp1_polynomial"])
def test_negative_order_raises_value_error(call):
    with pytest.raises(ValueError, match="must be >= 0"):
        call()


# --- roots -------------------------------------------------------------------

def test_roots_order_zero():
    assert root_isolation(0, 0) == (0.0,)


def test_roots_order_one():
    roots = root_isolation(1, 0)
    assert roots == pytest.approx([ROOT_83, -ROOT_83], rel=1e-12)


def test_roots_order_two_symmetric_triple():
    roots = root_isolation(2, 0)
    assert len(roots) == 3
    assert roots[1] == 0.0
    assert roots[0] == pytest.approx(-roots[2], rel=1e-12)
    assert roots[0] > 0 > roots[2]


@pytest.mark.parametrize("l", [0, 1, 2])
def test_realness_audit_full_count(l):
    """n+1 disjoint sign-change brackets certify every root at each tested order."""
    for n in range(0, 23):
        roots = root_isolation(n, l)
        assert len(roots) == n + 1
        assert all(a > b for a, b in zip(roots, roots[1:]))


def test_roots_satisfy_polynomial():
    for n, l in ((5, 0), (12, 1), (22, 2), (30, 0), (40, 1), (40, 2)):
        poly = cnp1_polynomial(n, l)
        roots = root_isolation(n, l)
        assert len(roots) == n + 1
        assert all(a > b for a, b in zip(roots, roots[1:]))
        for nu in roots:
            # scale by the largest monomial magnitude at this nu
            terms = max(abs(float(c) * nu ** k) for k, c in enumerate(poly.coeffs))
            assert abs(_horner(poly.coeffs, nu)) <= 1e-10 * max(terms, 1.0)


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_roots_within_relative_tolerance():
    """Every positive root mu = nu^2 lies within mu (1 +/- ROOT_REL_TOL/2)."""
    half = frobenius.ROOT_REL_TOL / 2
    misses = []
    for s in (0, 1, 2):
        for n in range(0, 41):
            q = cnp1_polynomial(n, s).coeffs[(n + 1) % 2::2]     # in mu
            for rec in frobenius._root_data(n, s):
                if rec.nu > 0:
                    lo, hi = rec.mu * (1 - half), rec.mu * (1 + half)
                    if _horner(q, lo) * _horner(q, hi) >= 0:
                        misses.append((n, s, rec.nu))
    assert misses == []


@pytest.mark.parametrize("distort", [
    # two brackets with a sign change each, but the second runs backwards
    # into the first: without the disjointness check it would pass
    lambda lo, hi: [hi + 0.9 * lo, 0.1 * lo],
    lambda lo, hi: [0.5 * lo, 0.6 * lo],            # brackets miss the roots
], ids=["backward-bracket", "missed-roots"])
def test_uncertified_seeds_raise(monkeypatch, distort):
    true_seeds = frobenius._jacobi_seeds
    monkeypatch.setattr(frobenius, "_jacobi_seeds",
                        lambda n, s, count: distort(*true_seeds(n, s, count)))
    with pytest.raises(RootRefinementFailure):
        frobenius._root_data.__wrapped__(3, 1)      # two roots in mu; bypass the cache


def _bisection_root_data(n, s):
    """Reference for _root_data: the integer bisection that Newton replaced.

    Same polynomial (from the public cnp1_polynomial), seeds, grid and cuts;
    each bracket is halved until it is one grid cell wide.
    """
    q = cnp1_polynomial(n, s).coeffs[(n + 1) % 2::2]
    if q[0] == 0:
        raise RootRefinementFailure(f"mu=0 root in reduced polynomial (n={n}, s={s})")
    d = len(q) - 1
    mu_seeds = frobenius._jacobi_seeds(n, s, d)
    cell = frobenius.ROOT_REL_TOL * min(1, Fraction(min(mu_seeds, default=2.0)) / 2)
    K = (-(-cell.denominator // cell.numerator) - 1).bit_length()
    den = math.lcm(*(c.denominator for c in q))
    scaled = [int(c * den) << (K * (d - k)) for k, c in enumerate(q)]

    def sign(m):
        acc = 0
        for c in reversed(scaled):
            acc = acc * m + c
        return (acc > 0) - (acc < 0)

    seeds = [int(math.ldexp(mu, K)) for mu in mu_seeds]
    cuts = [0, *((a + b) // 2 for a, b in zip(seeds, seeds[1:]))]
    cuts += [2 * m for m in seeds[-1:]]
    positives = []
    for lo, hi in zip(cuts, cuts[1:]):
        sign_lo = sign(lo)
        if not lo < hi or sign_lo * sign(hi) >= 0:
            raise RootRefinementFailure(
                f"no certified root of c_{n + 1} for s={s} with nu^2 in "
                f"[{math.ldexp(lo, -K)}, {math.ldexp(hi, -K)}]")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if sign(mid) == sign_lo:
                lo = mid
            else:
                hi = mid
        positives.append(Fraction(lo + hi, 1 << (K + 1)))
    records = [frobenius._RootRecord(math.sqrt(float(mu)), mu) for mu in reversed(positives)]
    if (n + 1) % 2:
        records.append(frobenius._RootRecord(0.0, Fraction(0)))
    records.extend(frobenius._RootRecord(-math.sqrt(float(mu)), mu) for mu in positives)
    return tuple(records)


def _outcome(root_data, n, s):
    try:
        return root_data(n, s)
    except RootRefinementFailure as err:
        return ("RootRefinementFailure", str(err))


@pytest.mark.parametrize("scale", [1.0, 1 + 1e-6, 0.97, 0.8, 1.2])
def test_root_data_matches_bisection(monkeypatch, scale):
    """Guarded Newton ends in bisection's cell for every order n <= 40, s <= 2,
    also from distorted seeds; an order that fails to certify fails on both
    sides with the same bracket. Unguarded Newton crawls from seeds x 0.8."""
    true_seeds = frobenius._jacobi_seeds
    monkeypatch.setattr(frobenius, "_jacobi_seeds",
                        lambda n, s, count: [mu * scale for mu in true_seeds(n, s, count)])
    for s in (0, 1, 2):
        for n in range(41):
            assert (_outcome(frobenius._root_data.__wrapped__, n, s)
                    == _outcome(_bisection_root_data, n, s)), (n, s)


def test_stalled_refinement_raises_instead_of_hanging(monkeypatch):
    """A step that only ever probes the neighbouring cell would walk the 2e10 to
    2e11 cells between each float seed and its root for n = 5; the evaluation
    cap turns that hang into a failure."""
    # with abs() = 0 every Newton step looks shorter than a cell
    monkeypatch.setattr(frobenius, "abs", lambda value: 0, raising=False)
    with pytest.raises(RootRefinementFailure, match="does not converge"):
        frobenius._root_data.__wrapped__(5, 0)


def test_root_symmetry_under_negation():
    for n in range(0, 23):
        roots = root_isolation(n, 0)
        mirrored = sorted((-r for r in roots), reverse=True)
        assert roots == pytest.approx(mirrored, abs=1e-12)
        has_zero = any(r == 0.0 for r in roots)
        assert has_zero == ((n + 1) % 2 == 1)


# --- polynomial solutions ----------------------------------------------------

def test_solution_ground_state():
    sol = polynomial_solution(0, 1, 0)
    assert sol.nu_root == 0.0
    assert sol.W == 2.0
    assert sol.coeffs == (1.0,)


def test_solution_first_excited():
    sol = polynomial_solution(1, 1, 0)
    assert sol.nu_root == pytest.approx(ROOT_83, rel=1e-13)
    assert sol.W == pytest.approx(10.0 / 3.0, rel=1e-13)
    assert sol.coeffs[1] == pytest.approx(ROOT_83 / 2, rel=1e-13)


def test_solution_order_ten_on_parabola():
    for i in (1, 2, 3):
        sol = polynomial_solution(10, i, 0)
        assert sol.W + sol.nu_root ** 2 / 4 == pytest.approx(22.0, abs=1e-11)


def test_solution_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        polynomial_solution(1, 3, 0)
    with pytest.raises(IndexOutOfRange):
        polynomial_solution(4, 0, 0)


def test_solution_closure_against_float_recurrence():
    """Extending the stored coefficients two steps must hit ~0 twice."""
    for n, i, l in ((7, 2, 0), (12, 1, 1), (9, 3, 2)):
        sol = polynomial_solution(n, i, l)
        c = list(sol.coeffs)
        prev = 0.0
        for j in range(n - 1, n + 1):
            pair = _recurrence_coeffs(j, sol.s, sol.nu_root, sol.W)
            nxt = pair.A * c[-1] + pair.B * (c[j] if j >= 0 else prev)
            c.append(nxt)
        scale = max(abs(v) for v in sol.coeffs)
        assert abs(c[n + 1]) <= 1e-9 * scale
        assert abs(c[n + 2]) <= 1e-9 * scale


def test_solution_l_sign_irrelevant():
    a = polynomial_solution(6, 2, 3)
    b = polynomial_solution(6, 2, -3)
    assert a.nu_root == b.nu_root
    assert a.W == b.W
    assert a.coeffs == b.coeffs


def test_parabola_family_orders_against_nu():
    # along fixed n, W is a decreasing function of nu^2: anti-HFT shape
    sols = [polynomial_solution(10, i, 0) for i in (1, 2, 3)]
    nus = [s.nu_root for s in sols]
    Ws = [s.W for s in sols]
    assert nus[0] > nus[1] > nus[2] > 0
    assert Ws[0] < Ws[1] < Ws[2]


# --- eigenfunction and residual ----------------------------------------------

def _evaluate_F(sol, r):
    """Reference eigenfunction r^s exp(-r^2/2 - nu r/2) sum_j c_j r^j at finite r > 0."""
    if not 0 < r < math.inf:
        raise ValueError(f"r={r} must be finite and > 0")
    poly = 0.0
    for c in reversed(sol.coeffs):
        poly = poly * r + c
    return r ** sol.s * math.exp(-r * r / 2 - sol.nu_root * r / 2) * poly


def test_evaluate_ground_state_at_one():
    sol = polynomial_solution(0, 1, 0)
    assert _evaluate_F(sol, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_evaluate_first_excited_at_one():
    sol = polynomial_solution(1, 1, 0)
    expected = (1 + ROOT_83 / 2) * math.exp(-0.5 - ROOT_83 / 2)
    assert expected == pytest.approx(0.4869533794903721, rel=1e-14)
    assert _evaluate_F(sol, 1.0) == pytest.approx(expected, rel=1e-12)


def test_evaluate_vanishes_like_r_to_s():
    sol = polynomial_solution(0, 1, 2)
    small = _evaluate_F(sol, 1e-6)
    assert small == pytest.approx(1e-12 * sol.coeffs[0], rel=1e-4)


def test_evaluate_rejects_nonpositive_r():
    sol = polynomial_solution(0, 1, 0)
    with pytest.raises(ValueError):
        _evaluate_F(sol, 0.0)
    with pytest.raises(ValueError):
        _evaluate_F(sol, -1.0)


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_evaluate_rejects_non_finite_r(r):
    with pytest.raises(ValueError, match="finite"):
        _evaluate_F(polynomial_solution(0, 1, 0), r)


@pytest.mark.parametrize("n,i,l", [(1, 1, 0), (3, 1, 0), (4, 2, 1), (6, 3, 2), (10, 1, 0),
                                   (12, 3, 0), (2, 2, 0), (4, 5, 0), (6, 7, 1)])
def test_truncation_eigenfunction_matches_eigensolver(n, i, l):
    """At a truncation root both routes give the same eigenfunction, not only the
    same W: the series, sampled on the solver's rule and normalized as EigenState.F."""
    sol = polynomial_solution(n, i, l)
    state = solve_spectrum(ReducedProblem(l, sol.nu_root), i)[i - 1]
    F = np.array([_evaluate_F(sol, r) for r in state.r])
    F /= np.sqrt(F * F @ (state.w * state.r))
    F *= np.sign(F[np.argmax(np.abs(F))])
    assert np.max(np.abs(F - state.F)) <= 1e-8 * np.max(np.abs(F))


def test_residual_ground_state():
    sol = polynomial_solution(0, 1, 0)
    assert abs(ode_residual(sol, 1.0)) < 1e-12


def test_residual_first_excited():
    sol = polynomial_solution(1, 1, 0)
    assert abs(ode_residual(sol, 0.5)) < 1e-10


def test_residual_sweep_relative():
    for n, i, l in ((10, 1, 0), (10, 3, 0), (8, 2, 1), (6, 1, 2)):
        sol = polynomial_solution(n, i, l)
        for k in range(1, 101):
            r = 0.1 * k
            assert abs(ode_residual(sol, r, relative=True)) < 1e-8


@pytest.mark.parametrize("n,i,l", [(10, 11, 0), (10, 1, 0), (9, 10, 1), (8, 9, 2)])
def test_residual_precision_at_extreme_roots(n, i, l):
    """The exact residual sits far below the 1e-8 contract, even at the most
    negative roots, where a float nu alone would leave ~1e-8."""
    sol = polynomial_solution(n, i, l)
    worst = max(abs(ode_residual(sol, r, relative=True))
                for r in (0.1 + 0.1 * k for k in range(100)))
    assert worst <= 1e-13


def test_residual_detects_detuned_coupling():
    """Shifting nu off the root by 0.1 breaks the equation visibly."""
    sol = polynomial_solution(1, 1, 0)
    detuned = type(sol)(
        n=sol.n, i=sol.i, l=sol.l,
        nu_root=sol.nu_root + 0.1,
        W=truncation_energy(1, 0, sol.nu_root + 0.1),
        coeffs=sol.coeffs,
    )
    assert abs(ode_residual(detuned, 1.0)) > 1e-3


def _hand_built(sol, **fields):
    """The float fields of a solver record, without its exact root."""
    base = dict(n=sol.n, i=sol.i, l=sol.l, nu_root=sol.nu_root, W=sol.W, coeffs=sol.coeffs)
    return type(sol)(**{**base, **fields})


def _fraction_residual(sol, r, relative=False):
    """Reference for ode_residual: its six terms in Fraction arithmetic.

    A solver record's exact inputs are rebuilt from its root mu (nu to
    2^-160); a hand-built record's float fields enter as the Fractions they
    equal. The sum and each term are rounded once, by float(Fraction).
    """
    s, n = sol.s, sol.n
    if sol._mu is None:
        nu, W = Fraction(sol.nu_root), Fraction(sol.W)
        coeffs = [Fraction(c) for c in sol.coeffs]
    else:
        mu = sol._mu
        root = Fraction(math.isqrt(mu.numerator * 2 ** 320 // mu.denominator), 2 ** 160)
        nu = root if sol.nu_root >= 0 else -root
        W = 2 * (n + s + 1) - mu / 4
        D, E, _ = frobenius._series_at_root(n, s, mu.numerator, mu.denominator)
        d = [Fraction(Dj, E) for Dj in D[: n + 1]]
        coeffs = [dj * nu if j % 2 else dj for j, dj in enumerate(d)]
    x = Fraction(r)
    P = Pp = Ppp = Fraction(0)
    for c in reversed(coeffs):
        Ppp = Ppp * x + 2 * Pp
        Pp = Pp * x + P
        P = P * x + c
    xs, xs1, xs2 = x ** s, s * x ** (s - 1), s * (s - 1) * x ** (s - 2)
    G = xs * P
    Gp = xs1 * P + xs * Pp
    Gpp = xs2 * P + 2 * xs1 * Pp + xs * Ppp
    phi = -x - nu / 2
    terms = (Gpp + 2 * Gp * phi + G * (phi * phi - 1), (Gp + G * phi) / x,
             -sol.l ** 2 * G / (x * x), -x * x * G, -nu * x * G, W * G)
    resid = float(sum(terms))
    if relative:
        scale = max(abs(float(t)) for t in terms)
        return resid / scale if scale else 0.0
    return resid * math.exp(-r * r / 2 - sol.nu_root * r / 2)


ORACLE_RADII = (0.05, 0.1, 0.3, 1.0, 2.5, 6.0, 7.525, 10.0, 2.0 ** -30)


@pytest.mark.parametrize("n,i,l", [(12, 13, 0), (12, 1, 0), (11, 6, -1), (10, 11, 2),
                                   (0, 1, 0), (6, 3, 4), (22, 1, 0), (22, 23, 0),
                                   (16, 17, -2), (15, 8, 1), (21, 22, 2)])
def test_residual_matches_fraction_oracle(n, i, l):
    """Bit for bit, relative and absolute, on the solver record and on a
    hand-built record holding the same float fields."""
    sol = polynomial_solution(n, i, l)
    for rec in (sol, _hand_built(sol)):
        for r in ORACLE_RADII:
            for relative in (False, True):
                got = ode_residual(rec, r, relative=relative)
                assert repr(got) == repr(_fraction_residual(rec, r, relative)), (rec, r)


def test_residual_of_detuned_record_matches_fraction_oracle():
    sol = polynomial_solution(1, 1, 0)
    detuned = _hand_built(sol, nu_root=sol.nu_root + 0.1,
                          W=truncation_energy(1, 0, sol.nu_root + 0.1))
    for r in ORACLE_RADII:
        for relative in (False, True):
            got = ode_residual(detuned, r, relative=relative)
            assert repr(got) == repr(_fraction_residual(detuned, r, relative)), r


@pytest.mark.parametrize("field,value", [("nu_root", math.nan), ("W", math.inf),
                                         ("coeffs", (1.0, -math.inf))])
def test_residual_rejects_non_finite_hand_built_field(field, value):
    sol = _hand_built(polynomial_solution(1, 1, 0), **{field: value})
    with pytest.raises(ValueError, match=field):
        ode_residual(sol, 1.0)


def test_residual_rejects_nonpositive_r():
    sol = polynomial_solution(0, 1, 0)
    with pytest.raises(ValueError):
        ode_residual(sol, 0.0)


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_residual_rejects_non_finite_r(r):
    with pytest.raises(ValueError, match="finite"):
        ode_residual(polynomial_solution(0, 1, 0), r)
