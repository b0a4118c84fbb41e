"""Numeric route to the radial eigenproblem: the true continuous spectrum.

Solves F'' + F'/r - (l^2/r^2) F - r^2 F - nu r F = -W F under the radial
measure r dr by a Galerkin method in F_k = r^s exp(-(r-c)^2/2) p_k(r),
s = |l|, with p_k orthonormal for the weight r^(2s+1) exp(-(r-c)^2). The
shift c = max(0, -nu/2), floored to a multiple of 1/2, centres the weight on
the well of r^2 + nu r. Integrating by parts cancels the r^2 and l^2/r^2
terms and leaves A = D + (2s+2 - c^2) I - (2s+1) c B + (2c + nu) J, with J
the Jacobi matrix (of r), B the matrix of 1/r and D_kl = <p_k', p_l'>; once
more by parts, <p_k', p_m> = 2 J_km - (2s+1) B_km for m < k and 0 otherwise,
so D = C C^T. The p_k recurrence comes from one discretized Stieltjes pass
on a Gauss-Legendre rule (Gautschi, *Orthogonal Polynomials*, 2004, 2.2.3),
run in the sampling recurrence's operation order (Paige's), so the Gram check
sees exactly the values that sampling reproduces. A leading block of A is the
Galerkin matrix of a smaller basis, so by Cauchy interlacing its Ritz values
lie above those of A: their gap is the convergence check and error estimate.

Each branch W_{j,l}(nu) is continuous and strictly increasing in nu
(dW/dnu = <r> > 0); the isolated truncation energies of
:mod:`radspec.frobenius` are single points on these curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .frobenius import ReducedProblem

__all__ = [
    "SolverConfig", "EigenState", "SpectralCurve", "HftCheck", "SolverError", "NotConverged",
    "DomainTooSmall", "MonotonicityViolation", "solve_spectrum", "expectation_r", "hft_check",
    "curve_scan",
]

TAIL_RATIO = 1e-12    # required |F(r_max)| / max|F| for the ground state
BASIS_SIZE = 60       # polynomials in the Galerkin basis
CHECK_SIZE = BASIS_SIZE - 8   # leading block whose Ritz values check convergence
QUAD_NODES = 240      # Gauss-Legendre nodes discretizing the weight
GRAM_TOL = 1e-10      # allowed max |<F_k, F_l> - delta_kl| on the quadrature


class SolverError(RuntimeError):
    """Base class for spectral solver failures."""


class NotConverged(SolverError):
    """The basis does not resolve the requested levels to tolerance."""


class DomainTooSmall(SolverError):
    """Ground eigenfunction has not decayed to the tail threshold at r_max."""


class MonotonicityViolation(SolverError):
    """A branch decreased along increasing nu; signals a solver fault."""


@dataclass(frozen=True)
class SolverConfig:
    """Eigensolver settings.

    Eigenvalues and every check come from the Galerkin matrix; a level is
    accepted when its Ritz shift is below ``convergence_tol * max(1, |W|)``.
    ``r_max`` and ``grid_points`` set the cell-centred grid that eigenfunctions
    are sampled on when a caller reads them, and whose last cell centre the
    tail check reads; ``r_max=None`` means max(12, |nu|/2 + 12). Floats must
    be finite and positive, ``grid_points`` and ``levels`` integers.
    """

    r_max: float | None = None
    grid_points: int = 5000
    levels: int = 3
    convergence_tol: float = 1e-8

    def __post_init__(self):
        for name, least in (("grid_points", 100), ("levels", 1)):
            value = getattr(self, name)     # an integer is what operator.index accepts
            if not hasattr(type(value), "__index__") or value < least:
                raise ValueError(f"{name}={value!r} must be an integer >= {least}")
        if self.r_max is not None and not 0 < self.r_max < math.inf:
            raise ValueError(f"r_max={self.r_max} must be finite and > 0")
        if not 0 < self.convergence_tol < math.inf:
            raise ValueError(f"convergence_tol={self.convergence_tol} must be finite and > 0")

    def domain(self, nu: float) -> float:
        if self.r_max is not None:
            return self.r_max
        return max(12.0, abs(nu) / 2 + 12.0)


def _basis_values(s: int, c: float, alpha: np.ndarray, beta: np.ndarray,
                  r: np.ndarray) -> np.ndarray:
    """F_k(r) = r^s exp(-(r-c)^2/2) p_k(r), one row per k, with the p_k given by
    r p_k = beta[k+1] p_{k+1} + alpha[k] p_k + beta[k] p_{k-1}, p_0 = 1 / beta[0],
    in _galerkin's order; a scalar r gives one value per k by the same arithmetic."""
    F = np.empty((BASIS_SIZE,) + np.shape(r))
    F[0] = np.exp(s * np.log(r) - (r - c) ** 2 / 2) / beta[0]
    F[1] = (r * F[0] - alpha[0] * F[0]) / beta[1]
    for k in range(1, BASIS_SIZE - 1):
        F[k + 1] = (r * F[k] - beta[k] * F[k - 1] - alpha[k] * F[k]) / beta[k + 1]
    return F


def _shift(nu: float) -> float:
    if not math.isfinite(nu):
        raise ValueError(f"nu={nu} must be finite")
    return max(0, math.floor(-nu)) / 2


_gauss_legendre = lru_cache(maxsize=1)(leggauss)


@lru_cache(maxsize=128)
def _galerkin(s: int, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float,
                                          np.ndarray, np.ndarray]:
    """The recurrence (alpha, beta) of the (s, c) basis, its Galerkin matrix at
    nu = 0, J, the largest |<F_k, F_l> - delta_kl| on the quadrature, and the
    quadrature nodes x with the basis values F there (one row per k)."""
    t, wt = _gauss_legendre(QUAD_NODES)
    # outside [c - 13, c + sqrt(2s+1) + 13] the weight is below e^-169 of its peak
    lo, hi = max(0.0, c - 13.0), c + math.sqrt(2 * s + 1) + 13.0
    x, wq = lo + (t + 1) * (hi - lo) / 2, wt * (hi - lo) / 2
    wx = wq * x
    alpha, beta, F = np.empty(BASIS_SIZE), np.empty(BASIS_SIZE), np.empty((BASIS_SIZE, QUAD_NODES))
    with np.errstate(all="ignore"):
        # _basis_values' recurrence, alpha and beta measured under <f, g> = sum wq x f g
        w = np.exp(s * np.log(x) - (x - c) ** 2 / 2)
        for k in range(BASIS_SIZE):
            beta[k] = math.sqrt(w * w @ wx)
            F[k] = w / beta[k]
            w = x * F[k] - beta[k] * F[k - 1] if k else x * F[k]
            alpha[k] = w * F[k] @ wx
            w -= alpha[k] * F[k]
        B = (F * wq) @ F.T
        J = np.diag(alpha) + np.diag(beta[1:], 1) + np.diag(beta[1:], -1)
        C = 2 * np.diag(beta[1:], -1) - (2 * s + 1) * np.tril(B, -1)
        A0 = C @ C.T + (2 * s + 2 - c * c) * np.eye(BASIS_SIZE) - (2 * s + 1) * c * B + 2 * c * J
        defect = np.max(np.abs((F * wx) @ F.T - np.eye(BASIS_SIZE)))
    return alpha, beta, A0, J, float(defect), x, F


@dataclass(frozen=True, eq=False)
class EigenState:
    """One eigenstate: eigenvalue ``W``, its Ritz shift ``error_estimate``, and
    ``F`` sampled on the cell-centred grid ``r``, normalized so that the
    midpoint sum for int |F|^2 r dr equals 1 and positive at its peak.
    """

    l: int
    nu: float
    j: int
    W: float
    error_estimate: float
    r: np.ndarray
    F: np.ndarray

    @property
    def step(self) -> float:
        return float(self.r[1] - self.r[0])


@dataclass(frozen=True, eq=False)
class SpectralCurve:
    """One eigenvalue branch W_{j,l} sampled over a strictly increasing nu grid."""

    l: int
    j: int
    nu: tuple[float, ...]
    W: tuple[float, ...]
    states: tuple[EigenState, ...] | None = None

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.nu, self.W))


@dataclass(frozen=True)
class HftCheck:
    """Finite-difference slope of W against the position expectation value."""

    dW_dnu: float
    r_expectation: float
    discrepancy: float


def solve_spectrum(problem: ReducedProblem, config: SolverConfig | None = None
                   ) -> list[EigenState]:
    """Lowest ``config.levels`` eigenstates at (l, nu), sampled on the config's grid.

    Raises :class:`NotConverged` if a Ritz shift reaches the tolerance, the
    basis is off orthonormal by GRAM_TOL or anything is non-finite, and
    :class:`DomainTooSmall` if the ground state's tail at the last cell centre
    is not below TAIL_RATIO of its peak there and at quadrature nodes <= r_max,
    and :class:`SolverError` if a state underflows in every cell of the grid.
    """
    config = config or SolverConfig()
    c = _shift(problem.nu)
    W, shift, V = _eigensolve(problem, config, c)
    alpha, beta, *_ = _galerkin(abs(problem.l), c)
    h = config.domain(problem.nu) / config.grid_points
    r = (np.arange(1, config.grid_points + 1) - 0.5) * h
    F = V.T @ _basis_values(abs(problem.l), c, alpha, beta, r)
    norm = F * F @ r * h
    if not np.all(norm > 0):     # every cell centre lies where the states underflow
        raise SolverError(f"every cell of the {config.grid_points}-cell grid to r_max="
                          f"{config.domain(problem.nu):g} misses a state at {problem}")
    F /= np.sqrt(norm)[:, None]
    F *= np.sign(F[np.arange(len(W)), np.argmax(np.abs(F), axis=1)])[:, None]
    return [EigenState(problem.l, problem.nu, j, W[j], shift[j], r, F[j]) for j in range(len(W))]


def _eigensolve(problem: ReducedProblem, config: SolverConfig, c: float | None = None
                ) -> tuple[list[float], list[float], np.ndarray]:
    """Eigenvalue stage of a solve, with every check: the lowest ``config.levels``
    eigenvalues W and Ritz shifts (lists) and eigenvectors V (columns) in the c basis."""
    l, nu, k = problem.l, problem.nu, config.levels
    c = _shift(nu) if c is None else c
    at = f"l={l}, nu={nu:g}, shift c={c:g}"
    alpha, beta, A0, J, defect, x, F = _galerkin(abs(l), c)
    if k > CHECK_SIZE or not defect <= GRAM_TOL:
        raise NotConverged(f"basis cannot resolve {k} levels at {at} "
                           f"(Gram defect {defect:.1e})")
    A = A0 + nu * J
    try:
        W, V = np.linalg.eigh(A)
        coarse = np.linalg.eigvalsh(A[:CHECK_SIZE, :CHECK_SIZE])[:k]
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"Galerkin eigensolve failed at {at}: {exc}") from exc
    W, V = W[:k], V[:, :k]
    shift = np.abs(coarse - W)     # one-signed by interlacing, up to round-off
    tol = config.convergence_tol * np.maximum(1.0, np.abs(W))
    if not (np.all(shift < tol) and np.all(np.isfinite(V))):
        raise NotConverged(f"Ritz shifts {shift} at {at} are not all below {tol}")
    r_max, n = config.domain(nu), config.grid_points
    # last cell centre against the peak on the nodes; a numpy scalar, as r_max^2 may overflow
    tail = abs(V[:, 0] @ _basis_values(abs(l), c, alpha, beta, np.float64(n - 0.5) * (r_max / n)))
    peak = max(tail, np.max(np.abs(V[:, 0] @ F[:, x <= r_max]), initial=0.0))
    if not tail < TAIL_RATIO * peak:
        raise DomainTooSmall(
            f"ground-state tail at r_max={r_max:g} is {tail / peak:.2e} of peak "
            f"(require < {TAIL_RATIO:g}); increase r_max")
    if np.any(W[1:] <= W[:-1]):
        raise SolverError(f"eigenvalues not strictly ordered at {at}")
    return W.tolist(), shift.tolist(), V


def expectation_r(state: EigenState) -> float:
    """<r> = int r |F|^2 r dr by the midpoint rule on the sampling grid."""
    val = float(np.sum(state.r ** 2 * state.F ** 2) * state.step)
    if val <= 0:
        raise SolverError("nonpositive <r>; eigenfunction is invalid")
    return val


def hft_check(problem: ReducedProblem, j: int, delta: float = 1e-4,
              config: SolverConfig | None = None) -> HftCheck:
    """Check dW_j/dnu = <r> at the given problem point.

    The slope is the central difference of eigenvalues over nu +- delta;
    <r> is the midpoint rule over the eigenfunction sampled at nu itself,
    so the two sides are independent. On the default grid, nu in -3..12, j <= 2:
    <= 3.3e-6 for l = 0 (the midpoint rule dominates), 1.6e-8 for l = 1..3.
    """
    if delta <= 0:
        raise ValueError(f"delta={delta} must be positive")
    if j < 0:
        raise ValueError(f"branch j={j} must be >= 0")
    config = config or SolverConfig()
    if config.levels < j + 1:
        config = replace(config, levels=j + 1)
    # one basis for all three solves; the slope must not see a shift jump
    c = _shift(problem.nu)
    lo, hi = (_eigensolve(ReducedProblem(problem.l, problem.nu + d), config, c)[0][j]
              for d in (-delta, delta))
    mid = solve_spectrum(problem, config)
    slope = (hi - lo) / (2 * delta)
    rexp = expectation_r(mid[j])
    return HftCheck(dW_dnu=slope, r_expectation=rexp,
                    discrepancy=abs(slope - rexp))


def curve_scan(l: int, branches: int, nu_grid: Sequence[float],
               config: SolverConfig | None = None,
               keep_eigenfunctions: bool = False) -> list[SpectralCurve]:
    """Sample branches j < branches over a strictly increasing nu grid.

    Eigenvalues at each nu are recomputed from scratch and indexed by
    sorted order; branches of a fixed l never cross. Eigenfunctions are
    sampled only for ``keep_eigenfunctions``. Raises
    :class:`MonotonicityViolation` if any branch fails to increase.
    """
    nu_grid = [float(v) for v in nu_grid]
    if any(b <= a for a, b in zip(nu_grid, nu_grid[1:])):
        raise ValueError("nu_grid must be strictly increasing")
    if branches < 1:
        raise ValueError(f"branches={branches} must be >= 1")
    config = config or SolverConfig()
    if config.levels < branches:
        config = replace(config, levels=branches)

    problems = [ReducedProblem(l, nu) for nu in nu_grid]
    states = [solve_spectrum(p, config) for p in problems] if keep_eigenfunctions else None
    levels = ([[st.W for st in sts] for sts in states] if keep_eigenfunctions
              else [_eigensolve(p, config)[0] for p in problems])
    curves = []
    for j in range(branches):
        W = [Ws[j] for Ws in levels]
        for (na, wa), (nb, wb) in zip(zip(nu_grid, W), zip(nu_grid[1:], W[1:])):
            if wb <= wa:
                raise MonotonicityViolation(
                    f"branch j={j}, l={l} fell from W={wa!r} at nu={na!r} "
                    f"to W={wb!r} at nu={nb!r}")
        curves.append(SpectralCurve(
            l=l, j=j, nu=tuple(nu_grid), W=tuple(W),
            states=tuple(sts[j] for sts in states) if keep_eigenfunctions else None))
    return curves
