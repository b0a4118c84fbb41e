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
sees exactly the values that sampling reproduces; the pass runs on a stack of
shifts at once, each row as it would run alone. A leading block of A is the
Galerkin matrix of a smaller basis, so by Cauchy interlacing its Ritz values
lie above those of A: the gap between a block and its leading block CHECK_GAP
smaller is the convergence check and error estimate. Each request is solved on
the first of the RUNGS blocks (32, then all 60 functions) that passes it.
One window, outside which the weight is below e^-169 of its peak, carries the
quadrature; :func:`solve_spectrum` samples the states on a Gauss-Legendre rule
over the same window widened by 4 at each end, so the rule follows the states
in l and nu with nothing to set, and its nodes are not those that built J.
Both rules map one stored QUAD_NODES-node Gauss-Legendre rule on [-1, 1].
Eigenvalues come from ``eigvalsh``; only :func:`solve_spectrum`, which samples
the states, computes eigenvectors, on the accepted block.

Each branch W_{j,l}(nu) is continuous and strictly increasing in nu
(dW/dnu = <r> > 0); the isolated truncation energies of
:mod:`radspec.frobenius` are single points on these curves.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .frobenius import ReducedProblem

__all__ = [
    "EigenState", "SpectralCurve", "HftCheck", "SolverError", "NotConverged",
    "DomainTooSmall", "MonotonicityViolation", "solve_spectrum", "expectation_r", "hft_check",
    "curve_scan", "eigenvalues",
]

TAIL_RATIO = 1e-12    # required |F(last node)| / max|F| for the sampled ground state
BASIS_SIZE = 60       # polynomials in the Galerkin basis
RUNGS = (32, BASIS_SIZE)      # leading blocks a request is solved on, tried smallest first
CHECK_GAP = 8         # a rung's Ritz values are checked against its leading block this much smaller
QUAD_NODES = 240      # Gauss-Legendre nodes discretizing the weight
GRAM_TOL = 1e-10      # allowed |<F_k, F_l> - delta_kl| on the quadrature, |norm - 1| on the rule
CONVERGENCE_TOL = 1e-8    # a level is accepted when its Ritz shift is below this * max(1, |W|)
HFT_DELTA = 1e-4      # half-step of hft_check's central difference in nu
STACK_SIZE = 32       # most (s, c) bases built in one stacked pass
CACHE_SIZE = 128      # (s, c) bases kept; the least recently used is evicted first


class SolverError(RuntimeError):
    """Base class for spectral solver failures."""


class NotConverged(SolverError):
    """The basis does not resolve the requested levels to tolerance."""


class DomainTooSmall(SolverError):
    """Ground eigenfunction has not decayed to the tail threshold at the last node."""


class MonotonicityViolation(SolverError):
    """A branch decreased along increasing nu; signals a solver fault."""


def _basis_values(s: int, c: float, alpha: np.ndarray, beta: np.ndarray,
                  r: np.ndarray) -> np.ndarray:
    """F_k(r) = r^s exp(-(r-c)^2/2) p_k(r), one row per k < len(beta), with the p_k
    given by r p_k = beta[k+1] p_{k+1} + alpha[k] p_k + beta[k] p_{k-1}, p_0 = 1 / beta[0],
    in _galerkin's order."""
    F = np.empty((len(beta),) + np.shape(r))
    F[0] = np.exp(s * np.log(r) - (r - c) ** 2 / 2) / beta[0]
    F[1] = (r * F[0] - alpha[0] * F[0]) / beta[1]
    for k in range(1, len(beta) - 1):
        F[k + 1] = (r * F[k] - beta[k] * F[k - 1] - alpha[k] * F[k]) / beta[k + 1]
    return F


def _shift(nu: float) -> float:
    if not math.isfinite(nu):
        raise ValueError(f"nu={nu} must be finite")
    return max(0, math.floor(-nu)) / 2


def _window(s: int, c: float) -> tuple[float, float]:
    """[lo, hi] outside which the (s, c) weight is below e^-169 of its peak."""
    return max(0.0, c - 13.0), c + math.sqrt(2 * s + 1) + 13.0


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the QUAD_NODES-node Gauss-Legendre rule on [-1, 1], mirrored
    from the stored float.hex table of its nonnegative half."""
    with open(os.path.join(os.path.dirname(__file__), "gauss_legendre_240.txt")) as fh:
        rows = [line.split() for line in fh if not line.startswith("#")]
    t, w = (np.array([float.fromhex(v) for v in col]) for col in zip(*rows))
    return np.concatenate((-t[::-1], t)), np.concatenate((w[::-1], w))


def _mapped(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [lo, hi]; one row per row of
    lo and hi if they are columns."""
    t, wt = _gauss_legendre()
    return lo + (t + 1) * (hi - lo) / 2, wt * (hi - lo) / 2


def _rule(s: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on which solve_spectrum samples: the QUAD_NODES Gauss-Legendre
    rule on the (s, c) window widened by 4 at each end (not below 0); tests replace it."""
    lo, hi = _window(s, c)
    return _mapped(max(0.0, lo - 4.0), hi + 4.0)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row i, as one dot product per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _build(keys: Sequence[tuple[int, float]]) -> list[tuple]:
    """The _galerkin tuple of each (s, c) in keys, from one discretized-Stieltjes pass
    over the stack: rows are (s, c) pairs, and each runs in _basis_values' order with
    the same operations as alone, so a basis is the same in any stack."""
    s, c = (np.array(col, dtype=float)[:, None] for col in zip(*keys))
    x, wq = _mapped(*(np.array(col)[:, None] for col in zip(*(_window(*key) for key in keys))))
    wx = wq * x
    m, eye = len(keys), np.eye(BASIS_SIZE)
    alpha, beta = np.empty((m, BASIS_SIZE)), np.empty((m, BASIS_SIZE))
    F = np.empty((m, BASIS_SIZE, QUAD_NODES))
    with np.errstate(all="ignore"):
        # _basis_values' recurrence, alpha and beta measured under <f, g> = sum wq x f g
        w = np.exp(s * np.log(x) - (x - c) ** 2 / 2)
        for k in range(BASIS_SIZE):
            beta[:, k] = np.sqrt(_rowdot(w * w, wx))
            F[:, k] = w / beta[:, k, None]
            w = x * F[:, k] - beta[:, k, None] * F[:, k - 1] if k else x * F[:, k]
            alpha[:, k] = _rowdot(w * F[:, k], wx)
            w -= alpha[:, k, None] * F[:, k]
        Ft = F.transpose(0, 2, 1)
        B = (F * wq[:, None]) @ Ft
        J = np.zeros((m, BASIS_SIZE, BASIS_SIZE))
        k = np.arange(BASIS_SIZE)
        J[:, k, k] = alpha
        J[:, k[1:], k[:-1]] = J[:, k[:-1], k[1:]] = beta[:, 1:]
        s, c = s[:, :, None], c[:, :, None]
        C = 2 * np.tril(J, -1) - (2 * s + 1) * np.tril(B, -1)     # J's subdiagonal is beta[1:]
        A0 = C @ C.transpose(0, 2, 1) + (2 * s + 2 - c * c) * eye - (2 * s + 1) * c * B + 2 * c * J
        defect = np.max(np.abs((F * wx[:, None]) @ Ft - eye), axis=(1, 2))
    del F, Ft, B, C
    # copies, so that a cached basis does not keep its whole stack alive
    return [(alpha[i].copy(), beta[i].copy(), A0[i].copy(), J[i].copy(), float(defect[i]))
            for i in range(m)]


_bases: OrderedDict[tuple[int, float], tuple] = OrderedDict()


def _cache(keys: Sequence[tuple[int, float]]) -> None:
    """Make every (s, c) in keys (at most CACHE_SIZE) the most recently used cached
    basis, building the missing ones as one stack."""
    missing = []
    for key in keys:
        if key in _bases:
            _bases.move_to_end(key)
        else:
            missing.append(key)
    for key, basis in zip(missing, _build(missing) if missing else ()):
        _bases[key] = basis
        if len(_bases) > CACHE_SIZE:
            _bases.popitem(last=False)


def _galerkin(s: int, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The recurrence (alpha, beta) of the (s, c) basis, its Galerkin matrix at
    nu = 0, J, and the largest |<F_k, F_l> - delta_kl| on the quadrature."""
    _cache([(s, c)])
    return _bases[s, c]


@dataclass(frozen=True, eq=False)
class EigenState:
    """One eigenstate: eigenvalue ``W``, its Ritz shift ``error_estimate`` on the
    ``basis_size`` leading basis functions that solved it, and ``F`` sampled at the
    nodes ``r`` of the Gauss-Legendre rule with weights ``w``, normalized so that
    sum w r F^2 (int |F|^2 r dr) equals 1 and positive at its peak.
    """

    l: int
    nu: float
    j: int
    W: float
    error_estimate: float
    basis_size: int
    r: np.ndarray
    w: np.ndarray
    F: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralCurve:
    """One eigenvalue branch W_{j,l} sampled over a strictly increasing nu grid."""

    l: int
    j: int
    nu: tuple[float, ...]
    W: tuple[float, ...]

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.nu, self.W))


@dataclass(frozen=True)
class HftCheck:
    """Finite-difference slope of W against the position expectation value."""

    dW_dnu: float
    r_expectation: float
    discrepancy: float


def solve_spectrum(problem: ReducedProblem, levels: int = 3) -> list[EigenState]:
    """Lowest ``levels`` eigenstates at (l, nu), sampled on the QUAD_NODES-node
    Gauss-Legendre rule over the basis window widened by 4 at each end.

    Raises :class:`NotConverged` if a Ritz shift reaches the tolerance, the
    basis is off orthonormal by GRAM_TOL or anything is non-finite;
    :class:`DomainTooSmall` if the sampled ground state at the last node is
    not below TAIL_RATIO of its peak over the rule; and :class:`SolverError`
    if a state's norm on the rule is off 1 (exact on the quadrature) by more
    than GRAM_TOL, as when the rule misses it.
    """
    s, c = abs(problem.l), _shift(problem.nu)
    _check_levels(levels)
    W, shift, K = _eigensolve(problem, levels, c)
    alpha, beta, A0, J, _ = _galerkin(s, c)
    V = np.linalg.eigh(A0[:K, :K] + problem.nu * J[:K, :K])[1][:, :len(W)]
    r, w = _rule(s, c)
    F = V.T @ _basis_values(s, c, alpha[:K], beta[:K], r)
    tail, peak = abs(F[0, -1]), np.max(np.abs(F[0]))
    if peak > 0 and not tail < TAIL_RATIO * peak:     # a rule of zeros fails the norm check
        raise DomainTooSmall(
            f"ground-state tail at r={r[-1]:g} is {tail / peak:.2e} of peak "
            f"(require < {TAIL_RATIO:g})")
    norm = F * F @ (w * r)
    off = np.max(np.abs(norm - 1))     # NaN if any norm is
    if not off <= GRAM_TOL:
        raise SolverError(f"the {r.size}-node rule to r={r[-1]:g} misses a "
                          f"state at {problem}: norm off 1 by {off:.2e}")
    F /= np.sqrt(norm)[:, None]
    F *= np.sign(F[np.arange(len(W)), np.argmax(np.abs(F), axis=1)])[:, None]
    return [EigenState(problem.l, problem.nu, j, W[j], shift[j], K, r, w, F[j])
            for j in range(len(W))]


def _check_levels(levels: int) -> None:
    if not hasattr(type(levels), "__index__") or levels < 1:     # what operator.index accepts
        raise ValueError(f"levels={levels!r} must be an integer >= 1")


def _eigensolve(problem: ReducedProblem, levels: int, c: float, rungs: Sequence[int] = RUNGS
                ) -> tuple[list[float], list[float], int]:
    """Eigenvalue stage of a solve, with every check on the Galerkin matrix: the lowest
    ``levels`` eigenvalues W and their Ritz shifts in the c basis, as lists, and the
    size K of the first of ``rungs`` whose leading K x K block passes the Ritz test
    against its leading K - CHECK_GAP. It computes no eigenvector and samples nothing."""
    l, nu = problem.l, problem.nu
    at = f"l={l}, nu={nu:g}, shift c={c:g}"
    _, _, A0, J, defect = _galerkin(abs(l), c)
    if levels > rungs[-1] - CHECK_GAP or not defect <= GRAM_TOL:
        raise NotConverged(f"basis cannot resolve {levels} levels at {at} "
                           f"(Gram defect {defect:.1e})")
    A = A0 + nu * J
    for K in [size for size in rungs if levels <= size - CHECK_GAP]:
        try:
            W = np.linalg.eigvalsh(A[:K, :K])[:levels]
            coarse = np.linalg.eigvalsh(A[:K - CHECK_GAP, :K - CHECK_GAP])[:levels]
        except np.linalg.LinAlgError as exc:
            raise NotConverged(f"Galerkin eigensolve failed at {at}: {exc}") from exc
        shift = np.abs(coarse - W)     # one-signed by interlacing, up to round-off
        tol = CONVERGENCE_TOL * np.maximum(1.0, np.abs(W))
        if np.all(shift < tol) and np.all(np.isfinite(W)):
            break
    else:
        raise NotConverged(f"Ritz shifts {shift} at {at} are not all below {tol}")
    if np.any(W[1:] <= W[:-1]):
        raise SolverError(f"eigenvalues not strictly ordered at {at}")
    return W.tolist(), shift.tolist(), K


def eigenvalues(problems: Sequence[ReducedProblem], levels: Sequence[int]) -> list[list[float]]:
    """The lowest ``levels[k]`` eigenvalues of each ``problems[k]``, from the eigenvalue
    stage with all its checks. The distinct bases of each run of problems are built
    first, as one stack of at most STACK_SIZE, and the run is solved before the next
    is built, so none is evicted before it is used."""
    if len(levels) != len(problems):
        raise ValueError(f"{len(levels)} level counts for {len(problems)} problems")
    for n in levels:
        _check_levels(n)
    keys = [(abs(p.l), _shift(p.nu)) for p in problems]
    Ws, start = [], 0
    while start < len(keys):
        run, stop = {}, start
        while stop < len(keys) and (keys[stop] in run or len(run) < STACK_SIZE):
            run[keys[stop]] = None
            stop += 1
        _cache(list(run))
        Ws += [_eigensolve(problems[k], levels[k], keys[k][1])[0] for k in range(start, stop)]
        start = stop
    return Ws


def expectation_r(state: EigenState) -> float:
    """<r> = int r |F|^2 r dr as sum w r^2 F^2 on the state's Gauss-Legendre rule."""
    val = float(state.F ** 2 @ (state.w * state.r ** 2))
    if val <= 0:
        raise SolverError("nonpositive <r>; eigenfunction is invalid")
    return val


def hft_check(problem: ReducedProblem, j: int) -> HftCheck:
    """Check dW_j/dnu = <r> at the given problem point.

    The slope is the central difference of eigenvalues over nu +- HFT_DELTA;
    <r> is the Gauss-Legendre sum over the eigenfunction sampled at nu itself,
    on nodes that did not build J, so the two sides are independent. All three
    solves use the middle one's shift and block. For integer nu in -3..12,
    j <= 2: <= 9.2e-9 for l = 0, 1.8e-9 for l = 1..3, the central difference's
    own error.
    """
    if j < 0:
        raise ValueError(f"branch j={j} must be >= 0")
    mid = solve_spectrum(problem, j + 1)
    # one basis and one block for all three solves; the slope must not see a jump
    c, rung = _shift(problem.nu), (mid[j].basis_size,)
    lo, hi = (_eigensolve(ReducedProblem(problem.l, problem.nu + d), j + 1, c, rung)[0][j]
              for d in (-HFT_DELTA, HFT_DELTA))
    slope = (hi - lo) / (2 * HFT_DELTA)
    rexp = expectation_r(mid[j])
    return HftCheck(dW_dnu=slope, r_expectation=rexp,
                    discrepancy=abs(slope - rexp))


def curve_scan(l: int, branches: int, nu_grid: Sequence[float]) -> list[SpectralCurve]:
    """Sample branches j < branches over a strictly increasing nu grid.

    Eigenvalues at each nu come from :func:`eigenvalues`, and are indexed by
    sorted order; branches of a fixed l never cross. Nothing is sampled.
    Raises :class:`MonotonicityViolation` if any branch fails to increase.
    """
    nu_grid = [float(v) for v in nu_grid]
    if any(b <= a for a, b in zip(nu_grid, nu_grid[1:])):
        raise ValueError("nu_grid must be strictly increasing")
    levels = eigenvalues([ReducedProblem(l, nu) for nu in nu_grid], [branches] * len(nu_grid))
    curves = []
    for j in range(branches):
        W = [Ws[j] for Ws in levels]
        for (na, wa), (nb, wb) in zip(zip(nu_grid, W), zip(nu_grid[1:], W[1:])):
            if wb <= wa:
                raise MonotonicityViolation(
                    f"branch j={j}, l={l} fell from W={wa!r} at nu={na!r} "
                    f"to W={wb!r} at nu={nb!r}")
        curves.append(SpectralCurve(l=l, j=j, nu=tuple(nu_grid), W=tuple(W)))
    return curves
