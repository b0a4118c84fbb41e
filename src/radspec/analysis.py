"""Cross-validation of the two spectral routes, fits, and physical maps.

The truncation route yields isolated points (nu_{n,i,l}, W_l^(n,i)) that
all lie on inverted parabolas W = 2(n+s+1) - nu^2/4, which decrease with
nu and so cannot be eigenvalue curves (dW/dnu = <r> > 0 for any true
branch). This module matches every truncation point onto the numeric
branch ladder, regenerates the constrained cubic fits of the three lowest
l=0 branches, compares them against previously published coefficients,
and maps the reduced pair (nu, W) back to physical parameters
(m, a, theta, varpi, l) to show the physical energy is a continuous
function of the cyclotron frequency, with no privileged values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frobenius import TruncationSolution, polynomial_solution
from .spectrum import ReducedProblem, curve_scan, eigenvalues

__all__ = [
    "PhysicalParams",
    "FitModel",
    "MatchResult",
    "MatchReport",
    "ContinuityRow",
    "ContinuityTable",
    "DegenerateFit",
    "InvalidAlpha",
    "InvalidMass",
    "PUBLISHED_CUBICS",
    "truncation_point_set",
    "match_truncation_to_curves",
    "branch_fit_points",
    "fit_cubic",
    "compare_fit_to_published",
    "map_W_to_E",
    "map_physical_to_nu",
    "continuity_demonstration",
]

# previously published least-squares cubics for the three lowest l=0
# branches, as (intercept, b1, b2, b3); cross-check targets only
PUBLISHED_CUBICS: dict[int, tuple[float, float, float, float]] = {
    0: (2.0, 0.8523002844, -0.02975046592, 0.0008706577439),
    1: (6.0, 1.547791990, -0.04202730246, 0.001218822726),
    2: (10.0, 2.010156364, -0.04562156939, 0.001269456909),
}


class DegenerateFit(ValueError):
    """Too few points or a singular design for the constrained cubic."""


class InvalidAlpha(ValueError):
    """theta^2 + 4 varpi theta <= 0: the reduction to (nu, W) is undefined."""


class InvalidMass(ValueError):
    """Nonpositive mass."""


@dataclass(frozen=True)
class PhysicalParams:
    """Physical parameters (m, a, theta, varpi, l) of the planar model.

    theta is the cyclotron frequency, varpi the rotating-frame angular
    velocity, a the linear-potential strength. Validity requires finite
    m, a, theta and varpi, m > 0 and alpha^2 = theta^2 + 4 varpi theta > 0.
    """

    m: float
    a: float
    theta: float
    varpi: float
    l: int

    def __post_init__(self):
        for name in ("m", "a", "theta", "varpi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} must be finite")
        if self.m <= 0:
            raise InvalidMass(f"m={self.m} must be positive")
        if self.alpha_sq <= 0:
            raise InvalidAlpha(
                f"theta^2 + 4*varpi*theta = {self.alpha_sq!r} must be positive "
                f"(theta={self.theta}, varpi={self.varpi})")

    @property
    def alpha_sq(self) -> float:
        return self.theta ** 2 + 4 * self.varpi * self.theta

    @property
    def alpha(self) -> float:
        return math.sqrt(self.alpha_sq)


@dataclass(frozen=True)
class FitModel:
    """Constrained cubic W ~ intercept + b1 nu + b2 nu^2 + b3 nu^3."""

    j: int
    l: int
    intercept: float
    coefficients: tuple[float, float, float]
    fit_domain: tuple[float, float]
    rms_residual: float

    def predict(self, nu):
        b1, b2, b3 = self.coefficients
        return self.intercept + nu * (b1 + nu * (b2 + nu * b3))


@dataclass(frozen=True)
class MatchResult:
    n: int
    i: int
    l: int
    nu: float
    W_truncation: float
    matched_branch: int
    distance: float


@dataclass(frozen=True)
class MatchReport:
    """Nearest branch and eigenvalue distance of each truncation point; the verdict
    (branch i - 1, distance within tolerance) is :func:`radspec.checks.match`."""

    results: tuple[MatchResult, ...]


@dataclass(frozen=True)
class ContinuityRow:
    nu: float
    W: float
    nearest_root: float | None
    coincident: bool


@dataclass(frozen=True)
class ContinuityTable:
    """Branch samples annotated with coinciding truncation abscissae."""

    l: int
    j: int
    rows: tuple[ContinuityRow, ...]

    @property
    def coincident_count(self) -> int:
        return sum(r.coincident for r in self.rows)


def truncation_point_set(n_max: int, i_max: int, l: int) -> list[TruncationSolution]:
    """All truncation solutions with n <= n_max and i <= min(n+1, i_max)."""
    if n_max < 0 or i_max < 1:
        raise ValueError(f"need n_max >= 0 and i_max >= 1, got ({n_max}, {i_max})")
    return [polynomial_solution(n, i, l)
            for n in range(n_max + 1) for i in range(1, min(n + 1, i_max) + 1)]


def match_truncation_to_curves(points: Sequence[TruncationSolution]) -> MatchReport:
    """Nearest numeric branch of each truncation point and its distance; no verdict.

    Solves the spectrum at each point's root with branches up to j = i
    (one above the expected match, enough to certify nearness since
    adjacent branches are ~4 apart while matches land within ~1e-11).
    """
    results = []
    Ws = eigenvalues([ReducedProblem(pt.l, pt.nu_root) for pt in points],
                     [pt.i + 1 for pt in points])
    for pt, W in zip(points, Ws):
        dists = [abs(w - pt.W) for w in W]
        nearest = int(np.argmin(dists))
        results.append(MatchResult(
            n=pt.n, i=pt.i, l=pt.l, nu=pt.nu_root, W_truncation=pt.W,
            matched_branch=nearest, distance=dists[nearest]))
    return MatchReport(results=tuple(results))


def branch_fit_points(l: int, j: int, n_max: int = 22) -> list[tuple[float, float]]:
    """Truncation points feeding the branch-j fit: i = j+1, nu >= 0."""
    return sorted((pt.nu_root, pt.W) for pt in truncation_point_set(n_max, j + 1, l)
                  if pt.i == j + 1 and pt.nu_root >= 0)


def fit_cubic(points: Sequence[tuple[float, float]], fixed_intercept: float,
              *, branch: int, l: int) -> FitModel:
    """Least-squares cubic through (nu, W) points with the intercept pinned.

    Solves for (b1, b2, b3) in W - intercept = b1 nu + b2 nu^2 + b3 nu^3.
    Raises :class:`DegenerateFit` for fewer than 4 points or a rank-deficient
    design (e.g. repeated nu values).
    """
    if len(points) < 4:
        raise DegenerateFit(f"need at least 4 points, got {len(points)}")
    nu = np.asarray([p[0] for p in points], dtype=float)
    W = np.asarray([p[1] for p in points], dtype=float)
    X = np.column_stack([nu, nu ** 2, nu ** 3])
    b, _, rank, _ = np.linalg.lstsq(X, W - fixed_intercept, rcond=None)
    if rank < 3:
        raise DegenerateFit("singular design: nu values do not span a cubic")
    resid = W - fixed_intercept - X @ b
    return FitModel(
        j=branch, l=l, intercept=float(fixed_intercept),
        coefficients=tuple(float(v) for v in b),
        fit_domain=(float(nu.min()), float(nu.max())),
        rms_residual=float(np.sqrt(np.mean(resid ** 2))))


def compare_fit_to_published(fit: FitModel) -> float:
    """Max |fit - published cubic| on 201 equally spaced nu over ``fit.fit_domain``."""
    if fit.l != 0 or fit.j not in PUBLISHED_CUBICS:
        raise ValueError(f"no published cubic for l={fit.l}, branch {fit.j}")
    c0, b1, b2, b3 = PUBLISHED_CUBICS[fit.j]
    nu = np.linspace(*fit.fit_domain, 201)
    published = c0 + nu * (b1 + nu * (b2 + nu * b3))
    return float(np.max(np.abs(fit.predict(nu) - published)))


def map_W_to_E(W: float, p: PhysicalParams) -> float:
    """Physical energy from the reduced eigenvalue: E = alpha W/4 - theta l/2 - l varpi."""
    if not math.isfinite(W):
        raise ValueError(f"W={W} must be finite")
    return p.alpha * W / 4 - p.theta * p.l / 2 - p.l * p.varpi


def map_physical_to_nu(p: PhysicalParams) -> float:
    """Reduced coupling nu = 2^(5/2) a / sqrt(m alpha^3); sign follows a."""
    return 2 ** 2.5 * p.a / math.sqrt(p.m * p.alpha ** 3)


def continuity_demonstration(l: int, j: int, nu_interval: tuple[float, float],
                             samples: int) -> ContinuityTable:
    """Sample branch j across an interval and flag truncation abscissae.

    Eigenvalues exist at every sampled nu; a row is marked coincident only
    when its nu lies within 1e-9 (1 + |nu|) of some truncation root with
    n <= 22, i <= 3. Away from those isolated abscissae the truncation
    route has no solution at all, yet the branch is there.
    """
    lo, hi = nu_interval
    if not lo < hi:
        raise ValueError(f"empty interval {nu_interval}")
    if samples < 2:
        raise ValueError(f"samples={samples} must be >= 2")
    grid = np.linspace(lo, hi, samples)
    curve = curve_scan(l, j + 1, grid)[j]
    roots = sorted({pt.nu_root for pt in truncation_point_set(22, 3, l)})
    rows = []
    for nu, W in curve.samples:
        nearest = min(roots, key=lambda r: abs(r - nu)) if roots else None
        coincident = nearest is not None and abs(nearest - nu) <= 1e-9 * (1 + abs(nu))
        rows.append(ContinuityRow(nu=float(nu), W=float(W),
                                  nearest_root=nearest, coincident=coincident))
    return ContinuityTable(l=l, j=j, rows=tuple(rows))
