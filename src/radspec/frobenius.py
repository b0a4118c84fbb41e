"""Series-truncation route to the radial eigenproblem.

The problem is the radial equation

    F''(r) + F'(r)/r - (l^2/r^2) F - r^2 F - nu r F + W F = 0,

an isotropic oscillator in two dimensions with an extra linear coupling
nu*r, eigenvalue W, and angular momentum l (only s = |l| enters). The
substitution

    F(r) = r^s exp(-r^2/2 - nu r/2) * sum_j c_j r^j

turns the equation into a three-term recurrence for the c_j. Forcing the
series to terminate at order n (c_n != 0, c_{n+1} = c_{n+2} = 0) pins the
eigenvalue to W = 2(n+s+1) - nu^2/4 and turns c_{n+1} into a polynomial of
degree n+1 in nu whose roots nu_{n,i,l} are the only couplings at which an
order-n polynomial solution exists. Those isolated solutions are exact but
they are not a spectrum: sweeping nu, each of them sits on a continuous
eigenvalue branch computed independently in :mod:`radspec.spectrum`.

With W eliminated the recurrence reads c_{j+2} = nu a_j c_{j+1} + b_j c_j,
with a_j > 0 and b_j < 0 for j < n. Rescaled to monic form, c_{n+1} is the
characteristic polynomial of a symmetric tridiagonal (Jacobi) matrix with
zero diagonal and off-diagonal entries sqrt(-b_{k-1} / (a_{k-1} a_{k-2})),
k = 1..n, so by Favard's theorem its n+1 roots are real, simple and
symmetric about 0. The roots are seeded from that matrix's eigenvalues
(Golub & Welsch 1969) and each is certified by an exact sign change of the
truncation polynomial. As c_j has the parity of j, c_j = d_j nu^(j mod 2)
with d_{j+2} = a_j m_j d_{j+1} + b_j d_j in mu = nu^2 (m_j = mu for even j,
1 for odd j). That one recurrence, multiplied through by its denominators and
run over integers, yields the reduced truncation polynomial d_{n+1}(mu) over one
scale; run at an exact root mu, it yields the series coefficients there over
one denominator in O(n) integer steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "ReducedProblem",
    "TruncationPolynomial",
    "TruncationSolution",
    "RootRefinementFailure",
    "IndexOutOfRange",
    "truncation_energy",
    "cnp1_polynomial",
    "root_isolation",
    "polynomial_solution",
    "ode_residual",
]

# Width of the final grid cell in nu^2, relative to each root (and never
# wider than this in absolute terms): a refined mu is within a factor
# 1 +/- ROOT_REL_TOL/2 of the true root. Far tighter than float64 needs: the
# leftover c_{n+1}(mu) enters the equation residual multiplied by r^n, so a
# 1e-13 root still shows ~1e-1 relative residual at the worst (n=10, i=11)
# point. 1e-25 buries that amplification below the 1e-8 residual contract
# only up to n ~ 15: the worst l=0 relative residual is 3.5e-11 at n=14 but
# 7.0e-8 at n=16. Higher orders need a cell that shrinks with n (ROADMAP item 2).
ROOT_REL_TOL = Fraction(1, 10**25)
CLOSURE_TOL = 1e-10                  # |c_{n+1}|, |c_{n+2}| relative to max |c_j|


class RootRefinementFailure(RuntimeError):
    """A truncation solution failed an exact check.

    A root did not certify (no disjoint sign-change bracket, or mu = 0 in the
    reduced polynomial), c_{n+1}, c_{n+2} missed the closure tolerance, or
    c_n vanished.
    """


class IndexOutOfRange(IndexError):
    """Root index i is outside 1..real_root_count."""


@dataclass(frozen=True)
class ReducedProblem:
    """Dimensionless problem instance: angular momentum l and coupling nu."""

    l: int
    nu: float

    @property
    def s(self) -> int:
        return abs(self.l)


@dataclass(frozen=True)
class TruncationPolynomial:
    """c_{n+1} as an exact polynomial in nu, normalized to c_0 = 1.

    ``coeffs`` holds ascending powers; the degree is exactly n+1 and the
    polynomial has parity (-1)^(n+1), so alternate entries are zero.
    """

    n: int
    l: int
    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class TruncationSolution:
    """One isolated polynomial solution of the radial equation.

    Index i is 1-based over roots in decreasing nu order. ``coeffs`` are
    c_0..c_n with c_0 = 1; the recurrence-extended c_{n+1}, c_{n+2} vanish
    at nu_root by construction.
    """

    n: int
    i: int
    l: int
    nu_root: float
    W: float
    coeffs: tuple[float, ...]
    # exact nu^2 at the refined root, a dyadic rational; ode_residual takes
    # the exact coefficients, W and a 2^-160 nu from it, not from the float
    # fields, whose rounding alone costs ~1e-4 of relative residual at the
    # most negative roots. None for hand-built records.
    _mu: Fraction | None = field(default=None, repr=False, compare=False)

    @property
    def s(self) -> int:
        return abs(self.l)


def truncation_energy(n: int, s: int, nu):
    """Eigenvalue forced by truncation at order n: W = 2(n+s+1) - nu^2/4."""
    return 2 * (n + s + 1) - nu * nu / 4


# ---------------------------------------------------------------------------
# truncation polynomial and its roots: one recurrence for d_j in mu = nu^2

@lru_cache(maxsize=None)
def _integer_steps(n: int, s: int) -> tuple[tuple[int, int, int, bool], ...]:
    # (A_j, B_j, D_j, j even) for j = -1..n: D_j d_{j+2} = A_j m_j d_{j+1} + B_j d_j
    # is the recurrence with W pinned by order-n truncation, times D_j; a tuple of
    # a list comprehension is built faster than one of a generator
    return tuple([(2 * j + 2 * s + 3, -4 * (n - j), 2 * (j + 2) * (j + 2 * s + 2), j % 2 == 0)
                  for j in range(-1, n + 1)])


@lru_cache(maxsize=None)
def _reduced_polynomial(n: int, s: int) -> tuple[tuple[int, ...], int]:
    """(Q, E): c_{n+1} = d_{n+1}(nu^2) nu^((n+1) mod 2), d_{n+1} = Q(mu) / E, E > 0.

    Q holds ascending integer coefficients; d_j is kept over E_j = D_{j-2} E_{j-1}.
    """
    if n < 0:
        raise ValueError(f"truncation order n={n} must be >= 0")
    prev, cur, E, D_prev = [], [1], 1, 1                      # d_{-1} = 0, d_0 = 1/1
    for A, B, D, even in _integer_steps(n, s)[: n + 1]:
        nxt = ([0] if even else []) + [A * c for c in cur]
        for k, c in enumerate(prev):
            nxt[k] += B * D_prev * c
        prev, cur, E, D_prev = cur, nxt, E * D, D
    return tuple(cur), E


def cnp1_polynomial(n: int, l: int) -> TruncationPolynomial:
    """Exact truncation polynomial c_{n+1}(nu) for order n and momentum l.

    Built by running the recurrence symbolically in mu = nu^2 with the
    eigenvalue eliminated through W = 2(n+s+1) - nu^2/4, so each B_j
    collapses to the nu-independent rational 2(j-n) / ((j+2)(j+2(s+1))),
    then spread back over the powers of nu. The result has degree exactly
    n+1, parity (-1)^(n+1), and a positive leading coefficient. Depends on
    l only through s = |l|.
    """
    Q, E = _reduced_polynomial(n, abs(l))
    coeffs = [Fraction(0)] * (n + 2)
    coeffs[(n + 1) % 2::2] = (Fraction(c, E) for c in Q)
    return TruncationPolynomial(n=n, l=l, coeffs=tuple(coeffs))


def _jacobi_seeds(n: int, s: int, count: int) -> list[float]:
    # squares of the `count` largest eigenvalues of the Jacobi matrix of c_{n+1},
    # off-diagonal sqrt(-B_k D_{k-1} / (A_k A_{k-1})): float seeds in mu, increasing
    steps = _integer_steps(n, s)[: n + 1]
    off = [math.sqrt(-B * D_prev / (A * A_prev))
           for (A_prev, _, D_prev, _), (A, B, _, _) in zip(steps, steps[1:])]
    eigenvalues = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    return [float(lam) ** 2 for lam in eigenvalues[n + 1 - count:]]


class _RootRecord(NamedTuple):
    nu: float
    mu: Fraction     # exact refined value of nu^2


@lru_cache(maxsize=None)
def _root_data(n: int, s: int) -> tuple[_RootRecord, ...]:
    """All n+1 roots in decreasing nu, each certified by an exact sign change.

    The positive roots mu = nu^2 of the reduced polynomial Q are bracketed on
    the dyadic grid around the Jacobi seeds: from 0 through the midpoints of
    neighbouring seeds to twice the last seed. The brackets are disjoint and
    there are deg(Q) of them, so a sign change across each holds its one root.
    Each is narrowed to one grid cell by integer Newton steps from its seed,
    guarded as rtsafe (Numerical Recipes 9.4): bisect unless the Newton point
    is inside the bracket and the step at least halves every two evaluations.
    The root stays in (lo, hi], so the cell is the one bisection ends in.
    """
    Q, _ = _reduced_polynomial(n, s)
    if Q[0] == 0:
        # a nu=0 root of multiplicity > parity cannot occur for a Jacobi
        # matrix, so treat it as a defect rather than guessing
        raise RootRefinementFailure(f"mu=0 root in reduced polynomial (n={n}, s={s})")

    d = len(Q) - 1
    mu_seeds = _jacobi_seeds(n, s, d)
    # refine on the dyadic grid m / 2^K with 2^-K <= ROOT_REL_TOL min(1, mu/2)
    # at the smallest seed mu: within tolerance relative to every root, with
    # a factor 2 to spare for the seed's float error. min(1, mu/2) = a / 2b,
    # and K is the bit length of ceil(1/cell) - 1.
    a, b = min([*mu_seeds, 2.0]).as_integer_ratio()
    K = ((2 * b * ROOT_REL_TOL.denominator - 1) // (a * ROOT_REL_TOL.numerator)).bit_length()
    # 2^(K d) Q(m / 2^K): an integer polynomial in m, descending
    scaled = [c << (K * (d - k)) for k, c in enumerate(Q)][::-1]

    def value_slope(m: int) -> tuple[int, int]:
        v = dv = 0
        for c in scaled:
            dv = dv * m + v
            v = v * m + c
        return v, dv

    seeds = [int(math.ldexp(mu, K)) for mu in mu_seeds]
    cuts = [0, *((a + b) // 2 for a, b in zip(seeds, seeds[1:]))]
    cuts += [2 * m for m in seeds[-1:]]          # no upper cut when there are no seeds
    signs = [(v > 0) - (v < 0) for v, _ in map(value_slope, cuts)]
    positives: list[Fraction] = []
    for seed, lo, hi, sign_lo, sign_hi in zip(seeds, cuts, cuts[1:], signs, signs[1:]):
        if not lo < hi or sign_lo * sign_hi >= 0:
            raise RootRefinementFailure(
                f"no certified root of c_{n + 1} for s={s} with nu^2 in "
                f"[{math.ldexp(lo, -K)}, {math.ldexp(hi, -K)}]")
        x = seed if lo < seed < hi else (lo + hi) // 2
        step = step_old = hi - lo
        budget = 2 * step.bit_length() + 4     # evaluations; s <= 2, n <= 40 take at most 16
        while hi - lo > 1:                 # keeps the root in (lo, hi]
            if (budget := budget - 1) < 0:
                raise RootRefinementFailure(f"refinement of the root of c_{n + 1} for s={s} "
                                            f"near nu^2 = {math.ldexp(x, -K)} does not converge")
            v, dv = value_slope(x)
            lo, hi = (x, hi) if v * sign_lo > 0 else (lo, x)
            newton = v // dv if dv else hi - lo    # in whole cells; dv = 0 bisects
            if abs(newton) <= 1:           # probe the neighbouring cell on the root's side
                nxt = x + 1 if x == lo else x - 1
            elif lo < x - newton < hi and 2 * abs(newton) <= abs(step_old):
                nxt = x - newton
            else:
                nxt = (lo + hi) // 2
            step_old, step, x = step, nxt - x, nxt
        positives.append(Fraction(lo + hi, 1 << (K + 1)))

    records = [_RootRecord(math.sqrt(float(mu)), mu) for mu in reversed(positives)]
    if (n + 1) % 2:
        records.append(_RootRecord(0.0, Fraction(0)))
    records.extend(_RootRecord(-math.sqrt(float(mu)), mu) for mu in positives)
    return tuple(records)


def root_isolation(n: int, l: int) -> tuple[float, ...]:
    """All n+1 roots of c_{n+1}(nu), real and strictly decreasing.

    Each is certified by an exact sign change over its own disjoint bracket.
    Raises RootRefinementFailure if any root fails to certify.
    """
    return tuple(rec.nu for rec in _root_data(n, abs(l)))


@lru_cache(maxsize=None)
def _series_at_root(n: int, s: int, p: int,
                    q: int) -> tuple[tuple[int, ...], int, tuple[float, ...]]:
    """(D, E, d): d_j = D_j / E, j = 0..n+2, at the exact root mu = p/q, and each
    d_j rounded to float once; c_j = d_j nu^(j mod 2).

    The recurrence keeps d_j over E_j, where E_{j+2} = E_{j+1} D_j (times q for
    even j). Each numerator is scaled to E = E_{n+2} by the suffix product of
    the step ratios E_{k+1} / E_k, k >= j, so no big division runs.
    """
    nums, ratios, ratio = [0, 1], [], 1          # d_{-1}, d_0 over E_j; E_{j+1} / E_j
    for A, B, D, even in _integer_steps(n, s):
        mp, mq = (p, q) if even else (1, 1)
        nums.append(A * mp * nums[-1] + B * mq * ratio * nums[-2])
        ratio = D * mq
        ratios.append(ratio)
    scaled, E = [nums[-1]], 1                    # D_j from j = n+2 down; E / E_j
    for num, ratio in zip(nums[-2:0:-1], reversed(ratios)):
        E *= ratio
        scaled.append(num * E)
    scaled.reverse()
    return tuple(scaled), E, tuple(Dj / E for Dj in scaled)


def polynomial_solution(n: int, i: int, l: int) -> TruncationSolution:
    """Full solution record for the i-th root (1-based, decreasing nu).

    Coefficients c_0..c_{n+2} come from one pass of the recurrence in
    mu = nu^2 at the exact refined root, as integers over one denominator,
    and are rounded to float last; the closure conditions c_{n+1} = c_{n+2} = 0
    are verified to 1e-10 relative to max |c_j|, and c_n must not vanish.
    """
    s = abs(l)
    records = _root_data(n, s)
    if not 1 <= i <= len(records):
        raise IndexOutOfRange(
            f"root index i={i} outside 1..{len(records)} for n={n}, l={l}")
    rec = records[i - 1]
    p, q = rec.mu.numerator, rec.mu.denominator
    _, _, d = _series_at_root(n, s, p, q)
    values = [dj * rec.nu if j % 2 else dj for j, dj in enumerate(d)]
    scale = max(map(abs, values[: n + 1]))
    if abs(values[n + 1]) > CLOSURE_TOL * scale or abs(values[n + 2]) > CLOSURE_TOL * scale:
        raise RootRefinementFailure(
            f"closure failed at n={n}, i={i}, l={l}: "
            f"c_{n+1}={values[n + 1]:.3e}, c_{n+2}={values[n + 2]:.3e}")
    if values[n] == 0:
        raise RootRefinementFailure(f"degenerate solution: c_n = 0 at n={n}, i={i}, l={l}")
    W = (8 * (n + s + 1) * q - p) / (4 * q)        # 2(n+s+1) - mu/4, rounded once
    return TruncationSolution(
        n=n, i=i, l=l, nu_root=rec.nu, W=W, coeffs=tuple(values[: n + 1]),
        _mu=rec.mu)


def ode_residual(sol: TruncationSolution, r: float, relative: bool = False) -> float:
    """Residual of the radial equation at r, from analytic derivatives.

    Writes F = G(r) E(r) with G = r^s P(r) and E the exponential factor and
    differentiates in closed form; the six equation terms G'' + 2G'phi +
    G(phi^2 - 1), (G' + G phi)/r, -l^2 G/r^2, -r^2 G, -nu r G and W G, with
    phi = -r - nu/2, are formed divided by E, summed, and multiplied by E
    once. Each term is an integer over one common denominator, so the sum is
    exact and rounded once. r and a hand-built record's float fields are
    dyadic rationals; a solver record gives W and the c_j exactly at its root
    mu, with nu = +/-isqrt(mu 2^320) / 2^160, so the closed-form denominator
    is 2^160 times that of `_series_at_root` (its float coefficients alone
    would cost ~1e-4 of relative residual at the most negative high-order
    roots). With ``relative`` the residual is scaled by the largest term.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"r={r} must be finite and > 0")
    s, n = sol.s, sol.n
    if sol._mu is None:
        fields = {"nu_root": sol.nu_root, "W": sol.W,
                  **{f"coeffs[{j}]": c for j, c in enumerate(sol.coeffs)}}
        for name, value in fields.items():
            if not math.isfinite(value):
                raise ValueError(f"hand-built solution has non-finite {name}={value}")
        (h, nu_den), (Wn, Wd) = sol.nu_root.as_integer_ratio(), sol.W.as_integer_ratio()
        ratios = [c.as_integer_ratio() for c in sol.coeffs]
        den = max(d for _, d in ratios)            # powers of two: their lcm
        N = [num << den.bit_length() - d.bit_length() for num, d in ratios]
    else:
        p, q = sol._mu.numerator, sol._mu.denominator
        h, nu_den = math.isqrt((p << 320) // q) * (1 if sol.nu_root >= 0 else -1), 1 << 160
        Wn, Wd = 8 * (n + s + 1) * q - p, 4 * q        # W = 2(n+s+1) - mu/4
        D, E, _ = _series_at_root(n, s, p, q)
        den = E << 160              # c_j = D_j / E, or D_j h / (E 2^160) for odd j
        N = [Dj * h if j % 2 else Dj << 160 for j, Dj in enumerate(D[: n + 1])]
    X, x_den = r.as_integer_ratio()
    # r = X/2^e, nu = h/2^b, W = Wn/2^w, phi = Phi/2^(e+b+1)
    e, b, w = x_den.bit_length() - 1, nu_den.bit_length() - 1, Wd.bit_length() - 1
    A0 = A1 = A2 = 0                    # den 2^(e n) (P, P', P'') by homogeneous Horner
    for k, num in enumerate(reversed(N)):
        A2 = A2 * X + (A1 << e + 1)
        A1 = A1 * X + (A0 << e)
        A0 = A0 * X + (num << e * k)
    g = X ** max(s - 2, 0)
    A0, A1, A2 = A0 * g, A1 * g, A2 * g
    # each term is r^(s-2) times a polynomial in r, phi, nu, W and P, P', P'';
    # those polynomials, scaled by 2^S, are integer combinations of A0, A1, A2
    S = 2 + 4 * e + 2 * b + w
    Phi = -((X << b + 1) + (h << e))
    X2, PhiX = X * X, Phi * X
    nums = (((s * (s - 1) << S) + (s * PhiX << S - 2 * e - b) + (PhiX * PhiX << w)
             - (X2 << S - 2 * e)) * A0
            + ((2 * s * X << S - e) + (PhiX * X << S - 3 * e - b)) * A1
            + (X2 << S - 2 * e) * A2,
            ((s << S) + (PhiX << S - 2 * e - b - 1)) * A0 + (X << S - e) * A1,
            -(sol.l ** 2 << S) * A0,
            -(X2 * X2 << S - 4 * e) * A0,
            -(h * X2 * X << S - b - 3 * e) * A0,
            (Wn * X2 << S - w - 2 * e) * A0)
    common = den * X ** max(2 - s, 0) << e * (len(N) - 1 + s - 2) + S
    resid = sum(nums) / common
    if relative:
        scale = max(map(abs, nums)) / common
        return resid / scale if scale else 0.0
    return resid * math.exp(-r * r / 2 - sol.nu_root * r / 2)
