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
scale; run at an exact root mu, it yields each series coefficient there over
its own denominator in O(n) integer steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
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
class TruncationSolution:
    """One isolated polynomial solution of the radial equation.

    The record is (n, i, l, mu): i is 1-based over the n+1 roots in decreasing nu,
    and ``mu`` is the exact nu^2 at the root, dyadic for every solver record. Set
    once from it: ``nu_root`` = +sqrt(float(mu)) for i <= n//2 + 1 (+0.0 at the
    middle root of an even n) and -sqrt(float(mu)) after; ``W`` = 2(n+s+1) - mu/4
    and ``coeffs`` c_0..c_n = d_j(mu) (times nu_root for odd j), each rounded
    once. So ``dataclasses.replace(sol, mu=x)`` re-derives them at x, and they
    cannot be replaced themselves.
    """

    n: int
    i: int
    l: int
    nu_root: float = field(init=False)
    W: float = field(init=False)
    coeffs: tuple[float, ...] = field(init=False)
    mu: Fraction = field(repr=False)

    def __post_init__(self) -> None:
        n, i, s, p, q = self.n, self.i, self.s, self.mu.numerator, self.mu.denominator
        if n < 0 or p < 0:
            raise ValueError(f"truncation order n={n} and root mu={self.mu} must be >= 0")
        if not 1 <= i <= n + 1:
            raise IndexOutOfRange(f"root index i={i} outside 1..{n + 1} for n={n}, l={self.l}")
        nu, d = _signed_root(n, i, self.mu), _series_at_root(n, s, p, q)[2]
        object.__setattr__(self, "nu_root", nu)
        object.__setattr__(self, "W", (8 * (n + s + 1) * q - p) / (4 * q))
        object.__setattr__(self, "coeffs", tuple([dj * nu if j % 2 else dj
                                                  for j, dj in enumerate(d[: n + 1])]))

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


def cnp1_polynomial(n: int, l: int) -> tuple[Fraction, ...]:
    """Exact truncation polynomial c_{n+1}(nu), normalized to c_0 = 1, for order n
    and momentum l, as ascending coefficients of nu.

    Built by running the recurrence symbolically in mu = nu^2 with the
    eigenvalue eliminated through W = 2(n+s+1) - nu^2/4, so each B_j
    collapses to the nu-independent rational 2(j-n) / ((j+2)(j+2(s+1))),
    then spread back over the powers of nu. The result has degree exactly
    n+1, parity (-1)^(n+1) (alternate entries are zero), and a positive
    leading coefficient. Depends on l only through s = |l|.
    """
    Q, E = _reduced_polynomial(n, abs(l))
    coeffs = [Fraction(0)] * (n + 2)
    coeffs[(n + 1) % 2::2] = (Fraction(c, E) for c in Q)
    return tuple(coeffs)


def _jacobi_seeds(n: int, s: int, count: int) -> list[float]:
    # squares of the `count` largest eigenvalues of the Jacobi matrix of c_{n+1},
    # off-diagonal sqrt(-B_k D_{k-1} / (A_k A_{k-1})): float seeds in mu, increasing
    steps = _integer_steps(n, s)[: n + 1]
    off = [math.sqrt(-B * D_prev / (A * A_prev))
           for (A_prev, _, D_prev, _), (A, B, _, _) in zip(steps, steps[1:])]
    eigenvalues = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    return [float(lam) ** 2 for lam in eigenvalues[n + 1 - count:]]


def _signed_root(n: int, i: int, mu: Fraction) -> float:
    # nu at the i-th of the n+1 roots in decreasing order: + up to the middle one
    return math.sqrt(float(mu)) if i <= n // 2 + 1 else -math.sqrt(float(mu))


@lru_cache(maxsize=None)
def _root_data(n: int, s: int) -> tuple[Fraction, ...]:
    """The exact mu = nu^2 of all n+1 roots in decreasing nu, each certified by an
    exact sign change.

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

    return (*reversed(positives), *[Fraction(0)] * ((n + 1) % 2), *positives)


def root_isolation(n: int, l: int) -> tuple[float, ...]:
    """All n+1 roots of c_{n+1}(nu), real and strictly decreasing.

    Each is certified by an exact sign change over its own disjoint bracket.
    Raises RootRefinementFailure if any root fails to certify.
    """
    return tuple(_signed_root(n, i, mu) for i, mu in enumerate(_root_data(n, abs(l)), 1))


@lru_cache(maxsize=None)
def _series_at_root(n: int, s: int, p: int,
                    q: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
    """(N, ratios, d) at the exact root mu = p/q, j = 0..n+2: d_j = N_j / E_j with
    E_0 = 1 and E_{j+1} = E_j ratios_j (ratios_{j+1} = D_j, times q for even j),
    and each d_j rounded to float once from its own E_j; c_j = d_j nu^(j mod 2).
    Only the exact residual puts the N_j over one denominator."""
    nums, ratios, ratio = [0, 1], [], 1          # d_{-1}, d_0 over E_j; E_{j+1} / E_j
    d, E = [1.0], 1
    for A, B, D, even in _integer_steps(n, s):
        mp, mq = (p, q) if even else (1, 1)
        nums.append(A * mp * nums[-1] + B * mq * ratio * nums[-2])
        ratio = D * mq
        ratios.append(ratio)
        E *= ratio
        d.append(nums[-1] / E)
    return tuple(nums[1:]), tuple(ratios), tuple(d)


def polynomial_solution(n: int, i: int, l: int) -> TruncationSolution:
    """Full solution record for the i-th root (1-based, decreasing nu).

    The record derives its floats from the exact refined root. The closure
    conditions c_{n+1} = c_{n+2} = 0 of the series there are verified to 1e-10
    relative to max |c_j|, and c_n must not vanish.
    """
    mus = _root_data(n, abs(l))        # the record rejects an i outside 1..n+1
    sol = TruncationSolution(n, i, l, mus[i - 1] if 0 < i <= n + 1 else Fraction(0))
    d = _series_at_root(n, sol.s, sol.mu.numerator, sol.mu.denominator)[2]
    c1, c2 = [d[j] * sol.nu_root if j % 2 else d[j] for j in (n + 1, n + 2)]
    scale = max(map(abs, sol.coeffs))
    if abs(c1) > CLOSURE_TOL * scale or abs(c2) > CLOSURE_TOL * scale:
        raise RootRefinementFailure(
            f"closure failed at n={n}, i={i}, l={l}: c_{n+1}={c1:.3e}, c_{n+2}={c2:.3e}")
    if sol.coeffs[n] == 0:
        raise RootRefinementFailure(f"degenerate solution: c_n = 0 at n={n}, i={i}, l={l}")
    return sol


@lru_cache(maxsize=None)
def _residual_setup(n: int, s: int, p: int, q: int, negative: bool
                    ) -> tuple[int, int, int, int, int, tuple[int, ...], tuple[int, ...]]:
    """(h, Wn, w, T, den, N, rho) at mu = p/q and the sign of nu: nu = h / 2^160,
    W = Wn / 2^w, c_j = N_j / den, and rho_k / (den 2^T) is the r^k coefficient
    of L[P]; N and rho descend, as Horner reads them. ValueError unless mu is
    dyadic."""
    if q & (q - 1):
        raise ValueError(f"mu={p}/{q} must be a dyadic rational")
    h = math.isqrt((p << 320) // q) * (-1 if negative else 1)
    w = q.bit_length() + 1                       # 4q = 2^w
    nums, ratios, _ = _series_at_root(n, s, p, q)
    D, up = [nums[n]], 1                         # D_j = nums_j E_n / E_j = d_j E_n, by
    for num, ratio in zip(reversed(nums[:n]), reversed(ratios[:n])):
        up *= ratio                              # suffix products: no big division
        D.append(num * up)
    D.reverse()
    # c_j = D_j / E_n, or D_j h / (E_n 2^160) for odd j, less the power of two that
    # every numerator shares; c_0 = 1, so N_0 is the denominator
    N = [Dj * h if j % 2 else Dj << 160 for j, Dj in enumerate(D)]
    z = min((Nj & -Nj).bit_length() for Nj in N if Nj) - 1
    N = [Nj >> z for Nj in N]
    # L[r^j] = j(j+2s) r^(j-1) - nu(j+s+1/2) r^j + (E' - 2j) r^(j+1), with
    # E' = W - 2(s+1) + nu^2/4 = 2n - p/2^w + h^2/2^322 = Ep / 2^T
    T = max(w, 322)
    Ep = ((8 * n * q - p) << T - w) + (h * h << T - 322)
    c = [0, *N, 0, 0]                            # c_{-1} = c_{n+1} = c_{n+2} = 0
    rho = [((k + 1) * (k + 2 * s + 1) * c[k + 2] << T)
           - ((2 * k + 2 * s + 1) * h * c[k + 1] << T - 161)
           + (Ep - (2 * k - 2 << T)) * c[k] for k in range(n + 2)]
    return h, 8 * (n + s + 1) * q - p, w, T, N[0], tuple(N[::-1]), tuple(rho[::-1])


def ode_residual(sol: TruncationSolution, r: float, relative: bool = False) -> float:
    """Residual of the radial equation at r, exact and rounded once.

    With F = r^s e^phi P, phi = -r^2/2 - nu r/2, the six equation terms over
    e^phi, G'' + 2G'phi' + G(phi'^2 - 1), (G' + G phi')/r, -l^2 G/r^2, -r^2 G,
    -nu r G and W G with G = r^s P, sum to r^(s-1) L[P](r), where L[r^j] =
    j(j+2s) r^(j-1) - nu(j+s+1/2) r^j + (E' - 2j) r^(j+1), E' = W - 2(s+1) +
    nu^2/4. One Horner pass over the coefficients of L[P], built once per record
    by `_residual_setup`, gives the sum. With ``relative`` it is scaled by the
    largest term: P and P' give the last five, and the first is the sum minus
    those. Every value is an integer over a closed-form denominator, so the sum
    and the scale are rounded once each.

    r is dyadic, and so must be the record's root ``mu``: W and the c_j are
    exact at mu, and nu = +/-isqrt(mu 2^320) / 2^160 is signed as nu_root
    (the float coefficients alone would cost ~1e-4 of relative residual at the
    most negative high-order roots). The setup is cached on (n, s, mu) and the
    sign. ValueError unless mu is dyadic.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"r={r} must be finite and > 0")
    s, n = sol.s, sol.n
    h, Wn, w, T, den, N, rho = _residual_setup(n, s, sol.mu.numerator, sol.mu.denominator,
                                               sol.nu_root < 0)
    X, x_den = r.as_integer_ratio()
    e = x_den.bit_length() - 1                      # r = X / 2^e
    R = 0                                           # den 2^(T + e(n+1)) L[P](r)
    for k, rk in enumerate(rho):
        R = R * X + (rk << e * k)
    # the sum r^(s-1) L[P](r)
    resid = R * X ** max(s - 1, 0) / (den * X ** max(1 - s, 0) << T + e * (n + s))
    if not relative:
        return resid * math.exp(-r * r / 2 - sol.nu_root * r / 2)
    A0 = A1 = 0                                     # den 2^(e n) (P, P')
    for k, num in enumerate(N):
        A1 = A1 * X + (A0 << e)
        A0 = A0 * X + (num << e * k)
    # the terms over r^(s-2) den 2^(e n + M), with nu = h/2^160, W = Wn/2^w and
    # phi' = -r - nu/2; each small factor multiplies first, then the shift
    M = max(4 * e, 3 * e + 160, 2 * e + T)
    XA0 = X * A0
    X2A0 = X * XA0
    # t1..t6 in the docstring's order; u = -t for the three the equation subtracts
    sA0 = s * A0 << M
    t2 = sA0 + (X * A1 << M - e) - (X2A0 << M - 2 * e) - (h * XA0 << M - e - 161)
    u3 = s * sA0
    u4 = X * X * X2A0 << M - 4 * e
    u5 = h * X * X2A0 << M - 3 * e - 160
    t6 = Wn * X2A0 << M - 2 * e - w
    t1 = (X * R << M - T - 2 * e) - t2 + u3 + u4 + u5 - t6
    scale = (max(abs(t1), abs(t2), abs(u3), abs(u4), abs(u5), abs(t6)) * X ** max(s - 2, 0)
             / (den * X ** max(2 - s, 0) << e * (n + s - 2) + M))
    return resid / scale if scale else 0.0
