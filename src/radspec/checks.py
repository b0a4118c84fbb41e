"""The paper's checkable invariants, one function each.

`radspec verify` and the acceptance tests call these same functions, so no
invariant is implemented twice. Each returns a :class:`Check` that passes
when its measured ``value <= tol`` and is finite. A structural breach measures
as ``math.inf``, so no tolerance, not even an infinite one, excuses it: roots
not paired as +-r with a zero root iff n is even, a nonpositive slope or
``<r>``, or a truncation point nearer to another branch than i-1.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import match_truncation_to_curves, truncation_point_set
from .frobenius import ode_residual, polynomial_solution, root_isolation
from .spectrum import ReducedProblem, hft_check

RESIDUAL_RADII = tuple(float(r) for r in np.linspace(0.1, 10.0, 100))


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tol: float
    detail: str

    @property
    def passed(self) -> bool:
        return self.value <= self.tol and self.value < math.inf

    @property
    def margin(self) -> float:
        """value / tol: at most 1 passes; nan for a zero tolerance."""
        return self.value / self.tol if self.tol else math.nan


def parabola(l: int, n_max: int, tol: float) -> Check:
    """Worst |W + nu^2/4 - 2(n+|l|+1)| over every truncation root, n <= n_max."""
    sols = truncation_point_set(n_max, n_max + 1, l)     # ValueError if n_max < 0
    worst = max(abs(s.W + s.nu_root ** 2 / 4 - 2 * (s.n + abs(l) + 1)) for s in sols)
    return Check(f"parabola l={l}", worst, tol, f"{len(sols)} roots, n<={n_max}")


def parity(l: int, n_max: int, tol: float) -> Check:
    """Worst |r + r'| / (1 + |r|) over mirrored root pairs, n <= n_max (ValueError if < 0)."""
    if n_max < 0:
        raise ValueError(f"n_max={n_max}: a parity check over no order proves nothing")
    worst = 0.0
    for n in range(n_max + 1):
        roots = root_isolation(n, l)
        paired = sum(r > 0 for r in roots) == sum(r < 0 for r in roots)
        if not paired or (0.0 in roots) != (n % 2 == 0):
            return Check(f"parity l={l}", math.inf, tol, f"roots not paired as +-r at n={n}")
        worst = max([worst] + [abs(r + m) / (1 + abs(r))
                               for r, m in zip(roots, roots[::-1])])
    return Check(f"parity l={l}", worst, tol, f"n<={n_max}")


def residual(l: int, targets: Sequence[tuple[int, int]], tol: float) -> Check:
    """Worst exact relative ODE residual of solutions (n, i) at RESIDUAL_RADII.

    Raises ValueError on empty ``targets``: a check over nothing proves nothing.
    """
    if not targets:
        raise ValueError("residual check needs at least one (n, i) target")
    worst, where = 0.0, None
    for n, i in targets:
        sol = polynomial_solution(n, i, l)
        for r in RESIDUAL_RADII:
            res = abs(ode_residual(sol, r, relative=True))
            if res > worst:
                worst, where = res, (n, i, r)
    return Check(f"residual l={l}", worst, tol,
                 f"{len(targets)} solutions, worst at (n,i,r)={where}")


def hft(l: int, nu: float, j: int, tol: float) -> Check:
    """|dW_j/dnu - <r>_j| at (l, nu); inf unless both sides are positive."""
    res = hft_check(ReducedProblem(l, nu), j)
    value = res.discrepancy if res.dW_dnu > 0 and res.r_expectation > 0 else math.inf
    return Check(f"hft l={l} nu={nu:g} j={j}", value, tol,
                 f"dW/dnu={res.dW_dnu:.7f} <r>={res.r_expectation:.7f}")


def match(l: int, n_max: int, i_max: int, tol: float) -> Check:
    """Worst distance of a truncation point to branch i-1; inf if nearer another."""
    results = match_truncation_to_curves(truncation_point_set(n_max, i_max, l)).results
    off = [r for r in results if r.matched_branch != r.i - 1]
    if off:
        return Check(f"match l={l}", math.inf, tol, f"{len(off)} points off branch i-1, "
                     f"first at (n={off[0].n}, i={off[0].i}, nu={off[0].nu:.6f})")
    worst = max(r.distance for r in results)
    return Check(f"match l={l}", worst, tol, f"{len(results)} points on branch i-1")
