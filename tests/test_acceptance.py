"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Each test enforces the stated tolerance (and runtime budget where one is
given) and prints a single line summarizing the measured quantity, so a
plain ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
"""

import csv
import io
import math
import random
import time

from click.testing import CliRunner

from radspec import checks
from radspec.analysis import (
    PUBLISHED_CUBICS,
    branch_fit_points,
    compare_fit_to_published,
    continuity_demonstration,
    fit_cubic,
)
from radspec.cli import main
from radspec.frobenius import polynomial_solution
from radspec.spectrum import ReducedProblem, solve_spectrum


def _report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} | {detail}"
    print(line)
    assert ok, line


def _summary(results):
    return max(c.value for c in results), all(c.passed for c in results)


def test_criterion_1_oscillator_limit():
    t0 = time.monotonic()
    res = CliRunner().invoke(main, ["spectrum", "--l", "0", "--branches", "3",
                                    "--nu", "0"])
    elapsed = time.monotonic() - t0
    rows = list(csv.reader(io.StringIO(res.output)))[1:]
    Ws = [float(r[3]) for r in rows]
    err = max(abs(w - t) for w, t in zip(Ws, (2.0, 6.0, 10.0)))
    ok = res.exit_code == 0 and len(Ws) == 3 and err <= 1e-7 and elapsed < 5.0
    _report(1, "oscillator limit", ok,
            f"W={[f'{w:.9f}' for w in Ws]} max err {err:.2e} (tol 1e-7), "
            f"{elapsed:.2f}s (budget 5s)")


def test_criterion_2_truncation_closed_form():
    t0 = time.monotonic()
    worst, passed = _summary([checks.parabola(l, 22, 1e-10) for l in (0, 1, 2)])
    elapsed = time.monotonic() - t0
    ok = passed and elapsed < 10.0
    _report(2, "truncation closed form", ok,
            f"828 roots, worst |W + nu^2/4 - 2(n+|l|+1)| = {worst:.2e} "
            f"(tol 1e-10), {elapsed:.2f}s (budget 10s)")


def test_criterion_3_matching_theorem():
    t0 = time.monotonic()
    worst, passed = _summary([checks.match(l, 12, 3, 1e-6) for l in (0, 1, 2)])
    elapsed = time.monotonic() - t0
    ok = passed and elapsed < 120.0
    _report(3, "matching theorem", ok,
            f"108 points all on branch i-1, max |dW| = {worst:.2e} "
            f"(tol 1e-6), {elapsed:.1f}s (budget 120s)")


def test_criterion_4_hft_consistency():
    t0 = time.monotonic()
    rng = random.Random(181)
    samples = [(rng.randrange(0, 3), rng.uniform(0.0, 8.0), rng.randrange(0, 3))
               for _ in range(20)]
    worst, passed = _summary([checks.hft(l, nu, j, 1e-4) for l, nu, j in samples])
    elapsed = time.monotonic() - t0
    ok = passed and elapsed < 60.0
    _report(4, "HFT consistency", ok,
            f"20 samples, max |dW/dnu - <r>| = {worst:.2e} (tol 1e-4), "
            f"slopes all positive: {math.isfinite(worst)}, {elapsed:.1f}s (budget 60s)")


def test_criterion_5_continuity_refutation():
    table = continuity_demonstration(0, 0, (0.1, 0.2), 11)
    Ws = [row.W for row in table.rows]
    valid = all(math.isfinite(w) and w > 0 for w in Ws)
    increasing = all(a < b for a, b in zip(Ws, Ws[1:]))
    ok = valid and increasing and table.coincident_count == 0
    _report(5, "continuity refutation", ok,
            f"{len(table.rows)} samples on nu in [0.1, 0.2], all valid "
            f"eigenvalues, coincident truncation roots: {table.coincident_count}")


def test_criterion_6_fit_reproduction():
    devs = {}
    for j in (0, 1, 2):
        model = fit_cubic(branch_fit_points(0, j), PUBLISHED_CUBICS[j][0],
                          branch=j, l=0)
        devs[j] = compare_fit_to_published(model)
    ok = all(d <= 0.05 for d in devs.values())
    _report(6, "fit reproduction", ok,
            "max |fit - published| per branch: "
            + ", ".join(f"j={j}: {d:.4f}" for j, d in devs.items())
            + " (bound 0.05)")


def test_criterion_7_polynomial_residuals():
    targets = [(n, i) for n in range(11) for i in range(1, n + 2)]
    worst, ok = _summary([checks.residual(l, targets, 1e-8) for l in (0, 1, 2)])
    _report(7, "polynomial residuals", ok, f"{3 * len(targets)} solutions x 100 radii, "
            f"max relative residual {worst:.2e} (tol 1e-8)")


def test_criterion_8_parity_property():
    results = [checks.parity(l, 22, 1e-12) for l in (0, 1, 2)]
    bad = [f"{c.name}: {c.value:.2e} ({c.detail})" for c in results if not c.passed]
    _report(8, "parity of root sets", not bad,
            "; ".join(bad) or "root multisets symmetric, zero root iff n+1 odd, n <= 22")


def test_criterion_9_anti_hft_signature():
    pts = sorted((polynomial_solution(10, i, 0) for i in (1, 2, 3)),
                 key=lambda p: p.nu_root)
    nus = [p.nu_root for p in pts]
    family_decreasing = (nus[0] > 0 and pts[0].W > pts[1].W > pts[2].W)
    branches_increasing = True
    for p in pts:
        lo = solve_spectrum(ReducedProblem(0, p.nu_root), p.i)[p.i - 1].W
        hi = solve_spectrum(ReducedProblem(0, p.nu_root + 0.5), p.i)[p.i - 1].W
        branches_increasing = branches_increasing and hi > lo
    ok = family_decreasing and branches_increasing
    _report(9, "anti-HFT signature", ok,
            f"n=10 family W at nu={[f'{v:.3f}' for v in nus]} decreasing: "
            f"{family_decreasing}; matched branches increasing in nu: "
            f"{branches_increasing}")
