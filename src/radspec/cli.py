"""Command-line surface: machine-readable datasets and verification reports.

Subcommands: truncate (isolated truncation points), spectrum (numeric
branch samples), verify (invariant suites with a pass/fail table), figure
(the full point/curve/parabola dataset plus a plot script), fit
(constrained cubic per branch), energy (map reduced eigenvalues to
physical energies, optionally sweeping the cyclotron frequency).

Exit codes: 0 success, 1 verification or domain failure, 2 usage error.
Datasets are CSV (or JSON via --format); re-reading and re-emitting a CSV
reproduces it byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import time
from functools import partial

import click
import numpy as np

from . import checks
from .analysis import (
    DegenerateFit,
    InvalidAlpha,
    InvalidMass,
    PhysicalParams,
    PUBLISHED_CUBICS,
    branch_fit_points,
    compare_fit_to_published,
    fit_cubic,
    map_physical_to_nu,
    map_W_to_E,
    truncation_point_set,
)
from .frobenius import (
    IndexOutOfRange,
    RootRefinementFailure,
    root_isolation,
    truncation_energy,
)
from .spectrum import ReducedProblem, SolverError, curve_scan, eigenvalues

_MODULE_ERRORS = (
    DegenerateFit, InvalidAlpha, InvalidMass, SolverError,
    RootRefinementFailure, IndexOutOfRange, ValueError,
)


def _emit_rows(header: list[str], rows: list[list], fmt: str, out: str) -> None:
    with click.open_file(out, "w") as f:
        if fmt == "csv":
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            f.write(json.dumps([dict(zip(header, row)) for row in rows], indent=2))
            f.write("\n")


def _json_number(x: float) -> float | None:
    """JSON has no Infinity or NaN, so a non-finite value is written as null."""
    return x if math.isfinite(x) else None


class _Main(click.Group):
    """Reports a domain failure from the modules as ``error: ...`` and exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _MODULE_ERRORS as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            raise click.exceptions.Exit(1)


@click.group(cls=_Main)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="JSON file of per-subcommand flag defaults; explicit flags override.")
@click.pass_context
def main(ctx, config_path):
    """Two routes to a radial oscillator spectrum, cross-validated."""
    if config_path:
        with open(config_path) as f:
            ctx.default_map = json.load(f)


@main.command()
@click.option("--l", "l", type=int, default=0, show_default=True)
@click.option("--n-max", type=click.IntRange(min=0), default=22, show_default=True)
@click.option("--i-max", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(allow_dash=True), default="-", show_default=True)
def truncate(l, n_max, i_max, fmt, out):
    """Emit truncation points (l, n, i, nu, W), roots in decreasing order."""
    points = truncation_point_set(n_max, i_max, l)
    rows = [[pt.l, pt.n, pt.i, pt.nu_root, pt.W] for pt in points]
    _emit_rows(["l", "n", "i", "nu", "W"], rows, fmt, out)


@main.command()
@click.option("--l", "l", type=int, default=0, show_default=True)
@click.option("--branches", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--nu", "nu_values", type=float, multiple=True,
              help="Coupling value; repeatable.")
@click.option("--nu-min", type=float, default=None)
@click.option("--nu-max", type=float, default=None)
@click.option("--nu-count", type=click.IntRange(min=1), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(allow_dash=True), default="-", show_default=True)
def spectrum(l, branches, nu_values, nu_min, nu_max, nu_count, fmt, out):
    """Emit numeric branch samples (l, j, nu, W)."""
    if not nu_values:
        if nu_min is None or nu_max is None or nu_count is None:
            raise click.UsageError("give --nu values or --nu-min/--nu-max/--nu-count")
        nu_values = np.linspace(nu_min, nu_max, nu_count)
    curves = curve_scan(l, branches, sorted(set(nu_values)))
    rows = [[c.l, c.j, nu, W] for c in curves for nu, W in c.samples]
    _emit_rows(["l", "j", "nu", "W"], rows, fmt, out)


@main.command()
@click.option("--hft", "do_hft", is_flag=True)
@click.option("--match", "do_match", is_flag=True)
@click.option("--residual", "do_residual", is_flag=True)
@click.option("--all", "do_all", is_flag=True)
@click.option("--l", "ls", type=int, multiple=True,
              help="Momentum scope; repeatable. Default 0 1 2.")
@click.option("--n-max", type=click.IntRange(min=0), default=12, show_default=True)
@click.option("--i-max", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--n", "n_single", type=click.IntRange(min=0), default=None,
              help="Single order for --residual.")
@click.option("--i", "i_single", type=int, default=None,
              help="Single root index for --residual; needs --n.")
@click.option("--nu", "nu_single", type=float, default=None, help="Single coupling for --hft.")
@click.option("--branch", type=click.IntRange(min=0), default=None,
              help="Single branch for --hft. Default: 0 with --nu, else 0, 1, 2.")
@click.option("--match-tol", type=float, default=1e-6, show_default=True)
@click.option("--hft-tol", type=float, default=1e-4, show_default=True)
@click.option("--residual-tol", type=float, default=1e-8, show_default=True)
@click.option("--out", type=click.Path(allow_dash=True), default=None,
              help="Also write the report as JSON.")
@click.pass_context
def verify(ctx, do_hft, do_match, do_residual, do_all, ls, n_max, i_max,
           n_single, i_single, nu_single, branch, match_tol, hft_tol,
           residual_tol, out):
    """Run invariant suites and print a pass/fail table."""
    if not (do_hft or do_match or do_residual or do_all):
        raise click.UsageError("select a suite: --hft, --match, --residual or --all")
    if i_single is not None and n_single is None:
        raise click.UsageError("--i needs --n")
    if n_single is not None and not (do_residual or do_all):
        raise click.UsageError("--n and --i need --residual or --all")
    ls = list(ls) if ls else [0, 1, 2]
    calls = []
    if do_all:
        calls += [partial(checks.parabola, l, n_max, 1e-10) for l in ls]
        calls += [partial(checks.parity, l, n_max, 1e-12) for l in ls]
    if do_residual or do_all:
        if n_single is not None:
            targets = [(n_single, 1 if i_single is None else i_single)]
        else:
            targets = [(n, i) for n in range(n_max + 1) for i in range(1, n + 2)]
        calls += [partial(checks.residual, l, targets, residual_tol) for l in ls]
    if do_hft or do_all:
        nus = (0.0, 2.5, 5.0) if nu_single is None else (nu_single,)
        js = (0, 1, 2) if nu_single is None else (0,)
        js = js if branch is None else (branch,)
        calls += [partial(checks.hft, l, nu, j, hft_tol) for l in ls for nu in nus for j in js]
    if do_match or do_all:
        calls += [partial(checks.match, l, n_max, i_max, match_tol) for l in ls]
    results, elapsed = [], []
    for call in calls:
        start = time.perf_counter()
        results.append(call())
        elapsed.append(time.perf_counter() - start)
    for c in results:
        click.echo(f"{'PASS' if c.passed else 'FAIL'}  {c.name:<24} "
                   f"{c.value:.2e} (tol {c.tol:.1e})  {c.detail}")
    all_ok = all(c.passed for c in results)
    click.echo(f"{'all checks passed' if all_ok else 'FAILURES present'} "
               f"({sum(c.passed for c in results)}/{len(results)})")
    if out:
        with click.open_file(out, "w") as f:
            json.dump({"all_passed": all_ok,
                       "checks": [{"name": c.name, "passed": c.passed,
                                   "value": _json_number(c.value),
                                   "tol": _json_number(c.tol),
                                   "margin": _json_number(c.margin),
                                   "elapsed": t, "detail": c.detail}
                                  for c, t in zip(results, elapsed)]}, f, indent=2)
            f.write("\n")
    ctx.exit(0 if all_ok else 1)


_PLOT_SCRIPT = '''\
#!/usr/bin/env python3
"""Plot truncation points, numeric branches, and the n=10 parabola."""
import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).resolve().parent


def read(name):
    with open(HERE / name, newline="") as f:
        return list(csv.DictReader(f))


curves = read("curves.csv")
points = read("points.csv")
parabola = read("parabola.csv")

fig, ax = plt.subplots(figsize=(7.0, 5.0))
for j in sorted({row["j"] for row in curves}, key=int):
    xs = [float(r["nu"]) for r in curves if r["j"] == j]
    ys = [float(r["W"]) for r in curves if r["j"] == j]
    ax.plot(xs, ys, lw=1.3, label=f"branch j={j}")
ax.plot([float(r["nu"]) for r in parabola], [float(r["W"]) for r in parabola],
        "k--", lw=1.0, label="n=10 truncation parabola")
ax.plot([float(r["nu"]) for r in points], [float(r["W"]) for r in points],
        "o", ms=4.5, mfc="none", color="crimson", label="truncation points")
ax.set_xlabel("nu")
ax.set_ylabel("W")
ax.set_ylim(0, None)
ax.legend(loc="upper left")
fig.tight_layout()
fig.savefig(HERE / "figure.png", dpi=150)
print(f"wrote {HERE / 'figure.png'}")
'''


@main.command()
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@click.option("--curve-samples", type=click.IntRange(min=0), default=241, show_default=True,
              help="Uniform curve grid size; truncation abscissae are added to it.")
def figure(out_dir, curve_samples):
    """Emit the l=0 dataset: points.csv, curves.csv, parabola.csv, plot script."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    points = [pt for pt in truncation_point_set(22, 3, 0) if pt.nu_root >= 0]
    nu_top = root_isolation(22, 0)[0]
    grid = sorted(set(np.linspace(0.0, nu_top, curve_samples))
                  | {pt.nu_root for pt in points})
    curves = curve_scan(0, 3, grid)
    _emit_rows(["l", "n", "i", "nu", "W"],
               [[pt.l, pt.n, pt.i, pt.nu_root, pt.W] for pt in points],
               "csv", os.path.join(out_dir, "points.csv"))
    _emit_rows(["l", "j", "nu", "W"],
               [[c.l, c.j, nu, W] for c in curves for nu, W in c.samples],
               "csv", os.path.join(out_dir, "curves.csv"))
    _emit_rows(["kind", "nu", "W"],
               [["parabola_n10", nu, truncation_energy(10, 0, nu)] for nu in grid],
               "csv", os.path.join(out_dir, "parabola.csv"))
    script = os.path.join(out_dir, "plot_figure.py")
    with open(script, "w") as f:
        f.write(_PLOT_SCRIPT)
    click.echo(f"wrote points.csv, curves.csv, parabola.csv, plot_figure.py to {out_dir}")


@main.command()
@click.option("--l", "l", type=int, default=0, show_default=True)
@click.option("--branch", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--n-max", type=click.IntRange(min=0), default=22, show_default=True)
@click.option("--out", type=click.Path(allow_dash=True), default=None,
              help="Also write the fit report as JSON.")
def fit(l, branch, n_max, out):
    """Constrained cubic through one branch's truncation points."""
    intercept = float(2 * (2 * branch + abs(l) + 1))
    pts = branch_fit_points(l, branch, n_max)
    model = fit_cubic(pts, intercept, branch=branch, l=l)
    b1, b2, b3 = model.coefficients
    lo, hi = model.fit_domain
    click.echo(f"branch j={branch}, l={l}: {len(pts)} points, nu in [{lo:.6f}, {hi:.6f}]")
    click.echo(f"W = {model.intercept:g} + ({b1:.10g}) nu + ({b2:.10g}) nu^2 "
               f"+ ({b3:.10g}) nu^3")
    click.echo(f"rms residual {model.rms_residual:.3e}")
    report = {"j": branch, "l": l, "intercept": model.intercept,
              "coefficients": [b1, b2, b3], "rms_residual": model.rms_residual,
              "fit_domain": list(model.fit_domain), "points": len(pts)}
    if l == 0 and branch in PUBLISHED_CUBICS:
        dev = compare_fit_to_published(model)
        click.echo(f"max deviation from published cubic: {dev:.4f} "
                   f"over nu in [{lo:.4f}, {hi:.4f}]")
        report["max_deviation_from_published"] = dev
    if out:
        with click.open_file(out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


@main.command()
@click.option("--m", type=float, default=1.0, show_default=True)
@click.option("--a", type=float, default=0.0, show_default=True)
@click.option("--theta", type=float, default=None)
@click.option("--varpi", type=float, default=0.0, show_default=True)
@click.option("--l", "l", type=int, default=0, show_default=True)
@click.option("--branch", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--W", "w_values", type=float, multiple=True,
              help="Map explicit reduced eigenvalues instead of solving.")
@click.option("--theta-min", type=float, default=None)
@click.option("--theta-max", type=float, default=None)
@click.option("--theta-steps", type=click.IntRange(min=1), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(allow_dash=True), default="-", show_default=True)
def energy(m, a, theta, varpi, l, branch, w_values, theta_min, theta_max,
           theta_steps, fmt, out):
    """Physical energies from reduced eigenvalues; sweep theta to see continuity."""
    if w_values:
        if theta is None:
            raise click.UsageError("--W needs --theta")
        p = PhysicalParams(m=m, a=a, theta=theta, varpi=varpi, l=l)
        rows = [[W, map_W_to_E(W, p)] for W in w_values]
        _emit_rows(["W", "E"], rows, fmt, out)
        return
    if theta_min is not None and theta_max is not None and theta_steps is not None:
        thetas = np.linspace(theta_min, theta_max, theta_steps)
    elif theta is not None:
        thetas = [theta]
    else:
        raise click.UsageError(
            "give --W and --theta, a single --theta, or a sweep "
            "--theta-min/--theta-max/--theta-steps")
    params = [PhysicalParams(m=m, a=a, theta=float(th), varpi=varpi, l=l) for th in thetas]
    Ws = eigenvalues([ReducedProblem(l, map_physical_to_nu(p)) for p in params],
                     [branch + 1] * len(params))
    rows = [[p.theta, map_W_to_E(W[branch], p)] for p, W in zip(params, Ws)]
    _emit_rows(["theta", "E"], rows, fmt, out)


if __name__ == "__main__":
    main()
