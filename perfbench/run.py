"""radspec benchmark: cold-process workloads over the exact and numeric routes.

    python3 perfbench/run.py --workload truncate --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src. Each pass
runs in a fresh interpreter, so every pass pays the import and starts with
empty ``lru_cache``s, as a command-line user does. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md). The last
line of standard output is the result as JSON; the full run record goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.special import betainc

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3              # set-up-only processes; every pass process adds one more
CHILD_TIMEOUT_S = 150
THREADS = "1"                  # BLAS/OpenMP threads per process, <= nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_ms.p50": "ms", "op_ms.tail": "ms",
    "peak_rss_mb": "MB", "failed_frac": "frac", "err.residual": "digits",
    "err.osc": "digits", "err.match": "digits", "err.hft": "digits",
}
# "<traced function>.<statistic>"; warm_s is s on the warm pass
PER_LAYER = (
    "frobenius.cnp1_polynomial.s",
    "frobenius.root_isolation.s",
    "frobenius.root_isolation.calls",
    "frobenius.root_isolation.warm_s",
    "frobenius.polynomial_solution.s",
    "frobenius.polynomial_solution.calls",
    "frobenius.polynomial_solution.warm_s",
    "frobenius.ode_residual.s",
    "frobenius.ode_residual.calls",
    "frobenius.ode_residual.ms_p50",
    "spectrum.solve_spectrum.s",
    "spectrum.solve_spectrum.calls",
    "spectrum.solve_spectrum.ms_p50",
    "spectrum.solve_spectrum.failed",
    "spectrum.curve_scan.self_s",
    "spectrum.hft_check.s",
    "spectrum.hft_check.self_s",
    "spectrum.hft_check.calls",
    "spectrum.expectation_r.s",
    "analysis.truncation_point_set.s",
    "analysis.truncation_point_set.self_s",
    "analysis.match_truncation_to_curves.s",
    "analysis.match_truncation_to_curves.self_s",
)
UNITS = {
    "setup_s": "s", "wall_s": "s", "op_ms.p50": "ms", "op_ms.tail": "ms",
    "peak_rss_mb": "MB", "failed_frac": "frac", "err.residual": "digits",
    "err.osc": "digits", "err.match": "digits", "err.hft": "digits",
}
# metric -> (traced function, statistic); "warm_s" is "s" on the warm pass
PER_LAYER = {
    "frobenius.cnp1_polynomial.s": ("frobenius.cnp1_polynomial", "s"),
    "frobenius.root_isolation.s": ("frobenius.root_isolation", "s"),
    "frobenius.root_isolation.calls": ("frobenius.root_isolation", "calls"),
    "frobenius.root_isolation.warm_s": ("frobenius.root_isolation", "warm_s"),
    "frobenius.polynomial_solution.s": ("frobenius.polynomial_solution", "s"),
    "frobenius.polynomial_solution.calls": ("frobenius.polynomial_solution", "calls"),
    "frobenius.polynomial_solution.warm_s": ("frobenius.polynomial_solution", "warm_s"),
    "frobenius.ode_residual.s": ("frobenius.ode_residual", "s"),
    "frobenius.ode_residual.calls": ("frobenius.ode_residual", "calls"),
    "frobenius.ode_residual.ms_p50": ("frobenius.ode_residual", "ms_p50"),
    "spectrum.solve_spectrum.s": ("spectrum.solve_spectrum", "s"),
    "spectrum.solve_spectrum.calls": ("spectrum.solve_spectrum", "calls"),
    "spectrum.solve_spectrum.ms_p50": ("spectrum.solve_spectrum", "ms_p50"),
    "spectrum.solve_spectrum.failed": ("spectrum.solve_spectrum", "failed"),
    "spectrum.curve_scan.self_s": ("spectrum.curve_scan", "self_s"),
    "spectrum.hft_check.s": ("spectrum.hft_check", "s"),
    "spectrum.hft_check.self_s": ("spectrum.hft_check", "self_s"),
    "spectrum.hft_check.calls": ("spectrum.hft_check", "calls"),
    "spectrum.expectation_r.s": ("spectrum.expectation_r", "s"),
    "analysis.truncation_point_set.s": ("analysis.truncation_point_set", "s"),
    "analysis.truncation_point_set.self_s": ("analysis.truncation_point_set", "self_s"),
    "analysis.match_truncation_to_curves.s": ("analysis.match_truncation_to_curves", "s"),
    "analysis.match_truncation_to_curves.self_s":
        ("analysis.match_truncation_to_curves", "self_s"),
}
UNITS = {"s": "s", "self_s": "s", "warm_s": "s", "calls": "count", "failed": "count",
         "ms_p50": "ms"}


def load_references() -> dict:
    ref = os.path.join(HERE, "reference")
    table: dict[str, list] = {}
    with open(os.path.join(ref, "truncation.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            table.setdefault(f"{row['s']},{row['n']}", []).append([row["nu"], row["W"]])
    refs = {"truncation": table}
    for name in ("oscillator", "envelope", "scan"):
        with open(os.path.join(ref, f"{name}.json")) as fh:
            refs[name] = json.load(fh)
    return refs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def spawn(job: dict, env: dict) -> tuple[dict, float]:
    """Run one child process to completion; returns its report and wall time."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), repr(start)],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"child process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"child process failed ({proc.returncode}):\n{err.strip()}")
    return json.loads(out), time.monotonic() - start


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    It is a Beta-weighted mean of all order statistics around the rank. The
    ops of one pass differ in cost by orders of magnitude, so the plain
    nearest-rank value jumps between neighbouring ops; on ``truncate`` its
    spread over ten seeds was 26% at p50, against 12% for this estimate.
    """
    x = np.sort(values)
    n = len(x)
    weights = np.diff(betainc(q / 100 * (n + 1), (1 - q / 100) * (n + 1),
                              np.arange(n + 1) / n))
    return float(weights @ x)


def tail_percentile(ops: int) -> int:
    """Highest whole percentile with at least ten of one pass's ops beyond it."""
    return math.floor(100 * (1 - 10 / ops))


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "threads": {var: THREADS for var in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD's commit from ./.git, without running git; None outside a checkout."""
    git = os.path.join(ROOT, ".git")
    if not os.path.isfile(os.path.join(git, "HEAD")):
        return None
    with open(os.path.join(git, "HEAD")) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if os.path.isfile(os.path.join(git, ref)):
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    if os.path.isfile(os.path.join(git, "packed-refs")):
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "radspec", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def measure(workload: str, inputs: dict, seconds: float, traced: bool, env: dict):
    """Set-up samples, then fresh-process passes for about ``seconds``."""
    setup = [spawn({"workload": workload, "inputs": {}, "trace": False, "passes": [],
                    "child": f"setup{k}"}, env)[0]["setup_s"] for k in range(SETUP_SAMPLES)]
    reports: list[tuple[bool, dict]] = []
    costs: list[float] = []
    start = time.monotonic()
    while True:
        # a traced run alternates untraced and traced processes, so that the
        # tracing overhead is measured under the same conditions
        with_trace = traced and len(reports) % 2 == 1
        job = {"workload": workload, "inputs": inputs, "trace": with_trace,
               "passes": ["cold", "warm"] if with_trace else ["cold"],
               "child": len(reports)}
        report, cost = spawn(job, env)
        reports.append((with_trace, report))
        costs.append(cost)
        setup.append(report["setup_s"])
        elapsed = time.monotonic() - start
        if traced and len(reports) < 2:
            continue
        # start another process only if it should end by about the deadline
        if elapsed + statistics.median(costs) / 2 > seconds:
            return setup, reports


def failed_frac(verdict: workloads.Verdicts) -> float:
    """Failed share of one pass's ops by Laplace's rule, (failed + 1) / (ops + 2).

    It is never 0, so a relative bound on it is defined even when no op fails.
    """
    failed = sum(f is not None for f in verdict.failed)
    return (failed + 1) / (len(verdict.failed) + 2)


def end_to_end(reports, setup, verdicts, ops) -> dict:
    cold = [r["passes"][0] for _, r in reports]
    lat = [rec[0] for p in cold for rec in p["records"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in cold),
        "op_ms.p50": percentile(lat, 50),
        "op_ms.tail": percentile(lat, tail_percentile(ops)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _, r in reports),
        "failed_frac": statistics.median(failed_frac(v) for v in verdicts),
    }
    for name, tol in workloads.TOL.items():
        # the worst error as correct digits, -log10(error); a workload that
        # computes no such quantity reports the digits its tolerance asks for
        worst = worst_error(verdicts, name)
        metrics[name] = -math.log10(max(tol if worst is None else worst, 1e-300))
    return metrics


def worst_error(verdicts, name: str) -> float | None:
    seen = [v.err[name] for v in verdicts if name in v.err]
    return max(seen) if seen else None


def per_layer(reports) -> dict:
    traced = [r for t, r in reports if t]
    plain = [r for t, r in reports if not t]
    values: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for r in traced:
        cold, warm = r["passes"]
        for name in PER_LAYER:
            fn, stat = name.rsplit(".", 1)
            layers = warm["layers"] if stat == "warm_s" else cold["layers"]
            agg = layers.get(fn)
            if agg is None:
                values[name].append(0.0)
            elif stat == "ms_p50":
                values[name].append(statistics.median(agg["durations"]) * 1e3)
            else:
                values[name].append(float(agg["s" if stat == "warm_s" else stat]))
    metrics = {name: statistics.median(v) for name, v in values.items()}
    metrics["trace.coverage_frac"] = statistics.median(
        r["passes"][0]["root_s"] / r["passes"][0]["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["passes"][0]["wall_s"] for r in traced)
        / statistics.median(r["passes"][0]["wall_s"] for r in plain) - 1)
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.startswith("trace."):
        return "frac"
    return UNITS[name.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "radspec", "__init__.py")):
        print(f"no radspec package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    refs = load_references()
    inputs = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.ops_per_pass(args.workload, inputs)
    setup, reports = measure(args.workload, inputs, args.seconds, bool(args.trace), child_env())

    verdicts = [workloads.check_pass(args.workload, inputs, p["records"], refs)
                for _, r in reports for p in r["passes"]]
    attempted = sum(len(v.failed) for v in verdicts)
    failed = sum(f is not None for v in verdicts for f in v.failed)
    expected = sum(v.expected_failures for v in verdicts)
    metrics = per_layer(reports) if args.trace else end_to_end(
        reports, setup, verdicts, ops)

    env = environment()
    env.update(reports[0][1]["versions"])
    env["radspec_file"] = reports[0][1]["radspec_file"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "ops_per_pass": ops,
        "tail_percentile": tail_percentile(ops),
        "processes": len(reports), "setup_samples_s": setup,
        "passes": [{"label": p["label"], "traced": t, "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                    "op_ms": [rec[0] for rec in p["records"]]}
                   for t, r in reports for p in r["passes"]],
        "failures": sorted({f for v in verdicts for f in v.failed if f is not None}),
        "expected_failures": expected,
        "worst_errors": {name: worst_error(verdicts, name) for name in workloads.TOL},
        "environment": env, "metrics": metrics,
    }
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w") as fh:
            for _, r in reports:
                for span in r["spans"]:
                    fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": failed == expected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
