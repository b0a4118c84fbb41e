"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest -q perfbench/selftest.py

They use inputs far smaller than the workloads', so they take seconds.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFS = run.load_references()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)
    ops = workloads.ops_per_pass(workload, workloads.make_inputs(workload, 7))
    assert all(workloads.ops_per_pass(workload, workloads.make_inputs(workload, seed)) == ops
               for seed in range(5))


def test_scan_grid_is_on_the_reference_lattice():
    for seed in range(5):
        for req in workloads.make_inputs("scan", seed)["requests"]:
            if req[0] == "scan":
                grid = req[2]
                assert 0.0 in grid and grid == sorted(set(grid))
                keys = [round(nu * workloads.SCAN_LATTICE) for nu in grid]
                assert all(str(k) in REFS["scan"]["W"]["0"] for k in keys)


def _bites(workload, inputs, perturb):
    """Clean references pass every op; perturbed ones fail at least one."""
    # through JSON, as records arrive from a child process
    records = json.loads(json.dumps(workloads.run_pass(workload, inputs)))
    clean = workloads.check_pass(workload, inputs, records, REFS)
    assert [f for f in clean.failed if f] == []
    refs = copy.deepcopy(REFS)
    perturb(refs)
    bad = workloads.check_pass(workload, inputs, records, refs)
    assert any(bad.failed)
    assert run.failed_frac(bad) > run.failed_frac(clean) > 0


def _nudge(value: str) -> str:
    return repr(float(value) + 1e-15 * max(1.0, abs(float(value))))


def test_truncate_check_bites():
    inputs = {"ops": [[3, -1], [4, 2], [2, 0]]}

    def perturb(refs):
        row = refs["truncation"]["2,4"][2]
        row[1] = _nudge(row[1])
    _bites("truncate", inputs, perturb)


def test_residual_check_bites():
    inputs = {"ops": [[2, 1, -1, [0.1, 5.0, 10.0]], [3, 4, 2, [1.5]]]}

    def perturb(refs):
        row = refs["truncation"]["1,2"][0]
        row[0] = _nudge(row[0])
    _bites("residual", inputs, perturb)


def test_residual_tolerance_bites(monkeypatch):
    inputs = {"ops": [[3, 2, 0, [0.1, 5.0, 10.0]]]}
    records = json.loads(json.dumps(workloads.run_pass("residual", inputs)))
    monkeypatch.setitem(workloads.TOL, "err.residual", 1e-30)
    assert any(workloads.check_pass("residual", inputs, records, REFS).failed)


def test_scan_check_bites():
    inputs = {"requests": [["scan", -2, [-12.0, 0.0, 3.05]]]}

    def perturb(refs):
        refs["scan"]["W"]["2"]["61"][1] += 1e-6
    _bites("scan", inputs, perturb)

    def perturb_osc(refs):
        refs["oscillator"]["W"]["2"][0] += 1e-6
    _bites("scan", inputs, perturb_osc)


def test_envelope_probe_failure_is_counted():
    inputs = {"requests": [["probe", -60, 0.0]]}
    records = json.loads(json.dumps(workloads.run_pass("scan", inputs)))
    verdict = workloads.check_pass("scan", inputs, records, REFS)
    assert verdict.failed[0] and verdict.expected_failures == 1


def test_match_hft_check_bites(monkeypatch):
    monkeypatch.setattr(workloads, "MATCH_N_MAX", 2)
    inputs = {"requests": [["match", -1, [5, 0, 3, 1, 4, 2]], ["hft", 2, 1.0, 1]]}

    def perturb(refs):
        row = refs["truncation"]["1,2"][1]
        row[1] = _nudge(row[1])
    _bites("match_hft", inputs, perturb)

    records = json.loads(json.dumps(workloads.run_pass("match_hft", inputs)))
    monkeypatch.setitem(workloads.TOL, "err.hft", 1e-12)
    monkeypatch.setitem(workloads.TOL, "err.match", 1e-15)
    assert sum(bool(f) for f in workloads.check_pass("match_hft", inputs, records,
                                                     REFS).failed) == 7


def test_self_time_never_exceeds_span_time():
    # nested spans in a real child: curve_scan -> solve_spectrum, and
    # polynomial_solution / ode_residual side by side
    for workload, inputs in (
            ("scan", {"requests": [["scan", 1, [-1.0, 0.0, 1.0]], ["probe", 20, 0.0]]}),
            ("residual", {"ops": [[2, 1, 0, [0.5, 2.0]]]})):
        job = {"workload": workload, "inputs": inputs, "trace": True,
               "passes": ["cold", "warm"], "child": 0}
        report, _ = run.spawn(job, run.child_env())
        for entry in report["passes"]:
            assert 0 < entry["root_s"] <= entry["wall_s"]
            for agg in entry["layers"].values():
                assert -1e-9 <= agg["self_s"] <= agg["s"]
        assert all(span[3] is None or span[3] < i for i, span in enumerate(report["spans"]))


def test_summarize_subtracts_children():
    spans = [["a", 0.0, 10.0, None, "r", False], ["b", 1.0, 4.0, 0, "r", False],
             ["c", 2.0, 3.0, 1, "r", True], ["b", 5.0, 6.0, 0, "r", False],
             ["a", 0.0, 99.0, None, "other", False]]
    layers, root = tracing.summarize(spans, "r")
    assert root == 10.0
    assert layers["a"]["self_s"] == 6.0 and layers["b"]["s"] == 4.0
    assert layers["b"]["self_s"] == 3.0 and layers["c"]["failed"] == 1


def test_benchmark_refuses_a_tree_without_the_package(tmp_path):
    # the benchmark's own files alone: it must fail, fast, without a result
    dst = tmp_path / "perfbench"
    dst.mkdir()
    for name in ("run.py", "child.py", "workloads.py", "tracing.py"):
        (dst / name).write_text(open(os.path.join(HERE, name)).read())
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                          "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
    assert time.monotonic() - t0 < 60
