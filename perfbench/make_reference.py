"""Regenerate the benchmark's reference data under perfbench/reference/.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

The files it writes are committed. Regenerating them after a change to
``src/`` turns the benchmark's checks into a comparison with that change, so
do it only when a change of output is intended and reviewed.
"""

from __future__ import annotations

import csv
import json
import os

from radspec import frobenius, spectrum
from workloads import (ENVELOPE_PROBES, S_VALUES, SCAN_BRANCHES, SCAN_K_MAX,
                       SCAN_LATTICE, TRUNCATE_N_MAX)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "reference")
OSC_S = sorted(set(S_VALUES) | {abs(l) for l, _ in ENVELOPE_PROBES})


def oscillator_levels(s: int) -> list[float]:
    # nu = 0 is the 2-D isotropic oscillator: W_j = 4j + 2s + 2, exactly
    return [float(4 * j + 2 * s + 2) for j in range(SCAN_BRANCHES)]


def truncation_table(path: str) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["s", "n", "i", "nu", "W"])
        for s in S_VALUES:
            for n in range(TRUNCATE_N_MAX + 1):
                for i in range(1, n + 2):
                    sol = frobenius.polynomial_solution(n, i, s)
                    out.writerow([s, n, i, repr(sol.nu_root), repr(sol.W)])


def envelope_probe(l: int, nu: float) -> dict:
    if nu == 0.0:
        return {"s": l, "nu": nu, "W": oscillator_levels(l), "tol": 1e-7,
                "source": "exact oscillator levels 4j + 2s + 2 at nu = 0"}
    # nu > 0 pulls the states towards r = 0, so the default domain
    # max(12, |nu|/2 + 12) is far too wide for its grid; two smaller domains
    # at two resolutions must agree before either is taken as the reference
    coarse = spectrum.SolverConfig(r_max=8.0, grid_points=5000, levels=SCAN_BRANCHES)
    fine = spectrum.SolverConfig(r_max=10.0, grid_points=10000, levels=SCAN_BRANCHES)
    problem = spectrum.ReducedProblem(l, nu)
    Wc = [st.W for st in spectrum.solve_spectrum(problem, coarse)]
    Wf = [st.W for st in spectrum.solve_spectrum(problem, fine)]
    spread = max(abs(a - b) for a, b in zip(Wc, Wf))
    if spread > 1e-8:
        raise SystemExit(f"probe ({l}, {nu}): domains disagree by {spread:.2e}")
    return {"s": l, "nu": nu, "W": Wf, "tol": 1e-7,
            "source": (f"solve_spectrum with r_max=10, grid_points=10000; "
                       f"r_max=8, grid_points=5000 agrees to {spread:.1e}")}


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    truncation_table(os.path.join(OUT, "truncation.csv"))

    with open(os.path.join(OUT, "oscillator.json"), "w") as fh:
        json.dump({"formula": "W_j = 4j + 2s + 2 at nu = 0",
                   "W": {str(s): oscillator_levels(s) for s in OSC_S}}, fh, indent=1)
        fh.write("\n")

    with open(os.path.join(OUT, "envelope.json"), "w") as fh:
        json.dump({"probes": [envelope_probe(l, nu) for l, nu in ENVELOPE_PROBES]},
                  fh, indent=1)
        fh.write("\n")

    grid = [k / SCAN_LATTICE for k in range(-SCAN_K_MAX, SCAN_K_MAX + 1)]
    table = {}
    for s in S_VALUES:
        curves = spectrum.curve_scan(s, SCAN_BRANCHES, grid)
        table[str(s)] = {str(k): [c.W[idx] for c in curves]
                         for idx, k in enumerate(range(-SCAN_K_MAX, SCAN_K_MAX + 1))}
    with open(os.path.join(OUT, "scan.json"), "w") as fh:
        json.dump({"source": "curve_scan with the default SolverConfig, "
                             f"nu = k / {SCAN_LATTICE} for |k| <= {SCAN_K_MAX}",
                   "W": table}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
