"""The four workloads: seeded inputs, one pass of calls, and the checks.

Input generation and checks run in the benchmark's parent process and never
import radspec. ``run_pass`` runs in a fresh child process and reaches the
package only through module attributes looked up at call time
(``fr.root_isolation(...)``), so the traced run can rebind them.

A pass returns one record per op: ``[ms, out, error]``. Where one public call
serves several ops (``curve_scan`` over a grid, ``match_truncation_to_curves``
over a point set) each op gets the call's time divided by the ops it served,
because nothing outside the package can see the boundary between them.
"""

from __future__ import annotations

import random
import time

WORKLOADS = ("truncate", "residual", "scan", "match_hft")

S_VALUES = (0, 1, 2)
TRUNCATE_N_MAX = 22
RESIDUAL_N_MAX = 10
# Fixed radii that err.residual is taken over. The relative residual spikes
# near nodes of F, so its maximum over seeded radii swings 25x between seeds
# (probe: 1.6e-15 .. 2.0e-13); the seeded radii are checked but not reported.
RESIDUAL_PANEL = (0.1, 2.575, 5.05, 7.525, 10.0)
RESIDUAL_SEEDED = 5
SCAN_BRANCHES = 3
SCAN_LATTICE = 20          # grid points are k / SCAN_LATTICE, |k| <= SCAN_K_MAX
SCAN_K_MAX = 242           # nu in [-12.1, 12.1]
SCAN_CELLS = 22            # even, so nu = 0 sits on a cell boundary
MATCH_N_MAX = 12
MATCH_I_MAX = 3
# hft_check points err.hft is taken over, one per (s, j). The discrepancy is
# round-off in a central difference (probe: 2e-7 .. 6e-5), so its maximum over
# seeded nu would swing with the seed; the seeded checks are checked only.
HFT_PANEL = tuple((s, j, 4.0 * ((s + j) % 3)) for s in S_VALUES for j in range(3))
HFT_SEEDED = 6
HFT_NU_MAX = 8.0
# (l, nu) points outside the solver's envelope at the time this benchmark was
# written; see reference/envelope.json for their references.
ENVELOPE_PROBES = ((0, 50.0), (20, 0.0), (60, 0.0))
# the specific errors the solver raises outside its envelope
ENVELOPE_ERRORS = ("NotConverged", "DomainTooSmall")

TOL = {
    "err.residual": 1e-8,
    "err.osc": 1e-7,
    "err.match": 1e-6,
    "err.hft": 1e-4,
}
SCAN_TOL = 1e-7            # |W - reference| on the scan grid


def _signed(rng: random.Random, s: int) -> int:
    # only s = |l| enters the equation; the seed picks the sign
    return s if s == 0 or rng.random() < 0.5 else -s


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one pass, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "truncate":
        ops = [[n, _signed(rng, s)] for s in S_VALUES for n in range(TRUNCATE_N_MAX + 1)]
        rng.shuffle(ops)
        return {"ops": ops}
    if workload == "residual":
        ops = []
        for s in S_VALUES:
            for n in range(RESIDUAL_N_MAX + 1):
                for i in range(1, n + 2):
                    seeded = [rng.uniform(0.1, 10.0) for _ in range(RESIDUAL_SEEDED)]
                    ops.append([n, i, _signed(rng, s), list(RESIDUAL_PANEL) + seeded])
        rng.shuffle(ops)
        return {"ops": ops}
    if workload == "scan":
        width = 2 * SCAN_K_MAX // SCAN_CELLS
        requests = []
        for s in S_VALUES:
            ks = [0] + [rng.randrange(a + 1, a + width)
                        for a in range(-SCAN_K_MAX, SCAN_K_MAX, width)]
            requests.append(["scan", _signed(rng, s), [k / SCAN_LATTICE for k in sorted(ks)]])
        requests += [["probe", _signed(rng, l), nu] for l, nu in ENVELOPE_PROBES]
        rng.shuffle(requests)
        return {"requests": requests}
    if workload == "match_hft":
        requests = []
        for s in S_VALUES:
            count = sum(min(n + 1, MATCH_I_MAX) for n in range(MATCH_N_MAX + 1))
            order = list(range(count))
            rng.shuffle(order)
            requests.append(["match", _signed(rng, s), order])
        requests += [["hft", _signed(rng, s), nu, j] for s, j, nu in HFT_PANEL]
        requests += [["hft", _signed(rng, rng.choice(S_VALUES)), rng.uniform(0.0, HFT_NU_MAX),
                      rng.randrange(3)] for _ in range(HFT_SEEDED)]
        rng.shuffle(requests)
        return {"requests": requests}
    raise ValueError(f"unknown workload {workload!r}")


def ops_per_pass(workload: str, inputs: dict) -> int:
    if workload in ("truncate", "residual"):
        return len(inputs["ops"])
    # a scan or a match request serves one op per grid point or per point
    return sum(len(req[2]) if req[0] in ("scan", "match") else 1
               for req in inputs["requests"])


# ---------------------------------------------------------------------------
# child side

def _timed(fn):
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:        # an op that raises is a failed op, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    return (time.perf_counter() - t0) * 1e3, out, err


def run_pass(workload: str, inputs: dict) -> list:
    """One pass of the workload's calls, in a process that imported radspec."""
    from radspec import analysis as an, frobenius as fr, spectrum as sp
    records = []
    if workload == "truncate":
        def order(n, l):
            fr.cnp1_polynomial(n, l)
            fr.root_isolation(n, l)
            sols = [fr.polynomial_solution(n, i, l) for i in range(1, n + 2)]
            return [[repr(sol.nu_root), repr(sol.W)] for sol in sols]
        for n, l in inputs["ops"]:
            records.append(_timed(lambda: order(n, l)))
    elif workload == "residual":
        def sweep(n, i, l, radii):
            sol = fr.polynomial_solution(n, i, l)
            res = [fr.ode_residual(sol, r, relative=True) for r in radii]
            return [repr(sol.nu_root), repr(sol.W), res]
        for n, i, l, radii in inputs["ops"]:
            records.append(_timed(lambda: sweep(n, i, l, radii)))
    elif workload == "scan":
        for req in inputs["requests"]:
            if req[0] == "scan":
                _, l, grid = req
                ms, curves, err = _timed(lambda: sp.curve_scan(l, SCAN_BRANCHES, grid))
                for k in range(len(grid)):
                    out = None if err else [c.W[k] for c in curves]
                    records.append((ms / len(grid), out, err))
            else:
                _, l, nu = req
                records.append(_timed(lambda: [
                    st.W for st in sp.solve_spectrum(sp.ReducedProblem(l, nu))]))
    elif workload == "match_hft":
        for req in inputs["requests"]:
            if req[0] == "match":
                _, l, order = req
                def match():
                    pts = an.truncation_point_set(MATCH_N_MAX, MATCH_I_MAX, l)
                    return an.match_truncation_to_curves([pts[k] for k in order]).results
                ms, results, err = _timed(match)
                for k in range(len(order)):
                    out = None if err else _match_row(results[k])
                    records.append((ms / len(order), out, err))
            else:
                _, l, nu, j = req
                def hft():
                    chk = sp.hft_check(sp.ReducedProblem(l, nu), j)
                    return [chk.dW_dnu, chk.r_expectation, chk.discrepancy]
                records.append(_timed(hft))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [list(rec) for rec in records]


def _match_row(res) -> list:
    return [res.n, res.i, res.l, repr(res.nu), repr(res.W_truncation),
            res.matched_branch, res.distance]


# ---------------------------------------------------------------------------
# parent side

class Verdicts:
    """Per-op pass/fail plus the worst accuracy figures of one pass."""

    def __init__(self):
        self.failed: list[str | None] = []     # None = passed, else the reason
        self.err: dict[str, float] = {}
        self.expected_failures = 0             # envelope probes that raised a solver error

    def op(self, reason: str | None):
        self.failed.append(reason)

    def worst(self, name: str, value: float):
        self.err[name] = max(self.err.get(name, 0.0), abs(value))


def check_pass(workload: str, inputs: dict, records: list, refs: dict) -> Verdicts:
    """Check every op of one pass against the references."""
    v = Verdicts()
    osc = refs["oscillator"]["W"]
    if workload == "truncate":
        for (n, l), (_, out, err) in zip(inputs["ops"], records):
            if err:
                v.op(err)
            elif out != refs["truncation"][f"{abs(l)},{n}"]:
                v.op(f"order n={n}, l={l} differs from the truncation table")
            else:
                v.op(None)
    elif workload == "residual":
        panel = len(RESIDUAL_PANEL)
        for (n, i, l, _), (_, out, err) in zip(inputs["ops"], records):
            if err:
                v.op(err)
                continue
            nu, W, res = out
            worst = max(abs(x) for x in res)
            for x in res[:panel]:
                v.worst("err.residual", x)
            if [nu, W] != refs["truncation"][f"{abs(l)},{n}"][i - 1]:
                v.op(f"solution n={n}, i={i}, l={l} differs from the truncation table")
            elif not worst <= TOL["err.residual"]:
                v.op(f"relative residual {worst:.3e} at n={n}, i={i}, l={l}")
            else:
                v.op(None)
    elif workload == "scan":
        grid_ref = refs["scan"]["W"]
        env = {(p["s"], p["nu"]): p for p in refs["envelope"]["probes"]}
        pos = 0
        for req in inputs["requests"]:
            if req[0] == "scan":
                _, l, grid = req
                s = abs(l)
                for k, nu in enumerate(grid):
                    _, out, err = records[pos + k]
                    if err:
                        v.op(err)
                        continue
                    key = round(nu * SCAN_LATTICE)
                    ref = grid_ref[str(s)][str(key)]
                    dev = max(abs(a - b) for a, b in zip(out, ref))
                    osc_dev = 0.0
                    if nu == 0.0:
                        osc_dev = max(abs(W - ex) for W, ex in zip(out, osc[str(s)]))
                        v.worst("err.osc", osc_dev)
                    if not dev <= SCAN_TOL:
                        v.op(f"W at l={l}, nu={nu!r} is {dev:.3e} from the reference")
                    elif not osc_dev <= TOL["err.osc"]:
                        v.op(f"oscillator limit missed by {osc_dev:.3e} at l={l}")
                    else:
                        v.op(None)
                pos += len(grid)
            else:
                _, l, nu = req
                _, out, err = records[pos]
                pos += 1
                probe = env[(abs(l), nu)]
                if err:
                    v.op(f"envelope probe l={l}, nu={nu!r}: {err}")
                    v.expected_failures += err.split(":")[0] in ENVELOPE_ERRORS
                    continue
                dev = max(abs(a - b) for a, b in zip(out, probe["W"]))
                v.op(None if dev <= probe["tol"] else
                     f"envelope probe l={l}, nu={nu!r} is {dev:.3e} from the reference")
    elif workload == "match_hft":
        pos = 0
        for req in inputs["requests"]:
            if req[0] == "match":
                _, l, order = req
                for k in range(len(order)):
                    _, out, err = records[pos + k]
                    if err:
                        v.op(err)
                        continue
                    n, i, _, nu, W, branch, dist = out
                    v.worst("err.match", dist)
                    if nu == "0.0":
                        v.worst("err.osc", dist)
                    if [nu, W] != refs["truncation"][f"{abs(l)},{n}"][i - 1]:
                        v.op(f"point n={n}, i={i}, l={l} differs from the truncation table")
                    elif nu == "0.0" and float(W) != osc[str(abs(l))][i - 1]:
                        v.op(f"point n={n}, i={i}, l={l} at nu=0 is not an oscillator level")
                    elif branch != i - 1 or not dist <= TOL["err.match"]:
                        v.op(f"point n={n}, i={i}, l={l} matched branch {branch} at {dist:.3e}")
                    elif nu == "0.0" and not dist <= TOL["err.osc"]:
                        v.op(f"oscillator limit missed by {dist:.3e} at n={n}, l={l}")
                    else:
                        v.op(None)
                pos += len(order)
            else:
                _, l, nu, j = req
                _, out, err = records[pos]
                pos += 1
                if err:
                    v.op(err)
                    continue
                slope, rexp, disc = out
                if (abs(l), j, nu) in HFT_PANEL:
                    v.worst("err.hft", disc)
                ok = rexp > 0 and disc <= TOL["err.hft"] and disc == abs(slope - rexp)
                v.op(None if ok else f"hft at l={l}, nu={nu!r}, j={j}: discrepancy {disc:.3e}")
    return v
