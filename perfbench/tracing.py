"""Spans around radspec's public functions, recorded from outside the package.

``Tracer.install`` rebinds every attribute of every loaded ``radspec`` module
that refers to a traced function, so both ``spectrum.solve_spectrum`` and the
copy ``analysis`` imported by name see the wrapper. A span is
``[name, start, end, parent, run_id, failed]`` with ``parent`` the index of the
enclosing span or ``None``; spans stay in memory until the process ends.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = (
    "frobenius.cnp1_polynomial",
    "frobenius.root_isolation",
    "frobenius.polynomial_solution",
    "frobenius.ode_residual",
    "spectrum.solve_spectrum",
    "spectrum.expectation_r",
    "spectrum.hft_check",
    "spectrum.curve_scan",
    "analysis.truncation_point_set",
    "analysis.match_truncation_to_curves",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.run_id, False])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][5] = True
                raise
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "radspec" or key.startswith("radspec."))]
        for name in TRACED:
            mod, attr = name.split(".")
            original = getattr(sys.modules[f"radspec.{mod}"], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapper)


def summarize(spans: list[list], run_id) -> tuple[dict, float]:
    """Per-name totals for one run id, and the time covered by root spans.

    Totals are s, self_s (s minus the time of direct child spans), calls,
    failed and the list of durations.
    """
    mine = [i for i, sp in enumerate(spans) if sp[4] == run_id]
    child_time = {i: 0.0 for i in mine}
    for i in mine:
        parent = spans[i][3]
        if parent is not None:
            child_time[parent] += spans[i][2] - spans[i][1]
    out: dict[str, dict] = {}
    for i in mine:
        name, start, end, parent, _, failed = spans[i]
        dur = end - start
        agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                    "failed": 0, "durations": []})
        agg["s"] += dur
        agg["self_s"] += dur - child_time[i]
        agg["calls"] += 1
        agg["failed"] += failed
        agg["durations"].append(dur)
    root_s = sum(spans[i][2] - spans[i][1] for i in mine if spans[i][3] is None)
    return out, root_s
