"""One cold process: import radspec.cli, then run the passes asked for.

Spawned by run.py as ``python3 perfbench/child.py <spawn_time>`` with the job
as JSON on stdin; ``<spawn_time>`` is ``time.monotonic()`` in the parent just
before the spawn, so ``setup_s`` covers interpreter start-up and the import.
Prints one JSON object on stdout.
"""

import sys
import time

SPAWN = float(sys.argv[1])
import radspec.cli  # noqa: E402,F401  (the import is what setup_s measures)
SETUP_S = time.monotonic() - SPAWN

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([src, os.path.abspath(radspec.__file__)]) != src:
        raise SystemExit(f"radspec imported from {radspec.__file__}, not from {src}")
    job = json.load(sys.stdin)
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    passes = []
    for label in job["passes"]:
        if tracer:
            tracer.run_id = f"{job['child']}-{label}"
        t0, c0 = time.perf_counter(), time.process_time()
        records = workloads.run_pass(job["workload"], job["inputs"])
        entry = {"label": label, "wall_s": time.perf_counter() - t0,
                 "cpu_s": time.process_time() - c0, "records": records}
        if tracer:
            entry["layers"], entry["root_s"] = tracing.summarize(tracer.spans, tracer.run_id)
        passes.append(entry)
    json.dump({
        "setup_s": SETUP_S,
        "radspec_file": radspec.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
        "spans": tracer.spans if tracer else [],
    }, sys.stdout)


if __name__ == "__main__":
    main()
