"""One measured process.  Started by run.py; not meant to be run by hand.

    child.py WORKLOAD SEED BUDGET_S MODE

MODE is setup (build inputs and exit), run (untraced), trace (with
per-layer spans) or enum-j2 (time the 6x5 enumeration at jobs=2).  The
child prints "ready" once its inputs are built, then one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import latcov
import latcov.cli  # noqa: F401  (imports every latcov module)

import workloads
from spans import Tracer


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def enum_j2() -> dict:
    """Wall time of the 6x5 enumeration sharded over two processes."""
    enumerate_sets = getattr(latcov, "enumerate_lattice_convex", None)
    if enumerate_sets is None:
        return {"enum_j2_s": 0.0, "attempted": 0, "failed": 0, "errors": []}
    t0 = time.perf_counter()
    n = sum(1 for _ in enumerate_sets(6, 5, jobs=2))
    dt = time.perf_counter() - t0
    ok = n == workloads.SEARCH_TOTAL_SETS
    return {"enum_j2_s": dt, "attempted": 1, "failed": 0 if ok else 1,
            "errors": [] if ok else [f"jobs=2 enumeration gave {n} sets"]}


def main(argv) -> int:
    name, seed, budget, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    build, run = workloads.WORKLOADS[name]
    inputs = build(seed, latcov) if mode != "enum-j2" else None
    print("ready", flush=True)
    if mode == "setup":
        return 0
    if mode == "enum-j2":
        out = enum_j2()
    else:
        tracer = Tracer() if mode == "trace" else None
        if tracer is not None:
            tracer.install()
        samples = run(inputs, budget, latcov)
        out = samples.to_json()
        if tracer is not None:
            out["layers"] = tracer.metrics()
    out["rss_mb"] = peak_rss_mb()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
