"""The latcov benchmark's command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a latcov checkout; latcov is imported from its
src/ directory.  Every measurement happens in a fresh child process
(child.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it
records the machine, the seed and the samples behind each metric.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_ONLY_CHILDREN = 10
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


class Children:
    """Starts child.py processes, one at a time, within one deadline."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def run(self, mode, budget_s=0.0):
        """(seconds from start to ready, parsed JSON line or None)."""
        argv = [sys.executable, str(HERE / "child.py"), self.workload,
                str(self.seed), repr(budget_s), mode]
        t0 = time.perf_counter()
        # In a process group of its own, so that the child and any pool
        # it starts can be killed together.
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE,
                                start_new_session=True)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        watchdog = threading.Timer(
            max(1.0, self.deadline - time.monotonic()), kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                kill()
                proc.wait()
        if timed_out.is_set():
            raise ChildFailed(f"{mode} child ran past the deadline")
        if first.strip() != "ready" or proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
        lines = rest.strip().splitlines()
        return setup_s, (json.loads(lines[-1]) if lines else None)

    def measure(self, seconds, mode="run"):
        """Start children until `seconds` of work were measured; merge
        their samples."""
        merged = {"lat_ms": {}, "ops": 0, "attempted": 0, "failed": 0,
                  "errors": [], "measured_s": 0.0, "rss_mb": 0.0,
                  "setup_s": []}
        while merged["measured_s"] < seconds:
            setup_s, out = self.run(mode, seconds - merged["measured_s"])
            merged["setup_s"].append(setup_s)
            for kind, lat in out["lat_ms"].items():
                merged["lat_ms"].setdefault(kind, []).extend(lat)
            for key in ("ops", "attempted", "failed", "measured_s"):
                merged[key] += out[key]
            merged["errors"] += out["errors"]
            merged["rss_mb"] = max(merged["rss_mb"], out["rss_mb"])
        return merged


def gmean_ms(lat_ms) -> float:
    """Geometric mean of every call's latency.  Unlike the median of a
    batch whose call costs come in steps (one per input class), it moves
    smoothly: a k-fold slowdown of one kind of call multiplies it by k to
    the power of that kind's share of the calls."""
    logs = [math.log(max(x, 1e-6)) for v in lat_ms.values() for x in v]
    return math.exp(sum(logs) / len(logs))


def summary(lat_ms) -> dict:
    """Per kind: sample count, median, and the highest percentile with
    at least ten samples above it."""
    out = {}
    for kind, v in lat_ms.items():
        v = sorted(v)
        row = {"n": len(v), "p50_ms": statistics.median(v)}
        if len(v) > 10:
            row[f"p{100 * (len(v) - 10) // len(v)}_ms"] = v[len(v) - 11]
        out[kind] = row
    return out


def machine() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "latcov").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "git_sha": git_sha,
            "src_sha256": digest.hexdigest()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(kids, seconds):
    """(run record, end-to-end metrics)."""
    # Half the set-up samples before the measured run and half after it,
    # so that they span the run's stretch of machine speed.
    half = SETUP_ONLY_CHILDREN // 2
    setups = [kids.run("setup")[0] for _ in range(half)]
    m = kids.measure(seconds)
    setups += [kids.run("setup")[0]
               for _ in range(SETUP_ONLY_CHILDREN - half)]
    m["setup_s"] += setups
    metrics = {
        "setup_s": metric(statistics.median(m["setup_s"]), "s"),
        "peak_rss_mb": metric(m["rss_mb"], "MB"),
        "ops_per_s": metric(m["ops"] / m["measured_s"], "1/s"),
        "lat_gmean_ms": metric(gmean_ms(m["lat_ms"]), "ms"),
    }
    m["samples"] = summary(m["lat_ms"])
    return m, metrics


def per_layer(kids, seconds, workload):
    """(run record, per-layer metrics) from one traced child, its
    untraced twin (the base of trace_overhead) and, for the search, the
    jobs=2 enumeration."""
    children = [kids.run("run", seconds)[1], kids.run("trace", seconds)[1]]
    base, traced = children
    layers = dict(traced["layers"])
    if workload == "search-6x5":
        children.append(kids.run("enum-j2")[1])
        layers["enum.j2_s"] = children[-1]["enum_j2_s"]
    layers["trace_overhead"] = (gmean_ms(traced["lat_ms"])
                                / gmean_ms(base["lat_ms"]) - 1.0)
    m = {"attempted": sum(c["attempted"] for c in children),
         "failed": sum(c["failed"] for c in children),
         "errors": [e for c in children for e in c["errors"]]}
    m["samples"] = {"untraced": summary(base["lat_ms"]),
                    "traced": summary(traced["lat_ms"])}
    metrics = {name: metric(layers.get(name, 0), unit)
               for name, (unit, _) in PER_LAYER.items()}
    return m, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "latcov" / "__init__.py").is_file():
        print(f"error: no latcov sources under {SRC}; run from the root "
              "of a latcov checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    kids = Children(args.workload, args.seed)
    try:
        if args.trace:
            m, metrics = per_layer(kids, args.seconds, args.workload)
        else:
            m, metrics = end_to_end(kids, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "machine": machine(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "samples": m["samples"], "setup_samples_s": m.get("setup_s"),
        "errors": m["errors"]}))
    print(json.dumps({"correct": m["failed"] == 0 and m["attempted"] > 0,
                      "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
