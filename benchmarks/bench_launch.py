#!/usr/bin/env python
"""Launch-scaling bench — modelled launch time, host setup seconds and
peak memory against job width.

Each point launches ``N`` ranks of the default MPI stack with the paper's
best options, two ranks per node on a fat-tree of ``N/2`` nodes; every
rank runs one barrier.  Recorded per width:

* ``launch_us`` — modelled µs until the last rank enters its app body:
  RTE startup fence, MPI init and wire-up (deterministic);
* ``launch_us_per_rank`` — the same divided by ``N``;
* ``setup_s`` — host seconds from building the cluster until the last
  rank enters its app body, fastest of 3 runs (1 with ``--smoke``);
* ``peak_rss_mb`` — peak resident memory of the run's process, median of
  the same runs.

Every run is a fresh child process, run one after another, so each peak
is that run's own and no run warms another's caches.

``--smoke`` runs 64 and 256 ranks once each and fails unless the modelled
per-rank launch cost falls from 64 to 256 ranks (the startup fence is a
tree, so launch grows slower than the job).  ``--full`` adds 1024 ranks.

Usage:
    PYTHONPATH=src python benchmarks/bench_launch.py --smoke
    PYTHONPATH=src python benchmarks/bench_launch.py --out benchmarks/BENCH_launch.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

WIDTHS = (64, 128, 256, 512)
FULL_WIDTHS = WIDTHS + (1024,)
SMOKE_WIDTHS = (64, 256)


def one_launch(ranks: int) -> dict:
    """Launch ``ranks`` ranks in this process; return the point's raw
    measurements (run in a fresh child per point)."""
    import numpy as np

    from repro.bench.harness import BEST
    from repro.cluster import Cluster
    from repro.mpi.world import make_mpi_stack_factory
    from repro.rte.environment import RteJob

    entered: dict = {}

    def app(mpi):
        entered[mpi.rank] = (mpi.now, time.perf_counter())
        yield from mpi.comm_world.barrier()

    t0 = time.perf_counter()
    cluster = Cluster(nodes=ranks // 2)
    job = RteJob(cluster, stack_factory=make_mpi_stack_factory(**BEST))
    for rank in range(ranks):
        job.launch(rank, app, group="world", group_count=ranks)
    job.wait()
    if sorted(entered) != list(range(ranks)):
        raise RuntimeError(f"only {len(entered)}/{ranks} ranks entered their app")
    return {
        "ranks": ranks,
        "launch_us": max(sim for sim, _host in entered.values()),
        "setup_s": max(host for _sim, host in entered.values()) - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": cluster.sim.events_processed,
        "numpy": np.__version__,
    }


def measure(ranks: int, repeats: int) -> dict:
    runs = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", str(ranks)],
            check=True, capture_output=True, text=True,
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    modelled = {(r["launch_us"], r["events"]) for r in runs}
    if len(modelled) != 1:
        raise RuntimeError(f"{ranks} ranks: modelled results differ across runs: {modelled}")
    first = runs[0]
    return {
        "ranks": ranks,
        "launch_us": first["launch_us"],
        "launch_us_per_rank": first["launch_us"] / ranks,
        "events": first["events"],
        "setup_s": min(r["setup_s"] for r in runs),
        "setup_s_runs": [round(r["setup_s"], 4) for r in runs],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "numpy": first["numpy"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="64 and 256 ranks, one run each (CI mode)")
    mode.add_argument("--full", action="store_true", help="add 1024 ranks")
    ap.add_argument("--out", default="BENCH_launch.json",
                    help="report path (default: %(default)s)")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.one is not None:
        print(json.dumps(one_launch(args.one)))
        return 0

    widths = SMOKE_WIDTHS if args.smoke else FULL_WIDTHS if args.full else WIDTHS
    repeats = 1 if args.smoke else 3
    print(f"{'ranks':>6} {'launch(us)':>11} {'us/rank':>8} {'setup(s)':>9} {'rss(MB)':>8}")
    points = []
    for ranks in widths:
        p = measure(ranks, repeats)
        points.append(p)
        print(f"{ranks:>6} {p['launch_us']:>11.1f} {p['launch_us_per_rank']:>8.2f} "
              f"{p['setup_s']:>9.3f} {p['peak_rss_mb']:>8.1f}")

    report = {
        "schema": "repro.bench.launch/v1",
        "mode": "smoke" if args.smoke else "full" if args.full else "default",
        "repeats": repeats,
        "stack": "mpi, best options, two ranks per node, one barrier",
        "provenance": {
            "python": platform.python_version(),
            "numpy": points[0]["numpy"],
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "repro_env": {k: v for k, v in sorted(os.environ.items())
                          if k.startswith("REPRO_")},
        },
        "points": [{k: v for k, v in p.items() if k != "numpy"} for p in points],
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    per_rank = {p["ranks"]: p["launch_us_per_rank"] for p in points}
    if 64 in per_rank and 256 in per_rank and not per_rank[256] < per_rank[64]:
        print(f"FAIL: per-rank launch cost did not fall from 64 to 256 ranks "
              f"({per_rank[64]:.2f} -> {per_rank[256]:.2f} us)", file=sys.stderr)
        return 1
    print("launch bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
