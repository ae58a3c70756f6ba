#!/usr/bin/env python3
"""One pass of one workload in a fresh process.

    python3 perfbench/onepass.py <workload> <seed> <full|small> <traced 0|1>

Prints the pass's record as one JSON line: host seconds of its setup and
of the rest, the process's peak memory, the checks, the modelled results
and the layer counters.  ``run.py`` starts one such process per pass, so
every pass sees the interpreter and the allocator as a user's single run
of the simulator does.  A traced pass also runs under the package
profiler and ``repro.obs.capture()``, and its record carries per-package
host seconds and the observers' counters.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def measure(workload: str, seed: int, size: str, traced: bool) -> Dict[str, Any]:
    """Run one pass in this process and return its record."""
    from layers import PackageProfiler, observer_counters
    from repro.obs import capture
    from workloads import WORKLOADS

    make_inputs, run_pass = WORKLOADS[workload]
    inputs = make_inputs(seed, size)
    record: Dict[str, Any] = {}
    t0 = time.perf_counter()
    if traced:
        with capture() as session:
            with PackageProfiler() as profiler:
                log = run_pass(inputs)
        record["host_s"] = profiler.self_s
        record["observers"] = observer_counters(session.observers)
    else:
        log = run_pass(inputs)
    record.update(
        setup_s=log.setup_s,
        wall_s=time.perf_counter() - t0 - log.setup_s,
        peak_mem_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        planned=log.planned,
        failed=log.failed,
        errors=log.errors,
        counters=dict(log.counters),
        modelled=log.modelled(),
    )
    return record


def main(argv) -> int:
    workload, seed, size, traced = argv
    sys.path[:0] = [str(SRC), str(HERE)]
    record = measure(workload, int(seed), size, traced == "1")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
