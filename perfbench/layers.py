"""Per-layer measurement taken from outside the simulator.

Two instruments, neither of which needs a hook inside ``src/``:

* :func:`cluster_counters` reads the work counters that the ``repro``
  packages already expose through public attributes and ``stats()``
  accessors, once a cluster has drained.
* :class:`PackageProfiler` is a ``sys.setprofile`` hook that charges host
  self time to the ``repro.<package>`` whose function is running, with one
  ``other`` bucket for numpy, builtins, the benchmark and everything else.
  It slows a pass 5.5-10x, so end-to-end numbers never come from a
  profiled pass.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any, Dict, Iterable, List

import numpy as np

#: packages whose self time the profiler reports (everything else -> other)
PACKAGES = (
    "sim", "hw", "elan4", "ib", "tcpip", "rte", "core", "mpi", "coll",
    "sched", "apps", "baselines", "faults", "obs",
)
_PACKAGE_SET = frozenset(PACKAGES)


def _bucket_of_module(name: str) -> str:
    parts = name.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in _PACKAGE_SET:
        return parts[1]
    return "other"


class PackageProfiler:
    """Host self seconds per ``repro`` package, from a profile hook.

    Generator resumption and ``yield`` arrive as ``call``/``return`` pairs,
    so a plain stack of buckets follows the coroutine trampoline exactly.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {b: 0.0 for b in PACKAGES + ("other",)}
        self._stack: List[str] = []
        self._code_bucket: Dict[Any, str] = {}
        self._last = 0.0

    def _hook(self, frame, event, arg) -> None:
        now = time.perf_counter()
        stack = self._stack
        self.self_s[stack[-1] if stack else "other"] += now - self._last
        if event == "call":
            code = frame.f_code
            bucket = self._code_bucket.get(code)
            if bucket is None:
                bucket = _bucket_of_module(frame.f_globals.get("__name__", ""))
                self._code_bucket[code] = bucket
            stack.append(bucket)
        elif event == "c_call":
            stack.append("other")
        elif stack:  # return, c_return, c_exception
            stack.pop()
        # the hook's own cost is charged to nobody
        self._last = time.perf_counter()

    def __enter__(self) -> "PackageProfiler":
        self._last = time.perf_counter()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)


def cluster_counters(cluster, jobs: Iterable[Any] = (),
                     nets: Iterable[Any] = ()) -> Counter:
    """Work counters of one drained cluster, read from public accessors.

    ``jobs`` are the RTE jobs (or fleet runs' jobs) whose per-rank address
    spaces count towards ``hw.alloc_bytes``; ``nets`` are the IP networks
    the RTE's out-of-band traffic crossed.
    """
    c: Counter = Counter()
    c["sim.events"] += cluster.sim.events_processed
    for node in cluster.nodes:
        c["hw.cpu_busy_us"] += node.scheduler.stats()["busy_time_us"]
    # every NIC (Elan4 or IB) sits on its own PCI-X bus model
    for nics in list(cluster.rail_nics) + list(cluster.ib_nics):
        for nic in nics:
            c["hw.pci_bytes"] += nic.pci.stats()["bytes_moved"]
    for job in jobs:
        for proc in job.processes.values():
            c["hw.alloc_bytes"] += proc.space.allocated_bytes
    for fabric in cluster.rail_fabrics:
        c["elan4.packets"] += fabric.packets_delivered
        c["elan4.bytes"] += fabric.bytes_delivered
    for topology in cluster.rail_topologies:
        c["faults.reroutes"] += topology.reroutes
        for name in sorted(topology.switches):
            c["elan4.switch_routed"] += topology.switches[name].packets_routed
    for nics in cluster.rail_nics:
        for nic in nics:
            c["elan4.rdma_bytes"] += nic.rdma.bytes_written + nic.rdma.bytes_read
            c["elan4.mmu_translations"] += nic.mmu.translations
            c["elan4.tlb_hits"] += nic.mmu.tlb_hits
    for fabric in cluster.ib_fabrics:
        stats = fabric.stats()
        c["ib.drops"] += stats["drops"]
        c["ib.ecn_marks"] += stats["ecn_marks"]
        c["ib.pause_us"] += stats["pause_us"]
    for nics in cluster.ib_nics:
        for nic in nics:
            stats = nic.stats()
            c["ib.pkts"] += stats["packets_tx"]
            c["ib.retransmits"] += stats["retransmits"]
    for net in nets:
        c["tcpip.bytes"] += net.bytes_delivered
    return c


def observer_counters(observers: Iterable[Any]) -> Dict[str, float]:
    """PML/PTL/coll counters and the Fig. 9 flight decomposition from the
    observers a ``repro.obs.capture()`` block collected."""
    c: Counter = Counter()
    latencies: List[float] = []
    layer_sum: Counter = Counter()
    flights = 0
    for ob in observers:
        scopes = ob.snapshot()["scopes"]

        def value(scope: str, name: str) -> float:
            return scopes.get(scope, {}).get(name, {}).get("value", 0)

        c["pml.sends"] += value("pml", "sends_started")
        c["ptl.eager_sends"] += value("ptl", "eager_sends")
        c["ptl.rndv_sends"] += value("ptl", "rndv_sends")
        for name, metric in scopes.get("coll", {}).items():
            if metric.get("type") == "counter" and not name.endswith("hw_fallback"):
                c["coll.calls"] += metric["value"]
        for rec in ob.flights.completed():
            flights += 1
            latencies.append(rec.latency_us)
            layer_sum.update(rec.layer_breakdown())
    out: Dict[str, float] = dict(c)
    if latencies:
        out["pml.msg_latency_p50_us"] = float(np.percentile(latencies, 50))
        out["pml.msg_latency_p99_us"] = float(np.percentile(latencies, 99))
    for layer in ("pml", "ptl", "nic", "switch", "unattributed"):
        out[f"flight.{layer}_us"] = layer_sum[layer] / flights if flights else 0.0
    return out
