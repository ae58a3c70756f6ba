"""The benchmark's four workloads.

Each workload is a pair of functions: ``make_*_inputs(seed, size)`` turns
the seed into every input the run needs (payloads, fleet arrivals, the
fault time, collective operands), and ``run_*_pass(inputs)`` runs one
fixed-size pass over the simulator and returns a :class:`PassLog`.  A pass
is timed to completion; the runner repeats it, each pass in a fresh process.

Why these four (see ``README.md`` for the layer map):

* ``paper_p2p``   -- the paper's own evaluation (Fig. 7/8/10, Table 1):
  the point-to-point stack does nearly all the work; launch, collectives,
  the scheduler and the IB rail do almost none.
* ``launch_coll`` -- one wide job: launch and wire-up cost as ranks grow,
  then small collectives checked against numpy.
* ``fleet_faults`` -- many small co-resident launches under FIFO+EASY
  backfill, open-loop seeded arrivals, and a spine switch that dies
  mid-traffic.
* ``roce_incast`` -- the only workload on the IB rail: a 7->1 incast in
  RoCE mode with PFC+ECN.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from layers import cluster_counters
from repro.bench.harness import BEST
from repro.bench.table1 import MODES as TABLE1_MODES
from repro.baselines.mpich_qsnet import MpichQsnetJob
from repro.cluster import Cluster
from repro.core.ptl.elan4.module import Elan4PtlOptions
from repro.core.request import ANY_SOURCE
from repro.faults import FaultPlan
from repro.ib.options import IbOptions
from repro.mpi.world import MpiStack
from repro.rte.environment import RteJob
from repro.sched import FleetRun, JobSpec
from repro.sched.scheduler import DONE

#: fixed input sizes; "small" is what the benchmark's own tests run
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "paper_p2p": {
        "full": dict(
            lat_sizes=[0, 4, 64, 512, 1984, 1985, 4096, 16384, 65536, 262144, 1048576],
            bw_sizes=[4096, 16384, 65536, 262144, 1048576],
            warmup=2, iters=20, bw_messages=16, window=8, table1_iters=8,
        ),
        "small": dict(
            lat_sizes=[0, 4, 4096, 65536], bw_sizes=[4096, 65536],
            warmup=1, iters=3, bw_messages=8, window=4, table1_iters=2,
        ),
    },
    "launch_coll": {
        "full": dict(ranks=256, nodes=128, rounds=2, vec=8),
        "small": dict(ranks=32, nodes=16, rounds=2, vec=8),
    },
    "fleet_faults": {
        "full": dict(nodes=16, blocks=2, np_choices=[2, 4, 8], steps=5,
                     sealed_np=8, sealed_steps=40,
                     mean_interarrival_us=40.0, fault_window_us=(700.0, 800.0),
                     fault_duration_us=1500.0),
        "small": dict(nodes=16, blocks=1, np_choices=[2, 4], steps=2,
                      sealed_np=4, sealed_steps=12,
                      mean_interarrival_us=40.0, fault_window_us=(350.0, 450.0),
                      fault_duration_us=1000.0),
    },
    "roce_incast": {
        "full": dict(sizes=[1536, 16384], senders=7, messages=30, rounds=3),
        "small": dict(sizes=[1536, 16384], senders=3, messages=8, rounds=1),
    },
}

FLEET_FAMILIES = ("train", "shuffle", "stencil", "sort")
FLEET_SWITCH = "sw1.0"  # a spine of the 16-node quaternary fat-tree
PAYLOAD_POOL_BYTES = (1 << 20) + (1 << 16)
PAYLOAD_OFFSETS = 4096


class PassLog:
    """Everything one pass measured: host seconds, modelled results,
    correctness checks and layer counters."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.peak_mem_mb = 0.0
        #: operations planned (checked messages, collective calls, jobs)
        self.planned = 0
        #: operations whose check passed
        self.passed = 0
        #: failures that are not operations (a job that raised, a fault
        #: that never fired) and the first few failed checks
        self.errors: List[str] = []
        self.launch_us: List[float] = []
        self.op_us: List[float] = []
        self.makespan_us = 0.0
        self.counters: Counter = Counter()
        self.detail: Dict[str, float] = {}

    @property
    def failed(self) -> int:
        return self.planned - self.passed

    def check(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        elif len(self.errors) < 10:
            self.errors.append(f"check failed: {what}")

    def error(self, what: str) -> None:
        self.errors.append(what)

    def modelled(self) -> Dict[str, Any]:
        """The deterministic part of the pass: equal on every pass of a
        run and on every run with the same seed."""
        return {
            "events": self.counters["sim.events"],
            "launch_us": self.launch_us,
            "op_us": self.op_us,
            "makespan_us": self.makespan_us,
            "detail": self.detail,
        }


class Probe:
    """Notes when each rank's application body starts, in modelled and in
    host time -- the end of launch, RTE startup, MPI init and wire-up."""

    def __init__(self) -> None:
        self.sim_us: Dict[Any, float] = {}
        self.host_s: Dict[Any, float] = {}

    def entered(self, key: Any, sim_now: float) -> None:
        if key not in self.sim_us:
            self.sim_us[key] = sim_now
            self.host_s[key] = time.perf_counter()

    def stack_factory(self, **stack_kwargs) -> Callable:
        def factory(process, transports):
            return _ProbedStack(self, process, transports, **stack_kwargs)

        return factory


class _ProbedStack(MpiStack):
    """The MPI stack, noting the moment the RTE asks for the user API:
    once per rank, just before the app body starts."""

    def __init__(self, probe: Probe, process, transports, **stack_kwargs) -> None:
        super().__init__(process, transports, **stack_kwargs)
        self.probe = probe

    def user_api(self):
        self.probe.entered(self.process, self.process.node.sim.now)
        return super().user_api()


def _end_cluster(log: PassLog, cluster, t0: float, probe: Probe, jobs, nets) -> None:
    """Charge one drained cluster to the pass: setup seconds from before
    the cluster was built until the last rank entered its app body."""
    last = max(probe.host_s.values(), default=time.perf_counter())
    log.setup_s += last - t0
    log.counters.update(cluster_counters(cluster, jobs=jobs, nets=nets))
    log.counters["coll.hw_fallbacks"] += cluster.coll_hw.hw_fallbacks


def _run_rte_job(log: PassLog, cluster_kwargs: Dict[str, Any], app: Callable,
                 np_: int, transports=("elan4",), measured: bool = True,
                 **stack_kwargs) -> None:
    """Build a cluster, launch ``app`` on ``np_`` ranks, run it to the end.
    A ``measured`` job's launch time and makespan are the pass's own; any
    other job only adds its setup seconds, checks and counters."""
    probe = Probe()
    t0 = time.perf_counter()
    cluster = Cluster(**cluster_kwargs)
    job = RteJob(cluster, stack_factory=probe.stack_factory(**stack_kwargs))
    for rank in range(np_):
        job.launch(rank, app, group="world", group_count=np_, transports=transports)
    try:
        job.wait()
        cluster.assert_no_drops()
    except Exception as exc:  # the ops this job owed stay unchecked: failed
        log.error(f"job raised {type(exc).__name__}: {exc}")
    _end_cluster(log, cluster, t0, probe, jobs=[job], nets=[job.net])
    if measured:
        log.makespan_us = cluster.sim.now
        if probe.sim_us:
            log.launch_us.append(max(probe.sim_us.values()))


class Payloads:
    """Seeded message contents: message ``k`` of ``n`` bytes is a window of
    one random pool at a seeded offset, so sender and receiver agree."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.pool = rng.integers(0, 256, PAYLOAD_POOL_BYTES, dtype=np.uint8)
        self.offsets = rng.integers(0, 1 << 16, PAYLOAD_OFFSETS)

    def get(self, k: int, n: int) -> np.ndarray:
        off = int(self.offsets[k % len(self.offsets)])
        return self.pool[off:off + n]


def _same(buf, n: int, expected: np.ndarray) -> bool:
    got = buf.read(0, n) if n else np.empty(0, np.uint8)
    return np.array_equal(got, expected)


# ------------------------------------------------------------- paper_p2p
def make_paper_p2p_inputs(seed: int, size: str) -> Dict[str, Any]:
    return dict(SIZES["paper_p2p"][size],
                payloads=Payloads(np.random.default_rng(seed)))


def _pingpong(log: PassLog, inp, rank: int, now, send, recv, buf, sizes, iters,
              lat: Dict[int, float], ops: Optional[List[float]] = None):
    """Closed-loop ping-pong, every payload checked at its receiver; the
    mean one-way latency per size goes to ``lat`` and, if ``ops`` is
    given, one sample (half the round trip) per measured iteration."""
    pay = inp["payloads"]
    k = 0
    for n in sizes:
        total = 0.0
        for i in range(inp["warmup"] + iters):
            ping, pong = pay.get(k, n), pay.get(k + 1, n)
            k += 2
            if rank == 0:
                t0 = now()
                buf.write(ping)
                yield from send(buf, n)
                yield from recv(buf, n)
                log.check(_same(buf, n, pong), f"pong {n} B #{i}")
                if i >= inp["warmup"]:
                    total += now() - t0
                    if ops is not None:
                        ops.append((now() - t0) / 2)
            else:
                yield from recv(buf, n)
                log.check(_same(buf, n, ping), f"ping {n} B #{i}")
                buf.write(pong)
                yield from send(buf, n)
        if rank == 0:
            lat[n] = total / (2 * iters)


def _stream(log: PassLog, inp, mpi, bw: Dict[int, float]):
    """Windowed unidirectional stream (Fig. 10b), payloads checked."""
    comm, pay, window = mpi.comm_world, inp["payloads"], inp["window"]
    bufs = [mpi.alloc(max(inp["bw_sizes"])) for _ in range(window)]
    for n in inp["bw_sizes"]:
        msgs = inp["bw_messages"]
        if mpi.rank == 0:
            t0 = mpi.now
            reqs = []
            for i in range(msgs):
                if len(reqs) >= window:
                    yield from mpi.wait(reqs.pop(0))
                bufs[i % window].write(pay.get(i, n))
                req = yield from comm.isend(bufs[i % window], dest=1, tag=2, nbytes=n)
                reqs.append(req)
            yield from mpi.waitall(reqs)
            yield from comm.recv(source=1, tag=3, nbytes=0)
            bw[n] = msgs * n / (mpi.now - t0)
        else:
            pending = []
            for i in range(msgs):
                if len(pending) >= window:
                    req, j = pending.pop(0)
                    yield from mpi.wait(req)
                    log.check(_same(bufs[j % window], n, pay.get(j, n)),
                              f"stream {n} B #{j}")
                req = yield from comm.irecv(n, source=0, tag=2, buffer=bufs[i % window])
                pending.append((req, i))
            for req, j in pending:
                yield from mpi.wait(req)
                log.check(_same(bufs[j % window], n, pay.get(j, n)),
                          f"stream {n} B #{j}")
            yield from comm.send(b"", dest=0, tag=3, nbytes=0)


def _ompi_app(log: PassLog, inp, sizes, iters, lat, bw=None, ops=None):
    def app(mpi):
        comm, other = mpi.comm_world, 1 - mpi.rank
        buf = mpi.alloc(max(max(sizes), 1))
        yield from _pingpong(
            log, inp, mpi.rank, lambda: mpi.now,
            lambda b, n: comm.send(b, dest=other, tag=1, nbytes=n),
            lambda b, n: comm.recv(source=other, tag=1, nbytes=n, buffer=b),
            buf, sizes, iters, lat, ops)
        if bw is not None:
            yield from _stream(log, inp, mpi, bw)
    return app


def _mpich_pingpong(log: PassLog, inp, lat: Dict[int, float]) -> None:
    """MPICH-QsNetII comparator at the latency sizes (static libelan job,
    no RTE launch)."""
    probe = Probe()
    t0 = time.perf_counter()
    cluster = Cluster(nodes=2)
    job = MpichQsnetJob(cluster, np=2)
    sizes = inp["lat_sizes"]

    def app(mq):
        probe.entered(mq.rank, mq.now)
        other = 1 - mq.rank
        buf = mq.alloc(max(sizes))
        yield from _pingpong(
            log, inp, mq.rank, lambda: mq.now,
            lambda b, n: mq.send(b, dest=other, tag=1, nbytes=n),
            lambda b, n: mq.recv(b, source=other, tag=1),
            buf, sizes, inp["iters"], lat)

    try:
        job.run(app)
        cluster.assert_no_drops()
    except Exception as exc:
        log.error(f"mpich job raised {type(exc).__name__}: {exc}")
    _end_cluster(log, cluster, t0, probe, jobs=[], nets=[])


def run_paper_p2p_pass(inp: Dict[str, Any]) -> PassLog:
    log = PassLog()
    lat_sizes, warm, iters = inp["lat_sizes"], inp["warmup"], inp["iters"]
    n_lat = len(lat_sizes) * (warm + iters) * 2
    lat: Dict[int, float] = {}
    bw: Dict[int, float] = {}
    log.planned += n_lat + len(inp["bw_sizes"]) * inp["bw_messages"]
    # the end-to-end figures (op samples, launch, makespan) come from this
    # best-options job only; Table 1's modes and the MPICH comparator below
    # are checked and reported in the detail line
    _run_rte_job(log, dict(nodes=2),
                 _ompi_app(log, inp, lat_sizes, iters, lat, bw, ops=log.op_us),
                 2, **BEST)

    table1: Dict[str, Dict[int, float]] = {}
    for name, (mode, cq) in TABLE1_MODES.items():
        table1[name] = {}
        log.planned += 2 * (warm + inp["table1_iters"]) * 2
        _run_rte_job(log, dict(nodes=2),
                     _ompi_app(log, inp, [4, 4096], inp["table1_iters"], table1[name]),
                     2, measured=False, progress_mode=mode,
                     elan4_options=Elan4PtlOptions(completion_queue=cq))

    mpich: Dict[int, float] = {}
    log.planned += n_lat
    _mpich_pingpong(log, inp, mpich)

    log.detail = {
        "lat_small_us": lat.get(4, 0.0),
        "lat_rndv_us": lat.get(4096, 0.0),
        "bw_MBps": bw.get(max(inp["bw_sizes"]), 0.0),
        "mpich_lat_small_us": mpich.get(4, 0.0),
    }
    for name, series in table1.items():
        key = name.lower().replace(" ", "_")
        for n, v in series.items():
            log.detail[f"table1_{key}_{n}B_us"] = v
    return log


# ----------------------------------------------------------- launch_coll
def make_launch_coll_inputs(seed: int, size: str) -> Dict[str, Any]:
    p = dict(SIZES["launch_coll"][size])
    rng = np.random.default_rng(seed)
    ranks, rounds, vec = p["ranks"], p["rounds"], p["vec"]
    p["roots"] = [int(r) for r in rng.integers(0, ranks, rounds)]
    p["bcast"] = rng.integers(-(1 << 40), 1 << 40, (rounds, vec), dtype=np.int64)
    p["vectors"] = rng.integers(-(1 << 30), 1 << 30, (rounds, ranks, vec),
                                dtype=np.int64)
    p["sums"] = p["vectors"].sum(axis=1)
    return p


def run_launch_coll_pass(inp: Dict[str, Any]) -> PassLog:
    log = PassLog()
    ranks, rounds = inp["ranks"], inp["rounds"]
    synced: Dict[int, tuple] = {}
    marks: Dict[tuple, tuple] = {}
    got: Dict[tuple, tuple] = {}

    def app(mpi):
        comm, r = mpi.comm_world, mpi.rank
        # ranks leave launch staggered; one barrier lines them up so the
        # timed rounds measure collectives, not launch skew
        t0 = mpi.now
        yield from comm.barrier()
        synced[r] = (t0, mpi.now)
        for k in range(rounds):
            t0 = mpi.now
            yield from comm.barrier()
            t1 = mpi.now
            root = inp["roots"][k]
            data = inp["bcast"][k].copy() if r == root else None
            b = yield from comm.bcast(data, root=root)
            t2 = mpi.now
            s = yield from comm.allreduce(inp["vectors"][k, r].copy(), op="sum")
            marks[k, r] = (t0, t1, t2, mpi.now)
            got[k, r] = (b, s)

    def barrier_held(rows, what: str) -> None:
        enter, leave = max(row[0] for row in rows), min(row[1] for row in rows)
        log.check(enter <= leave,
                  f"{what}: a rank left at {leave} before the last entered at {enter}")

    log.planned = 1 + 3 * rounds
    _run_rte_job(log, dict(nodes=inp["nodes"]), app, ranks, **BEST)

    if len(synced) == ranks:
        barrier_held(list(synced.values()), "startup barrier")
    round_us = []
    for k in range(rounds):
        rows = [marks.get((k, r)) for r in range(ranks)]
        if any(row is None for row in rows):
            continue  # the job died before this round: its ops stay failed
        barrier_held(rows, f"barrier {k}")
        sent = inp["bcast"][k].tobytes()  # bcast hands back the payload bytes
        log.check(all(got[k, r][0] == sent for r in range(ranks)),
                  f"bcast {k} from root {inp['roots'][k]}")
        log.check(all(np.array_equal(got[k, r][1], inp["sums"][k])
                      for r in range(ranks)),
                  f"allreduce {k}")
        for t0, t1, t2, t3 in rows:
            log.op_us.extend((t1 - t0, t2 - t1, t3 - t2))
        round_us.append(max(row[3] for row in rows) - min(row[0] for row in rows))
    log.detail = {
        "launch_us": log.launch_us[0] if log.launch_us else 0.0,
        "coll_round_us": float(np.mean(round_us)) if round_us else 0.0,
    }
    return log


# ---------------------------------------------------------- fleet_faults
def make_fleet_faults_inputs(seed: int, size: str) -> Dict[str, Any]:
    """A fixed job sequence with seeded open-loop arrivals: every block
    holds one job of each family at each width, in a fixed order, so the
    seed moves arrival times, placement and the fault time but not the
    mix or order of work (a seeded mix moved host time by a third)."""
    p = dict(SIZES["fleet_faults"][size])
    rng = np.random.default_rng(seed)
    # the first job seals the static hardware-collective cohort (§4.1); its
    # per-step fence barriers ride the NIC barrier tree until the switch
    # dies, then fall back to software -- later tenants join dynamically
    # and use software collectives throughout
    t = float(rng.exponential(p["mean_interarrival_us"]))
    arrivals = [(round(t, 3), JobSpec(name="rma-sealed", family="rma",
                                      np=p["sealed_np"], steps=p["sealed_steps"]))]
    for b in range(p["blocks"]):
        for n in p["np_choices"]:
            for family in FLEET_FAMILIES:
                t += float(rng.exponential(p["mean_interarrival_us"]))
                spec = JobSpec(name=f"{family}-{n}-{b}", family=family, np=n,
                               steps=p["steps"])
                arrivals.append((round(t, 3), spec))
    p["arrivals"] = arrivals
    p["fault_at_us"] = round(float(rng.uniform(*p["fault_window_us"])), 3)
    p["seed"] = seed
    return p


def run_fleet_faults_pass(inp: Dict[str, Any]) -> PassLog:
    log = PassLog()
    probe = Probe()
    t0 = time.perf_counter()
    cluster = Cluster(nodes=inp["nodes"], seed=inp["seed"])
    plan = FaultPlan("spine-death", seed=inp["seed"]).switch_death(
        at_us=inp["fault_at_us"], switch=FLEET_SWITCH,
        duration_us=inp["fault_duration_us"])
    fleet = FleetRun(cluster, inp["arrivals"], policy="packed", slots_per_node=2,
                     seed=inp["seed"], fault_plan=plan,
                     stack_factory=probe.stack_factory(**BEST))
    log.planned = len(inp["arrivals"])
    result = None
    try:
        result = fleet.run()
        cluster.assert_no_drops()
    except Exception as exc:
        log.error(f"fleet raised {type(exc).__name__}: {exc}")
    runs = fleet.scheduler.runs
    for run in runs:
        log.check(run.state == DONE, f"job {run.spec.name} ended {run.state}")

    # setup: cluster build until the last rank of the first (sealed) job
    # entered its app body; every later launch is part of the fleet's work
    started = [run for run in runs if run.job is not None]
    sealed = [probe.host_s[p] for p in started[0].job.processes.values()
              if p in probe.host_s] if started else []
    log.setup_s = max(sealed, default=time.perf_counter()) - t0
    for run in started:
        entries = [probe.sim_us[p] for p in run.job.processes.values()
                   if p in probe.sim_us]
        if entries:
            log.launch_us.append(max(entries) - run.stats.start_us)
    steps = [s for run in runs for s in run.stats.step_us]
    log.op_us = steps
    log.makespan_us = cluster.sim.now
    log.counters.update(cluster_counters(
        cluster, jobs=[run.job for run in started], nets=[fleet.scheduler.net]))
    log.counters["coll.hw_fallbacks"] += sum(run.lease.coll_hw.hw_fallbacks
                                             for run in started)
    log.counters["sched.backfills"] += fleet.scheduler.counters()["backfills"]
    waits = [run.stats.queue_wait_us for run in started]
    notes = result.fault_notes if result is not None else []
    if not any("switch_death" in n for n in notes):
        log.error("the spine switch never died")
    log.detail = {
        "step_p50_us": float(np.percentile(steps, 50)) if steps else 0.0,
        "step_p95_us": float(np.percentile(steps, 95)) if steps else 0.0,
        "steps": len(steps),
        "makespan_us": log.makespan_us,
        "queue_wait_p95_us": float(np.percentile(waits, 95)) if waits else 0.0,
    }
    log.counters["sched.queue_wait_p95_us"] = log.detail["queue_wait_p95_us"]
    return log


# ----------------------------------------------------------- roce_incast
def make_roce_incast_inputs(seed: int, size: str) -> Dict[str, Any]:
    p = dict(SIZES["roce_incast"][size])
    p["payloads"] = Payloads(np.random.default_rng(seed))
    p["seed"] = seed
    return p


def run_roce_incast_pass(inp: Dict[str, Any]) -> PassLog:
    log = PassLog()
    senders, msgs, rounds = inp["senders"], inp["messages"], inp["rounds"]
    pay = inp["payloads"]
    lats: Dict[int, List[float]] = {n: [] for n in inp["sizes"]}

    def key(src: int, k: int, i: int) -> int:
        return (k * (senders + 1) + src) * msgs + i

    def app(mpi):
        comm, r = mpi.comm_world, mpi.rank
        for n in inp["sizes"]:
            count = senders * msgs if r == 0 else msgs
            bufs = [mpi.alloc(n) for _ in range(count)]
            for k in range(rounds):
                yield from comm.barrier()
                if r == 0:
                    # every receive pre-posted: all senders' transfers fly at once
                    reqs = []
                    for b in bufs:
                        req = yield from comm.irecv(n, source=ANY_SOURCE, tag=5,
                                                    buffer=b)
                        reqs.append(req)
                    yield from mpi.waitall(reqs)
                    seen: Counter = Counter()
                    for req, b in zip(reqs, bufs):
                        src = req.status.source
                        i = seen[src]
                        seen[src] += 1
                        # non-overtaking: the i-th arrival from src is its i-th send
                        log.check(_same(b, n, pay.get(key(src, k, i), n)),
                                  f"incast {n} B round {k} msg {i} from {src}")
                    continue
                for i, b in enumerate(bufs):
                    b.write(pay.get(key(r, k, i), n))
                t0 = mpi.now
                reqs = []
                for b in bufs:
                    reqs.append((yield from comm.isend(b, dest=0, tag=5, nbytes=n)))
                for req in reqs:
                    yield from mpi.wait(req)
                    lats[n].append(mpi.now - t0)

    log.planned = len(inp["sizes"]) * rounds * senders * msgs
    _run_rte_job(log, dict(nodes=senders + 1, seed=inp["seed"], ib_rail=True,
                           ib_options=IbOptions(mode="roce", pfc=True, ecn=True)),
                 app, senders + 1, transports=("ib",))
    for n in inp["sizes"]:
        log.op_us.extend(lats[n])
    log.detail = {
        "incast_p50_us": float(np.percentile(log.op_us, 50)) if log.op_us else 0.0,
        "incast_p95_us": float(np.percentile(log.op_us, 95)) if log.op_us else 0.0,
        "samples": len(log.op_us),
    }
    for n in inp["sizes"]:
        if lats[n]:
            log.detail[f"incast_p95_{n}B_us"] = float(np.percentile(lats[n], 95))
    return log


WORKLOADS: Dict[str, tuple] = {
    "paper_p2p": (make_paper_p2p_inputs, run_paper_p2p_pass),
    "launch_coll": (make_launch_coll_inputs, run_launch_coll_pass),
    "fleet_faults": (make_fleet_faults_inputs, run_fleet_faults_pass),
    "roce_incast": (make_roce_incast_inputs, run_roce_incast_pass),
}
