"""The startup fence as an allgather over a fixed-fan-out tree.

Groups of at most ``FENCE_FANOUT`` ranks are the depth-1 case and must run
exactly the flat fence; larger groups register up the tree and receive the
seed's one encoded table down it.
"""

import pytest

from repro.bench.harness import BEST
from repro.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mpi.world import make_mpi_stack_factory
from repro.rte.environment import FENCE_FANOUT, FenceError, RteJob
from repro.rte.oob import encode
from repro.rte.spawn import spawn_procs
from repro.sim.events import SimEvent


def _info(proc):
    return {"rank": proc.rank, "node": proc.node.node_id}


class TableStack:
    """A stack that keeps the table its rank was wired up with."""

    def __init__(self, process, transports):
        self.process = process
        self.table = None

    def init_local(self, thread):
        yield thread.sim.timeout(0)
        return _info(self.process)

    def wire_up(self, thread, table):
        self.table = table
        yield thread.sim.timeout(0)

    def finalize(self, thread):
        yield thread.sim.timeout(0)

    def user_api(self):
        return self


def _launch(np_, nodes, app, stack_factory=TableStack):
    cluster = Cluster(nodes=nodes)
    job = RteJob(cluster, stack_factory=stack_factory)
    for rank in range(np_):
        job.launch(rank, app, group="world", group_count=np_)
    return cluster, job


def _fenced_app(job, np_, seen):
    """An app that holds every rank until all ``np_`` entered, then
    snapshots the seed's table (before anyone deregisters)."""
    all_in = SimEvent(job.cluster.sim)

    def app(stack):
        seen[stack.process.rank] = stack.process.job.cluster.sim.now
        if len(seen) == np_:
            seen["seed_table"] = {int(r): e for r, e in job.seed.group_table("world").items()}
            all_in.succeed(None)
        yield from stack.process.main_thread.wait_sim_event(all_in)

    return app


@pytest.mark.parametrize(
    "np_, nodes, launch_us, events",
    [(2, 2, 258.7288, 390), (8, 4, 448.7184, 1423)],
)
def test_depth1_fence_is_the_flat_fence(monkeypatch, np_, nodes, launch_us, events):
    """Pinned from the flat fence: same launch time, same event count (of
    the fast kernel; the reference kernel adds observation events)."""
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "0")
    entered = {}

    def app(mpi):
        entered[mpi.rank] = mpi.now
        yield from mpi.comm_world.barrier()

    cluster, job = _launch(np_, nodes, app, make_mpi_stack_factory(**BEST))
    job.wait()
    assert max(entered.values()) == pytest.approx(launch_us, abs=1e-9)
    assert cluster.sim.events_processed == events
    assert not job.fence_tree("world").listeners  # no relay ranks


@pytest.mark.parametrize("np_", [9, 64, 73, 256])
def test_every_rank_gets_the_seeds_table(np_):
    seen = {}
    cluster, job = _launch(np_, max(np_ // 2, 1), None)
    app = _fenced_app(job, np_, seen)
    for proc in job.processes.values():
        proc.app = app
    job.wait()
    seed_table = seen["seed_table"]
    assert sorted(seed_table) == list(range(np_))
    for rank, proc in job.processes.items():
        assert proc.stack.table == seed_table, rank
        assert proc.epoch == 0
    tree = job.fence_tree("world")
    assert all(listener.closed for listener in tree.listeners.values())
    assert len(tree.listeners) == -(-np_ // FENCE_FANOUT) - 1


def test_seed_node_sends_k_tables_not_n():
    np_, nodes = 64, 32
    seen = {}
    cluster, job = _launch(np_, nodes, None)
    app = _fenced_app(job, np_, seen)
    for proc in job.processes.values():
        proc.app = app
    sent = {}
    send_segment = job.net.send_segment

    def tally(src_node, nbytes, deliver):
        if len(seen) < np_:  # still inside the fence
            sent[src_node] = sent.get(src_node, 0) + nbytes
        return send_segment(src_node, nbytes, deliver)

    job.net.send_segment = tally
    job.wait()

    def wire(body_len):  # framing + TCP/IP headers per segment
        payload = 4 + body_len
        return payload + 40 * -(-payload // cluster.config.tcp_mss)

    table = wire(len(encode({"table": {str(r): e for r, e in seen["seed_table"].items()}})))
    replies = wire(len(encode({"ok": True, "epoch": 0})))
    tree = job.fence_tree("world")
    on_seed_node = [p for p in tree.members if p.node.node_id == job.seed_node_id]
    # the seed node's own ranks are leaves: each sends one registration up
    registrations = sum(
        wire(len(encode({"op": "register", "rank": p.rank, "group": "world",
                         "info": _info(p)})))
        for p in on_seed_node
    )
    assert all(not tree.children(p) for p in on_seed_node)
    assert sent[job.seed_node_id] <= FENCE_FANOUT * (table + replies) + registrations
    assert sent[job.seed_node_id] < np_ * table // 4


def _interior(job):
    tree = job.fence_tree("world")
    victim = tree.members[1]
    assert tree.parent(victim) is None and len(tree.children(victim)) == FENCE_FANOUT
    return tree, victim


def _first_time(np_, nodes, when):
    """Dry run: the first modelled µs at which ``when(tree, victim)`` holds."""
    cluster, job = _launch(np_, nodes, _idle)
    tree, victim = _interior(job)
    hit = []

    def poll():
        if not hit and when(tree, victim):
            hit.append(cluster.sim.now)
        elif not hit:
            cluster.sim.schedule(1.0, poll)

    cluster.sim.schedule(0.0, poll)
    job.wait()
    assert hit
    return hit[0]


def _idle(stack):
    yield stack.process.job.cluster.sim.timeout(0)
    return stack.process.rank


def _killed_run(np_, nodes, at_us, stack_factory=TableStack):
    cluster, job = _launch(np_, nodes, _idle, stack_factory)
    _tree, victim = _interior(job)
    plan = FaultPlan("fence-kill").proc_kill(at_us, victim.rank)
    FaultInjector(cluster, plan, job=job).arm()
    return cluster, job, victim


def _assert_every_survivor_fails_typed(cluster, job, victim):
    # each rank's failure surfaces from the run as it happens: run it out
    failures = 0
    while True:
        try:
            cluster.sim.run()
            break
        except FenceError:
            failures += 1
    assert victim.killed
    assert failures == len(job.processes) - 1
    for proc in job.processes.values():
        assert proc.finished
        if proc is not victim:
            assert isinstance(proc.failure, FenceError)


def test_kill_before_registering_fails_the_fence_typed():
    """The victim dies while gathering its children: the group can never
    complete, so every survivor fails with FenceError instead of hanging."""
    np_, nodes = 64, 32
    at = _first_time(np_, nodes, lambda t, v: bool(t.links.get(v)) and v not in t.registered)
    cluster, job, victim = _killed_run(np_, nodes, at)
    _assert_every_survivor_fails_typed(cluster, job, victim)


class SlowInitStack(TableStack):
    """Local init that takes long enough to die in."""

    INIT_US = 100.0

    def init_local(self, thread):
        self.initialising = True
        yield thread.sim.timeout(self.INIT_US)
        self.initialising = False
        return _info(self.process)


def test_kill_during_local_init_fails_the_fence_typed():
    """The victim dies before it reaches the fence: its children, which
    dial it as their parent, must not hang on it."""
    np_, nodes = 64, 32
    cluster, job, victim = _killed_run(np_, nodes, SlowInitStack.INIT_US / 2, SlowInitStack)
    _assert_every_survivor_fails_typed(cluster, job, victim)
    assert victim.stack.initialising  # killed inside init_local


def test_kill_after_registering_orphans_fall_back_to_the_seed():
    """The victim's registration reached the seed but it dies before
    forwarding the table: its children ask the seed directly and the job
    completes without it."""
    np_, nodes = 64, 32
    at = _first_time(np_, nodes, lambda t, v: v in t.registered)
    cluster, job, victim = _killed_run(np_, nodes, at + 1.0)
    results = job.wait()
    assert victim.killed and victim.fence is None
    tree = job.fence_tree("world")
    orphans = tree.children(victim)
    assert orphans and all(p.oob is not None for p in orphans)
    assert {r for r, v in results.items() if v is not None} == set(range(np_)) - {victim.rank}
    assert all(proc.epoch == 0 for proc in job.processes.values() if proc is not victim)


def test_spawned_group_wider_than_fanout_completes_its_own_fence():
    width = 2 * FENCE_FANOUT + 3
    tables = {}

    def child(stack):
        tables[stack.process.rank] = stack.table
        yield stack.process.job.cluster.sim.timeout(0)

    def parent(stack):
        if stack.process.rank == 0:
            procs = spawn_procs(stack.process.job, [child] * width)
            table = yield from stack.process.oob_sync(
                stack.process.main_thread, procs[0].group, width)
            tables["parent"] = table
        yield stack.process.job.cluster.sim.timeout(0)

    cluster, job = _launch(2, 8, parent)
    job.wait()
    spawned = list(range(2, 2 + width))
    assert sorted(tables["parent"]) == spawned
    group = job.processes[2].group
    assert job.fence_tree(group).listeners  # the spawned group used the tree
    for rank in spawned:
        assert tables[rank] == tables["parent"]


def test_relaunch_with_equal_contact_info_gets_a_new_epoch():
    """Contact info can repeat across incarnations (an IB rank's is just its
    node and rank): a killed rank relaunched on the same node into the same
    group must still register under a new epoch."""
    cluster = Cluster(nodes=2)
    job = RteJob(cluster, stack_factory=TableStack)
    never = SimEvent(cluster.sim)

    def hang(stack):
        yield from stack.process.main_thread.wait_sim_event(never)

    def report(stack):
        yield stack.process.job.cluster.sim.timeout(0)
        return stack.process.epoch

    old = job.launch(0, hang, group="world", group_count=1)
    cluster.sim.run(until=1000.0)
    assert old.epoch == 0
    old.kill()
    job.launch(0, report, node_id=old.node.node_id, group="world", group_count=1)
    assert job.wait() == {0: 1}
