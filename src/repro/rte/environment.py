"""Job launch and the seed daemon.

A :class:`RteJob` owns the IP network, a seed daemon (registry + group
synchronisation) on node 0, and the job's processes.  Each
:class:`RteProcess` runs the canonical startup sequence described in the
package docstring on its own host thread.

The transport stack is pluggable through ``stack_factory(process,
transports)``, which must return an object with four coroutine methods::

    init_local(thread) -> info-dict      # claim contexts, open endpoints
    wire_up(thread, table)               # connect to peers from the table
    finalize(thread)                     # drain + release (§4.1 semantics)

and ``user_api() -> object`` handed to the application generator.  The
default factory builds the full Open MPI stack
(:func:`repro.mpi.world.mpi_stack_factory`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.rte.oob import OobChannel, OobError, OobServer, decode, encode
from repro.sim.events import SimEvent
from repro.tcpip.socket import Listener, TcpSocket
from repro.tcpip.stack import IpNetwork, TcpError

__all__ = [
    "FENCE_FANOUT",
    "FenceError",
    "ProcessKilled",
    "RteJob",
    "RteProcess",
    "SeedDaemon",
    "launch_job",
]

SEED_PORT = 5555

#: Fan-out of the startup fence tree.  Every tree parent (the seed
#: included) serialises one table send per child through its node's single
#: IP path, so a level costs about ``K`` table sends and the fence
#: ``K * log_K(N)`` of them, against ``N`` for a flat fence.  That product
#: is smallest near K = 3, but a group of at most ``K`` ranks is the tree's
#: depth-1 case -- exactly the flat fence, with no relay hop -- and 8 keeps
#: every group of up to eight ranks (the paper's demos, every fleet tenant)
#: there.  Modelled launch at 64/256/512 ranks (bench_launch.py's job):
#: 1.0/3.7/6.5 ms at K = 8, 1.7/4.6/12.5 ms at K = 16.
FENCE_FANOUT = 8


class ProcessKilled(Exception):
    """Cause delivered to a killed process's threads (the SIGKILL analog):
    recorded as the process's failure but never re-raised by the driver."""


class FenceError(OobError):
    """The startup fence of a group cannot complete: a member died before
    its registration left it, so the seed can never hold the whole group."""


class SeedDaemon:
    """The registry at (the job's first node, ``job.seed_port``):
    register / sync / lookup / deregister, one handler thread per OOB
    connection."""

    def __init__(self, job: "RteJob"):
        self.job = job
        #: rank -> {"info": ..., "group": ..., "epoch": int}
        self.registry: Dict[int, Dict[str, Any]] = {}
        #: rank -> registration count - 1; survives deregistration so peers
        #: can detect that a rank was restarted (stale-VPID detection)
        self._epochs: Dict[int, int] = {}
        self._group_members: Dict[str, set] = {}
        self._sync_waiters: Dict[str, List[tuple]] = {}
        #: group -> why its fence can never complete
        self._failed: Dict[str, str] = {}
        #: group -> (members, encoded table) of its last completed fence:
        #: every ``sync`` answered before the group's next registration gets
        #: these same bytes -- encoded once, and still whole for a late
        #: asker (an orphaned fence-tree child) after early finishers left
        self._fenced: Dict[str, Tuple[int, bytes]] = {}
        self.server = OobServer(
            job.net, job.cluster.nodes[0], job.seed_port, self._handle, name="seed"
        )

    # -- request handling ------------------------------------------------
    def _handle(self, thread, channel: OobChannel):
        while True:
            try:
                msg = yield from channel.recv_msg(thread)
                if msg is None:
                    return
                frame = yield from self._serve(thread, msg)
                yield from channel.send_frame(thread, frame)
            except TcpError:
                return  # the asker died mid-conversation

    def _serve(self, thread, msg):
        """Coroutine: the encoded reply to one request."""
        op = msg.get("op")
        if op == "sync":
            yield from thread.wait_sim_event(self._sync_event(msg))
            group = msg["group"]
            failed = self._failed.get(group)
            if failed is not None:
                return encode({"error": failed})
            fenced = self._fenced.get(group)
            if fenced is None:
                live = len(self._group_members.get(group, ()))
                fenced = self._fenced[group] = (live, self._table_frame(group))
            return fenced[1]
        if op == "table":
            return self._table_frame(msg["group"])
        if op == "register":
            return encode(self._register(msg))
        if op == "lookup":
            entry = self.registry.get(msg["rank"])
            return encode({"info": None if entry is None else entry["info"],
                           "epoch": None if entry is None else entry["epoch"]})
        if op == "deregister":
            return encode(self._deregister(msg))
        return encode({"error": f"unknown op {op!r}"})

    def _register(self, msg) -> Dict[str, Any]:
        """One rank's registration, plus -- from a fence-tree parent -- the
        ``subtree`` entries it gathered from its descendants.  A ``resend``
        comes from an orphan whose fence parent died after forwarding it:
        its entries are the incarnations already held, so keep their epochs."""
        group = msg.get("group", "world")
        resend = msg.get("resend", False)
        epoch = self._enter(msg["rank"], group, msg["info"], resend)
        for rank, info in msg.get("subtree", ()):
            self._enter(rank, group, info, resend)
        self._check_syncs(group)
        return {"ok": True, "epoch": epoch}

    def _enter(self, rank: int, group: str, info: Dict[str, Any], resend: bool) -> int:
        entry = self.registry.get(rank)
        if resend and entry is not None and entry["group"] == group:
            return entry["epoch"]
        epoch = self._epochs.get(rank, -1) + 1
        self._epochs[rank] = epoch
        self.registry[rank] = {"info": info, "group": group, "epoch": epoch}
        self._group_members.setdefault(group, set()).add(rank)
        self._fenced.pop(group, None)
        return epoch

    def _deregister(self, msg) -> Dict[str, Any]:
        rank = msg["rank"]
        entry = self.registry.pop(rank, None)
        if entry is None:
            return {"ok": False}
        self._group_members.get(entry["group"], set()).discard(rank)
        return {"ok": True}

    def member_lost(self, rank: int, group: str) -> None:
        """The launcher saw ``rank`` die before its registration left it
        (the PMIx "proc aborted" notification): unless the seed already
        holds it, the group's fence can never complete, so every waiting
        and later ``sync`` on the group is answered with an error."""
        if rank in self._group_members.get(group, ()):
            return
        self._failed.setdefault(
            group, f"rank {rank} died inside the fence of group {group!r}"
        )
        for _count, ev in self._sync_waiters.pop(group, []):
            ev.succeed(None)

    def _sync_event(self, msg) -> SimEvent:
        group, count = msg["group"], msg["count"]
        ev = SimEvent(self.job.cluster.sim, name=f"sync:{group}")
        if self._present(group) >= count or group in self._failed:
            ev.succeed(None)
        else:
            self._sync_waiters.setdefault(group, []).append((count, ev))
        return ev

    def _present(self, group: str) -> int:
        """Members a ``sync`` counts: those registered now, or those of
        the group's last completed fence if early finishers have left."""
        live = len(self._group_members.get(group, ()))
        fenced = self._fenced.get(group)
        return live if fenced is None else max(live, fenced[0])

    def _check_syncs(self, group: str) -> None:
        waiters = self._sync_waiters.get(group, [])
        present = self._present(group)
        still = []
        for count, ev in waiters:
            if present >= count:
                ev.succeed(None)
            else:
                still.append((count, ev))
        self._sync_waiters[group] = still

    def group_table(self, group: str) -> Dict[str, Any]:
        return {
            str(rank): {"info": e["info"], "epoch": e["epoch"]}
            for rank, e in self.registry.items()
            if e["group"] == group
        }

    def _table_frame(self, group: str) -> bytes:
        return encode({"table": self.group_table(group)})


class FenceTree:
    """The launch map of one group's startup fence: a ``FENCE_FANOUT``-ary
    tree over the group's members, rooted at the seed.

    Members are ordered by rank, except that ranks placed on the seed's
    own node go last, so they are leaves and the seed's IP path carries
    only the seed's traffic.  Member ``i`` is tree node ``i + 1`` under the
    seed's node 0: the first ``K`` members are the seed's children, member
    ``i``'s children are members ``(i+1)K .. (i+1)K + K-1``.  A group of at
    most ``K`` members is the depth-1 case: every member talks to the seed
    alone, exactly as a flat fence does.  Interior members listen on an
    ephemeral port, bound here, before any member runs, so a child can
    never dial an unbound port and co-resident tenants on one
    :class:`IpNetwork` never collide.  A process that is not a member (a
    rank relaunched after the tree was drawn) reports to the seed.

    The tree also holds each member's fence state -- its open links and
    whether its registration has left it -- from the moment the member
    starts up until :meth:`leave`, on success or death alike.
    """

    def __init__(self, job: "RteJob", group: str):
        seed_node = job.seed_node_id
        self.job = job
        self.members = sorted(
            (p for p in job.processes.values() if p.group == group),
            key=lambda p: (p.node.node_id == seed_node, p.rank),
        )
        self._index = {p: i for i, p in enumerate(self.members)}
        #: member index -> the listener its children dial
        self.listeners: Dict[int, Listener] = {
            i: Listener(job.net, p.node, job.net.ephemeral_port())
            for i, p in enumerate(self.members)
            if (i + 1) * FENCE_FANOUT < len(self.members)
        }
        #: member -> OOB channels to its tree neighbours, open in the fence
        self.links: Dict["RteProcess", List[OobChannel]] = {}
        #: members whose registration has left them (toward the seed)
        self.registered: set = set()
        #: ranks that died before their registration left them
        self.lost: set = set()

    def parent(self, proc: "RteProcess") -> Optional["RteProcess"]:
        """``proc``'s tree parent; None when that is the seed."""
        i = self._index.get(proc)
        if i is None or i < FENCE_FANOUT:
            return None
        return self.members[i // FENCE_FANOUT - 1]

    def children(self, proc: "RteProcess") -> List["RteProcess"]:
        i = self._index.get(proc)
        if i is None:
            return []
        lo = (i + 1) * FENCE_FANOUT
        return self.members[lo : lo + FENCE_FANOUT]

    def listener(self, proc: "RteProcess") -> Listener:
        return self.listeners[self._index[proc]]

    def gather(self, thread, proc: "RteProcess"):
        """Coroutine: accept ``proc``'s children and read each one's
        registration.  Returns the subtree's ``[rank, info]`` entries and
        the channels to forward the table down.  A child that dies first
        is dropped: the launcher marks it lost and wakes this wait."""
        waiting = {c.rank for c in self.children(proc)}
        entries: List[list] = []
        links: List[OobChannel] = []
        if not waiting:
            return entries, links
        listener = self.listener(proc)
        while waiting - self.lost:
            if not listener.pending:
                yield from thread.block_on(listener.acceptable)
                continue
            channel = self.link(proc, OobChannel((yield from listener.accept(thread))))
            try:
                msg = yield from channel.recv_msg(thread)
            except (TcpError, OobError):
                msg = None  # the child died mid-send
            if msg is None:
                channel.close()
                continue
            waiting.discard(msg["rank"])
            entries.append([msg["rank"], msg["info"]])
            entries.extend(msg.get("subtree", ()))
            links.append(channel)
        listener.close()
        return entries, links

    def link(self, proc: "RteProcess", channel: OobChannel) -> OobChannel:
        self.links.setdefault(proc, []).append(channel)
        return channel

    def leave(self, proc: "RteProcess") -> None:
        """``proc`` is out of the fence, done or dead.  Its links and its
        listener close, so tree neighbours see EOF and its children can no
        longer dial it.  A member that dies before its registration left
        it means the group cannot complete: the seed fails the group and
        ``proc``'s parent stops waiting for it."""
        for channel in self.links.pop(proc, ()):
            channel.close()
        i = self._index.get(proc)
        if i in self.listeners:
            self.listeners[i].close()
        if i is None or proc in self.registered:
            return
        self.lost.add(proc.rank)
        self.job.seed.member_lost(proc.rank, proc.group)
        parent = self.parent(proc)
        if parent is not None:
            self.listener(parent).acceptable.set()


class RteProcess:
    """One process of the parallel job."""

    def __init__(
        self,
        job: "RteJob",
        rank: int,
        node,
        app: Callable,
        group: str,
        group_count: int,
        stack_factory: Callable,
        transports: tuple,
    ):
        self.job = job
        self.rank = rank
        self.node = node
        self.app = app
        self.group = group
        self.group_count = group_count
        self.transports = transports
        self.space = node.new_address_space(f"rank{rank}")
        self.stack = stack_factory(self, transports)
        self.oob: Optional[OobChannel] = None
        self.result: Any = None
        self.failure: Optional[BaseException] = None
        self.finished = False
        self.epoch = -1
        #: set by :meth:`kill` — an uncooperative death (no drain, no
        #: deregister); the FT layer distinguishes this from a crash
        self.killed = False
        #: helper threads tied to this process's lifetime (FT heartbeat);
        #: killed together with the main thread
        self.aux_threads: List[Any] = []
        #: the fence tree while this process is inside its startup
        #: (from before local init until the table has been forwarded)
        self.fence: Optional[FenceTree] = None
        self.main_thread = node.spawn_thread(self._main, name=f"rank{rank}")

    # -- lifecycle ---------------------------------------------------------
    def _main(self, thread):
        try:
            yield from self._startup(thread)
            api = self.stack.user_api()
            self.result = yield from self.app(api)
            yield from self._shutdown(thread)
        except BaseException as e:  # noqa: BLE001 - recorded for the driver
            self.failure = e
            self._leave_fence()
            raise
        finally:
            self.finished = True

    def _startup(self, thread):
        """Local init, then the startup fence -- an allgather over the
        group's :class:`FenceTree` -- then wire-up from the table.

        Up the tree, each member sends one registration carrying its whole
        subtree's entries; down it, the seed encodes the table once and
        every parent forwards the frame it received, undecoded.  A member
        whose parent is the seed speaks the seed's ``register`` / ``sync``
        protocol directly, so a group of at most ``FENCE_FANOUT`` ranks
        runs exactly the flat fence.  If a parent dies before forwarding,
        its children fall back to the seed the same way.
        """
        tree = self.fence = self.job.fence_tree(self.group)
        info = yield from self.stack.init_local(thread)
        parent = tree.parent(self)
        if parent is None:
            yield from self._seed_link(thread)
        subtree, children = yield from tree.gather(thread, self)
        msg = {"op": "register", "rank": self.rank, "group": self.group, "info": info}
        if subtree:
            msg["subtree"] = subtree
        frame = None
        if parent is not None:
            frame = yield from self._fence_via_parent(thread, tree, parent, msg)
        if frame is None:
            if self in tree.registered:
                msg["resend"] = True  # the dead parent forwarded it
            frame = yield from self._fence_via_seed(thread, tree, msg)
        for channel in children:
            try:
                yield from channel.send_frame(thread, frame)
            except TcpError:
                pass  # the child died after registering; nobody to tell
            channel.close()
        self._leave_fence()
        reply = decode(frame)
        if "error" in reply:
            raise FenceError(reply["error"])
        table = {int(r): e for r, e in reply["table"].items()}
        self.epoch = table[self.rank]["epoch"]
        ft = getattr(self.job, "ft", None)
        if ft is not None:
            ft.attach_process(self)
        yield from self.stack.wire_up(thread, table)

    def _fence_via_parent(self, thread, tree: FenceTree, parent: "RteProcess", msg):
        """Coroutine: register through the tree parent and return the table
        frame it forwards, or None if the parent died first."""
        try:
            sock = yield from TcpSocket.connect(
                self.job.net, thread, self.node, parent.node.node_id,
                tree.listener(parent).port,
            )
        except TcpError:
            return None  # the parent's listener is gone: it died
        channel = tree.link(self, OobChannel(sock))
        try:
            yield from channel.send_msg(thread, msg)
            tree.registered.add(self)
            frame = yield from channel.recv_frame(thread)
        except (TcpError, OobError):
            frame = None
        channel.close()
        return frame

    def _fence_via_seed(self, thread, tree: FenceTree, msg):
        """Coroutine: register with the seed, wait for the group, return
        the table frame (or the seed's error frame)."""
        oob = yield from self._seed_link(thread)
        yield from oob.send_msg(thread, msg)
        tree.registered.add(self)
        if (yield from oob.recv_msg(thread)) is None:
            raise OobError("peer closed during RPC")
        yield from oob.send_msg(
            thread, {"op": "sync", "group": self.group, "count": self.group_count}
        )
        frame = yield from oob.recv_frame(thread)
        if frame is None:
            raise OobError("peer closed during RPC")
        return frame

    def _seed_link(self, thread):
        """Coroutine: this rank's OOB channel to the seed, dialled on first
        use (fence-tree members below the seed's children never need it
        until they look a peer up or deregister)."""
        if self.oob is None:
            sock = yield from TcpSocket.connect(
                self.job.net, thread, self.node, self.job.seed_node_id, self.job.seed_port
            )
            self.oob = OobChannel(sock)
        return self.oob

    def _leave_fence(self) -> None:
        """Leave the startup fence, done or dead (a no-op once out)."""
        tree, self.fence = self.fence, None
        if tree is not None:
            tree.leave(self)

    def _shutdown(self, thread):
        yield from self.stack.finalize(thread)
        oob = yield from self._seed_link(thread)
        yield from oob.rpc(thread, {"op": "deregister", "rank": self.rank})
        oob.close()

    def kill(self, cause: str = "proc_kill") -> None:
        """Uncooperative death (SIGKILL): no drain, no deregister, no
        goodbye.  The main thread and every helper thread are interrupted
        wherever they sit; whatever the process owed the fabric stays owed
        until the FT layer reclaims it."""
        if self.finished:
            return
        self.killed = True
        error = ProcessKilled(f"rank {self.rank} killed ({cause})")
        self.main_thread.process.interrupt(error)
        for t in self.aux_threads:
            if t.is_alive:
                t.process.interrupt(error)
        self._leave_fence()
        if self.oob is not None:
            self.oob.close()

    # -- OOB helpers available to upper layers ------------------------------
    def oob_lookup(self, thread, rank: int):
        """Coroutine: resolve a rank's current contact info via the seed."""
        oob = yield from self._seed_link(thread)
        reply = yield from oob.rpc(thread, {"op": "lookup", "rank": rank})
        return reply["info"], reply["epoch"]

    def oob_table(self, thread, group: str):
        oob = yield from self._seed_link(thread)
        reply = yield from oob.rpc(thread, {"op": "table", "group": group})
        return {int(r): e for r, e in reply["table"].items()}

    def oob_sync(self, thread, group: str, count: int):
        oob = yield from self._seed_link(thread)
        reply = yield from oob.rpc(thread, {"op": "sync", "group": group, "count": count})
        if "error" in reply:
            raise FenceError(reply["error"])
        return {int(r): e for r, e in reply["table"].items()}


class RteJob:
    """A running parallel job.

    ``cluster`` may be a whole :class:`~repro.cluster.Cluster` or a
    scheduler-granted :class:`~repro.cluster.ClusterLease`.  Co-resident
    jobs on one cluster share an injected ``net`` (one IP fabric per
    machine, as in hardware) and distinguish their seed daemons by
    ``seed_port``; a standalone job keeps the historical defaults (its
    own network, port 5555 on its first node).
    """

    def __init__(
        self,
        cluster,
        stack_factory: Optional[Callable] = None,
        net: Optional[IpNetwork] = None,
        seed_port: int = SEED_PORT,
    ):
        self.cluster = cluster
        self.net = net if net is not None else IpNetwork(cluster.sim, cluster.config)
        self.stack_factory = stack_factory or _default_stack_factory()
        self.seed_port = seed_port
        #: where processes dial the registry: the job's first node (node 0
        #: of a whole cluster; the first *granted* node of a lease)
        self.seed_node_id = cluster.nodes[0].node_id
        self.seed = SeedDaemon(self)
        self.processes: Dict[int, RteProcess] = {}
        self._spawn_groups = 0
        self._fence_trees: Dict[str, FenceTree] = {}
        #: fault-tolerance daemon, installed by :func:`repro.ft.enable`
        self.ft: Optional[Any] = None

    def launch(
        self,
        rank: int,
        app: Callable,
        node_id: Optional[int] = None,
        group: str = "world",
        group_count: int = 1,
        transports: tuple = ("elan4",),
    ) -> RteProcess:
        """Start one process.  May be called at any time — including while
        the job is running (dynamic spawn) or to restart a departed rank."""
        node = self.cluster.nodes[
            rank % self.cluster.n_nodes if node_id is None else node_id
        ]
        proc = RteProcess(
            self, rank, node, app, group, group_count, self.stack_factory, transports
        )
        self.processes[rank] = proc
        return proc

    def new_group_name(self) -> str:
        self._spawn_groups += 1
        return f"spawn{self._spawn_groups}"

    def fence_tree(self, group: str) -> FenceTree:
        """The group's fence tree, drawn from the launch map when its first
        member starts up (every co-launched member is known by then)."""
        tree = self._fence_trees.get(group)
        if tree is None:
            tree = self._fence_trees[group] = FenceTree(self, group)
        return tree

    def wait(self, until: Optional[float] = None) -> Dict[int, Any]:
        """Run the simulation until every launched process finished; returns
        ``rank -> app return value``.  Re-raises the first failure."""
        self.cluster.sim.run(until=until)
        unfinished = [r for r, p in self.processes.items() if not p.finished]
        if unfinished:
            raise RuntimeError(
                f"deadlock: ranks {unfinished} never finished "
                f"(simulated t={self.cluster.sim.now:.1f} µs)"
            )
        for proc in self.processes.values():
            if proc.failure is not None and not proc.killed:
                raise proc.failure
        return {r: p.result for r, p in self.processes.items()}


def _default_stack_factory() -> Callable:
    from repro.mpi.world import mpi_stack_factory  # repro-lint: allow[layering] -- default stack is MPI; lazy so bare-RTE runs never import it

    return mpi_stack_factory


def launch_job(
    cluster,
    app: Callable,
    np: Optional[int] = None,
    transports: tuple = ("elan4",),
    stack_factory: Optional[Callable] = None,
    until: Optional[float] = None,
) -> Dict[int, Any]:
    """Launch ``app`` on ``np`` ranks (default: one per node), run to
    completion, and return ``rank -> result``.  The classic mpirun."""
    n = cluster.n_nodes if np is None else np
    job = RteJob(cluster, stack_factory=stack_factory)
    for rank in range(n):
        job.launch(rank, app, group="world", group_count=n, transports=transports)
    return job.wait(until=until)
