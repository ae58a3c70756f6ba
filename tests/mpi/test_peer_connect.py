"""Peer wire-up: one path, tolerating only a peer without the transport.

``Pml.connect_peer`` skips a module whose transport a peer does not expose
(:class:`PeerUnreachable`); every other failure inside ``add_peer`` is a
real bug and must surface as the rank's failure, not vanish.
"""

import pytest

from repro.cluster import Cluster
from repro.core.ptl.elan4.module import Elan4PtlModule
from repro.rte.environment import RteJob


def _exchange(mpi):
    buf = mpi.alloc(64)
    if mpi.rank == 0:
        buf.fill(7)
        yield from mpi.comm_world.send(buf, dest=1, tag=1)
        return "sent"
    data, _status = yield from mpi.comm_world.recv(source=0, tag=1, nbytes=64)
    return int(data[0])


def test_peer_without_a_transport_is_skipped():
    """Rank 0 also loads TCP; rank 1 exposes only Elan4, so rank 0's TCP
    module cannot reach it and the exchange runs over Elan4."""
    job = RteJob(Cluster(nodes=2))
    job.launch(0, _exchange, group="world", group_count=2, transports=("elan4", "tcp"))
    job.launch(1, _exchange, group="world", group_count=2, transports=("elan4",))
    assert job.wait() == {0: "sent", 1: 7}
    tcp = [m for m in job.processes[0].stack.pml.modules if m.name == "tcp"][0]
    assert not tcp.has_peer(1)


def test_add_peer_bug_surfaces_as_the_ranks_failure(monkeypatch):
    original = Elan4PtlModule.add_peer

    def broken(self, thread, rank, info):
        if self.process.rank == 1 and rank == 0:
            raise KeyError("add_peer bug")
        yield from original(self, thread, rank, info)

    monkeypatch.setattr(Elan4PtlModule, "add_peer", broken)
    job = RteJob(Cluster(nodes=2))
    for rank in range(2):
        job.launch(rank, _exchange, group="world", group_count=2)
    with pytest.raises(KeyError, match="add_peer bug"):
        job.wait()
    assert isinstance(job.processes[1].failure, KeyError)
