"""Stream sockets over the simulated IP network.

API shape mirrors BSD sockets as coroutines (all host-side calls take the
calling :class:`~repro.hw.cpu.HostThread` so syscall and copy costs land on
the right CPU):

* ``Listener(net, node, port)`` … ``yield from listener.accept(thread)``
* ``yield from TcpSocket.connect(net, thread, node, dst_node, dst_port)``
* ``yield from sock.send(thread, data)`` — blocks until buffered/segmented
* ``yield from sock.recv(thread, n)`` — blocks until ≥1 byte, returns ≤ n
* ``yield from sock.recv_exact(thread, n)`` — loops until exactly n
* ``sock.readable`` — a :class:`~repro.hw.cpu.HostWordEvent` for pollers

Data is real ``bytes`` end to end, so the OOB protocol and PTL/TCP exchange
genuine payloads.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple, TYPE_CHECKING

from repro.hw.cpu import HostWordEvent
from repro.tcpip.stack import IpNetwork, TcpError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node

__all__ = ["Listener", "TcpSocket"]


class Listener:
    """A passive socket: accepts connections at (node, port)."""

    def __init__(self, net: IpNetwork, node: "Node", port: int):
        self.net = net
        self.node = node
        self.port = port
        self._backlog: Deque[TcpSocket] = deque()
        self.acceptable = HostWordEvent(net.sim, name=f"listen:{node.node_id}:{port}")
        self.closed = False
        net.bind(node.node_id, port, self)

    def accept(self, thread):
        """Coroutine: block until a connection arrives; returns the server-
        side socket."""
        if self.closed:
            raise TcpError("accept on closed listener")
        yield from thread.compute(self.net.config.tcp_syscall_us)
        while not self._backlog:
            yield from thread.block_on(self.acceptable)
        sock = self._backlog.popleft()
        if self._backlog:
            self.acceptable.set()
        return sock

    @property
    def pending(self) -> int:
        """Connections waiting to be accepted."""
        return len(self._backlog)

    def close(self) -> None:
        """Unbind; connections still in the backlog are reset, so their
        clients see EOF instead of waiting on a socket nobody reads."""
        self.closed = True
        self.net.unbind(self.node.node_id, self.port)
        while self._backlog:
            self._backlog.popleft().close()

    # called from connect (network context)
    def _incoming(self, peer: "TcpSocket") -> "TcpSocket":
        if self.closed:
            raise TcpError("connection refused (listener closed)")
        server = TcpSocket(self.net, self.node, self.net.ephemeral_port())
        server._peer = peer
        peer._peer = server
        self._backlog.append(server)
        self.acceptable.set()
        return server


class TcpSocket:
    """One endpoint of an established stream connection."""

    def __init__(self, net: IpNetwork, node: "Node", port: int):
        self.net = net
        self.node = node
        self.port = port
        self._peer: Optional[TcpSocket] = None
        self._rx = bytearray()
        self.readable = HostWordEvent(net.sim, name=f"sock:{node.node_id}:{port}")
        self.closed = False
        self.peer_closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- connection establishment ------------------------------------------
    @classmethod
    def connect(cls, net: IpNetwork, thread, node: "Node", dst_node: int, dst_port: int):
        """Coroutine: active open; returns the client-side socket after the
        handshake round trip."""
        yield from thread.compute(net.config.tcp_syscall_us)
        sock = cls(net, node, net.ephemeral_port())
        listener = net.listener_at(dst_node, dst_port)  # refused -> raises now
        # SYN / SYN-ACK round trip
        yield thread.sim.timeout(2 * net.config.tcp_wire_us)
        listener._incoming(sock)
        return sock

    @property
    def connected(self) -> bool:
        return self._peer is not None and not self.closed

    # -- data transfer -----------------------------------------------------
    def send(self, thread, data: bytes):
        """Coroutine: write ``data`` to the stream.  Pays syscall + copy on
        this thread, then segments onto the wire; returns the byte count
        once the last segment is queued (kernel buffering semantics)."""
        if self.closed:
            raise TcpError("send on closed socket")
        if self._peer is None:
            raise TcpError("send on unconnected socket")
        if self._peer.closed:
            raise TcpError("connection reset by peer")
        cfg = self.net.config
        data = bytes(data)
        yield from thread.compute(cfg.tcp_syscall_us + len(data) * cfg.tcp_copy_us_per_byte)
        mss = cfg.tcp_mss
        for off in range(0, max(len(data), 1), mss):
            segment = data[off : off + mss]
            yield from self.net.send_segment(
                self.node.node_id,
                len(segment) + 40,  # TCP/IP headers
                self._make_deliver(segment),
            )
        self.bytes_sent += len(data)
        return len(data)

    def _make_deliver(self, segment: bytes):
        peer = self._peer

        def deliver() -> None:
            if peer.closed:
                return
            peer._rx.extend(segment)
            peer.readable.set()

        return deliver

    def recv(self, thread, nbytes: int):
        """Coroutine: read up to ``nbytes`` (blocks for at least one)."""
        if self.closed:
            raise TcpError("recv on closed socket")
        cfg = self.net.config
        yield from thread.compute(cfg.tcp_syscall_us)
        while not self._rx:
            if self.peer_closed:
                return b""  # orderly EOF
            yield from thread.block_on(self.readable, clear=True)
        take = min(nbytes, len(self._rx))
        yield from thread.compute(take * cfg.tcp_copy_us_per_byte)
        data = bytes(self._rx[:take])
        del self._rx[:take]
        if self._rx:
            self.readable.set()
        self.bytes_received += take
        return data

    def recv_exact(self, thread, nbytes: int):
        """Coroutine: read exactly ``nbytes`` (raises on EOF mid-message)."""
        parts = []
        got = 0
        while got < nbytes:
            chunk = yield from self.recv(thread, nbytes - got)
            if not chunk:
                raise TcpError(f"EOF after {got}/{nbytes} bytes")
            parts.append(chunk)
            got += len(chunk)
        return b"".join(parts)

    def try_recv(self, nbytes: int) -> Optional[bytes]:
        """Non-blocking read (no thread costs; the poll loop pays those)."""
        if not self._rx:
            return None
        take = min(nbytes, len(self._rx))
        data = bytes(self._rx[:take])
        del self._rx[:take]
        if not self._rx:
            self.readable.clear()
        self.bytes_received += take
        return data

    @property
    def pending_bytes(self) -> int:
        return len(self._rx)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        peer = self._peer
        if peer is not None and not peer.closed:
            def notify() -> None:
                peer.peer_closed = True
                peer.readable.set()  # wake blocked readers for EOF

            self.net.sim.schedule(self.net.config.tcp_wire_us, notify)
