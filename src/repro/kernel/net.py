"""Localhost stream sockets.

The macrobenchmarks (§6.2.2) run client and server on the same machine so
that measurements isolate interposition overhead.  We mirror that structure:
simulated servers accept/recv/send through these kernel objects, while load
generators (the wrk / redis-benchmark stand-ins in
:mod:`repro.workloads.clients`) drive connections from host level — their
cost is off the measured path, exactly like a client pinned to other cores.

Simplification: addresses are bare integer ports (no sockaddr marshalling);
stream semantics, backlog, EAGAIN/blocking, and peer-close behaviour are
kept, since the server-side syscall sequence is what the benchmarks measure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.errors import KernelError
from repro.kernel.syscalls import Errno


class Connection:
    """One established stream, with a byte queue per direction."""

    def __init__(self, port: int):
        self.port = port
        self.to_server: Deque[bytes] = deque()
        self.to_client: Deque[bytes] = deque()
        self.client_closed = False
        self.server_closed = False

    # -- client (host driver) side ------------------------------------------

    def client_send(self, data: bytes) -> None:
        if self.server_closed:
            raise KernelError("send on closed connection")
        self.to_server.append(bytes(data))

    def client_recv_all(self) -> bytes:
        chunks = []
        while self.to_client:
            chunks.append(self.to_client.popleft())
        return b"".join(chunks)

    def client_close(self) -> None:
        self.client_closed = True

    # -- server (simulated process) side ----------------------------------------

    def server_recv(self, max_len: int) -> Optional[bytes]:
        """One chunk for the server; None means would-block; b"" means EOF."""
        if self.to_server:
            chunk = self.to_server.popleft()
            if len(chunk) > max_len:
                self.to_server.appendleft(chunk[max_len:])
                chunk = chunk[:max_len]
            return chunk
        if self.client_closed:
            return b""
        return None

    def server_send(self, data: bytes) -> int:
        if self.client_closed:
            return -Errno.EPIPE
        self.to_client.append(bytes(data))
        return len(data)

    def server_close(self) -> None:
        self.server_closed = True

    @property
    def server_readable(self) -> bool:
        return bool(self.to_server) or self.client_closed


class Listener:
    """A bound, listening endpoint with a backlog of pending connections."""

    def __init__(self, port: int, backlog: int = 128):
        self.port = port
        self.backlog_limit = backlog
        self.pending: Deque[Connection] = deque()
        self.closed = False

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)


class NetStack:
    """Kernel-wide port table."""

    def __init__(self) -> None:
        self._listeners: Dict[int, Listener] = {}

    def bind_listen(self, port: int, backlog: int = 128) -> Listener:
        if port in self._listeners and not self._listeners[port].closed:
            raise KernelError(f"port {port} already bound")
        listener = Listener(port, backlog)
        self._listeners[port] = listener
        return listener

    def lookup(self, port: int) -> Optional[Listener]:
        listener = self._listeners.get(port)
        if listener is not None and listener.closed:
            return None
        return listener

    def connect(self, port: int) -> Connection:
        """Host-driver connect: enqueue a new connection on the listener."""
        listener = self.lookup(port)
        if listener is None:
            raise KernelError(f"connection refused: port {port}")
        if len(listener.pending) >= listener.backlog_limit:
            raise KernelError(f"backlog full on port {port}")
        conn = Connection(port)
        listener.pending.append(conn)
        return conn
