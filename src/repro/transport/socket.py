"""TCP transport: length-prefixed wire frames over a real socket.

The shared-memory ring only reaches processes on one host; this module
carries the same pickle-free wire format (:mod:`repro.transport.wire`)
over TCP, which is what cross-host serving — the paper's actual
GPU-server-in-the-cloud deployment — needs.  Each message is one wire
frame; the header's ``total_len`` delimits the stream, so framing costs
nothing beyond the 14-byte header the other transports already pay.

Three entry points mirror the shm transport's:

* :func:`make_pair` — a connected endpoint pair on a local socketpair
  (tests, benchmarks);
* :func:`run_in_subprocess` — spawn ``target(endpoint)`` in a child
  that dials back to the parent (one raw endpoint, no session layer);
* :func:`serve_many` — one server process ``accept()``-ing N client
  connections for the multiplexing
  :class:`~repro.serving.runtime.ServerRuntime`; clients connect from
  any process (or host) via :func:`connect_address`.

``TCP_NODELAY`` is set everywhere: the protocol is strict
request/reply per session, where Nagle's algorithm would add a full
delayed-ACK round trip to every small REPLY.
"""

from __future__ import annotations

import multiprocessing as mp
import select
import socket as _socket
import time
from typing import Any, Callable, Optional, Tuple

from repro.transport import wire
from repro.transport.endpoint import Endpoint


class SocketTransport(Endpoint):
    """Endpoint speaking wire frames over a connected stream socket.

    Blocking ``send`` / ``recv`` plus the multiplexing surface (``poll`` /
    ``send_tagged`` / ``recv_tagged``).
    """

    def __init__(self, sock: _socket.socket, timeout_s: float = 120.0) -> None:
        try:
            sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        except OSError:
            pass  # AF_UNIX socketpair has no TCP level
        self._sock = sock
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    def _recv_exact(self, n: int, deadline: float) -> bytes:
        chunks = []
        remaining = n
        while remaining > 0:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise TimeoutError(
                    f"socket recv timed out with {remaining} of {n} bytes pending"
                )
            self._sock.settimeout(budget)
            try:
                chunk = self._sock.recv(remaining)
            except _socket.timeout:
                raise TimeoutError(
                    f"socket recv timed out with {remaining} of {n} bytes pending"
                ) from None
            if not chunk:
                raise ConnectionError("peer closed the socket mid-message")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _recv_frame(self) -> Tuple[int, Any]:
        deadline = time.monotonic() + self.timeout_s
        header = self._recv_exact(wire.HEADER_NBYTES, deadline)
        _, _, total = wire.peek_header(memoryview(header))
        body = self._recv_exact(total - wire.HEADER_NBYTES, deadline)
        return wire.decode_tagged(header + body)

    # ------------------------------------------------------------------
    def send(self, obj: Any, nbytes: int) -> None:
        del nbytes  # the wire format measures the real size itself
        self._sock.settimeout(self.timeout_s)
        self._sock.sendall(wire.encode(obj))

    def recv(self) -> Any:
        return self._recv_frame()[1]

    # -- multiplexing surface (one link, many sessions) ----------------
    def poll(self) -> bool:
        """True when at least one byte is readable (or the peer hung up)."""
        readable, _, _ = select.select([self._sock], [], [], 0)
        return bool(readable)

    def doorbell_fd(self) -> int:
        """Fd a sweep loop can ``select`` on: the socket itself, readable
        while bytes are pending."""
        return self._sock.fileno()

    def send_tagged(self, session: int, obj: Any) -> None:
        self._sock.settimeout(self.timeout_s)
        self._sock.sendall(wire.encode(obj, session=session))

    def recv_tagged(self) -> Tuple[int, Any]:
        return self._recv_frame()

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def make_pair(timeout_s: float = 120.0) -> Tuple[SocketTransport, SocketTransport]:
    """A connected (client_endpoint, server_endpoint) pair in-process."""
    a, b = _socket.socketpair()
    return SocketTransport(a, timeout_s), SocketTransport(b, timeout_s)


def _dial(host: str, port: int, timeout_s: float) -> _socket.socket:
    return _socket.create_connection((host, port), timeout=timeout_s)


def _child_dial_entry(target: Callable, host: str, port: int, timeout_s: float) -> None:
    endpoint = SocketTransport(_dial(host, port, timeout_s), timeout_s)
    try:
        target(endpoint)
    finally:
        endpoint.close()


def run_in_subprocess(
    target: Callable[[SocketTransport], None],
    timeout_s: float = 120.0,
) -> Tuple[SocketTransport, mp.Process]:
    """Start ``target(endpoint)`` in a child that dials back over TCP.

    Mirrors the shm spawner: returns the parent-side endpoint and the
    process handle.
    """
    listener = _socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()
    proc = mp.Process(
        target=_child_dial_entry, args=(target, host, port, timeout_s), daemon=True
    )
    proc.start()
    listener.settimeout(timeout_s)
    try:
        conn, _ = listener.accept()
    finally:
        listener.close()
    return SocketTransport(conn, timeout_s), proc


class SocketListener:
    """Server-process side of :func:`serve_many`: non-blocking accept.

    ``poll_accept`` returns a new connection when one is pending and
    None otherwise, so the server's event loop interleaves accepting
    late joiners with serving already-connected clients — a client may
    dial (and ADMIT a brand-new session) at any point mid-run.  Stops
    accepting after ``expected`` connections; ``expected`` is also the
    drain contract the runtime's quiesce rule reads: the server only
    exits once that whole population has connected *and* closed, so a
    churn gap between a departure and a not-yet-dialed joiner never
    kills it.
    """

    def __init__(self, sock: _socket.socket, expected: int, timeout_s: float) -> None:
        self._sock = sock
        self._sock.settimeout(0)
        self.expected = expected
        self._accepted = 0
        self._timeout_s = timeout_s

    def poll_accept(self) -> Optional[SocketTransport]:
        if self._accepted >= self.expected or self._sock is None:
            return None
        try:
            conn, _ = self._sock.accept()
        except (BlockingIOError, InterruptedError):
            return None  # nothing pending; real accept errors propagate
        self._accepted += 1
        if self._accepted >= self.expected:
            sock, self._sock = self._sock, None
            sock.close()
        return SocketTransport(conn, self._timeout_s)

    def doorbell_fds(self):
        """Pollable accept fd(s) while the listener still expects
        connections: a late dialler is what wakes a parked idle sweep."""
        return [] if self._sock is None else [self._sock.fileno()]

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


class FleetSocketListener:
    """One shard's accept surface: the shared front door plus its own
    direct port.

    Every shard of a fleet holds a listening socket bound to the *same*
    advertised (host, port) with ``SO_REUSEPORT`` — the kernel load-
    balances incoming connections across the shard processes — plus a
    per-shard *direct* listener that redirected clients re-dial (the
    target of a ``REJECT(redirect, shard=k)``).  The fleet has no
    provisioned population (``expected`` is None): shards accept until
    the owner signals drain (:attr:`draining`, read off the fleet's
    control pipe), which is the quiesce contract a fleet runtime uses
    in place of the come-and-gone population rule.
    """

    expected = None

    def __init__(self, front_sock: _socket.socket,
                 direct_sock: _socket.socket, timeout_s: float,
                 control_conn=None) -> None:
        for sock in (front_sock, direct_sock):
            sock.settimeout(0)
        self._socks = [front_sock, direct_sock]
        self._timeout_s = timeout_s
        self._control = control_conn
        self._draining = False

    @property
    def draining(self) -> bool:
        """Whether the owner has ordered the drain: the control pipe is
        one of :meth:`doorbell_fds`, so the order wakes a parked shard
        and the quiesce check that follows reads it here."""
        if self._control is not None and not self._draining:
            try:
                if self._control.poll(0):
                    self._control.recv()  # the only message is "drain"
                    self._draining = True
            except (EOFError, OSError):
                # A dead owner is a drain order too: serve out what's
                # open and exit instead of idling into the timeout.
                self._draining = True
        return self._draining

    def poll_accept(self) -> Optional[SocketTransport]:
        for sock in self._socks:
            if sock is None:
                continue
            try:
                conn, _ = sock.accept()
            except (BlockingIOError, InterruptedError):
                continue
            return SocketTransport(conn, self._timeout_s)
        return None

    def doorbell_fds(self):
        fds = [sock.fileno() for sock in self._socks if sock is not None]
        if self._control is not None and not self._draining:
            fds.append(self._control.fileno())
        return fds

    def close(self) -> None:
        for sock in self._socks:
            if sock is not None:
                sock.close()
        self._socks = [None, None]


def _serve_many_entry(target, sock, expected: int, timeout_s: float) -> None:
    listener = SocketListener(sock, expected, timeout_s)
    try:
        target(listener)
    finally:
        listener.close()


class SocketManyLink:
    """Parent-side handle of a 1-server / N-client TCP deployment."""

    def __init__(self, host: str, port: int, n_clients: int, timeout_s: float) -> None:
        self.host = host
        self.port = port
        self.n_clients = n_clients
        self._timeout_s = timeout_s

    def connect(self, slot: int) -> SocketTransport:
        """Client endpoint for ``slot``, dialled from this process.

        TCP connections are interchangeable, so the slot only bounds
        the count; the server pairs connections with sessions through
        the ADMIT handshake, not by arrival order.
        """
        del slot
        return connect_address((self.host, self.port, self._timeout_s))

    def address(self, slot: int):
        """Picklable connect info (identical for every slot — TCP
        clients are distinguished by their ADMIT, not their address)."""
        del slot
        return (self.host, self.port, self._timeout_s)

    def close(self) -> None:
        pass  # nothing parent-side: the server process owns the listener


def connect_address(info) -> SocketTransport:
    """Dial the address a :class:`SocketManyLink` produced."""
    host, port, timeout_s = info
    return SocketTransport(_dial(host, port, timeout_s), timeout_s)


def bind_reuseport(host: str = "127.0.0.1", port: int = 0,
                   backlog: int = 64) -> _socket.socket:
    """A listening socket with ``SO_REUSEPORT`` set.

    The fleet's front door: every shard binds the same (host, port)
    this way and the kernel balances incoming connections across the
    bound sockets.  Binding port 0 first (the fleet owner's *probe*)
    reserves a free port that the shards then bind by number; the
    probe socket must be closed once every shard is up — a socket
    in the reuseport group that nobody accepts on would eat its share
    of the incoming connections.
    """
    sock = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
    try:
        sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(backlog)
    except BaseException:
        sock.close()
        raise
    return sock


def serve_many(
    target: Callable,
    n_clients: int,
    timeout_s: float = 120.0,
) -> Tuple[SocketManyLink, mp.Process]:
    """Start ``target(listener)`` in a server process accepting
    ``n_clients`` TCP connections on a loopback port.

    The listening socket is bound in the parent (so the port is known
    before the child runs) and inherited by the server process across
    ``fork`` — the start method this reproduction targets, like the
    shm ring's x86 memory-ordering assumption.
    """
    if n_clients < 1:
        raise ValueError("serve_many needs at least one client")
    listener = _socket.create_server(("127.0.0.1", 0), backlog=max(n_clients, 1))
    host, port = listener.getsockname()
    proc = mp.Process(
        target=_serve_many_entry,
        args=(target, listener, n_clients, timeout_s),
        daemon=True,
    )
    proc.start()
    listener.close()  # the server process holds its own copy
    return SocketManyLink(host, port, n_clients, timeout_s), proc
