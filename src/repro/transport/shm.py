"""Shared-memory ring transport: one copy in, one copy out.

A link is a pair of single-producer / single-consumer rings living in
``multiprocessing.shared_memory`` — no payload is pickled or pushed
through a kernel buffer:

* each ring is a sequence table plus N fixed-size slots;
* the producer encodes a message **directly into the slot** with the
  pickle-free wire format (:mod:`repro.transport.wire`) — for a video
  frame that is one ``memcpy`` into shared memory, nothing else;
* the consumer decodes arrays straight out of the slot (one copy into
  the result array) and releases it;
* publication is a per-slot *sequence counter* handshake (the classic
  Lamport/Disruptor scheme): slot ``i`` starts at sequence ``i``; the
  writer of message ``n`` claims slot ``n % N`` when its sequence reads
  ``n`` and publishes by storing ``n + 1``; the reader consumes at
  ``n + 1`` and releases by storing ``n + N``.  One aligned 8-byte
  store per side is the entire synchronisation protocol — no locks, no
  semaphores, no threads.

Messages larger than a slot are fragmented over consecutive slots; the
wire header's total length on the first fragment tells the reader how
many to reassemble.

There is one way to wait.  Each ring carries two ``os.eventfd``
*doorbells* — publish and release — and the rule is: **whoever stores
a sequence counter then rings, always; whoever waits checks the
counter, sleeps in one ``select`` on the bell until its own deadline,
drains the bell and checks again.**  An eventfd is a *counter*,
readable from the first ring until it is read: a ring that lands
before the waiter sleeps makes the ``select`` return at once, so no
wakeup can be lost and nothing has to survive one — no spinning, no
waiting flags, no bounded naps.  A drain is always followed by a
check, so a bell left over from a consumed message costs one extra
pass, never a missed one.  A server multiplexing many rings sleeps in
one ``select`` over all their bells (``ShmTransport.doorbell_fd``); a
waiting peer costs no CPU; a lost peer raises ``TimeoutError`` at the
caller's deadline.

The fd *numbers* in a ring descriptor mean something only to the
creator and its ``fork`` children.  Attaching from anywhere else (a
``spawn``-ed child) raises, as does building a ring where
``os.eventfd`` does not exist (Linux, Python >= 3.10): use the
``socket`` transport there.

Memory-ordering scope: publication relies on the payload stores being
visible before the sequence-counter store, which plain (fence-free)
stores guarantee on x86's total-store-order model — the architecture
this reproduction targets.  Weakly-ordered ISAs (aarch64, POWER)
would need release/acquire fences around the counter, which pure
Python cannot express; a port would publish the counter through an
atomics-capable extension.  The wire header's magic/version check
makes a reordered read fail loudly (``WireError``) rather than decode
silently corrupt data.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import select as _select
import time
from multiprocessing import shared_memory
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro import obs
from repro.transport import wire
from repro.transport.endpoint import LINK_TIMEOUT_S, Endpoint

#: Default ring geometry: 4 slots of 1 MiB holds a reduced-resolution
#: frame in one slot and fragments HD-scale payloads across a few.
DEFAULT_SLOTS = 4
DEFAULT_SLOT_NBYTES = 1 << 20

#: Per-import lineage cookie.  Doorbell fds in a ring descriptor are
#: only meaningful to processes sharing the creator's fd table lineage
#: — i.e. forked children, which inherit both the fd *and* this module
#: global.  A spawned child re-imports the module, draws a fresh
#: cookie, and :meth:`ShmRing.attach` refuses the descriptor instead of
#: selecting on an fd number that belongs to someone else.
_LINEAGE = os.urandom(8)


def _new_bell() -> int:
    try:
        return os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
    except AttributeError:
        raise RuntimeError(
            "the shm transport waits on os.eventfd (Linux, Python >= 3.10), "
            "which this platform lacks: use transport='socket'"
        ) from None


def _ring_bell(fd: int) -> None:
    try:
        os.eventfd_write(fd, 1)
    except BlockingIOError:  # counter saturated: already readable
        pass


def _drain_bell(fd: int) -> None:
    """Reset an eventfd counter after a wakeup (or a stale ring)."""
    try:
        os.eventfd_read(fd)
    except BlockingIOError:  # nothing rung since the last drain
        pass


class ShmRing:
    """One direction of the link: an SPSC slot ring in shared memory.

    ``describe()`` / ``attach()`` carry the segment name and geometry
    across a process boundary, so the child re-maps the same physical
    pages rather than receiving any data through pickling.
    """

    def __init__(
        self,
        slots: int = DEFAULT_SLOTS,
        slot_nbytes: int = DEFAULT_SLOT_NBYTES,
        name: Optional[str] = None,
    ) -> None:
        if slots < 2:
            raise ValueError("a ring needs at least 2 slots")
        if slot_nbytes < 4 * wire.HEADER_NBYTES:
            raise ValueError("slots must hold at least a wire header")
        self.slots = slots
        self.slot_nbytes = slot_nbytes
        self._stride = 8 + slot_nbytes  # u64 fragment length + payload
        total = 8 * slots + self._stride * slots
        # Doorbells: publish (producer rings, consumer sleeps on) and
        # release (consumer rings, producer sleeps on).  Created by the
        # owner — before the segment, so a platform without eventfd
        # leaves nothing behind; attach() dups them.
        if name is None:
            self._pub_fd = _new_bell()
            self._rel_fd = _new_bell()
            self._shm = shared_memory.SharedMemory(create=True, size=total)
            self._owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner = False
        buf = self._shm.buf
        self._seq = np.ndarray((slots,), np.uint64, buf)
        base = 8 * slots
        self._lens = [
            np.ndarray((), np.uint64, buf, base + i * self._stride)
            for i in range(slots)
        ]
        self._payloads = [
            buf[base + i * self._stride + 8 : base + (i + 1) * self._stride]
            for i in range(slots)
        ]
        if self._owner:
            self._seq[:] = np.arange(slots, dtype=np.uint64)
        #: Producer/consumer cursors are process-local: each ring has
        #: exactly one producer and one consumer process.
        self._head = 0
        self._tail = 0
        self._scratch = bytearray()

    @property
    def name(self) -> str:
        return self._shm.name

    def describe(self) -> tuple:
        """Opaque attach descriptor: segment name and geometry, plus the
        doorbell fds and the creator's fd-table lineage cookie."""
        return (
            self._shm.name, self.slots, self.slot_nbytes,
            self._pub_fd, self._rel_fd, _LINEAGE,
        )

    @classmethod
    def attach(cls, desc: tuple) -> "ShmRing":
        name, slots, slot_nbytes, pub_fd, rel_fd, cookie = desc
        if cookie != _LINEAGE:
            raise RuntimeError(
                f"shm ring {name} was created outside this process's fork "
                "lineage, so its doorbell fds mean nothing here: shm links "
                "reach forked peers only — use transport='socket'"
            )
        ring = cls(slots=slots, slot_nbytes=slot_nbytes, name=name)
        # Own dups of the bells (same counters): every publish rings, so
        # an attacher in the creator's process must never hold an fd
        # number the creator's close() has handed back to the kernel.
        ring._pub_fd = os.dup(pub_fd)
        ring._rel_fd = os.dup(rel_fd)
        return ring

    # ------------------------------------------------------------------
    def _await_seq(self, index: int, want: int, deadline: float) -> None:
        seq = self._seq
        slot = index % self.slots
        if seq[slot] == want:
            return  # ready on arrival: no wait, no telemetry
        # The slot was not ready — the peer is behind.  Time the wait
        # only now (the hot already-published path above pays nothing),
        # and only when telemetry is armed.
        t0 = time.monotonic() if obs.enabled() else None
        # A producer awaits a release, a consumer a publish.
        fd = self._rel_fd if want == index else self._pub_fd
        while seq[slot] != want:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"shm ring handshake timed out waiting for slot {slot} "
                    f"(seq {int(seq[slot])}, want {want})"
                )
            _select.select([fd], [], [], remaining)
            _drain_bell(fd)
        if t0 is not None:
            obs.counter("shm.waits").inc()
            obs.histogram("shm.wait_s").observe(time.monotonic() - t0)

    # -- producer side -------------------------------------------------
    def _publish(self, slot: int) -> None:
        self._seq[slot] = self._head + 1
        self._head += 1
        _ring_bell(self._pub_fd)

    def send_message(self, obj: wire.Message, timeout_s: float, session: int = 0) -> int:
        """Encode and publish one message; returns its wire size.

        ``session`` lands in the wire header, so one ring can carry
        interleaved frames of many sessions (the multiplexed server).
        """
        deadline = time.monotonic() + timeout_s
        total = wire.encoded_nbytes(obj)
        if total <= self.slot_nbytes:
            # Fast path: encode straight into the shared slot.
            self._await_seq(self._head, self._head, deadline)
            slot = self._head % self.slots
            wire.encode_into(obj, self._payloads[slot], session=session)
            self._lens[slot][...] = total
            self._publish(slot)
            return total
        # Large message: encode once into local scratch, stream the
        # fragments through consecutive slots.
        if obs.enabled():
            obs.counter("shm.fragmented_sends").inc()
            obs.counter("shm.fragments").inc(
                -(-total // self.slot_nbytes)  # ceil division
            )
        if len(self._scratch) < total:
            self._scratch = bytearray(total)
        view = memoryview(self._scratch)
        wire.encode_into(obj, view, session=session)
        offset = 0
        while offset < total:
            self._await_seq(self._head, self._head, deadline)
            slot = self._head % self.slots
            n = min(self.slot_nbytes, total - offset)
            self._payloads[slot][:n] = view[offset : offset + n]
            self._lens[slot][...] = n
            self._publish(slot)
            offset += n
        return total

    # -- consumer side -------------------------------------------------
    def poll(self) -> bool:
        """True when the next message's first fragment is published.

        An empty ring drains the publish bell and looks again before
        answering False, so a caller may park on :attr:`doorbell_fd`
        straight after: a later publish wakes the park, a bell left
        over from a consumed message cannot make it spin.
        """
        slot = self._tail % self.slots
        if self._seq[slot] == self._tail + 1:
            return True
        _drain_bell(self._pub_fd)
        return bool(self._seq[slot] == self._tail + 1)

    @property
    def doorbell_fd(self) -> int:
        """Pollable fd, readable from a publish until the next drain."""
        return self._pub_fd

    def _release(self) -> None:
        slot = self._tail % self.slots
        self._seq[slot] = self._tail + self.slots
        self._tail += 1
        _ring_bell(self._rel_fd)

    def recv_message(self, timeout_s: float) -> Tuple[wire.Message, int]:
        """Consume one message; returns ``(payload, wire nbytes)``."""
        _, obj, total = self.recv_message_tagged(timeout_s)
        return obj, total

    def recv_message_tagged(self, timeout_s: float) -> Tuple[int, wire.Message, int]:
        """Consume one message; returns ``(session, payload, wire nbytes)``."""
        deadline = time.monotonic() + timeout_s
        self._await_seq(self._tail, self._tail + 1, deadline)
        slot = self._tail % self.slots
        n = int(self._lens[slot][()])
        first = self._payloads[slot][:n]
        total = wire.peek_total(first)
        if total <= n:
            try:
                session, obj = wire.decode_tagged(first)
            finally:
                # Also on a decode error: a malformed ADMIT blueprint is
                # answered with a REJECT, so the ring must stay usable.
                self._release()
            return session, obj, total
        # Reassemble a fragmented message.
        if obs.enabled():
            obs.counter("shm.fragmented_recvs").inc()
        if len(self._scratch) < total:
            self._scratch = bytearray(total)
        view = memoryview(self._scratch)
        view[:n] = first
        # Drop the slot sub-view *before* awaiting later fragments: if
        # the wait times out (a peer that published a partial message
        # and stalled), a live slice would pin the shared mapping open
        # past close() — the ring must stay releasable mid-teardown.
        first.release()
        self._release()
        offset = n
        while offset < total:
            self._await_seq(self._tail, self._tail + 1, deadline)
            slot = self._tail % self.slots
            n = int(self._lens[slot][()])
            view[offset : offset + n] = self._payloads[slot][:n]
            self._release()
            offset += n
        session, obj = wire.decode_tagged(view[:total])
        return session, obj, total

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the mapping and this ring's doorbell fds; the creating
        side also unlinks the segment."""
        if self._shm is None:
            return
        os.close(self._pub_fd)
        os.close(self._rel_fd)
        # Views into the shared buffer must die before the mmap can
        # close (CPython refcounting makes the drop immediate).
        self._seq = None
        self._lens = None
        for view in self._payloads or ():
            view.release()
        self._payloads = None
        shm, self._shm = self._shm, None
        shm.close()
        if self._owner:
            try:
                shm.unlink()
            except FileNotFoundError:  # removed from outside
                pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class ShmTransport(Endpoint):
    """Endpoint over a (tx, rx) pair of shared-memory rings.

    Blocking ``send`` / ``recv`` plus the multiplexing surface
    (``poll`` / ``send_tagged`` / ``recv_tagged``).
    """

    def __init__(self, tx: ShmRing, rx: ShmRing,
                 timeout_s: float = LINK_TIMEOUT_S) -> None:
        self._tx = tx
        self._rx = rx
        self.timeout_s = timeout_s

    def send(self, obj: Any, nbytes: int) -> None:
        del nbytes  # the wire format measures the real size itself
        self._tx.send_message(obj, self.timeout_s)

    def recv(self) -> Any:
        return self._rx.recv_message(self.timeout_s)[0]

    # -- multiplexing surface (one link, many sessions) ----------------
    def poll(self) -> bool:
        """True when a receive would not block."""
        return self._rx.poll()

    def doorbell_fd(self) -> int:
        """Fd a sweep loop can ``select`` on for incoming messages: park
        on it only straight after a False :meth:`poll`."""
        return self._rx.doorbell_fd

    def send_tagged(self, session: int, obj: Any) -> None:
        """Send ``obj`` tagged with a session id (wire header field)."""
        self._tx.send_message(obj, self.timeout_s, session=session)

    def recv_tagged(self) -> Tuple[int, Any]:
        """Receive the next message as ``(session, payload)``."""
        session, obj, _ = self._rx.recv_message_tagged(self.timeout_s)
        return session, obj

    def close(self) -> None:
        self._tx.close()
        self._rx.close()


def make_pair(
    slots: int = DEFAULT_SLOTS,
    slot_nbytes: int = DEFAULT_SLOT_NBYTES,
    timeout_s: float = LINK_TIMEOUT_S,
) -> Tuple[ShmTransport, ShmTransport]:
    """Create a connected (client_endpoint, server_endpoint) pair.

    The first endpoint owns the segments (its ``close`` unlinks them);
    the second holds its own mapping and doorbell fds, so either may
    close first.  Used in-process by the tests and as the building
    block of :func:`run_in_subprocess`.

    Note the ring buffers at most ``slots * slot_nbytes`` bytes: with
    both endpoints in one thread (tests), a blocking ``send`` larger
    than that cannot complete until the peer drains — size the ring to
    the message, as a real deployment does.  Across processes the
    consumer drains concurrently and any message size streams through.
    """
    up = ShmRing(slots, slot_nbytes)      # client -> server
    down = ShmRing(slots, slot_nbytes)    # server -> client
    client = ShmTransport(tx=up, rx=down, timeout_s=timeout_s)
    server = ShmTransport(
        tx=ShmRing.attach(down.describe()), rx=ShmRing.attach(up.describe()),
        timeout_s=timeout_s,
    )
    return client, server


def _child_entry(target: Callable, up_desc, down_desc, timeout_s: float) -> None:
    endpoint = ShmTransport(
        tx=ShmRing.attach(down_desc), rx=ShmRing.attach(up_desc),
        timeout_s=timeout_s,
    )
    try:
        target(endpoint)
    finally:
        endpoint.close()


def run_in_subprocess(
    target: Callable[[ShmTransport], None],
    slots: int = DEFAULT_SLOTS,
    slot_nbytes: int = DEFAULT_SLOT_NBYTES,
    timeout_s: float = LINK_TIMEOUT_S,
) -> Tuple[ShmTransport, mp.Process]:
    """Start ``target(endpoint)`` in a child process over shm rings.

    Returns the parent-side endpoint and the process handle; the
    caller joins the
    process when the protocol finishes and then closes the endpoint
    (which unlinks the segments).
    """
    up = ShmRing(slots, slot_nbytes)
    down = ShmRing(slots, slot_nbytes)
    proc = mp.Process(
        target=_child_entry,
        args=(target, up.describe(), down.describe(), timeout_s),
        daemon=True,
    )
    proc.start()
    return ShmTransport(tx=up, rx=down, timeout_s=timeout_s), proc


# ----------------------------------------------------------------------
# Multi-client serving: per-client rings, one server-side multiplexer
# ----------------------------------------------------------------------
class StaticListener:
    """Listener over pre-created connections (shm rings).

    The server runtime polls ``poll_accept`` exactly like a socket
    listener; here every connection already exists, so each call hands
    out the next one until the set is exhausted.

    Listener contract (what the runtime's churn-tolerant drain rule
    consumes): ``poll_accept()`` returns a new connection or ``None``,
    and ``exhausted()`` says whether another one can still arrive —
    here, until the last slot is handed out.  The runtime refuses to
    quiesce before every handed-out connection has closed, so a late
    joiner (a client that dials a pre-created slot long after spawn)
    always finds the server alive.
    """

    def __init__(self, endpoints) -> None:
        self._pending = list(endpoints)

    def poll_accept(self):
        """Next pre-created connection, or None once all are handed out."""
        return self._pending.pop(0) if self._pending else None

    def exhausted(self) -> bool:
        """Whether no other connection can arrive: all handed out."""
        return not self._pending

    def doorbell_fds(self):
        """Nothing to wake for: no connection arrives later."""
        return []

    def close(self) -> None:
        self._pending = []


class ShmManyLink:
    """Parent-side handle of a 1-server / N-client shm deployment.

    One (up, down) ring pair per client slot, all owned by the parent
    (creator) so their segments outlive any individual client process
    and are unlinked exactly once, at :meth:`close`.  A slot is used by
    exactly one client: either the parent itself (:meth:`connect`) or a
    child process that re-maps it from :meth:`address`.

    Slots are the shm transport's notion of a *provisioned connection
    population*: a late joiner claims its pre-created slot whenever it
    starts (rings carry no handshake state until then), and the server
    runtime's drain rule counts every slot as expected — provision
    ``n_clients`` = the number of clients that will eventually dial,
    and make sure each one runs and closes, or the idle timeout is
    what ends the server.
    """

    def __init__(self, pairs, timeout_s: float) -> None:
        self._pairs = pairs  # [(up_ring, down_ring)] per client slot
        self._timeout_s = timeout_s
        self._claimed = [False] * len(pairs)

    @property
    def n_clients(self) -> int:
        return len(self._pairs)

    def _claim(self, slot: int) -> None:
        if not 0 <= slot < len(self._pairs):
            raise IndexError(f"no client slot {slot} (have {len(self._pairs)})")
        if self._claimed[slot]:
            raise ValueError(f"client slot {slot} is already claimed")
        self._claimed[slot] = True

    def connect(self, slot: int) -> ShmTransport:
        """Client endpoint for ``slot``, used from the parent process —
        attached like any child's, so closing it unlinks nothing (the
        server may not have mapped the segments yet)."""
        return connect_address(self.address(slot))

    def address(self, slot: int):
        """Picklable connect info for ``slot`` (hand to a child process)."""
        self._claim(slot)
        up, down = self._pairs[slot]
        return (up.describe(), down.describe(), self._timeout_s)

    def close(self) -> None:
        """Unlink every ring segment (parent owns them).  Idempotent."""
        for up, down in self._pairs:
            up.close()
            down.close()
        self._pairs = []


def connect_address(info) -> ShmTransport:
    """Attach a client endpoint from :meth:`ShmManyLink.address` info."""
    up_desc, down_desc, timeout_s = info
    return ShmTransport(
        tx=ShmRing.attach(up_desc), rx=ShmRing.attach(down_desc),
        timeout_s=timeout_s,
    )


def _serve_many_entry(target, pair_descs, timeout_s: float) -> None:
    endpoints = [
        ShmTransport(
            tx=ShmRing.attach(down_desc), rx=ShmRing.attach(up_desc),
            timeout_s=timeout_s,
        )
        for up_desc, down_desc in pair_descs
    ]
    try:
        target(StaticListener(endpoints))
    finally:
        for endpoint in endpoints:
            endpoint.close()


def serve_many(target: Callable,
               n_clients: int) -> Tuple[ShmManyLink, mp.Process]:
    """Start ``target(listener)`` in a server process multiplexing
    ``n_clients`` ring pairs of the default geometry.

    The listener yields one server-side endpoint per client slot (a
    :class:`StaticListener` — all rings are pre-created, so "accepting"
    is instant and deterministic).  Returns the parent-side
    :class:`ShmManyLink` and the process handle.
    """
    if n_clients < 1:
        raise ValueError("serve_many needs at least one client slot")
    pairs = [(ShmRing(), ShmRing()) for _ in range(n_clients)]
    descs = [(up.describe(), down.describe()) for up, down in pairs]
    proc = mp.Process(
        target=_serve_many_entry, args=(target, descs, LINK_TIMEOUT_S),
        daemon=True,
    )
    proc.start()
    return ShmManyLink(pairs, LINK_TIMEOUT_S), proc
