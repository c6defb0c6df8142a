"""Sharded server fleet behind one front door.

One :class:`~repro.serving.runtime.ServerRuntime` process is a single
event loop: one core's worth of teacher inference and distillation,
queued behind one another for every tenant it serves.  A *fleet* runs
K of those runtimes as sibling shard processes behind a single
advertised attachment point, so tenant populations with nothing to
share — different teachers, different streams — stop queueing behind
each other's key frames and get a second server core:

* **Front door.**  For the socket transport every shard binds the same
  (host, port) with ``SO_REUSEPORT`` (:func:`repro.transport.socket
  .bind_reuseport`) and the kernel sprays incoming dials across the
  shard processes.  For shm — where a ring pair is physically wired to
  one process — a tiny *director* process owns the front-door slots,
  reads exactly one frame (the ADMIT) from each new client, places it,
  and hands the live ring pair to the chosen shard (cursor handoff:
  the shard resumes the ring exactly where the director stopped).

* **Placement.**  Admission-time, not load-balancer-time: the ADMIT
  blueprint *is* the placement key (:func:`placement_key`), so every
  session of one tenant — same blueprint, byte for byte — lands on the
  same shard (affinity), and a brand-new key goes to the least-loaded
  shard (lowest index on ties).  The decision is a pure function of
  the admission sequence (:class:`PlacementPolicy`); the cross-process
  :class:`FleetLedger` realises the same function over shared memory.

* **Redirects.**  A socket shard that receives an ADMIT belonging
  elsewhere answers with the typed ``redirect`` REJECT carrying the
  target shard; the client re-dials that shard's *direct*
  port and re-ADMITs — no fresh negotiation state, the same blueprint
  crosses again (the follow loop lives in
  :func:`repro.serving.runtime.attach_session`).

* **Shared teacher.**  A neural teacher is deterministic from
  ``(width, seed)`` and never trained at serve time, so the fleet pays
  for its weights once: the owner writes them into one read-only,
  digest-checked shm segment (:class:`SharedTeacherSegment`) and every
  shard aliases its teacher's parameters and buffers onto that
  mapping — K shards, one copy of the arrays.

Everything here composes with the existing machinery rather than
duplicating it: shards run the ordinary ``_runtime_entry`` (fleet
membership and pre-seeded teachers are constructor parameters), the
drain rule is the runtime's own ``draining`` quiesce variant, clients
attach through :func:`~repro.serving.runtime.attach_session` with a
:class:`FleetAddress`, and per-shard accounting rides the PR-8 metrics
registry (``fleet.placed`` / ``fleet.redirects``) into the runtime
report the owner collects at :meth:`FleetHandle.close`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.transport import wire

__all__ = [
    "placement_key",
    "PlacementPolicy",
    "FleetLedger",
    "FleetMember",
    "SharedTeacherSegment",
    "FleetAddress",
    "FleetHandle",
    "start_fleet",
]


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
#: Keys are 63-bit so they stay positive in the ledger's int64 cells;
#: 0 is the empty-slot sentinel, so a digest that lands there is bumped.
_KEY_MASK = (1 << 63) - 1


def placement_key(admit: wire.Admit) -> int:
    """The session-affinity key of one ADMIT blueprint.

    A digest over the blueprint's canonical array form (the same
    ``to_state`` bytes that cross the wire), so two sessions share a
    key exactly when their blueprints are byte-identical — one tenant's
    herd of equal clients co-locates, distinct tenants spread.
    """
    from repro.nn.serialize import state_dict_digest

    digest = state_dict_digest(admit.to_state())
    key = int.from_bytes(
        hashlib.blake2b(digest.encode(), digest_size=8).digest(), "little"
    ) & _KEY_MASK
    return key or 1


class PlacementPolicy:
    """The fleet's placement function, in pure in-process form.

    Deterministic given the op sequence: ``place`` routes a known key
    to its stored shard and a novel key to the least-loaded shard
    (lowest index on ties), counting one load per session *on the
    shard that will actually serve it*.  Reservations make redirects
    single-count: when the placing shard is not the target (a socket
    shard about to answer ``redirect``, or the shm director routing a
    handoff), the target's load is counted immediately and one
    *reservation* is parked on the entry — the re-ADMIT that later
    arrives at the target consumes the reservation instead of counting
    again.  ``release``/``abort`` undo one count; an entry vanishes
    when its last claim drains, so a fully-departed tenant may be
    placed afresh.

    The cross-process :class:`FleetLedger` must realise exactly this
    function — the property tests replay random op sequences through
    both and demand identical decisions and loads.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self.n_shards = n_shards
        self.loads = [0] * n_shards
        #: key -> [shard, claims, reservations]
        self.entries: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    def place(self, key: int, caller: Optional[int] = None) -> int:
        """Route ``key`` and account for one session's load.

        ``caller`` is the shard consulting the ledger (``None`` for
        the shm director, which never serves anything itself).
        Returns the shard the session belongs on.
        """
        entry = self.entries.get(key)
        if entry is None:
            target = min(range(self.n_shards), key=lambda k: self.loads[k])
            reserved = 0 if caller == target else 1
            self.entries[key] = [target, 1, reserved]
            self.loads[target] += 1
            return target
        target, claims, reserved = entry
        if caller == target and reserved > 0:
            entry[2] = reserved - 1  # the reserved arrival; already counted
        else:
            entry[1] = claims + 1
            self.loads[target] += 1
            if caller != target:
                entry[2] = reserved + 1
        return target

    def _drop(self, key: int) -> None:
        entry = self.entries.get(key)
        if entry is None or entry[1] <= 0:
            raise ValueError(f"no outstanding claim for key {key:#x}")
        entry[1] -= 1
        self.loads[entry[0]] -= 1
        if entry[1] == 0:
            del self.entries[key]

    def release(self, key: int) -> None:
        """A placed session ended cleanly: drop one claim."""
        self._drop(key)

    def abort(self, key: int) -> None:
        """A placed admission failed after placement (capacity,
        malformed blueprint, ...): drop the claim it briefly held."""
        self._drop(key)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "loads": list(self.loads),
            "entries": {
                key: tuple(entry) for key, entry in sorted(self.entries.items())
            },
        }


class FleetLedger:
    """:class:`PlacementPolicy` over process-shared memory.

    A fixed-capacity linear-probed table of ``(key, shard, claims,
    reservations)`` int64 cells plus a per-shard load vector, all in
    fork-inherited ``multiprocessing`` shared arrays under one lock —
    every shard process (and the shm director) sees one consistent
    placement state, and decisions stay a pure function of the
    admission order because the lock serialises the ops.

    A claim whose client dies between redirect and re-dial leaks its
    reservation (and one load count) until the table entry drains —
    accepted: the ledger is a load *estimator*, and a crashed client's
    count is bounded by the crash, not compounding.
    """

    _FIELDS = 4  # key, shard, claims, reservations

    def __init__(self, n_shards: int, capacity: int = 512) -> None:
        import multiprocessing as mp

        if n_shards < 1:
            raise ValueError("a fleet needs at least one shard")
        if capacity < 1:
            raise ValueError("ledger capacity must be positive")
        self.n_shards = n_shards
        self.capacity = capacity
        self._loads = mp.RawArray("q", n_shards)
        self._table = mp.RawArray("q", capacity * self._FIELDS)
        self._lock = mp.Lock()

    # ------------------------------------------------------------------
    def _find(self, key: int) -> int:
        """Index of ``key``'s cell, or of the empty cell where it would
        be inserted.  Raises when the table is full of other keys."""
        start = key % self.capacity
        for step in range(self.capacity):
            index = (start + step) % self.capacity
            cell = index * self._FIELDS
            if self._table[cell] in (key, 0):
                return index
        raise RuntimeError(
            f"fleet ledger full ({self.capacity} keys); "
            "raise ledger_capacity"
        )

    def place(self, key: int, caller: Optional[int] = None) -> int:
        with self._lock:
            index = self._find(key)
            cell = index * self._FIELDS
            if self._table[cell] == 0:
                target = min(
                    range(self.n_shards), key=lambda k: self._loads[k]
                )
                self._table[cell] = key
                self._table[cell + 1] = target
                self._table[cell + 2] = 1
                self._table[cell + 3] = 0 if caller == target else 1
                self._loads[target] += 1
                return target
            target = self._table[cell + 1]
            if caller == target and self._table[cell + 3] > 0:
                self._table[cell + 3] -= 1
            else:
                self._table[cell + 2] += 1
                self._loads[target] += 1
                if caller != target:
                    self._table[cell + 3] += 1
            return target

    def _drop(self, key: int) -> None:
        with self._lock:
            index = self._find(key)
            cell = index * self._FIELDS
            if self._table[cell] == 0 or self._table[cell + 2] <= 0:
                raise ValueError(f"no outstanding claim for key {key:#x}")
            self._table[cell + 2] -= 1
            self._loads[self._table[cell + 1]] -= 1
            if self._table[cell + 2] == 0:
                # Tombstone-free deletion is safe under linear probing
                # only if nothing ever probed *past* this cell to find
                # its home; re-inserting the displaced run restores the
                # invariant.
                self._table[cell:cell + self._FIELDS] = [0] * self._FIELDS
                index = (index + 1) % self.capacity
                cell = index * self._FIELDS
                while self._table[cell] != 0:
                    moved = list(self._table[cell:cell + self._FIELDS])
                    self._table[cell:cell + self._FIELDS] = (
                        [0] * self._FIELDS
                    )
                    new_index = self._find(moved[0])
                    new_cell = new_index * self._FIELDS
                    self._table[new_cell:new_cell + self._FIELDS] = moved
                    index = (index + 1) % self.capacity
                    cell = index * self._FIELDS

    def release(self, key: int) -> None:
        self._drop(key)

    def abort(self, key: int) -> None:
        self._drop(key)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            entries = {}
            for index in range(self.capacity):
                cell = index * self._FIELDS
                if self._table[cell] != 0:
                    entries[self._table[cell]] = (
                        self._table[cell + 1],
                        self._table[cell + 2],
                        self._table[cell + 3],
                    )
            return {
                "loads": list(self._loads),
                "entries": dict(sorted(entries.items())),
            }


@dataclasses.dataclass
class FleetMember:
    """One shard's view of its fleet, handed to its
    :class:`~repro.serving.runtime.ServerRuntime`.

    The runtime consults it at ADMIT time (between overload shedding
    and local capacity): :meth:`place` returning another shard draws
    the typed ``redirect`` REJECT; :meth:`abort` undoes the claim when
    a local admission fails after placement; :meth:`release` drops it
    when the session ends.
    """

    shard: int
    ledger: FleetLedger

    def placement_key(self, admit: wire.Admit) -> int:
        return placement_key(admit)

    def place(self, key: int) -> int:
        return self.ledger.place(key, self.shard)

    def abort(self, key: int) -> None:
        self.ledger.abort(key)

    def release(self, key: int) -> None:
        self.ledger.release(key)


# ----------------------------------------------------------------------
# Shared read-only teacher weights
# ----------------------------------------------------------------------
class SharedTeacherSegment:
    """One copy of a neural teacher's weights, mapped by every shard.

    The owner materialises ``TeacherNet(width, seed)`` once, writes
    each parameter and buffer raw (C-order) at a recorded offset into
    one ``SharedMemory`` segment, and keeps the content digest of the
    full state dict.  A shard then builds its teacher *aliased*:
    the same module tree, but every parameter's ``data`` and every
    buffer is a read-only numpy view over the shared mapping — K
    shards, one copy of the arrays, and any write attempt raises
    instead of corrupting a sibling.  :meth:`build_teacher` re-digests
    the views after aliasing and refuses a segment whose bytes do not
    match the manifest — a tampered or torn segment fails loudly at
    shard start, never as silently-wrong inference.
    """

    def __init__(self, width: int, seed: int) -> None:
        from multiprocessing import shared_memory

        from repro.models.teacher import TeacherNet
        from repro.nn.serialize import state_dict_digest

        self.width = int(width)
        self.seed = int(seed)
        teacher = TeacherNet(width=self.width, seed=self.seed)
        state = teacher.state_dict()
        self.digest = state_dict_digest(state)
        #: name -> (dtype.str, shape, byte offset) for every state
        #: array, in the traversal order the arrays were written.
        self.manifest: Dict[str, Tuple[str, tuple, int]] = {}
        offset = 0
        for name, array in state.items():
            arr = np.ascontiguousarray(array)
            self.manifest[name] = (arr.dtype.str, arr.shape, offset)
            offset += arr.nbytes
        self._shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for name, array in state.items():
            dtype_str, shape, off = self.manifest[name]
            view = np.ndarray(shape, dtype=np.dtype(dtype_str),
                              buffer=self._shm.buf, offset=off)
            view[...] = np.ascontiguousarray(array)
        self._unlinked = False

    @property
    def spec_key(self) -> tuple:
        """The runtime's shared-teacher cache key for this segment."""
        return ("neural", self.width, self.seed)

    def _view(self, name: str, writeable: bool = False) -> np.ndarray:
        dtype_str, shape, offset = self.manifest[name]
        view = np.ndarray(shape, dtype=np.dtype(dtype_str),
                          buffer=self._shm.buf, offset=offset)
        view.flags.writeable = writeable
        return view

    def build_teacher(self):
        """A ``TeacherNet`` whose arrays alias this segment, read-only.

        Called in the shard process (the fork child inherits the
        mapping).  Raises ``ValueError`` when the segment's bytes no
        longer digest to the owner's manifest.
        """
        from repro.models.teacher import TeacherNet
        from repro.nn.serialize import state_dict_digest

        teacher = TeacherNet(width=self.width, seed=self.seed)
        for name, param in teacher.named_parameters():
            param.data = self._view(name)
        for mod_name, module in teacher.named_modules():
            for b_name in list(module._buffers):
                full = f"{mod_name}.{b_name}" if mod_name else b_name
                view = self._view(full)
                # ``set_buffer`` always copies (that is its contract);
                # aliasing must bypass it and keep both the registry
                # and the attribute pointing at the shared view.
                module._buffers[b_name] = view
                object.__setattr__(module, b_name, view)
        found = state_dict_digest(teacher.state_dict())
        if found != self.digest:
            raise ValueError(
                "shared teacher segment digest mismatch: "
                f"expected {self.digest}, mapped bytes give {found} "
                "(torn write or tampering — refusing to serve from it)"
            )
        return teacher

    def tamper(self) -> None:
        """Flip one byte of the segment (tests: digest must catch it)."""
        self._shm.buf[0] = (self._shm.buf[0] + 1) % 256

    def close(self) -> None:
        """Unlink the segment (owner side).  Idempotent."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.close()
        except BufferError:
            pass  # live aliased views in this process keep the mapping
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# shm front door: the director and the handoff listener
# ----------------------------------------------------------------------
class _ReplayTransport:
    """A transport with a replay prefix.

    The shm director consumed the client's first frame (the ADMIT it
    placed); the shard's runtime must still *see* that frame to run
    the admission machinery, so the handed-off transport replays it
    before delegating to the live rings.  Everything else — doorbells,
    timeouts, close — passes straight through.
    """

    def __init__(self, inner, replay: List[Tuple[int, Any]]) -> None:
        self._inner = inner
        self._pending = list(replay)

    @property
    def timeout_s(self) -> float:
        return self._inner.timeout_s

    @timeout_s.setter
    def timeout_s(self, value: float) -> None:
        self._inner.timeout_s = value

    def poll(self) -> bool:
        return bool(self._pending) or self._inner.poll()

    def recv_tagged(self) -> Tuple[int, Any]:
        if self._pending:
            return self._pending.pop(0)
        return self._inner.recv_tagged()

    def send_tagged(self, session: int, obj: Any) -> None:
        self._inner.send_tagged(session, obj)

    def doorbell_fd(self) -> Optional[int]:
        # A pending replay is an immediately-readable message: the
        # park must not sleep on the ring while it waits.
        if self._pending:
            return None
        return self._inner.doorbell_fd()

    def arm_doorbell(self) -> bool:
        if self._pending:
            return False
        return self._inner.arm_doorbell()

    def disarm_doorbell(self) -> None:
        self._inner.disarm_doorbell()

    def close(self) -> None:
        self._inner.close()


class _HandoffListener:
    """A shm shard's accept surface: connections arrive as handoff
    messages from the director, drain orders from the owner.

    ``expected`` is ``None`` — a fleet shard has no provisioned
    population (clients arrive by placement, or never); the runtime's
    ``draining`` quiesce variant governs exit instead.
    """

    expected = None

    def __init__(self, handoff_conn, control_conn, timeout_s: float) -> None:
        self._handoff = handoff_conn
        self._control = control_conn
        self._timeout_s = timeout_s
        self.draining = False

    def _poll_control(self) -> None:
        if self._control is None or self.draining:
            return
        try:
            if self._control.poll(0):
                self._control.recv()  # the only message is "drain"
                self.draining = True
        except (EOFError, OSError):
            self.draining = True

    def poll_accept(self):
        from repro.transport.shm import ShmRing, ShmTransport

        self._poll_control()
        if self._handoff is None:
            return None
        try:
            if not self._handoff.poll(0):
                return None
            (up_desc, down_desc, up_cursors, down_cursors,
             replay) = self._handoff.recv()
        except (EOFError, OSError):
            # The director exited: no further handoffs will arrive,
            # but open connections keep serving — only the owner's
            # drain order (or its death) ends the shard.
            self._handoff = None
            return None
        transport = ShmTransport(
            tx=ShmRing.attach(down_desc, down_cursors),
            rx=ShmRing.attach(up_desc, up_cursors),
            timeout_s=self._timeout_s,
        )
        return _ReplayTransport(transport, [replay])

    def doorbell_fds(self) -> List[int]:
        fds = []
        if self._handoff is not None:
            fds.append(self._handoff.fileno())
        if self._control is not None and not self.draining:
            fds.append(self._control.fileno())
        return fds

    def close(self) -> None:
        pass  # pipes are owned by the fleet, not the listener


def _director_main(pairs, timeout_s: float, ledger: FleetLedger,
                   handoff_conns, control_conn) -> None:
    """Accept-and-handoff front door for an shm fleet.

    Owns nothing: it polls the front-door ring pairs the parent
    created, reads exactly one frame from each newly-active pair, and
    either hands the live rings (with cursors and the consumed ADMIT)
    to the placed shard or answers the protocol violation itself.
    Exits on the owner's drain order; the rings outlive it (the parent
    unlinks them at fleet close).
    """
    import select as _select

    from repro.transport.shm import ShmTransport

    transports = [
        ShmTransport(tx=down, rx=up, timeout_s=timeout_s)
        for up, down in pairs
    ]
    done = [False] * len(transports)
    while True:
        try:
            if control_conn.poll(0):
                control_conn.recv()
                return
        except (EOFError, OSError):
            return  # a dead owner is a drain order too
        progressed = False
        for index, transport in enumerate(transports):
            if done[index] or not transport.poll():
                continue
            try:
                tag, msg = transport.recv_tagged()
                detail = "fleet front door accepts ADMIT only"
            except wire.MalformedBlueprint as exc:
                tag, msg, detail = 0, exc, str(exc)
            done[index] = True
            progressed = True
            if msg is None:
                continue  # the client left before admitting; discard
            if not isinstance(msg, wire.Admit):
                # The front door negotiates, never serves: anything but
                # a well-formed ADMIT cannot be routed because
                # placement keys off the blueprint.
                transport.send_tagged(tag, wire.Reject(
                    0, wire.REJECT_MALFORMED, detail,
                ))
                continue
            target = ledger.place(placement_key(msg), None)
            up, down = pairs[index]
            try:
                handoff_conns[target].send((
                    up.describe(), down.describe(),
                    transport._rx.cursors(), transport._tx.cursors(),
                    (tag, msg),
                ))
            except (BrokenPipeError, OSError):
                # The placed shard is gone; this client cannot be
                # served, but the rest of the fleet must keep going.
                continue
        if not progressed:
            # Park on the owner's control pipe between sweeps; the
            # bound keeps handoff latency low without spinning.
            _select.select([control_conn.fileno()], [], [], 0.005)


# ----------------------------------------------------------------------
# Fleet owner surface
# ----------------------------------------------------------------------
from repro.serving.runtime import (  # noqa: E402  (cycle-free: runtime
    REPORT_LOST,                      # never imports fleet at module level)
    SessionAddress,
    _runtime_entry,
)


@dataclasses.dataclass(frozen=True)
class FleetAddress(SessionAddress):
    """A :class:`~repro.serving.runtime.SessionAddress` that knows the
    fleet's direct per-shard endpoints.

    ``info`` dials the shared front door; ``shards[k]`` dials shard
    ``k`` directly — the re-dial target of a ``redirect`` REJECT.
    An empty ``shards`` (the shm fleet: rings cannot be re-dialled,
    the director pins instead of redirecting) disables the follow
    loop."""

    shards: tuple = ()


def _shard_entry(shard: int, listener, ledger: FleetLedger, teacher_seg,
                 report_conn, runtime_kwargs: Dict[str, Any],
                 close_first=()) -> None:
    """Entry point of one shard process: alias the shared teacher,
    join the ledger, and run the ordinary server runtime.

    ``close_first`` holds the *other* shards' fork-inherited sockets:
    they must be closed in this process immediately, or a sibling's
    death would leave its front-door socket alive here — still in the
    kernel's reuseport group, accepting nothing, eating dials."""
    for sock in close_first:
        try:
            sock.close()
        except OSError:
            pass
    teachers = None
    if teacher_seg is not None:
        teachers = {teacher_seg.spec_key: teacher_seg.build_teacher()}
    _runtime_entry(
        listener,
        fleet=FleetMember(shard, ledger),
        teachers=teachers,
        report_conn=report_conn,
        obs_source=f"shard{shard}",
        **runtime_kwargs,
    )


class FleetHandle:
    """Owner's view of a running fleet.

    Duck-types the slice of :class:`~repro.serving.runtime
    .ServerHandle` the standalone-client drivers use
    (:meth:`address`), so ``run_churn_processes`` and the bench
    harnesses drive a fleet exactly like a single server.
    """

    def __init__(self, transport: str, n_shards: int, processes,
                 report_conns, control_conns, ledger: FleetLedger,
                 teacher_seg: Optional[SharedTeacherSegment],
                 front_info, shard_infos: tuple, link=None,
                 director=None, director_control=None,
                 report_timeout_s: float = 5.0) -> None:
        self.transport = transport
        self.n_shards = n_shards
        self.processes = list(processes)
        self._report_conns = list(report_conns)
        self._control_conns = list(control_conns)
        self._ledger = ledger
        self._teacher_seg = teacher_seg
        self._front_info = front_info
        self._shard_infos = tuple(shard_infos)
        self._link = link
        self._director = director
        self._director_control = director_control
        self.report_timeout_s = report_timeout_s
        #: Per-shard runtime reports, populated by :meth:`close` (a
        #: shard that died without reporting yields the typed
        #: :data:`~repro.serving.runtime.REPORT_LOST` marker).
        self.shard_reports: Optional[List[Dict[str, Any]]] = None
        #: Fleet-level accounting folded from the shard reports,
        #: populated by :meth:`close`.
        self.fleet_report: Optional[Dict[str, Any]] = None
        self._closed = False

    # ------------------------------------------------------------------
    def address(self, slot: int, admit_retries: int = 0,
                retry_seed: Optional[int] = None) -> FleetAddress:
        """Picklable attachment point for one standalone client: dial
        the front door, ADMIT, follow redirects."""
        if self._link is not None:
            info = self._link.address(slot)
        else:
            info = self._front_info
        seed = slot if retry_seed is None else retry_seed
        return FleetAddress(self.transport, info, admit_retries, seed,
                            shards=self._shard_infos)

    def ledger_snapshot(self) -> Dict[str, Any]:
        return self._ledger.snapshot()

    # ------------------------------------------------------------------
    def _drain(self, conn) -> None:
        try:
            conn.send("drain")
        except (BrokenPipeError, OSError):
            pass  # the process died first (e.g. a SIGKILL test)

    def _join(self, process, deadline: float) -> None:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)

    def close(self, join_timeout_s: float = 30.0) -> None:
        """Drain the fleet, join every process, collect the reports,
        release the shared segments.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + join_timeout_s
        if self._director_control is not None:
            self._drain(self._director_control)
        if self._director is not None:
            self._join(self._director, deadline)
        for conn in self._control_conns:
            self._drain(conn)
        for process in self.processes:
            self._join(process, deadline)
        reports: List[Dict[str, Any]] = []
        for conn in self._report_conns:
            report = None
            try:
                if conn.poll(self.report_timeout_s):
                    report = conn.recv()
            except (EOFError, OSError):
                pass
            finally:
                conn.close()
            if report is None:
                report = {
                    "exit_reason": REPORT_LOST,
                    "report_lost": True,
                    "frames_served": {},
                    "serve_counters": {},
                    "teardowns": {},
                    "metrics": None,
                }
            reports.append(report)
        self.shard_reports = reports

        def _counter(report, name):
            metrics = report.get("metrics") or {}
            return (metrics.get("counters") or {}).get(name, 0)

        self.fleet_report = {
            "shards": len(reports),
            "exit_reasons": [r.get("exit_reason") for r in reports],
            "placed": sum(_counter(r, "fleet.placed") for r in reports),
            "redirects": sum(
                _counter(r, "fleet.redirects") for r in reports
            ),
            "frames_served": [
                sum(r.get("frames_served", {}).values()) for r in reports
            ],
            "loads": self._ledger.snapshot()["loads"],
        }
        if self._link is not None:
            self._link.close()  # parent owns the ring segments
        if self._teacher_seg is not None:
            self._teacher_seg.close()

    def __enter__(self) -> "FleetHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_fleet(
    n_shards: int,
    transport: str = "socket",
    n_clients: int = 1,
    *,
    shared_teacher: Optional[Tuple[int, int]] = None,
    idle_timeout_s: float = 120.0,
    max_sessions: Optional[int] = None,
    overload=None,
    obs_config=None,
    timeout_s: float = 120.0,
    ledger_capacity: int = 512,
    report_timeout_s: float = 5.0,
    **shm_options,
) -> FleetHandle:
    """Spawn ``n_shards`` runtime processes behind one front door.

    ``transport="socket"``: every shard binds the advertised port with
    ``SO_REUSEPORT`` plus its own direct port; the kernel sprays dials,
    misplaced ADMITs are redirected.  ``transport="shm"``: the parent
    pre-creates ``n_clients`` front-door ring pairs and a director
    process places each client's first ADMIT, handing the live rings to
    the chosen shard (pin, no redirect).  ``shared_teacher=(width,
    seed)`` materialises that neural teacher once in a read-only,
    digest-checked shm segment every shard aliases.  Remaining knobs
    pass through to each shard's :class:`~repro.serving.runtime
    .ServerRuntime` unchanged.
    """
    import multiprocessing as mp

    if n_shards < 1:
        raise ValueError("a fleet needs at least one shard")
    if transport not in ("socket", "shm"):
        raise ValueError(
            f"fleet transport must be 'socket' or 'shm', got {transport!r}"
        )
    ledger = FleetLedger(n_shards, capacity=ledger_capacity)
    teacher_seg = (
        SharedTeacherSegment(*shared_teacher)
        if shared_teacher is not None else None
    )
    runtime_kwargs = dict(
        idle_timeout_s=idle_timeout_s,
        max_sessions=max_sessions,
        overload=overload,
        obs_config=obs_config,
    )
    try:
        if transport == "socket":
            return _start_socket_fleet(
                mp, n_shards, ledger, teacher_seg, runtime_kwargs,
                timeout_s, report_timeout_s,
            )
        return _start_shm_fleet(
            mp, n_shards, n_clients, ledger, teacher_seg, runtime_kwargs,
            timeout_s, report_timeout_s, shm_options,
        )
    except BaseException:
        if teacher_seg is not None:
            teacher_seg.close()
        raise


def _start_socket_fleet(mp, n_shards, ledger, teacher_seg, runtime_kwargs,
                        timeout_s, report_timeout_s) -> FleetHandle:
    from repro.transport.socket import FleetSocketListener, bind_reuseport

    fronts = [bind_reuseport()]
    host, port = fronts[0].getsockname()
    try:
        for _ in range(1, n_shards):
            fronts.append(bind_reuseport(host, port))
        directs = [bind_reuseport(host, 0) for _ in range(n_shards)]
    except BaseException:
        for sock in fronts:
            sock.close()
        raise
    processes, report_conns, control_conns = [], [], []
    shard_infos = tuple(
        (host, sock.getsockname()[1], timeout_s) for sock in directs
    )
    for shard in range(n_shards):
        control_recv, control_send = mp.Pipe(duplex=False)
        report_recv, report_send = mp.Pipe(duplex=False)
        listener = FleetSocketListener(
            fronts[shard], directs[shard], timeout_s,
            control_conn=control_recv,
        )
        close_first = [
            sock for other, sock in enumerate(fronts)
            if other != shard and not sock._closed
        ] + [
            sock for other, sock in enumerate(directs) if other != shard
        ]
        process = mp.Process(
            target=_shard_entry,
            args=(shard, listener, ledger, teacher_seg, report_send,
                  runtime_kwargs, close_first),
            daemon=True,
        )
        process.start()
        # The parent's copies must go too — any process still holding
        # a dead shard's front socket keeps its reuseport slot alive
        # (accepting nothing, eating dials).
        fronts[shard].close()
        directs[shard].close()
        control_recv.close()
        report_send.close()
        processes.append(process)
        report_conns.append(report_recv)
        control_conns.append(control_send)
    return FleetHandle(
        "socket", n_shards, processes, report_conns, control_conns,
        ledger, teacher_seg, (host, port, timeout_s), shard_infos,
        report_timeout_s=report_timeout_s,
    )


def _start_shm_fleet(mp, n_shards, n_clients, ledger, teacher_seg,
                     runtime_kwargs, timeout_s, report_timeout_s,
                     shm_options) -> FleetHandle:
    from repro.transport.shm import (
        DEFAULT_SLOT_NBYTES,
        DEFAULT_SLOTS,
        ShmManyLink,
        ShmRing,
    )

    if n_clients < 1:
        raise ValueError("an shm fleet needs at least one client slot")
    slots = shm_options.pop("slots", DEFAULT_SLOTS)
    slot_nbytes = shm_options.pop("slot_nbytes", DEFAULT_SLOT_NBYTES)
    if shm_options:
        raise TypeError(f"unknown shm options {sorted(shm_options)}")
    pairs = [
        (ShmRing(slots, slot_nbytes), ShmRing(slots, slot_nbytes))
        for _ in range(n_clients)
    ]
    link = ShmManyLink(pairs, timeout_s)
    processes, report_conns, control_conns, handoff_sends = [], [], [], []
    for shard in range(n_shards):
        control_recv, control_send = mp.Pipe(duplex=False)
        handoff_recv, handoff_send = mp.Pipe(duplex=False)
        report_recv, report_send = mp.Pipe(duplex=False)
        listener = _HandoffListener(handoff_recv, control_recv, timeout_s)
        process = mp.Process(
            target=_shard_entry,
            args=(shard, listener, ledger, teacher_seg, report_send,
                  runtime_kwargs),
            daemon=True,
        )
        process.start()
        control_recv.close()
        handoff_recv.close()
        report_send.close()
        processes.append(process)
        report_conns.append(report_recv)
        control_conns.append(control_send)
        handoff_sends.append(handoff_send)
    director_control_recv, director_control_send = mp.Pipe(duplex=False)
    director = mp.Process(
        target=_director_main,
        args=(pairs, timeout_s, ledger, handoff_sends,
              director_control_recv),
        daemon=True,
    )
    director.start()
    director_control_recv.close()
    for conn in handoff_sends:
        conn.close()  # the director's copies stay open
    return FleetHandle(
        "shm", n_shards, processes, report_conns, control_conns,
        ledger, teacher_seg, None, (), link=link, director=director,
        director_control=director_control_send,
        report_timeout_s=report_timeout_s,
    )
