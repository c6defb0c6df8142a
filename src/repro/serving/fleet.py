"""Sharded server fleet behind one front door.

One :class:`~repro.serving.runtime.ServerRuntime` process is a single
event loop: one core's worth of teacher inference and distillation,
queued behind one another for every tenant it serves.  A *fleet* runs
K of those runtimes as sibling shard processes behind a single
advertised attachment point, so tenant populations with nothing to
share — different teachers, different streams — stop queueing behind
each other's key frames, and a shard that dies takes only its own
sessions with it.  That isolation is the fleet's rent: on two cores
K = 2 measures ~1.0x of one runtime (``scripts/bench_perf.py fleet``).

* **Front door.**  Every shard binds the same (host, port) with
  ``SO_REUSEPORT`` (:func:`repro.transport.socket.bind_reuseport`) and
  the kernel sprays incoming dials across the shard processes.

* **Placement.**  Admission-time, not load-balancer-time: the ADMIT
  blueprint *is* the placement key (:func:`placement_key`), so every
  session of one tenant — same blueprint, byte for byte — lands on the
  same shard (affinity), and a brand-new key goes to the least-loaded
  shard (lowest index on ties).  The decision is a pure function of
  the admission sequence (:class:`PlacementPolicy`); the cross-process
  :class:`FleetLedger` realises the same function over shared memory.

* **Redirects.**  A shard that receives an ADMIT belonging elsewhere
  answers with the typed ``redirect`` REJECT carrying the target
  shard — the only hand-off there is; the client re-dials that shard's
  *direct* port and re-ADMITs — no fresh negotiation state, the same
  blueprint crosses again (the follow loop lives in
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
    "LedgerFull",
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
    single-count: when the placing shard is not the target (it is
    about to answer ``redirect``), the target's load is counted
    immediately and one *reservation* is parked on the entry — the
    re-ADMIT that later arrives at the target consumes the reservation
    instead of counting again.  ``release``/``abort`` undo one count; an entry vanishes
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
    def place(self, key: int, caller: int) -> int:
        """Route ``key`` and account for one session's load.

        ``caller`` is the shard consulting the ledger.  Returns the
        shard the session belongs on.
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


class LedgerFull(RuntimeError):
    """Every ledger entry holds another open blueprint: the ADMIT that
    needed a new one is refused (``REJECT(capacity)``), nothing is
    claimed, and entries free up as tenants drain."""


#: Distinct blueprints a fleet can have open at once.
_LEDGER_CAPACITY = 512


class FleetLedger:
    """:class:`PlacementPolicy` over process-shared memory.

    A fixed-capacity linear-probed table of ``(key, shard, claims,
    reservations)`` int64 cells plus a per-shard load vector, all in
    fork-inherited ``multiprocessing`` shared arrays under one lock —
    every shard process sees one consistent placement state, and
    decisions stay a pure function of the admission order because the
    lock serialises the ops.

    A claim whose client dies between redirect and re-dial leaks its
    reservation (and one load count) until the table entry drains —
    accepted: the ledger is a load *estimator*, and a crashed client's
    count is bounded by the crash, not compounding.
    """

    _FIELDS = 4  # key, shard, claims, reservations

    def __init__(self, n_shards: int, capacity: int = _LEDGER_CAPACITY) -> None:
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
        be inserted.  Raises :class:`LedgerFull` when every cell holds
        another key."""
        start = key % self.capacity
        for step in range(self.capacity):
            index = (start + step) % self.capacity
            cell = index * self._FIELDS
            if self._table[cell] in (key, 0):
                return index
        raise LedgerFull(
            f"fleet ledger full: {self.capacity} distinct blueprints open"
        )

    def place(self, key: int, caller: int) -> int:
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
# Fleet owner surface
# ----------------------------------------------------------------------
from repro.serving.runtime import (  # noqa: E402  (cycle-free: runtime
    SessionAddress,                   # never imports fleet at module level)
    _runtime_entry,
    collect_report,
)


@dataclasses.dataclass(frozen=True)
class FleetAddress(SessionAddress):
    """A :class:`~repro.serving.runtime.SessionAddress` that knows the
    fleet's direct per-shard endpoints.

    ``info`` dials the shared front door; ``shards[k]`` dials shard
    ``k`` directly — the re-dial target of a ``redirect`` REJECT."""

    shards: tuple = ()


def _shard_entry(shard: int, listener, ledger: FleetLedger, teacher_seg,
                 report_conn, runtime_kwargs: Dict[str, Any],
                 close_first) -> None:
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

    def __init__(self, n_shards: int, processes,
                 report_conns, control_conns, ledger: FleetLedger,
                 teacher_seg: Optional[SharedTeacherSegment],
                 front_info, shard_infos: tuple) -> None:
        self.n_shards = n_shards
        self.processes = list(processes)
        self._report_conns = list(report_conns)
        self._control_conns = list(control_conns)
        self._ledger = ledger
        self._teacher_seg = teacher_seg
        self._front_info = front_info
        self._shard_infos = tuple(shard_infos)
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
        the front door, ADMIT, follow redirects.  Every slot dials the
        same address; ``slot`` only seeds the retry jitter."""
        seed = slot if retry_seed is None else retry_seed
        return FleetAddress("socket", self._front_info, admit_retries, seed,
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
        for conn in self._control_conns:
            self._drain(conn)
        for process in self.processes:
            self._join(process, deadline)
        reports = [collect_report(conn) for conn in self._report_conns]
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
        if self._teacher_seg is not None:
            self._teacher_seg.close()

    def __enter__(self) -> "FleetHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_fleet(
    n_shards: int,
    *,
    shared_teacher: Optional[Tuple[int, int]] = None,
    idle_timeout_s: float = 120.0,
    max_sessions: Optional[int] = None,
    overload=None,
    obs_config=None,
    timeout_s: float = 120.0,
) -> FleetHandle:
    """Spawn ``n_shards`` runtime processes behind one front door.

    Every shard binds the advertised port with ``SO_REUSEPORT`` plus
    its own direct port; the kernel sprays dials, misplaced ADMITs are
    redirected.  ``shared_teacher=(width, seed)`` materialises that
    neural teacher once in a read-only, digest-checked shm segment
    every shard aliases.  ``timeout_s`` bounds every link's blocking
    I/O; the remaining knobs pass through to each shard's
    :class:`~repro.serving.runtime.ServerRuntime` unchanged.
    """
    if n_shards < 1:
        raise ValueError("a fleet needs at least one shard")
    ledger = FleetLedger(n_shards)
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
        return _spawn_shards(
            n_shards, ledger, teacher_seg, runtime_kwargs, timeout_s
        )
    except BaseException:
        if teacher_seg is not None:
            teacher_seg.close()
        raise


def _spawn_shards(n_shards, ledger, teacher_seg, runtime_kwargs,
                  timeout_s) -> FleetHandle:
    import multiprocessing as mp

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
        n_shards, processes, report_conns, control_conns,
        ledger, teacher_seg, (host, port, timeout_s), shard_infos,
    )
