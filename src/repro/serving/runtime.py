"""Event-driven server process: one loop, any number of sessions.

Every session whose server half lives in another process is an ADMIT on
a :class:`ServerRuntime` — one session or hundreds, the deployment is
the same.  ShadowTutor's economics are one GPU server amortizing
teacher inference and distillation across many mobile clients; this
module is that shape:

* :class:`ServerRuntime` — owns one teacher plus per-client server-side
  students and polls every client connection in a single, non-threaded
  event loop (in the spirit of event-driven real-time interpreters):
  each sweep visits connections in a fixed order and serves at most one
  message per connection, so scheduling is fair and deterministic.  A
  key frame is served in the sweep that received it — Algorithm 4
  blocks the device on its one update in flight, so no handler ever
  holds a frame hoping for company.  Bitwise-identical key-frame work
  from different client *processes* (pseudo-labelling and distillation
  alike) routes through one
  :class:`~repro.serving.shared.SharedDistillation` memo, exactly as
  the in-process pool shares it between sessions: duplicates are found
  by content digest, whenever they arrive.
* the session protocol — there is one way in: a client ships its
  session's blueprint in an ADMIT frame and the server builds the
  student, assigns the session id (0, 1, 2, ... in acceptance order)
  and answers ACCEPT plus the initial weights (Algorithm 3's initial
  send), or REJECT with a typed reason code; BYE ends a session and
  the ``None`` sentinel closes a connection.  One link can carry many
  sessions (a pooled client process runs all of its sessions over a
  single connection), so session ids tag every wire frame
  (:mod:`repro.transport.wire`; the normative spec is
  ``docs/PROTOCOL.md``).  An admitted session uses the same
  pre-trained checkpoint and deterministic trainer an in-process one
  would, so its ``RunStats`` stay bit-identical to an in-process run.
* capacity and drain — a configurable policy (``max_sessions``) bounds
  concurrently open sessions; admission past it is REJECTed with the
  ``capacity`` reason, loudly and cleanly.  The exit condition
  tolerates churn: the runtime exits once no session remains open,
  every accepted connection has closed and the listener says no other
  connection can arrive — not when some fixed session roster is done.
* failure scope — whatever one connection does wrong (a dead or stalled
  peer, a corrupt frame, a message no server accepts, a key frame for a
  session it does not carry) ends that connection with a typed reason
  and nothing else; the idle deadline is the only exception
  :meth:`ServerRuntime.run` raises.
* the client side — :class:`MuxConnection` demultiplexes tagged
  replies into per-session queues; :class:`MuxRemoteServer` gives
  :class:`~repro.runtime.client.Client` what it reads of its server
  (``handle_key_frame`` / ``is_partial`` / ``reply_bytes``) over the
  tagged wire protocol, so a session served by the runtime produces
  *identical* ``RunStats`` to the in-process run — the property the
  e2e tests and the tier-1 smoke script pin down.
* :func:`start_server` / :class:`ServerHandle` — spawn the runtime over
  any transport with the ``serve_many`` capability (``shm`` rings, TCP
  ``socket``) and hand out attachment points: tickets for sessions in
  this process (:meth:`ServerHandle.ticket`), picklable addresses for
  standalone client processes (:meth:`ServerHandle.address`).
"""

from __future__ import annotations

import dataclasses
import os
import select as _select
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.distill.config import DistillMode
from repro.network.messages import MessageSizes
from repro.obs.metrics import MetricsRegistry
from repro.runtime.server import ServerReply
from repro.segmentation.classes import CLASS_MAP_DTYPE
from repro.transport import wire

#: The :class:`~repro.serving.shared.SharedDistillation` counters the
#: runtime report carries (and, armed, mirrors as ``serve.memo.*``).
_MEMO_COUNTERS = ("hits", "misses", "label_hits", "label_misses")

#: What reading or writing a link can raise.  Each ends that link
#: alone, typed by :func:`_link_failure`; a well-framed ADMIT with a
#: bad blueprint (``wire.MalformedBlueprint``) is refused instead.
_LINK_ERRORS = (ConnectionError, EOFError, TimeoutError, wire.WireError)


def _link_failure(exc: BaseException, direction: str) -> str:
    """Teardown reason for ``exc`` raised while ``direction`` ("recv" /
    "send") crossed a link."""
    if isinstance(exc, TimeoutError):
        return f"{direction}-budget"
    if isinstance(exc, wire.WireError):
        return "corrupt-frame"
    return "connection-error"


# ----------------------------------------------------------------------
# Server side: the multiplexing runtime
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SessionBlueprint:
    """Everything the server process needs to build one session's
    server half: the session's configuration and frame geometry.
    It reaches the server as an ADMIT frame (:func:`admit_message` /
    :meth:`from_admit`)."""

    config: Any                       #: :class:`~repro.runtime.session.SessionConfig`
    frame_hw: Tuple[int, int]

    def __post_init__(self) -> None:
        # The blueprint describes the *session*, not how to reach the
        # server — strip attachment/transport fields so the server
        # process cannot recursively try to attach anywhere.
        if self.config.attach is not None:
            self.config = dataclasses.replace(self.config, attach=None)

    @classmethod
    def from_admit(cls, admit: wire.Admit) -> "SessionBlueprint":
        """Rebuild a blueprint from a wire ADMIT frame.

        Semantic validation happens here (the wire layer only checks
        the frame is structurally well-formed): a nonsensical geometry
        or stride policy raises ``ValueError``, which the runtime turns
        into a REJECT with the ``malformed-blueprint`` reason instead
        of crashing the server every other client depends on.  The
        geometry must be one the student runs at, checked by the same
        rule its forward applies, so a session that could never serve
        a frame is refused before it opens.
        """
        from repro.distill.config import DistillConfig, DistillMode
        from repro.models.student import StudentNet
        from repro.runtime.session import SessionConfig

        if admit.student_width <= 0:
            raise ValueError(f"student width {admit.student_width} must be > 0")
        if admit.student_seed < 0:
            raise ValueError(f"student seed {admit.student_seed} must be >= 0")
        if admit.pretrain_steps < 0:
            raise ValueError("pretrain_steps must be >= 0")
        StudentNet.check_frame_hw(admit.frame_h, admit.frame_w)
        if admit.teacher_arch not in ("oracle", "neural"):
            raise ValueError(f"unknown teacher_arch {admit.teacher_arch!r}")
        if admit.teacher_width < 1:
            raise ValueError(
                f"teacher width {admit.teacher_width} must be >= 1"
            )
        if admit.teacher_seed < 0:
            raise ValueError(f"teacher seed {admit.teacher_seed} must be >= 0")
        distill = DistillConfig(
            threshold=admit.threshold,
            max_updates=admit.max_updates,
            min_stride=admit.min_stride,
            max_stride=admit.max_stride,
            mode=DistillMode(admit.mode),
            lr=admit.lr,
        )
        config = SessionConfig(
            distill=distill,
            student_width=admit.student_width,
            student_seed=admit.student_seed,
            pretrain_steps=admit.pretrain_steps,
            teacher_arch=admit.teacher_arch,
            teacher_width=int(admit.teacher_width),
            teacher_seed=int(admit.teacher_seed),
        )
        return cls(config, (admit.frame_h, admit.frame_w))


def admit_message(config, frame_hw: Tuple[int, int]) -> wire.Admit:
    """The ADMIT frame a client sends to negotiate ``config`` as a new
    session on a running server — the wire twin of
    :meth:`SessionBlueprint.from_admit`.  Only server-relevant fields
    cross: latency/network simulation, message-size accounting and
    forced delays are client-side knobs the replies do not depend on.
    The frame carries the full teacher spec (arch/width/seed), so a
    session can describe a neural teacher — what lets a whole fleet
    population share one.
    """
    distill = config.distill
    return wire.Admit(
        student_width=config.student_width,
        student_seed=config.student_seed,
        pretrain_steps=config.pretrain_steps,
        frame_h=int(frame_hw[0]),
        frame_w=int(frame_hw[1]),
        mode=str(getattr(distill.mode, "value", distill.mode)),
        threshold=distill.threshold,
        max_updates=distill.max_updates,
        min_stride=distill.min_stride,
        max_stride=distill.max_stride,
        lr=distill.lr,
        teacher_arch=config.teacher_arch,
        teacher_width=int(config.teacher_width),
        teacher_seed=int(config.teacher_seed),
    )


class AdmissionError(RuntimeError):
    """A running server refused this client's ADMIT.

    Carries the wire-level :class:`~repro.transport.wire.Reject` so
    callers can branch on :attr:`code` (e.g. retry elsewhere on
    ``capacity``, give up on ``malformed-blueprint``).  Load-induced
    refusals (``capacity``, ``overloaded``) are :attr:`retryable` and
    may carry a server-side :attr:`retry_after` hint in wall-clock
    milliseconds (the server converts its internal tick-denominated
    hints at REJECT-encode time using its measured seconds-per-tick) —
    the attach path's bounded retry loop honours both.  A fleet shard's
    ``redirect`` refusal carries the target shard in :attr:`shard`; it
    is *not* retryable (re-ADMITting the same shard would only be
    redirected again) — the attach path re-dials the named shard
    instead.
    """

    def __init__(self, reject: wire.Reject) -> None:
        detail = f": {reject.detail}" if reject.detail else ""
        after = (
            f", retry after {reject.retry_after} ms"
            if reject.retry_after is not None else ""
        )
        target = (
            f" -> shard {reject.shard}" if reject.shard is not None else ""
        )
        super().__init__(
            f"server refused admission ({reject.reason}{detail}{after}{target})"
        )
        self.reject = reject
        self.code = reject.code
        self.reason = reject.reason
        self.retry_after = reject.retry_after
        self.shard = reject.shard

    @property
    def retryable(self) -> bool:
        """True when the refusal is about the server's *current* load
        (capacity/overloaded) — conditions a later retry can outlive.
        Structural refusals (malformed blueprint, redirect) can never
        succeed by waiting."""
        return self.code in (wire.REJECT_CAPACITY, wire.REJECT_OVERLOADED)


class _LiveSession:
    """One open session inside the runtime."""

    def __init__(self, server, connection, frame_hw: Tuple[int, int]) -> None:
        self.server = server
        self.connection = connection
        #: The geometry the session was admitted at; its student's
        #: plans are compiled for nothing else.
        self.frame_hw = frame_hw
        #: Wall-clock time of the last message for this session — what
        #: the idle-session reaper compares against its deadline.
        self.last_active = time.monotonic()

    def accepts(self, frame, label) -> bool:
        """Whether a FRAME is one this session's server can serve: a
        float32 ``(3, H, W)`` frame at the admitted geometry, and an
        integer ``(H, W)`` map of the student's classes exactly when
        the teacher reads the label (``None`` otherwise)."""
        if not (isinstance(frame, np.ndarray) and frame.dtype == np.float32
                and frame.shape == (3, *self.frame_hw)):
            return False
        if not self.server.teacher_reads_label:
            return label is None
        return (
            isinstance(label, np.ndarray) and label.shape == self.frame_hw
            and np.issubdtype(label.dtype, np.integer)
            and 0 <= label.min()
            and label.max() < self.server.student.num_classes
        )


class ServerRuntime:
    """One teacher, per-client students, one event loop.

    Parameters
    ----------
    idle_timeout_s:
        Hard deadline on a completely idle loop (no accepts, no
        messages): a lost client population raises ``TimeoutError``
        instead of wedging the server process forever.
    max_sessions:
        Capacity policy: the most sessions allowed *open at once*.
        An ADMIT past the cap is REJECTed with the ``capacity``
        reason; a session ending frees its slot.  ``None`` means
        unbounded (the wire header's u16 session id is the only
        ceiling).
    overload:
        The :class:`~repro.serving.overload.OverloadConfig` of the
        overload-control layer (token-bucket admission with
        ``retry_after`` hints, per-connection receive budgets,
        idle-session reaping).  Every control sheds load by refusing an
        admission or tearing a connection down, never by changing what
        an admitted session computes, so RunStats are bit-identical
        under any configuration.  ``None`` — the default — is
        ``OverloadConfig()``: the controller still keeps its tick
        clock, but every control is off (no bucket, the transport's own
        timeout, no reaper).
    """

    def __init__(
        self,
        idle_timeout_s: float = 120.0,
        max_sessions: Optional[int] = None,
        overload=None,
        fleet=None,
        teachers=None,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be at least 1 (or None)")
        self.idle_timeout_s = idle_timeout_s
        self.max_sessions = max_sessions
        from repro.serving.shared import SharedDistillation

        #: One memo for every per-session server, so bitwise-identical
        #: key-frame work submitted by different client processes
        #: labels and trains once (replies are identical either way).
        self._work_cache = SharedDistillation()
        #: Shared teacher instances keyed by (arch, width, seed) spec.
        #: ``teachers`` pre-seeds the cache — a fleet shard injects its
        #: copy-on-never teachers aliased onto the fleet's read-only
        #: shm weight segment here, and every admitted session whose
        #: spec matches serves from the shared arrays.
        self._shared_teachers: Dict[tuple, Any] = {}
        if teachers:
            self._shared_teachers.update(teachers)
        #: Fleet membership (:class:`repro.serving.fleet.FleetMember`)
        #: or ``None`` for a standalone runtime.  A member consults the
        #: fleet ledger at ADMIT time: sessions placed here proceed,
        #: sessions belonging elsewhere draw a typed ``redirect``
        #: REJECT naming the target shard.
        self._fleet = fleet
        #: session id -> placement key, for releasing the ledger claim
        #: when the session ends.
        self._fleet_keys: Dict[int, int] = {}
        #: The runtime's metrics registry.  With telemetry armed
        #: (:func:`repro.obs.arm` / ``REPRO_OBS``) this *is* the
        #: process registry, so runtime instruments merge with every
        #: other armed layer; disarmed, a local always-on registry
        #: still carries the handful of integers the runtime report
        #: exposes (key frames served, fleet placements, overload
        #: refusals).
        self.metrics = (
            obs.registry() if obs.enabled()
            else MetricsRegistry(source="server")
        )
        self._c_key_frames = self.metrics.counter("serve.key_frames")
        self._sessions: Dict[int, _LiveSession] = {}
        #: Next session id to assign: 0, 1, 2, ... in acceptance order,
        #: never reused, so demux queues and ``frames_served`` records
        #: stay unambiguous for the whole runtime lifetime.
        self._next_session = 0
        #: Key frames served per session id, counted as they are served
        #: from 0 at ADMIT — sessions still open are in it too.
        self.frames_served: Dict[int, int] = {}
        from repro.serving.overload import OverloadConfig, OverloadController

        self._overload = OverloadController(
            overload or OverloadConfig(), metrics=self.metrics
        )
        #: Typed teardown records: session id → reason for sessions the
        #: runtime ended unilaterally ("idle-reaped", "recv-budget",
        #: "send-budget", "connection-error", "corrupt-frame",
        #: "protocol-error"); clean BYEs never appear here.
        self.teardowns: Dict[int, str] = {}
        #: Connection index → teardown reason for links the runtime
        #: closed unilaterally.
        self.connection_teardowns: Dict[int, str] = {}

    # ------------------------------------------------------------------
    @property
    def serve_counters(self) -> Dict[str, int]:
        """Key frames served, and how many of them the shared memo
        spared a teacher forward (``label_*``) or a distillation
        (``hits`` / ``misses``) — the runtime report's accounting."""
        memo = self._work_cache.counters
        counters = {"key_frames": self._c_key_frames.value}
        counters.update((name, memo.get(name, 0)) for name in _MEMO_COUNTERS)
        return counters

    def _note_admission(self, reason: Optional[str] = None) -> None:
        """Armed-only admission accounting (observes, never decides)."""
        if obs.enabled():
            if reason is None:
                obs.counter("admission.accepted").inc()
            else:
                obs.counter(f"admission.rejected.{reason}").inc()

    def _teacher_for(self, config):
        """One teacher per *spec* for the whole runtime, provably
        identical to per-session teachers: the oracle is stateless, and
        a neural teacher is deterministic from ``(width, seed)`` and
        never trained at serve time — so every session describing the
        same spec shares one instance (which is also what lets the
        shared memo label a key frame once for every session that
        submits it).
        """
        from repro.runtime.session import build_teacher

        key = (config.teacher_arch, config.teacher_width, config.teacher_seed)
        teacher = self._shared_teachers.get(key)
        if teacher is None:
            teacher = build_teacher(config)
            self._shared_teachers[key] = teacher
        return teacher

    def _at_capacity(self) -> bool:
        return (
            self.max_sessions is not None
            and len(self._sessions) >= self.max_sessions
        )

    def _capacity_hint(self) -> int:
        """``retry_after`` of a capacity REJECT, in the wire's
        milliseconds: hints are produced on the controller's virtual
        tick clock and converted with its measured seconds-per-tick."""
        ctl = self._overload
        return ctl.ticks_to_ms(ctl.capacity_hint())

    def _build_server(self, admit: wire.Admit):
        """The server half of one session.  A blueprint that fails
        validation or breaks model construction raises ``ValueError``."""
        from repro.runtime.server import Server
        from repro.runtime.session import pretrained_student

        blueprint = SessionBlueprint.from_admit(admit)
        config = blueprint.config
        student = pretrained_student(
            config.student_width, config.student_seed,
            config.pretrain_steps, blueprint.frame_hw,
        )
        return Server(
            student, self._teacher_for(config), config.distill, config.sizes,
            work_cache=self._work_cache,
        )

    def _refuse(self, connection, code: int, detail: str,
                fleet_key: Optional[int] = None, **hint) -> None:
        """The one refusal path: undo the fleet ledger claim (if one
        was taken), answer REJECT on session 0 — the requester owns no
        session id yet — and account for it."""
        if fleet_key is not None:
            self._fleet.abort(fleet_key)
        connection.send_tagged(0, wire.Reject(0, code, detail, **hint))
        self._note_admission(wire.REJECT_REASONS[code])

    def _admit_session(self, connection, admit: wire.Admit) -> None:
        """Open a session: validate the blueprint, assign the next id,
        answer ACCEPT + initial STATE — or refuse."""
        hint = self._overload.admit()
        if hint is not None:
            self._refuse(
                connection, wire.REJECT_OVERLOADED,
                "admission token bucket is empty",
                retry_after=self._overload.ticks_to_ms(hint),
            )
            return
        # Fleet placement sits between overload shedding and local
        # capacity: an overloaded shard refuses before consulting the
        # ledger (nothing was claimed, nothing to undo); every refusal
        # after this point passes ``fleet_key`` so a failed admission
        # never leaves a phantom load on this shard.
        fleet_key = None
        if self._fleet is not None:
            from repro.serving.fleet import LedgerFull

            fleet_key = self._fleet.placement_key(admit)
            try:
                target = self._fleet.place(fleet_key)
            except LedgerFull as exc:
                # Nothing was claimed, so nothing to abort; entries free
                # up as tenants drain, hence the retryable code.
                self._refuse(
                    connection, wire.REJECT_CAPACITY, str(exc),
                    retry_after=self._capacity_hint(),
                )
                return
            if target != self._fleet.shard:
                # The claim now belongs to ``target``: nothing to abort.
                self.metrics.counter("fleet.redirects").inc()
                self._refuse(
                    connection, wire.REJECT_REDIRECT,
                    f"session belongs on shard {target}", shard=target,
                )
                return
        if self._at_capacity():
            self._refuse(
                connection, wire.REJECT_CAPACITY,
                f"{len(self._sessions)}/{self.max_sessions} sessions open",
                fleet_key, retry_after=self._capacity_hint(),
            )
            return
        if self._next_session > wire.MAX_SESSION:
            self._refuse(
                connection, wire.REJECT_CAPACITY,
                "u16 session-id space exhausted for this runtime", fleet_key,
            )
            return
        try:
            server = self._build_server(admit)
        except ValueError as exc:
            # Semantic validation, or a blueprint that passed it and
            # still broke model construction (e.g. a width too small
            # to yield any channels).  A wire-supplied blueprint must
            # never crash the server other clients depend on.
            self._refuse(connection, wire.REJECT_MALFORMED, str(exc),
                         fleet_key)
            return
        # The session is open before its handshake is written, so a
        # link that fails mid-handshake ends it (and releases its
        # ledger claim) through the teardown like any other.
        session_id = self._next_session
        self._next_session += 1
        self._sessions[session_id] = _LiveSession(
            server, connection, (admit.frame_h, admit.frame_w)
        )
        self.frames_served[session_id] = 0
        if fleet_key is not None:
            self._fleet_keys[session_id] = fleet_key
            self.metrics.counter("fleet.placed").inc()
        connection.send_tagged(session_id, wire.Accept(session_id))
        connection.send_tagged(session_id, dict(server.student.state_dict()))
        self._note_admission()

    def _end_session(self, session_id: int) -> None:
        del self._sessions[session_id]
        fleet_key = self._fleet_keys.pop(session_id, None)
        if fleet_key is not None:
            self._fleet.release(fleet_key)

    def _handle(self, connection, session_id: int, msg) -> Optional[str]:
        """Handle one server-bound message from ``connection``.

        Returns ``None``, or the teardown reason when the message is
        one no server accepts: a kind other than ADMIT / BYE / FRAME,
        a FRAME for a session not open on this link, or a FRAME whose
        frame or label the session cannot serve
        (:meth:`_LiveSession.accepts`).  A BYE for a session not open
        on this link is ignored.
        """
        if isinstance(msg, wire.Admit):
            self._admit_session(connection, msg)
        elif isinstance(msg, wire.MalformedBlueprint):
            self._refuse(connection, wire.REJECT_MALFORMED, str(msg))
        elif isinstance(msg, wire.Bye):
            if self._session_on(connection, session_id) is not None:
                self._end_session(session_id)
        elif isinstance(msg, tuple):
            live = self._session_on(connection, session_id)
            if live is None or not live.accepts(*msg):
                return "protocol-error"
            live.last_active = time.monotonic()
            self._serve_key_frame(connection, session_id, live, *msg)
        else:
            return "protocol-error"
        self._overload.served()
        return None

    def _session_on(self, connection, session_id: int) -> Optional[_LiveSession]:
        """Session ``session_id`` if it is open on ``connection``."""
        live = self._sessions.get(session_id)
        return live if live is not None and live.connection is connection else None

    def _serve_key_frame(self, connection, session_id: int, live, frame,
                         label) -> None:
        """One key-frame serve, inline: teacher inference, distillation,
        reply."""
        if label is not None:
            # ``accepts`` range-checked it, so any integer map is served
            # as the one class-map dtype: twins share their memo entries.
            label = label.astype(CLASS_MAP_DTYPE, copy=False)
        armed = obs.enabled()
        t0 = time.monotonic() if armed else 0.0
        with obs.span("serve", session=session_id):
            reply, _ = live.server.handle_key_frame(frame, label)
            connection.send_tagged(session_id, reply)
        self.frames_served[session_id] += 1
        self._c_key_frames.inc()
        if armed:
            # Per-session timeline of the metric each serve reported:
            # the record quality-aware shedding (ROADMAP, Parked) would
            # need to exist.
            obs.histogram("serve.serve_s").observe(time.monotonic() - t0)
            obs.series("session.serve").append(
                [session_id, float(reply.metric)]
            )

    # ------------------------------------------------------------------
    def _teardown_connection(self, index: int, connection, closed: set,
                             reason: Optional[str] = None) -> None:
        """End one connection: the one place a link's sessions end with
        it and its endpoint is released.

        Ends every session the link carried, marks the connection
        closed for the drain rule, and releases the endpoint *now* —
        per-client rings are dropped the moment their client is gone,
        not held mapped until process exit.  ``reason`` types a
        unilateral teardown (recorded per session and per connection);
        ``None`` is the clean close — the peer sent its sentinel — and
        records nothing.  Nothing is sent either way: the peer has
        left, is unreachable (dead) or misbehaving (slow-loris, corrupt
        or out-of-protocol frames), and a farewell write could block on
        its unserviced ring.
        """
        for sid, live in list(self._sessions.items()):
            if live.connection is connection:
                self._end_session(sid)
                if reason is not None:
                    self.teardowns[sid] = reason
        closed.add(index)
        if reason is not None:
            self.connection_teardowns[index] = reason
        try:
            connection.close()
        except Exception:
            pass  # releasing a broken endpoint must not kill the loop

    def _reap_idle(self, connections: List[Any], closed: set,
                   conn_active: Dict[int, float], now: float) -> bool:
        """The idle-session reaper: typed teardown for never-BYEing
        peers.  A session silent past the deadline ends with reason
        ``idle-reaped``; a connection with no remaining sessions that
        has also gone silent is closed the same way, so a client that
        died without its sentinel (kill -9 mid-run) cannot block the
        drain rule forever.  Returns True when anything was reaped.
        """
        deadline_s = self._overload.config.reap_idle_s
        reaped = False
        for sid, live in list(self._sessions.items()):
            if now - live.last_active > deadline_s:
                self._end_session(sid)
                self.teardowns[sid] = "idle-reaped"
                reaped = True
        for index, connection in enumerate(connections):
            if index in closed or index not in conn_active:
                # Never-active connections are *not* reaped: a static
                # (shm) listener pre-creates every slot, so an inactive
                # one is indistinguishable from a client that has not
                # dialed yet — the idle timeout remains their backstop.
                continue
            if any(l.connection is connection
                   for l in self._sessions.values()):
                continue  # live sessions keep their link up
            if now - conn_active[index] > deadline_s:
                self._teardown_connection(index, connection, closed,
                                          "idle-reaped")
                reaped = True
        return reaped

    # ------------------------------------------------------------------
    def _quiesced(self, connections: List[Any], closed: set,
                  listener) -> bool:
        """The churn-tolerant drain rule: the runtime may exit once no
        connection can arrive any more (``listener.exhausted()``), no
        session is open, and every accepted connection has closed.

        A quiet moment between a departure and a late joiner is *not*
        quiescence: the joiner has not yet arrived (a TCP population is
        complete only at ``expected`` accepts, a fleet shard's only at
        its drain order) or has not yet closed (shm rings exist from
        spawn and close only when their client does), so churn gaps of
        any length are tolerated.  A population that never materialises
        is caught by the idle timeout instead.
        """
        # The listener is asked first, every sweep: a fleet shard's
        # drain order is read (and its wake-up fd retired) by the
        # asking, whatever else is still open.
        return (
            listener.exhausted()
            and not self._sessions
            and len(closed) == len(connections)
        )

    def _park(self, connections, closed, listener, wake: float) -> None:
        """Sleep an idle sweep until there is something to sweep for.

        One ``select`` over every open connection's ``doorbell_fd()``
        and the listener's ``doorbell_fds()`` (pending accepts, a
        fleet's drain order), until ``wake`` — the earlier of the
        runtime's own clocks.  Safe straight after a sweep in which
        every ``poll()`` answered False: that leaves each fd unreadable
        until something new arrives (a socket has no bytes; an empty
        ring drained its bell and looked again), so whatever arrived
        since makes the ``select`` return at once.
        """
        fds = [
            connection.doorbell_fd()
            for index, connection in enumerate(connections)
            if index not in closed
        ]
        fds += listener.doorbell_fds()
        _select.select(fds, [], [], max(0.0, wake - time.monotonic()))

    def run(self, listener) -> Dict[int, int]:
        """Serve until the population drains (see :meth:`_quiesced`).

        ``listener`` yields client connections (``poll_accept``); each
        sweep of the loop first admits any pending connection, then
        visits every open connection in arrival order and serves at
        most one message from each — fair, deterministic, no threads.
        Every message, key frames included, is handled before the next
        connection is polled: no clock decides *when* to serve.
        Returns key frames served per session id.

        Whatever one connection does wrong ends that connection, never
        the runtime: a peer that vanishes, stalls past the receive
        budget (the transport's timeout when no budget is configured),
        sends a corrupt frame or stops draining its replies, and one
        that sends a message no server accepts, is torn down with a
        typed reason (:meth:`_teardown_connection`).  The idle deadline
        is the only exception ``run`` raises.
        """
        connections: List[Any] = []
        closed: set = set()
        idle_deadline = time.monotonic() + self.idle_timeout_s
        ctl = self._overload
        recv_budget_s = ctl.config.recv_budget_s
        reap_idle_s = ctl.config.reap_idle_s
        #: Connection index → last wall-clock activity (reaper input).
        conn_active: Dict[int, float] = {}
        next_reap = (
            time.monotonic() + reap_idle_s if reap_idle_s is not None else None
        )
        #: Armed once at loop entry: arming mid-run is not supported,
        #: and a per-sweep module-global check would be the only
        #: disarmed cost of the whole sweep instrumentation.
        armed = obs.enabled()
        while not self._quiesced(connections, closed, listener):
            sweep_t0 = time.monotonic() if armed else 0.0
            progressed = False
            served_this_sweep = 0
            accepted = listener.poll_accept()
            if accepted is not None:
                if recv_budget_s is not None:
                    # The fairness budget: one misbehaving peer may
                    # stall the sweep for at most this long, transport
                    # blocking included.
                    accepted.timeout_s = recv_budget_s
                connections.append(accepted)
                progressed = True
            for index, connection in enumerate(connections):
                if index in closed or not connection.poll():
                    continue
                progressed = True
                try:
                    session_id, msg = connection.recv_tagged()
                except wire.MalformedBlueprint as exc:
                    # Well-framed, so the link is intact: refused below.
                    session_id, msg = 0, exc
                except _LINK_ERRORS as exc:
                    self._teardown_connection(index, connection, closed,
                                              _link_failure(exc, "recv"))
                    continue
                if msg is None:
                    # Connection sentinel: the clean close (an abnormal
                    # death that still managed EOF lands here too).
                    self._teardown_connection(index, connection, closed)
                    continue
                conn_active[index] = time.monotonic()
                served_this_sweep += 1
                try:
                    reason = self._handle(connection, session_id, msg)
                except _LINK_ERRORS as exc:
                    reason = _link_failure(exc, "send")
                if reason is not None:
                    self._teardown_connection(index, connection, closed,
                                              reason)
            if armed and progressed:
                # Idle sweeps are the park's business; timing them
                # would drown the histogram in wake-up noise.
                obs.histogram("sweep.duration_s").observe(
                    time.monotonic() - sweep_t0
                )
                obs.histogram("sweep.pending").observe(
                    float(served_this_sweep)
                )
                obs.gauge("sessions.open").maximum(float(len(self._sessions)))
            if next_reap is not None and time.monotonic() >= next_reap:
                if self._reap_idle(connections, closed, conn_active,
                                   time.monotonic()):
                    progressed = True
                next_reap = time.monotonic() + reap_idle_s / 4
            if progressed:
                idle_deadline = time.monotonic() + self.idle_timeout_s
                continue
            if time.monotonic() > idle_deadline:
                raise TimeoutError(
                    f"server runtime idle for {self.idle_timeout_s}s before "
                    f"quiescing: {len(self._sessions)} session(s) open, "
                    f"{len(connections) - len(closed)} of {len(connections)} "
                    f"connection(s) still up"
                )
            self._park(
                connections, closed, listener,
                idle_deadline if next_reap is None
                else min(idle_deadline, next_reap),
            )
        return dict(self.frames_served)


#: ``prctl`` option naming the signal a process receives when the
#: thread that forked it dies (``<linux/prctl.h>``).
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Have the kernel SIGKILL this process when its parent dies.

    A process wedged inside a handler never returns to the loop that
    checks its idle deadline, and a parent ended by ``os._exit`` (the
    test watchdog) reaps nothing, so without this a wedged server
    outlives its run and keeps its rings.  The signal follows the
    forking *thread*: every caller starts these processes from a thread
    that outlives them.  A parent that died before the ``prctl`` is
    caught by comparing ``getppid()`` with the pid multiprocessing
    recorded before the fork.  Where ``prctl`` does not exist this
    warns and does nothing else.
    """
    import ctypes
    import multiprocessing as mp
    import signal
    import warnings

    prctl = getattr(ctypes.CDLL(None, use_errno=True), "prctl", None)
    if prctl is not None:
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
    if prctl is None or prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        warnings.warn(
            "prctl(PR_SET_PDEATHSIG) is unavailable: this process "
            "outlives a killed parent"
        )
        return
    parent = mp.parent_process()
    if parent is not None and os.getppid() != parent.pid:
        os._exit(1)


def _runtime_entry(listener, idle_timeout_s, max_sessions, overload,
                   report_conn, fleet=None, teachers=None,
                   obs_source="server") -> None:
    """Server-process entry point for :func:`start_server`.

    ``report_conn`` (a pipe back to the spawning process) receives one
    final report — frames served, serve/memo counters, typed
    teardowns per session and per connection, a typed ``exit_reason``,
    and the runtime's metrics
    snapshot (plus Chrome trace events when tracing is armed) — so
    benches and tests can read the runtime's accounting without sharing
    memory with it.  The report is sent on *every* exit path: a
    construction error, a crash mid-run, or the idle timeout reaches
    the owner as ``exit_reason = "error:<type>"`` / ``"idle-timeout"``
    instead of a silently absent report.

    The inherited ``REPRO_OBS`` environment arms telemetry here, so one
    variable arms a whole process tree.  The process dies with its
    parent (:func:`_die_with_parent`).
    """
    _die_with_parent()
    obs.arm_from_env(source=obs_source)
    runtime = None
    exit_reason = "quiesced"
    try:
        runtime = ServerRuntime(
            idle_timeout_s=idle_timeout_s, max_sessions=max_sessions,
            overload=overload, fleet=fleet, teachers=teachers,
        )
        runtime.run(listener)
    except TimeoutError:
        # The idle deadline: the one exception ``run`` raises by design.
        exit_reason = "idle-timeout"
        raise
    except BaseException as exc:
        exit_reason = f"error:{type(exc).__name__}"
        raise
    finally:
        counters = runtime.serve_counters if runtime is not None else {}
        if counters and obs.enabled():
            for name in _MEMO_COUNTERS:
                obs.counter(f"serve.memo.{name}").inc(counters[name])
        try:
            report = {
                "exit_reason": exit_reason,
                "frames_served": (
                    dict(runtime.frames_served) if runtime is not None else {}
                ),
                "serve_counters": counters,
                "teardowns": (
                    dict(runtime.teardowns) if runtime is not None else {}
                ),
                "connection_teardowns": (
                    dict(runtime.connection_teardowns)
                    if runtime is not None else {}
                ),
                "metrics": (
                    runtime.metrics.snapshot()
                    if runtime is not None else obs.snapshot()
                ),
            }
            if obs.enabled():
                report["trace"] = obs.trace_events()
            report_conn.send(report)
        except (BrokenPipeError, OSError):
            pass  # the owner died first; accounting dies with it
        finally:
            report_conn.close()
        obs.export_artifacts()


# ----------------------------------------------------------------------
# Client side: demultiplexing connection + per-session server proxy
# ----------------------------------------------------------------------
class MuxConnection:
    """Client side of one multiplexed link (possibly many sessions).

    Wraps a transport endpoint with the tagged surface (``send_tagged``
    / ``recv_tagged`` / ``poll``) and sorts incoming messages into
    per-session queues, so interleaved replies for different sessions
    on one connection each reach their own :class:`MuxRemoteServer`.
    """

    def __init__(self, endpoint) -> None:
        self.endpoint = endpoint
        self._queues: Dict[int, Deque[Any]] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def send_tagged(self, session: int, obj: Any) -> None:
        self.endpoint.send_tagged(session, obj)

    def recv_for(self, session: int) -> Any:
        """Next message for ``session`` (queues others as they arrive)."""
        queue = self._queues.setdefault(session, deque())
        while not queue:
            tag, msg = self.endpoint.recv_tagged()
            self._queues.setdefault(tag, deque()).append(msg)
        return queue.popleft()

    # ------------------------------------------------------------------
    def admit_session(self, admit: wire.Admit) -> Tuple[int, Dict[str, Any]]:
        """ADMIT → ACCEPT(id)/REJECT → initial state.

        Opens a session on the running server and returns
        ``(session_id, initial_state)`` — the id is *assigned
        by the server*, so the answer cannot be awaited on a known
        session queue: the first ACCEPT/REJECT control frame to arrive
        answers the ADMIT (at most one admission is in flight per
        connection — callers are synchronous), while data frames for
        other sessions keep demultiplexing into their queues.
        """
        self.send_tagged(0, admit)
        while True:
            tag, msg = self.endpoint.recv_tagged()
            if isinstance(msg, wire.Reject):
                raise AdmissionError(msg)
            if isinstance(msg, wire.Accept):
                if msg.session != tag:
                    raise RuntimeError(
                        f"admission ACCEPT tagged {tag} names session "
                        f"{msg.session}"
                    )
                state = self.recv_for(tag)
                if not isinstance(state, dict):
                    raise RuntimeError(
                        f"session {tag} initial state was "
                        f"{type(state).__name__}"
                    )
                return tag, state
            self._queues.setdefault(tag, deque()).append(msg)

    def close_session(self, session: int) -> None:
        """BYE, and forget the session's queue: ids are never reused,
        so a pooled link would otherwise keep one per session ever
        opened."""
        self._queues.pop(session, None)
        try:
            self.send_tagged(session, wire.Bye(session))
        except Exception:
            pass  # server already gone; nothing to unwind

    def close(self) -> None:
        """Send the connection sentinel and release the endpoint."""
        if self._closed:
            return
        self._closed = True
        try:
            self.endpoint.send(None, 1)
        except Exception:
            pass
        close = getattr(self.endpoint, "close", None)
        if close is not None:
            close()


class MuxRemoteServer:
    """Per-session server proxy on a multiplexed connection.

    What :class:`~repro.runtime.client.Client` reads of its server —
    ``handle_key_frame`` / ``is_partial`` / ``reply_bytes`` — with the
    key frame crossing the link as a tagged wire frame.
    ``close`` ends *this session* (BYE), never the server process: any
    number of sessions share one server.  A proxy that owns its
    connection (a standalone client process) also closes the
    connection on the way out.
    """

    def __init__(
        self,
        connection: MuxConnection,
        session: int,
        config,
        sizes=None,
        owns_connection: bool = False,
        *,
        teacher_reads_label: bool,
    ) -> None:
        self.connection = connection
        self.session = session
        self.config = config
        self.sizes = sizes or MessageSizes.paper()
        self.owns_connection = owns_connection
        #: Whether the session's teacher reads the renderer label (the
        #: admitted blueprint says: a neural one does not), i.e. whether
        #: the client puts one in its FRAMEs.
        self.teacher_reads_label = teacher_reads_label
        self._closed = False

    @property
    def is_partial(self) -> bool:
        """Whether the remote peer runs partial distillation."""
        return self.config.mode is DistillMode.PARTIAL

    def handle_key_frame(self, frame, label=None):
        """Ship one key frame to the server; blocks for its reply.

        Returns ``(reply, reply)``: the pair that the in-process
        :meth:`~repro.runtime.server.Server.handle_key_frame` returns,
        with the reply in both slots.
        """
        self.connection.send_tagged(self.session, (frame, label))
        reply = self.connection.recv_for(self.session)
        if not isinstance(reply, ServerReply):
            raise RuntimeError(
                f"server sent {type(reply).__name__}, expected ServerReply"
            )
        return reply, reply

    def reply_bytes(self) -> int:
        """Paper-scale wire size of the student update (Table 4)."""
        if self.is_partial:
            return self.sizes.student_diff_partial
        return self.sizes.student_full

    def close(self) -> None:
        """End the session; close the connection too if we own it."""
        if self._closed:
            return
        self._closed = True
        self.connection.close_session(self.session)
        if self.owns_connection:
            self.connection.close()


# ----------------------------------------------------------------------
# Deployment: spawn the runtime, hand out attachment points
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SessionAddress:
    """Picklable attachment point for one session on a running server.

    Put it in :attr:`~repro.runtime.session.SessionConfig.attach` in
    any process: ``build_session`` dials the transport, ships its own
    configuration to the running server in an ADMIT frame, and returns
    a normal :class:`~repro.runtime.client.Client` (serving whatever
    session id the server assigned) whose connection it owns.

    ``admit_retries`` bounds a seeded retry loop around the ADMIT
    handshake: a *retryable* refusal (capacity/overloaded) is retried
    up to that many times, sleeping the server's ``retry_after`` hint
    (jittered by an RNG seeded with ``slot``, the connection slot the
    address was made for) between attempts — no hot spinning, no
    unbounded waits.  Structural refusals raise immediately regardless.
    """

    transport: str
    info: Any
    admit_retries: int = 0
    slot: int = 0


@dataclasses.dataclass(frozen=True)
class SessionTicket:
    """In-process attachment point: sessions with tickets from one
    handle share that handle's single parent-side connection — how a
    :class:`~repro.serving.pool.SessionPool` runs all its sessions over
    one link to one server process.  ``admit`` is the ADMIT frame to
    send: a blueprint the handle was started with
    (:meth:`ServerHandle.ticket` with an index), or ``None`` to admit
    the attaching client's own configuration.  A ticket admits once:
    the bounded retry loop belongs to :class:`SessionAddress`."""

    handle: "ServerHandle"
    admit: Optional[wire.Admit] = None


#: ``exit_reason`` of the typed marker report a handle's ``close``
#: synthesises when a server process never delivered its own report
#: (killed before the runtime's finally, or the poll deadline passed).
REPORT_LOST = "report-lost"

#: How long a handle's ``close`` waits for its server process to exit
#: on its own before terminating it.
JOIN_TIMEOUT_S = 30.0

#: How long ``close`` waits on a report pipe.  The process has already
#: been joined by then, so this is a drain allowance for a large
#: (trace-bearing) report still in the pipe buffer, not a wait on the
#: runtime.
REPORT_TIMEOUT_S = 5.0


def collect_report(conn) -> Dict[str, Any]:
    """Drain one joined server process's report pipe and close it.

    A report that never arrives is surfaced as the typed
    :data:`REPORT_LOST` marker dict — callers branch on
    ``report["exit_reason"]`` instead of guessing what a ``None`` meant.
    """
    try:
        if conn.poll(REPORT_TIMEOUT_S):
            return conn.recv()
    except (EOFError, OSError):
        pass  # died without reporting — marked lost below
    finally:
        conn.close()
    return {
        "exit_reason": REPORT_LOST,
        "report_lost": True,
        "frames_served": {},
        "serve_counters": {},
        "teardowns": {},
        "connection_teardowns": {},
        "metrics": None,
    }


class ServerHandle:
    """Owner's view of a spawned :class:`ServerRuntime` process."""

    def __init__(self, transport: str, link, process,
                 blueprints: List[SessionBlueprint], report_conn) -> None:
        self.transport = transport
        self.link = link
        self.process = process
        #: Sessions :meth:`ticket` can name by index.  They stay in
        #: this process: the server learns of one when its ADMIT lands.
        self.blueprints = list(blueprints)
        self._parent_connection: Optional[MuxConnection] = None
        self._report_conn = report_conn
        #: The runtime's final accounting (frames served, serve/memo
        #: counters, typed teardowns, exit reason, metrics
        #: snapshot), populated by :meth:`close`.  ``None`` before
        #: close; after close it is *always* a dict — a server that
        #: died without reporting yields the typed :data:`REPORT_LOST`
        #: marker instead of a silent ``None``.
        self.runtime_report: Optional[Dict[str, Any]] = None
        self._closed = False

    # ------------------------------------------------------------------
    def ticket(self, session: Optional[int] = None) -> SessionTicket:
        """Attachment point for a session run in *this* process, over
        the handle's shared parent connection.  ``ticket(i)`` admits
        the session blueprint ``i`` describes; ``ticket()`` admits the
        attaching client's own configuration."""
        admit = None
        if session is not None:
            if not 0 <= session < len(self.blueprints):
                raise IndexError(
                    f"no blueprint {session}: the server was started "
                    f"with {len(self.blueprints)}"
                )
            blueprint = self.blueprints[session]
            admit = admit_message(blueprint.config, blueprint.frame_hw)
        return SessionTicket(self, admit)

    def address(self, slot: int, admit_retries: int = 0) -> SessionAddress:
        """Picklable attachment point for a standalone client process:
        the client dials connection ``slot`` and admits its own
        configuration, so it can join a server that is already
        mid-run.  ``admit_retries`` opts the client into the bounded
        retry loop on retryable refusals; the jitter seed is the slot,
        so every client in a herd backs off on its own deterministic
        schedule.
        """
        return SessionAddress(
            self.transport, self.link.address(slot), admit_retries, slot
        )

    def parent_connection(self) -> MuxConnection:
        """The single in-process connection every ticket shares (claims
        client slot 0 on first use)."""
        if self._parent_connection is None:
            self._parent_connection = MuxConnection(self.link.connect(0))
        return self._parent_connection

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the parent connection, join the server, release the
        transport.  Idempotent.

        A server whose sessions never all ended (a client process
        crashed before its BYE) will not exit on its own until its
        idle timeout; rather than block this caller and then unlink
        shared segments under a still-running process, the join is
        bounded (:data:`JOIN_TIMEOUT_S`) and a straggler is terminated
        before the transport is released.  A report that never arrives
        becomes the typed :data:`REPORT_LOST` marker dict
        (:func:`collect_report`).
        """
        if self._closed:
            return
        self._closed = True
        if self._parent_connection is not None:
            self._parent_connection.close()
        self.process.join(timeout=JOIN_TIMEOUT_S)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.runtime_report = collect_report(self._report_conn)
        self.link.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_server(
    blueprints: List[SessionBlueprint] = (),
    transport: str = "shm",
    n_clients: int = 1,
    idle_timeout_s: float = 120.0,
    max_sessions: Optional[int] = None,
    overload=None,
) -> ServerHandle:
    """Spawn one multiplexing server process.

    ``n_clients`` is the number of *connections* (client processes, or
    1 for a pool running every session over the parent's connection);
    sessions are a separate dimension — any connection can ADMIT any
    number of them.  ``blueprints`` never leaves this process: it is
    what ``handle.ticket(i)`` names by index (may be empty — clients
    then admit their own configurations).  ``max_sessions`` caps the
    concurrently open sessions (REJECT past it).

    The returned handle's :attr:`~ServerHandle.runtime_report` (read at
    :meth:`~ServerHandle.close`) carries the runtime's final accounting
    — frames served, serve/memo counters, typed teardowns, a
    typed exit reason, and the runtime's metrics snapshot.  The server
    process arms telemetry from the inherited ``REPRO_OBS`` environment.
    """
    import functools
    import multiprocessing as mp

    from repro.transport import registry

    report_recv, report_send = mp.Pipe(duplex=False)
    target = functools.partial(
        _runtime_entry,
        idle_timeout_s=idle_timeout_s,
        max_sessions=max_sessions,
        overload=overload,
        report_conn=report_send,
    )
    try:
        link, process = registry.serve_many(transport, target, n_clients)
    except BaseException:
        report_recv.close()
        report_send.close()
        raise
    report_send.close()
    return ServerHandle(transport, link, process, blueprints, report_recv)


# ----------------------------------------------------------------------
# build_session attachment (called from repro.runtime.session)
# ----------------------------------------------------------------------
#: Ceiling on any single retry sleep.
_RETRY_SLEEP_MAX_S = 1.0

#: Ceiling on redirect-follow hops during one attach.  The fleet
#: ledger's placement is sticky (an affinity key maps to one shard
#: until its refcount drains), so a healthy fleet resolves in one hop;
#: the bound exists so a confused or adversarial fleet cannot bounce a
#: client between shards forever.
_MAX_REDIRECTS = 4


def _admit_with_retry(connection, admit, admit_retries: int, seed: int):
    """ADMIT with the bounded, seeded retry loop of a
    :class:`SessionAddress` (a ticket passes a budget of 0).

    Each retryable refusal (``AdmissionError.retryable``) sleeps the
    server's ``retry_after`` hint — wall-clock milliseconds, already
    converted server-side from its virtual tick clock with a measured
    seconds-per-tick — jittered by a client-local seeded RNG (so a herd
    of refused clients de-bunches deterministically), then re-ADMITs —
    at most ``admit_retries`` times, never spinning.  Structural
    refusals and exhausted budgets raise the last
    :class:`AdmissionError` unchanged.
    """
    import random

    rng = random.Random(seed)
    attempt = 0
    while True:
        try:
            return connection.admit_session(admit)
        except AdmissionError as exc:
            if attempt >= admit_retries or not exc.retryable:
                raise
            attempt += 1
            hint_ms = exc.retry_after if exc.retry_after is not None else 1
            sleep_s = min(hint_ms / 1000.0, _RETRY_SLEEP_MAX_S)
            time.sleep(sleep_s * (0.5 + rng.random()))


def attach_session(config, frame_hw, stride_policy):
    """Build a :class:`~repro.runtime.client.Client` attached to a
    running multiplexed server (the ``config.attach`` path of
    :func:`~repro.runtime.session.build_session`).

    A :class:`SessionTicket` shares its handle's parent connection; a
    :class:`SessionAddress` dials its own connection and owns it.
    Either way the session's blueprint (the one the ticket carries,
    else derived from ``config`` and ``frame_hw``) crosses the wire in
    an ADMIT frame and the server assigns the id.

    A fleet address (a :class:`SessionAddress` whose ``shards`` tuple
    is populated) adds the redirect-follow loop: a shard answering the
    ADMIT with a ``redirect`` REJECT names where the session belongs,
    and the client re-dials that shard's direct endpoint and re-ADMITs
    — no fresh negotiation state, the same blueprint crosses again —
    bounded by :data:`_MAX_REDIRECTS` hops.
    """
    from repro.models.student import StudentNet
    from repro.runtime.client import Client
    from repro.transport import registry

    attach = config.attach
    if isinstance(attach, SessionTicket):
        connection = attach.handle.parent_connection()
        admit = attach.admit or admit_message(config, frame_hw)
        owns = False
        retries, seed = 0, 0
    elif isinstance(attach, SessionAddress):
        connection = MuxConnection(registry.connect(attach.transport, attach.info))
        admit = admit_message(config, frame_hw)
        owns = True
        retries, seed = attach.admit_retries, attach.slot
    else:
        raise TypeError(
            f"config.attach must be a SessionTicket or SessionAddress, "
            f"got {type(attach).__name__}"
        )
    try:
        redirects = 0
        while True:
            try:
                session, initial_state = _admit_with_retry(
                    connection, admit, retries, seed
                )
                break
            except AdmissionError as exc:
                shards = getattr(attach, "shards", ())
                if (
                    exc.code != wire.REJECT_REDIRECT
                    or exc.shard is None
                    or not owns
                    or not 0 <= exc.shard < len(shards)
                    or redirects >= _MAX_REDIRECTS
                ):
                    raise
                redirects += 1
                connection.close()
                connection = MuxConnection(registry.connect(
                    attach.transport, shards[exc.shard]
                ))
        remote = MuxRemoteServer(
            connection, session, config.distill, config.sizes,
            owns_connection=owns,
            teacher_reads_label=admit.teacher_arch != "neural",
        )
        student = StudentNet(width=config.student_width, seed=config.student_seed)
        student.load_state_dict(initial_state)
        return Client(
            student,
            remote,
            config.distill,
            network=config.network,
            sizes=config.sizes,
            stride_policy=stride_policy,
            forced_delay_frames=config.forced_delay_frames,
        )
    except BaseException:
        # A failed handshake must not leak a privately-dialled
        # connection (shared parent connections stay up for their
        # handle's other sessions).
        if owns:
            connection.close()
        raise


# ----------------------------------------------------------------------
# Standalone client processes (the N-process deployment)
# ----------------------------------------------------------------------
#: Longest a client process waits for its siblings to be started: a
#: parent killed before it released them must not leave them waiting.
_START_WAIT_S = 60.0


def _client_process_main(address, config, frame_hw, video_key, num_frames,
                         label, result_conn, delay_s, released) -> None:
    from repro.runtime.session import build_session
    from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

    _die_with_parent()
    # Inherited REPRO_OBS arms this client's telemetry; the artifact
    # it exports on the way out (obs-client-<pid>.json) is what
    # scripts/obs_report.py merges with the server's snapshot.
    obs.arm_from_env(source=f"client-{os.getpid()}")
    try:
        # Every delay counts from the moment the last sibling started,
        # so a herd whose delays span 20 ms dials within 20 ms however
        # long the box takes to start it.
        if not released.wait(_START_WAIT_S):
            raise TimeoutError("client processes were never released")
        if delay_s > 0.0:
            # Churn: this client joins a server that is already serving
            # others — the dial-and-ADMIT handshake happens mid-run.
            time.sleep(delay_s)
        config = dataclasses.replace(config, attach=address)
        client = build_session(config, frame_hw)
        try:
            video = make_category_video(
                CATEGORY_BY_KEY[video_key], height=frame_hw[0], width=frame_hw[1]
            )
            video.reset()
            # The client's one span: its whole session on the shared
            # monotonic axis, so the merged trace shows each client's
            # stream bracketing the server's serve spans.
            with obs.span("client_session", label=label, frames=num_frames):
                stats = client.run(video.frames(num_frames), label=label)
        finally:
            client.server.close()
        result_conn.send(("ok", stats))
    except AdmissionError as exc:
        # A typed refusal is a *clean* outcome (the storm harness
        # counts these); drivers that expected admission raise on it
        # parent-side instead of from a crashed child.
        result_conn.send(("rejected", (exc.reason, exc.retry_after)))
    except BaseException as exc:  # surfaced in the parent, not swallowed
        try:
            result_conn.send(("error", repr(exc)))
        finally:
            raise
    finally:
        obs.export_artifacts()
        result_conn.close()


def run_churn_processes(handle: ServerHandle, jobs, timeout_s: float = 300.0,
                        admit_retries: int = 0, outcomes: bool = False,
                        slot_offset: int = 0):
    """Run one standalone client *process* per job against ``handle``:
    one server process, N client processes.

    ``jobs`` is a list of ``(delay_s, config, frame_hw, video_key,
    num_frames, label)`` tuples, one per connection slot in order: each
    client process sleeps ``delay_s`` — counted from the moment the
    last of them has started — *then* dials the running server and
    admits its session, mid-run when the delay is positive.  Different
    delays and frame counts interleave joins and departures; returns
    the per-job ``RunStats`` list.

    ``admit_retries`` arms every client's bounded seeded retry loop
    (jitter seed = its slot).  ``outcomes=True`` is the storm harness's
    accounting mode: instead of raising on a typed refusal, each job
    yields ``("ok", stats)`` or ``("rejected", (reason, retry_after))``
    — refusals are data, only real failures raise.  ``slot_offset``
    shifts which connection slots the jobs dial, so several waves of
    clients (the storm bench's idle/storm/recovery phases) can share
    one server without claiming the same slot twice.
    """
    import multiprocessing as mp

    released = mp.Event()
    workers = []
    try:
        for slot, (delay_s, config, frame_hw, video_key, num_frames,
                   label) in enumerate(jobs, start=slot_offset):
            parent_conn, child_conn = mp.Pipe(duplex=False)
            proc = mp.Process(
                target=_client_process_main,
                args=(handle.address(slot, admit_retries), config, frame_hw,
                      video_key, num_frames, label, child_conn, delay_s,
                      released),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers.append((proc, parent_conn))
    finally:
        released.set()

    results = []
    deadline = time.monotonic() + timeout_s
    try:
        for slot, (proc, conn) in enumerate(workers, start=slot_offset):
            budget = max(0.0, deadline - time.monotonic())
            if not conn.poll(budget):
                if outcomes:
                    # Storm accounting: a hung client is data, not a
                    # harness crash — the report shows the wedge.
                    results.append(("error", "no result before deadline"))
                    continue
                raise TimeoutError(f"client process {slot} produced no result")
            try:
                status, payload = conn.recv()
            except EOFError:
                # The child closed its end without sending: it died
                # before it could report (killed, or exited hard).
                proc.join(timeout=5.0)
                status, payload = "error", (
                    f"client process {slot} exited {proc.exitcode} "
                    f"without a result"
                )
                if not outcomes:
                    raise RuntimeError(payload) from None
            if outcomes:
                results.append((status, payload))
                continue
            if status != "ok":
                raise RuntimeError(f"client process {slot} failed: {payload}")
            results.append(payload)
    finally:
        for proc, conn in workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            conn.close()
    return results
