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
  tolerates churn: the runtime exits once no session remains open and
  the listener's whole provisioned connection population has come and
  gone — not when some fixed session roster is done.
* the client side — :class:`MuxConnection` demultiplexes tagged
  replies into per-session queues; :class:`MuxRemoteServer` gives
  :class:`~repro.runtime.client.Client` the three calls it makes on
  its server (``handle_key_frame`` / ``service_time`` /
  ``reply_bytes``) over the tagged wire protocol, so a session served
  by the runtime produces *identical* ``RunStats`` to the in-process
  run — the property the e2e tests and the tier-1 smoke script pin
  down.
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

from repro import obs
from repro.distill.config import DistillMode
from repro.network.messages import MessageSizes
from repro.obs.metrics import MetricsRegistry
from repro.runtime.server import ServerReply
from repro.transport import wire

#: The :class:`~repro.serving.shared.SharedDistillation` counters the
#: runtime report carries (and, armed, mirrors as ``serve.memo.*``).
_MEMO_COUNTERS = ("hits", "misses", "label_hits", "label_misses")


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
        if getattr(self.config, "attach", None) is not None:
            self.config = dataclasses.replace(self.config, attach=None)

    @classmethod
    def from_admit(cls, admit: wire.Admit) -> "SessionBlueprint":
        """Rebuild a blueprint from a wire ADMIT frame.

        Semantic validation happens here (the wire layer only checks
        the frame is structurally well-formed): a nonsensical geometry
        or stride policy raises ``ValueError``, which the runtime turns
        into a REJECT with the ``malformed-blueprint`` reason instead
        of crashing the server every other client depends on.
        """
        from repro.distill.config import DistillConfig, DistillMode
        from repro.runtime.session import SessionConfig

        if admit.student_width <= 0:
            raise ValueError(f"student width {admit.student_width} must be > 0")
        if admit.student_seed < 0:
            raise ValueError(f"student seed {admit.student_seed} must be >= 0")
        if admit.pretrain_steps < 0:
            raise ValueError("pretrain_steps must be >= 0")
        if admit.frame_h < 1 or admit.frame_w < 1:
            raise ValueError(
                f"frame geometry {admit.frame_h}x{admit.frame_w} must be "
                "at least 1x1"
            )
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
            reset_optimizer_state=admit.reset_optimizer_state,
        )
        config = SessionConfig(
            distill=distill,
            student_width=admit.student_width,
            student_seed=admit.student_seed,
            pretrain_steps=admit.pretrain_steps,
            teacher_boundary_noise=admit.teacher_boundary_noise,
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
        reset_optimizer_state=distill.reset_optimizer_state,
        teacher_boundary_noise=config.teacher_boundary_noise,
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

    def __init__(self, reject: wire.Reject, context: str = "admission") -> None:
        detail = f": {reject.detail}" if reject.detail else ""
        after = (
            f", retry after {reject.retry_after} ms"
            if reject.retry_after is not None else ""
        )
        target = (
            f" -> shard {reject.shard}" if reject.shard is not None else ""
        )
        super().__init__(
            f"server refused {context} ({reject.reason}{detail}{after}{target})"
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

    def __init__(self, server, connection) -> None:
        self.server = server
        self.connection = connection
        self.frames_served = 0
        #: Wall-clock time of the last message for this session — what
        #: the idle-session reaper compares against its deadline.
        self.last_active = time.monotonic()


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
        An :class:`~repro.serving.overload.OverloadConfig` enabling the
        graduated overload-control layer (token-bucket admission with
        ``retry_after`` hints, load-adaptive strides, per-connection
        receive budgets, idle-session reaping).  ``None`` — the default
        — means no tracker, no budget, no reaper: bit-identical
        RunStats.
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
        #: levels).
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
        #: (served key frames per session id) — populated by :meth:`run`.
        self.frames_served: Dict[int, int] = {}
        from repro.serving.overload import OverloadController

        self._overload = (
            OverloadController(overload, metrics=self.metrics)
            if overload is not None else None
        )
        #: Typed teardown records: session id → reason for sessions the
        #: runtime ended unilaterally ("idle-reaped", "recv-budget",
        #: "connection-error"); clean BYEs never appear here.
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
        """One teacher per *spec* for the whole runtime where that is
        provably identical to per-session teachers: the zero-noise
        oracle is stateless, and a neural teacher is deterministic from
        ``(width, seed)`` and never trained at serve time — so every
        session describing the same spec shares one instance (which is
        also what lets the shared memo label a key frame once for every
        session that submits it).  Noisy oracles hold RNG state and stay
        per-session, matching the independent teachers of an
        in-process pool.
        """
        from repro.runtime.session import build_teacher

        arch = config.teacher_arch
        if arch == "oracle" and config.teacher_boundary_noise != 0.0:
            return build_teacher(config)
        key = (arch, config.teacher_width, config.teacher_seed)
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

    #: ``retry_after`` (in ticks, pre-conversion) stamped on capacity
    #: REJECTs when no overload controller is configured: the
    #: bucket-free server still gives refused clients a typed hint
    #: instead of silence.
    _DEFAULT_CAPACITY_HINT = 64

    def _hint_ms(self, ticks: int) -> int:
        """Convert a tick-denominated hint to the wire's milliseconds.

        Hints are *produced* on the virtual tick clock (deterministic
        admission control) but *consumed* as wall-clock backoff by the
        client retry loop, so the boundary owns the unit conversion:
        the controller's measured seconds-per-tick EWMA when one is
        configured, the nominal fallback otherwise.
        """
        if self._overload is not None:
            return self._overload.ticks_to_ms(ticks)
        from repro.serving.overload import OverloadController

        return max(1, round(ticks * OverloadController.FALLBACK_TICK_S * 1000))

    def _capacity_hint(self) -> int:
        if self._overload is not None:
            return self._hint_ms(self._overload.capacity_hint())
        return self._hint_ms(self._DEFAULT_CAPACITY_HINT)

    def _start_session(self, connection, blueprint: SessionBlueprint) -> int:
        """Build the server half of one session, assign it the next id
        and complete its handshake: ACCEPT tagged with the id, then the
        initial STATE.  A blueprint that breaks model construction
        raises ``ValueError`` before an id is spent."""
        from repro.runtime.server import Server
        from repro.runtime.session import pretrained_student

        config = blueprint.config
        student = pretrained_student(
            config.student_width, config.student_seed,
            config.pretrain_steps, blueprint.frame_hw,
        )
        server = Server(
            student, self._teacher_for(config), config.distill, config.sizes,
            work_cache=self._work_cache,
        )
        session_id = self._next_session
        self._next_session += 1
        self._sessions[session_id] = _LiveSession(server, connection)
        connection.send_tagged(session_id, wire.Accept(session_id))
        connection.send_tagged(session_id, dict(server.student.state_dict()))
        self._note_admission()
        return session_id

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
        if self._overload is not None:
            hint = self._overload.admit()
            if hint is not None:
                self._refuse(
                    connection, wire.REJECT_OVERLOADED,
                    "admission token bucket is empty",
                    retry_after=self._hint_ms(hint),
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
            session_id = self._start_session(
                connection, SessionBlueprint.from_admit(admit)
            )
        except ValueError as exc:
            # Semantic validation, or a blueprint that passed it and
            # still broke model construction (e.g. a width too small
            # to yield any channels).  A wire-supplied blueprint must
            # never crash the server other clients depend on.
            self._refuse(connection, wire.REJECT_MALFORMED, str(exc),
                         fleet_key)
            return
        if fleet_key is not None:
            self._fleet_keys[session_id] = fleet_key
            self.metrics.counter("fleet.placed").inc()

    def _end_session(self, session_id: int) -> None:
        live = self._sessions.pop(session_id, None)
        if live is not None:
            self.frames_served[session_id] = live.frames_served
        fleet_key = self._fleet_keys.pop(session_id, None)
        if fleet_key is not None and self._fleet is not None:
            self._fleet.release(fleet_key)

    def _handle(self, connection, session_id: int, msg) -> None:
        if isinstance(msg, wire.Admit):
            self._admit_session(connection, msg)
        elif isinstance(msg, wire.Bye):
            self._end_session(session_id)
        elif isinstance(msg, tuple):
            live = self._require_session(session_id)
            frame, label = msg
            live.last_active = time.monotonic()
            self._serve_key_frame(connection, session_id, live, frame, label)
        else:
            raise RuntimeError(
                f"multiplexed server cannot handle {type(msg).__name__}"
            )
        if self._overload is not None:
            self._overload.served()

    def _require_session(self, session_id: int) -> "_LiveSession":
        live = self._sessions.get(session_id)
        if live is None:
            raise RuntimeError(
                f"key frame for session {session_id}, which is not open"
            )
        return live

    def _serve_key_frame(self, connection, session_id: int, live, frame,
                         label) -> None:
        """One key-frame serve, inline: teacher inference, distillation
        (degraded under load), reply."""
        ctl = self._overload
        armed = obs.enabled()
        t0 = time.monotonic() if armed else 0.0
        budget = (
            None if ctl is None
            else ctl.degraded_budget(live.server.config.max_updates)
        )
        with obs.span("serve", session=session_id):
            if budget is None:
                # The pristine path — bit-identical to an in-process
                # run, taken always when overload control is off and
                # whenever the load level is 0 with it on.
                reply, _ = live.server.handle_key_frame(frame, label)
            else:
                # Degraded serve: fewer distillation steps, and the
                # reported metric floored so the client's Algorithm-2
                # stride policy stretches its stride — load shed at the
                # source, recovering when the tracker's level drops.
                reply, _ = live.server.handle_key_frame(
                    frame, label, max_updates=budget
                )
                reply = dataclasses.replace(
                    reply,
                    metric=ctl.degraded_metric(
                        reply.metric, live.server.config.threshold
                    ),
                )
            connection.send_tagged(session_id, reply)
        live.frames_served += 1
        self._c_key_frames.inc()
        if armed:
            # Per-session timeline — the metric each serve reported and
            # the degradation it ran under — is the record ROADMAP
            # item 5 (quality-aware shedding) needs to exist.
            obs.histogram("serve.serve_s").observe(time.monotonic() - t0)
            obs.series("session.serve").append([
                session_id, float(reply.metric),
                0 if ctl is None else ctl.level,
                -1 if budget is None else budget,
            ])

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
        left, is unreachable (dead) or misbehaving (slow-loris), and a
        farewell write could block on its unserviced ring.
        """
        for sid, live in list(self._sessions.items()):
            if live.connection is connection:
                self._end_session(sid)
                if reason is not None:
                    self.teardowns[sid] = reason
        closed.add(index)
        if reason is not None:
            self.connection_teardowns[index] = reason
        close = getattr(connection, "close", None)
        if close is not None:
            try:
                close()
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
                  expected: Optional[int],
                  draining: Optional[bool] = None) -> bool:
        """The churn-tolerant drain rule: the runtime may exit only once

        * no session remains open,
        * at least one connection was ever accepted, every accepted
          connection has closed, **and** the listener's provisioned
          population (``listener.expected``) has fully come and gone.

        A quiet moment between a departure and a late joiner is *not*
        quiescence: the joiner's connection has not yet closed (shm
        rings exist from spawn and close only when their client does;
        a TCP population is drained only at ``expected`` accepts), so
        churn gaps of any length are tolerated.  A population that
        never materialises is caught by the idle timeout instead.
        """
        if draining is not None:
            # Fleet shard: the listener is drain-capable, so the front
            # door — not the population count — decides when the run is
            # over.  Until the drain order arrives the shard must stay
            # up through any quiet gap (a redirected client that came
            # and went is not a population); once draining, a shard
            # with zero connections may exit the moment nothing is
            # open here.
            return draining and (
                not self._sessions
                and len(closed) == len(connections)
            )
        return (
            not self._sessions
            and bool(connections)
            and len(closed) == len(connections)
            and (expected is None or len(connections) >= expected)
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
        """
        connections: List[Any] = []
        closed: set = set()
        expected = getattr(listener, "expected", None)
        idle_deadline = time.monotonic() + self.idle_timeout_s
        ctl = self._overload
        recv_budget_s = None if ctl is None else ctl.config.recv_budget_s
        reap_idle_s = None if ctl is None else ctl.config.reap_idle_s
        #: Connection index → last wall-clock activity (reaper input).
        conn_active: Dict[int, float] = {}
        next_reap = (
            time.monotonic() + reap_idle_s if reap_idle_s is not None else None
        )
        #: Armed once at loop entry: arming mid-run is not supported,
        #: and a per-sweep module-global check would be the only
        #: disarmed cost of the whole sweep instrumentation.
        armed = obs.enabled()
        while not self._quiesced(connections, closed, expected,
                                 getattr(listener, "draining", None)):
            sweep_t0 = time.monotonic() if armed else 0.0
            progressed = False
            served_this_sweep = 0
            accepted = listener.poll_accept()
            if accepted is not None:
                if recv_budget_s is not None and hasattr(accepted, "timeout_s"):
                    # The fairness budget: one misbehaving peer may
                    # stall the sweep for at most this long, transport
                    # blocking included.
                    accepted.timeout_s = recv_budget_s
                connections.append(accepted)
                progressed = True
            for index, connection in enumerate(connections):
                if index in closed or not connection.poll():
                    continue
                try:
                    session_id, msg = connection.recv_tagged()
                except wire.MalformedBlueprint as exc:
                    # Well-framed, so the link is intact: refused below.
                    session_id, msg = 0, exc
                except (ConnectionError, EOFError):
                    # A vanished peer closes its connection; other corrupt
                    # frames (WireError) propagate instead — the server
                    # must die loudly on corruption, not report the
                    # link's sessions as cleanly completed.
                    self._teardown_connection(index, connection, closed,
                                              "connection-error")
                    progressed = True
                    continue
                except TimeoutError:
                    if recv_budget_s is None:
                        raise  # legacy behaviour: transport timeout is fatal
                    # Slow-loris: poll() saw bytes but a whole frame
                    # never arrived inside the budget.  The link is
                    # unframeable from here on — typed teardown.
                    self._teardown_connection(index, connection, closed,
                                              "recv-budget")
                    progressed = True
                    continue
                if msg is None:
                    # Connection sentinel: the clean close (an abnormal
                    # death that still managed EOF lands here too).
                    self._teardown_connection(index, connection, closed)
                    progressed = True
                    continue
                conn_active[index] = time.monotonic()
                try:
                    if isinstance(msg, wire.MalformedBlueprint):
                        self._refuse(connection, wire.REJECT_MALFORMED,
                                     str(msg))
                    else:
                        self._handle(connection, session_id, msg)
                except TimeoutError:
                    if recv_budget_s is None:
                        raise
                    # The reply write blocked past the budget: the peer
                    # stopped draining its ring — same teardown.
                    self._teardown_connection(index, connection, closed,
                                              "send-budget")
                served_this_sweep += 1
                progressed = True
            if ctl is not None:
                ctl.observe_sweep(served_this_sweep)
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
                    + (f" (listener expects {expected})" if expected else "")
                )
            if ctl is not None:
                ctl.tracker.reset()
            self._park(
                connections, closed, listener,
                idle_deadline if next_reap is None
                else min(idle_deadline, next_reap),
            )
        return dict(self.frames_served)


def _runtime_entry(listener, idle_timeout_s, max_sessions, overload=None,
                   report_conn=None, obs_config=None, fleet=None,
                   teachers=None, obs_source="server") -> None:
    """Server-process entry point for :func:`start_server`.

    ``report_conn`` (a pipe back to the spawning process) receives one
    final report — frames served, serve/memo counters, typed
    teardowns, a typed ``exit_reason``, and the runtime's metrics
    snapshot (plus Chrome trace events when tracing is armed) — so
    benches and tests can read the runtime's accounting without sharing
    memory with it.  The report is sent on *every* exit path: a
    construction error, a crash mid-run, or the idle timeout reaches
    the owner as ``exit_reason = "error:<type>"`` / ``"idle-timeout"``
    instead of a silently absent report.

    ``obs_config`` (an :class:`~repro.obs.ObsConfig`) arms telemetry in
    this process explicitly; ``None`` defers to the inherited
    ``REPRO_OBS`` environment, so one env var arms a whole process tree.
    """
    obs.arm_from_config(obs_config, source=obs_source)
    runtime = None
    exit_reason = "quiesced"
    try:
        runtime = ServerRuntime(
            idle_timeout_s=idle_timeout_s, max_sessions=max_sessions,
            overload=overload, fleet=fleet, teachers=teachers,
        )
        runtime.run(listener)
    except TimeoutError:
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
        if report_conn is not None:
            try:
                report = {
                    "exit_reason": exit_reason,
                    "frames_served": (
                        dict(runtime.frames_served)
                        if runtime is not None else {}
                    ),
                    "serve_counters": counters,
                    "teardowns": (
                        dict(runtime.teardowns)
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
        for required in ("send_tagged", "recv_tagged"):
            if not hasattr(endpoint, required):
                raise TypeError(
                    f"{type(endpoint).__name__} cannot multiplex sessions "
                    "(needs the tagged wire surface, e.g. shm or socket)"
                )
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

    The three calls :class:`~repro.runtime.client.Client` makes on its
    server — ``handle_key_frame`` / ``service_time`` / ``reply_bytes``
    — with the key frame crossing the link as a tagged wire frame.
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

        Returns ``(reply, reply)``: the second slot is what
        :meth:`service_time` reads ``steps`` from, and the reply
        carries it.
        """
        self.connection.send_tagged(self.session, (frame, label))
        reply = self.connection.recv_for(self.session)
        if not isinstance(reply, ServerReply):
            raise RuntimeError(
                f"server sent {type(reply).__name__}, expected ServerReply"
            )
        return reply, reply

    def service_time(self, result, latency) -> float:
        """Same simulated pipeline cost as the in-process server."""
        return latency.t_ti + result.steps * latency.t_sd(self.is_partial)

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
    (jittered by ``retry_seed``) between attempts — no hot spinning, no
    unbounded waits.  Structural refusals raise immediately regardless.
    """

    transport: str
    info: Any
    admit_retries: int = 0
    retry_seed: int = 0


@dataclasses.dataclass(frozen=True)
class SessionTicket:
    """In-process attachment point: sessions with tickets from one
    handle share that handle's single parent-side connection — how a
    :class:`~repro.serving.pool.SessionPool` runs all its sessions over
    one link to one server process.  ``admit`` is the ADMIT frame to
    send: a blueprint the handle was started with
    (:meth:`ServerHandle.ticket` with an index), or ``None`` to admit
    the attaching client's own configuration.
    ``admit_retries``/``retry_seed`` bound the same seeded retry loop
    :class:`SessionAddress` documents."""

    handle: "ServerHandle"
    admit: Optional[wire.Admit] = None
    admit_retries: int = 0
    retry_seed: int = 0


#: ``exit_reason`` of the typed marker report a handle's ``close``
#: synthesises when a server process never delivered its own report
#: (killed before the runtime's finally, or the poll deadline passed).
REPORT_LOST = "report-lost"

#: How long ``close`` waits on a report pipe.  The process has already
#: been joined by then, so this is a drain allowance for a large
#: (trace-bearing) report still in the pipe buffer, not a wait on the
#: runtime.
REPORT_TIMEOUT_S = 5.0


def collect_report(conn, timeout_s: float = REPORT_TIMEOUT_S) -> Dict[str, Any]:
    """Drain one joined server process's report pipe and close it.

    A report that never arrives is surfaced as the typed
    :data:`REPORT_LOST` marker dict — callers branch on
    ``report["exit_reason"]`` instead of guessing what a ``None`` meant.
    """
    try:
        if conn.poll(timeout_s):
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
        "metrics": None,
    }


class ServerHandle:
    """Owner's view of a spawned :class:`ServerRuntime` process."""

    def __init__(self, transport: str, link, process,
                 blueprints: List[SessionBlueprint] = (),
                 report_conn=None) -> None:
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
    def ticket(self, session: Optional[int] = None, admit_retries: int = 0,
               retry_seed: int = 0) -> SessionTicket:
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
        return SessionTicket(self, admit, admit_retries, retry_seed)

    def address(self, slot: int, admit_retries: int = 0,
                retry_seed: Optional[int] = None) -> SessionAddress:
        """Picklable attachment point for a standalone client process:
        the client dials connection ``slot`` and admits its own
        configuration, so it can join a server that is already
        mid-run.  ``admit_retries`` opts the client into the bounded
        retry loop on retryable refusals; the jitter seed defaults to
        the slot, so every client in a herd backs off on its own
        deterministic schedule.
        """
        info = self.link.address(slot)
        seed = slot if retry_seed is None else retry_seed
        return SessionAddress(self.transport, info, admit_retries, seed)

    def parent_connection(self) -> MuxConnection:
        """The single in-process connection every ticket shares (claims
        client slot 0 on first use)."""
        if self._parent_connection is None:
            self._parent_connection = MuxConnection(self.link.connect(0))
        return self._parent_connection

    # ------------------------------------------------------------------
    def close(self, join_timeout_s: float = 30.0,
              report_timeout_s: float = REPORT_TIMEOUT_S) -> None:
        """Close the parent connection, join the server, release the
        transport.  Idempotent.

        A server whose sessions never all ended (a client process
        crashed before its BYE) will not exit on its own until its
        idle timeout; rather than block this caller and then unlink
        shared segments under a still-running process, the join is
        bounded and a straggler is terminated before the transport is
        released.

        ``report_timeout_s`` bounds the report-pipe drain
        (:func:`collect_report`); a report that never arrives becomes
        the typed :data:`REPORT_LOST` marker dict.
        """
        if self._closed:
            return
        self._closed = True
        if self._parent_connection is not None:
            self._parent_connection.close()
        if self.process is not None:
            self.process.join(timeout=join_timeout_s)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5.0)
        if self._report_conn is not None:
            self.runtime_report = collect_report(
                self._report_conn, report_timeout_s
            )
            self._report_conn = None
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
    obs_config=None,
    **options,
) -> ServerHandle:
    """Spawn one multiplexing server process.

    ``n_clients`` is the number of *connections* (client processes, or
    1 for a pool running every session over the parent's connection);
    sessions are a separate dimension — any connection can ADMIT any
    number of them.  ``blueprints`` never leaves this process: it is
    what ``handle.ticket(i)`` names by index (may be empty — clients
    then admit their own configurations).  ``max_sessions`` caps the
    concurrently open sessions (REJECT past it).  ``options`` pass
    through to the transport's ``serve_many`` (ring geometry,
    timeouts).

    The returned handle's :attr:`~ServerHandle.runtime_report` (read at
    :meth:`~ServerHandle.close`) carries the runtime's final accounting
    — frames served, serve/memo counters, typed teardowns, a
    typed exit reason, and the runtime's metrics snapshot.
    ``obs_config`` arms telemetry in the server process explicitly
    (``None`` defers to the inherited ``REPRO_OBS`` environment).
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
        obs_config=obs_config,
    )
    try:
        link, process = registry.serve_many(
            transport, target, n_clients, **options
        )
    except BaseException:
        report_recv.close()
        report_send.close()
        raise
    report_send.close()
    return ServerHandle(
        transport, link, process, blueprints, report_conn=report_recv,
    )


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


def _admit_with_retry(connection, admit, attach):
    """ADMIT with the bounded, seeded retry loop of the attach points.

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

    rng = random.Random(attach.retry_seed)
    attempt = 0
    while True:
        try:
            return connection.admit_session(admit)
        except AdmissionError as exc:
            if attempt >= attach.admit_retries or not exc.retryable:
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
    elif isinstance(attach, SessionAddress):
        connection = MuxConnection(registry.connect(attach.transport, attach.info))
        admit = admit_message(config, frame_hw)
        owns = True
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
                    connection, admit, attach
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
            latency=config.latency,
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
def _client_process_main(address, config, frame_hw, video_key, num_frames,
                         label, result_conn, delay_s: float = 0.0) -> None:
    import dataclasses as _dc

    from repro.runtime.session import build_session
    from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

    from repro.serving.runtime import AdmissionError

    # Inherited REPRO_OBS arms this client's telemetry; the artifact
    # it exports on the way out (obs-client-<pid>.json) is what
    # scripts/obs_report.py merges with the server's snapshot.
    obs.arm_from_env(source=f"client-{os.getpid()}")
    try:
        if delay_s > 0.0:
            # Churn: this client joins a server that is already serving
            # others — the dial-and-ADMIT handshake happens mid-run.
            time.sleep(delay_s)
        config = _dc.replace(config, attach=address)
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


def run_client_processes(handle: ServerHandle, jobs, timeout_s: float = 300.0):
    """Run one standalone client *process* per job against ``handle``.

    ``jobs`` is a list of ``(config, frame_hw, video_key, num_frames,
    label)`` tuples, one per connection slot in order; every client
    starts at once.  Returns the per-job ``RunStats`` list.  This is
    the deployment the ISSUE's acceptance names: one server process, N
    client processes.
    """
    return _run_processes(handle, [(0.0, *job) for job in jobs], timeout_s)


def run_churn_processes(handle: ServerHandle, jobs, timeout_s: float = 300.0,
                        admit_retries: int = 0, outcomes: bool = False,
                        slot_offset: int = 0):
    """Run staggered client processes.

    ``jobs`` is a list of ``(delay_s, config, frame_hw, video_key,
    num_frames, label)`` tuples, one per connection slot in order: each
    client process sleeps ``delay_s``, *then* dials the running server
    and admits its session mid-run.  Different delays and frame counts
    interleave joins and departures; returns the per-job ``RunStats``
    list.

    ``admit_retries`` arms every client's bounded seeded retry loop
    (jitter seed = its slot).  ``outcomes=True`` is the storm harness's
    accounting mode: instead of raising on a typed refusal, each job
    yields ``("ok", stats)`` or ``("rejected", (reason, retry_after))``
    — refusals are data, only real failures raise.  ``slot_offset``
    shifts which connection slots the jobs dial, so several waves of
    clients (the storm bench's idle/storm/recovery phases) can share
    one server without claiming the same slot twice.
    """
    return _run_processes(handle, jobs, timeout_s, admit_retries, outcomes,
                          slot_offset)


def _run_processes(handle: ServerHandle, jobs, timeout_s: float,
                   admit_retries: int = 0, outcomes: bool = False,
                   slot_offset: int = 0):
    import multiprocessing as mp

    workers = []
    for slot, (delay_s, config, frame_hw, video_key, num_frames,
               label) in enumerate(jobs, start=slot_offset):
        parent_conn, child_conn = mp.Pipe(duplex=False)
        proc = mp.Process(
            target=_client_process_main,
            args=(handle.address(slot, admit_retries), config, frame_hw,
                  video_key, num_frames, label, child_conn, delay_s),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        workers.append((proc, parent_conn))

    results = []
    deadline = time.monotonic() + timeout_s
    try:
        for session, (proc, conn) in enumerate(workers):
            budget = max(0.0, deadline - time.monotonic())
            if not conn.poll(budget):
                if outcomes:
                    # Storm accounting: a hung client is data, not a
                    # harness crash — the report shows the wedge.
                    results.append(("error", "no result before deadline"))
                    continue
                raise TimeoutError(f"client process {session} produced no result")
            status, payload = conn.recv()
            if outcomes:
                results.append((status, payload))
                continue
            if status != "ok":
                raise RuntimeError(f"client process {session} failed: {payload}")
            results.append(payload)
    finally:
        for proc, conn in workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            conn.close()
    return results
