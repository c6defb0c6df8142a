"""Multi-session serving runtime: many ShadowTutor clients, one process.

The paper's system serves one client; the reproduction's north star is
"millions of users".  This package is the serving layer between them: a
:class:`~repro.serving.pool.SessionPool` owns N concurrent client
sessions — each with its own student state, stride policy and key-frame
schedule — and a cooperative, event-driven scheduler (in the style of
real-time multimedia interpreters: no threads, a shared virtual tick
clock, sessions advance frame by frame) interleaves them.

Work is amortised across sessions wherever it is *provably* identical:

* :class:`~repro.serving.batched.BatchedPredictor` gathers every
  session due for a predict on the current tick (key frames too: their
  update is still in flight), groups
  them by weight version and frame geometry, and predicts each group's
  bitwise-duplicate frames once.  Distinct frames and sessions whose
  students have diverged run their own per-session predict.
* :class:`~repro.serving.shared.SharedDistillation` memoises
  server-side key-frame work — the neural teacher's pseudo-label and
  the distillation that follows — across sessions that submit bitwise
  identical work (the broadcast scenario: many viewers of one stream).

Identity is tracked with content-digest chains
(:func:`repro.nn.serialize.state_dict_digest`), so "same weights" is a
proof, not a heuristic.  The property-test harness in
``tests/test_serving_pool.py`` pins the whole layer to the semantics
the paper's tables depend on: a pooled run of N sessions produces
bit-identical ``RunStats`` to N independent single-session runs.

``run_shadowtutor`` is the N = 1 case of this pool.

:mod:`repro.serving.runtime` carries the pool's economics across
process boundaries: an event-driven :class:`~repro.serving.runtime.
ServerRuntime` multiplexes N client connections (shm rings or TCP
sockets) through one server process — one teacher, per-session
server-side students, shared distillation, every key frame served in
the sweep that received it — with per-session
``RunStats`` bit-identical to the in-process pool.  There is one way
to open a session: a client ships its blueprint to the running server
in an ADMIT frame and is ACCEPTed (with a server-assigned id and the
initial weights) or REJECTed with a typed reason (see
``docs/PROTOCOL.md``), bounded by a capacity policy and drained by a
churn-tolerant exit rule.

:mod:`repro.serving.overload` hardens that front door for untrusted
traffic: a deterministic token-bucket admission limiter over the
runtime's tick clock (REJECTs carry typed ``retry_after``
hints), a per-sweep load tracker whose graduated levels cap
distillation budgets and stretch client strides under pressure, a
per-connection receive budget against slow-loris peers, and an
idle-session reaper — all off by default, bit-identical when disabled.
:mod:`repro.serving.storms` is the seeded adversarial harness that
proves it: named storm scenarios, each a pure function of a seed.

:mod:`repro.serving.fleet` scales the runtime out: ``start_fleet``
puts K whole runtimes behind one front door (every shard binds the
same TCP port with ``SO_REUSEPORT``) with admission-time placement — least-loaded plus blueprint affinity,
recorded in a shared-memory claim ledger so placement is a pure
function of admission order — ``redirect`` REJECTs naming the
owning shard (the only hand-off), and one read-only digest-checked teacher weight segment
shared by every shard.  The fleet battery in
``tests/test_serving_fleet.py`` pins the same invariant as the pool's:
sharding moves sessions between processes, never changes what any of
them computes.
"""

from repro.serving.batched import BatchedPredictor
from repro.serving.fleet import (
    FleetAddress,
    FleetHandle,
    FleetLedger,
    FleetMember,
    PlacementPolicy,
    SharedTeacherSegment,
    placement_key,
    start_fleet,
)
from repro.serving.overload import (
    LoadTracker,
    OverloadConfig,
    OverloadController,
    TokenBucket,
)
from repro.serving.pool import PoolResult, SessionPool, SessionSpec
from repro.serving.runtime import (
    AdmissionError,
    ServerHandle,
    ServerRuntime,
    SessionAddress,
    SessionBlueprint,
    SessionTicket,
    admit_message,
    run_client_processes,
    run_churn_processes,
    start_server,
)
from repro.serving.scheduler import TickScheduler
from repro.serving.shared import SharedDistillation
from repro.serving.storms import STORM_NAMES, StormPlan, StormReport, run_storm, storm_plan

__all__ = [
    "AdmissionError",
    "BatchedPredictor",
    "FleetAddress",
    "FleetHandle",
    "FleetLedger",
    "FleetMember",
    "PlacementPolicy",
    "SharedTeacherSegment",
    "placement_key",
    "start_fleet",
    "LoadTracker",
    "OverloadConfig",
    "OverloadController",
    "PoolResult",
    "STORM_NAMES",
    "ServerHandle",
    "ServerRuntime",
    "SessionAddress",
    "SessionBlueprint",
    "SessionPool",
    "SessionSpec",
    "SessionTicket",
    "SharedDistillation",
    "StormPlan",
    "StormReport",
    "TickScheduler",
    "TokenBucket",
    "admit_message",
    "run_client_processes",
    "run_churn_processes",
    "run_storm",
    "start_server",
]
