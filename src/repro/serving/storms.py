"""Seeded adversarial workload generator — the storm harness.

The overload layer's storm scenarios, made executable: each named
scenario is a *pure function of a seed* — ``storm_plan(name, seed)``
twice gives byte-identical plans (jobs, delays, widths, frame counts,
overload knobs), so every storm run is reproducible and the property
tests can pin the generator down without spawning a single process.

Scenarios
---------
``churn-storm``
    Staggered joins and departures at random offsets — the hostile
    version of the churn e2e test: more clients, tighter arrivals,
    receive budget and reaper armed.
``thundering-herd``
    Everyone dials at once into a small ``max_sessions`` with the
    admission token bucket armed: most of the herd is REJECTed with
    typed ``overloaded``/``capacity`` reasons and ``retry_after``
    hints; the bounded seeded retry loop de-bunches the survivors.
``slow-loris``
    Honest clients share the server with connections that publish a
    *partial* frame and stall forever, plus a ghost that is admitted
    and then vanishes without BYE.  The per-connection receive budget
    and the idle-session reaper must keep the honest majority served.
``scene-cut-burst``
    Fast-changing content with short stride bounds — a key-frame flood
    from *compliant* clients, which no refusal or teardown may touch:
    the budgets alone must let every client finish, and every serve is
    the one an idle server would have computed.

:func:`run_storm` executes a plan against a spawned server and returns
a :class:`StormReport` of typed outcomes; it never raises on refusals
or client failures — a wedged server is a *result* to record, not a
harness crash.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Optional, Tuple

from repro.serving.overload import OverloadConfig

_HW = (32, 48)
STORM_NAMES = (
    "churn-storm", "thundering-herd", "slow-loris", "scene-cut-burst",
)


def _session_config(width: float, min_stride: int = 4, max_stride: int = 16):
    from repro.distill.config import DistillConfig, DistillMode
    from repro.runtime.session import SessionConfig

    return SessionConfig(
        distill=DistillConfig(
            max_updates=4, threshold=0.7,
            min_stride=min_stride, max_stride=max_stride,
            mode=DistillMode.PARTIAL,
        ),
        student_width=width,
        pretrain_steps=10,
    )


@dataclasses.dataclass(frozen=True)
class StormPlan:
    """One storm, fully determined: reproducible from ``(name, seed)``."""

    name: str
    seed: int
    #: Honest churn jobs — ``run_churn_processes`` job tuples, slots
    #: ``0..len(jobs)``.
    jobs: Tuple
    #: Connection slots (after the jobs) running the partial-frame
    #: slow-loris attacker.
    loris_slots: Tuple[int, ...]
    #: Connection slots running the admitted-then-vanishes ghost.
    ghost_slots: Tuple[int, ...]
    max_sessions: Optional[int]
    overload: OverloadConfig
    admit_retries: int
    timeout_s: float

    @property
    def n_clients(self) -> int:
        return len(self.jobs) + len(self.loris_slots) + len(self.ghost_slots)


def _churn_storm(rng: random.Random, seed: int, frames: int) -> StormPlan:
    jobs = tuple(
        (
            round(rng.uniform(0.0, 1.2), 3),
            _session_config(rng.choice((0.25, 0.3))),
            _HW,
            rng.choice(("fixed-people", "moving-animals")),
            max(2, frames + rng.randrange(-2, 3)),
            f"churn-{i}",
        )
        for i in range(8)
    )
    return StormPlan(
        name="churn-storm", seed=seed, jobs=jobs,
        loris_slots=(), ghost_slots=(), max_sessions=None,
        overload=OverloadConfig(
            recv_budget_s=5.0, reap_idle_s=20.0,
        ),
        admit_retries=3, timeout_s=240.0,
    )


def _thundering_herd(rng: random.Random, seed: int, frames: int) -> StormPlan:
    jobs = tuple(
        (
            round(rng.uniform(0.0, 0.02), 3),
            _session_config(0.25),
            _HW,
            "fixed-people",
            max(2, frames + rng.randrange(-1, 2)),
            f"herd-{i}",
        )
        for i in range(14)
    )
    # Rate 0.25: the burst admits 3, the rest are REJECTed `overloaded`
    # at onset and de-bunch through the seeded retry loop.  Rejected
    # ADMITs advance the tick clock themselves, so a drained bucket
    # refills under retry pressure (~4 refusals per token) rather than
    # deadlocking an idle server whose clock otherwise stands still.
    # Fourteen clients in a 20 ms dial window with a 3-retry budget:
    # sized to outnumber capacity x retries even though the shared memo
    # (duplicate key frames labelled and distilled once) cycles herd
    # sessions through the three slots quickly — the herd must still
    # overflow the retry budget for the storm to prove admission
    # control sheds, not merely delays.
    return StormPlan(
        name="thundering-herd", seed=seed, jobs=jobs,
        loris_slots=(), ghost_slots=(), max_sessions=3,
        overload=OverloadConfig(
            admission_rate=0.25, admission_burst=3.0,
            recv_budget_s=5.0, reap_idle_s=20.0,
            capacity_retry_after=32,
        ),
        admit_retries=3, timeout_s=240.0,
    )


def _slow_loris(rng: random.Random, seed: int, frames: int) -> StormPlan:
    jobs = tuple(
        (
            round(rng.uniform(0.0, 0.5), 3),
            _session_config(rng.choice((0.25, 0.3))),
            _HW,
            "fixed-people",
            max(2, frames + rng.randrange(-1, 3)),
            f"honest-{i}",
        )
        for i in range(4)
    )
    # The recv budget bounds how long one hostile connection can stall
    # the sweep (the single-threaded loop eats it once per loris, then
    # tears the link down) — keep it well under a probe run's wall so
    # the throughput floor measures steady state, not the one-off hit.
    n = len(jobs)
    return StormPlan(
        name="slow-loris", seed=seed, jobs=jobs,
        loris_slots=(n, n + 1), ghost_slots=(n + 2,), max_sessions=None,
        overload=OverloadConfig(
            recv_budget_s=0.25, reap_idle_s=1.0,
        ),
        admit_retries=2, timeout_s=240.0,
    )


def _scene_cut_burst(rng: random.Random, seed: int, frames: int) -> StormPlan:
    # Two waves of clients whose content changes every frame and whose
    # stride bounds start at 1 — a compliant key-frame flood.
    jobs = tuple(
        (
            round(wave * 0.8 + rng.uniform(0.0, 0.2), 3),
            _session_config(
                rng.choice((0.25, 0.3)), min_stride=1, max_stride=8
            ),
            _HW,
            "moving-animals",
            max(3, frames + rng.randrange(-2, 3)),
            f"burst-{wave}-{i}",
        )
        for wave in (0, 1)
        for i in range(3)
    )
    return StormPlan(
        name="scene-cut-burst", seed=seed, jobs=jobs,
        loris_slots=(), ghost_slots=(), max_sessions=None,
        overload=OverloadConfig(
            recv_budget_s=5.0, reap_idle_s=20.0,
        ),
        admit_retries=2, timeout_s=240.0,
    )


_BUILDERS = {
    "churn-storm": _churn_storm,
    "thundering-herd": _thundering_herd,
    "slow-loris": _slow_loris,
    "scene-cut-burst": _scene_cut_burst,
}


def storm_plan(name: str, seed: int = 0, frames: int = 6) -> StormPlan:
    """Build the named storm's plan — a pure function of ``(name, seed,
    frames)``; the RNG is local, so plans never depend on call order.
    (String seeds hash deterministically in :class:`random.Random`,
    unlike tuples, whose ``hash()`` is salted per process.)"""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown storm {name!r}; named storms are {sorted(_BUILDERS)}"
        ) from None
    return builder(random.Random(f"{name}:{seed}"), seed, frames)


# ----------------------------------------------------------------------
# Attacker client mains
# ----------------------------------------------------------------------
def _loris_main(address, hold_s: float) -> None:
    """Dial, publish a *partial* frame, and stall — never complete it,
    never BYE, never send the sentinel.  The server's receive budget
    must tear this connection down; nothing here is a protocol error
    the attacker lets the server see in full."""
    from repro.transport import registry, wire

    transport = registry.connect(address.transport, address.info)
    try:
        if hasattr(transport, "_tx"):
            # shm: publish one fragment whose header promises a message
            # three slots long; fragments 2..n never come.
            ring = transport._tx
            lie = ring.slot_nbytes * 3
            header = wire._HEADER.pack(
                wire.MAGIC, wire.VERSION, wire.KIND_FRAME, 0, lie
            )
            ring._payloads[0][: len(header)] = header
            ring._lens[0][...] = ring.slot_nbytes
            ring._seq[0] = 1  # publish the first (and only) fragment
        else:
            # socket: drip half a header and stall mid-frame.
            header = wire._HEADER.pack(
                wire.MAGIC, wire.VERSION, wire.KIND_FRAME, 0, 64
            )
            transport._sock.sendall(header[: wire.HEADER_NBYTES // 2])
        time.sleep(hold_s)
    finally:
        # Vanish abruptly: the endpoint dies with the process, with no
        # goodbye of any kind.
        pass


def _ghost_main(address, frames: int, hold_s: float) -> None:
    """Get admitted, run a couple of frames, then go silent without
    BYE — the never-departing session the idle reaper must end."""
    import dataclasses as _dc

    from repro.runtime.session import SessionConfig, build_session
    from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

    config = _dc.replace(_session_config(0.25), attach=address)
    client = build_session(config, _HW)
    video = make_category_video(
        CATEGORY_BY_KEY["fixed-people"], height=_HW[0], width=_HW[1]
    )
    video.reset()
    client.run(video.frames(frames), label="ghost")
    # No client.server.close(), no connection close: just stop talking.
    time.sleep(hold_s)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclasses.dataclass
class StormReport:
    """What one storm run did — refusals and wedges included."""

    name: str
    seed: int
    transport: str
    ok: int                     #: honest jobs that completed
    rejected: int               #: typed REJECT outcomes
    errors: int                 #: crashed/hung honest jobs
    reject_reasons: Dict[str, int]
    hinted: int                 #: rejections that carried retry_after
    frames_ok: int              #: key frames served to completed jobs
    wall_s: float
    server_exit: Optional[int]
    #: True when the server process died non-zero or any honest job
    #: hung — the failure mode overload control exists to prevent.
    wedged: bool
    #: The server's final accounting (typed ``exit_reason``, metrics
    #: snapshot with the admission/overload counters, teardowns) read
    #: at close — always a dict after a run, never ``None``: a server
    #: killed before it could report yields the typed ``report-lost``
    #: marker instead.
    runtime_report: Optional[Dict] = None


def start_attackers(plan: StormPlan, handle, hold_s: float,
                    slot_base: int = 0) -> List:
    """Start the plan's slow-loris and ghost processes against
    ``handle`` (their slots offset by ``slot_base``); the caller
    terminates and joins them."""
    import multiprocessing as mp

    attackers = [
        mp.Process(
            target=main, daemon=True,
            args=(handle.address(slot_base + slot), *args),
        )
        for main, slots, args in (
            (_loris_main, plan.loris_slots, (hold_s,)),
            (_ghost_main, plan.ghost_slots, (2, hold_s)),
        )
        for slot in slots
    ]
    for proc in attackers:
        proc.start()
    return attackers


def tally_outcomes(outcomes) -> Dict:
    """Count ``run_churn_processes(outcomes=True)`` results: completed
    jobs, typed refusals by reason (and how many carried a
    ``retry_after`` hint), crashed or hung jobs."""
    rejected = [payload for status, payload in outcomes if status == "rejected"]
    reasons: Dict[str, int] = {}
    for reason, _ in rejected:
        reasons[reason] = reasons.get(reason, 0) + 1
    return {
        "ok": sum(1 for status, _ in outcomes if status == "ok"),
        "rejected": len(rejected),
        "errors": sum(1 for status, _ in outcomes if status == "error"),
        "reject_reasons": reasons,
        "hinted": sum(1 for _, retry_after in rejected if retry_after is not None),
    }


def run_storm(
    plan: StormPlan,
    transport: str = "shm",
    idle_timeout_s: float = 60.0,
    loris_hold_s: float = 30.0,
    job_timeout_s: Optional[float] = None,
) -> StormReport:
    """Execute ``plan`` against a freshly spawned server.

    Refusals and client failures are collected, never raised.
    ``job_timeout_s`` overrides the plan's honest-client deadline, so a
    wedge is recorded rather than waited out.
    """
    from repro.serving.runtime import run_churn_processes, start_server

    handle = start_server(
        [], transport=transport, n_clients=plan.n_clients,
        max_sessions=plan.max_sessions,
        overload=plan.overload,
        idle_timeout_s=idle_timeout_s,
    )
    attackers: List = []
    started = time.monotonic()
    outcomes: List[Tuple[str, object]] = []
    try:
        attackers = start_attackers(plan, handle, loris_hold_s)
        try:
            outcomes = run_churn_processes(
                handle, list(plan.jobs),
                timeout_s=plan.timeout_s if job_timeout_s is None
                else job_timeout_s,
                admit_retries=plan.admit_retries, outcomes=True,
            )
        except Exception as exc:  # harness-level failure is still data
            outcomes = [("error", repr(exc))]
        wall_s = time.monotonic() - started
    finally:
        for proc in attackers:
            proc.terminate()
            proc.join(timeout=5.0)
        handle.close()

    tally = tally_outcomes(outcomes)
    return StormReport(
        name=plan.name,
        seed=plan.seed,
        transport=transport,
        **tally,
        frames_ok=sum(
            payload.num_key_frames for status, payload in outcomes
            if status == "ok"
        ),
        wall_s=wall_s,
        server_exit=handle.process.exitcode,
        wedged=handle.process.exitcode != 0 or tally["errors"] > 0,
        runtime_report=handle.runtime_report,
    )
