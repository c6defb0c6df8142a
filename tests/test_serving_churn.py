"""End-to-end churn tests for session admission (ISSUE 5).

The acceptance property: a session admitted into a *running*
``ServerRuntime`` mid-run — over both shm and socket — yields
``RunStats`` bit-identical to the same blueprint run in-process, with
joins and departures interleaved.  Also covers admission over a shared
parent connection (pool of admitted sessions on one link), the two
kinds of ticket, server-assigned session ids, and the
capacity policy's free-a-slot-and-retry behaviour.  ISSUE 6 adds the
typed refusal metadata (``AdmissionError.retryable`` / ``retry_after``)
and the bounded seeded retry loop behind ``admit_retries``.
"""

import dataclasses

import pytest

from repro.distill.config import DistillConfig, DistillMode
from repro.runtime.session import SessionConfig, build_session, run_shadowtutor
from repro.serving.pool import SessionPool, SessionSpec
from repro.serving.runtime import (
    AdmissionError,
    SessionBlueprint,
    run_churn_processes,
    start_server,
)
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

_HW = (32, 48)


def _config(mode=DistillMode.PARTIAL, width=0.25, **kw):
    return SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.7,
                              min_stride=4, max_stride=16, mode=mode),
        student_width=width,
        pretrain_steps=10,
        **kw,
    )


def _video(key="fixed-people"):
    return make_category_video(CATEGORY_BY_KEY[key], height=_HW[0], width=_HW[1])


def _reference(config, frames, key="fixed-people"):
    return run_shadowtutor(_video(key), frames, config, label="ref")


class TestChurnProcesses:
    """The acceptance bar: joins and departures interleaved, every
    admitted session bit-identical to its in-process twin."""

    @pytest.mark.parametrize("transport", ["shm", "socket"])
    def test_mid_run_admission_bit_identical_with_churn(self, transport):
        # Two distinct blueprints prove the wire carries real geometry,
        # not just an id: width 0.25 and 0.3 sessions must each match
        # their own in-process reference.
        config_a, config_b = _config(width=0.25), _config(width=0.3)
        # Client 1 departs (6 frames) while clients 2 and 3 are still
        # joining/running; the server starts with ZERO blueprints.
        jobs = [
            (0.0, config_a, _HW, "fixed-people", 10, "a"),
            (0.3, config_b, _HW, "fixed-people", 6, "b"),
            (0.7, config_a, _HW, "fixed-people", 10, "c"),
            (1.1, config_b, _HW, "fixed-people", 8, "d"),
        ]
        handle = start_server(
            [], transport=transport, n_clients=len(jobs), idle_timeout_s=60
        )
        try:
            stats = run_churn_processes(handle, jobs, timeout_s=180)
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        for (got, (_, config, _, key, frames, _)) in zip(stats, jobs):
            ref = _reference(config, frames, key)
            assert got.signature(include_label=False) == ref.signature(
                include_label=False
            )


class TestChurnTimesSharing:
    """The digest memo under churn.

    Mid-run admission lands sessions next to twins already sharing
    work, early departure ends a session others were sharing with, and
    a weight-diverged session (different student seed) shares nothing —
    all bit-identical to in-process references.
    """

    @pytest.mark.parametrize("transport", ["shm", "socket"])
    def test_churned_population_bit_identical(self, transport):
        diverged = _config(width=0.25, student_seed=5)
        jobs = [
            # Two broadcast twins that can actually share work...
            (0.0, _config(), _HW, "fixed-people", 10, "a"),
            (0.0, _config(), _HW, "fixed-people", 10, "b"),
            # ...a weight-diverged session (nothing provable to share)...
            (0.2, diverged, _HW, "fixed-people", 8, "c"),
            # ...a late joiner that departs early.
            (0.6, _config(width=0.3), _HW, "fixed-people", 5, "d"),
        ]
        handle = start_server(
            [], transport=transport, n_clients=len(jobs), idle_timeout_s=60,
        )
        try:
            stats = run_churn_processes(handle, jobs, timeout_s=300)
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        for (got, (_, config, _, key, frames, _)) in zip(stats, jobs):
            ref = _reference(config, frames, key)
            assert got.signature(include_label=False) == ref.signature(
                include_label=False
            )
        report = handle.runtime_report
        assert sorted(report["frames_served"].values()) == sorted(
            s.num_key_frames for s in stats
        )
        counters = report["serve_counters"]
        assert counters["key_frames"] == sum(s.num_key_frames for s in stats)
        assert counters["hits"] + counters["misses"] == counters["key_frames"]
        # Only the twins hold equal weights on equal frames.
        assert counters["hits"] == stats[0].num_key_frames


class TestAdmissionOverOneConnection:
    def test_pool_of_admitted_sessions_identical_to_inproc_pool(self):
        """N sessions admitted over ONE shared connection (each from
        its own config) match the in-process pool bitwise."""
        def specs(attach_of=None):
            built = []
            for key, width in [("fixed-people", 0.25), ("moving-animals", 0.3)]:
                config = _config(width=width)
                if attach_of is not None:
                    config = dataclasses.replace(config, attach=attach_of())
                built.append(
                    SessionSpec(video=_video(key), num_frames=8, config=config)
                )
            return built

        local = SessionPool(specs()).run()
        handle = start_server([], transport="shm", n_clients=1,
                              idle_timeout_s=60)
        try:
            remote = SessionPool(specs(attach_of=handle.ticket)).run()
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        for a, b in zip(local.stats, remote.stats):
            assert a.signature(include_label=False) == b.signature(
                include_label=False
            )

    def test_ticket_by_index_and_by_own_config_are_the_same_session(self):
        """``ticket(i)`` sends blueprint ``i``'s ADMIT, ``ticket()``
        the client's own: the same config either way is the same
        session, bit-identical to in-process; ids count accepts."""
        config = _config(width=0.3, mode=DistillMode.FULL)
        handle = start_server(
            [SessionBlueprint(config, _HW)], transport="shm",
            n_clients=1, idle_timeout_s=60,
        )
        try:
            stats = []
            for session, ticket in enumerate([handle.ticket(0), handle.ticket()]):
                client = build_session(
                    dataclasses.replace(config, attach=ticket), _HW
                )
                assert client.server.session == session
                try:
                    video = _video()
                    video.reset()
                    stats.append(client.run(video.frames(6), label="t"))
                finally:
                    client.server.close()
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        reference = _reference(config, 6).signature(include_label=False)
        assert [s.signature(include_label=False) for s in stats] == [reference] * 2


class TestCapacityPolicy:
    def test_slot_frees_on_bye_and_admission_resumes(self):
        """max_sessions caps *concurrently open* sessions: a REJECTed
        client can retry successfully after a departure."""
        handle = start_server([], transport="shm", n_clients=1,
                              max_sessions=1, idle_timeout_s=60)
        try:
            first = build_session(
                dataclasses.replace(_config(), attach=handle.ticket()), _HW
            )
            with pytest.raises(AdmissionError, match="capacity") as excinfo:
                build_session(
                    dataclasses.replace(_config(), attach=handle.ticket()),
                    _HW,
                )
            assert excinfo.value.reason == "capacity"
            first.server.close()  # BYE frees the slot
            retry = build_session(
                dataclasses.replace(_config(), attach=handle.ticket()), _HW
            )
            assert retry.server.session == 1  # ids are never reused
            retry.server.close()
        finally:
            handle.close()
        assert handle.process.exitcode == 0


class TestAdmissionRetry:
    """ISSUE 6 satellite: typed refusal metadata and the bounded,
    seeded retry loop behind ``admit_retries``."""

    def test_refusals_carry_retry_metadata(self):
        from repro.serving.overload import OverloadConfig

        handle = start_server(
            [], transport="shm", n_clients=1, max_sessions=2,
            idle_timeout_s=60,
            overload=OverloadConfig(admission_rate=0.001,
                                    admission_burst=1.0,
                                    capacity_retry_after=48),
        )
        try:
            occupant = build_session(
                dataclasses.replace(_config(), attach=handle.ticket()),
                _HW,
            )
            # The bucket held one token; the next ADMIT is a typed,
            # retryable refusal with a ticks-until-token hint.
            with pytest.raises(AdmissionError, match="overloaded") as excinfo:
                build_session(
                    dataclasses.replace(_config(), attach=handle.ticket()),
                    _HW,
                )
            assert excinfo.value.reason == "overloaded"
            assert excinfo.value.retryable
            assert excinfo.value.retry_after >= 1
            occupant.server.close()
        finally:
            handle.close()
        assert handle.process.exitcode == 0

    def test_capacity_refusal_is_retryable_malformed_is_not(self):
        handle = start_server([], transport="shm", n_clients=1,
                              max_sessions=1, idle_timeout_s=60)
        try:
            occupant = build_session(
                dataclasses.replace(_config(), attach=handle.ticket()),
                _HW,
            )
            with pytest.raises(AdmissionError, match="capacity") as excinfo:
                build_session(
                    dataclasses.replace(_config(), attach=handle.ticket()),
                    _HW,
                )
            assert excinfo.value.retryable
            assert excinfo.value.retry_after >= 1
            occupant.server.close()
        finally:
            handle.close()
        handle = start_server([], transport="shm", n_clients=1,
                              idle_timeout_s=60)
        try:
            with pytest.raises(AdmissionError) as excinfo:
                build_session(
                    dataclasses.replace(
                        _config(width=-1.0),
                        attach=handle.ticket(admit_retries=5),
                    ),
                    _HW,
                )
            # Structural refusals are NOT retryable: the retry budget
            # must not burn five sleeps on a server that said "never".
            assert excinfo.value.reason == "malformed-blueprint"
            assert not excinfo.value.retryable
        finally:
            handle.close()
        assert handle.process.exitcode == 0

    def test_bounded_retry_admits_once_occupant_departs(self):
        import threading

        handle = start_server([], transport="shm", n_clients=1,
                              max_sessions=1, idle_timeout_s=60)
        try:
            occupant = build_session(
                dataclasses.replace(_config(), attach=handle.ticket()),
                _HW,
            )
            # Free the slot ~0.5s in; the waiting client's seeded retry
            # loop (capacity hint 64 ticks -> ~0.32s nominal sleeps)
            # must pick the slot up within its bounded budget.
            timer = threading.Timer(0.5, occupant.server.close)
            timer.start()
            try:
                retry = build_session(
                    dataclasses.replace(
                        _config(),
                        attach=handle.ticket(admit_retries=20,
                                                   retry_seed=3),
                    ),
                    _HW,
                )
            finally:
                timer.join()
            assert retry.server.session == 1  # ids are never reused
            retry.server.close()
        finally:
            handle.close()
        assert handle.process.exitcode == 0

    def test_exhausted_retry_budget_raises_the_last_refusal(self):
        handle = start_server([], transport="shm", n_clients=1,
                              max_sessions=1, idle_timeout_s=60)
        try:
            occupant = build_session(
                dataclasses.replace(_config(), attach=handle.ticket()),
                _HW,
            )
            # Nobody ever departs: two retries, then the typed error
            # surfaces — bounded, never an infinite spin.
            with pytest.raises(AdmissionError, match="capacity"):
                build_session(
                    dataclasses.replace(
                        _config(),
                        attach=handle.ticket(admit_retries=2),
                    ),
                    _HW,
                )
            occupant.server.close()
        finally:
            handle.close()
        assert handle.process.exitcode == 0
