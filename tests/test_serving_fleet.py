"""Fleet-grade tests for the sharded server fleet (ISSUE 10).

The acceptance properties: placement is a pure function of the
admission sequence (:class:`PlacementPolicy`, mirrored bit-for-bit by
the cross-process :class:`FleetLedger`); a fleet serves every session
``RunStats``-bit-identical to the in-process reference through its one
front door (SO_REUSEPORT + typed redirects), including churn and a
forced mid-run redirect; the shared teacher segment is digest-checked
and write-blocked; and an idle fleet parks on its doorbells instead of
spinning.
"""

import dataclasses
import random
import time

import numpy as np
import pytest

from repro.distill.config import DistillConfig
from repro.runtime.session import SessionConfig, run_shadowtutor
from repro.serving.fleet import (
    FleetAddress,
    FleetLedger,
    LedgerFull,
    PlacementPolicy,
    SharedTeacherSegment,
    placement_key,
    start_fleet,
)
from repro.serving.runtime import admit_message, run_churn_processes
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video
from tests.helpers import no_shm_leak

_HW = (24, 32)


def _config(width=0.25, stride=4, **kw):
    return SessionConfig(
        distill=DistillConfig(max_updates=2, threshold=0.7,
                              min_stride=stride, max_stride=16),
        student_width=width,
        pretrain_steps=10,
        **kw,
    )


def _admit(config, hw=_HW):
    return admit_message(config, hw)


def _reference(config, frames, key="fixed-people"):
    video = make_category_video(CATEGORY_BY_KEY[key],
                                height=_HW[0], width=_HW[1])
    return run_shadowtutor(video, frames, config, label="ref")


# ----------------------------------------------------------------------
# Placement: the pure function and its affinity/least-loaded contract
# ----------------------------------------------------------------------
class TestPlacementKey:
    def test_identical_blueprints_share_a_key(self):
        assert placement_key(_admit(_config())) == placement_key(
            _admit(_config())
        )

    def test_key_covers_the_whole_blueprint(self):
        base = placement_key(_admit(_config()))
        assert placement_key(_admit(_config(width=0.3))) != base
        # Stride bounds are part of the tenant identity: two groups
        # differing only in cadence must be separable by placement.
        assert placement_key(_admit(_config(stride=2))) != base
        assert placement_key(_admit(_config(), hw=(32, 48))) != base

    def test_keys_fit_the_ledger_cells(self):
        key = placement_key(_admit(_config()))
        assert 0 < key < 1 << 63  # 0 is the empty-slot sentinel


class TestPlacementPolicy:
    def test_novel_keys_spread_least_loaded_lowest_index_ties(self):
        policy = PlacementPolicy(3)
        assert policy.place(11, 0) == 0  # all empty: lowest index
        assert policy.place(22, 0) == 1
        assert policy.place(33, 0) == 2
        assert policy.place(44, 0) == 0  # tie again at 1,1,1
        assert policy.loads == [2, 1, 1]

    def test_affinity_beats_load(self):
        policy = PlacementPolicy(2)
        assert policy.place(7, 0) == 0
        assert policy.place(7, 0) == 0  # shard 1 is emptier; key wins
        assert policy.place(7, 0) == 0
        assert policy.loads == [3, 0]

    def test_placement_is_a_pure_function_of_the_sequence(self):
        rng = random.Random(10)
        ops, live = [], []
        for _ in range(200):
            if live and rng.random() < 0.4:
                ops.append(("release", live.pop(rng.randrange(len(live)))))
            else:
                key = rng.randrange(1, 40)
                ops.append(("place", key))
                live.append(key)

        def replay():
            policy = PlacementPolicy(3)
            decisions = []
            for op, key in ops:
                if op == "place":
                    decisions.append(policy.place(key, rng2.randrange(3)))
                else:
                    policy.release(key)
            return decisions, policy.snapshot()

        rng2 = random.Random(99)
        first = replay()
        rng2 = random.Random(99)
        assert replay() == first

    def test_release_drains_the_entry_so_a_tenant_can_move(self):
        policy = PlacementPolicy(2)
        assert policy.place(5, 0) == 0
        policy.place(6, 0)  # shard 1
        policy.place(7, 0)  # tie -> shard 0
        policy.release(5)
        policy.release(7)
        # Key 5 fully drained: it is novel again, and shard 0 is now
        # the emptier one.
        assert policy.place(5, 0) == 0
        assert policy.loads == [1, 1]

    def test_reservation_makes_a_redirect_single_count(self):
        policy = PlacementPolicy(2)
        policy.place(1, 0)
        policy.place(2, 1)  # least-loaded: shard 1 owns key 2
        # Shard 0 consults for another key-2 session: target counted
        # immediately, one reservation parked.
        assert policy.place(2, 0) == 1
        assert policy.loads == [1, 2]
        # The redirected client re-ADMITs at shard 1: consumes the
        # reservation instead of double-counting.
        assert policy.place(2, 1) == 1
        assert policy.loads == [1, 2]
        assert policy.entries[2] == [1, 2, 0]

    def test_drop_without_claim_raises(self):
        policy = PlacementPolicy(2)
        with pytest.raises(ValueError, match="no outstanding claim"):
            policy.release(9)
        policy.place(9, 0)
        policy.release(9)
        with pytest.raises(ValueError, match="no outstanding claim"):
            policy.abort(9)

    def test_needs_a_shard(self):
        with pytest.raises(ValueError, match="at least one shard"):
            PlacementPolicy(0)


class TestFleetLedger:
    def test_mirrors_the_policy_over_random_op_sequences(self):
        """The cross-process ledger realises exactly the pure policy:
        identical decisions and identical snapshots over randomized
        place/release/abort interleavings — including enough releases
        to exercise the linear-probe displaced-run re-insert."""
        rng = random.Random(4)
        policy = PlacementPolicy(3)
        # Capacity 7 with keys drawn from a wide range forces probe
        # collisions and wrap-around displacement.
        ledger = FleetLedger(3, capacity=7)
        live = []
        for step in range(400):
            if live and (rng.random() < 0.45 or len(live) >= 6):
                key = live.pop(rng.randrange(len(live)))
                if rng.random() < 0.5:
                    policy.release(key)
                    ledger.release(key)
                else:
                    policy.abort(key)
                    ledger.abort(key)
            else:
                key = rng.choice([3, 10, 17, 24, 5, 12, 1 << 62])
                caller = rng.randrange(3)
                entry = policy.entries.get(key)
                # A place that consumes a parked reservation is the
                # redirected client *arriving* — the claim (and its
                # eventual release) was already counted at redirect
                # time, so it must not enter the release pool twice.
                consumes = (
                    entry is not None
                    and caller == entry[0]
                    and entry[2] > 0
                )
                assert policy.place(key, caller) == ledger.place(key, caller)
                if not consumes:
                    live.append(key)
            assert ledger.snapshot() == policy.snapshot()

    def test_full_table_raises_a_typed_error_and_claims_nothing(self):
        ledger = FleetLedger(2, capacity=2)
        ledger.place(1, 0)
        ledger.place(2, 0)
        before = ledger.snapshot()
        with pytest.raises(LedgerFull, match="2 distinct blueprints"):
            ledger.place(3, 0)
        assert ledger.snapshot() == before
        assert ledger.place(2, 1) == 1  # a known key still places

    def test_validates_construction(self):
        with pytest.raises(ValueError, match="at least one shard"):
            FleetLedger(0)
        with pytest.raises(ValueError, match="capacity"):
            FleetLedger(1, capacity=0)


# ----------------------------------------------------------------------
# Shared teacher segment
# ----------------------------------------------------------------------
class TestSharedTeacherSegment:
    def test_aliased_teacher_is_bitwise_the_materialised_one(self):
        from repro.models.teacher import TeacherNet
        from repro.nn.serialize import state_dict_digest

        seg = SharedTeacherSegment(width=8, seed=3)
        try:
            aliased = seg.build_teacher()
            reference = TeacherNet(width=8, seed=3)
            assert state_dict_digest(aliased.state_dict()) == (
                state_dict_digest(reference.state_dict())
            )
            # The arrays really are views over the one mapping, not
            # copies — the whole point of the segment.
            name, param = next(iter(aliased.named_parameters()))
            assert param.data.base is not None
            assert seg.spec_key == ("neural", 8, 3)
        finally:
            seg.close()

    def test_aliased_arrays_refuse_writes(self):
        seg = SharedTeacherSegment(width=8, seed=0)
        try:
            teacher = seg.build_teacher()
            _, param = next(iter(teacher.named_parameters()))
            with pytest.raises(ValueError, match="read-only"):
                param.data[...] = 0.0
        finally:
            seg.close()

    def test_tampered_segment_fails_the_digest_check(self):
        seg = SharedTeacherSegment(width=8, seed=0)
        try:
            seg.tamper()
            with pytest.raises(ValueError, match="digest mismatch"):
                seg.build_teacher()
        finally:
            seg.close()

    def test_close_is_idempotent(self):
        seg = SharedTeacherSegment(width=8, seed=0)
        seg.close()
        seg.close()


# ----------------------------------------------------------------------
# End-to-end: fleets serve bit-identical sessions
# ----------------------------------------------------------------------
class TestFleetEndToEnd:
    def _jobs(self):
        # Two tenants (distinct blueprints) x two sessions each, with
        # churn: staggered joins, different departure times.  Affinity
        # must co-locate each tenant; the fleet must still serve every
        # session bit-identical to its in-process twin.
        config_a, config_b = _config(width=0.25), _config(width=0.3)
        # The second session of each tenant joins while the first is
        # still being served (12/10 frames at stride 4 span several
        # key rounds), so affinity resolves against a live entry; the
        # short joiners then depart first — churn in both directions.
        return [
            (0.0, config_a, _HW, "fixed-people", 12, "a0"),
            (0.1, config_b, _HW, "fixed-people", 10, "b0"),
            (0.4, config_a, _HW, "fixed-people", 6, "a1"),
            (0.5, config_b, _HW, "fixed-people", 6, "b1"),
        ]

    def _check_stats(self, stats, jobs):
        for got, (_, config, _, key, frames, _) in zip(stats, jobs):
            ref = _reference(config, frames, key)
            assert got.signature(include_label=False) == ref.signature(
                include_label=False
            )

    @pytest.mark.parametrize(
        "teacher, shared_teacher",
        [
            ({}, None),
            # Every shard aliases one read-only neural teacher segment;
            # each in-process twin builds its teacher from scratch.
            (dict(teacher_arch="neural", teacher_width=8, teacher_seed=0),
             (8, 0)),
        ],
        ids=["own_teacher", "shared_teacher"],
    )
    def test_churned_fleet_bit_identical_to_references(self, teacher,
                                                       shared_teacher):
        jobs = [
            (t, dataclasses.replace(config, **teacher), *rest)
            for t, config, *rest in self._jobs()
        ]
        with no_shm_leak():
            handle = start_fleet(2, shared_teacher=shared_teacher,
                                 idle_timeout_s=60)
            try:
                stats = run_churn_processes(handle, jobs, timeout_s=300)
            finally:
                handle.close()
        self._check_stats(stats, jobs)
        report = handle.fleet_report
        assert report["exit_reasons"] == ["quiesced", "quiesced"]
        assert report["placed"] == len(jobs)
        assert sum(report["frames_served"]) > 0
        # Every claim drained on the way out — leftover load is a leak.
        assert handle.ledger_snapshot() == {
            "loads": [0, 0], "entries": {},
        }

    def test_affinity_and_spread_over_the_wire(self):
        """Sequential admissions make placement observable exactly:
        tenant A's two live sessions co-locate on shard 0, tenant B's
        on shard 1, and departures drain the entries."""
        from repro.runtime.session import build_session

        config_a, config_b = _config(width=0.25), _config(width=0.3)
        handle = start_fleet(2, idle_timeout_s=60)
        clients = []
        try:
            for slot, config in enumerate(
                [config_a, config_b, config_a, config_b]
            ):
                attach = dataclasses.replace(
                    config, attach=handle.address(slot)
                )
                clients.append(build_session(attach, _HW))
            assert handle.ledger_snapshot() == {
                "loads": [2, 2],
                "entries": {
                    placement_key(_admit(config_a)): (0, 2, 0),
                    placement_key(_admit(config_b)): (1, 2, 0),
                },
            }
            for client in clients:
                client.server.close()
            clients = []
            # BYEs are processed asynchronously by the shards; the
            # entries must drain (bounded wait, no leftover load).
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if handle.ledger_snapshot() == {"loads": [0, 0],
                                                "entries": {}}:
                    break
                time.sleep(0.02)
            assert handle.ledger_snapshot() == {"loads": [0, 0],
                                                "entries": {}}
        finally:
            for client in clients:
                client.server.close()
            handle.close()

    def test_forced_mid_run_redirect_is_bit_identical(self):
        """Dial the WRONG shard's direct port on purpose: the typed
        redirect must bounce the client to the owning shard and the
        session must still match its in-process twin bitwise."""
        config = _config()
        handle = start_fleet(2, idle_timeout_s=60)
        try:
            import multiprocessing as mp

            from repro.serving.runtime import _client_process_main

            front = handle.address(0)
            # Peek where the tenant will land, then drop the claim.
            owner = handle._ledger.place(placement_key(_admit(config)), 0)
            handle._ledger.release(placement_key(_admit(config)))
            wrong = 1 - owner
            jobs = [
                # First client in through the front door pins the
                # tenant to `owner`; the second dials `wrong`'s direct
                # port mid-run and must be redirected.
                (front, 10, "first"),
                (dataclasses.replace(front, info=front.shards[wrong]),
                 8, "forced"),
            ]
            workers = []
            released = mp.Event()
            released.set()
            for address, frames, label in jobs:
                parent, child = mp.Pipe(duplex=False)
                proc = mp.Process(
                    target=_client_process_main,
                    args=(address, config, _HW, "fixed-people", frames,
                          label, child, 0.4 if label == "forced" else 0.0,
                          released),
                    daemon=True,
                )
                proc.start()
                child.close()
                workers.append((proc, parent, frames))
            stats = []
            for proc, conn, frames in workers:
                assert conn.poll(180)
                status, payload = conn.recv()
                assert status == "ok", payload
                stats.append((payload, frames))
                proc.join(timeout=30)
        finally:
            handle.close()
        for got, frames in stats:
            ref = _reference(config, frames)
            assert got.signature(include_label=False) == ref.signature(
                include_label=False
            )
        # The wrong-port dial really crossed the redirect path.
        assert handle.fleet_report["redirects"] >= 1
        assert handle.fleet_report["placed"] == 2

    def test_fleet_address_knows_its_shards(self):
        handle = start_fleet(1, idle_timeout_s=30)
        try:
            address = handle.address(0)
            assert isinstance(address, FleetAddress)
            assert len(address.shards) == 1
        finally:
            handle.close()

    def test_idle_socket_fleet_parks_instead_of_spinning(self):
        """Satellite 3's regression: shards blocked on empty listeners
        must sit in the doorbell select, not busy-poll.  CPU time
        accrued by an idle 2-shard fleet over a second of wall clock
        stays near zero."""

        def cpu_seconds(pid):
            with open(f"/proc/{pid}/stat") as handle_:
                fields = handle_.read().rsplit(") ", 1)[1].split()
            ticks = int(fields[11]) + int(fields[12])  # utime + stime
            import os
            return ticks / os.sysconf("SC_CLK_TCK")

        handle = start_fleet(2, idle_timeout_s=60)
        try:
            time.sleep(0.3)  # let startup (teacher build, imports) settle
            pids = [proc.pid for proc in handle.processes]
            before = [cpu_seconds(pid) for pid in pids]
            time.sleep(1.0)
            after = [cpu_seconds(pid) for pid in pids]
        finally:
            handle.close()
        for pid, t0, t1 in zip(pids, before, after):
            # A spinning sweep loop burns ~the full second; a parked
            # one wakes only for its nap ceiling.  0.2s of slack
            # absorbs scheduler noise.
            assert t1 - t0 < 0.2, (
                f"shard {pid} burned {t1 - t0:.2f}s CPU while idle"
            )
