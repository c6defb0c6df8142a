"""Transport error paths: every failure is loud, typed, and helpful.

The satellite contract of ISSUE 4: a registry typo names the available
transports, malformed wire buffers (truncated, oversized declarations,
unknown versions/kinds) raise ``WireError`` instead of decoding
garbage, and a wedged shm ring surfaces ``TimeoutError`` with slot
diagnostics instead of hanging the process.  ISSUE 5 adds the
admission-era paths: a malformed ADMIT blueprint is REJECTed (never
crashes the server other clients depend on), REJECT reason codes
round-trip the wire, and a client dialing a capacity-exhausted server
gets a clean typed error with no wedged ring or leaked shm segment.
ISSUE 6 adds the overload-era paths: the REJECT ``retry_after``
hint round-trips, and a client
killed with ``SIGKILL`` mid-run is torn down by the receive budget /
idle reaper without wedging the server or leaking its shm segments.
"""

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.transport import registry, wire
from repro.transport.shm import ShmRing, make_pair


class TestRegistryErrors:
    def test_typo_message_lists_every_available_transport(self):
        for call in (
            lambda name: registry.make_pair(name),
            lambda name: registry.spawn_server(name, lambda endpoint: None),
            lambda name: registry.serve_many(name, lambda listener: None, 2),
            lambda name: registry.connect(name, ("nowhere", 0)),
        ):
            with pytest.raises(KeyError) as excinfo:
                call("smh")  # classic transposition
            message = str(excinfo.value)
            assert "smh" in message
            assert str(["shm", "socket"]) in message


class TestWireDecodeErrors:
    def _frame(self):
        return wire.encode((np.ones((3, 8, 8), np.float32), None))

    def test_truncated_header(self):
        with pytest.raises(wire.WireError, match="header"):
            wire.decode(self._frame()[: wire.HEADER_NBYTES - 1])

    def test_truncated_body(self):
        encoded = self._frame()
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode(encoded[: len(encoded) - 7])

    def test_oversized_declared_length(self):
        """A header declaring more bytes than the buffer holds must not
        read past the end."""
        bad = bytearray(self._frame())
        huge = len(bad) * 1000
        bad[6:14] = huge.to_bytes(8, "little")
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode(bad)

    def test_undersized_declared_length(self):
        """total_len smaller than the header itself is structurally
        impossible and must be rejected before any body parsing."""
        bad = bytearray(wire.encode(None))
        bad[6:14] = (3).to_bytes(8, "little")
        with pytest.raises(wire.WireError, match="smaller than a header"):
            wire.decode(bad)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 7])
    def test_any_version_but_ours_is_refused(self, version):
        assert version != wire.VERSION
        bad = bytearray(self._frame())
        bad[2] = version
        with pytest.raises(wire.WireError, match="version"):
            wire.decode(bad)

    @pytest.mark.parametrize("kind", [5, 250])  # 5: the retired HELLO
    def test_unknown_kind(self, kind):
        bad = bytearray(self._frame())
        bad[3] = kind
        with pytest.raises(wire.WireError, match="kind"):
            wire.decode(bad)

    def test_session_out_of_header_range(self):
        with pytest.raises(wire.WireError, match="session"):
            wire.encode(None, session=wire.MAX_SESSION + 1)

    def test_control_messages_roundtrip_with_session(self):
        for ctl in (wire.Accept(3), wire.Bye(65535)):
            session, out = wire.decode_tagged(wire.encode(ctl))
            assert out == ctl
            assert session == ctl.session


def _shm_segments():
    # Only multiprocessing.shared_memory segments (psm_ prefix):
    # unrelated processes creating other /dev/shm entries while a test
    # runs must not fail it.
    shm_dir = pathlib.Path("/dev/shm")
    if not shm_dir.is_dir():
        return None
    return {p for p in shm_dir.iterdir() if p.name.startswith("psm_")}


def _admit(**overrides):
    fields = dict(
        student_width=0.25, student_seed=0, pretrain_steps=10,
        frame_h=32, frame_w=48, mode="partial", threshold=0.7,
        max_updates=4, min_stride=4, max_stride=16, lr=0.01,
        reset_optimizer_state=True, teacher_boundary_noise=0.0,
    )
    fields.update(overrides)
    return wire.Admit(**fields)


def _damaged_admit(damage):
    """A well-framed ADMIT whose body is ``damage(blueprint state)``."""
    class Damaged(wire.Admit):
        def to_state(self):
            state = super().to_state()
            damage(state)
            return state

    return Damaged(**dataclasses.asdict(_admit()))


class TestAdmissionErrors:
    """ISSUE 5 satellite: the admission-era error paths."""

    def test_admit_blueprint_roundtrips(self):
        for admit in (_admit(), _admit(mode="full", student_seed=7,
                                       reset_optimizer_state=False)):
            session, out = wire.decode_tagged(wire.encode(admit))
            assert out == admit
            assert session == 0

    def test_malformed_admit_missing_field_is_loud(self):
        state = _admit().to_state()
        del state["student_width"]
        with pytest.raises(wire.WireError, match="malformed ADMIT"):
            wire.Admit.from_state(state)

    def test_malformed_admit_unknown_field_is_loud(self):
        state = _admit().to_state()
        state["surprise"] = np.int64(1)
        with pytest.raises(wire.WireError, match="malformed ADMIT"):
            wire.Admit.from_state(state)

    def test_malformed_admit_bad_mode_code_is_loud(self):
        state = _admit().to_state()
        state["mode"] = np.uint8(200)
        with pytest.raises(wire.WireError, match="mode code"):
            wire.Admit.from_state(state)

    def test_truncated_admit_body(self):
        encoded = wire.encode(_admit())
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode(encoded[: len(encoded) - 5])

    def test_reject_reason_roundtrip(self):
        for code, name in wire.REJECT_REASONS.items():
            reject = wire.Reject(3, code, f"details about {name}")
            session, out = wire.decode_tagged(wire.encode(reject))
            assert out == reject
            assert session == 3
            assert out.reason == name
        unknown = wire.decode(wire.encode(wire.Reject(0, 999)))
        assert unknown.reason == "code-999"

    def test_reject_detail_too_long_for_u16(self):
        with pytest.raises(wire.WireError, match="detail"):
            wire.encode(wire.Reject(0, wire.REJECT_CAPACITY, "x" * 70000))

    @pytest.mark.parametrize("transport", ["shm", "socket"])
    def test_semantically_bad_blueprint_is_rejected_not_fatal(self, transport):
        """An ADMIT whose field set or codes are wrong, or whose values
        are nonsense, must REJECT with malformed-blueprint — the link
        stays usable and the server keeps serving."""
        from repro.runtime.session import SessionConfig, build_session
        from repro.serving.runtime import AdmissionError, start_server

        before = _shm_segments()
        handle = start_server([], transport=transport, n_clients=1,
                              idle_timeout_s=60)
        try:
            connection = handle.parent_connection()
            for damage, detail in (
                (lambda state: state.pop("lr"), "missing fields"),
                (lambda state: state.update(surprise=np.int64(1)),
                 "unknown fields"),
                (lambda state: state.update(mode=np.uint8(200)), "mode code"),
            ):
                with pytest.raises(AdmissionError, match=detail) as excinfo:
                    connection.admit_session(_damaged_admit(damage))
                assert excinfo.value.reason == "malformed-blueprint"
            with pytest.raises(AdmissionError, match="malformed-blueprint"):
                connection.admit_session(_admit(student_width=-1.0))
            with pytest.raises(AdmissionError, match="malformed-blueprint"):
                connection.admit_session(_admit(min_stride=32, max_stride=4))
            with pytest.raises(AdmissionError, match="malformed-blueprint"):
                connection.admit_session(_admit(student_seed=-1))
            with pytest.raises(AdmissionError, match="malformed-blueprint"):
                # Passes the per-field checks (1x1 >= 1) but breaks
                # server-side model construction (spatial dims must
                # divide by 4): construction failures REJECT too.
                connection.admit_session(_admit(frame_h=1, frame_w=1))
            # The server survived them all: a good admission still
            # works, on the same connection.
            config = dataclasses.replace(
                SessionConfig(student_width=0.25, pretrain_steps=5),
                attach=handle.ticket(),
            )
            client = build_session(config, (32, 48))
            client.server.close()
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        assert handle.runtime_report["exit_reason"] == "quiesced"
        if before is not None:
            assert not _shm_segments() - before

    def test_capacity_exhausted_dial_is_clean(self):
        """A standalone client process dialing a full server gets a
        typed capacity error; nothing wedges and the parent unlinks
        every shm segment it created."""
        import multiprocessing as mp
        from repro.runtime.session import SessionConfig, build_session
        from repro.serving.runtime import start_server

        def _dial_full_server(address, result_conn):
            from repro.serving.runtime import AdmissionError

            config = dataclasses.replace(
                SessionConfig(student_width=0.25, pretrain_steps=5),
                attach=address,
            )
            try:
                build_session(config, (32, 48))
                result_conn.send("admitted")
            except AdmissionError as exc:
                result_conn.send(exc.reason)
            finally:
                result_conn.close()

        before = _shm_segments()
        handle = start_server([], transport="shm", n_clients=2,
                              max_sessions=1, idle_timeout_s=60)
        try:
            config = dataclasses.replace(
                SessionConfig(student_width=0.25, pretrain_steps=5),
                attach=handle.ticket(),
            )
            occupant = build_session(config, (32, 48))
            parent_conn, child_conn = mp.Pipe(duplex=False)
            proc = mp.Process(
                target=_dial_full_server,
                args=(handle.address(1), child_conn), daemon=True,
            )
            proc.start()
            child_conn.close()
            assert parent_conn.poll(60), "dialing client never reported"
            assert parent_conn.recv() == "capacity"
            proc.join(timeout=30)
            assert proc.exitcode == 0
            occupant.server.close()
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        if before is not None:
            leaked = _shm_segments() - before
            assert not leaked, f"leaked shm segments: {leaked}"


class TestOverloadWire:
    """ISSUE 6 satellite: the REJECT ``retry_after`` hint."""

    def test_retry_after_roundtrips(self):
        for hint in (None, 0, 1, 64, 0xFFFFFFFFFFFFFFFF):
            reject = wire.Reject(7, wire.REJECT_OVERLOADED, "bucket dry", hint)
            session, out = wire.decode_tagged(wire.encode(reject))
            assert out == reject
            assert out.retry_after == hint
            assert session == 7

    def test_retry_after_overflow_is_loud(self):
        with pytest.raises(wire.WireError, match="retry_after"):
            wire.encode(wire.Reject(0, wire.REJECT_OVERLOADED,
                                    retry_after=2 ** 64))


class TestClientDeath:
    """ISSUE 6 satellite: SIGKILL a client mid-run; the server must tear
    the connection down (receive budget + idle reaper), keep serving
    other clients, and leak no shm segment."""

    def test_sigkill_mid_frame_does_not_wedge_server(self):
        import multiprocessing as mp
        from repro.runtime.session import SessionConfig, build_session
        from repro.serving.overload import OverloadConfig
        from repro.serving.runtime import start_server
        from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

        def _make_video():
            video = make_category_video(
                CATEGORY_BY_KEY["fixed-people"], height=32, width=48
            )
            video.reset()
            return video

        def _victim_main(address, started):
            config = dataclasses.replace(
                SessionConfig(student_width=0.25, pretrain_steps=5),
                attach=address,
            )
            client = build_session(config, (32, 48))
            started.send("running")
            started.close()
            client.run(_make_video().frames(10_000), label="victim")

        before = _shm_segments()
        handle = start_server(
            [], transport="shm", n_clients=2, idle_timeout_s=60,
            overload=OverloadConfig(recv_budget_s=0.5, reap_idle_s=1.0),
        )
        try:
            recv_end, send_end = mp.Pipe(duplex=False)
            victim = mp.Process(
                target=_victim_main,
                args=(handle.address(0), send_end), daemon=True,
            )
            victim.start()
            send_end.close()
            assert recv_end.poll(60), "victim never started its run"
            assert recv_end.recv() == "running"
            victim.kill()  # SIGKILL: no goodbye, possibly mid-frame
            victim.join(timeout=30)

            # The server must still admit and serve a fresh client to
            # completion while the dead slot is budget/reaper-collected.
            config = dataclasses.replace(
                SessionConfig(student_width=0.25, pretrain_steps=5),
                attach=handle.address(1),
            )
            survivor = build_session(config, (32, 48))
            stats = survivor.run(_make_video().frames(6), label="survivor")
            assert stats.num_frames == 6
            survivor.server.close()
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        if before is not None:
            leaked = _shm_segments() - before
            assert not leaked, f"leaked shm segments: {leaked}"


class TestShardDeath:
    """ISSUE 10 satellite: SIGKILL one shard of a fleet; the surviving
    shards keep serving their sessions, new admissions for surviving
    tenants still land, and the fleet's shared segments (including the
    digest-checked shared-teacher weights the dead shard had mapped)
    all unlink at close."""

    def test_sigkill_one_shard_survivors_keep_serving(self):
        from repro.runtime.session import SessionConfig, build_session
        from repro.serving.fleet import start_fleet
        from repro.serving.runtime import REPORT_LOST
        from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

        def _make_video():
            video = make_category_video(
                CATEGORY_BY_KEY["fixed-people"], height=32, width=48
            )
            video.reset()
            return video

        config = SessionConfig(
            student_width=0.25, pretrain_steps=5, teacher_arch="neural",
            teacher_width=8, teacher_seed=0,
        )
        before = _shm_segments()
        handle = start_fleet(2, idle_timeout_s=60, shared_teacher=(8, 0))
        try:
            # The first tenant lands on shard 0 (least-loaded, lowest
            # index) — deterministically on the shard that survives.
            occupant = build_session(
                dataclasses.replace(config, attach=handle.address(0)),
                (32, 48),
            )
            handle.processes[1].kill()  # SIGKILL: no goodbye
            handle.processes[1].join(timeout=30)

            # The survivor keeps serving the open session...
            stats = occupant.run(_make_video().frames(6), label="occupant")
            assert stats.num_frames == 6
            # ...and still admits new sessions of the surviving tenant
            # (the dead shard's reuseport socket died with it, so the
            # front door routes every dial to the survivor).
            joiner = build_session(
                dataclasses.replace(config, attach=handle.address(0)),
                (32, 48),
            )
            joiner_stats = joiner.run(_make_video().frames(4), label="joiner")
            assert joiner_stats.num_frames == 4
            joiner.server.close()
            occupant.server.close()
        finally:
            handle.close()
        reasons = handle.fleet_report["exit_reasons"]
        assert reasons[0] == "quiesced"
        assert reasons[1] == REPORT_LOST
        assert handle.fleet_report["frames_served"][0] > 0
        if before is not None:
            leaked = _shm_segments() - before
            assert not leaked, f"leaked shm segments: {leaked}"


class TestShmTimeouts:
    def test_recv_timeout_names_the_stuck_slot(self):
        a, b = make_pair(slots=2, slot_nbytes=4096, timeout_s=0.1)
        try:
            with pytest.raises(TimeoutError, match="slot"):
                b.recv()
        finally:
            b.close(), a.close()

    def test_send_timeout_when_peer_never_drains(self):
        a, b = make_pair(slots=2, slot_nbytes=4096, timeout_s=0.1)
        try:
            payload = np.zeros(64, np.uint8)
            a.send(payload, 64)
            a.send(payload, 64)
            with pytest.raises(TimeoutError, match="timed out"):
                a.send(payload, 64)
        finally:
            b.close(), a.close()

    def test_corrupt_slot_fails_loudly_not_silently(self):
        """A ring slot holding non-wire bytes raises WireError (the
        magic/version check), never a silent mis-decode."""
        ring = ShmRing(slots=2, slot_nbytes=4096)
        try:
            other = ShmRing.attach(ring.describe())
            ring._payloads[0][:4] = b"XXXX"
            ring._lens[0][...] = 64
            ring._seq[0] = 1  # publish the garbage
            with pytest.raises(wire.WireError):
                other.recv_message(timeout_s=1.0)
            other.close()
        finally:
            ring.close()
