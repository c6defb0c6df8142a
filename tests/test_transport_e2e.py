"""End-to-end transport property tests.

The subsystem's core contract: a full ShadowTutor session whose server
half lives in another OS process — a one-session ``ServerRuntime``
reached by ticket over the shared-memory ring or a TCP socket, speaking
the pickle-free wire format — produces ``RunStats`` *identical* to the
in-process run.  Also covers the serving pool over attached sessions
and that nothing (process, ``/dev/shm`` segment) outlives the handle.
"""

import contextlib
import dataclasses

import pytest

from repro.distill.config import DistillConfig, DistillMode
from repro.runtime.session import SessionConfig, build_session, run_shadowtutor
from repro.serving.pool import SessionPool, SessionSpec
from repro.serving.runtime import start_server
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video
from tests.helpers import no_shm_leak

_HW = (32, 48)
_TRANSPORTS = ["shm", "socket"]


def _config(mode=DistillMode.PARTIAL):
    return SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.7,
                              min_stride=4, max_stride=16, mode=mode),
        student_width=0.25,
        pretrain_steps=10,
    )


def _video(key="fixed-people"):
    return make_category_video(CATEGORY_BY_KEY[key], height=_HW[0], width=_HW[1])


@contextlib.contextmanager
def _one_session_server(transport):
    """A server process provisioned for one connection; on the way out
    it must have exited cleanly and left no shared-memory segment."""
    with no_shm_leak():
        handle = start_server(transport=transport, n_clients=1, idle_timeout_s=60)
        try:
            yield handle
        finally:
            handle.close()
    assert not handle.process.is_alive()
    assert handle.process.exitcode == 0


def _run(transport=None, num_frames=20, **kw):
    config = _config(**kw)
    if transport is None:
        return run_shadowtutor(_video(), num_frames, config, label="t")
    with _one_session_server(transport) as handle:
        config = dataclasses.replace(config, attach=handle.ticket())
        return run_shadowtutor(_video(), num_frames, config, label="t")


class TestSessionOverRealTransports:
    @pytest.mark.parametrize("transport", _TRANSPORTS)
    def test_session_identical_to_inproc(self, transport):
        """The acceptance property: identical RunStats out of process."""
        assert _run(transport).signature() == _run().signature()

    @pytest.mark.parametrize("transport", _TRANSPORTS)
    def test_full_distillation(self, transport):
        inproc = _run(num_frames=12, mode=DistillMode.FULL)
        remote = _run(transport, num_frames=12, mode=DistillMode.FULL)
        assert remote.signature() == inproc.signature()
        # Full-mode replies carry the whole student: paper-scale
        # accounting must reflect that on the remote path too.
        assert remote.key_frames[0].down_bytes == inproc.key_frames[0].down_bytes

    def test_remote_rejects_custom_teacher(self):
        from repro.models.teacher import OracleTeacher

        with _one_session_server("shm") as handle:
            config = dataclasses.replace(_config(), attach=handle.ticket())
            with pytest.raises(ValueError, match="teacher"):
                build_session(config, _HW, teacher=OracleTeacher())
            # The refusal happens before anything is dialled; the same
            # config without the teacher is admitted (and its BYE plus
            # the link's sentinel let the server drain).
            build_session(config, _HW).server.close()

    def test_unknown_transport_raises(self):
        with pytest.raises(KeyError, match="available"):
            start_server(transport="carrier-pigeon", n_clients=1)

    def test_server_process_is_reaped_on_close(self):
        """The session's close is its BYE; the handle's close ends the
        process — exit 0, no segment left, idempotent."""
        with _one_session_server("shm") as handle:
            config = dataclasses.replace(_config(), attach=handle.ticket())
            client = build_session(config, _HW)
            assert handle.process.is_alive()
            client.begin("t")
            video = _video()
            video.reset()
            for index, (frame, label) in enumerate(video.frames(6)):
                client.process_frame(frame, label, index)
            client.finish()
            client.server.close()
            client.server.close()  # idempotent
            assert handle.process.is_alive()  # outlives its sessions
            handle.close()
            handle.close()  # idempotent
        assert handle.runtime_report["exit_reason"] == "quiesced"


class TestPoolOverRealTransports:
    @pytest.mark.parametrize("transport", _TRANSPORTS)
    def test_pooled_sessions_identical_to_inproc_pool(self, transport):
        """Two sessions of different width over ONE link behave exactly
        like the same two sessions pooled in-process."""

        def specs(attach=None):
            return [
                SessionSpec(video=_video(), num_frames=10,
                            config=dataclasses.replace(
                                _config(), attach=attach and attach())),
                SessionSpec(video=_video("moving-animals"), num_frames=10,
                            config=dataclasses.replace(
                                _config(), student_width=0.3,
                                attach=attach and attach())),
            ]

        local = SessionPool(specs()).run()
        with _one_session_server(transport) as handle:
            remote = SessionPool(specs(handle.ticket)).run()
        for a, b in zip(local.stats, remote.stats):
            assert a.signature(include_label=False) == b.signature(
                include_label=False
            )

    def test_pool_build_failure_ends_admitted_sessions(self):
        """If building a later session fails, the sessions already
        admitted are ended (BYE), so the server drains and exits 0
        instead of idling into its timeout."""
        from repro.models.teacher import OracleTeacher

        with _one_session_server("shm") as handle:
            attached = dataclasses.replace(_config(), attach=handle.ticket())
            specs = [
                SessionSpec(video=_video(), num_frames=4, config=attached),
                SessionSpec(video=_video(), num_frames=4, config=attached,
                            teacher=OracleTeacher()),  # attached + custom
            ]
            with pytest.raises(ValueError, match="teacher"):
                SessionPool(specs).run()
            assert handle.parent_connection()._queues == {}
        assert handle.runtime_report["exit_reason"] == "quiesced"
        assert handle.runtime_report["frames_served"] == {0: 0}

    def test_attached_sessions_share_the_servers_memo(self):
        """The in-process work cache is not attached to proxies — the
        memo that spares duplicate distillations lives server-side."""
        with _one_session_server("shm") as handle:
            specs = [
                SessionSpec(video=_video(), num_frames=8,
                            config=dataclasses.replace(
                                _config(), attach=handle.ticket()))
                for _ in range(2)
            ]
            result = SessionPool(specs).run()
        assert result.counters.get("distill_calls", 0) == 0
        assert len(result.stats) == 2
        counters = handle.runtime_report["serve_counters"]
        assert counters["hits"] > 0
        assert counters["hits"] + counters["misses"] == counters["key_frames"]
