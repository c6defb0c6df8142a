"""End-to-end transport property tests.

The subsystem's core contract (ISSUE-3 acceptance): a full ShadowTutor
session whose server lives in another OS process, reached over the
shared-memory ring with the pickle-free wire format, produces
``RunStats`` *identical* to the in-process run.  Also covers the pipe
transport through the same registry wiring, and the serving pool over
remote sessions.
"""

import dataclasses

import pytest

from repro.distill.config import DistillConfig, DistillMode
from repro.runtime.session import SessionConfig, build_session, run_shadowtutor
from repro.serving.pool import SessionPool, SessionSpec
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

_HW = (32, 48)


def _config(transport, mode=DistillMode.PARTIAL):
    return SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.7,
                              min_stride=4, max_stride=16, mode=mode),
        student_width=0.25,
        pretrain_steps=10,
        transport=transport,
    )


def _video(key="fixed-people"):
    return make_category_video(CATEGORY_BY_KEY[key], height=_HW[0], width=_HW[1])


def _run(transport, num_frames=20, **kw):
    return run_shadowtutor(_video(), num_frames, _config(transport, **kw), label="t")


class TestSessionOverRealTransports:
    def test_shm_session_identical_to_inproc(self):
        """The acceptance property: identical RunStats over shm."""
        inproc = _run("inproc")
        shm = _run("shm")
        assert shm.signature() == inproc.signature()

    def test_pipe_session_identical_to_inproc(self):
        inproc = _run("inproc")
        pipe = _run("pipe")
        assert pipe.signature() == inproc.signature()

    def test_full_distillation_over_shm(self):
        inproc = _run("inproc", num_frames=12, mode=DistillMode.FULL)
        shm = _run("shm", num_frames=12, mode=DistillMode.FULL)
        assert shm.signature() == inproc.signature()
        # Full-mode replies carry the whole student: paper-scale
        # accounting must reflect that on the remote path too.
        assert shm.key_frames[0].down_bytes == inproc.key_frames[0].down_bytes

    def test_remote_rejects_custom_teacher(self):
        from repro.models.teacher import OracleTeacher

        with pytest.raises(ValueError, match="teacher"):
            build_session(_config("shm"), _HW, teacher=OracleTeacher())

    def test_unknown_transport_raises(self):
        with pytest.raises(KeyError, match="available"):
            _run("carrier-pigeon", num_frames=4)

    def test_remote_server_process_is_reaped(self):
        """run_shadowtutor (the N = 1 pool) closes the spawned server."""
        client = build_session(_config("shm"), _HW)
        proc = client.server.process
        assert proc is not None and proc.is_alive()
        client.begin("t")
        video = _video()
        video.reset()
        for index, (frame, label) in enumerate(video.frames(6)):
            client.process_frame(frame, label, index)
        client.finish()
        client.server.close()
        assert not proc.is_alive()
        assert proc.exitcode == 0
        client.server.close()  # idempotent


class TestPoolOverRealTransports:
    def test_pooled_shm_sessions_identical_to_inproc_pool(self):
        """Two remote-server sessions in the pool behave exactly like
        the same two sessions pooled in-process."""

        def specs(transport):
            return [
                SessionSpec(video=_video(), num_frames=10,
                            config=_config(transport)),
                SessionSpec(video=_video("moving-animals"), num_frames=10,
                            config=dataclasses.replace(
                                _config(transport), student_width=0.3)),
            ]

        local = SessionPool(specs("inproc")).run()
        remote = SessionPool(specs("shm")).run()
        for a, b in zip(local.stats, remote.stats):
            assert a.signature(include_label=False) == b.signature(
                include_label=False
            )

    def test_pool_build_failure_reaps_spawned_servers(self):
        """If building a later session fails, servers already spawned
        for earlier sessions are shut down, not leaked."""
        from repro.models.teacher import OracleTeacher

        specs = [
            SessionSpec(video=_video(), num_frames=4, config=_config("shm")),
            SessionSpec(video=_video(), num_frames=4, config=_config("shm"),
                        teacher=OracleTeacher()),  # remote + custom teacher
        ]
        pool = SessionPool(specs)
        procs_before = __import__("multiprocessing").active_children()
        with pytest.raises(ValueError, match="teacher"):
            pool.run()
        # The first spec's server process must be gone.
        import time

        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = [
                p for p in __import__("multiprocessing").active_children()
                if p not in procs_before
            ]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked

    def test_pool_skips_shared_distillation_for_remote_sessions(self):
        """Remote servers keep their own trainer: the pool must not
        attach the in-process work cache to them."""
        specs = [
            SessionSpec(video=_video(), num_frames=8, config=_config("shm"))
            for _ in range(2)
        ]
        pool = SessionPool(specs)
        result = pool.run()
        assert result.counters.get("distill_calls", 0) == 0
        assert len(result.stats) == 2
