"""Tests for the server (Algorithm 3): teacher inference, training,
update payloads, and the live protocol against a one-session
``ServerRuntime`` process."""

import numpy as np
import pytest

from repro.distill.config import DistillConfig, DistillMode
from repro.models.student import StudentNet
from repro.models.teacher import OracleTeacher, TeacherNet
from repro.nn.serialize import apply_state_dict
from repro.runtime.server import Server
from repro.video.generator import SyntheticVideo, VideoConfig


def key_frame(seed=0):
    video = SyntheticVideo(VideoConfig(seed=seed, height=32, width=48,
                                       num_objects=2, class_pool=(1,)))
    return next(iter(video.frames(1)))


class TestHandleKeyFrame:
    def test_reply_contains_update_and_metric(self):
        server = Server(StudentNet(width=0.25), OracleTeacher(),
                        DistillConfig(max_updates=2))
        frame, label = key_frame()
        reply, result = server.handle_key_frame(frame, label)
        assert 0.0 <= reply.metric <= 1.0
        assert reply.metric == result.metric
        assert reply.steps == result.steps
        assert isinstance(reply.update, dict) and reply.update

    def test_partial_update_excludes_front(self):
        server = Server(StudentNet(width=0.25), OracleTeacher(),
                        DistillConfig(mode=DistillMode.PARTIAL, max_updates=1))
        frame, label = key_frame()
        reply, _ = server.handle_key_frame(frame, label)
        assert not any(k.startswith(("in1", "in2", "sb1.", "sb4.")) for k in reply.update)

    def test_full_update_includes_front(self):
        server = Server(StudentNet(width=0.25), OracleTeacher(),
                        DistillConfig(mode=DistillMode.FULL, max_updates=1))
        frame, label = key_frame()
        reply, _ = server.handle_key_frame(frame, label)
        assert any(k.startswith("in1") for k in reply.update)

    def test_reply_bytes_paper_scale(self):
        partial = Server(StudentNet(width=0.25), OracleTeacher(),
                         DistillConfig(mode=DistillMode.PARTIAL))
        full = Server(StudentNet(width=0.25), OracleTeacher(),
                      DistillConfig(mode=DistillMode.FULL))
        assert partial.reply_bytes() == partial.sizes.student_diff_partial
        assert full.reply_bytes() == full.sizes.student_full
        assert partial.reply_bytes() < full.reply_bytes()

    def test_update_applies_cleanly_to_peer(self):
        server = Server(StudentNet(width=0.25, seed=4), OracleTeacher(),
                        DistillConfig(max_updates=2))
        client_student = StudentNet(width=0.25, seed=4)
        frame, label = key_frame()
        reply, _ = server.handle_key_frame(frame, label)
        apply_state_dict(client_student, reply.update)
        np.testing.assert_array_equal(
            client_student.predict(frame), server.student.predict(frame)
        )

    def test_neural_teacher_supported(self):
        server = Server(StudentNet(width=0.25), TeacherNet(width=8),
                        DistillConfig(max_updates=1))
        frame, label = key_frame()
        reply, _ = server.handle_key_frame(frame)  # no label needed
        assert reply.update

    def test_metric_improves_over_key_frames(self):
        server = Server(StudentNet(width=0.25, seed=2), OracleTeacher(),
                        DistillConfig(max_updates=8, threshold=0.9))
        frame, label = key_frame()
        first = server.handle_key_frame(frame, label)[0].metric
        for _ in range(4):
            last = server.handle_key_frame(frame, label)[0].metric
        assert last >= first


class TestLabelMemo:
    """``SharedDistillation`` labels a distinct key frame once."""

    N = 3

    @staticmethod
    def _counting(teacher):
        calls = []
        infer = teacher.infer
        teacher.infer = lambda frame, label=None: (
            calls.append(1) or infer(frame, label)
        )
        return calls

    def _servers(self, teacher, shared):
        return [
            Server(StudentNet(width=0.25, seed=3), teacher,
                   DistillConfig(max_updates=2), work_cache=shared)
            for _ in range(self.N)
        ]

    def test_identical_frames_infer_once_and_match_unshared(self):
        from repro.nn.serialize import state_dict_digest
        from repro.serving.shared import SharedDistillation

        frame, _ = key_frame()
        teacher = TeacherNet(width=8, seed=2)
        calls = self._counting(teacher)
        shared = SharedDistillation()
        replies = [
            s.handle_key_frame(frame.copy())[0]
            for s in self._servers(teacher, shared)
        ]
        assert len(calls) == 1
        assert shared.counters["label_misses"] == 1
        assert shared.counters["label_hits"] == self.N - 1
        assert shared.counters["hits"] == self.N - 1
        for reply, server in zip(
            replies, self._servers(TeacherNet(width=8, seed=2), None)
        ):
            want, _ = server.handle_key_frame(frame)
            assert state_dict_digest(reply.update) == state_dict_digest(want.update)
            assert (reply.metric, reply.steps, reply.initial_metric) == (
                want.metric, want.steps, want.initial_metric
            )

    def test_different_label_is_a_different_entry(self):
        from repro.serving.shared import SharedDistillation

        frame, label = key_frame()
        teacher = TeacherNet(width=8, seed=2)
        calls = self._counting(teacher)
        shared = SharedDistillation()
        shared.pseudo_label(teacher, frame, label)
        shared.pseudo_label(teacher, frame, label + 1)
        shared.pseudo_label(teacher, frame, None)
        assert len(calls) == 3 and shared.counters["label_hits"] == 0
        shared.pseudo_label(teacher, frame, label.copy())
        assert len(calls) == 3 and shared.counters["label_hits"] == 1

    def test_all_distinct_traffic_cannot_grow_the_table(self):
        from repro.serving import shared as shared_mod

        frame, _ = key_frame()
        teacher = TeacherNet(width=8, seed=2)
        calls = self._counting(teacher)
        shared = shared_mod.SharedDistillation()
        for i in range(shared_mod._MEMO_SIZE + 1):
            shared.pseudo_label(teacher, frame + np.float32(i), None)
        assert len(shared._labels) == shared_mod._MEMO_SIZE
        # The newest entry still hits; the oldest was dropped.
        shared.pseudo_label(teacher, frame + np.float32(i), None)
        assert shared.counters["label_hits"] == 1
        shared.pseudo_label(teacher, frame, None)
        assert len(calls) == shared_mod._MEMO_SIZE + 2

    def test_all_distinct_key_frames_cannot_grow_the_distill_memo(self):
        """Every miss stores a cloned student state plus the update, so
        a long-lived server on a distinct stream must evict: same FIFO,
        same bound as the label memo — and eviction must never change
        what a session is served."""
        from repro.nn.serialize import state_dict_digest
        from repro.serving import shared as shared_mod

        frame, label = key_frame()
        shared = shared_mod.SharedDistillation()
        memoised, twin = self._servers(OracleTeacher(), shared)[:2]
        (plain,) = self._servers(OracleTeacher(), None)[:1]
        wanted = []
        for i in range(shared_mod._MEMO_SIZE + 3):
            key = frame + np.float32(i) / 256
            got, _ = memoised.handle_key_frame(key, label)
            want, _ = plain.handle_key_frame(key, label)
            wanted.append(state_dict_digest(want.update))
            assert state_dict_digest(got.update) == wanted[-1]
            assert (got.metric, got.steps) == (want.metric, want.steps)
            assert len(shared._entries) <= shared_mod._MEMO_SIZE
        assert shared.counters["misses"] == shared_mod._MEMO_SIZE + 3
        # A twin starting that late finds the first entries evicted: it
        # trains for itself and is served exactly the same.
        got, _ = twin.handle_key_frame(frame, label)
        assert shared.counters["hits"] == 0
        assert state_dict_digest(got.update) == wanted[0]
        assert len(shared._entries) == shared_mod._MEMO_SIZE

    def test_oracles_are_never_memoised(self):
        from repro.serving.shared import SharedDistillation

        frame, label = key_frame()
        teacher = OracleTeacher()
        calls = self._counting(teacher)
        shared = SharedDistillation()
        for server in self._servers(teacher, shared):
            server.handle_key_frame(frame, label)
        assert len(calls) == self.N
        assert shared.counters["label_hits"] == 0
        assert shared.counters["label_misses"] == 0

    def test_training_never_mutates_the_memoised_label(self):
        from repro.serving.shared import SharedDistillation

        frame, _ = key_frame()
        teacher = TeacherNet(width=8, seed=2)
        shared = SharedDistillation()
        servers = self._servers(teacher, shared)
        servers[0].handle_key_frame(frame)
        memoised, _ = shared.pseudo_label(teacher, frame, None)
        before = memoised.copy()
        assert not memoised.flags.writeable
        # A server whose weights differ trains on the same array.
        other = Server(StudentNet(width=0.25, seed=9), teacher,
                       DistillConfig(max_updates=2), work_cache=shared)
        _, result = other.handle_key_frame(frame)
        assert result.steps > 0 and shared.counters["misses"] == 2
        np.testing.assert_array_equal(memoised, before)


def _client_driver(server_student_seed=5, num_key_frames=3):
    """Build the messages a client would send."""
    video = SyntheticVideo(VideoConfig(seed=1, height=32, width=48,
                                       num_objects=2, class_pool=(1,)))
    return [next(iter(video.frames(1))) for _ in range(num_key_frames)]


class TestServeLoop:
    def test_protocol_over_real_processes(self):
        """Algorithm 3 end to end, frame by frame: a server process
        hosting exactly one session is the dedicated server."""
        from repro.runtime.server import ServerReply
        from repro.runtime.session import SessionConfig
        from repro.serving.runtime import admit_message, start_server

        config = SessionConfig(distill=DistillConfig(max_updates=2),
                               student_width=0.25, student_seed=5,
                               pretrain_steps=0)
        handle = start_server(transport="shm", n_clients=1,
                              idle_timeout_s=60.0)
        try:
            connection = handle.parent_connection()
            session, initial = connection.admit_session(
                admit_message(config, (32, 48))
            )
            assert session == 0
            assert isinstance(initial, dict) and initial  # Alg. 3's first send
            for frame, label in _client_driver():
                connection.send_tagged(session, (frame, label))
                reply = connection.recv_for(session)
                assert isinstance(reply, ServerReply)
                assert 0.0 <= reply.metric <= 1.0
                assert reply.update
            connection.close_session(session)
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        assert handle.runtime_report["exit_reason"] == "quiesced"
        assert handle.runtime_report["frames_served"] == {0: 3}
