"""A key frame the student already beats THRESHOLD on (Algorithm 1,
d = 0) changes nothing, so nothing is prepared, diffed, sent or applied
for it: the reply carries an empty update — 38 bytes on the wire — and
the device keeps its weights and their version.  The simulated
accounting is untouched, so ``RunStats`` cannot tell."""

import dataclasses

import pytest

from repro.distill.config import DistillConfig, DistillMode
from repro.models.student import StudentNet, partial_freeze
from repro.models.teacher import OracleTeacher, TeacherNet
from repro.nn.serialize import state_dict_diff, state_dict_digest
from repro.runtime.client import Client
from repro.runtime.server import Server, ServerReply
from repro.runtime.session import SessionConfig, build_session, run_shadowtutor
from repro.serving.runtime import MuxRemoteServer, start_server
from repro.transport import wire
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video
from repro.video.generator import SyntheticVideo, VideoConfig
from tests.helpers import interpreted

#: ``wire.encoded_nbytes`` of a reply whose update is empty: header only.
REPLY_HEADER_BYTES = 38


def key_frame(seed=0):
    video = SyntheticVideo(VideoConfig(seed=seed, height=32, width=48,
                                       num_objects=2, class_pool=(1,)))
    return next(iter(video.frames(1)))


def spy(monkeypatch, module, name):
    """Count calls of ``module.name`` (the attribute its callers read)."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "autograd"])
@pytest.mark.parametrize("mode", [DistillMode.PARTIAL, DistillMode.FULL])
class TestZeroStepServe:
    def _server(self, mode, threshold):
        return Server(StudentNet(width=0.25, seed=3), OracleTeacher(),
                      DistillConfig(mode=mode, max_updates=2, threshold=threshold))

    def test_nothing_is_prepared_diffed_or_changed(self, monkeypatch, mode, compiled):
        import repro.distill.trainer as trainer_module
        import repro.runtime.server as server_module

        weight_maps = spy(monkeypatch, trainer_module, "lvs_weight_map")
        diffs = spy(monkeypatch, server_module, "state_dict_diff")
        server = self._server(mode, threshold=1e-6)
        frame, label = key_frame()
        before = state_dict_digest(server.student.state_dict())
        with interpreted(not compiled):
            reply, result = server.handle_key_frame(frame, label)
        assert result.steps == reply.steps == 0 and result.losses == []
        assert reply.update == {}
        assert state_dict_digest(server.student.state_dict()) == before
        assert weight_maps == [] and diffs == []
        assert wire.encoded_nbytes(reply) == REPLY_HEADER_BYTES

    def test_a_trained_key_frame_still_carries_its_diff(self, monkeypatch, mode, compiled):
        import repro.runtime.server as server_module

        diffs = spy(monkeypatch, server_module, "state_dict_diff")
        server = self._server(mode, threshold=0.999)
        frame, label = key_frame()
        with interpreted(not compiled):
            reply, result = server.handle_key_frame(frame, label)
        assert result.steps > 0 and len(diffs) == 1
        assert reply.update and wire.encoded_nbytes(reply) > REPLY_HEADER_BYTES
        trainable_only = mode is DistillMode.PARTIAL
        assert any(k.startswith("in1") for k in reply.update) != trainable_only


class TestClientKeepsItsWeights:
    def test_zero_step_reply_leaves_version_and_predictions(self, monkeypatch):
        import repro.runtime.client as client_module

        applies = spy(monkeypatch, client_module, "apply_state_dict")
        digests = spy(monkeypatch, client_module, "state_dict_digest")
        cfg = DistillConfig(threshold=1e-6, min_stride=4, max_stride=16)
        server = Server(StudentNet(width=0.25, seed=0), OracleTeacher(), cfg)
        client = Client(StudentNet(width=0.25, seed=0), server, cfg)
        client.weight_version = version = state_dict_digest(client.student.state_dict())
        frame, label = key_frame()
        want = client.student.predict(frame).tobytes()

        stats = client.run([(frame, label)] * 6)

        assert stats.key_frames and all(k.steps == 0 for k in stats.key_frames)
        assert any(f.update_delay is not None for f in stats.frames)  # it did land
        assert applies == [] and digests == []
        assert client.weight_version == version
        assert client.student.predict(frame).tobytes() == want
        # the simulated link still carried a paper-scale update per key frame
        assert stats.total_down_bytes == len(stats.key_frames) * server.reply_bytes()


class TestLabelStaysOnTheDevice:
    """The renderer label crosses the link only for a teacher that
    reads it (a real device has no ground truth to send)."""

    @pytest.mark.parametrize("teacher, sends_label", [
        (OracleTeacher(), True), (TeacherNet(width=8), False),
    ], ids=["oracle", "neural"])
    def test_dispatch_passes_the_label_only_to_an_oracle(self, teacher, sends_label):
        cfg = DistillConfig(max_updates=1)
        server = Server(StudentNet(width=0.25, seed=0), teacher, cfg)
        assert server.teacher_reads_label is sends_label
        seen = []
        handle = server.handle_key_frame
        server.handle_key_frame = lambda frame, label=None: (
            seen.append(label), handle(frame, label))[1]
        client = Client(StudentNet(width=0.25, seed=0), server, cfg)
        frame, label = key_frame()
        client.run([(frame, label)])
        assert [got is not None for got in seen] == [sends_label]


def _mixed_session_config():
    """A 48-frame ``moving-people`` session whose key frames train
    4, 4, ..., 0, 3, 0 steps: trained and zero-step interleaved."""
    return SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.6, min_stride=4, max_stride=16),
        student_width=0.25, pretrain_steps=16,
    )


def _run_mixed(config):
    video = make_category_video(CATEGORY_BY_KEY["moving-people"], height=32, width=48)
    return run_shadowtutor(video, 48, config)


class TestOverARealSocket:
    def test_mixed_session_is_bit_identical_and_zero_step_replies_are_38_bytes(
        self, monkeypatch
    ):
        config = _mixed_session_config()
        inproc = _run_mixed(config)
        steps = [k.steps for k in inproc.key_frames]
        assert 0 in steps[1:-1] and steps[-2] > 0, steps  # interleaved

        student = StudentNet(width=config.student_width)
        partial_freeze(student)
        full_diff = wire.encoded_nbytes(
            ServerReply(state_dict_diff(student), 0.0, 1, 0.0)
        )

        replies = []  # (reply, the bytes it took off the socket)
        decode = wire.decode_tagged

        def measuring(buf):
            session, msg = decode(buf)
            if isinstance(msg, ServerReply):
                replies.append((msg, len(buf)))
            return session, msg

        handle = start_server(transport="socket", n_clients=1, idle_timeout_s=60)
        monkeypatch.setattr(wire, "decode_tagged", measuring)
        try:
            remote = _run_mixed(dataclasses.replace(config, attach=handle.ticket()))
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        assert remote.signature() == inproc.signature()
        assert [r.steps for r, _ in replies] == steps
        for reply, nbytes in replies:
            assert nbytes == (full_diff if reply.steps else REPLY_HEADER_BYTES)
            assert bool(reply.update) == (reply.steps > 0)

    def test_a_neural_teacher_session_sends_no_label(self, monkeypatch):
        config = dataclasses.replace(
            _mixed_session_config(), teacher_arch="neural", teacher_width=8
        )
        video = make_category_video(CATEGORY_BY_KEY["moving-people"], height=32, width=48)
        frames = list(video.frames(12))
        inproc = build_session(config, (32, 48)).run(frames)

        labels = []
        original = MuxRemoteServer.handle_key_frame

        def recording(self, frame, label=None):
            labels.append(label)
            return original(self, frame, label)

        monkeypatch.setattr(MuxRemoteServer, "handle_key_frame", recording)
        handle = start_server(transport="socket", n_clients=1, idle_timeout_s=60)
        try:
            client = build_session(
                dataclasses.replace(config, attach=handle.ticket()), (32, 48)
            )
            assert client.server.teacher_reads_label is False
            try:
                remote = client.run(frames)
            finally:
                client.server.close()
        finally:
            handle.close()
        assert labels and all(label is None for label in labels)
        assert remote.signature() == inproc.signature()
