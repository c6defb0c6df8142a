"""Tests for state-dict serialization, diffing and byte accounting."""

import numpy as np
import pytest

from repro.distill.config import DistillConfig, DistillMode
from repro.models.student import StudentNet, partial_freeze
from repro.models.teacher import OracleTeacher
from repro.nn.serialize import (
    apply_state_dict,
    clone_state_dict,
    param_bytes,
    state_dict_bytes,
    state_dict_diff,
)
from repro.runtime.server import Server
from repro.transport import wire
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video


@pytest.fixture(scope="module")
def student():
    return StudentNet(width=0.25, seed=7)


class TestCloneAndBytes:
    def test_clone_is_deep(self, student):
        state = student.state_dict()
        cloned = clone_state_dict(state)
        key = next(iter(cloned))
        cloned[key] += 1.0
        assert not np.allclose(cloned[key], state[key])

    def test_param_bytes_float32(self):
        arrays = [np.zeros((2, 3), dtype=np.float32), np.zeros(5, dtype=np.float32)]
        assert param_bytes(arrays) == (6 + 5) * 4

    def test_state_dict_bytes_counts_everything(self, student):
        state = student.state_dict()
        assert state_dict_bytes(state) == sum(v.nbytes for v in state.values())


class TestDiff:
    def test_full_diff_contains_all_params(self, student):
        student.unfreeze()
        diff = state_dict_diff(student, trainable_only=False)
        param_names = {n for n, _ in student.named_parameters()}
        assert param_names <= set(diff)

    def test_partial_diff_excludes_frozen(self):
        student = StudentNet(width=0.25, seed=7)
        partial_freeze(student)
        diff = state_dict_diff(student, trainable_only=True)
        assert not any(name.startswith("in1") for name in diff)
        assert not any(name.startswith("sb4") for name in diff)
        assert any(name.startswith("sb5") for name in diff)
        assert any(name.startswith("out3") for name in diff)

    def test_partial_diff_smaller_than_full(self):
        student = StudentNet(width=0.25, seed=7)
        partial_freeze(student)
        partial = state_dict_bytes(state_dict_diff(student, trainable_only=True))
        student.unfreeze()
        full = state_dict_bytes(state_dict_diff(student, trainable_only=False))
        assert partial < 0.5 * full

    def test_diff_arrays_are_copies(self):
        student = StudentNet(width=0.25, seed=7)
        diff = state_dict_diff(student, trainable_only=False)
        name = next(iter(diff))
        diff[name] += 99.0
        assert not np.allclose(diff[name], dict(student.named_parameters())[name].data)


def _trained_reply(width, mode):
    """A served key frame that took one optimisation step."""
    video = make_category_video(CATEGORY_BY_KEY["moving-people"], height=32, width=48)
    video.reset()
    frame, label = next(iter(video.frames(1)))
    server = Server(StudentNet(width=width, seed=0), OracleTeacher(),
                    DistillConfig(mode=mode, threshold=0.999, max_updates=1))
    reply, _ = server.handle_key_frame(frame, label)
    assert reply.steps == 1
    return server, reply


class TestWhatAnUpdateCarries:
    @pytest.mark.parametrize("mode", [DistillMode.PARTIAL, DistillMode.FULL])
    def test_exactly_the_trained_parameters(self, mode):
        server, reply = _trained_reply(0.25, mode)
        trained = [n for n, p in server.student.named_parameters() if p.requires_grad]
        assert list(reply.update) == trained
        assert list(state_dict_diff(
            server.student, trainable_only=mode is DistillMode.PARTIAL
        )) == trained

    def test_width_half_partial_reply_is_115_978_bytes(self):
        """28 parameter arrays of SB5 onwards: 114 836 payload bytes, plus
        header, metrics and per-array framing."""
        _, reply = _trained_reply(0.5, DistillMode.PARTIAL)
        assert len(reply.update) == 28
        assert wire.encoded_nbytes(reply) == 115_978


class TestApply:
    def test_apply_partial_update(self):
        src = StudentNet(width=0.25, seed=7)
        dst = StudentNet(width=0.25, seed=7)
        partial_freeze(src)
        for p in src.trainable_parameters():
            p.data += 0.5
        update = state_dict_diff(src, trainable_only=True)
        apply_state_dict(dst, update)
        np.testing.assert_allclose(
            dst.sb5.conv1x1.weight.data, src.sb5.conv1x1.weight.data
        )
        # Frozen (front) part of dst untouched == identical seeds anyway.
        np.testing.assert_allclose(dst.in1.weight.data, src.in1.weight.data)

    def test_apply_unknown_key_raises(self, student):
        with pytest.raises(KeyError):
            apply_state_dict(student, {"nonexistent.weight": np.zeros(1)})

    def test_apply_shape_mismatch_raises(self, student):
        name = next(n for n, _ in student.named_parameters())
        with pytest.raises(ValueError):
            apply_state_dict(student, {name: np.zeros((1, 1, 1, 1))})

    def test_apply_then_predict_consistent(self, rng):
        # After applying the server's update the client must produce the
        # same predictions as the server's student.
        server = StudentNet(width=0.25, seed=7)
        client = StudentNet(width=0.25, seed=7)
        partial_freeze(server)
        for p in server.trainable_parameters():
            p.data += rng.normal(0, 0.05, size=p.data.shape).astype(np.float32)
        apply_state_dict(client, state_dict_diff(server, trainable_only=True))
        frame = rng.normal(size=(3, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(server.predict(frame), client.predict(frame))
