"""Tests for the StudentNet architecture (paper Figure 3)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models.student import StudentBlock, StudentNet, partial_freeze


class TestStudentBlock:
    def test_output_shape_same_channels(self, rng):
        block = StudentBlock(8, 8, rng=rng)
        out = block(Tensor(rng.normal(size=(1, 8, 6, 6))))
        assert out.shape == (1, 8, 6, 6)

    def test_output_shape_channel_change(self, rng):
        block = StudentBlock(4, 12, rng=rng)
        out = block(Tensor(rng.normal(size=(1, 4, 6, 6))))
        assert out.shape == (1, 12, 6, 6)

    def test_projection_only_when_needed(self, rng):
        same = StudentBlock(8, 8, rng=rng)
        diff = StudentBlock(4, 8, rng=rng)
        assert same.project is None
        assert diff.project is not None

    def test_contains_paper_ops(self, rng):
        # Figure 3a: BN, 3x3, 3x1, 1x3, 1x1.
        block = StudentBlock(4, 4, rng=rng)
        assert block.conv3x3.kernel_size == (3, 3)
        assert block.conv3x1.kernel_size == (3, 1)
        assert block.conv1x3.kernel_size == (1, 3)
        assert block.conv1x1.kernel_size == (1, 1)

    def test_residual_path_carries_gradient(self, rng):
        block = StudentBlock(4, 4, rng=rng)
        # Zero out the conv path: output = relu(residual).
        for conv in (block.conv3x3, block.conv3x1, block.conv1x3, block.conv1x1):
            conv.weight.data[:] = 0.0
            conv.bias.data[:] = 0.0
        x = Tensor(np.abs(rng.normal(size=(1, 4, 4, 4))).astype(np.float32))
        out = block(x)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-5)


class TestStudentNet:
    @pytest.fixture(scope="class")
    def student(self):
        return StudentNet(width=0.25, seed=3)

    def test_output_shape_matches_input(self, student, rng):
        out = student(Tensor(rng.normal(size=(1, 3, 16, 24))))
        assert out.shape == (1, 9, 16, 24)

    def test_unbatched_input_promoted(self, student, rng):
        out = student(Tensor(rng.normal(size=(3, 16, 16))))
        assert out.shape == (1, 9, 16, 16)

    def test_rejects_indivisible_dims(self, student, rng):
        # forward_front too: the partial-mode front plan is traced on it
        # alone, and must not run where the back end cannot return to.
        for hw in ((14, 16), (30, 46), (0, 16)):
            with pytest.raises(ValueError, match="multiples of 4"):
                StudentNet.check_frame_hw(*hw)
            for run in (student, student.forward_front):
                with pytest.raises(ValueError, match="multiples of 4"):
                    run(Tensor(rng.normal(size=(1, 3, *hw))))

    def test_width_scales_parameters(self):
        small = StudentNet(width=0.25).num_parameters()
        large = StudentNet(width=1.0).num_parameters()
        assert large > 4 * small

    def test_paper_width_parameter_count(self):
        # Paper: ~0.48 M params; same order of magnitude at width 1.0.
        n = StudentNet(width=1.0).num_parameters()
        assert 2e5 < n < 2e6

    def test_front_back_partition_complete(self):
        names = set(StudentNet.FRONT_MODULES) | set(StudentNet.BACK_MODULES)
        student = StudentNet(width=0.25)
        top_level = {n.split(".", 1)[0] for n, _ in student.named_parameters()}
        assert top_level == names

    def test_predict_returns_class_map(self, student, rng):
        frame = rng.normal(size=(3, 16, 16)).astype(np.float32)
        pred = student.predict(frame)
        assert pred.shape == (16, 16)
        assert pred.dtype == np.uint8
        assert (pred >= 0).all() and (pred < 9).all()

    def test_deterministic_given_seed(self, rng):
        a = StudentNet(width=0.25, seed=11)
        b = StudentNet(width=0.25, seed=11)
        frame = rng.normal(size=(3, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(a.predict(frame), b.predict(frame))


class TestPartialFreeze:
    def test_trainable_fraction_near_paper(self):
        # Paper: 21.4% of parameters trainable at the chosen freeze point.
        student = StudentNet(width=1.0)
        fraction = partial_freeze(student)
        assert 0.10 < fraction < 0.45

    def test_front_frozen_back_trainable(self):
        student = StudentNet(width=0.25)
        partial_freeze(student)
        for name, p in student.named_parameters():
            top = name.split(".", 1)[0]
            if top in StudentNet.FRONT_MODULES:
                assert p.frozen, name
            else:
                assert not p.frozen, name

    def test_refreeze_is_idempotent(self):
        student = StudentNet(width=0.25)
        f1 = partial_freeze(student)
        f2 = partial_freeze(student)
        assert f1 == f2

    def test_partial_backward_stops_at_boundary(self, rng):
        # After backward, no frozen parameter may hold a gradient and
        # every trainable one must.
        student = StudentNet(width=0.25)
        partial_freeze(student)
        out = student(Tensor(rng.normal(size=(1, 3, 16, 16))))
        (out**2).sum().backward()
        for name, p in student.named_parameters():
            if p.frozen:
                assert p.grad is None, name
            else:
                assert p.grad is not None, name

    def test_partial_backward_faster_than_full(self, rng):
        # The frozen front-end skips gradient work; wall-clock should
        # reflect it (generous margin to avoid flakiness).
        import time

        x = rng.normal(size=(1, 3, 32, 48))

        def time_backward(student):
            t0 = time.perf_counter()
            for _ in range(3):
                student.zero_grad()
                out = student(Tensor(x))
                (out**2).sum().backward()
            return time.perf_counter() - t0

        full = StudentNet(width=0.5, seed=0)
        full.unfreeze()
        t_full = time_backward(full)
        partial = StudentNet(width=0.5, seed=0)
        partial_freeze(partial)
        t_partial = time_backward(partial)
        assert t_partial < t_full * 1.05
