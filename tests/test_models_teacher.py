"""Tests for the teacher models (oracle and neural)."""

import numpy as np
import pytest

from repro.models.teacher import OracleTeacher, TeacherNet
from repro.models.student import StudentNet


class TestOracleTeacher:
    def test_exact_oracle_returns_label(self, rng):
        teacher = OracleTeacher()
        label = rng.integers(0, 9, size=(8, 8))
        out = teacher.infer(np.zeros((3, 8, 8)), label)
        np.testing.assert_array_equal(out, label)

    def test_returns_copy_not_view(self, rng):
        teacher = OracleTeacher()
        label = rng.integers(0, 9, size=(4, 4))
        out = teacher.infer(np.zeros((3, 4, 4)), label)
        out[0, 0] = 99
        assert label[0, 0] != 99

    def test_requires_label(self):
        with pytest.raises(ValueError):
            OracleTeacher().infer(np.zeros((3, 4, 4)))

    def test_idempotent(self, rng):
        teacher = OracleTeacher()
        label = rng.integers(0, 3, size=(8, 8))
        a = teacher.infer(np.zeros((3, 8, 8)), label)
        b = teacher.infer(np.zeros((3, 8, 8)), label)
        np.testing.assert_array_equal(a, b)


class TestTeacherNet:
    @pytest.fixture(scope="class")
    def teacher(self):
        return TeacherNet(width=8, seed=1)

    def test_output_shape(self, teacher, rng):
        from repro.autograd import Tensor

        out = teacher(Tensor(rng.normal(size=(1, 3, 16, 16))))
        assert out.shape == (1, 9, 16, 16)

    def test_infer_returns_class_map(self, teacher, rng):
        frame = rng.normal(size=(3, 16, 16)).astype(np.float32)
        pred = teacher.infer(frame)
        assert pred.shape == (16, 16)
        assert (pred >= 0).all() and (pred < 9).all()

    def test_infer_ignores_label(self, teacher, rng):
        frame = rng.normal(size=(3, 16, 16)).astype(np.float32)
        a = teacher.infer(frame)
        b = teacher.infer(frame, label=np.ones((16, 16), dtype=np.int64))
        np.testing.assert_array_equal(a, b)

    def test_teacher_larger_than_student(self):
        teacher = TeacherNet()  # default width
        student = StudentNet(width=0.5)
        ratio = teacher.num_parameters() / student.num_parameters()
        assert ratio > 5
