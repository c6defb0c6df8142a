"""Micro-benchmarks of the computational kernels (real wall-clock).

These are honest pytest-benchmark timings of the NumPy substrate:
student inference, one partial vs full distillation step, convolution
forward/backward, the engine kernels the distill step spends its time in
(``micro-engine``: named baselines finer than a whole-step number), and
frame rendering.  They establish the cost model
behind the simulated latencies and verify the partial-distillation
speed claim on real hardware: a partial backward must be measurably
cheaper than a full one.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.conv import conv2d
from repro.distill.config import DistillConfig, DistillMode
from repro.distill.trainer import StudentTrainer
from repro.engine.kernels import ConvStep, Layout, Upsample2xStep
from repro.models.student import StudentNet, partial_freeze
from repro.nn.layers import Conv2d
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

H, W = 64, 96


@pytest.fixture(scope="module")
def frame_label():
    video = make_category_video(CATEGORY_BY_KEY["fixed-people"], height=H, width=W)
    return next(iter(video.frames(1)))


@pytest.mark.benchmark(group="micro-inference")
def test_student_inference_latency(benchmark, frame_label):
    frame, _ = frame_label
    student = StudentNet(width=0.5, seed=0)
    benchmark(student.predict, frame)


@pytest.mark.benchmark(group="micro-inference")
def test_render_frame(benchmark):
    video = make_category_video(CATEGORY_BY_KEY["moving-street"], height=H, width=W)
    frames = video.frames(10**9)
    benchmark(lambda: next(frames))


@pytest.mark.benchmark(group="micro-distill")
def test_partial_distill_step(benchmark, frame_label):
    frame, label = frame_label
    student = StudentNet(width=0.5, seed=0)
    trainer = StudentTrainer(
        student, DistillConfig(mode=DistillMode.PARTIAL, max_updates=1,
                               threshold=0.999)
    )
    benchmark(trainer.train, frame, label)


@pytest.mark.benchmark(group="micro-distill")
def test_full_distill_step(benchmark, frame_label):
    frame, label = frame_label
    student = StudentNet(width=0.5, seed=0)
    trainer = StudentTrainer(
        student, DistillConfig(mode=DistillMode.FULL, max_updates=1,
                               threshold=0.999)
    )
    benchmark(trainer.train, frame, label)


@pytest.mark.benchmark(group="micro-conv")
def test_conv_forward(benchmark):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 32, H // 4, W // 4)).astype(np.float32))
    w = Tensor(rng.normal(size=(32, 32, 3, 3)).astype(np.float32))
    benchmark(conv2d, x, w, None, 1, (1, 1))


@pytest.mark.benchmark(group="micro-conv")
def test_conv_forward_backward(benchmark):
    rng = np.random.default_rng(0)

    def step():
        x = Tensor(rng.normal(size=(1, 32, H // 4, W // 4)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(32, 32, 3, 3)).astype(np.float32),
                   requires_grad=True)
        out = conv2d(x, w, None, 1, (1, 1))
        (out * out).sum().backward()

    benchmark(step)


def _kernel_case(make, in_shape):
    """One engine kernel, ``make(layout)``, laid out on its own, with
    random activations and out-gradient: ``(forward, backward)`` thunks
    over its own env / gradient table."""
    layout = Layout()
    step = make(layout)
    layout.allocate()
    rng = np.random.default_rng(0)
    env = [rng.normal(size=in_shape).astype(np.float32), None]
    gbufs = [np.zeros(in_shape, np.float32),
             rng.normal(size=step.out_shape).astype(np.float32)]
    step.forward(env)
    return (lambda: step.forward(env)), (lambda: step.backward(env, gbufs))


@pytest.fixture(scope="module")
def upsample_case():
    """The student's last upsample at 96x144: 12 x 48 x 72 -> 12 x 96 x 144."""
    shape = (1, 12, 48, 72)
    return _kernel_case(lambda layout: Upsample2xStep(0, 1, shape, True, layout), shape)


@pytest.fixture(scope="module")
def out2_case():
    """out2 at 96x144, width 0.5: 3x3, 12 -> 8 channels, fused ReLU."""
    shape = (1, 12, 96, 144)
    module = Conv2d(12, 8, 3, rng=np.random.default_rng(0))
    return _kernel_case(
        lambda layout: ConvStep(module, 0, 1, shape, True, True, layout), shape
    )


@pytest.mark.benchmark(group="micro-engine")
def test_upsample2x_step_forward(benchmark, upsample_case):
    benchmark(upsample_case[0])


@pytest.mark.benchmark(group="micro-engine")
def test_upsample2x_step_backward(benchmark, upsample_case):
    benchmark(upsample_case[1])


@pytest.mark.benchmark(group="micro-engine")
def test_conv_step_out2_forward(benchmark, out2_case):
    benchmark(out2_case[0])


@pytest.mark.benchmark(group="micro-engine")
def test_conv_step_out2_backward(benchmark, out2_case):
    benchmark(out2_case[1])


def test_partial_backward_cheaper_than_full(frame_label):
    """The section 4.2 latency claim, measured on this machine."""
    import time

    frame, label = frame_label

    def measure(mode):
        student = StudentNet(width=0.5, seed=0)
        if mode is DistillMode.PARTIAL:
            partial_freeze(student)
        trainer = StudentTrainer(
            student, DistillConfig(mode=mode, max_updates=3, threshold=0.999)
        )
        t0 = time.perf_counter()
        trainer.train(frame, label)
        return time.perf_counter() - t0

    measure(DistillMode.PARTIAL)  # warm caches
    t_partial = min(measure(DistillMode.PARTIAL) for _ in range(3))
    t_full = min(measure(DistillMode.FULL) for _ in range(3))
    assert t_partial < t_full
