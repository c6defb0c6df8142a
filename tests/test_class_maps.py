"""Class maps are one byte per pixel, end to end.

Every producer of a class map — the renderer's ground truth, both
teachers, the student's predict and the trainer's metric predict —
returns ``uint8``, so a key frame's label crosses the wire at one byte
per pixel.  The label values are what every consumer reads, never their
width: the property tests below build each map as int64 and as uint8
and require every loss, gradient, weight map, IoU and training outcome
to be byte-equal.
"""

import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.autograd.functional import cross_entropy_forward, cross_entropy_vjp
from repro.distill import trainer as trainer_module
from repro.distill.config import DistillConfig
from repro.distill.trainer import StudentTrainer
from repro.models.student import StudentNet
from repro.models.teacher import OracleTeacher, TeacherNet
from repro.nn.serialize import array_wire_nbytes, state_dict_digest
from repro.segmentation.boundary import boundary_mask
from repro.segmentation.classes import NUM_CLASSES, class_map
from repro.segmentation.losses import lvs_weight_map, weighted_cross_entropy
from repro.segmentation.metrics import mean_iou
from repro.transport import wire
from repro.transport.socket import SocketTransport
from repro.video.generator import SyntheticVideo, VideoConfig
from repro.video.render import render_scene


def _rendered(h, w, seed=3):
    video = SyntheticVideo(VideoConfig(seed=seed, height=h, width=w))
    return next(iter(video.frames(1)))


def _both_dtypes(h, w, seed, background):
    """One random 0-8 class map (``background`` of it class 0, in
    expectation) as ``(int64, uint8)``."""
    rng = np.random.default_rng(seed)
    classes = rng.integers(1, NUM_CLASSES, size=(h, w))
    wide = np.where(rng.random((h, w)) < background, 0, classes).astype(np.int64)
    return wide, wide.astype(np.uint8)


_maps = dict(
    hw=st.sampled_from([(64, 96), (96, 144)]),
    seed=st.integers(0, 2**32 - 1),
    background=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
)


class TestLabelDtypeChangesNoBit:
    @given(**_maps)
    @settings(max_examples=12, deadline=None)
    def test_loss_head_weights_boundary_and_iou(self, hw, seed, background):
        h, w = hw
        wide, narrow = _both_dtypes(h, w, seed, background)
        rng = np.random.default_rng(seed + 1)
        logits = rng.normal(size=(1, NUM_CLASSES, h, w)).astype(np.float32)

        weights = lvs_weight_map(wide)
        assert weights.tobytes() == lvs_weight_map(narrow).tobytes()
        assert boundary_mask(wide).tobytes() == boundary_mask(narrow).tobytes()
        pred = class_map(logits)
        assert mean_iou(pred, wide) == mean_iou(pred, narrow)
        assert mean_iou(wide, pred) == mean_iou(narrow, pred)

        def shared(label):
            """The loss and its vjp as the compiled step calls them."""
            shifted, exp, softmax = (np.empty_like(logits) for _ in range(3))
            loss, saved = cross_entropy_forward(
                logits, label[None], weights, shifted, exp, softmax
            )
            grad = np.empty_like(logits)
            cross_entropy_vjp(1.0, softmax, saved, np.empty_like(logits), grad)
            return loss.tobytes(), grad.tobytes()

        def reference(label):
            x = Tensor(logits.copy(), requires_grad=True)
            loss = weighted_cross_entropy(x, label)
            loss.backward()
            return loss.data.tobytes(), x.grad.tobytes()

        def oracle(label):
            """The same loss in fancy indexing: no take / put along axis."""
            shifted = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            denom = exp.sum(axis=1, keepdims=True)
            logp = shifted - np.log(denom)
            rows, cols = np.indices((h, w))
            norm = float(weights.sum())
            loss = np.asarray(
                -(logp[0, label, rows, cols] * weights).sum() / norm, dtype=np.float32
            )
            g = np.zeros_like(logits)
            g[0, label, rows, cols] = -weights / norm
            grad = g - (exp / denom) * g.sum(axis=1, keepdims=True)
            return loss.tobytes(), grad.tobytes()

        want = oracle(wide)
        assert oracle(narrow) == want
        assert shared(wide) == shared(narrow) == want
        assert reference(wide) == reference(narrow) == want

    @given(**_maps)
    @settings(max_examples=6, deadline=None)
    def test_one_train_call(self, hw, seed, background):
        """A whole Algorithm 1 call: same result, same weights after."""
        h, w = hw
        frame, _ = _rendered(h, w, seed=seed % 1000)
        outcomes = []
        for label in _both_dtypes(h, w, seed, background):
            student = StudentNet(width=0.25, seed=0)
            result = StudentTrainer(
                student, DistillConfig(threshold=0.999, max_updates=2)
            ).train(frame, label)
            outcomes.append((result, state_dict_digest(student.state_dict())))
        assert outcomes[0] == outcomes[1]


class TestClassMapsAreOneByte:
    def test_every_producer_returns_uint8(self):
        video = SyntheticVideo(VideoConfig(seed=3, height=32, width=48))
        frame, label = render_scene(video.scene, 32, 48)
        assert label.dtype == np.uint8 and label.any()
        for noise in (0.0, 0.5):
            assert OracleTeacher(boundary_noise=noise).infer(frame, label).dtype == np.uint8
        assert TeacherNet(width=8, seed=0).infer(frame).dtype == np.uint8
        student = StudentNet(width=0.25, seed=0)
        assert student.predict(frame).dtype == np.uint8
        runner = trainer_module.make_step_runner(student, frame[None], label[None], None)
        assert runner.predict().dtype == np.uint8

    def test_class_map_is_the_argmax(self, rng):
        logits = rng.normal(size=(1, NUM_CLASSES, 8, 12)).astype(np.float32)
        out = class_map(logits)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, logits.argmax(axis=1)[0])

    def test_256_classes_fit_and_257_raise(self):
        logits = np.zeros((1, 256, 2, 2), np.float32)
        logits[0, 255] = 1.0
        assert (class_map(logits) == 255).all()
        with pytest.raises(ValueError, match="257 classes"):
            class_map(np.zeros((1, 257, 2, 2), np.float32))

    def test_a_key_frame_uploads_one_byte_per_label_pixel(self):
        """At 96x144 the label is 13 824 bytes of a FRAME whose length
        the encoder and a real socket agree on."""
        frame, label = _rendered(96, 144)
        message = (frame, label)
        label_framing = array_wire_nbytes(label) - 96 * 144
        assert label.nbytes == 13_824
        expected = (wire.HEADER_NBYTES + 1 + array_wire_nbytes(frame)
                    + 13_824 + label_framing)
        assert wire.encoded_nbytes(message) == expected == 179_773
        assert wire.payload_nbytes(message) == frame.nbytes + 13_824

        sender, receiver = socket.socketpair()
        endpoint = SocketTransport(sender, timeout_s=10.0)

        def send():
            try:
                endpoint.send(message, 0)
            finally:
                endpoint.close()

        writer = threading.Thread(target=send)
        writer.start()
        received = bytearray()
        with receiver:
            receiver.settimeout(10.0)
            while chunk := receiver.recv(1 << 16):
                received += chunk
        writer.join(timeout=10.0)
        assert not writer.is_alive()
        assert len(received) == expected
        decoded_frame, decoded_label = wire.decode(received)
        assert decoded_label.dtype == np.uint8
        assert decoded_label.tobytes() == label.tobytes()
        assert decoded_frame.tobytes() == frame.tobytes()
