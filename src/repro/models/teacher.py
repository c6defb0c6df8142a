"""Teacher models.

The paper's teacher is Mask R-CNN (44.34 M parameters, ~100x the
student).  Two stand-ins are provided:

* :class:`OracleTeacher` — the default for the evaluation harness.  The
  LVS dataset was labelled *by* Mask R-CNN and the paper measures
  accuracy against the teacher's output, so the teacher is, in effect,
  the label function of the stream.  The oracle returns the renderer's
  ground-truth label, optionally corrupted near object boundaries to
  model the teacher's own imperfection.

* :class:`TeacherNet` — a real (larger) FCN for tests that must
  exercise a neural teacher end-to-end, e.g. the soft-target
  distillation extension.  It is ~10-100x the default student's size
  depending on width.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np
from scipy import ndimage

from repro.autograd.tensor import Tensor
from repro.nn.layers import BatchNorm2d, Conv2d, ReLU, Sequential
from repro.nn.module import Module


class Teacher(Protocol):
    """Anything that can turn a frame into a pseudo-label.

    The student "is only interested in the final output of the teacher,
    regardless of all the intermediate operations" (paper section 6) —
    so the interface is a single method.
    """

    def infer(self, frame: np.ndarray, label: Optional[np.ndarray] = None) -> np.ndarray:
        """Return an ``(H, W)`` integer pseudo-label for a ``(3, H, W)`` frame."""
        ...


class OracleTeacher:
    """Teacher that knows the renderer's ground truth.

    ``boundary_noise`` flips a fraction of pixels within a 1-pixel band
    of object boundaries to the background class, modelling mask edge
    errors typical of Mask R-CNN output.  With the default of 0 the
    oracle is exact, which matches the paper's effective protocol
    (accuracy is measured against the teacher output itself).
    """

    #: Modelled inference latency (seconds) — paper Table 1: t_ti = 0.044.
    latency: float = 0.044

    def __init__(self, boundary_noise: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= boundary_noise <= 1.0:
            raise ValueError("boundary_noise must be in [0, 1]")
        self.boundary_noise = boundary_noise
        self._rng = np.random.default_rng(seed)

    def infer(self, frame: np.ndarray, label: Optional[np.ndarray] = None) -> np.ndarray:
        if label is None:
            raise ValueError(
                "OracleTeacher needs the renderer label; use TeacherNet for "
                "label-free inference"
            )
        if self.boundary_noise == 0.0:
            return label.copy()
        out = label.copy()
        fg = label > 0
        boundary = fg ^ ndimage.binary_erosion(fg)
        flip = boundary & (self._rng.random(label.shape) < self.boundary_noise)
        out[flip] = 0
        return out


class TeacherNet(Module):
    """A larger fully-convolutional segmentation network.

    Encoder-decoder with twice the student's depth and ``width`` times
    its channels; the ``teacher_arch="neural"`` sessions' label source.
    Inference only — the teacher is never trained at system runtime
    (only the student copy is, Algorithm 3).
    """

    def __init__(
        self,
        num_classes: int = 9,
        width: int = 48,
        in_channels: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        w = width
        self.num_classes = num_classes
        self.enc1 = Sequential(
            Conv2d(in_channels, w, 3, stride=2, rng=rng), BatchNorm2d(w), ReLU(),
            Conv2d(w, w, 3, rng=rng), BatchNorm2d(w), ReLU(),
        )
        self.enc2 = Sequential(
            Conv2d(w, 2 * w, 3, stride=2, rng=rng), BatchNorm2d(2 * w), ReLU(),
            Conv2d(2 * w, 2 * w, 3, rng=rng), BatchNorm2d(2 * w), ReLU(),
        )
        self.mid = Sequential(
            Conv2d(2 * w, 4 * w, 3, rng=rng), BatchNorm2d(4 * w), ReLU(),
            Conv2d(4 * w, 2 * w, 3, rng=rng), BatchNorm2d(2 * w), ReLU(),
        )
        self.dec1 = Sequential(
            Conv2d(2 * w, w, 3, rng=rng), BatchNorm2d(w), ReLU(),
        )
        self.dec2 = Sequential(
            Conv2d(w, w, 3, rng=rng), BatchNorm2d(w), ReLU(),
        )
        self.head = Conv2d(w, num_classes, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 3:
            x = x.reshape(1, *x.shape)
        y = self.enc1(x)
        y = self.enc2(y)
        y = self.mid(y)
        y = self.dec1(y.upsample2x())
        y = self.dec2(y.upsample2x())
        return self.head(y)

    def infer(self, frame: np.ndarray, label: Optional[np.ndarray] = None) -> np.ndarray:
        """Argmax segmentation of one frame (label ignored; Teacher protocol).

        Neural-teacher inference is the server's per-key-frame cost, so
        it runs the compiled forward plan like the student's predict
        (:meth:`Module.run_plan`).
        """
        (logits,) = self.run_plan("forward", frame[None] if frame.ndim == 3 else frame)
        return logits.argmax(axis=1)[0]

    def _engine_fns(self):
        fns = super()._engine_fns()
        fns["soft"] = self._soft_forward
        return fns

    def _soft_forward(self, x: Tensor) -> Tensor:
        from repro.autograd import functional as F

        return F.softmax(self.forward(x), axis=1)

    def soft_infer(self, frame: np.ndarray) -> np.ndarray:
        """Class-probability output for soft-target distillation (section 7).

        Like :meth:`infer`, a compiled plan — the forward chain plus
        the softmax head kernel.  Plan buffers are reused on the next
        run, so the result is handed back as owned memory.
        """
        (probs,) = self.run_plan("soft", frame[None] if frame.ndim == 3 else frame)
        return probs[0].copy()
