"""The ShadowTutor student network (paper Figure 3).

Figure 3a defines a *student block* as BatchNorm -> Conv3x3 -> Conv3x1
-> Conv1x3 -> Conv1x1 with a residual connection.  Figure 3b composes:

    in1 -> in2 -> SB1 -> SB2 -> SB3 -> SB4 -> SB5 -> SB6 -> out1 -> out2 -> out3

with the low-resolution feature maps of SB2 and SB1 concatenated to the
inputs of SB5 and SB6 respectively, and a 9-channel output (8 LVS
classes + background).  The paper's student has 0.48 M parameters at
720p; our default width multiplier reproduces the same topology at a
scale a CPU-only box can train online (a ``width`` of 1.0 gives the
paper-sized network).

Spatial layout: in1 and in2 each downsample by 2 (so SB1..SB6 operate at
1/4 resolution, keeping temporal-coherence-relevant context cheap), and
the head upsamples back to full resolution between out1/out2/out3.

The partial-distillation freeze point (section 4.2 / 5.2) is "from the
first layer through SB4": :func:`partial_freeze` freezes exactly those
modules, leaving SB5, SB6 and the out convs trainable — about 21% of
parameters at the default width, matching the paper's 21.4%.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.layers import BatchNorm2d, Conv2d
from repro.nn.module import Module
from repro.segmentation.classes import class_map

#: Channel plan loosely following Figure 3b's annotations
#: (8, 64, 64, 128, ..., 128, 96, 32, 32, 9), scaled by ``width``.
_BASE_CHANNELS = {
    "in1": 16,
    "in2": 24,
    "sb1": 32,
    "sb2": 48,
    "sb3": 64,
    "sb4": 64,
    "sb5": 48,
    "sb6": 32,
    "out1": 24,
    "out2": 16,
}


class StudentBlock(Module):
    """Figure 3a: BN -> 3x3 -> 3x1 -> 1x3 -> 1x1 with residual add.

    The residual projection is a 1x1 conv when the channel count
    changes, identity otherwise.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        # Per-frame statistics at inference too (see BatchNorm2d).
        self.bn = BatchNorm2d(in_channels)
        self.conv3x3 = Conv2d(in_channels, out_channels, 3, rng=rng)
        self.conv3x1 = Conv2d(out_channels, out_channels, (3, 1), rng=rng)
        self.conv1x3 = Conv2d(out_channels, out_channels, (1, 3), rng=rng)
        self.conv1x1 = Conv2d(out_channels, out_channels, 1, rng=rng)
        if in_channels != out_channels:
            self.project = Conv2d(in_channels, out_channels, 1, bias=False, rng=rng)
        else:
            self.project = None

    def forward(self, x: Tensor) -> Tensor:
        y = self.bn(x)
        y = self.conv3x3(y).relu()
        y = self.conv3x1(y).relu()
        y = self.conv1x3(y).relu()
        y = self.conv1x1(y)
        residual = self.project(x) if self.project is not None else x
        return (y + residual).relu()


class StudentNet(Module):
    """The full student of Figure 3b.

    Parameters
    ----------
    num_classes:
        Output channels (9 for LVS: 8 classes + background).
    width:
        Multiplier on the channel plan.  1.0 reproduces the paper-sized
        ~0.5 M-parameter student; the experiment default of 0.5 keeps
        online distillation fast on CPU while preserving topology.
    """

    def __init__(
        self,
        num_classes: int = 9,
        width: float = 1.0,
        in_channels: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        c = {k: max(4, int(round(v * width))) for k, v in _BASE_CHANNELS.items()}
        self.num_classes = num_classes
        self.width = width

        # Front-end (frozen under partial distillation).
        self.in1 = Conv2d(in_channels, c["in1"], 3, stride=2, rng=rng)
        self.in2 = Conv2d(c["in1"], c["in2"], 3, stride=2, rng=rng)
        self.sb1 = StudentBlock(c["in2"], c["sb1"], rng=rng)
        self.sb2 = StudentBlock(c["sb1"], c["sb2"], rng=rng)
        self.sb3 = StudentBlock(c["sb2"], c["sb3"], rng=rng)
        self.sb4 = StudentBlock(c["sb3"], c["sb4"], rng=rng)

        # Back-end (trainable under partial distillation).  SB5 sees
        # SB4 concat SB2; SB6 sees SB5 concat SB1 (Figure 3b skips).
        self.sb5 = StudentBlock(c["sb4"] + c["sb2"], c["sb5"], rng=rng)
        self.sb6 = StudentBlock(c["sb5"] + c["sb1"], c["sb6"], rng=rng)
        self.out1 = Conv2d(c["sb6"], c["out1"], 3, rng=rng)
        self.out2 = Conv2d(c["out1"], c["out2"], 3, rng=rng)
        self.out3 = Conv2d(c["out2"], num_classes, 1, rng=rng)

    #: Module names belonging to the frozen front-end (through SB4).
    FRONT_MODULES: Tuple[str, ...] = ("in1", "in2", "sb1", "sb2", "sb3", "sb4")
    #: Module names belonging to the trainable back-end.
    BACK_MODULES: Tuple[str, ...] = ("sb5", "sb6", "out1", "out2", "out3")

    @staticmethod
    def check_frame_hw(height: int, width: int) -> None:
        """Raise ``ValueError`` unless the student runs at ``height x
        width``: two stride-2 convs go down and two 2x upsamples come
        back, so both must be positive multiples of 4."""
        if height < 1 or width < 1 or height % 4 or width % 4:
            raise ValueError(
                f"frame geometry {height}x{width}: the student runs only "
                "at positive multiples of 4"
            )

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 3:
            x = x.reshape(1, *x.shape)
        return self.forward_back(*self.forward_front(x))

    def forward_front(self, x: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        """Frozen-front forward (in1..SB4); returns every feature map the
        back-end consumes (SB1 and SB2 feed the Figure-3b skips).

        Under partial distillation these activations are constant across
        a key frame's optimisation steps, so the trainer computes them
        once and reuses them (freeze-boundary activation caching).
        """
        self.check_frame_hw(*x.shape[-2:])
        f1 = self.in1(x).relu()          # 1/2 res
        f2 = self.in2(f1).relu()         # 1/4 res
        s1 = self.sb1(f2)
        s2 = self.sb2(s1)
        s3 = self.sb3(s2)
        s4 = self.sb4(s3)
        return s1, s2, s4

    def forward_back(self, s1: Tensor, s2: Tensor, s4: Tensor) -> Tensor:
        """Trainable back-end forward (SB5..out3) from front features."""
        s5 = self.sb5(Tensor.concat([s4, s2], axis=1))
        s6 = self.sb6(Tensor.concat([s5, s1], axis=1))
        y = self.out1(s6.upsample2x()).relu()   # 1/2 res
        y = self.out2(y.upsample2x()).relu()    # full res
        return self.out3(y)

    # ------------------------------------------------------------------
    # Compiled-engine integration
    # ------------------------------------------------------------------
    def _engine_fns(self):
        """Traced callables by plan kind (see :meth:`Module.engine_plan`):
        the base ``"forward"`` plus ``"front"`` / ``"back"`` (either
        side of the freeze boundary) and ``"train_back"`` /
        ``"train_full"`` (fused train steps)."""
        return {
            "forward": self.forward,
            "front": self.forward_front,
            "back": self.forward_back,
            "train_back": self.forward_back,
            "train_full": self.forward,
        }

    def predict(self, frame: np.ndarray) -> np.ndarray:
        """Segment one ``(3, H, W)`` frame -> ``(H, W)`` class indices.

        Non-key-frame inference is the client's hot loop: the compiled
        forward plan, zero Tensor allocation (:meth:`Module.run_plan`).
        """
        (logits,) = self.run_plan("forward", frame[None] if frame.ndim == 3 else frame)
        return class_map(logits)


def partial_freeze(student: StudentNet) -> float:
    """Apply the paper's partial-distillation freezing (through SB4).

    Returns the trainable fraction (paper: 21.4% of parameters).
    """
    student.unfreeze()
    front = set(StudentNet.FRONT_MODULES)
    student.freeze_where(lambda name: name.split(".", 1)[0] in front)
    return student.trainable_fraction()
