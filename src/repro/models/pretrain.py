"""Pre-training ("public education", paper section 4.1.3).

The paper pre-trains the student on COCO for 30 epochs before
deployment; pre-training "can be expensive, but it is a one-time cost".
Our synthetic equivalent draws random scenes spanning all sceneries and
camera styles — a generic corpus none of whose exact streams appear at
evaluation time — and trains with the weighted cross-entropy.

A deliberately *small* pre-training budget reproduces the paper's
"Wild" condition (Table 6): the student is too small to generalise, so
without shadow education it scores near random guessing on any given
stream, yet the same checkpoint adapts quickly under online
distillation.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, List, Tuple

import numpy as np

from repro.engine import plan_cache
from repro.models.student import StudentNet
from repro.nn.optim import Adam
from repro.segmentation.losses import lvs_weight_map
from repro.segmentation.metrics import mean_iou
from repro.video.dataset import SCENERY_CLASSES
from repro.video.generator import SyntheticVideo, VideoConfig
from repro.video.scene import CameraModel


@dataclasses.dataclass
class PretrainResult:
    """Summary of a pre-training run."""

    steps: int
    final_loss: float
    final_miou: float
    loss_history: List[float]


def generic_corpus(
    height: int = 64,
    width: int = 96,
    seed: int = 1234,
) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
    """Endless stream of frames from randomly parameterised scenes.

    Each scene contributes a short burst of frames before a new scene is
    drawn, so the corpus covers many appearances without long temporal
    correlation — the synthetic analogue of an image dataset like COCO.
    """
    rng = np.random.default_rng(seed)
    sceneries = list(SCENERY_CLASSES)
    cameras = list(CameraModel)
    while True:
        scenery = sceneries[rng.integers(len(sceneries))]
        config = VideoConfig(
            name="corpus",
            height=height,
            width=width,
            camera=cameras[rng.integers(len(cameras))],
            class_pool=SCENERY_CLASSES[scenery],
            num_objects=int(rng.integers(1, 6)),
            speed=float(rng.uniform(0.2, 1.2)),
            texture_drift=float(rng.uniform(0.005, 0.06)),
            background_drift=float(rng.uniform(0.001, 0.01)),
            seed=int(rng.integers(2**31)),
        )
        video = SyntheticVideo(config)
        yield from video.frames(4)


def pretrain_student(
    student: StudentNet,
    steps: int = 60,
    lr: float = 3e-3,
    height: int = 64,
    width: int = 96,
    seed: int = 1234,
    eval_frames: int = 8,
) -> PretrainResult:
    """Pre-train a student on the generic corpus.

    The default budget is intentionally modest: enough for the network
    to learn generic texture/class priors, not enough to excel on any
    particular stream (the "Wild" condition).
    """
    # The steps run on the trainer's step runner; imported here because
    # distill/ builds on models/, whose package imports this module.
    from repro.distill.trainer import make_step_runner

    # The train plan is this call's own and dies with it: no
    # partial-mode session asks for a full-mode step at this geometry
    # again, and one left in the process-wide cache stays resident here
    # and in every forked server.
    own_plan = functools.cache(functools.partial(plan_cache.compile_transient, student))
    corpus = generic_corpus(height, width, seed)
    optimizer = Adam(student.trainable_parameters(), lr=lr)
    student.train()
    losses: List[float] = []
    for _ in range(steps):
        frame, label = next(corpus)
        x4, target = frame[None], label[None]
        runner = make_step_runner(student, x4, target, lvs_weight_map(target), own_plan)
        optimizer.zero_grad()
        losses.append(runner.step())
        optimizer.step()

    student.eval()
    mious = []
    for _ in range(eval_frames):
        frame, label = next(corpus)
        mious.append(mean_iou(student.predict(frame), label))
    student.train()
    return PretrainResult(
        steps=steps,
        final_loss=losses[-1] if losses else float("nan"),
        final_miou=float(np.mean(mious)),
        loss_history=losses,
    )
