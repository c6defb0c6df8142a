"""Session orchestration: build all components and run one experiment.

These helpers are the top of the public API: give them a video and a
configuration and they return :class:`~repro.runtime.stats.RunStats`
with everything the paper's tables need.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.distill.config import DistillConfig, DistillMode
from repro.models.student import StudentNet
from repro.models.teacher import OracleTeacher, Teacher, TeacherNet
from repro.models.pretrain import pretrain_student
from repro.network.messages import MessageSizes
from repro.network.model import NetworkModel
from repro.nn.serialize import clone_state_dict
from repro.runtime.client import Client
from repro.runtime.clock import T_SI
from repro.runtime.naive import NaiveOffloadClient
from repro.runtime.stats import FrameRecord, RunStats
from repro.runtime.server import Server
from repro.segmentation.metrics import mean_iou
from repro.striding.baselines import StridePolicy
from repro.video.generator import SyntheticVideo


@dataclasses.dataclass
class SessionConfig:
    """Everything needed to run one ShadowTutor session."""

    distill: DistillConfig = dataclasses.field(default_factory=DistillConfig)
    network: NetworkModel = dataclasses.field(default_factory=NetworkModel)
    sizes: MessageSizes = dataclasses.field(default_factory=MessageSizes.paper)
    student_width: float = 0.5
    student_seed: int = 0
    pretrain_steps: int = 80
    forced_delay_frames: Optional[int] = None
    #: Which teacher the server half runs: ``"oracle"`` (default — the
    #: label function of the stream, see
    #: :class:`~repro.models.teacher.OracleTeacher`) or ``"neural"``
    #: (a real :class:`~repro.models.teacher.TeacherNet` FCN whose
    #: per-key-frame GEMMs are the serve-time cost the batched runtime
    #: amortises).  Teacher construction is deterministic from these
    #: three fields, so every process that holds the config builds the
    #: same teacher — that is what lets the spec cross process
    #: boundaries without pickling a model object.
    teacher_arch: str = "oracle"
    teacher_width: int = 48
    teacher_seed: int = 0
    #: ``None`` (default) keeps the server half in this process.
    #: Otherwise an attachment point on a running server process
    #: (:func:`repro.serving.runtime.start_server` — one process, any
    #: number of sessions): a ``SessionTicket`` from
    #: :meth:`ServerHandle.ticket` (shares the handle's connection —
    #: the pooled-client case) or a picklable ``SessionAddress`` from
    #: :meth:`ServerHandle.address` (dials its own connection — a
    #: standalone client process).  Either way ``build_session`` ships
    #: the session's blueprint (this config, or the one a ``ticket(i)``
    #: carries) over the wire in an ADMIT frame and the server
    #: instantiates it.  Simulated timing is identical in or out of
    #: process — the link moves the actual payloads, the
    #: discrete-event clock models the network.
    attach: Optional[object] = None


def build_teacher(config: SessionConfig) -> Teacher:
    """Construct the teacher a config describes — deterministically.

    The factory is the single place that maps the config's teacher
    fields to a model object, so the in-process path and the server
    runtime cannot drift: each rebuilds bit-identical teachers from the
    same three numbers.
    """
    if config.teacher_arch == "oracle":
        return OracleTeacher()
    if config.teacher_arch == "neural":
        return TeacherNet(width=config.teacher_width, seed=config.teacher_seed)
    raise ValueError(f"unknown teacher_arch: {config.teacher_arch!r}")


#: Cache of pre-trained student checkpoints keyed by (width, seed, steps,
#: height, width) — pre-training is "a one-time cost" (section 4.1.3)
#: and every experiment starts "from the same pre-trained student
#: checkpoint" (section 6).
_PRETRAINED_CACHE: dict = {}


def pretrained_student(
    width: float = 0.5,
    seed: int = 0,
    steps: int = 40,
    frame_hw: Tuple[int, int] = (64, 96),
) -> StudentNet:
    """Return a student loaded from the shared pre-trained checkpoint.

    A miss pre-trains inline (the compiled full-mode step; seconds at
    96x144, and whoever calls waits).  Every load deep-copies the
    checkpoint (``load_state_dict`` copies): many pooled sessions start
    from the same cache entry, and one mutating its weights in place
    must not corrupt the checkpoint every later session starts from.
    """
    key = (width, seed, steps, frame_hw)
    if key not in _PRETRAINED_CACHE:
        student = StudentNet(width=width, seed=seed)
        if steps > 0:
            pretrain_student(student, steps=steps, height=frame_hw[0], width=frame_hw[1])
        _PRETRAINED_CACHE[key] = clone_state_dict(student.state_dict())
    student = StudentNet(width=width, seed=seed)
    student.load_state_dict(_PRETRAINED_CACHE[key])
    return student


def build_session(
    config: SessionConfig,
    frame_hw: Tuple[int, int],
    teacher: Optional[Teacher] = None,
    stride_policy: Optional[StridePolicy] = None,
) -> Client:
    """Build one complete ShadowTutor session (server + client pair).

    The single factory behind :func:`run_shadowtutor`, the serving
    pool, and the perf benchmark — one place constructs sessions, so
    the pooled path cannot drift from the single-session path.  Two
    ways: with ``config.attach`` set the session is ADMITted on a
    running server process (:mod:`repro.serving.runtime`) and the pair
    speaks the wire protocol instead of a method call; otherwise both
    halves live here.  An attached client's proxy must be closed when
    done — ``client.server.close()`` ends the session (BYE);
    :meth:`SessionPool.run` and :func:`run_shadowtutor` do it.
    """
    if config.attach is not None:
        if teacher is not None:
            raise ValueError(
                "custom teacher objects cannot cross a process boundary; "
                "the server process rebuilds the teacher from the "
                "config's teacher fields (run in-process, attach=None, "
                "for custom teachers)"
            )
        from repro.serving.runtime import attach_session

        return attach_session(config, frame_hw, stride_policy)
    # Both server and client start from the same pre-trained checkpoint.
    server_student = pretrained_student(
        config.student_width, config.student_seed, config.pretrain_steps, frame_hw
    )
    client_student = pretrained_student(
        config.student_width, config.student_seed, config.pretrain_steps, frame_hw
    )
    teacher = teacher or build_teacher(config)
    server = Server(server_student, teacher, config.distill, config.sizes)
    return Client(
        client_student,
        server,
        config.distill,
        network=config.network,
        sizes=config.sizes,
        stride_policy=stride_policy,
        forced_delay_frames=config.forced_delay_frames,
    )


def run_shadowtutor(
    video: SyntheticVideo,
    num_frames: int,
    config: Optional[SessionConfig] = None,
    teacher: Optional[Teacher] = None,
    stride_policy: Optional[StridePolicy] = None,
    label: str = "",
) -> RunStats:
    """Run the full ShadowTutor system on ``num_frames`` of ``video``.

    This is literally the N = 1 case of the multi-session serving pool
    (:mod:`repro.serving`): one spec, one tick stream, no batching
    opportunities — the pool degenerates to the classic sequential
    client loop.
    """
    from repro.serving.pool import SessionPool, SessionSpec

    spec = SessionSpec(
        video=video,
        num_frames=num_frames,
        config=config,
        teacher=teacher,
        stride_policy=stride_policy,
        label=label,
    )
    return SessionPool([spec]).run().stats[0]


def run_naive(
    video: SyntheticVideo,
    num_frames: int,
    config: Optional[SessionConfig] = None,
    teacher: Optional[Teacher] = None,
    label: str = "naive",
) -> RunStats:
    """Run the naive-offloading baseline on the same stream."""
    config = config or SessionConfig()
    teacher = teacher or build_teacher(config)
    client = NaiveOffloadClient(
        teacher,
        network=config.network,
        sizes=config.sizes,
    )
    video.reset()
    return client.run(video.frames(num_frames), label=label)


def run_wild(
    video: SyntheticVideo,
    num_frames: int,
    config: Optional[SessionConfig] = None,
    label: str = "wild",
) -> RunStats:
    """Run the pre-trained student with no shadow education (Table 6, "Wild").

    Every frame is processed on-device with the unchanging pre-trained
    weights; no network traffic at all.
    """
    config = config or SessionConfig()
    hw = (video.config.height, video.config.width)
    student = pretrained_student(
        config.student_width, config.student_seed, config.pretrain_steps, hw
    )
    stats = RunStats(label=label)
    t = 0.0
    video.reset()
    for index, (frame, gt_label) in enumerate(video.frames(num_frames)):
        pred = student.predict(frame)
        t += T_SI
        stats.frames.append(
            FrameRecord(
                index=index,
                is_key=False,
                miou=mean_iou(pred, gt_label),
                sim_time=t,
                stride=0.0,
            )
        )
    stats.total_time_s = t
    return stats
