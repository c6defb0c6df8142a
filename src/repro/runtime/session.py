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
from repro.runtime.clock import LatencyModel
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
    latency: LatencyModel = dataclasses.field(default_factory=LatencyModel)
    network: NetworkModel = dataclasses.field(default_factory=NetworkModel)
    sizes: MessageSizes = dataclasses.field(default_factory=MessageSizes.paper)
    student_width: float = 0.5
    student_seed: int = 0
    pretrain_steps: int = 80
    forced_delay_frames: Optional[int] = None
    teacher_boundary_noise: float = 0.0
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
    #: Which registered transport carries the client/server protocol:
    #: ``"inproc"`` (default) keeps the server in-process as before;
    #: ``"pipe"`` / ``"shm"`` / ``"socket"`` spawn a *dedicated* server
    #: process and speak Algorithm 3 over the selected link (see
    #: ``repro.transport``).  Simulated timing is identical either way —
    #: the transport moves the actual payloads, the discrete-event
    #: clock models the link.
    transport: str = "inproc"
    #: Attachment point on a running *multiplexed* server (one server
    #: process, N clients — :mod:`repro.serving.runtime`): a
    #: ``SessionTicket`` from :meth:`ServerHandle.ticket` (shares the
    #: handle's connection — the pooled-client case) or a picklable
    #: ``SessionAddress`` from :meth:`ServerHandle.address` (dials its
    #: own connection — a standalone client process).  Either way
    #: ``build_session`` ships the session's blueprint (this config,
    #: or the one a ``ticket(i)`` carries) over the wire in an ADMIT
    #: frame and the server instantiates it.  Takes precedence over
    #: ``transport``, which describes spawning a dedicated server.
    attach: Optional[object] = None


def build_teacher(config: SessionConfig) -> Teacher:
    """Construct the teacher a config describes — deterministically.

    The factory is the single place that maps the config's teacher
    fields to a model object, so the in-process path, the dedicated
    server process, and the multiplexed runtime cannot drift: each
    rebuilds bit-identical teachers from the same three numbers.
    """
    if config.teacher_arch == "oracle":
        return OracleTeacher(config.teacher_boundary_noise)
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

    Every load deep-copies the checkpoint (``load_state_dict`` copies
    parameters, and ``set_buffer`` copies buffers — it used to alias
    them): many pooled sessions start from the same cache entry, and a
    session mutating its weights or running statistics in place must
    not corrupt the checkpoint every later session starts from.  The
    cache-isolation regression test pins this down.
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


def _remote_server_main(endpoint, config: SessionConfig, frame_hw) -> None:
    """Algorithm 3 in a spawned server process (any real transport).

    Builds the same deterministic server a local session would get —
    same pre-trained checkpoint, same teacher rebuilt from the config's
    teacher fields — so replies (and
    therefore the client's ``RunStats``) are identical to the
    in-process run.
    """
    student = pretrained_student(
        config.student_width, config.student_seed, config.pretrain_steps, frame_hw
    )
    Server(student, build_teacher(config), config.distill, config.sizes).serve(
        endpoint
    )


def _build_remote_session(
    config: SessionConfig,
    frame_hw: Tuple[int, int],
    stride_policy: Optional[StridePolicy],
) -> Client:
    """Spawn a server process over ``config.transport`` and wire a
    client to it through :class:`~repro.transport.remote.RemoteServer`."""
    import functools

    from repro.transport.registry import spawn_server
    from repro.transport.remote import RemoteServer

    endpoint, proc = spawn_server(
        config.transport,
        functools.partial(_remote_server_main, config=config, frame_hw=frame_hw),
    )
    remote = RemoteServer(endpoint, config.distill, config.sizes, process=proc)
    try:
        # The client's student comes over the wire (Algorithm 3's
        # initial send), proving the state-dict path end to end; the
        # values equal the shared pre-trained checkpoint, so behaviour
        # matches inproc.
        student = StudentNet(width=config.student_width, seed=config.student_seed)
        student.load_state_dict(remote.recv_initial_state())
        return Client(
            student,
            remote,
            config.distill,
            latency=config.latency,
            network=config.network,
            sizes=config.sizes,
            stride_policy=stride_policy,
            forced_delay_frames=config.forced_delay_frames,
        )
    except BaseException:
        # A handshake failure (dead child, timeout) must not leak the
        # spawned process or its shared-memory segments.
        remote.close(join_timeout_s=5.0)
        raise


def build_session(
    config: SessionConfig,
    frame_hw: Tuple[int, int],
    teacher: Optional[Teacher] = None,
    stride_policy: Optional[StridePolicy] = None,
) -> Client:
    """Build one complete ShadowTutor session (server + client pair).

    The single factory behind :func:`run_shadowtutor`, the serving
    pool, and the perf benchmark — one place constructs sessions, so
    the pooled path cannot drift from the single-session path.  With a
    real transport in ``config.transport``, the server half lives in a
    spawned process and the pair speaks the wire protocol instead of a
    method call; with ``config.attach`` set, the session joins a
    running *multiplexed* server instead of spawning its own (one
    server process, N clients — see :mod:`repro.serving.runtime`).
    Either way callers must ``client.server.close()`` when done
    (:meth:`SessionPool.run` and :func:`run_shadowtutor` do).
    """
    if config.attach is not None:
        if teacher is not None:
            raise ValueError(
                "custom teacher objects cannot cross a process boundary; "
                "the multiplexed server rebuilds the teacher from the "
                "config's teacher fields "
                "(use transport='inproc' for custom teachers)"
            )
        from repro.serving.runtime import attach_session

        return attach_session(config, frame_hw, stride_policy)
    if config.transport != "inproc":
        if teacher is not None:
            raise ValueError(
                "custom teacher objects cannot cross a process boundary; "
                "remote transports rebuild the teacher from the config's "
                "teacher fields "
                "(use transport='inproc' for custom teachers)"
            )
        return _build_remote_session(config, frame_hw, stride_policy)
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
        latency=config.latency,
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
        latency=config.latency,
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
    student.eval()
    stats = RunStats(label=label)
    t = 0.0
    video.reset()
    for index, (frame, gt_label) in enumerate(video.frames(num_frames)):
        pred = student.predict(frame)
        t += config.latency.t_si
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
