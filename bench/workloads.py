"""The four named workloads, as data.

A workload fixes everything about a deployment: which categories its
viewers watch, the frame geometry, the distillation and teacher
configuration, the transport — and the *corpus*: ``clips`` clips per
category, clip ``c`` rendered by ``make_category_video(..., seed=c)``.

A run is a **playlist**: one warm-up round on a fixed extra clip, then
one round per corpus clip **in the order the run seed draws**.  A round
opens one fresh session per viewer (the paper streams each video as its
own run), plays the clip through the public ``SessionPool`` and closes
the sessions; all rounds share one server process and one connection.

Why a playlist and not one long video per seed: adaptive striding makes
the amount of work a chaotic function of the content (ten fresh
``moving-street`` videos gave 32-50 key frames per 400 frames), and a
student carried from clip to clip makes it a function of the clip
*order* too (45-60 key frames per 540) — either would drown any
regression bound.  Sessions that start fresh make each round's work a
function of its clip alone, so every run does exactly the same work in
a different order: counts, bytes and mIoU repeat to the last bit across
seeds and what is left in the timing metrics is the machine.  The
program under test never sees the seed, only the frames.

Labels are the workload's teacher's own output on each frame (the
paper scores against the teacher): for the oracle teacher that is the
renderer's ground truth, for the neural teacher it makes
``mean_miou_pct`` student-teacher agreement instead of noise.

Clip lengths are frozen for ``RUN_SECONDS`` of measured window on the
reference box (2 cores, Xeon 2.1 GHz); ``--seconds`` scales them
proportionally, which keeps a run a fixed amount of work instead of a
fixed amount of time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from typing import Dict, List, Tuple

#: Measured window the frozen frame counts were sized for; must equal
#: ``run_seconds`` in BENCHMARK.json (bench/test_bench.py checks).
RUN_SECONDS = 12

#: Clips per category in a workload's corpus (6! = 720 play orders).
CLIPS = 6

#: The warm-up round's length as a share of the timed frames.
WARMUP_FRACTION = 0.05

#: Cold set-ups per untraced run (the measuring process and
#: ``SETUP_REPEATS - 1`` set-up probes); ``setup_s`` is their median.
SETUP_REPEATS = 2

#: A set-up probe starts only while its run is younger than this.  The
#: driver allows 92 runs 3420 s; a run is ~22 s before its probe on the
#: reference box at nominal speed and a probe 3-7 s, so the probe is
#: what gives when the box runs 1.2x slower or worse.
PROBE_DEADLINE_S = 26.0

_PAPER = {}  # DistillConfig() — THRESHOLD 0.8, stride 8-64, MAX_UPDATES 8
_DENSE = {"threshold": 0.999, "max_updates": 8, "min_stride": 2, "max_stride": 4}
_FANOUT_STREAMS = ("fixed-animals", "fixed-street", "moving-animals", "moving-street")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Category key watched by each viewer (one session per viewer and
    #: round).
    streams: Tuple[str, ...]
    hw: Tuple[int, int]
    #: Frames per clip at ``RUN_SECONDS``.
    clip_frames: int
    #: Frames per clip for the self-test's ``--scale tiny`` (and the
    #: floor of ``--seconds`` scaling).
    tiny_clip_frames: int
    #: ``DistillConfig`` keyword overrides.
    distill: Dict[str, float]
    teacher_arch: str
    transport: str
    clips: int = CLIPS
    student_width: float = 0.5
    teacher_width: int = 48
    pretrain_steps: int = 80

    @property
    def viewers(self) -> int:
        return len(self.streams)

    @property
    def frames(self) -> int:
        """Timed frames per viewer."""
        return self.clips * self.clip_frames

    @property
    def warmup_frames(self) -> int:
        return math.ceil(WARMUP_FRACTION * self.frames)

    def for_seconds(self, seconds: float) -> "Workload":
        """This workload sized for a ``seconds``-long measured window."""
        clip = max(self.tiny_clip_frames, round(self.clip_frames * seconds / RUN_SECONDS))
        return dataclasses.replace(self, clip_frames=clip)

    def tiny(self) -> "Workload":
        """The self-test's ``--scale tiny``: two short clips and a token
        pre-training, same deployment otherwise."""
        return dataclasses.replace(
            self, clip_frames=self.tiny_clip_frames, clips=2, pretrain_steps=8
        )

    def session_config(self):
        from repro.distill.config import DistillConfig
        from repro.runtime.session import SessionConfig

        return SessionConfig(
            distill=DistillConfig(**self.distill),
            student_width=self.student_width,
            pretrain_steps=self.pretrain_steps,
            teacher_arch=self.teacher_arch,
            teacher_width=self.teacher_width,
        )

    def playlist(self, seed: int) -> List[int]:
        """Clip ids in play order: the warm-up clip (id ``clips``, the
        same for every seed), then the corpus in the order ``seed``
        draws."""
        return [self.clips] + random.Random(seed).sample(range(self.clips), self.clips)

    def render(self, clip: int, teacher) -> List[list]:
        """Pre-rendered ``(frame, label)`` lists of one round, one per
        viewer.  Viewers of the same category share one list object, as
        viewers of one broadcast share one stream."""
        from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

        frames = self.warmup_frames if clip == self.clips else self.clip_frames
        rendered: Dict[str, list] = {}
        for key in self.streams:
            if key not in rendered:
                video = make_category_video(
                    CATEGORY_BY_KEY[key], self.hw[0], self.hw[1], seed=clip
                )
                rendered[key] = [
                    (frame, teacher.infer(frame, label))
                    for frame, label in video.frames(frames)
                ]
        return [rendered[key] for key in self.streams]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady-people",
            why="paper's good case: 1 viewer, strides stretch to ~3 % key "
                "frames, so the device's own StudentNet.predict is the work "
                "(engine-forward gains show; serving gains must not)",
            streams=("moving-people",), hw=(64, 96), clip_frames=400, tiny_clip_frames=16,
            distill=_PAPER, teacher_arch="oracle", transport="shm",
        ),
        Workload(
            name="busy-street",
            why="paper's hard case over TCP at 2.25x the pixels: ~13 % key "
                "frames of ~7 steps, device blocked on the server most of the "
                "wall (distill-step, serve-side and overlap gains show)",
            streams=("moving-street",), hw=(96, 144), clip_frames=60, tiny_clip_frames=8,
            distill=_PAPER, teacher_arch="oracle", transport="socket",
        ),
        Workload(
            name="fanout-distinct",
            why="4 pooled viewers on four different streams, neural teacher, "
                "key-frame dense: server-bound with nothing shareable "
                "(serving-runtime and teacher gains show)",
            streams=_FANOUT_STREAMS, hw=(64, 96), clip_frames=6, tiny_clip_frames=2,
            distill=_DENSE, teacher_arch="neural", transport="shm",
        ),
        Workload(
            name="fanout-broadcast",
            why="same four viewers all watching one stream: 3 of 4 serves "
                "memoised and device predicts deduplicated (a change that "
                "taxes the shared path to speed the distinct one shows here)",
            streams=("fixed-animals",) * 4, hw=(64, 96), clip_frames=13, tiny_clip_frames=2,
            distill=_DENSE, teacher_arch="neural", transport="shm",
        ),
    )
}


def stream_digest(rounds: List[List[list]]) -> str:
    """Content digest of the rendered inputs (frames and labels) in
    play order."""
    h = hashlib.blake2b(digest_size=16)
    for streams in rounds:
        seen = set()
        for frames in streams:
            if id(frames) in seen:
                continue
            seen.add(id(frames))
            for frame, label in frames:
                h.update(frame.tobytes())
                h.update(label.tobytes())
    return h.hexdigest()
