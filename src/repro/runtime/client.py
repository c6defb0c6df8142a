"""Algorithm 4: the ShadowTutor client (mobile device).

The client walks the video in strict temporal order.  At a key frame it
ships the frame to the server *asynchronously* and keeps inferring with
its (slightly stale) student — the paper's key robustness mechanism.
The pending update is awaited only if it has not arrived within
MIN_STRIDE frames (Algorithm 4, lines 14-17); on arrival the update is
applied and the next stride computed from the server-reported metric.

Timing: every frame costs ``t_si`` of simulated time; the server-side
pipeline (uplink transfer, teacher inference, ``steps`` distillation
steps, downlink transfer) runs concurrently with client inference, and
its completion time determines whether the client ever blocks.  This is
the "capable of full concurrency" end of the paper's t_c bounds
(Eq. 2); the blocking wait at ``step == MIN_STRIDE`` realises the other
end when the network is slow.

Structure: the per-frame body is split into ``pre_predict`` (key-frame
handling), the on-device predict, and ``post_predict`` (timing, update
application, stats).  :meth:`Client.run` chains them over a stream —
the single-session path — while the multi-session pool
(:mod:`repro.serving`) drives the same three phases for many clients on
a shared tick, injecting predictions from its batched predictor between
the phases.  One orchestration, N = 1 or N = many.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Tuple

import numpy as np

from repro import obs
from repro.distill.config import DistillConfig
from repro.models.student import StudentNet
from repro.network.messages import MessageSizes
from repro.network.model import NetworkModel
from repro.nn.serialize import apply_state_dict, state_dict_digest
from repro.runtime.clock import T_SI, SimClock, serve_time
from repro.runtime.server import Server, ServerReply
from repro.runtime.stats import FrameRecord, KeyFrameRecord, RunStats
from repro.segmentation.metrics import mean_iou
from repro.striding.adaptive import AdaptiveStride
from repro.striding.baselines import StridePolicy


@dataclasses.dataclass
class _PendingUpdate:
    """A student update in flight from the server."""

    reply: ServerReply
    ready_at: float              #: simulated time the reply is fully received
    sent_frame_index: int
    frames_since_send: int = 0


class Client:
    """Runs Algorithm 4 against a :class:`~repro.runtime.server.Server`.

    Parameters
    ----------
    forced_delay_frames:
        When set, overrides network timing for *update application*: the
        update is applied exactly this many frames after the key frame.
        This reproduces the paper's P-1 / P-8 accuracy protocol
        (Table 6) where the delay is pinned to the best/worst case.
    """

    def __init__(
        self,
        student: StudentNet,
        server: Server,
        config: DistillConfig,
        network: Optional[NetworkModel] = None,
        sizes: Optional[MessageSizes] = None,
        stride_policy: Optional[StridePolicy] = None,
        forced_delay_frames: Optional[int] = None,
    ) -> None:
        self.student = student
        self.server = server
        self.config = config
        self.network = network or NetworkModel()
        self.sizes = sizes or MessageSizes.paper()
        self.stride_policy = stride_policy or AdaptiveStride(config)
        self.forced_delay_frames = forced_delay_frames
        self.clock = SimClock()
        #: Serialisation point of the uplink: a second key frame cannot
        #: start transferring before the previous transfer finished.
        self._uplink_free_at = 0.0
        #: Content-digest chain of the student's weights, maintained
        #: only when the serving pool sets it (``None`` otherwise):
        #: clients with equal versions provably hold equal weights and
        #: may share one batched predict.
        self.weight_version: Optional[str] = None
        self._pending: Optional[_PendingUpdate] = None
        self._stats: Optional[RunStats] = None

    # ------------------------------------------------------------------
    def _dispatch_key_frame(
        self, frame: np.ndarray, label: Optional[np.ndarray], index: int
    ) -> Tuple[_PendingUpdate, KeyFrameRecord]:
        """Send a key frame; returns the in-flight update handle."""
        up_bytes = self.sizes.frame_to_server
        send_start = max(self.clock.now, self._uplink_free_at)
        up_done = send_start + self.network.transfer_time(up_bytes, send_start)
        self._uplink_free_at = up_done

        # Real server-side computation happens here (teacher inference +
        # Algorithm 1); only its *timing* is modelled.  The renderer's
        # label goes along only for a teacher that reads it.
        reply, _ = self.server.handle_key_frame(
            frame, label if self.server.teacher_reads_label else None
        )
        server_time = serve_time(reply.steps, self.server.is_partial)
        down_bytes = self.server.reply_bytes()
        down_start = up_done + server_time
        ready_at = down_start + self.network.transfer_time(down_bytes, down_start)

        record = KeyFrameRecord(
            index=index,
            metric=reply.metric,
            initial_metric=reply.initial_metric,
            steps=reply.steps,
            up_bytes=up_bytes,
            down_bytes=down_bytes,
        )
        return _PendingUpdate(reply, ready_at, index), record

    def _apply_update(self, pending: _PendingUpdate) -> None:
        # ApplyUpdate rebinds parameter arrays; engine plans read live
        # weights per call, so the very next predict infers with the
        # fresh weights (see the stale-weight regression test).  An
        # empty update is a key frame that took no step: the weights,
        # and so their version, stay.
        if pending.reply.update:
            apply_state_dict(self.student, pending.reply.update)
            if self.weight_version is not None:
                self.weight_version = state_dict_digest(
                    pending.reply.update, prev=self.weight_version
                )
        self.stride_policy.update(pending.reply.metric)
        if obs.enabled():
            # The stride decision each server-reported metric produced,
            # on the wall clock, mergeable across client processes.
            obs.series("client.update").append([
                pending.sent_frame_index, float(pending.reply.metric),
                self.stride_policy.stride,
            ])

    # ------------------------------------------------------------------
    # Stepwise run protocol (the pool drives these; run() chains them)
    # ------------------------------------------------------------------
    def begin(self, label: str = "") -> None:
        """Start a run episode: reset stride policy and per-run state."""
        self._stats = RunStats(label=label)
        self.stride_policy.reset()
        self._stride = self.stride_policy.frames_to_next()
        self._step = self._stride  # first frame is a key frame (Alg. 4 line 2)
        self._pending = None

    def pre_predict(
        self, frame: np.ndarray, gt_label: Optional[np.ndarray], index: int
    ) -> bool:
        """Key-frame phase of one frame; returns whether it is a key frame."""
        self._update_delay: Optional[int] = None
        self._is_key = self._step == self._stride

        if self._is_key:  # key frame
            if self._pending is not None:
                # A previous update never arrived within its stride
                # window; apply it now before re-dispatching (keeps
                # exactly one update in flight, as in Alg. 4).
                if self.clock.now < self._pending.ready_at:
                    self._stats.wait_time_s += self._pending.ready_at - self.clock.now
                self.clock.advance_to(self._pending.ready_at)
                self._apply_update(self._pending)
            self._pending, kf_record = self._dispatch_key_frame(frame, gt_label, index)
            self._stats.key_frames.append(kf_record)
            self._stats.total_up_bytes += kf_record.up_bytes
            self._stats.total_down_bytes += kf_record.down_bytes
            self._step = 0
        return self._is_key

    def post_predict(
        self, pred: np.ndarray, gt_label: Optional[np.ndarray], index: int
    ) -> None:
        """Timing/update/stats phase after the on-device predict."""
        cfg = self.config
        self.clock.advance(T_SI)
        self._step += 1

        if self._pending is not None:
            pending = self._pending
            pending.frames_since_send += 1
            if self.forced_delay_frames is not None:
                if pending.frames_since_send >= self.forced_delay_frames:
                    self._update_delay = pending.frames_since_send
                    self._apply_update(pending)
                    self._pending = None
            else:
                if self._step == cfg.min_stride and self.clock.now < pending.ready_at:
                    # Alg. 4 line 15-16: wait — the next key frame
                    # stride may be MIN_STRIDE.
                    self._stats.wait_time_s += pending.ready_at - self.clock.now
                    self.clock.advance_to(pending.ready_at)
                if self.clock.now >= pending.ready_at:
                    self._update_delay = pending.frames_since_send
                    self._apply_update(pending)
                    self._pending = None

        self._stride = self.stride_policy.frames_to_next()
        self._stats.frames.append(
            FrameRecord(
                index=index,
                is_key=self._is_key,
                miou=mean_iou(pred, gt_label),
                sim_time=self.clock.now,
                stride=self.stride_policy.stride,
                update_delay=self._update_delay,
            )
        )

    def process_frame(
        self, frame: np.ndarray, gt_label: Optional[np.ndarray], index: int
    ) -> None:
        """One full frame on the single-session path."""
        self.pre_predict(frame, gt_label, index)
        pred = self.student.predict(frame)
        self.post_predict(pred, gt_label, index)

    def finish(self) -> RunStats:
        """Close the episode and return its statistics."""
        self._stats.total_time_s = self.clock.now
        return self._stats

    # ------------------------------------------------------------------
    def run(
        self,
        frames: Iterable[Tuple[np.ndarray, np.ndarray]],
        label: str = "",
    ) -> RunStats:
        """Process a stream of ``(frame, ground_truth_label)`` pairs.

        The ground-truth label is used (a) by oracle teachers as the
        pseudo-label source and (b) to score every frame's mIoU against
        the teacher-consistent reference, exactly as the paper evaluates
        against the teacher output.
        """
        self.begin(label)
        for index, (frame, gt_label) in enumerate(frames):
            self.process_frame(frame, gt_label, index)
        return self.finish()
