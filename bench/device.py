"""One measured run: the device process of a two-process deployment.

The device (this process) spawns one ``ServerRuntime`` process through
``repro.serving.start_server`` with every default left alone and plays
its workload's playlist over one connection: per round, one fresh
session per viewer on pre-rendered frames, driven by the public
``SessionPool``.  Everything is observed from here, through
:class:`bench.probe.Probe` wrappers on public callables; no program
file is touched.

An untraced run carries two probes only — the frame-completion stamp
around ``Client.post_predict`` and the key-frame round trip around
``MuxRemoteServer.handle_key_frame`` — and is where every end-to-end
number comes from.  A traced run adds the device-side layer probes
(phase A) and then replays the key frames it sent, in process, to
decompose the server side (phase B, :mod:`bench.replay`).

The function returns *samples*, never statistics: medians, percentiles
and tables are computed by :mod:`bench.report` alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import time
import traceback
from typing import Dict, List, Optional

import replay
from calibrate import Calibrator
from probe import Probe, per_span_cost
from workloads import Workload, stream_digest


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _peak_rss_mb() -> float:
    """Max RSS of this process plus its largest reaped child (the
    server), in MB.  ``ru_maxrss`` is KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _stats_digest(stats) -> str:
    return hashlib.blake2b(
        repr(stats.signature(include_label=False)).encode(), digest_size=16
    ).hexdigest()


class _Capture:
    """What the two always-on probes keep: one row per completed frame
    and one per key frame, plus the messages themselves (by reference —
    frames are pre-rendered and replies are never mutated in place)."""

    def __init__(self, probe: Probe, inject: Optional[str]) -> None:
        self.probe = probe
        self.inject = inject
        self.frame_done: List[list] = []   # [session, frame index, t_end]
        self.sent: List[dict] = []
        self._ordinals: Dict[int, int] = {}

    def request(self, proxy, frame, label=None):
        ordinal = self._ordinals.get(proxy.session, 0)
        self._ordinals[proxy.session] = ordinal + 1
        return (proxy.session, ordinal)

    def after_post_predict(self, span: int, args: tuple, result) -> None:
        client, _pred, _label, index = args
        self.frame_done.append(
            [client.server.session, index, self.probe.spans[span][2]]
        )

    def after_key_frame(self, span: int, args: tuple, result) -> None:
        proxy, frame, label = args[0], args[1], (args[2] if len(args) > 2 else None)
        reply = result[0]
        if self.inject == "corrupt-reply" and not self.sent:
            # Self-test fault: damage the first update the device is
            # about to apply, as a bad link or a wrong serve would.
            name = next(iter(reply.update))
            reply.update[name] = reply.update[name] + 1.0
        self.sent.append({
            "span": span, "session": proxy.session,
            "frame": frame, "label": label, "reply": reply,
        })


def _wrap_layers(probe: Probe) -> None:
    """Phase-A device-side layer probes (traced runs only)."""
    import repro.engine.compiler as compiler
    import repro.runtime.client as client_module
    from repro.engine.training import CompiledTrainStep
    from repro.models.student import StudentNet
    from repro.runtime.client import Client
    from repro.serving.batched import BatchedPredictor
    from repro.serving.pool import SessionPool

    probe.wrap(SessionPool, "run", "serving.pool_run")
    probe.wrap(Client, "pre_predict", "runtime.pre_predict")
    probe.wrap(BatchedPredictor, "predict", "serving.batched_predict")
    probe.wrap(StudentNet, "predict", "engine.predict")
    probe.wrap(client_module, "apply_state_dict", "nn.apply_state_dict")
    probe.wrap(client_module, "state_dict_digest", "nn.state_dict_digest")
    probe.wrap(compiler, "compile_plan", "engine.compile_plan")
    probe.wrap(CompiledTrainStep, "__init__", "engine.compile_plan")


def _reference_check(workload: Workload, rounds: List[dict], positions: List[int]) -> dict:
    """Re-run the rounds at ``positions`` in process and compare every
    session's ``RunStats.signature(include_label=False)``: the
    deployment must report exactly what the in-process system reports
    (the repo's bit-identity contract)."""
    from repro.serving.pool import SessionPool, SessionSpec

    config = workload.session_config()
    sessions = mismatched = 0
    for position in positions:
        played = rounds[position]
        specs = [SessionSpec(frames=frames, config=config) for frames in played["streams"]]
        for got, want in zip(played["stats"], SessionPool(specs).run().stats):
            sessions += 1
            mismatched += got.signature(include_label=False) != want.signature(
                include_label=False
            )
    return {"positions": positions, "sessions": sessions,
            "mismatched_sessions": mismatched}


def measure(
    workload: Workload,
    seed: int,
    traced: bool,
    t0: float,
    reference_rounds: int = 1,
    setup_only: bool = False,
    inject: Optional[str] = None,
) -> dict:
    """Run ``workload`` once; returns the raw sample block.

    ``t0`` is the ``time.perf_counter()`` reading taken at process
    start, the origin of ``setup_s`` and of every stamp in the block.
    ``setup_only`` stops after the warm-up round (a set-up probe).
    """
    from repro.nn.serialize import state_dict_digest
    from repro.runtime.client import Client
    from repro.runtime.session import build_teacher, pretrained_student
    from repro.serving import SessionBlueprint, SessionPool, SessionSpec, start_server
    from repro.serving.runtime import MuxRemoteServer
    from repro.transport import wire

    shm_before = _shm_segments()
    # Speed-index readings: before and after set-up (which is over in
    # a few seconds and cannot be read inside; the first reading's own
    # time is taken out of it), then around every timed round.
    t_reading = time.perf_counter()
    calibrator = Calibrator()
    calibration = {"setup_s": [calibrator.read()], "rounds_s": []}
    setup_reading_s = time.perf_counter() - t_reading
    config = workload.session_config()
    playlist = workload.playlist(seed)[: 1 if setup_only else None]
    viewers = workload.viewers
    # Pre-training is a one-time cost per process tree: the forked
    # server inherits this cache entry, the in-process reference and
    # replay reuse it.
    pretrained_student(
        config.student_width, config.student_seed, config.pretrain_steps, workload.hw
    )

    probe = Probe()
    capture = _Capture(probe, inject)
    errors: List[str] = []
    rounds: List[dict] = []

    def render(clip: int, teacher) -> dict:
        return {"clip": clip, "streams": workload.render(clip, teacher)}

    def play(position: int) -> None:
        played = rounds[position]
        specs = [
            SessionSpec(frames=frames, config=dataclasses.replace(
                config, attach=handle.ticket(position * viewers + viewer)))
            for viewer, frames in enumerate(played["streams"])
        ]
        played["t_start"] = time.perf_counter()
        result = SessionPool(specs).run()
        played["t_end"] = time.perf_counter()
        played["stats"], played["counters"] = result.stats, result.counters

    handle = start_server(
        [SessionBlueprint(config, workload.hw) for _ in range(len(playlist) * viewers)],
        transport=workload.transport, n_clients=1,
    )
    try:
        if traced:
            _wrap_layers(probe)
        probe.wrap(Client, "post_predict", "runtime.post_predict",
                   after=capture.after_post_predict)
        probe.wrap(MuxRemoteServer, "handle_key_frame", "serving.key_frame_rtt",
                   request=capture.request, after=capture.after_key_frame)
        try:
            # Rendered after the fork, so the server's resident set is
            # the server's, not a copy of the device's input; the timed
            # rounds after the warm-up round, so set-up holds only the
            # input the first frame needs.
            teacher = build_teacher(config)
            rounds.append(render(playlist[0], teacher))
            play(0)
            calibration["setup_s"].append(calibrator.read())
            rounds.extend(render(clip, teacher) for clip in playlist[1:])
            for position in range(1, len(playlist)):
                calibration["rounds_s"].append(calibrator.read())
                play(position)
            calibration["rounds_s"].append(calibrator.read())
        except Exception:
            # The run is a measurement boundary: a raised exception is a
            # failed operation to report, not a reason to lose the block.
            errors.append(traceback.format_exc())
    finally:
        probe.restore()
        handle.close()
    t_closed = time.perf_counter()
    peak_rss_mb = _peak_rss_mb()
    report = handle.runtime_report or {}
    leaked = sorted(_shm_segments() - shm_before)
    completed = [r for r in rounds if "stats" in r]

    # ------------------------------------------------------------------
    # Rows (all stamps relative to process start).
    spans = probe.spans
    key_frames = []
    for row in capture.sent:
        span = spans[row["span"]]
        # apply_state_dict copies, so the update still holds the bytes
        # that arrived (or that the injected fault left there).
        row["digest"] = state_dict_digest(row["reply"].update)
        key_frames.append({
            "session": row["session"], "ordinal": span[4][1],
            "t_send": span[1] - t0, "t_reply": span[2] - t0,
            "frame_bytes": wire.encoded_nbytes((row["frame"], row["label"])),
            "reply_bytes": wire.encoded_nbytes(row["reply"]),
            "steps": row["reply"].steps,
            "reply_digest": row["digest"],
        })
    frame_done = [[s, i, t - t0] for s, i, t in capture.frame_done]

    sessions = []
    pool_counters: Dict[str, int] = {}
    for played in completed:
        for s in played["stats"]:
            sessions.append({
                "frames": s.num_frames, "key_frames": s.num_key_frames,
                "mean_miou": s.mean_miou,
                "mean_stride": (
                    sum(f.stride for f in s.frames) / s.num_frames if s.num_frames else 0.0
                ),
                "stats_digest": _stats_digest(s),
            })
        for name, count in played["counters"].items():
            pool_counters[name] = pool_counters.get(name, 0) + count

    # ------------------------------------------------------------------
    # Correctness, then (traced runs) the server side by replay.
    reference = phase_b = None
    if not errors and not setup_only:
        # Timed rounds first, in play order (so ten seeds cover the
        # corpus), the warm-up round last.
        positions = (list(range(1, len(completed))) + [0])[:reference_rounds]
        try:
            reference = _reference_check(workload, completed, positions)
            if traced:
                phase_b = replay.replay(workload, capture.sent, t0, calibrator)
        except Exception:
            errors.append(traceback.format_exc())

    raw = {
        "workload": workload.name,
        "seed": seed,
        "viewers": viewers,
        "clips": workload.clips,
        "clip_frames": workload.clip_frames,
        "frames_per_viewer": workload.frames,
        "playlist": playlist,
        "traced": traced,
        "inject": inject,
        "stream_digest": stream_digest([r["streams"] for r in rounds]),
        "t_first_frame": frame_done[0][2] - setup_reading_s if frame_done else None,
        "calibration": calibration,
        "t_closed": t_closed - t0,
        "peak_rss_mb": peak_rss_mb,
        "rounds": [
            {"clip": r["clip"], "frames": len(r["streams"][0]),
             "t_start": r["t_start"] - t0, "t_end": r["t_end"] - t0}
            for r in completed
        ],
        "frame_done": frame_done,
        "key_frames": key_frames,
        "sessions": sessions,
        "pool_counters": pool_counters,
        "serve_counters": report.get("serve_counters", {}),
        "checks": {
            "frames_expected": viewers * (
                workload.warmup_frames + (0 if setup_only else workload.frames)),
            "frames_completed": len(frame_done),
            "exceptions": len(errors),
            "reference": reference,
            "server_exit_reason": report.get("exit_reason"),
            "server_teardowns": report.get("teardowns", {}),
            "leaked_shm_segments": leaked,
            "reply_digest_mismatches": phase_b["digest_mismatches"] if phase_b else 0,
        },
        "errors": errors,
    }
    if traced:
        raw["probe_cost_s"] = per_span_cost()
        raw["phase_a_spans"] = [
            [name, start - t0, end - t0, parent, request]
            for name, start, end, parent, request in spans
        ]
        if phase_b is not None:
            raw["phase_b"] = phase_b
    return raw
