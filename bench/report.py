"""Raw samples -> numbers.  The only code that computes statistics.

``bench/run.py`` writes one raw JSON block per run under ``bench/raw/``
(every sample, no quantiles); everything derived from them — medians,
percentiles with their sample counts, quartiles across runs, the
printed tables, the result line the driver reads and the baseline block
in ``bench/baselines.json`` — is computed here, so old raw files can be
re-distilled after a definition changes:

    python bench/report.py bench/raw/*.json [--write-baseline]
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from calibrate import NOMINAL_S

BENCH_DIR = pathlib.Path(__file__).resolve().parent
BASELINES = BENCH_DIR / "baselines.json"

# ----------------------------------------------------------------------
# Metric registry: (name, unit, better, bound).  Bounds apply to the
# end-to-end metrics only and mirror BENCHMARK.json (test_bench checks).
# ----------------------------------------------------------------------
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("frames_per_s", "f/s", "higher", 0.25),
    ("keyframe_rtt_ms_p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("wire_bytes_per_frame", "bytes", "lower", 0.01),
    ("mean_miou_pct", "%", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

PER_LAYER: List[Tuple[str, str, str]] = [
    ("engine.predict_ms_p50", "ms", "lower"),
    ("engine.predict_busy_s", "s", "lower"),
    ("engine.train_forward_ms_p50", "ms", "lower"),
    ("engine.train_backward_ms_p50", "ms", "lower"),
    ("engine.train_steps", "count", "lower"),
    ("engine.plan_compile_s", "s", "lower"),
    ("engine.plan_compiles", "count", "lower"),
    ("models.teacher_infer_ms_p50", "ms", "lower"),
    ("models.teacher_busy_s", "s", "lower"),
    ("distill.train_ms_p50", "ms", "lower"),
    ("distill.train_ms_p90", "ms", "lower"),
    ("distill.overhead_ms_p50", "ms", "lower"),
    ("distill.steps_per_keyframe", "count", "lower"),
    ("distill.zero_step_keyframes", "count", "higher"),
    ("striding.key_frame_pct", "%", "lower"),
    ("striding.mean_stride", "frames", "higher"),
    ("runtime.blocked_pct", "%", "lower"),
    ("runtime.client_overhead_ms_p50", "ms", "lower"),
    ("nn.diff_ms_p50", "ms", "lower"),
    ("nn.apply_ms_p50", "ms", "lower"),
    ("nn.digest_ms_p50", "ms", "lower"),
    ("transport.encode_frame_ms_p50", "ms", "lower"),
    ("transport.decode_frame_ms_p50", "ms", "lower"),
    ("transport.encode_reply_ms_p50", "ms", "lower"),
    ("transport.decode_reply_ms_p50", "ms", "lower"),
    ("transport.frame_bytes", "bytes", "lower"),
    ("transport.reply_bytes", "bytes", "lower"),
    ("transport.framing_overhead_pct", "%", "lower"),
    ("transport.echo_frame_ms_p50", "ms", "lower"),
    ("transport.echo_reply_ms_p50", "ms", "lower"),
    ("transport.ack_ms_p50", "ms", "lower"),
    ("serving.key_frame_rtt_ms_p50", "ms", "lower"),
    ("serving.key_frame_rtt_ms_p90", "ms", "lower"),
    ("serving.key_frame_rtt_samples", "count", "higher"),
    ("serving.residual_ms_p50", "ms", "lower"),
    ("serving.residual_ms_p90", "ms", "lower"),
    ("serving.shared_ms_p50", "ms", "lower"),
    ("serving.cohorts", "count", "lower"),
    ("serving.max_cohort", "count", "higher"),
    ("serving.batch_runs", "count", "higher"),
    ("serving.batched_frames", "count", "higher"),
    ("serving.deduped_frames", "count", "higher"),
    ("serving.single_frames", "count", "lower"),
    ("serving.shared_hits", "count", "higher"),
    ("serving.shared_misses", "count", "lower"),
    ("serving.pool_dedup_frames", "count", "higher"),
    ("serving.pool_batch_runs", "count", "higher"),
    ("serving.pool_single_frames", "count", "lower"),
    ("serving.pool_ticks", "count", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.reconcile_err_pct", "%", "lower"),
]

#: End-to-end metrics that are pure functions of the inputs and the
#: program's arithmetic: two runs of one seed on one tree must agree to
#: the last bit.
EXACT = ("wire_bytes_per_frame", "mean_miou_pct")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _timed(raw: dict, rows: Iterable, session=lambda row: row[0]) -> list:
    """The rows of ``rows`` that belong to a timed round.  Round ``r``
    runs sessions ``r * viewers ...``; round 0 is the warm-up."""
    return [row for row in rows if session(row) >= raw["viewers"]]


def _window(raw: dict) -> Tuple[float, float, int]:
    """``(t_open, seconds, frames)`` of the timed rounds.  Each round
    counts from its start (sessions not yet open) to its last completed
    frame; the gaps between rounds, where the device reads the speed
    index, do not count."""
    last: Dict[int, float] = {}
    done = _timed(raw, raw["frame_done"])
    for session, _, t in done:
        position = session // raw["viewers"]
        last[position] = max(t, last.get(position, t))
    if not last:
        return 0.0, 0.0, 0
    seconds = sum(t - raw["rounds"][position]["t_start"] for position, t in last.items())
    return raw["rounds"][1]["t_start"], seconds, len(done)


def speed_factor(readings: Sequence[float]) -> float:
    """How much slower than nominal the box ran while ``readings`` were
    taken (1.0 with none: raw seconds)."""
    return sum(readings) / len(readings) / NOMINAL_S if readings else 1.0


def _tail_mean(values: Sequence[float], lo: float = 0.85, hi: float = 0.95) -> float:
    """Mean of the order statistics between the ``lo`` and ``hi``
    quantiles: the 90th percentile, read off a tenth of the sample
    instead of off two neighbours."""
    if not values:
        return 0.0
    ordered = sorted(values)
    start = int(len(ordered) * lo)
    kept = ordered[start:max(start + 1, int(len(ordered) * hi))]
    return sum(kept) / len(kept)


def _timed_key_frames(raw: dict) -> List[dict]:
    return _timed(raw, raw["key_frames"], lambda k: k["session"])


def failed_ops(raw: dict) -> Tuple[int, int]:
    """``(attempted, failed)``: attempted = frames + key frames +
    session opens; see bench/README.md for what counts as failed."""
    checks = raw["checks"]
    attempted = (
        checks["frames_expected"] + len(raw["key_frames"])
        + raw["viewers"] * len(raw["playlist"])
    )
    reference = checks["reference"] or {"mismatched_sessions": 0}
    failed = (
        max(0, checks["frames_expected"] - checks["frames_completed"])
        + checks["exceptions"]
        + reference["mismatched_sessions"]
        + checks["reply_digest_mismatches"]
        + (checks["server_exit_reason"] != "quiesced")
        + len(checks["server_teardowns"])
        + len(checks["leaked_shm_segments"])
    )
    return attempted, failed


def _rtt_ms(raw: dict) -> List[float]:
    return [1e3 * (k["t_reply"] - k["t_send"]) for k in _timed_key_frames(raw)]


def end_to_end(raw: dict) -> Dict[str, float]:
    _, seconds, frames = _window(raw)
    wire_bytes = sum(k["frame_bytes"] + k["reply_bytes"] for k in _timed_key_frames(raw))
    mious = [s["mean_miou"] for s in raw["sessions"][raw["viewers"]:]]
    # Timing metrics are stated in seconds of a box at nominal speed:
    # the window by the readings taken around its rounds, each set-up by
    # the readings before and after it (bench/calibrate.py).
    slow = speed_factor(raw["calibration"]["rounds_s"])
    setups = [
        (s["t_first_frame"] or 0.0) / speed_factor(s["calibration"]["setup_s"])
        for s in [raw] + raw.get("setup_probes", [])
    ]
    return {
        "frames_per_s": slow * frames / seconds if seconds else 0.0,
        # The round trips of a run are multi-modal (zero-step and
        # trained key frames, memo hits and misses).  The short modes
        # are mostly waiting, and how long the box makes a waiting
        # server wait moves by a factor of two between half-hours (a
        # memo hit 20 ms or 42 ms, a zero-step key frame 9.5 or 13 ms),
        # taking the median and every central mean with it by more than
        # any bound; the tail is the key frames that compute.
        "keyframe_rtt_ms_p90": _tail_mean(_rtt_ms(raw)) / slow,
        "setup_s": median(setups),
        "wire_bytes_per_frame": wire_bytes / frames if frames else 0.0,
        # fsum: the play order must not move the last bit.
        "mean_miou_pct": 100.0 * math.fsum(mious) / len(mious) if mious else 0.0,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def sample_counts(raw: dict) -> Dict[str, int]:
    """How many samples stand behind each timing metric of one run."""
    return {
        "frames_per_s": _window(raw)[2],
        "keyframe_rtt_ms_p90": len(_timed_key_frames(raw)),
        "setup_s": 1 + len(raw.get("setup_probes", [])),
    }


def _scaled(spans: List[list], k: float) -> List[list]:
    return [[name, k * start, k * end, parent, request]
            for name, start, end, parent, request in spans]


def _durations(spans: List[list], name: str) -> List[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def _self_times(spans: List[list], name: str) -> List[float]:
    """Duration of each ``name`` span minus what its children cover."""
    child_time: Dict[int, float] = {}
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    return [
        (s[2] - s[1]) - child_time.get(i, 0.0)
        for i, s in enumerate(spans) if s[0] == name
    ]


def _ms_p(values: Iterable[float], q: float) -> float:
    return 1e3 * quantile(list(values), q)


def per_layer(raw: dict, untraced_fps: Optional[float] = None) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``untraced_fps`` is the median ``frames_per_s`` of untraced runs of
    the same workload on the same box; without it the tracing overhead
    falls back to spans x calibrated cost per span over the window.
    """
    b = raw["phase_b"]
    # Like the end-to-end timings, layer timings are stated in seconds
    # of a box at nominal speed — each phase by the readings taken while
    # it ran, so a box that slowed between the deployment and its replay
    # does not show up as layers exceeding their round trip.
    ka = 1.0 / speed_factor(raw["calibration"]["rounds_s"])
    kb = 1.0 / speed_factor(b["calibration_s"])
    a = _scaled(raw["phase_a_spans"], ka)
    b_spans = _scaled(b["spans"], kb)
    opened, window, _ = _window(raw)
    opened, window = opened * ka, window * ka

    # Device-side sums are set against the window, so they count the
    # timed rounds only; set-up work (plan compiles) counts everywhere.
    predicts = _durations([s for s in a if s[1] >= opened], "engine.predict")
    compiles = _durations(a, "engine.compile_plan") + _durations(
        b_spans, "engine.compile_plan"
    )
    teacher = _durations(b_spans, "models.teacher_infer")
    train = _durations(b_spans, "distill.train")
    steps = [k["steps"] for k in raw["key_frames"]]

    # Round trip per key frame, in the order sent == the order replayed.
    rtt = [ka * (k["t_reply"] - k["t_send"]) for k in raw["key_frames"]]
    serve = _durations(b_spans, "runtime.serve")
    echo = [[kb * seconds for seconds in row] for row in b["echo"]]
    # An echo is message out + ack back; the ack column is two bare
    # trips, so half of it is what the ack adds to each echo.
    ack_trip = 0.5 * median([row[2] for row in echo])
    explained = [
        (row[0] - ack_trip) + s + (row[1] - ack_trip) for row, s in zip(echo, serve)
    ]
    residual = [r - e for r, e in zip(rtt, explained)]
    over = sum(-x for x in residual if x < 0)

    timed_rtt = ka * sum(k["t_reply"] - k["t_send"] for k in _timed_key_frames(raw))
    pre = _durations(a, "runtime.pre_predict")
    post = _durations(a, "runtime.post_predict")
    # Both phases of a pool tick visit the cohort in one order, so the
    # k-th pre_predict and the k-th post_predict are the same frame.
    rtt_by_parent = {
        s[3]: s[2] - s[1] for s in a if s[0] == "serving.key_frame_rtt"
    }
    pre_index = [i for i, s in enumerate(a) if s[0] == "runtime.pre_predict"]
    overhead = [
        p + q - rtt_by_parent.get(i, 0.0) for i, p, q in zip(pre_index, pre, post)
    ]

    wire_rows = b["wire"]
    encoded = sum(r["frame_bytes"] + r["reply_bytes"] for r in wire_rows)
    payload = sum(r["frame_payload_bytes"] + r["reply_payload_bytes"] for r in wire_rows)

    timed_sessions = raw["sessions"][raw["viewers"]:]
    frames = sum(s["frames"] for s in timed_sessions)
    traced_fps = end_to_end(raw)["frames_per_s"]
    if untraced_fps:
        trace_overhead = 100.0 * (untraced_fps - traced_fps) / untraced_fps
    else:
        trace_overhead = (
            100.0 * len(a) * raw["probe_cost_s"] / (raw["t_closed"] - raw["t_first_frame"])
        )

    serve_c, pool_c, shared_c = raw["serve_counters"], raw["pool_counters"], b["shared_counters"]
    return {
        "engine.predict_ms_p50": _ms_p(predicts, 0.5),
        "engine.predict_busy_s": sum(predicts),
        "engine.train_forward_ms_p50": _ms_p(_durations(b_spans, "engine.train_forward"), 0.5),
        "engine.train_backward_ms_p50": _ms_p(_durations(b_spans, "engine.train_backward"), 0.5),
        "engine.train_steps": len(_durations(b_spans, "engine.train_backward")),
        "engine.plan_compile_s": sum(compiles),
        "engine.plan_compiles": len(compiles),
        "models.teacher_infer_ms_p50": _ms_p(teacher, 0.5),
        "models.teacher_busy_s": sum(teacher),
        "distill.train_ms_p50": _ms_p(train, 0.5),
        "distill.train_ms_p90": _ms_p(train, 0.9),
        "distill.overhead_ms_p50": _ms_p(_self_times(b_spans, "distill.train"), 0.5),
        "distill.steps_per_keyframe": sum(steps) / len(steps) if steps else 0.0,
        "distill.zero_step_keyframes": sum(1 for s in steps if s == 0),
        "striding.key_frame_pct": (
            100.0 * sum(s["key_frames"] for s in timed_sessions) / frames if frames else 0.0
        ),
        "striding.mean_stride": (
            math.fsum(s["mean_stride"] * s["frames"] for s in timed_sessions) / frames
            if frames else 0.0
        ),
        "runtime.blocked_pct": 100.0 * timed_rtt / window if window > 0 else 0.0,
        "runtime.client_overhead_ms_p50": _ms_p(overhead, 0.5),
        "nn.diff_ms_p50": _ms_p(_durations(b_spans, "nn.state_dict_diff"), 0.5),
        "nn.apply_ms_p50": _ms_p(_durations(a, "nn.apply_state_dict"), 0.5),
        "nn.digest_ms_p50": _ms_p(_durations(a, "nn.state_dict_digest"), 0.5),
        "transport.encode_frame_ms_p50": _ms_p((kb * r["encode_frame_s"] for r in wire_rows), 0.5),
        "transport.decode_frame_ms_p50": _ms_p((kb * r["decode_frame_s"] for r in wire_rows), 0.5),
        "transport.encode_reply_ms_p50": _ms_p((kb * r["encode_reply_s"] for r in wire_rows), 0.5),
        "transport.decode_reply_ms_p50": _ms_p((kb * r["decode_reply_s"] for r in wire_rows), 0.5),
        "transport.frame_bytes": median([r["frame_bytes"] for r in wire_rows]),
        "transport.reply_bytes": median([r["reply_bytes"] for r in wire_rows]),
        "transport.framing_overhead_pct": (
            100.0 * (encoded - payload) / payload if payload else 0.0
        ),
        "transport.echo_frame_ms_p50": _ms_p((row[0] for row in echo), 0.5),
        "transport.echo_reply_ms_p50": _ms_p((row[1] for row in echo), 0.5),
        "transport.ack_ms_p50": _ms_p((row[2] for row in echo), 0.5),
        "serving.key_frame_rtt_ms_p50": ka * quantile(_rtt_ms(raw), 0.5),
        "serving.key_frame_rtt_ms_p90": ka * quantile(_rtt_ms(raw), 0.9),
        "serving.key_frame_rtt_samples": len(_timed_key_frames(raw)),
        "serving.residual_ms_p50": _ms_p(residual, 0.5),
        "serving.residual_ms_p90": _ms_p(residual, 0.9),
        "serving.shared_ms_p50": _ms_p(_self_times(b_spans, "serving.shared_distill"), 0.5),
        "serving.cohorts": serve_c.get("cohorts", 0),
        "serving.max_cohort": serve_c.get("max_cohort", 0),
        "serving.batch_runs": serve_c.get("batch_runs", 0),
        "serving.batched_frames": serve_c.get("batched_frames", 0),
        "serving.deduped_frames": serve_c.get("deduped_frames", 0),
        "serving.single_frames": serve_c.get("single_frames", 0),
        "serving.shared_hits": shared_c.get("hits", 0),
        "serving.shared_misses": shared_c.get("misses", 0),
        "serving.pool_dedup_frames": pool_c.get("deduped_frames", 0),
        "serving.pool_batch_runs": pool_c.get("batch_runs", 0),
        "serving.pool_single_frames": pool_c.get("single_frames", 0),
        "serving.pool_ticks": pool_c.get("ticks", 0),
        "bench.trace_overhead_pct": trace_overhead,
        "bench.reconcile_err_pct": 100.0 * over / sum(rtt) if rtt else 0.0,
    }


def result_line(raw: dict, untraced_fps: Optional[float] = None) -> dict:
    """The one JSON object a run prints last (the driver's contract):
    end-to-end metrics for an untraced run, per-layer for a traced one."""
    attempted, failed = failed_ops(raw)
    if raw["traced"] and "phase_b" in raw:
        values = per_layer(raw, untraced_fps)
        units = {name: unit for name, unit, _ in PER_LAYER}
    elif raw["traced"]:
        values, units = {}, {}   # the replay raised; failed > 0 says so
    else:
        values = end_to_end(raw)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


# ----------------------------------------------------------------------
# Many runs
# ----------------------------------------------------------------------
def load(paths: Iterable[pathlib.Path]) -> List[dict]:
    """The raw run blocks among ``paths`` (``bench/raw/*.json`` also
    matches the Chrome traces, which are skipped)."""
    raws = []
    for path in paths:
        with open(path) as f:
            block = json.load(f)
        if "traceEvents" not in block:
            raws.append(block)
    return raws


def untraced_fps(raws: List[dict], workload: str, frames: int) -> Optional[float]:
    values = [
        end_to_end(r)["frames_per_s"] for r in raws
        if not r["traced"] and r["workload"] == workload
        and r["frames_per_viewer"] == frames
    ]
    return median(values) if values else None


def summarize(raws: List[dict]) -> Dict[str, dict]:
    """Per workload: quartiles of every end-to-end metric across the
    untraced runs, the per-layer metrics of the last traced run, and
    the failure count over all runs."""
    out: Dict[str, dict] = {}
    # a fault-injection run (the self-test's) is not a measurement
    raws = [r for r in raws if not r.get("inject")]
    for name in dict.fromkeys(r["workload"] for r in raws):
        runs = [r for r in raws if r["workload"] == name]
        untraced = [r for r in runs if not r["traced"]]
        traced = [r for r in runs if r["traced"] and "phase_b" in r]
        block: Dict[str, dict] = {"end_to_end": {}, "per_layer": {}}
        values = [end_to_end(r) for r in untraced]
        counts = [sample_counts(r) for r in untraced]
        for metric, _, _, _ in END_TO_END:
            series = [v[metric] for v in values]
            q1, q2, q3 = quartiles(series)
            block["end_to_end"][metric] = {
                "median": q2, "q1": q1, "q3": q3, "runs": len(series),
                "spread": spread(series),
                "samples": (
                    median([c[metric] for c in counts])
                    if counts and metric in counts[0] else None
                ),
            }
        if traced:
            last = traced[-1]
            block["per_layer"] = per_layer(
                last, untraced_fps(untraced, name, last["frames_per_viewer"])
            )
        attempted = failed = 0
        for r in runs:
            a, f = failed_ops(r)
            attempted, failed = attempted + a, failed + f
        block["attempted"], block["failed"] = attempted, failed
        block["failed_ops_pct"] = 100.0 * failed / attempted if attempted else 0.0
        block["fingerprint"] = runs[-1]["fingerprint"]
        block["seeds"] = sorted({r["seed"] for r in runs})
        block["frames_per_viewer"] = runs[-1]["frames_per_viewer"]
        out[name] = block
    return out


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def print_tables(summary: Dict[str, dict], out=sys.stdout) -> None:
    arrow = {"higher": "^", "lower": "v"}
    for name, block in summary.items():
        fp = block["fingerprint"]
        seeds = ",".join(map(str, block["seeds"]))
        print(f"\n== {name} ({block['frames_per_viewer']} frames/viewer, "
              f"seeds {seeds}, fingerprint {fp['fingerprint_hash']}: "
              f"{fp['nproc']} x {fp['cpu_model']}, python {fp['python']}, "
              f"numpy {fp['numpy']}, {fp['blas']}, "
              f"OPENBLAS_NUM_THREADS={fp['openblas_num_threads']}, "
              f"git {fp['git_rev']}) ==", file=out)
        print(f"{'end-to-end metric':<30}{'unit':<7}{'':<2}{'median':>10}"
              f"{'q1':>10}{'q3':>10}{'iqr%':>7}{'bound%':>7}{'runs':>5}{'samples':>8}",
              file=out)
        for metric, unit, better, bound in END_TO_END:
            m = block["end_to_end"][metric]
            print(f"{metric:<30}{unit:<7}{arrow[better]:<2}{_fmt(m['median']):>10}"
                  f"{_fmt(m['q1']):>10}{_fmt(m['q3']):>10}"
                  f"{100 * m['spread']:>7.2f}{100 * bound:>7.1f}{m['runs']:>5}"
                  f"{_fmt(m['samples']):>8}", file=out)
        print(f"{'failed_ops_pct':<30}{'%':<7}{'v':<2}{_fmt(block['failed_ops_pct']):>10}"
              f"   ({block['failed']} of {block['attempted']} operations)", file=out)
        if block["per_layer"]:
            print(f"{'per-layer metric (traced run)':<38}{'unit':<7}{'':<2}{'value':>12}",
                  file=out)
            for metric, unit, better in PER_LAYER:
                print(f"{metric:<38}{unit:<7}{arrow[better]:<2}"
                      f"{_fmt(block['per_layer'][metric]):>12}", file=out)


def compare_sets(first: Dict[str, dict], second: Dict[str, dict], out=sys.stdout) -> bool:
    """Repeatability gate: the two sets' medians must agree within each
    metric's bound, exact metrics bit for bit.  Prints the table."""
    ok = True
    print(f"\n{'workload':<18}{'metric':<24}{'set 1':>11}{'set 2':>11}"
          f"{'diff%':>8}{'bound%':>8}{'iqr1%':>7}{'iqr2%':>7}  verdict", file=out)
    for name in first:
        for metric, _, _, bound in END_TO_END:
            m1 = first[name]["end_to_end"][metric]
            m2 = second[name]["end_to_end"][metric]
            base = abs(m1["median"]) or 1.0
            diff = abs(m2["median"] - m1["median"]) / base
            good = m1["median"] == m2["median"] if metric in EXACT else diff <= bound
            ok &= good
            print(f"{name:<18}{metric:<24}{_fmt(m1['median']):>11}"
                  f"{_fmt(m2['median']):>11}{100 * diff:>8.2f}"
                  f"{0.0 if metric in EXACT else 100 * bound:>8.1f}"
                  f"{100 * m1['spread']:>7.2f}{100 * m2['spread']:>7.2f}  "
                  f"{'ok' if good else 'FAIL'}", file=out)
        for block in (first[name], second[name]):
            if block["failed"]:
                ok = False
                print(f"{name:<18}failed operations: {block['failed']}", file=out)
    return ok


def write_baseline(summary: Dict[str, dict]) -> None:
    """Record ``summary`` as the baseline of its fingerprint's segment.
    Other segments (other boxes) are left as they are."""
    segments = json.loads(BASELINES.read_text()) if BASELINES.exists() else {}
    for name, block in summary.items():
        fp = block["fingerprint"]
        segment = segments.setdefault(
            fp["fingerprint_hash"], {"fingerprint": {}, "workloads": {}}
        )
        segment["fingerprint"] = {
            k: v for k, v in fp.items() if k not in ("seed", "fingerprint_hash")
        }
        segment["workloads"][name] = {
            "seeds": block["seeds"],
            "frames_per_viewer": block["frames_per_viewer"],
            "end_to_end": block["end_to_end"],
            "per_layer": block["per_layer"],
        }
    BASELINES.write_text(json.dumps(segments, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("raw", nargs="+", type=pathlib.Path, help="raw run files")
    parser.add_argument("--write-baseline", action="store_true",
                        help="store the summary in bench/baselines.json under "
                             "its fingerprint hash")
    args = parser.parse_args(argv)
    summary = summarize(load(args.raw))
    print_tables(summary)
    if args.write_baseline:
        write_baseline(summary)
    return 1 if any(block["failed"] for block in summary.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
