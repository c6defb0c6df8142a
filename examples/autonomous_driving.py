#!/usr/bin/env python3
"""Domain scenario: street segmentation for a vehicle-mounted camera.

The paper's introduction motivates ShadowTutor with autonomous vehicles
performing road/obstacle segmentation.  This example builds that
workload: a fast-moving street scene (many small vehicles, pedestrians
and cyclists, frequent content churn) captured from a moving camera,
and examines how the system copes with a degrading cellular link —
sweeping the bandwidth mid-scenario the way a vehicle drives through
coverage holes.

Run::

    python examples/autonomous_driving.py [--frames N]
"""

import argparse
import dataclasses

from repro import (
    DistillConfig,
    SessionConfig,
    make_category_video,
    run_naive,
    run_shadowtutor,
)
from repro.network import constant_link
from repro.video.dataset import CATEGORY_BY_KEY


def run_at_bandwidth(video, frames, bandwidth_mbps):
    config = SessionConfig(student_width=0.5)
    config.network = constant_link(bandwidth_mbps)
    shadow = run_shadowtutor(video, frames, config,
                             label=f"street@{bandwidth_mbps}Mbps")
    naive = run_naive(video, frames, config)
    return shadow, naive


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=250)
    args = parser.parse_args()

    spec = CATEGORY_BY_KEY["moving-street"]
    print("scenario: vehicle-mounted camera, moving street scene")
    print(f"objects/frame: {spec.num_objects}  object speed: {spec.speed} px/f"
          f"  scene cuts every {spec.shot_length} frames")
    print("=" * 72)
    print(f"{'bandwidth':>10} | {'ShadowTutor FPS':>16} | {'naive FPS':>10} | "
          f"{'ST mIoU %':>9} | {'kf %':>6}")
    print("-" * 72)

    for bandwidth in (80, 40, 20, 8):
        video = make_category_video(spec)
        shadow, naive = run_at_bandwidth(video, args.frames, bandwidth)
        print(f"{bandwidth:>8} Mb | {shadow.throughput_fps:>16.2f} | "
              f"{naive.throughput_fps:>10.2f} | "
              f"{100 * shadow.mean_miou:>9.1f} | "
              f"{100 * shadow.key_frame_ratio:>6.2f}")

    print("-" * 72)
    print("ShadowTutor holds its frame rate while the naive offloader")
    print("collapses with the link: asynchronous inference hides network")
    print("latency for up to MIN_STRIDE frames after each key frame.")


if __name__ == "__main__":
    main()
