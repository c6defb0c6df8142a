#!/usr/bin/env python3
"""Inspect a ShadowTutor run in depth: timelines, delay histogram,
boundary-error decomposition, and visual artifacts.

This example exercises the analysis tooling on one run:

* exports a contact sheet of the stream (PPM, no image libs needed);
* runs ShadowTutor once;
* prints the run summary, the stride timeline as an ASCII plot, and the
  update-delay histogram (all read from the returned ``RunStats``);
* decomposes the student's residual error into boundary-band vs
  interior error — showing the online-distilled student's mistakes
  concentrate at object edges.

Run::

    python examples/inspect_run.py [--frames N] [--out DIR]
"""

import argparse
import pathlib

import numpy as np

from repro import DistillConfig, OracleTeacher, StudentNet
from repro.analysis import ascii_plot, delay_histogram, stride_timeline, summarize_run
from repro.nn.serialize import clone_state_dict
from repro.runtime.client import Client
from repro.runtime.server import Server
from repro.runtime.session import pretrained_student
from repro.segmentation.boundary import error_decomposition
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video
from repro.video.preview import export_stream_sample


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=200)
    parser.add_argument("--category", default="moving-animals",
                        choices=sorted(CATEGORY_BY_KEY))
    parser.add_argument("--out", default="run_artifacts")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out)
    spec = CATEGORY_BY_KEY[args.category]

    # 1. Visual sample of the stream.
    video = make_category_video(spec)
    sheet = export_stream_sample(video, out_dir / f"{spec.key}.ppm",
                                 num_frames=8, stride=args.frames // 8 or 1)
    print(f"wrote stream contact sheet -> {sheet}")

    # 2. System run.
    config = DistillConfig()
    hw = (video.config.height, video.config.width)
    server = Server(pretrained_student(0.5, 0, 80, hw), OracleTeacher(), config)
    client = Client(pretrained_student(0.5, 0, 80, hw), server, config)
    video.reset()
    stats = client.run(video.frames(args.frames), label=spec.key)

    print()
    print(summarize_run(stats))

    # 3. Stride timeline.
    idx, strides = stride_timeline(stats)
    sample = slice(None, None, max(1, len(idx) // 60))
    print()
    print(ascii_plot(idx[sample], {"stride": strides[sample]},
                     title="Algorithm 2 stride over the stream",
                     y_min=0, y_max=config.max_stride + 4))

    # 4. Update-delay histogram.
    delays = delay_histogram(stats)
    if delays:
        print("update application delays (frames -> count):")
        for d, n in delays.items():
            print(f"  {d:3d} | " + "#" * n)

    # 5. Where does the student still err?  Boundary vs interior.
    video.reset()
    decomps = []
    for i, (frame, label) in enumerate(video.frames(args.frames)):
        if i % max(1, args.frames // 10) == 0:
            pred = client.student.predict(frame)
            decomps.append(error_decomposition(pred, label))
    boundary = float(np.mean([d["boundary_error"] for d in decomps]))
    interior = float(np.mean([d["interior_error"] for d in decomps]))
    print()
    print(f"residual error: {100 * boundary:.2f}% of pixels in the "
          f"boundary band vs {100 * interior:.2f}% interior")
    print("(a well-distilled student errs almost only at object edges)")


if __name__ == "__main__":
    main()
