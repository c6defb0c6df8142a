"""Command-line interface for the ShadowTutor reproduction.

Subcommands::

    python -m repro.cli run    --category fixed-people --frames 300
    python -m repro.cli sweep  --video softball --bandwidths 8 40 80
    python -m repro.cli plan   --max-fps-gap 2.0
    python -m repro.cli table  --name table4

``run`` executes one system run (ShadowTutor vs naive vs wild) and
prints the analysis summary; ``sweep`` is a Figure-4-style bandwidth
sweep with an ASCII plot; ``plan`` evaluates the analytic bounds and
re-derives MAX_UPDATES (section 5.3); ``table`` regenerates a paper
table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.traces import summarize_run
from repro.analytic.bounds import (
    throughput_lower_bound,
    throughput_upper_bound,
    traffic_lower_bound,
    traffic_upper_bound,
)
from repro.analytic.planner import choose_max_updates, paper_params
from repro.experiments.configs import ExperimentScale
from repro.experiments.report import format_table
from repro.network.model import constant_link
from repro.runtime.session import SessionConfig, run_naive, run_shadowtutor, run_wild
from repro.video.dataset import (
    CATEGORY_BY_KEY,
    NAMED_VIDEOS,
    make_category_video,
    make_named_video,
)


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--frames", type=int, default=300)
    parser.add_argument("--width", type=float, default=0.5,
                        help="student width multiplier")
    parser.add_argument("--pretrain", type=int, default=80)


def cmd_run(args: argparse.Namespace) -> int:
    spec = CATEGORY_BY_KEY[args.category]
    config = SessionConfig(student_width=args.width,
                           pretrain_steps=args.pretrain)
    if args.bandwidth:
        config.network = constant_link(args.bandwidth)
    video = make_category_video(spec)
    shadow = run_shadowtutor(video, args.frames, config)
    print(summarize_run(shadow))
    if not args.no_baselines:
        naive = run_naive(video, args.frames, config)
        wild = run_wild(video, args.frames, config)
        print(summarize_run(naive))
        print(summarize_run(wild))
        print(
            f"\nspeedup over naive: "
            f"{shadow.throughput_fps / naive.throughput_fps:.2f}x; "
            f"data reduction: "
            f"{100 * (1 - shadow.total_bytes / naive.total_bytes):.1f}%"
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    series = {args.video: [], "naive": []}
    for bw in args.bandwidths:
        video = make_named_video(args.video)
        config = SessionConfig(student_width=args.width,
                               pretrain_steps=args.pretrain)
        config.network = constant_link(bw)
        shadow = run_shadowtutor(video, args.frames, config)
        naive = run_naive(video, args.frames, config)
        series[args.video].append(shadow.throughput_fps)
        series["naive"].append(naive.throughput_fps)
        print(f"{bw:6.1f} Mbps  shadowtutor={shadow.throughput_fps:5.2f} FPS"
              f"  naive={naive.throughput_fps:5.2f} FPS")
    print()
    print(ascii_plot(args.bandwidths, series,
                     title="throughput (FPS) vs bandwidth (Mbps)"))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    network = constant_link(args.bandwidth)
    try:
        chosen = choose_max_updates(max_fps_gap=args.max_fps_gap, network=network)
        note = f"(largest with FPS gap <= {args.max_fps_gap})"
    except ValueError:
        # At low bandwidth even MAX_UPDATES=0 exceeds the gap: report the
        # bounds at the paper's default instead of failing.
        chosen = 8
        note = (f"(no value satisfies FPS gap <= {args.max_fps_gap} at this "
                "bandwidth; showing the paper default)")
    p = paper_params(max_updates=chosen, network=network)
    print(f"bandwidth          : {args.bandwidth} Mbps")
    print(f"t_net (round trip) : {p.t_net:.3f} s")
    print(f"traffic bounds     : {traffic_lower_bound(p):.2f} .. "
          f"{traffic_upper_bound(p):.1f} Mbps   (Eqs. 8, 12)")
    print(f"throughput bounds  : {throughput_lower_bound(p):.2f} .. "
          f"{throughput_upper_bound(p):.2f} FPS   (Eqs. 14, 15)")
    print(f"chosen MAX_UPDATES : {chosen}   {note}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import tables as T

    runners = {
        "table2": T.table2_distillation,
        "table3": T.table3_throughput,
        "table4": T.table4_data_per_keyframe,
        "table5": T.table5_traffic,
        "table6": T.table6_accuracy,
        "table7": T.table7_low_fps,
    }
    scale = ExperimentScale(num_frames=args.frames,
                            student_width=args.width,
                            pretrain_steps=args.pretrain)
    result = runners[args.name](scale)
    print(format_table(f"{args.name} (frames={scale.num_frames})", result.rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run ShadowTutor on one category")
    p_run.add_argument("--category", default="fixed-people",
                       choices=sorted(CATEGORY_BY_KEY))
    p_run.add_argument("--bandwidth", type=float, default=None)
    p_run.add_argument("--no-baselines", action="store_true")
    _add_scale_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="bandwidth sweep (Figure 4 style)")
    p_sweep.add_argument("--video", default="softball",
                         choices=sorted(NAMED_VIDEOS))
    p_sweep.add_argument("--bandwidths", type=float, nargs="+",
                         default=[8, 20, 40, 80])
    _add_scale_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_plan = sub.add_parser("plan", help="analytic bounds + MAX_UPDATES")
    p_plan.add_argument("--bandwidth", type=float, default=80.0)
    p_plan.add_argument("--max-fps-gap", type=float, default=2.0)
    p_plan.set_defaults(func=cmd_plan)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("--name", required=True,
                         choices=[f"table{i}" for i in range(2, 8)])
    _add_scale_args(p_table)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
