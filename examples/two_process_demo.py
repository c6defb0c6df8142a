#!/usr/bin/env python3
"""Live distributed demo: one server process, N client processes.

The evaluation harness uses a simulated clock for reproducible timing,
but the protocol itself (Algorithms 3 and 4) is transport-agnostic.
This demo runs the *real* thing: ONE server process
(:class:`repro.serving.runtime.ServerRuntime`) owns the teacher and
every client's server-side student, polls all N client connections in
a single event loop, and shares bitwise-identical distillation work
across client *processes*.  Each client process streams its own video
category and admits its session over the wire (ADMIT,
docs/PROTOCOL.md); ``--clients 1`` is the classic two-process
deployment.

``--late-joiners K`` has the last K clients dial in staggered, *after*
the server is already mid-run serving the others — the
mobile-clients-coming-and-going deployment.

Run::

    python examples/two_process_demo.py --clients 1
    python examples/two_process_demo.py --transport shm --clients 4
    python examples/two_process_demo.py --transport socket --clients 8
    python examples/two_process_demo.py --transport shm --clients 4 --late-joiners 2
"""

import argparse
import itertools
import time

from repro import DistillConfig
from repro.runtime.session import SessionConfig
from repro.serving.runtime import run_churn_processes, start_server
from repro.video.dataset import CATEGORY_BY_KEY

_DISTILL = dict(max_updates=8, threshold=0.7, min_stride=4, max_stride=32)


def run_multiplexed(args) -> None:
    """The 1-server/N-client deployment: every client admits its
    session over the wire, optionally with late joiners."""
    hw = (64, 96)
    config = SessionConfig(distill=DistillConfig(**_DISTILL))
    categories = list(itertools.islice(
        itertools.cycle(sorted(CATEGORY_BY_KEY)), args.clients
    ))

    late = args.late_joiners
    start = time.perf_counter()
    handle = start_server(
        transport=args.transport, n_clients=args.clients, idle_timeout_s=300,
    )
    print(f"multiplexing server pid={handle.process.pid} over "
          f"{args.transport}, serving {args.clients} client process(es), "
          f"every session ADMITted over the wire"
          + (f", {late} joining late" if late else ""))
    try:
        # Stagger the last K clients: they dial a server that is
        # already serving the others and admit mid-run.
        jobs = [
            (max(0.0, 1.5 * (i - (args.clients - late) + 1)),
             config, hw, category, args.frames, category)
            for i, category in enumerate(categories)
        ]
        stats = run_churn_processes(handle, jobs, timeout_s=600)
    finally:
        handle.close()
    wall = time.perf_counter() - start

    print("=" * 60)
    for record in stats:
        print(f"  {record.label:<16} {record.num_frames} frames, "
              f"{record.num_key_frames:3d} key frames "
              f"({100 * record.key_frame_ratio:4.1f}%), "
              f"mean mIoU {100 * record.mean_miou:.1f}%")
    total = sum(record.num_frames for record in stats)
    print(f"1 server process served {total} frames across {args.clients} "
          f"client processes in {wall:.2f}s wall "
          f"({total / wall:.1f} frames/s aggregate)")
    print(f"server process exited with code {handle.process.exitcode}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=120)
    parser.add_argument("--transport", choices=("shm", "socket"),
                        default="shm")
    parser.add_argument("--clients", type=int, default=4, metavar="N",
                        help="client processes served by ONE server process")
    parser.add_argument("--late-joiners", type=int, default=0, metavar="K",
                        help="have the last K clients dial in staggered, "
                             "against the already-running server")
    args = parser.parse_args()

    if args.clients < 1:
        parser.error("--clients must be at least 1")
    if not 0 <= args.late_joiners <= args.clients:
        parser.error("--late-joiners must be between 0 and --clients")
    run_multiplexed(args)


if __name__ == "__main__":
    main()
