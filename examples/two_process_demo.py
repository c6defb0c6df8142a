#!/usr/bin/env python3
"""Live distributed demo: one server process, N client processes.

The evaluation harness uses a simulated clock for reproducible timing,
but the protocol itself (Algorithms 3 and 4) is transport-agnostic.
This demo runs the *real* thing in two shapes:

* ``--transport pipe`` — the classic two-process deployment: a
  dedicated server process speaks Algorithm 3 over a pickled
  ``multiprocessing.Pipe`` while this process runs Algorithm 4's
  asynchronous client loop (one update in flight, non-blocking test).
* ``--transport shm|socket --clients N`` — the multiplexed deployment:
  ONE server process (:class:`repro.serving.runtime.ServerRuntime`)
  owns the teacher and every client's server-side student, polls all
  N client connections in a single event loop, and shares bitwise-
  identical distillation work across client *processes*.  Each client
  process streams its own video category.
* ``--late-joiners K`` — every client process admits its session over
  the wire (ADMIT, docs/PROTOCOL.md); the last K clients dial in
  staggered, *after* the server is already mid-run serving the others
  — the mobile-clients-coming-and-going deployment.

Run::

    python examples/two_process_demo.py --transport pipe
    python examples/two_process_demo.py --transport shm --clients 4
    python examples/two_process_demo.py --transport socket --clients 8
    python examples/two_process_demo.py --transport shm --clients 4 --late-joiners 2
"""

import argparse
import itertools
import time

import numpy as np

from repro import DistillConfig, OracleTeacher, StudentNet, mean_iou
from repro.nn.serialize import apply_state_dict
from repro.runtime.server import Server
from repro.striding.adaptive import AdaptiveStride
from repro.transport.registry import spawn_server
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

_DISTILL = dict(max_updates=8, threshold=0.7, min_stride=4, max_stride=32)


def server_process(endpoint) -> None:
    """Algorithm 3 in a dedicated child process (pipe path)."""
    config = DistillConfig(**_DISTILL)
    server = Server(StudentNet(width=0.4, seed=0), OracleTeacher(), config)
    server.serve(endpoint)


def run_dedicated(args) -> None:
    """The legacy 1-client deployment over a pickled pipe."""
    config = DistillConfig(**_DISTILL)
    endpoint, proc = spawn_server(args.transport, server_process)

    # Client side (Algorithm 4, asynchronous variant).
    student = StudentNet(width=0.4, seed=0)
    initial = endpoint.recv()
    student.load_state_dict(initial)
    print(f"received initial student ({len(initial)} arrays) over "
          f"{args.transport} from server pid={proc.pid}")

    video = make_category_video(CATEGORY_BY_KEY["fixed-people"])
    policy = AdaptiveStride(config)
    stride = policy.frames_to_next()
    step = stride
    pending = None
    mious, n_key = [], 0

    def apply_reply(reply, index):
        nonlocal stride
        apply_state_dict(student, reply.update)
        policy.update(reply.metric)
        stride = policy.frames_to_next()
        print(f"frame {index:4d}: update applied "
              f"(metric={reply.metric:.2f}, steps={reply.steps}, "
              f"next stride={stride})")

    student.eval()
    for index, (frame, label) in enumerate(video.frames(args.frames)):
        if step == stride:
            if pending is not None:
                # Exactly one update in flight (Algorithm 4): an
                # overdue update is awaited and applied before the next
                # key frame dispatches — also what keeps the ring's
                # bounded slots from ever backing up.
                apply_reply(pending.wait(), index)
            endpoint.send((frame, label), nbytes=frame.nbytes)
            pending = endpoint.irecv()
            n_key += 1
            step = 0

        pred = student.predict(frame)
        mious.append(mean_iou(pred, label))
        step += 1

        if pending is not None and pending.test():
            apply_reply(pending.payload(), index)
            pending = None

    if pending is not None:
        apply_reply(pending.wait(), args.frames - 1)
    endpoint.send(None, nbytes=1)
    proc.join(timeout=30)
    close = getattr(endpoint, "close", None)
    if close is not None:
        close()

    print("=" * 60)
    print(f"processed {args.frames} frames, {n_key} key frames "
          f"({100 * n_key / args.frames:.1f}%) over {args.transport}")
    print(f"mean mIoU vs teacher: {100 * np.mean(mious):.1f}%")
    print(f"server process exited with code {proc.exitcode}")


def run_multiplexed(args) -> None:
    """The 1-server/N-client deployment: every client admits its
    session over the wire, optionally with late joiners."""
    from repro.runtime.session import SessionConfig
    from repro.serving.runtime import run_churn_processes, start_server

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
    parser.add_argument("--transport", choices=("pipe", "shm", "socket"),
                        default="pipe",
                        help="pipe = dedicated server process (legacy); "
                             "shm/socket = one multiplexed server process")
    parser.add_argument("--clients", type=int, default=None, metavar="N",
                        help="client processes served by ONE server process "
                             "(shm/socket only; default 4)")
    parser.add_argument("--late-joiners", type=int, default=0, metavar="K",
                        help="have the last K clients dial in staggered, "
                             "against the already-running server "
                             "(shm/socket only)")
    args = parser.parse_args()

    if args.transport == "pipe":
        if args.clients not in (None, 1):
            parser.error("--clients needs a multiplexing transport "
                         "(--transport shm or socket)")
        if args.late_joiners:
            parser.error("--late-joiners needs a multiplexing transport "
                         "(--transport shm or socket)")
        run_dedicated(args)
    else:
        args.clients = args.clients or 4
        if not 0 <= args.late_joiners <= args.clients:
            parser.error("--late-joiners must be between 0 and --clients")
        run_multiplexed(args)


if __name__ == "__main__":
    main()
