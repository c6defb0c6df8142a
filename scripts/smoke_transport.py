#!/usr/bin/env python3
"""Tier-1 smoke test: tiny real two-process sessions over shm and socket.

Runs one ShadowTutor session ADMITted on a one-session server process
(``start_server(n_clients=1)`` + ``handle.ticket()``) over the
shared-memory ring transport and asserts its ``RunStats`` is
*identical* to the same session run in-process — the transport
subsystem's core contract, checked in seconds so the real-transport
path cannot silently rot.  Then one short ``moving-people`` session
over the socket transport, whose key frames mix trained and zero-step
serves: every REPLY frame is measured as it comes off the socket, and
a ``steps == 0`` one must be the bare 38-byte header, every other one
the full partial diff.  ``scripts/test_tier1.sh`` runs this under a
hard timeout after the pytest suite.
"""

import dataclasses
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.distill.config import DistillConfig  # noqa: E402
from repro.models.student import partial_freeze  # noqa: E402
from repro.nn.serialize import state_dict_diff  # noqa: E402
from repro.runtime.server import ServerReply  # noqa: E402
from repro.runtime.session import (  # noqa: E402
    SessionConfig, pretrained_student, run_shadowtutor,
)
from repro.serving.runtime import start_server  # noqa: E402
from repro.transport import wire  # noqa: E402
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video  # noqa: E402

HW = (32, 48)


def run(config, category="fixed-people", frames=16):
    video = make_category_video(CATEGORY_BY_KEY[category],
                                height=HW[0], width=HW[1])
    return run_shadowtutor(video, frames, config, label="smoke")


def zero_step_replies_are_headers() -> str:
    """The socket leg: measured REPLY sizes against the steps taken."""
    config = SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.6,
                              min_stride=4, max_stride=16),
        student_width=0.25,
        pretrain_steps=16,
    )
    inproc = run(config, "moving-people", 48)
    student = pretrained_student(config.student_width, config.student_seed,
                                 config.pretrain_steps, HW)
    partial_freeze(student)
    full_diff = wire.encoded_nbytes(
        ServerReply(state_dict_diff(student), 0.0, 1, 0.0))
    empty = wire.encoded_nbytes(ServerReply({}, 0.0, 0, 0.0))

    measured = []  # (steps, bytes that came off the socket)
    decode = wire.decode_tagged

    def measuring_decode(buf):
        tag, msg = decode(buf)
        if isinstance(msg, ServerReply):
            measured.append((msg.steps, len(buf)))
        return tag, msg

    handle = start_server(transport="socket", n_clients=1, idle_timeout_s=60)
    wire.decode_tagged = measuring_decode
    try:
        remote = run(dataclasses.replace(config, attach=handle.ticket()),
                     "moving-people", 48)
    finally:
        wire.decode_tagged = decode
        handle.close()
    assert handle.process.exitcode == 0, (
        f"server process exited with {handle.process.exitcode}"
    )
    assert remote.signature() == inproc.signature(), (
        "socket-transport session diverged from the in-process run:\n"
        f"  inproc: {inproc.summary()}\n  socket: {remote.summary()}"
    )
    steps = [k.steps for k in inproc.key_frames]
    assert [s for s, _ in measured] == steps, (measured, steps)
    assert 0 in steps and any(steps), f"session no longer mixes serves: {steps}"
    assert empty == 38, f"an empty REPLY is {empty} bytes, not the 38-byte header"
    for taken, nbytes in measured:
        want = empty if taken == 0 else full_diff
        assert nbytes == want, (
            f"a {taken}-step REPLY measured {nbytes} bytes on the socket, "
            f"expected {want}"
        )
    return (f"{steps.count(0)} of {len(steps)} replies over socket were the "
            f"{empty}-byte header, the rest {full_diff} bytes")


def main() -> int:
    config = SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.7,
                              min_stride=4, max_stride=16),
        student_width=0.25,
        pretrain_steps=10,
    )
    inproc = run(config)
    handle = start_server(transport="shm", n_clients=1, idle_timeout_s=60)
    try:
        shm = run(dataclasses.replace(config, attach=handle.ticket()))
    finally:
        handle.close()
    assert handle.process.exitcode == 0, (
        f"server process exited with {handle.process.exitcode}"
    )
    assert shm.signature() == inproc.signature(), (
        "shm-transport session diverged from the in-process run:\n"
        f"  inproc: {inproc.summary()}\n  shm:    {shm.summary()}"
    )
    sizes = zero_step_replies_are_headers()
    print(f"transport smoke OK: {shm.num_frames} frames, "
          f"{shm.num_key_frames} key frames over shm, RunStats identical "
          f"to in-process; {sizes}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
