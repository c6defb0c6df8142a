"""Phase B of a traced run: the server side, decomposed by replay.

Algorithm 3 is deterministic, so what the server process spent on each
key frame can be measured from outside it: feed the exact key frames
phase A sent, in the order sent, through an in-process
``Server(pretrained_student(...), build_teacher(cfg), ...,
work_cache=SharedDistillation())`` per session, one memo for the whole
run — the objects the runtime builds — with probes on the public calls underneath, and
require every replayed reply to be digest-equal to the one phase A
received.  The same messages are then encoded and decoded with
``wire.encode`` / ``wire.decode_tagged``, and pushed through the
workload's transport to a bench-owned echo process, so wire and transit
are timed on the real payloads too.

Returns samples only (see :mod:`bench.report` for the statistics).
"""

from __future__ import annotations

import time
from typing import Dict, List

from probe import Probe
from workloads import Workload

#: One-byte acknowledgement the echo process answers every message with.
_ACK_BYTES = 1


def _echo_main(endpoint) -> None:
    """Bench-owned echo target: acknowledge each message with one byte
    until the ``None`` sentinel arrives."""
    import numpy as np

    ack = np.zeros(_ACK_BYTES, dtype=np.uint8)
    while endpoint.recv() is not None:
        endpoint.send(ack, _ACK_BYTES)


def _time_echo(transport: str, messages: List[tuple]) -> List[list]:
    """``[frame_s, reply_s, ack_s]`` per key frame: message out through
    the transport (encode, transit, decode on the far side), ack back.
    The third column sends an ack-sized message out, so it is two bare
    trips: what the acknowledgement adds to the other two columns."""
    import numpy as np

    from repro.transport import spawn_server

    endpoint, process = spawn_server(transport, _echo_main)
    ping = np.zeros(_ACK_BYTES, dtype=np.uint8)
    rows = []
    try:
        for frame_msg, reply in messages:
            row = []
            for msg in (frame_msg, reply, ping):
                start = time.perf_counter()
                endpoint.send(msg, 0)
                endpoint.recv()
                row.append(time.perf_counter() - start)
            rows.append(row)
    finally:
        try:
            endpoint.send(None, 1)
        finally:
            process.join(timeout=30.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            endpoint.close()
    return rows


def _time_wire(messages: List[tuple], sessions: List[int]) -> List[dict]:
    from repro.transport import wire

    rows = []
    for (frame_msg, reply), session in zip(messages, sessions):
        row: Dict[str, float] = {}
        for kind, msg in (("frame", frame_msg), ("reply", reply)):
            start = time.perf_counter()
            buf = wire.encode(msg, session=session)
            mid = time.perf_counter()
            wire.decode_tagged(buf)
            end = time.perf_counter()
            row[f"encode_{kind}_s"] = mid - start
            row[f"decode_{kind}_s"] = end - mid
            row[f"{kind}_bytes"] = wire.encoded_nbytes(msg)
            row[f"{kind}_payload_bytes"] = wire.payload_nbytes(msg)
        rows.append(row)
    return rows


#: Key frames replayed between two speed-index readings.
_CALIBRATE_EVERY = 16


def replay(workload: Workload, sent: List[dict], t0: float, calibrator) -> dict:
    import repro.engine.compiler as compiler
    import repro.runtime.server as server_module
    from repro.distill.trainer import StudentTrainer
    from repro.engine.training import CompiledTrainStep
    from repro.models.student import StudentNet
    from repro.nn.serialize import state_dict_digest
    from repro.runtime.server import Server
    from repro.runtime.session import build_teacher, pretrained_student
    from repro.serving import SharedDistillation

    config = workload.session_config()
    shared = SharedDistillation()
    teacher = build_teacher(config)
    # One server per session, built when the session's first key frame
    # arrives (the runtime builds it at HELLO): outside the serve span,
    # inside the probe, so its plan compiles are counted.  A round's
    # servers are dropped when the next round's first key frame arrives,
    # as the runtime drops a session at BYE — a replay that kept them
    # all would pay page faults on ever-fresh memory that the server
    # process, recycling its ended sessions' memory, never paid.
    servers: Dict[int, Server] = {}
    session_of: Dict[int, int] = {}
    ordinals: Dict[int, int] = {}

    def server_for(session: int) -> Server:
        if servers and min(servers) // workload.viewers != session // workload.viewers:
            servers.clear()
            session_of.clear()
        if session not in servers:
            servers[session] = server = Server(
                pretrained_student(config.student_width, config.student_seed,
                                   config.pretrain_steps, workload.hw),
                teacher, config.distill, config.sizes, work_cache=shared,
            )
            session_of[id(server)] = session
        return servers[session]

    def request(server, frame, label=None, **_):
        session = session_of[id(server)]
        ordinals[session] = ordinals.get(session, 0) + 1
        return (session, ordinals[session] - 1)

    mismatches = 0
    calibration: List[float] = []
    with Probe() as probe:
        probe.wrap(Server, "handle_key_frame", "runtime.serve", request=request)
        probe.wrap(type(teacher), "infer", "models.teacher_infer")
        probe.wrap(SharedDistillation, "distill", "serving.shared_distill")
        probe.wrap(Server, "distill", "runtime.distill")
        probe.wrap(StudentTrainer, "train", "distill.train")
        probe.wrap(StudentNet, "predict", "engine.predict")
        probe.wrap(CompiledTrainStep, "forward_only", "engine.train_forward")
        probe.wrap(CompiledTrainStep, "finish_step", "engine.train_backward")
        probe.wrap(CompiledTrainStep, "__init__", "engine.compile_plan")
        probe.wrap(compiler, "compile_plan", "engine.compile_plan")
        probe.wrap(server_module, "state_dict_diff", "nn.state_dict_diff")
        for index, row in enumerate(sent):
            if index % _CALIBRATE_EVERY == 0:
                calibration.append(calibrator.read())
            reply, _ = server_for(row["session"]).handle_key_frame(
                row["frame"], row["label"]
            )
            got = row["reply"]
            same = (
                state_dict_digest(reply.update) == row["digest"]
                and (reply.metric, reply.steps, reply.initial_metric)
                == (got.metric, got.steps, got.initial_metric)
            )
            mismatches += not same
        calibration.append(calibrator.read())

    messages = [((row["frame"], row["label"]), row["reply"]) for row in sent]
    return {
        "spans": [
            [name, start - t0, end - t0, parent, req]
            for name, start, end, parent, req in probe.spans
        ],
        "calibration_s": calibration,
        "digest_mismatches": mismatches,
        "shared_counters": dict(shared.counters),
        "wire": _time_wire(messages, [row["session"] for row in sent]),
        "echo": _time_echo(workload.transport, messages),
    }
