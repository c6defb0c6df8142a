"""Tests for the TCP socket transport (cross-host serving).

Same contracts the shm ring is held to: bitwise message round trips,
measured wire sizes, clean spawn/join of a server child, and a full
ShadowTutor session ADMITted on a one-session TCP server process with
``RunStats`` identical to the in-process run.
"""

import numpy as np
import pytest

from repro.distill.config import DistillConfig
from repro.runtime.server import ServerReply
from repro.runtime.session import SessionConfig, run_shadowtutor
from repro.transport import registry
from repro.transport.socket import SocketTransport, make_pair, run_in_subprocess
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video


class TestSocketPair:
    def test_roundtrip_bitwise(self):
        a, b = make_pair(timeout_s=10.0)
        try:
            frame = np.random.default_rng(0).random((3, 32, 48)).astype(np.float32)
            label = np.random.default_rng(1).integers(0, 9, (32, 48))
            a.send((frame, label), nbytes=frame.nbytes)
            got_frame, got_label = b.recv()
            assert got_frame.tobytes() == frame.tobytes()
            assert got_label.tobytes() == label.tobytes()
        finally:
            b.close(), a.close()

    def test_tagged_messages_and_poll(self):
        a, b = make_pair(timeout_s=10.0)
        try:
            assert not b.poll()
            a.send_tagged(9, np.arange(4, dtype=np.int32))
            session, payload = b.recv_tagged()
            assert session == 9
            np.testing.assert_array_equal(payload, np.arange(4))
        finally:
            b.close(), a.close()

    def test_recv_timeout(self):
        a, b = make_pair(timeout_s=0.1)
        try:
            with pytest.raises(TimeoutError):
                b.recv()
        finally:
            b.close(), a.close()

    def test_peer_close_raises_connection_error(self):
        a, b = make_pair(timeout_s=5.0)
        a.close()
        try:
            with pytest.raises(ConnectionError):
                b.recv()
        finally:
            b.close()


def _echo_server(endpoint):
    while True:
        msg = endpoint.recv()
        if msg is None:
            break
        endpoint.send(msg, 0)


class TestSubprocess:
    def test_echo_across_process_boundary(self):
        endpoint, proc = run_in_subprocess(_echo_server, timeout_s=30.0)
        try:
            reply = ServerReply(
                update={"w": np.ones((8, 8), np.float32)},
                metric=0.5, steps=2, initial_metric=0.25,
            )
            endpoint.send(reply, nbytes=256)
            echoed = endpoint.recv()
            assert isinstance(echoed, ServerReply)
            assert echoed.update["w"].tobytes() == reply.update["w"].tobytes()
        finally:
            endpoint.send(None, nbytes=1)
            proc.join(timeout=20)
            endpoint.close()
        assert proc.exitcode == 0

    def test_registered_in_registry(self):
        assert "socket" in registry.available_transports()
        a, b = registry.make_pair("socket", timeout_s=5.0)
        try:
            assert isinstance(a, SocketTransport)
            assert isinstance(b, SocketTransport)
        finally:
            a.close(), b.close()


class TestSessionOverSocket:
    def test_socket_session_identical_to_inproc(self):
        """The transport contract: a session ADMITted on a one-session
        server process over TCP produces RunStats identical to the
        in-process run."""
        from repro.serving.runtime import start_server

        def run(attach=None):
            config = SessionConfig(
                distill=DistillConfig(max_updates=4, threshold=0.7,
                                      min_stride=4, max_stride=16),
                student_width=0.25,
                pretrain_steps=10,
                attach=attach,
            )
            video = make_category_video(
                CATEGORY_BY_KEY["fixed-people"], height=32, width=48
            )
            return run_shadowtutor(video, 16, config, label="t")

        handle = start_server(transport="socket", n_clients=1,
                              idle_timeout_s=60)
        try:
            remote = run(handle.ticket())
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        assert remote.signature() == run().signature()
