"""Tests for the shared-memory ring transport.

Ring mechanics (sequence handshake, wrap-around, fragmentation),
endpoint semantics (blocking send/recv, measured sizes), the
cross-process path, and the transport registry.
"""

import os
import select

import numpy as np
import pytest

from repro.runtime.server import ServerReply
from repro.transport import registry
from repro.transport.shm import ShmRing, ShmTransport, run_in_subprocess, make_pair


def _pair(**kw):
    kw.setdefault("slots", 4)
    kw.setdefault("slot_nbytes", 1 << 16)
    kw.setdefault("timeout_s", 10.0)
    return make_pair(**kw)


class TestRing:
    def test_roundtrip_in_process(self):
        a, b = _pair()
        try:
            arr = np.arange(12, dtype=np.float32).reshape(3, 4)
            a.send({"x": arr}, nbytes=arr.nbytes)
            msg = b.recv()
            assert msg["x"].tobytes() == arr.tobytes()
        finally:
            b.close(), a.close()

    def test_wraparound_many_messages(self):
        """Sequence counters stay correct far past one ring revolution."""
        a, b = _pair()
        try:
            for i in range(37):  # 37 messages through 4 slots
                payload = np.full((5,), i, dtype=np.int32)
                a.send(payload, nbytes=payload.nbytes)
                out = b.recv()
                np.testing.assert_array_equal(out, payload)
        finally:
            b.close(), a.close()

    def test_fragmented_message_reassembles(self):
        a, b = _pair(slots=8, slot_nbytes=4096)
        try:
            frame = np.random.default_rng(0).random((3, 32, 48)).astype(np.float32)
            label = np.random.default_rng(1).integers(0, 9, (32, 48))
            a.send((frame, label), nbytes=frame.nbytes)  # ~25 KB over 4 KB slots
            got_frame, got_label = b.recv()
            assert got_frame.tobytes() == frame.tobytes()
            assert got_label.tobytes() == label.tobytes()
        finally:
            b.close(), a.close()

    def test_send_timeout_when_ring_full(self):
        a, b = _pair(slots=2, slot_nbytes=4096, timeout_s=0.2)
        try:
            payload = np.zeros(64, np.uint8)
            a.send(payload, 64)
            a.send(payload, 64)
            with pytest.raises(TimeoutError):
                a.send(payload, 64)  # nobody drains: both slots taken
        finally:
            b.close(), a.close()

    def test_recv_timeout_when_empty(self):
        a, b = _pair(timeout_s=0.2)
        try:
            with pytest.raises(TimeoutError):
                b.recv()
        finally:
            b.close(), a.close()

    def test_close_is_idempotent_and_unlinks(self):
        a, b = _pair()
        b.close()
        b.close()
        a.close()
        a.close()

    def test_attach_sees_owner_data(self):
        ring = ShmRing(slots=2, slot_nbytes=4096)
        try:
            other = ShmRing.attach(ring.describe())
            ring.send_message(np.arange(4, dtype=np.int64), timeout_s=1.0)
            out, measured = other.recv_message(timeout_s=1.0)
            np.testing.assert_array_equal(out, np.arange(4))
            assert measured > 0
            other.close()
        finally:
            ring.close()

    def test_ring_validation(self):
        with pytest.raises(ValueError):
            ShmRing(slots=1)
        with pytest.raises(ValueError):
            ShmRing(slot_nbytes=8)


def _echo_server(endpoint):
    """Child process: echoes messages until the sentinel arrives."""
    while True:
        msg = endpoint.recv()
        if msg is None:
            break
        endpoint.send(msg, 0)


class TestSubprocess:
    def test_echo_across_process_boundary(self):
        endpoint, proc = run_in_subprocess(_echo_server, timeout_s=30.0)
        try:
            frame = np.random.default_rng(2).random((3, 48, 64)).astype(np.float32)
            label = np.random.default_rng(3).integers(0, 9, (48, 64))
            endpoint.send((frame, label), nbytes=frame.nbytes)
            got_frame, got_label = endpoint.recv()
            assert got_frame.tobytes() == frame.tobytes()
            assert got_label.tobytes() == label.tobytes()
            reply = ServerReply(
                update={"w": frame}, metric=0.5, steps=2, initial_metric=0.25
            )
            endpoint.send(reply, nbytes=frame.nbytes)
            echoed = endpoint.recv()
            assert isinstance(echoed, ServerReply)
            assert echoed.update["w"].tobytes() == frame.tobytes()
        finally:
            endpoint.send(None, nbytes=1)
            proc.join(timeout=20)
            endpoint.close()
        assert proc.exitcode == 0

    def test_streaming_through_tiny_ring(self):
        """Cross-process, a message much larger than the whole ring
        streams through slot by slot."""
        endpoint, proc = run_in_subprocess(
            _echo_server, slots=2, slot_nbytes=4096, timeout_s=30.0
        )
        try:
            big = np.random.default_rng(4).random((64, 1024)).astype(np.float32)
            endpoint.send(big, nbytes=big.nbytes)  # 256 KB through 8 KB of ring
            out = endpoint.recv()
            assert out.tobytes() == big.tobytes()
        finally:
            endpoint.send(None, nbytes=1)
            proc.join(timeout=20)
            endpoint.close()
        assert proc.exitcode == 0


class TestRegistry:
    def test_builtins_registered(self):
        assert registry.available_transports() == ["shm", "socket"]

    def test_unknown_transport_lists_available(self):
        with pytest.raises(KeyError, match="shm"):
            registry.make_pair("rdma")

    def test_make_pair_shm(self):
        a, b = registry.make_pair("shm", slots=2, slot_nbytes=4096, timeout_s=5.0)
        try:
            a.send(np.ones(2, np.float32), 8)
            np.testing.assert_array_equal(b.recv(), np.ones(2))
        finally:
            b.close(), a.close()


@pytest.mark.skipif(not hasattr(os, "eventfd"), reason="eventfd is Linux-only")
class TestDoorbell:
    """The eventfd doorbells that replaced the blind nap escalation."""

    def test_in_process_attach_adopts_fds(self):
        ring = ShmRing(slots=2, slot_nbytes=4096)
        try:
            assert ring.doorbell_fd is not None
            other = ShmRing.attach(ring.describe())
            assert other.doorbell_fd == ring.doorbell_fd
            other.close()
        finally:
            ring.close()

    def test_foreign_lineage_falls_back_to_naps(self):
        # A spawn child re-imports the module and draws a new cookie;
        # the fd numbers in the descriptor then belong to a foreign fd
        # table and must be ignored, not selected on.
        ring = ShmRing(slots=2, slot_nbytes=4096)
        try:
            name, slots, nbytes, pub, rel, _cookie = ring.describe()
            foreign = ShmRing.attach((name, slots, nbytes, pub, rel, b"\0" * 8))
            assert foreign.doorbell_fd is None
            assert not foreign.arm_doorbell()
            # The ring still works, just bell-less.
            ring.send_message(np.arange(3, dtype=np.int64), timeout_s=1.0)
            out, _ = foreign.recv_message(timeout_s=1.0)
            np.testing.assert_array_equal(out, np.arange(3))
            foreign.close()
        finally:
            ring.close()

    def test_armed_bell_rings_on_publish(self):
        a, b = _pair()
        try:
            fd = b.doorbell_fd()
            assert fd is not None
            assert b.arm_doorbell()
            assert not b.poll()
            payload = np.ones(4, np.float32)
            a.send(payload, payload.nbytes)
            readable, _, _ = select.select([fd], [], [], 1.0)
            assert readable == [fd]
            b.disarm_doorbell()
            np.testing.assert_array_equal(b.recv(), payload)
        finally:
            b.close(), a.close()

    def test_unarmed_publish_skips_the_bell(self):
        # The fast path must not pay an eventfd_write per message: with
        # no waiter declared, publishing leaves the fd silent.
        a, b = _pair()
        try:
            fd = b.doorbell_fd()
            a.send(np.ones(2, np.float32), 8)
            readable, _, _ = select.select([fd], [], [], 0.0)
            assert readable == []
            b.recv()
        finally:
            b.close(), a.close()

    def test_fork_child_wakes_on_doorbell(self):
        # The cross-process path: the forked echo server's waits go
        # through the inherited doorbell fds (same lineage cookie), and
        # the protocol is indistinguishable from the nap version.
        endpoint, proc = run_in_subprocess(_echo_server, timeout_s=30.0)
        try:
            assert endpoint.doorbell_fd() is not None
            frame = np.random.default_rng(7).random((3, 16, 16)).astype(np.float32)
            for _ in range(3):
                endpoint.send(frame, nbytes=frame.nbytes)
                out = endpoint.recv()
                assert out.tobytes() == frame.tobytes()
        finally:
            endpoint.send(None, nbytes=1)
            proc.join(timeout=20)
            endpoint.close()
        assert proc.exitcode == 0
