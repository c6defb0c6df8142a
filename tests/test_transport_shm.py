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
from repro.transport.shm import (
    ShmManyLink, ShmRing, ShmTransport, make_pair, run_in_subprocess,
)


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


class TestManyLinkOwnsItsSegments:
    def test_closing_the_parents_connection_unlinks_nothing(self):
        """The parent's own endpoint is attached like any child's: the
        forked server may not have mapped slot 0 yet when the parent is
        done with it, so only ``ShmManyLink.close`` unlinks."""
        pairs = [(ShmRing(2, 4096), ShmRing(2, 4096))]
        descs = [ring.describe() for ring in pairs[0]]
        link = ShmManyLink(pairs, timeout_s=5.0)
        try:
            link.connect(0).close()
            for desc in descs:
                assert os.path.exists(f"/dev/shm/{desc[0]}")
                ShmRing.attach(desc).close()
        finally:
            link.close()
        assert not any(os.path.exists(f"/dev/shm/{desc[0]}") for desc in descs)


class TestDoorbell:
    """One way to wait: the publisher always rings, the waiter parks in
    one ``select`` until its own deadline."""

    def test_attached_ring_owns_its_bells(self):
        # Every publish rings, so an in-process attacher must not be
        # left holding fd *numbers* the creator has closed: it gets its
        # own dups of the same counters and outlives the creator.
        ring = ShmRing(slots=2, slot_nbytes=4096)
        other = ShmRing.attach(ring.describe())
        theirs = {ring._pub_fd, ring._rel_fd}
        assert not theirs & {other._pub_fd, other._rel_fd}
        ring.close()
        reused = os.pipe()  # takes over the numbers just closed
        try:
            assert theirs & set(reused)
            payload = np.arange(3, dtype=np.int64)
            other.send_message(payload, timeout_s=1.0)
            assert select.select([other.doorbell_fd], [], [], 0)[0]
            assert not select.select([reused[0]], [], [], 0)[0]
            np.testing.assert_array_equal(other.recv_message(1.0)[0], payload)
            assert not other.poll()
        finally:
            os.close(reused[0]), os.close(reused[1])
            other.close()

    def test_foreign_lineage_attach_raises(self):
        # A spawn child re-imports the module and draws a new cookie;
        # the fd numbers in the descriptor then belong to a foreign fd
        # table and must be refused, not selected on.
        ring = ShmRing(slots=2, slot_nbytes=4096)
        try:
            name, slots, nbytes, pub, rel, _cookie = ring.describe()
            with pytest.raises(RuntimeError, match="socket"):
                ShmRing.attach((name, slots, nbytes, pub, rel, b"\0" * 8))
        finally:
            ring.close()

    def test_ring_without_eventfd_raises_and_leaves_no_segment(self, monkeypatch):
        before = set(os.listdir("/dev/shm"))
        monkeypatch.delattr(os, "eventfd")
        with pytest.raises(RuntimeError, match="socket"):
            ShmRing(slots=2, slot_nbytes=4096)
        assert set(os.listdir("/dev/shm")) == before

    def test_publish_always_rings(self):
        # Nobody has declared a wait, and the bell still rings: the fd
        # is readable from the publish until a False poll() drains it.
        a, b = _pair()
        try:
            fd = b.doorbell_fd()
            assert not b.poll()
            payload = np.ones(4, np.float32)
            a.send(payload, payload.nbytes)
            assert select.select([fd], [], [], 1.0)[0] == [fd]
            np.testing.assert_array_equal(b.recv(), payload)
            assert not b.poll()
            assert select.select([fd], [], [], 0.0)[0] == []
            a.send(payload, payload.nbytes)
            assert select.select([fd], [], [], 1.0)[0] == [fd]
            assert b.poll()
        finally:
            b.close(), a.close()

    def test_one_blocked_wait_is_one_select(self, monkeypatch):
        """A consumer blocked on an empty ring sleeps: one ``select``,
        no yields, until the publish wakes it."""
        import threading
        import time
        import types

        from repro.transport import shm

        selects, sleeps = [], []

        def counting_select(rlist, wlist, xlist, timeout):
            selects.append(timeout)
            return select.select(rlist, wlist, xlist, timeout)

        monkeypatch.setattr(shm, "_select", types.SimpleNamespace(select=counting_select))
        monkeypatch.setattr(shm, "time", types.SimpleNamespace(
            monotonic=time.monotonic,
            sleep=lambda s: (sleeps.append(s), time.sleep(s)),
        ))
        ring = ShmRing(slots=2, slot_nbytes=4096)
        producer = ShmRing.attach(ring.describe())
        payload = np.arange(3, dtype=np.int64)
        timer = threading.Timer(
            0.3, lambda: producer.send_message(payload, timeout_s=1.0)
        )
        try:
            timer.start()
            start = time.monotonic()
            out, _ = ring.recv_message(timeout_s=10.0)
            waited = time.monotonic() - start
            np.testing.assert_array_equal(out, payload)
        finally:
            timer.join()
            producer.close(), ring.close()
        assert 0.25 < waited < 2.0
        assert len(selects) == 1 and sleeps == []

    def test_publish_racing_the_park_is_not_lost(self, monkeypatch):
        """The race the waiting flags existed for: a publish landing
        after the waiter's check and before its sleep.  The bell is a
        counter, so the sleep — to the wait's own deadline, with no
        safety-net nap — returns at once."""
        import time
        import types

        from repro.transport import shm

        ring = ShmRing(slots=2, slot_nbytes=4096)
        producer = ShmRing.attach(ring.describe())
        payload = np.arange(3, dtype=np.int64)
        timeouts = []

        def racing_select(rlist, wlist, xlist, timeout):
            timeouts.append(timeout)
            if len(timeouts) == 1:
                producer.send_message(payload, timeout_s=1.0)
            return select.select(rlist, wlist, xlist, timeout)

        monkeypatch.setattr(shm, "_select", types.SimpleNamespace(select=racing_select))
        try:
            start = time.monotonic()
            out, _ = ring.recv_message(timeout_s=5.0)
            waited = time.monotonic() - start
            np.testing.assert_array_equal(out, payload)
        finally:
            producer.close(), ring.close()
        assert waited < 0.05
        assert len(timeouts) == 1 and timeouts[0] > 4.0

    def test_fork_child_wakes_on_doorbell(self):
        # The cross-process path: the forked echo server's waits go
        # through the inherited doorbell fds (same lineage cookie).
        endpoint, proc = run_in_subprocess(_echo_server, timeout_s=30.0)
        try:
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
