"""End-to-end tests for the multiplexing ServerRuntime (ISSUE 4).

The acceptance property: one server process serves N concurrent client
*processes* — over shm rings and over TCP sockets — with per-session
``RunStats`` bit-identical to the equivalent in-process ``SessionPool``
run.  Also covers the pooled-attachment path (N sessions over one
connection), the ADMIT/ACCEPT/BYE handshake's error branches, and the
client-side demultiplexer's bookkeeping.
"""

import dataclasses
import os

import pytest

from repro.distill.config import DistillConfig, DistillMode
from repro.runtime.session import SessionConfig, build_session, run_shadowtutor
from repro.serving.pool import SessionPool, SessionSpec
from repro.serving.runtime import (
    ServerRuntime,
    SessionBlueprint,
    admit_message,
    run_client_processes,
    start_server,
)
from repro.transport.shm import _drain_bell
from repro.video.dataset import CATEGORY_BY_KEY, make_category_video

_HW = (32, 48)


def _config(mode=DistillMode.PARTIAL, **kw):
    return SessionConfig(
        distill=DistillConfig(max_updates=4, threshold=0.7,
                              min_stride=4, max_stride=16, mode=mode),
        student_width=0.25,
        pretrain_steps=10,
        **kw,
    )


def _video(key="fixed-people"):
    return make_category_video(CATEGORY_BY_KEY[key], height=_HW[0], width=_HW[1])


class TestNClientProcesses:
    """The acceptance bar: 1 server process x N>=4 client processes."""

    N = 4
    FRAMES = 10

    def _reference_stats(self):
        specs = [
            SessionSpec(video=_video(), num_frames=self.FRAMES, config=_config())
            for _ in range(self.N)
        ]
        return SessionPool(specs).run().stats

    @pytest.mark.parametrize("transport", ["shm", "socket"])
    def test_multiplexed_processes_bit_identical_to_pool(self, transport):
        handle = start_server(
            transport=transport, n_clients=self.N, idle_timeout_s=60
        )
        try:
            jobs = [
                (_config(), _HW, "fixed-people", self.FRAMES, f"s{i}")
                for i in range(self.N)
            ]
            stats = run_client_processes(handle, jobs, timeout_s=180)
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        reference = self._reference_stats()
        assert len(stats) == self.N
        for got, ref in zip(stats, reference):
            assert got.signature(include_label=False) == ref.signature(
                include_label=False
            )


class TestPooledAttachment:
    """N sessions of one SessionPool over ONE connection to one server."""

    def test_pool_over_one_shm_connection_identical_to_inproc_pool(self):
        def specs(attach_of=None):
            built = []
            for index, (key, width) in enumerate(
                [("fixed-people", 0.25), ("moving-animals", 0.3)]
            ):
                config = dataclasses.replace(_config(), student_width=width)
                if attach_of is not None:
                    config = dataclasses.replace(config, attach=attach_of(index))
                built.append(
                    SessionSpec(video=_video(key), num_frames=10, config=config)
                )
            return built

        local = SessionPool(specs()).run()

        blueprints = [
            SessionBlueprint(dataclasses.replace(_config(), student_width=w), _HW)
            for w in (0.25, 0.3)
        ]
        handle = start_server(blueprints, transport="shm", n_clients=1,
                              idle_timeout_s=60)
        try:
            remote = SessionPool(specs(attach_of=handle.ticket)).run()
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        for a, b in zip(local.stats, remote.stats):
            assert a.signature(include_label=False) == b.signature(
                include_label=False
            )

    def test_single_attached_session_full_mode(self):
        """Full distillation (whole-student replies) over the mux too."""
        inproc = run_shadowtutor(
            _video(), 8, _config(mode=DistillMode.FULL), label="t"
        )
        handle = start_server(
            [SessionBlueprint(_config(mode=DistillMode.FULL), _HW)],
            transport="shm", n_clients=1, idle_timeout_s=60,
        )
        try:
            config = dataclasses.replace(
                _config(mode=DistillMode.FULL), attach=handle.ticket(0)
            )
            mux = run_shadowtutor(_video(), 8, config, label="t")
        finally:
            handle.close()
        assert mux.signature() == inproc.signature()
        assert mux.key_frames[0].down_bytes == inproc.key_frames[0].down_bytes


class TestInlineServe:
    """Every key frame is served in the sweep that received it; what
    sessions share, they share through the digest memo.

    A mixed population — identical twins (memo candidates), a different
    student width, a neural teacher, a different frame geometry — must
    produce per-session ``RunStats`` bit-identical to the in-process
    pool, over shm and sockets.
    """

    FRAMES = 8

    def _population(self):
        neural = dataclasses.replace(
            _config(), teacher_arch="neural", teacher_width=16
        )
        wide = dataclasses.replace(_config(), student_width=0.3)
        return [
            (_config(), (32, 48)),   # identical twins: the broadcast pair
            (_config(), (32, 48)),
            (wide, (32, 48)),        # mixed width: separate weight version
            (neural, (32, 48)),      # neural teacher: the label memo's route
            (_config(), (36, 44)),   # mixed geometry: nothing shared
        ]

    def _reference_stats(self):
        specs = [
            SessionSpec(
                video=make_category_video(
                    CATEGORY_BY_KEY["fixed-people"], height=hw[0], width=hw[1]
                ),
                num_frames=self.FRAMES,
                config=config,
            )
            for config, hw in self._population()
        ]
        return SessionPool(specs).run().stats

    @pytest.mark.parametrize("transport", ["shm", "socket"])
    def test_mixed_population_bit_identical(self, transport):
        population = self._population()
        handle = start_server(
            transport=transport, n_clients=len(population), idle_timeout_s=60,
        )
        try:
            jobs = [
                (config, hw, "fixed-people", self.FRAMES, f"s{i}")
                for i, (config, hw) in enumerate(population)
            ]
            stats = run_client_processes(handle, jobs, timeout_s=300)
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        for got, ref in zip(stats, self._reference_stats()):
            assert got.signature(include_label=False) == ref.signature(
                include_label=False
            )
        report = handle.runtime_report
        # Ids are assigned in arrival order, which client processes race for.
        served = report["frames_served"]
        assert sorted(served.values()) == sorted(
            s.num_key_frames for s in stats
        )
        counters = report["serve_counters"]
        assert counters["key_frames"] == sum(served.values())
        assert counters["hits"] + counters["misses"] == counters["key_frames"]
        # The twins train once per distinct key frame between them...
        assert counters["hits"] == stats[0].num_key_frames
        # ...and the lone neural session's labels are all first sights
        # (oracle sessions never touch the label memo).
        assert counters["label_hits"] == 0
        assert counters["label_misses"] == stats[3].num_key_frames


class _ScriptedConnection:
    """A process-free link: messages are fed by the test, every
    ``poll`` / ``recv`` / ``send`` lands in a shared event log.

    Its doorbell is an eventfd nobody drains — always readable, so the
    idle park returns at once and the script alone drives the loop —
    unless built ``rung=False``: then it keeps the ring's contract (a
    False ``poll`` has drained the bell) and the loop sleeps until
    :meth:`publish` rings it."""

    def __init__(self, name, log, on_send=None, rung=True):
        self.name, self.log, self.on_send = name, log, on_send
        self.inbox = []
        self.closed = False
        self.rung = rung
        self.bell = os.eventfd(int(rung), os.EFD_NONBLOCK)

    def poll(self):
        self.log.append(("poll", self.name))
        assert len(self.log) < 10_000, "the loop is spinning, not serving"
        if not self.inbox and not self.rung:
            _drain_bell(self.bell)
        return bool(self.inbox)

    def doorbell_fd(self):
        return self.bell

    def publish(self, session, msg):
        self.inbox.append((session, msg))
        os.eventfd_write(self.bell, 1)

    def recv_tagged(self):
        session, msg = self.inbox.pop(0)
        self.log.append(("recv", self.name, session, type(msg).__name__))
        return session, msg

    def send_tagged(self, session, obj):
        self.log.append(("send", self.name, session, type(obj).__name__))
        if self.on_send is not None:
            self.on_send(session, obj)

    def close(self):
        self.closed = True
        os.close(self.bell)


class _ScriptedListener:
    def __init__(self, connections, expected=None):
        self.pending = list(connections)
        self.expected = len(connections) if expected is None else expected
        self.door = os.eventfd(0, os.EFD_NONBLOCK)

    def poll_accept(self):
        if not self.pending:
            return None
        _drain_bell(self.door)
        return self.pending.pop(0)

    def doorbell_fds(self):
        return [self.door]

    def dial(self, connection):
        self.pending.append(connection)
        os.eventfd_write(self.door, 1)


class TestRunLoopScripted:
    def test_key_frames_are_served_where_they_arrive(self, monkeypatch):
        """Two sessions on one link, the second FRAME offered only
        after the first reply was written, a third session that never
        frames, and a silent second link: every key frame is answered
        before any connection is polled again — on a frozen clock, so
        no timer can be what decided to serve."""
        import types

        from repro.runtime.server import ServerReply
        from repro.serving import runtime as runtime_module
        from repro.transport import wire

        monkeypatch.setattr(runtime_module, "time", types.SimpleNamespace(
            monotonic=lambda: 0.0, sleep=lambda seconds: None,
        ))
        frames = list(_video().frames(2))
        log = []

        def on_send(session, obj):
            if not isinstance(obj, ServerReply):
                return
            if session == 0:
                busy.inbox.append((1, frames[1]))
            else:
                busy.inbox.extend(
                    [(sid, wire.Bye(sid)) for sid in range(3)] + [(0, None)]
                )
                quiet.inbox.append((0, None))

        busy = _ScriptedConnection("busy", log, on_send)
        quiet = _ScriptedConnection("quiet", log)
        busy.inbox.extend(
            [(0, admit_message(_config(), _HW))] * 3 + [(0, frames[0])]
        )
        runtime = ServerRuntime()
        served = runtime.run(_ScriptedListener([busy, quiet]))

        assert served == {0: 1, 1: 1, 2: 0}
        # The k-th accepted ADMIT is session k.
        assert [e[2] for e in log if e[0] == "send" and e[3] == "Accept"] == [0, 1, 2]
        assert busy.closed and quiet.closed
        assert runtime.teardowns == {} and runtime.connection_teardowns == {}
        key_frames = [i for i, e in enumerate(log) if e[0] == "recv" and e[3] == "tuple"]
        assert len(key_frames) == 2
        for i in key_frames:
            assert log[i + 1] == ("send", "busy", log[i][2], "ServerReply")
        assert runtime.serve_counters["key_frames"] == 2

    def test_park_wakes_on_a_connection_and_on_the_listener(self):
        """An idle runtime sleeps in one ``select`` with no cap but its
        own clocks (60 s here) and no yield sweeps: a message published
        0.2 s into the park, then a connection dialled 0.2 s after
        that, are each served the moment they arrive."""
        import threading
        import time

        log = []
        early = _ScriptedConnection("early", log, rung=False)
        late = _ScriptedConnection("late", log, rung=False)
        late.inbox.append((0, None))
        listener = _ScriptedListener([early], expected=2)
        timers = [
            threading.Timer(0.2, early.publish, (0, None)),
            threading.Timer(0.4, listener.dial, (late,)),
        ]
        runtime = ServerRuntime(idle_timeout_s=60.0)
        start = time.monotonic()
        for timer in timers:
            timer.start()
        try:
            runtime.run(listener)
        finally:
            for timer in timers:
                timer.join()
        elapsed = time.monotonic() - start
        assert early.closed and late.closed
        assert 0.35 < elapsed < 1.0
        # accept, park, wake for the message, park, wake for the dial.
        assert sum(e[0] == "poll" for e in log) <= 6

    def test_drain_waits_for_the_links_sentinel(self):
        """One accepted link whose only session came and went is not a
        drained population: the link may still ADMIT again."""
        from repro.transport import wire

        link = _ScriptedConnection("link", [])
        runtime = ServerRuntime()
        connections, closed = [link], set()
        runtime._handle(link, 0, admit_message(_config(), _HW))
        assert not runtime._quiesced(connections, closed, 1)
        runtime._handle(link, 0, wire.Bye(0))
        assert not runtime._sessions
        assert not runtime._quiesced(connections, closed, 1)
        runtime._teardown_connection(0, link, closed)
        assert runtime._quiesced(connections, closed, 1)

    def test_full_placement_ledger_refuses_instead_of_killing_the_shard(self):
        """Any client can mint a new placement key (vary ``threshold``),
        so running out of ledger entries must cost that client a
        retryable REJECT(capacity) — not every session on the shard."""
        from repro.runtime.server import ServerReply
        from repro.serving.fleet import FleetLedger, FleetMember
        from repro.transport import wire

        def admit(threshold):
            config = _config()
            return admit_message(dataclasses.replace(
                config,
                distill=dataclasses.replace(config.distill, threshold=threshold),
            ), _HW)

        frames = list(_video().frames(1))
        log, replies = [], []
        link = _ScriptedConnection(
            "link", log, lambda session, obj: replies.append((session, obj))
        )
        link.inbox.extend(
            [(0, admit(t)) for t in (0.6, 0.7, 0.8)]
            + [(sid, frames[0]) for sid in (0, 1)]
            + [(sid, wire.Bye(sid)) for sid in (0, 1)] + [(0, None)]
        )
        ledger = FleetLedger(n_shards=1, capacity=2)
        runtime = ServerRuntime(fleet=FleetMember(0, ledger))
        served = runtime.run(_ScriptedListener([link]))

        rejects = [obj for _, obj in replies if isinstance(obj, wire.Reject)]
        assert [(r.code, r.retry_after is not None) for r in rejects] == [
            (wire.REJECT_CAPACITY, True)
        ]
        assert "ledger full" in rejects[0].detail
        # The two open sessions kept serving past the refusal ...
        assert served == {0: 1, 1: 1}
        assert [s for s, obj in replies if isinstance(obj, ServerReply)] == [0, 1]
        # ... and nothing was claimed for the refused one.
        assert ledger.snapshot() == {"loads": [0], "entries": {}}


class TestHandshakeAndErrors:
    def test_ticket_index_past_the_blueprints_raises(self):
        handle = start_server(
            [SessionBlueprint(_config(), _HW)], transport="shm",
            n_clients=1, idle_timeout_s=60,
        )
        try:
            with pytest.raises(IndexError, match="blueprint"):
                handle.ticket(1)
            # The valid blueprint still admits after the refusal.
            connection = handle.parent_connection()
            session, state = connection.admit_session(handle.ticket(0).admit)
            assert session == 0 and isinstance(state, dict) and state
            connection.close_session(session)
        finally:
            handle.close()
        assert handle.process.exitcode == 0

    def test_attach_rejects_custom_teacher(self):
        from repro.models.teacher import OracleTeacher

        handle = start_server(
            [SessionBlueprint(_config(), _HW)], transport="shm",
            n_clients=1, idle_timeout_s=60,
        )
        try:
            config = dataclasses.replace(_config(), attach=handle.ticket(0))
            with pytest.raises(ValueError, match="teacher"):
                build_session(config, _HW, teacher=OracleTeacher())
            # Unblock shutdown: the refused build never reached the server.
            connection = handle.parent_connection()
            connection.close_session(
                connection.admit_session(handle.ticket(0).admit)[0]
            )
        finally:
            handle.close()

    def test_attach_of_wrong_type_raises(self):
        config = dataclasses.replace(_config(), attach="not-an-address")
        with pytest.raises(TypeError, match="attach"):
            build_session(config, _HW)

    def test_runtime_validates_max_sessions(self):
        with pytest.raises(ValueError, match="max_sessions"):
            ServerRuntime(max_sessions=0)
        ServerRuntime()

    def test_blueprint_strips_attach(self):
        """A blueprint made from an attached config must not make the
        server process recursively attach anywhere."""
        config = dataclasses.replace(_config(), attach="anything")
        blueprint = SessionBlueprint(config, _HW)
        assert blueprint.config.attach is None


class TestMuxConnectionQueues:
    def test_admit_bye_cycles_leave_no_queue_behind(self):
        """Session ids are never reused, so a queue that outlived its
        BYE would be one leaked deque per session ever opened on a
        pooled link."""
        video = _video()
        video.reset()
        frame, label = next(iter(video.frames(1)))
        admit = admit_message(_config(), _HW)
        cycles = 5
        handle = start_server(transport="shm", n_clients=1, idle_timeout_s=60)
        try:
            connection = handle.parent_connection()
            for expected in range(cycles):
                session, _ = connection.admit_session(admit)
                assert session == expected
                connection.send_tagged(session, (frame, label))
                assert connection.recv_for(session).update
                connection.close_session(session)
                assert connection._queues == {}
            # A fresh session on the same link still gets its replies.
            session, _ = connection.admit_session(admit)
            connection.send_tagged(session, (frame, label))
            assert connection.recv_for(session).update
            connection.close_session(session)
            assert connection._queues == {}
        finally:
            handle.close()
        assert handle.process.exitcode == 0
        assert handle.runtime_report["frames_served"] == {
            sid: 1 for sid in range(cycles + 1)
        }
