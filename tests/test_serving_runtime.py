"""End-to-end tests for the multiplexing ServerRuntime (ISSUE 4).

The acceptance property: one server process serves N concurrent client
*processes* — over shm rings and over TCP sockets — with per-session
``RunStats`` bit-identical to the equivalent in-process ``SessionPool``
run.  Also covers the pooled-attachment path (N sessions over one
connection), the ADMIT/ACCEPT/BYE handshake's error branches, the
failure rule (whatever one link does wrong ends that link alone), the
question every listener answers for the drain rule, and the
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
    run_churn_processes,
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
                (0.0, _config(), _HW, "fixed-people", self.FRAMES, f"s{i}")
                for i in range(self.N)
            ]
            stats = run_churn_processes(handle, jobs, timeout_s=180)
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
                (0.0, config, hw, "fixed-people", self.FRAMES, f"s{i}")
                for i, (config, hw) in enumerate(population)
            ]
            stats = run_churn_processes(handle, jobs, timeout_s=300)
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
        self.accepted = 0
        self.door = os.eventfd(0, os.EFD_NONBLOCK)

    def poll_accept(self):
        if not self.pending:
            return None
        _drain_bell(self.door)
        self.accepted += 1
        return self.pending.pop(0)

    def exhausted(self):
        return self.accepted >= self.expected

    def doorbell_fds(self):
        return [self.door]

    def dial(self, connection):
        self.pending.append(connection)
        os.eventfd_write(self.door, 1)


class _HostileConnection(_ScriptedConnection):
    """A scripted link that fails: an exception in its inbox is raised
    by ``recv_tagged``, and ``fail_reply`` by the write of a key-frame
    reply."""

    def __init__(self, name, log, fail_reply=None):
        super().__init__(name, log)
        self.fail_reply = fail_reply

    def recv_tagged(self):
        session, msg = super().recv_tagged()
        if isinstance(msg, BaseException):
            raise msg
        return session, msg

    def send_tagged(self, session, obj):
        from repro.runtime.server import ServerReply

        super().send_tagged(session, obj)
        if self.fail_reply is not None and isinstance(obj, ServerReply):
            raise self.fail_reply


def _hostile_cases():
    """``id -> (script(admit, frame), fail_reply, teardown reason)``.
    The honest link is accepted first, so its session is 0 and a
    hostile ADMIT opens session 1.  ``frame`` is an honest FRAME's
    ``(frame, label)`` for the oracle-teacher ``admit``."""
    import numpy as np

    from repro.segmentation.classes import NUM_CLASSES
    from repro.transport import wire

    def framed(payload):
        return lambda a, f: [(0, a), (1, payload(*f))]

    def holding_class(label, dtype):
        return np.where(label == label.flat[0], NUM_CLASSES, label).astype(dtype)

    neural = admit_message(_config(teacher_arch="neural"), _HW)
    unrunnable = dataclasses.replace(
        admit_message(_config(), _HW), frame_h=30, frame_w=46, pretrain_steps=0
    )
    return {
        "frame-2d": (framed(lambda x, y: (x[0], y)), None, "protocol-error"),
        "frame-float64": (framed(lambda x, y: (x.astype(np.float64), y)),
                          None, "protocol-error"),
        "frame-other-geometry": (
            framed(lambda x, y: (x[:, :16, :24].copy(), y[:16, :24].copy())),
            None, "protocol-error",
        ),
        "label-missing": (framed(lambda x, y: (x, None)), None,
                          "protocol-error"),
        "label-wrong-shape": (framed(lambda x, y: (x, np.zeros((5, 5), np.int64))),
                              None, "protocol-error"),
        "label-out-of-range": (
            framed(lambda x, y: (x, holding_class(y, np.int64))),
            None, "protocol-error",
        ),
        "label-uint8-out-of-range": (
            framed(lambda x, y: (x, holding_class(y, np.uint8))),
            None, "protocol-error",
        ),
        "label-unexpected": (lambda a, f: [(0, neural), (1, f)], None,
                             "protocol-error"),
        "recv-wire-error": (lambda a, f: [(0, wire.WireError("bad magic"))],
                            None, "corrupt-frame"),
        "recv-timeout": (lambda a, f: [(0, TimeoutError("stalled"))],
                         None, "recv-budget"),
        "recv-connection-reset": (lambda a, f: [(0, ConnectionResetError())],
                                  None, "connection-error"),
        "reply-broken-pipe": (lambda a, f: [(0, a), (1, f)],
                              BrokenPipeError(), "connection-error"),
        "reply-timeout": (lambda a, f: [(0, a), (1, f)],
                          TimeoutError("ring full"), "send-budget"),
        "state": (lambda a, f: [(0, {"w": np.zeros(2, np.float32)})],
                  None, "protocol-error"),
        "ndarray": (lambda a, f: [(0, np.zeros((4, 4), np.uint8))],
                    None, "protocol-error"),
        "accept": (lambda a, f: [(0, wire.Accept(0))], None, "protocol-error"),
        "reject": (lambda a, f: [(0, wire.Reject(0, wire.REJECT_CAPACITY))],
                   None, "protocol-error"),
        "frame-never-opened": (lambda a, f: [(7, f)], None, "protocol-error"),
        "frame-after-bye": (lambda a, f: [(0, a), (1, wire.Bye(1)), (1, f)],
                            None, "protocol-error"),
        "frame-hijack": (lambda a, f: [(0, f), (0, None)], None,
                         "protocol-error"),
        "bye-hijack": (lambda a, f: [(0, wire.Bye(0)), (0, None)], None, None),
        # A geometry the student cannot run is refused at ADMIT, so the
        # FRAME that follows names a session that was never opened.
        "admit-unrunnable-geometry": (
            lambda a, f: [(0, unrunnable),
                          (1, (f[0][:, :30, :46].copy(), f[1][:30, :46].copy()))],
            None, "protocol-error",
        ),
    }


#: What a hostile link is sent, for the cases where that is the point.
_HOSTILE_SENDS = {"admit-unrunnable-geometry": ["Reject"]}


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

        listener = _ScriptedListener([_ScriptedConnection("link", [])])
        link = listener.poll_accept()
        runtime = ServerRuntime()
        connections, closed = [link], set()
        runtime._handle(link, 0, admit_message(_config(), _HW))
        assert not runtime._quiesced(connections, closed, listener)
        runtime._handle(link, 0, wire.Bye(0))
        assert not runtime._sessions
        assert not runtime._quiesced(connections, closed, listener)
        runtime._teardown_connection(0, link, closed)
        assert runtime._quiesced(connections, closed, listener)

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


    @pytest.mark.parametrize("case", list(_hostile_cases()))
    def test_a_failing_link_ends_alone(self, case):
        """Whatever one link does wrong — fail a read or a reply write,
        send a kind no server accepts, frame a session it never opened,
        already closed or does not own, send a frame or label its
        session cannot serve, or BYE another link's session — ends that
        link alone: ``run()`` returns, and the honest link's
        replies are byte for byte those of the same script run without
        the hostile link."""
        from repro.transport import wire

        script, fail_reply, reason = _hostile_cases()[case]
        admit = admit_message(_config(), _HW)
        frames = list(_video().frames(2))

        hostile_log = []

        def serve(hostile_script):
            replies = []
            honest = _ScriptedConnection(
                "honest", [],
                lambda session, obj: replies.append(
                    wire.encode(obj, session=session)
                ),
            )
            honest.inbox.extend(
                [(0, admit), (0, frames[0]), (0, frames[1]),
                 (0, wire.Bye(0)), (0, None)]
            )
            links = [honest]
            if hostile_script is not None:
                hostile = _HostileConnection("hostile", hostile_log, fail_reply)
                hostile.inbox.extend(hostile_script)
                links.append(hostile)
            runtime = ServerRuntime()
            served = runtime.run(_ScriptedListener(links))
            assert all(link.closed for link in links)
            return replies, served, runtime

        reference, reference_served, _ = serve(None)
        replies, served, runtime = serve(script(admit, frames[0]))

        assert replies == reference
        assert served[0] == reference_served[0] == 2
        assert runtime.connection_teardowns == (
            {1: reason} if reason is not None else {}
        )
        assert 0 not in runtime.teardowns
        assert set(runtime.teardowns.values()) <= {reason}
        if case in _HOSTILE_SENDS:
            sent = [e[3] for e in hostile_log if e[0] == "send"]
            assert sent == _HOSTILE_SENDS[case]

    def test_an_int64_label_is_served_like_its_uint8_twin(self):
        """Clients send one-byte class maps, but any integer map whose
        classes are in range is served — with the same replies, byte
        for byte.  Where a FRAME is admitted its label becomes the one
        class-map dtype, so an int64 session and its uint8 twin on one
        runtime hit each other's memo entries."""
        import numpy as np

        from repro.runtime.server import ServerReply
        from repro.transport import wire

        frames = list(_video().frames(2))
        assert all(label.dtype == np.uint8 for _, label in frames)
        replies = {0: [], 1: []}
        link = _ScriptedConnection(
            "link", [],
            lambda session, obj: isinstance(obj, ServerReply)
            and replies[session].append(wire.encode(obj)),
        )
        link.inbox.extend([(0, admit_message(_config(), _HW))] * 2)
        for x, y in frames:
            link.inbox.extend([(0, (x, y)), (1, (x, y.astype(np.int64)))])
        link.inbox.extend([(0, wire.Bye(0)), (1, wire.Bye(1)), (0, None)])
        runtime = ServerRuntime()
        assert runtime.run(_ScriptedListener([link])) == {0: 2, 1: 2}
        assert runtime.connection_teardowns == {} and runtime.teardowns == {}
        assert len(replies[0]) == 2 and replies[1] == replies[0]
        assert runtime.serve_counters["hits"] == 2

    def test_a_herd_in_one_sweep_meets_the_token_bucket(self):
        """The thundering-herd storm's fourteen ADMITs, all pending in
        one sweep.  Its bucket starts with 3 tokens and accrues 0.25 per
        served message, and the k-th ADMIT (from 0) is served at tick k:
        the first three leave 2, 1.25 and 0.5 tokens, so only ADMITs 4,
        8 and 12 find a whole token again and the other eight are
        refused ``overloaded``.  Those three meet three open sessions
        (``max_sessions=3``) and are refused ``capacity``: eleven
        refusals, three sessions."""
        from repro.serving.storms import storm_plan
        from repro.transport import wire

        plan = storm_plan("thundering-herd")
        assert (plan.overload.admission_rate, plan.overload.admission_burst,
                plan.max_sessions, len(plan.jobs)) == (0.25, 3.0, 3, 14)
        log = []

        def hang_up(link):
            def on_send(session, obj):
                if isinstance(obj, wire.Reject):
                    link.publish(0, None)
                elif isinstance(obj, dict):  # the accepted session's STATE
                    link.publish(session, wire.Bye(session))
                    link.publish(0, None)
            return on_send

        links = []
        for i in range(len(plan.jobs)):
            link = _ScriptedConnection(f"h{i}", log, rung=False)
            link.on_send = hang_up(link)
            links.append(link)

        class HerdListener(_ScriptedListener):
            """Hands out every link first; the last hand-out releases
            the herd, so each link's ADMIT waits for one sweep."""

            def poll_accept(self):
                link = super().poll_accept()
                if link is not None and not self.pending:
                    for herd_link, (_, config, hw, *_) in zip(links, plan.jobs):
                        herd_link.publish(0, admit_message(config, hw))
                return link

        runtime = ServerRuntime(max_sessions=plan.max_sessions,
                                overload=plan.overload)
        runtime.run(HerdListener(links))

        admits = [i for i, e in enumerate(log) if e[0] == "recv" and e[3] == "Admit"]
        assert len(admits) == 14
        assert sum(e[0] == "poll" for e in log[admits[0]:admits[-1]]) == 13
        answers = [e[3] for e in log if e[0] == "send" and e[3] in ("Accept", "Reject")]
        assert answers.count("Accept") == 3 and answers.count("Reject") == 11
        counters = runtime.metrics.snapshot()["counters"]
        assert counters["overload.reject.overloaded"] == 8
        assert counters["overload.reject.capacity"] == 3
        assert all(link.closed for link in links)


class TestListenersSayWhenNoneCanArrive:
    """The one question the drain rule asks a listener: can another
    connection still arrive?"""

    def test_socket_listener_after_expected_accepts(self):
        import select
        import socket

        from repro.transport.socket import SocketListener

        sock = socket.create_server(("127.0.0.1", 0))
        address = sock.getsockname()
        listener = SocketListener(sock, expected=2, timeout_s=5.0)
        opened = []
        try:
            for _ in range(2):
                assert not listener.exhausted()
                opened.append(socket.create_connection(address, timeout=5.0))
                assert select.select(listener.doorbell_fds(), [], [], 5.0)[0]
                opened.append(listener.poll_accept())
            assert listener.exhausted()
            assert listener.poll_accept() is None
            assert listener.doorbell_fds() == []
        finally:
            listener.close()
            for end in opened:
                end.close()

    def test_static_listener_after_its_last_hand_out(self):
        from repro.transport.shm import StaticListener

        listener = StaticListener(["first", "second"])
        assert not listener.exhausted()
        assert listener.poll_accept() == "first"
        assert not listener.exhausted()
        assert listener.poll_accept() == "second"
        assert listener.exhausted()
        assert listener.poll_accept() is None

    @pytest.mark.parametrize("ending", ["drain-order", "owner-gone"])
    def test_fleet_listener_after_the_drain_order_or_its_owner(self, ending):
        import multiprocessing as mp
        import socket

        from repro.transport.socket import FleetSocketListener

        control, owner = mp.Pipe(duplex=False)
        listener = FleetSocketListener(
            socket.create_server(("127.0.0.1", 0)),
            socket.create_server(("127.0.0.1", 0)),
            timeout_s=5.0, control_conn=control,
        )
        try:
            assert not listener.exhausted()
            assert control.fileno() in listener.doorbell_fds()
            if ending == "drain-order":
                owner.send("drain")
            else:
                owner.close()
            assert listener.exhausted()
            assert control.fileno() not in listener.doorbell_fds()
            assert listener.exhausted()
        finally:
            listener.close()
            owner.close()
            control.close()


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


class TestServerDiesWithItsParent:
    def test_server_dies_with_a_parent_ended_by_os_exit(self):
        """A parent ended by ``os._exit`` (as the test watchdog ends
        pytest) reaps nothing; its server must still be gone within
        10 s — long before the server's own 60 s idle deadline — and
        its ring segments with it."""
        import pathlib
        import signal
        import subprocess
        import sys
        import textwrap
        import time

        import repro
        from tests.helpers import no_shm_leak

        def gone(pid):
            # An orphan nobody reaps stays a zombie: dead all the same.
            try:
                stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return True
            return stat.rpartition(")")[2].split()[0] == "Z"

        def segments():
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

        code = textwrap.dedent("""
            import os
            from repro.serving.runtime import start_server
            handle = start_server(transport="shm", n_clients=1, idle_timeout_s=60)
            print(handle.process.pid, flush=True)
            os._exit(0)
        """)
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        with no_shm_leak():
            before = segments()
            # The server inherits the pipe, so read its pid, not to EOF.
            with subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, text=True) as parent:
                pid = int(parent.stdout.readline())
                assert parent.wait(timeout=60) == 0
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not (
                gone(pid) and segments() <= before
            ):
                time.sleep(0.1)
            if not gone(pid):
                os.kill(pid, signal.SIGKILL)
                pytest.fail(f"server {pid} outlived its parent")

    # ``_die_with_parent`` in this process, with libc's ``prctl``, the
    # multiprocessing parent and ``os._exit`` stood in for: a real
    # ``prctl`` would arm the signal on the test process itself.

    class _Exited(Exception):
        pass

    @pytest.fixture
    def stand_ins(self, monkeypatch):
        import ctypes
        import multiprocessing
        import types

        calls = []

        def stand_in(prctl_result=0, parent_pid=None):
            def prctl(*args):
                calls.append(args)
                return prctl_result

            libc = (types.SimpleNamespace() if prctl_result is None
                    else types.SimpleNamespace(prctl=prctl))
            monkeypatch.setattr(ctypes, "CDLL", lambda *a, **k: libc)
            parent = (None if parent_pid is None
                      else types.SimpleNamespace(pid=parent_pid))
            monkeypatch.setattr(multiprocessing, "parent_process", lambda: parent)

            def exit_(code):
                raise self._Exited(code)

            monkeypatch.setattr(os, "_exit", exit_)
            return calls

        return stand_in

    def test_it_asks_for_sigkill_on_the_parents_death(self, stand_ins):
        import signal

        from repro.serving.runtime import _die_with_parent

        calls = stand_ins(parent_pid=os.getppid())
        _die_with_parent()
        assert calls == [(1, signal.SIGKILL, 0, 0, 0)]

    def test_a_child_whose_parent_is_already_gone_exits(self, stand_ins):
        from repro.serving.runtime import _die_with_parent

        stand_ins(parent_pid=os.getppid() + 1)
        with pytest.raises(self._Exited) as exited:
            _die_with_parent()
        assert exited.value.args == (1,)

    @pytest.mark.parametrize("prctl_result", [None, -1])
    def test_without_prctl_it_warns_and_returns(self, stand_ins, prctl_result):
        """No ``prctl`` symbol, or a ``prctl`` that fails: a warning,
        and the process runs on even if its parent looks gone."""
        from repro.serving.runtime import _die_with_parent

        stand_ins(prctl_result=prctl_result, parent_pid=os.getppid() + 1)
        with pytest.warns(UserWarning, match="PR_SET_PDEATHSIG"):
            _die_with_parent()
