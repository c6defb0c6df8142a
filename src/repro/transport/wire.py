"""Versioned, pickle-free binary wire format for ShadowTutor messages.

Everything that crosses the client/server link in the real two-process
protocol (the message catalogue of :mod:`repro.network.messages`) has a
binary frame here:

=============  ====================================================
kind           payload
=============  ====================================================
``SHUTDOWN``   none (the ``None`` sentinel that closes a connection)
``STATE``      a state dict — initial weights or a full student
``FRAME``      a key frame plus its optional renderer label
``REPLY``      :class:`~repro.runtime.server.ServerReply` (metric,
               steps, initial metric, update diff)
``PRED``       a teacher prediction (the naive-offloading downlink)
``ACCEPT``     the server's answer to an ``ADMIT`` it grants
``BYE``        ends one session without closing the connection
``ADMIT``      a client asks a running server to create a session
               from the serialized blueprint in the body
``REJECT``     the server refuses an ``ADMIT`` with a typed reason
               code (capacity, malformed blueprint, ...)
=============  ====================================================

Every message is ``MAGIC | version | kind | u16 session | u64
total_len | body``; arrays are framed by
:func:`repro.nn.serialize.write_array` — a typed header plus the raw
C-order bytes, so a decode is bit-identical to the encode for every
dtype, shape and byte order.  ``total_len`` makes the stream
self-delimiting: the shared-memory ring fragments large messages
across slots and reassembles them by reading the first fragment's
header.

The ``session`` field lets *one* link carry many interleaved sessions:
the multiplexing :class:`~repro.serving.runtime.ServerRuntime` serves
N clients from one process, and a pooled client process runs N
sessions over one connection.  Point-to-point callers leave it at 0.

There is one way to open a session: an ``ADMIT`` frame carries a
pickle-free session blueprint (student geometry, stride policy,
distillation mode, seeds, the teacher spec — every field a typed 0-d
array through the same ``write_array`` framing STATE bodies use); the
server answers ``ACCEPT`` tagged with the session id *it* assigned,
followed by the initial STATE, or ``REJECT`` with a reason code, an
optional ``retry_after`` hint (load refusals) and an optional
``shard`` (a fleet shard's ``redirect``).  ``BYE`` ends a session;
SHUTDOWN closes the whole connection.

There is one dialect: a decoder accepts exactly :data:`VERSION`, the
version every encoder stamps.  Kind 5 (the retired ``HELLO``) and
REJECT codes 1 / 2 / 5 stay reserved — never renumbered, never reused.

The normative byte-level spec lives in ``docs/PROTOCOL.md``;
``tests/test_protocol_doc.py`` asserts this module and that document
agree on every constant.

Encoding is allocation-disciplined: :func:`encode_into` writes straight
into a caller-provided buffer (the shm transport hands it a slot of the
shared segment, so a frame is copied exactly once, producer-side), and
:func:`encoded_nbytes` sizes a message without encoding it — which is
also what reconciles wire sizes against the paper-scale accounting of
:class:`~repro.network.messages.MessageSizes` in the property tests.
"""

from __future__ import annotations

import dataclasses
import struct
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.nn.serialize import array_wire_nbytes, read_array, write_array
from repro.runtime.server import ServerReply

MAGIC = b"ST"
VERSION = 7

KIND_SHUTDOWN = 0
KIND_STATE = 1
KIND_FRAME = 2
KIND_REPLY = 3
KIND_PRED = 4
KIND_ACCEPT = 6  # kind 5 is retired (reserved)
KIND_BYE = 7
KIND_ADMIT = 8
KIND_REJECT = 9

_CONTROL_KINDS = frozenset((KIND_ACCEPT, KIND_BYE, KIND_ADMIT, KIND_REJECT))
_KINDS = frozenset(range(5)) | _CONTROL_KINDS

#: REJECT reason codes (the ``code`` field of :class:`Reject`); codes
#: 1, 2 and 5 are retired (reserved).
REJECT_CAPACITY = 3          #: admission refused: server at max_sessions
REJECT_MALFORMED = 4         #: ADMIT blueprint failed validation
REJECT_OVERLOADED = 6        #: admission refused: token bucket empty
REJECT_REDIRECT = 7          #: admit elsewhere: body names the target shard

REJECT_REASONS = {
    REJECT_CAPACITY: "capacity",
    REJECT_MALFORMED: "malformed-blueprint",
    REJECT_OVERLOADED: "overloaded",
    REJECT_REDIRECT: "redirect",
}

# magic, version, kind, session, total_len
_HEADER = struct.Struct("<2sBBHQ")
HEADER_NBYTES = _HEADER.size

#: Largest session id a header can carry (u16).
MAX_SESSION = 0xFFFF

_REPLY_HEAD = struct.Struct("<ddI")  # metric, initial_metric, steps
_COUNT = struct.Struct("<I")
_NAME_LEN = struct.Struct("<H")
#: REJECT body head: code, detail byte length, has_retry_after,
#: retry_after, has_shard, shard (each value 0 and ignored when its
#: flag byte is 0).
_REJECT_HEAD = struct.Struct("<HHBQBH")


@dataclasses.dataclass(frozen=True)
class Accept:
    """Server → client: session ``session`` is open; its initial
    state-dict follows as the next tagged STATE message."""

    session: int


@dataclasses.dataclass(frozen=True)
class Bye:
    """Either side: session ``session`` is over (connection stays up)."""

    session: int


@dataclasses.dataclass(frozen=True)
class Admit:
    """Client → server: create a session from this blueprint.

    Carries everything the server needs to build the session's server
    half — the student's geometry and seed, the frame geometry, and the
    full distillation/striding configuration.  The header's session
    field is meaningless for ADMIT (senders put 0): the *server* picks
    an unused id and answers with ``Accept(session)`` followed by the
    initial STATE, or with ``Reject`` carrying a reason code.

    Client-side-only knobs (latency/network simulation, message-size
    accounting, forced delays) deliberately stay out of the blueprint:
    the server's replies do not depend on them, so the negotiated
    session stays bit-identical to an in-process run of the same
    configuration.
    """

    student_width: float
    student_seed: int
    pretrain_steps: int
    frame_h: int
    frame_w: int
    mode: str                          #: "partial" | "full"
    threshold: float
    max_updates: int
    min_stride: int
    max_stride: int
    lr: float
    teacher_arch: str = "oracle"       #: "oracle" | "neural"
    teacher_width: int = 48            #: neural teacher width
    teacher_seed: int = 0              #: neural teacher init seed

    _FLOAT_FIELDS = ("student_width", "threshold", "lr")
    _INT_FIELDS = ("student_seed", "pretrain_steps", "frame_h", "frame_w",
                   "max_updates", "min_stride", "max_stride",
                   "teacher_width", "teacher_seed")
    _MODES = ("partial", "full")
    _TEACHER_ARCHS = ("oracle", "neural")

    def to_state(self) -> "OrderedDict[str, np.ndarray]":
        """Blueprint as named 0-d arrays — the exact STATE body framing,
        so ADMIT rides the typed-header array machinery unchanged."""
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name in self._FLOAT_FIELDS:
            state[name] = np.float64(getattr(self, name))
        for name in self._INT_FIELDS:
            state[name] = np.int64(getattr(self, name))
        state["mode"] = np.uint8(self._MODES.index(self.mode))
        state["teacher_arch"] = np.uint8(
            self._TEACHER_ARCHS.index(self.teacher_arch)
        )
        return state

    @classmethod
    def from_state(cls, state: Dict[str, np.ndarray]) -> "Admit":
        """Inverse of :meth:`to_state`; raises
        :class:`MalformedBlueprint` on missing/unknown fields or a bad
        mode / teacher-arch code."""
        got = set(state)
        expected = set(cls._FLOAT_FIELDS) | set(cls._INT_FIELDS) | {
            "mode", "teacher_arch",
        }
        if got != expected:
            missing = sorted(expected - got)
            unknown = sorted(got - expected)
            raise MalformedBlueprint(
                f"malformed ADMIT blueprint: missing fields {missing}, "
                f"unknown fields {unknown}"
            )
        kwargs: Dict[str, object] = {}
        for name, choices in (("mode", cls._MODES),
                              ("teacher_arch", cls._TEACHER_ARCHS)):
            code = int(np.asarray(state[name]).reshape(()))
            if not 0 <= code < len(choices):
                raise MalformedBlueprint(
                    f"malformed ADMIT blueprint: unknown {name} code {code}"
                )
            kwargs[name] = choices[code]
        for name in cls._FLOAT_FIELDS:
            kwargs[name] = float(np.asarray(state[name]).reshape(()))
        for name in cls._INT_FIELDS:
            kwargs[name] = int(np.asarray(state[name]).reshape(()))
        return cls(**kwargs)


@dataclasses.dataclass(frozen=True)
class Reject:
    """Server → client: ADMIT refused.

    ``code`` is one of the ``REJECT_*`` constants; ``detail`` is a
    short human-readable elaboration (UTF-8, at most 64 KiB).  The
    session field is 0 — no id was ever assigned.

    ``retry_after`` is an optional hint, in wall-clock milliseconds,
    after which a retry has a chance of succeeding — the server stamps
    it on ``capacity`` and ``overloaded`` refusals.  ``None`` means the
    server offered no hint.

    ``shard`` is the placement target of a ``redirect`` refusal: the
    fleet shard that answered is not where this session belongs, and
    the client SHOULD re-send the same ADMIT to shard ``shard``
    directly.  ``None`` on every other reason code.
    """

    session: int
    code: int
    detail: str = ""
    retry_after: Optional[int] = None
    shard: Optional[int] = None

    @property
    def reason(self) -> str:
        """Symbolic name of :attr:`code` (``"capacity"``, ...)."""
        return REJECT_REASONS.get(self.code, f"code-{self.code}")


#: Messages the format understands (see module docstring).
Message = Union[
    None, Dict[str, np.ndarray], Tuple, ServerReply, np.ndarray,
    Accept, Bye, Admit, Reject,
]


class WireError(ValueError):
    """A buffer does not hold a well-formed wire message."""


class MalformedBlueprint(WireError):
    """A well-framed ADMIT whose blueprint fails structural validation.

    The frame itself was consumed whole, so the link is still usable:
    the server answers ``REJECT(malformed-blueprint)`` instead of dying
    as it does on frame-level corruption."""


def _kind_of(obj: Message) -> int:
    if obj is None:
        return KIND_SHUTDOWN
    if isinstance(obj, ServerReply):
        return KIND_REPLY
    if isinstance(obj, Accept):
        return KIND_ACCEPT
    if isinstance(obj, Bye):
        return KIND_BYE
    if isinstance(obj, Admit):
        return KIND_ADMIT
    if isinstance(obj, Reject):
        return KIND_REJECT
    if isinstance(obj, dict):
        return KIND_STATE
    if isinstance(obj, tuple):
        if len(obj) != 2 or not isinstance(obj[0], np.ndarray):
            raise WireError("tuple messages must be (frame, label-or-None)")
        return KIND_FRAME
    if isinstance(obj, np.ndarray):
        return KIND_PRED
    raise WireError(f"no wire encoding for {type(obj).__name__}")


def _state_nbytes(state: Dict[str, np.ndarray]) -> int:
    total = _COUNT.size
    for name, value in state.items():
        total += _NAME_LEN.size + len(name.encode()) + array_wire_nbytes(
            np.asarray(value)
        )
    return total


def payload_nbytes(obj: Message) -> int:
    """Raw array bytes carried by a message (no framing at all).

    This is the quantity :class:`~repro.network.messages.MessageSizes`
    models; ``encoded_nbytes(obj) - payload_nbytes(obj)`` is the exact
    framing overhead, which the wire property tests pin to a fraction
    of a percent on every real payload.
    """
    kind = _kind_of(obj)
    if kind == KIND_SHUTDOWN or kind in _CONTROL_KINDS:
        return 0
    if kind == KIND_PRED:
        return obj.nbytes
    if kind == KIND_FRAME:
        frame, label = obj
        return frame.nbytes + (0 if label is None else np.asarray(label).nbytes)
    state = obj.update if kind == KIND_REPLY else obj
    return int(sum(np.asarray(v).nbytes for v in state.values()))


def encoded_nbytes(obj: Message) -> int:
    """Total on-the-wire size of a message, header and framing included."""
    kind = _kind_of(obj)
    total = HEADER_NBYTES
    if kind == KIND_STATE:
        total += _state_nbytes(obj)
    elif kind == KIND_FRAME:
        frame, label = obj
        total += 1 + array_wire_nbytes(frame)
        if label is not None:
            total += array_wire_nbytes(np.asarray(label))
    elif kind == KIND_REPLY:
        total += _REPLY_HEAD.size + _state_nbytes(obj.update)
    elif kind == KIND_PRED:
        total += array_wire_nbytes(obj)
    elif kind == KIND_ADMIT:
        total += _state_nbytes(obj.to_state())
    elif kind == KIND_REJECT:
        total += _REJECT_HEAD.size + len(obj.detail.encode())
    return total


def _write_state(buf: memoryview, offset: int, state: Dict[str, np.ndarray]) -> int:
    _COUNT.pack_into(buf, offset, len(state))
    offset += _COUNT.size
    for name, value in state.items():
        encoded = name.encode()
        _NAME_LEN.pack_into(buf, offset, len(encoded))
        offset += _NAME_LEN.size
        buf[offset : offset + len(encoded)] = encoded
        offset += len(encoded)
        offset = write_array(buf, offset, np.asarray(value))
    return offset


def _read_state(buf: memoryview, offset: int) -> Tuple["OrderedDict[str, np.ndarray]", int]:
    (count,) = _COUNT.unpack_from(buf, offset)
    offset += _COUNT.size
    state: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for _ in range(count):
        (name_len,) = _NAME_LEN.unpack_from(buf, offset)
        offset += _NAME_LEN.size
        name = bytes(buf[offset : offset + name_len]).decode()
        offset += name_len
        state[name], offset = read_array(buf, offset)
    return state, offset


def encode_into(obj: Message, buf: memoryview, session: int = 0) -> int:
    """Encode ``obj`` into ``buf``; returns the bytes written.

    ``buf`` must hold at least :func:`encoded_nbytes` bytes — the shm
    ring passes a slot view so the payload lands directly in shared
    memory.  ``session`` tags the frame for multiplexed links; the
    handshake messages carry their own session id and ignore it.
    """
    kind = _kind_of(obj)
    if kind in _CONTROL_KINDS and kind != KIND_ADMIT:
        session = obj.session
    if not 0 <= session <= MAX_SESSION:
        raise WireError(f"session id {session} does not fit the u16 header field")
    total = encoded_nbytes(obj)
    if len(buf) < total:
        raise WireError(f"buffer of {len(buf)} bytes cannot hold {total}")
    _HEADER.pack_into(buf, 0, MAGIC, VERSION, kind, session, total)
    offset = HEADER_NBYTES
    if kind == KIND_STATE:
        offset = _write_state(buf, offset, obj)
    elif kind == KIND_FRAME:
        frame, label = obj
        buf[offset] = 0 if label is None else 1
        offset += 1
        offset = write_array(buf, offset, frame)
        if label is not None:
            offset = write_array(buf, offset, np.asarray(label))
    elif kind == KIND_REPLY:
        _REPLY_HEAD.pack_into(buf, offset, obj.metric, obj.initial_metric, obj.steps)
        offset += _REPLY_HEAD.size
        offset = _write_state(buf, offset, obj.update)
    elif kind == KIND_PRED:
        offset = write_array(buf, offset, obj)
    elif kind == KIND_ADMIT:
        offset = _write_state(buf, offset, obj.to_state())
    elif kind == KIND_REJECT:
        detail = obj.detail.encode()
        if len(detail) > 0xFFFF:
            raise WireError("REJECT detail does not fit the u16 length field")
        retry_after = obj.retry_after
        if retry_after is not None and not 0 <= retry_after <= 0xFFFFFFFFFFFFFFFF:
            raise WireError(
                f"REJECT retry_after {retry_after} does not fit the u64 field"
            )
        shard = obj.shard
        if shard is not None and not 0 <= shard <= 0xFFFF:
            raise WireError(
                f"REJECT shard {shard} does not fit the u16 field"
            )
        _REJECT_HEAD.pack_into(
            buf, offset, obj.code, len(detail),
            0 if retry_after is None else 1,
            0 if retry_after is None else retry_after,
            0 if shard is None else 1,
            0 if shard is None else shard,
        )
        offset += _REJECT_HEAD.size
        buf[offset : offset + len(detail)] = detail
        offset += len(detail)
    assert offset == total, "encoder wrote a different size than it declared"
    return total


def encode(obj: Message, session: int = 0) -> bytes:
    """Encode ``obj`` into a fresh bytes object (tests, sockets)."""
    buf = bytearray(encoded_nbytes(obj))
    encode_into(obj, memoryview(buf), session=session)
    return bytes(buf)


def peek_header(buf: memoryview) -> Tuple[int, int, int]:
    """Validate the header at ``buf[0:]``; returns ``(kind, session,
    total_len)`` — what a multiplexer needs to route a frame and what
    the ring reads off a first fragment to know how many slots the
    message spans."""
    if len(buf) < HEADER_NBYTES:
        raise WireError("buffer shorter than a wire header")
    magic, version, kind, session, total = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    if kind not in _KINDS:
        raise WireError(f"unknown message kind {kind}")
    if total < HEADER_NBYTES:
        raise WireError(f"declared total length {total} is smaller than a header")
    return kind, session, total


def peek_total(buf: memoryview) -> int:
    """Validate the header at ``buf[0:]`` and return the message's
    total length."""
    return peek_header(buf)[2]


def decode_tagged(buf: Union[bytes, bytearray, memoryview]) -> Tuple[int, Message]:
    """Decode one message as ``(session, payload)``.

    Inverse of :func:`encode_into` with its ``session`` tag; decoded
    arrays own their memory (copied out of ``buf``), so ring slots can
    be released immediately after decoding.
    """
    buf = memoryview(buf)
    kind, session, total = peek_header(buf)
    if len(buf) < total:
        raise WireError(f"truncated message: have {len(buf)} of {total} bytes")
    offset = HEADER_NBYTES
    if kind == KIND_SHUTDOWN:
        return session, None
    if kind == KIND_ACCEPT:
        return session, Accept(session)
    if kind == KIND_BYE:
        return session, Bye(session)
    if kind == KIND_ADMIT:
        state, _ = _read_state(buf, offset)
        return session, Admit.from_state(state)
    if kind == KIND_REJECT:
        (code, detail_len, has_retry, retry_raw,
         has_shard, shard_raw) = _REJECT_HEAD.unpack_from(buf, offset)
        offset += _REJECT_HEAD.size
        retry_after = int(retry_raw) if has_retry else None
        shard = int(shard_raw) if has_shard else None
        detail = bytes(buf[offset : offset + detail_len]).decode()
        return session, Reject(session, int(code), detail, retry_after, shard)
    if kind == KIND_STATE:
        state, _ = _read_state(buf, offset)
        return session, state
    if kind == KIND_FRAME:
        has_label = buf[offset]
        offset += 1
        frame, offset = read_array(buf, offset)
        label: Optional[np.ndarray] = None
        if has_label:
            label, offset = read_array(buf, offset)
        return session, (frame, label)
    if kind == KIND_REPLY:
        metric, initial_metric, steps = _REPLY_HEAD.unpack_from(buf, offset)
        offset += _REPLY_HEAD.size
        update, _ = _read_state(buf, offset)
        return session, ServerReply(
            update=update, metric=metric, steps=int(steps),
            initial_metric=initial_metric,
        )
    pred, _ = read_array(buf, offset)
    return session, pred


def decode(buf: Union[bytes, bytearray, memoryview]) -> Message:
    """Decode one message; inverse of :func:`encode` / :func:`encode_into`."""
    return decode_tagged(buf)[1]
