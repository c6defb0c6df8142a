"""State-dict serialization, diffing and byte-size accounting.

ShadowTutor's network-traffic results (Tables 4 and 5) hinge on *what*
is sent per key frame: the whole student after full distillation, but
only the updated back-end after partial distillation ("UpdatedPart" in
Algorithm 3).  This module computes those payloads and their sizes.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.module import Module


def clone_state_dict(state: Dict[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
    """Deep-copy a state dict (checkpointing in Algorithm 1)."""
    return OrderedDict((k, np.array(v, copy=True)) for k, v in state.items())


def array_digest(array: np.ndarray, prev: str = "") -> str:
    """Content digest of one array (shape + dtype + bytes), chained on
    ``prev``.  The serving layer keys weight versions, frames and
    pseudo-labels by these digests to decide which sessions may share
    batched inference or memoised distillation work."""
    h = hashlib.blake2b(prev.encode(), digest_size=16)
    arr = np.ascontiguousarray(array)
    h.update(str(arr.shape).encode())
    h.update(arr.dtype.str.encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def state_dict_digest(state: Dict[str, np.ndarray], prev: str = "") -> str:
    """Content digest of a state dict, chained on ``prev``.

    Chaining makes weight *versions* cheap to maintain: a client whose
    student starts at checkpoint digest ``d0`` and applies updates
    ``u1, u2`` holds version ``H(H(d0, u1), u2)`` — equal versions imply
    equal weights (same start, same deterministic update sequence)
    without ever re-hashing the full model.
    """
    h = hashlib.blake2b(prev.encode(), digest_size=16)
    for name in sorted(state):
        h.update(name.encode())
        h.update(array_digest(state[name]).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Raw ndarray wire framing (used by repro.transport.wire)
# ----------------------------------------------------------------------
# Layout (little-endian):  u8 dtype_len | dtype_str | u8 ndim |
# u32 * ndim shape | u64 nbytes | raw C-order bytes.  The dtype string
# is numpy's ``dtype.str`` (``'<f4'``, ``'|u1'``, ...), which pins byte
# order, so a decoded array is byte-for-byte the encoded one.

_ARRAY_LEN = struct.Struct("<Q")


def array_wire_nbytes(array: np.ndarray) -> int:
    """Encoded size of one array, header included."""
    dt = array.dtype.str.encode("ascii")
    return 1 + len(dt) + 1 + 4 * array.ndim + 8 + array.nbytes


def write_array(buf: memoryview, offset: int, array: np.ndarray) -> int:
    """Write ``array`` into ``buf`` at ``offset``; returns the new offset.

    The payload bytes are copied exactly once, straight into the target
    buffer (which for the shared-memory transport *is* the shared
    segment — no intermediate pickle or bytes object ever exists).
    """
    if array.dtype.hasobject:
        raise ValueError("object dtypes cannot cross the wire")
    arr = np.asarray(array)
    # ascontiguousarray promotes 0-d to 1-d: take the bytes from it but
    # keep the original ndim/shape in the header so decode round-trips.
    data = np.ascontiguousarray(arr)
    dt = arr.dtype.str.encode("ascii")
    if len(dt) > 255 or arr.ndim > 255:
        raise ValueError("unencodable array header")
    buf[offset] = len(dt)
    offset += 1
    buf[offset : offset + len(dt)] = dt
    offset += len(dt)
    buf[offset] = arr.ndim
    offset += 1
    for dim in arr.shape:
        struct.pack_into("<I", buf, offset, dim)
        offset += 4
    _ARRAY_LEN.pack_into(buf, offset, arr.nbytes)
    offset += 8
    if arr.nbytes:
        np.frombuffer(buf, np.uint8, arr.nbytes, offset)[:] = np.frombuffer(
            data, np.uint8
        )
    return offset + arr.nbytes


def read_array(buf: memoryview, offset: int) -> Tuple[np.ndarray, int]:
    """Decode one array from ``buf`` at ``offset``.

    Returns ``(array, new_offset)``.  The array owns its memory (one
    copy out of the buffer), so the caller may recycle ``buf`` — the
    shared-memory ring does, slot by slot.
    """
    dt_len = buf[offset]
    offset += 1
    dtype = np.dtype(bytes(buf[offset : offset + dt_len]).decode("ascii"))
    offset += dt_len
    ndim = buf[offset]
    offset += 1
    shape = []
    for _ in range(ndim):
        shape.append(struct.unpack_from("<I", buf, offset)[0])
        offset += 4
    (nbytes,) = _ARRAY_LEN.unpack_from(buf, offset)
    offset += 8
    count = nbytes // dtype.itemsize if dtype.itemsize else 0
    array = (
        np.frombuffer(buf, dtype, count, offset).reshape(shape).copy()
        if nbytes
        else np.empty(shape, dtype)
    )
    return array, offset + nbytes


def param_bytes(arrays: Iterable[np.ndarray]) -> int:
    """Total payload size in bytes of the given arrays."""
    return int(sum(a.nbytes for a in arrays))


def state_dict_bytes(state: Dict[str, np.ndarray]) -> int:
    """Payload size of a full state dict in bytes."""
    return param_bytes(state.values())


class StateSlots:
    """The part of a module's state that must cross the network, resolved
    once: the parameters :func:`state_dict_diff` copies.

    With ``trainable_only`` (partial distillation), only unfrozen
    parameters are included — "it suffices to communicate only the
    weights that changed" (section 4.2).  Parameters are all the state a
    module has, so an update is the trained parameters and nothing else.

    Resolving walks the module tree, which costs more than copying the
    back-end's few dozen small tensors; whoever copies the same slots
    repeatedly (Algorithm 1's best-checkpoint snapshots) keeps the
    object for as long as the freeze state stands.
    """

    def __init__(self, module: Module, trainable_only: bool = True) -> None:
        self.params = [
            (name, p) for name, p in module.named_parameters()
            if p.requires_grad or not trainable_only
        ]
        self.names = [name for name, _ in self.params]

    def copy(self) -> List[np.ndarray]:
        """Fresh copies of every slot, in :attr:`names` order."""
        return [np.array(p.data, copy=True) for _, p in self.params]

    def restore(self, arrays: List[np.ndarray]) -> None:
        """Put a :meth:`copy` back.  The arrays are handed over, not
        copied again: the caller gives the snapshot up."""
        for (_, p), value in zip(self.params, arrays):
            p.data = value


def state_dict_diff(
    module: Module, trainable_only: bool = True,
) -> "OrderedDict[str, np.ndarray]":
    """Extract (copy) the part of a module's state that must cross the
    network — see :class:`StateSlots` for what that is."""
    slots = StateSlots(module, trainable_only)
    return OrderedDict(zip(slots.names, slots.copy()))


def apply_state_dict(module: Module, update: Dict[str, np.ndarray]) -> None:
    """Apply a (possibly partial) state update to a module.

    This is Algorithm 4's ``ApplyUpdate``: the client merges the diff
    received from the server into its local student.
    """
    params = dict(module.named_parameters())
    for name, value in update.items():
        if name not in params:
            raise KeyError(f"update contains unknown entry {name!r}")
        if params[name].data.shape != value.shape:
            raise ValueError(f"shape mismatch applying update for {name}")
        params[name].data = np.asarray(value, dtype=np.float32).copy()
