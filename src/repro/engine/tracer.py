"""Operation tracing for the compiled inference engine.

The plan compiler does not parse Python: it *runs* a model's forward
once and records the primitive operations it performs.  Recording hooks
live in :mod:`repro.autograd.tensor` (structural tensor ops) and
:class:`repro.nn.module.Module` (leaf-layer calls); both check the
module-level ``_ACTIVE`` session, so tracing costs a single ``is None``
test per op when disabled.

This module is intentionally dependency-free (it is imported by
``autograd`` and ``nn``, which everything else imports).
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: The active trace session, or None.  Hooks read this directly.
_ACTIVE: Optional["TraceSession"] = None


class OpRecord:
    """One primitive operation observed during a trace.

    ``kind`` is either ``"module"`` (a leaf layer call — ``module`` holds
    the layer instance) or a tensor-op name: ``"relu"``, ``"add"``,
    ``"concat"`` or ``"upsample2x"``.  Inputs and output are
    identified by ``id()`` of the traced Tensor objects; the session
    keeps references alive so ids cannot be recycled mid-trace.
    """

    __slots__ = ("kind", "module", "input_ids", "output_id", "meta")

    def __init__(
        self,
        kind: str,
        input_ids: Tuple[int, ...],
        output_id: int,
        module: Any = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.module = module
        self.input_ids = input_ids
        self.output_id = output_id
        self.meta = meta or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = type(self.module).__name__ if self.module is not None else self.kind
        return f"OpRecord({tag}, in={self.input_ids}, out={self.output_id})"


class TraceSession:
    """Collects :class:`OpRecord` objects for one traced call."""

    def __init__(self) -> None:
        self.records: List[OpRecord] = []
        self._keep: List[Any] = []  # prevents id() reuse during the trace

    def record(
        self,
        kind: str,
        inputs: Sequence[Any],
        output: Any,
        module: Any = None,
        **meta: Any,
    ) -> None:
        self._keep.extend(inputs)
        self._keep.append(output)
        self.records.append(
            OpRecord(kind, tuple(id(t) for t in inputs), id(output), module, meta)
        )


@contextlib.contextmanager
def capture() -> Iterator[TraceSession]:
    """Record every hooked operation executed inside the block.

    Nested captures are disallowed — the engine compiles one plan at a
    time and a nested trace would interleave two models' records.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a trace capture is already active")
    session = TraceSession()
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = None
