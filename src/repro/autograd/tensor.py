"""Core tensor type with reverse-mode automatic differentiation.

The design follows the classic tape-free define-by-run pattern: every
operation that touches a tensor with ``requires_grad=True`` creates a new
tensor whose ``_backward`` closure knows how to push gradients to its
parents.  ``Tensor.backward()`` topologically sorts the graph and runs the
closures in reverse order.

Gradients accumulate into ``tensor.grad`` (a plain ``numpy.ndarray``), so
optimizers can operate on raw arrays without touching the graph.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine import tracer as _tracer

Arrayish = Union["Tensor", np.ndarray, float, int]

_GRAD_ON = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used for plain inference (non-key frames in ShadowTutor) where
    building the autograd graph would waste time and memory.
    """
    global _GRAD_ON
    prev = _GRAD_ON
    _GRAD_ON = False
    try:
        yield
    finally:
        _GRAD_ON = prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ON


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def sum_2x2_windows(
    grad: np.ndarray,
    out: Optional[np.ndarray] = None,
    tmp: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sum every 2x2 window of an NCHW array: the vjp of ``upsample2x``.

    Written out over the four strided views as
    ``((g00 + g01) + 0.0) + (g10 + g11)`` — term for term what
    ``grad.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))`` evaluates for
    ``w > 1`` (NumPy's two-axis add-reduce starts from the identity
    ``+0.0`` and adds one row's pair sum at a time, so a window of four
    ``-0.0`` sums to ``+0.0``), at a tenth of the cost.  The compiled engine
    calls this same function with preallocated ``out`` / ``tmp``, so
    the float32 association is defined once and cannot differ between
    the two paths or move with a NumPy release.
    """
    top, bottom = grad[:, :, 0::2], grad[:, :, 1::2]
    out = np.add(top[..., 0::2], top[..., 1::2], out=out)
    out += 0.0
    tmp = np.add(bottom[..., 0::2], bottom[..., 1::2], out=tmp)
    out += tmp
    return out


class Tensor:
    """An n-dimensional array that can participate in autograd.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64``/``float32`` ndarray.
    requires_grad:
        Whether gradients should be accumulated for this tensor.  Frozen
        parameters in partial distillation simply set this to ``False``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: Arrayish,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ON
        self._backward = _backward
        self._parents: Tuple[Tensor, ...] = tuple(_parents) if self.requires_grad else ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a tensor with exactly one element")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor, wiring the graph only when needed."""
        requires = _GRAD_ON and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Gradient computation stops at tensors that do not require
        gradients — this is what makes *partial distillation* cheaper
        than full distillation: a frozen front-end contributes no nodes
        to the traversal below the freeze boundary.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float32)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other: Arrayish) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.data.shape))
            other._accumulate(_unbroadcast(grad, other.data.shape))

        out = Tensor._make(out_data, (self, other), backward)
        if _tracer._ACTIVE is not None:
            _tracer._ACTIVE.record("add", (self, other), out)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: Arrayish) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra and shape ops
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad @ other.data.swapaxes(-1, -2), self.shape))
            other._accumulate(_unbroadcast(self.data.swapaxes(-1, -2) @ grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(old_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, in_shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        out = Tensor._make(out_data, (self,), backward)
        if _tracer._ACTIVE is not None:
            _tracer._ACTIVE.record("relu", (self,), out)
        return out

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Structural ops used by the models
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 1) -> "Tensor":
        """Concatenate along ``axis`` (channel concat in the student)."""
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(index)])

        out = Tensor._make(out_data, tuple(tensors), backward)
        if _tracer._ACTIVE is not None:
            _tracer._ACTIVE.record("concat", tuple(tensors), out, axis=axis)
        return out

    def upsample2x(self) -> "Tensor":
        """Nearest-neighbour 2x upsampling of an NCHW tensor."""
        out_data = self.data.repeat(2, axis=-2).repeat(2, axis=-1)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(sum_2x2_windows(grad))

        out = Tensor._make(out_data, (self,), backward)
        if _tracer._ACTIVE is not None:
            _tracer._ACTIVE.record("upsample2x", (self,), out)
        return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (used for batched operations)."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            index = [slice(None)] * grad.ndim
            index[axis] = i
            t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)
