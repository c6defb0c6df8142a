"""Optimizers operating on :class:`~repro.nn.module.Parameter` lists.

ShadowTutor trains the student online with Adam at lr=0.01 (section 5.2),
and pre-training uses the same optimizer.  Optimizers skip frozen
parameters, so a single optimizer instance works for both partial and
full distillation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer: holds the parameter list and the learning rate."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


def _updates(p: Parameter) -> bool:
    """Whether a step touches ``p``: unfrozen and holding a gradient."""
    return p.requires_grad and p.grad is not None


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015); the paper's online-distillation optimizer.

    The moments of all parameters live in one flat float32 vector each,
    laid out in parameter order, and a step is one fused update: the
    gradients are gathered once, the recurrence runs as a dozen ufunc
    calls over the whole vector, and each parameter subtracts its slice.
    Every operation is elementwise, so the result is bit for bit the
    per-parameter recurrence (``tests/test_nn_optim.py`` writes it out)
    at a fraction of the call count — Algorithm 1's back-end is 28 small
    tensors, which used to cost ~340 tiny ufunc calls per step.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        #: ``_bounds[i]:_bounds[i + 1]`` is parameter ``i``'s slice.
        self._bounds = [0]
        for p in self.params:
            self._bounds.append(self._bounds[-1] + p.data.size)
        total = self._bounds[-1]
        self._m = np.zeros(total, np.float32)
        self._v = np.zeros(total, np.float32)
        #: Updates taken per parameter (the bias correction's ``t``).
        self._t = [0] * len(self.params)
        #: Step scratch: the gathered gradients (then the denominator),
        #: and the numerator, which ends as the decrement.
        self._grad = np.empty(total, np.float32)
        self._num = np.empty(total, np.float32)
        #: Parameter-shaped views of ``_num``, where a step leaves each
        #: parameter's decrement.
        self._deltas = [
            self._num[lo:hi].reshape(p.data.shape)
            for p, lo, hi in zip(self.params, self._bounds, self._bounds[1:])
        ]

    @property
    def state(self) -> Dict[int, Dict[str, object]]:
        """``id(param) -> {"m", "v", "t"}`` for every parameter updated
        since the last reset; the moments are views of the flat vectors."""
        out = {}
        for p, lo, hi, t in zip(self.params, self._bounds, self._bounds[1:], self._t):
            if t:
                out[id(p)] = {
                    "m": self._m[lo:hi].reshape(p.data.shape),
                    "v": self._v[lo:hi].reshape(p.data.shape),
                    "t": t,
                }
        return out

    def step(self) -> None:
        """Update every unfrozen parameter that holds a gradient.

        Parameters are taken in maximal runs of neighbours that update
        together at the same step count — one run in the usual case; a
        parameter frozen or left without a gradient splits it.
        """
        params, t = self.params, self._t
        i, n = 0, len(params)
        while i < n:
            if not _updates(params[i]):
                i += 1
                continue
            j = i + 1
            while j < n and _updates(params[j]) and t[j] == t[i]:
                j += 1
            self._update(i, j)
            i = j

    def _update(self, i: int, j: int) -> None:
        """One fused Adam update of parameters ``i .. j - 1``."""
        params = self.params[i:j]
        span = slice(self._bounds[i], self._bounds[j])
        grad, num = self._grad[span], self._num[span]
        m, v = self._m[span], self._v[span]
        np.concatenate([p.grad.ravel() for p in params], out=grad)
        step = self._t[i] + 1
        self._t[i:j] = [step] * (j - i)
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=num)
        m += num
        v *= self.beta2
        den = np.square(grad, out=grad)
        den *= 1 - self.beta2
        v += den
        np.divide(m, 1 - self.beta1**step, out=num)   # m_hat
        np.divide(v, 1 - self.beta2**step, out=den)   # v_hat
        num *= self.lr
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        for p, delta in zip(params, self._deltas[i:j]):
            p.data -= delta

    def reset_state(self) -> None:
        """Drop moment estimates (used when a fresh key frame arrives)."""
        self._m.fill(0.0)
        self._v.fill(0.0)
        self._t = [0] * len(self.params)
