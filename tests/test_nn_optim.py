"""Tests for SGD and Adam optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam


def quadratic_step(opt, p, target=0.0):
    """One optimisation step on loss = (p - target)^2."""
    opt.zero_grad()
    loss = ((p - target) ** 2).sum()
    loss.backward()
    opt.step()
    return loss.item()


class TestSGD:
    def test_plain_update_rule(self):
        p = Parameter(np.array([2.0], dtype=np.float32))
        opt = SGD([p], lr=0.1)
        quadratic_step(opt, p)
        # grad of p^2 at 2 is 4; p <- 2 - 0.1*4 = 1.6
        np.testing.assert_allclose(p.data, [1.6], rtol=1e-6)

    def test_momentum_accumulates(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, momentum=0.9)
        quadratic_step(opt, p)  # v=2.0, p = 1 - 0.2 = 0.8
        quadratic_step(opt, p)  # v=0.9*2 + 1.6 = 3.4, p = 0.8 - 0.34
        np.testing.assert_allclose(p.data, [0.46], rtol=1e-5)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0], dtype=np.float32))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            quadratic_step(opt, p, target=3.0)
        np.testing.assert_allclose(p.data, [3.0], atol=1e-3)

    def test_skips_frozen_params(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        q = Parameter(np.array([1.0], dtype=np.float32))
        opt = SGD([p, q], lr=0.1)
        q.freeze()
        opt.zero_grad()
        ((p * q) ** 2).sum().backward()
        opt.step()
        np.testing.assert_allclose(q.data, [1.0])
        assert p.data[0] != 1.0

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_step_without_backward_is_noop(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])


class TestAdam:
    def test_first_step_size_is_lr(self):
        # Adam's bias correction makes the first step ~lr * sign(grad).
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = Adam([p], lr=0.01)
        quadratic_step(opt, p)
        np.testing.assert_allclose(p.data, [0.99], atol=1e-5)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([4.0], dtype=np.float32))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            quadratic_step(opt, p, target=-1.0)
        np.testing.assert_allclose(p.data, [-1.0], atol=1e-2)

    def test_reset_state_clears_moments(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = Adam([p], lr=0.01)
        quadratic_step(opt, p)
        assert opt.state
        opt.reset_state()
        assert not opt.state

    def test_per_param_state_isolated(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        q = Parameter(np.array([2.0], dtype=np.float32))
        opt = Adam([p, q], lr=0.01)
        opt.zero_grad()
        (p**2).sum().backward()  # only p has a grad
        opt.step()
        assert id(q) not in opt.state
        assert id(p) in opt.state

    def test_frozen_param_untouched(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = Adam([p], lr=0.01)
        opt.zero_grad()
        (p**2).sum().backward()
        p.freeze()
        opt.step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_multidim_params(self, rng):
        p = Parameter(rng.normal(size=(3, 4)).astype(np.float32))
        opt = Adam([p], lr=0.05)
        for _ in range(200):
            opt.zero_grad()
            (p**2).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, np.zeros((3, 4)), atol=5e-2)


# ----------------------------------------------------------------------
# Fused Adam == the per-parameter recurrence, bit for bit
# ----------------------------------------------------------------------
def _reference_adam_update(state, p, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as Kingma & Ba state it, one parameter at a time — the
    update the fused step replaced, kept here as its specification."""
    st_ = state.setdefault(
        id(p), {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data), "t": 0}
    )
    st_["t"] += 1
    t = st_["t"]
    st_["m"] *= beta1
    st_["m"] += (1 - beta1) * p.grad
    st_["v"] *= beta2
    st_["v"] += (1 - beta2) * (p.grad**2)
    m_hat = st_["m"] / (1 - beta1**t)
    v_hat = st_["v"] / (1 - beta2**t)
    p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


#: Gradient values that break sloppy arithmetic: signed zeros,
#: denormals, and magnitudes whose square overflows float32.
_AWKWARD = [0.0, -0.0, 1e-45, -1e-45, 1e-39, 1e-20, 3e38, -3e38, 1e19, -2e19]
_grad_values = st.one_of(
    st.sampled_from(_AWKWARD),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)
_shapes = st.lists(
    st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple),
    min_size=1, max_size=5,
)


@st.composite
def _adam_scripts(draw):
    """Shapes plus 1-12 steps; each step says which parameters are
    frozen, which hold no gradient, and whether the moments are reset
    first (a new key frame with ``reset_optimizer_state``)."""
    shapes = draw(_shapes)
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        steps.append({
            "reset": draw(st.booleans()),
            "frozen": [draw(st.sampled_from([False, False, False, True])) for _ in shapes],
            "grads": [
                None if draw(st.sampled_from([False, False, False, True]))
                else draw(hnp.arrays(np.float32, shape, elements=_grad_values))
                for shape in shapes
            ],
        })
    return shapes, steps


class TestFusedAdamIsThePerParameterRecurrence:
    @given(script=_adam_scripts(), lr=st.sampled_from([0.01, 3e-3]),
           seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_weights_and_moments_are_bytes_equal(self, script, lr, seed):
        shapes, steps = script
        rng = np.random.default_rng(seed)
        init = [rng.normal(size=shape).astype(np.float32) for shape in shapes]
        got = [Parameter(a.copy()) for a in init]
        want = [Parameter(a.copy()) for a in init]
        fused, reference = Adam(got, lr=lr), {}
        with np.errstate(all="ignore"):
            for step in steps:
                if step["reset"]:
                    fused.reset_state()
                    reference.clear()
                for params in (got, want):
                    for p, frozen, grad in zip(params, step["frozen"], step["grads"]):
                        p.requires_grad = not frozen
                        p.grad = None if grad is None else grad.copy()
                fused.step()
                for p in want:
                    if p.requires_grad and p.grad is not None:
                        _reference_adam_update(reference, p, lr)
                for g, w in zip(got, want):
                    assert g.data.tobytes() == w.data.tobytes()
        state = fused.state
        assert {id(w) for w in want if id(w) in reference} == {
            id(w) for g, w in zip(got, want) if id(g) in state
        }
        for g, w in zip(got, want):
            if id(w) in reference:
                assert state[id(g)]["t"] == reference[id(w)]["t"]
                assert state[id(g)]["m"].tobytes() == reference[id(w)]["m"].tobytes()
                assert state[id(g)]["v"].tobytes() == reference[id(w)]["v"].tobytes()
