"""Tests for the Module/Parameter system and freezing semantics."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn.module import Module, Parameter


class Leaf(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.ones((2, 2), dtype=np.float32))

    def forward(self, x):
        return x @ self.w


class Tree(Module):
    def __init__(self):
        super().__init__()
        self.left = Leaf()
        self.right = Leaf()
        self.bias = Parameter(np.zeros(2, dtype=np.float32))

    def forward(self, x):
        return self.left(x) + self.right(x) + self.bias


class TestRegistration:
    def test_parameters_discovered(self):
        tree = Tree()
        names = [n for n, _ in tree.named_parameters()]
        assert set(names) == {"left.w", "right.w", "bias"}

    def test_named_modules_includes_root(self):
        tree = Tree()
        names = [n for n, _ in tree.named_modules()]
        assert "" in names and "left" in names and "right" in names

    def test_num_parameters(self):
        tree = Tree()
        assert tree.num_parameters() == 4 + 4 + 2


class TestFreezing:
    def test_freeze_unfreeze_roundtrip(self):
        tree = Tree()
        tree.freeze()
        assert all(p.frozen for p in tree.parameters())
        tree.unfreeze()
        assert not any(p.frozen for p in tree.parameters())

    def test_freeze_where_by_prefix(self):
        tree = Tree()
        frozen = tree.freeze_where(lambda n: n.startswith("left"))
        assert frozen == ["left.w"]
        assert tree.left.w.frozen and not tree.right.w.frozen

    def test_trainable_fraction(self):
        tree = Tree()
        tree.freeze_where(lambda n: n == "left.w")
        assert tree.trainable_fraction() == pytest.approx(6 / 10)

    def test_frozen_param_excluded_from_trainable(self):
        tree = Tree()
        tree.left.w.freeze()
        assert tree.left.w not in tree.trainable_parameters()

    def test_freeze_clears_grad(self):
        leaf = Leaf()
        x = Tensor(np.ones((1, 2), dtype=np.float32))
        leaf(x).sum().backward()
        assert leaf.w.grad is not None
        leaf.w.freeze()
        assert leaf.w.grad is None

    def test_frozen_gets_no_new_grads(self):
        leaf = Leaf()
        leaf.w.freeze()
        x = Tensor(np.ones((1, 2), dtype=np.float32))
        out = leaf(x)
        # Output requires no grad at all: the whole graph is frozen.
        assert not out.requires_grad


class TestZeroGrad:
    def test_zero_grad_clears_all(self):
        tree = Tree()
        x = Tensor(np.ones((1, 2), dtype=np.float32))
        tree(x).sum().backward()
        tree.zero_grad()
        assert all(p.grad is None for p in tree.parameters())


class TestStateDict:
    def test_roundtrip(self):
        a, b = Tree(), Tree()
        for p in a.parameters():
            p.data += 1.0
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_state_dict_is_the_parameters(self):
        tree = Tree()
        assert list(tree.state_dict()) == [n for n, _ in tree.named_parameters()]

    def test_loaded_arrays_are_copies(self):
        a, b = Tree(), Tree()
        state = a.state_dict()
        b.load_state_dict(state)
        b.bias.data += 5.0
        np.testing.assert_allclose(a.bias.data, np.zeros(2))

    def test_strict_missing_raises(self):
        tree = Tree()
        state = tree.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            tree.load_state_dict(state)

    def test_strict_unexpected_raises(self):
        tree = Tree()
        state = tree.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            tree.load_state_dict(state)

    def test_non_strict_ignores_mismatch(self):
        tree = Tree()
        state = tree.state_dict()
        del state["bias"]
        state["ghost"] = np.zeros(1)
        tree.load_state_dict(state, strict=False)

    def test_shape_mismatch_raises(self):
        tree = Tree()
        state = tree.state_dict()
        state["bias"] = np.zeros(5)
        with pytest.raises(ValueError):
            tree.load_state_dict(state)
