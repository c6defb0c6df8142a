"""Module/Parameter system with per-parameter freezing.

Freezing is first-class because ShadowTutor's partial distillation
(section 4.2) is implemented by freezing the student's front-end (input
convs through SB4) and training only the back-end.  A frozen parameter
sets ``requires_grad=False`` on its tensor, which makes the autograd
engine skip gradient computation upstream of it — the paper's claimed
latency/memory win falls out of the graph traversal for free.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.engine import tracer as _tracer


class Parameter(Tensor):
    """A trainable tensor.

    ``frozen`` parameters keep their values but are excluded from
    gradient computation, optimizer updates, and state-dict diffs.
    """

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)

    @property
    def frozen(self) -> bool:
        return not self.requires_grad

    def freeze(self) -> None:
        self.requires_grad = False
        self.grad = None

    def unfreeze(self) -> None:
        self.requires_grad = True


class Module:
    """Base class for network components.

    Subclasses assign :class:`Parameter` and child :class:`Module`
    instances as attributes; registration is automatic through
    ``__setattr__``.  Parameters are a module's whole state: no layer
    keeps statistics beside them, and there is no train/eval mode.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        #: (kind, shapes) -> this instance's handle on a shared plan;
        #: see :meth:`engine_plan` and :meth:`invalidate_plans`.
        object.__setattr__(self, "_engine_plans", {})

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            value.name = name
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for mod_name, module in self.named_modules(prefix):
            for p_name, param in module._parameters.items():
                full = f"{mod_name}.{p_name}" if mod_name else p_name
                yield full, param

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def trainable_parameters(self) -> List[Parameter]:
        return [p for p in self.parameters() if p.requires_grad]

    def num_parameters(self, trainable_only: bool = False) -> int:
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(p.size for p in params))

    # ------------------------------------------------------------------
    # Freezing (partial distillation support)
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        for p in self.parameters():
            p.freeze()

    def unfreeze(self) -> None:
        for p in self.parameters():
            p.unfreeze()

    def freeze_where(self, predicate: Callable[[str], bool]) -> List[str]:
        """Freeze parameters whose qualified name satisfies ``predicate``.

        Returns the names frozen; used by the freeze-point ablation.
        """
        frozen = []
        for name, p in self.named_parameters():
            if predicate(name):
                p.freeze()
                frozen.append(name)
        return frozen

    def trainable_fraction(self) -> float:
        """Fraction of parameters that are trainable (paper quotes 21.4%)."""
        total = self.num_parameters()
        return self.num_parameters(trainable_only=True) / total if total else 0.0

    # ------------------------------------------------------------------
    # Gradient management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Flat name -> ndarray mapping of the parameters."""
        return OrderedDict((name, p.data) for name, p in self.named_parameters())

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if strict and (missing or unexpected):
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, value in state.items():
            if name in params:
                if params[name].data.shape != value.shape:
                    raise ValueError(f"shape mismatch for {name}")
                params[name].data = np.asarray(value, dtype=np.float32).copy()

    # ------------------------------------------------------------------
    # Compiled-engine plan cache
    # ------------------------------------------------------------------
    def _engine_fns(self) -> Dict[str, Callable]:
        """Traced callables by plan kind.

        The base vocabulary is ``"forward"`` (the whole module);
        subclasses extend it with partial forwards and train steps
        (:class:`~repro.models.student.StudentNet` does).
        """
        return {"forward": self.forward}

    def engine_plan(self, kind: str, shapes: Tuple[Tuple[int, ...], ...]):
        """Fetch this instance's handle on the engine plan for a geometry.

        Plans belong to the *architecture*, not the instance: the
        process keeps one per (structure, kind, shapes) in
        :mod:`repro.engine.plan_cache`, compiled by whichever instance
        asks first, and every instance gets a thin
        :class:`~repro.engine.plan_cache.PlanHandle` that points the
        shared plan at its own layers whenever the plan last ran for
        someone else.  The handle is kept on the instance, so the hot
        path is one dict lookup.  Output buffers (and the gradient
        views a train step installs) are valid until *any* instance
        runs the same plan — copy or reduce at once.

        Always a handle: a geometry whose traced graph does not compile
        raises :class:`~repro.engine.kernels.UntraceableError` (a
        forward that rejects the geometry outright raises its own
        error) and caches nothing, here or process-wide.
        """
        key = (kind, shapes)
        handles = self._engine_plans
        if key not in handles:
            from repro.engine import plan_cache

            handles[key] = plan_cache.acquire(self, kind, shapes)
        return handles[key]

    def run_plan(self, kind: str, *inputs: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Outputs of the ``kind`` callable on ``inputs``: the compiled
        plan's buffers, valid until that plan runs again — copy or
        reduce at once."""
        return self.engine_plan(kind, tuple(a.shape for a in inputs)).run(*inputs)

    def invalidate_plans(self) -> None:
        """Drop this module tree's handles on shared engine plans.

        Never needed for weight updates (optimizer steps,
        ``load_state_dict``, ``apply_state_dict``): kernels read
        parameters from the live layers at execution time.
        It is for structural edits — swapping a layer, changing a
        stride: the next :meth:`engine_plan` re-derives the structural
        signature and lands on the plan of the edited architecture.
        The shared plans themselves stay with the process.
        """
        for _, module in self.named_modules():
            module._engine_plans.clear()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        out = self.forward(*args, **kwargs)
        # Plan-capture hook: leaf layers (Conv2d, BatchNorm2d — marked
        # with ``_engine_leaf``) report their calls to an active engine
        # trace; composite modules contribute through their children.
        if _tracer._ACTIVE is not None and getattr(self, "_engine_leaf", False):
            _tracer._ACTIVE.record(
                "module",
                tuple(a for a in args if isinstance(a, Tensor)),
                out,
                module=self,
            )
        return out
