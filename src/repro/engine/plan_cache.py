"""One compiled plan per architecture, handed from instance to instance.

A server holds one student copy per viewer and opens sessions all day;
every copy has the same layers at the same geometry, and a compiled
plan (:mod:`repro.engine.compiler`, :mod:`repro.engine.training`)
captures nothing of the instance it was traced on except the layer
references its kernels read weights through.  So the process keeps one
plan per

    (structural signature of the root module, plan kind, input shapes)

and :func:`acquire` gives each instance a :class:`PlanHandle`: the
shared plan plus *this* instance's layers, in the order of the plan's
binding sites.  A handle's ``run`` / ``forward_only`` / ``finish_step``
check one identity — is the plan still pointed at me? — and, when it
last ran for someone else, re-point its sites first (a few dozen
attribute writes).  The compile, with its trace and its megabytes of
scratch buffers, happens once per key.

Why this is safe: the runtime is non-threaded and event-driven — no two
sessions ever execute a plan at once, so a plan can simply change
hands between calls.  What a hand-over must not do is let anything of
the previous owner leak through; :meth:`CompiledTrainStep.bind
<repro.engine.training.CompiledTrainStep.bind>` drops a pending
forward, deferred batch-norm statistics and an adjoint scheduled for
another freeze state.  What callers must not do is hold a plan's output
buffers across someone else's call: see the buffer-lifetime contract in
:mod:`repro.engine.compiler`.

Ownership is decided by comparing *objects* (each handle's weak
self-reference), never ``id()``: a fresh model routinely lands on a
dead one's address.  The same weak reference releases the plan's layer
references when its current owner dies, so the cache never keeps a
closed session's model alive.
"""

from __future__ import annotations

import functools
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.engine import compiler, training
from repro.engine.kernels import UntraceableError

#: structural key -> (shared plan, path of each binding site's layer),
#: or None for a geometry that failed to compile (cached, so N sessions
#: of an uncompilable geometry trace once, not N times).
_PLANS: Dict[tuple, Optional[Tuple[object, Tuple[str, ...]]]] = {}


def clear() -> None:
    """Forget every shared plan (tests that count compiles start here).
    Live handles keep working on the plans they already hold."""
    _PLANS.clear()


def _plain(value) -> bool:
    if isinstance(value, tuple):
        return all(_plain(v) for v in value)
    return value is None or isinstance(value, (bool, int, float, str))


def structural_signature(root) -> tuple:
    """Everything about ``root`` that a trace or a kernel build can see.

    Per module in ``named_modules()`` order: path, class, the first
    path the same object appeared under (so aliased layers only match
    aliased layers), parameter and buffer names with shapes (conv
    channels, kernel and bias presence), and every plain-valued
    attribute (stride, padding, eps, momentum,
    ``use_batch_stats_in_eval``, a pooling window, a composite's own
    switches).  Never weights, ``requires_grad`` or ``training``: those
    are read live, per call, through the bound layers.
    """
    first_path: Dict[int, str] = {}
    return tuple(
        (
            path,
            type(module),
            first_path.setdefault(id(module), path),
            tuple((name, p.data.shape) for name, p in module._parameters.items()),
            tuple((name, b.shape) for name, b in module._buffers.items()),
            tuple(sorted(
                (name, value) for name, value in vars(module).items()
                if name != "training" and _plain(value)
            )),
        )
        for path, module in root.named_modules()
    )


def _compile(root, fn, kind: str, shapes) -> Optional[Tuple[object, Tuple[str, ...]]]:
    examples = tuple(np.zeros(shape, dtype=np.float32) for shape in shapes)
    # Trace in eval mode: tracing runs one real forward, and doing it
    # in train mode would perturb batch-norm running statistics.
    was_training = root.training
    root.eval()
    try:
        # Looked up through their modules at call time, so a probe or a
        # test that wraps them counts every real compile.
        if kind.startswith("train"):
            plan = training.CompiledTrainStep(fn, examples)
        else:
            plan = compiler.compile_plan(fn, examples)
        path_of = {id(module): path for path, module in root.named_modules()}
        paths = tuple(path_of.get(id(site.module)) for site in plan.sites)
    except UntraceableError:
        return None
    finally:
        root.train(was_training)
    if None in paths:
        # A traced layer that named_modules() does not reach: the plan
        # could not be re-pointed at another instance's copy of it.
        return None
    return plan, paths


def _release(plan, token) -> None:
    if plan.owner is token:
        plan.owner = None
        plan.release()


class PlanHandle:
    """One module instance's claim on a shared plan.

    Quacks like the plan it wraps (``run``; for train steps also
    ``forward_only`` / ``finish_step`` / ``adjoint``), re-pointing the
    plan at this instance's layers whenever it last ran for another.
    The calls go through the plan's class, so probes wrapped around
    ``CompiledTrainStep.forward_only`` and friends keep firing.
    """

    __slots__ = ("_plan", "_modules", "_token", "__weakref__")

    def __init__(self, plan, modules: list) -> None:
        self._plan = plan
        self._modules = modules
        # This handle's identity as an owner, and — through the
        # callback — what unbinds the plan when the handle (that is,
        # the model holding it) goes away while still the owner.
        self._token = weakref.ref(self, functools.partial(_release, plan))

    def bound(self):
        """The shared plan, pointed at this instance's layers."""
        plan = self._plan
        if plan.owner is not self._token:
            plan.bind(self._modules)
            plan.owner = self._token
            if obs.enabled():
                obs.counter("engine.plan_cache.rebind").inc()
        return plan

    def run(self, *args):
        return self.bound().run(*args)

    def forward_only(self, inputs):
        return self.bound().forward_only(inputs)

    def finish_step(self, target, weight_map):
        return self.bound().finish_step(target, weight_map)

    @property
    def adjoint(self):
        return self.bound().adjoint

    @property
    def num_kernels(self) -> int:
        return self._plan.num_kernels


def compile_transient(root, kind: str, shapes):
    """A ``(kind, shapes)`` plan of ``root``'s own, outside the shared
    table: its scratch (~130 MB for a full-mode step at 96x144) goes when
    the caller drops it.  ``None`` when it does not compile."""
    entry = _compile(root, root._engine_fns()[kind], kind, shapes)
    return entry and entry[0]


def acquire(root, kind: str, shapes) -> Optional[PlanHandle]:
    """``root``'s handle on the shared ``(kind, shapes)`` plan of its
    architecture, compiling it if this process has not yet; ``None``
    when that geometry does not compile."""
    fns = root._engine_fns()
    if kind not in fns:
        raise KeyError(f"{type(root).__name__} has no {kind!r} engine plan")
    key = (structural_signature(root), kind, shapes)
    hit = key in _PLANS
    if not hit:
        _PLANS[key] = _compile(root, fns[kind], kind, shapes)
    if obs.enabled():
        obs.counter(f"engine.plan_cache.{'hit' if hit else 'miss'}").inc()
    entry = _PLANS[key]
    if entry is None:
        return None
    plan, paths = entry
    layers = dict(root.named_modules())
    return PlanHandle(plan, [layers[path] for path in paths])
