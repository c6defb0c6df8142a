"""Neural-network library built on :mod:`repro.autograd`.

Provides the module system (with per-parameter freezing, the mechanism
behind ShadowTutor's partial distillation), common layers, weight
initialisation, the Adam optimizer, and state-dict serialization
with byte-size accounting used for the paper's network-traffic numbers.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Conv2d,
    BatchNorm2d,
    FrozenBatchNorm2d,
    ReLU,
    Sequential,
)
from repro.nn.optim import Adam, Optimizer
from repro.nn.serialize import (
    state_dict_bytes,
    state_dict_diff,
    apply_state_dict,
    clone_state_dict,
    param_bytes,
)

__all__ = [
    "Module",
    "Parameter",
    "Conv2d",
    "BatchNorm2d",
    "FrozenBatchNorm2d",
    "ReLU",
    "Sequential",
    "Adam",
    "Optimizer",
    "state_dict_bytes",
    "state_dict_diff",
    "apply_state_dict",
    "clone_state_dict",
    "param_bytes",
]
