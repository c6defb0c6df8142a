"""A small reverse-mode automatic differentiation engine on NumPy.

This package is the substrate that replaces PyTorch in the ShadowTutor
reproduction.  It provides a :class:`~repro.autograd.tensor.Tensor` type
that records a computation graph during the forward pass and supports
backpropagation through it, plus the operations needed by the student and
teacher networks: convolution (via vectorized im2col), batch
normalisation, elementwise math, concatenation, nearest-neighbour
upsampling and log-softmax / cross-entropy.

The engine supports *partial backward* (ShadowTutor section 4.2): when no
tensor upstream of a node requires gradients, backpropagation stops there,
so freezing the front of a network genuinely skips gradient computation
for that part of the graph.
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled
from repro.autograd import functional

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "functional"]
