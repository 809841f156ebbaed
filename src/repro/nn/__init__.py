"""A self-contained numpy neural-network library (autodiff, layers, optim).

This package replaces the GPU deep-learning frameworks used by the original
paper.  Everything needed by the reproduction — MLPs, set-convolution style
pooling, masked autoregressive layers, the GIN graph encoder — is built on the
:class:`~repro.nn.autograd.Tensor` reverse-mode engine defined here.
"""

from .autograd import Tensor, no_grad, concatenate, where
from .layers import Module, Linear, MaskedLinear, MLP
from .optim import Adam, clip_grad_norm
from .functional import mse_loss, cross_entropy, nll_from_logits

__all__ = [
    "Tensor", "no_grad", "concatenate", "where",
    "Module", "Linear", "MaskedLinear", "MLP",
    "Adam", "clip_grad_norm",
    "mse_loss", "cross_entropy", "nll_from_logits",
]
