"""Neural-network modules built on the autograd engine.

Provides the building blocks shared by every learned model in the
reproduction: fully-connected layers, MLPs, masked (autoregressive) linear
layers for the MADE density estimators, and a generic :class:`Module` base
class that collects parameters for the optimizers.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from . import init

__all__ = ["Module", "Linear", "MaskedLinear", "MLP"]


class Module:
    """Base class: tracks parameters and sub-modules by attribute assignment."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> list[Tensor]:
        params = list(self._params.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def to(self, dtype) -> "Module":
        """Cast every parameter (and buffered gradient) to ``dtype`` in place.

        The precision tier of a model is the dtype of its parameters: inputs
        are cast at the module boundary by the callers, and the autograd
        engine propagates whatever dtype the leaves carry, so one cast here
        switches the whole forward/backward between float64 and float32.
        """
        dtype = np.dtype(dtype)
        for param in self.parameters():
            if param.data.dtype != dtype:
                param.data = param.data.astype(dtype)
            if param.grad is not None and param.grad.dtype != dtype:
                param.grad = param.grad.astype(dtype)
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for name, param in self._params.items():
            state[name] = param.data.copy()
        for mod_name, module in self._modules.items():
            for key, value in module.state_dict().items():
                state[f"{mod_name}.{key}"] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, param in self._params.items():
            param.data = state[name].copy()
        for mod_name, module in self._modules.items():
            prefix = mod_name + "."
            sub = {k[len(prefix):]: v for k, v in state.items() if k.startswith(prefix)}
            module.load_state_dict(sub)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init.kaiming_uniform(rng, in_features, out_features),
                             requires_grad=True)
        self.bias = Tensor(init.zeros(out_features), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.bias is not None and x.ndim >= 2:
            return self._fused_affine(x)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def _fused_affine(self, x: Tensor, relu: bool = False) -> Tensor:
        """``x @ W + b`` (optionally + ReLU) as a single autograd node.

        Identical math to the composed ops, but one graph node instead of
        two or three, and batched inputs ([..., in]) collapse to a single
        2-D GEMM instead of a stack of small ones — per-node overhead and
        GEMM dispatch dominate at small batch sizes.
        """
        weight, bias = self.weight, self.bias
        w_data = weight.data
        x2 = x.data.reshape(-1, self.in_features)
        out_shape = x.data.shape[:-1] + (self.out_features,)
        out = x2 @ w_data + bias.data
        relu_mask = None
        if relu:
            relu_mask = out > 0
            out = out * relu_mask
        data = out.reshape(out_shape)

        def backward(grad):
            g2 = grad.reshape(-1, self.out_features)
            if relu_mask is not None:
                g2 = g2 * relu_mask
            out = [(weight, x2.T @ g2), (bias, g2.sum(axis=0))]
            if x.requires_grad:
                out.append((x, (g2 @ w_data.T).reshape(x.data.shape)))
            return out

        return Tensor._make(data, (x, weight, bias), backward)


class MaskedLinear(Linear):
    """A linear layer whose weight is elementwise-masked.

    Used to enforce the autoregressive property in MADE: connections from
    later inputs to earlier outputs are zeroed by the mask both in the
    forward pass and (automatically, through the product rule) in the
    backward pass.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 mask: np.ndarray):
        super().__init__(in_features, out_features, rng)
        if mask.shape != (in_features, out_features):
            raise ValueError(f"mask shape {mask.shape} != {(in_features, out_features)}")
        self.mask = Tensor(mask.astype(np.float64))  # constant, no grad

    def forward(self, x: Tensor) -> Tensor:
        return x @ (self.weight * self.mask) + self.bias


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between hidden layers."""

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 output_activation: str | None = None):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.sizes = list(sizes)
        self.output_activation = output_activation
        self.layers = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layer = Linear(fan_in, fan_out, rng)
            self.layers.append(layer)
            setattr(self, f"layer{i}", layer)

    def _activate(self, x: Tensor, kind: str) -> Tensor:
        if kind == "relu":
            return x.relu()
        if kind == "sigmoid":
            return x.sigmoid()
        raise ValueError(f"unknown activation {kind!r}")

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            kind = "relu" if i < last else self.output_activation
            if kind == "relu" and layer.bias is not None and x.ndim >= 2:
                # Affine + ReLU as one fused graph node.
                x = layer._fused_affine(x, relu=True)
            else:
                x = layer(x)
                if kind is not None:
                    x = self._activate(x, kind)
        return x
