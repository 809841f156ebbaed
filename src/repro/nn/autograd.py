"""A small reverse-mode automatic differentiation engine over numpy arrays.

This module is the substrate for every neural model in the reproduction
(MSCN, LW-NN, the MADE autoregressive density estimators behind NeuroCard and
UAE, and the GIN graph encoder at the heart of AutoCE).  It implements a
:class:`Tensor` wrapper around ``numpy.ndarray`` that records the operations
applied to it and can replay them in reverse to accumulate gradients.

Design notes
------------
* Gradients are dense numpy arrays of the same shape **and dtype** as the
  data.  ``float64`` is the default working precision; ``float32`` tensors
  are preserved end-to-end (the advisor's fast serving/training tier), and
  every op derives its output dtype from its operands, so a graph built from
  ``float32`` leaves stays ``float32`` through forward and backward.
* Broadcasting follows numpy semantics; :func:`_unbroadcast` sums gradients
  back down to the original operand shape.
* The graph is built eagerly and freed after :meth:`Tensor.backward`.
* Only the operations needed by the models in this repository are provided;
  each one carries a closed-form vector-Jacobian product and is verified
  against finite differences in ``tests/nn/test_autograd.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = [True]


class no_grad:
    """Context manager disabling graph construction (used at inference time)."""

    def __enter__(self):
        _GRAD_ENABLED.append(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.pop()
        return False


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


#: Floating dtypes carried through the graph unchanged; everything else
#: (ints, bools, float16) is promoted to the float64 default.
_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _as_array(value) -> np.ndarray:
    if isinstance(value, (np.ndarray, np.generic)):
        # Full-reduction ufuncs hand back 0-d numpy scalars; they carry a
        # dtype just like arrays and must not lose a float32 tier.
        if value.dtype not in _FLOAT_DTYPES:
            return np.asarray(value, dtype=np.float64)
        return np.asarray(value)
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple = ()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: tuple, backward) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    @staticmethod
    def ensure(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad=None) -> None:
        """Accumulate gradients of ``self`` w.r.t. every reachable leaf."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            for parent, parent_grad in node._backward(node_grad):
                if not parent.requires_grad:
                    continue
                pid = id(parent)
                if pid in grads:
                    grads[pid] = grads[pid] + parent_grad
                else:
                    grads[pid] = parent_grad
            # Free graph references as we go.
            node._parents = ()
            node._backward = None

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, float)):
            # Scalar fast path: python scalars follow the array dtype (so
            # float32 graphs stay float32) and skip a constant graph node.
            def backward(grad):
                return ((self, grad),)

            return Tensor._make(self.data + other, (self,), backward)
        other = Tensor.ensure(other)
        data = self.data + other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad, self.data.shape)),
                (other, _unbroadcast(grad, other.data.shape)),
            )

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            return ((self, -grad),)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            def backward(grad):
                return ((self, grad),)

            return Tensor._make(self.data - other, (self,), backward)
        other = Tensor.ensure(other)
        data = self.data - other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad, self.data.shape)),
                (other, _unbroadcast(-grad, other.data.shape)),
            )

        return Tensor._make(data, (self, other), backward)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            def backward(grad):
                return ((self, grad * other),)

            return Tensor._make(self.data * other, (self,), backward)
        other = Tensor.ensure(other)
        data = self.data * other.data
        a_data, b_data = self.data, other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad * b_data, a_data.shape)),
                (other, _unbroadcast(grad * a_data, b_data.shape)),
            )

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            # Direct division (not multiplication by the reciprocal): bit-
            # identical to the numpy result, and a zero scalar propagates
            # inf/nan like an array division instead of raising.
            def backward(grad):
                return ((self, grad / other),)

            return Tensor._make(self.data / other, (self,), backward)
        other = Tensor.ensure(other)
        data = self.data / other.data
        a_data, b_data = self.data, other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad / b_data, a_data.shape)),
                (other, _unbroadcast(-grad * a_data / (b_data * b_data), b_data.shape)),
            )

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Linear algebra / shaping
    # ------------------------------------------------------------------
    def __matmul__(self, other):
        other = Tensor.ensure(other)
        data = self.data @ other.data
        a_data, b_data = self.data, other.data

        def backward(grad):
            if a_data.ndim == 1 and b_data.ndim == 1:
                ga = grad * b_data
                gb = grad * a_data
            elif a_data.ndim == 1:
                ga = grad @ b_data.T
                gb = np.outer(a_data, grad)
            elif b_data.ndim == 1:
                ga = np.outer(grad, b_data)
                gb = a_data.T @ grad
            else:
                ga = grad @ np.swapaxes(b_data, -1, -2)
                gb = np.swapaxes(a_data, -1, -2) @ grad
                ga = _unbroadcast(ga, a_data.shape)
                gb = _unbroadcast(gb, b_data.shape)
            return ((self, ga), (other, gb))

        return Tensor._make(data, (self, other), backward)

    @property
    def T(self) -> "Tensor":
        def backward(grad):
            return ((self, grad.T),)

        return Tensor._make(self.data.T, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        original_shape = self.data.shape

        def backward(grad):
            full = np.zeros(original_shape, dtype=grad.dtype)
            np.add.at(full, index, grad)
            return ((self, full),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad):
            if axis is None:
                return ((self, np.broadcast_to(grad, shape).copy()),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            return ((self, np.broadcast_to(g, shape).copy()),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad):
            return ((self, grad * 0.5 / data),)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad):
            return ((self, grad * mask),)

        return Tensor._make(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad):
            return ((self, grad * data * (1.0 - data)),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Composite reductions used by the losses
    # ------------------------------------------------------------------
    def logsumexp(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Numerically stable ``log(sum(exp(x)))`` with exact gradient."""
        shift = self.data.max(axis=axis, keepdims=True)
        shifted = self.data - shift
        sumexp = np.exp(shifted).sum(axis=axis, keepdims=True)
        data = np.log(sumexp) + shift
        if not keepdims and axis is not None:
            data = np.squeeze(data, axis=axis)
        elif not keepdims and axis is None:
            data = data.reshape(())
        softmax = np.exp(self.data - (np.log(sumexp) + shift))

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return ((self, softmax * g),)

        return Tensor._make(data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shift = self.data.max(axis=axis, keepdims=True)
        shifted = self.data - shift
        logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - logsum
        softmax = np.exp(data)

        def backward(grad):
            return ((self, grad - softmax * grad.sum(axis=axis, keepdims=True)),)

        return Tensor._make(data, (self,), backward)


def concatenate(tensors: list, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor.ensure(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        out = []
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            out.append((tensor, grad[tuple(index)]))
        return tuple(out)

    return Tensor._make(data, tuple(tensors), backward)


def where(condition: np.ndarray, a, b) -> Tensor:
    """``np.where`` with gradients flowing through both branches."""
    a = Tensor.ensure(a)
    b = Tensor.ensure(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(grad):
        return (
            (a, _unbroadcast(np.where(cond, grad, 0.0), a.data.shape)),
            (b, _unbroadcast(np.where(cond, 0.0, grad), b.data.shape)),
        )

    return Tensor._make(data, (a, b), backward)
