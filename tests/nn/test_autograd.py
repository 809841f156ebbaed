"""Gradient correctness of the autodiff engine, checked against finite
differences, plus graph-mechanics tests (accumulation, no_grad, freeing)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.autograd import Tensor, _unbroadcast


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        g[i] = (up - down) / (2 * eps)
    return grad


def square(t: Tensor) -> Tensor:
    return t * t


def check_gradient(build, x: np.ndarray, atol: float = 1e-5):
    tensor = Tensor(x.copy(), requires_grad=True)
    out = build(tensor)
    out.backward()
    expected = numeric_grad(lambda v: float(build(Tensor(v)).numpy()), x.copy())
    np.testing.assert_allclose(tensor.grad, expected, atol=atol, rtol=1e-4)


class TestElementwiseGradients:
    def test_add(self, rng):
        check_gradient(lambda t: (t + 3.0).sum(), rng.normal(size=(3, 4)))

    def test_sub(self, rng):
        other = rng.normal(size=(3, 4))
        check_gradient(lambda t: (Tensor(other) - t).sum(),
                       rng.normal(size=(3, 4)))

    def test_mul(self, rng):
        other = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t * other).sum(), rng.normal(size=(3, 4)))

    def test_div(self, rng):
        denom = rng.normal(size=(3, 4)) + 5.0
        check_gradient(lambda t: (t / denom).sum(), rng.normal(size=(3, 4)))

    def test_div_denominator(self, rng):
        numer = rng.normal(size=(3, 4))
        check_gradient(lambda t: (Tensor(numer) / t).sum(),
                       rng.uniform(1.0, 3.0, (3, 4)))

    def test_scalar_on_the_left(self, rng):
        check_gradient(lambda t: square(3.0 + t).sum(), rng.normal(size=(3,)))
        check_gradient(lambda t: square(2.5 * t).sum(), rng.normal(size=(3,)))

    def test_neg(self, rng):
        check_gradient(lambda t: (-t).sum(), rng.normal(size=(4,)))

    def test_sqrt(self, rng):
        check_gradient(lambda t: t.sqrt().sum(), rng.uniform(0.5, 2.0, (3,)))

    def test_relu(self, rng):
        x = rng.normal(size=(10,))
        x[np.abs(x) < 0.05] = 0.5  # avoid the kink
        check_gradient(lambda t: t.relu().sum(), x)

    def test_sigmoid(self, rng):
        check_gradient(lambda t: t.sigmoid().sum(), rng.normal(size=(5,)))


class TestReductionsAndShaping:
    def test_sum_axis(self, rng):
        check_gradient(lambda t: square(t.sum(axis=0)).sum(),
                       rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * 2.0).sum(),
                       rng.normal(size=(3, 4)))

    def test_mean(self, rng):
        check_gradient(lambda t: square(t.mean(axis=1)).sum(),
                       rng.normal(size=(3, 4)))

    def test_sum_all(self, rng):
        check_gradient(lambda t: square(t.sum()), rng.normal(size=(3, 4)))

    def test_mean_all(self, rng):
        check_gradient(lambda t: square(t.mean()), rng.normal(size=(3, 4)))

    def test_mean_tuple_axis(self, rng):
        check_gradient(lambda t: square(t.mean(axis=(0, 2))).sum(),
                       rng.normal(size=(2, 3, 4)))

    def test_transpose(self, rng):
        other = rng.normal(size=(4, 3))
        check_gradient(lambda t: (t.T * other).sum(), rng.normal(size=(3, 4)))

    def test_getitem(self, rng):
        check_gradient(lambda t: square(t[1:, :2]).sum(), rng.normal(size=(3, 4)))

    def test_getitem_fancy(self, rng):
        rows = np.array([0, 2, 2])
        check_gradient(lambda t: t[rows].sum(), rng.normal(size=(3, 4)))

    def test_getitem_integer(self, rng):
        check_gradient(lambda t: square(t[1]).sum(), rng.normal(size=(3, 4)))

    def test_getitem_boolean_mask(self, rng):
        mask = np.array([[True, False, True, False],
                         [False, False, True, True],
                         [True, True, False, False]])
        check_gradient(lambda t: square(t[mask]).sum(), rng.normal(size=(3, 4)))

    def test_getitem_pairs(self, rng):
        # The (rows, labels) gather of cross_entropy / nll_from_logits.
        rows, cols = np.arange(3), np.array([1, 0, 3])
        check_gradient(lambda t: square(t[rows, cols]).sum(),
                       rng.normal(size=(3, 4)))

    def test_logsumexp(self, rng):
        check_gradient(lambda t: t.logsumexp(axis=1).sum(),
                       rng.normal(size=(3, 4)))

    def test_logsumexp_all(self, rng):
        check_gradient(lambda t: t.logsumexp(), rng.normal(size=(3, 4)))

    def test_logsumexp_keepdims(self, rng):
        w = rng.normal(size=(3, 1))
        check_gradient(lambda t: (t.logsumexp(axis=1, keepdims=True) * w).sum(),
                       rng.normal(size=(3, 4)))

    def test_log_softmax(self, rng):
        w = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t.log_softmax(axis=1) * w).sum(),
                       rng.normal(size=(3, 4)))

    def test_log_softmax_axis0(self, rng):
        w = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t.log_softmax(axis=0) * w).sum(),
                       rng.normal(size=(3, 4)))


class TestMatmul:
    def test_2d_2d_left(self, rng):
        b = rng.normal(size=(4, 2))
        check_gradient(lambda t: (t @ b).sum(), rng.normal(size=(3, 4)))

    def test_2d_2d_right(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradient(lambda t: (Tensor(a) @ t).sum(), rng.normal(size=(4, 2)))

    def test_batched_3d_2d(self, rng):
        w = rng.normal(size=(4, 2))
        check_gradient(lambda t: (t @ w).sum(), rng.normal(size=(2, 3, 4)))

    def test_batched_3d_2d_weight_grad(self, rng):
        x = rng.normal(size=(2, 3, 4))
        check_gradient(lambda t: (Tensor(x) @ t).sum(), rng.normal(size=(4, 2)))

    def test_batched_3d_3d(self, rng):
        b = rng.normal(size=(2, 4, 3))
        check_gradient(lambda t: (t @ b).sum(), rng.normal(size=(2, 3, 4)))

    def test_vec_mat(self, rng):
        m = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t @ m).sum(), rng.normal(size=(3,)))

    def test_mat_vec(self, rng):
        v = rng.normal(size=(4,))
        check_gradient(lambda t: (t @ v).sum(), rng.normal(size=(3, 4)))

    def test_vec_vec(self, rng):
        v = rng.normal(size=(4,))
        check_gradient(lambda t: square(t @ v), rng.normal(size=(4,)))

    def test_batched_3d_3d_right(self, rng):
        a = rng.normal(size=(2, 3, 4))
        check_gradient(lambda t: (Tensor(a) @ t).sum(), rng.normal(size=(2, 4, 3)))

    def test_2d_broadcast_against_batch(self, rng):
        # A shared left operand is summed back over the batch axis.
        b = rng.normal(size=(2, 4, 5))
        check_gradient(lambda t: square(t @ b).sum(), rng.normal(size=(3, 4)))


class TestBroadcasting:
    def test_add_broadcast_bias(self, rng):
        x = rng.normal(size=(5, 3))
        check_gradient(lambda t: square(Tensor(x) + t).sum(),
                       rng.normal(size=(3,)))

    def test_mul_broadcast_row(self, rng):
        x = rng.normal(size=(5, 3))
        check_gradient(lambda t: (Tensor(x) * t).sum(),
                       rng.normal(size=(1, 3)))

    def test_sub_broadcast_subtrahend(self, rng):
        x = rng.normal(size=(5, 3))
        check_gradient(lambda t: square(Tensor(x) - t).sum(),
                       rng.normal(size=(5, 1)))

    def test_div_broadcast_denominator(self, rng):
        x = rng.normal(size=(5, 3))
        check_gradient(lambda t: (Tensor(x) / t).sum(),
                       rng.uniform(1.0, 3.0, (3,)))

    def test_unbroadcast_shapes(self):
        grad = np.ones((5, 3))
        assert _unbroadcast(grad, (3,)).shape == (3,)
        assert _unbroadcast(grad, (1, 3)).shape == (1, 3)
        assert _unbroadcast(grad, (5, 3)).shape == (5, 3)
        np.testing.assert_allclose(_unbroadcast(grad, (3,)), [5, 5, 5])


class TestHelpers:
    def test_concatenate_gradient(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        out = nn.concatenate([ta, tb], axis=1)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(ta.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(tb.grad, np.full((2, 2), 2.0))

    def test_where_gradient(self, rng):
        cond = np.array([True, False, True])
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        nn.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 0, 1])
        np.testing.assert_allclose(b.grad, [0, 1, 0])

    def test_concatenate_matches_finite_differences(self, rng):
        other = rng.normal(size=(2, 3))
        w = rng.normal(size=(5, 3))
        check_gradient(
            lambda t: (nn.concatenate([t, Tensor(other)], axis=0) * w).sum(),
            rng.normal(size=(3, 3)))

    def test_where_broadcasts_a_scalar_branch(self, rng):
        cond = np.array([[True, False], [False, True]])
        check_gradient(lambda t: square(nn.where(cond, t, 0.0)).sum(),
                       rng.normal(size=(2, 2)))


class TestGraphMechanics:
    def test_gradient_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_twice_accumulates(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0])

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with nn.no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_nesting_restores(self):
        from repro.nn.autograd import is_grad_enabled
        assert is_grad_enabled()
        with nn.no_grad():
            assert not is_grad_enabled()
            with nn.no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_non_grad_raises(self):
        x = Tensor(np.ones(2))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * 3.0).backward(np.array([1.0, -2.0]))
        np.testing.assert_allclose(x.grad, [3.0, -6.0])

    def test_constants_get_no_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        c = Tensor(np.array([3.0, 4.0]))
        (x * c).sum().backward()
        assert c.grad is None and not c.requires_grad
        np.testing.assert_allclose(x.grad, [3.0, 4.0])

    def test_backward_frees_the_graph(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = (x * 2.0).relu()
        out = hidden.sum()
        out.backward()
        for node in (out, hidden):
            assert node._parents == () and node._backward is None
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_dtype_handling(self):
        # float32 is a first-class precision tier and must be preserved;
        # non-float inputs still promote to the float64 default.
        assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.ones(2, dtype=np.int64)).data.dtype == np.float64
        assert Tensor(np.ones(2, dtype=np.float16)).data.dtype == np.float64

    def test_float32_graph_stays_float32(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        out = ((x * 2.0 + 1.0).relu().sum() / 3.0) - 0.5
        assert out.data.dtype == np.float32
        out.backward()
        assert x.grad.dtype == np.float32

    def test_scalar_fast_paths_match_tensor_ops(self):
        x_data = np.array([1.5, -2.0, 3.0])
        for op in (lambda t, s: t + s, lambda t, s: t - s,
                   lambda t, s: t * s, lambda t, s: t / s):
            for scalar in (3.0, -0.5, 2):
                fast = op(Tensor(x_data.copy()), scalar)
                slow = op(Tensor(x_data.copy()), Tensor(np.float64(scalar)))
                np.testing.assert_array_equal(fast.numpy(), slow.numpy())

    def test_scalar_division_by_zero_propagates_inf(self):
        # The scalar fast path must behave like numpy division, not raise.
        with np.errstate(divide="ignore"):
            out = Tensor(np.array([1.0, -1.0])) / 0
        np.testing.assert_array_equal(out.numpy(), [np.inf, -np.inf])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=8))
def test_logsumexp_matches_numpy(values):
    x = np.array(values)
    t = Tensor(x)
    expected = np.log(np.sum(np.exp(x - x.max()))) + x.max()
    np.testing.assert_allclose(float(t.logsumexp().numpy()), expected, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=8))
def test_log_softmax_is_a_log_distribution(values):
    out = Tensor(np.array([values])).log_softmax(axis=1).numpy()
    assert np.all(out <= 0.0)
    np.testing.assert_allclose(np.exp(out).sum(), 1.0, atol=1e-12)


#: Every kept op, applied to float32 leaves; the fast tier must stay float32
#: through forward and backward.
FLOAT32_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "neg": lambda a, b: -a,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (b * b + 1.0),
    "matmul": lambda a, b: a @ b.T,
    "transpose": lambda a, b: a.T,
    "getitem": lambda a, b: a[np.array([1, 0, 1])],
    "sum": lambda a, b: a.sum(axis=0),
    "mean": lambda a, b: a.mean(axis=1),
    "sqrt": lambda a, b: (a * a + 1.0).sqrt(),
    "relu": lambda a, b: a.relu(),
    "sigmoid": lambda a, b: a.sigmoid(),
    "logsumexp": lambda a, b: a.logsumexp(axis=1),
    "log_softmax": lambda a, b: a.log_softmax(axis=1),
    "concatenate": lambda a, b: nn.concatenate([a, b], axis=1),
    "where": lambda a, b: nn.where(a.data > 0, a, b),
}


@pytest.mark.parametrize("name", sorted(FLOAT32_OPS))
def test_float32_tier_is_kept_by(name):
    gen = np.random.default_rng(5)
    a = Tensor(gen.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(gen.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    out = FLOAT32_OPS[name](a, b)
    assert out.data.dtype == np.float32
    (out * out).sum().backward()
    for leaf in (a, b):
        assert leaf.grad is None or leaf.grad.dtype == np.float32
    assert a.grad is not None
