"""Optimizers: convergence on convex problems, state handling, clipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.autograd import Tensor


def quadratic_steps(optimizer_factory, steps: int = 200) -> float:
    x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    optimizer = optimizer_factory([x])
    for _ in range(steps):
        loss = (x * x).sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return float((x.data ** 2).sum())


class TestAdam:
    def test_converges_on_quadratic(self):
        assert quadratic_steps(lambda p: nn.Adam(p, lr=0.1), steps=400) < 1e-6

    def test_bias_correction_first_step(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = nn.Adam([x], lr=0.1)
        (x * 2.0).sum().backward()
        opt.step()
        # First Adam step magnitude ≈ lr regardless of gradient scale.
        np.testing.assert_allclose(x.data, [0.9], atol=1e-6)

    def test_only_requires_grad_params(self):
        frozen = Tensor(np.array([1.0]))
        live = Tensor(np.array([1.0]), requires_grad=True)
        opt = nn.Adam([frozen, live], lr=0.1)
        assert len(opt.params) == 1

    def test_skips_missing_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        nn.Adam([x], lr=0.1).step()  # no grad yet: must not crash
        np.testing.assert_allclose(x.data, [1.0])

    def test_zero_gradient_leaves_parameters_in_place(self):
        # Plain Adam applies no decay: a zero gradient moves nothing, in the
        # vectorized update and in the per-parameter loop alike.
        fused = Tensor(np.array([2.0, -1.5]), requires_grad=True)
        loop = Tensor(np.array([2.0, -1.5]), requires_grad=True)
        idle = Tensor(np.array([7.0]), requires_grad=True)
        fused_opt = nn.Adam([fused], lr=0.01)
        loop_opt = nn.Adam([loop, idle], lr=0.01)
        for _ in range(3):
            fused.grad, loop.grad = np.zeros(2), np.zeros(2)
            fused_opt.step()
            loop_opt.step()
        np.testing.assert_array_equal(fused.data, [2.0, -1.5])
        np.testing.assert_array_equal(loop.data, [2.0, -1.5])

    def test_partial_gradients_match_the_fused_update(self):
        # With a gradient missing the step falls back to a per-parameter
        # loop; the parameters that have one move exactly as in the
        # vectorized update.
        grads = [np.array([0.5, -2.0]), np.array([[1.0, 3.0]])]
        fused = [Tensor(np.array([1.0, 2.0]), requires_grad=True),
                 Tensor(np.array([[-1.0, 0.5]]), requires_grad=True)]
        loop = [Tensor(p.data.copy(), requires_grad=True) for p in fused]
        idle = Tensor(np.array([7.0]), requires_grad=True)
        fused_opt = nn.Adam(fused, lr=0.05)
        loop_opt = nn.Adam(loop + [idle], lr=0.05)
        for _ in range(3):
            for param, other, grad in zip(fused, loop, grads):
                param.grad, other.grad = grad.copy(), grad.copy()
            fused_opt.step()
            loop_opt.step()
        for param, other in zip(fused, loop):
            np.testing.assert_allclose(other.data, param.data, rtol=1e-14)
        np.testing.assert_array_equal(idle.data, [7.0])

    def test_zero_grad_clears_every_parameter(self):
        params = [Tensor(np.ones(2), requires_grad=True),
                  Tensor(np.ones((2, 2)), requires_grad=True)]
        opt = nn.Adam(params)
        (params[0].sum() + params[1].sum()).backward()
        opt.zero_grad()
        assert [p.grad for p in params] == [None, None]

    def test_grad_clip_matches_clip_grad_norm(self):
        clipped = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        manual = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        opt_clipped = nn.Adam([clipped], lr=0.1)
        opt_manual = nn.Adam([manual], lr=0.1)
        for _ in range(3):
            clipped.grad = np.array([3.0, 4.0])
            manual.grad = np.array([3.0, 4.0])
            opt_clipped.step(grad_clip=1.0)
            nn.clip_grad_norm([manual], max_norm=1.0)
            opt_manual.step()
        np.testing.assert_allclose(clipped.data, manual.data, rtol=1e-14)

    def test_reassigned_data_is_updated(self):
        # load_state_dict replaces .data; the next step must move the new
        # array, not the optimizer's stale flat buffer.
        mlp = nn.MLP([2, 3, 1], np.random.default_rng(0))
        state = {k: v + 1.0 for k, v in mlp.state_dict().items()}
        opt = nn.Adam(mlp.parameters(), lr=0.1)
        mlp.load_state_dict(state)
        mlp(Tensor(np.ones((4, 2)))).sum().backward()
        opt.step()
        for key, value in mlp.state_dict().items():
            assert not np.array_equal(value, state[key])
            np.testing.assert_allclose(value, state[key], atol=0.1 + 1e-12)

    def test_float32_parameters_train_in_float32(self):
        x = Tensor(np.array([5.0, -3.0], dtype=np.float32), requires_grad=True)
        opt = nn.Adam([x], lr=0.1)
        for _ in range(5):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        assert x.data.dtype == np.float32
        assert np.all(np.abs(x.data) < [5.0, 3.0])


class TestClipGradNorm:
    def test_clips_large(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x.grad = np.array([3.0, 4.0, 0.0])
        norm = nn.clip_grad_norm([x], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(np.linalg.norm(x.grad), 1.0, atol=1e-9)

    def test_leaves_small(self):
        x = Tensor(np.zeros(2), requires_grad=True)
        x.grad = np.array([0.3, 0.4])
        nn.clip_grad_norm([x], max_norm=1.0)
        np.testing.assert_allclose(x.grad, [0.3, 0.4])

    def test_handles_none_grad(self):
        x = Tensor(np.zeros(2), requires_grad=True)
        assert nn.clip_grad_norm([x], max_norm=1.0) == 0.0


class TestTraining:
    def test_mlp_learns_xor_ish(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 2))
        y = ((x[:, 0] * x[:, 1]) > 0).astype(np.float64).reshape(-1, 1)
        mlp = nn.MLP([2, 16, 1], rng, output_activation="sigmoid")
        opt = nn.Adam(mlp.parameters(), lr=0.02)
        first = None
        for _ in range(300):
            pred = mlp(nn.Tensor(x))
            loss = nn.mse_loss(pred, y)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.5
