"""Module mechanics: parameter tracking, masking, MLP behavior."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn


@pytest.fixture
def gen():
    return np.random.default_rng(0)


class TestLinear:
    def test_forward_shape(self, gen):
        layer = nn.Linear(4, 3, gen)
        out = layer(nn.Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_batched_3d_input(self, gen):
        layer = nn.Linear(4, 3, gen)
        out = layer(nn.Tensor(np.ones((2, 5, 4))))
        assert out.shape == (2, 5, 3)

    def test_no_bias(self, gen):
        layer = nn.Linear(4, 3, gen, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_parameters_tracked(self, gen):
        layer = nn.Linear(4, 3, gen)
        assert len(layer.parameters()) == 2

    def test_fused_affine_matches_the_composed_ops(self, gen):
        # 2-D inputs take the one-node fused path, 1-D inputs the composed
        # x @ W + b; both give the same values and gradients.
        layer = nn.Linear(4, 3, gen)
        layer.bias.data[:] = gen.normal(size=3)
        x = gen.normal(size=(5, 4))
        fused_x = nn.Tensor(x.copy(), requires_grad=True)
        fused = layer(fused_x)
        (fused * fused).sum().backward()
        fused_grads = [layer.weight.grad, layer.bias.grad, fused_x.grad]
        layer.zero_grad()
        rows = [nn.Tensor(row.copy(), requires_grad=True) for row in x]
        composed = [layer(row) for row in rows]
        sum((out * out).sum() for out in composed).backward()
        np.testing.assert_allclose(fused.numpy(),
                                   np.stack([out.numpy() for out in composed]))
        np.testing.assert_allclose(fused_grads[0], layer.weight.grad)
        np.testing.assert_allclose(fused_grads[1], layer.bias.grad)
        np.testing.assert_allclose(fused_grads[2],
                                   np.stack([row.grad for row in rows]))


class TestMaskedLinear:
    def test_mask_blocks_connection(self, gen):
        mask = np.zeros((3, 2))
        mask[0, :] = 1.0  # only input 0 connects
        layer = nn.MaskedLinear(3, 2, gen, mask)
        x1 = np.array([[1.0, 0.0, 0.0]])
        x2 = np.array([[1.0, 9.0, -7.0]])
        out1 = layer(nn.Tensor(x1)).numpy()
        out2 = layer(nn.Tensor(x2)).numpy()
        np.testing.assert_allclose(out1, out2)

    def test_mask_shape_validation(self, gen):
        with pytest.raises(ValueError):
            nn.MaskedLinear(3, 2, gen, np.ones((2, 3)))

    def test_mask_is_not_a_parameter(self, gen):
        layer = nn.MaskedLinear(3, 2, gen, np.ones((3, 2)))
        assert len(layer.parameters()) == 2
        assert sorted(layer.state_dict()) == ["bias", "weight"]

    def test_masked_gradient_stays_masked(self, gen):
        mask = np.zeros((3, 2))
        mask[0, :] = 1.0
        layer = nn.MaskedLinear(3, 2, gen, mask)
        out = layer(nn.Tensor(np.ones((4, 3))))
        out.sum().backward()
        # Gradient through a masked weight is zero.
        assert np.all(layer.weight.grad[1:, :] == 0)


class TestModule:
    def test_nested_parameters(self, gen):
        mlp = nn.MLP([4, 8, 2], gen)
        assert len(mlp.parameters()) == 4  # 2 layers × (W, b)

    def test_state_dict_roundtrip(self, gen):
        mlp = nn.MLP([3, 5, 2], gen)
        state = mlp.state_dict()
        mlp2 = nn.MLP([3, 5, 2], np.random.default_rng(99))
        mlp2.load_state_dict(state)
        x = np.random.default_rng(1).normal(size=(4, 3))
        np.testing.assert_allclose(mlp(nn.Tensor(x)).numpy(),
                                   mlp2(nn.Tensor(x)).numpy())

    def test_zero_grad_clears(self, gen):
        mlp = nn.MLP([3, 2], gen)
        out = mlp(nn.Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert mlp.layers[0].weight.grad is not None
        mlp.zero_grad()
        assert mlp.layers[0].weight.grad is None

    def test_state_dict_keys_name_the_submodule(self, gen):
        mlp = nn.MLP([3, 5, 2], gen)
        assert sorted(mlp.state_dict()) == [
            "layer0.bias", "layer0.weight", "layer1.bias", "layer1.weight"]

    def test_to_casts_parameters_and_gradients(self, gen):
        mlp = nn.MLP([3, 4, 2], gen)
        mlp(nn.Tensor(np.ones((2, 3)))).sum().backward()
        assert mlp.to(np.float32) is mlp
        for param in mlp.parameters():
            assert param.data.dtype == np.float32
            assert param.grad.dtype == np.float32
        out = mlp(nn.Tensor(np.ones((2, 3), dtype=np.float32)))
        assert out.data.dtype == np.float32


class TestMLP:
    def test_needs_two_sizes(self, gen):
        with pytest.raises(ValueError):
            nn.MLP([3], gen)

    def test_forward_matches_manual(self, gen):
        mlp = nn.MLP([3, 5, 2], gen, output_activation="sigmoid")
        x = np.random.default_rng(2).normal(size=(4, 3))
        (w0, b0), (w1, b1) = [(layer.weight.data, layer.bias.data)
                              for layer in mlp.layers]
        hidden = np.maximum(x @ w0 + b0, 0.0)
        expected = 1.0 / (1.0 + np.exp(-(hidden @ w1 + b1)))
        np.testing.assert_allclose(mlp(nn.Tensor(x)).numpy(), expected,
                                   rtol=1e-12)

    def test_output_activation_sigmoid_bounds(self, gen):
        mlp = nn.MLP([3, 4, 1], gen, output_activation="sigmoid")
        out = mlp(nn.Tensor(np.random.default_rng(0).normal(size=(10, 3))))
        assert np.all(out.numpy() > 0) and np.all(out.numpy() < 1)

    def test_unknown_activation(self, gen):
        mlp = nn.MLP([3, 4, 2], gen, output_activation="bogus")
        with pytest.raises(ValueError):
            mlp(nn.Tensor(np.ones((1, 3))))
