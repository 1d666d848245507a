"""Numerical gradient checks for every differentiable layer.

These are the load-bearing tests of the whole reproduction: if backprop is
wrong here, joint training (Sec. III-C) silently trains the wrong thing.
"""

import numpy as np
import pytest

from repro import nn

RNG = np.random.default_rng(0)


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_input_grad(module, x, atol=1e-6):
    """Compare analytic input gradient against central differences."""
    out = module(x)
    upstream = RNG.standard_normal(out.shape)
    module.zero_grad()
    analytic = module.backward(upstream)

    def loss():
        return float(np.sum(module(x) * upstream))

    numeric = numerical_grad(loss, x)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


def check_param_grads(module, x, atol=1e-6):
    """Compare analytic parameter gradients against central differences."""
    out = module(x)
    upstream = RNG.standard_normal(out.shape)
    module.zero_grad()
    module(x)
    module.backward(upstream)
    analytic = {name: p.grad.copy() for name, p in module.named_parameters()}

    def loss():
        return float(np.sum(module(x) * upstream))

    for name, param in module.named_parameters():
        numeric = numerical_grad(loss, param.data)
        np.testing.assert_allclose(
            analytic[name], numeric, atol=atol, rtol=1e-4, err_msg=name
        )


class TestDense:
    def test_linear_input_grad(self):
        layer = nn.Linear(5, 4, RNG)
        check_input_grad(layer, RNG.standard_normal((3, 5)))

    def test_linear_param_grad(self):
        layer = nn.Linear(4, 3, RNG)
        check_param_grads(layer, RNG.standard_normal((2, 4)))

    def test_linear_3d_input(self):
        layer = nn.Linear(4, 6, RNG)
        check_input_grad(layer, RNG.standard_normal((2, 3, 4)))
        check_param_grads(layer, RNG.standard_normal((2, 3, 4)))

    def test_flatten_roundtrip(self):
        layer = nn.Flatten()
        x = RNG.standard_normal((2, 3, 4))
        out = layer(x)
        assert out.shape == (2, 12)
        assert layer.backward(out).shape == x.shape


class TestActivations:
    @pytest.mark.parametrize("cls", [nn.ReLU, nn.GELU, nn.Sigmoid])
    def test_input_grad(self, cls):
        layer = cls()
        # Offset away from ReLU kink for numerical stability.
        x = RNG.standard_normal((3, 5)) + 0.1 * np.sign(RNG.standard_normal((3, 5)))
        x[np.abs(x) < 1e-3] = 0.5
        check_input_grad(layer, x)


class TestConv:
    def test_conv2d_input_grad(self):
        layer = nn.Conv2d(2, 3, kernel_size=3, rng=RNG, stride=1, padding=1)
        check_input_grad(layer, RNG.standard_normal((2, 2, 5, 5)))

    def test_conv2d_param_grad(self):
        layer = nn.Conv2d(2, 2, kernel_size=3, rng=RNG, stride=2, padding=1)
        check_param_grads(layer, RNG.standard_normal((1, 2, 6, 6)))

    def test_depthwise_input_grad(self):
        layer = nn.DepthwiseConv2d(3, kernel_size=3, rng=RNG, padding=1)
        check_input_grad(layer, RNG.standard_normal((2, 3, 5, 5)))

    def test_depthwise_param_grad(self):
        layer = nn.DepthwiseConv2d(2, kernel_size=3, rng=RNG, padding=1)
        check_param_grads(layer, RNG.standard_normal((1, 2, 5, 5)))

    def test_maxpool_grad(self):
        layer = nn.MaxPool2d(2)
        x = RNG.standard_normal((2, 2, 4, 4))
        # Perturb to make the max unique so the subgradient is well defined.
        x += np.linspace(0, 0.01, x.size).reshape(x.shape)
        check_input_grad(layer, x)

    def test_upsample_grad(self):
        layer = nn.UpsampleNearest2d(2)
        check_input_grad(layer, RNG.standard_normal((1, 2, 3, 3)))

    def test_conv_output_shape(self):
        layer = nn.Conv2d(1, 4, kernel_size=5, rng=RNG, stride=2, padding=2)
        out = layer(np.zeros((1, 1, 16, 16)))
        assert out.shape == (1, 4, 8, 8)


class TestNorm:
    def test_layernorm_grads(self):
        layer = nn.LayerNorm(6)
        check_input_grad(layer, RNG.standard_normal((2, 3, 6)), atol=1e-5)
        check_param_grads(layer, RNG.standard_normal((2, 3, 6)), atol=1e-5)

    def test_batchnorm_train_grads(self):
        layer = nn.BatchNorm2d(2)
        x = RNG.standard_normal((3, 2, 3, 3))
        out = layer(x)
        upstream = RNG.standard_normal(out.shape)
        layer.zero_grad()
        layer(x)
        analytic = layer.backward(upstream)

        def loss():
            return float(np.sum(layer(x) * upstream))

        # Running stats update each call, but the normalization itself uses
        # batch stats, so the numeric gradient of the *function* is valid.
        numeric = numerical_grad(loss, x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5, rtol=1e-4)

    def test_batchnorm_eval_uses_running_stats(self):
        layer = nn.BatchNorm2d(2)
        x = RNG.standard_normal((4, 2, 3, 3)) * 3 + 1
        for _ in range(20):
            layer(x)
        layer.eval()
        out = layer(x)
        # Normalized output should be near zero-mean/unit-var per channel.
        assert abs(out.mean()) < 0.5


class TestAttention:
    def test_mha_input_grad(self):
        layer = nn.MultiHeadAttention(dim=8, heads=2, rng=RNG)
        check_input_grad(layer, RNG.standard_normal((2, 4, 8)), atol=1e-5)

    def test_mha_param_grad(self):
        layer = nn.MultiHeadAttention(dim=4, heads=2, rng=RNG)
        check_param_grads(layer, RNG.standard_normal((1, 3, 4)), atol=1e-5)

    def test_mha_key_mask_blocks_attention(self):
        layer = nn.MultiHeadAttention(dim=8, heads=2, rng=RNG)
        x = RNG.standard_normal((1, 5, 8))
        mask = np.array([[True, True, True, False, False]])
        out_masked = layer(x, key_mask=mask)
        x2 = x.copy()
        x2[0, 3:] = 100.0  # change masked tokens only
        out_masked2 = layer(x2, key_mask=mask)
        # Valid queries must be unaffected by masked keys' values... note the
        # masked tokens still produce query rows, so compare valid rows only.
        np.testing.assert_allclose(out_masked[0, :3], out_masked2[0, :3], atol=1e-8)

    def test_transformer_block_grads(self):
        block = nn.TransformerBlock(dim=8, heads=2, mlp_ratio=2.0, rng=RNG)
        check_input_grad(block, RNG.standard_normal((1, 3, 8)), atol=1e-5)

    def test_mha_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(dim=7, heads=2, rng=RNG)


class TestLosses:
    def test_cross_entropy_grad(self):
        loss_fn = nn.CrossEntropyLoss()
        logits = RNG.standard_normal((2, 3, 4))
        target = RNG.integers(0, 4, size=(2, 3))
        loss_fn.forward(logits, target)
        analytic = loss_fn.backward()

        def loss():
            return loss_fn.forward(logits, target)

        numeric = numerical_grad(loss, logits)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_cross_entropy_mask_zeroes_grad(self):
        loss_fn = nn.CrossEntropyLoss()
        logits = RNG.standard_normal((1, 4, 3))
        target = RNG.integers(0, 3, size=(1, 4))
        mask = np.array([[True, False, True, False]])
        loss_fn.forward(logits, target, mask=mask)
        grad = loss_fn.backward()
        assert np.all(grad[0, 1] == 0) and np.all(grad[0, 3] == 0)
        assert np.any(grad[0, 0] != 0)

    def test_mse_grad(self):
        loss_fn = nn.MSELoss()
        pred = RNG.standard_normal((3, 4))
        target = RNG.standard_normal((3, 4))
        loss_fn.forward(pred, target)
        analytic = loss_fn.backward()

        def loss():
            return loss_fn.forward(pred, target)

        numeric = numerical_grad(loss, pred)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_mse_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            nn.MSELoss().forward(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSequentialAndDropout:
    def test_sequential_chain_grad(self):
        model = nn.Sequential(
            nn.Linear(4, 8, RNG), nn.ReLU(), nn.Linear(8, 2, RNG)
        )
        x = RNG.standard_normal((3, 4)) + 0.3
        check_input_grad(model, x)
