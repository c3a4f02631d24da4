"""Conv layers run as one fused tape node, bit for bit equal to the
separate conv, bias-add and relu nodes they replace; pooling keeps the
input's dtype in its gradient."""

import numpy as np
import pytest

from gcontrast import tensor as T
from gcontrast.layers import Conv2D, ConvTranspose2D, GlobalAvgPool
from gcontrast.tensor import Tensor


def unfused(layer, x):
    """The three-node reference: conv, broadcast bias add, relu."""
    if isinstance(layer, Conv2D):
        out = T.conv2d(x, layer.w, stride=layer.stride, padding="same") + layer.b
    else:
        out = T.conv2d_transpose(x, layer.w, stride=layer.stride) + layer.b
    return out.relu() if layer.activation == "relu" else out


def output_and_grads(forward, layer, x, upstream):
    xt = Tensor(x, requires_grad=True)
    out = forward(layer, xt)
    (out * Tensor(upstream)).sum().backward()
    grads = [xt.grad] + [p.grad for p in layer.params()]
    for p in layer.params():
        p.grad = None
    return out.data, grads


@pytest.mark.parametrize("param_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ["relu", "linear"])
@pytest.mark.parametrize("layer_cls", [Conv2D, ConvTranspose2D])
def test_fused_layer_matches_unfused_bit_for_bit(layer_cls, activation, param_dtype):
    rng = np.random.default_rng(11)
    layer = layer_cls(rng, 3, 5, kernel=3, stride=2, activation=activation)
    # float64 parameters with a float32 input is the mix a contrastive
    # step sees once SGD has updated the float32 initial weights
    layer.w.data = layer.w.data.astype(param_dtype)
    layer.b.data = rng.normal(scale=0.1, size=layer.b.shape).astype(param_dtype)
    x = rng.uniform(0, 1, size=(4, 6, 6, 3)).astype(np.float32)
    out_shape = unfused(layer, Tensor(x)).shape
    upstream = rng.normal(size=out_shape).astype(np.float32)

    got, got_grads = output_and_grads(lambda lyr, xt: lyr(xt), layer, x, upstream)
    want, want_grads = output_and_grads(unfused, layer, x, upstream)
    assert got.dtype == want.dtype == np.result_type(np.float32, param_dtype)
    assert np.array_equal(got, want)
    assert (got > 0).any() and (activation == "linear" or (got == 0).any())
    for g, w in zip(got_grads, want_grads):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_global_avg_pool_gradient_keeps_float32():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 5, 4)).astype(np.float32),
               requires_grad=True)
    GlobalAvgPool()(x).sum().backward()
    assert x.grad.dtype == np.float32
    assert np.array_equal(x.grad, np.full(x.shape, 1 / 15, dtype=np.float32))
