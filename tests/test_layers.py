"""Conv layers run as one fused tape node, bit for bit equal to the
separate conv, bias-add and relu nodes they replace; pooling keeps the
input's dtype in its gradient; the conv networks built through
`conv_stack` equal the layer-by-layer construction they replace."""

from pathlib import Path

import numpy as np
import pytest

from gcontrast import tensor as T
from gcontrast.config import load_config
from gcontrast.contrastive import EncoderSpec, build_encoder
from gcontrast.dae import AutoencoderSpec, build_autoencoder
from gcontrast.layers import Conv2D, ConvTranspose2D, GlobalAvgPool
from gcontrast.seeds import derive_seed
from gcontrast.tensor import Tensor

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def _config_specs(name):
    cfg = load_config(str(CONFIGS / name))
    return (AutoencoderSpec(cfg.dae.encoder_blocks, cfg.dataset.image_size),
            EncoderSpec(cfg.contrastive.encoder_blocks))


CONFIG_SPECS = {name: _config_specs(f"{name}.ini") for name in ("desk", "tiny")}
# one block: the decoder is a single linear transposed conv
DAE_SPECS = {**{name: specs[0] for name, specs in CONFIG_SPECS.items()},
             "one-block": AutoencoderSpec(((4, 5, 1),), image_size=8, channels=3)}
ENCODER_SPECS = {name: specs[1] for name, specs in CONFIG_SPECS.items()}


def layer_by_layer_autoencoder(spec, seed):
    """Encoder convs first to last, then their transposes last to first,
    each constructed explicitly from one RNG in that order."""
    rng = np.random.default_rng(derive_seed(seed, "autoencoder-init"))
    blocks = spec.encoder_layers
    ins = [spec.channels] + [b[0] for b in blocks[:-1]]
    encoder = [Conv2D(rng, ins[i], blocks[i][0], kernel=blocks[i][1], stride=blocks[i][2],
                      activation="relu") for i in range(len(blocks))]
    decoder = [ConvTranspose2D(rng, blocks[i][0], ins[i], kernel=blocks[i][1],
                               stride=blocks[i][2], activation="relu" if i else "linear")
               for i in reversed(range(len(blocks)))]
    return encoder, decoder


def layer_by_layer_encoder(spec, seed):
    rng = np.random.default_rng(derive_seed(seed, "encoder-init"))
    ins = [spec.channels] + [b[0] for b in spec.blocks[:-1]]
    return [Conv2D(rng, c, f, kernel=k, stride=s, activation="relu")
            for c, (f, k, s) in zip(ins, spec.blocks)]


def assert_same_layers(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert (g.stride, g.activation, g.w.shape) == (w.stride, w.activation, w.w.shape)
        for p, q in zip(g.params(), w.params()):
            assert p.data.dtype == q.data.dtype
            assert np.array_equal(p.data, q.data)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(DAE_SPECS))
def test_autoencoder_equals_its_layer_by_layer_construction(name, seed):
    model = build_autoencoder(DAE_SPECS[name], seed)
    encoder, decoder = layer_by_layer_autoencoder(DAE_SPECS[name], seed)
    assert_same_layers(model.encoder.layers, encoder)
    assert_same_layers(model.decoder.layers, decoder)
    assert model.decoder.layers[-1].w.shape[2] == DAE_SPECS[name].channels


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(ENCODER_SPECS))
def test_contrastive_encoder_equals_its_layer_by_layer_construction(name, seed):
    layers = build_encoder(ENCODER_SPECS[name], seed).layers
    assert isinstance(layers[-1], GlobalAvgPool)
    assert_same_layers(layers[:-1], layer_by_layer_encoder(ENCODER_SPECS[name], seed))
