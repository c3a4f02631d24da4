"""Parameterized layers composed into sequential models.

Initialization is He-uniform ahead of relu activations and
Glorot-uniform otherwise, drawn from a caller-provided RNG so model
construction is a pure function of (spec, seed). Conv layers pad
"same".
"""

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _fan_limit(fan_in, fan_out, activation):
    if activation == "relu":
        return np.sqrt(6.0 / fan_in)
    return np.sqrt(6.0 / (fan_in + fan_out))


def _init(rng, shape, fan_in, fan_out, activation):
    limit = _fan_limit(fan_in, fan_out, activation)
    return Tensor(rng.uniform(-limit, limit, size=shape).astype(np.float32), requires_grad=True)


class Layer:
    def params(self):
        return []

    def __call__(self, x):
        raise NotImplementedError


class Conv2D(Layer):
    def __init__(self, rng, in_channels, filters, kernel=3, stride=1, activation="relu"):
        fan_in = kernel * kernel * in_channels
        fan_out = kernel * kernel * filters
        self.w = _init(rng, (kernel, kernel, in_channels, filters), fan_in, fan_out, activation)
        self.b = Tensor(np.zeros(filters, dtype=np.float32), requires_grad=True)
        self.stride = stride
        self.activation = activation

    def params(self):
        return [self.w, self.b]

    def __call__(self, x):
        return T.conv2d(x, self.w, stride=self.stride, padding="same",
                        bias=self.b, relu=self.activation == "relu")


class ConvTranspose2D(Layer):
    def __init__(self, rng, in_channels, filters, kernel=3, stride=1, activation="relu"):
        fan_in = kernel * kernel * in_channels
        fan_out = kernel * kernel * filters
        self.w = _init(rng, (kernel, kernel, filters, in_channels), fan_in, fan_out, activation)
        self.b = Tensor(np.zeros(filters, dtype=np.float32), requires_grad=True)
        self.stride = stride
        self.activation = activation

    def params(self):
        return [self.w, self.b]

    def __call__(self, x):
        return T.conv2d_transpose(x, self.w, stride=self.stride, bias=self.b,
                                  relu=self.activation == "relu")


def conv_stack(rng, channels, blocks, layer=Conv2D, last_activation="relu"):
    """One `layer` per (filters, kernel, stride) block, taking `channels`
    input channels; relu after each block but the last."""
    stack = []
    for filters, kernel, stride in blocks:
        activation = "relu" if len(stack) < len(blocks) - 1 else last_activation
        stack.append(layer(rng, channels, filters, kernel=kernel, stride=stride,
                           activation=activation))
        channels = filters
    return stack


class Dense(Layer):
    def __init__(self, rng, in_dim, units, activation="linear"):
        self.w = _init(rng, (in_dim, units), in_dim, units, activation)
        self.b = Tensor(np.zeros(units, dtype=np.float32), requires_grad=True)
        self.activation = activation

    def params(self):
        return [self.w, self.b]

    def __call__(self, x):
        out = x @ self.w + self.b
        return out.relu() if self.activation == "relu" else out


class GlobalAvgPool(Layer):
    def __call__(self, x):
        return x.mean(axis=(1, 2))


class Sequential(Layer):
    def __init__(self, layers):
        self.layers = list(layers)

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def __call__(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


def load_parameters(model, arrays):
    params = model.params()
    if len(params) != len(arrays):
        raise ValueError(f"expected {len(params)} parameter arrays, got {len(arrays)}")
    for p, arr in zip(params, arrays):
        arr = np.asarray(arr, dtype=p.data.dtype)
        if arr.shape != p.data.shape:
            raise ValueError(f"parameter shape {p.data.shape} != stored shape {arr.shape}")
        p.data = arr.copy()
