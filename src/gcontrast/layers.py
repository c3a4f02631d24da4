"""Parameterized layers composed into sequential models.

Initialization is He-uniform ahead of relu activations and
Glorot-uniform otherwise, drawn from a caller-provided RNG so model
construction is a pure function of (spec, seed). Conv layers pad
"same".
"""

import numpy as np

from . import tensor as T
from .data import DataFormatError
from .tensor import Tensor


class Layer:
    def params(self):
        return []

    def __call__(self, x):
        raise NotImplementedError


class _Weighted(Layer):
    """A kernel of `shape` mapping `window` positions of `inputs` channels
    to `units`, a zero bias over the units, and the activation."""

    def __init__(self, rng, shape, inputs, units, activation, window=1):
        fan_in, fan_out = window * inputs, window * units
        limit = np.sqrt(6.0 / (fan_in if activation == "relu" else fan_in + fan_out))
        self.w = Tensor(rng.uniform(-limit, limit, size=shape).astype(np.float32), requires_grad=True)
        self.b = Tensor(np.zeros(units, dtype=np.float32), requires_grad=True)
        self.activation = activation

    def params(self):
        return [self.w, self.b]


class Conv2D(_Weighted):
    def __init__(self, rng, in_channels, filters, kernel=3, stride=1, activation="relu"):
        super().__init__(rng, (kernel, kernel, in_channels, filters), in_channels, filters,
                         activation, window=kernel * kernel)
        self.stride = stride

    def __call__(self, x):
        return T.conv2d(x, self.w, stride=self.stride, bias=self.b, relu=self.activation == "relu")


class ConvTranspose2D(_Weighted):
    def __init__(self, rng, in_channels, filters, kernel=3, stride=1, activation="relu"):
        super().__init__(rng, (kernel, kernel, filters, in_channels), in_channels, filters,
                         activation, window=kernel * kernel)
        self.stride = stride

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


class Dense(_Weighted):
    def __init__(self, rng, in_dim, units, activation="linear"):
        super().__init__(rng, (in_dim, units), in_dim, units, activation)

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


def load_parameters(model, arrays, source):
    params = model.params()
    if len(params) != len(arrays):
        raise DataFormatError(f"{source}: {len(arrays)} parameter arrays, expected {len(params)}")
    for p, arr in zip(params, arrays):
        arr = np.asarray(arr, dtype=p.data.dtype)
        if arr.shape != p.data.shape:
            raise DataFormatError(f"{source}: stored shape {arr.shape} != model's {p.data.shape}")
        p.data = arr.copy()
