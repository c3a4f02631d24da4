"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed tape: each op returns a new Tensor holding its value,
its parents, and a closure that routes the upstream gradient to them.
Values are never mutated in place; optimizers rebind ``.data`` to fresh
arrays, so anything already on a tape stays valid.

Forward ops are pure and deterministic. Every op validates that its
output is finite; NaN/Inf anywhere is treated as an error state, not a
value to propagate.
"""

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested op."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _check_finite(arr, op):
    # cheap screen via a float64 sum, exact confirmation before raising
    if not np.isfinite(arr.sum(dtype=np.float64)):
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{op}: produced non-finite values (shape {arr.shape})")


def _as_array(data):
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """N-dimensional float array participating in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        _check_finite(self.data, "tensor")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ShapeError(f"item: tensor has shape {self.shape}, expected a scalar")

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # ---- arithmetic ----

    def __add__(self, other):
        return _binary("add", self, other, lambda a, b: a + b,
                       lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary("sub", self, other, lambda a, b: a - b,
                       lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return _binary("sub", _const(other), self, lambda a, b: a - b,
                       lambda g, a, b: g, lambda g, a, b: -g)

    def __mul__(self, other):
        return _binary("mul", self, other, lambda a, b: a * b,
                       lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary("div", self, other, lambda a, b: a / b,
                       lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))

    def __rtruediv__(self, other):
        return _binary("div", _const(other), self, lambda a, b: a / b,
                       lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        return matmul(self, other)

    # ---- elementwise ----

    def relu(self):
        x = self.data
        out = np.maximum(x, 0.0)
        return _node("relu", out, (self,), lambda g: (g * (x > 0.0),))

    def exp(self):
        with np.errstate(over="ignore"):
            out = np.exp(self.data)
        return _node("exp", out, (self,), lambda g: (g * out,))

    def log(self):
        x = self.data
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(x)
        return _node("log", out, (self,), lambda g: (g / x,))

    # ---- structure ----

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out = self.data.reshape(shape)
        return _node("reshape", out, (self,), lambda g: (g.reshape(old),))

    def transpose(self, axes=None):
        ax = tuple(axes) if axes is not None else tuple(reversed(range(self.ndim)))
        inv = np.argsort(ax)
        out = self.data.transpose(ax)
        return _node("transpose", out, (self,), lambda g: (g.transpose(inv),))

    @property
    def T(self):
        return self.transpose()

    # ---- reductions ----

    def sum(self, axis=None, keepdims=False):
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def back(g):
            return (_expand_reduced(g, shape, axis, keepdims),)

        return _node("sum", np.asarray(out), (self,), back)

    def mean(self, axis=None, keepdims=False):
        out = self.data.mean(axis=axis, keepdims=keepdims)
        shape = self.data.shape
        count = self.data.size if axis is None else np.prod(
            [shape[a] for a in _norm_axes(axis, self.ndim)])

        def back(g):
            return (_expand_reduced(g, shape, axis, keepdims) / count,)

        return _node("mean", np.asarray(out), (self,), back)

    def logsumexp(self, axis=-1):
        """Numerically stable log(sum(exp(x))) along one axis."""
        x = self.data
        m = x.max(axis=axis, keepdims=True)
        shifted = np.exp(x - m)
        total = shifted.sum(axis=axis, keepdims=True)
        out = (np.log(total) + m).squeeze(axis=axis)

        def back(g):
            softmax = shifted / total
            return (np.expand_dims(g, axis) * softmax,)

        return _node("logsumexp", out, (self,), back)

    def l2_normalize(self, axis=-1):
        """Scale slices along `axis` to unit Euclidean norm."""
        x = self.data
        norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
        if (norm == 0.0).any():
            raise ShapeError(f"l2_normalize: zero-norm slice along axis {axis} (shape {x.shape})")
        y = x / norm

        def back(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            return ((g - y * dot) / norm,)

        return _node("l2_normalize", y, (self,), back)

    # ---- autodiff ----

    def backward(self):
        """Populate ``.grad`` on every reachable tensor that requires it."""
        if self.data.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {self.shape}")
        topo = _toposort(self)
        for t in topo:
            t.grad = None
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is None or t.grad is None:
                continue
            contributions = t._backward(t.grad)
            for parent, contrib in zip(t._parents, contributions):
                if parent.requires_grad:
                    _accumulate(parent, contrib)


def _accumulate(t, g):
    t.grad = g if t.grad is None else t.grad + g


def _toposort(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def gradients(loss, params):
    """Backward pass returning one gradient array per parameter.

    Parameters not reachable from the loss get zero gradients. Grad
    buffers are cleared afterwards so consecutive calls never leak
    accumulation across steps.
    """
    loss.backward()
    grads = []
    for p in params:
        if p.grad is None:
            grads.append(np.zeros_like(p.data))
        else:
            grads.append(p.grad.copy())
            p.grad = None
    return grads


def _node(op, data, parents, backward):
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data)
    _check_finite(out.data, op)
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _const(value):
    t = Tensor.__new__(Tensor)
    t.data = _as_array(value)
    t.requires_grad = False
    t.grad = None
    t._parents = ()
    t._backward = None
    return t


def _binary(op, a, b, fwd, da, db):
    at = a if isinstance(a, Tensor) else _const(a)
    bt = b if isinstance(b, Tensor) else _const(b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = fwd(at.data, bt.data)
    ad, bd = at.data, bt.data

    def back(g):
        return (_unbroadcast(da(g, ad, bd), ad.shape),
                _unbroadcast(db(g, ad, bd), bd.shape))

    return _node(op, out, (at, bt), back)


def _unbroadcast(grad, shape):
    """Sum a gradient over the axes numpy broadcast to produce it."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, _norm_axes(axis, len(shape)))
    return np.broadcast_to(g, shape)


# ---- linear algebra ----

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: cannot multiply {a.shape} by {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def back(g):
        return (g @ bd.T, ad.T @ g)

    return _node("matmul", out, (a, b), back)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes differ, {a.shape} vs {b.shape}")
    d = a - b
    return (d * d).mean()


# ---- convolution ----

def _conv_geometry(size, k, stride, padding, op):
    """Output size and (before, after) padding, TensorFlow semantics."""
    if padding == "valid":
        if size < k:
            raise ShapeError(f"{op}: spatial size {size} smaller than kernel {k} with valid padding")
        return (size - k) // stride + 1, 0, 0
    if padding == "same":
        out = -(-size // stride)
        total = max((out - 1) * stride + k - size, 0)
        return out, total // 2, total - total // 2
    raise ValueError(f"{op}: padding must be 'same' or 'valid', got {padding!r}")


def _im2col(xp, kh, kw, stride):
    # xp (N,H,W,C) -> (N, Ho, Wo, kh, kw, C) view, then flattened copy
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]
    n, ho, wo = win.shape[:3]
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * ho * wo, kh * kw * xp.shape[3])
    return np.ascontiguousarray(cols), ho, wo


def _col2im(dcols, n, ho, wo, kh, kw, stride, padded_shape):
    # inverse scatter of _im2col: accumulate patch gradients back
    out = np.zeros(padded_shape, dtype=dcols.dtype)
    dcols = dcols.reshape(n, ho, wo, kh, kw, padded_shape[3])
    for i in range(kh):
        for j in range(kw):
            out[:, i:i + stride * ho:stride, j:j + stride * wo:stride, :] += dcols[:, :, :, i, j, :]
    return out


def conv2d(x: Tensor, w: Tensor, stride=1, padding="valid") -> Tensor:
    """2-D convolution, NHWC input against (kh, kw, C, F) kernel."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: need 4-D input and kernel, got {x.shape} and {w.shape}")
    n, h, wd, c = x.shape
    kh, kw, kc, f = w.shape
    if kc != c:
        raise ShapeError(f"conv2d: input channels {c} != kernel channels {kc} "
                         f"(input {x.shape}, kernel {w.shape})")
    ho, pt, pb = _conv_geometry(h, kh, stride, padding, "conv2d")
    wo, pl, pr = _conv_geometry(wd, kw, stride, padding, "conv2d")
    xp = np.pad(x.data, ((0, 0), (pt, pb), (pl, pr), (0, 0))) if (pt | pb | pl | pr) else x.data
    cols, ho2, wo2 = _im2col(xp, kh, kw, stride)
    assert (ho2, wo2) == (ho, wo)
    wf = w.data.reshape(kh * kw * c, f)
    out = (cols @ wf).reshape(n, ho, wo, f)
    padded_shape = xp.shape

    def back(g):
        gf = g.reshape(n * ho * wo, f)
        dw = (cols.T @ gf).reshape(kh, kw, c, f)
        dxp = _col2im(gf @ wf.T, n, ho, wo, kh, kw, stride, padded_shape)
        dx = dxp[:, pt:padded_shape[1] - pb, pl:padded_shape[2] - pr, :]
        return (dx, dw)

    return _node("conv2d", out, (x, w), back)


def conv2d_transpose(x: Tensor, w: Tensor, stride=1, padding="same") -> Tensor:
    """Transposed 2-D convolution (the adjoint of conv2d).

    Kernel layout is (kh, kw, out_channels, in_channels); with 'same'
    padding the output is exactly ``stride`` times larger spatially.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d_transpose: need 4-D input and kernel, got {x.shape} and {w.shape}")
    n, h, wd, c = x.shape
    kh, kw, f, kc = w.shape
    if kc != c:
        raise ShapeError(f"conv2d_transpose: input channels {c} != kernel channels {kc} "
                         f"(input {x.shape}, kernel {w.shape})")
    if padding == "same":
        oh, ow = h * stride, wd * stride
    else:
        oh, ow = (h - 1) * stride + kh, (wd - 1) * stride + kw
    # geometry of the conv that maps the output back to the input
    ih, pt, pb = _conv_geometry(oh, kh, stride, padding, "conv2d_transpose")
    iw, pl, pr = _conv_geometry(ow, kw, stride, padding, "conv2d_transpose")
    if (ih, iw) != (h, wd):
        raise ShapeError(f"conv2d_transpose: input {x.shape} inconsistent with stride {stride} "
                         f"and padding {padding!r}")
    padded_shape = (n, oh + pt + pb, ow + pl + pr, f)
    wf = w.data.reshape(kh * kw * f, c)
    xf = x.data.reshape(n * h * wd, c)
    scattered = _col2im(xf @ wf.T, n, h, wd, kh, kw, stride, padded_shape)
    out = scattered[:, pt:padded_shape[1] - pb, pl:padded_shape[2] - pr, :]

    def back(g):
        gp = np.pad(g, ((0, 0), (pt, pb), (pl, pr), (0, 0))) if (pt | pb | pl | pr) else g
        gcols, _, _ = _im2col(gp, kh, kw, stride)
        dx = (gcols @ wf).reshape(n, h, wd, c)
        dw = (gcols.T @ xf).reshape(kh, kw, f, c)
        return (dx, dw)

    return _node("conv2d_transpose", out, (x, w), back)

