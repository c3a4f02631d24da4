"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed tape: each op returns a new Tensor holding its value,
its parents, and a closure that routes the upstream gradient to them.
Values are never mutated in place; optimizers rebind ``.data`` to fresh
arrays, so anything already on a tape stays valid.

Backward consumes the graph, once: each op node frees its saved arrays
as soon as its gradient is passed on, so a step holds one tape at a
time. Leaves keep their ``.grad``; a second backward through a consumed
node raises.

Forward ops are pure and deterministic. Every op validates that its
output is finite: NaN/Inf is an error, not a value to propagate. An
operand's gradient is computed only when the operand requires one.
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
    # cheap screen via a sum in the array's own dtype: NaN/Inf always
    # reach it, an overflow of finite values is only a false alarm, and
    # the exact check confirms before raising
    with np.errstate(over="ignore", invalid="ignore"):
        screen = arr.sum()
    if not np.isfinite(screen):
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

    def __mul__(self, other):
        return _binary("mul", self, other, lambda a, b: a * b,
                       lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    # ---- elementwise ----

    def relu(self):
        x = self.data
        out = np.maximum(x, 0.0)
        return _node("relu", out, (self,), lambda g: (g * (x > 0.0),))

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
        # a Python int, so the gradient keeps g's dtype under NumPy 2 promotion
        count = self.data.size if axis is None else int(np.prod(
            [shape[a] for a in _norm_axes(axis, self.ndim)]))

        def back(g):
            return (_expand_reduced(g, shape, axis, keepdims) / count,)

        return _node("mean", np.asarray(out), (self,), back)

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
        """Populate ``.grad`` on every reachable leaf that requires it.

        Each op node drops its closure, parents and gradient, and with
        them its saved arrays, as soon as it has passed its gradient on.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {self.shape}")
        topo = _toposort(self)
        for t in topo:
            t.grad = None
        self.grad = np.ones_like(self.data)
        while topo:
            t = topo.pop()
            if t._backward is None:
                continue
            if t.grad is not None:
                for parent, contrib in zip(t._parents, t._backward(t.grad)):
                    if parent.requires_grad:
                        _accumulate(parent, contrib)
            t.grad, t._parents, t._backward = None, (), _consumed


def _consumed(g):
    raise RuntimeError("backward: graph already consumed by an earlier backward pass; "
                       "run the forward pass again")


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
    data = np.asarray(data)
    _check_finite(data, op)
    return _record(data, parents, backward)


def _record(data, parents, backward):
    """Tape node for an already screened value."""
    out = Tensor.__new__(Tensor)
    out.data = data
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


def _binary(op, a, b, fwd, da, db):
    at = a if isinstance(a, Tensor) else Tensor(a)
    bt = b if isinstance(b, Tensor) else Tensor(b)
    with np.errstate(invalid="ignore", over="ignore"):
        out = fwd(at.data, bt.data)
    ad, bd = at.data, bt.data

    def back(g):
        return (_unbroadcast(da(g, ad, bd), ad.shape) if at.requires_grad else None,
                _unbroadcast(db(g, ad, bd), bd.shape) if bt.requires_grad else None)

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
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return _node("matmul", out, (a, b), back)


def _cross_entropy_node(op, logits, targets, parent, to_parent):
    """Row-mean softmax cross-entropy of (B, K) `logits` against B targets:
    the stable row log-sum-exp less the target logit. `to_parent` maps the
    logits gradient, (g/B)·softmax less g/B at each target, to `parent`."""
    rows = np.arange(len(logits))
    m = logits.max(axis=1, keepdims=True)
    shifted = np.exp(logits - m)
    total = shifted.sum(axis=1, keepdims=True)
    loss = ((np.log(total) + m).squeeze(axis=1) - logits[rows, targets]).mean()

    def back(g):
        gm = g / len(rows)
        d = gm * (shifted / total)
        d[rows, targets] -= gm
        return (to_parent(d),)

    return _node(op, loss, (parent,), back)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean softmax cross-entropy of (B, K) logits against B class indices."""
    return _cross_entropy_node("cross_entropy", logits.data, targets, logits, lambda d: d)


def self_similarity_cross_entropy(z: Tensor, targets, scale) -> Tensor:
    """cross_entropy over the rows of (z @ z.T) * scale, each row's own
    entry masked out by adding -1e9; `scale`'s dtype joins the promotion."""
    zd = z.data
    sims = (zd @ zd.T) * scale
    np.fill_diagonal(sims, sims.diagonal() + -1e9)

    def to_z(ds):
        dp = ds * scale
        return dp @ zd + (zd.T @ dp).T

    return _cross_entropy_node("self_similarity_cross_entropy", sims, targets, z, to_z)


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


def _im2col(x, kh, kw, stride, pt, pb, pl, pr):
    # x (N,H,W,C) zero-padded by (pt, pb, pl, pr) -> (N, Ho, Wo, kh, kw, C)
    # view, then flattened copy
    if pt | pb | pl | pr:
        n, h, w, c = x.shape
        xp = np.zeros((n, pt + h + pb, pl + w + pr, c), dtype=x.dtype)
        xp[:, pt:pt + h, pl:pl + w] = x
        x = xp
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    n, ho, wo = win.shape[:3]
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * ho * wo, kh * kw * x.shape[3])
    return np.ascontiguousarray(cols), ho, wo


def _col2im(dcols, n, ho, wo, kh, kw, stride, pt, pl, shape):
    """Adjoint of _im2col: patch rows scattered onto the padded input,
    cropped to `shape` (n, H, W, C) at offset (pt, pl).

    Taps (s*qi + pi, s*qj + pj) that share (qi, qj) land on disjoint stride
    phases, so each group is one += on a (n, Hq, s, Wq, s, C) view of the
    output: 4 adds instead of 9 for a 3x3 stride-2 kernel. Groups run in
    (qi, qj) order, so every pixel sums its taps in (i, j) order, exactly
    as a tap-by-tap scatter does. Only the phase rows and columns that
    reach the cropped output are allocated; taps beyond them are dropped.
    """
    s = stride
    h, w, c = shape[1:]
    hq, wq = -(-(pt + h) // s), -(-(pl + w) // s)
    out = np.zeros((n, hq, s, wq, s, c), dtype=dcols.dtype)
    dcols = dcols.reshape(n, ho, wo, kh, kw, c)
    for qi in range(min(-(-kh // s), hq)):
        rows = min(ho, hq - qi)
        for qj in range(min(-(-kw // s), wq)):
            cols = min(wo, wq - qj)
            taps = dcols[:, :rows, :cols, s * qi:s * qi + s, s * qj:s * qj + s]
            pi, pj = taps.shape[3:5]
            out[:, qi:qi + rows, :pi, qj:qj + cols, :pj] += taps.transpose(0, 1, 3, 2, 4, 5)
    return out.reshape(n, hq * s, wq * s, c)[:, pt:pt + h, pl:pl + w]


def _bias_relu(out, bias, relu, op):
    """Bias add, finite screen and relu on a fresh conv output, in place.

    A kernel and its bias are created and updated together, so `out`,
    whose dtype is at least the kernel's, already has the sum's dtype.
    The screen sits before relu, which would zero a -inf pre-activation.
    """
    if bias is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            out += bias.data
    _check_finite(out, op)
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _bias_relu_back(g, out, bias, relu):
    """Pre-activation gradient, and the bias gradient as a 0- or 1-tuple."""
    if relu:
        g = g * (out > 0.0)
    return g, (() if bias is None else (g.sum(axis=(0, 1, 2)),))


def _conv_parents(x, w, bias, op, filters):
    if bias is None:
        return (x, w)
    if bias.shape != (filters,):
        raise ShapeError(f"{op}: bias shape {bias.shape} != ({filters},)")
    return (x, w, bias)


def conv2d(x: Tensor, w: Tensor, stride=1, padding="valid", bias=None, relu=False) -> Tensor:
    """2-D convolution, NHWC input against (kh, kw, C, F) kernel.

    An optional (F,) `bias` is added and `relu` applied in the same tape
    node.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: need 4-D input and kernel, got {x.shape} and {w.shape}")
    n, h, wd, c = x.shape
    kh, kw, kc, f = w.shape
    if kc != c:
        raise ShapeError(f"conv2d: input channels {c} != kernel channels {kc} "
                         f"(input {x.shape}, kernel {w.shape})")
    parents = _conv_parents(x, w, bias, "conv2d", f)
    ho, pt, pb = _conv_geometry(h, kh, stride, padding, "conv2d")
    wo, pl, pr = _conv_geometry(wd, kw, stride, padding, "conv2d")
    cols, ho2, wo2 = _im2col(x.data, kh, kw, stride, pt, pb, pl, pr)
    assert (ho2, wo2) == (ho, wo)
    wf = w.data.reshape(kh * kw * c, f)
    out = _bias_relu((cols @ wf).reshape(n, ho, wo, f), bias, relu, "conv2d")

    def back(g):
        nonlocal cols
        g, dbias = _bias_relu_back(g, out, bias, relu)
        gf = g.reshape(n * ho * wo, f)
        dw = (cols.T @ gf).reshape(kh, kw, c, f)
        cols = None  # the last use: free it before dcols is allocated
        dx = None
        if x.requires_grad:
            dx = _col2im(gf @ wf.T, n, ho, wo, kh, kw, stride, pt, pl, x.shape)
        return (dx, dw) + dbias

    return _record(out, parents, back)


def conv2d_transpose(x: Tensor, w: Tensor, stride=1, bias=None, relu=False) -> Tensor:
    """Transposed 2-D convolution (the adjoint of a 'same'-padded conv2d).

    Kernel layout is (kh, kw, out_channels, in_channels); the output is
    exactly ``stride`` times larger spatially. An optional
    (out_channels,) `bias` is added and `relu` applied in the same tape
    node.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d_transpose: need 4-D input and kernel, got {x.shape} and {w.shape}")
    n, h, wd, c = x.shape
    kh, kw, f, kc = w.shape
    if kc != c:
        raise ShapeError(f"conv2d_transpose: input channels {c} != kernel channels {kc} "
                         f"(input {x.shape}, kernel {w.shape})")
    parents = _conv_parents(x, w, bias, "conv2d_transpose", f)
    oh, ow = h * stride, wd * stride
    # padding of the conv that maps the output back to the input
    _, pt, pb = _conv_geometry(oh, kh, stride, "same", "conv2d_transpose")
    _, pl, pr = _conv_geometry(ow, kw, stride, "same", "conv2d_transpose")
    wf = w.data.reshape(kh * kw * f, c)
    xf = x.data.reshape(n * h * wd, c)
    out = _bias_relu(_col2im(xf @ wf.T, n, h, wd, kh, kw, stride, pt, pl, (n, oh, ow, f)),
                     bias, relu, "conv2d_transpose")

    def back(g):
        g, dbias = _bias_relu_back(g, out, bias, relu)
        gcols, _, _ = _im2col(g, kh, kw, stride, pt, pb, pl, pr)
        dx = (gcols @ wf).reshape(n, h, wd, c) if x.requires_grad else None
        dw = (gcols.T @ xf).reshape(kh, kw, f, c)
        return (dx, dw) + dbias

    return _record(out, parents, back)
