"""Tensor op semantics and gradient correctness."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcontrast.tensor as tensor_module
from gcontrast.tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    conv2d,
    conv2d_transpose,
    cross_entropy,
    gradients,
    matmul,
    mse,
    no_grad,
)

from helpers import (
    col2im_reference,
    conv2d_reference,
    gradcheck,
    softmax_cross_entropy_composed,
)


def test_relu_values():
    out = Tensor([-1.0, 0.0, 2.0]).relu()
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_mse_identity_is_zero():
    a = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    assert mse(a, a).item() == 0.0


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError, match="mse"):
        mse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_matmul_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_conv2d_channel_mismatch_error():
    x = Tensor(np.zeros((1, 4, 4, 3)))
    w = Tensor(np.zeros((3, 3, 4, 2)))
    with pytest.raises(ShapeError, match="conv2d.*channels 3.*channels 4"):
        conv2d(x, w)


def test_non_finite_forward_raises():
    a = Tensor(np.array([1e200, 1.0]))
    with pytest.raises(NonFiniteError, match="mul"):
        a * a


def test_conv2d_ones_kernel_window_sums():
    # 4x4 single-channel input, 3x3 kernel of ones, 'same': each output is
    # the sum of the window around it, cut to the image
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 4, 4, 1)).astype(np.float64)
    w = np.ones((3, 3, 1, 1), dtype=np.float64)
    out = conv2d(Tensor(x), Tensor(w)).data
    assert out.shape == (1, 4, 4, 1)
    for i in range(4):
        for j in range(4):
            window = x[0, max(i - 1, 0):i + 2, max(j - 1, 0):j + 2, 0]
            assert out[0, i, j, 0] == pytest.approx(window.sum())


def test_conv2d_refuses_padding_other_than_same():
    x, w = Tensor(np.zeros((1, 4, 4, 1))), Tensor(np.zeros((3, 3, 1, 1)))
    with pytest.raises(ValueError, match="conv2d: padding must be 'same', got 'valid'"):
        conv2d(x, w, padding="valid")


@pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same")])
def test_conv2d_matches_nested_loop_reference(stride, padding):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 5, 6, 3)).astype(np.float64)
    w = rng.normal(size=(3, 3, 3, 4)).astype(np.float64)
    out = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
    ref = conv2d_reference(x, w, stride=stride)
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)


def test_conv2d_transpose_is_adjoint_of_conv2d():
    # <conv(x), y> == <x, conv_T(y)> for matching geometry
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 8, 8, 3)).astype(np.float64)
    w = rng.normal(size=(3, 3, 3, 5)).astype(np.float64)
    y = rng.normal(size=(2, 4, 4, 5)).astype(np.float64)
    cx = conv2d(Tensor(x), Tensor(w), stride=2, padding="same").data
    # a conv kernel (kh,kw,C,F) reads as (kh,kw,out=C,in=F) for the adjoint
    cty = conv2d_transpose(Tensor(y), Tensor(w), stride=2).data
    assert cty.shape == x.shape
    assert np.vdot(cx, y) == pytest.approx(np.vdot(x, cty), rel=1e-10)


def test_conv2d_transpose_upsamples_shape():
    x = Tensor(np.zeros((2, 4, 4, 8)))
    w = Tensor(np.zeros((3, 3, 5, 8)))
    out = conv2d_transpose(x, w, stride=2)
    assert out.shape == (2, 8, 8, 5)


def test_backward_quadratic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        (x * x).backward()


def test_unreachable_leaf_gets_zero_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    loss = (x * x).sum()
    gx, gy = gradients(loss, [x, y])
    np.testing.assert_allclose(gx, [2.0, 4.0])
    np.testing.assert_array_equal(gy, [0.0])


def test_gradients_do_not_accumulate_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    for _ in range(3):
        (gx,) = gradients((x * x).sum(), [x])
        np.testing.assert_allclose(gx, [2.0, 4.0])


def test_no_grad_suppresses_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        out = (x * x).sum()
    assert out._backward is None and not out.requires_grad


def test_backward_frees_intermediate_activations():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 6, 6, 3)))
    w1 = Tensor(rng.normal(size=(3, 3, 3, 4)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(3, 3, 4, 2)), requires_grad=True)
    h = conv2d(x, w1, stride=2, padding="same", relu=True)
    out = conv2d(h, w2, padding="same", relu=True)
    loss = (out * out).mean()
    alive = weakref.ref(h.data)
    del h, out
    gradients(loss, [w1, w2])
    # the caller holds only `loss` now; nothing on the tape may keep h alive
    assert alive() is None
    assert loss._parents == ()


@pytest.mark.parametrize("again", ["gradients", "backward", "through an intermediate"])
def test_second_backward_through_consumed_graph_raises(again):
    x = Tensor([1.0, 2.0], requires_grad=True)
    h = x * x
    loss = h.sum()
    np.testing.assert_array_equal(gradients(loss, [x])[0], [2.0, 4.0])
    with pytest.raises(RuntimeError, match="already consumed"):
        if again == "gradients":
            gradients(loss, [x])
        elif again == "backward":
            loss.backward()
        else:
            gradients((h * 3.0).sum(), [x])


def test_tensor_on_two_paths_gets_the_summed_gradient():
    # h feeds a product and a relu, so its node must outlive its first consumer
    rng = np.random.default_rng(1)
    x, w, c = rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=(4, 5))

    def build(ts):
        h = ts[0] @ ts[1]
        return (h * Tensor(c)).sum() + h.relu().sum()

    gradcheck(build, [x, w], **DOUBLE)
    wt = Tensor(w, requires_grad=True)
    (gw,) = gradients(build([Tensor(x), wt]), [wt])
    _assert_same_bits(gw, x.T @ (c + ((x @ w) > 0.0)))


def test_cross_entropy_stable_at_large_magnitudes():
    x = Tensor(np.array([[1000.0, 1000.0], [-1000.0, -1000.0]]), requires_grad=True)
    loss = cross_entropy(x, [0, 1])
    np.testing.assert_allclose(loss.item(), np.log(2.0))
    np.testing.assert_allclose(gradients(loss, [x])[0], [[-0.25, 0.25], [0.25, -0.25]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_same_bits_as_composed_tape(dtype):
    rng = np.random.default_rng(3)
    logits = (rng.normal(size=(13, 5)) * 4).astype(dtype)
    labels = rng.integers(0, 5, size=13)
    t = Tensor(logits, requires_grad=True)
    loss = cross_entropy(t, labels)
    want_loss, want_grad = softmax_cross_entropy_composed(logits, labels)
    _assert_same_bits(loss.data, want_loss)
    _assert_same_bits(gradients(loss, [t])[0], want_grad)


def test_cross_entropy_is_one_tape_node():
    logits = Tensor(np.zeros((4, 3)), requires_grad=True)
    loss = cross_entropy(logits, [0, 1, 2, 0])
    assert sum(t._backward is not None for t in tensor_module._toposort(loss)) == 1


def test_l2_normalize_rows_unit_norm():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 5))
    out = Tensor(x).l2_normalize(axis=1).data
    np.testing.assert_allclose((out ** 2).sum(axis=1), np.ones(8), rtol=1e-6)


def test_l2_normalize_zero_vector_errors():
    with pytest.raises(NonFiniteError, match="zero-norm"):
        Tensor(np.zeros((2, 3))).l2_normalize(axis=1)


# ---- gradient checks against the finite-difference oracle ----

SINGLE = dict(step=1e-3, rtol=1e-3)
DOUBLE = dict(step=1e-5, rtol=1e-6)


def _random_arrays(seed, specs, dtype):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=s).astype(dtype) for s in specs]


@pytest.mark.parametrize("dtype,tol", [(np.float32, SINGLE), (np.float64, DOUBLE)])
@pytest.mark.parametrize("seed", range(20))
def test_grad_dense_chain(seed, dtype, tol):
    # regenerate until preactivations clear the relu kink by > 5 FD steps,
    # otherwise the central difference itself is invalid there
    rng = np.random.default_rng(seed)
    while True:
        x, w, b = (rng.normal(size=s).astype(dtype) for s in [(3, 4), (4, 2), (1, 2)])
        if np.abs(x @ w + b).min() > 5 * tol["step"]:
            break
    gradcheck(lambda ts: ((ts[0] @ ts[1] + ts[2]).relu() * 0.7).sum(), [x, w, b], **tol)


@pytest.mark.parametrize("dtype,tol", [(np.float32, SINGLE), (np.float64, DOUBLE)])
@pytest.mark.parametrize("seed", range(20))
def test_grad_mse(seed, dtype, tol):
    a, b = _random_arrays(seed, [(4, 3), (4, 3)], dtype)
    gradcheck(lambda ts: mse(ts[0], ts[1]), [a, b], **tol)


def test_grad_mse_of_linear_model_matches_fd_single_precision():
    # gradient of mse(w*x, y) wrt w within 1e-3 relative, single precision
    rng = np.random.default_rng(42)
    x = rng.normal(size=(8, 3)).astype(np.float32)
    w = rng.normal(size=(3, 2)).astype(np.float32)
    y = rng.normal(size=(8, 2)).astype(np.float32)
    gradcheck(lambda ts: mse(ts[1] @ ts[0], Tensor(y)), [w, x], step=1e-3, rtol=1e-3)


@pytest.mark.parametrize("dtype,tol", [(np.float32, SINGLE), (np.float64, DOUBLE)])
@pytest.mark.parametrize("seed", range(20))
def test_grad_conv2d(seed, dtype, tol):
    x, w = _random_arrays(seed, [(2, 5, 5, 2), (3, 3, 2, 3)], dtype)
    gradcheck(lambda ts: conv2d(ts[0], ts[1], stride=2, padding="same").sum(), [x, w], **tol)


@pytest.mark.parametrize("seed", range(5))
def test_grad_conv2d_transpose(seed):
    x, w = _random_arrays(seed, [(1, 3, 3, 2), (3, 3, 3, 2)], np.float64)
    gradcheck(lambda ts: conv2d_transpose(ts[0], ts[1], stride=2).sum(),
              [x, w], **DOUBLE)


def _clear_of_relu_kink(seed, specs, dtype, preactivation, step):
    # regenerate until preactivations clear the relu kink by > 5 FD steps,
    # as in test_grad_dense_chain
    rng = np.random.default_rng(seed)
    while True:
        arrays = [rng.normal(size=s).astype(dtype) for s in specs]
        if np.abs(preactivation(*arrays)).min() > 5 * step:
            return arrays


@pytest.mark.parametrize("dtype,tol", [(np.float32, SINGLE), (np.float64, DOUBLE)])
@pytest.mark.parametrize("seed", range(10))
def test_grad_conv2d_bias_relu(seed, dtype, tol):
    x, w, b = _clear_of_relu_kink(
        seed, [(2, 5, 5, 2), (3, 3, 2, 3), (3,)], dtype,
        lambda x, w, b: conv2d(Tensor(x), Tensor(w), stride=2, padding="same").data + b,
        tol["step"])
    gradcheck(lambda ts: (conv2d(ts[0], ts[1], stride=2, padding="same",
                                 bias=ts[2], relu=True) * 0.7).sum(), [x, w, b], **tol)


@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("dtype,tol", [(np.float32, SINGLE), (np.float64, DOUBLE)])
@pytest.mark.parametrize("seed", range(5))
def test_grad_conv2d_transpose_bias_relu(seed, dtype, tol, relu):
    x, w, b = _clear_of_relu_kink(
        seed, [(1, 3, 3, 2), (3, 3, 3, 2), (3,)], dtype,
        lambda x, w, b: conv2d_transpose(Tensor(x), Tensor(w), stride=2).data + b,
        tol["step"])
    gradcheck(lambda ts: (conv2d_transpose(ts[0], ts[1], stride=2,
                                           bias=ts[2], relu=relu) * 0.7).sum(),
              [x, w, b], **tol)


def test_conv2d_skips_input_gradient_when_input_needs_none(monkeypatch):
    scatters = []
    col2im = tensor_module._col2im
    monkeypatch.setattr(tensor_module, "_col2im",
                        lambda *args: scatters.append(1) or col2im(*args))
    x, w, b = _random_arrays(0, [(2, 6, 6, 3), (3, 3, 3, 4), (4,)], np.float32)

    def weight_grad(x_requires_grad):
        ts = [Tensor(x, requires_grad=x_requires_grad),
              Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)]
        conv2d(ts[0], ts[1], stride=2, padding="same", bias=ts[2], relu=True).sum().backward()
        return ts[0].grad, ts[1].grad

    dx, dw_with_dx = weight_grad(True)
    assert dx is not None and len(scatters) == 1
    dx, dw = weight_grad(False)
    assert dx is None and len(scatters) == 1
    assert np.array_equal(dw, dw_with_dx)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _order_sensitive(rng, shape, dtype):
    # magnitudes over six decades make a sum's bits depend on its order;
    # signed zeros show whether an untouched pixel starts from +0
    vals = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    vals[rng.random(shape) < 0.2] = -0.0
    return vals.astype(dtype)


@given(kh=st.integers(1, 5), kw=st.integers(1, 5), stride=st.integers(1, 3),
       h=st.integers(1, 10), w=st.integers(1, 10), n=st.integers(1, 2), c=st.integers(1, 3),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=300, deadline=None)
def test_col2im_matches_tap_by_tap_scatter(kh, kw, stride, h, w, n, c, dtype, seed):
    ho, pt, _ = tensor_module._conv_geometry(h, kh, stride)
    wo, pl, _ = tensor_module._conv_geometry(w, kw, stride)
    dcols = _order_sensitive(np.random.default_rng(seed), (n * ho * wo, kh * kw * c), dtype)
    args = (dcols, n, ho, wo, kh, kw, stride, pt, pl, (n, h, w, c))
    _assert_same_bits(tensor_module._col2im(*args), col2im_reference(*args))


def test_desk_autoencoder_matches_tap_by_tap_scatter(monkeypatch):
    # encoder 32 -> 16 -> 8 -> 4 and decoder back, 3x3 stride 2: a float32
    # image batch through float64 parameters, as after a first SGD step
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, size=(4, 32, 32, 3)).astype(np.float32)
    widths = [3, 32, 64, 128]
    shapes = [(3, 3, a, b) for a, b in zip(widths, widths[1:])]
    shapes += [(3, 3, a, b) for a, b in reversed(list(zip(widths, widths[1:])))]
    arrays = [rng.normal(scale=0.2, size=s) for s in shapes]
    arrays += [rng.normal(scale=0.1, size=s[-1] if i < 3 else s[-2])
               for i, s in enumerate(shapes)]

    def run():
        xt = Tensor(x, requires_grad=True)
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        h = xt
        for i in range(3):
            h = conv2d(h, ts[i], stride=2, padding="same", bias=ts[6 + i], relu=True)
        for i in range(3, 6):
            h = conv2d_transpose(h, ts[i], stride=2, bias=ts[6 + i], relu=i < 5)
        assert h.shape == x.shape
        (h * h).mean().backward()
        return [h.data, xt.grad] + [t.grad for t in ts]

    got = run()
    monkeypatch.setattr(tensor_module, "_col2im", col2im_reference)
    want = run()
    for g, w in zip(got, want):
        _assert_same_bits(g, w)


@pytest.mark.parametrize("overflow_in", ["kernel", "bias"])
@pytest.mark.parametrize("op", [conv2d, conv2d_transpose])
def test_fused_conv_screens_pre_activation_before_relu(op, overflow_in):
    # a -inf pre-activation is an error even though relu would zero it
    big = np.finfo(np.float32).max
    x = Tensor(np.full((1, 2, 2, 1), big, dtype=np.float32))
    w = Tensor(np.full((1, 1, 1, 1), -2.0 if overflow_in == "kernel" else -1.0,
                       dtype=np.float32))
    b = Tensor(np.full(1, 0.0 if overflow_in == "kernel" else -big, dtype=np.float32))
    with pytest.raises(NonFiniteError, match=op.__name__):
        with np.errstate(over="ignore"):
            op(x, w, bias=b, relu=True)


@pytest.mark.parametrize("seed", range(5))
def test_grad_reductions_and_normalize(seed):
    x, = _random_arrays(seed, [(4, 5)], np.float64)
    gradcheck(lambda ts: (ts[0].l2_normalize(axis=1) * 0.3).sum(), [x], **DOUBLE)
    gradcheck(lambda ts: ts[0].mean(axis=0).sum(), [x], **DOUBLE)


def test_constant_operands_get_no_gradient():
    # every op skips the gradient of an operand that does not require one
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)))
    target = Tensor(rng.normal(size=(4, 2)))
    kernel = Tensor(rng.normal(size=(3, 3, 2, 2)), requires_grad=True)
    image = Tensor(rng.normal(size=(1, 4, 4, 2)))
    losses = [mse(x @ w, target), (target * (x @ w) + 1.0).sum(),
              (w.relu() @ Tensor(w.data.T)).sum(), conv2d(image, kernel, padding="same").sum(),
              conv2d_transpose(image, kernel, stride=2).sum()]
    for loss in losses:
        for node in tensor_module._toposort(loss):
            if node._backward is None:
                continue
            for parent, contrib in zip(node._parents, node._backward(np.ones(node.shape))):
                assert parent.requires_grad or contrib is None


def test_grad_broadcast_add_sums_over_batch():
    x = Tensor(np.ones((5, 3)), requires_grad=True)
    b = Tensor(np.zeros((1, 3)), requires_grad=True)
    (x + b).sum().backward()
    np.testing.assert_array_equal(b.grad, np.full((1, 3), 5.0))


# ---- purity and linearity properties ----

@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_forward_ops_are_pure(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4)).astype(np.float32)
    w = rng.normal(size=(4, 4)).astype(np.float32)
    first = ((Tensor(x) @ Tensor(w)).relu().mean()).data.copy()
    second = ((Tensor(x) @ Tensor(w)).relu().mean()).data.copy()
    assert np.array_equal(first, second)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_backward_of_sum_equals_sum_of_backwards(seed):
    rng = np.random.default_rng(seed)
    xa = rng.normal(size=(3, 3)).astype(np.float64)
    w = rng.normal(size=(3, 2)).astype(np.float64)

    def grad_of(build):
        t = Tensor(w, requires_grad=True)
        build(t).backward()
        return t.grad

    loss_a = lambda t: (Tensor(xa) @ t).relu().sum()
    loss_b = lambda t: ((Tensor(xa) @ t) * 0.5).mean()
    combined = grad_of(lambda t: loss_a(t) + loss_b(t))
    separate = grad_of(loss_a) + grad_of(loss_b)
    np.testing.assert_allclose(combined, separate, rtol=1e-10, atol=1e-12)
