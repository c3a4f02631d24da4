"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (nested loops, direct formula
evaluation) and shares no code with the library paths it checks.
"""

import math

import numpy as np

from gcontrast.tensor import Tensor


def finite_difference_gradient(f, arrays, index, step):
    """Central-difference gradient of scalar f w.r.t. arrays[index]."""
    base = [a.copy() for a in arrays]
    target = base[index]
    grad = np.zeros_like(target, dtype=np.float64)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(f(base))
        flat[i] = orig - step
        lo = float(f(base))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def gradcheck(build_loss, arrays, step, rtol):
    """Compare tape gradients against central finite differences.

    build_loss takes a list of Tensors and returns a scalar Tensor. The
    analytic gradient keeps the arrays' dtype; the difference quotient is
    evaluated in float64 so the oracle's own rounding noise stays far
    below the tolerance being enforced. Returns the worst relative error.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(tensors)
    loss.backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    def eval_loss(arrs):
        ts = [Tensor(a) for a in arrs]
        return build_loss(ts).data

    wide = [a.astype(np.float64) for a in arrays]
    worst = 0.0
    for i in range(len(arrays)):
        fd = finite_difference_gradient(eval_loss, wide, i, step)
        scale = max(np.abs(fd).max(), np.abs(analytic[i]).max(), 1e-8)
        err = np.abs(analytic[i].astype(np.float64) - fd).max() / scale
        worst = max(worst, err)
    assert worst < rtol, f"gradient mismatch: relative error {worst:.3e} >= {rtol:.0e}"
    return worst


def conv2d_reference(x, w, stride=1, padding="valid"):
    """Nested-loop 2-D convolution, NHWC input, (kh,kw,C,F) kernel."""
    n, h, wd, c = x.shape
    kh, kw, _, f = w.shape

    def geometry(size, k):
        if padding == "valid":
            return (size - k) // stride + 1, 0
        out = -(-size // stride)
        total = max((out - 1) * stride + k - size, 0)
        return out, total // 2

    ho, pt = geometry(h, kh)
    wo, pl = geometry(wd, kw)
    out = np.zeros((n, ho, wo, f), dtype=np.float64)
    for b in range(n):
        for oi in range(ho):
            for oj in range(wo):
                for of in range(f):
                    acc = 0.0
                    for ki in range(kh):
                        for kj in range(kw):
                            ii = oi * stride + ki - pt
                            jj = oj * stride + kj - pl
                            if 0 <= ii < h and 0 <= jj < wd:
                                for ch in range(c):
                                    acc += x[b, ii, jj, ch] * w[ki, kj, ch, of]
                    out[b, oi, oj, of] = acc
    return out


def col2im_reference(dcols, n, ho, wo, kh, kw, stride, pt, pl, shape):
    """Tap-by-tap scatter of im2col patch gradients.

    One strided += per kernel tap, in (i, j) order, into the whole padded
    input, then the crop to `shape` (n, H, W, C) at offset (pt, pl).
    """
    _, h, w, c = shape
    hp = max(pt + h, (ho - 1) * stride + kh)
    wp = max(pl + w, (wo - 1) * stride + kw)
    out = np.zeros((n, hp, wp, c), dtype=dcols.dtype)
    dcols = dcols.reshape(n, ho, wo, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            out[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, :, :, i, j]
    return out[:, pt:pt + h, pl:pl + w]


def _composed_lse_terms(logits):
    """Softmax and row log-sum-exp as the former logsumexp tape op made them."""
    m = logits.max(axis=1, keepdims=True)
    shifted = np.exp(logits - m)
    total = shifted.sum(axis=1, keepdims=True)
    return shifted / total, (np.log(total) + m).squeeze(axis=1)


def _composed_ce_grad(softmax, onehot, loss):
    """Logits gradient of mean(lse - (logits * onehot).sum(1)), node by node:
    mean, sub, then the logsumexp and the one-hot product, summed."""
    rows = len(onehot)
    g = np.broadcast_to(np.ones_like(loss), (rows,)) / rows
    return (np.expand_dims(g, 1) * softmax
            + np.broadcast_to(np.expand_dims(-g, 1), onehot.shape) * onehot)


def softmax_cross_entropy_composed(logits, labels):
    """Loss and logits gradient of the five-node tape that the
    cross_entropy op replaced: one-hot product, sum, logsumexp, sub, mean."""
    onehot = np.zeros(logits.shape, dtype=logits.dtype)
    onehot[np.arange(len(labels)), labels] = 1.0
    softmax, lse = _composed_lse_terms(logits)
    loss = np.asarray((lse - (logits * onehot).sum(axis=1)).mean())
    return loss, _composed_ce_grad(softmax, onehot, loss)


def nt_xent_composed(embeddings, pairing, tau):
    """Loss and embedding gradient of NT-Xent as the composed tape computed
    them: l2_normalize, transpose, matmul, the 1/tau product, a diagonal
    mask add, then the five-node cross-entropy with a one-hot product."""
    x = embeddings
    norm = np.sqrt((x * x).sum(axis=1, keepdims=True))
    z = x / norm
    scale = np.asarray(1.0 / tau)
    sims = (z @ z.T) * scale
    rows = len(z)
    mask = np.full((rows, rows), 0.0, dtype=sims.dtype)
    np.fill_diagonal(mask, -1e9)
    onehot = np.zeros((rows, rows), dtype=sims.dtype)
    onehot[np.arange(rows), pairing] = 1.0
    softmax, lse = _composed_lse_terms(sims + mask)
    loss = np.asarray((lse - (sims * onehot).sum(axis=1)).mean())
    dzz = _composed_ce_grad(softmax, onehot, loss) * scale
    dz = dzz @ z + (z.T @ dzz).T
    dot = (dz * z).sum(axis=1, keepdims=True)
    return loss, (dz - z * dot) / norm


def nt_xent_reference(z, pairing, tau):
    """Brute-force NT-Xent: direct exponential sums, no log-sum-exp trick.

    z is (2N, D), pairing[i] is the index of i's positive partner. The
    denominator for row i runs over every k != i, self excluded only.
    """
    z = np.asarray(z, dtype=np.float64)
    two_n = z.shape[0]
    total = 0.0
    for i in range(two_n):
        j = pairing[i]
        num = math.exp(cosine_reference(z[i], z[j]) / tau)
        den = 0.0
        for k in range(two_n):
            if k == i:
                continue
            den += math.exp(cosine_reference(z[i], z[k]) / tau)
        total += -math.log(num / den)
    return total / two_n


def cosine_reference(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def decode_cifar_record(buf, offset=0):
    """Byte-level decode of one 3073-byte record, pure Python.

    Returns (label, image) with image a 32x32x3 float64 array in [0,1],
    channels ordered R,G,B from the three 1024-byte planes.
    """
    record = buf[offset:offset + 3073]
    label = record[0]
    image = np.zeros((32, 32, 3), dtype=np.float64)
    for ch in range(3):
        plane = record[1 + ch * 1024: 1 + (ch + 1) * 1024]
        for r in range(32):
            for col in range(32):
                image[r, col, ch] = plane[r * 32 + col] / 255.0
    return label, image


def nearest_center_labels(points, centers):
    """Exhaustive nearest-center assignment (squared Euclidean)."""
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    labels = np.zeros(len(points), dtype=np.int64)
    for i, pt in enumerate(points):
        best, best_d = 0, math.inf
        for j, ctr in enumerate(centers):
            d = float(((pt - ctr) ** 2).sum())
            if d < best_d:
                best, best_d = j, d
        labels[i] = best
    return labels


def image_checksum(arr):
    """Order-sensitive checksum of a float array, stable across runs."""
    arr = np.asarray(arr, dtype=np.float64)
    weights = np.arange(1, arr.size + 1, dtype=np.float64)
    return float((arr.reshape(-1) * weights).sum())


# INI files configparser cannot parse, each with the error load_config
# reports after the file's path
MALFORMED_CONFIGS = {
    "repeated-key": (b"[cluster]\nk = 8\nk = 9\n",
                     ", line 3: option 'k' in section 'cluster' already exists"),
    "key-before-section": (b"k = 8\n[cluster]\n", ", line 1: a key before any [section]"),
    "line-without-equals": (b"[cluster]\nk = 8\ngarbage\n",
                            ", line 3: 'garbage\\n' is not `key = value`"),
    "not-utf8": (b"[dataset]\npath = caf\xe9\n",
                 ": byte 20 is not UTF-8 (invalid continuation byte)"),
}
