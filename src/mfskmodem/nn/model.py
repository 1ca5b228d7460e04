"""The CNN demodulator's forward and backward passes, written on numpy.

Layer sequence (fixed):

    input (N) -> reshape (N, 1)
    -> batch-norm over the single channel
    -> 1-D convolution of that one channel (F filters, kernel K, stride 1,
       same padding, linear; conv.kernel is stored as (K, 1, F))
    -> batch-norm over the F channels
    -> flatten (N*F)
    -> dense (H) with ReLU
    -> batch-norm over the H features
    -> dense (M) with softmax

Batch norm normalizes over the trailing (channel/feature) axis with
eps = 1e-3 and running-statistic momentum 0.99.  Training mode uses batch
statistics and refreshes the running ones; the conv is one im2col GEMM
(Chellapilla et al. 2006).  Inference mode normalizes through the stored
running statistics, so everything before the ReLU (input norm, linear conv,
conv norm, flatten, dense) is one affine map of the input: batch-norm
folding (Jacob et al. 2018, section 3.2) carried through the conv and the
dense layer.  forward() folds that prefix into an (N, H) matrix, and the
hidden norm into the output layer, once per state: two small GEMMs per
call.  Cross-entropy clamps probabilities at 1e-12 so the loss stays
finite.

Parameters and running statistics share one arena per state, laid out by
param_layout (trainables first, then the statistics); state.tensors holds
read-only name -> array views of it.  backward() writes the gradients into
a second arena with the layout of the trainable span, allocated by the
state's first backward() and reused by every later one, so the views it
returns are overwritten by the next backward() on the same state.  The
three (B*N, ...) arrays of a training step (im2col columns, conv output,
conv-norm output) live the same way in the state's training scratch, so a
forward_train() cache is overwritten by the next forward_train() on the
same state.  backward() writes each of the two large gradients over the
forward array it has read for the last time: dflat over the conv-norm
output, the column gradient over the im2col columns.  train() releases
the scratch and the gradient arena when it returns.
Training runs in float32, gradient checking rebuilds the same graph in
float64.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..signal import window_batch

BN_EPS = 1e-3
BN_MOMENTUM = 0.99
PROB_FLOOR = 1e-12

# build_model draws each weight this many rows at a time.
_INIT_ROWS = 4096


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters."""

    input_len: int
    conv_filters: int
    conv_kernel: int
    hidden_units: int
    classes: int

    def __post_init__(self):
        for name in ("input_len", "conv_filters", "conv_kernel", "hidden_units", "classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.conv_kernel > self.input_len:
            raise ValueError("conv_kernel must not exceed input_len")

    @property
    def flat_features(self) -> int:
        return self.input_len * self.conv_filters


def param_layout(config: ModelConfig):
    """Canonical (name, shape, trainable) triples, in build/serialization order."""
    n, f, k, h, m = (config.input_len, config.conv_filters, config.conv_kernel,
                     config.hidden_units, config.classes)
    return [
        ("input_norm.gamma", (1,), True),
        ("input_norm.beta", (1,), True),
        ("input_norm.mean", (1,), False),
        ("input_norm.var", (1,), False),
        ("conv.kernel", (k, 1, f), True),
        ("conv.bias", (f,), True),
        ("conv_norm.gamma", (f,), True),
        ("conv_norm.beta", (f,), True),
        ("conv_norm.mean", (f,), False),
        ("conv_norm.var", (f,), False),
        ("hidden.weight", (n * f, h), True),
        ("hidden.bias", (h,), True),
        ("hidden_norm.gamma", (h,), True),
        ("hidden_norm.beta", (h,), True),
        ("hidden_norm.mean", (h,), False),
        ("hidden_norm.var", (h,), False),
        ("output.weight", (h, m), True),
        ("output.bias", (m,), True),
    ]


class ModelState:
    """Every trainable parameter and batch-norm running statistic, in one arena.

    The arena is zeroed at construction and holds the trainable tensors in
    param_layout order, then the statistics.  ``tensors`` maps each name to
    a read-only view of it, so an in-place write raises ValueError and
    assigning ``tensors[name] = x`` raises TypeError.  The library writes
    only through _mutable(), which also drops forward()'s folded maps.
    Setting a view's ``writeable`` flag by hand works, because the arena is
    writeable, but bypasses that and may serve a stale fold.
    Training and inference on one state at the same time are unsupported.

    The gradient arena has the layout of the trainable span.  The first
    backward() allocates it and copy() leaves it behind, so a state that
    only infers never holds one.  The training scratch holds a step's
    three large arrays, "cols", "conv" and "flat" (see _buffer): the first
    forward_train() allocates it, later calls reuse it, and copy() leaves
    it behind.  backward() makes no scratch array of its own; it writes its
    large gradients over the cache's spent arrays.
    train() releases the scratch and the gradient arena when it returns,
    so a trained state holds only its parameter arena.
    """

    def __init__(self, config: ModelConfig, dtype):
        self.config = config
        self.dtype = np.dtype(dtype)
        layout = sorted(param_layout(config), key=lambda entry: not entry[2])
        self._arena = np.zeros(sum(math.prod(shape) for _, shape, _ in layout), self.dtype)
        self._views = _carve(self._arena, layout)
        self._trainable_size = sum(math.prod(shape) for _, shape, trainable in layout if trainable)
        self.tensors = MappingProxyType({name: view.view() for name, view in self._views.items()})
        for view in self.tensors.values():
            view.flags.writeable = False
        # forward()'s folded maps; see _inference_maps.
        self._inference = None
        # backward()'s (flat arena, name views); see _gradients.
        self._grads = None
        # forward_train()'s name -> step array; see _buffer.
        self._scratch = None

    @property
    def trainable_names(self):
        return [name for name, _, trainable in param_layout(self.config) if trainable]

    def copy(self) -> "ModelState":
        clone = ModelState(self.config, self.dtype)
        clone._arena[...] = self._arena
        return clone


def _carve(arena, layout):
    """Name -> view of ``arena`` for (name, shape, ...) entries laid end to end."""
    views, lo = {}, 0
    for name, shape, *_ in layout:
        size = math.prod(shape)
        views[name] = arena[lo:lo + size].reshape(shape)
        lo += size
    return views


def _mutable(state: ModelState):
    """The state's writeable tensors; drops forward()'s folded maps."""
    state._inference = None
    return state._views


def _mutable_span(state: ModelState):
    """The state's trainable span as one writeable flat array, through _mutable()."""
    _mutable(state)
    return state._arena[:state._trainable_size]


def _gradients(state: ModelState):
    """The state's gradient arena and its read-only name mapping, made on first use."""
    if state._grads is None:
        arena = np.zeros(state._trainable_size, state.dtype)
        views = _carve(arena, [entry for entry in param_layout(state.config) if entry[2]])
        state._grads = arena, MappingProxyType(views)
    return state._grads


def _buffer(state: ModelState, name: str, rows: int, width: int):
    """The leading ``rows`` rows of the state's (rows, width) training array ``name``.

    Made on first use and kept in the state's training scratch; a smaller
    batch reuses the leading rows, a larger one makes the array anew.
    """
    if state._scratch is None:
        state._scratch = {}
    array = state._scratch.get(name)
    if array is None or array.shape[0] < rows:
        array = state._scratch[name] = np.empty((rows, width), state.dtype)
    return array[:rows]


def _release_training(state: ModelState):
    """Drop the state's training scratch and gradient arena; the next step makes them anew."""
    state._scratch = None
    state._grads = None


def parameter_counts(state: ModelState):
    """(total, trainable, non_trainable) parameter counts."""
    total, trainable = state._arena.size, state._trainable_size
    return total, trainable, total - trainable


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> ModelState:
    """Fresh model: Glorot-uniform weights, zero biases, identity batch norm.

    Deterministic for a given seed; tensors are drawn in layout order.
    """
    state = ModelState(config, dtype)
    tensors = _mutable(state)
    rng = np.random.default_rng(seed)
    for name, shape, _ in param_layout(config):
        if name.endswith(".weight") or name == "conv.kernel":
            fan_in, fan_out = _fans(name, shape)
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            # Row blocks bound the float64 draws; the stream is the one-shot draw's.
            for lo in range(0, shape[0], _INIT_ROWS):
                block = tensors[name][lo:lo + _INIT_ROWS]
                block[...] = rng.uniform(-limit, limit, size=block.shape)
        elif name.endswith((".gamma", ".var")):
            tensors[name][...] = 1
        # biases, beta and running means stay zero
    return state


def _fans(name, shape):
    if name == "conv.kernel":
        k, c_in, f = shape
        return k * c_in, k * f
    fan_in, fan_out = shape
    return fan_in, fan_out


# ---------------------------------------------------------------------------
# Layer primitives.  x is (batch, ..., features); batch norm reduces over all
# axes except the last, working on the (-1, features) view.  The training
# passes reuse the buffers they are handed: _bn_train centres x in place,
# _bn_backward builds dx in dy's buffer and overwrites the cached xhat, and
# _conv_backward writes the column gradient over cols, so each caller passes
# arrays it no longer reads.  Gradient helpers write the parameter gradients
# into the output buffers they are given.


def _bn_train(x, gamma, beta, out=None):
    """Batch-statistic norm of x; y goes into ``out`` when given, shaped as x's (-1, F) view."""
    x2 = x.reshape(-1, x.shape[-1])
    count = x2.shape[0]
    mean = np.einsum("ij->j", x2) / count
    xhat = x2
    xhat -= mean
    var = np.einsum("ij,ij->j", xhat, xhat) / count
    inv_std = 1.0 / np.sqrt(var + np.asarray(BN_EPS, dtype=x.dtype))
    xhat *= inv_std
    y = np.multiply(xhat, gamma, out=out)
    y += beta
    return y.reshape(x.shape), (xhat, inv_std), mean, var


def _bn_fold(tensors, prefix):
    """Inference batch norm ``prefix`` as the float64 affine map x * scale + shift."""
    gamma, beta, mean, var = (tensors[f"{prefix}.{part}"].astype(np.float64)
                              for part in ("gamma", "beta", "mean", "var"))
    scale = gamma / np.sqrt(var + BN_EPS)
    return scale, beta - mean * scale


def _bn_backward(dy, gamma, cache, dgamma, dbeta):
    """dx of _bn_train; dgamma and dbeta go into the given (F,) buffers."""
    xhat, inv_std = cache
    dy2 = dy.reshape(xhat.shape)
    count = xhat.shape[0]
    np.einsum("ij,ij->j", dy2, xhat, out=dgamma)
    np.einsum("ij->j", dy2, out=dbeta)
    # Batch statistics depend on x, so the normalized-input gradient picks
    # up the mean and mean(dy * xhat) correction terms.
    dx = dy2
    dx *= count
    dx -= dbeta
    xhat *= dgamma
    dx -= xhat
    dx *= gamma * inv_std / count
    return dx.reshape(dy.shape)


def _conv_pad(config: ModelConfig):
    # "Same" padding for stride 1: output length equals input length.
    left = (config.conv_kernel - 1) // 2
    return left, config.conv_kernel - 1 - left


def _conv_forward(x, kernel, bias, config: ModelConfig, cols, out):
    """x: (B, N) -> (B, N, F) in ``out`` (B*N, F); kernel: (K, F).

    One im2col GEMM: each output position's K-sample input window becomes a
    row of the (B*N, K) column matrix ``cols``, kept for the kernel
    gradient.
    """
    left, right = _conv_pad(config)
    xp = np.pad(x, ((0, 0), (left, right)))
    b, n = x.shape
    k, f = kernel.shape
    np.copyto(cols.reshape(b, n, k), sliding_window_view(xp, k, axis=1))
    np.matmul(cols, kernel, out=out)
    out += bias
    return out.reshape(b, n, f)


def _conv_backward(dy, cols, kernel, config: ModelConfig, dkernel, dbias):
    """dx (B, N) of _conv_forward; dkernel (K, F) and dbias (F,) go into the
    given buffers.  The (B*N, K) column gradient overwrites ``cols`` once
    dkernel has read it, so the caller passes columns it no longer reads."""
    b, n, f = dy.shape
    k, _ = kernel.shape
    left, _ = _conv_pad(config)
    dy2 = dy.reshape(b * n, f)
    np.matmul(cols.T, dy2, out=dkernel)
    np.einsum("ij->j", dy2, out=dbias)
    # col2im: scatter-add each tap's column gradient onto the padded input.
    dcols = np.matmul(dy2, kernel.T, out=cols).reshape(b, n, k)
    dxp = np.zeros((b, n + k - 1), dtype=dy.dtype)
    for j in range(k):
        dxp[:, j : j + n] += dcols[..., j]
    return dxp[:, left : left + n]


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def forward(state: ModelState, batch: np.ndarray) -> np.ndarray:
    """Inference-mode class probabilities, shape (B, classes).

    Normalizes through the stored running statistics and never changes a
    tensor's values: the result is softmax(relu(x @ A + a) @ B + c) with the
    maps of _inference_maps, whose first call on a state folds them.
    Memory is (B, N) + (B, H) for any batch.
    """
    batch = window_batch(batch, state.config.input_len)
    in_map, in_bias, out_map, out_bias = _inference_maps(state)
    hidden = np.asarray(batch, dtype=state.dtype) @ in_map
    hidden += in_bias
    np.maximum(hidden, 0, out=hidden)
    return _softmax(hidden @ out_map + out_bias)


def _inference_maps(state: ModelState):
    """(A, a, B, c) with forward(x) = softmax(relu(x @ A + a) @ B + c).

    Folded on first use and cached on the state until _mutable() drops the
    cache.  Two threads that call forward on a fresh state may each fold,
    with the same result.
    """
    maps = state._inference
    if maps is None:
        maps = state._inference = _fold(state.config, state.tensors, state.dtype)
    return maps


def _fold(config: ModelConfig, t, dtype):
    """The inference maps of _inference_maps, accumulated in float64.

    With the conv norm folded into the kernel (K, F) and bias (F,), tap j
    of the filters meets the dense rows of conv position i in
    G[i, j] = kernel[j] @ hidden.weight[i*F:(i+1)*F]; input sample m reaches
    position i = m - j + left, so its dense row is W_eff[m] = sum_j
    G[m - j + left, j].  The padded zeros come after the input norm, so its
    shift only meets the rows of real samples.  hidden.weight is read in
    place, never copied.
    """
    n, f, k, h = config.input_len, config.conv_filters, config.conv_kernel, config.hidden_units
    left, _ = _conv_pad(config)
    in_scale, in_shift = _bn_fold(t, "input_norm")
    conv_scale, conv_shift = _bn_fold(t, "conv_norm")
    hidden_scale, hidden_shift = _bn_fold(t, "hidden_norm")

    # The conv bias rides along as tap K: G[:, K] is its push through the dense layer.
    taps = np.vstack([t["conv.kernel"][:, 0, :] * conv_scale,
                      t["conv.bias"] * conv_scale + conv_shift])
    g = np.matmul(taps.astype(dtype), t["hidden.weight"].reshape(n, f, h))
    w_eff = np.zeros((n, h))
    for j in range(k):
        lo, hi = max(0, left - j), min(n, n + left - j)
        w_eff[lo + j - left : hi + j - left] += g[lo:hi, j]
    in_map = in_scale * w_eff
    in_bias = (in_shift * w_eff.sum(axis=0) + g[:, k].sum(axis=0, dtype=np.float64)
               + t["hidden.bias"])
    out_weight = t["output.weight"].astype(np.float64)
    out_map = hidden_scale[:, None] * out_weight
    out_bias = hidden_shift @ out_weight + t["output.bias"]
    return tuple(m.astype(dtype) for m in (in_map, in_bias, out_map, out_bias))


def forward_train(state: ModelState, batch: np.ndarray):
    """Training-mode forward: batch-statistic normalization, cached intermediates.

    Returns (probs, cache) for backward().  The cache's im2col columns,
    conv output and conv-norm output are rows of the state's training
    scratch, so the cache is valid until the next forward_train() on the
    same state; probs and the small arrays are fresh.  backward() spends
    the cache: it writes its gradients over these arrays, so each cache
    feeds one backward().  The batch-norm
    running statistics are refreshed in place with momentum BN_MOMENTUM but
    never read: probs, and backward()'s gradients, are a pure function of
    the trainable tensors and the batch.
    """
    cfg = state.config
    t = _mutable(state)
    x0 = window_batch(batch, cfg.input_len).astype(state.dtype)[:, :, None]
    rows = x0.shape[0] * cfg.input_len
    cache = {"conv_cols": _buffer(state, "cols", rows, cfg.conv_kernel)}

    bn0, cache["bn0"], m0, v0 = _bn_train(x0, t["input_norm.gamma"], t["input_norm.beta"])
    conv = _conv_forward(bn0[..., 0], t["conv.kernel"][:, 0], t["conv.bias"], cfg,
                         cache["conv_cols"], _buffer(state, "conv", rows, cfg.conv_filters))
    bn1, cache["bn1"], m1, v1 = _bn_train(conv, t["conv_norm.gamma"], t["conv_norm.beta"],
                                          out=_buffer(state, "flat", rows, cfg.conv_filters))
    flat = bn1.reshape(bn1.shape[0], cfg.flat_features)
    cache["flat"] = flat
    pre_relu = flat @ t["hidden.weight"]
    pre_relu += t["hidden.bias"]
    cache["relu_mask"] = pre_relu > 0
    relu = np.maximum(pre_relu, 0, out=pre_relu)
    bn2, cache["bn2"], m2, v2 = _bn_train(relu, t["hidden_norm.gamma"], t["hidden_norm.beta"])
    cache["bn2_out"] = bn2
    logits = bn2 @ t["output.weight"] + t["output.bias"]
    probs = _softmax(logits)
    cache["probs"] = probs

    for prefix, mean, var in (("input_norm", m0, v0), ("conv_norm", m1, v1),
                              ("hidden_norm", m2, v2)):
        t[prefix + ".mean"] *= BN_MOMENTUM
        t[prefix + ".mean"] += (1.0 - BN_MOMENTUM) * mean.astype(state.dtype)
        t[prefix + ".var"] *= BN_MOMENTUM
        t[prefix + ".var"] += (1.0 - BN_MOMENTUM) * var.astype(state.dtype)
    return probs, cache


def _check_labels(labels, classes, rows) -> np.ndarray:
    """``labels`` as a 1-D array of class indices in [0, classes), one per batch row."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise ValueError("labels must be a 1-D array of class indices, "
                         f"got shape {labels.shape} of {labels.dtype}")
    if labels.size != rows:
        raise ValueError(f"expected one label per batch row: {rows} rows, {labels.size} labels")
    if np.any((labels < 0) | (labels >= classes)):
        raise ValueError(f"labels must lie in [0, {classes})")
    return labels


def loss_ce(probs: np.ndarray, labels) -> float:
    """Mean categorical cross-entropy of class-index ``labels``; probabilities
    clamped at PROB_FLOOR."""
    probs = np.atleast_2d(np.asarray(probs))
    labels = _check_labels(labels, probs.shape[1], probs.shape[0])
    p_true = probs[np.arange(labels.size), labels]
    return float(-np.log(np.maximum(p_true, PROB_FLOOR)).mean())


def backward(state: ModelState, cache: dict, labels) -> MappingProxyType:
    """Analytic gradients of loss_ce(forward_train(...)) for every trainable tensor.

    Softmax and cross-entropy are fused at the output: the logits gradient
    is (probs - onehot) / batch_size.  Returns a read-only name -> view
    mapping of the state's gradient arena: the next backward() on the same
    state overwrites those views, so copy what must outlive it.  The cache
    is spent afterwards: the batch-norm passes overwrite its normalized
    inputs, dflat overwrites its conv-norm output once the hidden-weight
    gradient has read it, and the im2col column gradient overwrites its
    columns once the kernel gradient has read them.  backward() makes no
    array of the training scratch.
    """
    cfg = state.config
    t = state.tensors
    _, grads = _gradients(state)
    dlogits = cache["probs"].copy()
    b = dlogits.shape[0]
    labels = _check_labels(labels, cfg.classes, b)
    dlogits[np.arange(b), labels] -= 1
    dlogits /= b
    np.matmul(cache["bn2_out"].T, dlogits, out=grads["output.weight"])
    np.sum(dlogits, axis=0, out=grads["output.bias"])
    dbn2 = dlogits @ t["output.weight"].T

    drelu = _bn_backward(dbn2, t["hidden_norm.gamma"], cache["bn2"],
                         grads["hidden_norm.gamma"], grads["hidden_norm.beta"])
    dpre = drelu * cache["relu_mask"]
    np.matmul(cache["flat"].T, dpre, out=grads["hidden.weight"])
    np.sum(dpre, axis=0, out=grads["hidden.bias"])
    dflat = np.matmul(dpre, t["hidden.weight"].T, out=cache["flat"])

    dbn1 = dflat.reshape(b, cfg.input_len, cfg.conv_filters)
    dconv = _bn_backward(dbn1, t["conv_norm.gamma"], cache["bn1"],
                         grads["conv_norm.gamma"], grads["conv_norm.beta"])
    dbn0 = _conv_backward(dconv, cache["conv_cols"], t["conv.kernel"][:, 0], cfg,
                          grads["conv.kernel"][:, 0], grads["conv.bias"])
    # The input norm's dx has no consumer: only its parameter gradients.
    dbn0 = dbn0.reshape(-1, 1)
    np.einsum("ij,ij->j", dbn0, cache["bn0"][0], out=grads["input_norm.gamma"])
    np.einsum("ij->j", dbn0, out=grads["input_norm.beta"])
    return grads
