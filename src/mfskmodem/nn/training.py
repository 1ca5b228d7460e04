"""Adam optimizer, training loop, the CNN demodulator, and finite-difference checking."""

import time
from dataclasses import dataclass, field

import numpy as np

from .model import (ModelConfig, ModelState, _check_labels, _gradients, _mutable, _mutable_span,
                    _release_training, backward, build_model, forward, forward_train, loss_ce)

# grad_check's architecture: small enough that central differences over
# every layer type run in seconds, in float64.
GRAD_CHECK_CONFIG = ModelConfig(input_len=64, conv_filters=4, conv_kernel=8,
                                hidden_units=8, classes=4)

# Adam's decay rates are Kingma & Ba 2015's; the 1e-7 denominator floor is Keras's.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-7

# adam_step streams the trainable span in blocks of this many elements, so
# its scratch and each block of p, g, m and v stay in cache.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop hyper-parameters."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 6
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class TrainLog:
    """Per-epoch running-mean loss and accuracy plus wall-clock seconds."""

    loss: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    seconds: list = field(default_factory=list)


@dataclass
class AdamState:
    """The step count and the first/second moment estimates.

    ``m`` and ``v`` are flat arrays of the state's dtype, laid out as its
    trainable span: the trainable tensors in param_layout order.
    """

    step: int
    m: np.ndarray
    v: np.ndarray


def adam_init(state: ModelState) -> AdamState:
    return AdamState(0, np.zeros(state._trainable_size, state.dtype),
                     np.zeros(state._trainable_size, state.dtype))


def adam_step(state: ModelState, adam: AdamState, grads, cfg: TrainConfig):
    """One bias-corrected Adam update, applied in place.

    p -= lr * (m / c1) / (sqrt(v / c2) + eps), through ``out=`` ufuncs over
    the flat trainable span, one _BLOCK-element block at a time with one
    block-sized scratch.  ``grads`` must be what backward() returned for
    this state, the views of its gradient arena; any other mapping raises
    ValueError before any parameter moves.
    """
    g, views = _gradients(state)
    if grads is not views:
        raise ValueError("grads must be the mapping backward() returned for this state")
    p = _mutable_span(state)
    adam.step += 1
    t = adam.step
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    scratch = np.empty(min(_BLOCK, p.size), p.dtype)
    for lo in range(0, p.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        gb, m, v = g[block], adam.m[block], adam.v[block]
        s = scratch[:gb.size]
        np.multiply(gb, 1.0 - ADAM_BETA1, out=s)
        m *= ADAM_BETA1
        m += s
        np.square(gb, out=s)
        s *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += s
        np.divide(v, correction2, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPSILON
        np.divide(m, s, out=s)
        s *= cfg.learning_rate / correction1
        p[block] -= s


def train_step(state: ModelState, adam: AdamState, batch, labels, cfg: TrainConfig):
    """Forward, analytic backward, Adam update.  Returns (loss, batch accuracy)."""
    probs, cache = forward_train(state, batch)
    loss = loss_ce(probs, labels)
    if not np.isfinite(loss):
        raise RuntimeError(
            f"non-finite training loss {loss} at step {adam.step + 1}; "
            "the learning rate has likely diverged"
        )
    grads = backward(state, cache, labels)
    adam_step(state, adam, grads, cfg)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == np.asarray(labels)))
    return loss, accuracy


def train(config: ModelConfig, cfg: TrainConfig, x, y: np.ndarray):
    """Train a fresh model for cfg.epochs passes over (x, y).

    ``x`` is a (samples, input_len) array, or anything with its ``ndim`` and
    ``shape`` that gathers rows by an index array, such as the ``RowView``
    of ``dataset.data_arrays``; only each batch's rows are gathered.
    The sample order is reshuffled each epoch from the seeded stream, and
    per-epoch loss/accuracy are sample-weighted running means over the
    epoch's batches.  Deterministic for fixed seed and thread configuration.
    Rows of another width than config.input_len are refused before the
    model is built.  The steps share one training scratch and gradient
    arena on the state, released when train returns or raises, so the
    returned state holds only its parameter arena.
    """
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("training data must be a non-empty (samples, input_len) array")
    if x.shape[1] != config.input_len:
        raise ValueError(f"training rows are {x.shape[1]} samples wide, "
                         f"the model takes {config.input_len}")
    y = _check_labels(y, config.classes, x.shape[0])

    state = build_model(config, cfg.seed)
    adam = adam_init(state)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    count = x.shape[0]
    try:
        for _ in range(cfg.epochs):
            start = time.perf_counter()
            order = rng.permutation(count)
            loss_sum = 0.0
            correct_sum = 0.0
            for lo in range(0, count, cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                loss, acc = train_step(state, adam, x[idx], y[idx], cfg)
                loss_sum += loss * idx.size
                correct_sum += acc * idx.size
            log.loss.append(loss_sum / count)
            log.accuracy.append(correct_sum / count)
            log.seconds.append(time.perf_counter() - start)
    finally:
        _release_training(state)
    return state, log


def model_demodulator(state: ModelState):
    """The CNN detector: ``demod(batch)`` maps (B, input_len) windows, or one
    window, to the (B,) argmax of ``forward``; ties break toward the lowest index."""

    def demod(batch: np.ndarray) -> np.ndarray:
        return np.argmax(forward(state, batch), axis=1)

    return demod


def grad_check(seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Builds a GRAD_CHECK_CONFIG model in float64, draws a random batch of 4,
    and probes 6 entries of every trainable tensor (all of a smaller one)
    with h = 1e-5 * max(1, |w|).  The probe loss runs training-mode
    normalization, which reads batch statistics only, so finite differences
    see a pure function of the trainables.  Relative error uses a 1e-6
    denominator floor to keep near-zero gradient entries from amplifying
    finite-difference rounding noise.
    """
    state = build_model(GRAD_CHECK_CONFIG, seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    batch = rng.standard_normal((4, GRAD_CHECK_CONFIG.input_len))
    labels = rng.integers(0, GRAD_CHECK_CONFIG.classes, 4)

    _, cache = forward_train(state, batch)
    grads = backward(state, cache, labels)

    def probe_loss():
        p, _ = forward_train(state, batch)
        return loss_ce(p, labels)

    worst = 0.0
    params = _mutable(state)
    for name in state.trainable_names:
        flat = params[name].reshape(-1)
        n_probe = min(6, flat.size)
        for idx in rng.choice(flat.size, size=n_probe, replace=False):
            original = flat[idx]
            h = 1e-5 * max(1.0, abs(original))
            flat[idx] = original + h
            up = probe_loss()
            flat[idx] = original - h
            down = probe_loss()
            flat[idx] = original
            fd = (up - down) / (2.0 * h)
            analytic = grads[name].reshape(-1)[idx]
            err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
            worst = max(worst, err)
    return worst
