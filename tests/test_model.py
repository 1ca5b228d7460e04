"""Tests for the CNN architecture: parameter counts, forward pass, loss."""

import io
import math

import numpy as np
import pytest

from mfskmodem.nn import (
    GRAD_CHECK_CONFIG,
    ModelConfig,
    backward,
    build_model,
    forward,
    forward_train,
    load_weights,
    loss_ce,
    parameter_counts,
    save_weights,
)
from mfskmodem.nn.model import (
    BN_EPS,
    _bn_backward,
    _bn_train,
    _conv_backward,
    _conv_forward,
    _conv_pad,
    _mutable,
    param_layout,
)
from mfskmodem.profiles import get_profile

FULL = get_profile("jt65a-full").model
REDUCED = get_profile("reduced-m8").model
TINY = GRAD_CHECK_CONFIG  # N=64, F=4, K=8, H=8, M=4


def layer_by_layer_count(cfg: ModelConfig):
    """Independent decomposition: three batch norms, the conv, two denses."""
    n, f, k, h, m = (cfg.input_len, cfg.conv_filters, cfg.conv_kernel,
                     cfg.hidden_units, cfg.classes)
    total = 4 + (k * f + f) + 4 * f + (n * f * h + h) + 4 * h + (h * m + m)
    non_trainable = 2 + 2 * f + 2 * h
    return total, non_trainable


class TestParameterCounts:
    def test_full_architecture(self):
        state = build_model(FULL, seed=0)
        total, trainable, non_trainable = parameter_counts(state)
        assert total == 33_561_604
        assert non_trainable == 386
        assert trainable == 33_561_218

    @pytest.mark.parametrize("cfg", [FULL, REDUCED, TINY])
    def test_matches_layer_decomposition(self, cfg):
        state = build_model(cfg, seed=0)
        total, _, non_trainable = parameter_counts(state)
        expected_total, expected_stats = layer_by_layer_count(cfg)
        assert total == expected_total
        assert non_trainable == expected_stats

    def test_reduced_architecture(self):
        total, _, non_trainable = parameter_counts(build_model(REDUCED, seed=0))
        assert total == 525_388
        assert non_trainable == 130

    def test_dense_layer_dominates_full_count(self):
        # 4096 * 128 * 64 weights + 64 biases.
        assert 4096 * 128 * 64 + 64 == 33_554_496

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(0, 4, 8, 8, 4)
        with pytest.raises(ValueError, match="conv_kernel"):
            ModelConfig(4, 4, 8, 8, 4)


class TestBuildModel:
    def test_deterministic_given_seed(self):
        a = build_model(TINY, seed=7)
        b = build_model(TINY, seed=7)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_different_seeds_differ(self):
        a = build_model(TINY, seed=7)
        b = build_model(TINY, seed=8)
        assert not np.array_equal(a.tensors["conv.kernel"], b.tensors["conv.kernel"])

    def test_initial_norm_and_bias_values(self):
        state = build_model(TINY, seed=0)
        assert np.all(state.tensors["conv_norm.gamma"] == 1)
        assert np.all(state.tensors["conv_norm.beta"] == 0)
        assert np.all(state.tensors["conv_norm.mean"] == 0)
        assert np.all(state.tensors["conv_norm.var"] == 1)
        assert np.all(state.tensors["hidden.bias"] == 0)
        assert state.tensors["conv.kernel"].dtype == np.float32

    def test_blocked_draws_are_the_one_shot_stream(self):
        # build_model draws weights in row blocks; the Generator's stream is
        # the same as one rng.uniform call per tensor.
        state = build_model(REDUCED, seed=3)
        rng = np.random.default_rng(3)
        for name in ("conv.kernel", "hidden.weight", "output.weight"):
            shape = state.tensors[name].shape
            fans = (16, 16 * 32) if name == "conv.kernel" else shape
            limit = math.sqrt(6.0 / sum(fans))
            reference = rng.uniform(-limit, limit, size=shape).astype(np.float32)
            assert np.array_equal(state.tensors[name], reference)

    def test_peak_is_under_two_arenas(self, traced_peak):
        with traced_peak() as peak:
            state = build_model(REDUCED, seed=0)
        assert peak.bytes < 2 * state._arena.nbytes

    def test_one_arena_trainables_then_statistics(self):
        state = build_model(TINY, seed=0)
        layout = param_layout(TINY)
        names = ([name for name, _, trainable in layout if trainable]
                 + [name for name, _, trainable in layout if not trainable])
        sizes = [state.tensors[name].nbytes for name in names]
        offsets = [state.tensors[name].ctypes.data - state._arena.ctypes.data for name in names]
        assert offsets == np.cumsum([0] + sizes[:-1]).tolist()
        assert sum(sizes) == state._arena.nbytes


class TestForward:
    def test_rows_are_probabilities(self, rng):
        state = build_model(TINY, seed=1)
        probs = forward(state, rng.standard_normal((5, 64)))
        assert probs.shape == (5, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_fresh_model_is_near_uniform(self, rng):
        state = build_model(REDUCED, seed=3)
        probs = forward(state, rng.standard_normal((8, 512)))
        assert np.all(probs < 3.0 / REDUCED.classes)
        assert np.all(probs > 1.0 / (3.0 * REDUCED.classes))

    def test_inference_is_pure(self, rng):
        state = build_model(TINY, seed=2)
        batch = rng.standard_normal((3, 64))
        before = {k: v.copy() for k, v in state.tensors.items()}
        first = forward(state, batch)
        second = forward(state, batch)
        assert np.array_equal(first, second)
        for name, tensor in state.tensors.items():
            assert np.array_equal(tensor, before[name])

    def test_train_mode_updates_running_statistics(self, rng):
        state = build_model(TINY, seed=2)
        before = state.tensors["conv_norm.mean"].copy()
        forward_train(state, rng.standard_normal((4, 64)))
        assert not np.array_equal(state.tensors["conv_norm.mean"], before)

    def test_shape_mismatch_rejected(self, rng):
        state = build_model(TINY, seed=0)
        with pytest.raises(ValueError, match="batch"):
            forward(state, rng.standard_normal((2, 63)))


class TestBatchNorm:
    def test_normalized_batch_statistics(self, rng):
        # gamma=1, beta=0: per-feature mean 0 and (for input variance well
        # above eps = 1e-3) variance 1.
        for shape in ((64, 16), (8, 32, 5)):
            x = 2.0 * rng.standard_normal(shape)
            y, _, _, _ = _bn_train(x, np.ones(shape[-1]), np.zeros(shape[-1]))
            axes = tuple(range(x.ndim - 1))
            np.testing.assert_allclose(y.mean(axis=axes), 0.0, atol=1e-5)
            np.testing.assert_allclose(y.var(axis=axes), 1.0, atol=1e-3)

    def test_forward_train_caches_are_centered(self, rng):
        state = build_model(TINY, seed=4)
        _, cache = forward_train(state, rng.standard_normal((16, 64)))
        for key in ("bn0", "bn1", "bn2"):
            xhat, _ = cache[key]
            axes = tuple(range(xhat.ndim - 1))
            np.testing.assert_allclose(xhat.mean(axis=axes), 0.0, atol=1e-5)


class TestLossCe:
    def test_uniform_probabilities(self):
        probs = np.full((3, 64), 1 / 64)
        assert loss_ce(probs, np.array([0, 13, 63])) == pytest.approx(np.log(64), rel=1e-6)
        assert loss_ce(probs, np.array([0, 13, 63])) == pytest.approx(4.1589, abs=5e-5)

    def test_perfect_prediction(self):
        probs = np.eye(4)[[2, 0]]
        assert loss_ce(probs, np.array([2, 0])) == 0.0

    def test_mean_reduction(self):
        probs = np.array([[0.9, 0.1], [0.25, 0.75]])
        a = -np.log(0.9)
        b = -np.log(0.75)
        assert loss_ce(probs, np.array([0, 1])) == pytest.approx((a + b) / 2, rel=1e-12)

    def test_one_hot_labels_refused(self, rng):
        # Labels are class indices; a 2-D one-hot array is not a second form.
        state = build_model(TINY, seed=0)
        probs, cache = forward_train(state, rng.standard_normal((2, 64)))
        onehot = np.eye(TINY.classes)[[1, 3]]
        with pytest.raises(ValueError, match="1-D array of class indices"):
            loss_ce(probs, onehot)
        with pytest.raises(ValueError, match="1-D array of class indices"):
            backward(state, cache, onehot)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_one_label_per_batch_row(self, rng, count):
        # A 3-row batch: a short label array must not broadcast, and a long
        # one must not be cut, in the loss or the backward pass.
        state = build_model(TINY, seed=0)
        probs, cache = forward_train(state, rng.standard_normal((3, 64)))
        labels = np.zeros(count, dtype=int)
        with pytest.raises(ValueError, match="one label per batch row"):
            loss_ce(probs, labels)
        with pytest.raises(ValueError, match="one label per batch row"):
            backward(state, cache, labels)

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 2.0]),
                                        np.array([True, False, True])], ids=["float", "bool"])
    def test_non_integer_labels_refused_by_loss(self, labels):
        # Class indices are integers; numpy would raise IndexError for these.
        with pytest.raises(ValueError, match="1-D array of class indices"):
            loss_ce(np.full((3, 4), 0.25), labels)

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 2.0]),
                                        np.array([True, False, True])], ids=["float", "bool"])
    def test_non_integer_labels_refused_by_backward(self, rng, labels):
        state = build_model(TINY, seed=0)
        _, cache = forward_train(state, rng.standard_normal((3, 64)))
        with pytest.raises(ValueError, match="1-D array of class indices"):
            backward(state, cache, labels)

    def test_probability_floor_keeps_loss_finite(self):
        probs = np.array([[1.0, 0.0]])
        assert np.isfinite(loss_ce(probs, np.array([1])))


# ---------------------------------------------------------------------------
# Float64 direct-loop oracles for the vectorized layers.


def conv_oracle(x, kernel, bias, left):
    """Textbook stride-1 "same" correlation of one input channel:
    y[b,n,f] = bias[f] + sum_k x[b, n+k-left] * kernel[k,f], zero outside
    the input."""
    b, n = x.shape
    k, f = kernel.shape
    y = np.zeros((b, n, f))
    for bi in range(b):
        for ni in range(n):
            for fi in range(f):
                acc = float(bias[fi])
                for ki in range(k):
                    src = ni + ki - left
                    if 0 <= src < n:
                        acc += float(x[bi, src]) * float(kernel[ki, fi])
                y[bi, ni, fi] = acc
    return y


def conv_backward_oracle(x, kernel, dy, left):
    """Loop form of the conv gradients, from y's definition above."""
    b, n = x.shape
    k, f = kernel.shape
    dx = np.zeros(x.shape)
    dkernel = np.zeros(kernel.shape)
    for bi in range(b):
        for ni in range(n):
            for ki in range(k):
                src = ni + ki - left
                if not 0 <= src < n:
                    continue
                for fi in range(f):
                    dx[bi, src] += dy[bi, ni, fi] * kernel[ki, fi]
                    dkernel[ki, fi] += x[bi, src] * dy[bi, ni, fi]
    return dx, dkernel, dy.sum(axis=(0, 1))


def bn_train_oracle(x, gamma, beta):
    """Per-feature textbook batch norm: biased variance, eps inside the root."""
    flat = x.reshape(-1, x.shape[-1])
    y = np.empty(flat.shape)
    for j in range(flat.shape[1]):
        col = [float(v) for v in flat[:, j]]
        mean = sum(col) / len(col)
        var = sum((v - mean) ** 2 for v in col) / len(col)
        for i, v in enumerate(col):
            y[i, j] = gamma[j] * (v - mean) / math.sqrt(var + BN_EPS) + beta[j]
    return y.reshape(x.shape)


def bn_backward_oracle(x, gamma, dy):
    """dx through the full Jacobian dy_i/dx_j = gamma * inv_std *
    (delta_ij - 1/count - xhat_i * xhat_j / count) (Ioffe & Szegedy 2015)."""
    flat = x.reshape(-1, x.shape[-1])
    g = dy.reshape(flat.shape)
    count = flat.shape[0]
    dx = np.zeros(flat.shape)
    dgamma = np.zeros(flat.shape[1])
    for j in range(flat.shape[1]):
        mean = flat[:, j].mean()
        inv_std = 1.0 / math.sqrt(((flat[:, j] - mean) ** 2).mean() + BN_EPS)
        xhat = (flat[:, j] - mean) * inv_std
        dgamma[j] = sum(g[i, j] * xhat[i] for i in range(count))
        for i in range(count):
            for m in range(count):
                jac = gamma[j] * inv_std * ((i == m) - 1.0 / count - xhat[i] * xhat[m] / count)
                dx[m, j] += g[i, j] * jac
    return dx.reshape(x.shape), dgamma, g.sum(axis=0)


class TestLayerOracles:
    # Float64 throughout: the vectorized layers sum in a different order
    # from the loops, so they agree to rounding, well inside rtol 1e-10.
    RTOL = 1e-10

    @pytest.mark.parametrize("kernel_len", [4, 5])
    def test_conv_forward_and_backward(self, rng, kernel_len):
        cfg = ModelConfig(input_len=11, conv_filters=3, conv_kernel=kernel_len,
                          hidden_units=2, classes=2)
        left, _ = _conv_pad(cfg)
        x = rng.standard_normal((2, 11))
        kernel = rng.standard_normal((kernel_len, 3))
        bias = rng.standard_normal(3)
        dy = rng.standard_normal((2, 11, 3))

        # The layers write their (B*N, K) and (B*N, F) arrays into the given buffers.
        cols, dcols = np.empty((22, kernel_len)), np.empty((22, kernel_len))
        y = _conv_forward(x, kernel, bias, cfg, cols, np.empty((22, 3)))
        np.testing.assert_allclose(y, conv_oracle(x, kernel, bias, left), rtol=self.RTOL)
        dkernel, dbias = np.empty_like(kernel), np.empty_like(bias)
        dx = _conv_backward(dy, cols, kernel, cfg, dkernel, dbias, dcols)
        want_dx, want_dkernel, want_dbias = conv_backward_oracle(x, kernel, dy, left)
        np.testing.assert_allclose(dx, want_dx, rtol=self.RTOL, atol=1e-12)
        np.testing.assert_allclose(dkernel, want_dkernel, rtol=self.RTOL)
        np.testing.assert_allclose(dbias, want_dbias, rtol=self.RTOL)

    @pytest.mark.parametrize("shape", [(24, 3), (4, 6, 2)])
    def test_bn_train_and_backward(self, rng, shape):
        x = 3.0 * rng.standard_normal(shape) + 1.5
        gamma = rng.uniform(0.5, 2.0, shape[-1])
        beta = rng.standard_normal(shape[-1])
        dy = rng.standard_normal(shape)

        # _bn_train consumes its input and _bn_backward its dy: pass copies.
        y, cache, _, _ = _bn_train(x.copy(), gamma, beta)
        assert y.shape == x.shape
        np.testing.assert_allclose(y, bn_train_oracle(x, gamma, beta), rtol=self.RTOL)
        dgamma, dbeta = np.empty_like(gamma), np.empty_like(beta)
        dx = _bn_backward(dy.copy(), gamma, cache, dgamma, dbeta)
        want_dx, want_dgamma, want_dbeta = bn_backward_oracle(x, gamma, dy)
        # dx sums to zero per feature, so its entries carry cancellation.
        np.testing.assert_allclose(dx, want_dx, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(dgamma, want_dgamma, rtol=self.RTOL)
        np.testing.assert_allclose(dbeta, want_dbeta, rtol=self.RTOL)


# ---------------------------------------------------------------------------
# Inference forward (batch norm folded into its neighbours) against the
# unfolded float64 graph.


@pytest.fixture(scope="module")
def full_state():
    return build_model(FULL, seed=0)


def with_random_statistics(state, seed):
    """A copy whose batch norms are far from identity, with logits spread
    wide enough that the argmax is never a near-tie."""
    rng = np.random.default_rng(seed)
    state = state.copy()
    t = _mutable(state)
    for prefix in ("input_norm", "conv_norm", "hidden_norm"):
        size = t[prefix + ".gamma"].size
        t[prefix + ".gamma"][:] = rng.uniform(0.5, 1.5, size)
        t[prefix + ".beta"][:] = rng.normal(0.0, 0.3, size)
        t[prefix + ".mean"][:] = rng.normal(0.0, 0.5, size)
        t[prefix + ".var"][:] = rng.uniform(0.5, 2.0, size)
    t["conv.bias"][:] = rng.normal(0.0, 0.1, t["conv.bias"].size)
    t["output.weight"] *= 8.0
    return state


def unfolded_forward64(state, batch, rows=16):
    """The layer sequence as written in the model docstring, in float64,
    each batch norm applied through its running statistics."""
    cfg = state.config
    t = {k: v.astype(np.float64) for k, v in state.tensors.items()}
    left, _ = _conv_pad(cfg)

    def bn(x, prefix):
        return (t[prefix + ".gamma"] * (x - t[prefix + ".mean"])
                / np.sqrt(t[prefix + ".var"] + BN_EPS) + t[prefix + ".beta"])

    out = []
    for lo in range(0, batch.shape[0], rows):
        x = bn(np.asarray(batch[lo:lo + rows], dtype=np.float64)[:, :, None], "input_norm")
        xp = np.pad(x, ((0, 0), (left, cfg.conv_kernel - 1 - left), (0, 0)))
        conv = np.zeros((x.shape[0], cfg.input_len, cfg.conv_filters)) + t["conv.bias"]
        for k in range(cfg.conv_kernel):
            conv += xp[:, k:k + cfg.input_len, :] @ t["conv.kernel"][k]
        h = bn(conv, "conv_norm").reshape(x.shape[0], -1) @ t["hidden.weight"] + t["hidden.bias"]
        h = bn(np.maximum(h, 0.0), "hidden_norm")
        logits = h @ t["output.weight"] + t["output.bias"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        out.append(e / e.sum(axis=1, keepdims=True))
    return np.concatenate(out)


def noisy_tones(cfg, count, seed):
    rng = np.random.default_rng(seed)
    n = cfg.input_len
    bins = rng.integers(2, 2 + cfg.classes, count)
    phases = rng.uniform(0, 2 * np.pi, count)
    x = np.sin(2 * np.pi / n * bins[:, None] * np.arange(n) + phases[:, None])
    return x + rng.normal(0.0, 2.0, x.shape)


class TestFoldedForward:
    # Gate: max |dp| <= 1e-5 against the float64 reference (float32 state)
    # and 100% argmax agreement.
    ATOL = 1e-5

    def check(self, state, batch):
        probs = forward(state, batch)
        ref = unfolded_forward64(state, batch)
        assert probs.dtype == state.dtype
        assert np.max(np.abs(probs - ref)) <= self.ATOL
        assert np.array_equal(np.argmax(probs, axis=1), np.argmax(ref, axis=1))
        top2 = np.sort(ref, axis=1)[:, -2:]
        assert np.min(top2[:, 1] - top2[:, 0]) > 10 * self.ATOL  # no near-ties

    def test_reduced_m8_batch_512(self):
        state = with_random_statistics(build_model(REDUCED, seed=5), seed=6)
        self.check(state, noisy_tones(REDUCED, 512, seed=7))

    def test_jt65a_full_batch_64(self, full_state):
        state = with_random_statistics(full_state, seed=8)
        self.check(state, noisy_tones(FULL, 64, seed=9))

    def test_edges_see_zero_padding_after_the_input_norm(self):
        # A large input-norm shift makes the padded edge visibly different
        # from normalizing a zero-padded input; the fold must match the
        # unfolded order (normalize, then pad).
        state = with_random_statistics(build_model(TINY, seed=1), seed=2)
        _mutable(state)["input_norm.beta"][:] = 3.0
        batch = noisy_tones(TINY, 8, seed=3)
        np.testing.assert_allclose(forward(state, batch), unfolded_forward64(state, batch),
                                   atol=self.ATOL)


class TestForwardMemory:
    def test_fold_and_oversized_batch_stay_small(self, full_state, traced_peak):
        # Unfolded, the (300, 4096, 128) float32 conv activation alone is
        # 629 MB; the fold holds a (4096, 17, 64) float32 array, and the
        # forward itself only (300, 4096) inputs and (300, 64) activations.
        state = full_state.copy()
        batch = noisy_tones(FULL, 300, seed=11).astype(np.float32)
        with traced_peak() as peak:
            probs = forward(state, batch)
        assert peak.bytes < 64 * 2**20
        np.testing.assert_allclose(probs[128:256], forward(state, batch[128:256]),
                                   rtol=0, atol=1e-6)


class TestFoldCache:
    # Training after a forward is covered in test_training.TestFoldCacheAfterTraining.

    def test_running_statistics_update_after_forward_refolds(self, rng):
        state = build_model(TINY, seed=3)
        batch = 3.0 * rng.standard_normal((6, 64)) + 1.0
        before = forward(state, batch)
        forward_train(state, batch)
        after = forward(state, batch)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, forward(state.copy(), batch))

    def test_in_place_write_to_a_folded_state_raises(self, rng):
        state = build_model(TINY, seed=3)
        forward(state, rng.standard_normal((2, 64)))
        with pytest.raises(ValueError, match="read-only"):
            state.tensors["hidden.bias"] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            state.tensors["conv_norm.var"][0] = 2.0

    def test_replaced_tensor_is_refused(self, rng):
        state = build_model(TINY, seed=3)
        batch = rng.standard_normal((4, 64))
        before = forward(state, batch)
        with pytest.raises(TypeError):
            state.tensors["output.bias"] = np.array([0.0, 0.0, 9.0, 0.0], dtype=np.float32)
        assert np.array_equal(forward(state, batch), before)

    def test_copy_of_a_folded_state_is_read_only_and_unfolded(self, rng):
        state = build_model(TINY, seed=3)
        forward(state, rng.standard_normal((2, 64)))
        clone = state.copy()
        assert clone._inference is None
        for name, tensor in clone.tensors.items():
            assert not tensor.flags.writeable
            assert not np.shares_memory(tensor, state.tensors[name])
        with pytest.raises(ValueError, match="read-only"):
            clone.tensors["hidden.bias"] += 1.0

    def test_view_taken_before_the_first_forward_cannot_serve_a_stale_fold(self, rng):
        state = build_model(TINY, seed=3)
        batch = rng.standard_normal((4, 64))
        view = state.tensors["output.bias"][:]
        forward(state, batch)
        with pytest.raises(ValueError, match="read-only"):
            view += 5.0
        assert np.array_equal(forward(state, batch), forward(state.copy(), batch))

    @pytest.mark.parametrize("source", ["build_model", "load_weights", "copy"])
    def test_unfolded_states_are_read_only(self, source):
        state = build_model(TINY, seed=3)
        if source == "load_weights":
            buffer = io.BytesIO()
            save_weights(state, buffer)
            state = load_weights(io.BytesIO(buffer.getvalue()))
        elif source == "copy":
            state = state.copy()
        assert state._inference is None
        for tensor in state.tensors.values():
            with pytest.raises(ValueError, match="read-only"):
                tensor += 1.0
