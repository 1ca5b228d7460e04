"""Tests for Adam, the training loop, gradient checking, and the CNN demodulator."""

import io
import sys
import threading

import numpy as np
import pytest

from conftest import adam_step_with, synthesize_symbol
from mfskmodem.nn import (
    GRAD_CHECK_CONFIG,
    ModelConfig,
    TrainConfig,
    adam_init,
    adam_step,
    backward,
    build_model,
    forward,
    forward_train,
    grad_check,
    load_weights,
    loss_ce,
    model_demodulator,
    save_weights,
    train,
    train_step,
)
from mfskmodem.dataset import DatasetSpec, data_arrays, generate
from mfskmodem.nn import training
from mfskmodem.nn.model import _mutable
from mfskmodem.nn.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
from mfskmodem.profiles import get_profile
from mfskmodem.signal import ModemProfile

TINY = GRAD_CHECK_CONFIG  # N=64, F=4, K=8, H=8, M=4

# Desk-scale overfit fixture: reduced-size network, 4 tones, 200 noiseless
# random-phase symbols.
OVERFIT_MODEL = ModelConfig(input_len=512, conv_filters=32, conv_kernel=16,
                            hidden_units=32, classes=4)
OVERFIT_PROFILE = ModemProfile(11025.0, 512, 4, 59, 2, 2500.0)


def overfit_data(count=200, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, count)
    x = np.stack([
        synthesize_symbol(OVERFIT_PROFILE, int(s), phase=p)
        for s, p in zip(labels, rng.uniform(0, 2 * np.pi, count))
    ]).astype(np.float32)
    return x, labels


@pytest.fixture(scope="module")
def overfit_run():
    """One 6-epoch training on the 200-symbol noiseless corpus, shared."""
    x, labels = overfit_data()
    state, log = train(OVERFIT_MODEL, TrainConfig(epochs=6, seed=1), x, labels)
    return x, labels, state, log


class TestAdam:
    def test_first_step_matches_bias_corrected_algebra(self):
        # From zero moments, step 1 gives m_hat = g and v_hat = g**2, so the
        # update is -lr * g / (|g| + eps): within eps of -lr for positive g.
        state = build_model(TINY, seed=0)
        adam = adam_init(state)
        cfg = TrainConfig(learning_rate=0.01)
        g = 0.37
        grads = {n: np.zeros_like(state.tensors[n]) for n in state.trainable_names}
        grads["hidden.bias"] = np.full_like(state.tensors["hidden.bias"], g)
        before = {n: state.tensors[n].copy() for n in state.trainable_names}

        adam_step_with(state, adam, grads, cfg)

        delta = state.tensors["hidden.bias"] - before["hidden.bias"]
        expected = -cfg.learning_rate * g / (abs(g) + ADAM_EPSILON)
        np.testing.assert_allclose(delta, expected, rtol=1e-5)
        np.testing.assert_allclose(delta, -cfg.learning_rate, rtol=1e-4)
        for name in state.trainable_names:
            if name != "hidden.bias":
                assert np.array_equal(state.tensors[name], before[name])

    def test_zero_gradients_leave_parameters_unchanged(self):
        state = build_model(TINY, seed=0)
        adam = adam_init(state)
        grads = {n: np.zeros_like(state.tensors[n]) for n in state.trainable_names}
        before = {n: state.tensors[n].copy() for n in state.trainable_names}
        adam_step_with(state, adam, grads, TrainConfig())
        for name in state.trainable_names:
            assert np.array_equal(state.tensors[name], before[name])

    def test_a_foreign_gradient_mapping_is_refused(self):
        state = build_model(TINY, seed=0)
        adam = adam_init(state)
        grads = {n: np.ones_like(state.tensors[n]) for n in state.trainable_names}
        before = {n: state.tensors[n].copy() for n in state.trainable_names}
        with pytest.raises(ValueError, match="backward"):
            adam_step(state, adam, grads, TrainConfig())
        assert adam.step == 0
        for name in state.trainable_names:
            assert np.array_equal(state.tensors[name], before[name])

    def test_five_steps_match_textbook_adam(self):
        # Kingma & Ba 2015, Algorithm 1, one scalar at a time in float64.
        state = build_model(TINY, seed=3, dtype=np.float64)
        adam = adam_init(state)
        cfg = TrainConfig(learning_rate=0.01)
        rng = np.random.default_rng(4)
        names = state.trainable_names
        theta = {n: state.tensors[n].ravel().tolist() for n in names}
        m = {n: [0.0] * len(theta[n]) for n in names}
        v = {n: [0.0] * len(theta[n]) for n in names}
        for step in range(1, 6):
            grads = {n: rng.standard_normal(state.tensors[n].shape)
                     for n in state.trainable_names}
            adam_step_with(state, adam, grads, cfg)
            for n in names:
                for i, g in enumerate(grads[n].ravel().tolist()):
                    m[n][i] = ADAM_BETA1 * m[n][i] + (1 - ADAM_BETA1) * g
                    v[n][i] = ADAM_BETA2 * v[n][i] + (1 - ADAM_BETA2) * g * g
                    m_hat = m[n][i] / (1 - ADAM_BETA1 ** step)
                    v_hat = v[n][i] / (1 - ADAM_BETA2 ** step)
                    theta[n][i] -= cfg.learning_rate * m_hat / (v_hat ** 0.5 + ADAM_EPSILON)
        assert adam.step == 5
        for n in names:
            np.testing.assert_allclose(state.tensors[n].ravel(), theta[n], rtol=1e-12)
        np.testing.assert_allclose(adam.m, np.concatenate([m[n] for n in names]), rtol=1e-12)
        np.testing.assert_allclose(adam.v, np.concatenate([v[n] for n in names]), rtol=1e-12)


def per_tensor_adam(params, m, v, grads, step, lr):
    """Adam one tensor at a time, each with its own float32 scratch."""
    correction1 = 1.0 - ADAM_BETA1**step
    correction2 = 1.0 - ADAM_BETA2**step
    for name, g in grads.items():
        scratch = np.multiply(g, 1.0 - ADAM_BETA1, dtype=m[name].dtype)
        m[name] *= ADAM_BETA1
        m[name] += scratch
        np.square(g, out=scratch)
        scratch *= 1.0 - ADAM_BETA2
        v[name] *= ADAM_BETA2
        v[name] += scratch
        np.divide(v[name], correction2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPSILON
        np.divide(m[name], scratch, out=scratch)
        scratch *= lr / correction1
        params[name] -= scratch


class TestArenas:
    def test_successive_backwards_write_one_arena(self, rng):
        state = build_model(TINY, seed=0)
        batches = [rng.standard_normal((4, 64)) for _ in range(2)]
        labels = rng.integers(0, TINY.classes, 4)
        want = []
        for batch in batches:
            _, cache = forward_train(state.copy(), batch)
            fresh = backward(state.copy(), cache, labels)
            want.append({n: fresh[n].copy() for n in state.trainable_names})

        returned = [backward(state, forward_train(state, batch)[1], labels)
                    for batch in batches]
        arena, _ = state._grads
        assert arena.size == sum(state.tensors[n].size for n in state.trainable_names)
        for name in state.trainable_names:
            assert np.shares_memory(returned[0][name], arena)
            assert np.shares_memory(returned[1][name], returned[0][name])
            # The second backward overwrote the first one's views.
            assert np.array_equal(returned[0][name], want[1][name])
        assert not np.array_equal(want[0]["hidden.weight"], want[1]["hidden.weight"])

    def test_moments_are_one_zeroed_arena_each(self):
        state = build_model(TINY, seed=0)
        adam = adam_init(state)
        assert not np.shares_memory(adam.m, adam.v)
        for moment in (adam.m, adam.v):
            assert moment.shape == (state._trainable_size,)
            assert moment.dtype == state.dtype
            assert not np.any(moment)
        assert state._trainable_size == sum(state.tensors[n].size for n in state.trainable_names)

    def test_inference_only_states_hold_no_gradient_arena(self, rng):
        state = build_model(TINY, seed=0)
        assert state._grads is None
        batch = rng.standard_normal((4, 64))
        forward(state, batch)
        forward_train(state, batch)
        assert state._grads is None
        buffer = io.BytesIO()
        save_weights(state, buffer)
        buffer.seek(0)
        assert load_weights(buffer)._grads is None
        _, cache = forward_train(state, batch)
        backward(state, cache, rng.integers(0, TINY.classes, 4))
        assert state._grads is not None
        assert state.copy()._grads is None
        assert state.copy()._scratch is None
        trained, _ = train(TINY, TrainConfig(epochs=1, batch_size=3),
                           rng.standard_normal((8, 64)), rng.integers(0, TINY.classes, 8))
        assert trained._grads is None
        assert trained._scratch is None

    def test_reused_step_buffers_equal_fresh_ones(self):
        # 100 records at batch 32 end each epoch in a 4-row batch, which runs
        # on the leading rows of train()'s 32-row buffers.  The reference loop
        # releases the scratch before every step, so each step makes its own.
        x, labels = overfit_data(count=100)
        cfg = TrainConfig(epochs=2, seed=4)
        trained, _ = train(OVERFIT_MODEL, cfg, x, labels)

        state = build_model(OVERFIT_MODEL, cfg.seed)
        adam = adam_init(state)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.epochs):
            order = rng.permutation(labels.size)
            for lo in range(0, labels.size, cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                state._scratch = None
                train_step(state, adam, x[idx], labels[idx], cfg)
        assert trained._arena.tobytes() == state._arena.tobytes()

    def test_warm_step_allocates_no_large_array(self, rng, traced_peak):
        # A reduced-m8 step's (B*N, ...) arrays are 8 MiB; a warm step reuses them.
        config = get_profile("reduced-m8").model
        state = build_model(config, seed=0)
        adam = adam_init(state)
        batch = rng.standard_normal((32, config.input_len)).astype(np.float32)
        labels = rng.integers(0, config.classes, 32)
        train_step(state, adam, batch, labels, TrainConfig())
        with traced_peak() as peak:
            train_step(state, adam, batch, labels, TrainConfig())
        assert peak.bytes < 1 << 20

    def test_blocked_adam_equals_per_tensor_reference(self, monkeypatch):
        # 30-element blocks put block edges inside conv.kernel, hidden.weight,
        # hidden.bias and output.weight, and leave a partial last block.
        monkeypatch.setattr(training, "_BLOCK", 30)
        state = build_model(TINY, seed=2)
        adam = adam_init(state)
        cfg = TrainConfig(learning_rate=0.01)
        params = {n: state.tensors[n].copy() for n in state.trainable_names}
        m = {n: np.zeros_like(p) for n, p in params.items()}
        v = {n: np.zeros_like(p) for n, p in params.items()}
        rng = np.random.default_rng(7)
        for step in range(1, 4):
            grads = {n: rng.standard_normal(p.shape).astype(np.float32)
                     for n, p in params.items()}
            adam_step_with(state, adam, grads, cfg)
            per_tensor_adam(params, m, v, grads, step, cfg.learning_rate)
        for name in state.trainable_names:
            assert np.array_equal(state.tensors[name], params[name])
        names = state.trainable_names
        assert np.array_equal(adam.m, np.concatenate([m[n].ravel() for n in names]))
        assert np.array_equal(adam.v, np.concatenate([v[n].ravel() for n in names]))


class TestTrainStep:
    def test_self_labels_give_zero_gradient(self, rng):
        # An output bias that saturates the softmax to exactly class 0, with
        # label 0 for every row, makes (p - y) vanish bit for bit, so every
        # trainable tensor stays bit-identical.
        state = build_model(TINY, seed=5)
        _mutable(state)["output.bias"][0] = 1000.0
        adam = adam_init(state)
        batch = rng.standard_normal((4, 64)).astype(np.float32)
        labels = np.zeros(4, dtype=np.int64)
        probs, _ = forward_train(state.copy(), batch)
        assert np.array_equal(probs, np.eye(TINY.classes)[labels])
        before = {n: state.tensors[n].copy() for n in state.trainable_names}
        train_step(state, adam, batch, labels, TrainConfig())
        for name in state.trainable_names:
            assert np.array_equal(state.tensors[name], before[name])

    def test_divergence_raises_diagnostic(self, monkeypatch):
        built = []
        monkeypatch.setattr(training, "build_model",
                            lambda *args: built.append(build_model(*args)) or built[-1])
        x, labels = overfit_data(count=64)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="diverged"):
                train(OVERFIT_MODEL, TrainConfig(learning_rate=1e12, epochs=2, seed=2),
                      x, labels)
        # The failed run released its step buffers and gradient arena.
        assert built[0]._scratch is None
        assert built[0]._grads is None


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [-0.001, 0.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            TrainConfig(learning_rate=lr)


class TestGradCheck:
    def test_analytic_gradients_match_finite_differences(self):
        assert grad_check(seed=0) < 1e-4

    def test_batch_statistics_are_differentiated(self):
        # A second seed re-samples parameters and batch, still through the
        # train-mode (batch statistic) normalization path.
        assert grad_check(seed=3) < 1e-4

    def test_training_outputs_ignore_running_statistics(self, rng):
        # forward_train normalizes with batch statistics and backward never
        # reads the running ones, so a state whose running statistics are far
        # from identity gives the same probabilities and gradients bit for bit.
        state = build_model(GRAD_CHECK_CONFIG, seed=0, dtype=np.float64)
        shifted = state.copy()
        t = _mutable(shifted)
        for prefix in ("input_norm", "conv_norm", "hidden_norm"):
            size = t[prefix + ".mean"].size
            t[prefix + ".mean"][:] = rng.normal(0.0, 2.0, size)
            t[prefix + ".var"][:] = rng.uniform(0.1, 5.0, size)
        batch = rng.standard_normal((4, GRAD_CHECK_CONFIG.input_len))
        labels = rng.integers(0, GRAD_CHECK_CONFIG.classes, 4)
        probs, cache = forward_train(state, batch)
        shifted_probs, shifted_cache = forward_train(shifted, batch)
        assert np.array_equal(probs, shifted_probs)
        grads = backward(state, cache, labels)
        shifted_grads = backward(shifted, shifted_cache, labels)
        for name in state.trainable_names:
            assert np.array_equal(grads[name], shifted_grads[name])

    def test_linear_path_is_exact_to_quadrature_error(self):
        # Bias the hidden layer strongly positive so no probe straddles the
        # ReLU kink; central differences then see a smooth function and the
        # mismatch drops to finite-difference truncation level.
        state = build_model(TINY, seed=0, dtype=np.float64)
        _mutable(state)["hidden.bias"] += 5.0
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((4, 64))
        labels = rng.integers(0, 4, 4)
        _, cache = forward_train(state, batch)
        assert np.all(cache["relu_mask"])
        grads = backward(state, cache, labels)

        worst = 0.0
        for name in ("conv.kernel", "hidden.weight", "output.weight", "conv_norm.gamma"):
            flat = _mutable(state)[name].reshape(-1)
            for idx in rng.choice(flat.size, size=3, replace=False):
                original = flat[idx]
                h = 1e-5 * max(1.0, abs(original))
                flat[idx] = original + h
                up_probs, _ = forward_train(state, batch)
                flat[idx] = original - h
                down_probs, _ = forward_train(state, batch)
                flat[idx] = original
                fd = (loss_ce(up_probs, labels) - loss_ce(down_probs, labels)) / (2 * h)
                analytic = grads[name].reshape(-1)[idx]
                worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6))
        assert worst < 1e-6


class TestFoldCacheAfterTraining:
    # forward() folds and caches inference maps; an update must not leave
    # a stale fold behind.

    def test_training_after_forward_serves_no_stale_fold(self, rng):
        state = build_model(TINY, seed=3)
        batch = rng.standard_normal((6, 64))
        labels = rng.integers(0, TINY.classes, 6)
        forward(state, batch)
        train_step(state, adam_init(state), batch, labels, TrainConfig(learning_rate=0.05))
        assert np.array_equal(forward(state, batch), forward(state.copy(), batch))

    def test_adam_step_after_forward_refolds(self, rng):
        state = build_model(TINY, seed=3)
        batch = rng.standard_normal((6, 64))
        before = forward(state, batch)
        grads = {n: np.ones_like(state.tensors[n]) for n in state.trainable_names}
        adam_step_with(state, adam_init(state), grads, TrainConfig(learning_rate=0.05))
        after = forward(state, batch)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, forward(state.copy(), batch))

    def test_concurrent_first_forwards_fold_alike_and_leave_a_trainable_state(self, rng):
        state = build_model(TINY, seed=4)
        batch = rng.standard_normal((6, 64))
        want = forward(state.copy(), batch)
        start = threading.Barrier(8)
        results = [None] * 8

        def call(i):
            start.wait(timeout=10)
            results[i] = forward(state, batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for probs in results:
            assert np.array_equal(probs, want)
        grads = {n: np.ones_like(state.tensors[n]) for n in state.trainable_names}
        adam_step_with(state, adam_init(state), grads, TrainConfig())
        assert np.array_equal(forward(state, batch), forward(state.copy(), batch))


class TestTrain:
    def test_overfits_noiseless_tones(self, overfit_run):
        x, labels, state, log = overfit_run
        assert len(log.loss) == 6
        assert log.accuracy[-1] == 1.0
        post = np.mean(np.argmax(forward(state, x), axis=1) == labels)
        assert post == 1.0

    def test_loss_decreases_and_accuracy_increases(self, overfit_run):
        _, _, _, log = overfit_run
        assert log.loss[-1] < log.loss[0]
        assert log.accuracy[-1] > log.accuracy[0]

    def test_deterministic_given_seed(self):
        x, labels = overfit_data(count=96)
        cfg = TrainConfig(epochs=2, seed=9)
        state_a, log_a = train(OVERFIT_MODEL, cfg, x, labels)
        state_b, log_b = train(OVERFIT_MODEL, cfg, x, labels)
        assert log_a.loss == log_b.loss
        assert log_a.accuracy == log_b.accuracy
        for name in state_a.tensors:
            assert np.array_equal(state_a.tensors[name], state_b.tensors[name])

    def test_a_row_view_trains_as_its_dense_copy(self):
        spec = DatasetSpec(OVERFIT_PROFILE, 120, (0.0, 10.0), seed=8, include_sync=True)
        x, y = data_arrays(generate(spec))
        assert y.size < spec.count
        cfg = TrainConfig(epochs=2, batch_size=16, seed=3)
        state_view, log_view = train(OVERFIT_MODEL, cfg, x, y)
        state_dense, log_dense = train(OVERFIT_MODEL, cfg, np.asarray(x), y)
        assert (log_view.loss, log_view.accuracy) == (log_dense.loss, log_dense.accuracy)
        for name in state_view.tensors:
            assert state_view.tensors[name].tobytes() == state_dense.tensors[name].tobytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train(TINY, TrainConfig(), np.empty((0, 64)), np.empty(0, dtype=int))

    def test_out_of_range_labels_rejected(self, rng):
        with pytest.raises(ValueError, match="labels"):
            train(TINY, TrainConfig(), rng.standard_normal((8, 64)),
                  np.full(8, 4))

    def test_one_label_short_rejected(self, rng):
        with pytest.raises(ValueError, match="one label per batch row"):
            train(TINY, TrainConfig(), rng.standard_normal((8, 64)), np.zeros(7, dtype=int))

    def test_row_width_refused_before_the_model_is_built(self, rng, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("build_model ran")
        monkeypatch.setattr(training, "build_model", unbuilt)
        with pytest.raises(ValueError, match="rows are 65 samples wide, the model takes 64"):
            train(TINY, TrainConfig(), rng.standard_normal((8, 65)), np.zeros(8, dtype=int))


    @pytest.mark.parametrize("labels", [np.arange(8) % 4 * 1.0, np.arange(8) % 2 == 0],
                             ids=["float", "bool"])
    def test_non_integer_labels_rejected(self, rng, labels):
        with pytest.raises(ValueError, match="1-D array of class indices"):
            train(TINY, TrainConfig(), rng.standard_normal((8, 64)), labels)


class TestPredict:
    def test_trained_model_decodes_every_tone(self, overfit_run):
        _, _, state, _ = overfit_run
        for s in range(4):
            w = synthesize_symbol(OVERFIT_PROFILE, s, phase=2.2)[None, :]
            decoded = model_demodulator(state)(w)
            probs = forward(state, w)[0]
            assert decoded.tolist() == [s]
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_trained_model_sweeps_clean_at_high_snr(self, overfit_run):
        from mfskmodem.evaluate import sweep_ber

        _, _, state, _ = overfit_run
        rows = sweep_ber(model_demodulator(state), OVERFIT_PROFILE, [30.0],
                         1000, seed=6)
        assert rows[0].ser <= 0.01

    def test_untrained_model_returns_valid_symbol(self, rng):
        state = build_model(TINY, seed=0)
        x = rng.standard_normal(64)
        decoded = model_demodulator(state)(x[None, :])
        probs = forward(state, x[None, :])[0]
        assert 0 <= decoded[0] < 4
        assert probs.shape == (4,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_length_mismatch_rejected(self, rng):
        state = build_model(TINY, seed=0)
        with pytest.raises(ValueError, match=r"batch must be \(B, 64\)"):
            model_demodulator(state)(rng.standard_normal(65))
