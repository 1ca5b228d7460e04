"""The four benchmark workloads.

Each workload is built from the run's seed and exposes:

- ``setup(tracer)``: what a user pays before the first result; timed.
- ``op(index, tracer)``: one timed unit of work; returns its output.
- ``items(output)``: how many symbols, samples or records ``op`` handled.
- ``check(index, output, tally)``: untimed correctness checks of one op.
- ``demod_b1(index, tracer)``: one batch-1 demodulation with the
  demodulator the workload exercises, for the latency metrics.
- ``finish(tally)``: checks that need every op's output.
- ``layer_metrics(tracer)``: per-layer metrics from the traced run.

Calls into the workbench go through ``tracer.span``/``tracer.wrap`` so the
traced run sees each layer boundary; with tracing off they cost nothing.
"""

import hashlib
import math
import os
import statistics

import numpy as np

from mfskmodem import dataset as ds
from mfskmodem.analysis import classical_demodulator
from mfskmodem.evaluate import ConfusionMatrix, accumulate_many, metrics, sweep_ber
from mfskmodem.nn import (
    TrainConfig,
    adam_init,
    adam_step,
    backward,
    build_model,
    forward,
    forward_train,
    load_weights,
    loss_ce,
    parameter_counts,
    save_weights,
    train,
)
from mfskmodem.profiles import get_profile
from mfskmodem.theory import ser_noncoherent_mfsk, snr_to_esn0

from spans import NullTracer


def _rows(batch):
    return len(batch)


def _noisy_windows(profile, count, snr_db, rng):
    """Unit-amplitude random tones plus white noise, made here rather than
    by the workbench so its synthesis code is not also the input source."""
    n = profile.symbol_len
    labels = rng.integers(0, profile.tone_count, count)
    phases = rng.uniform(0.0, 2.0 * np.pi, count)
    bins = profile.sync_bin + profile.tone_offset + labels
    x = np.sin((2.0 * np.pi / n) * bins[:, None] * np.arange(n)[None, :] + phases[:, None])
    var = 0.5 * (profile.sample_rate_hz / 2.0) / (profile.ref_bandwidth_hz * 10.0 ** (snr_db / 10.0))
    x += rng.normal(0.0, math.sqrt(var), x.shape)
    return x


def _median_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def _weights_equal(a, b):
    return (a.dtype == b.dtype and a.tensors.keys() == b.tensors.keys()
            and all(a.tensors[n].dtype == b.tensors[n].dtype
                    and np.array_equal(a.tensors[n], b.tensors[n]) for n in a.tensors))


class _Sha256Sink:
    """A write-only file object that only hashes what it is given."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, data):
        self.digest.update(data)


def _file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class SweepClassicalFull:
    """The paper's BER-vs-theory experiment: evaluate.sweep_ber with the
    classical demodulator on jt65a-full, one call per op over four SNR
    points from SER ~0.74 down to ~0.10."""

    name = "sweep-classical-full"
    item = "symbols"
    snr_db = (-26.0, -24.0, -22.0, -20.0)
    n_per_point = 2048  # one full evaluate._CHUNK per point
    z_limit = 4.0
    setups = 5
    op_share = 0.9
    traced_ops = 3
    latency_windows = 64

    def __init__(self, seed, workdir):
        self.seed = seed
        self.profile = get_profile("jt65a-full").modem
        self.params = {"profile": "jt65a-full", "snr_db": list(self.snr_db),
                       "n_per_point": self.n_per_point, "z_limit": self.z_limit}
        self.errors = {snr: [0, 0] for snr in self.snr_db}  # symbols, symbol errors
        self.pooled = set()  # op indices counted in self.errors

    def setup(self, tracer):
        self.demod = classical_demodulator(self.profile)
        m = self.profile.tone_count
        with tracer.span("theory.ser_noncoherent_mfsk"):
            self.theory = {snr: ser_noncoherent_mfsk(m, snr_to_esn0(self.profile, snr))
                           for snr in self.snr_db}
        rng = np.random.default_rng([self.seed, 0])
        self.windows = _noisy_windows(self.profile, self.latency_windows, -23.0, rng)
        # Warm-up: one short point, so FFT and allocator caches are filled.
        sweep_ber(self.demod, self.profile, [self.snr_db[0]], 256, seed=self.seed)

    def op(self, index, tracer):
        demod = tracer.wrap("analysis.demod", self.demod, _rows)
        with tracer.span("evaluate.sweep_ber"):
            return sweep_ber(demod, self.profile, self.snr_db, self.n_per_point,
                             seed=self.seed * 100_000 + index + 1)

    def items(self, rows):
        return sum(row.n for row in rows)

    def check(self, index, rows, tally):
        k = self.profile.bits_per_symbol
        for row in rows:
            symbol_errors = round(row.ser * row.n)
            bit_errors = round(row.ber_measured * k * row.n)
            tally.check(row.n == self.n_per_point
                        and symbol_errors <= bit_errors <= k * symbol_errors,
                        f"op {index} at {row.snr_db} dB: BER <= SER <= k*BER violated "
                        f"({bit_errors} bit errors, {symbol_errors} symbol errors)")
            # A traced run repeats each op index on the same seed; pool it once.
            if index not in self.pooled:
                self.errors[row.snr_db][0] += row.n
                self.errors[row.snr_db][1] += symbol_errors
        self.pooled.add(index)

    def demod_b1(self, index, tracer):
        with tracer.span("analysis.demod_b1"):
            return self.demod(self.windows[index % len(self.windows)][None, :])

    def finish(self, tally):
        for snr, (n, errors) in self.errors.items():
            if n == 0:
                continue
            p = self.theory[snr]
            z = (errors / n - p) / math.sqrt(p * (1.0 - p) / n)
            tally.check(abs(z) <= self.z_limit,
                        f"SER at {snr} dB is {errors / n:.5f} over {n} symbols, theory "
                        f"{p:.5f}: z={z:+.2f} beyond +/-{self.z_limit}")

    def layer_metrics(self, tracer):
        return _sweep_and_demod_metrics(tracer)


def _sweep_and_demod_metrics(tracer):
    demod_s = tracer.total("analysis.demod")
    symbols = tracer.counts["analysis.demod.items"]
    return {
        "evaluate.sweep_s": tracer.total("evaluate.sweep_ber"),
        "evaluate.sweep_self_s": tracer.self_time("evaluate.sweep_ber"),
        "evaluate.metrics_s": tracer.total("evaluate.accumulate_many", "evaluate.metrics"),
        "analysis.demod_s": demod_s,
        "analysis.demod_calls": tracer.counts["analysis.demod.calls"],
        "analysis.demod_symbols": symbols,
        "analysis.us_per_symbol": 1e6 * demod_s / symbols if symbols else 0.0,
        "analysis.demod_b1_us": 1e3 * _median_ms(tracer.durations("analysis.demod_b1")),
    }


class TrainM8:
    """nn.train on reduced-m8 arrays from the acceptance-08 spec (SNR
    -15..0 dB, batch 32, lr 1e-3).  The traced op drives the same loop as
    train() step by step, so its weights must equal train()'s bit for bit."""

    name = "train-m8"
    item = "samples"
    snr_range = (-15.0, 0.0)
    count = 1024
    epochs = 2
    batch_size = 32
    learning_rate = 1e-3
    setups = 5
    op_share = 0.9
    traced_ops = 2
    latency_windows = 64

    def __init__(self, seed, workdir):
        self.seed = seed
        self.profile = get_profile("reduced-m8")
        self.cfg = TrainConfig(learning_rate=self.learning_rate, batch_size=self.batch_size,
                               epochs=self.epochs, seed=self.seed)
        self.params = {"profile": "reduced-m8", "snr_range_db": list(self.snr_range),
                       "count": self.count, "epochs": self.epochs,
                       "batch_size": self.batch_size, "learning_rate": self.learning_rate}
        self.reference = None
        self.state = None

    def setup(self, tracer):
        spec = ds.DatasetSpec(self.profile.modem, self.count, self.snr_range, seed=self.seed)
        with tracer.span("dataset.generate"):
            data = ds.generate(spec)
        tracer.count("dataset.records", self.count)
        with tracer.span("dataset.data_arrays"):
            self.x, self.y = ds.data_arrays(data)

    def op(self, index, tracer):
        if not tracer.enabled:
            state, log = train(self.profile.model, self.cfg, self.x, self.y)
            return state, log.loss
        return self._traced_train(tracer)

    def _traced_train(self, tracer):
        """train()'s loop with a span at each call it makes."""
        cfg = self.cfg
        state = build_model(self.profile.model, cfg.seed)
        adam = adam_init(state)
        rng = np.random.default_rng(cfg.seed)
        count = self.x.shape[0]
        losses = []
        for _ in range(cfg.epochs):
            order = rng.permutation(count)
            loss_sum = 0.0
            for lo in range(0, count, cfg.batch_size):
                idx = order[lo: lo + cfg.batch_size]
                batch, labels = self.x[idx], self.y[idx]
                with tracer.span("nn.training.step"):
                    with tracer.span("nn.model.forward_train"):
                        probs, cache = forward_train(state, batch)
                    with tracer.span("nn.model.loss_ce"):
                        loss = loss_ce(probs, labels)
                    with tracer.span("nn.model.backward"):
                        grads = backward(state, cache, labels)
                    with tracer.span("nn.training.adam_step"):
                        adam_step(state, adam, grads, cfg)
                tracer.count("nn.training.steps")
                tracer.count("nn.model.train_samples", idx.size)
                loss_sum += loss * idx.size
            losses.append(loss_sum / count)
        return state, losses

    def items(self, output):
        return self.count * self.epochs

    def check(self, index, output, tally):
        state, losses = output
        self.state = state
        self.losses = losses
        tally.check(math.isfinite(losses[-1]) and losses[-1] < losses[0],
                    f"op {index}: final loss {losses[-1]} is not a finite value "
                    f"below the epoch-1 loss {losses[0]}")
        if self.reference is None:
            self.reference = state
        else:
            # Every op trains from the same seed: untraced ops repeat train()
            # and the traced op must reproduce it bit for bit.
            tally.check(_weights_equal(state, self.reference),
                        f"op {index}: weights differ from the first op's")

    def demod_b1(self, index, tracer):
        with tracer.span("nn.model.forward_b1"):
            return forward(self.state, self.x[index % self.latency_windows][None, :])

    def finish(self, tally):
        pass

    def layer_metrics(self, tracer):
        cfg = self.profile.model
        n, f, k, h, m = (cfg.input_len, cfg.conv_filters, cfg.conv_kernel,
                         cfg.hidden_units, cfg.classes)
        # Nominal multiply-add FLOPs of the conv and dense layers; backward
        # counts twice the forward (weight and input gradients).
        flops = 3 * 2 * (n * k * f + n * f * h + h * m) * tracer.counts["nn.model.train_samples"]
        fwd_bwd = tracer.total("nn.model.forward_train", "nn.model.backward")
        adam_s = tracer.total("nn.training.adam_step")
        step_s = tracer.total("nn.training.step")
        total, _, _ = parameter_counts(self.state)
        return {
            "dataset.generate_s": tracer.total("dataset.generate"),
            "dataset.data_arrays_s": tracer.total("dataset.data_arrays"),
            "dataset.records": tracer.counts["dataset.records"],
            "nn.model.forward_train_s": tracer.total("nn.model.forward_train"),
            "nn.model.backward_s": tracer.total("nn.model.backward"),
            "nn.model.train_flops": flops,
            "nn.model.train_gflop_per_s": flops / fwd_bwd / 1e9 if fwd_bwd else 0.0,
            "nn.model.forward_b1_ms": _median_ms(tracer.durations("nn.model.forward_b1")),
            "nn.model.forward_weight_bytes": total * self.state.dtype.itemsize,
            "nn.training.adam_step_s": adam_s,
            "nn.training.adam_share": adam_s / step_s if step_s else 0.0,
            "nn.training.steps": tracer.counts["nn.training.steps"],
            "nn.training.final_loss": self.losses[-1],
        }


class InferCnnFull:
    """The jt65a-full CNN (33.5M parameters) built at a fixed seed, saved
    and reloaded through nn.weights; ops are batch-64 forwards over the
    same windows the batch-1 latency calls see."""

    name = "infer-cnn-full"
    item = "symbols"
    batch = 64
    slices = 3
    snr_db = -20.0
    tie_tolerance = 1e-5
    setups = 3
    op_share = 0.5
    traced_ops = 3
    model_seed = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.profile = get_profile("jt65a-full")
        self.path = os.path.join(workdir, "infer-cnn-full.weights")
        self.params = {"profile": "jt65a-full", "model_seed": self.model_seed,
                       "batch": self.batch, "windows": self.batch * self.slices,
                       "snr_db": self.snr_db, "tie_tolerance": self.tie_tolerance}
        rng = np.random.default_rng([seed, 0])
        self.windows = _noisy_windows(self.profile.modem, self.batch * self.slices,
                                      self.snr_db, rng)
        self.round_trips = []
        self.b1_probs = {}
        self.b64_probs = {}

    def setup(self, tracer):
        self.state = None
        with tracer.span("nn.model.build_model"):
            built = build_model(self.profile.model, self.model_seed)
        with tracer.span("nn.weights.save_weights"):
            save_weights(built, self.path)
        with tracer.span("nn.weights.load_weights"):
            loaded = load_weights(self.path)
        self.round_trips.append(_weights_equal(built, loaded))
        self.weight_file_bytes = os.path.getsize(self.path)
        self.state = loaded

    def op(self, index, tracer):
        part = index % self.slices
        batch = self.windows[part * self.batch: (part + 1) * self.batch]
        with tracer.span("nn.model.forward_b64"):
            return part, forward(self.state, batch)

    def items(self, output):
        return self.batch

    def check(self, index, output, tally):
        part, probs = output
        self.b64_probs[part] = probs

    def demod_b1(self, index, tracer):
        window = index % len(self.windows)
        with tracer.span("nn.model.forward_b1"):
            probs = forward(self.state, self.windows[window][None, :])
        self.b1_probs[window] = probs[0]

    def finish(self, tally):
        for i, ok in enumerate(self.round_trips):
            tally.check(ok, f"setup {i}: weights changed in the save/load round trip")
        for part, probs in self.b64_probs.items():
            for row, window in enumerate(range(part * self.batch, (part + 1) * self.batch)):
                if window not in self.b1_probs:
                    continue
                single = self.b1_probs[window]
                top2 = np.sort(single)[-2:]
                tied = top2[1] - top2[0] < self.tie_tolerance
                tally.check(tied or np.argmax(probs[row]) == np.argmax(single),
                            f"window {window}: batch-64 argmax {np.argmax(probs[row])} "
                            f"!= batch-1 argmax {np.argmax(single)}")

    def layer_metrics(self, tracer):
        total, _, _ = parameter_counts(self.state)
        return {
            "nn.model.forward_b1_ms": _median_ms(tracer.durations("nn.model.forward_b1")),
            "nn.model.forward_b64_ms": _median_ms(tracer.durations("nn.model.forward_b64")),
            "nn.model.forward_weight_bytes": total * self.state.dtype.itemsize,
            "nn.weights.save_s": tracer.total("nn.weights.save_weights"),
            "nn.weights.load_s": tracer.total("nn.weights.load_weights"),
            "nn.weights.bytes": self.weight_file_bytes,
        }


class DatasetFull:
    """The library form of `mfskmodem synth` then `demod --classical` on
    jt65a-full: generate and write records to a file, read it back, take
    data_arrays, demodulate in 1024-record batches, accumulate and report."""

    name = "dataset-full"
    item = "records"
    count = 8000
    snr_range = (-26.0, -16.0)
    include_sync = True
    demod_batch = 1024
    warmup_count = 256
    setups = 5
    op_share = 0.9
    traced_ops = 2
    latency_windows = 64

    def __init__(self, seed, workdir):
        self.seed = seed
        self.profile = get_profile("jt65a-full").modem
        self.path = os.path.join(workdir, "dataset-full.mfskdset")
        self.params = {"profile": "jt65a-full", "count": self.count,
                       "snr_range_db": list(self.snr_range),
                       "include_sync": self.include_sync, "demod_batch": self.demod_batch}

    def setup(self, tracer):
        self.demod = classical_demodulator(self.profile)
        # Warm-up: a short pipeline, so page cache, FFT and allocator are warm.
        self._pipeline(self._spec(self.warmup_count, 0), NullTracer())

    def _spec(self, count, index):
        return ds.DatasetSpec(self.profile, count, self.snr_range,
                              seed=self.seed * 100_000 + index, include_sync=self.include_sync)

    def op(self, index, tracer):
        return self._pipeline(self._spec(self.count, index + 1), tracer)

    def _pipeline(self, spec, tracer):
        p = self.profile
        with open(self.path, "wb") as handle:
            with tracer.span("dataset.write_header"):
                ds.write_header(handle, int(round(p.sample_rate_hz)), p.symbol_len,
                                p.tone_count, spec.include_sync, spec.count)
            for i in range(spec.count):
                with tracer.span("dataset.generate_record"):
                    record = ds.generate_record(spec, i)
                with tracer.span("dataset.write_record"):
                    ds.write_record(handle, p.symbol_len, record)
        written = os.path.getsize(self.path)
        tracer.count("dataset.records", spec.count)
        tracer.count("dataset.bytes_written", written)
        with tracer.span("dataset.read"):
            loaded = ds.read(self.path)
        tracer.count("dataset.bytes_read", written)
        with tracer.span("dataset.data_arrays"):
            x, y = ds.data_arrays(loaded)
        demod = tracer.wrap("analysis.demod", self.demod, _rows)
        cm = ConfusionMatrix.empty(p.tone_count)
        for lo in range(0, y.size, self.demod_batch):
            sel = slice(lo, lo + self.demod_batch)
            predicted = np.asarray(demod(x[sel]))
            with tracer.span("evaluate.accumulate_many"):
                accumulate_many(cm, y[sel], predicted)
        with tracer.span("evaluate.metrics"):
            report = metrics(cm)
        self.windows = x[: self.latency_windows].copy()
        return spec, loaded, report

    def items(self, output):
        return output[0].count

    def check(self, index, output, tally):
        spec, loaded, _ = output
        sink = _Sha256Sink()
        ds.write(loaded, sink)
        tally.check(sink.digest.hexdigest() == _file_sha256(self.path),
                    f"op {index}: file re-written from read() is not byte-identical")
        expected = {}
        for i in range(spec.count):
            label = ds.record_params(spec, i)[0]
            expected[label] = expected.get(label, 0) + 1
        tally.check(ds.label_histogram(loaded) == expected,
                    f"op {index}: label histogram differs from the spec's draws")

    def demod_b1(self, index, tracer):
        with tracer.span("analysis.demod_b1"):
            return self.demod(self.windows[index % len(self.windows)][None, :])

    def finish(self, tally):
        pass

    def layer_metrics(self, tracer):
        write_s = tracer.total("dataset.write_header", "dataset.write_record")
        read_s = tracer.total("dataset.read")
        written = tracer.counts["dataset.bytes_written"]
        read = tracer.counts["dataset.bytes_read"]
        out = _sweep_and_demod_metrics(tracer)
        out.update({
            "dataset.generate_s": tracer.total("dataset.generate_record"),
            "dataset.write_s": write_s,
            "dataset.read_s": read_s,
            "dataset.data_arrays_s": tracer.total("dataset.data_arrays"),
            "dataset.records": tracer.counts["dataset.records"],
            "dataset.bytes": written,
            "dataset.bytes_read": read,
            "dataset.write_mb_per_s": written / write_s / 1e6 if write_s else 0.0,
            "dataset.read_mb_per_s": read / read_s / 1e6 if read_s else 0.0,
        })
        return out


WORKLOADS = {w.name: w for w in (SweepClassicalFull, TrainM8, InferCnnFull, DatasetFull)}
