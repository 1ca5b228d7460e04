"""Command-line workbench binding synthesis, analysis, training, and sweeps.

Every command is deterministic given an explicit ``--seed``; leaving it
out draws one from OS entropy and prints it so the run can be reproduced.
Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.

Importing this module loads numpy and its OpenBLAS.  ``--threads`` (or
the MFSKMODEM_THREADS environment variable) sets that loaded OpenBLAS
for the command, and the previous count comes back when ``main``
returns.  ``sweep`` runs its points on that many threads instead, with
OpenBLAS at one thread each.  ``--threads 1`` is the bit-reproducible
reference mode.
"""

import argparse
import contextlib
import ctypes
import hashlib
import math
import os
import sys

import numpy as np

from . import dataset as ds
from .analysis import autocorrelation, classical_demodulator, energy_spectrum
from .errors import FileFormatError
from .evaluate import (DEMOD_BATCH, ConfusionMatrix, accumulate_many, bench_latency, metrics,
                       sweep_ber, write_ber_csv, write_lines, write_ser_csv)
from .nn import TrainConfig, load_weights, model_demodulator, save_weights, train
from .profiles import get_profile
from .signal import SYNC, lowpass, noisy_windows, tone_bin, tone_windows
from .theory import ebn0_to_esn0, ser_noncoherent_mfsk, ser_noncoherent_mfsk_linear, ser_to_ber

_GRID_MAX_POINTS = 10**6  # the most steps, (hi - lo) / step, a lo:hi:step grid may span


class ConfigError(Exception):
    """Bad profile name, profile file or training setting: a usage-level failure (exit 2)."""


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < low:
        raise argparse.ArgumentTypeError(f"value must be >= {low}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    """A --seed: numpy's seed sequences take only non-negative integers."""
    return _int_at_least(text, 0)


def _bench_count(text: str) -> int:
    value = _positive_int(text)
    if value < 100:
        raise argparse.ArgumentTypeError("benchmark needs at least 100 symbols")
    return value


def _finite_db(text: str) -> float:
    """One finite dB value; argparse turns the ValueError into its usage error."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _snr_spec(text: str):
    """Either a fixed SNR ("-25") or a uniform range ("-30..0"), in dB."""
    try:
        bounds = [_finite_db(v) for v in text.split("..", 1)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad SNR spec {text!r} (use e.g. -25 or -30..0)")
    lo, hi = bounds[0], bounds[-1]
    if lo > hi:
        raise argparse.ArgumentTypeError("SNR range must have lo <= hi")
    return lo, hi


def _grid(text: str):
    """Comma-separated dB values, or lo:hi:step (inclusive of hi within 1e-9)."""
    try:
        if ":" in text:
            lo, hi, step = map(_finite_db, text.split(":"))
            if step <= 0 or hi < lo or (hi - lo) / step > _GRID_MAX_POINTS:
                raise ValueError
            points = []
            value = lo
            while value <= hi + 1e-9:
                points.append(round(value, 12))
                if value + step == value:  # a step below the float spacing never ends
                    raise ValueError
                value += step
            return points
        return [_finite_db(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r} (use e.g. -25,-20,-15 or -30:0:5)"
        )


def _theory_grid(text: str):
    """Like _grid but the token "chance" marks the zero-Es/N0 row."""
    points = []
    for piece in text.split(","):
        if piece.strip().lower() == "chance":
            points.append("chance")
        else:
            points.extend(_grid(piece))
    return points


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int.from_bytes(os.urandom(4), "little")
    print(f"seed={seed}")
    return seed


def _profile(args):
    try:
        return get_profile(args.profile, args.profiles_file)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_dataset(path, profile):
    """Read a dataset file, refusing from its header, before any record is read,
    one that disagrees with the profile."""
    modem = profile.modem

    def check(sample_rate_hz, symbol_len, tone_count):
        for field, stored, expected in (
                ("sample rate", sample_rate_hz, int(round(modem.sample_rate_hz))),
                ("symbol_len", symbol_len, modem.symbol_len),
                ("tone_count", tone_count, modem.tone_count)):
            if stored != expected:
                raise ValueError(f"dataset {field} {stored} does not match profile "
                                 f"{profile.name!r} {field} {expected}")

    return ds.read(path, check)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_synth(args) -> int:
    profile = _profile(args)
    seed = _resolve_seed(args)
    spec = ds.DatasetSpec(profile.modem, args.count, args.snr, seed,
                          include_sync=args.include_sync)
    handle = open(args.out, "wb")
    try:
        with handle:
            ds.write_header(handle, int(round(profile.modem.sample_rate_hz)),
                            profile.modem.symbol_len, profile.modem.tone_count,
                            spec.include_sync, spec.count)
            for i in range(spec.count):
                ds.write_record(handle, profile.modem.symbol_len, ds.generate_record(spec, i))
    except BaseException:
        os.remove(args.out)
        raise
    print(f"records={spec.count} sha256={_sha256(args.out)}")
    return 0


def _cmd_analyze(args) -> int:
    profile = _profile(args)
    if args.dataset is not None:
        loaded = _read_dataset(args.dataset, profile)
        count = len(loaded.label)
        if not 0 <= args.index < count:
            raise ValueError(f"record index {args.index} out of range [0, {count})")
        samples, rate = loaded.samples(args.index).astype(np.float64), loaded.sample_rate_hz
        print(f"record={args.index} label={loaded.label[args.index]} "
              f"snr_db={loaded.snr_db[args.index]:.2f}")
    else:
        rng = np.random.default_rng(_resolve_seed(args))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        bins = [tone_bin(profile.modem, SYNC if args.sync else args.tone)]
        x = (tone_windows(profile.modem, bins, phase) if args.snr_db is None
             else noisy_windows(profile.modem, bins, phase, args.snr_db, rng))
        samples, rate = x[0], profile.modem.sample_rate_hz
    if args.lowpass:
        samples = lowpass(samples, rate, profile.modem.ref_bandwidth_hz)

    excerpt = samples if args.excerpt is None else samples[: args.excerpt]
    write_lines(f"{args.out_prefix}_waveform.csv",
                ["sample,value"] + [f"{i},{value:.10g}" for i, value in enumerate(excerpt)])

    energies = energy_spectrum(samples)
    bin_width_hz = rate / samples.size
    write_lines(f"{args.out_prefix}_esd.csv", ["bin,frequency_hz,energy"] + [
        f"{i},{i * bin_width_hz:.6f},{energy:.10g}" for i, energy in enumerate(energies)])

    acf = autocorrelation(samples, min(args.max_lag, samples.size - 1))
    write_lines(f"{args.out_prefix}_autocorr.csv",
                ["lag,value"] + [f"{lag},{value:.10g}" for lag, value in enumerate(acf)])

    print(f"esd_peak_bin={int(np.argmax(energies))}")
    return 0


def _cmd_train(args) -> int:
    profile = _profile(args)
    seed = _resolve_seed(args)
    try:
        cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                          epochs=args.epochs, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    loaded = _read_dataset(args.dataset, profile)
    x, y = ds.data_arrays(loaded)
    state, log = train(profile.model, cfg, x, y)
    save_weights(state, args.out_weights)
    write_lines(args.out_log, ["epoch,loss,accuracy,seconds"] + [
        f"{epoch},{loss:.10g},{acc:.10g},{sec:.6g}"
        for epoch, (loss, acc, sec) in enumerate(zip(log.loss, log.accuracy, log.seconds), 1)])
    print(f"final_accuracy={log.accuracy[-1]:.4f} weights={args.out_weights} "
          f"sha256={_sha256(args.out_weights)}")
    return 0


def _build_demod(args, profile):
    if args.classical:
        return classical_demodulator(profile.modem)
    state = load_weights(args.weights)
    if state.config != profile.model:
        raise ValueError(f"weights hold {state.config}, profile {profile.name!r} {profile.model}")
    return model_demodulator(state)


def _cmd_demod(args) -> int:
    profile = _profile(args)
    demod = _build_demod(args, profile)
    loaded = _read_dataset(args.dataset, profile)
    x, y = ds.data_arrays(loaded)
    skipped = len(loaded.label) - y.size
    if skipped:
        print(f"skipped {skipped} sync records")

    cm = ConfusionMatrix.empty(profile.modem.tone_count)
    for lo in range(0, y.size, DEMOD_BATCH):
        sel = slice(lo, lo + DEMOD_BATCH)
        accumulate_many(cm, y[sel], np.asarray(demod(x[sel])))
    report = metrics(cm)
    write_lines(args.out_report, report.to_text().splitlines())
    if args.out_confusion:
        write_lines(args.out_confusion, [",".join(str(v) for v in row) for row in cm.counts])
    print(f"symbols={cm.total} accuracy={report.accuracy:.4f} ser={report.ser:.4g}")
    return 0


def _cmd_sweep(args) -> int:
    profile = _profile(args)
    demod = _build_demod(args, profile)
    seed = _resolve_seed(args)
    workers = _thread_count(args.threads)
    # Each pool thread runs whole points; OpenBLAS gets one thread per point.
    with _pinned_threads(1 if workers > 1 else None):
        rows = sweep_ber(demod, profile.modem, args.snr, args.n, seed, workers=workers)
    if args.mode == "ser":
        write_ser_csv(rows, args.out)
        for row in rows:
            print(f"snr_db={row.snr_db:.6g} ser={row.ser:.6g} n={row.n}")
    else:
        write_ber_csv(rows, args.out)
        for row in rows:
            print(f"snr_db={row.snr_db:.6g} ebn0_db={row.ebn0_db:.4g} "
                  f"ber={row.ber_measured:.6g} theory={row.ber_theory:.6g} n={row.n}")
    return 0


def _cmd_theory(args) -> int:
    m = args.m
    lines = ["ebn0_db,ser,ber"]
    for point in args.ebn0:
        if point == "chance":
            ser, label = ser_noncoherent_mfsk_linear(m, 0.0), "chance"
        else:
            ser, label = ser_noncoherent_mfsk(m, ebn0_to_esn0(m, point)), f"{point:.6g}"
        lines.append(f"{label},{ser:.12g},{ser_to_ber(m, ser):.12g}")
    write_lines(args.out, lines)
    print(f"wrote {len(args.ebn0)} points to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    profile = _profile(args)
    demod = _build_demod(args, profile)
    report = bench_latency(demod, profile.modem, args.n)
    print(f"mean_s={report.mean_s:.6g} p50_s={report.p50_s:.6g} "
          f"p99_s={report.p99_s:.6g} symbol_interval_s={report.symbol_interval_s:.4f} "
          f"real_time={'true' if report.real_time else 'false'}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfskmodem",
        description="Software-defined MFSK modem workbench",
    )
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="pin BLAS thread pools (1 = bit-reproducible reference mode)")
    parser.add_argument("--profiles-file", default=None,
                        help="INI file with extra named profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--profile", default="jt65a-full",
                       help="named profile (default: jt65a-full)")
        return p

    p = add("synth", _cmd_synth, "synthesize a labeled symbol dataset file")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--snr", type=_snr_spec, required=True,
                   help="fixed dB value or lo..hi uniform range")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--include-sync", action="store_true")
    p.add_argument("--out", required=True)

    p = add("analyze", _cmd_analyze, "emit waveform, ESD, and autocorrelation CSVs")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="dataset file to pull a record from")
    source.add_argument("--tone", type=int, help="synthesize this data tone")
    source.add_argument("--sync", action="store_true", help="synthesize the sync tone")
    p.add_argument("--index", type=int, default=0, help="record index within --dataset")
    p.add_argument("--snr-db", type=_finite_db, default=None,
                   help="add noise at this SNR (synthesis path; omit for noiseless)")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--lowpass", action="store_true",
                   help="brick-wall low-pass at the reference bandwidth")
    p.add_argument("--excerpt", type=_positive_int, default=None,
                   help="limit the waveform CSV to this many samples")
    p.add_argument("--max-lag", type=_positive_int, default=400)
    p.add_argument("--out-prefix", required=True)

    p = add("train", _cmd_train, "train the CNN demodulator on a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=_positive_int, default=6)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--out-log", required=True)

    p = add("demod", _cmd_demod, "demodulate a dataset and report metrics")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--classical", action="store_true")
    which.add_argument("--weights", help="weights file for the CNN demodulator")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-confusion", default=None)

    p = add("sweep", _cmd_sweep, "Monte-Carlo SER or BER sweep over SNR points")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--classical", action="store_true")
    which.add_argument("--weights")
    p.add_argument("--mode", choices=("ser", "ber"), default="ser")
    p.add_argument("--snr", type=_grid, required=True,
                   help="dB points: list (-25,-20) or range lo:hi:step")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="symbols per SNR point")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("theory", help="closed-form SER/BER curve CSV")
    p.set_defaults(func=_cmd_theory)
    p.add_argument("--m", type=_positive_int, default=64, help="tone count")
    p.add_argument("--ebn0", type=_theory_grid, required=True,
                   help="Eb/N0 dB grid; the token 'chance' adds the zero-SNR row")
    p.add_argument("--out", required=True)

    p = add("bench", _cmd_bench, "per-symbol demodulation latency benchmark")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--classical", action="store_true")
    which.add_argument("--weights")
    p.add_argument("--n", type=_bench_count, default=1000,
                   help="timed symbols (minimum 100)")

    return parser


def _openblas_thread_api():
    """(get, set) thread-count functions of the OpenBLAS loaded in this
    process, or None when none is loaded or it cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def _requested_threads(threads):
    """The ``--threads`` value, else MFSKMODEM_THREADS, else None."""
    if threads is None and "MFSKMODEM_THREADS" in os.environ:
        try:
            threads = _positive_int(os.environ["MFSKMODEM_THREADS"])
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"MFSKMODEM_THREADS: {exc}")
    return threads


def _thread_count(threads) -> int:
    """The thread count in effect: the requested ``threads``, else the loaded
    OpenBLAS's count, else 1; at most the CPUs this process may run on."""
    if threads is None:
        api = _openblas_thread_api()
        threads = 1 if api is None else api[0]()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(threads, cpus or 1)


@contextlib.contextmanager
def _pinned_threads(threads):
    """Run the body with ``threads`` threads in the loaded OpenBLAS, then
    restore its previous count; with ``threads`` None or without a loaded
    OpenBLAS, just run it."""
    api = None if threads is None else _openblas_thread_api()
    if api is None:
        yield
        return
    get_threads, set_threads = api
    saved_count = get_threads()
    set_threads(threads)
    try:
        yield
    finally:
        set_threads(saved_count)


def _join_dash_values(argv):
    """Fold "--snr -30..0" into "--snr=-30..0" so argparse does not read
    leading-dash SNR/grid values as option flags."""
    joined = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--snr", "--ebn0", "--snr-db") and i + 1 < len(argv):
            joined.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_dash_values(list(argv)))
    try:
        args.threads = _requested_threads(args.threads)
        with _pinned_threads(args.threads):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, MemoryError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
