"""End-to-end tests of the command-line interface (in-process main())."""

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK_M4, write_profiles
from mfskmodem import cli
from mfskmodem import dataset as ds
from mfskmodem.cli import main
from mfskmodem.evaluate import DEMOD_BATCH
from mfskmodem.profiles import get_profile
from mfskmodem.signal import tone_bin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(path):
    values = {}
    for line in path.read_text().strip().split("\n"):
        key, value = line.split("=", 1)
        values[key] = float(value)
    return values


class TestSynth:
    def test_deterministic_digests(self, tmp_path, capsys):
        args = ["synth", "--profile", "reduced-m8", "--count", "20",
                "--snr", "-15..-5", "--seed", "4"]
        code_a, out_a, _ = run(capsys, *args, "--out", str(tmp_path / "a.dset"))
        code_b, out_b, _ = run(capsys, *args, "--out", str(tmp_path / "b.dset"))
        assert code_a == code_b == 0
        assert out_a.split("sha256=")[1] == out_b.split("sha256=")[1]
        assert (tmp_path / "a.dset").read_bytes() == (tmp_path / "b.dset").read_bytes()

    def test_digest_matches_file(self, tmp_path, capsys):
        out_file = tmp_path / "c.dset"
        code, out, _ = run(capsys, "synth", "--profile", "reduced-m8", "--count", "5",
                           "--snr", "-9", "--seed", "1", "--out", str(out_file))
        assert code == 0
        assert "records=5" in out
        digest = out.strip().split("sha256=")[1]
        assert digest == hashlib.sha256(out_file.read_bytes()).hexdigest()

    def test_zero_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--count", "0", "--snr", "-9",
                  "--out", str(tmp_path / "x.dset")])
        assert excinfo.value.code == 2

    def test_malformed_snr_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--count", "5", "--snr", "notanumber",
                  "--out", str(tmp_path / "x.dset")])
        assert excinfo.value.code == 2

    def test_missing_seed_is_derived_and_printed(self, tmp_path, capsys):
        code, out, _ = run(capsys, "synth", "--profile", "reduced-m8", "--count", "2",
                           "--snr", "-9", "--out", str(tmp_path / "y.dset"))
        assert code == 0
        assert "seed=" in out

    def test_unknown_profile_is_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--profile", "nope", "--count", "2",
                           "--snr", "-9", "--out", str(tmp_path / "z.dset"))
        assert code == 2
        assert "unknown profile" in err

    def test_bad_profile_value_names_its_section_and_key(self, tmp_path, capsys):
        config = write_profiles(tmp_path / "fractional.ini",
                                {"desk-m4": {**DESK_M4, "symbol_len": "256.5"}})
        out_file = tmp_path / "f.dset"
        code, _, err = run(capsys, "--profiles-file", str(config), "synth", "--profile",
                           "desk-m4", "--count", "1", "--snr", "0", "--seed", "1",
                           "--out", str(out_file))
        assert code == 2
        assert "profile [desk-m4] key symbol_len: " in err
        assert "'256.5'" in err
        assert not out_file.exists()

    def test_float32_overflow_is_refused_without_a_file(self, tmp_path, capsys):
        out_file = tmp_path / "inf.dset"
        code, out, err = run(capsys, "synth", "--profile", "reduced-m8", "--count", "3",
                             "--snr", "-800", "--seed", "1", "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert err == "error: record 0 at SNR -800 dB has a sample outside the float32 range\n"
        assert not out_file.exists()

    def test_overflow_late_in_the_range_names_its_record(self, tmp_path, capsys):
        # Samples pass float32's range near -765 dB; seed 5 draws ten
        # records above that before one below it.
        code, _, err = run(capsys, "synth", "--profile", "reduced-m8", "--count", "40",
                           "--snr", "-770..-740", "--seed", "5", "--out", str(tmp_path / "r.dset"))
        assert code == 1
        assert err == ("error: record 10 at SNR -764.681 dB has a sample outside "
                       "the float32 range\n")
        assert not (tmp_path / "r.dset").exists()

    def test_failed_run_leaves_no_partial_file(self, tmp_path, capsys):
        out_file = tmp_path / "partial.dset"
        code, _, err = run(capsys, "synth", "--profile", "reduced-m8", "--count", "3",
                           "--snr", "4000", "--seed", "1", "--out", str(out_file))
        assert code == 1
        assert "noise variance" in err
        assert not out_file.exists()


class TestAnalyze:
    def test_noiseless_tone_has_single_dominant_bin(self, tmp_path, capsys):
        prefix = str(tmp_path / "tone")
        code, out, _ = run(capsys, "analyze", "--profile", "reduced-m8",
                           "--tone", "3", "--seed", "2", "--out-prefix", prefix)
        assert code == 0
        assert "esd_peak_bin=64" in out  # sync bin 59 + offset 2 + tone 3
        assert (tmp_path / "tone_esd.csv").exists()
        assert (tmp_path / "tone_waveform.csv").exists()
        assert (tmp_path / "tone_autocorr.csv").exists()

    def test_sync_tone_at_minus_20_peaks_on_sync_bin(self, tmp_path, capsys):
        prefix = str(tmp_path / "sync")
        code, out, _ = run(capsys, "analyze", "--sync", "--snr-db", "-20",
                           "--seed", "3", "--out-prefix", prefix)
        assert code == 0
        assert "esd_peak_bin=472" in out

    def test_dataset_record_source(self, tmp_path, capsys):
        dataset = tmp_path / "in.dset"
        run(capsys, "synth", "--profile", "reduced-m8", "--count", "3",
            "--snr", "-9", "--seed", "5", "--out", str(dataset))
        code, out, _ = run(capsys, "analyze", "--profile", "reduced-m8",
                           "--dataset", str(dataset), "--index", "1",
                           "--out-prefix", str(tmp_path / "rec"))
        assert code == 0
        assert "record=1" in out

    def test_bad_index_fails(self, tmp_path, capsys):
        dataset = tmp_path / "in.dset"
        run(capsys, "synth", "--profile", "reduced-m8", "--count", "3",
            "--snr", "-9", "--seed", "5", "--out", str(dataset))
        code, _, err = run(capsys, "analyze", "--profile", "reduced-m8",
                           "--dataset", str(dataset), "--index", "99",
                           "--out-prefix", str(tmp_path / "rec"))
        assert code == 1
        assert "out of range" in err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small trained model plus the noiseless dataset it trained on."""
    root = tmp_path_factory.mktemp("pipeline")
    train_set = root / "train.dset"
    weights = root / "model.weights"
    log = root / "train.csv"
    assert main(["synth", "--profile", "reduced-m8", "--count", "400",
                 "--snr", "25", "--seed", "6", "--out", str(train_set)]) == 0
    assert main(["train", "--profile", "reduced-m8", "--dataset", str(train_set),
                 "--epochs", "3", "--seed", "1", "--out-weights", str(weights),
                 "--out-log", str(log)]) == 0
    return root, train_set, weights, log


class TestTrainAndDemod:
    def test_log_csv_shape(self, workspace):
        _, _, _, log = workspace
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "epoch,loss,accuracy,seconds"
        assert len(lines) == 4  # header + 3 epochs
        assert lines[1].startswith("1,")

    @pytest.mark.parametrize("lr", ["-0.001", "0", "nan", "inf"])
    def test_learning_rate_is_refused_before_the_dataset_is_read(self, tmp_path, capsys, lr):
        code, _, err = run(capsys, "train", "--profile", "reduced-m8",
                           "--dataset", str(tmp_path / "absent.dset"), f"--lr={lr}",
                           "--seed", "1", "--out-weights", str(tmp_path / "w.bin"),
                           "--out-log", str(tmp_path / "log.csv"))
        assert code == 2
        assert err == "error: learning_rate must be finite and > 0\n"
        assert not list(tmp_path.iterdir())

    def test_classical_demod_noiseless_is_perfect(self, workspace, tmp_path, capsys):
        _, train_set, _, _ = workspace
        report = tmp_path / "classical.report"
        code, out, _ = run(capsys, "demod", "--profile", "reduced-m8", "--classical",
                           "--dataset", str(train_set), "--out-report", str(report))
        assert code == 0
        values = parse_report(report)
        assert values["accuracy"] == 1.0
        assert values["ser"] == 0.0

    def test_model_demod_emits_metrics_and_confusion(self, workspace, tmp_path, capsys):
        _, train_set, weights, _ = workspace
        report = tmp_path / "model.report"
        confusion = tmp_path / "confusion.csv"
        code, _, _ = run(capsys, "demod", "--profile", "reduced-m8",
                         "--weights", str(weights), "--dataset", str(train_set),
                         "--out-report", str(report), "--out-confusion", str(confusion))
        assert code == 0
        values = parse_report(report)
        for key in ("accuracy", "macro_recall", "micro_precision", "macro_precision",
                    "micro_recall", "class_0_recall"):
            assert key in values
        rows = confusion.read_text().strip().split("\n")
        assert len(rows) == 8
        total = sum(int(v) for row in rows for v in row.split(","))
        assert total == 400

    def test_classical_demod_of_a_sync_dataset_decides_every_data_row(self, tmp_path, capsys):
        dataset = tmp_path / "sync.dset"
        assert main(["synth", "--profile", "reduced-m8", "--count", "1500", "--snr", "-12..0",
                     "--include-sync", "--seed", "3", "--out", str(dataset)]) == 0
        confusion = tmp_path / "confusion.csv"
        code, out, _ = run(capsys, "demod", "--profile", "reduced-m8", "--classical",
                           "--dataset", str(dataset), "--out-report", str(tmp_path / "r.txt"),
                           "--out-confusion", str(confusion))
        assert code == 0
        loaded = ds.read(dataset)
        kept = loaded.label != ds.SYNC_LABEL
        assert f"skipped {kept.size - kept.sum()} sync records" in out
        modem = get_profile("reduced-m8").modem
        lo = tone_bin(modem, 0)
        spectrum = np.fft.rfft(loaded.samples(kept), axis=-1)
        predicted = np.argmax(np.abs(spectrum[:, lo : lo + modem.tone_count]), axis=-1)
        expected = np.zeros((modem.tone_count, modem.tone_count), np.int64)
        np.add.at(expected, (loaded.label[kept], predicted), 1)
        assert np.loadtxt(confusion, delimiter=",", dtype=np.int64).tolist() == expected.tolist()

    def test_trained_model_beats_chance_easily(self, workspace, tmp_path, capsys):
        _, train_set, weights, _ = workspace
        report = tmp_path / "model2.report"
        code, _, _ = run(capsys, "demod", "--profile", "reduced-m8",
                         "--weights", str(weights), "--dataset", str(train_set),
                         "--out-report", str(report))
        assert code == 0
        assert parse_report(report)["accuracy"] > 0.5


@pytest.fixture(scope="module")
def full_file(tmp_path_factory):
    """A 35 MB jt65a-full dataset with sync records: two demod batches and more."""
    path = tmp_path_factory.mktemp("full") / "full.dset"
    assert main(["synth", "--profile", "jt65a-full", "--count", str(2 * DEMOD_BATCH + 100),
                 "--snr", "-26..-16", "--include-sync", "--seed", "7", "--out", str(path)]) == 0
    return path


class TestFileBackedRows:
    def test_demod_holds_a_batch_not_the_file(self, full_file, tmp_path, capsys, traced_peak):
        # One gathered batch of float32 rows, plus the detector's 64-row
        # blocks of float64 windows and spectra.
        batch_bytes = DEMOD_BATCH * 4096 * 4
        with traced_peak() as peak:
            code, out, _ = run(capsys, "demod", "--profile", "jt65a-full", "--classical",
                               "--dataset", str(full_file), "--out-report",
                               str(tmp_path / "r.txt"))
        assert code == 0
        y = ds.data_arrays(ds.read(full_file))[1]
        assert f"symbols={y.size} " in out
        assert peak.bytes < batch_bytes + 8 * 2**20 < full_file.stat().st_size

    def test_analyze_gathers_only_its_record(self, full_file, tmp_path, capsys, traced_peak):
        with traced_peak() as peak:
            code, out, _ = run(capsys, "analyze", "--profile", "jt65a-full", "--dataset",
                               str(full_file), "--index", "5", "--out-prefix",
                               str(tmp_path / "a"))
        assert code == 0
        assert peak.bytes < 2 * 2**20
        loaded = ds.read(full_file)
        assert out.startswith(f"record=5 label={loaded.label[5]} "
                              f"snr_db={loaded.snr_db[5]:.2f}\n")
        waveform = np.loadtxt(tmp_path / "a_waveform.csv", delimiter=",", skiprows=1)
        assert np.allclose(waveform[:, 1], loaded.samples(5), rtol=1e-9, atol=0.0)  # %.10g


class TestSweep:
    def test_ser_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "ser.csv"
        code, stdout, _ = run(capsys, "sweep", "--profile", "reduced-m8", "--classical",
                              "--mode", "ser", "--snr", "-12,-10", "--n", "500",
                              "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "snr_db,ser,stderr,n"
        assert len(lines) == 3
        # Each stdout line is its CSV row's point at the stdout precision.
        expected = []
        for line in lines[1:]:
            snr_db, ser, _, n = line.split(",")
            expected.append(f"snr_db={snr_db} ser={float(ser):.6g} n={n}")
        assert stdout.splitlines() == expected

    def test_ber_sweep_csv_with_theory_column(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        code, stdout, _ = run(capsys, "sweep", "--profile", "reduced-m8", "--classical",
                              "--mode", "ber", "--snr", "-14:-10:2", "--n", "500",
                              "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "snr_db,ebn0_db,ber_measured,ber_from_ser,ber_theory,n"
        assert len(lines) == 4
        expected = []
        for line in lines[1:]:
            snr_db, ebn0_db, ber, _, theory, n = line.split(",")
            expected.append(f"snr_db={snr_db} ebn0_db={float(ebn0_db):.4g} "
                            f"ber={float(ber):.6g} theory={float(theory):.6g} n={n}")
        assert stdout.splitlines() == expected


class TestGrid:
    def test_nan_bound_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "theory.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["theory", "--ebn0", "nan:0:1", "--out", str(out)])
        assert excinfo.value.code == 2
        assert "bad grid 'nan:0:1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--profile", "reduced-m8", "--classical", "--n", "1", "--seed", "1",
         "--snr", "0:inf:1", "--out", "sweep.csv"],
        ["theory", "--ebn0", "-inf:0:1", "--out", "theory.csv"],
        # Finite bounds, but more than 10**6 points, or a step that 1e20 absorbs.
        ["sweep", "--profile", "reduced-m8", "--classical", "--n", "1", "--seed", "1",
         "--snr", "0:1e300:1", "--out", "sweep.csv"],
        ["sweep", "--profile", "reduced-m8", "--classical", "--n", "1", "--seed", "1",
         "--snr", "0:1:1e-300", "--out", "sweep.csv"],
        ["theory", "--ebn0", "0:1e300:1", "--out", "theory.csv"],
        ["theory", "--ebn0", "1e20:1e20:1", "--out", "theory.csv"],
    ])
    def test_infinite_bound_is_usage_error(self, tmp_path, argv):
        # A child process capped at 10 s and 1 GiB of address space: a grid
        # loop that never ends fails the test instead of hanging it or
        # exhausting memory.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-m", "mfskmodem.cli", *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        assert run.returncode == 2
        assert "bad grid" in run.stderr
        assert not list(tmp_path.iterdir())


class TestSnrRange:
    @pytest.mark.parametrize("argv", [
        ["synth", "--count", "1", "--snr", "4000", "--out"],
        ["synth", "--count", "1", "--snr", "-1e39", "--out"],
        ["sweep", "--classical", "--n", "1", "--snr", "4000", "--out"],
        ["analyze", "--tone", "3", "--snr-db", "4000", "--out-prefix"],
    ])
    def test_unrepresentable_snr_is_runtime_error(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, *argv[:1], "--profile", "reduced-m8", "--seed", "1",
                           *argv[1:], str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error: ") and "noise variance" in err


    @pytest.mark.parametrize("flag, argv", [
        ("--snr", ["synth", "--count", "1", "--snr", "nan", "--out"]),
        ("--snr", ["synth", "--count", "1", "--snr=-inf..0", "--out"]),
        ("--snr", ["sweep", "--classical", "--n", "1", "--snr", "nan", "--out"]),
        ("--ebn0", ["theory", "--ebn0", "inf,nan", "--out"]),
        ("--snr-db", ["analyze", "--tone", "3", "--snr-db", "nan", "--out-prefix"]),
    ])
    def test_non_finite_snr_is_usage_error(self, tmp_path, capsys, flag, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestSeed:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--classical", "--n", "1", "--snr", "-5", "--out", "s.csv"],
        ["synth", "--count", "1", "--snr", "-5", "--out", "s.dset"],
        ["analyze", "--tone", "3", "--snr-db", "-5", "--out-prefix", "a"],
        ["train", "--dataset", "d.dset", "--out-weights", "w.bin", "--out-log", "l.csv"],
    ])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv[:1], "--profile", "reduced-m8", "--seed", "-1", *argv[1:]])
        assert excinfo.value.code == 2
        assert "argument --seed: value must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestProfileCrossCheck:
    @pytest.mark.parametrize("argv", [
        ["demod", "--classical", "--out-report", "r.txt"],
        ["train", "--epochs", "1", "--out-weights", "w.bin", "--out-log", "l.csv"],
        ["analyze", "--lowpass", "--out-prefix", "a"],
    ])
    def test_dataset_of_another_profile_is_refused(self, workspace, tmp_path, capsys,
                                                   monkeypatch, argv):
        _, train_set, _, _ = workspace
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv[:1], "--profile", "jt65a-full",
                           "--dataset", str(train_set), *argv[1:])
        assert code == 1
        assert "dataset symbol_len 512 does not match profile 'jt65a-full'" in err
        assert not list(tmp_path.iterdir())

    def test_dataset_is_refused_from_its_header(self, tmp_path, traced_peak):
        path = tmp_path / "m8.dset"
        ds.write(ds.generate(ds.DatasetSpec(get_profile("reduced-m8").modem, 2000,
                                            (-9.0, -9.0), seed=1)), path)
        payload = path.stat().st_size - 32
        with traced_peak() as peak:
            with pytest.raises(ValueError, match="dataset symbol_len 512 does not match "
                                                 "profile 'jt65a-full'"):
                cli._read_dataset(path, get_profile("jt65a-full"))
        assert peak.bytes < payload / 10

    def test_weights_of_another_profile_are_refused(self, workspace, tmp_path, capsys):
        _, _, weights, _ = workspace
        code, _, err = run(capsys, "sweep", "--profile", "jt65a-full", "--weights",
                           str(weights), "--snr", "0", "--n", "10", "--seed", "1",
                           "--out", str(tmp_path / "s.csv"))
        assert code == 1
        assert "weights hold ModelConfig(input_len=512" in err

    def test_mismatched_field_is_named(self, workspace, tmp_path, capsys):
        _, train_set, _, _ = workspace
        # The dataset's window and alphabet at 8000 Hz: only the rate differs from its header.
        config = write_profiles(tmp_path / "profiles.ini",
                                {"m8-at-8k": {**DESK_M4, "symbol_len": 512, "tone_count": 8}})
        code, _, err = run(capsys, "--profiles-file", str(config), "demod",
                           "--profile", "m8-at-8k", "--classical", "--dataset",
                           str(train_set), "--out-report", str(tmp_path / "r.txt"))
        assert code == 1
        assert "dataset sample rate 11025 does not match" in err


class TestTheory:
    def test_curve_csv_with_chance_row(self, tmp_path, capsys):
        out = tmp_path / "theory.csv"
        code, _, _ = run(capsys, "theory", "--m", "64",
                         "--ebn0", "chance,-2,0,2,4", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "ebn0_db,ser,ber"
        chance = lines[1].split(",")
        assert chance[0] == "chance"
        assert float(chance[1]) == pytest.approx(63 / 64)
        assert float(chance[2]) == pytest.approx(0.5)
        bers = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(bers, bers[1:]))

    def test_binary_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "m2.csv"
        code, _, _ = run(capsys, "theory", "--m", "2", "--ebn0", "0,3,6",
                         "--out", str(out))
        assert code == 0
        for line in out.read_text().strip().split("\n")[1:]:
            ebn0, ser, ber = (float(v) for v in line.split(","))
            gamma = 10 ** (ebn0 / 10)  # k = 1 for binary
            assert ser == pytest.approx(0.5 * np.exp(-gamma / 2), rel=1e-9)
            assert ber == pytest.approx(ser, rel=1e-12)

    def test_one_tone_says_the_alphabet_is_wrong(self, tmp_path, capsys):
        out = tmp_path / "m1.csv"
        code, _, err = run(capsys, "theory", "--m", "1", "--ebn0", "0", "--out", str(out))
        assert code == 1
        assert err == "error: tone_count must be a power of two >= 2\n"
        assert not out.exists()

    def test_unrepresentable_ebn0_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "huge.csv"
        code, _, err = run(capsys, "theory", "--ebn0", "4000", "--out", str(out))
        assert code == 1
        assert err == "error: es_n0_db 4007.78 gives no finite linear Es/N0\n"
        assert not out.exists()


class TestBench:
    def test_minimum_count_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--classical", "--n", "99"])
        assert excinfo.value.code == 2

    def test_classical_reduced_is_real_time(self, capsys):
        code, out, _ = run(capsys, "bench", "--profile", "reduced-m8",
                           "--classical", "--n", "150")
        assert code == 0
        assert "real_time=true" in out


# 10**11 symbols: no machine holds their arrays, so the allocation fails at once.
HUGE = "100000000000"


class TestHugeCount:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--profile", "reduced-m8", "--classical", "--snr", "-10", "--n", HUGE,
         "--out", "huge.csv"],
        ["bench", "--profile", "reduced-m8", "--classical", "--n", HUGE],
    ], ids=["sweep", "bench"])
    def test_unallocatable_count_is_a_runtime_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestProfilesFile:
    def test_custom_profile_loads(self, tmp_path, capsys):
        config = write_profiles(tmp_path / "profiles.ini", {"desk-m4": DESK_M4})
        out_file = tmp_path / "d.dset"
        code, out, _ = run(capsys, "--profiles-file", str(config), "synth",
                           "--profile", "desk-m4", "--count", "3", "--snr", "-5",
                           "--seed", "2", "--out", str(out_file))
        assert code == 0
        assert "records=3" in out

    @pytest.mark.parametrize("line", ["sample_rate_hz = nan", "sample_rate_hz = inf",
                                      "ref_bandwidth_hz = inf", "tone_count = 1"])
    def test_unrunnable_value_is_config_error(self, tmp_path, capsys, line):
        key, value = line.split(" = ")
        config = write_profiles(tmp_path / "profiles.ini", {"bad": {**DESK_M4, key: value}})
        out_file = tmp_path / "e.dset"
        code, _, err = run(capsys, "--profiles-file", str(config), "synth",
                           "--profile", "bad", "--count", "1", "--snr", "-5",
                           "--seed", "1", "--out", str(out_file))
        assert code == 2
        assert err.startswith("error: ") and key in err
        assert not out_file.exists()

    @pytest.mark.parametrize("malformed", ["no-section-header", "duplicate-section",
                                           "duplicate-key", "percent-value"])
    def test_malformed_file_is_config_error(self, tmp_path, capsys, malformed):
        body = "".join(f"{name} = {value}\n" for name, value in DESK_M4.items())
        text = {"no-section-header": body,
                "duplicate-section": "[desk-m4]\n" + body + "[desk-m4]\n" + body,
                "duplicate-key": "[desk-m4]\n" + body + "tone_count = 4\n",
                "percent-value": "[desk-m4]\n" + body.replace("sync_bin = 20",
                                                              "sync_bin = 20%")}[malformed]
        config = tmp_path / "profiles.ini"
        config.write_text(text)
        out_file = tmp_path / "e.dset"
        code, out, err = run(capsys, "--profiles-file", str(config), "synth",
                             "--profile", "desk-m4", "--count", "1", "--snr", "-5",
                             "--seed", "1", "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out_file.exists()

    def test_missing_keys_rejected(self, tmp_path, capsys):
        config = tmp_path / "profiles.ini"
        config.write_text("[broken]\nsample_rate_hz = 8000\n")
        code, _, err = run(capsys, "--profiles-file", str(config), "synth",
                           "--profile", "broken", "--count", "1", "--snr", "-5",
                           "--out", str(tmp_path / "e.dset"))
        assert code == 2
        assert "missing keys" in err

    def test_misspelled_key_is_config_error(self, tmp_path, capsys):
        config = write_profiles(tmp_path / "profiles.ini",
                                {"desk-m4": {**DESK_M4, "hiden_units": 99}})
        out_file = tmp_path / "e.dset"
        code, out, err = run(capsys, "--profiles-file", str(config), "synth",
                             "--profile", "desk-m4", "--count", "1", "--snr", "-5",
                             "--seed", "1", "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err == "error: profile [desk-m4] has unknown keys: hiden_units\n"
        assert not out_file.exists()


class TestThreads:
    @pytest.mark.parametrize("error, exit_code", [(None, 0), (ValueError, 1),
                                                  (cli.ConfigError, 2)],
                             ids=["success", "runtime-error", "config-error"])
    @pytest.mark.parametrize("pin", ["flag", "environment"])
    def test_loaded_blas_is_pinned_for_the_command_only(self, tmp_path, capsys, monkeypatch,
                                                        pin, error, exit_code):
        # numpy (and its OpenBLAS) loads with the cli module, so the pin
        # always goes through the loaded library.
        api = cli._openblas_thread_api()
        assert api is not None, "no OpenBLAS found in this process"
        get, set_ = api
        original = get()
        seen = []

        def record(args):
            seen.append(get())
            if error is not None:
                raise error("handler failed")
            return 0

        monkeypatch.setattr(cli, "_cmd_theory", record)
        argv = ["theory", "--ebn0", "0", "--out", str(tmp_path / "t.csv")]
        if pin == "flag":
            argv = ["--threads", "1"] + argv
        else:
            monkeypatch.setenv("MFSKMODEM_THREADS", "1")
        try:
            set_(2)
            before = get()
            code, _, err = run(capsys, *argv)
            assert code == exit_code
            assert err == ("" if error is None else "error: handler failed\n")
            assert seen == [1]
            assert get() == before
        finally:
            set_(original)

    def test_two_threads_sweep_like_one(self, tmp_path, capsys):
        get, set_ = cli._openblas_thread_api()
        original = get()
        outputs = []
        try:
            for threads in ("1", "2"):
                set_(3)
                out = tmp_path / f"sweep-{threads}.csv"
                code, stdout, _ = run(capsys, "--threads", threads, "sweep", "--profile",
                                      "reduced-m8", "--classical", "--mode", "ber",
                                      "--snr", "-12:0:4", "--n", "700", "--seed", "5",
                                      "--out", str(out))
                assert code == 0
                assert get() == 3
                outputs.append((out.read_text(), stdout))
        finally:
            set_(original)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("error", [None, ValueError], ids=["success", "error"])
    @pytest.mark.parametrize("argv, cpus, workers, blas", [
        (["--threads", "2"], {0, 1}, 2, 1),
        (["--threads", "2"], {0}, 1, 2),
        ([], {0, 1}, 2, 1),  # the loaded OpenBLAS's count
        (["--threads", "1"], {0, 1}, 1, 1),
    ], ids=["two", "one-cpu", "blas-count", "one"])
    def test_sweep_pool_is_capped_and_blas_restored(self, tmp_path, capsys, monkeypatch,
                                                    argv, cpus, workers, blas, error):
        get, set_ = cli._openblas_thread_api()
        original = get()
        seen = []

        def spy(demod, profile, snr_points, n_per_point, seed, workers):
            seen.append((workers, get()))
            if error is not None:
                raise error("sweep failed")
            return []

        monkeypatch.delenv("MFSKMODEM_THREADS", raising=False)
        monkeypatch.setattr(cli, "sweep_ber", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        try:
            set_(2)
            code, _, _ = run(capsys, *argv, "sweep", "--profile", "reduced-m8", "--classical",
                             "--snr", "-10,-5,0", "--n", "10", "--seed", "1",
                             "--out", str(tmp_path / "s.csv"))
            assert code == (0 if error is None else 1)
            assert seen == [(workers, blas)]
            assert get() == 2
        finally:
            set_(original)

    def test_environment_variable_is_validated(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MFSKMODEM_THREADS", "zero")
        code, _, err = run(capsys, "theory", "--ebn0", "0", "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert "MFSKMODEM_THREADS" in err
