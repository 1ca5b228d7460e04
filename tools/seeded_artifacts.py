"""Hash every seeded artifact of the mfskmodem CLI, for byte-identity checks.

Runs the CLI from the source directory ``--src`` (the one holding the
``mfskmodem`` package) at ``--threads 1``, inside the empty or new
directory ``--out``, and prints one ``sha256  name`` line per file written
and per command's standard output (``<run>.stdout``), then the exit code
and standard-error hash of each run the CLI must refuse.  The twins of
``TWINS`` rerun a sweep or a training run at two threads, and the script
fails unless each twin's files and standard output equal its run's.  Two
source trees that print the same lines wrote the same bytes and refused
alike:

    python3 tools/seeded_artifacts.py --src old/src --out /tmp/old > old.txt
    python3 tools/seeded_artifacts.py --src src --out /tmp/new > new.txt
    diff old.txt new.txt

Before its runs it writes four profile files into ``--out``: the README's
``desk-m4`` profile, one that lacks ``conv_kernel``, one whose
``symbol_len`` is fractional and one with no section header; the last
three must be refused.  After its
runs it writes a truncated and a bad-magic copy of a dataset and of a
weights file the runs made, which must be refused too.  The
training logs are hashed without their wall-clock ``seconds`` column.
Compare hashes made on one machine: ``sin`` may round differently on
another CPU's SIMD path.

Standard error gets one ``<run>: peak RSS <MB> MB`` line per CLI run, the
run's own ru_maxrss (10**6 bytes to the MB, as perfbench reports it), so
a log of two trees' listings also shows what each tree's ``train-full``
held.  The listing on standard output leaves it out.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SWEEP_M8 = ["sweep", "--profile", "reduced-m8", "--classical", "--snr", "-15:0:3",
            "--n", "3000", "--seed", "5"]
SWEEP_FULL = ["sweep", "--profile", "jt65a-full", "--classical", "--snr", "-30:-15:5",
              "--n", "2500", "--seed", "5"]

DESK = ["--profiles-file", "desk.ini"]
DESK_M4 = """[desk-m4]
sample_rate_hz = 8000
symbol_len = 256
tone_count = 4
sync_bin = 20
tone_offset = 2
ref_bandwidth_hz = 1000
conv_filters = 8
conv_kernel = 8
hidden_units = 8
"""

# Profile files written into --out before the runs.
PROFILE_FILES = {
    "desk.ini": DESK_M4,
    "no-kernel.ini": DESK_M4.replace("conv_kernel = 8\n", ""),
    "fractional.ini": DESK_M4.replace("symbol_len = 256", "symbol_len = 256.5"),
    "nohdr.ini": DESK_M4.replace("[desk-m4]\n", ""),
}

# (run name, CLI arguments); later runs read the files earlier runs wrote.
RUNS = [
    ("synth-m8", ["synth", "--profile", "reduced-m8", "--count", "600", "--snr", "-12..0",
                  "--seed", "9", "--out", "m8.mfskdset"]),
    ("synth-full", ["synth", "--profile", "jt65a-full", "--count", "200", "--snr", "-30..0",
                    "--include-sync", "--seed", "1", "--out", "full.mfskdset"]),
    ("sweep-m8-ser", SWEEP_M8 + ["--mode", "ser", "--out", "sweep-m8-ser.csv"]),
    ("sweep-m8-ber", SWEEP_M8 + ["--mode", "ber", "--out", "sweep-m8-ber.csv"]),
    ("sweep-full-ser", SWEEP_FULL + ["--mode", "ser", "--out", "sweep-full-ser.csv"]),
    ("sweep-full-ber", SWEEP_FULL + ["--mode", "ber", "--out", "sweep-full-ber.csv"]),
    # One symbol per point: its label leaves the other 32-bit half of its
    # generator output unused.
    ("sweep-m8-one-ber", ["sweep", "--profile", "reduced-m8", "--classical", "--snr", "-10,0",
                          "--n", "1", "--seed", "5", "--mode", "ber",
                          "--out", "sweep-m8-one-ber.csv"]),
    # 2113 = 2048 + 65 symbols: the last two blocks are 64 rows and one row.
    ("sweep-full-edge-ser", ["sweep", "--profile", "jt65a-full", "--classical", "--snr", "-20",
                             "--n", "2113", "--seed", "5", "--mode", "ser",
                             "--out", "sweep-full-edge-ser.csv"]),
    ("train-m8", ["train", "--profile", "reduced-m8", "--dataset", "m8.mfskdset",
                  "--epochs", "2", "--seed", "2", "--out-weights", "m8.weights",
                  "--out-log", "train-m8-log.csv"]),
    # 21 Adam steps at batch 32 on the paper's full-scale network.
    ("train-full", ["train", "--profile", "jt65a-full", "--dataset", "full.mfskdset",
                    "--epochs", "3", "--seed", "2", "--out-weights", "full.weights",
                    "--out-log", "train-full-log.csv"]),
    # The folded full-scale CNN through both counting paths: demod and sweep.
    ("demod-full-cnn", ["demod", "--profile", "jt65a-full", "--weights", "full.weights",
                        "--dataset", "full.mfskdset", "--out-report", "demod-full-cnn.report",
                        "--out-confusion", "demod-full-cnn.csv"]),
    ("sweep-full-cnn-ber", ["sweep", "--profile", "jt65a-full", "--weights", "full.weights",
                            "--mode", "ber", "--snr", "-20,-16", "--n", "500", "--seed", "4",
                            "--out", "sweep-full-cnn-ber.csv"]),
    ("demod-m8-classical", ["demod", "--profile", "reduced-m8", "--classical",
                            "--dataset", "m8.mfskdset",
                            "--out-report", "demod-m8-classical.report",
                            "--out-confusion", "demod-m8-classical.csv"]),
    ("demod-m8-cnn", ["demod", "--profile", "reduced-m8", "--weights", "m8.weights",
                      "--dataset", "m8.mfskdset", "--out-report", "demod-m8-cnn.report",
                      "--out-confusion", "demod-m8-cnn.csv"]),
    ("demod-full-classical", ["demod", "--profile", "jt65a-full", "--classical",
                              "--dataset", "full.mfskdset",
                              "--out-report", "demod-full-classical.report",
                              "--out-confusion", "demod-full-classical.csv"]),
    ("sweep-m8-cnn-ber", ["sweep", "--profile", "reduced-m8", "--weights", "m8.weights",
                          "--mode", "ber", "--snr", "-10,-5", "--n", "1000", "--seed", "4",
                          "--out", "sweep-m8-cnn-ber.csv"]),
    # 2113 symbols: a point's CNN batches are 33 blocks of 64 rows and one row.
    ("sweep-m8-cnn-edge-ber", ["sweep", "--profile", "reduced-m8", "--weights", "m8.weights",
                               "--mode", "ber", "--snr", "-12,-8,-4", "--n", "2113",
                               "--seed", "4", "--out", "sweep-m8-cnn-edge-ber.csv"]),
    ("analyze-full", ["analyze", "--profile", "jt65a-full", "--tone", "3", "--snr-db", "-20",
                      "--seed", "3", "--out-prefix", "analyze-full"]),
    ("analyze-m8", ["analyze", "--profile", "reduced-m8", "--tone", "3", "--snr-db", "-20",
                    "--seed", "3", "--out-prefix", "analyze-m8"]),
    ("analyze-full-dataset", ["analyze", "--profile", "jt65a-full", "--dataset",
                              "full.mfskdset", "--index", "5",
                              "--out-prefix", "analyze-full-dataset"]),
    ("analyze-full-clean", ["analyze", "--profile", "jt65a-full", "--tone", "3",
                            "--seed", "3", "--out-prefix", "analyze-full-clean"]),
    ("analyze-full-sync-lowpass", ["analyze", "--profile", "jt65a-full", "--sync",
                                   "--snr-db", "-20", "--lowpass", "--seed", "3",
                                   "--out-prefix", "analyze-full-sync-lowpass"]),
    ("theory-m64", ["theory", "--m", "64", "--ebn0", "chance,-2:12:1",
                    "--out", "theory-m64.csv"]),
    ("synth-desk", DESK + ["synth", "--profile", "desk-m4", "--count", "300",
                           "--snr", "-10..0", "--seed", "6", "--out", "desk.mfskdset"]),
    ("sweep-desk-ber", DESK + ["sweep", "--profile", "desk-m4", "--classical", "--mode", "ber",
                               "--snr", "-10:0:5", "--n", "1000", "--seed", "5",
                               "--out", "sweep-desk-ber.csv"]),
    ("demod-desk-classical", DESK + ["demod", "--profile", "desk-m4", "--classical",
                                     "--dataset", "desk.mfskdset",
                                     "--out-report", "demod-desk-classical.report",
                                     "--out-confusion", "demod-desk-classical.csv"]),
]

# Reruns of RUNS at another thread count: twin name -> (run name, --threads).
# A twin runs after RUNS and writes its own file for each output option of its
# run, named by TWIN_OUTPUTS.  Each file must equal its run's (a training log
# without its seconds column), and so must its standard output once the twin's
# file names in it are put back to the run's.
TWINS = {
    "sweep-full-ber-threads2": ("sweep-full-ber", 2),
    "sweep-m8-cnn-ber-threads2": ("sweep-m8-cnn-ber", 2),
    "train-m8-threads2": ("train-m8", 2),
}
# Output option -> the suffix of the twin's file, after the twin's name.
TWIN_OUTPUTS = {"--out": ".csv", "--out-weights": ".weights", "--out-log": "-log.csv"}

# Malformed copies of RUNS' outputs, written after RUNS for REFUSALS to read:
# name -> (file RUNS wrote, what the copy does to its bytes).  They are left
# out of the hashed listing, since the files they derive from are in it.
MALFORMED = {
    "cut.mfskdset": ("m8.mfskdset", lambda data: data[:-100]),
    "notmagic.mfskdset": ("m8.mfskdset", lambda data: b"NOTMAGIC" + data[8:]),
    "cut.weights": ("m8.weights", lambda data: data[:-16]),
    "notmagic.weights": ("m8.weights", lambda data: b"NOTMAGIC" + data[8:]),
}

# Runs the CLI must refuse; they run after RUNS, whose files they read.  Each
# prints its exit code and the hash of its standard error, and a file one of
# them left behind would show up in the hashed listing of --out.
REFUSALS = [
    ("refuse-synth-snr", ["synth", "--profile", "reduced-m8", "--count", "3", "--snr", "4000",
                          "--seed", "1", "--out", "refused-synth.mfskdset"]),
    ("refuse-theory-m1", ["theory", "--m", "1", "--ebn0", "0", "--out", "refused-theory.csv"]),
    # numpy's seeds are non-negative: a usage error that names --seed.
    ("refuse-seed-negative", ["sweep", "--profile", "reduced-m8", "--classical", "--snr", "-10",
                              "--n", "10", "--seed", "-1", "--out", "refused-seed.csv"]),
    # An Eb/N0 whose linear Es/N0 overflows a float: one error line, no file.
    ("refuse-theory-overflow", ["theory", "--ebn0", "4000", "--out", "refused-overflow.csv"]),
    # A grid of 10**300 points: refused as a usage error before any point runs.
    ("refuse-theory-grid", ["theory", "--ebn0", "0:1e300:1", "--out", "refused-grid.csv"]),
    ("refuse-demod-profile", ["demod", "--profile", "jt65a-full", "--classical",
                              "--dataset", "m8.mfskdset", "--out-report", "refused-demod.report"]),
    ("refuse-profile-name", ["synth", "--profile", "nope", "--count", "1", "--snr", "0",
                             "--seed", "1", "--out", "refused-nope.mfskdset"]),
    ("refuse-train-epochs", ["train", "--profile", "reduced-m8", "--dataset", "m8.mfskdset",
                             "--epochs", "0", "--seed", "2", "--out-weights", "refused-train.weights",
                             "--out-log", "refused-train.csv"]),
    ("refuse-profile-no-kernel", ["--profiles-file", "no-kernel.ini", "synth", "--profile",
                                  "desk-m4", "--count", "1", "--snr", "0", "--seed", "1",
                                  "--out", "refused-no-kernel.mfskdset"]),
    ("refuse-profile-fractional", ["--profiles-file", "fractional.ini", "synth", "--profile",
                                   "desk-m4", "--count", "1", "--snr", "0", "--seed", "1",
                                   "--out", "refused-fractional.mfskdset"]),
    ("refuse-profile-no-header", ["--profiles-file", "nohdr.ini", "synth", "--profile",
                                  "desk-m4", "--count", "1", "--snr", "0", "--seed", "1",
                                  "--out", "refused-nohdr.mfskdset"]),
    # 10**11 symbols: past the point and bench bounds, refused before any draw.
    ("refuse-sweep-huge", ["sweep", "--profile", "reduced-m8", "--classical", "--snr", "-10",
                           "--n", "100000000000", "--seed", "1", "--out", "refused-huge.csv"]),
    ("refuse-bench-huge", ["bench", "--profile", "reduced-m8", "--classical",
                           "--n", "100000000000"]),
    ("refuse-demod-cut", ["demod", "--profile", "reduced-m8", "--classical",
                          "--dataset", "cut.mfskdset", "--out-report", "refused-cut.report"]),
    ("refuse-demod-magic", ["demod", "--profile", "reduced-m8", "--classical",
                            "--dataset", "notmagic.mfskdset",
                            "--out-report", "refused-magic.report"]),
    ("refuse-sweep-cut-weights", ["sweep", "--profile", "reduced-m8", "--weights", "cut.weights",
                                  "--mode", "ber", "--snr", "-10", "--n", "100", "--seed", "4",
                                  "--out", "refused-sweep.csv"]),
    ("refuse-demod-magic-weights", ["demod", "--profile", "reduced-m8",
                                    "--weights", "notmagic.weights", "--dataset", "m8.mfskdset",
                                    "--out-report", "refused-magic-weights.report"]),
]


# Files whose last column is wall-clock seconds.
TRAIN_LOGS = ("train-m8-log.csv", "train-full-log.csv", "train-m8-threads2-log.csv")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_seconds(log: bytes) -> bytes:
    """The training log minus its last (wall-clock) column."""
    return b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in log.splitlines())


def _listed(path: Path) -> bytes:
    """The bytes of ``path`` as the listing hashes them."""
    data = path.read_bytes()
    return _without_seconds(data) if path.name in TRAIN_LOGS else data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the mfskmodem package")
    parser.add_argument("--out", required=True, help="empty or new directory for the artifacts")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")
    for name, text in PROFILE_FILES.items():
        (out / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))

    def cli(name, cli_args, threads=1):
        # The outputs go to files, not pipes, so nothing needs draining and
        # wait4 can reap the child itself and report its resource usage.
        with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
            child = subprocess.Popen([sys.executable, "-m", "mfskmodem.cli",
                                      "--threads", str(threads), *cli_args],
                                     cwd=out, env=env, stdout=stdout, stderr=stderr)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            sys.stderr.write(f"{name}: peak RSS {usage.ru_maxrss * 1024 / 1e6:.1f} MB\n")
            stdout.seek(0)
            stderr.seek(0)
            return subprocess.CompletedProcess(child.args, child.returncode,
                                               stdout.read(), stderr.read())

    runs = {name: (cli_args, 1) for name, cli_args in RUNS}
    # twin -> [(run's file, twin's file)]
    twin_files = {}
    for twin, (name, threads) in TWINS.items():
        cli_args = list(runs[name][0])
        twin_files[twin] = []
        for option, suffix in TWIN_OUTPUTS.items():
            if option in cli_args:
                at = cli_args.index(option) + 1
                twin_files[twin].append((cli_args[at], twin + suffix))
                cli_args[at] = twin + suffix
        runs[twin] = (cli_args, threads)
    stdout = {}
    for name, (cli_args, threads) in runs.items():
        run = cli(name, cli_args, threads)
        if run.returncode != 0:
            sys.stderr.write(f"{name} exited {run.returncode}:\n{run.stderr.decode()}")
            return 1
        stdout[name] = run.stdout
        print(f"{_digest(run.stdout)}  {name}.stdout")
    for twin, (name, _) in TWINS.items():
        twin_stdout = stdout[twin]
        for file, twin_file in twin_files[twin]:
            twin_stdout = twin_stdout.replace(twin_file.encode(), file.encode())
        if twin_stdout != stdout[name] or any(_listed(out / file) != _listed(out / twin_file)
                                              for file, twin_file in twin_files[twin]):
            sys.stderr.write(f"{twin} does not reproduce {name}\n")
            return 1
    for name, (source, corrupt) in MALFORMED.items():
        (out / name).write_bytes(corrupt((out / source).read_bytes()))
    for name, cli_args in REFUSALS:
        run = cli(name, cli_args)
        print(f"{_digest(run.stderr)}  {name}.stderr exit={run.returncode}")
    for path in sorted(out.iterdir()):
        if path.name in MALFORMED:
            continue
        print(f"{_digest(_listed(path))}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
