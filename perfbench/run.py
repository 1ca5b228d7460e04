#!/usr/bin/env python3
"""Benchmark of the MFSK workbench in src/.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-classical-full --seed 1 --seconds 25 --trace 0

Workloads: sweep-classical-full, train-m8, infer-cnn-full, dataset-full
(see perfbench/README.md).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run; both are listed in
BENCHMARK.json.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Steadiness mode repeats a workload on consecutive seeds in fresh
processes and checks each metric's spread against its bound:

    python3 perfbench/run.py --steady --workload all --seed 100 --runs 10

BLAS thread variables are set here, before numpy is first imported, so
``--threads`` takes effect; the run record reports what the loaded BLAS
actually uses.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"],
                        help="workload to run ('all' only with --steady)")
    parser.add_argument("--seed", type=_non_negative, required=True,
                        help="workload seed (steadiness mode: first of --runs seeds)")
    parser.add_argument("--seconds", type=_positive, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=_positive, default=1,
                        help="BLAS/OpenMP threads, set before numpy loads (default: 1)")
    parser.add_argument("--steady", action="store_true",
                        help="repeat the workload on --runs seeds and check metric spreads")
    parser.add_argument("--runs", type=_positive, default=10, help="runs per workload (--steady)")
    parser.add_argument("--against", default=None,
                        help="steadiness summary JSON of an earlier set of runs to compare medians with")
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.steady:
        parser.error("--workload all needs --steady")
    return args


def main(argv=None):
    if not (SRC / "mfskmodem" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout holding src/mfskmodem and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    args = parse_args(sys.argv[1:] if argv is None else argv, spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    WORK.mkdir(exist_ok=True)
    if args.steady:
        import steady

        return steady.main(args, spec, WORK)

    threads = {"inherited": {var: os.environ.get(var) for var in THREAD_VARS},
               "set": {var: str(args.threads) for var in THREAD_VARS}}
    os.environ.update(threads["set"])
    sys.path.insert(0, str(SRC))
    import mfskmodem

    if Path(mfskmodem.__file__).resolve().parent != SRC / "mfskmodem":
        print(f"error: imported mfskmodem from {mfskmodem.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        metrics, tally, notes, tracer = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    unknown = sorted(set(metrics) - {m["name"] for m in declared})
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 2
    # A layer the workload never calls did no work: its counts and times are 0.
    values = {m["name"]: float(metrics.get(m["name"], 0.0)) for m in declared}
    for name, value in values.items():
        if value != value or value in (float("inf"), float("-inf")):
            tally.check(False, f"metric {name} is not finite")
            values[name] = 0.0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = harness.run_record(args, threads)
    record.update(notes=notes, attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, metrics=values)
    (WORK / "runs").mkdir(exist_ok=True)
    with open(WORK / "runs" / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    if tracer is not None:
        (WORK / "traces").mkdir(exist_ok=True)
        tracer.write(WORK / "traces" / f"{stem}.jsonl")

    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"run-record: {json.dumps({k: v for k, v in record.items() if k != 'metrics'}, default=str)}")
    for m in declared:
        print(f"{args.workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
