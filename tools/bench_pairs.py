"""Run alternating benchmark pairs of two commits and record them as a BENCH_*.json.

Exports ``--parent`` and ``--change`` with ``git archive`` into a temporary
directory, then runs ``perfbench/run.py`` of each tree, each run in a fresh
process, in ``--pairs`` alternating pairs: pair i uses seed ``--seed + i``
for every workload, and the side that runs first alternates by pair
(parent first in odd pairs).  Only the end-to-end metrics are read (no
traced runs), plus the user and system CPU seconds of each whole run from
perfbench's ``run-record:`` line.  Run it from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload train-m8 --pairs 10 --seconds 15 --threads 1 --out BENCH_11.json

``--out`` gets the layout of the BENCH_*.json files: change, parent_commit,
change_commit, machine, method, claim, one summary entry per workload and
thread count (median and inclusive quartiles of each metric per side, the
change/parent ratio of the medians, in how many pairs the change was
better, and each side's median system CPU seconds), and every run.  When ``--out`` exists and compares the same two
commits, the new summaries and runs are added to it; a workload and thread
count it already holds is refused.  ``--key NAME`` keeps the comparison
under that top-level key of ``--out`` instead, so one file can also hold
the pairs against an older baseline commit.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RECORD = "run-record: "


def _commit(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()


def _export(commit: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def parse_output(stdout: str) -> dict:
    """The result object of a perfbench run (its last stdout line), with the
    ``cpu_s`` (user and system seconds) of its ``run-record:`` line added."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(json.loads(line.removeprefix(RECORD)) for line in lines
                  if line.startswith(RECORD))
    result["cpu_s"] = record["cpu_s"]
    return result


def _run(tree: Path, workload: str, seed: int, seconds: int, threads: int) -> dict:
    """One perfbench run, read by parse_output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--threads", str(threads)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return parse_output(proc.stdout)


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, workload, threads, seconds, better):
    """One summary entry of ``runs`` (both sides of every pair of one workload)."""
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
               for side in SIDES}
    pairs = list(zip(by_side["parent"], by_side["change"]))
    metrics = {}
    for name in by_side["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name] for r in by_side[side]] for side in SIDES}
        entry = {side: _quartiles(values[side]) for side in SIDES}
        parent_median = entry["parent"]["median"]
        entry["ratio"] = entry["change"]["median"] / parent_median if parent_median else None
        sign = 1 if better[name] == "higher" else -1
        entry["change_better_pairs"] = sum(
            sign * (c["metrics"][name] - p["metrics"][name]) > 0 for p, c in pairs)
        metrics[name] = entry
    return {
        "workload": workload,
        "threads": threads,
        "seconds": seconds,
        "pairs": len(pairs),
        "seeds": [p["seed"] for p, _ in pairs],
        "all_correct": all(r["correct"] for r in runs),
        "failed_ops": {side: sum(r["failed"] for r in by_side[side]) for side in SIDES},
        "metrics": metrics,
        "system_s_median": {side: statistics.median(r["cpu_s"]["system"] for r in by_side[side])
                            for side in SIDES},
        "system_s_note": ("system CPU seconds of the whole perfbench process (getrusage at "
                          "its end: imports, setup, warm-up and the measured ops together), "
                          "median per side"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", required=True, help="commit under test")
    parser.add_argument("--workload", required=True, nargs="+", help="perfbench workloads")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (default 10)")
    parser.add_argument("--seconds", type=int, default=15, help="measured seconds per run")
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads per run")
    parser.add_argument("--seed", type=int, default=1001, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="BENCH_*.json to write or extend")
    parser.add_argument("--key", default=None,
                        help="store the comparison under this top-level key of --out")
    parser.add_argument("--note", default="", help="what the change is (the 'change' field)")
    parser.add_argument("--claim", default=None, help="the claimed gain, if any")
    parser.add_argument("--machine", default="", help="a description of the machine")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds < 1 or args.threads < 1:
        parser.error("--pairs must be >= 2, --seconds and --threads >= 1")

    commits = {"parent": _commit(args.parent), "change": _commit(args.change)}
    out = Path(args.out)
    document = json.loads(out.read_text()) if out.exists() else {}
    target = document.setdefault(args.key, {}) if args.key else document
    if target and (target["parent_commit"], target["change_commit"]) != (
            commits["parent"], commits["change"]):
        parser.error(f"{out} compares other commits")
    held = {(s["workload"], s["threads"]) for s in target.get("summary", [])}
    clash = sorted(w for w in args.workload if (w, args.threads) in held)
    if clash:
        parser.error(f"{out} already holds {', '.join(clash)} at --threads {args.threads}")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: _export(commits[side], Path(tmp) / side) for side in SIDES}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        runs = []
        for pair in range(1, args.pairs + 1):
            seed = args.seed + pair - 1
            order = SIDES if pair % 2 else SIDES[::-1]
            for workload in args.workload:
                for side in order:
                    result = _run(trees[side], workload, seed, args.seconds, args.threads)
                    runs.append({
                        "side": side, "workload": workload, "threads": args.threads,
                        "pair": pair, "seed": seed, "first": order[0],
                        "correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"], "cpu_s": result["cpu_s"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    })
                    print(f"pair {pair} {workload} {side}: items_per_s "
                          f"{runs[-1]['metrics']['items_per_s']:.6g} correct "
                          f"{result['correct']}", file=sys.stderr, flush=True)

    if not target:
        target.update({
            "change": args.note,
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "machine": {"arch": platform.machine(), "system": platform.system(),
                        "release": platform.release(), "nproc": os.cpu_count(),
                        "note": args.machine},
            "method": ("tools/bench_pairs.py: perfbench/run.py --workload W --seed S "
                       "--seconds N --threads T of each commit, exported with git archive, "
                       "each run a fresh process; one seed per pair, the same seed for every "
                       "workload of a pair; the side that runs first alternates by pair "
                       "(column 'first'). End-to-end metrics, plus each run's user and system "
                       "CPU seconds from its run-record line; no traced runs."),
            "claim": args.claim,
            "summary": [],
            "runs": [],
        })
    elif args.claim is not None:
        target["claim"] = args.claim
    for workload in args.workload:
        target["summary"].append(summarize([r for r in runs if r["workload"] == workload],
                                           workload, args.threads, args.seconds, better))
    target["runs"].extend(runs)
    out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
