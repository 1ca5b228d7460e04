"""Steadiness mode: repeat workloads on consecutive seeds and check spreads.

Each run is a fresh process of run.py with tracing off.  For every
end-to-end metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
and checks the spread against the metric's bound in BENCHMARK.json
(set-up time excepted: its bound limits drift between sets of runs, not
spread).  ``--against`` compares the medians with an earlier summary:
no metric may be worse by more than its bound.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900


def _one_run(workload, seed, args):
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", "0", "--threads", str(args.threads)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"no result within {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None, f"{result['failed']} of {result['attempted']} operations failed"
    return {name: m["value"] for name, m in result["metrics"].items()}, None


def _summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(args, spec, work):
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    if args.runs < 2:
        print("error: steadiness mode needs --runs >= 2", file=sys.stderr)
        return 2
    earlier = None
    if args.against:
        earlier = json.loads(Path(args.against).read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    summary = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
               "threads": args.threads, "workloads": {}}
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed + i
            metrics, error = _one_run(workload, seed, args)
            if error:
                print(f"{workload} seed {seed}: FAILED {error}")
                ok = False
                continue
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={value:.6g}" for name, value in metrics.items()), flush=True)
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
        stats = {name: _summarize(v) for name, v in values.items() if len(v) >= 2}
        summary["workloads"][workload] = stats
        for name, s in stats.items():
            bound = bounds[name]["bound"]
            verdict = "ok"
            if name != "setup_s" and s["spread"] > bound:
                verdict, ok = "SPREAD ABOVE BOUND", False
            elif name != "setup_s" and s["spread"] > bound / 3:
                verdict = "spread above a third of the bound"
            if earlier is not None and name in earlier["workloads"].get(workload, {}):
                before = earlier["workloads"][workload][name]["median"]
                worse = (s["median"] - before) / before
                if bounds[name]["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    verdict, ok = f"MEDIAN {100 * worse:.1f}% WORSE THAN EARLIER SET", False
            print(f"  {workload} {name}: median {s['median']:.6g} {bounds[name]['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {100 * s['spread']:.2f}% "
                  f"(bound {100 * bound:.0f}%) {verdict}")
    name = f"steady-{args.workload}-seed{args.seed}-runs{args.runs}.json"
    with open(work / name, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    print(f"summary written to {work / name}")
    return 0 if ok else 1
