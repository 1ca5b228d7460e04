"""Runs one workload: timed set-ups, timed ops, batch-1 latency, checks.

Untraced (``trace=False``): ops repeat for ``seconds``, each followed by
batch-1 latency calls for the workload's latency share of the op's time;
the result holds the end-to-end metrics.  Traced: each of the workload's
fixed number of ops runs once with tracing off and once on, then a fixed
number of latency calls, so the exact counts repeat and the tracing
overhead is measured on equal work; the result holds the per-layer
metrics.
"""

import ctypes
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from spans import NullTracer, Tracer
from workloads import WORKLOADS

MIN_LATENCY_CALLS = 200  # p95 then has at least ten samples beyond it
WARMUP_CALLS = 5


class Tally:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _run_op(workload, index, tracer, tally, rates):
    """Time op ``index``, check it, and append its rate (items/s)."""
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        output = workload.op(index, tracer)
        elapsed = time.perf_counter() - t0
        workload.check(index, output, tally)
    except Exception:
        tally.failed += 1
        tally.failures.append(f"op {index} raised:\n{traceback.format_exc()}")
    else:
        rates.append(workload.items(output) / elapsed)


def _run_latency(workload, tracer, tally, times, count=None, budget_s=None):
    """Append batch-1 call times (s): ``count`` calls, or calls until ``budget_s``."""
    start = time.perf_counter()
    calls = 0
    while calls < count if count is not None else time.perf_counter() - start < budget_s:
        index = len(times)
        tally.attempted += 1
        try:
            t0 = time.perf_counter()
            workload.demod_b1(index, tracer)
            times.append(time.perf_counter() - t0)
        except Exception:
            tally.failed += 1
            tally.failures.append(f"latency call {index} raised:\n{traceback.format_exc()}")
            times.append(float("nan"))
        calls += 1


def _percentile_ms(times, q):
    return 1e3 * float(np.percentile(times, q))


def run(name, seed, seconds, trace, workdir):
    """(metrics, tally, notes, tracer or None) for one run of workload ``name``."""
    workload = WORKLOADS[name](seed, workdir)
    tally = Tally()
    notes = {"params": workload.params, "item": workload.item}
    if not trace:
        setup_times = []
        for _ in range(workload.setups):
            t0 = time.perf_counter()
            workload.setup(NullTracer())
            setup_times.append(time.perf_counter() - t0)
        # Each op is followed by a burst of batch-1 calls lasting the latency
        # share of that op's time, so both samples span the whole run.
        rates, times = [], []
        ratio = (1.0 - workload.op_share) / workload.op_share
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            _run_op(workload, index, NullTracer(), tally, rates)
            if index == 0:
                _run_latency(workload, NullTracer(), tally, [], count=WARMUP_CALLS)
            _run_latency(workload, NullTracer(), tally, times,
                         budget_s=ratio * (time.perf_counter() - t0))
            index += 1
        _run_latency(workload, NullTracer(), tally, times,
                     count=max(0, MIN_LATENCY_CALLS - len(times)))
        workload.finish(tally)
        # The median batch-1 latency is recorded but not gated: see README.md.
        notes.update(setup_times_s=setup_times, ops=len(rates), op_rates=rates,
                     latency_calls=len(times), latency_p50_ms=_percentile_ms(times, 50))
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
            "items_per_s": statistics.median(rates) if rates else float("nan"),
            "latency_p95_ms": _percentile_ms(times, 95),
        }
        return metrics, tally, notes, None

    tracer = Tracer()
    workload.setup(tracer)
    # Each op index runs untraced and traced on the same inputs, the first
    # of the pair alternating, so neither drift in the machine's speed nor
    # a cold first op shows up as tracing overhead.
    untraced, traced = [], []
    for index in range(workload.traced_ops):
        pair = [(NullTracer(), untraced), (tracer, traced)]
        for op_tracer, rates in pair if index % 2 == 0 else pair[::-1]:
            _run_op(workload, index, op_tracer, tally, rates)
    _run_latency(workload, NullTracer(), tally, [], count=WARMUP_CALLS)
    _run_latency(workload, tracer, tally, [], count=MIN_LATENCY_CALLS)
    workload.finish(tally)
    metrics = workload.layer_metrics(tracer)
    if untraced and traced:
        base = statistics.median(untraced)
        metrics["trace.overhead_pct"] = 100.0 * (base - statistics.median(traced)) / base
    notes.update(ops=workload.traced_ops, latency_calls=MIN_LATENCY_CALLS,
                 untraced_items_per_s=untraced, traced_items_per_s=traced,
                 spans=len(tracer.spans), run_id=tracer.run_id)
    return metrics, tally, notes, tracer


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def run_record(args, threads):
    """Seed, workload and environment of this run, as observed."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads_requested": args.threads,
        "thread_env": threads,
        "blas_threads_effective": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_s": {"user": usage.ru_utime, "system": usage.ru_stime},
        "machine": {"node": platform.node(), "arch": platform.machine(), "cpu": cpu,
                    "system": platform.system(), "release": platform.release()},
        "argv": sys.argv,
    }

