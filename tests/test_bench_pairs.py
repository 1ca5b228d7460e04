"""Tests for the pair summary of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(side, pair, rate, rss, correct=True, failed=0, system=0.0):
    return {"side": side, "workload": "w", "threads": 1, "pair": pair, "seed": 100 + pair,
            "first": "parent", "correct": correct, "attempted": 10, "failed": failed,
            "cpu_s": {"user": 20.0, "system": system},
            "metrics": {"items_per_s": rate, "peak_rss_mb": rss}}


def test_summary_counts_pairs_by_each_metrics_direction():
    parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    change = [150.0, 160.0, 100.0, 170.0, 180.0]
    runs = ([run("parent", i + 1, rate, 50.0, system=0.5 + 0.1 * i)
             for i, rate in enumerate(parent)]
            + [run("change", i + 1, rate, 50.0 - i + 2, failed=int(i == 4), system=0.01 * i)
               for i, rate in enumerate(change)])
    summary = bench_pairs.summarize(runs, "w", 1, 25,
                                    {"items_per_s": "higher", "peak_rss_mb": "lower"})
    assert summary["pairs"] == 5
    assert summary["seeds"] == [101, 102, 103, 104, 105]
    assert summary["failed_ops"] == {"parent": 0, "change": 1}
    rate = summary["metrics"]["items_per_s"]
    # Inclusive quartiles: the 25th and 75th percentiles of the sorted runs.
    assert rate["parent"] == {"median": 120.0, "q1": 110.0, "q3": 130.0}
    assert rate["ratio"] == pytest.approx(160.0 / 120.0)
    assert rate["change_better_pairs"] == 4  # pair 3 read slower
    # peak_rss_mb 52, 51, 50, 49, 48 against 50: lower wins, a tie counts for neither.
    assert summary["metrics"]["peak_rss_mb"]["change_better_pairs"] == 2
    # The median of each side's whole-process system seconds.
    assert summary["system_s_median"] == {"parent": pytest.approx(0.7),
                                          "change": pytest.approx(0.02)}
    assert "whole perfbench process" in summary["system_s_note"]


def test_output_keeps_the_cpu_seconds_of_the_run_record():
    record = {"workload": "w", "seed": 3, "cpu_s": {"user": 12.5, "system": 0.25}}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"items_per_s": {"value": 9.0, "unit": "1/s"}}}
    stdout = (f"run-record: {json.dumps(record)}\nw items_per_s = 9 1/s\n"
              f"{json.dumps(result)}\n")
    assert bench_pairs.parse_output(stdout) == {**result, "cpu_s": record["cpu_s"]}
