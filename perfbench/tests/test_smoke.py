"""Tiny-size runs of every workload, untraced and traced.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

import churn
import fanout
import rtbroker

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def assert_clean(outcome):
    assert outcome.violations == []
    assert outcome.failed == 0
    assert outcome.expected > 0
    assert outcome.logged_pairs_per_s > 0
    assert outcome.peak_rss_mb > 0
    assert all(s > 0 for s in outcome.setup_s)


def test_fanout_tiny(monkeypatch):
    monkeypatch.setattr(fanout, "SUBSCRIBERS", 2_000)
    monkeypatch.setattr(fanout, "BURST_EVENTS", 5)
    outcome = fanout.run(seed=3, seconds=0.2)
    assert_clean(outcome)
    assert outcome.report["bursts"][0] >= 1


def test_churn_tiny(monkeypatch):
    monkeypatch.setattr(churn, "SETUP_REPEATS", 1)
    outcome = churn.run(seed=3, seconds=0.5)
    assert_clean(outcome)
    assert outcome.report["deliveries_per_s"][0] > 0


def test_rt_broker_tiny(monkeypatch):
    for name, value in (("POPULATION", 4), ("SETUP_REPEATS", 1), ("BURSTS", 1),
                        ("BURST_EVENTS", 30), ("LADDER_RATES", (50, 100)),
                        ("CATCHUP_EVENTS", 20)):
        monkeypatch.setattr(rtbroker, name, value)
    outcome = rtbroker.run(seed=3, seconds=1.0)
    assert_clean(outcome)
    assert outcome.report["deliver_samples"][0] > 0


def run_cli(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_churn_untraced_reports_end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    result = run_cli("churn-catchup", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", ["churn-catchup", "rt-broker"])
def test_cli_traced_reports_every_layer_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    result = run_cli(workload, 1)
    metrics = result["metrics"]
    assert result["correct"] is True
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    if workload == "churn-catchup":
        # Self times plus ``other`` account for the traced drive exactly.
        total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        assert total == pytest.approx(metrics["trace.drive_wall_s"]["value"], rel=1e-9)
    else:
        assert metrics["adapters.rt.frames"]["value"] > 0
        assert metrics["storage.syncs"]["value"] > 0
