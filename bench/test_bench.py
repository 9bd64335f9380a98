"""Smoke test of the benchmark: every workload at a tiny budget.

    python -m pytest bench/test_bench.py

Each workload runs once untraced and once traced, one plan per instance.  The
test checks the reported metric names and units against BENCHMARK.json, that
the human-readable lines name every end-to-end quantity, and that both
invocations write byte-identical artifacts.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED = {
    "plan_s_tail": "s",
    "setup_s": "s",
    "setup_s_raw": "s",
    "plan_s_p50": "s",
    "orders_per_s_scaled": "orders/s",
    "orders_per_s": "orders/s",
    "peak_rss_mb": "MB",
    "failed_frac": "failed/attempted",
}
PRINTED_QUALITY = {
    "tactical-8x8": ("mu_max", "placement_fitness"),
    "operational-8x8": ("mu_max", "makespan_routed", "lb_gap_pct", "routing_overhead_pct"),
    "batched-8x8": ("mu_max", "makespan_routed", "lb_gap_pct", "routing_overhead_pct"),
}
TINY = {
    "tactical-8x8": dict(instances=1, ga_evaluations=40),
    "operational-8x8": dict(instances=1, lns_iterations=1),
    "batched-8x8": dict(instances=1, lns_iterations=1),
}


def invoke(capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.fixture
def tiny(monkeypatch):
    for name, budget in TINY.items():
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **budget)
        )


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_budget_run(tiny, capsys, name):
    code0, lines0, doc0 = invoke(capsys, name, 0)
    code1, lines1, doc1 = invoke(capsys, name, 1)
    assert code0 == code1 == 0
    for doc, section in ((doc0, "end_to_end"), (doc1, "per_layer")):
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    e2e = doc0["metrics"]
    assert all(e2e[k]["value"] > 0 for k in e2e)

    printed = {ln.split()[1]: ln.split()[3] for ln in lines0 if ln.startswith("metric ")}
    want = dict(PRINTED)
    want.update({q: run.QUALITY_UNITS[q] for q in PRINTED_QUALITY[name]})
    assert {k: printed.get(k) for k in want} == want

    digests0 = [ln for ln in lines0 if ln.startswith("digest ")]
    digests1 = [ln for ln in lines1 if ln.startswith("digest ")]
    assert len(digests0) == 2 and digests0 == digests1


def test_missing_source_exits_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "operational-8x8", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
