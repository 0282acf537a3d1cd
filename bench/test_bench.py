"""Tests for the benchmark itself; run with `python3 -m pytest bench`."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import semroute.routing  # noqa: E402
from semroute.knowledge import KnowledgeBase  # noqa: E402
from semroute.sim import load_scenario, oracle_deliveries, run  # noqa: E402

from run import (  # noqa: E402
    COMPLETE,
    END_TO_END,
    PER_LAYER_TIMED,
    WORKLOADS,
    per_layer,
    per_layer_unit,
)
from tracing import END, PARENT, START, Tracer  # noqa: E402
from workloads import generate  # noqa: E402

TINY = {
    "sem-publish": {"brokers": 5, "subscriptions": 12, "publications": 30, "terms": 40},
    "syn-subscribe": {"brokers": 6, "subscriptions": 40, "publications": 6},
    "sem-churn": {"brokers": 5, "subscriptions": 20, "publications": 20, "terms": 40},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert generate(workload, 7, **TINY[workload]) == generate(workload, 7, **TINY[workload])
    assert generate(workload, 7, **TINY[workload]) != generate(workload, 8, **TINY[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_loads_and_routes_at_tiny_size(workload, seed):
    scenario = load_scenario(generate(workload, seed, **TINY[workload]))
    got = set(run(scenario).deliveries)
    expected = oracle_deliveries(scenario)
    assert expected
    assert got <= expected
    if workload in COMPLETE:
        assert got == expected


def test_default_sizes_load():
    for workload in WORKLOADS:
        load_scenario(generate(workload, 1))


def _traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "measure.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--sizes", json.dumps(TINY[workload]),
            "--trace",
        ],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    return json.loads(done.stdout)


def _traced_counts(workload: str, seed: int) -> dict:
    metrics = _traced(workload, seed)["metrics"]
    return {k: v for k, v in metrics.items() if k not in PER_LAYER_TIMED}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_across_traced_runs(workload):
    first = _traced_counts(workload, 5)
    assert first["routing.messages.publish"] > 0
    assert first == _traced_counts(workload, 5)


def test_syntactic_workload_makes_no_semantic_calls():
    counts = _traced_counts("syn-subscribe", 5)
    assert counts["semantic.sem_match.calls"] == 0
    assert counts["semantic.sem_covers.calls"] == 0
    assert counts["semantic.sem_intersects.calls"] == 0
    assert counts["syntactic.covers.calls"] > 0


def test_self_time_within_span_time_and_patches_undone():
    original = semroute.routing.handle_publish
    scenario = load_scenario(generate("sem-churn", 3, **TINY["sem-churn"]))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.spanned("sim.run", run)(tracer.traced_scenario(scenario))
    finally:
        tracer.uninstall()
    assert semroute.routing.handle_publish is original
    assert isinstance(vars(KnowledgeBase)["empty"], classmethod)
    names = {span[0] for span in tracer.spans}
    assert {"sim.run", "sim.action.publish", "routing.handle_publish"} <= names
    assert tracer.spans[0][PARENT] == -1
    for span, own in zip(tracer.spans, tracer.self_times()):
        assert -1e-9 <= own <= span[END] - span[START]
    summary = tracer.summary()
    for name, row in summary.items():
        assert row["self_s"] <= row["total_s"] + 1e-9, name
    actions = summary["sim.action.publish"]["calls"] + summary["sim.action.subscribe"]["calls"]
    assert actions + summary["sim.action.advertise"]["calls"] == len(scenario.script)


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"),
         "--workload", "sem-publish", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_metrics_match_benchmark_declaration():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    traced = _traced("sem-churn", 5)
    metrics, repeatable = per_layer([traced, traced])
    assert repeatable
    assert units == {name: per_layer_unit(name) for name in metrics}
