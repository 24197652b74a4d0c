import json
from pathlib import Path

import pytest
import run
import tracing
import workloads

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

# Small inputs so the self-test stays quick.
SMALL = {"simulation": {"n": 4000, "bin_width": 10.0}, "policy": {"grid_step": 0.1, "frontier_resolution": 20}}


def small_workload(staged):
    policy = {**SMALL["policy"], "kind": "PSF" if staged else "none"}
    return workloads.Workload("small", {**SMALL, "policy": policy}, staged=staged)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("staged", [False, True], ids=["run", "staged"])
def test_traced_run_lists_every_per_layer_metric(tmp_path, staged):
    metrics, attempted, failed, record, spans = run.measure(
        small_workload(staged), seed=1, seconds=0, trace=1, work=tmp_path
    )

    assert set(metrics) == set(run.metric_units(trace=1))
    assert [o["traced"] for o in record["ops"]] == [False, True, False, True]
    assert record["timings"]["setup_s"]["n"] == 5 * run.SETUP_PROBES
    assert failed == 0, [o["problems"] for o in record["ops"]]
    assert metrics["trace.top_level_coverage"] > 0.99
    assert metrics["dist.discretize_calls"] == 2
    if staged:
        assert metrics["dist.bytes_read"] == 3 * metrics["dist.bytes_written"]
        assert metrics["linprog.solve_calls"] == 1
    else:
        assert metrics["pareto.frontier_calls"] == 8
        assert metrics["fairness.cpp_lattice_points"] == 11
        assert metrics["linprog.solve_calls"] == 6 + 11
    assert not list(tmp_path.glob("*")), "operation outputs are removed"


def test_untraced_run_repeats_every_dataset(tmp_path):
    workload = workloads.Workload("small", small_workload(True).overrides, staged=True, datasets=2)
    metrics, attempted, failed, record, spans = run.measure(workload, seed=1, seconds=0, trace=0, work=tmp_path)

    assert set(metrics) == set(run.metric_units(trace=0))
    assert [o["seed"] for o in record["ops"]] == [1, 100001, 1, 100001]
    assert failed == 0 and not spans


def test_changed_counter_fails_the_traced_operation(tmp_path, monkeypatch):
    calls = []

    def perturbed(*args, **kwargs):
        layer = tracing_layer_metrics(*args, **kwargs)
        calls.append(layer)
        layer["linprog.solve_calls"] += len(calls) - 1
        return layer

    tracing_layer_metrics = tracing.layer_metrics
    monkeypatch.setattr(tracing, "layer_metrics", perturbed)
    metrics, attempted, failed, record, spans = run.measure(
        small_workload(True), seed=1, seconds=0, trace=1, work=tmp_path
    )

    assert len(calls) == 2 and failed == 1
    assert [bool(o["problems"]) for o in record["ops"]] == [False, False, False, True]
    assert "counters differ" in record["ops"][3]["problems"][0]
