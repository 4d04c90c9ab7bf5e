"""Tiny runs of every workload through ``run.main``, on a 20 s scenario and
30 s engine streams, against a reference recorded by the test itself."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from conftest import BENCH

import reprtrace
import reprtrace.cli
import reprtrace_seed
import reprtrace_seed.cli


def _tiny_scenario(pkg):
    base = pkg.default_scenario()
    workload = pkg.WorkloadSpec((pkg.Stationary(users=8, duration=10),
                                 pkg.Seasonal(base_users=8, amplitude=12, period=10, duration=10)))
    return pkg.Scenario(model=base.model, workload=workload, sampler=base.sampler)


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    for pkg in (reprtrace, reprtrace_seed):
        scenario = _tiny_scenario(pkg)
        monkeypatch.setattr(pkg, "default_scenario", lambda scenario=scenario: scenario)
        monkeypatch.setattr(pkg.cli, "default_scenario", lambda scenario=scenario: scenario)
    monkeypatch.setattr(workloads, "ENGINE_SECONDS", 30)
    monkeypatch.setenv("REPRTRACE_THREADS", "2")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    reference: dict = {}
    checker = workloads.Checker(reference, record=True)
    for cls in workloads.WORKLOADS.values():
        assert cls(1, tmp_path, checker).run_pass(reprtrace).failed == 0
    reference["nominal"] = {name: {key: 1.0 for key in run.NOMINAL_KEYS}
                            for name in workloads.WORKLOADS}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", path)
    return tmp_path


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(run.WHY)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(tiny, capsys, workload, trace):
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_compare_sees_worker_spans(tiny, capsys):
    metrics = {k: v["value"] for k, v in _run(capsys, "compare", 1)["metrics"].items()}
    jobs = len(workloads.STRATEGIES) * workloads.SEEDS_PER_PASS
    assert metrics["scenario.parse_scenario.calls"] == jobs
    assert metrics["report.save_run.calls"] == jobs
    assert metrics["report.load_run.calls"] == jobs
    assert metrics["simulator.completed_req"] > 0
    assert 0 < metrics["cli.pool_utilization"] <= 1


def test_traced_engine_counts_every_decision(tiny, capsys):
    metrics = {k: v["value"] for k, v in _run(capsys, "engine", 1)["metrics"].items()}
    requests = sum(len(events) for seed in workloads.seed_range(1, workloads.ENGINE_STREAMS)
                   for events, _ in workloads.engine_stream(seed))
    assert metrics["sampler.decide.calls"] == requests
    assert metrics["simulator.step.calls"] == 0
    assert metrics["report.write_report.calls"] == 0


def test_perturbed_run_output_is_a_failed_operation(tiny, capsys, monkeypatch):
    original = reprtrace.simulator.run_scenario

    def perturbed(model, workload, kind, seed, config=None):
        result = original(model, workload, kind, seed, config)
        if kind == "ADP" and seed == 1:
            result.traces[0].event.memory_delta += 1.0
        return result

    monkeypatch.setattr(reprtrace.simulator, "run_scenario", perturbed)
    result = _run(capsys, "matrix", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    report = json.loads((run.OUT / "result-matrix-s1-t0.json").read_text())
    assert any(f.startswith("runs/ADP_s1:") for f in report["failures"])


def test_perturbed_engine_decision_is_a_failed_operation(tiny, capsys, monkeypatch):
    original = reprtrace.AdaptiveMonitor.decide

    def perturbed(self, request, rng):
        traced = original(self, request, rng)
        return (not traced) if request.start == 0 and self.population.total == 1 else traced

    monkeypatch.setattr(reprtrace.AdaptiveMonitor, "decide", perturbed)
    result = _run(capsys, "engine", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "engine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_baseline_gives_the_checkouts_outputs(tiny):
    """The frozen baseline times the same work: its outputs match the checkout's digests."""
    checker = workloads.Checker(json.loads(run.REFERENCE.read_text()))
    for cls in workloads.WORKLOADS.values():
        result = cls(1, tiny, checker).run_pass(reprtrace_seed)
        assert result.failed == 0 and result.attempted > 0, result.failures
