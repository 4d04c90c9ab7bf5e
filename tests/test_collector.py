"""The cyclic garbage collector is paused while a run is served and while a
trace file is read, and the caller's setting comes back afterwards.

The pause is safe only because the simulator, the sampler, the strategies
and the report make no reference cycles; ``test_runs_leave_no_cyclic_garbage``
pins that invariant for every kind on both golden scenarios.
"""

import gc
import random

import pytest

from reprtrace import model as model_module
from reprtrace.model import SamplerConfig, TraceRecord, read_trace_file, write_trace_file
from reprtrace.report import load_run, save_run, summarize_run
from reprtrace.simulator import Simulation, offered_stream, run_scenario
from reprtrace.strategies import Strategy, StrategyKind
from test_golden import SCENARIOS
from test_simulator import small_model, small_workload

KINDS = [k.value for k in StrategyKind]


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def caller_setting(request):
    """The caller's collector setting; the collector is on again after the test."""
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    gc.enable()


class _RaisingStrategy(Strategy):
    """Traces nothing and raises on its ``fail_at``-th request."""

    kind = StrategyKind.NOM
    rate = 0.0

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = 0

    def decide(self, request, now, rng):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("decide failed")
        return None


def _traces_file(tmp_path):
    path = tmp_path / "traces.txt"
    write_trace_file(path, run_scenario(small_model(), small_workload(), "UNI", 1).traces)
    return path


class TestSimulationRun:
    def test_collector_off_in_every_step(self, monkeypatch):
        assert gc.isenabled()
        steps = []
        step = Simulation.step

        def checked_step(self, second, offered):
            assert not gc.isenabled(), "a second was served with the collector on"
            steps.append(second)
            return step(self, second, offered)

        monkeypatch.setattr(Simulation, "step", checked_step)
        run_scenario(small_model(), small_workload(duration=5), "ADP", 1)
        assert steps == [0, 1, 2, 3, 4]

    def test_caller_setting_restored(self, caller_setting):
        run_scenario(small_model(), small_workload(duration=5), "FUM", 1)
        assert gc.isenabled() is caller_setting

    def test_caller_setting_restored_when_decide_raises(self, caller_setting):
        strategy = _RaisingStrategy(fail_at=500)
        sim = Simulation(small_model(), strategy, SamplerConfig(), seed=1)
        stream = offered_stream(small_model(), small_workload(), random.Random(1))
        with pytest.raises(RuntimeError, match="decide failed"):
            sim.run(stream)
        # Partway through: some seconds were served before the failure.
        assert sim.seconds and strategy.calls == 500
        assert gc.isenabled() is caller_setting


class TestReadTraceFile:
    def test_collector_off_while_building_records(self, tmp_path, monkeypatch):
        assert gc.isenabled()
        path = _traces_file(tmp_path)
        built = []

        def checked_record(**fields):
            assert not gc.isenabled(), "a record was built with the collector on"
            built.append(1)
            return TraceRecord(**fields)

        monkeypatch.setattr(model_module, "TraceRecord", checked_record)
        assert len(read_trace_file(path)) == len(built) > 0

    def test_caller_setting_restored(self, tmp_path, caller_setting):
        path = _traces_file(tmp_path)
        assert read_trace_file(path)
        assert gc.isenabled() is caller_setting

    def test_caller_setting_restored_when_a_row_raises(self, tmp_path, caller_setting):
        path = _traces_file(tmp_path)
        with open(path, "a", newline="") as handle:
            handle.write("0,/owners,12\r\n")
        with pytest.raises(ValueError, match="not enough values to unpack"):
            read_trace_file(path)
        assert gc.isenabled() is caller_setting


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_runs_leave_no_cyclic_garbage(scenario, kind, tmp_path):
    """Reference counting alone frees a run, its reduction and its reload."""
    model, workload = SCENARIOS[scenario]()
    gc.collect()
    run = run_scenario(model, workload, kind, 1)
    summary = summarize_run(run)
    # The simulation, its strategy and every temporary are gone already.
    assert gc.collect() == 0
    run_dir = save_run(run, tmp_path / f"{kind}_s1")
    # save_run runs with the collector on, and json.dumps(indent=2) leaves one
    # cycle of the stdlib encoder's closures per call: collect only that.  A
    # cycle through the run stays reachable here and is counted below.
    gc.collect()
    loaded = load_run(run_dir)
    assert loaded.type_counts == summary.type_counts
    del run, summary, loaded
    assert gc.collect() == 0
