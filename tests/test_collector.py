"""The cyclic garbage collector is paused while a trace file is read, and
the caller's setting comes back afterwards.

``read_trace_file`` builds two objects per line, which the collector would
otherwise scan over and over and find nothing.  The pause is safe only
because the records it builds make no reference cycle;
``test_runs_leave_no_cyclic_garbage`` pins that no run, reduction or reload
makes one either, for every kind on both golden scenarios.
"""

import gc

import pytest

from reprtrace import model as model_module
from reprtrace.model import TraceRecord, read_trace_file, write_trace_file
from reprtrace.report import load_run, save_run, summarize_run
from reprtrace.simulator import run_scenario
from reprtrace.strategies import StrategyKind
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


def _traces_file(tmp_path):
    path = tmp_path / "traces.txt"
    write_trace_file(path, run_scenario(small_model(), small_workload(), "UNI", 1).traces)
    return path


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
