"""Runs, reductions and reloads make no reference cycle, so reference
counting alone frees them and the cyclic garbage collector finds nothing.

A run appends its traces to typed columns, and ``read_trace_file`` reads a
saved run back into columns, so neither builds an object per request or
per trace; ``test_runs_leave_no_cyclic_garbage`` pins that none of them
leaves a cycle behind either, for every kind on both golden scenarios.
"""

import gc

import pytest

from reprtrace.report import load_run, save_run, summarize_run
from reprtrace.simulator import run_scenario
from reprtrace.strategies import StrategyKind
from test_golden import SCENARIOS

KINDS = [k.value for k in StrategyKind]


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
