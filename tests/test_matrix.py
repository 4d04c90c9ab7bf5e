"""run_matrix: one offered stream per seed, recorded once and replayed.

Every run it yields must equal the run ``run_scenario`` gives for the same
kind and seed, whatever the order of the kinds, and a run the caller drops
must be freed before the next kind starts.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprtrace import simulator
from reprtrace.simulator import Simulation, run_matrix, run_scenario
from reprtrace.strategies import StrategyKind
from test_golden import GOLDEN, SCENARIOS, SEEDS, run_digest

KINDS = [k.value for k in StrategyKind]


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_run_matches_golden_digest(scenario, seed, order):
    model, workload = SCENARIOS[scenario]()
    kinds = KINDS if order == "forward" else KINDS[::-1]
    seen = []
    for run in run_matrix(model, workload, kinds, seed):
        seen.append(run.strategy.value)
        assert run.seed == seed
        assert run_digest(run) == GOLDEN[(scenario, run.strategy.value, seed)]
    assert seen == kinds


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=len(KINDS), unique=True),
)
def test_matrix_equals_separate_runs(seed, kinds):
    model, workload = SCENARIOS["small"]()
    got = [(run.strategy.value, run_digest(run))
           for run in run_matrix(model, workload, kinds, seed)]
    want = [(kind, run_digest(run_scenario(model, workload, kind, seed))) for kind in kinds]
    assert got == want


def test_dropped_run_is_freed_before_the_next_kind_steps(monkeypatch):
    model, workload = SCENARIOS["small"]()
    runs: list[weakref.ref] = []
    sims: list[weakref.ref] = []
    step = Simulation.step

    def checked_step(self, second, offered):
        if second == 0:
            # Reference counting alone must free them: the collector is off.
            assert all(ref() is None for ref in runs), "a dropped run is still alive"
            assert all(ref() is None for ref in sims), "a finished simulation is still alive"
            sims.append(weakref.ref(self))
        return step(self, second, offered)

    monkeypatch.setattr(Simulation, "step", checked_step)
    gc.disable()
    try:
        for run in run_matrix(model, workload, KINDS, 1):
            runs.append(weakref.ref(run))
            del run
    finally:
        gc.enable()
    assert len(runs) == len(sims) == len(KINDS)


def test_one_kind_records_nothing(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a single kind has nothing to replay to")

    monkeypatch.setattr(simulator, "array", refuse)
    model, workload = SCENARIOS["loaded"]()
    (run,) = run_matrix(model, workload, ["ADP"], 2)
    assert run_digest(run) == GOLDEN[("loaded", "ADP", 2)]


def test_unknown_kind_fails_before_any_run(monkeypatch):
    def refuse(*_args):
        raise AssertionError("simulated before the kinds were checked")

    monkeypatch.setattr(Simulation, "run", refuse)
    model, workload = SCENARIOS["small"]()
    with pytest.raises(ValueError):
        next(run_matrix(model, workload, ["ADP", "XYZ"], 1))


def test_no_kinds_no_runs():
    model, workload = SCENARIOS["small"]()
    assert list(run_matrix(model, workload, [], 1)) == []
