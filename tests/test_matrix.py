"""run_matrix: one offered stream per seed, drawn once, packed and replayed.

Every run it yields must equal the run ``run_scenario`` gives for the same
kind and seed, whatever the order of the kinds, and a run the caller drops
must be freed before the next kind starts.  The packed tape is memoized by
(model, workload, seed), so consecutive calls on one seed draw the stream
once; a run served ``offered_stream`` as drawn must give the same
digests.
"""

import dataclasses
import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprtrace import simulator
from reprtrace.model import SamplerConfig
from reprtrace.simulator import (Simulation, WorkloadSpec, offered_stream, run_matrix,
                                 run_scenario)
from reprtrace.strategies import StrategyKind, make_strategy
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

    def checked_step(self, offered):
        if not self.seconds:
            # Reference counting alone must free them: the collector is off.
            assert all(ref() is None for ref in runs), "a dropped run is still alive"
            assert all(ref() is None for ref in sims), "a finished simulation is still alive"
            sims.append(weakref.ref(self))
        return step(self, offered)

    monkeypatch.setattr(Simulation, "step", checked_step)
    gc.disable()
    try:
        for run in run_matrix(model, workload, KINDS, 1):
            runs.append(weakref.ref(run))
            del run
    finally:
        gc.enable()
    assert len(runs) == len(sims) == len(KINDS)


def test_stream_drawn_once_per_model_workload_and_seed(monkeypatch):
    draws = []
    drawn = simulator.offered_stream

    def counting(model, workload, rng):
        draws.append(1)
        return drawn(model, workload, rng)

    monkeypatch.setattr(simulator, "offered_stream", counting)
    simulator._tape.cache_clear()
    model, workload = SCENARIOS["loaded"]()
    runs = [run_scenario(model, workload, kind, 2) for kind in KINDS]
    assert len(draws) == 1
    assert run_digest(runs[0]) == GOLDEN[("loaded", "ADP", 2)]
    assert [run_digest(run) for run in runs] == [GOLDEN[("loaded", kind, 2)] for kind in KINDS]
    # Keyed by value: a scenario built anew is the same stream.
    run_scenario(*SCENARIOS["loaded"](), "NOM", 2)
    assert len(draws) == 1
    # Another seed, or a changed model, is another stream; so is the seed 1.0,
    # which seeds its generator with "1.0:workload".
    run_scenario(model, workload, "NOM", 1)
    assert len(draws) == 2
    changed = dataclasses.replace(model, capacity_users=model.capacity_users + 1)
    run_scenario(changed, workload, "NOM", 1)
    assert len(draws) == 3
    run_scenario(changed, workload, "NOM", 1.0)
    assert len(draws) == 4
    assert list(run_matrix(model, workload, [], 3)) == []
    assert len(draws) == 4


def test_list_built_scenario_runs_as_the_tuple_built_one():
    model, workload = SCENARIOS["loaded"]()
    listed_model = dataclasses.replace(model, types=list(model.types))
    listed_workload = WorkloadSpec(segments=list(workload.segments))
    assert (listed_model, listed_workload) == (model, workload)
    simulator._tape.cache_clear()
    run = run_scenario(listed_model, listed_workload, "ADP", 1)
    assert run_digest(run) == GOLDEN[("loaded", "ADP", 1)]


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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_stream_served_as_drawn_matches_golden_digest(scenario, kind, seed):
    # The generator as drawn, not the memoized tape: both must serve the same values.
    model, workload = SCENARIOS[scenario]()
    config = SamplerConfig()
    stream = offered_stream(model, workload, random.Random(f"{seed}:workload"))
    run = Simulation(model, make_strategy(kind, config), config, seed).run(stream)
    assert run_digest(run) == GOLDEN[(scenario, kind, seed)]
