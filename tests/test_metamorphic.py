"""Metamorphic relations on the default scenario.

Exact relations: a change to the scenario that must leave a run as it was.
The first segment, ``Stationary(users=8, duration=60)``, split in two or
rewritten as a flat ``Seasonal`` or ``Burst``, schedules the same users in
every second, and doubling every type weight leaves each type's share as it
was; so ADP and INV must give the same run, on seeds 1 and 11.  Two runs are
the same when the three files ``save_run`` writes have the same bytes and
their sampler events compare equal.

A run served in pieces is the run served whole: ADP and INV served the
stream as two ``Simulation.run`` calls, split at second 300, give the same
series, events and trace rows as one call, and release the same cycles and
sampler events over the two calls.

Relations over the scenario's own runs, all five kinds on the same seeds:
NOM, which never traces, completes at least as many requests as every kind
in every second, and FUM traces every request it completes.
"""

import random
from dataclasses import replace
from itertools import islice

import pytest

from reprtrace.report import save_run
from reprtrace.scenario import default_scenario
from reprtrace.simulator import (Burst, Seasonal, Simulation, Stationary, WorkloadSpec,
                                 offered_stream, run_matrix, run_scenario)
from reprtrace.strategies import make_strategy
from reference_simulator import run_parts

SEEDS = (1, 11)
EXACT_KINDS = ("ADP", "INV")
KINDS = ("ADP", "INV", "UNI", "FUM", "NOM")
RUN_FILES = ("series.csv", "traces.txt", "run.json")


def _first_segment_as(scenario, *segments):
    """``scenario`` with its first segment replaced by ``segments``."""
    first, *rest = scenario.workload.segments
    assert first == Stationary(users=8, duration=60)
    return replace(scenario, workload=WorkloadSpec((*segments, *rest)))


def _doubled_weights(scenario):
    types = tuple(replace(spec, weight=2 * spec.weight) for spec in scenario.model.types)
    return replace(scenario, model=replace(scenario.model, types=types))


RELATIONS = {
    "split": lambda scenario: _first_segment_as(
        scenario, Stationary(users=8, duration=25), Stationary(users=8, duration=35)),
    "flat_seasonal": lambda scenario: _first_segment_as(
        scenario, Seasonal(base_users=8, amplitude=0, period=60, duration=60)),
    "flat_burst": lambda scenario: _first_segment_as(
        scenario, Burst(base_users=8, peak_users=8, at=30, width=2, duration=60)),
    "doubled_weights": _doubled_weights,
}


def _observed(scenario, kinds, seed, root):
    """Per kind: the bytes of each file ``save_run`` writes and the sampler
    events, and the run's per-second throughput, trace count and event count."""
    observed = {}
    for run in run_matrix(scenario.model, scenario.workload, kinds, seed, scenario.sampler):
        run_dir = save_run(run, root / f"{run.strategy.value}_s{seed}")
        observed[run.strategy.value] = {
            "files": {name: (run_dir / name).read_bytes() for name in RUN_FILES},
            "sampler_events": run.sampler_events,
            "throughput": [row.throughput for row in run.seconds],
            "traces": len(run.traces),
            "events": len(run.events),
        }
    return observed


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """The default scenario's runs of every kind, per seed."""
    scenario = default_scenario()
    return {seed: _observed(scenario, KINDS, seed, tmp_path_factory.mktemp(f"s{seed}"))
            for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_relation_gives_the_same_run(default_runs, tmp_path, relation, seed):
    changed = _observed(RELATIONS[relation](default_scenario()), EXACT_KINDS, seed, tmp_path)
    for kind in EXACT_KINDS:
        expected = default_runs[seed][kind]
        assert changed[kind]["files"] == expected["files"], kind
        assert changed[kind]["sampler_events"] == expected["sampler_events"], kind


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", EXACT_KINDS)
def test_run_served_in_pieces_is_the_run_served_whole(kind, seed):
    scenario = default_scenario()
    model, workload, config = scenario.model, scenario.workload, scenario.sampler
    whole = run_parts(run_scenario(model, workload, kind, seed, config))
    sim = Simulation(model, make_strategy(kind, config), config, seed)
    stream = offered_stream(model, workload, random.Random(f"{seed}:workload"))
    first = sim.run(islice(stream, 300))
    first_releases, first_sampler_events = run_parts(first)[3:]
    series, events, traces, releases, sampler_events = run_parts(sim.run(stream))
    # Series, events and traces are the whole run's after the second call.
    assert (series, events, traces) == whole[:3]
    assert first_releases + releases == whole[3]
    assert first_sampler_events + sampler_events == whole[4]


@pytest.mark.parametrize("seed", SEEDS)
def test_nom_throughput_bounds_every_kind_each_second(default_runs, seed):
    runs = default_runs[seed]
    nom = runs["NOM"]["throughput"]
    for kind in KINDS:
        throughput = runs[kind]["throughput"]
        assert len(throughput) == len(nom)
        above = [second for second, (ours, bound) in enumerate(zip(throughput, nom))
                 if ours > bound]
        assert not above, (kind, above[:5])


@pytest.mark.parametrize("seed", SEEDS)
def test_fum_traces_every_completed_request(default_runs, seed):
    fum = default_runs[seed]["FUM"]
    assert fum["traces"] == sum(fum["throughput"]) == fum["events"]
