"""Equivalence between the engine and the independent reference implementation."""

import math
import random
from bisect import bisect_right
from itertools import accumulate

import pytest

from oracle import build_script, make_tape, run_engine, run_oracle
from reprtrace.model import SamplerConfig
from reprtrace.scenario import default_scenario
from reprtrace.simulator import Simulation, offered_stream
from reprtrace.strategies import make_strategy


def test_script_has_exactly_two_hundred_requests():
    assert sum(count for _s, _f, count, _r in build_script()) == 200


def test_engine_matches_oracle():
    config = SamplerConfig()
    tape = make_tape()
    engine_accepts, engine_rates, engine_releases, engine_draws = run_engine(config, tape)
    oracle_accepts, oracle_rates, oracle_releases, oracle_draws = run_oracle(config, tape)

    assert engine_accepts == oracle_accepts
    assert engine_rates == oracle_rates
    assert engine_releases == oracle_releases
    assert engine_draws == oracle_draws


def test_script_exercises_the_interesting_paths():
    config = SamplerConfig()
    tape = make_tape()
    accepts, rates, releases, _ = run_engine(config, tape)
    assert len(accepts) == 200
    assert any(accepts) and not all(accepts)
    # the sustained degradation must have driven the rate down
    assert min(rates) < config.max_rate
    # the idle gap crosses the cycle timeout
    assert ("timeout" in {reason for _i, reason in releases})


def test_equivalence_across_other_tapes():
    config = SamplerConfig()
    for seed in (1, 2, 3):
        tape = make_tape(seed=seed)
        assert run_engine(config, tape) == run_oracle(config, tape)


class _RecordingRng:
    """A decision generator that records every draw it hands out."""

    def __init__(self, rng):
        self._random = rng.random
        self.draws = []

    def random(self):
        value = self._random()
        self.draws.append(value)
        return value


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_live_adp_stream_replays_through_engine_and_oracle(seed):
    """Differential replay on a real stream: the first 120 s of a live ADP run
    on the default scenario, recorded as seconds of (now, type id, response
    time) with each second's completed count and the decision draws."""
    scenario = default_scenario()
    config = scenario.sampler
    sim = Simulation(scenario.model, make_strategy("ADP", config), config, seed)
    sim.decision_rng = rng = _RecordingRng(sim.decision_rng)
    stream = offered_stream(scenario.model, scenario.workload,
                            random.Random(f"{seed}:workload"))
    seconds, live_accepts, live_rates = [], [], []
    for second, offered in zip(range(120), stream):
        events_before, traces_before = len(sim.events), len(sim.traces)
        stats = sim.step(offered)
        events = sim.events[events_before:]
        traced = set(sim.events.traced_positions[traces_before:])
        live_accepts += [position in traced
                         for position in range(events_before, len(sim.events))]
        live_rates.append(sim.strategy.rate)
        seconds.append((float(second),
                        [(e.start / 1000.0, e.type_id, e.response_time) for e in events],
                        float(stats.throughput)))
    live_reasons = [released.reason for released in sim.strategy.drain_releases()]

    engine = run_engine(config, rng.draws, seconds)
    engine_accepts, engine_rates, engine_releases, engine_draws = engine
    assert engine_accepts == live_accepts
    assert engine_rates == live_rates
    assert [reason for _i, reason in engine_releases] == live_reasons
    assert engine_draws == len(rng.draws)
    assert run_oracle(config, rng.draws, seconds) == engine
    # The replay must reach the representativeness verdicts, not only timeouts.
    assert live_reasons.count("criteria") >= 1


def zipf_seconds(seed, types=48, seconds=120):
    """A many-type stream as recorded seconds: (second start, requests, rps),
    each request (now, type id, response time).

    Zipf(1.1)-weighted request types; 10 to 24 users over one wave against a
    contention knee at 16, so response times stretch past the knee and the
    sampler starts baselines as well as releasing cycles.
    """
    rng = random.Random(f"{seed}:oracle-zipf")
    names = [f"/t{i:02d}" for i in range(types)]
    cum = list(accumulate(1.0 / (i + 1) ** 1.1 for i in range(types)))
    base_rt = [20.0 + 60.0 * rng.random() for _ in names]
    recorded = []
    for sec in range(seconds):
        users = 10.0 + 14.0 * max(0.0, math.sin(2.0 * math.pi * sec / seconds))
        slowdown = 1.0 + 1.2 * max(0.0, users / 16.0 - 1.0)
        count = round(15.0 * min(users, 16.0) * (0.95 + 0.1 * rng.random()))
        requests = []
        for j in range(count):
            i = bisect_right(cum, rng.random() * cum[-1])
            requests.append((sec + j / count, names[i],
                             base_rt[i] * slowdown * rng.lognormvariate(0.0, 0.25)))
        recorded.append((float(sec), requests, float(count)))
    return recorded


@pytest.mark.parametrize("seed", [1, 2])
def test_many_type_zipf_stream_replays_through_engine_and_oracle(seed):
    config = SamplerConfig()
    seconds = zipf_seconds(seed)
    tape = make_tape(length=sum(len(requests) for _s, requests, _r in seconds), seed=seed)
    engine_accepts, engine_rates, engine_releases, engine_draws = run_engine(
        config, tape, seconds)
    oracle_accepts, oracle_rates, oracle_releases, oracle_draws = run_oracle(
        config, tape, seconds)
    assert engine_accepts == oracle_accepts
    assert engine_rates == oracle_rates
    assert engine_releases == oracle_releases
    assert engine_draws == oracle_draws
    # A criteria release passes the balance check over every population type.
    assert [reason for _i, reason in engine_releases].count("criteria") >= 1
