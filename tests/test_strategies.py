"""Strategy policy tests: NOM, FUM, UNI, INV and the adaptive wrapper."""

import random

import pytest

from conftest import AlwaysRng, make_event
from reprtrace.errors import ParameterError
from reprtrace.model import PerformanceRecord, SamplerConfig
from reprtrace.scenario import default_scenario
from reprtrace.simulator import Simulation
from reprtrace.strategies import (
    AdaptiveStrategy,
    FullMonitoringStrategy,
    InverseThroughputStrategy,
    NoMonitoringStrategy,
    StrategyKind,
    UniformStrategy,
    make_strategy,
)


def perf(rps, me=True):
    return PerformanceRecord(rps=float(rps), mean_rt={"/a": 10.0, "/b": 12.0},
                             monitoring_enabled=me)


class TestFixedStrategies:
    def test_nom_never_samples(self):
        strategy = NoMonitoringStrategy()
        rng = random.Random(1)
        assert all(strategy.decide(make_event(), float(i), rng) is None for i in range(1000))
        assert strategy.rate == 0.0
        assert strategy.monitoring_enabled is False

    def test_fum_always_samples(self):
        strategy = FullMonitoringStrategy()
        rng = random.Random(1)
        assert all(strategy.decide(make_event(), float(i), rng) is not None
                   for i in range(1000))
        assert strategy.rate == 1.0

    def test_uni_half_rate(self):
        strategy = UniformStrategy()
        rng = random.Random(42)
        hits = sum(strategy.decide(make_event(), 0.0, rng) is not None for _ in range(100_000))
        assert 0.49 <= hits / 100_000 <= 0.51
        assert strategy.rate == 0.5

    def test_ticks_are_no_ops(self):
        for strategy in (NoMonitoringStrategy(), FullMonitoringStrategy(), UniformStrategy()):
            strategy.on_tick(perf(100), 1.0)
            assert strategy.drain_releases() == []

    def test_cycle_index_stays_zero(self):
        for strategy in (FullMonitoringStrategy(), UniformStrategy(),
                         InverseThroughputStrategy(SamplerConfig())):
            strategy.on_tick(perf(100), 200.0)
            event = make_event()
            trace = strategy.decide(event, 200.0, AlwaysRng())
            assert trace.event is event
            assert trace.cycle_index == 0


class TestInverseThroughput:
    def test_rate_at_reference_is_max(self, config):
        strategy = InverseThroughputStrategy(config)
        for _ in range(5):
            strategy.update(100.0)
        assert strategy.rate == config.max_rate
        assert list(strategy.throughput_history) == [100.0] * 5

    def test_double_throughput_halves_rate(self, config):
        strategy = InverseThroughputStrategy(config)
        for _ in range(9):
            strategy.update(100.0)
        rate = strategy.update(200.0)
        assert rate == pytest.approx(config.max_rate * 100.0 / 200.0, rel=1e-6)

    def test_low_throughput_clamps_at_max(self, config):
        strategy = InverseThroughputStrategy(config)
        for _ in range(9):
            strategy.update(100.0)
        assert strategy.update(10.0) == config.max_rate

    def test_extreme_throughput_clamps_at_min(self):
        config = SamplerConfig(min_rate=0.05)
        strategy = InverseThroughputStrategy(config)
        for _ in range(9):
            strategy.update(100.0)
        assert strategy.update(1e6) == 0.05

    def test_non_increasing_in_throughput(self, config):
        history = [120.0, 100.0, 90.0, 110.0, 95.0]
        rates = []
        for throughput in [50.0, 80.0, 100.0, 150.0, 400.0]:
            strategy = InverseThroughputStrategy(config)
            for value in history:
                strategy.update(value)
            rates.append(strategy.update(throughput))
        assert rates == sorted(rates, reverse=True)

    def test_history_capacity_matches_config(self):
        config = SamplerConfig(history_capacity=5)
        strategy = InverseThroughputStrategy(config)
        for value in range(100):
            strategy.update(float(value + 1))
        assert list(strategy.throughput_history) == [96.0, 97.0, 98.0, 99.0, 100.0]

    def test_zero_throughput_guard(self, config):
        strategy = InverseThroughputStrategy(config)
        for _ in range(5):
            strategy.update(100.0)
        # an idle tick must not divide by zero; the rate pins at max
        assert strategy.update(0.0) == config.max_rate

    def test_tick_uses_rps(self, config):
        strategy = InverseThroughputStrategy(config)
        strategy.on_tick(perf(100), 1.0)
        strategy.on_tick(perf(300), 2.0)
        assert strategy.rate < config.max_rate


class TestAdaptiveStrategy:
    def test_decide_feeds_the_monitor(self, config):
        strategy = AdaptiveStrategy(config)
        trace = strategy.decide(make_event("/a"), 0.01, AlwaysRng())
        assert trace is strategy.monitor.sample_traces[-1]
        assert strategy.monitor.population.total == 1
        assert strategy.monitor.sample.total == 1
        assert strategy.rate == config.max_rate
        assert strategy.monitoring_enabled is True

    def test_releases_are_drained(self, config):
        strategy = AdaptiveStrategy(config)
        rng = AlwaysRng()
        now = 0.0
        for i in range(2000):
            now += 0.01
            strategy.decide(make_event("/a", start=int(now * 1000), rt=100.0 + i % 7), now, rng)
        releases = strategy.drain_releases()
        assert releases, "identical population should have released at least once"
        assert strategy.drain_releases() == []

    def test_cycle_index_follows_the_monitor(self, config):
        strategy = AdaptiveStrategy(config)
        first = strategy.decide(make_event("/a"), 0.01, AlwaysRng())
        assert first.cycle_index == 0
        strategy.on_tick(perf(10), config.max_cycle_length + 1.0)
        [released] = strategy.drain_releases()
        assert released.cycle_index == 0
        assert released.traces == [first] and released.traces[0] is first
        second = strategy.decide(make_event("/a"), config.max_cycle_length + 1.5, AlwaysRng())
        assert second.cycle_index == strategy.monitor.cycle_index == 1

    def test_decide_refused_once_a_simulation_bound_the_monitor(self, config):
        # The Simulation keeps the monitor's accepts in its run's columns, so
        # decide has no record to return; it must refuse before counting.
        strategy = AdaptiveStrategy(config)
        Simulation(default_scenario().model, strategy, config, 1)
        with pytest.raises(ParameterError, match="bound"):
            strategy.decide(make_event("/a"), 0.01, AlwaysRng())
        assert strategy.monitor.population.total == 0
        assert strategy.monitor.sample.total == 0

    def test_events_are_drained(self, config):
        strategy = AdaptiveStrategy(config)
        strategy.decide(make_event("/a"), 0.01, AlwaysRng())
        strategy.monitor.on_tick(200.0, perf(10))
        events = strategy.drain_events()
        assert any(e.kind == "sample-released" for e in events)
        assert strategy.drain_events() == []


class TestFactory:
    @pytest.mark.parametrize(
        "kind, cls",
        [
            (StrategyKind.ADP, AdaptiveStrategy),
            (StrategyKind.INV, InverseThroughputStrategy),
            (StrategyKind.UNI, UniformStrategy),
            (StrategyKind.FUM, FullMonitoringStrategy),
            (StrategyKind.NOM, NoMonitoringStrategy),
        ],
    )
    def test_make_strategy(self, kind, cls, config):
        made = make_strategy(kind, config)
        assert isinstance(made, cls)
        assert made.kind is kind

    def test_make_strategy_from_string(self, config):
        assert make_strategy("NOM", config).kind is StrategyKind.NOM

    def test_unknown_kind(self, config):
        with pytest.raises(ValueError):
            make_strategy("XXX", config)
