"""Domain type tests: frequency tables, bounded history, config, releases."""

import math
import random

import pytest

from conftest import make_event, table_from
from reprtrace.model import (
    FrequencyTable,
    PerformanceRecord,
    ReleasedSample,
    RequestEvent,
    SamplerConfig,
    TraceRecord,
)

# Running-example frequency state: population 220 requests, sample 111.
POPULATION = {"/home": 105, "/vets": 43, "/pets": 62, "/owners": 10}
SAMPLE = {"/home": 53, "/vets": 22, "/pets": 31, "/owners": 5}


class TestFrequencyTable:
    def test_add_base_case(self):
        table = FrequencyTable()
        table.add("/home")
        assert table.counts == {"/home": 1}
        assert table.total == 1

    def test_add_twice_same_type(self):
        table = FrequencyTable()
        table.add("/a")
        table.add("/a")
        assert table.count("/a") == 2

    def test_reference_population_proportions(self):
        population = table_from(POPULATION)
        assert population.total == 220
        assert population.proportion("/vets") == pytest.approx(0.195, abs=5e-4)
        sample = table_from(SAMPLE)
        assert sample.total == 111
        assert sample.proportion("/vets") == pytest.approx(0.198, abs=5e-4)
        assert population.proportion("/owners") == pytest.approx(0.045, abs=5e-4)

    def test_one_more_vets(self):
        population = table_from(POPULATION)
        population.add("/vets")
        assert population.count("/vets") == 44
        assert population.total == 221

    def test_empty_table_proportion_is_zero(self):
        assert FrequencyTable().proportion("/anything") == 0.0

    def test_total_conserved_over_random_sequences(self):
        rng = random.Random(9)
        for _ in range(1000):
            table = FrequencyTable()
            for _ in range(rng.randint(0, 60)):
                table.add(rng.choice("abcdef"))
            assert table.total == sum(table.counts.values())


class TestValidation:
    def test_event_requires_type(self):
        with pytest.raises(ValueError):
            RequestEvent(type_id="", start=0, response_time=1.0, memory_delta=0.0)

    def test_event_rejects_negative_rt(self):
        with pytest.raises(ValueError):
            RequestEvent(type_id="/a", start=0, response_time=-1.0, memory_delta=0.0)

    def test_negative_memory_is_allowed(self):
        event = make_event(mem=-42.0)
        assert event.memory_delta == -42.0

    @pytest.mark.parametrize("rt", [math.nan, math.inf, -math.inf])
    def test_event_rejects_non_finite_rt(self, rt):
        with pytest.raises(ValueError, match="response_time"):
            RequestEvent(type_id="/a", start=0, response_time=rt, memory_delta=0.0)

    @pytest.mark.parametrize("mem", [math.nan, math.inf, -math.inf])
    def test_event_rejects_non_finite_memory(self, mem):
        with pytest.raises(ValueError, match="memory_delta"):
            RequestEvent(type_id="/a", start=0, response_time=1.0, memory_delta=mem)

    @pytest.mark.parametrize("rps", [math.nan, math.inf])
    def test_performance_record_rejects_non_finite_rps(self, rps):
        with pytest.raises(ValueError, match="rps"):
            PerformanceRecord(rps=rps, mean_rt={}, monitoring_enabled=True)

    @pytest.mark.parametrize("rt", [math.nan, math.inf])
    def test_performance_record_rejects_non_finite_mean_rt(self, rt):
        with pytest.raises(ValueError, match="'/a'"):
            PerformanceRecord(rps=1.0, mean_rt={"/a": rt}, monitoring_enabled=True)

    def test_trace_record_cycle_index(self):
        with pytest.raises(ValueError):
            TraceRecord(event=make_event(), cycle_index=-1)

    def test_performance_record_bounds(self):
        with pytest.raises(ValueError):
            PerformanceRecord(rps=-1.0, mean_rt={}, monitoring_enabled=True)
        with pytest.raises(ValueError):
            PerformanceRecord(rps=1.0, mean_rt={"/a": -2.0}, monitoring_enabled=True)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"min_rate": 0.0},
            {"min_rate": 0.6, "max_rate": 0.5},
            {"max_rate": 1.5},
            {"epsilon": -0.1},
            {"baseline_duration": 0.0},
            {"adaptation_frequency": 0.0},
            {"max_cycle_length": 0.0},
            {"history_capacity": 0},
            {"variability_p": 1.0},
            {"margin_e": 0.0},
            {"history_capacity": 2.5},
            {"history_capacity": True},
        ],
    )
    def test_config_invariants(self, overrides):
        with pytest.raises(ValueError):
            SamplerConfig(**overrides)

    def test_config_defaults(self):
        config = SamplerConfig()
        assert config.max_rate == 0.5
        assert config.min_rate == 0.01
        assert config.baseline_duration == 3.0
        assert config.adaptation_frequency == 1.0
        assert config.max_cycle_length == 180.0
        assert config.history_capacity == 60
        assert config.variability_p == 0.5
        assert config.margin_e == 0.05
        assert config.epsilon == 0.05


class TestReleasedSample:
    def _traces(self, n):
        return [TraceRecord(event=make_event(start=i), cycle_index=0)
                for i in range(n)]

    def test_totals_must_match(self):
        with pytest.raises(ValueError):
            ReleasedSample(
                traces=self._traces(2),
                population_stats=table_from({"/home": 5}),
                sample_stats=table_from({"/home": 3}),
                cycle_length=1.0,
                confidence_at_release=0.9,
                population_mean_rt=100.0,
                reason="criteria",
                cycle_index=0,
                released_at=1.0,
            )

    def test_sample_bounded_by_population(self):
        with pytest.raises(ValueError):
            ReleasedSample(
                traces=self._traces(3),
                population_stats=table_from({"/home": 2}),
                sample_stats=table_from({"/home": 3}),
                cycle_length=1.0,
                confidence_at_release=0.9,
                population_mean_rt=100.0,
                reason="criteria",
                cycle_index=0,
                released_at=1.0,
            )

    def test_unknown_reason(self):
        with pytest.raises(ValueError):
            ReleasedSample(
                traces=[],
                population_stats=FrequencyTable(),
                sample_stats=FrequencyTable(),
                cycle_length=1.0,
                confidence_at_release=0.9,
                population_mean_rt=0.0,
                reason="gave-up",
                cycle_index=0,
                released_at=1.0,
            )
