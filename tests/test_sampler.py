"""Sampling engine tests: decision, rate adaptation, sample evaluation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AlwaysRng, NeverRng, ScriptRng, make_event, one_sample_p, table_from
from reprtrace.errors import InsufficientDataError, ParameterError
from reprtrace.model import (
    PerformanceRecord,
    SamplerConfig,
    FrequencyTable,
    TraceColumns,
)
from reprtrace.sampler import AdaptiveMonitor, perf_diff, select_normal_behavior
from reprtrace.stats import cochran_sample_size, decayed_confidence

POPULATION = {"/home": 105, "/vets": 43, "/pets": 62, "/owners": 10}
SAMPLE = {"/home": 53, "/vets": 22, "/pets": 31, "/owners": 5}


def monitor_with_tables(population, sample, epsilon=0.0):
    config = SamplerConfig(epsilon=epsilon)
    monitor = AdaptiveMonitor(config)
    monitor.population = table_from(population)
    monitor.sample = table_from(sample)
    return monitor


class TestDecide:
    def test_overrepresented_type_rejected(self):
        monitor = monitor_with_tables(POPULATION, SAMPLE, epsilon=0.0)
        rng = AlwaysRng()
        accepted = monitor.decide(make_event("/vets", start=1000), rng)
        assert accepted is False
        assert rng.draws == 1
        assert monitor.population.count("/vets") == 44
        assert monitor.population.total == 221
        assert monitor.sample.count("/vets") == 22

    def test_balanced_type_accepted(self):
        monitor = monitor_with_tables(POPULATION, SAMPLE, epsilon=0.0)
        accepted = monitor.decide(make_event("/owners", start=1000, rt=80.0), AlwaysRng())
        assert accepted is True
        assert monitor.population.count("/owners") == 11
        assert monitor.sample.count("/owners") == 6
        assert monitor.sample_traces[-1].event.response_time == 80.0
        assert monitor.sample_traces[-1].event.type_id == "/owners"

    def test_empty_sample_accepts_anything(self, config):
        monitor = AdaptiveMonitor(config)
        assert monitor.decide(make_event("/rare"), AlwaysRng()) is True

    def test_running_moments_track_accepted_rts(self, config):
        monitor = AdaptiveMonitor(config)
        rng = random.Random(3)
        draws = ScriptRng([0.0, 0.99] * 100)
        for i in range(200):
            monitor.decide(make_event("/a", start=i, rt=rng.uniform(50, 150)), draws)
        rts = [trace.event.response_time for trace in monitor.sample_traces]
        assert len(rts) == monitor.sample.total == 100
        mean = sum(rts) / len(rts)
        assert monitor._sample_rt_mean == pytest.approx(mean, rel=1e-12)
        assert monitor._sample_rt_m2 == pytest.approx(
            sum((x - mean) ** 2 for x in rts), rel=1e-9)

    def test_monitoring_disabled_counts_population(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.monitoring_enabled = False
        rng = AlwaysRng()
        assert monitor.decide(make_event("/home"), rng) is False
        assert monitor.population.total == 1
        assert monitor.sample.total == 0
        assert rng.draws == 0

    def test_failed_draw_skips_balance_check(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.decide(make_event("/a"), AlwaysRng())
        rng = NeverRng()
        assert monitor.decide(make_event("/a"), rng) is False
        assert rng.draws == 1
        assert monitor.sample.total == 1

    def test_epsilon_tolerance_admits_slightly_over(self):
        # /vets is over-represented by ~0.3%; an epsilon of 5% lets it through.
        monitor = monitor_with_tables(POPULATION, SAMPLE, epsilon=0.05)
        assert monitor.decide(make_event("/vets"), AlwaysRng()) is True

    def test_population_mean_accumulates_all_requests(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.decide(make_event("/a", rt=100.0), AlwaysRng())
        monitor.decide(make_event("/a", rt=300.0), NeverRng())
        assert monitor.population.total == 2
        assert monitor.population_rt_sum == 400.0

    def test_condition_uses_pre_add_proportions(self, config):
        rng = random.Random(99)
        monitor = AdaptiveMonitor(SamplerConfig(epsilon=0.02))
        types = ["/a", "/b", "/c"]
        for i in range(1000):
            type_id = rng.choice(types)
            pop_prop = monitor.population.proportion(type_id)
            samp_prop = monitor.sample.proportion(type_id)
            sample_empty = monitor.sample.total == 0
            accepted = monitor.decide(make_event(type_id, start=i), random.Random(i))
            if accepted:
                assert sample_empty or pop_prop >= samp_prop - 0.02

    def test_population_total_equals_decide_calls(self, config):
        monitor = AdaptiveMonitor(config)
        rng = random.Random(4)
        for i in range(500):
            monitor.decide(make_event(rng.choice("ab"), start=i), rng)
        assert monitor.population.total == 500

    def test_permanently_disabled_never_samples(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.monitoring_enabled = False
        monitor.baseline_until = math.inf
        rng = random.Random(8)
        for i in range(300):
            assert monitor.decide(make_event("/a", start=i), rng) is False
        assert monitor.sample.total == 0

    @pytest.mark.parametrize("rate", [1.5, -0.1, math.nan])
    def test_rate_outside_unit_interval_rejected(self, config, rate):
        monitor = AdaptiveMonitor(config)
        monitor.rate = rate
        rng = AlwaysRng()
        with pytest.raises(ParameterError) as info:
            monitor.decide(make_event("/a"), rng)
        assert str(info.value) == f"probability must be in [0, 1], got {rate}"
        assert rng.draws == 0

    @pytest.mark.parametrize("rate", [1.5, -0.1, math.nan])
    def test_rate_unchecked_while_monitoring_disabled(self, config, rate):
        monitor = AdaptiveMonitor(config)
        monitor.rate = rate
        monitor.monitoring_enabled = False
        assert monitor.decide(make_event("/a"), AlwaysRng()) is False
        assert monitor.population.total == 1

    @pytest.mark.parametrize("sample, accepted", [
        ({"/a": 1, "/b": 1}, False),
        ({"/a": 2, "/b": 3}, True),
    ])
    def test_share_is_the_one_before_this_request(self, sample, accepted):
        # Population {/a: 2, /b: 3}, a request of /a: its share is 2/5 before
        # the request and 3/6 after it, and 2/6 with only the count taken
        # back.  A sample share of 1/2 lies in (2/5, 3/6], and one of 2/5 in
        # (2/6, 2/5]: an off-by-one either way flips the verdict.
        monitor = monitor_with_tables({"/a": 2, "/b": 3}, sample, epsilon=0.0)
        before, after, count_back = 2 / 5, 3 / 6, 2 / 6
        threshold = monitor.sample.proportion("/a")
        if accepted:
            assert count_back < threshold <= before
        else:
            assert before < threshold <= after
        assert monitor.decide(make_event("/a"), AlwaysRng()) is accepted
        assert monitor.population.count("/a") == 3
        assert monitor.sample.count("/a") == sample["/a"] + accepted


class TestSelectNormalBehavior:
    def _records(self, spec):
        return [PerformanceRecord(rps=rps, mean_rt={"/x": 1.0}, monitoring_enabled=flag)
                for rps, flag in spec]

    def test_even_count_picks_higher_middle(self):
        records = self._records([(500, True), (1500, True), (2500, False),
                                 (550, True), (325, False), (200, True)])
        normal = select_normal_behavior(records, me_flag=True)
        assert normal.rps == 550

    def test_odd_count_picks_middle(self):
        records = self._records([(100, True), (300, True), (200, True)])
        assert select_normal_behavior(records, me_flag=True).rps == 200

    def test_single_match(self):
        records = self._records([(2500, False), (500, True)])
        assert select_normal_behavior(records, me_flag=False).rps == 2500

    def test_no_match_is_none(self):
        records = self._records([(500, True)])
        assert select_normal_behavior(records, me_flag=False) is None


class TestPerfDiff:
    def test_reference_example(self):
        normal = PerformanceRecord(
            rps=2500,
            mean_rt={"/home": 600.0, "/vets": 780.0, "/pets": 1050.0, "/owners": 1100.0},
            monitoring_enabled=False,
        )
        current = PerformanceRecord(
            rps=500,
            mean_rt={"/home": 500.0, "/vets": 720.0, "/pets": 950.0, "/owners": 1020.0},
            monitoring_enabled=False,
        )
        assert perf_diff(current, normal) == pytest.approx(-0.0963, abs=1e-4)

    def test_identical_records(self):
        record = PerformanceRecord(rps=1.0, mean_rt={"/a": 10.0, "/b": 20.0},
                                   monitoring_enabled=True)
        assert perf_diff(record, record) == 0.0

    def test_double_is_one(self):
        normal = PerformanceRecord(rps=1.0, mean_rt={"/a": 10.0, "/b": 30.0},
                                   monitoring_enabled=True)
        current = PerformanceRecord(rps=1.0, mean_rt={"/a": 20.0, "/b": 60.0},
                                    monitoring_enabled=True)
        assert perf_diff(current, normal) == pytest.approx(1.0)

    def test_disjoint_types(self):
        a = PerformanceRecord(rps=1.0, mean_rt={"/a": 10.0}, monitoring_enabled=True)
        b = PerformanceRecord(rps=1.0, mean_rt={"/b": 10.0}, monitoring_enabled=True)
        with pytest.raises(InsufficientDataError):
            perf_diff(a, b)

    def test_common_subset_only(self):
        normal = PerformanceRecord(rps=1.0, mean_rt={"/a": 100.0, "/only": 999.0},
                                   monitoring_enabled=True)
        current = PerformanceRecord(rps=1.0, mean_rt={"/a": 110.0, "/other": 5.0},
                                    monitoring_enabled=True)
        assert perf_diff(current, normal) == pytest.approx(0.1)


def record(mean_rt, rps=100.0, me=True):
    return PerformanceRecord(rps=rps, mean_rt=dict(mean_rt), monitoring_enabled=me)


TIGHT = {"/a": 100.0, "/b": 101.0, "/c": 99.0, "/d": 100.5, "/e": 99.5, "/f": 100.2}


class TestAdaptRate:
    def test_eviction_keeps_most_recent(self):
        monitor = AdaptiveMonitor(SamplerConfig(history_capacity=3))
        records = [PerformanceRecord(rps=float(i), mean_rt={}, monitoring_enabled=True)
                   for i in range(5)]
        for rec in records:
            monitor.perf_ref.append(rec)
        assert len(monitor.perf_ref) == 3
        assert [r.rps for r in monitor.perf_ref] == [2.0, 3.0, 4.0]

    def test_reference_example_keeps_rate(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.monitoring_enabled = False
        monitor.baseline_until = 100.0
        monitor.perf_ref.append(record(
            {"/home": 600.0, "/vets": 780.0, "/pets": 1050.0, "/owners": 1100.0},
            rps=2500, me=False))
        current = record(
            {"/home": 500.0, "/vets": 720.0, "/pets": 950.0, "/owners": 1020.0},
            rps=500, me=False)
        rate = monitor.adapt_rate(current, now=10.0)
        assert rate == 0.5
        assert monitor.monitoring_enabled is False

    def test_similar_or_faster_increases(self):
        config = SamplerConfig(max_rate=0.5)
        monitor = AdaptiveMonitor(config)
        monitor.rate = 0.40
        normal = {"/a": 100.0, "/b": 110.0, "/c": 90.0, "/d": 100.0}
        monitor.perf_ref.append(record(normal, rps=100))
        current = record({t: rt * 0.95 for t, rt in normal.items()}, rps=90)
        rate = monitor.adapt_rate(current, now=5.0)
        assert rate == pytest.approx(0.42)
        assert monitor.events[-1].kind == "rate-changed"

    def test_increase_clamped_at_max(self):
        monitor = AdaptiveMonitor(SamplerConfig(max_rate=0.5))
        monitor.rate = 0.49
        monitor.perf_ref.append(record(TIGHT, rps=100))
        current = record({t: rt * 0.7 for t, rt in TIGHT.items()}, rps=90)
        assert monitor.adapt_rate(current, now=5.0) == 0.5

    def test_significant_slowdown_starts_baseline(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.perf_ref.append(record(TIGHT, rps=100))
        current = record({t: rt * 1.3 for t, rt in TIGHT.items()}, rps=80)
        rate = monitor.adapt_rate(current, now=7.0)
        assert rate == 0.5
        assert monitor.monitoring_enabled is False
        assert monitor.baseline_until == pytest.approx(7.0 + config.baseline_duration)
        assert monitor.events[-1].kind == "baseline-started"

    def test_baseline_window_decrease(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.monitoring_enabled = False
        monitor.baseline_until = 20.0
        monitor.perf_ref.append(record(TIGHT, rps=100, me=False))
        current = record({t: rt * 1.3 for t, rt in TIGHT.items()}, rps=80, me=False)
        rate = monitor.adapt_rate(current, now=8.0)
        assert rate == pytest.approx(max(0.5 - 0.5 * 0.3, config.min_rate), abs=1e-9)

    def test_baseline_window_equal_keeps_rate(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.monitoring_enabled = False
        monitor.baseline_until = 20.0
        monitor.perf_ref.append(record(TIGHT, rps=100, me=False))
        current = record({t: rt * 1.001 for t, rt in TIGHT.items()}, rps=99, me=False)
        assert monitor.adapt_rate(current, now=8.0) == 0.5

    def test_baseline_window_faster_keeps_rate(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.monitoring_enabled = False
        monitor.baseline_until = 20.0
        monitor.perf_ref.append(record(TIGHT, rps=100, me=False))
        current = record({t: rt * 0.7 for t, rt in TIGHT.items()}, rps=130, me=False)
        assert monitor.adapt_rate(current, now=8.0) == 0.5

    def test_decrease_clamped_at_min(self):
        config = SamplerConfig(min_rate=0.2)
        monitor = AdaptiveMonitor(config)
        monitor.monitoring_enabled = False
        monitor.baseline_until = 20.0
        monitor.rate = 0.25
        monitor.perf_ref.append(record(TIGHT, rps=100, me=False))
        current = record({t: rt * 2.0 for t, rt in TIGHT.items()}, rps=50, me=False)
        assert monitor.adapt_rate(current, now=8.0) == 0.2

    def test_no_history_keeps_rate(self, config):
        monitor = AdaptiveMonitor(config)
        current = record(TIGHT, rps=100, me=False)
        # Only record with a matching flag is the current one itself.
        assert monitor.adapt_rate(current, now=1.0) == 0.5

    def test_fewer_than_two_common_types_keeps_rate(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.perf_ref.append(record({"/a": 100.0, "/b": 100.0}, rps=100))
        current = record({"/a": 400.0, "/z": 1.0}, rps=100)
        assert monitor.adapt_rate(current, now=2.0) == 0.5
        assert monitor.monitoring_enabled is True

    def test_rate_always_clamped(self):
        rng = random.Random(31)
        for case in range(1000):
            config = SamplerConfig(
                min_rate=rng.uniform(0.01, 0.2), max_rate=rng.uniform(0.3, 1.0)
            )
            monitor = AdaptiveMonitor(config)
            monitor.rate = rng.uniform(config.min_rate, config.max_rate)
            monitor.monitoring_enabled = rng.random() < 0.5
            if not monitor.monitoring_enabled:
                monitor.baseline_until = 1e9
            for _ in range(rng.randint(1, 4)):
                mean_rt = {t: rng.uniform(20, 300) for t in "abcdef"}
                monitor.perf_ref.append(
                    record(mean_rt, rps=rng.uniform(10, 1000),
                           me=rng.random() < 0.5)
                )
            current = record({t: rng.uniform(20, 300) for t in "abcdef"},
                             rps=rng.uniform(10, 1000), me=monitor.monitoring_enabled)
            rate = monitor.adapt_rate(current, now=float(case))
            assert config.min_rate <= rate <= config.max_rate


class TestEvaluateSample:
    def _fill_identical(self, monitor, total=500, start_ms=0):
        rng = AlwaysRng()
        types = ["/a", "/b", "/c", "/d"]
        base = random.Random(1)
        for i in range(total):
            event = make_event(types[i % 4], start=start_ms + i * 5,
                               rt=80.0 + base.uniform(-10.0, 10.0))
            assert monitor.decide(event, rng) is True

    def test_identical_sample_releases(self, config):
        monitor = AdaptiveMonitor(config)
        self._fill_identical(monitor, total=500)
        released = monitor.evaluate_sample(now=5.0)
        assert released is not None
        assert released.reason == "criteria"
        assert released.sample_stats.total == 500
        assert released.population_stats.total == 500
        assert released.cycle_length == 5.0
        assert len(released.traces) == 500
        assert 0 < released.confidence_at_release < 1
        # new cycle started
        assert monitor.population.total == 0
        assert monitor.sample.total == 0
        assert monitor.cycle_index == 1
        assert monitor.cycle_start == 5.0
        assert monitor.events[-1].kind == "sample-released"

    @pytest.mark.parametrize("reason", ["criteria", "timeout"])
    def test_release_starts_a_fresh_cycle(self, config, reason):
        # Apart from its index and start, the next cycle is a new monitor's
        # first; the state that outlives a cycle is left out of the check.
        outlives_a_cycle = {"rate", "monitoring_enabled", "baseline_until", "perf_ref",
                            "events", "_last_tick", "_window_start", "_window_end",
                            "_n_inf_high", "_n_inf_low", "_log_p_threshold"}

        def cycle_state(monitor):
            return {name: (value.counts, value.total) if isinstance(value, FrequencyTable)
                    else value
                    for name, value in vars(monitor).items() if name not in outlives_a_cycle}

        monitor = AdaptiveMonitor(config)
        self._fill_identical(monitor)
        now = 5.0 if reason == "criteria" else config.max_cycle_length
        assert monitor.evaluate_sample(now).reason == reason
        fresh = cycle_state(AdaptiveMonitor(config))
        assert cycle_state(monitor) == {**fresh, "cycle_index": 1, "cycle_start": now}

    def test_small_sample_blocked_by_minimum_size(self, config):
        monitor = AdaptiveMonitor(config)
        rng = random.Random(2)
        draws = ScriptRng([0.0 if i < 100 else 0.99 for i in range(1000)])
        for i in range(1000):
            monitor.decide(make_event("/a", start=i, rt=rng.uniform(50, 150)), draws)
        assert monitor.sample.total == 100
        needed = cochran_sample_size(
            min(decayed_confidence(5.0, config.max_cycle_length), 1 - 1e-6),
            config.variability_p, config.margin_e, 1000)
        assert needed > 100
        assert monitor.evaluate_sample(now=5.0) is None

    def test_unbalanced_sample_blocked_then_loosens(self):
        from reprtrace.model import TraceRecord

        config = SamplerConfig(epsilon=0.0)
        monitor = AdaptiveMonitor(config)
        # State surgery: a 70/30 sample of a 50/50 population whose response
        # times match the population mean exactly.
        monitor.population = table_from({"/a": 500, "/b": 500})
        monitor.sample = table_from({"/a": 210, "/b": 90})
        monitor.population_rt_sum = 80.0 * 1000
        rts = [79.0, 81.0] * 150
        monitor.sample_traces = [
            TraceRecord(event=make_event("/a" if i < 210 else "/b", start=i, rt=rts[i]),
                        cycle_index=0)
            for i in range(300)
        ]
        monitor._sample_rt_mean = 80.0
        monitor._sample_rt_m2 = sum((x - 80.0) ** 2 for x in rts)
        # Early in the cycle the balance margin (1 - conf) is ~1%: blocked.
        assert monitor.evaluate_sample(now=2.0) is None
        # Far into the cycle the margin exceeds the 0.2 imbalance.
        released = monitor.evaluate_sample(now=150.0)
        assert released is not None
        assert released.reason == "criteria"

    def test_performance_mismatch_blocks(self, config):
        monitor = AdaptiveMonitor(config)
        # Accepted requests are fast, rejected ones slow: sample mean far
        # below the population mean.
        draws = ScriptRng([0.0, 0.99] * 600)
        for i in range(1200):
            rt = 50.0 + (i % 7) if i % 2 == 0 else 500.0 + (i % 11)
            monitor.decide(make_event("/a", start=i, rt=rt), draws)
        assert monitor.sample.total == 600
        assert monitor.evaluate_sample(now=6.0) is None

    def test_timeout_releases_unconditionally(self, config):
        monitor = AdaptiveMonitor(config)
        draws = ScriptRng([0.0, 0.99] * 600)
        for i in range(1200):
            rt = 50.0 if i % 2 == 0 else 500.0
            monitor.decide(make_event("/a", start=i, rt=rt), draws)
        released = monitor.evaluate_sample(now=config.max_cycle_length)
        assert released is not None
        assert released.reason == "timeout"
        assert released.cycle_length >= config.max_cycle_length

    def test_timeout_release_with_empty_sample(self, config):
        monitor = AdaptiveMonitor(config)
        released = monitor.evaluate_sample(now=200.0)
        assert released is not None
        assert released.reason == "timeout"
        assert released.sample_stats.total == 0

    def test_empty_cycle_no_release_before_timeout(self, config):
        monitor = AdaptiveMonitor(config)
        assert monitor.evaluate_sample(now=10.0) is None

    def test_time_before_the_cycle_start_rejected(self, config):
        # A timeout release at max_cycle_length starts the next cycle there.
        monitor = AdaptiveMonitor(config)
        start = config.max_cycle_length
        assert monitor.evaluate_sample(now=start).reason == "timeout"
        assert monitor.cycle_start == start
        monitor.decide(make_event("/a", start=9000), AlwaysRng())
        with pytest.raises(ParameterError, match="precedes the cycle start"):
            monitor.evaluate_sample(now=start - 0.5)
        assert monitor.evaluate_sample(now=start) is None

    def test_released_criteria_recheck_offline(self, config):
        # Every criteria release must satisfy all three criteria when
        # re-evaluated from the stored statistics alone.
        rng = random.Random(17)
        releases = []
        for case in range(40):
            monitor = AdaptiveMonitor(config)
            decide_rng = random.Random(1000 + case)
            now = 0.0
            for i in range(rng.randint(200, 1500)):
                now += rng.uniform(0.001, 0.02)
                type_id = rng.choice(["/a", "/b", "/c"])
                accepted = monitor.decide(
                    make_event(type_id, start=int(now * 1000),
                               rt=rng.uniform(40, 160)),
                    decide_rng,
                )
                if accepted:
                    released = monitor.evaluate_sample(now)
                    if released is not None:
                        releases.append(released)
        assert releases, "expected at least one release across the scripted runs"
        for released in releases:
            if released.reason != "criteria":
                continue
            conf = released.confidence_at_release
            population = released.population_stats
            sample = released.sample_stats
            needed = cochran_sample_size(
                min(conf, 1 - 1e-6), config.variability_p, config.margin_e,
                population.total)
            assert sample.total > needed
            rts = [trace.event.response_time for trace in released.traces]
            p_value = one_sample_p(rts, released.population_mean_rt)
            assert p_value > 0.05 * conf
            margin = (1 - conf) + config.epsilon
            for type_id in population.counts:
                gap = abs(population.proportion(type_id) - sample.proportion(type_id))
                assert gap <= margin + 1e-12


class TestOnTick:
    def test_baseline_expiry_reenables(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.monitoring_enabled = False
        monitor.baseline_until = 9.0
        monitor.on_tick(9.0, record(TIGHT, rps=100, me=False))
        assert monitor.monitoring_enabled is True
        assert monitor.baseline_until is None
        assert any(e.kind == "baseline-ended" for e in monitor.events)

    def test_baseline_still_active(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.monitoring_enabled = False
        monitor.baseline_until = 9.0
        monitor.on_tick(8.0, record(TIGHT, rps=100, me=False))
        assert monitor.monitoring_enabled is False

    def test_tick_records_performance_each_call(self, config):
        monitor = AdaptiveMonitor(config)
        for second in range(1, 11):
            monitor.on_tick(float(second), record(TIGHT, rps=100))
        assert len(monitor.perf_ref) == 10

    def test_tick_before_the_previous_tick_rejected(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.on_tick(5.0, record(TIGHT, rps=100))
        monitor.on_tick(5.0, record(TIGHT, rps=100))
        with pytest.raises(ParameterError, match="precedes the previous tick"):
            monitor.on_tick(4.0, record(TIGHT, rps=100))
        assert len(monitor.perf_ref) == 2

    def test_tick_enforces_timeout(self, config):
        monitor = AdaptiveMonitor(config)
        monitor.decide(make_event("/a", rt=100.0), AlwaysRng())
        released = monitor.on_tick(config.max_cycle_length + 1.0,
                                   record(TIGHT, rps=100))
        assert released is not None
        assert released.reason == "timeout"

    def test_tick_does_not_release_early(self, config):
        monitor = AdaptiveMonitor(config)
        self_fill = TestEvaluateSample()
        self_fill._fill_identical(monitor, total=600)
        # criteria would hold, but ticks only enforce the timeout branch
        assert monitor.on_tick(6.0, record(TIGHT, rps=100)) is None
        assert monitor.sample.total == 600


class TestNonFiniteInput:
    """The engine refuses a value it cannot order or sum where it enters,
    and leaves its state as it was."""

    @staticmethod
    def _used_monitor(config):
        monitor = AdaptiveMonitor(config)
        for i in range(5):
            monitor.decide(make_event("/a", start=i, rt=100.0 + i), AlwaysRng())
        monitor.on_tick(5.0, record(TIGHT, rps=100))
        return monitor

    @staticmethod
    def _state(monitor):
        return (monitor.population.total, monitor.population_rt_sum, monitor._last_tick,
                monitor.cycle_index, list(monitor.events))

    @pytest.mark.parametrize("rt", [math.nan, math.inf, -math.inf, -1.0])
    def test_decide_refuses_response_time(self, config, rt):
        monitor = self._used_monitor(config)
        before = self._state(monitor)
        request = make_event("/a", start=6000)
        # RequestEvent checks only at construction; a caller can assign later.
        request.response_time = rt
        with pytest.raises(ParameterError, match="response_time must be finite and >= 0"):
            monitor.decide(request, AlwaysRng())
        assert self._state(monitor) == before
        assert monitor.sample.total == 5

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
    def test_on_tick_refuses_now(self, config, now):
        monitor = self._used_monitor(config)
        before = self._state(monitor)
        with pytest.raises(ParameterError, match="now must be finite"):
            monitor.on_tick(now, record(TIGHT, rps=100))
        assert self._state(monitor) == before
        assert len(monitor.perf_ref) == 1
        with pytest.raises(ParameterError, match="precedes the previous tick"):
            monitor.on_tick(1.0, record(TIGHT, rps=100))

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
    def test_adapt_rate_refuses_now(self, config, now):
        # A slowdown would start a baseline that ends at `now`; with a NaN
        # end monitoring would never turn back on.
        monitor = AdaptiveMonitor(config)
        monitor.perf_ref.append(record(TIGHT, rps=100))
        slow = record({t: rt * 1.3 for t, rt in TIGHT.items()}, rps=80)

        def state():
            return (list(monitor.perf_ref), monitor.rate, monitor.monitoring_enabled,
                    monitor.baseline_until, list(monitor.events))

        before = state()
        with pytest.raises(ParameterError, match="now must be finite"):
            monitor.adapt_rate(slow, now)
        assert state() == before
        monitor.adapt_rate(slow, 7.0)
        assert monitor.baseline_until == 7.0 + config.baseline_duration

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
    def test_evaluate_sample_refuses_now(self, config, now):
        monitor = self._used_monitor(config)
        before = self._state(monitor)
        with pytest.raises(ParameterError, match="now must be finite"):
            monitor.evaluate_sample(now)
        assert self._state(monitor) == before
        assert monitor.sample.total == 5


_TYPES = ("/a", "/b", "/c")

# One step on the monitor's single timeline: ``dt`` seconds pass, then a
# request is decided (its type, response time and Bernoulli draw), the
# sample is evaluated, or a tick reports per-type mean response times.
_STEP = st.one_of(
    st.tuples(st.just("decide"), st.floats(0.0, 0.5), st.sampled_from(_TYPES),
              st.floats(1.0, 400.0), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("evaluate"), st.floats(0.0, 2.0)),
    st.tuples(st.just("tick"), st.floats(0.0, 3.0), st.floats(0.0, 500.0),
              st.lists(st.floats(1.0, 400.0), min_size=3, max_size=3)),
)


class TestMonitorInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        history_capacity=st.integers(1, 5),
        max_cycle_length=st.floats(1.0, 20.0),
        margin_e=st.floats(0.1, 0.5),
        steps=st.lists(_STEP, max_size=120),
    )
    def test_tables_and_history_stay_consistent(self, history_capacity, max_cycle_length,
                                                margin_e, steps):
        config = SamplerConfig(history_capacity=history_capacity,
                               max_cycle_length=max_cycle_length, margin_e=margin_e)
        monitor = AdaptiveMonitor(config)
        now = 0.0
        decided = 0      # requests decided since the last release
        rt_sum = 0.0     # their summed response time, added in the same order
        for step in steps:
            now += step[1]
            if step[0] == "decide":
                _, _, type_id, rt, draw = step
                event = make_event(type_id, start=int(now * 1000), rt=rt)
                accepted = monitor.decide(event, ScriptRng([draw]))
                decided += 1
                rt_sum += rt
                if accepted:
                    assert monitor.sample_traces[-1].event is event
                released = None
            elif step[0] == "evaluate":
                released = monitor.evaluate_sample(now)
            else:
                _, _, rps, rts = step
                current = PerformanceRecord(rps=rps, mean_rt=dict(zip(_TYPES, rts)),
                                            monitoring_enabled=monitor.monitoring_enabled)
                released = monitor.on_tick(now, current)
            if released is not None:
                assert released.population_stats.total == decided
                assert released.population_mean_rt == (rt_sum / decided if decided else 0.0)
                decided = 0
                rt_sum = 0.0
            assert monitor.population.total == decided
            assert monitor.population_rt_sum == rt_sum
            assert monitor.sample.total == len(monitor.sample_traces)
            for table in (monitor.population, monitor.sample):
                assert table.total == sum(table.counts.values())
            assert all(t.cycle_index == monitor.cycle_index for t in monitor.sample_traces)
            assert len(monitor.perf_ref) <= history_capacity


class TestBindTraces:
    def test_only_an_unused_monitor_binds(self):
        config = SamplerConfig()
        bound = AdaptiveMonitor(config)
        bound.bind_traces(TraceColumns(["/a"]))
        decided = AdaptiveMonitor(config)
        assert not decided.decide(make_event("/a"), NeverRng())
        released = AdaptiveMonitor(config)
        assert released.on_tick(config.max_cycle_length,
                                PerformanceRecord(10.0, {"/a": 50.0}, True)) is not None
        # A release resets the population, but the cycle index tells.
        assert released.population.total == 0 and released.cycle_index == 1
        for used in (bound, decided, released):
            with pytest.raises(ParameterError, match="only a monitor that has not been used"):
                used.bind_traces(TraceColumns(["/a"]))

    def test_bound_monitor_keeps_no_record(self):
        monitor = AdaptiveMonitor(SamplerConfig())
        monitor.bind_traces(TraceColumns(["/a"]))
        assert monitor.decide(make_event("/a"), AlwaysRng())
        assert monitor.sample.total == 1 and monitor.sample_traces == []
