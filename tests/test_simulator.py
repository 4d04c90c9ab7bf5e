"""Simulator tests: workload schedule, determinism, isolation, conservation."""

import math
import random
import re
from dataclasses import replace

import pytest

from reprtrace import model as model_module
from reprtrace import sampler, simulator, strategies
from reprtrace.errors import ParameterError
from reprtrace.model import RequestEvent, SamplerConfig, TraceRecord
from reprtrace.scenario import default_scenario
from reprtrace.simulator import (
    AppModel,
    Burst,
    RequestTypeSpec,
    Seasonal,
    Simulation,
    Stationary,
    WorkloadSpec,
    offered_stream,
    run_matrix,
    run_scenario,
    users_at,
)
from reprtrace.strategies import (AdaptiveStrategy, NoMonitoringStrategy, RateStrategy,
                                  Strategy, StrategyKind, make_strategy)
from reference_simulator import reference_run, run_parts


def small_model(**overrides):
    types = (
        RequestTypeSpec("/a", weight=3, base_rt=40.0, rt_dispersion=0.2,
                        base_mem=100.0, mem_dispersion=0.2),
        RequestTypeSpec("/b", weight=2, base_rt=60.0, rt_dispersion=0.2,
                        base_mem=300.0, mem_dispersion=0.2),
        RequestTypeSpec("/c", weight=1, base_rt=80.0, rt_dispersion=0.3,
                        base_mem=500.0, mem_dispersion=0.3),
    )
    fields = dict(
        types=types, capacity_users=10.0, contention_gamma=0.5,
        trace_cost=15.0, gc_negative_prob=0.05,
    )
    fields.update(overrides)
    return AppModel(**fields)


def small_workload(duration=30):
    return WorkloadSpec(segments=(Stationary(users=4, duration=duration),))


class TestUsersAt:
    def test_stationary(self):
        spec = WorkloadSpec(segments=(Stationary(users=8, duration=60),))
        assert users_at(spec, 30.0) == 8

    def test_seasonal_peak(self):
        spec = WorkloadSpec(segments=(Seasonal(base_users=8, amplitude=12,
                                               period=60, duration=120),))
        assert users_at(spec, 15.0) == 20

    def test_seasonal_trough_clamps_at_base(self):
        spec = WorkloadSpec(segments=(Seasonal(base_users=8, amplitude=12,
                                               period=60, duration=120),))
        assert users_at(spec, 45.0) == 8

    def test_burst_peak_and_window(self):
        spec = WorkloadSpec(segments=(Burst(base_users=8, peak_users=20, at=10,
                                            width=2, duration=60),))
        assert users_at(spec, 10.0) == 20
        assert users_at(spec, 9.5) == 14
        assert users_at(spec, 12.0) == 8
        assert users_at(spec, 40.0) == 8

    def test_segments_chain(self):
        spec = WorkloadSpec(segments=(
            Stationary(users=3, duration=10),
            Stationary(users=7, duration=10),
        ))
        assert users_at(spec, 9.9) == 3
        assert users_at(spec, 10.0) == 7
        assert spec.total_duration == 20

    def test_beyond_schedule(self):
        spec = small_workload(duration=30)
        with pytest.raises(ParameterError):
            users_at(spec, 30.0)
        with pytest.raises(ParameterError):
            users_at(spec, -1.0)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            Stationary(users=0, duration=10)
        with pytest.raises(ValueError):
            Seasonal(base_users=8, amplitude=-1, period=60, duration=60)
        with pytest.raises(ValueError):
            Burst(base_users=8, peak_users=20, at=70, width=2, duration=60)
        with pytest.raises(ValueError):
            WorkloadSpec(segments=())
        # User counts are ints: the tape memo would serve 5.0 the tape of 5.
        for make in (lambda: Stationary(users=5.0, duration=10),
                     lambda: Stationary(users=True, duration=10),
                     lambda: Seasonal(base_users=8.0, amplitude=1, period=60, duration=60),
                     lambda: Burst(base_users=8, peak_users=20.0, at=5, width=2, duration=60),
                     lambda: Burst(base_users=True, peak_users=20, at=5, width=2, duration=60)):
            with pytest.raises(ValueError, match="must be an integer"):
                make()
        # Every start, in ms, must fit in 64 bits: at most 2**63 - 1.
        longest = 2**63 // 1000
        assert WorkloadSpec((Stationary(users=1, duration=longest),)).served_seconds == longest
        for duration in (longest + 1, 1e300):
            message = (f"workload must last less than {longest + 1} s, so that each start"
                       f" fits in 64 bits (at most {2**63 - 1} ms), got {duration} s")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                WorkloadSpec((Stationary(users=1, duration=duration),))


class TestDeterminism:
    def test_identical_runs(self):
        model = small_model()
        workload = small_workload()
        first = run_scenario(model, workload, "ADP", seed=7)
        second = run_scenario(model, workload, "ADP", seed=7)
        assert first.seconds == second.seconds
        assert len(first.events) == len(second.events)
        assert first.events == second.events
        assert len(first.traces) == len(second.traces)
        assert [r.cycle_index for r in first.releases] == [
            r.cycle_index for r in second.releases
        ]

    def test_seed_changes_stream(self):
        model = small_model()
        workload = small_workload()
        first = run_scenario(model, workload, "NOM", seed=1)
        second = run_scenario(model, workload, "NOM", seed=2)
        assert first.events != second.events


class TestStrategyIsolation:
    def test_zero_cost_nom_equals_fum(self):
        model = small_model(trace_cost=0.0)
        workload = small_workload()
        nom = run_scenario(model, workload, "NOM", seed=3)
        fum = run_scenario(model, workload, "FUM", seed=3)
        assert [s.throughput for s in nom.seconds] == [s.throughput for s in fum.seconds]
        assert nom.events == fum.events

    def test_offered_stream_identical_per_second(self):
        model = small_model()
        workload = small_workload()
        runs = {kind: run_scenario(model, workload, kind, seed=5)
                for kind in ["NOM", "FUM", "UNI", "INV", "ADP"]}

        def by_second(run):
            table = {}
            for event in run.events:
                table.setdefault(event.start // 1000, []).append(
                    (event.type_id, event.memory_delta))
            return table

        tables = {kind: by_second(run) for kind, run in runs.items()}
        reference = tables["NOM"]
        for kind, table in tables.items():
            for second, events in table.items():
                expected = reference[second][: len(events)]
                assert events == expected, f"{kind} diverged in second {second}"

    def test_monitoring_overhead_reduces_throughput(self):
        model = small_model(trace_cost=20.0)
        workload = small_workload(duration=40)
        nom = run_scenario(model, workload, "NOM", seed=11)
        fum = run_scenario(model, workload, "FUM", seed=11)
        nom_mean = sum(s.throughput for s in nom.seconds) / len(nom.seconds)
        fum_mean = sum(s.throughput for s in fum.seconds) / len(fum.seconds)
        assert fum_mean < nom_mean


class TestConservation:
    def test_event_count_matches_throughput(self):
        run = run_scenario(small_model(), small_workload(), "UNI", seed=9)
        assert len(run.events) == sum(s.throughput for s in run.seconds)

    def test_traces_reference_ground_truth(self):
        # Each trace's event is the completed request at its position, and no
        # two traces share a position.
        for kind in ("UNI", "ADP"):
            run = run_scenario(small_model(), small_workload(), kind, seed=9)
            events = list(run.events)
            positions = list(run.events.traced_positions)
            assert positions == sorted(set(positions))
            assert [t.event for t in run.traces] == [events[p] for p in positions]

    def test_nom_and_fum_trace_counts(self):
        nom = run_scenario(small_model(), small_workload(), "NOM", seed=4)
        fum = run_scenario(small_model(), small_workload(), "FUM", seed=4)
        assert nom.traces == []
        assert len(fum.traces) == len(fum.events)

    def test_one_record_per_trace(self):
        # Each ADP release holds the records of the run's next traces, in
        # order, and every fixed-rate trace belongs to cycle 0.
        run = run_scenario(small_model(), small_workload(duration=60), "ADP", seed=3)
        assert run.releases
        offset = 0
        for release in run.releases:
            size = len(release.traces)
            # A view of the run's rows, rebuilt on read, not a list of records.
            assert not isinstance(release.traces, list)
            assert release.traces[0] is not release.traces[0]
            assert release.traces == run.traces[offset:offset + size]
            assert all(t.cycle_index == release.cycle_index for t in release.traces)
            offset += size
        for kind in ("INV", "UNI", "FUM"):
            run = run_scenario(small_model(), small_workload(), kind, seed=3)
            assert run.traces
            assert all(t.cycle_index == 0 for t in run.traces)

    def test_negative_memory_sentinels_present(self):
        run = run_scenario(small_model(gc_negative_prob=0.2), small_workload(), "NOM", seed=6)
        negatives = [e for e in run.events if e.memory_delta < 0]
        assert negatives
        model = small_model(gc_negative_prob=0.0)
        clean = run_scenario(model, small_workload(), "NOM", seed=6)
        assert all(e.memory_delta >= 0 for e in clean.events)


class _CountingStrategy(RateStrategy):
    kind = StrategyKind.NOM
    rate = 0.0

    def __init__(self):
        self.ticks = []

    def on_tick(self, record, now):
        self.ticks.append((now, record.rps))


class TestTicks:
    def test_one_tick_per_second(self):
        strategy = _CountingStrategy()
        sim = Simulation(small_model(), strategy, SamplerConfig(), seed=1)
        sim.run(offered_stream(small_model(), small_workload(duration=10), random.Random(1)))
        assert [t for t, _ in strategy.ticks] == [float(s) for s in range(1, 11)]

    def test_slower_cadence_aggregates(self):
        strategy = _CountingStrategy()
        sim = Simulation(small_model(), strategy, SamplerConfig(adaptation_frequency=2.0), seed=1)
        result = sim.run(offered_stream(small_model(), small_workload(duration=10),
                                        random.Random(1)))
        assert [t for t, _ in strategy.ticks] == [2.0, 4.0, 6.0, 8.0, 10.0]
        total = sum(s.throughput for s in result.seconds)
        # rps covers the whole two-second interval
        assert sum(rps * 2.0 for _, rps in strategy.ticks) == pytest.approx(total)

    def test_series_rates_for_fixed_strategies(self):
        run = run_scenario(small_model(), small_workload(), "UNI", seed=2)
        assert all(s.sampling_rate == 0.5 for s in run.seconds)
        run = run_scenario(small_model(), small_workload(), "FUM", seed=2)
        assert all(s.sampling_rate == 1.0 for s in run.seconds)
        run = run_scenario(small_model(), small_workload(), "NOM", seed=2)
        assert all(s.sampling_rate == 0.0 for s in run.seconds)
        assert all(s.monitoring_enabled is False for s in run.seconds)


class TestDefaultScenario:
    def test_validates_and_covers_segment_kinds(self):
        scenario = default_scenario()
        kinds = {type(seg) for seg in scenario.workload.segments}
        assert kinds == {Stationary, Seasonal, Burst}
        assert scenario.workload.total_duration == 600
        assert len(scenario.model.types) == 8

    def test_users_profile(self):
        scenario = default_scenario()
        profile = [users_at(scenario.workload, float(t)) for t in range(600)]
        assert min(profile) == 8
        assert max(profile) == 20

    def test_app_model_fields(self):
        model = default_scenario().model
        assert model.capacity_users < 20
        assert model.trace_cost > 0
        assert 0 <= model.gc_negative_prob < 1


class TestModelValidation:
    def test_duplicate_type_ids(self):
        spec = RequestTypeSpec("/a", weight=1, base_rt=10.0, rt_dispersion=0.1,
                               base_mem=10.0, mem_dispersion=0.1)
        with pytest.raises(ValueError):
            AppModel(types=(spec, spec), capacity_users=10, contention_gamma=0.5,
                     trace_cost=1.0, gc_negative_prob=0.0)

    def test_field_bounds(self):
        base = small_model()
        with pytest.raises(ValueError):
            replace(base, capacity_users=0.0)
        with pytest.raises(ValueError):
            replace(base, contention_gamma=-1.0)
        with pytest.raises(ValueError):
            replace(base, gc_negative_prob=1.0)
        with pytest.raises(ValueError):
            replace(base, trace_io_capacity=0.0)
        with pytest.raises(ValueError):
            replace(base, trace_contention=-0.1)

    def test_io_capacity_default_is_inert(self):
        assert math.isinf(small_model().trace_io_capacity)

    # 10**400 is an int too large for a float, so not finite either.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_nonfinite_fields_rejected(self, bad):
        spec = small_model().types[0]
        for name in ("weight", "base_rt", "rt_dispersion", "base_mem", "mem_dispersion"):
            with pytest.raises(ValueError, match=f"{name} must be"):
                replace(spec, **{name: bad})
        base = small_model()
        for name in ("capacity_users", "contention_gamma", "trace_cost", "gc_negative_prob",
                     "trace_contention", "mem_load_gain", "mem_noise_gain", "gc_negative_gain"):
            with pytest.raises(ValueError, match=f"{name} must be"):
                replace(base, **{name: bad})
        if bad == math.inf:  # the one parameter that may be +inf
            assert replace(base, trace_io_capacity=bad).trace_io_capacity == math.inf
        else:
            with pytest.raises(ValueError, match="trace_io_capacity must be finite"):
                replace(base, trace_io_capacity=bad)
        segments = (Stationary(users=4, duration=10),
                    Seasonal(base_users=4, amplitude=2, period=5, duration=10),
                    Burst(base_users=4, peak_users=8, at=5, width=2, duration=10))
        fields = {Stationary: ("duration",), Seasonal: ("amplitude", "period", "duration"),
                  Burst: ("at", "width", "duration")}
        for segment in segments:
            for name in fields[type(segment)]:
                with pytest.raises(ValueError, match=f"{name} must be"):
                    replace(segment, **{name: bad})
        for name in ("max_rate", "min_rate", "epsilon", "baseline_duration",
                     "adaptation_frequency", "max_cycle_length", "variability_p", "margin_e"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SamplerConfig(**{name: bad})


class TestServedTime:
    # 10**400 is an int too large for a float, so not finite either.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize("column", ["base time", "memory"])
    def test_nonfinite_value_rejected_in_its_second(self, column, bad):
        # Traced or not, built into an event or not, the same row fails the
        # same way under every kind.
        row = (1, bad, 300.0) if column == "base time" else (1, 60.0, bad)
        stream = [(4, [(0, 40.0, 100.0)] * 200), (4, [(0, 40.0, 100.0), row] * 100)]
        for kind in StrategyKind:
            config = SamplerConfig()
            sim = Simulation(small_model(), make_strategy(kind, config), config, seed=1)
            with pytest.raises(ParameterError, match="second 1: a request needs a finite"):
                sim.run(stream)
            assert len(sim.seconds) == 1

    def test_negative_base_time_rejected_in_its_second(self):
        # Each -40 ms row cancels the row before it, so the second's served
        # time never goes negative: only a check per request catches them.
        for kind in StrategyKind:
            config = SamplerConfig()
            sim = Simulation(small_model(), make_strategy(kind, config), config, seed=1)
            with pytest.raises(ParameterError, match="second 0: a request needs a finite"):
                sim.step((4, [(0, 40.0, 100.0), (0, -40.0, 100.0)] * 50))
            assert sim.seconds == []

    @pytest.mark.parametrize("users, message", [
        (0, "users must be >= 1"), (-4, "users must be >= 1"),
        (4.5, "users must be an integer, got 4.5"), (True, "users must be an integer, got True"),
        (2**63, f"users must be at most {2**63 - 1}, got {2**63}")])
    def test_users_not_a_count_refused_before_the_second(self, users, message):
        # series.csv holds a count of users, so a run that served another
        # value could be saved but not loaded.  Nothing of the refused second
        # is kept, and the next second is served as second 0.
        rows = [(0, 40.0, 100.0)] * 200
        for kind in StrategyKind:
            config = SamplerConfig()
            sim = Simulation(small_model(), make_strategy(kind, config), config, seed=1)
            with pytest.raises(ParameterError, match=f"^second 0: {re.escape(message)}$"):
                sim.step((users, rows))
            assert sim.seconds == [] and len(sim.traces) == len(sim.events) == 0
            if kind is StrategyKind.ADP:
                assert sim.strategy.monitor.population.total == 0
            assert sim.step((4, rows)).second == 0 and len(sim.events) > 0

    def test_rate_strategy_served_by_its_rate(self):
        class EveryRequest(NoMonitoringStrategy):
            rate = 1.0

            def decide(self, request, now, rng):
                raise AssertionError("step asked a rate strategy's decide")

        sim = Simulation(small_model(), EveryRequest(), SamplerConfig(), seed=1)
        run = sim.run(offered_stream(small_model(), small_workload(duration=5),
                                     random.Random(1)))
        assert len(run.traces) == len(run.events) > 0

    def test_adaptive_subclass_served_by_its_monitor(self):
        class Overridden(AdaptiveStrategy):
            def decide(self, request, now, rng):
                raise AssertionError("step asked an adaptive strategy's decide")

        config = SamplerConfig()
        stream = list(offered_stream(small_model(), small_workload(), random.Random(1)))
        runs = [Simulation(small_model(), strategy, config, seed=1).run(stream)
                for strategy in (Overridden(config), AdaptiveStrategy(config))]
        assert run_parts(runs[0]) == run_parts(runs[1])
        assert len(runs[0].traces) > 0

    def test_strategy_of_neither_family_refused_at_construction(self):
        class EveryRequest(Strategy):
            kind = StrategyKind.FUM
            rate = 1.0

            def decide(self, request, now, rng):
                return TraceRecord(request, 0)

        with pytest.raises(ParameterError, match="EveryRequest is neither a RateStrategy nor"
                                                 " an AdaptiveStrategy"):
            Simulation(small_model(), EveryRequest(), SamplerConfig(), seed=1)

    def test_rate_outside_unit_interval_rejected(self):
        strategy = NoMonitoringStrategy()
        strategy.rate = 1.5
        sim = Simulation(small_model(), strategy, SamplerConfig(), seed=1)
        with pytest.raises(ParameterError, match=r"probability must be in \[0, 1\], got 1.5"):
            sim.step((4, [(0, 40.0, 100.0)]))


def packed(rows):
    """``rows`` packed and sealed as ``offered_stream`` packs a second."""
    columns = simulator._Columns()
    for idx, base_rt, mem in rows:
        columns.ids.append(idx)
        columns.rts.append(base_rt)
        columns.mems.append(mem)
    columns.seal()
    return columns


class TestOneCheckPerSecond:
    """A packed second is checked once; any other is scanned for its first
    bad row, and a packed second that fails its check is scanned too."""

    @staticmethod
    def _serve_both_forms(kind, users, rows):
        """Serve ``rows`` as a list and packed, each to a fresh simulation;
        per form: the error raised or None, the decision generator's state,
        the monitor's population total (ADP) and the simulation."""
        outcomes = []
        for form in (list, packed):
            config = SamplerConfig()
            sim = Simulation(small_model(), make_strategy(kind, config), config, seed=1)
            try:
                sim.step((users, form(rows)))
                error = None
            except ParameterError as exc:
                error = str(exc)
            total = sim.strategy.monitor.population.total if kind == "ADP" else None
            outcomes.append((error, sim.decision_rng.getstate(), total, sim))
        return outcomes

    @pytest.mark.parametrize("kind", [k.value for k in StrategyKind])
    @pytest.mark.parametrize("bad", [(1, math.nan, 300.0), (1, math.inf, 300.0),
                                     (1, -40.0, 300.0), (1, 60.0, math.nan),
                                     (1, 60.0, -math.inf)])
    def test_bad_row_in_the_served_prefix_raises_as_in_a_list(self, kind, bad):
        # Thirty rows are served, and drawn for, before the bad one raises.
        rows = [(0, 40.0, 100.0)] * 30 + [bad] + [(0, 40.0, 100.0)] * 200
        (error, state, total, _), packed_outcome = self._serve_both_forms(kind, 4, rows)
        assert error.startswith("second 0: a request needs a finite response time")
        assert packed_outcome[:3] == (error, state, total)
        assert total in (None, 30)

    @pytest.mark.parametrize("kind", [k.value for k in StrategyKind])
    def test_bad_row_past_the_served_prefix_raises_in_neither_form(self, kind):
        rows = [(0, 40.0, 100.0)] * 200 + [(1, math.nan, math.nan)]
        outcomes = self._serve_both_forms(kind, 4, rows)
        assert [error for error, *_ in outcomes] == [None, None]
        runs = [sim.run([]) for *_, sim in outcomes]
        assert 0 < runs[0].seconds[0].throughput < 200
        assert run_parts(runs[0]) == run_parts(runs[1])

    @pytest.mark.parametrize("kind", [k.value for k in StrategyKind])
    def test_finite_base_time_that_overflows_once_slowed_raises_as_in_a_list(self, kind):
        # 1.5e308 ms is finite, so the packed second seals, but 20 users on
        # a 10-user knee slow it by 1.5, past the largest float.
        rows = [(0, 40.0, 100.0)] * 5 + [(1, 1.5e308, 300.0)] + [(0, 40.0, 100.0)] * 500
        assert packed(rows).max_rt == 1.5e308
        (error, state, total, _), packed_outcome = self._serve_both_forms(kind, 20, rows)
        assert error == ("second 0: a request needs a finite response time >= 0 and"
                         " finite memory, got inf and 300.0")
        assert packed_outcome[:3] == (error, state, total)
        # Without the slowdown the same row is served.
        assert [error for error, *_ in self._serve_both_forms(kind, 4, rows)] == [None, None]

    @pytest.mark.parametrize("kind", [k.value for k in StrategyKind])
    def test_offered_seconds_are_served_without_a_scan(self, monkeypatch, kind):
        def scan(rows, slowdown):
            raise AssertionError("a sealed second was scanned row by row")

        monkeypatch.setattr(simulator, "_first_bad_row", scan)
        run = run_scenario(small_model(), small_workload(), kind, seed=1)
        assert len(run.seconds) == 30

    def test_unsealed_or_bad_columns_are_not_certified(self):
        assert math.isnan(simulator._Columns().max_rt)
        assert packed([]).max_rt == 0.0
        for bad in ((0, math.nan, 1.0), (0, math.inf, 1.0), (0, -1.0, 1.0), (0, 1.0, math.nan),
                    (0, 1.0, -math.inf)):
            # After a good row, where min and max would not see a NaN.
            assert math.isnan(packed([(0, 5.0, 1.0), bad]).max_rt), bad


class TestServedEvents:
    @pytest.mark.parametrize("kind", [k.value for k in StrategyKind])
    def test_events_built_per_run(self, monkeypatch, kind):
        # No built-in kind builds an object while it runs: its traces go to
        # the columns, and ADP's releases are views of them.
        built = {RequestEvent: 0, TraceRecord: 0}

        class CountingEvent(RequestEvent):
            __slots__ = ()

            def __post_init__(self):
                built[RequestEvent] += 1
                RequestEvent.__post_init__(self)

        class CountingRecord(TraceRecord):
            __slots__ = ()

            def __post_init__(self):
                built[TraceRecord] += 1
                TraceRecord.__post_init__(self)

        for module in (model_module, simulator, sampler, strategies):
            monkeypatch.setattr(module, "RequestEvent", CountingEvent)
        for module in (model_module, sampler, strategies):
            monkeypatch.setattr(module, "TraceRecord", CountingRecord)
        run = run_scenario(small_model(), small_workload(), kind, seed=1)
        assert len(run.traces) > 0 or kind == "NOM"
        if kind == "ADP":
            scenario = default_scenario()
            run = run_scenario(scenario.model, scenario.workload, kind, seed=1,
                               config=scenario.sampler)
            assert len(run.traces) > 20000 and len(run.releases) > 3
        assert built == {RequestEvent: 0, TraceRecord: 0}

    def test_starts_add_spent_one_term_at_a_time(self):
        # After four traces spent is 34.3 + 24 + 12.6 + 24 + 63.0 + 24 + 10.1
        # + 24, which is 215.99999999999997 added one term at a time, the fifth
        # start 53 ms; adding each response time and trace cost together first
        # gives 216.0 and 54 ms.  step writes the starts to the columns, and
        # ServedEvents replays them when the events are read.
        rows = [(0, base_rt, 100.0) for base_rt in (34.3, 12.6, 63.0, 10.1, 34.15)]
        sim = Simulation(small_model(trace_cost=24.0), make_strategy("FUM", SamplerConfig()),
                         SamplerConfig(), seed=1)
        sim.step((4, rows))
        assert list(sim.traces.starts) == [0, 14, 23, 45, 53]
        assert [event.start for event in sim.events] == [0, 14, 23, 45, 53]

    def test_reads_agree_with_iteration(self):
        run = run_scenario(small_model(), small_workload(), "UNI", seed=5)
        events = list(run.events)
        size = len(run.events)
        assert size == len(events) > 500
        for i in (0, 1, 137, size - 1, -1, -size):
            assert run.events[i] == events[i]
        for window in (slice(None), slice(100, 400), slice(3, 600, 7), slice(None, None, -3),
                       slice(-50, None), slice(400, 100)):
            assert run.events[window] == events[window]
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                run.events[i]
        assert run.events == events and events == run.events
        assert run.events != events[:-1]
        assert events[40] in run.events

    def test_one_shot_rows_served_like_lists(self):
        model, workload = small_model(), small_workload()
        drawn = list(offered_stream(model, workload, random.Random("3:workload")))
        runs = []
        for stream in (drawn, [(users, iter(requests)) for users, requests in drawn]):
            sim = Simulation(model, make_strategy("INV", SamplerConfig()),
                             SamplerConfig(), seed=3)
            runs.append(sim.run(stream))
        matrix_run = next(run_matrix(model, workload, ["INV"], 3))
        assert runs[0].events == runs[1].events == matrix_run.events


class TestTraceColumns:
    def test_reads_agree_with_iteration(self):
        run = run_scenario(small_model(), small_workload(), "UNI", seed=5)
        traces = list(run.traces)
        size = len(run.traces)
        assert size == len(traces) > 300
        assert all(type(t) is TraceRecord for t in traces)
        for i in (0, 1, 137, size - 1, -1, -size):
            assert run.traces[i] == traces[i]
        for window in (slice(None), slice(100, 250), slice(3, 300, 7), slice(None, None, -3),
                       slice(-50, None), slice(250, 100)):
            assert run.traces[window] == traces[window]
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                run.traces[i]
        assert run.traces == traces and traces == run.traces
        assert run.traces != traces[:-1]
        assert traces[40] in run.traces
        assert run.traces == run_scenario(small_model(), small_workload(), "UNI", seed=5).traces
        assert run.traces != run_scenario(small_model(), small_workload(), "UNI", seed=6).traces

    def test_each_read_builds_a_new_record(self):
        run = run_scenario(small_model(), small_workload(), "FUM", seed=5)
        assert run.traces[3] == run.traces[3] and run.traces[3] is not run.traces[3]

    @pytest.mark.parametrize("kind", [k.value for k in StrategyKind])
    def test_columns_hold_what_decide_recorded(self, kind):
        # The reference simulator asks every kind's decide per request and
        # keeps the records it returns; the columns rebuild them field for field.
        config = SamplerConfig()
        run = run_scenario(small_model(), small_workload(), kind, 2, config)
        reference = reference_run(small_model(), small_workload(), kind, 2, config)
        assert run.traces == reference.traces
        assert len(run.traces) > 0 or kind == "NOM"


class TestDirectAdaptive:
    @pytest.mark.parametrize("scenario, seed",
                             [("small", 1), ("small", 2), ("small", 3), ("default", 1)])
    def test_direct_equals_decide(self, scenario, seed):
        # ADP served by its monitor, with no per-request object, gives the run
        # that the reference simulator gives by asking decide per request.
        if scenario == "small":
            model, workload, config = small_model(), small_workload(duration=60), SamplerConfig()
        else:
            default = default_scenario()
            model, workload, config = default.model, default.workload, default.sampler
        direct = run_scenario(model, workload, "ADP", seed, config)
        assert len(direct.releases) > 0
        assert all(not isinstance(release.traces, list) for release in direct.releases)
        assert run_parts(direct) == run_parts(reference_run(model, workload, "ADP", seed, config))

    def test_only_an_unused_strategy_is_served(self):
        config = SamplerConfig()
        bound = AdaptiveStrategy(config)
        Simulation(small_model(), bound, config, seed=1)
        used = AdaptiveStrategy(config)
        used.decide(RequestEvent("/a", 0, 40.0, 100.0), 0.0, random.Random(1))
        for strategy in (bound, used):
            with pytest.raises(ParameterError, match="only a monitor that has not been used"):
                Simulation(small_model(), strategy, config, seed=1)


class TestFailedSecond:
    @pytest.mark.parametrize("kind", ["FUM", "ADP"])
    def test_leaves_nothing_behind_and_stops_the_simulation(self, kind):
        # Five rows are served, and traced or counted, before the sixth raises.
        config = SamplerConfig()
        sim = Simulation(small_model(), make_strategy(kind, config), config, seed=2)
        with pytest.raises(ParameterError, match="second 0: a request needs a finite"):
            sim.step((4, [(0, 40.0, 100.0)] * 5 + [(0, 40.0, math.nan)]))
        if kind == "ADP":
            monitor = sim.strategy.monitor
            assert monitor.population.total == 5 and monitor.sample.total > 0
        assert len(sim.traces) == len(sim.events) == 0 and sim.seconds == []
        assert len(sim.events.traced_positions) == 0
        for later in (lambda: sim.step((4, [(0, 40.0, 100.0)] * 200)),
                      lambda: sim.run([(4, [(0, 40.0, 100.0)] * 200)])):
            with pytest.raises(ParameterError, match="second 0 failed, so this simulation"):
                later()
        assert len(sim.traces) == len(sim.events) == 0 and sim.seconds == []

    def test_earlier_seconds_stay_and_the_failed_seconds_releases_are_unreadable(self):
        # With 0.5 s cycles, both seconds release cycles before the NaN row
        # at the end of second 1 truncates that second's rows away.
        config = SamplerConfig(max_cycle_length=0.5)
        sim = Simulation(small_model(), make_strategy("ADP", config), config, seed=1)
        sim.step((8, [(0, 40.0, 100.0)] * 300))
        kept = sim.strategy.drain_releases()
        traces, events = list(sim.traces), list(sim.events)
        positions = list(sim.events.traced_positions)
        with pytest.raises(ParameterError, match="second 1: a request needs a finite"):
            sim.step((8, [(0, 40.0, 100.0)] * 150 + [(0, 40.0, math.nan)]))
        assert list(sim.traces) == traces and list(sim.events) == events
        assert list(sim.events.traced_positions) == positions
        assert len(sim.seconds) == 1
        lost = sim.strategy.drain_releases()
        assert kept and lost
        kept_rows = sum(len(release.traces) for release in kept)
        assert [t for release in kept for t in release.traces] == traces[:kept_rows]
        for release in lost:
            with pytest.raises(IndexError, match="truncated away"):
                list(release.traces)
