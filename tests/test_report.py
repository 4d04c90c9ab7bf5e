"""Metrics and report tests: RMSE, stats, artifacts, trace files, comparison CSVs."""

import csv
import json
import random

import pytest

from conftest import make_event, trace_columns
from reprtrace.cli import main
from reprtrace.errors import InsufficientDataError, MissingTypeError, ParameterError
from reprtrace.model import SamplerConfig, TraceRecord
from reprtrace.report import (
    RunSummary,
    load_run,
    read_trace_file,
    rmse,
    sampling_rate_stats,
    save_run,
    summarize_run,
    throughput_stats,
    type_memory_means,
    write_report,
    write_trace_file,
)
from reprtrace.simulator import RunResult, SecondStats, run_scenario
from reprtrace.strategies import StrategyKind
from test_golden import SCENARIOS, SEEDS


class TestRmse:
    def test_identical_means_zero(self):
        means = {"/a": 100.0, "/b": 250.0}
        assert rmse(means, dict(means)) == 0.0

    def test_two_type_example(self):
        assert rmse({"a": 100.0, "b": 200.0}, {"a": 110.0, "b": 190.0}) == pytest.approx(10.0)

    def test_single_type(self):
        assert rmse({"a": 500.0}, {"a": 450.0}) == pytest.approx(50.0)

    def test_missing_type_raises(self):
        with pytest.raises(MissingTypeError):
            rmse({"a": 1.0, "b": 2.0}, {"a": 1.0})

    def test_extra_type_raises(self):
        with pytest.raises(MissingTypeError):
            rmse({"a": 1.0}, {"a": 1.0, "b": 2.0})

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            rmse({}, {})

    def test_symmetric_under_permutation(self):
        rng = random.Random(13)
        for _ in range(200):
            types = [f"t{i}" for i in range(rng.randint(1, 9))]
            ground = {t: rng.uniform(10, 900) for t in types}
            sampled = {t: rng.uniform(10, 900) for t in types}
            shuffled = list(types)
            rng.shuffle(shuffled)
            reordered = {t: sampled[t] for t in shuffled}
            assert rmse(ground, reordered) == pytest.approx(rmse(ground, sampled))
            if any(ground[t] != sampled[t] for t in types):
                assert rmse(ground, sampled) > 0


class TestTypeMemoryMeans:
    def test_negative_measurements_discarded(self):
        events = [
            make_event("/a", mem=100.0),
            make_event("/a", mem=-500.0),
            make_event("/a", mem=200.0),
            make_event("/b", mem=-1.0),
        ]
        means = type_memory_means(events)
        assert means == {"/a": 150.0}

    def test_zero_kept(self):
        assert type_memory_means([make_event("/a", mem=0.0)]) == {"/a": 0.0}


def _run(strategy, seed, throughputs, rates, traces=(), releases=()):
    seconds = [
        SecondStats(second=i, users=4, throughput=tp, sampling_rate=rate,
                    monitoring_enabled=strategy is not StrategyKind.NOM)
        for i, (tp, rate) in enumerate(zip(throughputs, rates))
    ]
    return RunResult(
        strategy=strategy,
        seed=seed,
        seconds=seconds,
        events=[t.event for t in traces],
        traces=trace_columns(traces),
        releases=list(releases),
        sampler_events=[],
        config=SamplerConfig(),
    )


def _traces(spec, start=0):
    """spec: list of (type_id, mem) pairs."""
    return [
        TraceRecord(event=make_event(type_id, start=start + i, mem=mem),
                    cycle_index=0)
        for i, (type_id, mem) in enumerate(spec)
    ]


class TestRunStats:
    def test_throughput_mean(self):
        run = _run(StrategyKind.NOM, 1, [100, 200], [0.0, 0.0])
        assert throughput_stats(run) == 150.0

    def test_constant_series(self):
        run = _run(StrategyKind.NOM, 1, [100] * 60, [0.0] * 60)
        assert throughput_stats(run) == 100.0

    def test_sampling_rate_mean(self):
        run = _run(StrategyKind.UNI, 1, [10, 10], [0.5, 0.5])
        assert sampling_rate_stats(run) == 0.5

    def test_empty_series_rejected(self):
        run = _run(StrategyKind.NOM, 1, [], [])
        with pytest.raises(InsufficientDataError):
            throughput_stats(run)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        traces = _traces([("/a", 100.0), ("/b", -50.0), ("/a", 120.0)])
        run = _run(StrategyKind.UNI, 3, [50, 60, 70], [0.5, 0.5, 0.5], traces=traces)
        save_run(run, tmp_path / "UNI_s3")
        loaded = load_run(tmp_path / "UNI_s3")
        assert isinstance(loaded, RunSummary)
        assert loaded.strategy is StrategyKind.UNI
        assert loaded.seed == 3
        assert loaded.seconds == run.seconds
        assert loaded.type_counts == {"/a": 2, "/b": 1}
        assert loaded.memory_means == {"/a": 110.0}
        meta = json.loads((tmp_path / "UNI_s3" / "run.json").read_text())
        assert meta["event_count"] == 3
        assert SamplerConfig(**meta["sampler"]) == run.config


class TestSummarizeRun:
    def test_one_pass_reduction_matches_type_memory_means(self, tmp_path):
        traces = _traces([("/a", 100.0), ("/b", -50.0), ("/a", 120.0)])
        run = _run(StrategyKind.UNI, 3, [50, 60, 70], [0.5, 0.5, 0.5], traces=traces)
        summary = summarize_run(run)
        assert summary.memory_means == type_memory_means(t.event for t in traces)
        assert summary.memory_means == {"/a": 110.0}
        assert summary.type_counts == {"/a": 2, "/b": 1}
        assert summarize_run(summary) is summary
        save_run(run, tmp_path / "UNI_s3")
        assert summarize_run(load_run(tmp_path / "UNI_s3")) == summary


class TestTraceColumns:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", [k.value for k in StrategyKind])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_columns_reduce_and_save_like_a_list(self, scenario, kind, seed, tmp_path):
        # A saved run reads back as its own trace columns, record for record
        # (so also as their list), and load_run reduces it as summarize_run
        # reduces the run in memory.
        model, workload = SCENARIOS[scenario]()
        run = run_scenario(model, workload, kind, seed)
        run_dir = save_run(run, tmp_path / "run")
        read = read_trace_file(run_dir / "traces.txt")
        assert read == run.traces and read == list(run.traces)
        assert read.type_ids == list(dict.fromkeys(t.event.type_id for t in run.traces))
        assert load_run(run_dir) == summarize_run(run)
        assert type_memory_means(t.event for t in run.traces) == summarize_run(run).memory_means

    def test_load_run_builds_no_record(self, tmp_path, monkeypatch):
        run = run_scenario(*SCENARIOS["loaded"](), "FUM", 1)
        run_dir = save_run(run, tmp_path / "FUM_s1")

        def refuse(*_args, **_kwargs):
            raise AssertionError("load_run built a record")

        monkeypatch.setattr("reprtrace.model.RequestEvent", refuse)
        monkeypatch.setattr("reprtrace.model.TraceRecord", refuse)
        monkeypatch.setattr("reprtrace.report.RequestEvent", refuse)
        assert load_run(run_dir) == summarize_run(run)


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        records = [
            TraceRecord(event=make_event("/home", start=10, rt=12.5, mem=64.0),
                        cycle_index=0),
            TraceRecord(event=make_event("/vets", start=2075, rt=200.125, mem=-31.5),
                        cycle_index=3),
            TraceRecord(event=make_event("odd,type", start=9000, rt=0.0, mem=0.0),
                        cycle_index=4),
        ]
        path = tmp_path / "traces.txt"
        write_trace_file(path, trace_columns(records))
        loaded = read_trace_file(path)
        assert len(loaded) == 3
        for original, parsed in zip(records, loaded):
            assert parsed.cycle_index == original.cycle_index
            assert parsed.event.type_id == original.event.type_id
            assert parsed.event.start == original.event.start
            assert parsed.event.response_time == original.event.response_time
            assert parsed.event.memory_delta == original.event.memory_delta

    def test_field_order_on_disk(self, tmp_path):
        path = tmp_path / "traces.txt"
        write_trace_file(
            path,
            trace_columns([TraceRecord(event=make_event("/x", start=5, rt=7.0, mem=9.0),
                                       cycle_index=2)]),
        )
        line = path.read_text().strip()
        assert line.split(",")[:3] == ["2", "/x", "5"]

    @pytest.mark.parametrize("type_id", [
        "a,b", 'say "hi"', "cr\rhere", "lf\nhere", "crlf\r\n", "  padded  ", " lead",
        "trail ", "naïve/ü/日本", '",\r\n ',
    ])
    def test_bytes_equal_csv_writer(self, tmp_path, type_id):
        records = [
            TraceRecord(event=make_event(tid, start=start, rt=rt, mem=mem),
                        cycle_index=cycle)
            for tid, start, rt, mem, cycle in [
                (type_id, 0, 0.1 + 0.2, -1e-300, 0),
                ("/plain", 7, 12.5, 64.0, 0),
                (type_id, 2075, 200.125, -31.5, 3),
                (type_id, 9000, 0.0, 1e22, 12),
            ]
        ]
        expected = tmp_path / "csv_writer.txt"
        with open(expected, "w", newline="") as handle:
            writer = csv.writer(handle)
            for record in records:
                event = record.event
                writer.writerow([record.cycle_index, event.type_id, event.start,
                                 repr(event.response_time), repr(event.memory_delta)])
        path = tmp_path / "traces.txt"
        write_trace_file(path, trace_columns(records))
        assert path.read_bytes() == expected.read_bytes()
        loaded = read_trace_file(path)
        assert [(t.cycle_index, t.event) for t in loaded] == [
            (t.cycle_index, t.event) for t in records]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "traces.txt"
        write_trace_file(path, trace_columns([]))
        assert read_trace_file(path) == []


def _comparison_runs(include_fum=True):
    """Two seeds x strategies with FUM ground truth and known memory means."""
    runs = []
    for seed in (1, 2):
        shift = float(seed)
        fum_spec = [("/a", 100.0 + shift), ("/a", 120.0 + shift),
                    ("/b", 300.0), ("/b", 340.0), ("/c", 50.0)]
        uni_spec = [("/a", 118.0), ("/b", 310.0), ("/c", 55.0)]
        adp_spec = [("/a", 111.0 + shift), ("/b", 321.0), ("/c", 50.0)]
        if include_fum:
            runs.append(_run(StrategyKind.FUM, seed, [80, 82], [1.0, 1.0],
                             traces=_traces(fum_spec)))
        runs.append(_run(StrategyKind.NOM, seed, [100, 102], [0.0, 0.0]))
        runs.append(_run(StrategyKind.UNI, seed, [90, 92], [0.5, 0.5],
                         traces=_traces(uni_spec)))
        runs.append(_run(StrategyKind.ADP, seed, [95, 96], [0.48, 0.46],
                         traces=_traces(adp_spec)))
    return runs


class TestWriteReport:
    def test_summary_layout(self, tmp_path):
        report = write_report(_comparison_runs(), tmp_path)
        assert report.out_dir == tmp_path
        strategies = [row.strategy for row in report.rows]
        assert strategies == [StrategyKind.NOM, StrategyKind.FUM,
                              StrategyKind.ADP, StrategyKind.UNI]
        nom = report.rows[0]
        assert nom.throughput_mean == pytest.approx(101.0)
        assert nom.throughput_delta_pct is None
        assert nom.rmse_mean is None
        fum = report.rows[1]
        assert fum.throughput_delta_pct == pytest.approx((81 - 101) / 101 * 100)
        assert fum.rmse_mean is None
        uni = report.rows[3]
        assert uni.sampling_rate_mean == 0.5
        assert uni.rmse_mean is not None
        with open(tmp_path / "summary.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["strategy"] for r in rows] == ["NOM", "FUM", "ADP", "UNI"]
        assert rows[3]["sampling_rate_mean"] == "0.500000"

    def test_rmse_against_same_seed_fum(self, tmp_path):
        runs = _comparison_runs()
        report = write_report(runs, tmp_path)
        ground = type_memory_means(t.event for t in runs[0].traces)
        sampled = type_memory_means(t.event for t in runs[2].traces)
        expected = rmse(ground, sampled)
        assert report.rmse_by_run[("UNI", 1)] == pytest.approx(expected)
        assert ("ADP", 2) in report.rmse_by_run

    def test_missing_fum_warns_and_omits(self, tmp_path):
        report = write_report(_comparison_runs(include_fum=False), tmp_path)
        assert report.warnings
        assert all(row.rmse_mean is None for row in report.rows)

    def test_missing_type_flagged_with_coverage(self, tmp_path):
        runs = _comparison_runs()
        # strip /c from one ADP run
        for run in runs:
            if run.strategy is StrategyKind.ADP and run.seed == 1:
                run.traces = trace_columns(t for t in run.traces if t.event.type_id != "/c")
        report = write_report(runs, tmp_path)
        adp = next(row for row in report.rows if row.strategy is StrategyKind.ADP)
        assert adp.missing_types == ["/c"]
        assert adp.rmse_coverage is not None and adp.rmse_coverage < 1.0
        assert any("/c" in warning for warning in report.warnings)

    def test_type_absent_from_ground_truth_is_not_a_warning(self, tmp_path):
        runs = _comparison_runs()
        uni = next(run for run in runs if run.strategy is StrategyKind.UNI and run.seed == 1)
        uni.traces = trace_columns([*uni.traces, *_traces([("/d", 70.0)], start=10)])
        report = write_report(runs, tmp_path / "report")
        assert report.warnings == []
        row = next(row for row in report.rows if row.strategy is StrategyKind.UNI)
        assert row.rmse_coverage == 1.0
        assert row.missing_types == []
        runs_dir = tmp_path / "runs"
        for run in runs:
            save_run(run, runs_dir / f"{run.strategy.value}_s{run.seed}")
        assert main(["report", "--strict", "--in", str(runs_dir),
                     "--out", str(tmp_path / "regen")]) == 0

    def test_distribution_columns_sum_to_hundred(self, tmp_path):
        write_report(_comparison_runs(), tmp_path)
        with open(tmp_path / "distribution.csv") as handle:
            rows = list(csv.DictReader(handle))
        for column in rows[0]:
            if column == "request_type":
                continue
            total = sum(float(row[column]) for row in rows)
            assert total == pytest.approx(100.0, abs=0.1)

    def test_timeseries_files_written(self, tmp_path):
        write_report(_comparison_runs(), tmp_path)
        series = tmp_path / "timeseries" / "UNI_s1.csv"
        assert series.exists()
        with open(series) as handle:
            rows = list(csv.DictReader(handle))
        assert [row["throughput"] for row in rows] == ["90", "92"]

    def test_report_regeneration_is_idempotent(self, tmp_path):
        runs_dir = tmp_path / "runs"
        for run in _comparison_runs():
            save_run(run, runs_dir / f"{run.strategy.value}_s{run.seed}")
        out_a = tmp_path / "report_a"
        out_b = tmp_path / "report_b"
        loaded = [load_run(p.parent) for p in sorted(runs_dir.glob("*/run.json"))]
        write_report(iter(loaded), out_a)
        loaded = [load_run(p.parent) for p in sorted(runs_dir.glob("*/run.json"))]
        write_report(iter(loaded), out_b)
        for name in ["summary.csv", "cycles.csv", "distribution.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_accepts_generator_input(self, tmp_path):
        report = write_report(iter(_comparison_runs()), tmp_path)
        assert len(report.rows) == 4

    def test_second_run_of_a_strategy_and_seed_rejected(self, tmp_path):
        runs = _comparison_runs()
        with pytest.raises(ParameterError, match="UNI seed 1"):
            write_report(runs + [runs[2]], tmp_path)

    def test_no_runs_rejected(self, tmp_path):
        with pytest.raises(InsufficientDataError):
            write_report(iter([]), tmp_path)

    @pytest.mark.parametrize("case, error", [
        ("duplicate", ParameterError),
        ("empty series", InsufficientDataError),
        ("empty ground truth", InsufficientDataError),
        ("no runs", InsufficientDataError),
    ])
    def test_failing_report_writes_nothing(self, tmp_path, case, error):
        runs = _comparison_runs()
        if case == "duplicate":
            runs.append(runs[2])
        elif case == "empty series":
            runs.append(_run(StrategyKind.INV, 1, [], []))
        elif case == "empty ground truth":
            runs[0].traces = trace_columns([])
        else:
            runs = []
        out = tmp_path / "report"
        with pytest.raises(error):
            write_report(runs, out)
        assert not out.exists()
