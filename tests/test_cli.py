"""CLI tests: validate, run, compare, report, strict mode, exit codes."""

import csv
import gc
import json
import math
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from reprtrace import cli
from reprtrace.cli import main
from reprtrace.report import save_run
from reprtrace.scenario import default_scenario, parse_scenario, scenario_to_dict
from reprtrace.simulator import Simulation
from test_report import _comparison_runs

TINY_SCENARIO = {
    "model": {
        "capacity_users": 10,
        "contention_gamma": 0.5,
        "trace_cost": 15.0,
        "gc_negative_prob": 0.05,
        "types": [
            {"type_id": "/a", "weight": 3, "base_rt": 40.0, "rt_dispersion": 0.2,
             "base_mem": 100.0, "mem_dispersion": 0.2},
            {"type_id": "/b", "weight": 2, "base_rt": 60.0, "rt_dispersion": 0.2,
             "base_mem": 300.0, "mem_dispersion": 0.2},
        ],
    },
    "workload": [
        {"kind": "stationary", "users": 4, "duration": 15},
        {"kind": "burst", "base_users": 4, "peak_users": 8, "at": 3, "width": 2,
         "duration": 5},
    ],
    "sampler": {"history_capacity": 10},
}


ALL_STRATEGIES = "ADP,INV,UNI,FUM,NOM"


def _tree_bytes(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(TINY_SCENARIO))
    return path


class TestValidate:
    def test_default_scenario_ok(self, capsys):
        assert main(["validate"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_tiny_scenario_ok(self, tiny_scenario):
        assert main(["validate", "--scenario", str(tiny_scenario)]) == 0

    def test_syntax_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "model": [,]\n}\n')
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2" in err

    def test_semantic_error_reports_key_path(self, tmp_path, capsys):
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["workload"][0]["users"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "workload[0]" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", [["validate"], ["run", "--strategy", "NOM"],
                                         ["compare", "--seeds", "1"]])
    def test_schedule_shorter_than_a_second_refused(self, tmp_path, capsys, command):
        # Only whole seconds are served, so a 0.5 s schedule would serve none.
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["workload"] = [{"kind": "stationary", "users": 4, "duration": 0.5}]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        extra = [] if command == ["validate"] else ["--out", str(out)]
        assert main(command + ["--scenario", str(path)] + extra) == 2
        assert "workload must last at least 1 s, got 0.5 s" in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_summing_to_infinity_refused(self, tmp_path, capsys):
        # Each duration is finite, but their sum is inf: no whole seconds.
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["workload"] = [{"kind": "stationary", "users": 4, "duration": 1e308}] * 2
        path = tmp_path / "endless.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "workload must last a finite time, got inf s" in capsys.readouterr().err

    def test_prints_the_whole_seconds_run_serves(self, tmp_path, capsys):
        # A fractional last second is not served: 1.5 s is a 1 s schedule.
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["workload"] = [{"kind": "stationary", "users": 4, "duration": 1.5}]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 0
        assert capsys.readouterr().out == "OK: 2 request types, 1 s schedule, 1 segments\n"
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--strategy", "NOM", "--out", str(out)]) == 0
        series = (out / "runs" / "NOM_s0" / "series.csv").read_text().splitlines()
        assert len(series) == 1 + 1

    def test_readme_scenario_example_validates(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n### Scenario files\n", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "scenario.json"
        path.write_text(example)
        assert main(["validate", "--scenario", str(path)]) == 0, capsys.readouterr().err


class TestRun:
    def test_nom_run_writes_artifacts(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(tiny_scenario), "--strategy", "NOM",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        run_dir = out / "runs" / "NOM_s1"
        assert (run_dir / "series.csv").exists()
        assert (run_dir / "run.json").exists()
        # no monitoring: trace file exists but is empty
        assert (run_dir / "traces.txt").read_text() == ""
        config = json.loads((out / "effective_config.json").read_text())
        assert config["strategy"] == "NOM"
        assert config["seed"] == 1
        assert config["scenario"]["workload"][0]["users"] == 4
        # The scenario is the experiment only; the flags above chose the run.
        assert list(config["scenario"]) == ["model", "workload", "sampler"]

    def test_defaults_seed_0_into_reprtrace_out(self, tiny_scenario, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--scenario", str(tiny_scenario), "--strategy", "NOM"]) == 0
        assert (tmp_path / "reprtrace-out" / "runs" / "NOM_s0" / "run.json").exists()

    def test_strategy_required(self, tiny_scenario, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(tiny_scenario), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_unknown_strategy_rejected_by_parser(self, tiny_scenario, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", str(tiny_scenario), "--strategy", "XXX",
                  "--out", str(tmp_path / "o")])


class TestCompare:
    def test_matrix_and_report(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(tiny_scenario),
                     "--strategies", "NOM,FUM,UNI", "--seeds", "1,2",
                     "--out", str(out)])
        assert code == 0
        run_dirs = sorted(p.name for p in (out / "runs").iterdir())
        assert run_dirs == ["FUM_s1", "FUM_s2", "NOM_s1", "NOM_s2", "UNI_s1", "UNI_s2"]
        with open(out / "report" / "summary.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["strategy"] for r in rows] == ["NOM", "FUM", "UNI"]
        assert rows[2]["rmse_mean"] != ""

    def test_defaults_seeds_1_to_10_into_reprtrace_out(self, tiny_scenario, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--scenario", str(tiny_scenario), "--strategies", "NOM"]) == 0
        out = tmp_path / "reprtrace-out"
        assert sorted(p.name for p in (out / "runs").iterdir()) == sorted(
            f"NOM_s{seed}" for seed in range(1, 11))
        config = json.loads((out / "effective_config.json").read_text())
        assert (config["seeds"], config["strict"]) == (list(range(1, 11)), False)

    def test_seed_ranges(self, tiny_scenario, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(tiny_scenario),
                     "--strategies", "NOM", "--seeds", "1-3,7",
                     "--out", str(out)]) == 0
        names = sorted(p.name for p in (out / "runs").iterdir())
        assert names == ["NOM_s1", "NOM_s2", "NOM_s3", "NOM_s7"]
        negative = tmp_path / "negative"
        assert main(["compare", "--scenario", str(tiny_scenario),
                     "--strategies", "NOM", "--seeds=-2-0",
                     "--out", str(negative)]) == 0
        names = sorted(p.name for p in (negative / "runs").iterdir())
        assert names == ["NOM_s-1", "NOM_s-2", "NOM_s0"]

    _BAD_MATRICES = [
        # seeds, strategies, REPRTRACE_THREADS, message
        ("1,5-3", "NOM", "1", "--seeds: range '5-3' runs backwards"),
        ("1,1", "NOM", "1", "--seeds: duplicate seed 1"),
        ("2,1-3", "NOM", "1", "--seeds: duplicate seed 2"),
        ("1", "UNI,UNI,FUM", "1", "--strategies: duplicate strategy UNI"),
        ("1", "UNI,XYZ", "1", "--strategies: 'XYZ' is not one of ADP, INV, UNI, FUM, NOM"),
        ("1,x", "NOM", "1", "--seeds: 'x' is not an integer or a range"),
        (",", "NOM", "1", "--seeds: no seeds in ','"),
        ("1", ",", "1", "--strategies: no strategies given"),
        ("1", "NOM", "two", "REPRTRACE_THREADS: 'two' is not an integer"),
        ("1", "NOM", "0", "REPRTRACE_THREADS: must be >= 1, got 0"),
        ("1", "NOM", "-2", "REPRTRACE_THREADS: must be >= 1, got -2"),
    ]

    @pytest.mark.parametrize("seeds, strategies, threads, message", _BAD_MATRICES,
                             ids=[f"{seeds}-{strategies}-{message}"
                                  for seeds, strategies, _threads, message in _BAD_MATRICES])
    def test_bad_matrix_rejected_before_any_job(self, tiny_scenario, tmp_path, capsys,
                                                monkeypatch, seeds, strategies, threads,
                                                message):
        monkeypatch.setenv("REPRTRACE_THREADS", threads)
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(tiny_scenario), "--strategies", strategies,
                     "--seeds", seeds, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_matches_serial(self, tiny_scenario, tmp_path, monkeypatch):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["compare", "--scenario", str(tiny_scenario),
                     "--strategies", ALL_STRATEGIES, "--seeds", "1,2",
                     "--out", str(serial)]) == 0
        monkeypatch.setenv("REPRTRACE_THREADS", "2")
        assert main(["compare", "--scenario", str(tiny_scenario),
                     "--strategies", ALL_STRATEGIES, "--seeds", "1,2",
                     "--out", str(parallel)]) == 0
        assert (serial / "report" / "summary.csv").read_bytes() == (
            parallel / "report" / "summary.csv"
        ).read_bytes()
        report = _tree_bytes(serial / "report")
        assert {"summary.csv", "cycles.csv", "distribution.csv",
                "timeseries/ADP_s1.csv", "timeseries/NOM_s2.csv"} <= set(report)
        assert report == _tree_bytes(parallel / "report")
        runs = _tree_bytes(serial / "runs")
        assert len(runs) == 5 * 2 * 3
        assert runs == _tree_bytes(parallel / "runs")

    def test_parallel_compare_never_reads_artifacts_back(self, tiny_scenario, tmp_path,
                                                         monkeypatch):
        reference = tmp_path / "reference"
        assert main(["compare", "--scenario", str(tiny_scenario),
                     "--strategies", ALL_STRATEGIES, "--seeds", "1",
                     "--out", str(reference)]) == 0

        def refuse(*_args, **_kwargs):
            raise AssertionError("compare read a run artifact back")

        monkeypatch.setattr("reprtrace.report.read_trace_file", refuse)
        monkeypatch.setattr("reprtrace.cli.load_run", refuse)
        monkeypatch.setenv("REPRTRACE_THREADS", "2")
        parallel = tmp_path / "parallel"
        assert main(["compare", "--scenario", str(tiny_scenario),
                     "--strategies", ALL_STRATEGIES, "--seeds", "1",
                     "--out", str(parallel)]) == 0
        assert _tree_bytes(parallel / "report") == _tree_bytes(reference / "report")
        assert _tree_bytes(parallel / "runs") == _tree_bytes(reference / "runs")

    @pytest.mark.parametrize("seeds, strategies, threads, groups", [
        ("1", ALL_STRATEGIES, "2", [(1, "ADP,UNI,NOM"), (1, "INV,FUM")]),
        ("1", ALL_STRATEGIES, "3", [(1, "ADP,FUM"), (1, "INV,NOM"), (1, "UNI")]),
        ("1,2,3", ALL_STRATEGIES, "2", [(1, ALL_STRATEGIES), (2, ALL_STRATEGIES),
                                        (3, ALL_STRATEGIES)]),
        ("1,2", ALL_STRATEGIES, "3", [(1, "ADP,UNI,NOM"), (1, "INV,FUM"),
                                      (2, "ADP,UNI,NOM"), (2, "INV,FUM")]),
        ("1", "UNI,ADP", "2", [(1, "UNI"), (1, "ADP")]),
    ])
    def test_jobs_group_strategies_per_seed(self, tiny_scenario, tmp_path, monkeypatch,
                                            seeds, strategies, threads, groups):
        serial = tmp_path / "serial"
        assert main(["compare", "--scenario", str(tiny_scenario), "--strategies", strategies,
                     "--seeds", seeds, "--out", str(serial)]) == 0
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                pools.append((max_workers, []))

            def map(self, fn, payloads):
                payloads = list(payloads)
                pools[-1][1].extend((seed, ",".join(group)) for _raw, seed, group, _out
                                    in payloads)
                return super().map(fn, payloads)

        monkeypatch.setattr("reprtrace.cli.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("REPRTRACE_THREADS", threads)
        parallel = tmp_path / "parallel"
        assert main(["compare", "--scenario", str(tiny_scenario), "--strategies", strategies,
                     "--seeds", seeds, "--out", str(parallel)]) == 0
        assert pools == [(min(int(threads), len(groups)), groups)]
        assert _tree_bytes(parallel / "report") == _tree_bytes(serial / "report")
        assert _tree_bytes(parallel / "runs") == _tree_bytes(serial / "runs")
        assert len(_tree_bytes(serial / "runs")) == 3 * len(strategies.split(",")) * len(
            seeds.split(","))

    def test_job_frees_each_run_before_the_next(self, tiny_scenario, tmp_path, monkeypatch):
        runs = []
        step = Simulation.step
        save = cli.save_run

        def recording_save(run, run_dir):
            runs.append(weakref.ref(run))
            return save(run, run_dir)

        def checked_step(self, offered):
            if not self.seconds:
                assert all(ref() is None for ref in runs), "a saved run is still alive"
            return step(self, offered)

        monkeypatch.setattr(cli, "save_run", recording_save)
        monkeypatch.setattr(Simulation, "step", checked_step)
        gc.disable()
        try:
            assert main(["compare", "--scenario", str(tiny_scenario),
                         "--strategies", ALL_STRATEGIES, "--seeds", "1,2",
                         "--out", str(tmp_path / "cmp")]) == 0
        finally:
            gc.enable()
        assert len(runs) == 10

    def test_strict_fails_without_ground_truth(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(tiny_scenario),
                     "--strategies", "UNI", "--seeds", "1", "--strict",
                     "--out", str(out)])
        assert code == 1
        assert "warning" in capsys.readouterr().err

    def test_non_strict_warns_only(self, tiny_scenario, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(tiny_scenario),
                     "--strategies", "UNI", "--seeds", "1",
                     "--out", str(out)]) == 0


# A release row as save_run writes it, and run.json texts that hold rows.
_RELEASE = ('{"cycle_index": 0, "released_at": 1.5, "size": 3, "length": 1.5,'
            ' "reason": "criteria", "confidence": 0.9}')
# The format version and the counts of the synthetic UNI_s1 run.
_HEAD = '"format_version": 1, "event_count": 182, "trace_count": 3'


def _releases(*rows):
    return f'{{{_HEAD}, "strategy": "UNI", "seed": 1, "releases": [{", ".join(rows)}]}}'


def _row(field):
    """``_RELEASE`` with ``field`` in place of its own value: a key's last
    occurrence in a JSON object wins."""
    return f"{_RELEASE[:-1]}, {field}}}"


class TestReport:
    def test_regenerates_identical_summary(self, tiny_scenario, tmp_path):
        out = tmp_path / "cmp"
        main(["compare", "--scenario", str(tiny_scenario),
              "--strategies", "NOM,FUM,UNI", "--seeds", "1,2", "--out", str(out)])
        regen = tmp_path / "regen"
        assert main(["report", "--in", str(out / "runs"), "--out", str(regen)]) == 0
        assert (regen / "summary.csv").read_bytes() == (
            out / "report" / "summary.csv"
        ).read_bytes()

    def test_reproduces_every_compare_report_file_from_disk(self, tiny_scenario, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(tiny_scenario),
                     "--strategies", ALL_STRATEGIES, "--seeds", "1,2",
                     "--out", str(out)]) == 0
        regen = tmp_path / "regen"
        assert main(["report", "--in", str(out / "runs"), "--out", str(regen)]) == 0
        report = _tree_bytes(out / "report")
        assert "cycles.csv" in report and len(report) == 3 + 5 * 2
        assert _tree_bytes(regen) == report

    def test_synthetic_runs(self, tmp_path):
        runs_dir = tmp_path / "runs"
        for run in _comparison_runs():
            save_run(run, runs_dir / f"{run.strategy.value}_s{run.seed}")
        out = tmp_path / "report"
        assert main(["report", "--in", str(runs_dir), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_two_copies_of_a_run_rejected(self, tmp_path, capsys):
        for copy in ("a", "b"):
            for run in _comparison_runs():
                save_run(run, tmp_path / copy / f"{run.strategy.value}_s{run.seed}")
        assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "r")]) == 2
        assert "two runs of" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("name, row, message", [
        ("traces.txt", "0,/owners,12", "not enough values to unpack"),
        ("traces.txt", "0,/owners,12,nan,1.0", "response_time must be finite"),
        ("traces.txt", "0,/owners,12.5,3.0,1.0", "invalid literal for int()"),
        ("traces.txt", "-1,/owners,12,3.0,1.0", "cycle_index must be >= 0, got -1"),
        ("traces.txt", "9223372036854775808,/owners,12,3.0,1.0",
         "cycle_index and start must fit in 64 bits"),
        ("traces.txt", "0,/owners,-9223372036854775809,3.0,1.0",
         "cycle_index and start must fit in 64 bits"),
        ("series.csv", "2,4,90,0.5", "int() argument must be"),
        ("series.csv", "2,4,90,half,1", "could not convert string to float"),
        ("series.csv", "2,4,90,nan,1", "sampling_rate must lie in [0, 1], got nan"),
        ("series.csv", "2,4,90,inf,1", "sampling_rate must lie in [0, 1], got inf"),
        ("series.csv", "2,4,90,1.5,1", "sampling_rate must lie in [0, 1], got 1.5"),
        ("series.csv", "2,4,90,-0.1,1", "sampling_rate must lie in [0, 1], got -0.1"),
        ("series.csv", "2,4,90,0.5,7", "monitoring_enabled must be 0 or 1, got 7"),
        ("series.csv", "-1,4,90,0.5,1", "second must be >= 0, got -1"),
        ("series.csv", "2,4,-90,0.5,1", "throughput must be >= 0, got -90"),
        ("series.csv", "2,0,90,0.5,1", "users must be >= 1, got 0"),
        ("series.csv", "2,4,90,0.5,1,9", "expected 5 fields, got 6"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, capsys, name, row, message):
        runs_dir = tmp_path / "runs"
        for run in _comparison_runs():
            save_run(run, runs_dir / f"{run.strategy.value}_s{run.seed}")
        path = runs_dir / "UNI_s1" / name
        lines = path.read_bytes().splitlines(keepends=True)
        # The row replaces the file's second line.
        path.write_bytes(lines[0] + row.encode() + b"\r\n" + b"".join(lines[2:]))
        assert main(["report", "--in", str(runs_dir), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: ")
        assert f"UNI_s1/{name}:2: " in err and message in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("header", [
        "sec,users,throughput,sampling_rate,monitoring_enabled",
        "second,users,throughput,sampling_rate",
    ])
    def test_bad_series_header_names_file_and_line(self, tmp_path, capsys, header):
        runs_dir = tmp_path / "runs"
        for run in _comparison_runs():
            save_run(run, runs_dir / f"{run.strategy.value}_s{run.seed}")
        path = runs_dir / "UNI_s1" / "series.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(header.encode() + b"\r\n" + b"".join(lines[1:]))
        assert main(["report", "--in", str(runs_dir), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}:1: the header must be"
            f" second,users,throughput,sampling_rate,monitoring_enabled, got {header!r}")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text, message", [
        ("{", "Expecting property name enclosed in double quotes"),
        ("[]", "expected a JSON object"),
        ("{}", "format_version must be 1, got None"),
        (_releases().replace('"format_version": 1', '"format_version": 2'),
         "format_version must be 1, got 2"),
        (_releases().replace('"format_version": 1', '"format_version": true'),
         "format_version must be 1, got True"),
        (f"{{{_HEAD}}}", "strategy must be one of ADP, INV, UNI, FUM, NOM, got None"),
        (f'{{{_HEAD}, "strategy": "XYZ", "seed": 1}}',
         "strategy must be one of ADP, INV, UNI, FUM, NOM, got 'XYZ'"),
        (f'{{{_HEAD}, "strategy": "UNI"}}', "seed must be an integer, got None"),
        (f'{{{_HEAD}, "strategy": "UNI", "seed": "1"}}', "seed must be an integer, got '1'"),
        (f'{{{_HEAD}, "strategy": "UNI", "seed": 1}}', "releases must be a list, got None"),
        (f'{{{_HEAD}, "strategy": "UNI", "seed": 1, "releases": {{}}}}',
         "releases must be a list, got {}"),
        (_releases("7"), "releases[0] must be an object, got 7"),
        (_releases("{}"), "releases[0].cycle_index must be an integer >= 0, got None"),
        (_releases(_RELEASE, _row('"size": 2.0')),
         "releases[1].size must be an integer >= 0, got 2.0"),
        (_releases(_row('"cycle_index": true')),
         "releases[0].cycle_index must be an integer >= 0, got True"),
        (_releases(_row('"size": -1')), "releases[0].size must be an integer >= 0, got -1"),
        (_releases(_row('"released_at": NaN')),
         "releases[0].released_at must be a finite number, got nan"),
        (_releases(_row('"length": "1.5"')),
         "releases[0].length must be a finite number, got '1.5'"),
        (_releases(_row('"length": 1' + "0" * 400)),
         "releases[0].length must be a finite number, got 1000"),
        (_releases(_row('"confidence": Infinity')),
         "releases[0].confidence must be a finite number, got inf"),
        (_releases(_row('"reason": "gave-up"')),
         "releases[0].reason must be criteria or timeout, got 'gave-up'"),
    ])
    def test_bad_run_json_names_the_file(self, tmp_path, capsys, text, message):
        runs_dir = tmp_path / "runs"
        for run in _comparison_runs():
            save_run(run, runs_dir / f"{run.strategy.value}_s{run.seed}")
        path = runs_dir / "UNI_s1" / "run.json"
        path.write_text(text)
        assert main(["report", "--in", str(runs_dir), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("name, keep, message", [
        ("traces.txt", 1, "trace_count must equal the rows of traces.txt, 1, got 3"),
        ("series.csv", 2, "event_count must equal series.csv's throughput, 90, got 182"),
    ])
    def test_file_cut_short_is_refused(self, tmp_path, capsys, name, keep, message):
        # Cut at a line boundary, the file still parses; run.json's counts tell.
        runs_dir = tmp_path / "runs"
        for run in _comparison_runs():
            save_run(run, runs_dir / f"{run.strategy.value}_s{run.seed}")
        path = runs_dir / "UNI_s1" / name
        path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:keep]))
        assert main(["report", "--in", str(runs_dir), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {path.parent / 'run.json'}: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_empty_input_dir(self, tmp_path):
        (tmp_path / "runs").mkdir()
        assert main(["report", "--in", str(tmp_path / "runs"),
                     "--out", str(tmp_path / "r")]) == 2


class TestNonFiniteNumbers:
    """NaN is rejected everywhere, infinity everywhere but ``trace_io_capacity``."""

    def _validate(self, tmp_path, raw):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))  # writes NaN / Infinity / -Infinity literals
        return main(["validate", "--scenario", str(path)])

    @pytest.mark.parametrize("key,value", [("weight", math.nan), ("base_rt", math.inf)])
    def test_type_key(self, tmp_path, capsys, key, value):
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["model"]["types"][1][key] = value
        assert self._validate(tmp_path, raw) == 2
        assert f"model.types[1]: {key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("contention_gamma", math.nan),
                                           ("capacity_users", math.inf),
                                           ("trace_io_capacity", math.nan)])
    def test_model_key(self, tmp_path, capsys, key, value):
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["model"][key] = value
        assert self._validate(tmp_path, raw) == 2
        assert f"model: {key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("duration", math.inf), ("at", math.nan)])
    def test_segment_key(self, tmp_path, capsys, key, value):
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["workload"][1][key] = value
        assert self._validate(tmp_path, raw) == 2
        assert f"workload[1]: {key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("epsilon", math.nan, "must be finite, got nan"),
        ("max_cycle_length", math.inf, "must be finite, got inf"),
        ("history_capacity", math.nan, "must be an integer, got nan")])
    def test_sampler_key(self, tmp_path, capsys, key, value, message):
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["sampler"][key] = value
        assert self._validate(tmp_path, raw) == 2
        assert f"sampler: {key} {message}" in capsys.readouterr().err

    def test_infinite_trace_io_capacity_round_trips(self, tmp_path):
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["model"]["trace_io_capacity"] = math.inf
        assert self._validate(tmp_path, raw) == 0
        scenario = parse_scenario(raw)
        assert scenario.model.trace_io_capacity == math.inf
        text = json.dumps(scenario_to_dict(scenario))
        assert '"trace_io_capacity": Infinity' in text
        assert parse_scenario(json.loads(text)) == scenario


class TestIntegerAndBooleanKeys:
    """Numeric keys take only JSON numbers, integer keys no fractional number;
    ``type_id`` only a string, every container its JSON kind, and no section
    a key it lacks: the top level not even a run setting the flags take."""

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["sampler"].update(history_capacity=2.5),
         "sampler: history_capacity must be an integer, got 2.5"),
        (lambda raw: raw["workload"][0].update(users=8.9),
         "workload[0]: users must be an integer, got 8.9"),
        (lambda raw: raw["workload"][1].update(peak_users=True),
         "workload[1].peak_users: must be an integer, got True"),
        (lambda raw: raw["workload"][0].update(users="8"),
         "workload[0].users: must be an integer, got '8'"),
        (lambda raw: raw["workload"][0].update(duration=True),
         "workload[0].duration: must be a number, got True"),
        (lambda raw: raw["model"]["types"][0].update(weight=True),
         "model.types[0].weight: must be a number, got True"),
        (lambda raw: raw["model"].update(capacity_users="16"),
         "model.capacity_users: must be a number, got '16'"),
        (lambda raw: raw["sampler"].update(baseline_duration=True),
         "sampler.baseline_duration: must be a number, got True"),
        (lambda raw: raw["sampler"].update(max_rate=True),
         "sampler.max_rate: must be a number, got True"),
        (lambda raw: raw["model"]["types"][0].update(type_id=5),
         "model.types[0].type_id: must be a string, got 5"),
        (lambda raw: raw.update(workload=[5]), "workload[0]: must be an object, got 5"),
        (lambda raw: raw["model"].update(types=5), "model.types: must be a list, got 5"),
        (lambda raw: raw.update(workload={"a": 1}),
         "workload: must be a list, got {'a': 1}"),
        (lambda raw: raw.update(model=[1]), "model: must be an object, got [1]"),
        (lambda raw: raw["model"].update(trace_contension=99.0),
         "model.trace_contension: unknown key"),
        (lambda raw: raw["model"]["types"][1].update(owner="ops"),
         "model.types[1].owner: unknown key"),
        (lambda raw: raw["workload"][1].update(users=4),
         "workload[1].users: unknown key"),
        (lambda raw: raw.update(seeed=3), "seeed: unknown key"),
        (lambda raw: raw["sampler"].update(max_rat=0.4), "sampler.max_rat: unknown key"),
        (lambda raw: raw.update(strategy="ADP"), "strategy: unknown key"),
        (lambda raw: raw.update(seed=1), "seed: unknown key"),
        (lambda raw: raw.update(seeds=[1, 2]), "seeds: unknown key"),
        (lambda raw: raw.update(out="out"), "out: unknown key"),
        (lambda raw: raw.update(strict=True), "strict: unknown key"),
        (lambda raw: raw["workload"][0].update(kind=["x"]),
         "workload[0]: unknown segment kind ['x']"),
        (lambda raw: raw["workload"][0].update(kind={}), "workload[0]: unknown segment kind {}"),
        (lambda raw: raw["model"]["types"][0].pop("weight"),
         "model.types[0]: missing key 'weight'"),
        (lambda raw: raw["model"].pop("capacity_users"), "model: missing key 'capacity_users'"),
        (lambda raw: raw["workload"][0].pop("users"), "workload[0]: missing key 'users'"),
        (lambda raw: raw["workload"][0].update(duration=10 ** 400),
         f"workload[0]: duration must be finite, got {10 ** 400}"),
        (lambda raw: raw["workload"][0].update(duration=1e300),
         "workload: workload must last less than 9223372036854776 s, so that each start"
         " fits in 64 bits (at most 9223372036854775807 ms), got 1e+300 s"),
    ], ids=["history_capacity", "users", "bool_users", "string_users", "bool_duration",
            "bool_weight", "string_capacity", "bool_baseline_duration", "bool_max_rate",
            "int_type_id", "number_segment", "number_types", "object_workload",
            "list_model", "unknown_model_key", "unknown_type_key", "unknown_segment_key",
            "unknown_top_level_key", "unknown_sampler_key", "strategy_key", "seed_key",
            "seeds_key", "out_key", "strict_key", "list_kind",
            "object_kind", "missing_type_weight", "missing_model_capacity",
            "missing_segment_users", "huge_integer_duration", "schedule_too_long_to_store"])
    def test_rejected_with_key_path(self, tmp_path, capsys, edit, message):
        raw = json.loads(json.dumps(TINY_SCENARIO))
        edit(raw)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 2
        # The whole message, so a key path printed twice fails too.
        assert capsys.readouterr().err == f"error: {path}.{message}\n"
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--strategy", "ADP",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_integral_numbers_accepted(self, tmp_path):
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["workload"][0]["users"] = 4.0
        raw["sampler"]["history_capacity"] = 60.0
        scenario = parse_scenario(raw)
        assert scenario.workload.segments[0].users == 4
        assert scenario.sampler.history_capacity == 60
        assert type(scenario.sampler.history_capacity) is int


class TestScenarioRoundTrip:
    def test_default_scenario_serializes(self, tmp_path):
        scenario = default_scenario()
        raw = scenario_to_dict(scenario)
        path = tmp_path / "default.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 0
