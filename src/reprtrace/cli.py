"""Command-line entry point.

Subcommands: ``validate`` checks a scenario without running it, ``run``
executes one simulation, ``compare`` runs a strategies-by-seeds matrix and
writes the comparison report, ``report`` regenerates the report from
stored run artifacts.  A scenario file holds the experiment (model,
workload, sampler); the flags alone choose what runs and where it goes,
with their defaults set on the parser, and the effective configuration is
echoed into the output directory.  ``REPRTRACE_THREADS`` caps parallel
jobs in ``compare``.  A job runs a group of strategies on one
seed through ``run_matrix``, so the seed's offered stream is generated at
most once per job, and not again by a process's next job on the same seed;
serial or parallel, each run is saved and reduced by the job that
ran it, and only the reductions reach the report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable, Optional

from .errors import ScenarioError
from .report import (ComparisonReport, RunSummary, load_run, save_run, summarize_run,
                     write_report)
from .scenario import Scenario, default_scenario, load_scenario, parse_scenario, scenario_to_dict
from .simulator import run_matrix, run_scenario
from .strategies import StrategyKind

_ALL_STRATEGIES = [k.value for k in StrategyKind]


def _unique(values: list, what: str, where: str) -> list:
    """``values`` unchanged; ScenarioError names the first repeated one."""
    seen = set()
    for value in values:
        if value in seen:
            raise ScenarioError(f"{where}: duplicate {what} {value}")
        seen.add(value)
    return values


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        # A range splits at its first "-" after the first character, so
        # "-3-5" runs from -3 to 5 and "-3" is one seed.
        dash = part.find("-", 1)
        try:
            if dash < 0:
                lo = hi = int(part)
            else:
                lo, hi = int(part[:dash]), int(part[dash + 1:])
        except ValueError:
            raise ScenarioError(f"--seeds: {part!r} is not an integer or a range") from None
        if hi < lo:
            raise ScenarioError(f"--seeds: range {part!r} runs backwards")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ScenarioError(f"--seeds: no seeds in {text!r}")
    return _unique(seeds, "seed", "--seeds")


def _load(scenario_path: Optional[str]) -> Scenario:
    if scenario_path is None:
        return default_scenario()
    return load_scenario(scenario_path)


def _echo_config(out_dir: Path, scenario: Scenario, extra: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"scenario": scenario_to_dict(scenario), **extra}
    (out_dir / "effective_config.json").write_text(json.dumps(payload, indent=2) + "\n")


def _run_dir(out_dir: Path, strategy: str, seed: int) -> Path:
    return out_dir / "runs" / f"{strategy}_s{seed}"


def _compare_groups(strategies: list[str], seeds: list[int],
                    workers: int) -> list[tuple[int, list[str]]]:
    """The (seed, strategies) of each compare job.

    One job per seed; with fewer seeds than workers, each seed's strategies
    are dealt round-robin into ceil(workers / seeds) groups, so the workers
    stay busy while each job still generates its stream only once.
    """
    groups = min(len(strategies), -(-workers // len(seeds)))
    return [(seed, strategies[g::groups]) for seed in seeds for g in range(groups)]


def _compare_job(payload: tuple[dict, int, list[str], str]) -> list[RunSummary]:
    """One job of a compare matrix: run a group of strategies on one seed,
    save each run's artifacts, and return the reductions the report needs.
    Runs in a pool worker or in process."""
    raw, seed, strategies, out_dir = payload
    scenario = parse_scenario(raw, source="scenario")
    summaries = []
    for run in run_matrix(scenario.model, scenario.workload, strategies, seed,
                          scenario.sampler):
        save_run(run, _run_dir(Path(out_dir), run.strategy.value, seed))
        summaries.append(summarize_run(run))
        # Free this run before the next one is simulated.
        del run
    return summaries


def _finish(report: ComparisonReport, n_runs: int, strict: bool) -> int:
    """Print the report's warnings and where it went; under ``--strict``
    any warning (missing ground truth, a type the sample lacks) exits 1."""
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"{n_runs} runs -> {report.out_dir / 'summary.csv'}")
    if strict and report.warnings:
        print("strict mode: failing on report warnings", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    print(f"OK: {len(scenario.model.types)} request types, {scenario.workload.served_seconds}"
          f" s schedule, {len(scenario.workload.segments)} segments")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    strategy, seed, out_dir = args.strategy, args.seed, Path(args.out)
    _echo_config(out_dir, scenario,
                 {"command": "run", "strategy": strategy, "seed": seed})
    run_dir = _run_dir(out_dir, strategy, seed)
    result = run_scenario(scenario.model, scenario.workload, strategy, seed, scenario.sampler)
    save_run(result, run_dir)
    total = sum(row.throughput for row in result.seconds)
    mean_tr = total / len(result.seconds) if result.seconds else 0.0
    print(f"{strategy} seed {seed}: {total} requests ({mean_tr:.1f}/s), "
          f"{len(result.traces)} traces, {len(result.releases)} cycles -> {run_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise ScenarioError("--strategies: no strategies given")
    for strategy in strategies:
        if strategy not in _ALL_STRATEGIES:
            raise ScenarioError(f"--strategies: {strategy!r} is not one of"
                                f" {', '.join(_ALL_STRATEGIES)}")
    _unique(strategies, "strategy", "--strategies")
    seeds = _parse_seeds(args.seeds)
    threads_text = os.environ.get("REPRTRACE_THREADS", "1") or "1"
    try:
        threads = int(threads_text)
    except ValueError:
        raise ScenarioError(f"REPRTRACE_THREADS: {threads_text!r} is not an integer") from None
    if threads < 1:
        raise ScenarioError(f"REPRTRACE_THREADS: must be >= 1, got {threads}")
    out_dir = Path(args.out)
    _echo_config(out_dir, scenario,
                 {"command": "compare", "strategies": strategies, "seeds": seeds,
                  "strict": args.strict})
    raw = scenario_to_dict(scenario)
    payloads = [(raw, seed, group, str(out_dir))
                for seed, group in _compare_groups(strategies, seeds, threads)]
    threads = min(threads, len(payloads))
    summaries: Iterable[RunSummary]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            summaries = [s for job in pool.map(_compare_job, payloads) for s in job]
    else:
        summaries = (s for payload in payloads for s in _compare_job(payload))

    report = write_report(summaries, out_dir / "report")
    return _finish(report, len(strategies) * len(seeds), args.strict)


def _cmd_report(args: argparse.Namespace) -> int:
    in_dir = Path(args.in_dir)
    run_dirs = sorted(p.parent for p in in_dir.glob("**/run.json"))
    if not run_dirs:
        raise ScenarioError(f"no run artifacts (run.json) found under {in_dir}")
    runs = (load_run(d) for d in run_dirs)
    report = write_report(runs, Path(args.out))
    return _finish(report, len(run_dirs), args.strict)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprtrace",
        description="Adaptive-rate request sampling: simulation and strategy comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("--scenario", help="scenario JSON (default: built-in scenario)")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="execute one simulation")
    p_run.add_argument("--scenario", help="scenario JSON (default: built-in scenario)")
    p_run.add_argument("--strategy", choices=_ALL_STRATEGIES, required=True)
    p_run.add_argument("--seed", type=int, default=0, help="simulation seed (default: 0)")
    p_run.add_argument("--out", default="reprtrace-out",
                       help="output directory (default: reprtrace-out)")
    p_run.set_defaults(func=_cmd_run)

    p_compare = sub.add_parser("compare", help="run a strategies x seeds matrix")
    p_compare.add_argument("--scenario", help="scenario JSON (default: built-in scenario)")
    p_compare.add_argument("--strategies", default=",".join(_ALL_STRATEGIES))
    p_compare.add_argument("--seeds", default="1-10",
                           help="comma list and/or ranges, e.g. 1-10 or 1,2,5 "
                                "(default: 1-10)")
    p_compare.add_argument("--out", default="reprtrace-out",
                           help="output directory (default: reprtrace-out)")
    p_compare.add_argument("--strict", action="store_true",
                           help="nonzero exit on missing types or missing ground truth")
    p_compare.set_defaults(func=_cmd_compare)

    p_report = sub.add_parser("report", help="regenerate the report from stored runs")
    p_report.add_argument("--in", dest="in_dir", required=True)
    p_report.add_argument("--out", required=True)
    p_report.add_argument("--strict", action="store_true")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ScenarioError and ParameterError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
