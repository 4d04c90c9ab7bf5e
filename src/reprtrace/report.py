"""Metrics and report generation: TR, SR, RMSE and the comparison CSVs.

Output files (format version 1, stable field order):

* ``summary.csv`` - one row per strategy: run count, mean/sd throughput,
  throughput delta vs NOM, mean/sd sampling rate, mean/sd RMSE, RMSE
  coverage and missing request types.
* ``timeseries/<STRATEGY>_s<seed>.csv`` - per-second users, throughput,
  sampling rate and monitoring flag of each run.
* ``cycles.csv`` - one row per released monitoring cycle.
* ``distribution.csv`` - request-type shares of the collected traces,
  one percentage column per strategy with traces.

The report reads each run as a ``RunSummary``: the per-second series,
per-type memory means and trace counts, and the release rows.
``summarize_run`` reduces a run in memory; ``reprtrace compare`` calls it
in the process that simulated each run, so only these small records reach
the report.  ``load_run`` makes the same reduction from a saved run
directory: it parses ``series.csv``, tallies ``traces.txt`` and takes the
release rows from ``run.json``.

Negative memory measurements (garbage-collection artifacts) are discarded
identically from the ground truth and from every strategy's sample before
any mean is formed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import mean, stdev
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .errors import InsufficientDataError, MissingTypeError, ParameterError
from .model import RequestEvent, read_trace_file, write_trace_file
from .simulator import RunResult, SecondStats
from .strategies import StrategyKind

__all__ = [
    "REPORT_FORMAT_VERSION",
    "rmse",
    "type_memory_means",
    "throughput_stats",
    "sampling_rate_stats",
    "save_run",
    "load_run",
    "RunSummary",
    "summarize_run",
    "StrategySummary",
    "ComparisonReport",
    "write_report",
]

REPORT_FORMAT_VERSION = 1

_STRATEGY_ORDER = (
    StrategyKind.NOM,
    StrategyKind.FUM,
    StrategyKind.ADP,
    StrategyKind.INV,
    StrategyKind.UNI,
)

_SERIES_FIELDS = ("second", "users", "throughput", "sampling_rate", "monitoring_enabled")


def rmse(ground: Mapping[str, float], sampled: Mapping[str, float]) -> float:
    """Root-mean-square error between per-type mean memory values.

    Both mappings must cover the same request-type set; a type present in
    the ground truth but absent from the sample makes the error undefined
    and raises :class:`MissingTypeError` (the report layer falls back to
    the covered subset and flags the run).
    """
    ground_types = set(ground)
    sampled_types = set(sampled)
    if not ground_types:
        raise InsufficientDataError("ground truth has no request types")
    if ground_types != sampled_types:
        missing = sorted(ground_types - sampled_types)
        extra = sorted(sampled_types - ground_types)
        parts = []
        if missing:
            parts.append(f"missing from sample: {missing}")
        if extra:
            parts.append(f"absent from ground truth: {extra}")
        raise MissingTypeError("; ".join(parts))
    total = math.fsum((ground[t] - sampled[t]) ** 2 for t in ground_types)
    return math.sqrt(total / len(ground_types))


def _type_tallies(events: Iterable[RequestEvent]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-type mean memory delta (negative measurements discarded) and
    per-type event count, in one pass."""
    sums: dict[str, float] = {}
    valid: dict[str, int] = {}
    counts: dict[str, int] = {}
    for event in events:
        tid = event.type_id
        counts[tid] = counts.get(tid, 0) + 1
        if event.memory_delta < 0:
            continue
        sums[tid] = sums.get(tid, 0.0) + event.memory_delta
        valid[tid] = valid.get(tid, 0) + 1
    return {t: sums[t] / valid[t] for t in sums}, counts


def type_memory_means(events: Iterable[RequestEvent]) -> dict[str, float]:
    """Per-type mean memory delta, negative (invalid) measurements discarded."""
    return _type_tallies(events)[0]


def throughput_stats(run: "RunResult | RunSummary") -> float:
    """Mean requests per second over the run."""
    if not run.seconds:
        raise InsufficientDataError("run has no per-second series")
    return mean(row.throughput for row in run.seconds)


def sampling_rate_stats(run: "RunResult | RunSummary") -> float:
    """Mean of the per-second sampling-rate series."""
    if not run.seconds:
        raise InsufficientDataError("run has no per-second series")
    return mean(row.sampling_rate for row in run.seconds)


# --- run artifacts ---------------------------------------------------------


def _release_meta(release) -> dict:
    return {
        "cycle_index": release.cycle_index,
        "released_at": release.released_at,
        "size": release.sample_stats.total,
        "length": release.cycle_length,
        "reason": release.reason,
        "confidence": release.confidence_at_release,
    }


def _write_series(path: Path, seconds: Iterable[SecondStats]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_SERIES_FIELDS)
        for row in seconds:
            writer.writerow(
                [row.second, row.users, row.throughput,
                 repr(row.sampling_rate), int(row.monitoring_enabled)]
            )


def save_run(run: RunResult, run_dir: str | Path) -> Path:
    """Persist one run: series.csv, traces.txt and run.json metadata."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_series(run_dir / "series.csv", run.seconds)
    write_trace_file(run_dir / "traces.txt", run.traces)
    event_counts: dict[str, int] = {}
    for event in run.sampler_events:
        event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
    meta = {
        "format_version": REPORT_FORMAT_VERSION,
        "strategy": run.strategy.value,
        "seed": run.seed,
        "event_count": len(run.events),
        "trace_count": len(run.traces),
        "releases": [_release_meta(rel) for rel in run.releases],
        "sampler_events": event_counts,
        "sampler": asdict(run.config),
    }
    (run_dir / "run.json").write_text(json.dumps(meta, indent=2) + "\n")
    return run_dir


class RunSummary(NamedTuple):
    """The part of one run that the report reads; small enough to pickle cheaply.

    ``memory_means`` are the per-type mean memory deltas of the traces
    (negative measurements discarded), ``type_counts`` the number of
    traces per type, and ``release_meta`` one ``run.json`` release entry
    per released cycle.
    """

    strategy: StrategyKind
    seed: int
    seconds: list[SecondStats]
    memory_means: dict[str, float]
    type_counts: dict[str, int]
    release_meta: list[dict]


def load_run(run_dir: str | Path) -> RunSummary:
    """Reduce a run saved by ``save_run`` to what ``write_report`` needs."""
    run_dir = Path(run_dir)
    meta = json.loads((run_dir / "run.json").read_text())
    seconds: list[SecondStats] = []
    with open(run_dir / "series.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            seconds.append(
                SecondStats(
                    second=int(row["second"]),
                    users=int(row["users"]),
                    throughput=int(row["throughput"]),
                    sampling_rate=float(row["sampling_rate"]),
                    monitoring_enabled=bool(int(row["monitoring_enabled"])),
                )
            )
    traces = read_trace_file(run_dir / "traces.txt")
    memory_means, type_counts = _type_tallies(t.event for t in traces)
    return RunSummary(
        strategy=StrategyKind(meta["strategy"]),
        seed=int(meta["seed"]),
        seconds=seconds,
        memory_means=memory_means,
        type_counts=type_counts,
        release_meta=meta.get("releases", []),
    )


def summarize_run(run: Union[RunResult, RunSummary]) -> RunSummary:
    """Reduce a run to what ``write_report`` needs, in one pass over its traces."""
    if isinstance(run, RunSummary):
        return run
    memory_means, type_counts = _type_tallies(t.event for t in run.traces)
    return RunSummary(
        strategy=run.strategy,
        seed=run.seed,
        seconds=run.seconds,
        memory_means=memory_means,
        type_counts=type_counts,
        release_meta=[_release_meta(rel) for rel in run.releases],
    )


# --- comparison report ------------------------------------------------------


@dataclass
class StrategySummary:
    strategy: StrategyKind
    n_runs: int
    throughput_mean: float
    throughput_sd: float
    throughput_delta_pct: Optional[float]
    sampling_rate_mean: float
    sampling_rate_sd: float
    rmse_mean: Optional[float]
    rmse_sd: Optional[float]
    rmse_coverage: Optional[float]
    missing_types: list[str] = field(default_factory=list)


@dataclass
class ComparisonReport:
    out_dir: Path
    rows: list[StrategySummary]
    distribution: dict[str, dict[str, float]]
    rmse_by_run: dict[tuple[str, int], float]
    warnings: list[str]
    strict_failures: list[str]


def _sd(values: list[float]) -> float:
    return stdev(values) if len(values) >= 2 else 0.0


def write_report(
    runs: Iterable[Union[RunResult, RunSummary]],
    out_dir: str | Path,
    strict: bool = False,
) -> ComparisonReport:
    """Aggregate runs into the comparison CSVs under ``out_dir``.

    Consumes ``runs`` one at a time and reduces each with
    ``summarize_run``, so a generator keeps peak memory at a single run.
    Each (strategy, seed) may appear once; a second run of it raises
    ``ParameterError``.
    RMSE is computed per seed against the FUM run of the same seed;
    without FUM ground truth the RMSE columns are omitted with a warning.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    series_dir = out_dir / "timeseries"
    series_dir.mkdir(exist_ok=True)

    per_strategy: dict[StrategyKind, list[tuple[int, float, float]]] = {}
    mem_means: dict[tuple[StrategyKind, int], dict[str, float]] = {}
    dist_counts: dict[StrategyKind, dict[str, int]] = {}
    cycle_rows: list[list] = []
    warnings: list[str] = []

    for run in runs:
        summary = summarize_run(run)
        kind, seed = summary.strategy, summary.seed
        if (kind, seed) in mem_means:
            raise ParameterError(f"two runs of {kind.value} seed {seed}")
        tr = throughput_stats(summary)
        sr = sampling_rate_stats(summary)
        per_strategy.setdefault(kind, []).append((seed, tr, sr))
        mem_means[(kind, seed)] = summary.memory_means
        counts = dist_counts.setdefault(kind, {})
        for tid, n in summary.type_counts.items():
            counts[tid] = counts.get(tid, 0) + n
        for rel in summary.release_meta:
            cycle_rows.append(
                [kind.value, seed, rel["cycle_index"], repr(float(rel["released_at"])),
                 rel["size"], repr(float(rel["length"])), rel["reason"],
                 repr(float(rel["confidence"]))]
            )
        _write_series(series_dir / f"{kind.value}_s{seed}.csv", summary.seconds)

    if not per_strategy:
        raise InsufficientDataError("no runs to report on")

    # RMSE per run against the same-seed FUM ground truth.
    rmse_by_run: dict[tuple[str, int], float] = {}
    coverage_by_run: dict[tuple[str, int], float] = {}
    missing_by_strategy: dict[StrategyKind, set[str]] = {}
    strict_failures: list[str] = []
    fum_seeds = {seed for (kind, seed) in mem_means if kind is StrategyKind.FUM}
    for kind, entries in sorted(per_strategy.items(), key=lambda kv: kv[0].value):
        if kind in (StrategyKind.FUM, StrategyKind.NOM):
            continue
        for seed, _tr, _sr in entries:
            if seed not in fum_seeds:
                msg = f"no FUM ground truth for seed {seed}; RMSE omitted for {kind.value}"
                warnings.append(msg)
                strict_failures.append(msg)
                continue
            ground = mem_means[(StrategyKind.FUM, seed)]
            sampled = mem_means[(kind, seed)]
            try:
                value = rmse(ground, sampled)
                coverage = 1.0
            except MissingTypeError:
                covered = sorted(set(ground) & set(sampled))
                missing = sorted(set(ground) - set(sampled))
                missing_by_strategy.setdefault(kind, set()).update(missing)
                msg = (
                    f"{kind.value} seed {seed}: no valid samples for {missing}; "
                    f"RMSE computed over {len(covered)}/{len(ground)} types"
                )
                warnings.append(msg)
                strict_failures.append(msg)
                if not covered:
                    continue
                value = rmse(
                    {t: ground[t] for t in covered}, {t: sampled[t] for t in covered}
                )
                coverage = len(covered) / len(ground)
            rmse_by_run[(kind.value, seed)] = value
            coverage_by_run[(kind.value, seed)] = coverage

    nom_entries = per_strategy.get(StrategyKind.NOM)
    nom_tr = mean(tr for _s, tr, _r in nom_entries) if nom_entries else None

    rows: list[StrategySummary] = []
    for kind in _STRATEGY_ORDER:
        entries = per_strategy.get(kind)
        if not entries:
            continue
        entries.sort()
        trs = [tr for _s, tr, _r in entries]
        srs = [sr for _s, _t, sr in entries]
        rmses = [rmse_by_run[(kind.value, seed)] for seed, _t, _r in entries
                 if (kind.value, seed) in rmse_by_run]
        coverages = [coverage_by_run[(kind.value, seed)] for seed, _t, _r in entries
                     if (kind.value, seed) in coverage_by_run]
        delta = None
        if nom_tr and kind is not StrategyKind.NOM:
            delta = (mean(trs) - nom_tr) / nom_tr * 100.0
        rows.append(
            StrategySummary(
                strategy=kind,
                n_runs=len(entries),
                throughput_mean=mean(trs),
                throughput_sd=_sd(trs),
                throughput_delta_pct=delta,
                sampling_rate_mean=mean(srs),
                sampling_rate_sd=_sd(srs),
                rmse_mean=mean(rmses) if rmses else None,
                rmse_sd=_sd(rmses) if rmses else None,
                rmse_coverage=mean(coverages) if coverages else None,
                missing_types=sorted(missing_by_strategy.get(kind, ())),
            )
        )

    with open(out_dir / "summary.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["strategy", "n_runs", "throughput_mean", "throughput_sd",
             "throughput_delta_vs_nom_pct", "sampling_rate_mean", "sampling_rate_sd",
             "rmse_mean", "rmse_sd", "rmse_coverage", "missing_types"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.strategy.value,
                    row.n_runs,
                    f"{row.throughput_mean:.4f}",
                    f"{row.throughput_sd:.4f}",
                    "" if row.throughput_delta_pct is None else f"{row.throughput_delta_pct:.2f}",
                    f"{row.sampling_rate_mean:.6f}",
                    f"{row.sampling_rate_sd:.6f}",
                    "" if row.rmse_mean is None else f"{row.rmse_mean:.4f}",
                    "" if row.rmse_sd is None else f"{row.rmse_sd:.4f}",
                    "" if row.rmse_coverage is None else f"{row.rmse_coverage:.4f}",
                    ";".join(row.missing_types),
                ]
            )

    with open(out_dir / "cycles.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["strategy", "seed", "cycle_index", "released_at", "size",
             "length", "reason", "confidence"]
        )
        cycle_rows.sort(key=lambda r: (r[0], r[1], r[2]))
        writer.writerows(cycle_rows)

    distribution: dict[str, dict[str, float]] = {}
    traced_kinds = [k for k in _STRATEGY_ORDER if dist_counts.get(k)]
    all_types = sorted({t for counts in dist_counts.values() for t in counts})
    for tid in all_types:
        distribution[tid] = {}
        for kind in traced_kinds:
            counts = dist_counts[kind]
            total = sum(counts.values())
            distribution[tid][kind.value] = counts.get(tid, 0) / total * 100.0
    with open(out_dir / "distribution.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["request_type"] + [f"{k.value}_pct" for k in traced_kinds])
        for tid in all_types:
            writer.writerow(
                [tid] + [f"{distribution[tid][k.value]:.6f}" for k in traced_kinds]
            )

    return ComparisonReport(
        out_dir=out_dir,
        rows=rows,
        distribution=distribution,
        rmse_by_run=rmse_by_run,
        warnings=warnings,
        strict_failures=strict_failures,
    )
