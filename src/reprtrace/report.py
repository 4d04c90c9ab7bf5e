"""Run files, metrics and report generation: TR, SR, RMSE and the comparison CSVs.

Report files (format version 1, stable field order):

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
``summarize_run`` reduces a run in memory, straight from a simulated run's
trace columns; ``reprtrace compare`` calls it in the process that simulated
each run, so only these small records reach the report.  ``load_run``
makes the same reduction from the run directory ``save_run`` wrote, whose
three files only this module reads and writes: it parses ``series.csv``,
reads ``traces.txt`` (one CSV line per trace) into columns and tallies them
as ``summarize_run`` does, and takes the checked release rows from
``run.json``.

``write_report`` reads every run before it writes: a duplicate run, an
empty series, an empty FUM ground truth or no runs at all raise with no
file written.  Each run's RMSE is taken once, against the FUM run of the
same seed, over the request types both hold.

Negative memory measurements (garbage-collection artifacts) are discarded
identically from the ground truth and from every strategy's sample before
any mean is formed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from math import inf
from pathlib import Path
from statistics import mean, stdev
from sys import float_info
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .errors import InsufficientDataError, MissingTypeError, ParameterError
from .model import RELEASE_CRITERIA, RELEASE_TIMEOUT, RequestEvent, TraceColumns, _as_dict
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
    "write_trace_file",
    "read_trace_file",
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

    Both mappings must cover the same, non-empty request-type set: an
    empty ground truth raises :class:`InsufficientDataError`, and a type
    held by one mapping but not the other raises :class:`MissingTypeError`.
    ``write_report`` passes only the types the sample shares with its
    ground truth, and reports the ones the sample lacks as lower coverage.
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


def _trace_tallies(traces: TraceColumns) -> tuple[dict[str, float], dict[str, int]]:
    """Per-type mean memory (negative measurements discarded) and per-type
    trace count, in one pass over the type and memory columns, the only
    ones read: a ``RunSummary``'s ``memory_means`` and ``type_counts``."""
    type_ids = traces.type_ids
    sums = [0.0] * len(type_ids)
    valid = [0] * len(type_ids)
    counts = [0] * len(type_ids)
    for idx, memory in zip(traces.types, traces.memories):
        counts[idx] += 1
        if memory < 0:
            continue
        sums[idx] += memory
        valid[idx] += 1
    return ({tid: sums[i] / valid[i] for i, tid in enumerate(type_ids) if valid[i]},
            {tid: counts[i] for i, tid in enumerate(type_ids) if counts[i]})


def type_memory_means(events: Iterable[RequestEvent]) -> dict[str, float]:
    """Per-type mean memory delta, negative (invalid) measurements discarded:
    the ``memory_means`` of traces whose type and memory columns hold ``events``."""
    traces, index = TraceColumns([]), {}
    for event in events:
        traces.types.append(index.setdefault(event.type_id, len(index)))
        traces.memories.append(event.memory_delta)
    traces.type_ids.extend(index)
    return _trace_tallies(traces)[0]


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


def _csv_text(header: Iterable, rows: Iterable[Iterable]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _write_csv(path: Path, header: Iterable, rows: Iterable[Iterable]) -> None:
    path.write_text(_csv_text(header, rows), newline="")


def _series_csv(seconds: Iterable[SecondStats]) -> str:
    """A run's per-second series as the CSV text of ``series.csv`` and of
    the report's ``timeseries/`` file."""
    return _csv_text(
        _SERIES_FIELDS,
        ([row.second, row.users, row.throughput, repr(row.sampling_rate),
          int(row.monitoring_enabled)] for row in seconds),
    )


def write_trace_file(path: str | Path, traces: TraceColumns) -> None:
    """Write traces as line-delimited text, one trace per line: ``traces.txt``.

    Field order: cycle_index, type_id, start, response_time, memory_delta.
    The bytes are those of ``csv.writer`` with the floats as ``repr``: only
    the type id can need quoting, so each one is quoted once by the csv
    module and the lines are formatted directly from the columns.
    """
    quoted: dict[str, str] = {}
    with open(path, "w", newline="") as handle:
        write = handle.write
        for cycle_index, type_id, start, response_time, memory_delta in traces.rows():
            type_q = quoted.get(type_id)
            if type_q is None:
                type_q = quoted[type_id] = _csv_text((type_id,), ())[:-2]
            write(f"{cycle_index},{type_q},{start},{response_time!r},{memory_delta!r}\r\n")


def read_trace_file(path: str | Path) -> TraceColumns:
    """Read the traces ``write_trace_file`` wrote into columns, in file order,
    with type indices numbered in order of first appearance.

    Every row is checked by the rules of ``RequestEvent`` and
    ``TraceRecord``, and a cycle index or start must fit in 64 bits.  A
    malformed row raises ``ValueError`` starting with ``<path>:<line>:``.
    """
    traces = TraceColumns([])
    index: dict[str, int] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row:
                continue
            try:
                cycle_index, type_id, start, response_time, memory_delta = row
                start = int(start)
                response_time = float(response_time)
                memory_delta = float(memory_delta)
                # RequestEvent's rule; building one raises its error.
                if not (type_id and 0.0 <= response_time < inf and -inf < memory_delta < inf):
                    RequestEvent(type_id, start, response_time, memory_delta)
                cycle_index = int(cycle_index)
                if cycle_index < 0:
                    raise ValueError(f"cycle_index must be >= 0, got {cycle_index}")
                traces.starts.append(start)
                traces.cycles.append(cycle_index)
                traces.types.append(index.setdefault(type_id, len(index)))
                traces.response_times.append(response_time)
                traces.memories.append(memory_delta)
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
            except OverflowError as exc:
                raise ValueError(f"{path}:{reader.line_num}: cycle_index and start must"
                                 f" fit in 64 bits, got {cycle_index} and {start}") from exc
    traces.type_ids.extend(index)
    return traces


def save_run(run: RunResult, run_dir: str | Path) -> Path:
    """Persist one run: series.csv, traces.txt and run.json metadata."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "series.csv").write_text(_series_csv(run.seconds), newline="")
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
        "sampler": _as_dict(run.config),
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


def _check_releases(meta_path: Path, releases) -> list[dict]:
    """``run.json``'s release rows, each checked to hold what ``_release_meta``
    writes."""
    if not isinstance(releases, list):
        raise ValueError(f"{meta_path}: releases must be a list, got {releases!r}")
    for i, row in enumerate(releases):
        where = f"{meta_path}: releases[{i}]"
        if not isinstance(row, dict):
            raise ValueError(f"{where} must be an object, got {row!r}")
        for key in ("cycle_index", "size"):
            if not (type(row.get(key)) is int and row[key] >= 0):
                raise ValueError(f"{where}.{key} must be an integer >= 0, got {row.get(key)!r}")
        for key in ("released_at", "length", "confidence"):
            # Bounding by the largest float rejects NaN, the infinities and an
            # integer too large to become a float.
            if not (type(row.get(key)) in (int, float) and abs(row[key]) <= float_info.max):
                raise ValueError(f"{where}.{key} must be a finite number, got {row.get(key)!r}")
        if row.get("reason") not in (RELEASE_CRITERIA, RELEASE_TIMEOUT):
            raise ValueError(f"{where}.reason must be {RELEASE_CRITERIA} or {RELEASE_TIMEOUT},"
                             f" got {row.get('reason')!r}")
    return releases


def load_run(run_dir: str | Path) -> RunSummary:
    """Reduce a run saved by ``save_run`` to what ``write_report`` needs.

    A file that holds no such run raises ``ValueError`` starting with its
    path, and with the line number in ``series.csv`` or ``traces.txt``; a
    ``series.csv`` row must hold the header's five fields: a second and a
    throughput >= 0, users >= 1, a sampling rate in [0, 1] and a monitoring
    flag of 0 or 1.
    """
    run_dir = Path(run_dir)
    meta_path = run_dir / "run.json"
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object")
    kinds = [kind.value for kind in StrategyKind]
    strategy, seed = meta.get("strategy"), meta.get("seed")
    if strategy not in kinds:
        raise ValueError(f"{meta_path}: strategy must be one of {', '.join(kinds)},"
                         f" got {strategy!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"{meta_path}: seed must be an integer, got {seed!r}")
    releases = _check_releases(meta_path, meta.get("releases"))
    seconds: list[SecondStats] = []
    series_path = run_dir / "series.csv"
    with open(series_path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = tuple(reader.fieldnames or ())
        if header != _SERIES_FIELDS:
            raise ValueError(f"{series_path}:1: the header must be {','.join(_SERIES_FIELDS)},"
                             f" got {','.join(header)!r}")
        for row in reader:
            try:
                if None in row:
                    raise ValueError(f"expected {len(_SERIES_FIELDS)} fields, got"
                                     f" {len(_SERIES_FIELDS) + len(row[None])}")
                second, users, throughput = (int(row[key]) for key in _SERIES_FIELDS[:3])
                rate, monitoring = float(row["sampling_rate"]), int(row["monitoring_enabled"])
                for key, value, low in (("second", second, 0), ("users", users, 1),
                                        ("throughput", throughput, 0)):
                    if value < low:
                        raise ValueError(f"{key} must be >= {low}, got {value}")
                # Written so that NaN fails it too.
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(f"sampling_rate must lie in [0, 1], got {rate!r}")
                if monitoring not in (0, 1):
                    raise ValueError(f"monitoring_enabled must be 0 or 1, got {monitoring}")
            # A short row leaves its missing fields None: int(None) is a TypeError.
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{series_path}:{reader.line_num}: {exc}") from exc
            seconds.append(SecondStats(second, users, throughput, rate, bool(monitoring)))
    traces = read_trace_file(run_dir / "traces.txt")
    return RunSummary(StrategyKind(strategy), seed, seconds, *_trace_tallies(traces), releases)


def summarize_run(run: Union[RunResult, RunSummary]) -> RunSummary:
    """Reduce a run to what ``write_report`` needs, in one pass over its trace
    columns."""
    if isinstance(run, RunSummary):
        return run
    return RunSummary(run.strategy, run.seed, run.seconds, *_trace_tallies(run.traces),
                      [_release_meta(rel) for rel in run.releases])


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
    rmse_by_run: dict[tuple[str, int], float]
    warnings: list[str]


def _sd(values: list[float]) -> float:
    return stdev(values) if len(values) >= 2 else 0.0


def _optional(value: Optional[float], spec: str) -> str:
    return "" if value is None else format(value, spec)


def write_report(
    runs: Iterable[Union[RunResult, RunSummary]],
    out_dir: str | Path,
) -> ComparisonReport:
    """Aggregate runs into the comparison CSVs under ``out_dir``.

    Reads every run before it writes anything. Each run is reduced with
    ``summarize_run`` and its series rendered to CSV text as it arrives, so
    a generator keeps at most one full run in memory. A second run of one
    (strategy, seed) raises ``ParameterError``; no runs, an empty series or
    a FUM ground truth with no request types raises
    ``InsufficientDataError``. ``out_dir`` is created only once the whole
    set has passed, so a report that raises writes no file.

    RMSE is computed once per run, against the FUM run of the same seed and
    over the types both hold. A run without FUM ground truth has no RMSE,
    and a type the sample lacks lowers its coverage; each adds a warning.
    """
    # (strategy, seed) -> (mean throughput, mean sampling rate, memory means)
    reduced: dict[tuple[StrategyKind, int], tuple[float, float, dict[str, float]]] = {}
    series: dict[str, str] = {}
    dist_counts: dict[StrategyKind, dict[str, int]] = {}
    cycle_rows: list[list] = []
    for run in runs:
        summary = summarize_run(run)
        kind, seed = summary.strategy, summary.seed
        if (kind, seed) in reduced:
            raise ParameterError(f"two runs of {kind.value} seed {seed}")
        reduced[(kind, seed)] = (throughput_stats(summary), sampling_rate_stats(summary),
                                 summary.memory_means)
        series[f"{kind.value}_s{seed}.csv"] = _series_csv(summary.seconds)
        counts = dist_counts.setdefault(kind, {})
        for tid, n in summary.type_counts.items():
            counts[tid] = counts.get(tid, 0) + n
        for rel in summary.release_meta:
            cycle_rows.append(
                [kind.value, seed, rel["cycle_index"], repr(float(rel["released_at"])),
                 rel["size"], repr(float(rel["length"])), rel["reason"],
                 repr(float(rel["confidence"]))]
            )
    if not reduced:
        raise InsufficientDataError("no runs to report on")

    rmse_by_run: dict[tuple[str, int], float] = {}
    coverage_by_run: dict[tuple[str, int], float] = {}
    missing_by_strategy: dict[StrategyKind, set[str]] = {}
    warnings: list[str] = []
    for kind, seed in sorted(reduced, key=lambda key: key[0].value):
        if kind in (StrategyKind.FUM, StrategyKind.NOM):
            continue
        if (StrategyKind.FUM, seed) not in reduced:
            warnings.append(f"no FUM ground truth for seed {seed}; RMSE omitted for {kind.value}")
            continue
        ground = reduced[(StrategyKind.FUM, seed)][2]
        sampled = reduced[(kind, seed)][2]
        if not ground:
            raise InsufficientDataError(f"ground truth has no request types (FUM seed {seed})")
        shared = [t for t in ground if t in sampled]
        if len(shared) < len(ground):
            missing = sorted(set(ground).difference(sampled))
            missing_by_strategy.setdefault(kind, set()).update(missing)
            warnings.append(
                f"{kind.value} seed {seed}: no valid samples for {missing}; "
                f"RMSE computed over {len(shared)}/{len(ground)} types"
            )
            if not shared:
                continue
        rmse_by_run[(kind.value, seed)] = rmse(
            {t: ground[t] for t in shared}, {t: sampled[t] for t in shared}
        )
        coverage_by_run[(kind.value, seed)] = len(shared) / len(ground)

    nom_trs = [tr for (kind, _seed), (tr, _sr, _m) in reduced.items()
               if kind is StrategyKind.NOM]
    nom_tr = mean(nom_trs) if nom_trs else None
    rows: list[StrategySummary] = []
    for kind in _STRATEGY_ORDER:
        keys = sorted((kind.value, seed) for k, seed in reduced if k is kind)
        if not keys:
            continue
        trs = [reduced[(kind, seed)][0] for _k, seed in keys]
        srs = [reduced[(kind, seed)][1] for _k, seed in keys]
        rmses = [rmse_by_run[key] for key in keys if key in rmse_by_run]
        coverages = [coverage_by_run[key] for key in keys if key in coverage_by_run]
        delta = None
        if nom_tr and kind is not StrategyKind.NOM:
            delta = (mean(trs) - nom_tr) / nom_tr * 100.0
        rows.append(
            StrategySummary(
                strategy=kind,
                n_runs=len(keys),
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

    out_dir = Path(out_dir)
    series_dir = out_dir / "timeseries"
    series_dir.mkdir(parents=True, exist_ok=True)
    for name, text in series.items():
        (series_dir / name).write_text(text, newline="")
    _write_csv(
        out_dir / "summary.csv",
        ["strategy", "n_runs", "throughput_mean", "throughput_sd",
         "throughput_delta_vs_nom_pct", "sampling_rate_mean", "sampling_rate_sd",
         "rmse_mean", "rmse_sd", "rmse_coverage", "missing_types"],
        ([row.strategy.value, row.n_runs, f"{row.throughput_mean:.4f}",
          f"{row.throughput_sd:.4f}", _optional(row.throughput_delta_pct, ".2f"),
          f"{row.sampling_rate_mean:.6f}", f"{row.sampling_rate_sd:.6f}",
          _optional(row.rmse_mean, ".4f"), _optional(row.rmse_sd, ".4f"),
          _optional(row.rmse_coverage, ".4f"), ";".join(row.missing_types)]
         for row in rows),
    )
    cycle_rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(
        out_dir / "cycles.csv",
        ["strategy", "seed", "cycle_index", "released_at", "size", "length", "reason",
         "confidence"],
        cycle_rows,
    )
    traced = {k: sum(dist_counts[k].values()) for k in _STRATEGY_ORDER if dist_counts.get(k)}
    _write_csv(
        out_dir / "distribution.csv",
        ["request_type"] + [f"{k.value}_pct" for k in traced],
        ([tid] + [f"{dist_counts[k].get(tid, 0) / total * 100.0:.6f}"
                  for k, total in traced.items()]
         for tid in sorted({t for counts in dist_counts.values() for t in counts})),
    )
    return ComparisonReport(out_dir=out_dir, rows=rows, rmse_by_run=rmse_by_run,
                            warnings=warnings)
