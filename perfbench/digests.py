"""Canonical digests of run outputs, compared against ``reference.json``.

Floats enter through ``repr``, which round-trips exactly, so two digests
agree only when the outputs are bit-identical.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

RUN_FILES = ("series.csv", "traces.txt", "run.json")
REPORT_FILES = ("summary.csv", "cycles.csv")


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_digest(result) -> str:
    """Series, traces, releases and sampler events of an in-memory ``RunResult``."""
    return _sha(
        [(s.second, s.users, s.throughput, s.sampling_rate, s.monitoring_enabled)
         for s in result.seconds],
        [(t.cycle_index, t.event.type_id, t.event.start, t.event.response_time,
          t.event.memory_delta) for t in result.traces],
        release_rows(result.releases),
        [(e.kind, e.time, sorted(e.data.items())) for e in result.sampler_events],
    )


def release_rows(releases) -> list[tuple]:
    return [
        (r.cycle_index, r.released_at, r.reason, r.confidence_at_release, r.cycle_length,
         r.population_mean_rt, len(r.traces), sorted(r.sample_stats.counts.items()),
         sorted(r.population_stats.counts.items()))
        for r in releases
    ]


def engine_digest(decisions: bytes, releases, events) -> str:
    """Decision sequence, releases and sampler events of one engine replay."""
    return _sha(
        hashlib.sha256(decisions).hexdigest(),
        release_rows(releases),
        [(e.kind, e.time, sorted(e.data.items())) for e in events],
    )


def files_digest(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def report_digests(report_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((report_dir / name).read_bytes()).hexdigest()
            for name in REPORT_FILES}
