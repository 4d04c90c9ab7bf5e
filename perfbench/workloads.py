"""The three workloads, each a repeatable pass over inputs made from one seed.

* ``matrix``  - every strategy x one seed of the built-in 600 s scenario
  through ``run_scenario``, streamed into ``write_report``.
* ``compare`` - the same matrix through ``cli.main(["compare", ...])`` with
  two worker processes: artifacts are written by the workers and read back
  by the parent.
* ``engine``  - four generated request streams (48 Zipf-weighted types, a
  seasonal load that crosses the contention knee) replayed straight into
  ``AdaptiveMonitor``, one decision at a time, with ``on_tick`` every
  simulated second.

A pass runs against one package: the checkout's ``reprtrace`` (the subject,
whose outputs are checked) or the frozen seed-commit copy in ``baseline/``
(the timing reference, see ``run.py``).  Subject outputs are checked against
``reference.json``: each strategy x seed run, each engine replay and each
report is one operation, and it fails when it raises or when its digest
differs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import shutil
from bisect import bisect_right
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from time import perf_counter, perf_counter_ns

from digests import RUN_FILES, engine_digest, files_digest, report_digests, run_digest

STRATEGIES = ("ADP", "INV", "UNI", "FUM", "NOM")
# --seed values map onto this many recorded input seeds (seed n -> (n-1) % 20 + 1),
# so every run is checked against digests recorded at a known commit.
REFERENCE_SEEDS = 20
SEEDS_PER_PASS = 1
COMPARE_WORKERS = 2

ENGINE_STREAMS = 4
ENGINE_TYPES = 48
ENGINE_SECONDS = 600
ENGINE_CAPACITY = 16.0


def input_seed(seed: int) -> int:
    return (seed - 1) % REFERENCE_SEEDS + 1


def seed_range(seed: int, count: int) -> list[int]:
    base = input_seed(seed)
    return [(base - 1 + i) % REFERENCE_SEEDS + 1 for i in range(count)]


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (``statistics.quantiles`` inclusive)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


@dataclass
class PassResult:
    wall: float = 0.0            # seconds spent in the program (checks excluded)
    requests: int = 0            # simulated or replayed requests decided on
    # Seconds of each timed unit: a strategy x seed run (matrix), a stream
    # replay (engine) or the whole pass (compare).  Pairs are compared unit by unit.
    units: dict[str, float] = field(default_factory=dict)
    # Engine only: per replay, p50 and p99 of the per-request decide time in us.
    unit_p50_us: dict[str, float] = field(default_factory=dict)
    unit_p99_us: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    chunks: list = field(default_factory=list)   # span chunks of forked workers (traced passes)

    def fail(self, message: str, operations: int = 1) -> None:
        self.attempted += operations
        self.failed += operations
        self.failures.append(message)


class Checker:
    """Compares digests with the reference; in record mode fills in missing ones."""

    def __init__(self, reference: dict, record: bool = False) -> None:
        self.reference = reference
        self.record = record

    def check(self, result: PassResult, section: str, key: str, digest: str) -> None:
        table = self.reference.setdefault(section, {})
        expected = table.get(key)
        if expected is None and self.record:
            table[key] = digest
        if expected is None and self.record or expected == digest:
            result.attempted += 1
        else:
            result.fail(f"{section}/{key}: digest {digest[:12]} != reference "
                        f"{(expected or 'missing')[:12]}")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _report_outputs(report_dir: Path) -> dict:
    """ADP's RMSE and throughput loss against NOM, as ``summary.csv`` reports them."""
    with open(report_dir / "summary.csv", newline="") as handle:
        adp = next(row for row in csv.DictReader(handle) if row["strategy"] == "ADP")
    return {"adp_rmse": float(adp["rmse_mean"]),
            "adp_tr_loss_pct": -float(adp["throughput_delta_vs_nom_pct"])}


# --- matrix -----------------------------------------------------------------


class Matrix:
    name = "matrix"

    def __init__(self, seed: int, tmp: Path, checker: Checker) -> None:
        self.seeds = seed_range(seed, SEEDS_PER_PASS)
        self.tmp = tmp
        self.checker = checker
        self.check_span = nullcontext
        self.inputs = {"seeds": self.seeds, "scenario": "built-in default (600 s)"}

    def run_pass(self, pkg, check: bool = True) -> PassResult:
        """One pass against package ``pkg``; outputs are checked when ``check``."""
        return self._pass(pkg, check, None)[0]

    def run_pair(self, subject, baseline) -> tuple[PassResult, PassResult]:
        """A checked pass of ``subject`` with each run followed or preceded (alternately)
        by the same run of ``baseline``, timed on its own and not reported."""
        return self._pass(subject, True, baseline)

    def _pass(self, pkg, check: bool, baseline) -> tuple[PassResult, PassResult]:
        sc = pkg.default_scenario()
        result, theirs = PassResult(), PassResult()
        excluded = 0.0

        def shadow(kind: str, seed: int) -> None:
            base_sc = baseline.default_scenario()
            start = perf_counter()
            run = baseline.simulator.run_scenario(base_sc.model, base_sc.workload, kind, seed,
                                                  base_sc.sampler)
            theirs.units[f"{kind}_s{seed}"] = perf_counter() - start
            theirs.wall += theirs.units[f"{kind}_s{seed}"]
            theirs.requests += len(run.events)

        def runs():
            nonlocal excluded
            units = [(kind, seed) for kind in STRATEGIES for seed in self.seeds]
            for i, (kind, seed) in enumerate(units):
                if baseline is not None and i % 2:
                    start = perf_counter()
                    shadow(kind, seed)
                    excluded += perf_counter() - start
                start = perf_counter()
                try:
                    run = pkg.simulator.run_scenario(sc.model, sc.workload, kind, seed,
                                                     sc.sampler)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    result.fail(f"{kind}_s{seed}: raised {exc!r}")
                    continue
                end = perf_counter()
                result.units[f"{kind}_s{seed}"] = end - start
                result.requests += len(run.events)
                if check:
                    # Runs inside write_report's loop: a traced pass gives it its own span.
                    with self.check_span():
                        self.checker.check(result, "runs", f"{kind}_s{seed}", run_digest(run))
                if baseline is not None and not i % 2:
                    shadow(kind, seed)
                excluded += perf_counter() - end
                yield run

        out = self.tmp / "matrix-report"
        start = perf_counter()
        try:
            comparison = pkg.report.write_report(runs(), out)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            result.fail(f"report: raised {exc!r}")
            comparison = None
        result.wall = perf_counter() - start - excluded
        if comparison is not None and check:
            for name, digest in report_digests(out).items():
                self.checker.check(result, "reports", f"{self._key()}/{name}", digest)
            if not result.failed:
                result.outputs = {**_report_outputs(out), "bytes_written": _dir_bytes(out)}
        shutil.rmtree(out, ignore_errors=True)
        return result, theirs

    def _key(self) -> str:
        return ",".join(map(str, self.seeds))


# --- compare ------------------------------------------------------------------


def _average(passes: list[PassResult]) -> PassResult:
    """One result for repeated passes over the same inputs: mean time, summed checks."""
    n = len(passes)
    return PassResult(
        wall=sum(p.wall for p in passes) / n,
        requests=sum(p.requests for p in passes) // n,
        units={key: sum(p.units.get(key, 0.0) for p in passes) / n for key in passes[0].units},
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        failures=[f for p in passes for f in p.failures],
        outputs=passes[0].outputs,
    )



class Compare(Matrix):
    name = "compare"

    def __init__(self, seed: int, tmp: Path, checker: Checker) -> None:
        super().__init__(seed, tmp, checker)
        os.environ["REPRTRACE_THREADS"] = str(COMPARE_WORKERS)
        self.inputs["workers"] = COMPARE_WORKERS

    def run_pair(self, subject, baseline) -> tuple[PassResult, PassResult]:
        """Checkout, baseline, baseline, checkout: each side averaged over its two
        passes, so neither side always runs right after the other's file clean-up."""
        first = self.run_pass(subject)
        theirs = [self.run_pass(baseline, check=False), self.run_pass(baseline, check=False)]
        return _average([first, self.run_pass(subject)]), _average(theirs)

    def run_pass(self, pkg, check: bool = True) -> PassResult:
        out = self.tmp / "compare-out"
        argv = ["compare", "--strategies", ",".join(STRATEGIES),
                "--seeds", self._key(), "--out", str(out)]
        result = PassResult()
        sink = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = pkg.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            code = f"raised {exc!r}"
        result.wall = result.units["pass"] = perf_counter() - start
        if code != 0:
            result.fail(f"compare exited {code}: {sink.getvalue()[-500:]}",
                        operations=len(STRATEGIES) * len(self.seeds) + 1)
            shutil.rmtree(out, ignore_errors=True)
            return result
        for kind in STRATEGIES:
            for seed in self.seeds:
                run_dir = out / "runs" / f"{kind}_s{seed}"
                try:
                    meta = json.loads((run_dir / "run.json").read_text())
                    result.requests += int(meta["event_count"])
                    digest = files_digest(run_dir, RUN_FILES)
                except (OSError, ValueError, KeyError) as exc:
                    digest = f"unreadable: {exc!r}"
                if check:
                    self.checker.check(result, "run_files", f"{kind}_s{seed}", digest)
        if check:
            for name, digest in report_digests(out / "report").items():
                # The same table as the in-memory matrix: both paths must give identical bytes.
                self.checker.check(result, "reports", f"{self._key()}/{name}", digest)
            if not result.failed:
                result.outputs = {**_report_outputs(out / "report"),
                                  "bytes_written": _dir_bytes(out)}
        shutil.rmtree(out, ignore_errors=True)
        return result


# --- engine ---------------------------------------------------------------------


def engine_stream(seed: int) -> list[tuple[list[tuple], dict]]:
    """Per simulated second: the requests as (type, start, rt, mem) and their
    per-type mean response times.

    48 request types with Zipf(1.1) weights; the user count follows a
    120 s seasonal wave from 10 to 24 users against a knee at 16, so
    throughput flattens and response times stretch at every peak.
    """
    rng = random.Random(f"{seed}:engine-stream")
    types = [f"/t{i:02d}" for i in range(ENGINE_TYPES)]
    cum = list(accumulate(1.0 / (i + 1) ** 1.1 for i in range(ENGINE_TYPES)))
    base_rt = [20.0 + 60.0 * rng.random() for _ in types]
    base_mem = [50.0 + 400.0 * rng.random() for _ in types]
    seconds = []
    for sec in range(ENGINE_SECONDS):
        users = 10.0 + 14.0 * max(0.0, math.sin(2.0 * math.pi * sec / 120.0))
        slowdown = 1.0 + 1.2 * max(0.0, users / ENGINE_CAPACITY - 1.0)
        n = round(15.0 * min(users, ENGINE_CAPACITY) * (0.95 + 0.1 * rng.random()))
        requests = []
        rt_sum: dict[str, float] = {}
        rt_count: dict[str, int] = {}
        for j in range(n):
            i = bisect_right(cum, rng.random() * cum[-1])
            rt = base_rt[i] * slowdown * rng.lognormvariate(0.0, 0.25)
            mem = base_mem[i] * rng.lognormvariate(-0.03125, 0.25)
            requests.append((types[i], sec * 1000 + 1000 * j // n, rt, mem))
            rt_sum[types[i]] = rt_sum.get(types[i], 0.0) + rt
            rt_count[types[i]] = rt_count.get(types[i], 0) + 1
        seconds.append((requests, {t: rt_sum[t] / rt_count[t] for t in rt_sum}))
    return seconds


class Engine:
    name = "engine"

    def __init__(self, seed: int, tmp: Path, checker: Checker) -> None:
        self.checker = checker
        self.streams = {s: engine_stream(s) for s in seed_range(seed, ENGINE_STREAMS)}
        self.inputs = {"seeds": list(self.streams), "types": ENGINE_TYPES,
                       "seconds": ENGINE_SECONDS,
                       "requests": sum(len(requests) for stream in self.streams.values()
                                       for requests, _ in stream)}
        self._events: dict[str, dict] = {}
        self._rmse: dict[int, float] = {}   # deterministic, so computed once per stream

    def _events_of(self, pkg) -> dict:
        """The streams as ``pkg.RequestEvent`` objects, built once per package."""
        if pkg.__name__ not in self._events:
            self._events[pkg.__name__] = {
                seed: [([pkg.RequestEvent(*r) for r in requests], mean_rt)
                       for requests, mean_rt in stream]
                for seed, stream in self.streams.items()}
        return self._events[pkg.__name__]

    def run_pass(self, pkg, check: bool = True) -> PassResult:
        return self._pass(pkg, check, None)[0]

    def run_pair(self, subject, baseline) -> tuple[PassResult, PassResult]:
        """A checked pass of ``subject`` with each replay followed or preceded
        (alternately) by the same replay into ``baseline``."""
        return self._pass(subject, True, baseline)

    def _pass(self, pkg, check: bool, baseline) -> tuple[PassResult, PassResult]:
        result, theirs = PassResult(), PassResult()
        rmses = []
        for i, seed in enumerate(self.streams):
            if baseline is not None and i % 2:
                self._replay(baseline, seed, theirs, False)
            rmses.append(self._replay(pkg, seed, result, check))
            if baseline is not None and not i % 2:
                self._replay(baseline, seed, theirs, False)
        result.outputs["decide_samples"] = result.requests
        if check and not result.failed:
            result.outputs["adp_rmse"] = sum(rmses) / len(rmses)
        return result, theirs

    def _replay(self, pkg, seed: int, result: PassResult, check: bool) -> float:
        """One replay into a fresh monitor; returns the RMSE of its sample's per-type memory."""
        stream = self._events_of(pkg)[seed]
        monitor = pkg.AdaptiveMonitor(pkg.SamplerConfig())
        record_type = pkg.PerformanceRecord
        rng = random.Random(f"{seed}:engine-decide")
        decide, evaluate, on_tick = monitor.decide, monitor.evaluate_sample, monitor.on_tick
        ns = perf_counter_ns
        lat: list[int] = []
        decisions = bytearray()
        releases = []
        start = perf_counter()
        try:
            for sec, (events, mean_rt) in enumerate(stream):
                monitoring = monitor.monitoring_enabled
                for event in events:
                    t0 = ns()
                    if decide(event, rng):
                        released = evaluate(event.start / 1000.0)
                        t1 = ns()
                        decisions.append(1)
                        if released is not None:
                            releases.append(released)
                    else:
                        t1 = ns()
                        decisions.append(0)
                    lat.append(t1 - t0)
                record = record_type(rps=float(len(events)), mean_rt=mean_rt,
                                     monitoring_enabled=monitoring)
                released = on_tick(float(sec + 1), record)
                if released is not None:
                    releases.append(released)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            result.fail(f"engine s{seed}: raised {exc!r}")
            return 0.0
        finally:
            result.units[f"s{seed}"] = perf_counter() - start
            result.wall += result.units[f"s{seed}"]
            result.requests += len(decisions)
        lat.sort()
        result.unit_p50_us[f"s{seed}"] = percentile(lat, 0.50) / 1e3
        result.unit_p99_us[f"s{seed}"] = percentile(lat, 0.99) / 1e3
        if not check:
            return 0.0
        self.checker.check(result, "engine", f"s{seed}",
                           engine_digest(bytes(decisions), releases, monitor.events))
        if seed in self._rmse:
            return self._rmse[seed]
        everything = [event for events, _ in stream for event in events]
        traced = [event for event, d in zip(everything, decisions) if d]
        ground = pkg.report.type_memory_means(everything)
        sampled = pkg.report.type_memory_means(traced)
        covered = sorted(set(ground) & set(sampled))
        self._rmse[seed] = pkg.report.rmse({t: ground[t] for t in covered},
                                           {t: sampled[t] for t in covered})
        return self._rmse[seed]


WORKLOADS = {"matrix": Matrix, "compare": Compare, "engine": Engine}
