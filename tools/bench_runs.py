"""Time one ``run_scenario``, one ``save_run`` and one ``load_run`` per
strategy kind, before and after a change.

    python3 tools/bench_runs.py --before DIR [--pairs 10] [--seed 1]
        [--before-commit REV] [--out BENCH_runs.json]

``DIR`` holds the code to compare against: a directory with the
``reprtrace`` package in it, or a checkout whose ``src/`` has it (for
example a ``git archive`` of the parent commit, unpacked).  The "after"
side is ``src/`` of the checkout this script lives in.

Each timing is a fresh interpreter that imports one side.  A pair times
each of these once on each side; which side goes first alternates from
pair to pair, so both sides see the same drift of the host.

* Per kind: the default scenario's tape for ``--seed`` is drawn with an
  untimed NOM run, then the fastest of three ``run_scenario`` calls of the
  kind on that warm tape; the fastest of three ``save_run`` calls of the
  last run, each into a fresh directory (the persistence layer's write
  side); and the fastest of three ``load_run`` calls of the last of those
  directories (its read side).
* The cold tape: the fastest of three ``simulator._tape`` calls for
  ``--seed``, each after ``_tape.cache_clear()`` (the offered-stream
  layer).  A side without ``_tape`` is not timed.
* The engine import: from before its ``import reprtrace``, the import and
  one ``AdaptiveMonitor(SamplerConfig())``, as an application that embeds
  the engine pays it.
* The engine replay: ``engine_stream(1)`` of ``perfbench/workloads.py``
  replayed into an ``AdaptiveMonitor`` the way the benchmark's ``engine``
  workload does, one untimed replay and then one timed, each into a fresh
  monitor: the p50 and p99 of the time of each decision (``decide``, and
  for an accept ``evaluate_sample`` too) and the replay's wall time.

One entry is appended to ``--out`` (a JSON list, created when missing;
earlier entries are kept as they are): the checkout's commit and whether
its tree had uncommitted changes, the before side's commit when known, the
Python version, the processor count, and per kind the median [Q1, Q3] of
each side's times in seconds, the after/before ratio of the medians and the
number of pairs the after side was faster, for the run (``before_s``,
``after_s``, ``ratio``, ``after_faster_pairs``), for its ``save_run`` and
for its ``load_run`` (the same four keys with a ``save_`` and a ``load_``
prefix), the same four keys for the cold tape under ``tape_cold`` (only
the timed side's ``before_s`` or ``after_s`` when a side has no ``_tape``)
and for the engine import under ``engine_import``, and under
``engine_replay`` the same four keys for each of ``decide_us_p50``,
``decide_us_p99`` (in microseconds, though the keys end in ``_s``) and
``wall_s``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AFTER = ROOT / "src"
KINDS = ("ADP", "INV", "UNI", "FUM", "NOM")
REPEATS = 3
# The timed calls, as the prefixes of their keys: the run, its save_run and
# its load_run.
CALLS = ("", "save_", "load_")

# Run in the child with the side's package first on sys.path.
CHILD = """
import json, sys, tempfile
from time import perf_counter
import reprtrace
from reprtrace import default_scenario, load_run, run_scenario, save_run
kind, seed, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
scenario = default_scenario()
args = (scenario.model, scenario.workload)
run_scenario(*args, "NOM", seed, scenario.sampler)
best = float("inf")
for _ in range(repeats):
    run = None
    began = perf_counter()
    run = run_scenario(*args, kind, seed, scenario.sampler)
    best = min(best, perf_counter() - began)
best_save = best_load = float("inf")
with tempfile.TemporaryDirectory() as tmp:
    for i in range(repeats):
        run_dir = f"{tmp}/{i}"
        began = perf_counter()
        save_run(run, run_dir)
        best_save = min(best_save, perf_counter() - began)
    del run
    for _ in range(repeats):
        began = perf_counter()
        load_run(run_dir)
        best_load = min(best_load, perf_counter() - began)
print(json.dumps({"package": reprtrace.__file__, "seconds": best, "save_seconds": best_save,
                  "load_seconds": best_load}))
"""

# Run in the child as CHILD is; prints null seconds for a side without _tape.
TAPE_CHILD = """
import json, sys
from time import perf_counter
import reprtrace
from reprtrace import default_scenario, simulator
seed, repeats = int(sys.argv[1]), int(sys.argv[2])
scenario = default_scenario()
tape = getattr(simulator, "_tape", None)
best = None
if tape is not None:
    best = float("inf")
    for _ in range(repeats):
        tape.cache_clear()
        began = perf_counter()
        tape(scenario.model, scenario.workload, seed)
        best = min(best, perf_counter() - began)
print(json.dumps({"package": reprtrace.__file__, "seconds": best}))
"""

# Run in the child as CHILD is; the clock starts before the package is imported.
ENGINE_CHILD = """
from time import perf_counter
began = perf_counter()
import reprtrace
reprtrace.AdaptiveMonitor(reprtrace.SamplerConfig())
seconds = perf_counter() - began
import json
print(json.dumps({"package": reprtrace.__file__, "seconds": seconds}))
"""


# Run in the child as CHILD is, with perfbench/ as its first argument.
REPLAY_CHILD = """
import json, random, sys
from time import perf_counter, perf_counter_ns
import reprtrace
sys.path.insert(0, sys.argv[1])
from workloads import engine_stream, percentile
SEED = 1
stream = [([reprtrace.RequestEvent(*r) for r in requests], mean_rt)
          for requests, mean_rt in engine_stream(SEED)]

def replay():
    monitor = reprtrace.AdaptiveMonitor(reprtrace.SamplerConfig())
    rng = random.Random(f"{SEED}:engine-decide")
    decide, evaluate, on_tick = monitor.decide, monitor.evaluate_sample, monitor.on_tick
    ns = perf_counter_ns
    lat = []
    start = perf_counter()
    for sec, (events, mean_rt) in enumerate(stream):
        monitoring = monitor.monitoring_enabled
        for event in events:
            t0 = ns()
            if decide(event, rng):
                evaluate(event.start / 1000.0)
            lat.append(ns() - t0)
        on_tick(float(sec + 1), reprtrace.PerformanceRecord(
            rps=float(len(events)), mean_rt=mean_rt, monitoring_enabled=monitoring))
    return perf_counter() - start, lat

replay()
wall, lat = replay()
lat.sort()
print(json.dumps({"package": reprtrace.__file__, "wall_s": wall,
                  "decide_us_p50": percentile(lat, 0.50) / 1e3,
                  "decide_us_p99": percentile(lat, 0.99) / 1e3}))
"""
REPLAY_METRICS = ("decide_us_p50", "decide_us_p99", "wall_s")


def package_dir(path: Path) -> Path:
    """The directory to import ``reprtrace`` from: ``path`` or its ``src/``."""
    for candidate in (path, path / "src"):
        if (candidate / "reprtrace" / "__init__.py").is_file():
            return candidate.resolve()
    raise SystemExit(f"no reprtrace package in {path} or {path / 'src'}")


def run_child(side: Path, code: str, *args: str) -> dict:
    """The JSON line ``code`` prints in a fresh interpreter that imports ``side``."""
    env = dict(os.environ, PYTHONPATH=str(side))
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env=env, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    # An installed reprtrace must not stand in for the side under test.
    if not Path(result["package"]).resolve().is_relative_to(side):
        raise SystemExit(f"imported {result['package']}, not the package in {side}")
    return result


def time_kind(side: Path, kind: str, seed: int) -> tuple[float, float, float]:
    """The fastest run, ``save_run`` and ``load_run`` of ``kind`` on ``side``."""
    result = run_child(side, CHILD, kind, str(seed), str(REPEATS))
    return result["seconds"], result["save_seconds"], result["load_seconds"]


def time_tape_cold(side: Path, seed: int) -> float | None:
    """The fastest cold ``simulator._tape`` of ``side``, or ``None`` without one."""
    return run_child(side, TAPE_CHILD, str(seed), str(REPEATS))["seconds"]


def time_engine_import(side: Path) -> float:
    """One engine import of ``side``: the package and one ``AdaptiveMonitor``."""
    return run_child(side, ENGINE_CHILD)["seconds"]


def time_engine_replay(side: Path) -> dict:
    """One timed replay of ``engine_stream(1)`` on ``side``: ``REPLAY_METRICS``."""
    result = run_child(side, REPLAY_CHILD, str(ROOT / "perfbench"))
    return {metric: result[metric] for metric in REPLAY_METRICS}


def git(*args: str, cwd: Path) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def spread(values: list[float]) -> dict:
    """Median and quartiles; with one value all three are that value."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(before_s: list[float], after_s: list[float], prefix: str = "") -> dict:
    """Each side's spread, the after/before ratio of the medians and the
    number of pairs the after side was faster, under ``prefix``ed keys."""
    return {
        f"{prefix}before_s": spread(before_s),
        f"{prefix}after_s": spread(after_s),
        f"{prefix}ratio": statistics.median(after_s) / statistics.median(before_s),
        f"{prefix}after_faster_pairs": sum(a < b for b, a in zip(before_s, after_s)),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--before-commit", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_runs.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    before, after = package_dir(args.before), package_dir(AFTER)
    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    if not isinstance(entries, list):
        raise SystemExit(f"{args.out} does not hold a JSON list")

    times = {kind: {call: {"before": [], "after": []} for call in CALLS} for kind in KINDS}
    engine = {"before": [], "after": []}
    tape = {"before": [], "after": []}
    replay = {metric: {"before": [], "after": []} for metric in REPLAY_METRICS}
    for pair in range(args.pairs):
        sides = [("before", before), ("after", after)]
        if pair % 2:
            sides.reverse()
        for name, side in sides:
            engine[name].append(time_engine_import(side))
        for name, side in sides:
            seconds = time_tape_cold(side, args.seed)
            if seconds is not None:
                tape[name].append(seconds)
        for name, side in sides:
            for metric, value in time_engine_replay(side).items():
                replay[metric][name].append(value)
        for kind in KINDS:
            for name, side in sides:
                for call, seconds in zip(CALLS, time_kind(side, kind, args.seed)):
                    times[kind][call][name].append(seconds)
        print(f"pair {pair + 1}/{args.pairs}: engine import "
              f"{engine['before'][-1]:.4f} -> {engine['after'][-1]:.4f} s, engine replay p99 "
              f"{replay['decide_us_p99']['before'][-1]:.2f} -> "
              f"{replay['decide_us_p99']['after'][-1]:.2f} us, " + ", ".join(
                  f"{kind} {t['']['before'][-1]:.3f} -> {t['']['after'][-1]:.3f} s"
                  f" (save {t['save_']['before'][-1]:.3f} -> {t['save_']['after'][-1]:.3f} s,"
                  f" load {t['load_']['before'][-1]:.3f} -> {t['load_']['after'][-1]:.3f} s)"
                  for kind, t in times.items()), file=sys.stderr)

    kinds = {}
    for kind, calls in times.items():
        kinds[kind] = {}
        for call, sides in calls.items():
            kinds[kind].update(compare(sides["before"], sides["after"], call))
    if tape["before"] and tape["after"]:
        tape_cold = compare(tape["before"], tape["after"])
    else:
        tape_cold = {f"{name}_s": spread(values) for name, values in tape.items() if values}
    before_commit = args.before_commit or git("rev-parse", "HEAD", cwd=args.before)
    entry = {
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": git("rev-parse", "HEAD", cwd=ROOT),
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src", cwd=ROOT)),
        "before_commit": before_commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "scenario": "default",
        "seed": args.seed,
        "pairs": args.pairs,
        "best_of": REPEATS,
        "kinds": kinds,
        "tape_cold": tape_cold,
        "engine_import": compare(engine["before"], engine["after"]),
        "engine_replay": {metric: compare(sides["before"], sides["after"])
                          for metric, sides in replay.items()},
    }
    entries.append(entry)
    args.out.write_text(json.dumps(entries, indent=2) + "\n")
    print(json.dumps(entry))


if __name__ == "__main__":
    main()
