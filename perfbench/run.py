"""Benchmark of reprtrace: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload matrix|compare|engine --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package under test is imported from
``src/`` of that checkout, the timing baseline from ``perfbench/baseline/``.

With ``--trace 0``, a warm-up pass of the checkout is followed by pairs in
which the checkout and the baseline run the same inputs back to back (run by
run, replay by replay, or pass by pass for ``compare``) until ``--seconds`` is
spent, at least two pairs.  This host's speed drifts by a third over
minutes, and both sides of a pair see the same drift, so each timing is
reported as the baseline's nominal value (measured once, in
``reference.json``) times the median checkout/baseline ratio over the pairs.  With ``--trace 1``, untraced and traced passes of the checkout
alternate; the public functions of every layer are wrapped to record spans,
and the per-layer metrics and the tracing overhead are reported.

The last stdout line is the JSON result; the full result, machine facts
included, is written to ``perfbench/out/``; with ``--trace 1`` so are the
spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

MIN_PAIRS = 2
# Spans of a traced engine pass take about 20 MB; two traced passes bound memory and disk.
TRACED_PASSES = 2
SETUP_REPEATS = 7
NOMINAL_KEYS = ("setup_s", "wall_s", "sim_req_per_s", "decide_us_p50", "decide_us_p99")

WHY = {
    "matrix": "5 strategies x 1 seed of the 600 s scenario in process: the comparison "
              "researchers wait on; stream generation and decisions dominate",
    "compare": "the same matrix via `reprtrace compare` with 2 workers: adds artifact "
               "writes, re-parse in the parent and process-pool fan-out",
    "engine": "four 48-type Zipf request streams replayed into AdaptiveMonitor: the "
              "per-request cost an embedding application pays; no simulator or report work",
}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "sim_req_per_s": ("1/s", "higher"),
    "decide_us_p50": ("us", "lower"),
    "decide_us_p99": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYERS = ("simulator", "strategies", "sampler", "stats", "report", "model", "scenario", "cli")
_TIMED = {
    # span name -> metric suffixes to report
    "simulator.step": ("calls", "self_s"),
    **{f"strategies.decide.{k}": ("calls", "self_s") for k in ("ADP", "INV", "UNI", "FUM", "NOM")},
    "strategies.on_tick": ("s",),
    "sampler.decide": ("calls", "s"),
    "sampler.evaluate_sample": ("calls", "s"),
    "sampler.on_tick": ("s",),
    "sampler.adapt_rate": ("s",),
    "stats.cochran_sample_size": ("calls", "s"),
    "stats.one_sample_t_p_value_from_stats": ("calls", "s"),
    "stats.paired_t_test": ("calls", "s"),
    "report.save_run": ("calls", "s"),
    "report.load_run": ("calls", "s"),
    "report.write_report": ("calls", "s"),
    "model.write_trace_file": ("calls", "s"),
    "model.read_trace_file": ("calls", "s"),
    "scenario.parse_scenario": ("calls", "s"),
}
_UNIT = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}

PER_LAYER = {
    **{f"{span}.{suffix}": _UNIT[suffix] for span, suffixes in _TIMED.items() for suffix in suffixes},
    "simulator.completed_req": ("count", "higher"),
    "simulator.traces": ("count", "lower"),
    "strategies.accept_ratio": ("ratio", "lower"),
    "sampler.release_ratio": ("ratio", "higher"),
    "sampler.releases.criteria": ("count", "higher"),
    "sampler.releases.timeout": ("count", "lower"),
    "sampler.baselines": ("count", "lower"),
    "report.bytes_written": ("B", "lower"),
    "report.adp_rmse": ("KB", "lower"),
    "report.adp_tr_loss_pct": ("%", "lower"),
    "cli.pool_wait_s": ("s", "lower"),
    "cli.pool_utilization": ("ratio", "higher"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Which end-to-end metric each layer's numbers should move, and on which workload.
MOVES = {
    "simulator": "wall_s and sim_req_per_s on matrix, less on compare, none on engine",
    "strategies": "wall_s on matrix",
    "sampler.decide": "decide_us_p50 on engine",
    "sampler.evaluate_sample": "decide_us_p99 on engine (the accept-and-evaluate tail)",
    "stats": "decide_us_p99 on engine",
    "report/model": "wall_s on compare (and the bytes written), barely matrix",
    "scenario/cli": "setup_s, and wall_s on compare",
}

SETUP_CODE = """
import importlib, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
pkg = importlib.import_module(sys.argv[2])
if sys.argv[3] == "engine":
    pkg.AdaptiveMonitor(pkg.SamplerConfig())
elif sys.argv[3] == "compare":
    importlib.import_module(sys.argv[2] + ".cli")
    pkg.parse_scenario(pkg.scenario_to_dict(pkg.default_scenario()))
else:
    pkg.default_scenario()
elapsed = time.perf_counter() - t0
assert pkg.__file__.startswith(sys.argv[1]), pkg.__file__
print(repr(elapsed))
"""

PACKAGES = {"subject": (SRC, "reprtrace"), "baseline": (BASELINE, "reprtrace_seed")}


def setup_seconds(side: str, workload: str) -> float:
    """One fresh-interpreter set-up: import the package, build the scenario or monitor."""
    path, name = PACKAGES[side]
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(path), name, workload],
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(subject, baseline) set-up seconds, alternating which goes first, after a warm-up."""
    setup_seconds("subject", workload)
    setup_seconds("baseline", workload)
    pairs = []
    for i in range(SETUP_REPEATS):
        order = ("subject", "baseline") if i % 2 == 0 else ("baseline", "subject")
        times = {side: setup_seconds(side, workload) for side in order}
        pairs.append((times["subject"], times["baseline"]))
    return pairs


def peak_rss_mb() -> float:
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss_kb / 1024.0


def machine_facts(workload, inputs) -> dict:
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_digest": src_digest(),
        "workload": workload,
        "why": WHY[workload],
        "inputs": inputs,
    }


def src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "reprtrace").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_pairs(work, seconds: float, subject, baseline) -> tuple[list, list, float]:
    """A warm-up pass of the checkout, then (checkout, baseline) pairs until ``seconds``
    is spent.

    Returns the checked passes, the pairs and the peak RSS taken right after
    the warm-up, before the baseline has run, so its memory does not count.
    """
    deadline = perf_counter() + seconds
    checked = [work.run_pass(subject)]
    peak = peak_rss_mb()
    pairs = []
    longest = 0.0
    while len(pairs) < MIN_PAIRS or perf_counter() + longest <= deadline:
        began = perf_counter()
        pairs.append(work.run_pair(subject, baseline))
        longest = max(longest, perf_counter() - began)
    return checked + [mine for mine, _ in pairs], pairs, peak


def run_traced(work, seconds: float, subject, tracer) -> tuple[list, list]:
    """Untraced and traced passes of the checkout, alternating until ``TRACED_PASSES``
    are traced, then untraced passes until ``seconds`` is spent."""
    import tracer as trace_mod

    untraced, traced = [], []
    deadline = perf_counter() + seconds
    longest = 0.0
    while len(traced) < TRACED_PASSES or perf_counter() + longest <= deadline:
        began = perf_counter()
        if len(traced) < min(len(untraced), TRACED_PASSES):
            trace_mod.install(tracer)
            work.check_span = lambda: tracer.span("bench.check")
            try:
                with tracer.span("bench.pass"):
                    result = work.run_pass(subject)
            finally:
                tracer.uninstall()
                work.check_span = nullcontext
            result.chunks = tracer.collect_worker_chunks()
            traced.append(result)
        else:
            untraced.append(work.run_pass(subject))
        longest = max(longest, perf_counter() - began)
    return untraced, traced


def unit_ratio(pairs) -> float:
    """Checkout/baseline time ratio: per unit the median over pairs, weighted by the
    unit's median baseline time."""
    weighted = total = 0.0
    for key in pairs[0][1].units:
        matched = [(mine.units[key], theirs.units[key]) for mine, theirs in pairs
                   if key in mine.units and key in theirs.units]
        weight = statistics.median(theirs for _, theirs in matched)
        weighted += weight * statistics.median(mine / theirs for mine, theirs in matched)
        total += weight
    return weighted / total


def decide_us(result, percentile_key: str) -> float:
    """A pass's decide time: the median replay's p50/p99 for the engine, else the
    host microseconds per decision over the pass."""
    per_unit = getattr(result, percentile_key)
    if per_unit:
        return statistics.median(per_unit.values())
    return result.wall * 1e6 / result.requests


def end_to_end(pairs, setup_pairs, nominal: dict, peak: float) -> tuple[dict, dict]:
    """Nominal baseline values times checkout/baseline ratios measured back to back.

    Wall time uses the per-unit ratio, times the checkout's own pass-wall /
    unit-sum factor so time outside the paired units (the matrix report)
    still counts.  Engine decide percentiles use the median ratio over all
    paired replays; elsewhere they follow the wall ratio.
    """
    wall_ratio = unit_ratio(pairs) * statistics.median(
        mine.wall / sum(mine.units.values()) for mine, _ in pairs)
    ratios = {"setup_s": statistics.median(s / b for s, b in setup_pairs),
              "wall_s": wall_ratio, "sim_req_per_s": 1.0 / wall_ratio}
    for metric, key in (("decide_us_p50", "unit_p50_us"), ("decide_us_p99", "unit_p99_us")):
        per_replay = [getattr(mine, key)[k] / getattr(theirs, key)[k]
                      for mine, theirs in pairs for k in getattr(mine, key)
                      if k in getattr(theirs, key)]
        ratios[metric] = statistics.median(per_replay) if per_replay else wall_ratio
    metrics = {key: nominal[key] * ratios[key] for key in NOMINAL_KEYS}
    metrics["peak_rss_mb"] = peak
    raw = {
        "ratios_to_baseline": ratios,
        "checkout_raw_medians": {
            "setup_s": statistics.median(s for s, _ in setup_pairs),
            "wall_s": statistics.median(mine.wall for mine, _ in pairs),
            "decide_us_p50": statistics.median(decide_us(m, "unit_p50_us") for m, _ in pairs),
            "decide_us_p99": statistics.median(decide_us(m, "unit_p99_us") for m, _ in pairs),
        },
        "pairs": [{"checkout_wall_s": mine.wall, "baseline_wall_s": theirs.wall,
                   "checkout_units_s": mine.units, "baseline_units_s": theirs.units,
                   "checkout_p50_us": mine.unit_p50_us, "baseline_p50_us": theirs.unit_p50_us,
                   "checkout_p99_us": mine.unit_p99_us, "baseline_p99_us": theirs.unit_p99_us}
                  for mine, theirs in pairs],
        "setup_pairs_s": setup_pairs,
    }
    return metrics, raw


def per_layer(untraced, traced, tracer) -> tuple[dict, dict]:
    import tracer as trace_mod
    from workloads import COMPARE_WORKERS, STRATEGIES

    main_chunk = tracer.chunk()
    worker_chunks = [c for r in traced for c in r.chunks]
    stats = trace_mod.aggregate([main_chunk] + worker_chunks)
    counters: dict[str, float] = {}
    for chunk in [main_chunk] + worker_chunks:
        for key, value in chunk["counters"].items():
            counters[key] = counters.get(key, 0) + value
    n = len(traced)

    def span(name, key):
        return stats.get(name, {}).get(key, 0) / n

    metrics = {f"{name}.{suffix}": span(name, suffix)
               for name, suffixes in _TIMED.items() for suffix in suffixes}
    for key in ("simulator.completed_req", "simulator.traces", "sampler.releases.criteria",
                "sampler.releases.timeout", "sampler.baselines", "report.bytes_written"):
        metrics[key] = counters.get(key, 0) / n
    decisions = sum(stats.get(f"strategies.decide.{k}", {}).get("calls", 0) for k in STRATEGIES)
    accepted = sum(counters.get(f"strategies.decide.{k}.accepted", 0) for k in STRATEGIES)
    metrics["strategies.accept_ratio"] = accepted / decisions if decisions else 0.0
    evaluations = stats.get("sampler.evaluate_sample", {}).get("calls", 0)
    released = (counters.get("sampler.releases.criteria", 0)
                + counters.get("sampler.releases.timeout", 0))
    metrics["sampler.release_ratio"] = released / evaluations if evaluations else 0.0
    first = untraced[0].outputs
    metrics["report.adp_rmse"] = first.get("adp_rmse", 0.0)
    metrics["report.adp_tr_loss_pct"] = first.get("adp_tr_loss_pct", 0.0)
    pool_wait = stats.get("cli.main", {}).get("self_s", 0.0)
    worker_busy = sum(trace_mod.top_level_seconds(c) for c in worker_chunks)
    metrics["cli.pool_wait_s"] = pool_wait / n
    metrics["cli.pool_utilization"] = (
        worker_busy / (COMPARE_WORKERS * pool_wait) if pool_wait and worker_chunks else 0.0)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in stats.items() if name.startswith(layer + ".")) / n
    untraced_wall = statistics.median(r.wall for r in untraced)
    overhead = statistics.median(r.wall for r in traced) - untraced_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced_wall
    details = {"spans": stats, "counters": counters, "traced_passes": n,
               "traced_wall_s": [r.wall for r in traced],
               "untraced_wall_s": [r.wall for r in untraced],
               "bench.pass.self_s": span("bench.pass", "self_s")}
    return metrics, {"chunks": [main_chunk] + worker_chunks, **details}


def import_packages():
    """The checkout's ``reprtrace`` and the frozen baseline, each with its CLI module."""
    import importlib

    for path, _ in PACKAGES.values():
        sys.path.insert(0, str(path))
    packages = []
    for path, name in PACKAGES.values():
        pkg = importlib.import_module(name)
        importlib.import_module(name + ".cli")
        if not Path(pkg.__file__).resolve().is_relative_to(path.resolve()):
            raise ImportError(f"{name} was imported from {pkg.__file__}, not {path}")
        packages.append(pkg)
    return packages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for path, name in PACKAGES.values():
        if not (path / name / "__init__.py").is_file():
            print(f"error: no {name} package under {path}", file=sys.stderr)
            return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    subject, baseline = import_packages()
    import workloads

    reference = json.loads(REFERENCE.read_text())
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT))
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, tmp, workloads.Checker(reference))
        if args.trace:
            import tracer as trace_mod

            spill = tmp / "spans"
            spill.mkdir()
            tracer = trace_mod.Tracer(spill)
            untraced, traced = run_traced(work, args.seconds, subject, tracer)
            checked = untraced + traced
            metrics, details = per_layer(untraced, traced, tracer)
            units = PER_LAYER
            spans_path = OUT / f"spans-{args.workload}-s{args.seed}.bin"
            trace_mod.write_spans(spans_path, details.pop("chunks"))
            details["spans_file"] = spans_path.name
        else:
            setup_pairs = measure_setup(args.workload)
            checked, pairs, peak = run_pairs(work, args.seconds, subject, baseline)
            metrics, details = end_to_end(pairs, setup_pairs,
                                          reference["nominal"][args.workload], peak)
            units = END_TO_END
        facts = machine_facts(args.workload, work.inputs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    failures = [f for r in checked for f in r.failures]
    outputs = dict(checked[0].outputs)
    summary = {
        "facts": facts,
        "passes_checked": len(checked),
        "failed_ops_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "outputs": outputs,
        "layer_moves": MOVES,
        "nominal_baseline": reference["nominal"][args.workload],
        "metrics": {k: {"value": metrics[k], "unit": units[k][0], "better": units[k][1]}
                    for k in units},
        **details,
    }
    result_path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(summary, indent=1, default=str) + "\n")

    for key, value in facts.items():
        print(f"# {key}: {value}")
    print(f"# checked passes: {len(checked)}  operations: {attempted} attempted, "
          f"{failed} failed (failed_ops_frac = {summary['failed_ops_frac']})")
    for failure in failures[:5]:
        print(f"# FAILED {failure}")
    for key, value in outputs.items():
        print(f"# output {key} = {value}")
    for key, (unit, better) in units.items():
        print(f"{key} = {metrics[key]:.6g} {unit} ({better} is better)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
