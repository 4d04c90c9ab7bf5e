"""Acceptance suite: the seven exit criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Criteria 6 and 7 share one 5-strategies x 10-seeds matrix of
the default scenario, run seed by seed through ``run_matrix`` and kept as
each run's ``summarize_run`` reduction.
"""

import math
import random
import time
from dataclasses import replace
from statistics import mean

import pytest
import scipy.stats as scipy_stats

from conftest import AlwaysRng, make_event, one_sample_p, table_from
from oracle import make_tape, run_engine, run_oracle
from reprtrace.model import PerformanceRecord, SamplerConfig
from reprtrace.report import (rmse, sampling_rate_stats, summarize_run, throughput_stats,
                              type_memory_means)
from reprtrace.sampler import AdaptiveMonitor, perf_diff
from reprtrace.scenario import default_scenario
from reprtrace.simulator import (RequestTypeSpec, Stationary, WorkloadSpec, run_matrix,
                                 run_scenario)
from reprtrace.stats import (
    cochran_sample_size,
    decayed_confidence,
    normal_quantile,
    paired_t_p_value,
    paired_t_test,
)
from reprtrace.strategies import UNIFORM_RATE

SEEDS = list(range(1, 11))
STRATEGIES = ["NOM", "FUM", "UNI", "INV", "ADP"]

PAPER_NORMAL = [600.0, 780.0, 1050.0, 1100.0]
PAPER_CURRENT = [500.0, 720.0, 950.0, 1020.0]


def _criterion(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number} ({description}): " + "; ".join(failures)


# --- criterion 1: worked-example fidelity ---------------------------------


def test_criterion_1_worked_example():
    failures = []
    if paired_t_test(PAPER_NORMAL, PAPER_CURRENT, 0.05) is not True:
        failures.append("equality verdict is not 'equal'")
    normal = PerformanceRecord(rps=2500, monitoring_enabled=False, mean_rt={
        "/home": 600.0, "/vets": 780.0, "/pets": 1050.0, "/owners": 1100.0})
    current = PerformanceRecord(rps=500, monitoring_enabled=False, mean_rt={
        "/home": 500.0, "/vets": 720.0, "/pets": 950.0, "/owners": 1020.0})
    diff = perf_diff(current, normal)
    if abs(diff - (-0.0963)) > 1e-4:
        failures.append(f"perf diff {diff} not within 1e-4 of -0.0963")
    best = math.inf
    for _ in range(100):
        start = time.perf_counter()
        paired_t_test(PAPER_NORMAL, PAPER_CURRENT, 0.05)
        perf_diff(current, normal)
        best = min(best, time.perf_counter() - start)
    if best >= 1e-3:
        failures.append(f"runtime {best * 1e3:.3f} ms not under 1 ms")
    _criterion(1, "worked-example fidelity (equality verdict, -0.0963, <1ms)", failures)


# --- criterion 2: frequency-state replay -----------------------------------


def test_criterion_2_frequency_replay():
    failures = []

    def monitor_at_reference_state():
        monitor = AdaptiveMonitor(SamplerConfig(epsilon=0.0))
        monitor.population = table_from({"/home": 105, "/vets": 43, "/pets": 62, "/owners": 10})
        monitor.sample = table_from({"/home": 53, "/vets": 22, "/pets": 31, "/owners": 5})
        return monitor

    monitor = monitor_at_reference_state()
    if monitor.decide(make_event("/vets"), AlwaysRng()) is not False:
        failures.append("/vets was not rejected by the resampling condition")
    if monitor.population.count("/vets") != 44 or monitor.population.total != 221:
        failures.append("population was not updated unconditionally")
    monitor = monitor_at_reference_state()
    if monitor.decide(make_event("/owners"), AlwaysRng()) is not True:
        failures.append("/owners was not accepted")
    _criterion(2, "reference-state replay (/vets rejected, /owners accepted)", failures)


# --- criterion 3: statistical kit oracle suite ------------------------------


def test_criterion_3_statistical_oracle():
    failures = []
    rng = random.Random(7)
    corpus = []
    while len(corpus) < 50:
        n = rng.randint(3, 12)
        scale = rng.choice([1.0, 10.0, 250.0])
        xs = [rng.uniform(40, 160) * scale for _ in range(n)]
        ys = [x * rng.uniform(0.7, 1.3) + rng.uniform(-5, 5) * scale for x in xs]
        corpus.append((xs, ys))
    for xs, ys in corpus:
        expected = float(scipy_stats.ttest_ind(xs, ys, equal_var=True).pvalue)
        if abs(paired_t_p_value(xs, ys) - expected) > 1e-6:
            failures.append("paired p-value off corpus vector")
            break
    for xs, _ys in corpus:
        mu0 = mean(xs) * 1.03
        expected = float(scipy_stats.ttest_1samp(xs, mu0).pvalue)
        if abs(one_sample_p(xs, mu0) - expected) > 1e-6:
            failures.append("one-sample p-value off corpus vector")
            break
    for conf in [0.01 * k for k in range(1, 100)] + [0.995, 0.999, 0.9999]:
        expected = float(scipy_stats.norm.ppf(1 - (1 - conf) / 2))
        if abs(normal_quantile(conf) - expected) > 1e-6:
            failures.append(f"quantile off at conf={conf}")
            break
    n_inf = cochran_sample_size(0.95, 0.5, 0.05, math.inf)
    if abs(n_inf - 384.16) > 0.5:
        failures.append(f"uncorrected minimum size {n_inf}")
    n_fpc = cochran_sample_size(0.95, 0.5, 0.05, 1000)
    if abs(n_fpc - 277.7) > 0.5:
        failures.append(f"finite-population size {n_fpc}")
    _criterion(3, "statistical kit matches the reference oracle within 1e-6", failures)


# --- criterion 4: invariant property suites ---------------------------------


def test_criterion_4_invariant_suites():
    failures = []

    # rate clamping, 1000 cases
    rng = random.Random(41)
    for case in range(1000):
        config = SamplerConfig(min_rate=rng.uniform(0.01, 0.2),
                               max_rate=rng.uniform(0.3, 1.0))
        monitor = AdaptiveMonitor(config)
        monitor.rate = rng.uniform(config.min_rate, config.max_rate)
        monitor.monitoring_enabled = rng.random() < 0.5
        if not monitor.monitoring_enabled:
            monitor.baseline_until = 1e9
        for _ in range(rng.randint(1, 3)):
            monitor.perf_ref.append(PerformanceRecord(
                rps=rng.uniform(1, 1000),
                mean_rt={t: rng.uniform(10, 400) for t in "abcde"},
                monitoring_enabled=rng.random() < 0.5))
        current = PerformanceRecord(
            rps=rng.uniform(1, 1000),
            mean_rt={t: rng.uniform(10, 400) for t in "abcde"},
            monitoring_enabled=monitor.monitoring_enabled)
        rate = monitor.adapt_rate(current, now=float(case))
        if not config.min_rate <= rate <= config.max_rate:
            failures.append(f"rate {rate} escaped clamp in case {case}")
            break

    # cycle-release re-verification, 1000 generated streams
    config = SamplerConfig()
    stream_rng = random.Random(43)
    releases = 0
    for case in range(1000):
        monitor = AdaptiveMonitor(config)
        decide_rng = random.Random(10_000 + case)
        now = 0.0
        for _ in range(stream_rng.randint(30, 120)):
            now += stream_rng.uniform(0.001, 0.05)
            accepted = monitor.decide(
                make_event(stream_rng.choice(["/a", "/b"]), start=int(now * 1000),
                           rt=stream_rng.uniform(30, 170)),
                decide_rng)
            if not accepted:
                continue
            released = monitor.evaluate_sample(now)
            if released is None or released.reason != "criteria":
                continue
            releases += 1
            conf = released.confidence_at_release
            needed = cochran_sample_size(min(conf, 1 - 1e-6), config.variability_p,
                                         config.margin_e,
                                         released.population_stats.total)
            if not released.sample_stats.total > needed:
                failures.append(f"released sample below minimum size (case {case})")
            rts = [t.event.response_time for t in released.traces]
            if not one_sample_p(rts, released.population_mean_rt) > 0.05 * conf:
                failures.append(f"released sample fails equivalence (case {case})")
            margin = (1 - conf) + config.epsilon
            for type_id in released.population_stats.counts:
                gap = abs(released.population_stats.proportion(type_id)
                          - released.sample_stats.proportion(type_id))
                if gap > margin + 1e-12:
                    failures.append(f"released sample unbalanced (case {case})")
    if releases == 0:
        failures.append("no criteria releases generated")

    # frequency-table conservation, 1000 cases
    rng = random.Random(47)
    for _ in range(1000):
        table = table_from({})
        for _ in range(rng.randint(0, 80)):
            table.add(rng.choice("abcdefg"))
        if table.total != sum(table.counts.values()):
            failures.append("frequency table total diverged")
            break

    # decaying confidence monotonicity, 1000 cases
    rng = random.Random(53)
    for _ in range(1000):
        max_length = rng.uniform(1, 500)
        t1, t2 = sorted((rng.uniform(0, 900), rng.uniform(0, 900)))
        if t1 == t2:
            continue
        if not decayed_confidence(t2, max_length) < decayed_confidence(t1, max_length):
            failures.append("confidence not strictly decreasing")
            break

    # simulator determinism, 1000 generated mini-scenarios
    rng = random.Random(59)
    for case in range(1000):
        types = tuple(
            RequestTypeSpec(f"/t{i}", weight=rng.uniform(1, 5),
                            base_rt=rng.uniform(30, 90), rt_dispersion=0.2,
                            base_mem=rng.uniform(50, 400), mem_dispersion=0.2)
            for i in range(rng.randint(1, 3))
        )
        from reprtrace.simulator import AppModel

        model = AppModel(types=types, capacity_users=rng.uniform(2, 8),
                         contention_gamma=rng.uniform(0, 1),
                         trace_cost=rng.uniform(0, 20),
                         gc_negative_prob=rng.uniform(0, 0.2))
        workload = WorkloadSpec(segments=(Stationary(users=rng.randint(1, 3),
                                                     duration=2),))
        kind = rng.choice(STRATEGIES)
        seed = rng.randint(0, 10_000)
        first = run_scenario(model, workload, kind, seed)
        second = run_scenario(model, workload, kind, seed)
        if first.seconds != second.seconds or first.events != second.events:
            failures.append(f"simulation case {case} not deterministic")
            break

    # RMSE of identical means, 1000 cases + full-run self-check
    rng = random.Random(61)
    for _ in range(1000):
        means = {f"/t{i}": rng.uniform(1, 1000) for i in range(rng.randint(1, 9))}
        if rmse(means, dict(means)) != 0.0:
            failures.append("rmse of identical means not zero")
            break
    scenario = default_scenario()
    short = WorkloadSpec(segments=(Stationary(users=4, duration=20),))
    fum = run_scenario(scenario.model, short, "FUM", 77, scenario.sampler)
    ground = type_memory_means(t.event for t in fum.traces)
    if rmse(ground, dict(ground)) != 0.0:
        failures.append("full-run FUM self-RMSE not zero")

    _criterion(4, "invariant property suites (>=1000 generated cases each)", failures)


# --- criterion 5: oracle equivalence ----------------------------------------


def test_criterion_5_oracle_equivalence():
    failures = []
    config = SamplerConfig()
    tape = make_tape()
    engine = run_engine(config, tape)
    oracle = run_oracle(config, tape)
    if engine[0] != oracle[0]:
        failures.append("accept/reject sequences differ")
    if engine[1] != oracle[1]:
        failures.append("rate trajectories differ")
    if engine[2] != oracle[2]:
        failures.append("release points differ")
    if engine[3] != oracle[3]:
        failures.append("random tape consumption differs")
    if len(engine[0]) != 200:
        failures.append("script is not 200 requests")
    _criterion(5, "engine matches the independent reference on the recorded tape", failures)


# --- criteria 6 and 7: trend reproduction on the default scenario ------------


@pytest.fixture(scope="module")
def matrix():
    scenario = default_scenario()
    started = time.perf_counter()
    runs = {}
    # Seed-outer, so each seed's offered stream is drawn once for all five runs.
    for seed in SEEDS:
        for run in run_matrix(scenario.model, scenario.workload, STRATEGIES, seed,
                              scenario.sampler):
            runs[(run.strategy.value, seed)] = summarize_run(run)
            del run  # so only one run is alive while the next is simulated
    elapsed = time.perf_counter() - started
    return scenario, runs, elapsed


def test_criterion_6_trends(matrix):
    scenario, runs, elapsed = matrix
    failures = []
    if elapsed >= 120.0:
        failures.append(f"matrix took {elapsed:.1f}s (>= 2 minutes)")

    tr = {k: mean(throughput_stats(runs[(k, s)]) for s in SEEDS) for k in STRATEGIES}
    sr = {k: mean(sampling_rate_stats(runs[(k, s)]) for s in SEEDS) for k in STRATEGIES}
    fum_drop = (tr["FUM"] - tr["NOM"]) / tr["NOM"] * 100

    if not (tr["NOM"] > tr["INV"] >= tr["ADP"] > tr["UNI"] > tr["FUM"]):
        failures.append(f"throughput ordering violated: {tr}")
    if not (sr["INV"] < sr["ADP"] < sr["UNI"]):
        failures.append(f"sampling-rate ordering violated: {sr}")
    if not -35.0 <= fum_drop <= -25.0:
        failures.append(f"full-monitoring drop {fum_drop:.1f}% outside 25-35%")

    rmse_by = {k: {} for k in ["UNI", "INV", "ADP"]}
    for seed in SEEDS:
        ground = runs[("FUM", seed)].memory_means
        for kind in rmse_by:
            sampled = runs[(kind, seed)].memory_means
            covered = set(ground) & set(sampled)
            rmse_by[kind][seed] = rmse({t: ground[t] for t in covered},
                                       {t: sampled[t] for t in covered})
    mean_rmse = {k: mean(values.values()) for k, values in rmse_by.items()}
    gain_inv = 1.0 - mean_rmse["ADP"] / mean_rmse["INV"]
    print(f"\n  TR={ {k: round(v, 1) for k, v in tr.items()} }")
    print(f"  SR={ {k: round(v, 4) for k, v in sr.items()} } fum_drop={fum_drop:.1f}%")
    print(f"  RMSE means={ {k: round(v, 2) for k, v in mean_rmse.items()} } "
          f"ADP gain over INV {gain_inv:.1%}")
    if not mean_rmse["ADP"] < mean_rmse["INV"]:
        failures.append("mean RMSE(ADP) not below mean RMSE(INV)")
    if not mean_rmse["ADP"] < mean_rmse["UNI"]:
        failures.append("mean RMSE(ADP) not below mean RMSE(UNI)")
    # The paper claims that ADP's RMSE is "9--54% lower than the main
    # alternative strategy (sampling rate inversely proportional to the
    # throughput)", i.e. INV, on the aggregate.  It promises no per-seed
    # win (ADP beats INV in 38 of seeds 1-60), so the INV clause is that
    # range on the mean.  It promises nothing against UNI, and no per-seed
    # UNI win is expected: ADP never traces a larger fraction than UNI (the
    # premise asserted below), no ADP decision reads memory_delta, and its
    # baselines leave whole windows untraced, so within each type its traces
    # are a smaller random subset of the same measurements and its expected
    # error against FUM's per-type means is no lower than UNI's.
    if UNIFORM_RATE < scenario.sampler.max_rate:
        failures.append(f"UNIFORM_RATE {UNIFORM_RATE} below ADP max_rate "
                        f"{scenario.sampler.max_rate}")
    if not 0.09 <= gain_inv <= 0.54:
        failures.append(f"mean RMSE(ADP) is {gain_inv:.1%} below mean RMSE(INV), "
                        f"outside the paper's 9-54%")
    _criterion(6, "trend reproduction (RMSE / TR / SR orderings, under 2 minutes)",
               failures)


def test_criterion_7_cycle_behavior(matrix):
    scenario, runs, _elapsed = matrix
    config = scenario.sampler
    segments = scenario.workload.segments
    stationary_end = int(segments[0].duration)
    seasonal_end = stationary_end + int(segments[1].duration)
    burst_end = seasonal_end + int(segments[2].duration)

    failures = []
    total_cycles = 0
    timeouts = 0
    for seed in SEEDS:
        run = runs[("ADP", seed)]
        total_cycles += len(run.release_meta)
        timeouts += sum(1 for rel in run.release_meta if rel["reason"] == "timeout")
        rates = [s.sampling_rate for s in run.seconds]
        seasonal_rates = rates[stationary_end:seasonal_end]
        burst_rates = rates[seasonal_end:burst_end]
        start_rate = rates[stationary_end - 1]
        if min(burst_rates) < config.min_rate:
            failures.append(f"seed {seed}: burst rate below min_rate")
        if min(burst_rates) < 0.45:
            failures.append(f"seed {seed}: burst rate dipped to {min(burst_rates)}")
        if not min(seasonal_rates) <= 0.9 * start_rate:
            failures.append(f"seed {seed}: no demonstrable seasonal decrease")
    on_criteria = 1 - timeouts / total_cycles if total_cycles else 0.0
    print(f"\n  cycles={total_cycles} timeouts={timeouts} "
          f"({on_criteria:.1%} before timeout)")
    if total_cycles == 0:
        failures.append("no cycles released")
    elif on_criteria < 0.95:
        failures.append(f"only {on_criteria:.1%} of cycles released before timeout")
    _criterion(7, "cycle behavior (timeouts rare, burst-stable, seasonal decrease)",
               failures)
