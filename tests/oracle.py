"""Independent reference implementation of the three sampling algorithms.

Used as the equivalence oracle: a deliberately plain, dictionary-based
re-implementation of the per-request decision, the periodic rate
adaptation and the sample evaluation, with scipy supplying every
statistical verdict.  Both this and the production engine are driven by
the same seconds of requests (the script below, or seconds recorded from a
simulator run) and the same recorded tape of uniform draws, and must
produce identical accept/reject sequences, rate trajectories and release
points.
"""

import math
import random

import scipy.stats as scipy_stats

from reprtrace.model import PerformanceRecord, RequestEvent, SamplerConfig
from reprtrace.sampler import AdaptiveMonitor


def build_script():
    """Scripted scenario: exactly 200 requests plus the adaptation ticks.

    Phases: normal load, a one-second spike (provokes a baseline whose
    window records normal unmonitored behavior), a sustained degradation
    (provokes rate decreases), recovery, then a long idle gap that crosses
    the cycle timeout, and a short coda.
    Each entry is (second_start, rt_factor, request_count, rps).
    """
    seconds = []
    for s in range(2):
        seconds.append((float(s), 1.0, 10, 10.0))
    seconds.append((2.0, 1.6, 8, 8.0))
    for s in range(3, 8):
        seconds.append((float(s), 1.0, 10, 10.0))
    for s in range(8, 15):
        seconds.append((float(s), 1.6, 8, 8.0))
    for s in range(15, 20):
        seconds.append((float(s), 1.0, 10, 10.0))
    seconds.append((199.0, 1.0, 0, 0.0))
    seconds.append((200.0, 1.0, 8, 8.0))
    seconds.append((201.0, 1.0, 8, 8.0))
    return seconds


TYPES = ("/w", "/x", "/y", "/z")
BASE_RT = {"/w": 80.0, "/x": 100.0, "/y": 120.0, "/z": 90.0}


def _requests_for(second_start, factor, count):
    requests = []
    for i in range(count):
        type_id = TYPES[(int(second_start) * 3 + i) % 4]
        wiggle = 1.0 + 0.03 * ((i * 7 + int(second_start)) % 5 - 2)
        rt = BASE_RT[type_id] * factor * wiggle
        now = second_start + (i + 1) * 0.08
        requests.append((now, type_id, rt))
    return requests


def scripted_seconds():
    """``build_script()`` as recorded seconds: (second start, requests, rps),
    with each request (now, type id, response time)."""
    return [(second_start, _requests_for(second_start, factor, count), rps)
            for second_start, factor, count, rps in build_script()]


def make_tape(length=600, seed=20240607):
    rng = random.Random(seed)
    return [rng.random() for _ in range(length)]


class _Tape:
    def __init__(self, values):
        self.values = values
        self.pos = 0

    def random(self):
        value = self.values[self.pos]
        self.pos += 1
        return value


def run_engine(config: SamplerConfig, tape_values, seconds=None):
    """Drive the production engine through ``seconds`` (default: the script)."""
    monitor = AdaptiveMonitor(config)
    tape = _Tape(tape_values)
    accepts = []
    rates = []
    releases = []
    for second_start, requests, rps in seconds if seconds is not None else scripted_seconds():
        flag = monitor.monitoring_enabled
        rt_sum = {}
        rt_count = {}
        for now, type_id, rt in requests:
            event = RequestEvent(type_id=type_id, start=int(now * 1000),
                                 response_time=rt, memory_delta=0.0)
            accepted = monitor.decide(event, tape)
            accepts.append(accepted)
            if accepted:
                released = monitor.evaluate_sample(now)
                if released is not None:
                    releases.append((len(accepts), released.reason))
            rt_sum[type_id] = rt_sum.get(type_id, 0.0) + rt
            rt_count[type_id] = rt_count.get(type_id, 0) + 1
        record = PerformanceRecord(
            rps=rps,
            mean_rt={t: rt_sum[t] / rt_count[t] for t in rt_sum},
            monitoring_enabled=flag,
        )
        released = monitor.on_tick(second_start + 1.0, record)
        if released is not None:
            releases.append((len(accepts), released.reason))
        rates.append(monitor.rate)
    return accepts, rates, releases, tape.pos


def run_oracle(config: SamplerConfig, tape_values, seconds=None):
    """Plain re-implementation of the three algorithms, driven through
    ``seconds`` (default: the script); scipy verdicts."""
    tape = list(tape_values)
    pos = 0
    rate = config.max_rate
    enabled = True
    baseline_until = None
    population = {}
    pop_total = 0
    pop_rt_sum = 0.0
    sample = {}
    sample_rts = []
    perf = []  # (rps, mean_rt, flag), most recent last, bounded
    cycle_start = 0.0
    accepts = []
    rates = []
    releases = []

    def equal_verdict(xs, ys, alpha):
        diffs = [x - y for x, y in zip(xs, ys)]
        if max(diffs) == min(diffs):
            p = 1.0 if diffs[0] == 0.0 else 0.0
        else:
            p = float(scipy_stats.ttest_ind(xs, ys, equal_var=True).pvalue)
        return p > alpha

    def release(now, reason):
        nonlocal population, pop_total, pop_rt_sum, sample, sample_rts, cycle_start
        releases.append((len(accepts), reason))
        population = {}
        pop_total = 0
        pop_rt_sum = 0.0
        sample = {}
        sample_rts = []
        cycle_start = now

    def evaluate(now):
        age = now - cycle_start
        if age >= config.max_cycle_length:
            release(now, "timeout")
            return
        if pop_total == 0 or not sample_rts:
            return
        conf = math.exp(-age / config.max_cycle_length)
        z = float(scipy_stats.norm.ppf(1.0 - (1.0 - min(conf, 1.0 - 1e-6)) / 2.0))
        n_inf = z * z * config.variability_p * (1 - config.variability_p) / (
            config.margin_e ** 2
        )
        needed = n_inf / (1.0 + (n_inf - 1.0) / pop_total)
        n = len(sample_rts)
        if not n > needed or n < 2:
            return
        if len(set(sample_rts)) == 1:
            p = 1.0 if sample_rts[0] == pop_rt_sum / pop_total else 0.0
        else:
            p = float(scipy_stats.ttest_1samp(sample_rts, pop_rt_sum / pop_total).pvalue)
        if not p > 0.05 * conf:
            return
        margin = (1.0 - conf) + config.epsilon
        for type_id, count in population.items():
            gap = abs(count / pop_total - sample.get(type_id, 0) / n)
            if gap > margin:
                return
        release(now, "criteria")

    for second_start, requests, rps in seconds if seconds is not None else scripted_seconds():
        flag = enabled
        rt_sum = {}
        rt_count = {}
        for now, type_id, rt in requests:
            pop_count_before = population.get(type_id, 0)
            pop_total_before = pop_total
            sample_count = sample.get(type_id, 0)
            sample_total = sum(sample.values())
            population[type_id] = pop_count_before + 1
            pop_total += 1
            pop_rt_sum += rt
            accepted = False
            if enabled:
                draw = tape[pos]
                pos += 1
                if draw < rate:
                    pop_prop = (
                        pop_count_before / pop_total_before if pop_total_before else 0.0
                    )
                    samp_prop = sample_count / sample_total if sample_total else 0.0
                    if sample_total == 0 or pop_prop >= samp_prop - config.epsilon:
                        accepted = True
                        sample[type_id] = sample_count + 1
                        sample_rts.append(rt)
            accepts.append(accepted)
            if accepted:
                evaluate(now)
            rt_sum[type_id] = rt_sum.get(type_id, 0.0) + rt
            rt_count[type_id] = rt_count.get(type_id, 0) + 1
        now = second_start + 1.0
        if baseline_until is not None and now >= baseline_until:
            enabled = True
            baseline_until = None
        mean_rt = {t: rt_sum[t] / rt_count[t] for t in rt_sum}
        perf.append((rps, mean_rt, flag))
        if len(perf) > config.history_capacity:
            perf.pop(0)
        matching = [(r, m) for r, m, f in perf if f == flag]
        if matching:
            matching.sort(key=lambda item: item[0])
            _normal_rps, normal_rt = matching[len(matching) // 2]
            common = sorted(set(mean_rt) & set(normal_rt))
            if len(common) >= 2 and sum(normal_rt[t] for t in common) > 0:
                xs = [normal_rt[t] for t in common]
                ys = [mean_rt[t] for t in common]
                equal = equal_verdict(xs, ys, 0.05)
                diff = sum(ys) / sum(xs) - 1.0
                if enabled:
                    if equal or diff <= 0:
                        rate = min(rate + rate * abs(diff), config.max_rate)
                    else:
                        enabled = False
                        baseline_until = now + config.baseline_duration
                else:
                    if not equal and diff > 0:
                        rate = max(rate - rate * abs(diff), config.min_rate)
        if now - cycle_start >= config.max_cycle_length:
            evaluate(now)
        rates.append(rate)
    return accepts, rates, releases, pos
