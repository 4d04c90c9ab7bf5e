"""The bounds that settle sample evaluations early give the exact verdicts.

``AdaptiveMonitor.evaluate_sample`` settles most calls from a bracket on
Cochran's size (and the floor it keeps from the bracket's low end) and a
Mills-ratio bound on the t-test p-value, and runs the
exact statistics only for the rest.  These tests hold it to the verdicts of
the exact computation: on random inputs at and around the thresholds, and
on every evaluation of a realistic stream.
"""

import math
import random
from bisect import bisect_right
from itertools import accumulate

import pytest
import scipy.stats as scipy_stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AlwaysRng, NeverRng, make_event, table_from

import reprtrace.sampler as sampler
from reprtrace import stats
from reprtrace.model import PerformanceRecord, RequestEvent, SamplerConfig, TraceRecord
from reprtrace.sampler import ADAPT_ALPHA, AdaptiveMonitor

CONFIG = SamplerConfig()
CONF_CAP = 1.0 - 1e-6


def exact_needed(age, population_size, config=CONFIG):
    conf = min(stats.decayed_confidence(age, config.max_cycle_length), CONF_CAP)
    return stats.cochran_sample_size(conf, config.variability_p, config.margin_e,
                                     population_size)


# --- size bracket -------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 3000),
    population_size=st.floats(1.0, 1e6),
    window_start=st.floats(0.0, CONFIG.max_cycle_length),
    age=st.floats(0.0, CONFIG.max_cycle_length),
)
def test_bracket_matches_exact_size_check(n, population_size, window_start, age):
    monitor = AdaptiveMonitor(CONFIG)
    monitor._open_window(window_start)
    verdict = monitor._exceeds_min_size(n, population_size, age)
    assert verdict == (n > exact_needed(age, population_size))


@settings(max_examples=300, deadline=None)
@given(
    window_start=st.floats(0.0, CONFIG.max_cycle_length),
    offset=st.floats(0.0, 1.0),
    population_size=st.floats(1.0, 1e6),
    step=st.sampled_from([-1, 0, 1, 2]),
)
def test_bracket_matches_exact_at_the_threshold_in_n(window_start, offset,
                                                     population_size, step):
    # n one below, at and just above the exact size, inside the window.
    age = window_start + offset * CONFIG.adaptation_frequency
    needed = exact_needed(age, population_size)
    n = max(1, math.floor(needed) + step)
    monitor = AdaptiveMonitor(CONFIG)
    monitor._open_window(window_start)
    assert monitor._exceeds_min_size(n, population_size, age) == (n > needed)


@settings(max_examples=300, deadline=None)
@given(
    window_start=st.floats(0.0, CONFIG.max_cycle_length),
    offset=st.floats(0.0, 1.0),
    fraction=st.floats(0.0, 0.999),
    ulps=st.sampled_from([-1, 0, 1]),
)
def test_bracket_matches_exact_at_the_threshold_in_population(window_start, offset,
                                                              fraction, ulps):
    # The population size whose exact Cochran size is n, and its neighbours
    # one ulp away: n_inf N / (N + n_inf - 1) = n at N = n (n_inf - 1) / (n_inf - n).
    age = window_start + offset * CONFIG.adaptation_frequency
    n_inf = exact_needed(age, math.inf)
    n = max(1, math.floor(1 + fraction * (n_inf - 1)))
    threshold = n * (n_inf - 1.0) / (n_inf - n)
    population_size = max(1.0, threshold + ulps * math.ulp(threshold))
    monitor = AdaptiveMonitor(CONFIG)
    monitor._open_window(window_start)
    verdict = monitor._exceeds_min_size(n, population_size, age)
    assert verdict == (n > exact_needed(age, population_size))


@settings(max_examples=200, deadline=None)
@given(
    window_start=st.floats(0.0, CONFIG.max_cycle_length),
    variability_p=st.floats(0.01, 0.99),
    margin_e=st.floats(0.01, 0.5),
)
def test_window_ends_hold_their_z(window_start, variability_p, margin_e):
    # The bracket is the size at the z of each window end, so the n_inf kept
    # for each end must be the one cochran_sample_size forms at that age, bit
    # for bit, from the z it takes there.
    config = SamplerConfig(variability_p=variability_p, margin_e=margin_e)
    monitor = AdaptiveMonitor(config)
    monitor._open_window(window_start)
    assert monitor._window_end == min(window_start + config.adaptation_frequency,
                                      config.max_cycle_length)
    ends = ((window_start, monitor._n_inf_high), (monitor._window_end, monitor._n_inf_low))
    for age, n_inf in ends:
        conf = min(stats.decayed_confidence(age, config.max_cycle_length), CONF_CAP)
        z = stats.normal_quantile(conf)
        assert n_inf == stats.infinite_sample_size(z, variability_p, margin_e)
        for population_size in (1.0, 7.0, 1e6, math.inf):
            assert (stats.corrected_sample_size(n_inf, population_size)
                    == stats.cochran_sample_size(conf, variability_p, margin_e, population_size))


@pytest.mark.parametrize("age", [0.0, 90.0, 179.0])
def test_bracket_at_the_size_formulas_limit(age):
    # A variability_p near 0 puts n_inf below 1e-16 at both window ends, where
    # the size formula divides by zero at N = 1 and corrected_sample_size gives
    # its limit.
    config = SamplerConfig(variability_p=1e-30)
    monitor = AdaptiveMonitor(config)
    monitor._open_window(age)
    for n_inf in (monitor._n_inf_low, monitor._n_inf_high):
        assert stats.corrected_sample_size(n_inf, math.inf) < 1e-16
        assert stats.corrected_sample_size(n_inf, 1.0) == 1.0
    assert monitor._exceeds_min_size(1, 1.0, age) == (1 > exact_needed(age, 1.0, config))


def test_window_far_wider_than_a_cycle_ends_at_the_cycle_timeout():
    # Over about 745 cycle lengths the confidence at the window's far end
    # underflows to 0; the window ends at max_cycle_length instead.
    config = SamplerConfig(adaptation_frequency=200000.0)
    monitor = AdaptiveMonitor(config)
    assert monitor.decide(make_event("/a", start=0), AlwaysRng())
    assert monitor.evaluate_sample(0.001) is None
    assert monitor._window_end == config.max_cycle_length


# --- t-test bound ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(3, 2000),
    age=st.floats(0.0, CONFIG.max_cycle_length, exclude_max=True),
    scale=st.one_of(st.floats(0.5, 2.0), st.floats(0.999, 1.001)),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_t_stage_verdict_matches_exact_p_value(n, age, scale, sign):
    # A sample that is its own population, so the size and balance checks
    # pass and the t-test alone decides; t is drawn around its critical value.
    conf = stats.decayed_confidence(age, CONFIG.max_cycle_length)
    t_crit = scipy_stats.t.isf(ADAPT_ALPHA * conf / 2.0, n - 1)
    mu0, m2 = 100.0, 25.0 * (n - 1)
    mean = mu0 + sign * scale * t_crit * math.sqrt(m2 / (n - 1) / n)
    monitor = AdaptiveMonitor(CONFIG)
    monitor.population = table_from({"/a": n})
    monitor.sample = table_from({"/a": n})
    monitor.sample_traces = [TraceRecord(make_event("/a", start=i), 0) for i in range(n)]
    monitor.population_rt_sum = mu0 * n
    monitor._sample_rt_mean = mean
    monitor._sample_rt_m2 = m2
    p_value = stats.one_sample_t_p_value_from_stats(n, mean, m2, mu0)
    released = monitor.evaluate_sample(age)
    assert (released is not None) == (p_value > ADAPT_ALPHA * conf)


@pytest.mark.parametrize("age", [0.0, 30.0, 178.5])
def test_bound_between_the_window_end_and_live_thresholds_runs_the_exact_test(
        monkeypatch, age):
    # The bound is compared with the threshold at the window's far end, which
    # is below the live one; a bound between the two is left to the exact
    # p-value, which rejects the sample.
    t_calls = counting(monkeypatch, "one_sample_t_p_value_from_stats")
    length = CONFIG.max_cycle_length
    end = min(age + CONFIG.adaptation_frequency, length)
    live = math.log(ADAPT_ALPHA * stats.decayed_confidence(age, length)) - sampler._LOG_P_MARGIN
    at_end = math.log(ADAPT_ALPHA * stats.decayed_confidence(end, length)) - sampler._LOG_P_MARGIN
    n, mu0, m2 = 200, 100.0, 25.0 * 199
    scale = math.sqrt(m2 / (n - 1) / n)
    # The bound falls as t grows: bisect for the t whose bound is midway.
    low, high = 0.1, 50.0
    for _ in range(200):
        mid = (low + high) / 2.0
        if stats.student_t_log_p_bound(mid, n - 1) > (live + at_end) / 2.0:
            low = mid
        else:
            high = mid
    mean = mu0 + low * scale
    monitor = AdaptiveMonitor(CONFIG)
    monitor.population = table_from({"/a": n})
    monitor.sample = table_from({"/a": n})
    monitor.population_rt_sum = mu0 * n
    monitor._sample_rt_mean = mean
    monitor._sample_rt_m2 = m2
    t = (mean - mu0) / math.sqrt(m2 / (n - 1) / n)
    assert at_end < stats.student_t_log_p_bound(t, n - 1) < live
    assert monitor.evaluate_sample(age) is None
    assert t_calls[0] == 1
    assert monitor._window_end == end
    conf = stats.decayed_confidence(age, length)
    assert not stats.one_sample_t_p_value_from_stats(n, mean, m2, mu0) > ADAPT_ALPHA * conf


# --- whole evaluations on a realistic stream -----------------------------------------

TYPES = 48
SECONDS = 120
CAPACITY = 16.0


def zipf_stream(seed):
    """Per second: the requests as ``RequestEvent``s and their per-type mean rts.

    48 Zipf(1.1)-weighted request types; 10 to 24 users over one 120 s
    wave against a contention knee at 16 users, so response times stretch
    past the knee and the sampler starts baselines and releases cycles.
    """
    rng = random.Random(f"{seed}:bounds-stream")
    types = [f"/t{i:02d}" for i in range(TYPES)]
    cum = list(accumulate(1.0 / (i + 1) ** 1.1 for i in range(TYPES)))
    base_rt = [20.0 + 60.0 * rng.random() for _ in types]
    seconds = []
    for sec in range(SECONDS):
        users = 10.0 + 14.0 * max(0.0, math.sin(2.0 * math.pi * sec / SECONDS))
        slowdown = 1.0 + 1.2 * max(0.0, users / CAPACITY - 1.0)
        count = round(15.0 * min(users, CAPACITY) * (0.95 + 0.1 * rng.random()))
        requests, rt_sum, rt_count = [], {}, {}
        for j in range(count):
            i = bisect_right(cum, rng.random() * cum[-1])
            rt = base_rt[i] * slowdown * rng.lognormvariate(0.0, 0.25)
            requests.append(RequestEvent(types[i], sec * 1000 + 1000 * j // count, rt, 100.0))
            rt_sum[types[i]] = rt_sum.get(types[i], 0.0) + rt
            rt_count[types[i]] = rt_count.get(types[i], 0) + 1
        seconds.append((requests, {t: rt_sum[t] / rt_count[t] for t in rt_sum}))
    return seconds


def exact_verdict(monitor, now):
    """The verdict of the exact evaluation, read from the monitor's state.

    "timeout" or "criteria" for a release, otherwise the check that holds
    the cycle open: "empty", "size", "t-test" or "balance".
    """
    cfg = monitor.config
    age = now - monitor.cycle_start
    if age >= cfg.max_cycle_length:
        return "timeout"
    population, sample = monitor.population, monitor.sample
    if population.total == 0 or sample.total == 0:
        return "empty"
    n = sample.total
    if not n > exact_needed(age, population.total, cfg) or n < 2:
        return "size"
    conf = stats.decayed_confidence(age, cfg.max_cycle_length)
    mu0 = monitor.population_rt_sum / population.total
    p_value = stats.one_sample_t_p_value_from_stats(
        n, monitor._sample_rt_mean, monitor._sample_rt_m2, mu0)
    if not p_value > ADAPT_ALPHA * conf:
        return "t-test"
    margin = (1.0 - conf) + cfg.epsilon
    for type_id in population.counts:
        if abs(population.proportion(type_id) - sample.proportion(type_id)) > margin:
            return "balance"
    return "criteria"


def counting(monkeypatch, name):
    calls = [0]
    original = getattr(sampler, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(sampler, name, counted)
    return calls


def evaluate_exactly(monitor, now):
    """Evaluate ``monitor`` at ``now``, check the outcome against the exact
    verdict and return that verdict."""
    expected = exact_verdict(monitor, now)
    released = monitor.evaluate_sample(now)
    if expected in ("timeout", "criteria"):
        assert released is not None and released.reason == expected
    else:
        assert released is None, expected
    return expected


def feed(monitor, offered, accepted, slower=0.0):
    """Count ``offered`` requests of one type, the first ``accepted`` of them
    drawn to be traced; response times alternate 99 and 101 ms, plus
    ``slower`` for the traced ones."""
    for i in range(offered):
        traced = i < accepted
        monitor.decide(make_event("/a", rt=99.0 + 2.0 * (i % 2) + (slower if traced else 0.0)),
                       AlwaysRng() if traced else NeverRng())


# --- size floor -----------------------------------------------------------------------


def test_size_floor_settles_a_too_small_sample_with_one_comparison(monkeypatch):
    size_calls = counting(monkeypatch, "corrected_sample_size")
    monitor = AdaptiveMonitor(CONFIG)
    feed(monitor, 1000, 10)
    assert evaluate_exactly(monitor, 0.5) == "size"
    floor = monitor._size_floor
    assert 10 < floor < exact_needed(0.5, 1000)
    # The population grows, and now moves back inside the window and before
    # its start: each call is settled by the floor, with the exact verdict.
    calls = size_calls[0]
    for now in (0.9, 0.7, 0.2, 0.0, 1.5):
        feed(monitor, 500, 1)
        assert evaluate_exactly(monitor, now) == "size"
    assert size_calls[0] == calls and monitor._size_floor == floor
    # Past the window's end the window reopens, and its floor is its own.
    feed(monitor, 500, 1)
    assert evaluate_exactly(monitor, 1.6) == "size"
    assert monitor._window_start == 1.6 and size_calls[0] > calls
    assert monitor._size_floor == (sampler._SIZE_BELOW * stats.corrected_sample_size(
        monitor._n_inf_low, monitor.population.total)) != floor
    # Enough accepts pass the size and release the cycle: the next starts
    # with no floor.
    feed(monitor, 2000, 2000)
    assert evaluate_exactly(monitor, 2.0) == "criteria"
    assert monitor._size_floor == 0.0
    feed(monitor, 1000, 10)
    assert evaluate_exactly(monitor, 2.5) == "size"
    assert 10 < monitor._size_floor < exact_needed(0.5, 1000)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(
    st.tuples(st.integers(0, 120), st.integers(0, 40), st.sampled_from([0.0, 0.2, 3.0]),
              st.one_of(st.floats(-0.6, 1.4), st.sampled_from([25.0, 200.0]))),
    min_size=1, max_size=25))
def test_size_floor_keeps_every_verdict_exact(steps):
    # The population grows by a step's requests, of which some are traced,
    # maybe slower, so that the t-test can hold a large sample back; now
    # moves by up to a window forwards or back (not before the cycle start),
    # or far enough to release a cycle or time one out.  A floor is sound
    # while it is at most the exact size at the window's far end for the
    # live population, which only grows until the cycle ends.
    monitor = AdaptiveMonitor(CONFIG)
    now = 0.0
    for offered, accepted, slower, move in steps:
        feed(monitor, offered, accepted, slower)
        now = max(monitor.cycle_start, now + move)
        evaluate_exactly(monitor, now)
        if monitor._size_floor:
            assert monitor._size_floor <= exact_needed(monitor._window_end,
                                                       monitor.population.total)


def test_every_evaluation_matches_the_exact_verdict(monkeypatch):
    size_calls = counting(monkeypatch, "cochran_sample_size")
    t_calls = counting(monkeypatch, "one_sample_t_p_value_from_stats")
    monitor = AdaptiveMonitor(SamplerConfig())
    rng = random.Random("bounds-decide")
    verdicts = {}
    for sec, (requests, mean_rt) in enumerate(zipf_stream(1)):
        monitoring = monitor.monitoring_enabled
        for event in requests:
            if not monitor.decide(event, rng):
                continue
            expected = evaluate_exactly(monitor, event.start / 1000.0)
            verdicts[expected] = verdicts.get(expected, 0) + 1
        record = PerformanceRecord(rps=float(len(requests)), mean_rt=mean_rt,
                                   monitoring_enabled=monitoring)
        monitor.on_tick(float(sec + 1), record)
    evaluations = sum(verdicts.values())
    t_stage = evaluations - verdicts.get("empty", 0) - verdicts.get("size", 0)
    assert verdicts.get("criteria", 0) >= 2
    assert any(e.kind == "baseline-started" for e in monitor.events)
    # The bounds settled most evaluations: the exact statistics ran for few.
    assert t_calls[0] <= t_stage - 1000
    assert size_calls[0] <= evaluations // 2
