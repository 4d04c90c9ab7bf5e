"""The adaptive monitoring engine.

Three cooperating activities run per monitoring cycle:

* a per-request sampling decision that keeps the sample's request-type
  distribution aligned with the population's,
* a periodic rate adaptation that compares current response times against
  a reference history (with and without monitoring) and collects
  performance baselines when degradation is detected,
* a continuous sample evaluation that releases the cycle's sample once it
  is large enough, performance-equivalent to the population and balanced,
  under a confidence requirement that decays as the cycle ages.
"""

from __future__ import annotations

import math
from collections import deque
from math import inf
from operator import attrgetter
from typing import Iterable, Optional

from .errors import InsufficientDataError, ParameterError
from .model import (
    RELEASE_CRITERIA,
    RELEASE_TIMEOUT,
    FrequencyTable,
    PerformanceRecord,
    ReleasedSample,
    RequestEvent,
    SamplerConfig,
    TraceColumns,
    TraceRecord,
    _Record,
)
from .stats import (
    cochran_sample_size,
    corrected_sample_size,
    decayed_confidence,
    infinite_sample_size,
    normal_quantile,
    one_sample_t_p_value_from_stats,
    paired_t_test,
    student_t_log_p_bound,
)

__all__ = [
    "SamplerEvent",
    "AdaptiveMonitor",
    "select_normal_behavior",
    "perf_diff",
    "ADAPT_ALPHA",
]

# Significance level of the adaptation equality test.
ADAPT_ALPHA = 0.05

# The normal quantile diverges at confidence 1, so the evaluation feeds a
# capped value into the sample-size formula; at the cap the required size
# exceeds any sample a fresh cycle can hold.
_CONF_CAP = 1.0 - 1e-6

# Safety margins of the bounds that settle evaluation verdicts early: far
# above the float error of the quantile, the size formula and the p-value,
# far below anything that could move a verdict.
_SIZE_BELOW = 1.0 - 1e-9
_SIZE_ABOVE = 1.0 + 1e-9
_LOG_P_MARGIN = 1e-6


class SamplerEvent(_Record):
    """Structured engine event: rate-changed, baseline-started/-ended, sample-released."""

    __slots__ = ("kind", "time", "data")

    def __init__(self, kind: str, time: float, data: dict | None = None) -> None:
        self.kind, self.time, self.data = kind, time, {} if data is None else data


def select_normal_behavior(
    perf_ref: Iterable[PerformanceRecord], me_flag: bool
) -> Optional[PerformanceRecord]:
    """The reference record at the median throughput for one monitoring state.

    Only records whose monitoring flag matches are considered.  With an
    even number of candidates the record with the higher of the two middle
    throughputs is chosen; ties keep insertion order.  Returns ``None``
    when no record matches.
    """
    matching = [rec for rec in perf_ref if rec.monitoring_enabled == me_flag]
    if not matching:
        return None
    matching.sort(key=attrgetter("rps"))
    return matching[len(matching) // 2]


def perf_diff(current: PerformanceRecord, normal: PerformanceRecord) -> float:
    """Relative response-time difference of ``current`` against ``normal``.

    Sums per-type mean response times over the request types both records
    share: positive means slower than normal, negative faster.
    """
    common = sorted(set(current.mean_rt) & set(normal.mean_rt))
    if not common:
        raise InsufficientDataError("records share no request types")
    normal_sum = sum(normal.mean_rt[t] for t in common)
    if normal_sum == 0:
        raise InsufficientDataError("reference record has zero total response time")
    return _relative_diff(sum(current.mean_rt[t] for t in common), normal_sum)


def _relative_diff(current_sum: float, normal_sum: float) -> float:
    # perf_diff's formula, on sums over the shared types in sorted order.
    return current_sum / normal_sum - 1.0


class AdaptiveMonitor:
    """Shared state and operations of the adaptive sampling process.

    ``decide`` may be called from request-processing contexts; ``on_tick``
    from exactly one periodic context.  This implementation assumes the
    CPython execution model of the simulator (single logical timeline);
    rate reads and table mutations are single attribute operations.
    """

    def __init__(self, config: SamplerConfig) -> None:
        self.config = config
        self._traces: Optional[TraceColumns] = None
        self.rate: float = config.max_rate
        self.monitoring_enabled: bool = True
        self.baseline_until: Optional[float] = None
        self.perf_ref: deque[PerformanceRecord] = deque(maxlen=config.history_capacity)
        self.events: list[SamplerEvent] = []
        self._last_tick: float = -math.inf
        # Cycle ages [start, end] of the current size-check window, the
        # n_inf at the z of each end of it and the t-bound's threshold at its
        # far end; empty until the first evaluation opens one.
        self._window_start: float = math.inf
        self._window_end: float = -math.inf
        self._n_inf_high: float = 0.0
        self._n_inf_low: float = 0.0
        self._log_p_threshold: float = -math.inf
        self._start_cycle(0, 0.0)

    def _start_cycle(self, index: int, start: float) -> None:
        """Begin cycle ``index`` at ``start`` with fresh tables, traces and sums."""
        self.population = FrequencyTable()
        self.sample = FrequencyTable()
        self.sample_traces: list[TraceRecord] = []
        self.population_rt_sum: float = 0.0
        # Running moments of the sampled response times (Welford), so the
        # per-accept evaluation stays O(#types).
        self._sample_rt_mean: float = 0.0
        self._sample_rt_m2: float = 0.0
        self.cycle_index = index
        self.cycle_start = start

    def bind_traces(self, traces: TraceColumns) -> None:
        """Keep this monitor's accepts in ``traces`` instead of in records.

        From now on ``decide`` keeps no reference to its request: the caller
        appends a row for each accept, stamped with ``cycle_index``, before
        it calls ``evaluate_sample``, and a release's ``traces`` is a view of
        the last ``sample.total`` rows.  ``ParameterError`` for a monitor
        that is bound already, or has counted a request or released a cycle.
        """
        if self._traces is not None or self.cycle_index or self.population.total:
            raise ParameterError("only a monitor that has not been used can be bound to traces")
        self._traces = traces

    # --- activity 1: sampling decision ------------------------------------

    def decide(self, request: RequestEvent, rng) -> bool:
        """Decide whether ``request`` gets traced; population is always counted.

        In order: the request is counted into the population; with
        monitoring enabled one uniform is drawn from ``rng`` and passes
        below the current rate (``ParameterError`` for a rate outside
        [0, 1]); only then are the shares read.  A passing request is
        traced unless its type is already over-represented in the sample:
        its population share before this request is below its sample share
        minus epsilon.  An empty sample accepts anything.

        Only ``request.type_id`` and ``request.response_time`` are read; an
        accept is kept as ``TraceRecord(request, cycle_index)`` in
        ``sample_traces`` unless the monitor is bound (``bind_traces``).  A
        response time that is not finite and >= 0 (``RequestEvent``'s rule)
        raises ``ParameterError`` before anything is counted.
        """
        response_time = request.response_time
        # Chained comparisons are False for NaN, so they reject it too.
        if not 0.0 <= response_time < inf:
            raise ParameterError(f"response_time must be finite and >= 0, got {response_time}")
        type_id = request.type_id
        population = self.population
        counts = population.counts
        count = counts.get(type_id, 0) + 1
        counts[type_id] = count
        total = population.total + 1
        population.total = total
        self.population_rt_sum += response_time
        if not self.monitoring_enabled:
            return False
        rate = self.rate
        if not 0.0 <= rate <= 1.0:
            raise ParameterError(f"probability must be in [0, 1], got {rate}")
        if not rng.random() < rate:
            return False
        sample = self.sample
        sample_total = sample.total
        sample_counts = sample.counts
        sample_count = sample_counts.get(type_id, 0)
        if sample_total > 0:
            # The sample is drawn from the population, so before this request
            # the population held at least one; these are the integers of
            # the pre-request share, and so its float.
            pop_prop = (count - 1) / (total - 1)
            samp_prop = sample_count / sample_total
            if pop_prop < samp_prop - self.config.epsilon:
                return False
        sample_counts[type_id] = sample_count + 1
        n = sample_total + 1
        sample.total = n
        if self._traces is None:
            self.sample_traces.append(TraceRecord(request, self.cycle_index))
        delta = response_time - self._sample_rt_mean
        self._sample_rt_mean += delta / n
        self._sample_rt_m2 += delta * (response_time - self._sample_rt_mean)
        return True

    # --- activity 2: rate adaptation ---------------------------------------

    def adapt_rate(self, current: PerformanceRecord, now: float) -> float:
        """One adaptation step; returns the (possibly updated) rate.

        The current interval is recorded, compared against the reference
        record for its monitoring state, and the rate moves proportionally
        to the observed difference: up (capped at max_rate) while
        performance is similar or better with monitoring on; a baseline
        window starts when monitoring coincides with significant slowdown;
        down (floored at min_rate) when the slowdown persists even without
        monitoring, i.e. it is workload-induced.  ``now`` must be finite: a
        call with any other leaves the monitor as it was.
        """
        if not -inf < now < inf:
            raise ParameterError(f"now must be finite, got {now}")
        self.perf_ref.append(current)
        normal = select_normal_behavior(self.perf_ref, current.monitoring_enabled)
        if normal is None:
            return self.rate
        common = sorted(set(current.mean_rt) & set(normal.mean_rt))
        if len(common) < 2:
            return self.rate
        normal_rts = [normal.mean_rt[t] for t in common]
        current_rts = [current.mean_rt[t] for t in common]
        normal_sum = sum(normal_rts)
        if normal_sum == 0:
            return self.rate
        equal = paired_t_test(normal_rts, current_rts, ADAPT_ALPHA)
        diff = _relative_diff(sum(current_rts), normal_sum)
        old_rate = self.rate
        if self.monitoring_enabled:
            if equal or diff <= 0:
                self.rate = min(self.rate + self.rate * abs(diff), self.config.max_rate)
            else:
                self._start_baseline(now)
        else:
            if not equal and diff > 0:
                self.rate = max(self.rate - self.rate * abs(diff), self.config.min_rate)
        if self.rate != old_rate:
            self.events.append(
                SamplerEvent("rate-changed", now, {"old": old_rate, "new": self.rate})
            )
        return self.rate

    def _start_baseline(self, now: float) -> None:
        self.monitoring_enabled = False
        self.baseline_until = now + self.config.baseline_duration
        self.events.append(
            SamplerEvent("baseline-started", now, {"until": self.baseline_until})
        )

    # --- activity 3: sample evaluation --------------------------------------

    def evaluate_sample(self, now: float) -> Optional[ReleasedSample]:
        """Release the sample when representative (or the cycle timed out).

        Three criteria, each loosened by the decaying confidence ``conf``:
        the sample must exceed Cochran's minimum size for the population,
        its response times must be statistically equal to the population
        mean at significance 0.05 * conf, and every type's sample share
        must be within (1 - conf) + epsilon of its population share.

        Most calls are settled by two bounds that give the exact verdict
        without the normal quantile or the incomplete beta; only calls the
        bounds leave open run the exact statistics:

        * size: the Cochran size is non-decreasing in z, and z depends on
          the cycle age alone and falls as it grows, so the sizes at the z
          of either end of a window of ages (``adaptation_frequency`` long
          but ending by ``max_cycle_length``, reopened when the age leaves
          it) bracket the exact size for the live population count.  Below
          the bracket the sample is certainly too small, above it certainly
          large enough.
        * t-test: ``student_t_log_p_bound`` is a Mills-ratio upper bound on
          the p-value, so when it lies below the threshold the sample
          certainly fails.  It is compared with the threshold at the
          confidence of the window's far end: the confidence falls with
          age, so that threshold is never above the live one, and a bound
          below it is below the live one too.  Only a call the bound leaves
          open computes the live confidence.

        The n_inf at the z of each window end, and the threshold at its far
        end, are computed once, from ``config``, when the window opens;
        ``now`` must be finite and must not precede the cycle start.
        """
        if not -inf < now < inf:
            raise ParameterError(f"now must be finite, got {now}")
        age = now - self.cycle_start
        if age < 0.0:
            raise ParameterError(
                f"evaluation at {now} precedes the cycle start {self.cycle_start}"
            )
        cfg = self.config
        if age >= cfg.max_cycle_length:
            conf = decayed_confidence(age, cfg.max_cycle_length)
            return self._release(now, RELEASE_TIMEOUT, conf)
        n = self.sample.total
        population_size = self.population.total
        if population_size == 0 or n == 0:
            return None
        if not self._exceeds_min_size(n, population_size, age):
            return None
        if n < 2:
            return None
        population_mean = self.population_rt_sum / population_size
        mean, m2 = self._sample_rt_mean, self._sample_rt_m2
        if m2 > 0.0:
            # The statistic exactly as one_sample_t_p_value_from_stats forms it.
            t = (mean - population_mean) / math.sqrt(m2 / (n - 1) / n)
            # _exceeds_min_size has put age inside the window.
            if student_t_log_p_bound(t, n - 1) < self._log_p_threshold:
                return None
        conf = decayed_confidence(age, cfg.max_cycle_length)
        p_value = one_sample_t_p_value_from_stats(n, mean, m2, population_mean)
        if not p_value > ADAPT_ALPHA * conf:
            return None
        margin = (1.0 - conf) + cfg.epsilon
        # Both shares as FrequencyTable.proportion forms them; both totals are > 0.
        sample_count = self.sample.counts.get
        for type_id, count in self.population.counts.items():
            if abs(count / population_size - sample_count(type_id, 0) / n) > margin:
                return None
        return self._release(now, RELEASE_CRITERIA, conf)

    def _exceeds_min_size(self, n: int, population_size: float, age: float) -> bool:
        """``n > cochran_sample_size(...)`` at cycle ``age``, settled by the
        window's bracket when it is certain."""
        if not self._window_start <= age <= self._window_end:
            self._open_window(age)
        if n < corrected_sample_size(self._n_inf_low, population_size) * _SIZE_BELOW:
            return False
        if n > corrected_sample_size(self._n_inf_high, population_size) * _SIZE_ABOVE:
            return True
        cfg = self.config
        conf = decayed_confidence(age, cfg.max_cycle_length)
        return n > cochran_sample_size(min(conf, _CONF_CAP), cfg.variability_p, cfg.margin_e,
                                       population_size)

    def _open_window(self, age: float) -> None:
        # z depends on the age alone, so a window stays valid across releases.
        # It ends by max_cycle_length, or at once when opened past it:
        # evaluations from that age on release on timeout, and far past it the
        # confidence underflows to 0, which normal_quantile rejects.
        cfg = self.config
        length = cfg.max_cycle_length
        end = min(age + cfg.adaptation_frequency, max(age, length))
        self._window_start = age
        self._window_end = end
        p, e = cfg.variability_p, cfg.margin_e
        conf_end = decayed_confidence(end, length)
        z_high = normal_quantile(min(decayed_confidence(age, length), _CONF_CAP))
        z_low = normal_quantile(min(conf_end, _CONF_CAP))
        self._n_inf_high = infinite_sample_size(z_high, p, e)
        self._n_inf_low = infinite_sample_size(z_low, p, e)
        self._log_p_threshold = math.log(ADAPT_ALPHA * conf_end) - _LOG_P_MARGIN

    def _release(self, now: float, reason: str, conf: float) -> ReleasedSample:
        total = self.population.total
        population_mean = self.population_rt_sum / total if total else 0.0
        traces = self._traces
        if traces is None:
            traces = self.sample_traces
        else:
            rows = len(traces)
            traces = traces.view(rows - self.sample.total, rows)
        released = ReleasedSample(
            traces=traces,
            population_stats=self.population,
            sample_stats=self.sample,
            cycle_length=now - self.cycle_start,
            confidence_at_release=conf,
            population_mean_rt=population_mean,
            reason=reason,
            cycle_index=self.cycle_index,
            released_at=now,
        )
        self.events.append(
            SamplerEvent(
                "sample-released",
                now,
                {
                    "reason": reason,
                    "cycle_index": self.cycle_index,
                    "size": released.sample_stats.total,
                },
            )
        )
        # Wholesale swap: the released sample keeps the old tables, the new
        # cycle starts with fresh ones.
        self._start_cycle(self.cycle_index + 1, now)
        return released

    # --- periodic driver -----------------------------------------------------

    def on_tick(self, now: float, current: PerformanceRecord) -> Optional[ReleasedSample]:
        """Periodic step: expire baselines, adapt the rate, enforce the timeout.

        ``now`` must be finite and must not precede the previous tick's.
        """
        if not -inf < now < inf:
            raise ParameterError(f"now must be finite, got {now}")
        if now < self._last_tick:
            raise ParameterError(f"tick at {now} precedes the previous tick at {self._last_tick}")
        self._last_tick = now
        if self.baseline_until is not None and now >= self.baseline_until:
            self.monitoring_enabled = True
            self.baseline_until = None
            self.events.append(SamplerEvent("baseline-ended", now, {}))
        self.adapt_rate(current, now)
        if now - self.cycle_start >= self.config.max_cycle_length:
            return self.evaluate_sample(now)
        return None

    def drain_events(self) -> list[SamplerEvent]:
        drained = self.events
        self.events = []
        return drained
