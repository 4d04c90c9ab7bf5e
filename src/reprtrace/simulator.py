"""Deterministic discrete-time model of a request-serving application.

``offered_stream`` draws, for each simulated second, an "offered" stream of
requests (types, base service times, memory measurements) sized by the
untraced service budget of the scheduled users, and packs each second into
one ``array`` per column.  A ``Simulation`` serves one strategy on such a
stream, numbering the seconds in the order served: it completes the prefix
of each second whose contention-scaled service times (plus a per-trace
recording cost) fill the budget, so tracing overhead shows up as lost
throughput and inflated response times while the offered stream itself
stays identical across strategies for a fixed seed.

The offered stream is defined by the draw inlined in ``offered_stream``:
the Kinderman-Monahan loop of ``random.Random.normalvariate`` followed by
``exp``.  Its values equal ``random.Random.lognormvariate`` on CPython
3.10-3.13, whose ``normalvariate`` source is the same in all four versions;
the tests check the equality on the running interpreter, and CI runs them
on all four.

``run_matrix`` serves every run from the seed's tape: the offered stream's
packed seconds, kept, which each run reads through a fresh ``zip``.  The
tape is memoized per process, one entry keyed by the value of (model,
workload, seed), so runs on one seed draw it once; the last tape (about 22
bytes a request, 2.1 MB on the default scenario) stays alive after its
runs, as does any tape a kept run was served.  Runs are yielded one at a
time; only the yielded run and the packed stream stay alive between them.

A run keeps neither its completed requests nor its traces as objects.
``Simulation`` serves two families of strategy, with one loop each in
``step``, and refuses any other at construction.  A ``RateStrategy`` (INV,
UNI, FUM, NOM, or a subclass) gets one draw at its ``rate`` per request.  An
``AdaptiveStrategy`` (ADP, or a subclass) is served by its monitor, bound
to the run's columns and asked ``AdaptiveMonitor.decide`` with one reused
holder of the request's type id and response time; each released cycle's
``traces`` is a view of that cycle's rows.  Neither builds an object per
request: each trace is appended to the run's ``TraceColumns`` (start,
cycle index, type index, response time and memory) and its request's
position to ``ServedEvents.traced_positions``, and no strategy's
``decide`` is called.  ``RunResult.traces`` rebuilds each ``TraceRecord``
from the columns when it is read, and ``RunResult.events`` is a
``ServedEvents`` view that rebuilds each event from the offered rows the
run was served, the per-second slowdown and the traced positions; both
are bit for bit what ``step`` served.  Every served request passes
``RequestEvent``'s rule, checked once per second rather than per row: a
second ``offered_stream`` packed passes as a whole when its largest base
time stays finite once slowed, and any other second is scanned for its
first bad row.  Only the rows before that row are served, and if they
leave budget for it, it raises a ``ParameterError`` naming its second,
under every strategy.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from math import exp, inf, log, nan
from random import NV_MAGICCONST
from typing import Iterable, Iterator, Optional

from .errors import ParameterError
from .model import (
    PerformanceRecord,
    RequestEvent,
    ReleasedSample,
    SamplerConfig,
    TraceColumns,
    _check_finite,
    _RebuiltSequence,
)
from .sampler import SamplerEvent
from .strategies import AdaptiveStrategy, RateStrategy, StrategyKind, make_strategy

__all__ = [
    "RequestTypeSpec",
    "Stationary",
    "Seasonal",
    "Burst",
    "WorkloadSpec",
    "AppModel",
    "SecondStats",
    "RunResult",
    "ServedEvents",
    "users_at",
    "offered_stream",
    "Simulation",
    "run_scenario",
    "run_matrix",
]


@dataclass(frozen=True)
class RequestTypeSpec:
    """Shape of one request type: popularity, timing and memory footprint."""

    type_id: str
    weight: float
    base_rt: float
    rt_dispersion: float
    base_mem: float
    mem_dispersion: float

    def __post_init__(self) -> None:
        if not self.type_id:
            raise ValueError("type_id must be non-empty")
        _check_finite(self)
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.base_rt <= 0:
            raise ValueError(f"base_rt must be positive, got {self.base_rt}")
        if self.base_mem <= 0:
            raise ValueError(f"base_mem must be positive, got {self.base_mem}")
        if self.rt_dispersion < 0 or self.mem_dispersion < 0:
            raise ValueError("dispersions must be >= 0")


def _check_users(name: str, users: int) -> None:
    # An int, not a bool or a float: the tape memo compares segments by ==,
    # so a 5.0 would be served 5's tape and leak its type into a later run.
    if isinstance(users, bool) or not isinstance(users, int):
        raise ValueError(f"{name} must be an integer, got {users!r}")
    if users < 1:
        raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class Stationary:
    users: int
    duration: float

    def __post_init__(self) -> None:
        _check_users("users", self.users)
        _check_finite(self)
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class Seasonal:
    base_users: int
    amplitude: float
    period: float
    duration: float

    def __post_init__(self) -> None:
        _check_users("base_users", self.base_users)
        _check_finite(self)
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class Burst:
    base_users: int
    peak_users: int
    at: float
    width: float
    duration: float

    def __post_init__(self) -> None:
        _check_users("base_users", self.base_users)
        _check_users("peak_users", self.peak_users)
        _check_finite(self)
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if not 0 <= self.at <= self.duration:
            raise ValueError("burst center must lie within the segment")


Segment = Stationary | Seasonal | Burst

# Bounded measurement interference: an affected measurement under- or
# over-counts by one of these factors; the mix is mean-preserving
# (0.5 * 2/3 + 2.0 * 1/3 = 1).
_JITTER_LOW = 0.5
_JITTER_HIGH = 2.0
_JITTER_HIGH_PROB = 1.0 / 3.0
_JITTER_PROB_CAP = 0.85


@dataclass(frozen=True)
class WorkloadSpec:
    """Ordered schedule of user-count segments.

    The simulator serves ``served_seconds`` whole seconds, dropping a
    fractional last second; a schedule shorter than one second is refused.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        # A tuple, whatever sequence was given, since the tape memo hashes it.
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("workload needs at least one segment")
        # Finite segments can still sum to inf, which has no whole seconds.
        if not self.total_duration < inf:
            raise ValueError(f"workload must last a finite time, got {self.total_duration} s")
        if self.served_seconds < 1:
            raise ValueError(f"workload must last at least 1 s, got {self.total_duration} s")

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)

    @property
    def served_seconds(self) -> int:
        """The whole seconds the simulator serves: ``int(total_duration)``."""
        return int(self.total_duration)


def users_at(spec: WorkloadSpec, t: float) -> int:
    """Scheduled number of simultaneous users at time ``t`` seconds."""
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    offset = t
    for seg in spec.segments:
        if offset < seg.duration:
            if isinstance(seg, Stationary):
                return seg.users
            if isinstance(seg, Seasonal):
                wave = math.sin(2.0 * math.pi * offset / seg.period)
                return round(seg.base_users + seg.amplitude * max(0.0, wave))
            half = seg.width / 2.0
            ramp = max(0.0, 1.0 - abs(offset - seg.at) / half)
            return round(seg.base_users + (seg.peak_users - seg.base_users) * ramp)
        offset -= seg.duration
    raise ParameterError(f"time {t} is beyond the workload schedule")


@dataclass(frozen=True)
class AppModel:
    """Application model: request mix, contention knee and monitoring cost.

    Above ``capacity_users`` effective load slows every request linearly
    (factor 1 + gamma * overload).  Tracing a request costs ``trace_cost``
    ms of serving capacity, and last second's tracing work counts as extra
    effective users.  The trace-recording I/O path absorbs up to
    ``trace_io_capacity`` user-equivalents of tracing work for free;
    beyond that headroom writes queue, adding ``trace_contention`` per
    unit of excess (relative to capacity) to the slowdown, so heavy
    tracing degrades a loaded application far more than a light sampler.

    Memory behavior under load: per-request memory grows with the
    scheduled user count (``mem_load_gain``, saturating at the capacity
    knee) as allocation pressure builds.  Above the knee measurements are
    frequently perturbed by concurrent allocation and garbage-collection
    activity: with probability ``mem_noise_gain`` per unit of relative
    overload (capped at 0.85) a measurement under- or over-counts by a
    bounded factor with mean one, and measurements come back invalid
    (negative) more often (``gc_negative_gain``).  The perturbations are
    mean-preserving: stress widens measurements without shifting their
    level beyond the load growth itself.
    """

    types: tuple[RequestTypeSpec, ...]
    capacity_users: float
    contention_gamma: float
    trace_cost: float
    gc_negative_prob: float
    trace_io_capacity: float = math.inf
    trace_contention: float = 0.0
    mem_load_gain: float = 0.0
    mem_noise_gain: float = 0.0
    gc_negative_gain: float = 0.0

    def __post_init__(self) -> None:
        # A tuple, whatever sequence was given, since the tape memo hashes it.
        object.__setattr__(self, "types", tuple(self.types))
        if not self.types:
            raise ValueError("model needs at least one request type")
        # +inf, the default, leaves the trace I/O path without a limit.
        _check_finite(self, but="trace_io_capacity")
        if self.capacity_users < 1:
            raise ValueError("capacity_users must be >= 1")
        if self.contention_gamma < 0:
            raise ValueError("contention_gamma must be >= 0")
        if self.trace_cost < 0:
            raise ValueError("trace_cost must be >= 0")
        if not 0 <= self.gc_negative_prob < 1:
            raise ValueError("gc_negative_prob must be in [0, 1)")
        if not self.trace_io_capacity > 0:
            raise ValueError(f"trace_io_capacity must be positive, got {self.trace_io_capacity}")
        if self.trace_contention < 0:
            raise ValueError("trace_contention must be >= 0")
        if self.mem_load_gain < 0:
            raise ValueError("mem_load_gain must be >= 0")
        if self.mem_noise_gain < 0 or self.gc_negative_gain < 0:
            raise ValueError("noise gains must be >= 0")
        type_ids = [spec.type_id for spec in self.types]
        if len(set(type_ids)) != len(type_ids):
            raise ValueError("request type ids must be unique")


@dataclass(slots=True)
class SecondStats:
    second: int
    users: int
    throughput: int
    sampling_rate: float
    monitoring_enabled: bool


@dataclass
class RunResult:
    """Everything one simulation run produced.

    ``traces`` is the run's ``TraceColumns``.  A simulated run's ``events``
    is a ``ServedEvents`` view; both rebuild their objects on read.
    """

    strategy: StrategyKind
    seed: int
    seconds: list[SecondStats]
    events: Sequence[RequestEvent]
    traces: TraceColumns
    releases: list[ReleasedSample]
    sampler_events: list[SamplerEvent]
    config: SamplerConfig


class ServedEvents(_RebuiltSequence):
    """A run's completed requests in the order served, rebuilt on each read.

    Per second it keeps what ``Simulation.step`` read to serve it (the
    offered rows, where the served prefix ends, the budget and the slowdown),
    and in ``traced_positions`` the position of each traced request, in the
    order of the run's ``TraceColumns``; ``step`` appends both.  The k-th
    second kept is the run's second k, which starts at k * 1000 ms.  An event
    is rebuilt as ``step`` computed it: the response time is
    ``base_rt * slowdown``, and the start replays the second's spent time,
    ``trace_cost`` added after each traced position.  ``len`` is O(1);
    reading a second costs that second's rows.  The view holds no reference
    to its ``Simulation``.
    """

    __slots__ = ("_type_ids", "_trace_cost", "_ends", "_seconds", "traced_positions")

    def __init__(self, type_ids: list[str], trace_cost: float) -> None:
        self._type_ids = type_ids
        self._trace_cost = trace_cost
        self._ends = array("q")    # per second: the position after its last event
        self._seconds: list[tuple] = []   # per second: (rows, budget, slowdown)
        self.traced_positions = array("q")

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _between(self, lo: int, hi: int) -> Iterator[RequestEvent]:
        """The events at positions ``lo`` to ``hi - 1``."""
        ends, traced = self._ends, self.traced_positions
        type_ids, trace_cost = self._type_ids, self._trace_cost
        second = bisect_right(ends, lo)
        position = ends[second - 1] if second else 0
        k = bisect_left(traced, position)
        next_traced = traced[k] if k < len(traced) else -1
        while position < hi:
            rows, budget, slowdown = self._seconds[second]
            end = ends[second]
            spent = 0.0
            for position, (idx, base_rt, mem) in zip(range(position, min(end, hi)), rows):
                response_time = base_rt * slowdown
                if position >= lo:
                    offset_ms = int(1000.0 * spent / budget)
                    start = second * 1000 + (offset_ms if offset_ms < 999 else 999)
                    yield RequestEvent(type_ids[idx], start, response_time, mem)
                spent += response_time
                if position == next_traced:
                    spent += trace_cost
                    k += 1
                    next_traced = traced[k] if k < len(traced) else -1
            position = end
            second += 1


# One second of an offered stream: (users, rows), each row a (type index,
# base rt, memory).  ``step`` reads the rows again when a run's events are
# read, so a one-shot iterator of rows is first stored as a list.
OfferedSecond = tuple[int, Iterable[tuple[int, float, float]]]


class _Columns:
    """One offered second's type indices, base service times and memory
    values, one typed array each, zipped into rows anew on each iteration.

    ``max_rt`` is the largest base time when every base time is finite and
    >= 0 and every memory is finite, and NaN otherwise or until ``seal``
    sets it, so that ``max_rt * slowdown < inf`` holds only if every row
    passes ``RequestEvent``'s rule at that slowdown (>= 1).
    ``offered_stream`` seals each second it packs, and ``Simulation.step``
    then checks no row of it, so a sealed second's arrays must not change.
    """

    __slots__ = ("ids", "rts", "mems", "max_rt")

    def __init__(self) -> None:
        self.ids, self.rts, self.mems = array("I"), array("d"), array("d")
        self.max_rt = nan

    def __iter__(self) -> Iterator[tuple[int, float, float]]:
        return zip(self.ids, self.rts, self.mems)

    def seal(self) -> None:
        """Set ``max_rt`` from the packed rows."""
        rts = self.rts
        # A sum is finite only if every term is, NaN included.
        if -inf < sum(rts) < inf and -inf < sum(self.mems) < inf and min(rts, default=0.0) >= 0.0:
            self.max_rt = max(rts, default=0.0)


def offered_stream(model: AppModel, workload: WorkloadSpec,
                   rng: random.Random) -> Iterator[tuple[int, _Columns]]:
    """Each second of ``workload``'s schedule as (users, offered requests).

    The requests are packed in typed arrays, with no ``len`` or indexing;
    each iteration yields them as (type index, base service time, memory).
    Each second is sealed once packed (``_Columns.seal``), so that serving
    it needs no check per row; its arrays must not change after that.
    The stream depends only on ``rng`` and the schedule, so it is identical
    across strategies.  Both lognormal draws of a request are inlined: each
    loop is ``random.Random.normalvariate``'s Kinderman-Monahan loop with the
    same ``random()`` calls and the same float operations, so every value
    equals ``lognormvariate(mu, sigma)`` bit for bit.
    """
    cum_weights = list(accumulate((spec.weight for spec in model.types), initial=0.0))[1:]
    total_weight = cum_weights[-1]
    # Per type: the parameters of its two lognormal draws, unpacked once
    # per request (the memory draw's mu is precomputed as -0.5*sigma*sigma).
    draw_params = [(spec.base_rt, spec.rt_dispersion, spec.base_mem,
                    -0.5 * spec.mem_dispersion * spec.mem_dispersion, spec.mem_dispersion)
                   for spec in model.types]
    capacity = model.capacity_users
    rand = rng.random
    for second in range(workload.served_seconds):
        users = users_at(workload, float(second))
        stress = max(0.0, users / capacity - 1.0)
        mem_level = 1.0 + model.mem_load_gain * min(1.0, users / capacity)
        budget = users * 1000.0
        neg_prob = min(0.9, model.gc_negative_prob * (1.0 + model.gc_negative_gain * stress))
        jitter_prob = min(_JITTER_PROB_CAP, model.mem_noise_gain * stress)

        rows = _Columns()
        append_id, append_rt, append_mem = rows.ids.append, rows.rts.append, rows.mems.append
        base_spent = 0.0
        while base_spent < budget:
            idx = bisect_right(cum_weights, rand() * total_weight)
            base_rt, rt_sigma, base_mem, mem_mu, mem_sigma = draw_params[idx]
            while True:
                u1 = rand()
                u2 = 1.0 - rand()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            # lognormvariate(0.0, rt_sigma) takes exp(0.0 + z * rt_sigma); adding
            # 0.0 changes at most the sign of a zero, which exp ignores.
            base_rt *= exp(z * rt_sigma)
            while True:
                u1 = rand()
                u2 = 1.0 - rand()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            mem = base_mem * mem_level * exp(mem_mu + z * mem_sigma)
            if rand() < jitter_prob:
                mem *= _JITTER_HIGH if rand() < _JITTER_HIGH_PROB else _JITTER_LOW
            else:
                rand()
            if rand() < neg_prob:
                mem = -mem
            append_id(idx)
            append_rt(base_rt)
            append_mem(mem)
            base_spent += base_rt
        rows.seal()
        yield users, rows


def _first_bad_row(rows: Iterable[tuple[int, float, float]],
                   slowdown: float) -> Optional[tuple[int, float, float]]:
    """The position, response time and memory of the first row that fails
    ``RequestEvent``'s rule at ``slowdown``, or ``None``."""
    for position, (_, base_rt, mem) in enumerate(rows):
        response_time = base_rt * slowdown
        if not (0.0 <= response_time < inf and -inf < mem < inf):
            return position, response_time, mem
    return None


class _Request:
    """The two fields of a request that ``AdaptiveMonitor.decide`` reads;
    ``Simulation.step`` reuses one holder for every request it serves ADP."""

    __slots__ = ("type_id", "response_time")


class Simulation:
    """One strategy served an offered stream; its decisions are seeded.

    ``step`` checks a second's rows by ``RequestEvent``'s rule before it
    serves any: a sealed packed second with one product, any other second
    (a list, or a one-shot iterator, listed first) by a scan for its first
    bad row.  It serves the rows before that row, in one loop for a
    ``RateStrategy`` and one for an ``AdaptiveStrategy``, and raises only
    if they leave budget for the bad row, so a bad row past the budget
    never raises.

    A second that raises (a bad row, or a strategy that raises) leaves none
    of its traces or events behind, and every later ``step`` or ``run``
    raises ``ParameterError``: the strategy has already counted part of
    that second.
    """

    def __init__(self, model: AppModel, strategy: RateStrategy | AdaptiveStrategy,
                 config: SamplerConfig, seed: int) -> None:
        if not isinstance(strategy, (RateStrategy, AdaptiveStrategy)):
            raise ParameterError(
                f"{type(strategy).__name__} is neither a RateStrategy nor an"
                " AdaptiveStrategy, so a Simulation cannot serve it")
        self.model = model
        self.strategy = strategy
        self.config = config
        self.seed = seed
        # Decisions draw from their own generator, never from the stream's.
        self.decision_rng = random.Random(f"{seed}:decide:{strategy.kind.value}")
        self._type_ids = [spec.type_id for spec in model.types]
        self._traced_ms_prev = 0.0
        # Per type index: summed response time and count since the last tick.
        self._tick_rt_sum = [0.0] * len(model.types)
        self._tick_rt_count = [0] * len(model.types)
        self._last_tick = 0.0
        self._next_tick = config.adaptation_frequency
        self._failed = False
        self.seconds: list[SecondStats] = []
        # What each run call drains from the strategy, kept for the whole run.
        self.releases: list[ReleasedSample] = []
        self.sampler_events: list[SamplerEvent] = []
        self.traces = TraceColumns(self._type_ids)
        self.events = ServedEvents(self._type_ids, model.trace_cost)
        self._request = _Request()
        if isinstance(strategy, AdaptiveStrategy):
            strategy.monitor.bind_traces(self.traces)

    def _refuse_after_failure(self) -> None:
        if self._failed:
            raise ParameterError(
                f"second {len(self.seconds)} failed, so this simulation cannot go on")

    def step(self, offered: OfferedSecond) -> SecondStats:
        """Serve the next second of an offered stream; returns the per-second
        outcome.  A second that raises is undone (see the class docstring)."""
        self._refuse_after_failure()
        traces, events = self.traces, self.events
        rows, served = len(traces), len(events._ends)
        try:
            return self._serve(offered)
        except BaseException:
            traces.truncate(rows)
            del events._ends[served:], events._seconds[served:], events.traced_positions[rows:]
            self._failed = True
            raise

    def _serve(self, offered: OfferedSecond) -> SecondStats:
        second = len(self.seconds)
        users, requests = offered
        model = self.model
        strategy = self.strategy
        rate_in_effect = strategy.rate
        monitoring_in_effect = strategy.monitoring_enabled
        capacity = model.capacity_users
        mon_load = self._traced_ms_prev / 1000.0
        u_eff = users + mon_load
        overload = max(0.0, u_eff - capacity) / capacity
        io_excess = max(0.0, mon_load - model.trace_io_capacity)
        slowdown = (
            1.0
            + model.contention_gamma * overload
            + model.trace_contention * io_excess / capacity
        )
        budget = users * 1000.0

        # RequestEvent's rule, checked once per second.  The slowdown is >= 1,
        # so a packed second whose largest base time stays finite once slowed
        # passes it row by row; any other second is scanned for its first bad
        # row, and only the rows before it are served.
        rows = requests
        bad = None
        if not (type(requests) is _Columns and requests.max_rt * slowdown < inf):
            if iter(requests) is requests:
                rows = requests = list(requests)
            bad = _first_bad_row(requests, slowdown)
            if bad is not None:
                rows = islice(requests, bad[0])

        # The strategy completes a prefix of the offered stream.  A start is
        # computed here and in ServedEvents._between only, the same way, and
        # spent adds one term at a time, in the order _between replays.
        spent = 0.0
        traced_ms = 0.0
        second_ms = second * 1000
        trace_cost = model.trace_cost
        type_ids = self._type_ids
        decision_rng = self.decision_rng
        rt_sum = self._tick_rt_sum
        rt_count = self._tick_rt_count
        events = self.events
        first = len(events)
        served_before = sum(rt_count)
        traces = self.traces
        append_position = events.traced_positions.append
        append_start = traces.starts.append
        append_cycle = traces.cycles.append
        append_type = traces.types.append
        append_rt = traces.response_times.append
        append_memory = traces.memories.append
        # One loop per family: a rate kind draws at its rate, and an
        # AdaptiveStrategy's monitor is asked with the reused holder.
        if isinstance(strategy, RateStrategy):
            rate = rate_in_effect
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(f"probability must be in [0, 1], got {rate}")
            draw = decision_rng.random
            for position, (idx, base_rt, mem) in enumerate(rows, first):
                if spent >= budget:
                    break
                response_time = base_rt * slowdown
                if draw() < rate:
                    offset_ms = int(1000.0 * spent / budget)
                    start = second_ms + (offset_ms if offset_ms < 999 else 999)
                    spent += response_time
                    spent += trace_cost
                    traced_ms += trace_cost
                    append_position(position)
                    append_start(start)
                    append_cycle(0)
                    append_type(idx)
                    append_rt(response_time)
                    append_memory(mem)
                else:
                    spent += response_time
                rt_sum[idx] += response_time
                rt_count[idx] += 1
        else:
            monitor = strategy.monitor
            monitor_decide, evaluate = monitor.decide, monitor.evaluate_sample
            request = self._request
            for position, (idx, base_rt, mem) in enumerate(rows, first):
                if spent >= budget:
                    break
                response_time = base_rt * slowdown
                request.type_id = type_ids[idx]
                request.response_time = response_time
                if monitor_decide(request, decision_rng):
                    offset_ms = int(1000.0 * spent / budget)
                    start = second_ms + (offset_ms if offset_ms < 999 else 999)
                    spent += response_time
                    spent += trace_cost
                    traced_ms += trace_cost
                    append_position(position)
                    append_start(start)
                    append_cycle(monitor.cycle_index)
                    append_type(idx)
                    append_rt(response_time)
                    append_memory(mem)
                    # The monitor releases the cycle's rows, this one included.
                    released = evaluate(start / 1000.0)
                    if released is not None:
                        strategy.add_release(released)
                else:
                    spent += response_time
                rt_sum[idx] += response_time
                rt_count[idx] += 1
        # The served prefix reached the bad row only if budget was left for it.
        if bad is not None and spent < budget:
            _, response_time, mem = bad
            raise ParameterError(
                f"second {second}: a request needs a finite response time >= 0"
                f" and finite memory, got {response_time} and {mem}")

        completed = sum(rt_count) - served_before
        events._ends.append(first + completed)
        events._seconds.append((requests, budget, slowdown))
        self._traced_ms_prev = traced_ms
        now = float(second + 1)
        if now + 1e-9 >= self._next_tick:
            elapsed = now - self._last_tick
            record = PerformanceRecord(
                rps=sum(rt_count) / elapsed if elapsed > 0 else 0.0,
                mean_rt={
                    type_ids[i]: rt_sum[i] / count
                    for i, count in enumerate(rt_count)
                    if count
                },
                monitoring_enabled=monitoring_in_effect,
            )
            strategy.on_tick(record, now)
            self._tick_rt_sum = [0.0] * len(type_ids)
            self._tick_rt_count = [0] * len(type_ids)
            self._last_tick = now
            self._next_tick += self.config.adaptation_frequency

        stats = SecondStats(
            second=second,
            users=users,
            throughput=completed,
            sampling_rate=rate_in_effect,
            monitoring_enabled=monitoring_in_effect,
        )
        self.seconds.append(stats)
        return stats

    def run(self, stream: Iterable[OfferedSecond]) -> RunResult:
        """Serve every second of ``stream`` after those served before; every
        field of this and of each earlier call's result is the whole run's."""
        self._refuse_after_failure()
        for offered in stream:
            self.step(offered)
        self.releases += self.strategy.drain_releases()
        self.sampler_events += self.strategy.drain_events()
        return RunResult(self.strategy.kind, self.seed, self.seconds, self.events, self.traces,
                         self.releases, self.sampler_events, self.config)


def run_scenario(
    model: AppModel,
    workload: WorkloadSpec,
    strategy_kind: StrategyKind | str,
    seed: int,
    config: Optional[SamplerConfig] = None,
) -> RunResult:
    """Run one (model, workload, strategy, seed) combination to completion."""
    return next(run_matrix(model, workload, [strategy_kind], seed, config))


def run_matrix(
    model: AppModel,
    workload: WorkloadSpec,
    kinds: Iterable[StrategyKind | str],
    seed: int,
    config: Optional[SamplerConfig] = None,
) -> Iterator[RunResult]:
    """Run each strategy of ``kinds`` on one seed, yielding the runs in order.

    Every run is served the seed's tape, drawn at most once.  The next run
    starts only when the caller asks for it, so a caller that drops each
    run before asking keeps one run in memory at a time.
    """
    config = config if config is not None else SamplerConfig()
    kinds = [StrategyKind(kind) for kind in kinds]
    for kind in kinds:
        run = Simulation(model, make_strategy(kind, config), config, seed).run(
            _tape(model, workload, seed))
        yield run
        del run


# Typed, as the seeds 1, 1.0 and True name different streams.
@lru_cache(maxsize=1, typed=True)
def _tape(model: AppModel, workload: WorkloadSpec, seed: int) -> tuple:
    """``seed``'s offered stream, every packed second kept."""
    return tuple(offered_stream(model, workload, random.Random(f"{seed}:workload")))
