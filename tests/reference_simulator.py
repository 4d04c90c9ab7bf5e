"""A plain reference for ``reprtrace.simulator``: the same model, written
without any of the simulator's speed-ups.

It draws each request with ``random.Random.choices`` and
``random.Random.lognormvariate``, builds a ``RequestEvent`` for every
completed request, asks every strategy's ``decide`` (the rate kinds
included), keeps the events and the records ``decide`` returns in lists,
and times ticks as whole multiples of the adaptation period.  Only the
finished run's records go into a ``TraceColumns``, through the tests'
``trace_columns`` helper.  No tape, memo, array or inlined draw: a
disagreement with ``run_scenario`` points at the simulator's fast paths.
The schedule is its own too: ``scheduled_users`` walks the segments in
place of the simulator's ``users_at``, so a fault in either one shows.

``run_parts`` gives a run's outputs as plain tuples: what the golden
digests hash, and what a run is compared to the reference by.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate

from conftest import trace_columns
from reprtrace.model import PerformanceRecord, RequestEvent, SamplerConfig
from reprtrace.simulator import (AppModel, Burst, RunResult, Seasonal, SecondStats,
                                 Stationary, WorkloadSpec)
from reprtrace.strategies import StrategyKind, make_strategy


def scheduled_users(workload: WorkloadSpec) -> list[int]:
    """The users of each whole second, segment by segment: a stationary
    segment's count; a seasonal one's base, raised on the positive half of
    its sine wave only; a burst's base, ramped linearly up to its peak at
    ``at`` and back down over ``width`` seconds."""
    users: list[int] = []
    start = 0
    for seg in workload.segments:
        end = start + seg.duration
        while len(users) < end:
            offset = len(users) - start
            if isinstance(seg, Stationary):
                users.append(seg.users)
            elif isinstance(seg, Seasonal):
                wave = math.sin(2.0 * math.pi * offset / seg.period)
                users.append(round(seg.base_users + seg.amplitude * wave) if wave > 0
                             else seg.base_users)
            else:
                assert isinstance(seg, Burst)
                distance, half = abs(offset - seg.at), seg.width / 2.0
                users.append(round(seg.base_users + (seg.peak_users - seg.base_users)
                                   * (1.0 - distance / half)) if distance < half
                             else seg.base_users)
        start = end
    return users


def offered_second(model: AppModel, users: int, rng: random.Random) -> list:
    """One second's offered requests as (type spec, base service time, memory)."""
    capacity = model.capacity_users
    stress = max(0.0, users / capacity - 1.0)
    mem_level = 1.0 + model.mem_load_gain * min(1.0, users / capacity)
    neg_prob = min(0.9, model.gc_negative_prob * (1.0 + model.gc_negative_gain * stress))
    jitter_prob = min(0.85, model.mem_noise_gain * stress)
    cum_weights = list(accumulate(spec.weight for spec in model.types))
    offered, offered_ms = [], 0.0
    while offered_ms < users * 1000.0:
        spec = rng.choices(model.types, cum_weights=cum_weights)[0]
        base_rt = spec.base_rt * rng.lognormvariate(0.0, spec.rt_dispersion)
        sigma = spec.mem_dispersion
        mem = spec.base_mem * mem_level * rng.lognormvariate(-0.5 * sigma * sigma, sigma)
        # Measurement jitter: 2x with probability 1/3, else 0.5x; one draw
        # is spent either way.
        jittered = rng.random() < jitter_prob
        factor = rng.random()
        if jittered:
            mem *= 2.0 if factor < 1.0 / 3.0 else 0.5
        if rng.random() < neg_prob:
            mem = -mem
        offered.append((spec, base_rt, mem))
        offered_ms += base_rt
    return offered


def reference_run(model: AppModel, workload: WorkloadSpec, kind: str, seed: int,
                  config: SamplerConfig) -> RunResult:
    """The run ``run_scenario(model, workload, kind, seed, config)`` should give."""
    strategy = make_strategy(kind, config)
    stream_rng = random.Random(f"{seed}:workload")
    decision_rng = random.Random(f"{seed}:decide:{StrategyKind(kind).value}")
    seconds, events, traces = [], [], []
    traced_ms_before = 0.0
    tick_sums: dict[str, float] = {}
    tick_counts: dict[str, int] = {}
    ticks, last_tick = 0, 0.0
    schedule = scheduled_users(workload)
    for second in range(int(workload.total_duration)):
        users = schedule[second]
        offered = offered_second(model, users, stream_rng)
        rate, monitoring = strategy.rate, strategy.monitoring_enabled
        load = traced_ms_before / 1000.0
        overload = max(0.0, users + load - model.capacity_users) / model.capacity_users
        io_excess = max(0.0, load - model.trace_io_capacity)
        slowdown = (1.0 + model.contention_gamma * overload
                    + model.trace_contention * io_excess / model.capacity_users)
        budget = users * 1000.0
        spent = traced_ms = 0.0
        completed = 0
        for spec, base_rt, mem in offered:
            if spent >= budget:
                break
            start = second * 1000 + min(int(1000.0 * spent / budget), 999)
            event = RequestEvent(spec.type_id, start, base_rt * slowdown, mem)
            trace = strategy.decide(event, start / 1000.0, decision_rng)
            spent += event.response_time
            if trace is not None:
                spent += model.trace_cost
                traced_ms += model.trace_cost
                traces.append(trace)
            events.append(event)
            tick_sums[spec.type_id] = tick_sums.get(spec.type_id, 0.0) + event.response_time
            tick_counts[spec.type_id] = tick_counts.get(spec.type_id, 0) + 1
            completed += 1
        traced_ms_before = traced_ms
        now = float(second + 1)
        if now + 1e-9 >= (ticks + 1) * config.adaptation_frequency:
            mean_rt = {spec.type_id: tick_sums[spec.type_id] / tick_counts[spec.type_id]
                       for spec in model.types if spec.type_id in tick_counts}
            strategy.on_tick(PerformanceRecord(sum(tick_counts.values()) / (now - last_tick),
                                               mean_rt, monitoring), now)
            tick_sums, tick_counts = {}, {}
            ticks, last_tick = ticks + 1, now
        seconds.append(SecondStats(second, users, completed, rate, monitoring))
    return RunResult(strategy=StrategyKind(kind), seed=seed, seconds=seconds, events=events,
                     traces=trace_columns(traces), releases=strategy.drain_releases(),
                     sampler_events=strategy.drain_events(), config=config)


def run_parts(result) -> tuple:
    """The digested outputs of a run, each as a list of plain tuples."""
    return (
        [(s.second, s.users, s.throughput, s.sampling_rate, s.monitoring_enabled)
         for s in result.seconds],
        [(e.type_id, e.start, e.response_time, e.memory_delta) for e in result.events],
        [(t.cycle_index, t.event.type_id, t.event.start, t.event.response_time,
          t.event.memory_delta) for t in result.traces],
        [(r.cycle_index, r.released_at, r.reason, r.confidence_at_release, r.cycle_length,
          r.population_mean_rt, [(t.cycle_index, t.event.start) for t in r.traces],
          sorted(r.sample_stats.counts.items()), sorted(r.population_stats.counts.items()))
         for r in result.releases],
        [(e.kind, e.time, sorted(e.data.items())) for e in result.sampler_events],
    )
