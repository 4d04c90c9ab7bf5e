"""Differential test of the simulator against ``tests/reference_simulator.py``.

Small random scenarios on both sides of the contention knee, with and
without a trace I/O limit, a trace cost of zero or above a request's, a
non-integer adaptation period: every strategy kind's run from
``run_matrix`` must give the reference's series, events, traces, releases
and sampler events exactly.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from reprtrace.model import SamplerConfig
from reprtrace.simulator import (AppModel, Burst, RequestTypeSpec, Seasonal, Stationary,
                                 WorkloadSpec, run_matrix)
from reprtrace.strategies import StrategyKind
from reference_simulator import reference_run, run_parts

PARTS = ("seconds", "events", "traces", "releases", "sampler events")


@st.composite
def request_types(draw):
    count = draw(st.integers(1, 6))
    zipf = draw(st.sampled_from([0.0, 1.1]))   # 0.0: uniform weights
    return tuple(
        RequestTypeSpec(f"/t{i}", weight=1.0 / (i + 1) ** zipf,
                        base_rt=draw(st.floats(20.0, 200.0)),
                        rt_dispersion=draw(st.floats(0.0, 0.6)),
                        base_mem=draw(st.floats(10.0, 500.0)),
                        mem_dispersion=draw(st.floats(0.0, 0.6)))
        for i in range(count))


models = st.builds(
    AppModel,
    types=request_types(),
    capacity_users=st.floats(2.0, 8.0),
    contention_gamma=st.floats(0.0, 1.0),
    trace_cost=st.one_of(st.just(0.0), st.floats(1.0, 30.0), st.floats(250.0, 400.0)),
    gc_negative_prob=st.floats(0.0, 0.3),
    trace_io_capacity=st.one_of(st.just(math.inf), st.floats(0.05, 2.0)),
    trace_contention=st.floats(0.0, 1.0),
    mem_load_gain=st.floats(0.0, 0.5),
    mem_noise_gain=st.floats(0.0, 1.0),
    gc_negative_gain=st.floats(0.0, 1.0),
)


@st.composite
def bursts(draw):
    duration = draw(st.integers(5, 13))
    return Burst(base_users=draw(st.integers(1, 6)), peak_users=draw(st.integers(1, 10)),
                 at=draw(st.floats(0.0, float(duration))), width=draw(st.floats(1.0, 10.0)),
                 duration=duration)


segments = st.one_of(
    st.builds(Stationary, users=st.integers(1, 10), duration=st.integers(5, 13)),
    st.builds(Seasonal, base_users=st.integers(1, 6), amplitude=st.floats(0.0, 6.0),
              period=st.floats(3.0, 20.0), duration=st.integers(5, 13)),
    bursts(),
)
# 5 to 39 simulated seconds.
workloads = st.builds(WorkloadSpec, segments=st.lists(segments, min_size=1, max_size=3))

configs = st.builds(
    SamplerConfig,
    # Summed tick by tick, 1.3 and 2.3 reach 13.000000000000002 and
    # 23.000000000000004: ticks due at a whole second within rounding.
    adaptation_frequency=st.one_of(st.sampled_from([0.5, 1.3, 1.5, 2.3]),
                                   st.floats(0.3, 3.0)),
    baseline_duration=st.floats(1.0, 4.0),
    max_cycle_length=st.floats(5.0, 30.0),
)


@settings(max_examples=50, deadline=None)
@given(model=models, workload=workloads, config=configs, seed=st.integers(0, 1000))
def test_simulator_matches_reference(model, workload, config, seed):
    kinds = [k.value for k in StrategyKind]
    for kind, run in zip(kinds, run_matrix(model, workload, kinds, seed, config), strict=True):
        want = reference_run(model, workload, kind, seed, config)
        for name, got, expected in zip(PARTS, run_parts(run), run_parts(want), strict=True):
            assert got == expected, f"{kind} {name} differ"
        assert run.events == want.events
