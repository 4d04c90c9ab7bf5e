"""The offered-stream producer against a reference that calls the stdlib draws.

``offered_stream`` inlines ``random.Random.lognormvariate``.  The
reference below is one second of its loop written with
``rng.lognormvariate``.  Driven second by second over a schedule of 1 s
segments, both must give the same users and tuples, bit for bit, and leave
their generators in the same state after every second.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprtrace.simulator import (
    _JITTER_HIGH,
    _JITTER_HIGH_PROB,
    _JITTER_LOW,
    _JITTER_PROB_CAP,
    RequestTypeSpec,
    Stationary,
    WorkloadSpec,
    offered_stream,
)
from test_simulator import small_model


def reference_offer(model, rng, users):
    """One second of offered requests, drawn with ``rng.lognormvariate``."""
    capacity = model.capacity_users
    stress = max(0.0, users / capacity - 1.0)
    mem_level = 1.0 + model.mem_load_gain * min(1.0, users / capacity)
    budget = users * 1000.0
    neg_prob = min(0.9, model.gc_negative_prob * (1.0 + model.gc_negative_gain * stress))
    jitter_prob = min(_JITTER_PROB_CAP, model.mem_noise_gain * stress)
    total_weight = sum(spec.weight for spec in model.types)
    offered = []
    base_spent = 0.0
    while base_spent < budget:
        pick = rng.random() * total_weight
        acc = 0.0
        for idx, spec in enumerate(model.types):
            acc += spec.weight
            if pick < acc:
                break
        base_rt = spec.base_rt * rng.lognormvariate(0.0, spec.rt_dispersion)
        sigma = spec.mem_dispersion
        mem = spec.base_mem * mem_level * rng.lognormvariate(-0.5 * sigma * sigma, sigma)
        if rng.random() < jitter_prob:
            mem *= _JITTER_HIGH if rng.random() < _JITTER_HIGH_PROB else _JITTER_LOW
        else:
            rng.random()
        if rng.random() < neg_prob:
            mem = -mem
        offered.append((idx, base_rt, mem))
        base_spent += base_rt
    return offered


def assert_offer_matches_reference(model, seed, user_counts):
    workload = WorkloadSpec(tuple(Stationary(users, 1) for users in user_counts))
    rng = random.Random(f"{seed}:workload")
    reference_rng = random.Random(f"{seed}:workload")
    stream = offered_stream(model, workload, rng)
    for users in user_counts:
        drawn_users, rows = next(stream)
        assert (drawn_users, list(rows)) == (users, reference_offer(model, reference_rng, users))
        assert rng.getstate() == reference_rng.getstate()
    assert next(stream, None) is None


# small_model's capacity knee is at 10 users.
BELOW_AND_ABOVE_KNEE = (1, 4, 9, 10, 11, 16, 25)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"mem_noise_gain": 0.8},
        {"gc_negative_prob": 0.3, "gc_negative_gain": 2.0},
        {"mem_load_gain": 0.4, "mem_noise_gain": 5.0, "gc_negative_prob": 0.2,
         "gc_negative_gain": 4.0},
    ],
    ids=["plain", "jitter", "negative-memory", "all"],
)
def test_offer_matches_stdlib_draws(overrides, seed):
    assert_offer_matches_reference(small_model(**overrides), seed, BELOW_AND_ABOVE_KNEE)


def test_offer_with_zero_dispersion_still_consumes_draws():
    types = (RequestTypeSpec("/flat", weight=1, base_rt=50.0, rt_dispersion=0.0,
                             base_mem=100.0, mem_dispersion=0.0),)
    model = small_model(types=types, mem_noise_gain=0.5)
    assert_offer_matches_reference(model, 3, BELOW_AND_ABOVE_KNEE)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    rt_sigma=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    mem_sigma=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    users=st.integers(min_value=1, max_value=20),
)
def test_draw_kernel_matches_lognormvariate(seed, rt_sigma, mem_sigma, users):
    types = (
        RequestTypeSpec("/x", weight=2, base_rt=40.0, rt_dispersion=rt_sigma,
                        base_mem=100.0, mem_dispersion=mem_sigma),
        RequestTypeSpec("/y", weight=1, base_rt=70.0, rt_dispersion=mem_sigma,
                        base_mem=300.0, mem_dispersion=rt_sigma),
    )
    model = small_model(types=types, mem_load_gain=0.3, mem_noise_gain=0.5, gc_negative_gain=1.0)
    assert_offer_matches_reference(model, seed, (users, users + 10))
