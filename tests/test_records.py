"""The engine's record types behave as the same classes always have.

``RequestEvent``, ``TraceRecord``, ``PerformanceRecord``, ``SamplerConfig``,
``ReleasedSample`` and ``SamplerEvent`` are built positionally or by keyword
with the same defaults, print the same ``repr``, compare equal only to an
instance of the very same class, are unhashable, survive a ``pickle`` round
trip, run a subclass's ``__post_init__`` and raise the same errors with the
same messages.  A count is checked by one rule, so the workload segments'
user counts raise ``SamplerConfig.history_capacity``'s errors.
"""

import math
import pickle
import sys

import pytest

from reprtrace.model import (
    FrequencyTable,
    PerformanceRecord,
    ReleasedSample,
    RequestEvent,
    SamplerConfig,
    TraceRecord,
)
from reprtrace.sampler import SamplerEvent
from reprtrace.simulator import Burst, Seasonal, Stationary


def _table(counts):
    table = FrequencyTable()
    for type_id, count in counts.items():
        for _ in range(count):
            table.add(type_id)
    return table


EVENT_ARGS = ("/home", 12, 57.5, -3.25)
EVENT_REPR = "RequestEvent(type_id='/home', start=12, response_time=57.5, memory_delta=-3.25)"
RECORD_REPR = f"TraceRecord(event={EVENT_REPR}, cycle_index=2)"
# FrequencyTable compares by identity, so every ReleasedSample below shares
# these two tables.
POPULATION, SAMPLE = _table({"/home": 2}), _table({"/home": 1})

# Per type: positional arguments, the same as keywords, the repr they give and
# arguments that build an unequal instance.
CASES = {
    "RequestEvent": (
        RequestEvent,
        EVENT_ARGS,
        {"type_id": "/home", "start": 12, "response_time": 57.5, "memory_delta": -3.25},
        EVENT_REPR,
        ("/home", 12, 57.5, -3.0),
    ),
    "TraceRecord": (
        TraceRecord,
        (RequestEvent(*EVENT_ARGS), 2),
        {"event": RequestEvent(*EVENT_ARGS), "cycle_index": 2},
        RECORD_REPR,
        (RequestEvent(*EVENT_ARGS), 3),
    ),
    "PerformanceRecord": (
        PerformanceRecord,
        (12.5, {"/home": 57.5}, True),
        {"rps": 12.5, "mean_rt": {"/home": 57.5}, "monitoring_enabled": True},
        "PerformanceRecord(rps=12.5, mean_rt={'/home': 57.5}, monitoring_enabled=True)",
        (12.5, {"/home": 57.5}, False),
    ),
    "SamplerConfig": (
        SamplerConfig,
        (0.5, 0.01, 0.05, 3.0, 1.0, 180.0, 60, 0.5, 0.05),
        {},
        "SamplerConfig(max_rate=0.5, min_rate=0.01, epsilon=0.05, baseline_duration=3.0, "
        "adaptation_frequency=1.0, max_cycle_length=180.0, history_capacity=60, "
        "variability_p=0.5, margin_e=0.05)",
        (0.5, 0.01, 0.05, 3.0, 1.0, 180.0, 61),
    ),
    "ReleasedSample": (
        ReleasedSample,
        ([TraceRecord(RequestEvent(*EVENT_ARGS), 2)], POPULATION, SAMPLE, 3.5, 0.95, 57.5,
         "criteria", 2, 10.0),
        {"traces": [TraceRecord(RequestEvent(*EVENT_ARGS), 2)],
         "population_stats": POPULATION, "sample_stats": SAMPLE,
         "cycle_length": 3.5, "confidence_at_release": 0.95, "population_mean_rt": 57.5,
         "reason": "criteria", "cycle_index": 2, "released_at": 10.0},
        f"ReleasedSample(traces=[{RECORD_REPR}], "
        "population_stats=FrequencyTable(total=2, counts={'/home': 2}), "
        "sample_stats=FrequencyTable(total=1, counts={'/home': 1}), cycle_length=3.5, "
        "confidence_at_release=0.95, population_mean_rt=57.5, reason='criteria', "
        "cycle_index=2, released_at=10.0)",
        ([TraceRecord(RequestEvent(*EVENT_ARGS), 2)], POPULATION, SAMPLE, 3.5, 0.95, 57.5,
         "timeout", 2, 10.0),
    ),
    "SamplerEvent": (
        SamplerEvent,
        ("rate-changed", 4.0, {"old": 0.5, "new": 0.25}),
        {"kind": "rate-changed", "time": 4.0, "data": {"old": 0.5, "new": 0.25}},
        "SamplerEvent(kind='rate-changed', time=4.0, data={'old': 0.5, 'new': 0.25})",
        ("rate-changed", 5.0, {"old": 0.5, "new": 0.25}),
    ),
}
NAMES = sorted(CASES)


def _built(name):
    cls, args, _, _, _ = CASES[name]
    return cls(*args)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    assert repr(_built(name)) == CASES[name][3]


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    cls, args, kwargs, _, _ = CASES[name]
    built = cls(*args)
    assert cls(**kwargs) == built
    # The first field positionally, the rest by keyword.
    first, *rest = kwargs or {"max_rate": 0.5}
    assert cls(*args[:1], **{key: kwargs[key] for key in rest}) == built


@pytest.mark.parametrize("name", NAMES)
def test_equal_only_to_the_same_class_with_equal_fields(name):
    cls, args, _, _, other_args = CASES[name]
    built = cls(*args)
    assert built == cls(*args)
    assert not built != cls(*args)
    assert built != cls(*other_args)
    for other in (object(), args, _built(NAMES[NAMES.index(name) - 1])):
        assert built.__eq__(other) is NotImplemented
        assert built != other


@pytest.mark.parametrize("name", NAMES)
def test_unhashable(name):
    built = _built(name)
    assert type(built).__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(built)


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name, protocol):
    built = _built(name)
    copy = pickle.loads(pickle.dumps(built, protocol=protocol))
    assert type(copy) is type(built)
    assert repr(copy) == repr(built)
    # A copied ReleasedSample holds copied tables, equal to no other table.
    assert copy == built or name == "ReleasedSample"


# SamplerEvent checks nothing, so its __init__ calls no __post_init__.
@pytest.mark.parametrize("name", [name for name in NAMES if name != "SamplerEvent"])
def test_subclass_post_init_runs_after_the_fields_are_set(name):
    cls, args, _, expected_repr, _ = CASES[name]
    seen = []

    def __post_init__(self):
        seen.append(repr(self))
        cls.__post_init__(self)

    sub = type(f"Counting{name}", (cls,), {"__slots__": (), "__post_init__": __post_init__})
    built = sub(*args)
    # The hook saw every field, printed under the subclass's name.
    assert seen == [f"Counting{expected_repr}"]
    assert repr(built) == f"Counting{expected_repr}"
    # An instance of a subclass equals no instance of its base, either way.
    assert built != cls(*args) and cls(*args) != built
    assert built == sub(*args)


def test_subclass_post_init_keeps_the_base_checks():
    class Checked(RequestEvent):
        __slots__ = ()

        def __post_init__(self):
            RequestEvent.__post_init__(self)

    with pytest.raises(ValueError, match="type_id must be non-empty"):
        Checked("", 0, 1.0, 0.0)


def test_defaults():
    config = SamplerConfig()
    assert config == SamplerConfig(*CASES["SamplerConfig"][1])
    assert SamplerConfig(0.4, history_capacity=10) == SamplerConfig(
        0.4, 0.01, 0.05, 3.0, 1.0, 180.0, 10, 0.5, 0.05)
    first, second = SamplerEvent("baseline-ended", 3.0), SamplerEvent("baseline-ended", 3.0)
    assert first.data == {} and first == second
    # Each event gets its own dict.
    first.data["x"] = 1
    assert second.data == {}


@pytest.mark.parametrize("name", NAMES)
def test_match_args_are_the_fields_in_order(name):
    cls, args, _, expected_repr, _ = CASES[name]
    names = cls.__match_args__
    assert expected_repr == f"{name}({', '.join(f'{n}={a!r}' for n, a in zip(names, args))})"


def test_positional_class_pattern():
    match RequestEvent(*EVENT_ARGS):
        case RequestEvent(type_id, start, response_time, memory_delta):
            assert (type_id, start, response_time, memory_delta) == EVENT_ARGS
        case _:
            pytest.fail("no match")


def test_fields_can_be_reassigned_but_not_added():
    event = RequestEvent(*EVENT_ARGS)
    event.start = 13
    assert event.start == 13
    with pytest.raises(AttributeError):
        event.extra = 1


@pytest.mark.parametrize("cls, kwargs, message", [
    (RequestEvent, dict(type_id="", start=0, response_time=1.0, memory_delta=0.0),
     "type_id must be non-empty"),
    (RequestEvent, dict(type_id="/a", start=0, response_time=-1.0, memory_delta=0.0),
     "response_time must be finite and >= 0, got -1.0"),
    (RequestEvent, dict(type_id="/a", start=0, response_time=math.nan, memory_delta=0.0),
     "response_time must be finite and >= 0, got nan"),
    (RequestEvent, dict(type_id="/a", start=0, response_time=1.0, memory_delta=-math.inf),
     "memory_delta must be finite, got -inf"),
    # An int too large for a float is not finite either.
    (RequestEvent, dict(type_id="/a", start=0, response_time=10**400, memory_delta=0.0),
     f"response_time must be finite and >= 0, got {10**400}"),
    (RequestEvent, dict(type_id="/a", start=0, response_time=1.0, memory_delta=-10**400),
     f"memory_delta must be finite, got {-10**400}"),
    (TraceRecord, dict(event=RequestEvent("/a", 0, 1.0, 0.0), cycle_index=-1),
     "cycle_index must be >= 0, got -1"),
    (PerformanceRecord, dict(rps=math.inf, mean_rt={}, monitoring_enabled=True),
     "rps must be finite and >= 0, got inf"),
    (PerformanceRecord, dict(rps=10**400, mean_rt={}, monitoring_enabled=True),
     f"rps must be finite and >= 0, got {10**400}"),
    (PerformanceRecord, dict(rps=1.0, mean_rt={"/a": 10**400}, monitoring_enabled=True),
     f"mean response time of '/a' must be finite and >= 0, got {10**400}"),
    (PerformanceRecord, dict(rps=1.0, mean_rt={"/a": -2.0}, monitoring_enabled=True),
     "mean response time of '/a' must be finite and >= 0, got -2.0"),
    (SamplerConfig, dict(max_rate=math.nan), "max_rate must be finite, got nan"),
    (SamplerConfig, dict(min_rate=math.inf), "min_rate must be finite, got inf"),
    (SamplerConfig, dict(margin_e=-math.inf), "margin_e must be finite, got -inf"),
    (SamplerConfig, dict(baseline_duration=10**400),
     f"baseline_duration must be finite, got {10**400}"),
    # The first non-finite field in field order is named.
    (SamplerConfig, dict(epsilon=math.nan, max_rate=math.nan),
     "max_rate must be finite, got nan"),
    (SamplerConfig, dict(history_capacity=math.nan),
     "history_capacity must be an integer, got nan"),
    (SamplerConfig, dict(history_capacity=math.inf),
     "history_capacity must be an integer, got inf"),
    (SamplerConfig, dict(min_rate=0.0),
     "rates must satisfy 0 < min_rate <= max_rate <= 1, got min=0.0 max=0.5"),
    (SamplerConfig, dict(min_rate=0.6),
     "rates must satisfy 0 < min_rate <= max_rate <= 1, got min=0.6 max=0.5"),
    (SamplerConfig, dict(epsilon=-0.1), "epsilon must be >= 0, got -0.1"),
    (SamplerConfig, dict(baseline_duration=0.0), "baseline_duration must be positive"),
    (SamplerConfig, dict(adaptation_frequency=-1.0), "adaptation_frequency must be positive"),
    (SamplerConfig, dict(max_cycle_length=0.0), "max_cycle_length must be positive"),
    (SamplerConfig, dict(history_capacity=2.5), "history_capacity must be an integer, got 2.5"),
    (SamplerConfig, dict(history_capacity=True),
     "history_capacity must be an integer, got True"),
    (SamplerConfig, dict(history_capacity=0), "history_capacity must be >= 1"),
    # A count is at most sys.maxsize, the largest deque bound and array length.
    *[(cls, dict(fields, **{name: big}), f"{name} must be at most {sys.maxsize}, got {big}")
      for cls, fields, name in [
          (SamplerConfig, {}, "history_capacity"),
          (Stationary, dict(duration=10), "users"),
          (Seasonal, dict(base_users=4, amplitude=2, period=5, duration=10), "base_users"),
          (Burst, dict(base_users=4, peak_users=8, at=5, width=2, duration=10), "base_users"),
          (Burst, dict(base_users=4, peak_users=8, at=5, width=2, duration=10), "peak_users")]
      for big in (10**400, 2**63)],
    (SamplerConfig, dict(variability_p=1.0), "variability_p must be in (0, 1)"),
    (SamplerConfig, dict(margin_e=0.0), "margin_e must be in (0, 1)"),
    (ReleasedSample, dict(traces=[], population_stats=_table({"/a": 1}),
                          sample_stats=_table({}), cycle_length=1.0,
                          confidence_at_release=0.9, population_mean_rt=1.0, reason="late",
                          cycle_index=0, released_at=1.0),
     "unknown release reason 'late'"),
    (ReleasedSample, dict(traces=[], population_stats=_table({"/a": 1}),
                          sample_stats=_table({"/a": 1}), cycle_length=1.0,
                          confidence_at_release=0.9, population_mean_rt=1.0,
                          reason="criteria", cycle_index=0, released_at=1.0),
     "sample total 1 != trace count 0"),
    (ReleasedSample, dict(traces=[TraceRecord(RequestEvent("/b", 0, 1.0, 0.0), 0)],
                          population_stats=_table({"/a": 1}), sample_stats=_table({"/b": 1}),
                          cycle_length=1.0, confidence_at_release=0.9,
                          population_mean_rt=1.0, reason="timeout", cycle_index=0,
                          released_at=1.0),
     "sample count for '/b' exceeds population count"),
])
def test_error_type_and_message(cls, kwargs, message):
    with pytest.raises(ValueError) as raised:
        cls(**kwargs)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


@pytest.mark.parametrize("args, message", [
    ((), "missing 2 required positional arguments: 'kind' and 'time'"),
    (("k", 1.0, {}, 4), "takes from 3 to 4 positional arguments but 5 were given"),
])
def test_wrong_arity_is_a_type_error(args, message):
    with pytest.raises(TypeError, match=message):
        SamplerEvent(*args)
