"""Domain types shared by the sampler, strategies, simulator and reporting."""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from math import inf
from operator import eq
from typing import Iterator

__all__ = [
    "RequestEvent",
    "TraceRecord",
    "TraceColumns",
    "FrequencyTable",
    "PerformanceRecord",
    "SamplerConfig",
    "ReleasedSample",
]

# Finite means within +-_FLOAT_MAX: NaN, the infinities and ints too large for a float fail.
_FLOAT_MAX = sys.float_info.max
_INF_ALLOWED = "trace_io_capacity"  # may also be +inf, AppModel's default: no I/O limit


def _parameters(cls: type) -> tuple[str, ...]:
    """The parameters of ``cls.__init__`` after ``self``: a record's or a dataclass's fields."""
    code = cls.__init__.__code__
    return code.co_varnames[1:code.co_argcount]


def _as_dict(obj) -> dict:
    """``obj``'s fields by name, in ``_parameters`` order."""
    return {name: getattr(obj, name) for name in _parameters(type(obj))}


def _check_count(name: str, value: int) -> None:
    """Reject ``value`` unless it is an int from 1 to ``sys.maxsize``.  Not a
    bool, nor a float: the tape memo compares segments by ==, so a 5.0 would
    be served 5's tape and leak its type into a later run."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    if value > sys.maxsize:
        raise ValueError(f"{name} must be at most {sys.maxsize}, got {value}")


def _check_numbers(spec) -> None:
    """Reject an ``int`` parameter of ``spec`` that is not a count, or a
    ``float`` one that is not finite, but +inf in ``_INF_ALLOWED``."""
    for name, kind in type(spec).__init__.__annotations__.items():
        if kind == "int":
            _check_count(name, getattr(spec, name))
        elif kind == "float" and not (-_FLOAT_MAX <= getattr(spec, name) <= _FLOAT_MAX
                                      or name == _INF_ALLOWED and getattr(spec, name) == inf):
            raise ValueError(f"{name} must be finite, got {getattr(spec, name)}")


class _Record:
    """Base of the record types, slotted classes so that ``import reprtrace``
    loads no ``dataclasses``.  The fields, ``__match_args__``, are the
    ``__slots__`` of a class and its bases, in the order ``__init__`` takes
    them before it calls ``__post_init__``.  ``repr``, ``==`` and class
    patterns are a dataclass's; none hashes."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ += tuple(cls.__dict__.get("__slots__", ()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__match_args__
        return [getattr(self, name) for name in names] == [getattr(other, name) for name in names]

    __hash__ = None


class RequestEvent(_Record):
    """One observed application request.

    ``start`` is in milliseconds from simulation start; ``response_time``
    in milliseconds; ``memory_delta`` in kilobytes and may be negative
    when the measurement was invalidated by garbage-collection artifacts.
    Both measurements must be finite: NaN, an infinity or an int beyond any float is rejected.
    """

    __slots__ = ("type_id", "start", "response_time", "memory_delta")

    def __init__(self, type_id: str, start: int, response_time: float,
                 memory_delta: float) -> None:
        self.type_id, self.start = type_id, start
        self.response_time, self.memory_delta = response_time, memory_delta
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.type_id:
            raise ValueError("type_id must be non-empty")
        if not 0.0 <= self.response_time <= _FLOAT_MAX:
            raise ValueError(f"response_time must be finite and >= 0, got {self.response_time}")
        if not -_FLOAT_MAX <= self.memory_delta <= _FLOAT_MAX:
            raise ValueError(f"memory_delta must be finite, got {self.memory_delta}")


class TraceRecord(_Record):
    """A recorded execution trace of one request within a monitoring cycle."""

    __slots__ = ("event", "cycle_index")

    def __init__(self, event: RequestEvent, cycle_index: int) -> None:
        self.event, self.cycle_index = event, cycle_index
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.cycle_index < 0:
            raise ValueError(f"cycle_index must be >= 0, got {self.cycle_index}")


class _RebuiltSequence(Sequence):
    """A read-only sequence whose items are rebuilt on each read by
    ``_between(lo, hi)``, which yields the items at positions ``lo`` to
    ``hi - 1``.  ``len`` is the subclass's; int, negative and slice
    indexing, iteration and ``==`` (with a view of the same class or a
    list) work as on a list."""

    __slots__ = ()

    def _between(self, lo: int, hi: int) -> Iterator:
        raise NotImplementedError

    def __getitem__(self, index):
        if isinstance(index, slice):
            positions = range(*index.indices(len(self)))
            if positions.step == 1:
                return list(self._between(positions.start, positions.stop))
            return [self[i] for i in positions]
        size = len(self)
        position = index + size if index < 0 else index
        if not 0 <= position < size:
            raise IndexError(f"{type(self).__name__} index out of range")
        return next(self._between(position, position + 1))

    def __iter__(self) -> Iterator:
        return self._between(0, len(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (type(self), list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None


class TraceColumns(_RebuiltSequence):
    """A run's traces stored as typed columns, each record rebuilt on read.

    Per trace the columns hold the five fields of a ``traces.txt`` line:
    its cycle index, type index (into ``type_ids``), start, response time
    and memory.  ``Simulation.step`` appends a simulated run's rows, and
    ``read_trace_file`` a saved run's.  A read rebuilds
    ``TraceRecord(RequestEvent(...), cycle_index)`` bit for bit as it was
    recorded, as a new object on every read; ``len`` is O(1).  ``rows``,
    ``write_trace_file`` and the report's tallies read the columns without
    building a record; ``view`` is a range of rows, rebuilt the same way.
    """

    __slots__ = ("type_ids", "starts", "cycles", "types", "response_times", "memories")

    def __init__(self, type_ids: list[str]) -> None:
        self.type_ids = type_ids
        self.starts = array("q")
        self.cycles = array("q")
        self.types = array("I")
        self.response_times = array("d")
        self.memories = array("d")

    def __len__(self) -> int:
        return len(self.starts)

    def rows(self, lo: int = 0, hi: int | None = None
             ) -> Iterator[tuple[int, str, int, float, float]]:
        """Per trace from ``lo`` to ``hi - 1``: (cycle index, type id, start,
        response time, memory), the fields of a ``traces.txt`` line."""
        part = slice(lo, hi)
        return zip(self.cycles[part], map(self.type_ids.__getitem__, self.types[part]),
                   self.starts[part], self.response_times[part], self.memories[part])

    def _between(self, lo: int, hi: int) -> Iterator[TraceRecord]:
        for cycle_index, type_id, start, response_time, memory in self.rows(lo, hi):
            yield TraceRecord(RequestEvent(type_id, start, response_time, memory), cycle_index)

    def view(self, lo: int, hi: int) -> _TraceRows:
        """Rows ``lo`` to ``hi - 1`` as a read-only view; ``IndexError``
        unless 0 <= lo <= hi <= len(self)."""
        if not 0 <= lo <= hi <= len(self):
            raise IndexError(f"rows {lo} to {hi} are not within {len(self)} traces")
        return _TraceRows(self, lo, hi)

    def truncate(self, size: int) -> None:
        """Drop every row from ``size`` on, from every column."""
        for column in (self.starts, self.cycles, self.types, self.response_times,
                       self.memories):
            del column[size:]


class _TraceRows(_RebuiltSequence):
    """A fixed range of a ``TraceColumns``'s rows, each record rebuilt on
    read.  Reading it after its rows were truncated away raises
    ``IndexError``."""

    __slots__ = ("_columns", "_lo", "_hi")

    def __init__(self, columns: TraceColumns, lo: int, hi: int) -> None:
        self._columns, self._lo, self._hi = columns, lo, hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def _between(self, lo: int, hi: int) -> Iterator[TraceRecord]:
        columns = self._columns
        if self._hi > len(columns):
            raise IndexError(f"rows {self._lo} to {self._hi} were truncated away")
        return columns._between(self._lo + lo, self._lo + hi)


class FrequencyTable:
    """Per-request-type counters with a running total.

    ``total`` always equals the sum of the counts.  Instances are either
    confined to a single context or externally guarded; ``add`` is a plain
    two-counter increment observed together.
    """

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.total: int = 0

    def add(self, type_id: str) -> None:
        self.counts[type_id] = self.counts.get(type_id, 0) + 1
        self.total += 1

    def count(self, type_id: str) -> int:
        return self.counts.get(type_id, 0)

    def proportion(self, type_id: str) -> float:
        """Share of ``type_id`` in the table; 0 by convention when empty."""
        if self.total == 0:
            return 0.0
        return self.counts.get(type_id, 0) / self.total

    def __repr__(self) -> str:
        return f"FrequencyTable(total={self.total}, counts={self.counts!r})"


class PerformanceRecord(_Record):
    """Throughput plus per-type mean response times for one measurement interval.

    ``monitoring_enabled`` tells whether monitoring was active while the
    interval was measured.  ``rps`` and every mean must be finite and >= 0.
    """

    __slots__ = ("rps", "mean_rt", "monitoring_enabled")

    def __init__(self, rps: float, mean_rt: dict[str, float], monitoring_enabled: bool) -> None:
        self.rps, self.mean_rt, self.monitoring_enabled = rps, mean_rt, monitoring_enabled
        self.__post_init__()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rps <= _FLOAT_MAX:
            raise ValueError(f"rps must be finite and >= 0, got {self.rps}")
        for type_id, rt in self.mean_rt.items():
            if not 0.0 <= rt <= _FLOAT_MAX:
                raise ValueError(
                    f"mean response time of {type_id!r} must be finite and >= 0, got {rt}"
                )


class SamplerConfig(_Record):
    """Tuning knobs of the adaptive sampler.

    Defaults: adaptation every 1 s, 3 s performance baselines, rates in
    [1%, 50%], 180 s cycle timeout, 60-record performance history,
    conservative variability p = 0.5 and margin of error e = 0.05.  Every
    float must be finite and ``history_capacity`` a count (``_check_numbers``).
    """

    __slots__ = ("max_rate", "min_rate", "epsilon", "baseline_duration",
                 "adaptation_frequency", "max_cycle_length", "history_capacity",
                 "variability_p", "margin_e")

    def __init__(self, max_rate: float = 0.5, min_rate: float = 0.01, epsilon: float = 0.05,
                 baseline_duration: float = 3.0, adaptation_frequency: float = 1.0,
                 max_cycle_length: float = 180.0, history_capacity: int = 60,
                 variability_p: float = 0.5, margin_e: float = 0.05) -> None:
        self.max_rate, self.min_rate, self.epsilon = max_rate, min_rate, epsilon
        self.baseline_duration, self.adaptation_frequency = baseline_duration, adaptation_frequency
        self.max_cycle_length, self.history_capacity = max_cycle_length, history_capacity
        self.variability_p, self.margin_e = variability_p, margin_e
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_numbers(self)
        if not 0.0 < self.min_rate <= self.max_rate <= 1.0:
            raise ValueError(
                f"rates must satisfy 0 < min_rate <= max_rate <= 1, "
                f"got min={self.min_rate} max={self.max_rate}"
            )
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.baseline_duration <= 0:
            raise ValueError("baseline_duration must be positive")
        if self.adaptation_frequency <= 0:
            raise ValueError("adaptation_frequency must be positive")
        if self.max_cycle_length <= 0:
            raise ValueError("max_cycle_length must be positive")
        if not 0.0 < self.variability_p < 1.0:
            raise ValueError("variability_p must be in (0, 1)")
        if not 0.0 < self.margin_e < 1.0:
            raise ValueError("margin_e must be in (0, 1)")


RELEASE_CRITERIA = "criteria"
RELEASE_TIMEOUT = "timeout"


class ReleasedSample(_Record):
    """One monitoring cycle's outcome, released for analysis.

    ``reason`` is ``"criteria"`` when all representativeness criteria
    held, ``"timeout"`` when the cycle hit its maximum length.  The stored
    statistics are the cycle's own tables (handed over wholesale on
    release), so the criteria can be re-checked offline.  ``traces`` holds
    the cycle's records: a list, or, for a cycle served by
    ``Simulation.step``, a view of its rows of the run's ``TraceColumns``.
    """

    __slots__ = ("traces", "population_stats", "sample_stats", "cycle_length",
                 "confidence_at_release", "population_mean_rt", "reason", "cycle_index",
                 "released_at")

    def __init__(self, traces: Sequence[TraceRecord], population_stats: FrequencyTable,
                 sample_stats: FrequencyTable, cycle_length: float,
                 confidence_at_release: float, population_mean_rt: float, reason: str,
                 cycle_index: int, released_at: float) -> None:
        self.traces, self.reason, self.cycle_index = traces, reason, cycle_index
        self.population_stats, self.sample_stats = population_stats, sample_stats
        self.cycle_length, self.confidence_at_release = cycle_length, confidence_at_release
        self.population_mean_rt, self.released_at = population_mean_rt, released_at
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.reason not in (RELEASE_CRITERIA, RELEASE_TIMEOUT):
            raise ValueError(f"unknown release reason {self.reason!r}")
        if self.sample_stats.total != len(self.traces):
            raise ValueError(
                f"sample total {self.sample_stats.total} != trace count {len(self.traces)}"
            )
        for type_id, count in self.sample_stats.counts.items():
            if count > self.population_stats.count(type_id):
                raise ValueError(
                    f"sample count for {type_id!r} exceeds population count"
                )
