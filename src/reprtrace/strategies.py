"""The compared sampling policies behind one uniform interface.

ADP is the adaptive engine; INV follows the inverse-throughput heuristic;
UNI samples uniformly at 50%; FUM traces everything; NOM traces nothing.
The policies come in two families, the only two ``Simulation`` serves: an
``AdaptiveStrategy`` (ADP) is served by its monitor, and a ``RateStrategy``
(the other four) traces a request on one draw at its ``rate``.  A custom
policy is a ``RateStrategy`` subclass that sets ``rate`` in ``on_tick``, as
INV does.  Each class also defines ``decide``, which drives it one request
at a time and gives the verdicts the simulator's serving gives.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from statistics import median
from typing import Optional

from .errors import ParameterError
from .model import PerformanceRecord, ReleasedSample, RequestEvent, SamplerConfig, TraceRecord
from .sampler import AdaptiveMonitor, SamplerEvent
from .stats import bernoulli

__all__ = [
    "StrategyKind",
    "Strategy",
    "RateStrategy",
    "AdaptiveStrategy",
    "InverseThroughputStrategy",
    "UniformStrategy",
    "FullMonitoringStrategy",
    "NoMonitoringStrategy",
    "make_strategy",
    "UNIFORM_RATE",
]

UNIFORM_RATE = 0.5


class StrategyKind(str, Enum):
    ADP = "ADP"
    INV = "INV"
    UNI = "UNI"
    FUM = "FUM"
    NOM = "NOM"


class Strategy:
    """Per-request decision plus a periodic tick, selected by kind.

    ``decide`` returns the ``TraceRecord`` it records for a traced request,
    holding that very request, or ``None``; only ADP stamps a monitoring
    cycle other than 0.
    """

    kind: StrategyKind
    rate: float
    monitoring_enabled: bool = True

    def decide(self, request: RequestEvent, now: float, rng) -> Optional[TraceRecord]:
        raise NotImplementedError

    def on_tick(self, record: PerformanceRecord, now: float) -> None:
        return None

    def drain_releases(self) -> list[ReleasedSample]:
        return []

    def drain_events(self) -> list[SamplerEvent]:
        return []


class RateStrategy(Strategy):
    """A strategy that traces each request on one draw at its ``rate``.

    ``Simulation.step`` serves a rate strategy, a subclass included,
    without ``decide``: it reads ``rate`` once per second (``ParameterError``
    outside [0, 1]), draws ``rng.random() < rate`` for each request and, on
    a passing draw, appends the request to the run's trace columns with
    cycle 0, building no object.  As for an ``AdaptiveStrategy``, ``step``
    serves only requests that pass ``RequestEvent``'s rule, traced or not,
    checked once per second (see ``Simulation``).  A subclass's ``decide``
    override is not served; ``decide`` gives the same verdicts to a caller
    that drives the strategy one request at a time.
    """


class AdaptiveStrategy(Strategy):
    """The adaptive engine, ``monitor``, behind the strategy interface.

    ``decide`` asks the monitor, and on an accept returns the monitor's own
    record of the request and evaluates the cycle at ``now``.
    ``Simulation.step`` serves an ``AdaptiveStrategy``, a subclass included,
    without ``decide`` or any per-request object: it binds the monitor to
    the run's trace columns, asks ``monitor.decide`` with one reused holder
    of the request's type id and response time, appends an accept to the
    columns, evaluates the cycle and hands a release to ``add_release``.  Both give the same verdicts, draws and releases; a
    subclass's ``decide`` override is not served, and once the monitor is
    bound ``decide`` raises ``ParameterError`` before counting the request.
    """

    kind = StrategyKind.ADP

    def __init__(self, config: SamplerConfig) -> None:
        self.monitor = AdaptiveMonitor(config)
        self._releases: list[ReleasedSample] = []

    def decide(self, request: RequestEvent, now: float, rng) -> Optional[TraceRecord]:
        monitor = self.monitor
        if monitor._traces is not None:
            raise ParameterError("a monitor bound to a run's traces serves no decide")
        if not monitor.decide(request, rng):
            return None
        # The monitor's own record, read before a release swaps its list.
        trace = monitor.sample_traces[-1]
        released = monitor.evaluate_sample(now)
        if released is not None:
            self.add_release(released)
        return trace

    def add_release(self, released: ReleasedSample) -> None:
        """Keep a release of ``monitor`` until the next ``drain_releases``."""
        self._releases.append(released)

    def on_tick(self, record: PerformanceRecord, now: float) -> None:
        released = self.monitor.on_tick(now, record)
        if released is not None:
            self.add_release(released)

    @property
    def rate(self) -> float:
        return self.monitor.rate

    @property
    def monitoring_enabled(self) -> bool:
        return self.monitor.monitoring_enabled

    def drain_releases(self) -> list[ReleasedSample]:
        drained = self._releases
        self._releases = []
        return drained

    def drain_events(self) -> list[SamplerEvent]:
        return self.monitor.drain_events()


class InverseThroughputStrategy(RateStrategy):
    """Sampling rate inversely proportional to the observed throughput.

    The proportionality constant is anchored so the rate equals max_rate
    at the running median throughput, mirroring the adaptive engine's
    notion of typical workload.
    """

    kind = StrategyKind.INV

    def __init__(self, config: SamplerConfig) -> None:
        self._config = config
        self.rate = config.max_rate
        self.throughput_history: deque[float] = deque(maxlen=config.history_capacity)

    def decide(self, request: RequestEvent, now: float, rng) -> Optional[TraceRecord]:
        return TraceRecord(request, 0) if bernoulli(self.rate, rng) else None

    def update(self, throughput: float) -> float:
        self.throughput_history.append(throughput)
        reference = median(self.throughput_history)
        raw = self._config.max_rate * reference / max(throughput, 1.0)
        self.rate = min(max(raw, self._config.min_rate), self._config.max_rate)
        return self.rate

    def on_tick(self, record: PerformanceRecord, now: float) -> None:
        self.update(record.rps)


class UniformStrategy(RateStrategy):
    kind = StrategyKind.UNI
    rate = UNIFORM_RATE

    def decide(self, request: RequestEvent, now: float, rng) -> Optional[TraceRecord]:
        return TraceRecord(request, 0) if bernoulli(UNIFORM_RATE, rng) else None


class FullMonitoringStrategy(RateStrategy):
    kind = StrategyKind.FUM
    rate = 1.0

    def decide(self, request: RequestEvent, now: float, rng) -> Optional[TraceRecord]:
        return TraceRecord(request, 0)


class NoMonitoringStrategy(RateStrategy):
    kind = StrategyKind.NOM
    rate = 0.0
    monitoring_enabled = False

    def decide(self, request: RequestEvent, now: float, rng) -> Optional[TraceRecord]:
        return None


def make_strategy(kind: StrategyKind | str, config: SamplerConfig) -> Strategy:
    kind = StrategyKind(kind)
    if kind is StrategyKind.ADP:
        return AdaptiveStrategy(config)
    if kind is StrategyKind.INV:
        return InverseThroughputStrategy(config)
    if kind is StrategyKind.UNI:
        return UniformStrategy()
    if kind is StrategyKind.FUM:
        return FullMonitoringStrategy()
    return NoMonitoringStrategy()
