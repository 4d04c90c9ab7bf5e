"""The compared sampling policies behind one uniform interface.

ADP is the adaptive engine; INV follows the inverse-throughput heuristic;
UNI samples uniformly at 50%; FUM traces everything; NOM traces nothing.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from statistics import median
from typing import Optional

from .model import PerformanceRecord, ReleasedSample, RequestEvent, SamplerConfig
from .sampler import AdaptiveMonitor, SamplerEvent
from .stats import bernoulli

__all__ = [
    "StrategyKind",
    "Strategy",
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

    ``cycle_index`` is the monitoring cycle of a trace accepted now (0 but
    for ADP); it advances only in ``on_tick`` or after an accept.
    """

    kind: StrategyKind
    cycle_index: int = 0

    def decide(self, request: RequestEvent, now: float, rng) -> bool:
        raise NotImplementedError

    def on_tick(self, record: PerformanceRecord, now: float) -> None:
        return None

    @property
    def rate(self) -> float:
        raise NotImplementedError

    @property
    def monitoring_enabled(self) -> bool:
        return True

    def drain_releases(self) -> list[ReleasedSample]:
        return []

    def drain_events(self) -> list[SamplerEvent]:
        return []


class AdaptiveStrategy(Strategy):
    kind = StrategyKind.ADP

    def __init__(self, config: SamplerConfig) -> None:
        self.monitor = AdaptiveMonitor(config)
        self._releases: list[ReleasedSample] = []

    def decide(self, request: RequestEvent, now: float, rng) -> bool:
        traced = self.monitor.decide(request, rng)
        if traced:
            released = self.monitor.evaluate_sample(now)
            if released is not None:
                self._releases.append(released)
        return traced

    def on_tick(self, record: PerformanceRecord, now: float) -> None:
        released = self.monitor.on_tick(now, record)
        if released is not None:
            self._releases.append(released)

    @property
    def cycle_index(self) -> int:
        return self.monitor.cycle_index

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


class InverseThroughputStrategy(Strategy):
    """Sampling rate inversely proportional to the observed throughput.

    The proportionality constant is anchored so the rate equals max_rate
    at the running median throughput, mirroring the adaptive engine's
    notion of typical workload.
    """

    kind = StrategyKind.INV

    def __init__(self, config: SamplerConfig) -> None:
        self._config = config
        self._rate = config.max_rate
        self.throughput_history: deque[float] = deque(maxlen=config.history_capacity)

    @property
    def reference_throughput(self) -> Optional[float]:
        if not self.throughput_history:
            return None
        return median(self.throughput_history)

    def decide(self, request: RequestEvent, now: float, rng) -> bool:
        return bernoulli(self._rate, rng)

    def update(self, throughput: float) -> float:
        self.throughput_history.append(throughput)
        reference = median(self.throughput_history)
        raw = self._config.max_rate * reference / max(throughput, 1.0)
        self._rate = min(max(raw, self._config.min_rate), self._config.max_rate)
        return self._rate

    def on_tick(self, record: PerformanceRecord, now: float) -> None:
        self.update(record.rps)

    @property
    def rate(self) -> float:
        return self._rate


class UniformStrategy(Strategy):
    kind = StrategyKind.UNI

    def decide(self, request: RequestEvent, now: float, rng) -> bool:
        return bernoulli(UNIFORM_RATE, rng)

    @property
    def rate(self) -> float:
        return UNIFORM_RATE


class FullMonitoringStrategy(Strategy):
    kind = StrategyKind.FUM

    def decide(self, request: RequestEvent, now: float, rng) -> bool:
        return True

    @property
    def rate(self) -> float:
        return 1.0


class NoMonitoringStrategy(Strategy):
    kind = StrategyKind.NOM

    def decide(self, request: RequestEvent, now: float, rng) -> bool:
        return False

    @property
    def rate(self) -> float:
        return 0.0

    @property
    def monitoring_enabled(self) -> bool:
        return False


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
