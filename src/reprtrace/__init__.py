"""reprtrace: adaptive-rate request sampling with representative monitoring cycles.

The engine decides per request whether to record an execution trace,
adapts its sampling rate to the observed performance impact, and releases
one statistically representative sample per monitoring cycle.  A
deterministic workload simulator and a reporting layer reproduce the
strategy comparison (ADP / INV / UNI / FUM / NOM) on TR, SR and RMSE.

``import reprtrace`` loads only the engine (``AdaptiveMonitor``,
``SamplerConfig``, the record types and ``stats``); the simulator,
scenario, report and strategy names, and those four modules, load on
first use.
"""

from importlib import import_module as _import_module

from .errors import InsufficientDataError, MissingTypeError, ParameterError, ScenarioError
from .model import (
    FrequencyTable,
    PerformanceRecord,
    ReleasedSample,
    RequestEvent,
    SamplerConfig,
    TraceRecord,
)
from .sampler import ADAPT_ALPHA, AdaptiveMonitor, SamplerEvent, perf_diff, select_normal_behavior
from .stats import (
    bernoulli,
    cochran_sample_size,
    decayed_confidence,
    normal_quantile,
    paired_t_test,
)

# Each name exported from a module that loads on first use, to that module.
_LAZY = {
    **dict.fromkeys(
        ("Scenario", "default_scenario", "load_scenario", "parse_scenario", "scenario_to_dict"),
        "scenario"),
    **dict.fromkeys(
        ("AppModel", "Burst", "RequestTypeSpec", "RunResult", "Seasonal", "SecondStats",
         "Simulation", "Stationary", "WorkloadSpec", "offered_stream", "run_matrix",
         "run_scenario", "users_at"),
        "simulator"),
    **dict.fromkeys(
        ("ComparisonReport", "StrategySummary", "load_run", "read_trace_file", "rmse",
         "sampling_rate_stats", "save_run", "throughput_stats", "type_memory_means",
         "write_report", "write_trace_file"),
        "report"),
    **dict.fromkeys(("RateStrategy", "Strategy", "StrategyKind", "make_strategy"), "strategies"),
}

__all__ = [
    # The submodules too, which a star import has always bound.
    "errors", "model", "sampler", "stats", *dict.fromkeys(_LAZY.values()),
    "InsufficientDataError", "MissingTypeError", "ParameterError", "ScenarioError",
    "FrequencyTable", "PerformanceRecord", "ReleasedSample", "RequestEvent", "SamplerConfig",
    "TraceRecord",
    "ADAPT_ALPHA", "AdaptiveMonitor", "SamplerEvent", "perf_diff", "select_normal_behavior",
    "bernoulli", "cochran_sample_size", "decayed_confidence", "normal_quantile",
    "paired_t_test",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """A name from a module that loads on first use: import the module, keep
    the name in this namespace and return it.  Such a module by its name too."""
    if name in _LAZY.values():
        # Importing a submodule binds it in this namespace.
        return _import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
