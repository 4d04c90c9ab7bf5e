"""reprtrace: adaptive-rate request sampling with representative monitoring cycles.

The engine decides per request whether to record an execution trace,
adapts its sampling rate to the observed performance impact, and releases
one statistically representative sample per monitoring cycle.  A
deterministic workload simulator and a reporting layer reproduce the
strategy comparison (ADP / INV / UNI / FUM / NOM) on TR, SR and RMSE.
"""

from .errors import InsufficientDataError, MissingTypeError, ParameterError, ScenarioError
from .model import (
    FrequencyTable,
    PerformanceRecord,
    ReleasedSample,
    RequestEvent,
    SamplerConfig,
    TraceRecord,
    read_trace_file,
    write_trace_file,
)
from .sampler import ADAPT_ALPHA, AdaptiveMonitor, SamplerEvent, perf_diff, select_normal_behavior
from .scenario import Scenario, default_scenario, load_scenario, parse_scenario, scenario_to_dict
from .simulator import (
    AppModel,
    Burst,
    RequestTypeSpec,
    RunResult,
    Seasonal,
    SecondStats,
    Simulation,
    Stationary,
    WorkloadSpec,
    offered_stream,
    run_matrix,
    run_scenario,
    users_at,
)
from .report import (
    ComparisonReport,
    StrategySummary,
    load_run,
    rmse,
    sampling_rate_stats,
    save_run,
    throughput_stats,
    type_memory_means,
    write_report,
)
from .stats import (
    bernoulli,
    cochran_sample_size,
    decayed_confidence,
    normal_quantile,
    paired_t_test,
)
from .strategies import RateStrategy, Strategy, StrategyKind, make_strategy

__version__ = "0.1.0"
