"""The package namespace: ``import reprtrace`` loads only the engine, and
every name the package exported when it imported each module eagerly is
still there, the very object of the module that defines it."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reprtrace

SRC = Path(__file__).resolve().parent.parent / "src"

# Each name the package exported while its __init__ imported every module
# (commit 1883e2b), to the module that defines it.
EXPORTS = {
    **dict.fromkeys(("InsufficientDataError", "MissingTypeError", "ParameterError",
                     "ScenarioError"), "errors"),
    **dict.fromkeys(("FrequencyTable", "PerformanceRecord", "ReleasedSample", "RequestEvent",
                     "SamplerConfig", "TraceRecord"), "model"),
    **dict.fromkeys(("ADAPT_ALPHA", "AdaptiveMonitor", "SamplerEvent", "perf_diff",
                     "select_normal_behavior"), "sampler"),
    **dict.fromkeys(("Scenario", "default_scenario", "load_scenario", "parse_scenario",
                     "scenario_to_dict"), "scenario"),
    **dict.fromkeys(("AppModel", "Burst", "RequestTypeSpec", "RunResult", "Seasonal",
                     "SecondStats", "Simulation", "Stationary", "WorkloadSpec",
                     "offered_stream", "run_matrix", "run_scenario", "users_at"), "simulator"),
    # read_trace_file and write_trace_file moved here from model: report alone
    # reads and writes a run directory's files.
    **dict.fromkeys(("ComparisonReport", "StrategySummary", "load_run", "read_trace_file",
                     "rmse", "sampling_rate_stats", "save_run", "throughput_stats",
                     "type_memory_means", "write_report", "write_trace_file"), "report"),
    **dict.fromkeys(("bernoulli", "cochran_sample_size", "decayed_confidence",
                     "normal_quantile", "paired_t_test"), "stats"),
    **dict.fromkeys(("RateStrategy", "Strategy", "StrategyKind", "make_strategy"),
                    "strategies"),
}
# The submodules a star import bound then, beside the names.
SUBMODULES = set(EXPORTS.values())

# Run in a fresh interpreter with SRC first on sys.path.
FOOTPRINT_CHILD = """
import json, sys
import reprtrace
reprtrace.AdaptiveMonitor(reprtrace.SamplerConfig())
facts = {"package": reprtrace.__file__, "csv": "csv" in sys.modules,
         "loaded": sorted(m for m in sys.modules if m.startswith("reprtrace."))}
reprtrace.default_scenario
facts["scenario_after_default_scenario"] = "reprtrace.scenario" in sys.modules
facts["simulator_is_module"] = reprtrace.simulator is sys.modules["reprtrace.simulator"]
print(json.dumps(facts))
"""


def test_engine_import_loads_no_simulator_scenario_report_or_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", FOOTPRINT_CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    facts = json.loads(out.splitlines()[-1])
    assert Path(facts["package"]).resolve().is_relative_to(SRC)
    lazy = {f"reprtrace.{name}" for name in ("simulator", "scenario", "report", "strategies",
                                              "cli")}
    assert not lazy & set(facts["loaded"]), facts["loaded"]
    # The run files' csv format is report's alone; the engine never parses one.
    assert not facts["csv"]
    assert facts["scenario_after_default_scenario"]
    assert facts["simulator_is_module"]


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_is_its_modules_object(name):
    module = importlib.import_module(f"reprtrace.{EXPORTS[name]}")
    assert getattr(reprtrace, name) is getattr(module, name)


@pytest.mark.parametrize("name", sorted(SUBMODULES))
def test_submodule_by_name(name):
    assert getattr(reprtrace, name) is sys.modules[f"reprtrace.{name}"]


def test_star_import_binds_every_export_and_submodule():
    # The same set whichever other submodules happen to be loaded.
    importlib.import_module("reprtrace.cli")
    namespace: dict = {}
    exec("from reprtrace import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(EXPORTS) | SUBMODULES
    assert all(namespace[name] is getattr(reprtrace, name) for name in namespace)


def test_dir_lists_every_export():
    assert set(EXPORTS) | SUBMODULES <= set(dir(reprtrace))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        reprtrace.no_such_name
