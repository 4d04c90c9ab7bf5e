"""Scenario files: JSON configuration for model, workload and sampler.

A scenario is the experiment: an application model, a workload schedule
and sampler settings.  What to run on it (strategies and seeds) and where
to write it come from the command line.  ``load_scenario`` reports JSON
syntax errors with line numbers and semantic errors with key paths.

Each section (``model``, a request type, a workload segment, ``sampler``)
is read by ``_section`` from the parameters of its class's ``__init__``,
written out or made by ``dataclasses``: a key that is no parameter is
rejected, never ignored, and one with no default is required.  The reader
checks only a value's JSON kind: a ``str`` parameter takes a string, any
other a JSON number (not a string or a bool), and an ``int`` one gets an
integral float as an int.  The section's class checks the values
(``model._check_numbers``: an int is a count, a float finite, but
``model.trace_io_capacity`` may be ``Infinity``, its default, meaning no
trace I/O contention), and its error is reported as ``<section>: <error>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ScenarioError
from .model import SamplerConfig, _as_dict, _parameters
from .simulator import AppModel, Burst, RequestTypeSpec, Seasonal, Stationary, WorkloadSpec

__all__ = ["Scenario", "load_scenario", "parse_scenario", "scenario_to_dict", "default_scenario"]


@dataclass
class Scenario:
    model: AppModel
    workload: WorkloadSpec
    sampler: SamplerConfig


_SCENARIO_KEYS = _parameters(Scenario)
_SEGMENT_CLASSES = {"stationary": Stationary, "seasonal": Seasonal, "burst": Burst}
_SEGMENT_KINDS = {cls: kind for kind, cls in _SEGMENT_CLASSES.items()}


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value: Any, kind: type, where: str) -> Any:
    """``value`` unchanged when it is a ``kind`` (dict, list or str);
    ScenarioError naming ``where`` otherwise."""
    if not isinstance(value, kind):
        raise ScenarioError(f"{where}: must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _number(value: Any, where: str, integer: bool = False) -> Any:
    """``value`` when it is a JSON number, as an int when ``integer`` and it
    is an integral float; ScenarioError naming ``where`` otherwise.  Its
    range is for the section's class to check."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: must be {'an integer' if integer else 'a number'}, "
                            f"got {value!r}")
    return int(value) if integer and isinstance(value, float) and value.is_integer() else value


def _section(cls: type, raw: Any, where: str, **given: Any) -> Any:
    """A ``cls`` read from object ``raw``, whose keys and values must follow
    the parameters of ``cls.__init__`` as the module docstring says; the
    parameters in ``given`` the caller has read from ``raw`` itself."""
    _typed(raw, dict, where)
    names = _parameters(cls)
    kinds = cls.__init__.__annotations__
    values = dict(given)
    for key, value in raw.items():
        if key not in names:
            raise ScenarioError(f"{where}.{key}: unknown key")
        if key in given:
            continue
        if kinds[key] == "str":
            values[key] = _typed(value, str, f"{where}.{key}")
        else:
            values[key] = _number(value, f"{where}.{key}", integer=kinds[key] == "int")
    for name in names[:len(names) - len(cls.__init__.__defaults__ or ())]:
        if name not in raw:
            raise ScenarioError(f"{where}: missing key {name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def parse_scenario(raw: dict, source: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: top level must be an object")
    for key in raw:
        if key not in _SCENARIO_KEYS:
            raise ScenarioError(f"{source}.{key}: unknown key")
    for key in ("model", "workload"):
        if key not in raw:
            raise ScenarioError(f"{source}: missing key {key!r}")
    where = f"{source}.model"
    model_raw = _typed(raw["model"], dict, where)
    types = _typed(model_raw.get("types", []), list, f"{where}.types")
    model = _section(AppModel, model_raw, where, types=tuple(
        _section(RequestTypeSpec, spec, f"{where}.types[{i}]") for i, spec in enumerate(types)))

    segments = []
    for i, segment in enumerate(_typed(raw["workload"], list, f"{source}.workload")):
        where = f"{source}.workload[{i}]"
        segment = dict(_typed(segment, dict, where))
        if "kind" not in segment:
            raise ScenarioError(f"{where}: missing key 'kind'")
        kind = segment.pop("kind")
        if not isinstance(kind, str) or kind not in _SEGMENT_CLASSES:
            raise ScenarioError(f"{where}: unknown segment kind {kind!r}")
        segments.append(_section(_SEGMENT_CLASSES[kind], segment, where))
    try:
        workload = WorkloadSpec(segments=tuple(segments))
    except ValueError as exc:
        raise ScenarioError(f"{source}.workload: {exc}") from exc
    sampler = _section(SamplerConfig, raw.get("sampler", {}), f"{source}.sampler")
    return Scenario(model=model, workload=workload, sampler=sampler)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_scenario(raw, source=str(path))


def scenario_to_dict(scenario: Scenario) -> dict:
    model = _as_dict(scenario.model)
    model["types"] = [_as_dict(spec) for spec in model.pop("types")]  # the files list it last
    return {
        "model": model,
        "workload": [{"kind": _SEGMENT_KINDS[type(seg)], **_as_dict(seg)}
                     for seg in scenario.workload.segments],
        "sampler": _as_dict(scenario.sampler),
    }


def default_scenario() -> Scenario:
    """The shipped 600 s scenario: 8 request types, stationary/seasonal/burst mix.

    Model constants are calibrated at desk scale so that full monitoring
    costs 25-35% throughput, the sampler demonstrably reduces its rate
    during sustained peaks while riding out brief bursts, and the strategy
    comparison separates on TR, SR and RMSE.
    """
    types = (
        RequestTypeSpec("/home", weight=20, base_rt=57.6, rt_dispersion=0.25, base_mem=120.0, mem_dispersion=0.25),
        RequestTypeSpec("/browse", weight=16, base_rt=63.6, rt_dispersion=0.30, base_mem=260.0, mem_dispersion=0.25),
        RequestTypeSpec("/search", weight=14, base_rt=77.1, rt_dispersion=0.35, base_mem=450.0, mem_dispersion=0.25),
        RequestTypeSpec("/item", weight=12, base_rt=60.6, rt_dispersion=0.30, base_mem=200.0, mem_dispersion=0.25),
        RequestTypeSpec("/cart", weight=10, base_rt=69.6, rt_dispersion=0.30, base_mem=330.0, mem_dispersion=0.25),
        RequestTypeSpec("/checkout", weight=10, base_rt=84.6, rt_dispersion=0.40, base_mem=700.0, mem_dispersion=0.25),
        RequestTypeSpec("/account", weight=9, base_rt=66.6, rt_dispersion=0.30, base_mem=280.0, mem_dispersion=0.25),
        RequestTypeSpec("/admin", weight=9, base_rt=87.6, rt_dispersion=0.45, base_mem=950.0, mem_dispersion=0.25),
    )
    model = AppModel(
        types=types,
        capacity_users=16.0,
        contention_gamma=0.6,
        trace_cost=24.0,
        gc_negative_prob=0.04,
        trace_io_capacity=2.1,
        trace_contention=10.0,
        mem_load_gain=0.0,
        mem_noise_gain=9.0,
        gc_negative_gain=4.0,
    )
    workload = WorkloadSpec(
        segments=(
            Stationary(users=8, duration=60),
            Seasonal(base_users=8, amplitude=12, period=60, duration=450),
            Burst(base_users=8, peak_users=20, at=20, width=2, duration=40),
            Stationary(users=8, duration=50),
        )
    )
    return Scenario(model=model, workload=workload, sampler=SamplerConfig())
