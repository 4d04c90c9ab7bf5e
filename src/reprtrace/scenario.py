"""Scenario files: JSON configuration for model, workload, sampler and run.

A scenario bundles an application model, a workload schedule, sampler
settings and optionally a strategy and seed.  ``load_scenario`` reports
JSON syntax errors with line numbers and semantic errors with key paths.
Numeric keys take only JSON numbers, not strings or bools, and only finite
ones except ``model.trace_io_capacity``, whose default ``Infinity`` means
no trace I/O contention.  Integer keys (seeds, user counts) reject a
fractional part; ``seeds`` must be a list and ``strict`` a bool.  ``model``
and each workload segment must be objects, ``model.types`` and
``workload`` lists, and each ``type_id`` a string.  A key that its section
does not have is rejected, never ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Optional

from .errors import ScenarioError
from .model import SamplerConfig
from .simulator import AppModel, Burst, RequestTypeSpec, Seasonal, Stationary, WorkloadSpec
from .strategies import StrategyKind

__all__ = ["Scenario", "load_scenario", "parse_scenario", "scenario_to_dict", "default_scenario"]


@dataclass
class Scenario:
    model: AppModel
    workload: WorkloadSpec
    sampler: SamplerConfig
    strategy: Optional[StrategyKind] = None
    seed: Optional[int] = None
    seeds: Optional[list[int]] = None
    out: Optional[str] = None
    strict: Optional[bool] = None


def _field_names(cls: type, *skip: str) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


# The numeric keys of a request type and of the model, in field order.
_TYPE_KEYS = _field_names(RequestTypeSpec, "type_id")
_MODEL_KEYS = _field_names(AppModel, "types")


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{where}: missing key {key!r}")
    return mapping[key]


def _known(raw: dict, keys: tuple[str, ...], where: str) -> None:
    """ScenarioError naming the first key of ``raw`` that is not in ``keys``."""
    for key in raw:
        if key not in keys:
            raise ScenarioError(f"{where}.{key}: unknown key")


def _unique(values: list, what: str, where: str) -> list:
    """``values`` unchanged; ScenarioError names the first repeated one."""
    seen = set()
    for value in values:
        if value in seen:
            raise ScenarioError(f"{where}: duplicate {what} {value}")
        seen.add(value)
    return values


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value: Any, kind: type, where: str) -> Any:
    """``value`` unchanged when it is a ``kind`` (dict, list or str);
    ScenarioError naming ``where`` otherwise."""
    if not isinstance(value, kind):
        raise ScenarioError(f"{where}: must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _is_number(value: Any) -> bool:
    """Whether ``value`` is a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value: Any) -> int:
    """``int(value)``; TypeError for anything but a number without a fractional part."""
    if not _is_number(value) or isinstance(value, float) and not value.is_integer():
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def _finite(raw: Any, where: str, keys: Optional[tuple[str, ...]] = None,
            allow_inf: tuple[str, ...] = ()) -> dict:
    """The entries of object ``raw`` (only ``keys``, when given), checked to be
    finite numbers: ScenarioError names the first entry that is not a number,
    the first NaN, or the first infinity whose key is not in ``allow_inf``."""
    _typed(raw, dict, where)
    values = raw if keys is None else {k: raw[k] for k in keys if k in raw}
    for key, value in values.items():
        if not _is_number(value):
            raise ScenarioError(f"{where}.{key}: must be a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            if math.isnan(value) or key not in allow_inf:
                raise ScenarioError(f"{where}.{key}: must be finite, got {value!r}")
    return values


_SEGMENTS = {
    "stationary": (Stationary, {"users": _integer, "duration": float}),
    "seasonal": (Seasonal, {"base_users": _integer, "amplitude": float, "period": float,
                            "duration": float}),
    "burst": (Burst, {"base_users": _integer, "peak_users": _integer, "at": float,
                      "width": float, "duration": float}),
}

_SEGMENT_KINDS = {cls: kind for kind, (cls, _fields) in _SEGMENTS.items()}


def _parse_segment(raw: dict, where: str):
    kind = _require(raw, "kind", where)
    if kind not in _SEGMENTS:
        raise ScenarioError(f"{where}: unknown segment kind {kind!r}")
    cls, converters = _SEGMENTS[kind]
    _known(raw, ("kind", *converters), where)
    _finite(raw, where, tuple(key for key, convert in converters.items() if convert is float))
    values = {}
    for key, convert in converters.items():
        try:
            values[key] = convert(_require(raw, key, where))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{where}.{key}: {exc}") from exc
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def parse_scenario(raw: dict, source: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: top level must be an object")
    _known(raw, _field_names(Scenario), source)
    model_raw = _typed(_require(raw, "model", source), dict, f"{source}.model")
    _known(model_raw, _field_names(AppModel), f"{source}.model")
    types = []
    types_raw = _typed(_require(model_raw, "types", f"{source}.model"), list,
                       f"{source}.model.types")
    for i, type_raw in enumerate(types_raw):
        where = f"{source}.model.types[{i}]"
        values = _finite(type_raw, where, _TYPE_KEYS)
        _known(type_raw, _field_names(RequestTypeSpec), where)
        type_id = _typed(_require(type_raw, "type_id", where), str, f"{where}.type_id")
        try:
            types.append(RequestTypeSpec(type_id=type_id, **values))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    # An infinite trace I/O capacity is the default: no I/O contention.
    values = _finite(model_raw, f"{source}.model", _MODEL_KEYS,
                     allow_inf=("trace_io_capacity",))
    try:
        model = AppModel(types=tuple(types), **values)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{source}.model: {exc}") from exc

    segments = []
    for i, seg_raw in enumerate(_typed(_require(raw, "workload", source), list,
                                       f"{source}.workload")):
        where = f"{source}.workload[{i}]"
        segments.append(_parse_segment(_typed(seg_raw, dict, where), where))
    try:
        workload = WorkloadSpec(segments=tuple(segments))
    except ValueError as exc:
        raise ScenarioError(f"{source}.workload: {exc}") from exc

    sampler_raw = _finite(raw.get("sampler", {}), f"{source}.sampler")
    _known(sampler_raw, _field_names(SamplerConfig), f"{source}.sampler")
    try:
        sampler = SamplerConfig(**sampler_raw)
    except ValueError as exc:
        raise ScenarioError(f"{source}.sampler: {exc}") from exc

    strategy = None
    if raw.get("strategy") is not None:
        try:
            strategy = StrategyKind(raw["strategy"])
        except ValueError as exc:
            raise ScenarioError(f"{source}.strategy: {exc}") from exc
    seed = raw.get("seed")
    if seed is not None:
        try:
            seed = _integer(seed)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{source}.seed: {exc}") from exc
    seeds = raw.get("seeds")
    if seeds is not None:
        _typed(seeds, list, f"{source}.seeds")
        try:
            seeds = [_integer(s) for s in seeds]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{source}.seeds: {exc}") from exc
        if not seeds:
            raise ScenarioError(f"{source}.seeds: must be non-empty when given")
        _unique(seeds, "seed", f"{source}.seeds")
    out = raw.get("out")
    strict = raw.get("strict")
    if strict is not None and not isinstance(strict, bool):
        raise ScenarioError(f"{source}.strict: must be true or false, got {strict!r}")
    return Scenario(
        model=model,
        workload=workload,
        sampler=sampler,
        strategy=strategy,
        seed=seed,
        seeds=seeds,
        out=str(out) if out is not None else None,
        strict=strict,
    )


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
    model = scenario.model
    return {
        "model": {
            **{key: getattr(model, key) for key in _MODEL_KEYS},
            "types": [asdict(spec) for spec in model.types],
        },
        "workload": [{"kind": _SEGMENT_KINDS[type(seg)], **asdict(seg)}
                     for seg in scenario.workload.segments],
        "sampler": asdict(scenario.sampler),
        "strategy": scenario.strategy.value if scenario.strategy else None,
        "seed": scenario.seed,
        "seeds": scenario.seeds,
        "out": scenario.out,
        "strict": scenario.strict,
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
