"""Scenario files: JSON configuration for model, workload, sampler and run.

A scenario bundles an application model, a workload schedule, sampler
settings and optionally a strategy and seed.  ``load_scenario`` reports
JSON syntax errors with line numbers and semantic errors with key paths.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
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


_TYPE_KEYS = ("type_id", "weight", "base_rt", "rt_dispersion", "base_mem", "mem_dispersion")
_MODEL_KEYS = (
    "capacity_users",
    "contention_gamma",
    "trace_cost",
    "gc_negative_prob",
    "trace_io_capacity",
    "trace_contention",
    "mem_load_gain",
    "mem_noise_gain",
    "gc_negative_gain",
)


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{where}: missing key {key!r}")
    return mapping[key]


def _parse_segment(raw: dict, where: str):
    kind = _require(raw, "kind", where)
    try:
        if kind == "stationary":
            return Stationary(users=int(_require(raw, "users", where)),
                              duration=float(_require(raw, "duration", where)))
        if kind == "seasonal":
            return Seasonal(
                base_users=int(_require(raw, "base_users", where)),
                amplitude=float(_require(raw, "amplitude", where)),
                period=float(_require(raw, "period", where)),
                duration=float(_require(raw, "duration", where)),
            )
        if kind == "burst":
            return Burst(
                base_users=int(_require(raw, "base_users", where)),
                peak_users=int(_require(raw, "peak_users", where)),
                at=float(_require(raw, "at", where)),
                width=float(_require(raw, "width", where)),
                duration=float(_require(raw, "duration", where)),
            )
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown segment kind {kind!r}")


def parse_scenario(raw: dict, source: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: top level must be an object")
    model_raw = _require(raw, "model", source)
    types = []
    for i, type_raw in enumerate(_require(model_raw, "types", f"{source}.model")):
        where = f"{source}.model.types[{i}]"
        try:
            types.append(RequestTypeSpec(**{k: type_raw[k] for k in _TYPE_KEYS if k in type_raw}))
        except (TypeError, ValueError, KeyError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    try:
        model = AppModel(
            types=tuple(types),
            **{k: model_raw[k] for k in _MODEL_KEYS if k in model_raw},
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{source}.model: {exc}") from exc

    segments = []
    for i, seg_raw in enumerate(_require(raw, "workload", source)):
        segments.append(_parse_segment(seg_raw, f"{source}.workload[{i}]"))
    try:
        workload = WorkloadSpec(segments=tuple(segments))
    except ValueError as exc:
        raise ScenarioError(f"{source}.workload: {exc}") from exc

    sampler_raw = raw.get("sampler", {})
    try:
        sampler = SamplerConfig(**sampler_raw)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{source}.sampler: {exc}") from exc

    strategy = None
    if raw.get("strategy") is not None:
        try:
            strategy = StrategyKind(raw["strategy"])
        except ValueError as exc:
            raise ScenarioError(f"{source}.strategy: {exc}") from exc
    seed = raw.get("seed")
    if seed is not None:
        seed = int(seed)
    seeds = raw.get("seeds")
    if seeds is not None:
        try:
            seeds = [int(s) for s in seeds]
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{source}.seeds: {exc}") from exc
        if not seeds:
            raise ScenarioError(f"{source}.seeds: must be non-empty when given")
    out = raw.get("out")
    strict = raw.get("strict")
    if strict is not None:
        strict = bool(strict)
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


def _segment_to_dict(seg) -> dict:
    if isinstance(seg, Stationary):
        return {"kind": "stationary", **asdict(seg)}
    if isinstance(seg, Seasonal):
        return {"kind": "seasonal", **asdict(seg)}
    return {"kind": "burst", **asdict(seg)}


def scenario_to_dict(scenario: Scenario) -> dict:
    model = scenario.model
    return {
        "model": {
            **{key: getattr(model, key) for key in _MODEL_KEYS},
            "types": [asdict(spec) for spec in model.types],
        },
        "workload": [_segment_to_dict(seg) for seg in scenario.workload.segments],
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
