"""Golden outputs: every strategy's run on the small scenarios, pinned by digest.

Each digest covers a run's per-second stats, every completed request, the
traces with their cycle index, the releases and the sampler events.  The
report of each scenario's ten runs (five kinds, two seeds) is pinned by the
sha256 of each report file.
Floats enter through ``repr``, which round-trips exactly, so a digest
matches only when the run is bit-identical to the one recorded.  A change
that means to alter simulated outputs re-records the table below and says
so; a speed-up must leave it untouched.
"""

import hashlib

import pytest

from reprtrace.report import write_report
from reprtrace.simulator import Burst, WorkloadSpec, run_scenario
from reprtrace.strategies import StrategyKind
from reference_simulator import run_parts
from test_simulator import small_model, small_workload

SEEDS = (1, 2)


def _loaded_scenario():
    """Crosses the contention knee, with measurement jitter and a tight trace I/O path."""
    model = small_model(
        mem_load_gain=0.3, mem_noise_gain=0.6, gc_negative_gain=1.0,
        trace_io_capacity=2.0, trace_contention=0.5,
    )
    workload = WorkloadSpec(segments=(
        Burst(base_users=6, peak_users=16, at=15.0, width=20.0, duration=30.0),
    ))
    return model, workload


SCENARIOS = {
    "small": lambda: (small_model(), small_workload()),
    "loaded": _loaded_scenario,
}

GOLDEN = {
    ("loaded", "ADP", 1): "afb59a4e632b1fb4279c4e63393fa43b66ea7d822000fdb5ef19da283aa12e7d",
    ("loaded", "ADP", 2): "3d87df0e8fa246faf9b1e18a422d7962ad0f2e00cbe359dc3ba7a26f649ddf80",
    ("loaded", "INV", 1): "d0b5ee6fb846186fa6a238f12919b2c48baebac155d9fccf853875dde11cdc9a",
    ("loaded", "INV", 2): "81c43faf1b511d10cf75f3098cb8e75b47f8d6250b7fd2c375aaf99c444cf727",
    ("loaded", "UNI", 1): "ac5534056acb839b7b4f845112199d88960be263d412732a844b61ca5829e71a",
    ("loaded", "UNI", 2): "ffcaa989ff9c3e217eaf86716febef2019d2d7d9cb66a1419355ae67bda25b7c",
    ("loaded", "FUM", 1): "e3147e925aa5cff51e29742c8450e3d7c2c705225c311448015aea13644033ca",
    ("loaded", "FUM", 2): "697f698bcb3bb1cc80ef0fc9fbc623c76f847cee287bc2318eb9ddb155884f36",
    ("loaded", "NOM", 1): "240f427c6e1a1ba92b3422153ce1ff7483a857d96512968238f8cb977433662d",
    ("loaded", "NOM", 2): "adf519edb4f8220ff32667d449f2a4452327b0187e84a9758c91a90cffe9190a",
    ("small", "ADP", 1): "1f8f6de6e84be596ecdddf6cf79d773c92ce9ba0e34067f079db0401983ce859",
    ("small", "ADP", 2): "88117c4faab031ef137539936d954e59c088d9e2cbb91fc380f6c93223ba165b",
    ("small", "INV", 1): "7191db7ea9d88a9212da03912e68cfa076319435d52ca0d974e5d5160dbd3846",
    ("small", "INV", 2): "e27b8526513978822527b7807cc841e6a6af2b43fe5457dfff72e4ea3e560341",
    ("small", "UNI", 1): "a04fbb0cac0d8d9fd8dfb3403a492634ee545b2dd9a263ebfa9d265288dba71e",
    ("small", "UNI", 2): "a63f5f83ec11f5f3f0c668d5e2432a03f5fa76fe1907913cf584cf3b94d7c53e",
    ("small", "FUM", 1): "9e1472b3ee0a73cbf4697954530a02f1ba5653b83cacf01cc38e2b4f34b3d546",
    ("small", "FUM", 2): "6a9d1f7579760a93c186af5fd702b5e2b835b37a9e0c4848f0f6b331ee743eab",
    ("small", "NOM", 1): "333cc06e2fb507136576ce569f41cfbc9613bfec4e630ee2506de3523b841a59",
    ("small", "NOM", 2): "928a82a8880cac19dfa092982ff4d4a09482d5ab7edf42cfb4110721463c490c",
}


def run_digest(result) -> str:
    h = hashlib.sha256()
    for part in run_parts(result):
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", [k.value for k in StrategyKind])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_matches_golden_digest(scenario, kind, seed):
    model, workload = SCENARIOS[scenario]()
    result = run_scenario(model, workload, kind, seed)
    assert run_digest(result) == GOLDEN[(scenario, kind, seed)]


REPORT_GOLDEN = {
    ("loaded", "summary.csv"): "6047b603bd0c3864d38e0f9f821eedb45a2d610b3e67a07521de44ad2867fc68",
    ("loaded", "cycles.csv"): "83f41cb6b5cda400c09899325fc101cc527cc5400ae4f004730c687eed588ecd",
    ("loaded", "distribution.csv"):
        "45f4d1af507e07fff4f5f5c62662a72662792aa28ef46ac3573c11f87782b7ab",
    ("small", "summary.csv"): "89260b2f4c8868f9c7f29c16c8ab15ff70f25fe2e6f0175f7ebaa0082a722b29",
    ("small", "cycles.csv"): "af2d12b7cdedd8cdec66fbbfd33efc1b7b0b3ba4e693199b64502689f06b6321",
    ("small", "distribution.csv"):
        "2f54d42c2a7cc3e27977be10a134ebd8b8e2f7f2b6919d7cc7e83e75c2020ee9",
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_report_matches_golden_digest(scenario, tmp_path):
    model, workload = SCENARIOS[scenario]()
    write_report((run_scenario(model, workload, kind, seed)
                  for seed in SEEDS for kind in StrategyKind), tmp_path)
    for name in ("summary.csv", "cycles.csv", "distribution.csv"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == REPORT_GOLDEN[(scenario, name)], name
