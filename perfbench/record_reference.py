"""Record ``reference.json``: output digests and nominal baseline timings.

    python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  For each input seed the compare report is checked against the
matrix report recorded just before it, so the reference is only written when
both report paths give identical bytes.  The nominal timings are medians of the baseline side of
pairs over input seeds 1-3 on the recording host; run.py scales them by the
measured checkout/baseline ratio.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from run import (OUT, REFERENCE, SETUP_REPEATS, decide_us, import_packages, machine_facts,
                 setup_seconds)

NOMINAL_SEEDS = (1, 2, 3)
NOMINAL_PASSES = 3


def nominal(cls, baseline, tmp: Path, checker) -> dict:
    """Medians of the baseline side of pairs, timed exactly as run.py times it."""
    theirs = []
    for seed in NOMINAL_SEEDS:
        work = cls(seed, tmp, checker)
        theirs += [work.run_pair(baseline, baseline)[1] for _ in range(NOMINAL_PASSES)]
    setup_seconds("baseline", cls.name)
    setups = [setup_seconds("baseline", cls.name) for _ in range(SETUP_REPEATS)]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in theirs),
        "sim_req_per_s": statistics.median(p.requests / p.wall for p in theirs),
        "decide_us_p50": statistics.median(decide_us(p, "unit_p50_us") for p in theirs),
        "decide_us_p99": statistics.median(decide_us(p, "unit_p99_us") for p in theirs),
        "passes": len(theirs),
        "seeds": list(NOMINAL_SEEDS),
    }


def main() -> int:
    subject, baseline = import_packages()
    import workloads

    reference: dict = {}
    checker = workloads.Checker(reference, record=True)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-record-", dir=OUT))
    try:
        for seed in range(1, workloads.REFERENCE_SEEDS + 1):
            for cls in workloads.WORKLOADS.values():
                result = cls(seed, tmp, checker).run_pass(subject)
                print(f"{cls.name} seed {seed}: {result.attempted} operations, "
                      f"{result.failed} failed, {result.wall:.2f} s", flush=True)
                if result.failed:
                    print("\n".join(result.failures), file=sys.stderr)
                    return 1
        reference["nominal"] = {}
        for name, cls in workloads.WORKLOADS.items():
            reference["nominal"][name] = nominal(cls, baseline, tmp, checker)
            print(f"nominal {name}: {reference['nominal'][name]}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    facts = machine_facts("matrix", {})
    reference["recorded_at"] = {"commit": facts["commit"], "src_digest": facts["src_digest"],
                                "python": facts["python"], "nproc": facts["nproc"],
                                "platform": facts["platform"]}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
