"""In-memory span tracer that wraps the package's public functions from outside.

A span is (name, parent, start, end).  Spans live in four flat arrays so a
traced matrix pass (about half a million spans per seed) stays small in
memory; they are written out once, when the benchmark ends.

The tracer patches module and class attributes *where the caller looks them
up* (for example ``reprtrace.sampler.cochran_sample_size``, not
``reprtrace.stats.cochran_sample_size``), so a span covers exactly the calls
that layer makes.  ``install`` patches, ``uninstall`` restores the originals,
so untraced passes run the unmodified code.

Process-pool workers forked while the tracer is installed inherit the
patches.  They start with empty buffers and append each finished top-level
span tree, with its counters, to a spill file that the parent merges after
the pass.
"""

from __future__ import annotations

import json
import os
import pickle
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._in_worker = [False]
        os.register_at_fork(after_in_child=self._after_fork)

    # --- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _clear(self) -> None:
        del self.name_ids[:], self.parents[:], self.starts[:], self.ends[:]
        self.stack.clear()
        self.counters.clear()

    def _after_fork(self) -> None:
        self._clear()
        self._in_worker[0] = True

    def _spill(self) -> None:
        path = self.spill_dir / f"worker-{os.getpid()}.pkl"
        with open(path, "ab") as handle:
            pickle.dump(self.chunk(), handle)
        self._clear()

    def chunk(self) -> dict:
        """The buffered spans and counters of this process as one chunk (not a copy)."""
        return {
            "pid": os.getpid(),
            "names": self.names,
            "name_ids": self.name_ids,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "counters": self.counters,
        }

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(result, args)`` runs after it."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self.stack
        in_worker = self._in_worker
        spill = self._spill

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            if in_worker[0] and not stack:
                spill()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        nid = self._name_id(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self.stack.pop()

    # --- patching ------------------------------------------------------------

    def patch(self, owners, attr: str, name: str, on_result=None) -> None:
        """Replace ``attr`` on every owner with one traced wrapper of the first owner's value."""
        wrapper = self.wrap(name, vars(owners[0])[attr], on_result)
        for owner in owners:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- collection -------------------------------------------------------------

    def collect_worker_chunks(self) -> list[dict]:
        """Read and delete the chunks spilled by forked workers."""
        chunks = []
        for path in sorted(self.spill_dir.glob("worker-*.pkl")):
            # Only this benchmark's own workers write these files.
            with open(path, "rb") as handle:
                while True:
                    try:
                        chunks.append(pickle.load(handle))
                    except EOFError:
                        break
            path.unlink()
        return chunks


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of ``reprtrace``."""
    from reprtrace import cli, report, sampler, simulator, strategies

    def count_run(result, _args):
        tracer.count("simulator.completed_req", len(result.events))
        tracer.count("simulator.traces", len(result.traces))

    def count_release(result, _args):
        if result is not None:
            tracer.count(f"sampler.releases.{result.reason}")

    def count_baseline(_result, args):
        monitor, now = args[0], args[2]
        if (not monitor.monitoring_enabled
                and monitor.baseline_until == now + monitor.config.baseline_duration):
            tracer.count("sampler.baselines")

    def count_dir_bytes(path: Path) -> None:
        tracer.count("report.bytes_written",
                     sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file()))

    tracer.patch([simulator.Simulation], "step", "simulator.step")
    tracer.patch([simulator, cli], "run_scenario", "simulator.run_scenario", count_run)
    for cls in (strategies.AdaptiveStrategy, strategies.InverseThroughputStrategy,
                strategies.UniformStrategy, strategies.FullMonitoringStrategy,
                strategies.NoMonitoringStrategy):
        key = f"strategies.decide.{cls.kind.value}"

        def count_accept(result, _args, key=key):
            if result:
                tracer.count(key + ".accepted")

        tracer.patch([cls], "decide", key, count_accept)
    for cls in (strategies.Strategy, strategies.AdaptiveStrategy,
                strategies.InverseThroughputStrategy):
        tracer.patch([cls], "on_tick", "strategies.on_tick")
    monitor_cls = sampler.AdaptiveMonitor
    tracer.patch([monitor_cls], "decide", "sampler.decide")
    tracer.patch([monitor_cls], "evaluate_sample", "sampler.evaluate_sample", count_release)
    tracer.patch([monitor_cls], "on_tick", "sampler.on_tick")
    tracer.patch([monitor_cls], "adapt_rate", "sampler.adapt_rate", count_baseline)
    for fn in ("cochran_sample_size", "one_sample_t_p_value_from_stats", "paired_t_test"):
        tracer.patch([sampler], fn, f"stats.{fn}")
    tracer.patch([report, cli], "save_run", "report.save_run",
                 lambda result, _args: count_dir_bytes(result))
    tracer.patch([report, cli], "load_run", "report.load_run")
    tracer.patch([report, cli], "write_report", "report.write_report",
                 lambda result, _args: count_dir_bytes(result.out_dir))
    tracer.patch([report], "write_trace_file", "model.write_trace_file")
    tracer.patch([report], "read_trace_file", "model.read_trace_file")
    tracer.patch([cli], "parse_scenario", "scenario.parse_scenario")
    tracer.patch([cli], "default_scenario", "scenario.default_scenario")
    tracer.patch([cli], "scenario_to_dict", "scenario.scenario_to_dict")
    tracer.patch([cli], "main", "cli.main")


def aggregate(chunks: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds (total minus child spans)."""
    stats: dict[str, dict[str, float]] = {}
    for chunk in chunks:
        names, name_ids, parents = chunk["names"], chunk["name_ids"], chunk["parents"]
        starts, ends = chunk["starts"], chunk["ends"]
        n = len(starts)
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        per_name = [[0, 0.0, 0.0] for _ in names]
        for i in range(n):
            duration = ends[i] - starts[i]
            entry = per_name[name_ids[i]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child[i]
        for name, (calls, total, self_s) in zip(names, per_name):
            if calls:
                entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                entry["calls"] += calls
                entry["s"] += total
                entry["self_s"] += self_s
    return stats


def top_level_seconds(chunk: dict) -> float:
    """Summed duration of the spans without a parent in ``chunk``."""
    return sum(chunk["ends"][i] - chunk["starts"][i]
               for i in range(len(chunk["starts"])) if chunk["parents"][i] < 0)


def write_spans(path: Path, chunks: list[dict]) -> None:
    """One JSON header line, then each chunk's raw arrays.

    The header lists, per chunk, its pid, name table and span count; the
    body holds, per chunk, name ids (int32), parent indexes (int32, -1 for
    a root, relative to the chunk), starts and ends (float64 seconds of
    ``time.perf_counter``) in that order, native byte order.
    """
    header = {
        "format": "perfbench-spans-1",
        "chunks": [{"pid": c["pid"], "names": c["names"], "spans": len(c["starts"])}
                   for c in chunks],
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n")
        for chunk in chunks:
            for key in ("name_ids", "parents", "starts", "ends"):
                chunk[key].tofile(handle)
