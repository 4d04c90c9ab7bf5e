"""Shared test helpers: canned RNGs, event and trace builders and the
Hypothesis profiles."""

import math
import os

import pytest
from hypothesis import settings

from reprtrace.model import FrequencyTable, RequestEvent, SamplerConfig, TraceColumns
from reprtrace.stats import one_sample_t_p_value_from_stats

# HYPOTHESIS_PROFILE=ci makes every property test replay the same examples on
# every run; max_examples is at least any test's own, so none runs fewer.
settings.register_profile("ci", derandomize=True, database=None, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class AlwaysRng:
    """random() == 0.0: every Bernoulli trial at rate > 0 succeeds."""

    def __init__(self):
        self.draws = 0

    def random(self):
        self.draws += 1
        return 0.0


class NeverRng:
    """random() just below 1: every Bernoulli trial at rate < 1 fails."""

    def __init__(self):
        self.draws = 0

    def random(self):
        self.draws += 1
        return 0.9999999999


class ScriptRng:
    """Replays a fixed tape of uniform draws."""

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0

    def random(self):
        value = self.values[self.pos]
        self.pos += 1
        return value


def make_event(type_id="/home", start=0, rt=100.0, mem=50.0):
    return RequestEvent(type_id=type_id, start=start, response_time=rt, memory_delta=mem)


def trace_columns(records):
    """``records`` (``TraceRecord``s) as a ``TraceColumns``, type indices
    numbered in order of first appearance, as ``read_trace_file`` numbers
    them: how a run built by hand gets its traces."""
    columns = TraceColumns([])
    index = {}
    for record in records:
        event = record.event
        columns.starts.append(event.start)
        columns.cycles.append(record.cycle_index)
        columns.types.append(index.setdefault(event.type_id, len(index)))
        columns.response_times.append(event.response_time)
        columns.memories.append(event.memory_delta)
    columns.type_ids.extend(index)
    return columns


def one_sample_p(values, mu0):
    """Two-sided one-sample t p-value of ``values`` against ``mu0``, from
    their count, mean and sum of squared deviations."""
    n = len(values)
    mean = math.fsum(values) / n
    m2 = math.fsum((v - mean) ** 2 for v in values)
    return one_sample_t_p_value_from_stats(n, mean, m2, mu0)


def table_from(counts):
    table = FrequencyTable()
    for type_id, count in counts.items():
        for _ in range(count):
            table.add(type_id)
    return table


@pytest.fixture
def config():
    return SamplerConfig()
