"""Shared test helpers: canned RNGs, event builders and the Hypothesis profiles."""

import os

import pytest
from hypothesis import settings

from reprtrace.model import FrequencyTable, RequestEvent, SamplerConfig

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


def table_from(counts):
    table = FrequencyTable()
    for type_id, count in counts.items():
        for _ in range(count):
            table.add(type_id)
    return table


@pytest.fixture
def config():
    return SamplerConfig()
