"""Seed derivation and the worker fan-out."""

import pytest

from rfsentry.errors import ConfigError
from rfsentry.seeding import derive_seed, map_chunks


def _seeds(items, stage):
    # module level, so worker processes can unpickle it
    return [derive_seed(stage, item) for item in items]


def test_map_chunks_result_is_independent_of_jobs():
    items = list(range(7))
    serial = map_chunks(_seeds, items, 1, "x")
    assert serial == _seeds(items, "x")
    for jobs in (2, 3):
        assert map_chunks(_seeds, items, jobs, "x") == serial
    # more jobs than items, and no items at all
    assert map_chunks(_seeds, items[:2], 3, "x") == serial[:2]
    assert map_chunks(_seeds, [], 3, "x") == []


def test_map_chunks_rejects_jobs_below_one():
    with pytest.raises(ConfigError, match="jobs must be at least 1, got 0"):
        map_chunks(_seeds, [1], 0, "x")
