"""Seed derivation and the worker fan-out."""

import concurrent.futures

import pytest

from rfsentry import lof, seeding
from rfsentry.errors import ConfigError
from rfsentry.seeding import derive_seed, map_chunks


def _seeds(items, stage):
    # module level, so worker processes can unpickle it
    return [derive_seed(stage, item) for item in items]


def test_map_chunks_result_is_independent_of_jobs(monkeypatch):
    # three usable CPUs, so that 3 jobs are not capped on a smaller host
    monkeypatch.setattr(seeding, "usable_cpus", lambda: 3)
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


class _InlinePool:
    """A process pool stand-in: records its ``max_workers`` and runs each chunk inline."""

    def __init__(self, made: list, max_workers: int, mp_context=None, initializer=None):
        self.max_workers, self.submits = max_workers, 0
        made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submits += 1
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("cpus, jobs, workers", [
    (2, 5000, 2), (3, 2, 2), (4, 50, 4), (1, 8, None), (None, 5000, None),
])
def test_map_chunks_starts_no_more_workers_than_usable_cpus(monkeypatch, cpus, jobs, workers):
    # never start real processes here: the fake pool only records what was asked
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: _InlinePool(made, **kw))
    if cpus is not None:
        monkeypatch.setattr(seeding, "usable_cpus", lambda: cpus)
    items = list(range(30))
    assert map_chunks(_seeds, items, jobs, "x") == _seeds(items, "x")
    usable = seeding.usable_cpus()
    if workers is None:  # one usable CPU runs in-process, with no pool
        workers = usable if usable > 1 else None
    assert [(pool.max_workers, pool.submits) for pool in made] == (
        [(workers, workers)] if workers else [])


def test_both_fan_outs_read_one_cpu_rule():
    assert lof.usable_cpus is seeding.usable_cpus
    assert seeding.usable_cpus() >= 1
