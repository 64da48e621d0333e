"""Deterministic seed derivation.

Every random draw in the pipeline is seeded from a master seed through
``derive_seed``, so any stage can be reproduced in isolation. The derivation
hashes the parts with SHA-256, which keeps per-signal seeds statistically
independent even for adjacent indices. Because no draw depends on which
process makes it, ``map_chunks`` can spread per-item work over worker
processes and still give the same result for any worker count.
"""

from __future__ import annotations

import hashlib
import os

from .errors import ConfigError


def derive_seed(*parts: int | str) -> int:
    """Map (master seed, stage name, indices, ...) to a 63-bit child seed."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


def stage_seed(master_seed: int, stage: str) -> int:
    """Per-stage seed used by the CLI (documented fan-out of --seed)."""
    return derive_seed(master_seed, "stage", stage)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS has one.

    Both fan-outs read it: ``map_chunks`` starts at most this many worker
    processes, and the LOF layer runs this many threads.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def chunk_bounds(count: int, parts: int) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` bounds of ``parts`` contiguous chunks of ``count`` items, in order.

    Chunk sizes differ by at most one; an empty chunk (``parts > count``) is
    dropped. ``map_chunks`` splits its items by this rule, and so does the
    LOF layer's thread fan-out.
    """
    bounds = sorted({count * i // parts for i in range(parts + 1)})
    return list(zip(bounds, bounds[1:]))


def map_chunks(fn, items: list, jobs: int, *args) -> list:
    """``fn(items, *args)`` computed over at most ``jobs`` contiguous chunks of ``items``.

    ``fn`` maps a list to a list with one result per item, so the chunk
    results, concatenated in order, equal the one-call result. There are no
    more chunks than usable CPUs, since a spawned pool starts one interpreter
    for each chunk that finds no idle worker. One chunk runs in-process; more
    run on a process pool, one worker each, so ``fn`` must be a module-level
    function. Workers are spawned, not forked, because the parent may already
    run BLAS threads.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, _usable_cpus())
    if jobs == 1:
        return fn(items, *args)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
        futures = [pool.submit(fn, items[lo:hi], *args)
                   for lo, hi in chunk_bounds(len(items), jobs)]
        return [result for future in futures for result in future.result()]
