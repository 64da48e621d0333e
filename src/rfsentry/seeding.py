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

from .errors import ConfigError


def derive_seed(*parts: int | str) -> int:
    """Map (master seed, stage name, indices, ...) to a 63-bit child seed."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


def stage_seed(master_seed: int, stage: str) -> int:
    """Per-stage seed used by the CLI (documented fan-out of --seed)."""
    return derive_seed(master_seed, "stage", stage)


def map_chunks(fn, items: list, jobs: int, *args) -> list:
    """``fn(items, *args)`` computed over ``jobs`` contiguous chunks of ``items``.

    ``fn`` maps a list to a list with one result per item, so the chunk
    results, concatenated in order, equal the one-call result. One job runs
    in-process; more run the chunks on a process pool, so ``fn`` must be a
    module-level function. Workers are spawned, not forked, because the
    parent may already run BLAS threads.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1:
        return fn(items, *args)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    bounds = sorted({len(items) * i // jobs for i in range(jobs + 1)})
    with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
        futures = [pool.submit(fn, items[lo:hi], *args) for lo, hi in zip(bounds, bounds[1:])]
        return [result for future in futures for result in future.result()]
