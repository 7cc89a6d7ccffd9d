"""Forked worker processes for the all-pairs slices and the covering trials.

Workers are forked, so they inherit what the parent built (a plan, or a
matrix in a shared mapping) instead of receiving a pickled copy; only the
task items and the results cross between processes. A worker that dies
raises ``concurrent.futures.process.BrokenProcessPool`` in the parent.
"""
from __future__ import annotations

import os
from typing import Callable, Sequence


def usable_cpus() -> int:
    """The CPUs this process may run on, which a container or taskset can narrow."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def usable_workers(workers: int) -> int:
    """``workers``, at least 1 as ``metrics.check_run`` requires, capped at the usable CPUs."""
    return min(int(workers), usable_cpus())


# a fork worker's (function, state), inherited from the parent at fork
_worker_task: tuple | None = None


def _init_worker(fn, state) -> None:
    global _worker_task
    _worker_task = (fn, state)


def _run(item):
    fn, state = _worker_task  # type: ignore[misc]
    return fn(*state, item)


def fork_map(fn: Callable, items: Sequence, workers: int, state: tuple) -> list:
    """``[fn(*state, item) for item in items]``, in order, on at most
    ``workers`` forked processes, each at most one per item and per usable
    CPU. One worker, or a platform without fork, runs them in this process."""
    workers = min(usable_workers(workers), len(items))
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(*state, item) for item in items]
    # imported here so that importing the package does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fn, state),
    ) as pool:
        return list(pool.map(_run, items, chunksize=max(1, len(items) // (workers * 8))))
