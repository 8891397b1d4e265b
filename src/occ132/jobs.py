"""The one job runner of the shape search, the brute-force oracle and the
structure sweep.  A pool's workers get the job function and what the jobs
share once, through the pool initializer, so that no result depends on
what a forked worker inherits: the output is the same under ``spawn``."""

from __future__ import annotations

from typing import Callable

# (func, shared) of the pool this worker process serves, set by its initializer
_task: tuple[Callable, tuple]


def run_jobs(func: Callable, jobs: list[tuple], threads: int, shared: tuple = ()) -> list:
    """``[func(*job, *shared) for job in jobs]``, in job order: in this
    process when threads is 1 or there are fewer than two jobs, else in one
    pool of ``min(threads, len(jobs))`` workers, one job per task."""
    if threads <= 1 or len(jobs) < 2:
        return [func(*job, *shared) for job in jobs]
    from multiprocessing import Pool

    with Pool(min(threads, len(jobs)), initializer=_start_worker, initargs=(func, shared)) as pool:
        return pool.map(_run_job, jobs, chunksize=1)


def _start_worker(func: Callable, shared: tuple) -> None:
    global _task
    _task = (func, shared)


def _run_job(job: tuple):
    func, shared = _task
    return func(*job, *shared)
