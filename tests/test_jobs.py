"""The job runner the shape search, the oracle and the structure sweep share."""

import multiprocessing
from pathlib import Path

import pytest

import occ132
from occ132.jobs import run_jobs

JOBS = [(n,) for n in range(20, 31)]


@pytest.mark.parametrize("threads", [1, 2])
def test_results_come_back_in_job_order(threads):
    assert run_jobs(divmod, JOBS, threads, (7,)) == [divmod(n, 7) for n, in JOBS]


def test_shared_reaches_spawned_workers(monkeypatch):
    # spawned workers inherit nothing from this process, so the job function
    # and the shared arguments reach them through the pool initializer only
    spawn = multiprocessing.get_context("spawn").Pool
    sizes = []

    def recording(processes, *args, **kwargs):
        sizes.append(processes)
        return spawn(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", recording)
    assert run_jobs(divmod, JOBS[:3], 2, (7,)) == [(2, 6), (3, 0), (3, 1)]
    assert sizes == [2]


def test_pool_has_one_process_per_job_at_most(serial_pool):
    assert run_jobs(divmod, [], 4) == []
    assert run_jobs(divmod, [(7, 5)], 4) == [(1, 2)]
    assert serial_pool == []
    assert run_jobs(divmod, JOBS[:3], 8, (7,)) == [(2, 6), (3, 0), (3, 1)]
    assert run_jobs(divmod, JOBS, 2, (7,)) == [divmod(n, 7) for n, in JOBS]
    assert serial_pool == [3, 2]


def test_only_the_runner_mentions_multiprocessing():
    src = Path(occ132.__file__).parent
    mentions = sorted(path.name for path in src.glob("*.py") if "multiprocessing" in path.read_text())
    assert mentions == ["jobs.py"]
