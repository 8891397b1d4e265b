import pytest

from occ132 import enumerate_kernel_shapes, joint_tables, shapes


@pytest.fixture(scope="session")
def catalog1():
    return enumerate_kernel_shapes(1)


@pytest.fixture(scope="session")
def catalog2():
    return enumerate_kernel_shapes(2)


@pytest.fixture(scope="session")
def catalog3():
    return enumerate_kernel_shapes(3)


@pytest.fixture(scope="session")
def catalog6():
    return enumerate_kernel_shapes(6)


@pytest.fixture(scope="session")
def full_tables():
    """The complete joint tables of S_0..S_9, swept once for the session."""
    return joint_tables(range(10))


@pytest.fixture
def search_without_maximal_shape(monkeypatch):
    """A shape search that loses every pattern of its largest size."""
    real = shapes._search

    def lossy(max_size, max_occ, threads=1, rows=False):
        found = real(max_size, max_occ, threads, rows)
        return [leaf for leaf in found if len(leaf[0] if rows else leaf) < max_size]

    monkeypatch.setattr(shapes, "_search", lossy)


@pytest.fixture
def search_with_a_count_off_by_one(monkeypatch):
    """A search job that reports the capacity of one row, that of 1423, as
    3 instead of 2: the capacities of budget 3 become (1, 1, 4, 22) against
    the census (1, 1, 5, 21)."""
    real = shapes._dfs

    def miscounting(max_size, max_occ, roots, rows):
        return [(pat, capacity + 1, *rest) if pat == (1, 4, 2, 3) else (pat, capacity, *rest)
                for pat, capacity, *rest in real(max_size, max_occ, roots, rows)]

    monkeypatch.setattr(shapes, "_dfs", miscounting)


@pytest.fixture
def serial_pool(monkeypatch):
    """multiprocessing.Pool replaced by one that starts no process: it
    records the process count it was asked for and starmaps in this process.
    Returns the list of recorded counts."""
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, jobs, chunksize=None):
            return [func(*job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return sizes
