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

    def lossy(max_size, max_occ, threads=1):
        return [pat for pat in real(max_size, max_occ, threads) if len(pat) < max_size]

    monkeypatch.setattr(shapes, "_search", lossy)


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
