import __future__
import inspect

import pytest

from occ132 import enumerate_kernel_shapes, jobs, joint_tables, shapes


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
        return [row for row in real(max_size, max_occ, threads) if len(row[0]) < max_size]

    monkeypatch.setattr(shapes, "_search", lossy)


@pytest.fixture
def search_with_a_count_off_by_one(monkeypatch):
    """A search job that reports the capacity of one row, that of 1423, as
    3 instead of 2: the capacities of budget 3 become (1, 1, 4, 22) against
    the census (1, 1, 5, 21)."""
    real = shapes._dfs

    def miscounting(max_size, max_occ, roots):
        return [(pat, capacity + 1, *rest) if pat == (1, 4, 2, 3) else (pat, capacity, *rest)
                for pat, capacity, *rest in real(max_size, max_occ, roots)]

    monkeypatch.setattr(shapes, "_dfs", miscounting)


# Off-by-one plants in the cuts of the shape search's tight subtrees: the
# function, a text of its source and the text planted in its place.
SEARCH_CUT_PLANTS = {
    # cut B reads the child's slots that close 1..room' - 1 pairs only
    "look_ahead_range": ("_child", "w - 1]) <= nroom:", "w - 1]) < nroom:"),
    # cut B takes every child for tight
    "look_ahead_tight_test": ("_child", "if nq - 1 == nroom and", "if nq - 1 <= nroom + 1 and"),
    # cut A reads the bit of the slot above
    "skip_reads_the_next_bit": ("_children", "not mask >> v & 1:", "not mask >> v + 1 & 1:"),
    # a slot whose d pairs touch d + 1 labels is marked unclean too
    "mark_clean_slots": ("_children", "if len(touched) <= d:", "if len(touched) <= d + 1:"),
    # the append marks child slot lo as well, whose pairs it may not share
    "span_one_slot_low": ("_touched_labels", "- (2 << lo)", "- (1 << lo)"),
    # child slot v + 1 takes the parent's bit v + 1 as well as bit v
    "mask_keeps_one_bit_too_many": ("_child", "mask & ((2 << v) - 1)", "mask & ((4 << v) - 1)"),
}


@pytest.fixture(params=sorted(SEARCH_CUT_PLANTS))
def search_with_a_planted_cut(request, monkeypatch, catalog6):
    """The shape search with one plant of SEARCH_CUT_PLANTS compiled into
    the module in place of the function it edits (catalog6 is built
    first, without it).  Returns the list of what each ``_search`` call
    found."""
    name, text, planted = SEARCH_CUT_PLANTS[request.param]
    source = inspect.getsource(getattr(shapes, name))
    assert source.count(text) == 1, f"{name} no longer holds {text!r} once"
    namespace = {}
    code = compile(source.replace(text, planted), shapes.__file__, "exec",
                   __future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, vars(shapes), namespace)
    monkeypatch.setattr(shapes, name, namespace[name])
    real = shapes._search
    found = []

    def recording(*args, **kwargs):
        found.append(real(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(shapes, "_search", recording)
    return found


@pytest.fixture
def serial_pool(monkeypatch):
    """multiprocessing.Pool replaced by one that starts no process: it
    records the process count the job runner asked for, runs the pool
    initializer and maps in this process.  Returns the list of recorded
    counts."""
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs, chunksize=None):
            return [func(job) for job in jobs]

    # the initializer sets the worker's task here, in this process
    monkeypatch.setattr(jobs, "_task", None, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return sizes


@pytest.fixture
def every_sweep_pooled(monkeypatch):
    """The oracle's and the structure sweep's pool rules set to pool every
    sweep of threads > 1, and multiprocessing's Pool wrapped to record the
    process count of each pool started, in any start method's context.
    Returns the list of recorded counts."""
    import multiprocessing.pool

    from occ132 import invariants, oracle

    monkeypatch.setattr(oracle, "POOL_FROM_BUDGET", dict.fromkeys(range(1, oracle.SWEEP_GUARD + 1), 0))
    monkeypatch.setattr(invariants, "POOL_FROM_MAX_N", 1)
    sizes = []
    real = multiprocessing.pool.Pool.__init__

    def recording(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        real(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", recording)
    return sizes
