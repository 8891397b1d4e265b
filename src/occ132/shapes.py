"""Search for kernel permutations, catalogs and census.

The search walks the prefix-pattern tree: the node for a permutation of
S_k has one child per value v in 1..k+1, obtained by appending v on the
right and bumping existing values >= v.  Appending only ever adds
occurrences of 132 (the new entry can only close one), so prefix counts
are monotone and any prefix whose count exceeds the budget can be cut.

Alongside the pattern, each node carries two incrementally maintained
vectors:

- ``D[v]``, the number of occurrences created by appending v: pairs of
  earlier positions (i, j), i < j, with value(i) < v <= value(j); and
- per-position component labels of the occurrence graph, so that
  connectivity (the kernel-permutation test) is a constant-size check
  at every node instead of a rebuild.

A second prune cuts every prefix that can no longer become connected.
The D[v] pairs that appending v closes form a connected bipartite
graph (the first below-v entry pairs with every above-v entry that is
in any pair), so they span at most D[v] + 1 positions: an append
lowers the component count q by at most D[v], and a silent one raises
it by 1.  A prefix with q components therefore
needs at least q - 1 more occurrences, and is cut when q - 1 exceeds
the budget left.  Every search has a budget: listing all kernel
permutations of size <= s uses C(s, 3), which no pattern of that size
exceeds.

Most of what that prune keeps is *tight*: its room, the budget left,
is exactly q - 1.  Three more cuts work there, on two facts.

- A tight node stays tight.  A child that closes d pairs touching t
  labels has q - t + 1 components and room - d left, so it is kept only
  if t >= d + 1; since t <= d + 1 always, t = d + 1 and the child is
  tight again.  A silent append (d = 0) adds a component and is cut.
- Uncleanness is hereditary.  Call slot v unclean when its D[v] >= 1
  pairs carry at most D[v] distinct labels: their graph has a cycle,
  or two of their positions share a component.  Child slot w <= v comes
  from parent slot w, child slot v + 1 from parent slot v, and child
  slot w >= v + 2 from parent slot w - 1.  Each child slot's pairs
  include its parent slot's (the positions stay, the values are only
  bumped), and components only merge, so a cycle or a shared component
  stays.

So a tight subtree only ever appends at clean slots.  The search state
carries a bit mask of slots known to be unclean: every touched set with
at most d labels sets its slot's bit, and an append at v with d >= 1
merges the positions of its pairs into one component, so it also sets
the bit of every child slot that has one of those pairs among its own.
Those are child slots lo + 1 .. hi + 1, with lo the least value of a
participating position below v and hi the greatest at or above it: a
pair (i, j) of v with pat[i] < w lies in child slot w <= v, one with
pat[j] >= w - 1 in child slot w >= v + 2, and all lie in slot v + 1.

- Cut A: a tight node skips its masked slots without computing their
  touched labels.
- Cut B, the look-ahead: a tight child with q' > 1 components is not
  built when none of its slots is both unmasked and closes 1 .. room'
  pairs.  It could keep no child, and it is not connected, so its
  subtree holds no pattern.

At budgets 6 / 7 / 8 these cuts take the search from 28 339 / 194 794 /
1 366 028 nodes to 14 734 / 97 491 / 665 552.

The catalog the generating-function solver consumes for budget r is
one search over sizes <= 2r+1.  It finds the maximal shape of size 2r+1
too, and its count check proves that shape unique at every budget it
builds.  The last level costs little: it keeps only the children that
close into one component, and lists their patterns without building
their states or expanding them.  Budgets above :data:`SEARCH_GUARD` are
refused before the search starts.

Each search job, run in this process or in the worker pool, turns every
connected pattern it finds into a finished catalog row: the pattern, its
capacity, its feasible cells in dominance order and their northeast runs
(``lis_ne``).  The capacity is the occurrence count the search state
carries to the pattern, since a connected pattern's occurrences all lie
in its one component.  The cells and runs come from
``kernel._cells_and_runs``, which raises CellOrderError on cells that
are not totally ordered.  The parent only sorts the rows and checks
their counts: a row is a record as it stands, the named tuple
``KernelShapeRecord`` of the same four fields, so the parent runs no
union-find, calls no :func:`~occ132.kernel.shape_record` and builds no
``Permutation``.  What guards the counted capacities is the count check
every build runs (``_check_counts``): a count off by one moves its shape
to another capacity, which the census catches through capacity 6.  The
tests compare every row of budget 6 with the record ``shape_record``
builds, whose capacity the occurrence graph's union-find counts.
:func:`iter_kernel_permutations` reads the serial walk under the jobs
(``_walk``) and builds no rows.

A catalog file holds one JSON line per record, written line by line
from one generator (:func:`catalog_lines`).  Every field but the shape
is derived from it, so :func:`load_catalog` checks that each shape is a
permutation, rebuilds its record from it and accepts only the line
:func:`catalog_lines` writes for it.  The solver reads only the
catalog's fold (:func:`fold_catalog`): shapes counted by (size,
capacity, lis of the shape, sorted northeast runs), 296 classes for the
3 214 records of budget 6.  :func:`save_catalog` writes the fold beside
the catalog as the sidecar ``<file>.fold``, a small JSON file holding
the sha256 of the catalog's bytes and a second sha256 over that digest,
the budget and the class rows.  :func:`load_fold` hashes the catalog,
reads the sidecar instead of parsing the records and runs the count
checks of :func:`load_catalog` on the fold.  A changed catalog fails
the first digest, an edited row the second.  The solver commands read a
catalog through its sidecar alone and search again when it is unsound;
nothing but tests and benchmark probes parses the records back.
"""

from __future__ import annotations

import json
from collections import Counter
from math import comb
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple

# kernel, perms and jobs (with the worker pool) are imported by the
# functions that search, build, fold or parse records, so a solve from a
# fold sidecar loads none of them.
if TYPE_CHECKING:
    from .kernel import KernelShapeRecord

# CPython's own sha256 for the catalog digest: hashlib's loads OpenSSL,
# which adds about 3.5 MiB to the resident set of every warm run, while
# the built-in one hashes a budget-6 catalog in about 2 ms.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

CATALOG_FORMAT_VERSION = 1
FOLD_FORMAT_VERSION = 2

# Number of kernel shapes of each capacity 0..6, maximal shapes included.
KNOWN_CAPACITY_CENSUS = (1, 1, 5, 21, 105, 504, 2577)

_FOLD_KEYS = {"format_version", "max_occ", "catalog_sha256", "fold_sha256", "classes"}

# The largest budget a catalog is searched for.  Build time grows 5-8x
# per budget: with 2 processes budget 8 took 5.4-5.9 s and budget 9 about
# 40 s (shared 2-vCPU Xeon, Python 3.11.7), so budget 11 would take half
# an hour or more, and the search's stack grows with the size bound 2r+1
# (budget 100 000 passed 5 GiB before it was stopped).
SEARCH_GUARD = 10

# Depth at which the search tree is split into parallel jobs.
_SPLIT_DEPTH = 5

# A search state: the pattern, its occurrence count, D, the component label
# of each position, the number of components and the unclean-slot mask.
_State = tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...], int, int]


class CatalogError(RuntimeError):
    """A catalog file is malformed or too small for the request."""


class ShapeCatalog(NamedTuple):
    """All kernel shapes usable up to a given occurrence budget."""

    max_occ: int
    records: tuple[KernelShapeRecord, ...]


# A fold class: (size, capacity, lis of the shape, sorted northeast runs).
FoldClass = tuple[int, int, int, tuple[int, ...]]


class ShapeFold(NamedTuple):
    """All a solver reads of a catalog: its budget and the number of
    shapes in each class.  A class's cell count is its number of runs."""

    max_occ: int
    classes: dict[FoldClass, int]


class Census(NamedTuple):
    """Shape counts by size, plus per-budget counts of newly usable
    shapes: those of capacity exactly r, minus the single maximal one of
    size 2r+1."""

    by_size: dict[int, int]
    new_nonexceptional: dict[int, int]


def _root_state() -> _State:
    # Pattern (1,): no occurrences, D[1] = D[2] = 0, one singleton component
    # and no slot known to be unclean.
    return ((1,), 0, (0, 0, 0), (0,), 1, 0)


def _touched_labels(pat: tuple[int, ...], comp: tuple[int, ...], v: int) -> tuple[set[int], int]:
    """Component labels merged when appending v creates occurrences, and
    the mask of the child's slots those occurrences leave unclean.

    The new triples are (i, j, new) over all i < j with pat[i] < v <=
    pat[j]; the participating positions are exactly the below-v entries
    with a later above-v partner and vice versa.  After the append they
    share one component, so a child slot is unclean when one of these
    pairs is among its own: that is child slot w for lo < w <= hi + 1,
    with lo the least participating value below v and hi the greatest
    at or above it (see the module docstring).  Call only with D[v] >= 1.
    """
    touched = set()
    hi = 0
    seen_below = False
    for q, x in enumerate(pat):
        if x < v:
            seen_below = True
        elif seen_below:
            touched.add(comp[q])
            if x > hi:
                hi = x
    lo = v
    seen_above = False
    for q in range(len(pat) - 1, -1, -1):
        x = pat[q]
        if x >= v:
            seen_above = True
        elif seen_above:
            touched.add(comp[q])
            if x < lo:
                lo = x
    return touched, (2 << hi + 1) - (2 << lo)


def _children(state: _State, max_occ: int, final: bool) -> list:
    """The children of `state` worth visiting: their states, or at the
    last level, where only connected children count, their (pattern,
    occurrence count) pairs.

    A child with q components needs at least q - 1 more occurrences to
    become connected (see the module docstring), so it is kept only if
    q - 1 <= room, the occurrences it may still gain.  A connected child
    at the last level closes d <= room pairs touching all q components,
    so d >= q - 1.  A tight node (q - 1 == room) keeps only children that
    touch d + 1 labels with their d >= 1 pairs; it skips the slots its
    mask marks unclean, and marks those it finds unclean (cut A).  The
    others pass through :func:`_child`, which drops the tight children
    that can have no child (cut B).
    """
    pat, cnt, D, comp, q, mask = state
    k = len(pat)
    room = max_occ - cnt
    if final:
        return [((*[x if x < v else x + 1 for x in pat], v), cnt + D[v])
                for v in range(1, k + 2)
                if max(q - 1, 1) <= D[v] <= room and len(_touched_labels(pat, comp, v)[0]) == q]
    kept = []
    if q - 1 == room:
        for v in range(1, k + 2):
            d = D[v]
            if 0 < d <= room and not mask >> v & 1:
                touched, span = _touched_labels(pat, comp, v)
                if len(touched) > d:
                    kept.append((v, d, touched, span))
                else:
                    mask |= 1 << v
    else:
        for v in range(1, k + 2):
            d = D[v]
            if d == 0:
                # A silent append leaves the new entry isolated: q + 1 components.
                if q <= room:
                    kept.append((v, 0, (), 0))
            elif d <= room:
                touched, span = _touched_labels(pat, comp, v)
                if len(touched) <= d:
                    mask |= 1 << v
                if q - len(touched) <= room - d:
                    kept.append((v, d, touched, span))
    children = []
    for v, d, touched, span in kept:
        child = _child(state, mask, v, d, touched, span, max_occ)
        if child is not None:
            children.append(child)
    return children


def _child(state: _State, mask: int, v: int, d: int, touched, span: int, max_occ: int) -> _State | None:
    """The state after appending v, which closes d pairs touching the
    component labels `touched`, or None when the look-ahead proves its
    subtree holds no connected pattern.

    `mask` is the parent's unclean-slot mask with what its own scan
    found, and `span` the child slots the append leaves unclean.  A
    tight child with more than one component is dropped when none of its
    slots is both unmasked and closes 1..nroom pairs (cut B): it could
    keep no child, and it is not connected.
    """
    pat, cnt, D, comp, q, _ = state
    k = len(pat)
    # Child slots w <= v keep the parent's bit w, child slot v + 1 takes
    # bit v, and slots above take the bit below them.
    nmask = mask & ((2 << v) - 1) | mask >> v << v + 1 | span
    nq = q - len(touched) + 1 if touched else q + 1
    nroom = max_occ - cnt - d
    if nq - 1 == nroom and nq > 1:
        # The child's unmasked slots 2..k+1, each read for D'[w] (below)
        # until one closes 1..nroom pairs; slot 1 and the top slot k+2
        # close none.
        free = ~nmask & (4 << k) - 4
        while free:
            low = free & -free
            w = low.bit_length() - 1
            if 0 < (D[w] + w - 1 if w <= v else D[w - 1]) <= nroom:
                break
            free ^= low
        else:
            return None
    # D'[w] = D[w] + w - 1 for w <= v, the pairs ending at the new entry
    # added, and D[w - 1] above v, across the bump.
    nD = (0, *map(add, D[1 : v + 1], range(v)), *D[v:])
    npat = (*[x if x < v else x + 1 for x in pat], v)
    if touched:
        merged = dict.fromkeys(touched, k)
        return (npat, cnt + d, nD, (*map(merged.get, comp, comp), k), nq, nmask)
    return (npat, cnt + d, nD, comp + (k,), nq, nmask)


def _walk(max_size: int, max_occ: int, roots: list[_State]) -> list[tuple[tuple[int, ...], int]]:
    """(pattern, occurrence count) of every connected pattern in the subtrees."""
    found = []
    stack = list(roots)
    while stack:
        state = stack.pop()
        pat, cnt, _, _, q, _ = state
        k = len(pat)
        if q == 1 and k <= max_size:
            found.append((pat, cnt))
        if k + 1 < max_size:
            stack.extend(_children(state, max_occ, False))
        elif k + 1 == max_size:
            found.extend(_children(state, max_occ, True))
    return found


def _dfs(max_size: int, max_occ: int, roots: list[_State]) -> list:
    """One search job: the catalog rows (pattern, capacity, cells,
    lis_ne) of every connected pattern in the subtrees, the capacity the
    occurrence count the search carries (see the module docstring)."""
    from .kernel import _cells_and_runs

    return [(pat, cnt, *_cells_and_runs(pat)) for pat, cnt in _walk(max_size, max_occ, roots)]


def _frontier(depth: int, max_occ: int) -> tuple[list, list[_State]]:
    """The catalog rows (see :func:`_dfs`) of the connected patterns of
    size < depth, and all surviving states at `depth`, level by level."""
    rows = []
    level = [_root_state()]
    for size in range(1, depth):
        # bounded at the level's own size, a job lists its connected patterns only
        rows.extend(_dfs(size, max_occ, level))
        level = [child for state in level for child in _children(state, max_occ, False)]
    return rows, level


def _search(max_size: int, max_occ: int, threads: int = 1) -> list:
    """The catalog rows (see :func:`_dfs`) of every kernel pattern of
    size <= max_size with at most max_occ occurrences: the rows the
    frontier passed on its way to the split depth (or to max_size, if
    smaller), then one job per slice of its states, each building the
    rows of the patterns it finds."""
    from .jobs import run_jobs

    found, frontier = _frontier(min(max_size, _SPLIT_DEPTH), max_occ)
    step = min(4 * max(threads, 1), len(frontier))
    jobs = [(max_size, max_occ, frontier[i::step]) for i in range(step)]
    # Up to size 11 (budget 5) one process is faster than a pool: 54 against
    # 71 ms with 2 workers at size 11, one process ahead in 10 of 10
    # alternating runs; at size 13 (budget 6) the pool won 9 of 10, 0.17
    # against 0.27 s (medians, fresh processes, shared 2-vCPU Xeon whose
    # two-process speedup read 1.4-2.2, Python 3.11.7).
    for part in run_jobs(_dfs, jobs, threads if max_size > 11 else 1):
        found.extend(part)
    return found


def iter_kernel_permutations(max_size: int) -> list[tuple[int, ...]]:
    """All kernel permutations of size <= max_size as tuples of one-line
    values, sorted by (size, values): one serial walk at the budget
    C(max_size, 3), which no pattern of that size exceeds, building no
    rows."""
    found = _walk(max_size, comb(max_size, 3), [_root_state()])
    return sorted((pat for pat, _ in found), key=lambda pat: (len(pat), pat))


def enumerate_kernel_shapes(r: int, *, threads: int = 1) -> ShapeCatalog:
    """Catalog of every kernel shape with capacity <= r, found by one
    pruned search over sizes <= 2r+1 whose jobs return finished rows.

    Raises ValueError when r is negative or above :data:`SEARCH_GUARD`,
    and CatalogError when the shapes found fail the count checks of
    :func:`load_catalog`, such as a budget without exactly one maximal
    shape.
    """
    from .kernel import KernelShapeRecord

    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if r > SEARCH_GUARD:
        raise ValueError(f"budget {r} exceeds the search guard {SEARCH_GUARD}")
    rows = sorted(_search(2 * r + 1, r, threads), key=lambda row: (len(row[0]), row[0]))
    _check_counts(f"the search for budget {r}", r, Counter((len(row[0]), row[1]) for row in rows))
    return ShapeCatalog(r, tuple(map(KernelShapeRecord._make, rows)))


def census(catalog: ShapeCatalog) -> Census:
    """Raw per-size shape counts, plus newly usable non-maximal shapes
    per budget.

    A shape first enters the recursion at budget r = capacity; exactly
    one capacity-r shape, the maximal one, has size 2r+1, so the count
    of new shapes of size <= 2r is #{capacity == r} - 1.
    """
    by_size = Counter(rec.size for rec in catalog.records)
    by_capacity = Counter(rec.capacity for rec in catalog.records)
    new_nonexceptional = {
        r: by_capacity.get(r, 0) - 1 for r in range(2, catalog.max_occ + 1)
    }
    return Census(dict(sorted(by_size.items())), new_nonexceptional)


def catalog_lines(catalog: ShapeCatalog) -> Iterator[str]:
    """The catalog file line by line, each with its newline: a JSON
    header, then one record per line, sorted by (size, one-line
    notation)."""
    yield json.dumps({"format_version": CATALOG_FORMAT_VERSION, "max_occ": catalog.max_occ}) + "\n"
    for rec in catalog.records:
        yield _record_line(rec) + "\n"


def catalog_to_text(catalog: ShapeCatalog) -> str:
    """The whole catalog file as one string."""
    return "".join(catalog_lines(catalog))


def _record_line(rec: KernelShapeRecord) -> str:
    """The catalog line of one record, the only form :func:`load_catalog`
    accepts: compact JSON with the keys in this order."""
    return '{"shape":[%s],"size":%d,"capacity":%d,"cells":[%s],"lis_ne":[%s]}' % (
        ",".join(map(str, rec.shape)),
        rec.size,
        rec.capacity,
        ",".join("[%d,%d]" % cell for cell in rec.cells),
        ",".join(map(str, rec.lis_ne)),
    )


def fold_catalog(catalog: ShapeCatalog) -> ShapeFold:
    """The one pass over a catalog's records: shapes counted by class."""
    from .perms import lis_length

    classes = Counter(
        (rec.size, rec.capacity, lis_length(rec.shape), tuple(sorted(rec.lis_ne)))
        for rec in catalog.records
    )
    return ShapeFold(catalog.max_occ, dict(classes))


def save_catalog(catalog: ShapeCatalog, path: str | Path) -> ShapeFold:
    """Write the catalog, then its fold beside it as the sidecar, bound to
    the sha256 of the bytes just written; return the fold."""
    with open(path, "w") as fh:
        fh.writelines(catalog_lines(catalog))
    fold = fold_catalog(catalog)
    digest = _catalog_digest(path)
    rows = [[s, c, lis, list(runs), m] for (s, c, lis, runs), m in sorted(fold.classes.items())]
    sidecar = {"format_version": FOLD_FORMAT_VERSION, "max_occ": fold.max_occ,
               "catalog_sha256": digest, "fold_sha256": _fold_digest(digest, fold.max_occ, rows),
               "classes": rows}
    fold_path(path).write_text(json.dumps(sidecar, separators=(",", ":")) + "\n")
    return fold


def fold_path(path: str | Path) -> Path:
    """The fold sidecar of the catalog at `path`: ``<path>.fold``."""
    return Path(f"{path}.fold")


def _catalog_digest(path: str | Path) -> str:
    """The sha256 of the catalog's bytes, read in blocks (a budget-8 catalog
    is 12 MB)."""
    digest = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _fold_digest(catalog_sha256: str, max_occ: int, rows: list) -> str:
    """The sha256 binding a sidecar's budget and class rows to its catalog's digest."""
    text = json.dumps([catalog_sha256, max_occ, rows], separators=(",", ":"))
    return sha256(text.encode()).hexdigest()


def _fold_row(row) -> bool:
    """A row [size, capacity, lis, runs, shapes] of the right types and ranges."""
    if not (isinstance(row, list) and len(row) == 5):
        return False
    size, capacity, lis, runs, shapes = row
    return (
        _int_list([size, capacity, lis, shapes])
        and _int_list(runs)
        and 1 <= lis <= size
        and capacity >= 0
        and shapes >= 1
        and all(0 <= run <= lis for run in runs)
    )


def load_fold(path: str | Path) -> ShapeFold:
    """The fold of the catalog at `path`, read from its sidecar without
    parsing a record.

    Raises FileNotFoundError when either file is missing, and
    CatalogError when the catalog's sha256 is not the one in the sidecar,
    the sidecar is malformed, its fold fails the count checks of
    :func:`load_catalog`, or its budget and class rows are not those its
    own digest was taken of.
    """
    digest = _catalog_digest(path)
    where = fold_path(path)
    try:
        obj = json.loads(where.read_text())
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise CatalogError(f"{where}: bad JSON ({exc})") from None
    if not isinstance(obj, dict) or set(obj) != _FOLD_KEYS:
        raise CatalogError(f"{where}: not a fold sidecar")
    if obj["format_version"] != FOLD_FORMAT_VERSION:
        raise CatalogError(f"{where}: unsupported format_version {obj['format_version']!r}")
    max_occ, rows = obj["max_occ"], obj["classes"]
    if not (
        type(max_occ) is int
        and max_occ >= 0
        and isinstance(obj["catalog_sha256"], str)
        and isinstance(obj["fold_sha256"], str)
        and isinstance(rows, list)
        and all(_fold_row(row) for row in rows)
    ):
        raise CatalogError(f"{where}: field of the wrong type or out of range")
    if obj["catalog_sha256"] != digest:
        raise CatalogError(f"{path}: its bytes changed after {where} was written")
    classes = {(s, c, lis, tuple(runs)): m for s, c, lis, runs, m in rows}
    if len(classes) != len(rows):
        raise CatalogError(f"{where}: duplicated class")
    counts: Counter = Counter()
    for (s, c, _, _), m in classes.items():
        counts[(s, c)] += m
    _check_counts(where, max_occ, counts)
    if obj["fold_sha256"] != _fold_digest(digest, max_occ, rows):
        raise CatalogError(f"{where}: its budget or class rows differ from those it was written with")
    return ShapeFold(max_occ, classes)


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def load_catalog(path: str | Path) -> ShapeCatalog:
    """Read a catalog written by :func:`save_catalog`.

    Each record is rebuilt with :func:`~occ132.kernel.shape_record` from
    the shape on its line, once ``Permutation`` has checked that shape:
    records hold bare values, so this is the one check that a shape read
    from outside is a permutation.  Raises CatalogError on a line that is
    not exactly the one :func:`catalog_lines` writes for that record (a
    blank line included), on a shape that is not a permutation or not a
    kernel one, on records that are duplicated or out of order, on per-capacity
    counts that differ from the known census and on a budget without
    exactly one maximal shape.  The census stops at capacity 6, so a
    missing record of a higher capacity goes unseen.
    """
    from .kernel import shape_record
    from .perms import Permutation

    try:
        text = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path}: not a text file ({exc})") from None
    if not text:
        raise CatalogError(f"{path}: empty catalog file")
    try:
        header = json.loads(text[0])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CatalogError(f"{path}:1: bad JSON ({exc})") from None
    if not isinstance(header, dict) or header.get("format_version") != CATALOG_FORMAT_VERSION:
        raise CatalogError(f"{path}: unsupported header {text[0]!r}")
    max_occ = header.get("max_occ")
    if type(max_occ) is not int or max_occ < 0:
        raise CatalogError(f"{path}: bad max_occ {max_occ!r}")
    records = []
    for lineno, line in enumerate(text[1:], start=2):
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CatalogError(f"{path}:{lineno}: bad JSON ({exc})") from None
        if not (isinstance(obj, dict) and _int_list(obj.get("shape"))):
            raise CatalogError(f"{path}:{lineno}: record has no shape")
        try:
            rec = shape_record(Permutation(tuple(obj["shape"])).values)
        except ValueError as exc:
            # not a permutation, or not a kernel one
            raise CatalogError(f"{path}:{lineno}: {exc}") from None
        if _record_line(rec) != line:
            raise CatalogError(f"{path}:{lineno}: record differs from the one its shape gives")
        records.append(rec)
    keys = [(rec.size, rec.shape) for rec in records]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise CatalogError(f"{path}: records are duplicated or not sorted by (size, shape)")
    _check_counts(path, max_occ, Counter((rec.size, rec.capacity) for rec in records))
    return ShapeCatalog(max_occ, tuple(records))


def _check_counts(where, max_occ: int, counts: Counter) -> None:
    """The checks a search, a catalog and a fold share, on shapes counted
    by (size, capacity): every budget has its maximal shape, the counts
    per capacity agree with the known census, and no budget has two
    maximal shapes.  Past the census, the last is the only check."""
    for r in range(1, max_occ + 1):
        if not counts[(2 * r + 1, r)]:
            raise CatalogError(f"{where}: no maximal shape for budget {r}")
    by_capacity: Counter = Counter()
    for (_, capacity), m in counts.items():
        by_capacity[capacity] += m
    got = tuple(by_capacity[c] for c in range(min(max_occ + 1, len(KNOWN_CAPACITY_CENSUS))))
    if got != KNOWN_CAPACITY_CENSUS[: len(got)]:
        raise CatalogError(f"{where}: shapes per capacity {got} differ from the census")
    for r in range(1, max_occ + 1):
        if counts[(2 * r + 1, r)] != 1:
            raise CatalogError(f"{where}: {counts[(2 * r + 1, r)]} maximal shapes for budget {r}")
