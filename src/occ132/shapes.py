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

The catalog the generating-function solver consumes for budget r is
one search over sizes <= 2r+1.  It finds the maximal shape of size 2r+1
too, and its count check proves that shape unique at every budget it
builds.  The last level costs little: it keeps only the children that
close into one component, and lists their patterns without building
their states or expanding them.

A catalog file holds one JSON line per record.  Every field but the
shape is derived from it, so :func:`load_catalog` rebuilds each record
from its shape and accepts only the line :func:`catalog_to_text` writes
for it.  The solver reads only the catalog's fold (:func:`fold_catalog`):
shapes counted by (size, capacity, lis of the shape, sorted northeast
runs), 296 classes for the 3 214 records of budget 6.
:func:`save_catalog` writes the fold beside the catalog as the sidecar
``<file>.fold``, a small JSON file holding the sha256 of the catalog's
bytes and a second sha256 over that digest, the budget and the class
rows.  :func:`load_fold` hashes the catalog,
reads the sidecar instead of parsing the records and runs the count
checks of :func:`load_catalog` on the fold.  A changed catalog fails
the first digest, an edited row the second.  The solver commands read a
catalog through its sidecar alone and search again when it is unsound;
nothing but tests and benchmark probes parses the records back.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from math import comb
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

# kernel, perms and multiprocessing are imported by the functions that
# search, build, fold or parse records, so a solve from a fold sidecar
# loads none of them.
if TYPE_CHECKING:
    from .kernel import KernelShapeRecord
    from .perms import Permutation

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

# Depth at which the search tree is split into parallel jobs.
_SPLIT_DEPTH = 5

_State = tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...]]


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

    @property
    def maximal_cells(self) -> dict[int, int]:
        """Cell count of each budget r's maximal shape, the class of size 2r+1."""
        return {c: len(runs) for s, c, _, runs in self.classes if s == 2 * c + 1}


class Census(NamedTuple):
    """Shape counts by size and by capacity, plus per-budget counts of
    newly usable shapes: those of capacity exactly r, minus the single
    maximal one of size 2r+1."""

    by_size: dict[int, int]
    by_capacity: dict[int, int]
    new_nonexceptional: dict[int, int]


def _root_state() -> _State:
    # Pattern (1,): no occurrences, D[1] = D[2] = 0, one singleton component.
    return ((1,), 0, (0, 0, 0), (0,))


def _touched_labels(pat: tuple[int, ...], comp: tuple[int, ...], v: int) -> set[int]:
    """Component labels merged when appending v creates occurrences.

    The new triples are (i, j, new) over all i < j with pat[i] < v <=
    pat[j]; the participating positions are exactly the below-v entries
    with a later above-v partner and vice versa.
    """
    touched = set()
    seen_below = False
    for q, x in enumerate(pat):
        if x < v:
            seen_below = True
        elif seen_below:
            touched.add(comp[q])
    seen_above = False
    for q in range(len(pat) - 1, -1, -1):
        if pat[q] >= v:
            seen_above = True
        elif seen_above:
            touched.add(comp[q])
    return touched


def _children(state: _State, max_occ: int, final: bool):
    """Yield (v, count, touched labels) for every child worth visiting.

    A child with q components needs at least q - 1 more occurrences to
    become connected (see the module docstring), so it is kept only if
    q - 1 <= room, the occurrences it may still gain: max_occ minus its
    count, and none at the last level.  Since an append touches at most
    min(D[v] + 1, q) components, a child is skipped before its touched
    labels are computed when even that many cannot bring it within room.
    """
    pat, cnt, D, comp = state
    k = len(pat)
    q = len(set(comp))
    for v in range(1, k + 2):
        d = D[v]
        ncnt = cnt + d
        room = min(max_occ - ncnt, 0) if final else max_occ - ncnt
        if d == 0:
            # A silent append leaves the new entry isolated: q + 1 components.
            if q <= room:
                yield v, ncnt, ()
        elif room >= 0 and q - d - 1 <= room:
            touched = _touched_labels(pat, comp, v)
            if q - len(touched) <= room:
                yield v, ncnt, touched


def _child(state: _State, v: int, ncnt: int, touched) -> _State:
    pat, _, D, comp = state
    k = len(pat)
    npat = tuple(x if x < v else x + 1 for x in pat) + (v,)
    # D'[w] = D[w or w-1 across the bump] plus the pairs ending at the
    # new entry, which contribute w-1 whenever w <= v.
    nD = [0] * (k + 3)
    for w in range(1, v + 1):
        nD[w] = D[w] + w - 1
    for w in range(v + 1, k + 3):
        nD[w] = D[w - 1]
    ncomp = tuple(k if c in touched else c for c in comp) + (k,)
    return (npat, ncnt, tuple(nD), ncomp)


def _dfs(max_size: int, max_occ: int, roots: list[_State]) -> list[tuple[int, ...]]:
    """Every connected pattern in the subtrees."""
    found = []
    stack = list(roots)
    while stack:
        state = stack.pop()
        pat, _, _, comp = state
        k = len(pat)
        if len(set(comp)) == 1 and k <= max_size:
            found.append(pat)
        if k >= max_size:
            continue
        final = k + 1 == max_size
        for v, ncnt, touched in _children(state, max_occ, final):
            if final:
                # Every child kept at the last level is connected.
                found.append(tuple(x if x < v else x + 1 for x in pat) + (v,))
            else:
                stack.append(_child(state, v, ncnt, touched))
    return found


def _frontier(depth: int, max_occ: int) -> tuple[list[tuple[int, ...]], list[_State]]:
    """Connected patterns above `depth`, plus all surviving states at it."""
    found = []
    level = [_root_state()]
    for _ in range(1, depth):
        nxt = []
        for state in level:
            pat, _, _, comp = state
            if len(set(comp)) == 1:
                found.append(pat)
            for v, ncnt, touched in _children(state, max_occ, False):
                nxt.append(_child(state, v, ncnt, touched))
        level = nxt
    return found, level


def _dfs_job(args) -> list[tuple[int, ...]]:
    return _dfs(*args)


def _search(max_size: int, max_occ: int, threads: int = 1) -> list[tuple[int, ...]]:
    """Every kernel pattern of size <= max_size with at most max_occ occurrences."""
    # Up to size 9 (budget 4) one process is faster than a pool: 6 ms against 15.
    if threads <= 1 or max_size <= 9:
        return _dfs(max_size, max_occ, [_root_state()])
    from multiprocessing import Pool

    found, frontier = _frontier(_SPLIT_DEPTH, max_occ)
    step = min(4 * threads, len(frontier))
    jobs = [(max_size, max_occ, frontier[i::step]) for i in range(step)]
    with Pool(min(threads, len(jobs))) as pool:
        for part in pool.map(_dfs_job, jobs):
            found.extend(part)
    return found


def iter_kernel_permutations(max_size: int) -> list[Permutation]:
    """All kernel permutations of size <= max_size, sorted by (size,
    one-line notation)."""
    from .perms import Permutation

    found = _search(max_size, comb(max_size, 3))
    return [Permutation(pat) for pat in sorted(found, key=lambda pat: (len(pat), pat))]


def enumerate_kernel_shapes(r: int, *, threads: int = 1) -> ShapeCatalog:
    """Catalog of every kernel shape with capacity <= r, found by one
    pruned search over sizes <= 2r+1.

    Raises CatalogError when the shapes found fail the count checks of
    :func:`load_catalog`, such as a budget without exactly one maximal
    shape.
    """
    from .kernel import shape_record
    from .perms import Permutation

    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    found = sorted(_search(2 * r + 1, r, threads), key=lambda pat: (len(pat), pat))
    # The records hold no reference cycles, so the cyclic collector would
    # only rescan them as they pile up: about a tenth of the time at budget 8.
    collecting = gc.isenabled()
    gc.disable()
    try:
        records = tuple(shape_record(Permutation(pat)) for pat in found)
    finally:
        if collecting:
            gc.enable()
    _check_counts(f"the search for budget {r}", r,
                  Counter((rec.size, rec.capacity) for rec in records))
    return ShapeCatalog(r, records)


def census(catalog: ShapeCatalog) -> Census:
    """Raw per-size and per-capacity shape counts, plus newly usable
    non-maximal shapes per budget.

    A shape first enters the recursion at budget r = capacity; exactly
    one capacity-r shape, the maximal one, has size 2r+1, so the count
    of new shapes of size <= 2r is #{capacity == r} - 1.
    """
    by_size = Counter(rec.size for rec in catalog.records)
    by_capacity = Counter(rec.capacity for rec in catalog.records)
    new_nonexceptional = {
        r: by_capacity.get(r, 0) - 1 for r in range(2, catalog.max_occ + 1)
    }
    return Census(
        dict(sorted(by_size.items())),
        dict(sorted(by_capacity.items())),
        new_nonexceptional,
    )


def catalog_to_text(catalog: ShapeCatalog) -> str:
    """JSON lines: a header, then one record per line, sorted by
    (size, one-line notation)."""
    lines = [json.dumps({"format_version": CATALOG_FORMAT_VERSION, "max_occ": catalog.max_occ})]
    lines.extend(_record_line(rec) for rec in catalog.records)
    return "\n".join(lines) + "\n"


def _record_line(rec: KernelShapeRecord) -> str:
    """The catalog line of one record, the only form :func:`load_catalog`
    accepts."""
    return json.dumps(
        {
            "shape": list(rec.shape.values),
            "size": rec.size,
            "capacity": rec.capacity,
            "cells": [list(cell) for cell in rec.cells],
            "lis_ne": list(rec.lis_ne),
        },
        separators=(",", ":"),
    )


def fold_catalog(catalog: ShapeCatalog) -> ShapeFold:
    """The one pass over a catalog's records: shapes counted by class."""
    from .perms import lis_length

    classes = Counter(
        (rec.size, rec.capacity, lis_length(rec.shape.values), tuple(sorted(rec.lis_ne)))
        for rec in catalog.records
    )
    return ShapeFold(catalog.max_occ, dict(classes))


def save_catalog(catalog: ShapeCatalog, path: str | Path) -> ShapeFold:
    """Write the catalog, then its fold beside it as the sidecar, bound to
    the sha256 of the bytes just written; return the fold."""
    Path(path).write_text(catalog_to_text(catalog))
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
    the shape on its line.  Raises CatalogError on a line that is not
    exactly the one :func:`catalog_to_text` writes for that record (a
    blank line included), on a shape that is not a kernel permutation,
    on records that are duplicated or out of order, on per-capacity
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
            rec = shape_record(Permutation(tuple(obj["shape"])))
        except ValueError as exc:
            # not a permutation, or not a kernel one
            raise CatalogError(f"{path}:{lineno}: {exc}") from None
        if _record_line(rec) != line:
            raise CatalogError(f"{path}:{lineno}: record differs from the one its shape gives")
        records.append(rec)
    keys = [(rec.size, rec.shape.values) for rec in records]
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
