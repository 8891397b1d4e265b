"""Run one ``occ132`` CLI command in-process with its public functions traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py --out spans.json -- gf --occ 6 --catalog cat.jsonl

The command's standard output is the CLI's own, so it can be compared
byte for byte with the untraced run.  Nothing in ``src`` is edited: the
wrappers are installed from here, around every public function each
``occ132`` module defines and the public methods and arithmetic
operators of its public classes, by rebinding every name under which an
``occ132`` module holds them.

Each traced call is a span (id, parent id, name, start, end).  Spans
are kept in memory and written out when the command ends; spans
shorter than ``SPAN_MIN_S`` are folded into the per-name and per-layer
totals but not written one by one, which keeps the file small on the
permutation sweeps.  A parent always lasts at least as long as its
child, so every written span's parent is written too.

A layer is the module a function lives in.  A layer's self time is the
time its spans cover minus the part covered by their child spans.
Worker processes forked by the CLI (``--threads``) are not traced:
their time shows up as time inside the parent span that waits for them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

SPAN_MIN_S = 1e-3

# One layer per occ132 module.  Every public function a module defines is
# traced, and so is every public method or arithmetic operator of the public
# classes it defines; other dunders (construction, hashing, indexing) are not.
LAYERS = ("cli", "perms", "kernel", "shapes", "series", "algebraic", "solver", "oracle",
          "invariants")
OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                       "__rmul__", "__truediv__", "__rtruediv__", "__pow__"})

ROOT = "cli.main"


class Tracer:
    """Span stack plus per-name and per-layer totals for one process."""

    def __init__(self) -> None:
        self.enabled = True
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.next_id = 0
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.open: Counter = Counter()
        self.inclusive: dict[str, float] = defaultdict(float)  # outermost calls only
        self.self_time: dict[str, float] = defaultdict(float)
        self.root_children: dict[str, float] = defaultdict(float)
        self.graphed: set[tuple[int, ...]] = set()  # permutations structure_sweep graphed
        self.observed: dict = {"catalogs": [], "joint_tables": [], "sweep_graph_builds": 0,
                               "classes": 0, "restricted_classes": 0}
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self.next_id
            self.next_id += 1
            self.calls[name] += 1
            outermost = not self.open[name]
            self.open[name] += 1
            frame = [span_id, name, 0.0, 0.0]
            self.stack.append(frame)
            start = frame[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.open[name] -= 1
                duration = end - start
                self.self_time[layer] += duration - frame[3]
                if outermost:
                    self.inclusive[name] += duration
                parent = self.stack[-1] if self.stack else None
                if parent is not None:
                    parent[3] += duration
                    if parent[1] == ROOT:
                        self.root_children[name] += duration
                if duration >= SPAN_MIN_S:
                    self.spans.append((span_id, parent[0] if parent else None, name,
                                       start - self.origin, end - self.origin))
            if observe is not None:
                observe(self, args, kwargs, result, duration)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made here are the tracer's own, not the program's."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "root_children_s": dict(self.root_children),
            "observed": dict(self.observed, swept_perms=len(self.graphed)),
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }


# -- observers: counters read from the arguments and results of a call -------


def _catalog_census(tracer, args, kwargs, catalog, duration) -> None:
    by_capacity = Counter(rec.capacity for rec in catalog.records)
    tracer.observed["catalogs"].append({
        "max_occ": catalog.max_occ,
        "records": len(catalog.records),
        "census": [by_capacity.get(c, 0) for c in range(catalog.max_occ + 1)],
    })


def _graph_build(tracer, args, kwargs, graph, duration) -> None:
    """Occurrence graphs built inside structure_sweep, and the permutations they were built for."""
    if tracer.open["invariants.structure_sweep"]:
        tracer.observed["sweep_graph_builds"] += 1
        tracer.graphed.add((args[0] if args else kwargs["pi"]).values)


def _joint_table(tracer, args, kwargs, table, duration) -> None:
    n = args[0] if args else kwargs["n"]
    tracer.observed["joint_tables"].append([n, sum(table.values()), duration])


def _solver_classes(key: str, table: str):
    """Observer: size of the solver's own class table at the requested level.

    The table is the private ``Solver`` method that folds the catalog into
    the classes the recursion sums over.  If the solver no longer has it,
    the counter stays 0.
    """

    def observe(tracer, args, kwargs, result, duration) -> None:
        solver = args[0]
        r = args[1] if len(args) > 1 else kwargs["r"]
        classes_of = getattr(solver, table, None)
        if classes_of is not None:
            with tracer.paused():
                tracer.observed[key] = max(tracer.observed[key], len(classes_of(r)))

    return observe


OBSERVERS = {
    "shapes.enumerate_kernel_shapes": _catalog_census,
    "shapes.load_catalog": _catalog_census,
    "kernel.build_occurrence_graph": _graph_build,
    "oracle.joint_table": _joint_table,
    "solver.Solver.occurrence_series": _solver_classes("classes", "_classes"),
    "solver.Solver.occurrence_closed_form": _solver_classes("classes", "_classes"),
    "solver.Solver.restricted_series": _solver_classes("restricted_classes", "_restricted_classes"),
}


def public_callables(module):
    """(traced name, owner, attribute, function) for each traced callable ``module`` defines."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                if inspect.isfunction(fn):
                    yield f"{layer}.{fn.__qualname__}", obj, attr, member


def install(tracer: Tracer) -> None:
    """Wrap every public callable and rebind it wherever an occ132 module holds it."""
    modules = [importlib.import_module(f"occ132.{layer}") for layer in LAYERS]
    holders = [importlib.import_module("occ132"), *modules]
    wrappers: dict[int, object] = {}  # aliases such as __rmul__ = __mul__ share one wrapper
    for module in modules:
        for name, owner, attr, original in list(public_callables(module)):
            if id(original) not in wrappers:
                if isinstance(original, (classmethod, staticmethod)):
                    wrapper = type(original)(tracer.wrap(name, original.__func__))
                else:
                    wrapper = tracer.wrap(name, original)
                wrappers[id(original)] = wrapper
            wrapper = wrappers[id(original)]
            if owner is not module:  # a method
                setattr(owner, attr, wrapper)
                continue
            for holder in holders:
                for held, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, held, wrapper)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans and totals (JSON)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the occ132 arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    install(tracer)
    # Pool workers are forked from here; they run untraced.
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))
    from occ132 import cli

    start = time.perf_counter()
    status = cli.main(command)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    report = tracer.report()
    report["wall_s"] = wall
    report["argv"] = command
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
