"""Command-line interface.

Subcommands:

- ``shapes``            write the kernel-shape catalog as JSON lines
- ``gf``                series for exactly R occurrences of 132
- ``closed-form``       the same level as polynomials P, Q over (1-4x)^(1/2-R)
- ``restricted``        series additionally avoiding 12...K
- ``verify``            compare solver output against the brute-force oracle
- ``check-invariants``  exhaustive structural checks over small sizes
- ``conjectures``       informational reports over the catalog and closed forms

All numeric output is exact (integers or integer arrays); nothing is
ever printed in floating point.  Identical arguments produce
byte-identical output regardless of ``--threads``.

A solver command with ``--catalog FILE`` reads the catalog's fold from
the sidecar ``FILE.fold`` when the sidecar is sound and FILE's sha256 is
the one it records; it parses no record then.  Otherwise FILE is loaded,
each record rebuilt from its shape and compared with its line, and the
sidecar is written again.  A catalog that fails that load, or whose
budget is past the census, is rebuilt by search, and both files are
written anew.  Negative bounds, and a
``--catalog`` or ``--out`` in a missing directory, are refused before
any work.  A closed stdout (as under ``occ132 ... | head -1``) ends a
command with exit 1 and no message.

``verify --occ R`` sweeps the brute-force oracle with the occurrence
budget R, so it visits only the permutations that can have at most R
occurrences.

The oracle and the structure checks are imported by ``verify`` and
``check-invariants``, the commands that run them, so a solver command
loads only this module, ``shapes``, ``solver``, ``series`` and
``algebraic``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .algebraic import IntPoly, extract_pq, poly_eval
from .shapes import (
    KNOWN_CAPACITY_CENSUS,
    CatalogError,
    ShapeFold,
    catalog_to_text,
    census,
    enumerate_kernel_shapes,
    fold_catalog,
    iter_kernel_permutations,
    load_catalog,
    load_fold,
    save_catalog,
    save_fold,
)
from .solver import Solver


def _thread_count(text: str) -> int:
    """Parse ``--threads`` or, when it is not given, ``OCC132_THREADS``."""
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1 (given here or in OCC132_THREADS), got {text!r}")
    return threads


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_series(series, args) -> None:
    """Integer coefficients as a JSON list or as ``n,c`` CSV lines."""
    coeffs = series.integer_coeffs()
    if args.format == "csv":
        text = "\n".join(f"{n},{c}" for n, c in enumerate(coeffs)) + "\n"
    else:
        text = json.dumps(coeffs) + "\n"
    _emit(text, args.out)


def _obtain_catalog(max_occ: int, path: str | None, threads: int) -> ShapeFold:
    """The fold of a cached catalog when it is big enough, else of a new
    catalog, which is cached with its fold when `path` is given."""
    if path and Path(path).exists():
        fold = _cached_fold(path)
        if fold is not None:
            if fold.max_occ >= max_occ:
                return fold
            print(f"cached catalog at {path} only covers max-occ {fold.max_occ}; rebuilding",
                  file=sys.stderr)
    catalog = enumerate_kernel_shapes(max_occ, threads=threads)
    fold = fold_catalog(catalog)
    if path:
        save_catalog(catalog, path, fold)
    return fold


def _cached_fold(path: str) -> ShapeFold | None:
    """The fold of the catalog at `path`, or None when it is to be rebuilt.

    The fold comes from the sidecar when that is sound and the catalog's
    bytes are those it was written from.  Otherwise the catalog is loaded,
    every record rebuilt from its shape, and the sidecar written anew; a
    catalog that fails that load is rebuilt.  So is one whose budget is
    past the census: its counts cannot show that no record is missing.
    """
    try:
        return load_fold(path)
    except FileNotFoundError:
        pass
    except CatalogError as exc:
        print(f"ignoring cache: {exc}", file=sys.stderr)
    try:
        catalog = load_catalog(path)
    except CatalogError as exc:
        print(f"ignoring cache: {exc}", file=sys.stderr)
        return None
    if catalog.max_occ >= len(KNOWN_CAPACITY_CENSUS):
        print(f"ignoring cache: {path}: budget {catalog.max_occ} is past the census, "
              "so a missing record would not show", file=sys.stderr)
        return None
    fold = fold_catalog(catalog)
    try:
        save_fold(fold, path)
    except OSError as exc:
        # a catalog that can be read but not written beside still serves
        print(f"not caching the fold: {exc}", file=sys.stderr)
    return fold


# -- subcommands ------------------------------------------------------------


def _cmd_shapes(args) -> int:
    catalog = enumerate_kernel_shapes(args.max_occ, threads=args.threads)
    c = census(catalog)
    print(f"shapes by size: {c.by_size}", file=sys.stderr)
    print(f"new non-maximal shapes by budget: {c.new_nonexceptional}", file=sys.stderr)
    _emit(catalog_to_text(catalog), args.out)
    return 0


def _cmd_gf(args) -> int:
    fold = _obtain_catalog(args.occ, args.catalog, args.threads)
    _emit_series(Solver(fold, args.order).occurrence_series(args.occ), args)
    return 0


def _poly_latex(coeffs: IntPoly) -> str:
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            x = "x" if e == 1 else f"x^{{{e}}}"
            body = x if mag == 1 else f"{mag}{x}"
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(f"{sign} {body}" if terms else f"{sign}{body}")
    return " ".join(terms) if terms else "0"


def _cmd_closed_form(args) -> int:
    if args.occ == 0:
        raise ValueError(
            "level 0 is the Catalan function (1 - (1-4x)^(1/2))/(2x), whose split has "
            "P = 1/x and Q = -1/x and is not polynomial; use gf --occ 0 for its series")
    fold = _obtain_catalog(args.occ, args.catalog, args.threads)
    closed_form = Solver(fold).occurrence_closed_form(args.occ)
    try:
        form = extract_pq(closed_form, args.occ)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.format == "latex":
        # 1 - 2r is odd, so (1 - 2r)/2 is already reduced
        text = (
            r"\frac{1}{2}\left(" + _poly_latex(form.two_P)
            + r" + \left(" + _poly_latex(form.two_Q) + r"\right)"
            + rf"(1-4x)^{{{1 - 2 * args.occ}/2}}\right)" + "\n"
        )
    else:
        text = (
            json.dumps(
                {
                    "two_P": form.two_P,
                    "two_Q": form.two_Q,
                    "exponent_num": 1 - 2 * args.occ,
                    "exponent_den": 2,
                }
            )
            + "\n"
        )
    _emit(text, args.out)
    return 0


def _cmd_restricted(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    fold = _obtain_catalog(args.occ, args.catalog, args.threads)
    _emit_series(Solver(fold, args.order).restricted_series(args.occ, args.k), args)
    return 0


def _cmd_verify(args) -> int:
    from .oracle import joint_tables, occurrence_counts

    if args.max_n < 0:
        raise ValueError(f"--max-n must be >= 0, got {args.max_n}")
    if args.k is not None and args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    # every n in one sweep, and the oracle's guard before any catalog work
    tables = joint_tables(range(args.max_n + 1), threads=args.threads, max_occ=args.occ)
    solver = Solver(_obtain_catalog(args.occ, args.catalog, args.threads), args.max_n)
    if args.k is None:
        series = solver.occurrence_series(args.occ)
        tag = f"occ={args.occ}"
    else:
        series = solver.restricted_series(args.occ, args.k)
        tag = f"occ={args.occ}, k={args.k}"
    print(f"{'n':>3} {'solver':>14} {'oracle':>14}  ({tag})")
    ok = True
    for n in range(args.max_n + 1):
        got = int(series[n])
        want = occurrence_counts(tables[n], args.k).get(args.occ, 0)
        mark = "" if got == want else "  MISMATCH"
        print(f"{n:>3} {got:>14} {want:>14}{mark}")
        ok = ok and got == want
    return 0 if ok else 1


def _cmd_check_invariants(args) -> int:
    from .invariants import (
        STRUCTURE_CHECKS,
        cell_order_totality,
        one_sided_criterion_subsumed,
        structure_sweep,
    )
    from .oracle import SWEEP_GUARD

    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    if args.max_n > SWEEP_GUARD:
        raise ValueError(f"--max-n {args.max_n} exceeds the sweep guard {SWEEP_GUARD}")
    ok = True

    def report(name: str, violations: list[str]) -> None:
        nonlocal ok
        status = "PASS" if not violations else "FAIL"
        print(f"{status}  {name}")
        for v in violations[:10]:
            print(f"      {v}")
        ok = ok and not violations

    kernels = iter_kernel_permutations(args.max_n)
    sweep = structure_sweep(args.max_n, kernels)
    for name, scope in STRUCTURE_CHECKS.items():
        report(f"{name} ({scope} <= {args.max_n})", sweep[name])
    report("feasible-cell order total", cell_order_totality(kernels))
    report("one-sided infeasibility criterion subsumed", one_sided_criterion_subsumed(kernels))
    return 0 if ok else 1


def _cmd_conjectures(args) -> int:
    fold = _obtain_catalog(args.max_occ, args.catalog, args.threads)
    # shapes of size > 1 within the budget, whatever a cached catalog holds
    # beyond it; counterexamples as (size, cell count) classes
    classes = {cls: m for cls, m in fold.classes.items() if cls[0] > 1 and cls[1] <= args.max_occ}
    checked = sum(classes.values())
    bad = sorted({(s, len(runs)) for s, _, _, runs in classes if s < len(runs)})
    if not checked:
        verdict = f"nothing to check (no shape of size > 1 at --max-occ {args.max_occ})"
    else:
        verdict = f"{'holds' if not bad else 'counterexamples ' + repr(bad)} ({checked} shapes)"
    print(f"size >= feasible-cell count for every shape != 1: {verdict}")
    solver = Solver(fold)
    for r in range(1, args.max_occ + 1):
        closed_form = solver.occurrence_closed_form(r)
        try:
            form = extract_pq(closed_form, r)
        except ValueError:
            print(f"occ {r}: split NOT an integer polynomial")
            continue
        # 4^deg * Q(1/4), in integers
        q_at_quarter = poly_eval(form.two_Q[::-1], 4)
        print(
            f"occ {r}: split polynomial; half-integer halves hold; (1-4x) divides Q: "
            f"{'no' if q_at_quarter != 0 else 'YES (unexpected)'}"
        )
    return 0


# -- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occ132",
        description="Exact counting of permutations by number of 132-pattern occurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A string default goes through _thread_count only when --threads is absent.
    threads_default = os.environ.get("OCC132_THREADS") or str(os.cpu_count() or 1)

    def add_common(p, *, order: bool = False, catalog: bool = True):
        p.add_argument("--threads", type=_thread_count, default=threads_default,
                       help="worker processes, >= 1 (default: env OCC132_THREADS, else the CPU count)")
        if order:
            p.add_argument("--order", type=int, default=32, help="series truncation (default 32)")
        if catalog:
            p.add_argument("--catalog", help="catalog file to reuse (rebuilt+cached when too small or malformed)")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("shapes", help="enumerate kernel shapes into a catalog")
    p.add_argument("--max-occ", type=int, required=True, help="capacity budget R")
    add_common(p, catalog=False)
    p.set_defaults(func=_cmd_shapes)

    p = sub.add_parser("gf", help="series for exactly R occurrences")
    p.add_argument("--occ", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p, order=True)
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("closed-form", help="P, Q split of the closed form")
    p.add_argument("--occ", type=int, required=True)
    p.add_argument("--format", choices=("json", "latex"), default="json")
    add_common(p)
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("restricted", help="series additionally avoiding 12...K")
    p.add_argument("--occ", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p, order=True)
    p.set_defaults(func=_cmd_restricted)

    p = sub.add_parser("verify", help="solver vs brute-force oracle")
    p.add_argument("--occ", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="also avoid 12...k")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-invariants", help="exhaustive structural checks")
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(func=_cmd_check_invariants)

    p = sub.add_parser("conjectures", help="informational reports")
    p.add_argument("--max-occ", type=int, default=6)
    add_common(p)
    p.set_defaults(func=_cmd_conjectures)

    return parser


def _check_arguments(args) -> None:
    """Refuse a negative budget or order, and a --catalog or --out in a
    missing directory, before any search, sweep or solve."""
    for name in ("occ", "max_occ", "order"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 0, got {value}")
    for name in ("catalog", "out"):
        path = getattr(args, name, None)
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"--{name} {path}: its directory does not exist")


def _reported_errors() -> tuple[type[Exception], ...]:
    """The errors main reports as one ``error:`` line.  OracleError is
    among them once the oracle is loaded; before that nothing raises it."""
    errors = (CatalogError, OSError, ValueError)
    oracle = sys.modules.get(f"{__package__}.oracle")
    return errors if oracle is None else (*errors, oracle.OracleError)


class _StdoutClosed(Exception):
    """The reader of stdout went away, as under ``occ132 ... | head -1``."""


class _GuardedStdout:
    """sys.stdout while a command runs.  A write or flush that fails with
    a broken pipe raises _StdoutClosed, so that main tells a closed stdout
    apart from a broken pipe elsewhere (an ``--out`` FIFO, a worker pipe)."""

    def __init__(self, stream) -> None:
        self.stream = stream

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except BrokenPipeError as exc:
            raise _StdoutClosed from exc

    def flush(self) -> None:
        try:
            self.stream.flush()
        except BrokenPipeError as exc:
            raise _StdoutClosed from exc

    def __getattr__(self, name: str):
        return getattr(self.stream, name)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    stdout, sys.stdout = sys.stdout, _GuardedStdout(sys.stdout)
    try:
        _check_arguments(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _StdoutClosed:
        # not an error of the run.  The rest of the output goes to devnull,
        # so that the flush at interpreter exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        return 1
    except _reported_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
