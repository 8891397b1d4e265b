"""Exact counting of permutations by number of 132-pattern occurrences.

The package computes, for any budget r >= 0, the generating function of
permutations with exactly r occurrences of the pattern 132 -- as a
truncated power series with exact integer coefficients and as a closed
form over Q(x)[sqrt(1-4x)], both by one recursion -- together with the
variant restricted to permutations avoiding the increasing pattern
12...k, a brute-force oracle over small symmetric groups, and
exhaustive checks of the structural facts the computation rests on.

The names in ``__all__`` are resolved on first access (PEP 562): reading
``occ132.Solver`` imports ``occ132.solver`` and nothing else, so a
command that solves from a cached catalog never loads the oracle, the
structure checks or the kernel analysis.  ``from occ132 import *`` and
``dir(occ132)`` list every exported name as usual.
"""

from importlib import import_module

# Each exported name and the module that defines it.
_HOMES = {
    "algebraic": ("AlgebraicFunction", "PQForm", "af_to_series", "extract_pq", "reassemble_pq"),
    "kernel": (
        "CellOrderError",
        "DecompositionError",
        "Kernel",
        "KernelShapeRecord",
        "assemble",
        "build_occurrence_graph",
        "decompose",
        "is_kernel_permutation",
        "shape_record",
    ),
    "oracle": ("joint_tables", "occurrence_counts"),
    "perms": (
        "Occurrence",
        "Permutation",
        "avoids_monotone",
        "count_132",
        "lis_length",
        "make_permutation",
        "occurrences_132",
        "perm_from_str",
        "perm_to_str",
        "reduce_to_pattern",
    ),
    "series": ("PoleAtOriginError", "PowerSeries", "catalan_series", "sqrt_one_minus_4x"),
    "shapes": (
        "CatalogError",
        "Census",
        "ShapeCatalog",
        "ShapeFold",
        "census",
        "enumerate_kernel_shapes",
        "exceptional_shape",
        "fold_catalog",
        "load_catalog",
        "save_catalog",
    ),
    "solver": (
        "Solver",
        "SolverError",
        "occurrence_closed_form",
        "occurrence_series",
        "restricted_series",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
