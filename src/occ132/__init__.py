"""Exact counting of permutations by number of 132-pattern occurrences.

The package computes, for any budget r >= 0, the generating function of
permutations with exactly r occurrences of the pattern 132 -- as a
truncated power series with exact integer coefficients and as a closed
form over Q(x)[sqrt(1-4x)], both by one recursion -- together with the
variant restricted to permutations avoiding the increasing pattern
12...k, a brute-force oracle over small symmetric groups, and
exhaustive checks of the structural facts the computation rests on.
"""

from .algebraic import AlgebraicFunction, PQForm, af_to_series, extract_pq, reassemble_pq
from .kernel import (
    CellOrderError,
    DecompositionError,
    Kernel,
    KernelShapeRecord,
    assemble,
    build_occurrence_graph,
    decompose,
    is_kernel_permutation,
    shape_record,
)
from .oracle import joint_tables, occurrence_counts
from .perms import (
    Occurrence,
    Permutation,
    avoids_monotone,
    count_132,
    lis_length,
    make_permutation,
    occurrences_132,
    perm_from_str,
    perm_to_str,
    reduce_to_pattern,
)
from .series import PoleAtOriginError, PowerSeries, catalan_series, sqrt_one_minus_4x
from .shapes import (
    CatalogError,
    Census,
    ShapeCatalog,
    ShapeFold,
    census,
    enumerate_kernel_shapes,
    exceptional_shape,
    fold_catalog,
    load_catalog,
    save_catalog,
)
from .solver import (
    Solver,
    SolverError,
    occurrence_closed_form,
    occurrence_series,
    restricted_series,
)

__all__ = [
    "AlgebraicFunction",
    "CatalogError",
    "CellOrderError",
    "Census",
    "DecompositionError",
    "Kernel",
    "KernelShapeRecord",
    "Occurrence",
    "PQForm",
    "Permutation",
    "PoleAtOriginError",
    "PowerSeries",
    "ShapeCatalog",
    "ShapeFold",
    "Solver",
    "SolverError",
    "af_to_series",
    "assemble",
    "avoids_monotone",
    "build_occurrence_graph",
    "catalan_series",
    "census",
    "count_132",
    "decompose",
    "enumerate_kernel_shapes",
    "exceptional_shape",
    "extract_pq",
    "fold_catalog",
    "is_kernel_permutation",
    "joint_tables",
    "lis_length",
    "load_catalog",
    "make_permutation",
    "occurrence_closed_form",
    "occurrence_counts",
    "occurrence_series",
    "occurrences_132",
    "perm_from_str",
    "perm_to_str",
    "reassemble_pq",
    "reduce_to_pattern",
    "restricted_series",
    "save_catalog",
    "shape_record",
    "sqrt_one_minus_4x",
]

__version__ = "0.1.0"
