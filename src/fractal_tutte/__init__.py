"""Exact Tutte polynomials of three self-similar lattice families.

The package computes the Tutte polynomial of the fractal scale-free lattice
and of the (2,2)- and (1,3)-flowers by a two-part recursion over
generations, cross-checked against brute-force oracles, together with
closed-form invariants (spanning trees, orientation counts, bicycle space
dimension, growth constants) and exact Potts partition functions.
"""

from .bipoly import BiPoly
from .errors import CapExceeded, DomainError
from .lattices import (
    LatticeFamily,
    Multigraph,
    build_lattice,
    from_edge_list,
    lattice_counts,
    to_edge_list,
)
from .oracle import (
    count_spanning_trees_bruteforce,
    split_tutte,
    tutte_deletion_contraction,
    tutte_subgraph_expansion,
)
from .recursion import (
    TuttePair,
    eval_pair,
    initial_pair,
    step,
    tutte_eval,
    tutte_pair,
    tutte_symbolic,
)
from .invariants import (
    GrowthConstant,
    PottsParams,
    acyclic_root_connected_orientations,
    bicycle_space_dimension,
    diagonal_closed_form,
    diagonal_closed_value,
    growth_constant,
    potts_direct,
    potts_lattice,
    spanning_tree_count,
    strong_orientation_indegree_sequences,
    tutte_arguments,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "CapExceeded",
    "DomainError",
    "LatticeFamily",
    "Multigraph",
    "build_lattice",
    "from_edge_list",
    "lattice_counts",
    "to_edge_list",
    "count_spanning_trees_bruteforce",
    "split_tutte",
    "tutte_deletion_contraction",
    "tutte_subgraph_expansion",
    "TuttePair",
    "eval_pair",
    "initial_pair",
    "step",
    "tutte_eval",
    "tutte_pair",
    "tutte_symbolic",
    "GrowthConstant",
    "PottsParams",
    "acyclic_root_connected_orientations",
    "bicycle_space_dimension",
    "diagonal_closed_form",
    "diagonal_closed_value",
    "growth_constant",
    "potts_direct",
    "potts_lattice",
    "spanning_tree_count",
    "strong_orientation_indegree_sequences",
    "tutte_arguments",
    "__version__",
]
