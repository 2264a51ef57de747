"""Cross-verification gates tying the recursion to oracles and closed forms.

Each gate is an exact identity; a gate either holds or names the first
counterexample it found.  The suite backs the command-line verify command
and is reused by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List

from .bipoly import BiPoly
from . import invariants, oracle, recursion
from .lattices import LatticeFamily, build_lattice, lattice_counts

ORACLE_GATE_CAP = 2
CLOSED_FORM_GATE_CAP = 6


@dataclass
class GateResult:
    name: str
    passed: bool
    detail: str = field(default="")


def _gate(results: List[GateResult], name: str, passed: bool,
          detail: Callable[[], str]) -> None:
    """Record a gate; its detail is formatted only when it fails."""
    results.append(GateResult(name, True) if passed else GateResult(name, False, detail()))


def run_oracle_gates(n_max: int = ORACLE_GATE_CAP) -> List[GateResult]:
    """The polynomial tutte prints vs both oracles, and the split vs the census split."""
    if not 0 <= n_max <= ORACLE_GATE_CAP:
        raise ValueError(f"oracle gates run generations 0 to {ORACLE_GATE_CAP}, not {n_max}")
    results: List[GateResult] = []
    x_minus_1 = BiPoly.x() - 1
    for family in LatticeFamily:
        for n in range(n_max + 1):
            g = build_lattice(family, n)
            pair = recursion.tutte_pair(family, n)
            symbolic = recursion.tutte_symbolic(family, n)
            joined, severed = oracle.split_tutte(g)
            expansion = joined + severed
            contraction = oracle.tutte_deletion_contraction(g)
            _gate(results, f"{family.value} n={n} recursion=expansion",
                  symbolic == expansion,
                  lambda: f"recursion {symbolic} != expansion {expansion}")
            _gate(results, f"{family.value} n={n} recursion=contraction",
                  symbolic == contraction,
                  lambda: f"recursion {symbolic} != contraction {contraction}")
            _gate(results, f"{family.value} n={n} split joined part",
                  pair.joined == joined,
                  lambda: f"recursion {pair.joined} != census {joined}")
            _gate(results, f"{family.value} n={n} split severed part",
                  x_minus_1 * pair.cofactor == severed,
                  lambda: f"recursion {x_minus_1 * pair.cofactor} != census {severed}")
    return results


def run_closed_form_gates() -> List[GateResult]:
    """Closed-form counts and special points vs the evaluated recursion,
    for every generation up to CLOSED_FORM_GATE_CAP."""
    results: List[GateResult] = []
    for family in LatticeFamily:
        for n in range(CLOSED_FORM_GATE_CAP + 1):
            trees = invariants.spanning_tree_count(family, n)
            at_11 = recursion.tutte_eval(family, n, 1, 1)
            _gate(results, f"{family.value} n={n} spanning trees",
                  at_11 == trees, lambda: f"eval {at_11} != closed form {trees}")
            built = build_lattice(family, n)
            vertices, edges = lattice_counts(family, n)
            _gate(results, f"{family.value} n={n} counts",
                  (built.vertex_count, built.edge_count) == (vertices, edges),
                  lambda: f"built ({built.vertex_count}, {built.edge_count})"
                          f" != closed ({vertices}, {edges})")

    for n in range(CLOSED_FORM_GATE_CAP + 1):
        acyclic = invariants.acyclic_root_connected_orientations(n)
        at_10 = recursion.tutte_eval(LatticeFamily.FRACTAL, n, 1, 0)
        _gate(results, f"fractal n={n} sink-rooted acyclic orientations",
              at_10 == acyclic, lambda: f"eval {at_10} != closed form {acyclic}")
        if n >= 1:
            indeg = invariants.strong_orientation_indegree_sequences(n)
            at_01 = recursion.tutte_eval(LatticeFamily.FRACTAL, n, 0, 1)
            _gate(results, f"fractal n={n} strong indegree sequences",
                  at_01 == indeg, lambda: f"eval {at_01} != closed form {indeg}")
        dim = invariants.bicycle_space_dimension(n)
        _, edge_count = lattice_counts(LatticeFamily.FRACTAL, n)
        expected = Fraction((-1) ** edge_count * (-2) ** dim)
        at_neg = recursion.tutte_eval(LatticeFamily.FRACTAL, n, -1, -1)
        _gate(results, f"fractal n={n} bicycle point",
              at_neg == expected, lambda: f"eval {at_neg} != (-1)^E (-2)^dim = {expected}")
        for point in (Fraction(2), Fraction(-3, 2)):
            closed = invariants.diagonal_closed_value(n, point)
            direct = recursion.tutte_eval(LatticeFamily.FRACTAL, n, point, point)
            _gate(results, f"fractal n={n} diagonal at {point}",
                  direct == closed, lambda: f"eval {direct} != closed form {closed}")
    return results


def run_gates(oracle_n_max: int = ORACLE_GATE_CAP) -> List[GateResult]:
    return run_oracle_gates(oracle_n_max) + run_closed_form_gates()
