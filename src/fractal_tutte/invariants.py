"""Closed-form invariants of the lattice families and Potts specializations.

Everything here is exact until the final step: spanning-tree counts and
orientation counts are arbitrary-precision integers, Potts partition values
are rationals, and only the thermodynamic growth constants pass through
floating point, always via logarithms of the closed forms rather than by
taking the float of an astronomically large integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

from .bipoly import BiPoly
from .errors import CapExceeded, DomainError
from .lattices import LatticeFamily, Multigraph, check_generation, lattice_counts
from .recursion import EVAL_NUMERATOR_BITS_CAP, SYMBOLIC_GENERATION_CAP, lowest_terms, tutte_eval

CLOSED_FORM_CAP = 10
POTTS_STATE_CAP = 2 ** 24

RationalLike = Union[int, Fraction]


def _exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{numerator} not divisible by {denominator}")
    return quotient


def _tree_count_exponents(family: LatticeFamily, n: int) -> Dict[int, int]:
    """The spanning-tree count of generation n as {base: exponent}."""
    power = 4 ** n
    if family is LatticeFamily.FRACTAL:
        return {2: power - 1}
    if family is LatticeFamily.FLOWER22:
        return {2: _exact_div(2 * (power - 1), 3)}
    return {3: _exact_div(power - 3 * n - 1, 9), 4: _exact_div(2 * power + 3 * n - 2, 9)}


def spanning_tree_count(family: LatticeFamily, n: int) -> int:
    """Number of spanning trees of generation n, in closed form."""
    check_generation(n, CLOSED_FORM_CAP)
    count = 1
    for base, exponent in _tree_count_exponents(family, n).items():
        count *= base ** exponent
    return count


def acyclic_root_connected_orientations(n: int) -> int:
    """Acyclic orientations of the fractal lattice with a unique fixed sink.

    Closed form: product over i of (i + 1) raised to 2 * 4^(n - i).
    """
    check_generation(n, CLOSED_FORM_CAP)
    total = 1
    for i in range(n + 1):
        total *= (i + 1) ** (2 * 4 ** (n - i))
    return total


def strong_orientation_indegree_sequences(n: int) -> int:
    """Indegree-sequence count over strong orientations of the fractal lattice.

    Half of n times the sink-rooted acyclic count; defined for n >= 1.
    """
    check_generation(n, CLOSED_FORM_CAP)
    if n < 1:
        raise DomainError("indegree-sequence count is defined for generations >= 1")
    doubled = n * acyclic_root_connected_orientations(n)
    return _exact_div(doubled, 2)


def bicycle_space_dimension(n: int) -> int:
    """Dimension of the bicycle space of the fractal lattice: (4^n - 1) / 3.

    The result has 2n - 1 bits for n >= 1, and is refused past
    ``EVAL_NUMERATOR_BITS_CAP`` bits before 4^n is formed.
    """
    check_generation(n)
    if 2 * n - 1 > EVAL_NUMERATOR_BITS_CAP:
        raise CapExceeded(f"bicycle dimension of {2 * n - 1} bits exceeds cap "
                          f"{EVAL_NUMERATOR_BITS_CAP}")
    return _exact_div(4 ** n - 1, 3)


def diagonal_closed_form(n: int) -> BiPoly:
    """The diagonal T(x, x) of the fractal lattice as a closed-form power.

    Equals x * (x^2 + 5x + 2) ** ((4^n - 1) / 3), kept as a polynomial in x.
    """
    check_generation(n, SYMBOLIC_GENERATION_CAP)
    base = BiPoly({(2, 0): 1, (1, 0): 5, (0, 0): 2})
    exponent = _exact_div(4 ** n - 1, 3)
    return BiPoly.x() * base ** exponent


def diagonal_closed_value(n: int, x: RationalLike) -> Fraction:
    """The diagonal closed form evaluated exactly at a rational point."""
    check_generation(n, CLOSED_FORM_CAP)
    x = Fraction(x)
    exponent = _exact_div(4 ** n - 1, 3)
    return x * (x * x + 5 * x + 2) ** exponent


# -- asymptotic growth ------------------------------------------------------


@dataclass(frozen=True)
class GrowthConstant:
    """Spanning-tree entropy: limit of ln(tree count) / vertex count."""

    exact_form: str
    decimal: float
    sequence: Tuple[Tuple[int, float], ...]


_LN2 = math.log(2.0)
_LN3 = math.log(3.0)
_LOGS = {2: _LN2, 3: _LN3, 4: 2 * _LN2}


def _log_spanning_trees(family: LatticeFamily, n: int) -> float:
    """ln of the spanning-tree count, from closed-form exponents only."""
    return sum(exponent * _LOGS[base]
               for base, exponent in _tree_count_exponents(family, n).items())


_GROWTH_LIMITS = {
    LatticeFamily.FRACTAL: ("(3/2)*ln(2)", 1.5 * _LN2),
    LatticeFamily.FLOWER22: ("ln(2)", _LN2),
    LatticeFamily.FLOWER13: ("(4*ln(2)+ln(3))/6", (4 * _LN2 + _LN3) / 6),
}


def growth_constant(family: LatticeFamily, n_max: int) -> GrowthConstant:
    """Growth limit plus the finite-generation sequence approaching it."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > CLOSED_FORM_CAP:
        raise CapExceeded(f"n_max {n_max} exceeds closed-form cap {CLOSED_FORM_CAP}")
    exact_form, decimal = _GROWTH_LIMITS[family]
    sequence = []
    for n in range(1, n_max + 1):
        vertices, _ = lattice_counts(family, n)
        sequence.append((n, _log_spanning_trees(family, n) / vertices))
    return GrowthConstant(exact_form, decimal, tuple(sequence))


# -- Potts model ------------------------------------------------------------


@dataclass(frozen=True)
class PottsParams:
    """State count q and edge coupling v of the q-state Potts model."""

    q: Fraction
    v: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "v", Fraction(self.v))


def tutte_arguments(params: PottsParams) -> Tuple[Fraction, Fraction]:
    """The Tutte-plane point ((q + v) / v, v + 1) matching the Potts weights."""
    if params.v == 0:
        raise DomainError("coupling v = 0 has no Tutte-plane image")
    return (params.q + params.v) / params.v, params.v + 1


def potts_partition(vertex_count: int, component_count: int,
                    tutte_value: Fraction, params: PottsParams) -> Fraction:
    """Partition function from a Tutte evaluation at the matching point.

    Z = q^k * v^(|V| - k) * T((q + v) / v, v + 1) for a graph with |V|
    vertices and k components.
    """
    if params.v == 0:
        raise DomainError("coupling v = 0 has no Tutte-plane image")
    q, v = params.q, params.v
    return q ** component_count * v ** (vertex_count - component_count) * tutte_value


def potts_direct(g: Multigraph, params: PottsParams) -> Fraction:
    """Partition function by summing over every q-coloring directly.

    Each edge whose endpoints share a color contributes a factor (1 + v);
    loops always do.  Requires a positive integer q and guards the number
    of colorings.
    """
    if params.q.denominator != 1 or params.q < 1:
        raise DomainError("direct Potts enumeration needs a positive integer q")
    q = int(params.q)
    states = q ** g.vertex_count
    if states > POTTS_STATE_CAP:
        raise CapExceeded(f"{states} colorings exceed enumeration cap {POTTS_STATE_CAP}")
    weight = [Fraction(1)]
    for _ in range(g.edge_count):
        weight.append(weight[-1] * (1 + params.v))
    total = Fraction(0)
    from itertools import product

    for coloring in product(range(q), repeat=g.vertex_count):
        same = 0
        for u, v in g.edges:
            if coloring[u] == coloring[v]:
                same += 1
        total += weight[same]
    return total


def potts_lattice(family: LatticeFamily, n: int, params: PottsParams) -> Fraction:
    """Partition function of a connected lattice generation via the recursion.

    Z = q * v^(|V| - 1) * T is formed as one integer fraction and reduced
    once; every prime of its denominator divides q.den * v.den * D, where D
    is the common denominator of the Tutte-plane point.
    """
    x, y = tutte_arguments(params)
    vertices, _ = lattice_counts(family, n)
    value = tutte_eval(family, n, x, y)
    q, v = params.q, params.v
    base = q.denominator * v.denominator * math.lcm(x.denominator, y.denominator)
    return lowest_terms(q.numerator * v.numerator ** (vertices - 1) * value.numerator,
                        q.denominator * v.denominator ** (vertices - 1) * value.denominator,
                        base)
