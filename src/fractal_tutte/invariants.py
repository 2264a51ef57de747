"""Closed-form invariants of the lattice families and Potts specializations.

Spanning-tree and orientation counts are arbitrary-precision integers and
Potts partition values rationals, each refused before it is formed if its
predicted size passes the recursion's one bit cap; a closed form predicts
its size from its {base: exponent} product.  The counts and the lattice
Potts value come from private functions that work in the ring of their
argument one: int for the public functions, Decimal for the CLI.  Only the
growth constants pass through floating point, via logarithms of the closed
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Collection, Dict, Iterable, Tuple, Union

from .bipoly import BiPoly
from .errors import CapExceeded, DomainError
from .lattices import LatticeFamily, Multigraph, check_generation, lattice_counts
from .recursion import (SYMBOLIC_GENERATION_CAP, Ring, _check_size, _coprime, _eval_value,
                        _four_sum, _homogeneous, lowest_terms)

POTTS_STATE_CAP = 2 ** 24

RationalLike = Union[int, Fraction]


def _exact_div(numerator: Ring, denominator: int) -> Ring:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{numerator} not divisible by {denominator}")
    return quotient


def _product_bits(factors: Iterable[Tuple[RationalLike, int]]) -> int:
    """Predicted bits of the product: each exponent times ceil(log2) of its base's |num| and den."""
    return sum(e * ((abs(b.numerator) - 1).bit_length() + (b.denominator - 1).bit_length())
               for b, e in factors)


def _product(what: str, factors: Collection[Tuple[RationalLike, int]],
             one: Ring = 1) -> Union[RationalLike, Ring]:
    """The product of base ** exponent, each power formed in the ring of one,
    refused by the size rule before it is formed."""
    _check_size(what, _product_bits(factors))
    return math.prod(pow(one * base, exponent) for base, exponent in factors)


def _tree_count_exponents(family: LatticeFamily, n: int) -> Dict[int, int]:
    """The spanning-tree count of generation n as {base: exponent}, with g = (4^n - 1) / 3."""
    g = _four_sum(n, what="spanning-tree count")
    if family is LatticeFamily.FRACTAL:
        return {2: 3 * g}
    if family is LatticeFamily.FLOWER22:
        return {2: 2 * g}
    return {3: _exact_div(g - n, 3), 4: _exact_div(2 * g + n, 3)}


def spanning_tree_count(family: LatticeFamily, n: int) -> int:
    """Number of spanning trees of generation n, in closed form."""
    return _spanning_trees(family, n, 1)


def _spanning_trees(family: LatticeFamily, n: int, one: Ring) -> Ring:
    return _product("spanning-tree count", _tree_count_exponents(family, n).items(), one)


def acyclic_root_connected_orientations(n: int) -> int:
    """Acyclic orientations of the fractal lattice with a unique fixed sink:
    the product over i of (i + 1) ** (2 * 4^(n - i))."""
    return _acyclic_orientations(n, 1)


def _acyclic_orientations(n: int, one: Ring) -> Ring:
    power = 3 * _four_sum(n, what="acyclic orientation count") + 1  # 4^n
    return _product("acyclic orientation count",
                    [(i + 1, 2 * (power >> 2 * i)) for i in range(n + 1)], one)


def strong_orientation_indegree_sequences(n: int) -> int:
    """Indegree-sequence count over strong orientations of the fractal lattice:
    half of n times the sink-rooted acyclic count, defined for n >= 1."""
    return _indegree_sequences(n, 1)


def _indegree_sequences(n: int, one: Ring) -> Ring:
    if n < 1:
        raise DomainError("indegree-sequence count is defined for generations >= 1")
    return _exact_div(n * _acyclic_orientations(n, one), 2)


def bicycle_space_dimension(n: int) -> int:
    """Dimension of the bicycle space of the fractal lattice: (4^n - 1) / 3,
    of 2n - 1 bits, refused by the size rule before 4^n is formed."""
    return _four_sum(n)


def _diagonal(n: int, x: Union[BiPoly, Fraction]) -> tuple:
    """The diagonal T(x, x) of the fractal lattice, x * (x^2 + 5x + 2) **
    ((4^n - 1) / 3), as (base, exponent) factors over BiPoly or Fraction."""
    return (x, 1), (x * x + 5 * x + 2, _four_sum(n, what="diagonal value"))


def diagonal_closed_form(n: int) -> BiPoly:
    """The fractal diagonal T(x, x), in closed form (see _diagonal), as a polynomial in x."""
    check_generation(n, SYMBOLIC_GENERATION_CAP)
    return math.prod(base ** exponent for base, exponent in _diagonal(n, BiPoly.x()))


def diagonal_closed_value(n: int, x: RationalLike) -> Fraction:
    """The diagonal closed form evaluated exactly at a rational point."""
    return _product("diagonal value", _diagonal(n, Fraction(x)))


# -- asymptotic growth ------------------------------------------------------


@dataclass(frozen=True)
class GrowthConstant:
    """Spanning-tree entropy: limit of ln(tree count) / vertex count."""

    exact_form: str
    decimal: float
    sequence: Tuple[Tuple[int, float], ...]


_LN2 = math.log(2.0)
_LN3 = math.log(3.0)

_GROWTH_LIMITS = {
    LatticeFamily.FRACTAL: ("(3/2)*ln(2)", 1.5 * _LN2),
    LatticeFamily.FLOWER22: ("ln(2)", _LN2),
    LatticeFamily.FLOWER13: ("(4*ln(2)+ln(3))/6", (4 * _LN2 + _LN3) / 6),
}


def growth_constant(family: LatticeFamily, n_max: int) -> GrowthConstant:
    """Growth limit plus the finite-generation sequence approaching it."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    # n_max is bounded by the size rule that spanning_tree_count(family, n_max) follows.
    _check_size("spanning-tree count", _product_bits(_tree_count_exponents(family, n_max).items()))
    exact_form, decimal = _GROWTH_LIMITS[family]
    sequence = []
    for n in range(1, n_max + 1):
        vertices, _ = lattice_counts(family, n)
        logs = sum(e * math.log(base) for base, e in _tree_count_exponents(family, n).items())
        sequence.append((n, logs / vertices))
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


def potts_direct(g: Multigraph, params: PottsParams) -> Fraction:
    """Partition function by summing over every q-coloring directly.

    Each edge whose endpoints share a color contributes a factor (1 + v);
    loops always do.  Requires a positive integer q and guards the
    colorings times the edges each one visits.
    """
    if params.q.denominator != 1 or params.q < 1:
        raise DomainError("direct Potts enumeration needs a positive integer q")
    q = int(params.q)
    work = q ** g.vertex_count * max(g.edge_count, 1)
    if work > POTTS_STATE_CAP:
        raise CapExceeded(f"{work} coloring-edge visits exceed enumeration cap {POTTS_STATE_CAP}")
    weight = [Fraction(1)]
    for _ in range(g.edge_count):
        weight.append(weight[-1] * (1 + params.v))
    total = Fraction(0)
    for coloring in product(range(q), repeat=g.vertex_count):
        total += weight[sum(coloring[u] == coloring[v] for u, v in g.edges)]
    return total


def potts_lattice(family: LatticeFamily, n: int, params: PottsParams) -> Fraction:
    """Partition function of a connected lattice generation via the recursion.

    At the Tutte-plane point (X/D, Y/D), x - 1 = q/v and |V| - 1 = e + 1 for the
    numerators' degree e = 2 (4^n - 1) / 3, so Z = q v^e (v J + q C) / den.  With
    q = Q/E, v = P/F and h = gcd(P, D) the recursion reduces against F D/h, its
    state carries (h/F)^e, and Z = Q (P/h)^e (P E J + Q F C) / (E^2 F den) is
    reduced once: P/h shares no prime with F D/h.  Its one size check, before
    any step, counts the bits of both F D/h and the power, e ceil(log2 |P/h|).
    """
    return _coprime(*_potts_value(family, n, params, 1))


def _potts_value(family: LatticeFamily, n: int, params: PottsParams,
                 one: Ring) -> Tuple[Ring, Ring]:
    """potts_lattice's value as (numerator, denominator) in lowest terms, in the ring of one."""
    (q_num, q_den), (v_num, v_den) = params.q.as_integer_ratio(), params.v.as_integer_ratio()
    big_x, big_y, d = _homogeneous(*tutte_arguments(params))
    h, e = math.gcd(v_num, d), 2 * _four_sum(n, what="exact value")
    value, den = _eval_value(family, n, big_x, big_y, d, v_den * d // h,
                             e * (abs(v_num // h) - 1).bit_length(), one)
    # P E J + Q F C = P E (D J + (X - D) C) / D, as P E (X - D) = D Q F.
    return lowest_terms(q_num * pow(one * (v_num // h), e) * (v_num * q_den * value // d),
                        q_den * q_den * v_den * den, q_den * v_den * d // h)
