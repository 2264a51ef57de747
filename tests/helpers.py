"""Seeded random multigraph builders and other helpers shared across test modules."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import starmap
from typing import Dict, Tuple

from fractal_tutte import recursion
from fractal_tutte.bipoly import BiPoly
from fractal_tutte.invariants import PottsParams
from fractal_tutte.lattices import LatticeFamily, Multigraph, union_find


def _normalized(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def random_connected_multigraph(rng: random.Random, max_vertices: int = 5,
                                max_extra_edges: int = 4) -> Multigraph:
    """Random spanning tree plus extra edges, so loops and parallels occur."""
    n = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, n):
        edges.append(_normalized(rng.randrange(v), v))
    for _ in range(rng.randint(0, max_extra_edges)):
        edges.append(_normalized(rng.randrange(n), rng.randrange(n)))
    rng.shuffle(edges)
    return Multigraph(n, tuple(edges), 0, n - 1 if n > 1 else 0)


def random_multigraph(rng: random.Random, max_vertices: int = 5,
                      max_edges: int = 8) -> Multigraph:
    """Arbitrary multigraph, possibly disconnected, loops and parallels allowed."""
    n = rng.randint(1, max_vertices)
    edges = tuple(
        _normalized(rng.randrange(n), rng.randrange(n))
        for _ in range(rng.randint(0, max_edges))
    )
    return Multigraph(n, edges, 0, n - 1 if n > 1 else 0)


def listed_census(g: Multigraph) -> Tuple[Dict[Tuple[int, int], int], Dict[Tuple[int, int], int]]:
    """Edge subsets counted one by one by (rank deficit, nullity), split by
    whether the subset joins the special pair; at most 10 edges."""
    assert g.edge_count <= 10
    full_rank = sum(starmap(union_find(g.vertex_count), g.edges))
    joined: Dict[Tuple[int, int], int] = {}
    severed: Dict[Tuple[int, int], int] = {}
    for mask in range(1 << g.edge_count):
        subset = [e for k, e in enumerate(g.edges) if mask >> k & 1]
        union = union_find(g.vertex_count)
        rank = sum(starmap(union, subset))
        bucket = severed if union(g.special_x, g.special_y) else joined
        key = (full_rank - rank, len(subset) - rank)
        bucket[key] = bucket.get(key, 0) + 1
    return joined, severed


def diagonal(p: BiPoly) -> BiPoly:
    """p with y = x: each term x^i y^j collapses to x^(i+j)."""
    terms: Dict[Tuple[int, int], int] = {}
    for (i, j), c in p.terms().items():
        terms[i + j, 0] = terms.get((i + j, 0), 0) + c
    return BiPoly(terms)


def divisible_by_x_minus_1(p: BiPoly) -> bool:
    """Whether x - 1 divides p: p vanishes at x = 1, that is the
    coefficients of each power of y sum to 0."""
    sums: Dict[int, int] = {}
    for (_, j), c in p.terms().items():
        sums[j] = sums.get(j, 0) + c
    return not any(sums.values())


def potts_partition(vertex_count: int, component_count: int,
                    tutte_value: Fraction, params: PottsParams) -> Fraction:
    """The tests' reference Potts partition function, from a Tutte evaluation
    at the matching point: Z = q^k v^(|V| - k) T((q + v) / v, v + 1) for a
    graph with |V| vertices and k components, v != 0."""
    q, v = params.q, params.v
    return q ** component_count * v ** (vertex_count - component_count) * tutte_value


def context_settings(context) -> tuple:
    """Everything of a decimal context that an operation could change."""
    return (context.prec, context.rounding, context.Emin, context.Emax, context.capitals,
            context.clamp, dict(context.flags), dict(context.traps))


class Stepped(Exception):
    """Raised by every recursion step once forbid_steps has run."""


def forbid_steps(monkeypatch) -> None:
    """Make every family's step, symbolic or pointwise, and its last step as
    a value, raise Stepped, so a test can tell a request refused by a cap
    from one that reached its first step."""
    def no_step(*args):
        raise Stepped
    monkeypatch.setattr(recursion, "step", no_step)
    monkeypatch.setattr(recursion, "_STEPS", dict.fromkeys(LatticeFamily, no_step))
    monkeypatch.setattr(recursion, "_VALUES", dict.fromkeys(LatticeFamily, no_step))


class Residue:
    """An int mod the prime P = 2^61 - 1 with only + - *, ==, bool, and // as
    the product by an inverse: a ring with no abs, bit_length, % or int()."""

    P = (1 << 61) - 1

    def __init__(self, value: int):
        self.value = value % self.P

    @staticmethod
    def _int(other) -> int:
        return other.value if isinstance(other, Residue) else other

    def __add__(self, other):
        return Residue(self.value + self._int(other))

    def __sub__(self, other):
        return Residue(self.value - self._int(other))

    def __rsub__(self, other):
        return Residue(other - self.value)

    def __mul__(self, other):
        return Residue(self.value * self._int(other))

    __radd__, __rmul__ = __add__, __mul__

    def __floordiv__(self, other):
        return self * pow(self._int(other), -1, self.P)

    def __eq__(self, other):
        return (self.value - self._int(other)) % self.P == 0

    def __bool__(self):
        return bool(self.value)


# Potts points (q, v), v = P/F, whose numerator P shares a prime with the
# Tutte-plane point's denominator D, then one whose numerator does not.
POTTS_POINTS = [(Fraction(10), Fraction(-20, 3)), (Fraction(7, 4), Fraction(6, 5)),
                (Fraction(3), Fraction(-15, 2)), (Fraction(-9, 10), Fraction(4, 3)),
                (Fraction(9, 4), Fraction(3, 2))]
