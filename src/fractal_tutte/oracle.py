"""Brute-force Tutte polynomial oracles used to gate the fast recursions.

Two independent routes are implemented:

  * spanning-subgraph expansion: a census of all edge subsets classified by
    rank deficit and nullity, folded into (x-1)^a (y-1)^b binomials;
  * memoized deletion-contraction that eliminates one whole parallel class
    per step, keyed on the relabeled edge list, with one union-find pass
    telling a bridge class from a cycle class.

The expansion also classifies every subset by whether it joins the special
vertex pair, which yields the two-part split of the polynomial for free.
"""

from __future__ import annotations

from itertools import combinations, starmap
from math import comb
from typing import Dict, Iterable, Tuple

from .bipoly import BiPoly
from .errors import CapExceeded
from .lattices import Multigraph, union_find

EXPANSION_EDGE_CAP = 24
DC_EDGE_CAP = 64

Census = Dict[Tuple[int, int], int]


def _graph_rank(g: Multigraph) -> int:
    """Rank |V| - (number of components)."""
    return sum(starmap(union_find(g.vertex_count), g.edges))


def rank_nullity_census(g: Multigraph) -> Tuple[Census, Census]:
    """Count edge subsets by (rank deficit, nullity), split by whether the
    subset joins the special pair.  Exact integers throughout."""
    if len(g.edges) > EXPANSION_EDGE_CAP:
        raise CapExceeded(f"{len(g.edges)} edges exceeds expansion cap {EXPANSION_EDGE_CAP}")
    rank_full = _graph_rank(g)
    edges = g.edges
    edge_total = len(edges)
    sx, sy = g.special_x, g.special_y
    parent = list(range(g.vertex_count))
    size = [1] * g.vertex_count
    binom = [[comb(m, j) for j in range(m + 1)] for m in range(edge_total + 1)]
    joined: Census = {}
    severed: Census = {}

    def run(idx: int, merges: int, included: int) -> None:
        # No path compression anywhere: undo must be a plain pointer reset.
        if merges == rank_full:
            # The partition already matches the full graph, so every
            # remaining edge is internal and only nullity can grow.
            a = sx
            while parent[a] != a:
                a = parent[a]
            b = sy
            while parent[b] != b:
                b = parent[b]
            bucket = joined if a == b else severed
            row = binom[edge_total - idx]
            base = included - merges
            for j, ways in enumerate(row):
                key = (0, base + j)
                bucket[key] = bucket.get(key, 0) + ways
            return
        if idx == edge_total:
            a = sx
            while parent[a] != a:
                a = parent[a]
            b = sy
            while parent[b] != b:
                b = parent[b]
            bucket = joined if a == b else severed
            key = (rank_full - merges, included - merges)
            bucket[key] = bucket.get(key, 0) + 1
            return
        u, v = edges[idx]
        a = u
        while parent[a] != a:
            a = parent[a]
        b = v
        while parent[b] != b:
            b = parent[b]
        if a == b:
            run(idx + 1, merges, included + 1)
            run(idx + 1, merges, included)
        else:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            run(idx + 1, merges + 1, included + 1)
            size[a] -= size[b]
            parent[b] = b
            run(idx + 1, merges, included)

    run(0, 0, 0)
    return joined, severed


def _census_to_poly(counts: Census) -> BiPoly:
    x_minus_1, y_minus_1 = BiPoly.x() - 1, BiPoly.y() - 1
    total = BiPoly.zero()
    for (a, b) in sorted(counts):
        total = total + counts[(a, b)] * x_minus_1 ** a * y_minus_1 ** b
    return total


def tutte_subgraph_expansion(g: Multigraph) -> BiPoly:
    """Tutte polynomial straight from the subset definition."""
    joined, severed = split_tutte(g)
    return joined + severed


def split_tutte(g: Multigraph) -> Tuple[BiPoly, BiPoly]:
    """Two-part split of the Tutte polynomial by special-pair connectivity.

    Returns (joined part, severed part); the two sum to the full polynomial.
    """
    joined, severed = rank_nullity_census(g)
    return _census_to_poly(joined), _census_to_poly(severed)


# -- deletion-contraction ---------------------------------------------------


def _compact(edges: Iterable[Tuple[int, int]]) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Sort the edges and renumber vertices by first appearance, dropping
    isolated vertices, which never affect the polynomial."""
    label: Dict[int, int] = {}
    out = []
    for u, v in sorted(edges):
        lu = label.setdefault(u, len(label))
        lv = label.setdefault(v, len(label))
        out.append((lu, lv) if lu <= lv else (lv, lu))
    return len(label), tuple(sorted(out))


def tutte_deletion_contraction(g: Multigraph) -> BiPoly:
    """Tutte polynomial by deletion-contraction with memoized states.

    Each state is the relabeled, sorted edge tuple, which is also its memo
    key.  The first edge's whole parallel class of k edges is eliminated in
    one step: a loop class gives y^k T(rest); a class whose endpoints the
    rest leaves apart is a bridge class, giving (x + y + ... + y^(k-1))
    T(G/class); any other class gives T(G - class) + (1 + y + ... +
    y^(k-1)) T(G/class).
    """
    if len(g.edges) > DC_EDGE_CAP:
        raise CapExceeded(f"{len(g.edges)} edges exceeds deletion-contraction cap {DC_EDGE_CAP}")
    memo: Dict[Tuple[Tuple[int, int], ...], BiPoly] = {(): BiPoly.one()}

    def solve(edges: Iterable[Tuple[int, int]]) -> BiPoly:
        vertex_count, edges = _compact(edges)
        cached = memo.get(edges)
        if cached is not None:
            return cached
        first = edges[0]
        k = edges.count(first)  # sorted, so the class is the prefix edges[:k]
        rest = edges[k:]
        u, v = first
        if u == v:
            result = BiPoly.y() ** k * solve(rest)
        else:
            sigma = BiPoly({(0, j): 1 for j in range(k)})
            contracted = [(u if a == v else a, u if b == v else b) for a, b in rest]
            union = union_find(vertex_count)
            for a, b in rest:
                union(a, b)
            if union(u, v):
                result = (BiPoly.x() - 1 + sigma) * solve(contracted)
            else:
                result = solve(rest) + sigma * solve(contracted)
        memo[edges] = result
        return result

    return solve(g.edges)


# -- spanning trees ---------------------------------------------------------


def count_spanning_trees_bruteforce(g: Multigraph) -> int:
    """Count spanning trees by testing every (|V|-1)-subset of edges."""
    if len(g.edges) > EXPANSION_EDGE_CAP:
        raise CapExceeded(f"{len(g.edges)} edges exceeds enumeration cap {EXPANSION_EDGE_CAP}")
    # A subset of |V| - 1 edges is a spanning tree exactly when each of its
    # edges joins two classes.
    return sum(all(starmap(union_find(g.vertex_count), combo))
               for combo in combinations(g.edges, g.vertex_count - 1))
