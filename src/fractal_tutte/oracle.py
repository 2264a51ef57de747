"""Brute-force Tutte polynomial oracles used to gate the fast recursions.

Two independent routes are implemented:

  * spanning-subgraph expansion: a census of all edge subsets classified by
    rank deficit and nullity, folded into (x-1)^a (y-1)^b binomials;
  * memoized deletion-contraction with whole-parallel-class steps.

The expansion also classifies every subset by whether it joins the special
vertex pair, which yields the two-part split of the polynomial for free.
"""

from __future__ import annotations

from itertools import combinations, starmap
from math import comb
from typing import Dict, List, Tuple

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


def _x_minus_1_power(a: int) -> BiPoly:
    return BiPoly({(i, 0): comb(a, i) * (-1) ** (a - i) for i in range(a + 1)})


def _y_minus_1_power(b: int) -> BiPoly:
    return BiPoly({(0, j): comb(b, j) * (-1) ** (b - j) for j in range(b + 1)})


def _census_to_poly(counts: Census) -> BiPoly:
    total = BiPoly.zero()
    for (a, b) in sorted(counts):
        total = total + counts[(a, b)] * _x_minus_1_power(a) * _y_minus_1_power(b)
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


def _skeleton_bridges(vertex_count: int, neighbors: List[Dict[int, int]]) -> set:
    """Bridges of the simple skeleton, as normalized vertex pairs.

    A parallel class is a bridge-class exactly when its pair is a bridge of
    the skeleton, so multiplicities play no role here.
    """
    visited = [False] * vertex_count
    disc = [0] * vertex_count
    low = [0] * vertex_count
    bridges = set()
    timer = 1
    for root in range(vertex_count):
        if visited[root]:
            continue
        visited[root] = True
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(neighbors[root]))]
        while stack:
            v, parent_v, neighbor_iter = stack[-1]
            pushed = False
            for w in neighbor_iter:
                if not visited[w]:
                    visited[w] = True
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(neighbors[w])))
                    pushed = True
                    break
                if w != parent_v and disc[w] < low[v]:
                    low[v] = disc[w]
            if not pushed:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] > disc[p]:
                        bridges.add((p, v) if p <= v else (v, p))
    return bridges


def _canonical_key(vertex_count: int, edges: Tuple[Tuple[int, int], ...]) -> Tuple:
    """Degree-refined relabeling of a loop-free multigraph.

    Iterative color refinement followed by a deterministic relabeling.  Equal
    keys imply equal graphs after relabeling, so reuse is always sound; some
    isomorphic states may still hash apart, which only costs recomputation.
    """
    adjacency: List[Dict[int, int]] = [dict() for _ in range(vertex_count)]
    for u, v in edges:
        adjacency[u][v] = adjacency[u].get(v, 0) + 1
        adjacency[v][u] = adjacency[v].get(u, 0) + 1
    colors = [sum(nbrs.values()) for nbrs in adjacency]
    distinct = len(set(colors))
    for _ in range(vertex_count):
        signatures = [
            (colors[v], tuple(sorted((mult, colors[w]) for w, mult in adjacency[v].items())))
            for v in range(vertex_count)
        ]
        palette = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        colors = [palette[sig] for sig in signatures]
        if len(palette) == distinct:
            break
        distinct = len(palette)
    order = sorted(range(vertex_count), key=lambda v: (colors[v], v))
    rank = [0] * vertex_count
    for position, v in enumerate(order):
        rank[v] = position
    relabeled = sorted(
        (rank[u], rank[v]) if rank[u] <= rank[v] else (rank[v], rank[u])
        for u, v in edges
    )
    return (vertex_count, tuple(relabeled))


def _compact(vertex_count: int, edges: List[Tuple[int, int]]) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Drop isolated vertices and renumber; they never affect the polynomial."""
    label: Dict[int, int] = {}
    out = []
    for u, v in sorted(edges):
        lu = label.setdefault(u, len(label))
        lv = label.setdefault(v, len(label))
        out.append((lu, lv) if lu <= lv else (lv, lu))
    return len(label), tuple(sorted(out))


def _parallel_class_factor(multiplicity: int) -> BiPoly:
    # A whole parallel class acting as a bridge: x + y + ... + y^(k-1).
    terms = {(1, 0): 1}
    for j in range(1, multiplicity):
        terms[(0, j)] = 1
    return BiPoly(terms)


def _series_sigma(multiplicity: int) -> BiPoly:
    # 1 + y + ... + y^(k-1), the loop tally from contracting a class.
    return BiPoly({(0, j): 1 for j in range(multiplicity)})


def tutte_deletion_contraction(g: Multigraph) -> BiPoly:
    """Tutte polynomial by deletion-contraction with memoized states.

    Loops are stripped into a y-power up front; parallel edges between one
    vertex pair are always eliminated together, which keeps the recursion
    shallow on graphs with heavy edge multiplicity.
    """
    if len(g.edges) > DC_EDGE_CAP:
        raise CapExceeded(f"{len(g.edges)} edges exceeds deletion-contraction cap {DC_EDGE_CAP}")
    memo: Dict[Tuple, BiPoly] = {}

    def solve(vertex_count: int, edges: Tuple[Tuple[int, int], ...]) -> BiPoly:
        loop_count = sum(1 for u, v in edges if u == v)
        plain = [e for e in edges if e[0] != e[1]]
        vertex_count, plain = _compact(vertex_count, plain)
        result = solve_loopfree(vertex_count, plain)
        if loop_count:
            result = result * BiPoly.y() ** loop_count
        return result

    def solve_loopfree(vertex_count: int, edges: Tuple[Tuple[int, int], ...]) -> BiPoly:
        if not edges:
            return BiPoly.one()
        key = _canonical_key(vertex_count, edges)
        cached = memo.get(key)
        if cached is not None:
            return cached

        multiplicity: Dict[Tuple[int, int], int] = {}
        for e in edges:
            multiplicity[e] = multiplicity.get(e, 0) + 1
        neighbors: List[Dict[int, int]] = [dict() for _ in range(vertex_count)]
        for (u, v), k in multiplicity.items():
            neighbors[u][v] = k
            neighbors[v][u] = k
        bridges = _skeleton_bridges(vertex_count, neighbors)

        cycle_classes = [e for e in multiplicity if e not in bridges]
        if not cycle_classes:
            # Forest skeleton: every class contracts independently.
            result = BiPoly.one()
            for e in sorted(multiplicity):
                result = result * _parallel_class_factor(multiplicity[e])
        else:
            degree = [sum(nbrs.values()) for nbrs in neighbors]
            u, v = max(
                cycle_classes,
                key=lambda e: (max(degree[e[0]], degree[e[1]]),
                               degree[e[0]] + degree[e[1]],
                               (-e[0], -e[1])),
            )
            k = multiplicity[(u, v)]

            deleted = [e for e in edges if e != (u, v)]
            del_v, del_e = _compact(vertex_count, deleted)
            part_deleted = solve_loopfree(del_v, del_e)

            contracted = []
            for a, b in deleted:
                a2 = u if a == v else a
                b2 = u if b == v else b
                contracted.append((a2, b2) if a2 <= b2 else (b2, a2))
            con_v, con_e = _compact(vertex_count, contracted)
            part_contracted = solve_loopfree(con_v, con_e)

            result = part_deleted + _series_sigma(k) * part_contracted

        memo[key] = result
        return result

    return solve(g.vertex_count, g.edges)


# -- spanning trees ---------------------------------------------------------


def count_spanning_trees_bruteforce(g: Multigraph) -> int:
    """Count spanning trees by testing every (|V|-1)-subset of edges."""
    if len(g.edges) > EXPANSION_EDGE_CAP:
        raise CapExceeded(f"{len(g.edges)} edges exceeds enumeration cap {EXPANSION_EDGE_CAP}")
    # A subset of |V| - 1 edges is a spanning tree exactly when each of its
    # edges joins two classes.
    return sum(all(starmap(union_find(g.vertex_count), combo))
               for combo in combinations(g.edges, g.vertex_count - 1))
