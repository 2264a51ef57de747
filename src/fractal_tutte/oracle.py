"""Exact Tutte polynomial oracles used to gate the fast recursions.

Two independent routes are implemented:

  * spanning-subgraph expansion: a census of all edge subsets classified by
    rank deficit and nullity, folded into (x-1)^a (y-1)^b binomials.  The
    census sweeps the edges once, keeping for each partition of the vertices
    still to be touched the counts of the subsets that induce it, so its
    cost follows the number of such partitions rather than 2^|E|;
  * memoized deletion-contraction that eliminates one whole parallel class
    per step, keyed on the relabeled edge list, with one union-find pass
    telling a bridge class from a cycle class.

The expansion also classifies every subset by whether it joins the special
vertex pair, which yields the two-part split of the polynomial for free.
Spanning trees are read off the census as well."""

from __future__ import annotations

import math
from itertools import starmap
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


def _canonical(labels: Iterable[int]) -> Tuple[int, ...]:
    """Relabel blocks by first appearance, so equal partitions compare equal."""
    seen: Dict[int, int] = {}
    return tuple(seen.setdefault(b, len(seen)) for b in labels)


def _sweep(g: Multigraph) -> Dict[Tuple[int, ...], Census]:
    """Count edge subsets by (merges, included edges) for each partition of
    the specials they induce.

    One pass over the edges in their own order.  A state is the partition
    of the live vertices -- those with an edge still to come, and the two
    specials throughout -- into the blocks the subset chosen so far joins.
    A merge is an included edge that joined two blocks, so the merges of a
    subset are its rank.  The cost follows the number of states, not 2^|E|.
    """
    if len(g.edges) > EXPANSION_EDGE_CAP:
        raise CapExceeded(f"{len(g.edges)} edges exceeds expansion cap {EXPANSION_EDGE_CAP}")
    sx, sy = g.special_x, g.special_y
    last: Dict[int, int] = {}
    for i, (u, v) in enumerate(g.edges):
        last[u] = last[v] = i
    last[sx] = last[sy] = len(g.edges)
    live = list(dict.fromkeys((sx, sy)))
    states: Dict[Tuple[int, ...], Census] = {tuple(range(len(live))): {(0, 0): 1}}
    for i, (u, v) in enumerate(g.edges):
        for w in (u, v):
            if w not in live:
                live.append(w)
                states = {s + (max(s) + 1,): counts for s, counts in states.items()}
        pu, pv = live.index(u), live.index(v)
        keep = [p for p, w in enumerate(live) if last[w] > i]
        live = [live[p] for p in keep]
        after: Dict[Tuple[int, ...], Census] = {}
        for s, counts in states.items():
            a, b = s[pu], s[pv]
            merged = tuple(a if t == b else t for t in s)
            for target, new_merges, new_included in ((s, 0, 0), (merged, int(a != b), 1)):
                bucket = after.setdefault(_canonical(target[p] for p in keep), {})
                for (merges, included), ways in counts.items():
                    key = (merges + new_merges, included + new_included)
                    bucket[key] = bucket.get(key, 0) + ways
        states = after
    return states


def rank_nullity_census(g: Multigraph) -> Tuple[Census, Census]:
    """Count edge subsets by (rank deficit, nullity), split by whether the
    subset joins the special pair.  Exact integers throughout."""
    states = _sweep(g)
    rank_full = _graph_rank(g)
    joined: Census = {}
    severed: Census = {}
    for s, counts in states.items():
        # Only the specials are left live; a one-vertex graph has one special.
        bucket = joined if s[0] == s[-1] else severed
        for (merges, included), ways in counts.items():
            key = (rank_full - merges, included - merges)
            bucket[key] = bucket.get(key, 0) + ways
    return joined, severed


def _signed_binomials(k: int) -> list[int]:
    """Coefficients of (z - 1)^k, constant term first."""
    return [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]


def _census_to_poly(counts: Census) -> BiPoly:
    """The sum of ways * (x - 1)^a (y - 1)^b over the census keys (a, b),
    each expanded by the binomial theorem into one coefficient dict."""
    terms: Dict[Tuple[int, int], int] = {}
    for (a, b), ways in counts.items():
        column = _signed_binomials(b)
        for i, cx in enumerate(_signed_binomials(a)):
            for j, cy in enumerate(column):
                terms[i, j] = terms.get((i, j), 0) + ways * cx * cy
    return BiPoly(terms)


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
    """Count spanning trees: the subsets of |V| - 1 edges that each join two
    blocks.  On a connected graph they are the census key (0, 0); on a
    disconnected one no subset reaches rank |V| - 1, so the count is 0."""
    trees = g.vertex_count - 1
    return sum(counts.get((trees, trees), 0) for counts in _sweep(g).values())
