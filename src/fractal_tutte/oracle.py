"""Exact Tutte polynomial oracles used to gate the fast recursions.

Two independent routes are implemented:

  * spanning-subgraph expansion: the sum over all edge subsets A of
    u^(k(A) - k(E)) v^(nullity of A), with u = x - 1 and v = y - 1, over
    any commutative ring.  One sweep over the edges keeps, for each
    partition of the vertices still to be touched, the summed weight of
    the subsets that induce it, so its cost follows the number of such
    partitions rather than 2^|E|.  The same sweep gives the census of
    subsets by (rank deficit, nullity) at u = x, v = y, and on a connected
    graph the spanning trees at u = v = 0;
  * memoized deletion-contraction that eliminates one whole parallel class
    per step, keyed on the relabeled edge list, with one union-find pass
    telling a bridge class from a cycle class.

The sweep also splits the sum by whether a subset joins the special vertex
pair, which yields the two-part split of the polynomial for free."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple, TypeVar

from .bipoly import BiPoly
from .errors import CapExceeded
from .lattices import Multigraph, union_find

EXPANSION_EDGE_CAP = 24
DC_EDGE_CAP = 64
# Distinct minors deletion-contraction may memoize.  A 3x6 grid needs 10,359
# and the gates at most 338; flower22 n=3 needs 52,042 (6.4 s, 517 MB).
DC_MEMO_CAP = 1 << 14

Census = Dict[Tuple[int, int], int]
R = TypeVar("R")


def _canonical(labels: Iterable[int]) -> Tuple[int, ...]:
    """Relabel blocks by first appearance, so equal partitions compare equal."""
    seen: Dict[int, int] = {}
    return tuple([seen.setdefault(b, len(seen)) for b in labels])


def _sweep(g: Multigraph, u: R, v: R) -> Tuple[R, R]:
    """The sums of u^(k(A) - k(E)) v^(|A| - |V| + k(A)) over the edge subsets
    A that join the special pair and over those that do not, k counting
    components.

    One pass over the edges in their own order.  A state is the partition
    of the live vertices -- those with an edge still to come, and the two
    specials throughout -- into the blocks the subset chosen so far joins,
    and it carries the summed weight of those subsets.  An included edge
    inside a block closes a cycle, a factor v.  A block whose vertices have
    all left is a finished component of A, a factor u; one such factor is
    skipped at the edge where a component of G finishes, which makes the
    exponent k(A) - k(E).  The cost follows the number of states, not 2^|E|.
    """
    if len(g.edges) > EXPANSION_EDGE_CAP:
        raise CapExceeded(f"{len(g.edges)} edges exceeds expansion cap {EXPANSION_EDGE_CAP}")
    sx, sy, met = g.special_x, g.special_y, g.vertex_count
    last: Dict[int, int] = {}
    for i, (a, b) in enumerate(g.edges):
        last[a] = last[b] = i
    last[sx] = last[sy] = len(g.edges)
    # Index `met` is joined to each component of G once it is met.  Going
    # back from the last edge, an edge that meets a new component is that
    # component's last; the specials, joined to each other and to `met`
    # first, stay live to the end.
    union = union_find(met + 1)
    for a, b in g.edges:
        union(a, b)
    specials_together = not union(sx, sy)
    union(sx, met)
    g_finishes = [union(a, met) for a, _ in reversed(g.edges)][::-1]
    factors: Dict[Tuple[int, int], R] = {}
    live = list(dict.fromkeys((sx, sy)))
    states: Dict[Tuple[int, ...], R] = {tuple(range(len(live))): u ** 0}  # the ring's one
    for i, (a, b) in enumerate(g.edges):
        for w in (a, b):
            if w not in live:
                live.append(w)
                states = {s + (max(s) + 1,): weight for s, weight in states.items()}
        pa, pb = live.index(a), live.index(b)
        keep = [p for p, w in enumerate(live) if last[w] > i]
        live = [live[p] for p in keep]
        after: Dict[Tuple[int, ...], R] = {}
        for s, weight in states.items():
            sa, sb, top = s[pa], s[pb], max(s)
            left = [s[p] for p in keep]
            cycle = int(sa == sb)
            # The edge left out, then put in.
            for labels, blocks, closes in ((left, top + 1, 0),
                                           ([sa if t == sb else t for t in left], top + cycle, cycle)):
                kept = _canonical(labels)
                dead = blocks - max(kept) - 1 - g_finishes[i]
                if (closes, dead) not in factors:
                    factors[closes, dead] = v ** closes * u ** dead
                term = weight * factors[closes, dead] if closes or dead else weight
                if term:
                    after[kept] = after[kept] + term if kept in after else term
        states = after
    # Only the specials are left live; a one-vertex graph has one special.
    zero = u * 0
    joined = sum((w for s, w in states.items() if s[0] == s[-1]), zero)
    severed = sum((w for s, w in states.items() if s[0] != s[-1]), zero)
    # Specials in one component of G: k(E) counts it once, k(A) twice.
    return joined, severed * u if specials_together else severed


def rank_nullity_census(g: Multigraph) -> Tuple[Census, Census]:
    """Count edge subsets by (rank deficit, nullity), split by whether the
    subset joins the special pair.  Exact integers throughout."""
    joined, severed = _sweep(g, BiPoly.x(), BiPoly.y())
    return joined.terms(), severed.terms()


def tutte_subgraph_expansion(g: Multigraph) -> BiPoly:
    """Tutte polynomial straight from the subset definition."""
    joined, severed = split_tutte(g)
    return joined + severed


def split_tutte(g: Multigraph) -> Tuple[BiPoly, BiPoly]:
    """Two-part split of the Tutte polynomial by special-pair connectivity.

    Returns (joined part, severed part); the two sum to the full polynomial.
    """
    return _sweep(g, BiPoly.x() - 1, BiPoly.y() - 1)


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
    y^(k-1)) T(G/class).  Raises CapExceeded once the memo passes
    DC_MEMO_CAP entries.
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
        if len(memo) >= DC_MEMO_CAP:
            raise CapExceeded(f"deletion-contraction passed {DC_MEMO_CAP} memoized minors")
        memo[edges] = result
        return result

    return solve(g.edges)


# -- spanning trees ---------------------------------------------------------


def count_spanning_trees_bruteforce(g: Multigraph) -> int:
    """Count spanning trees: on a connected graph, the subsets with no cycle
    and one component, the sweep's sum at u = v = 0; a disconnected graph
    has none."""
    return sum(_sweep(g, 0, 0)) if g.is_connected() else 0
