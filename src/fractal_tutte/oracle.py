"""Exact Tutte polynomial oracles used to gate the fast recursions.

Two independent routes are implemented:

  * spanning-subgraph expansion: the sum over all edge subsets A of
    u^(k(A) - k(E)) v^(nullity of A), with u = x - 1 and v = y - 1, over
    any commutative ring, by vertex elimination.  The vertices other than
    the special pair are eliminated one at a time in a min-degree order.
    Each one joins the factors that hold it (its edges, and the tables
    earlier eliminations left on it) into one table over itself and its
    neighbours, keyed by the partition the chosen subsets induce on them,
    and then leaves it.  The cost follows the number of partitions of the
    widest scope rather than 2^|E|: that width (neighbours at elimination)
    is 3 for the fractal and 2 for both flowers at every generation up to
    8, the last measured.  The same elimination gives the census of
    subsets by (rank deficit, nullity) at u = x, v = y, and on a connected
    graph the spanning trees at u = v = 0;
  * memoized deletion-contraction that eliminates one whole parallel class
    per step, keyed on the relabeled edge list, with one union-find pass
    telling a bridge class from a cycle class.

The special pair stays in scope to the end, so the last table splits the
sum by whether a subset joins the pair, which yields the two-part split of
the polynomial for free.  The elimination order predicts the table work
before any table is built, and a graph whose work would pass
ELIMINATION_WORK_CAP is refused with CapExceeded."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Set, Tuple, TypeVar

from .bipoly import BiPoly
from .errors import CapExceeded
from .lattices import Multigraph, union_find

# Predicted table work the elimination may take on: over the eliminated
# vertices, B(s) * (1 + the sum of B(scope) over the factors it joins), with
# s its scope size and B the Bell numbers (partitions of a scope).  Fractal
# n=8 predicts 3,604,380 (22 s on rationals) and K_12 474,486,396,083.
ELIMINATION_WORK_CAP = 1 << 22
DC_EDGE_CAP = 64
# Distinct minors deletion-contraction may memoize.  A 3x6 grid needs 10,359
# and the gates at most 338; flower22 n=3 needs 52,042 (6.4 s, 517 MB).
DC_MEMO_CAP = 1 << 14

Census = Dict[Tuple[int, int], int]
Partition = Tuple[int, ...]
R = TypeVar("R")


def _bell_numbers(limit: int) -> List[int]:
    """Bell numbers B(0), B(1), ... through the first one above limit,
    read off the Bell triangle."""
    bells, row = [1], [1]
    while bells[-1] <= limit:
        below = [row[-1]]
        for above in row:
            below.append(below[-1] + above)
        row = below
        bells.append(row[0])
    return bells


_BELL = _bell_numbers(ELIMINATION_WORK_CAP)


def _canonical(labels: Iterable[int]) -> Partition:
    """Relabel blocks by first appearance, so equal partitions compare equal."""
    seen: Dict[int, int] = {}
    return tuple([seen.setdefault(b, len(seen)) for b in labels])


def _plan(g: Multigraph, specials: Tuple[int, ...]) -> tuple:
    """The elimination order and its buckets, before any table is built.

    Factors 0 .. m-1 are the non-loop edges, in order; eliminating the i-th
    vertex of the order makes factor m + i over its neighbours.  Each vertex
    is picked by least current degree (then least label), leaving the
    specials to the end, and its bucket is every factor still live on it,
    oldest first.  Returns (edges, order, buckets, final, together, width):
    the non-loop edges, the eliminated vertices, their buckets, the factors
    left for the specials' table (those on the specials and those of empty
    scope), whether the specials share a component of g, and the most
    neighbours a vertex had when eliminated.  Raises CapExceeded as soon as
    the predicted work passes ELIMINATION_WORK_CAP.
    """
    adjacency: Dict[int, Set[int]] = {s: set() for s in specials}
    live: Dict[int, List[int]] = {s: [] for s in specials}
    edges = [(a, b) for a, b in g.edges if a != b]
    for f, (a, b) in enumerate(edges):
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
        live.setdefault(a, []).append(f)
        live.setdefault(b, []).append(f)
    sizes = [2] * len(edges)
    done = [False] * len(edges)
    heap = [(len(near), w) for w, near in adjacency.items() if w not in specials]
    heapify(heap)
    order: List[int] = []
    buckets: List[List[int]] = []
    final: List[int] = []
    work = width = 0
    while heap:
        degree, w = heappop(heap)
        near = adjacency.get(w)
        if near is None or len(near) != degree:
            continue  # eliminated, or its degree has changed since
        bucket = [f for f in live.pop(w) if not done[f]]
        for f in bucket:
            done[f] = True
        if degree + 1 < len(_BELL):
            work += _BELL[degree + 1] * (1 + sum(_BELL[sizes[f]] for f in bucket))
        if degree + 1 >= len(_BELL) or work > ELIMINATION_WORK_CAP:
            raise CapExceeded(f"vertex elimination would pass {ELIMINATION_WORK_CAP} "
                              f"table operations (a scope of {degree + 1} vertices)")
        width = max(width, degree)
        message = len(sizes)
        sizes.append(degree)
        done.append(False)
        del adjacency[w]
        for x in near:
            around = adjacency[x]
            around.discard(w)
            around.update(near)
            around.discard(x)
            live[x].append(message)
            if x not in specials:
                heappush(heap, (len(around), x))
        if not near:
            final.append(message)
        order.append(w)
        buckets.append(bucket)
    final.extend(f for f in dict.fromkeys(f for s in specials for f in live[s]) if not done[f])
    together = len(specials) == 1 or specials[1] in adjacency[specials[0]]
    return edges, order, buckets, final, together, width


def _join(scope1: Tuple[int, ...], table1: Dict[Partition, R],
          scope2: Tuple[int, ...], table2: Dict[Partition, R],
          v_powers: List[R], memo: dict) -> Tuple[Tuple[int, ...], Dict[Partition, R]]:
    """The product of two factor tables, over the union of their scopes.

    Joining partitions p1 and p2 over shared scope O closes |O| - b(p1) -
    b(p2) + b(join) new cycles, b counting blocks, a factor v each.  A
    weight None in table2 stands for the ring's one (an edge's table).
    Each join is memoized in memo under how scope2 lies in the union.
    """
    scope = scope1 + tuple([w for w in scope2 if w not in scope1])
    place = tuple([scope.index(w) for w in scope2])
    n1, size = len(scope1), len(scope)
    joins = memo.get((n1, place))
    if joins is None:
        joins = memo[n1, place] = {}
    shared = n1 + len(scope2) - size
    out: Dict[Partition, R] = {}
    for p1, w1 in table1.items():
        for p2, w2 in table2.items():
            hit = joins.get((p1, p2))
            if hit is None:
                # Label the union's places by p1's blocks (-1 where scope1
                # ends), then give each place of scope2 the label its block
                # of p2 took first, merging the two labels if they differ.
                labels = list(p1) + [-1] * (size - n1)
                taken: Dict[int, int] = {}
                for c, at in zip(p2, place):
                    mine, first = labels[at], taken.get(c)
                    if first is None:
                        taken[c] = first = mine if mine >= 0 else size + c
                    if mine < 0:
                        labels[at] = first
                    elif mine != first:
                        labels = [first if t == mine else t for t in labels]
                        taken = {k: first if t == mine else t for k, t in taken.items()}
                joined = _canonical(labels)
                # Each partition is canonical, so its blocks are its top label + 1.
                hit = joins[p1, p2] = (joined, shared - max(p1, default=-1) - max(p2, default=-1)
                                       + max(joined, default=-1) - 1)
            joined, cycles = hit
            weight = w1 if w2 is None else w1 * w2
            if cycles:
                weight = weight * v_powers[cycles]
            if weight:
                out[joined] = out[joined] + weight if joined in out else weight
    return scope, out


def _eliminate(scope: Tuple[int, ...], table: Dict[Partition, R], w: int, u: R,
               memo: dict) -> Tuple[Tuple[int, ...], Dict[Partition, R]]:
    """Sum w out of a table: drop it from its block, and where it was a block
    on its own, that block is a finished component of A, a factor u.  When
    nothing is left in scope, w was the last vertex of a component of g,
    which k(E) counts too, so no u.  Each drop is memoized in memo under w's
    place and the scope's size."""
    at = scope.index(w)
    drops = memo.get((at, len(scope)))
    if drops is None:
        drops = memo[at, len(scope)] = {}
    out: Dict[Partition, R] = {}
    for p, weight in table.items():
        hit = drops.get(p)
        if hit is None:
            left = p[:at] + p[at + 1:]
            hit = drops[p] = (_canonical(left), p[at] not in left and bool(left))
        left, alone = hit
        if alone:
            weight = weight * u
            if not weight:
                continue
        out[left] = out[left] + weight if left in out else weight
    return scope[:at] + scope[at + 1:], out


def _sweep(g: Multigraph, u: R, v: R) -> Tuple[R, R]:
    """The sums of u^(k(A) - k(E)) v^(|A| - |V| + k(A)) over the edge subsets
    A that join the special pair and over those that do not, k counting
    components.

    Bucket elimination (see the module docstring and _plan): each vertex in
    turn joins the factors live on it with _join, then is summed out with
    _eliminate.  A loop closes a cycle wherever it is put, a factor 1 + v.
    The last table, over the specials, holds the joined part under the
    partition with one block and the severed part under the one with two;
    in the latter the specials' two blocks count two components of A where
    k(E) counts one, if g joins them, so the severed part takes a factor u.
    """
    specials = tuple(dict.fromkeys((g.special_x, g.special_y)))
    edges, order, buckets, final, together, width = _plan(g, specials)
    one = u ** 0  # the ring's one
    # A join closes fewer cycles than its smaller scope has vertices: at
    # most width for a table left by an elimination, 2 for an edge's.
    v_powers = [one]
    for _ in range(max(width, 2) - 1):
        v_powers.append(v_powers[-1] * v)
    edge_table = {(0, 1): None, (0, 0): None}
    factors: List[tuple] = [(pair, edge_table) for pair in edges]
    # Partition joins and drops for this call: they grow with its predicted
    # work at most, and no other call shares them.
    joins: dict = {}
    drops: dict = {}
    for w, bucket in zip(order, buckets):
        # Start from the newest factor on w, a table left by an earlier
        # elimination unless w has only edges; an edge's weights become one.
        start = bucket.pop()
        scope, table = factors[start]
        factors[start] = None
        if start < len(edges):
            table = {p: one for p in table}
        for f in bucket:
            scope, table = _join(scope, table, *factors[f], v_powers, joins)
            factors[f] = None
        factors.append(_eliminate(scope, table, w, u, drops))
    scope, table = specials, {tuple(range(len(specials))): one}
    for f in final:
        scope, table = _join(scope, table, *factors[f], v_powers, joins)
    zero = u * 0
    loops = (one + v) ** (len(g.edges) - len(edges))
    joined = table.get((0,) * len(specials), zero) * loops
    severed = table.get((0, 1), zero) * loops
    return joined, severed * u if together else severed


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
    and one component, the elimination's sum at u = v = 0; a disconnected
    graph has none."""
    return sum(_sweep(g, 0, 0)) if g.is_connected() else 0
