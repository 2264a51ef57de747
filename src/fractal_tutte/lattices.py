"""Construction of three self-similar lattice families as labeled multigraphs.

Each family grows by the same scheme: generation n+1 glues four disjoint
copies of generation n into a ring through four shared hub vertices, then
marks two hubs as the special vertex pair carried by the recursion.

  * fractal: special hubs sit on opposite sides of the ring and one extra
    edge joins the remaining two hubs.
  * flower22: the ring alone, special hubs on opposite sides (two parallel
    2-copy paths between them).
  * flower13: the ring alone, special hubs adjacent (a 1-copy path and a
    3-copy path between them).

Generation 0 is a single edge whose endpoints are the special pair.  Vertex
labels follow a formula, so repeated builds are identical.  With n old
vertices and special pair (0, sy), write c.w for vertex w of copy c:

  * copy 0 keeps its labels;
  * copy c in {1, 2} maps w >= 1 to w + c(n - 1);
  * copy 3 maps 1 <= w < sy to w + 3n - 3, and w > sy to w + 3n - 4;
  * the hubs 1.0, 2.0, 3.0 and 3.sy, merged into 0.0, 0.sy, 1.sy and
    2.sy, get the labels 0, sy, n + sy - 1 and 2n + sy - 2.

So the new graph has 4n - 4 vertices, every label lies in [0, 4n - 4) and no
build needs a range check.  The fractal's extra edge is (sy, n + sy - 1),
and special_y becomes 2n + sy - 2 (flower13 keeps sy).

A graph's edges are two endpoint columns, flat int lists `tails` and
`heads`, with edge i = (tails[i], heads[i]) and tails[i] < heads[i] in
every built lattice.  The old columns are copy 0 and are extended in place:
each other copy maps them through its own label list (one C-level `map`
per copy and column).  The labels keep the order of each copy's other
vertices and put each hub below the rest of its copy, and special_x stays
0, never a head, so only copy 3's edges into hub 3.sy can turn around; only
those are checked and swapped back.  The built lattice skips the
constructor's scan of its columns.  No object is made per edge, and the
columns share the label lists' int objects: building fractal n=8 peaks at
about 34 traced bytes per edge.  The edge list is written from the columns
in chunks of `_CHUNK_EDGES` lines, one string-format call each.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from contextlib import suppress
from itertools import chain, islice, starmap
from typing import Callable, Iterator, List, Optional, Tuple

from .errors import CapExceeded

GENERATION_CAP = 12

# Edge-list lines per chunk: large enough that one format call dominates its
# overhead, small enough that a chunk is a few hundred kilobytes.
_CHUNK_EDGES = 1 << 15


class LatticeFamily(Enum):
    FRACTAL = "fractal"
    FLOWER22 = "flower22"
    FLOWER13 = "flower13"


class Edges(Sequence):
    """A read-only sequence of (u, v) edges kept as two endpoint columns:
    edge i is (tails[i], heads[i]).  The columns are owned by the sequence
    and must not be changed."""

    __slots__ = ("tails", "heads")

    def __init__(self, tails: List[int], heads: List[int]):
        if len(tails) != len(heads):
            raise ValueError("endpoint columns differ in length")
        self.tails = tails
        self.heads = heads

    def __len__(self) -> int:
        return len(self.tails)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self.tails, self.heads)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Edges(self.tails[index], self.heads[index])
        return self.tails[index], self.heads[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Edges):
            return NotImplemented
        return self.tails == other.tails and self.heads == other.heads

    def __hash__(self) -> int:
        return hash((tuple(self.tails), tuple(self.heads)))

    def __repr__(self) -> str:
        return f"Edges({tuple(self)!r})"


@dataclass(frozen=True)
class Multigraph:
    """A loop-and-parallel-friendly graph with an ordered special vertex pair.

    `edges` may be given as any iterable of (u, v) pairs; it is stored as
    an `Edges` column pair."""

    vertex_count: int
    edges: Edges
    special_x: int
    special_y: int

    def __post_init__(self):
        if not isinstance(self.edges, Edges):
            pairs = list(self.edges)
            columns = Edges([u for u, _ in pairs], [v for _, v in pairs])
            object.__setattr__(self, "edges", columns)
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        tails, heads = self.edges.tails, self.edges.heads
        if tails and not (0 <= min(min(tails), min(heads))
                          and max(max(tails), max(heads)) < self.vertex_count):
            u, v = next((u, v) for u, v in self.edges
                        if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count))
            raise ValueError(f"edge ({u}, {v}) out of range")
        for s in (self.special_x, self.special_y):
            if not 0 <= s < self.vertex_count:
                raise ValueError(f"special vertex {s} out of range")
        if self.vertex_count >= 2 and self.special_x == self.special_y:
            raise ValueError("special vertices must be distinct")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> List[int]:
        """Vertex degrees sorted ascending; a loop adds 2 to its vertex."""
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return sorted(deg)

    def is_connected(self) -> bool:
        return sum(starmap(union_find(self.vertex_count), self.edges)) == self.vertex_count - 1


def union_find(vertex_count: int) -> Callable[[int, int], bool]:
    """A path-compressing union-find on range(vertex_count), given as its
    union(a, b): join the classes of a and b, and say whether they differed."""
    parent = list(range(vertex_count))

    def union(a: int, b: int) -> bool:
        # Path halving: each step points a vertex at its grandparent.
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return False
        parent[a] = b
        return True

    return union


def check_generation(n: int, cap: Optional[int] = None) -> None:
    """Reject a negative generation, and one above cap when a cap is given."""
    if n < 0:
        raise ValueError("generation must be nonnegative")
    if cap is not None and n > cap:
        raise CapExceeded(f"generation {n} exceeds cap {cap}")


def _next_generation(n: int, sy: int, tails: List[int], heads: List[int],
                     family: LatticeFamily) -> Tuple[int, int, List[int], List[int]]:
    """Glue four copies of a generation into the ring: (vertices, special_y,
    tails, heads).  The given columns are copy 0 and are extended in place;
    build_lattice, the only caller, hands over columns it no longer needs."""
    # Ring layout: copies 0 and 1 leave the left hub, copies 2 and 3 enter
    # the right hub, and the two middle hubs chain copy 0 to 2 and 1 to 3.
    # Each copy's labels follow the formula in the module docstring.
    m = len(tails)
    hub = 2 * n + sy - 2

    def add_copy(labels: List[int]) -> None:
        tails.extend(map(labels.__getitem__, islice(tails, m)))
        heads.extend(map(labels.__getitem__, islice(heads, m)))

    add_copy([0, *range(n, 2 * n - 1)])
    add_copy([sy, *range(2 * n - 1, 3 * n - 2)])
    add_copy([n + sy - 1, *range(3 * n - 2, 3 * n + sy - 3),
              hub, *range(3 * n + sy - 3, 4 * n - 4)])
    if family is LatticeFamily.FRACTAL:
        tails.append(sy)
        heads.append(n + sy - 1)
    # Swap back copy 3's edges into hub 3.sy that turned around, each found
    # by a C-level scan of the heads column.
    i = 3 * m
    with suppress(ValueError):
        while True:
            i = heads.index(hub, i) + 1
            if tails[i - 1] > hub:
                tails[i - 1], heads[i - 1] = hub, tails[i - 1]

    return 4 * n - 4, sy if family is LatticeFamily.FLOWER13 else hub, tails, heads


def build_lattice(family: LatticeFamily, n: int) -> Multigraph:
    """Generation n of the requested family, with deterministic labels."""
    check_generation(n, GENERATION_CAP)
    vertex_count, special_y, tails, heads = 2, 1, [0], [1]
    for _ in range(n):
        vertex_count, special_y, tails, heads = _next_generation(
            vertex_count, special_y, tails, heads, family)
    # In range by construction: check the specials on no edges, then set the columns.
    g = Multigraph(vertex_count, Edges([], []), 0, special_y)
    object.__setattr__(g, "edges", Edges(tails, heads))
    return g


def lattice_counts(family: LatticeFamily, n: int) -> Tuple[int, int]:
    """Closed-form (vertex, edge) counts for generation n."""
    check_generation(n)
    vertices = (2 * 4 ** n + 4) // 3
    if family is LatticeFamily.FRACTAL:
        edges = (4 ** (n + 1) - 1) // 3
    else:
        edges = 4 ** n
    return vertices, edges


# -- edge-list text format -------------------------------------------------
#
#   p <vertices> <edges> <special_x> <special_y>
#   e <endpoint> <endpoint>      (one line per edge, 0-based)


def edge_chunks(g: Multigraph, template: str) -> Iterator[str]:
    """The edges of g in order, each written by template (which formats u
    and then v), joined in chunks of up to _CHUNK_EDGES edges."""
    tails, heads = g.edges.tails, g.edges.heads
    for start in range(0, len(tails), _CHUNK_EDGES):
        stop = min(start + _CHUNK_EDGES, len(tails))
        pairs = [0] * (2 * (stop - start))
        pairs[0::2] = tails[start:stop]
        pairs[1::2] = heads[start:stop]
        yield (template * (stop - start)) % tuple(pairs)


def edge_list_chunks(g: Multigraph) -> Iterator[str]:
    """The edge-list text of g in pieces: the header line, then edge chunks."""
    header = f"p {g.vertex_count} {g.edge_count} {g.special_x} {g.special_y}\n"
    return chain([header], edge_chunks(g, "e %d %d\n"))


def to_edge_list(g: Multigraph) -> str:
    return "".join(edge_list_chunks(g))


def from_edge_list(text: str) -> Multigraph:
    header = None
    tails: List[int] = []
    heads: List[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ValueError("duplicate header line")
            if len(fields) != 5:
                raise ValueError(f"malformed header: {line!r}")
            header = tuple(int(f) for f in fields[1:])
        elif fields[0] == "e":
            if len(fields) != 3:
                raise ValueError(f"malformed edge line: {line!r}")
            tails.append(int(fields[1]))
            heads.append(int(fields[2]))
        else:
            raise ValueError(f"unrecognized line: {line!r}")
    if header is None:
        raise ValueError("missing header line")
    vertex_count, edge_count, special_x, special_y = header
    if edge_count != len(tails):
        raise ValueError(f"header announces {edge_count} edges, found {len(tails)}")
    return Multigraph(vertex_count, Edges(tails, heads), special_x, special_y)
