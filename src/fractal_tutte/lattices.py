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
labels follow an index rule, so repeated builds are identical: vertex v of
copy c starts as index c*n + v, where n is the old vertex count; each hub
keeps the index of its earlier copy, so 1.sx, 2.sx, 3.sx and 3.sy become
0.sx, 0.sy, 1.sy and 2.sy; and every other index is lowered by the number
of merged indices below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import starmap
from typing import Callable, List, Optional, Tuple

from .errors import CapExceeded

GENERATION_CAP = 12


class LatticeFamily(Enum):
    FRACTAL = "fractal"
    FLOWER22 = "flower22"
    FLOWER13 = "flower13"


@dataclass(frozen=True)
class Multigraph:
    """A loop-and-parallel-friendly graph with an ordered special vertex pair."""

    vertex_count: int
    edges: Tuple[Tuple[int, int], ...]
    special_x: int
    special_y: int

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
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


def _normalize(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _next_generation(g: Multigraph, family: LatticeFamily) -> Multigraph:
    """Glue four copies of g into the ring for the requested family."""
    n_old = g.vertex_count
    sx, sy = g.special_x, g.special_y
    # Ring layout: copies 0 and 1 leave the left hub, copies 2 and 3 enter
    # the right hub, and the two middle hubs chain copy 0 to 2 and 1 to 3.
    # Each hub keeps the index of its earlier copy (see the module docstring).
    merged = {n_old + sx: sx, 2 * n_old + sx: sy,
              3 * n_old + sx: n_old + sy, 3 * n_old + sy: 2 * n_old + sy}
    vertex_count = 4 * n_old - len(merged)
    label: List[int] = []
    for below, index in enumerate(sorted(merged)):
        # Every surviving index before this merged one has `below` merged
        # indices under it.
        label.extend(range(len(label) - below, index - below))
        label.append(label[merged[index]])
    label.extend(range(len(label) - len(merged), vertex_count))

    edges: List[Tuple[int, int]] = []
    for copy in range(4):
        copy_label = label[copy * n_old:(copy + 1) * n_old]
        for u, v in g.edges:
            edges.append(_normalize(copy_label[u], copy_label[v]))
    if family is LatticeFamily.FRACTAL:
        edges.append(_normalize(label[sy], label[n_old + sy]))

    special_y = label[sy] if family is LatticeFamily.FLOWER13 else label[2 * n_old + sy]
    return Multigraph(vertex_count, tuple(edges), label[sx], special_y)


def build_lattice(family: LatticeFamily, n: int) -> Multigraph:
    """Generation n of the requested family, with deterministic labels."""
    check_generation(n, GENERATION_CAP)
    g = Multigraph(2, ((0, 1),), 0, 1)
    for _ in range(n):
        g = _next_generation(g, family)
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


def to_edge_list(g: Multigraph) -> str:
    lines = [f"p {g.vertex_count} {g.edge_count} {g.special_x} {g.special_y}"]
    for u, v in g.edges:
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Multigraph:
    header = None
    edges: List[Tuple[int, int]] = []
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
            edges.append((int(fields[1]), int(fields[2])))
        else:
            raise ValueError(f"unrecognized line: {line!r}")
    if header is None:
        raise ValueError("missing header line")
    vertex_count, edge_count, special_x, special_y = header
    if edge_count != len(edges):
        raise ValueError(f"header announces {edge_count} edges, found {len(edges)}")
    return Multigraph(vertex_count, tuple(edges), special_x, special_y)
