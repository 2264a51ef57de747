"""Seeded random multigraph builders and other helpers shared across test modules."""

from __future__ import annotations

import random
from typing import Tuple

from fractal_tutte.lattices import Multigraph


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


def context_settings(context) -> tuple:
    """Everything of a decimal context that an operation could change."""
    return (context.prec, context.rounding, context.Emin, context.Emax, context.capitals,
            context.clamp, dict(context.flags), dict(context.traps))
