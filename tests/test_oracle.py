"""Brute-force oracles: subgraph expansion, deletion-contraction, split census.

The two independent Tutte computations must agree with each other and with
hand-computed polynomials for small fixed graphs; the split census must add
back up to the full polynomial.
"""

import random
import time
from itertools import combinations

import pytest

from fractal_tutte import oracle
from fractal_tutte.bipoly import BiPoly
from fractal_tutte.errors import CapExceeded
from fractal_tutte.lattices import LatticeFamily, Multigraph, build_lattice
from fractal_tutte.oracle import (
    DC_EDGE_CAP,
    count_spanning_trees_bruteforce,
    rank_nullity_census,
    split_tutte,
    tutte_deletion_contraction,
    tutte_subgraph_expansion,
)

from helpers import (
    divisible_by_x_minus_1, listed_census, random_connected_multigraph, random_multigraph,
)

X = BiPoly.x()
Y = BiPoly.y()

K2 = Multigraph(2, ((0, 1),), 0, 1)
LOOP = Multigraph(1, ((0, 0),), 0, 0)
TWO_PARALLEL = Multigraph(2, ((0, 1), (0, 1)), 0, 1)
THREE_PARALLEL = Multigraph(2, ((0, 1), (0, 1), (0, 1)), 0, 1)
TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)), 0, 2)
FOUR_CYCLE = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)), 0, 2)
DIAMOND = Multigraph(4, ((0, 1), (0, 2), (1, 3), (2, 3), (1, 2)), 0, 3)
BRIDGE_PLUS_LOOP = Multigraph(2, ((0, 1), (1, 1)), 0, 1)
TWO_COMPONENTS = Multigraph(4, ((0, 1), (2, 3)), 0, 1)
K4 = Multigraph(4, tuple(combinations(range(4), 2)), 0, 3)

FIXED_CASES = [
    (K2, X),
    (LOOP, Y),
    (TWO_PARALLEL, X + Y),
    (THREE_PARALLEL, X + Y + Y * Y),
    (TRIANGLE, X * X + X + Y),
    (FOUR_CYCLE, X ** 3 + X * X + X + Y),
    (DIAMOND, X ** 3 + 2 * X * X + X + 2 * X * Y + Y + Y * Y),
    (BRIDGE_PLUS_LOOP, X * Y),
    (TWO_COMPONENTS, X * X),
    (K4, X ** 3 + 3 * X * X + 2 * X + 4 * X * Y + 2 * Y + 3 * Y * Y + Y ** 3),
]


class TestFixedGraphs:
    @pytest.mark.parametrize("graph,expected", FIXED_CASES)
    def test_subgraph_expansion(self, graph, expected):
        assert tutte_subgraph_expansion(graph) == expected

    @pytest.mark.parametrize("graph,expected", FIXED_CASES)
    def test_deletion_contraction(self, graph, expected):
        assert tutte_deletion_contraction(graph) == expected


class TestOraclesAgreeOnRandomGraphs:
    def test_sixty_seeded_connected_multigraphs(self):
        rng = random.Random(20260823)
        for _ in range(60):
            g = random_connected_multigraph(rng)
            expansion = tutte_subgraph_expansion(g)
            assert expansion == tutte_deletion_contraction(g)

    def test_seeded_multigraphs_with_loops_and_components(self):
        rng = random.Random(20261018)
        for _ in range(200):
            g = random_multigraph(rng, max_vertices=7, max_edges=12)
            assert tutte_subgraph_expansion(g) == tutte_deletion_contraction(g)

    def test_lattices_through_generation_one(self):
        for family in LatticeFamily:
            for n in (0, 1):
                g = build_lattice(family, n)
                assert tutte_subgraph_expansion(g) == tutte_deletion_contraction(g)


class TestSplitCensus:
    def test_single_edge_split(self):
        joined, severed = split_tutte(K2)
        assert joined == BiPoly.one()
        assert severed == X - 1

    def test_diamond_split(self):
        joined, severed = split_tutte(DIAMOND)
        assert joined == Y * Y + 3 * Y + 2 * X + 2
        assert severed == (X - 1) * (X * X + 3 * X + 2 * Y + 2)

    def test_parts_sum_to_full_polynomial(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_connected_multigraph(rng)
            joined, severed = split_tutte(g)
            assert joined + severed == tutte_subgraph_expansion(g)

    def test_severed_part_divisible_by_x_minus_one(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_connected_multigraph(rng)
            _, severed = split_tutte(g)
            assert divisible_by_x_minus_1(severed)


class TestKnownIdentities:
    def test_point_one_one_counts_spanning_trees(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_connected_multigraph(rng)
            t = tutte_deletion_contraction(g)
            assert t.evaluate(1, 1) == count_spanning_trees_bruteforce(g)

    def test_point_two_two_counts_all_subsets(self):
        rng = random.Random(10)
        for _ in range(25):
            g = random_connected_multigraph(rng)
            t = tutte_deletion_contraction(g)
            assert t.evaluate(2, 2) == 2 ** g.edge_count

    def test_coefficients_non_negative(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_connected_multigraph(rng)
            t = tutte_subgraph_expansion(g)
            assert all(c > 0 for c in t.terms().values())

    def test_degree_bounds_for_connected_graphs(self):
        rng = random.Random(12)
        for _ in range(25):
            g = random_connected_multigraph(rng)
            t = tutte_deletion_contraction(g)
            assert t.deg_x <= g.vertex_count - 1
            assert t.deg_y <= g.edge_count - g.vertex_count + 1


class TestSpanningTreeCounts:
    def test_fixed_values(self):
        assert count_spanning_trees_bruteforce(K2) == 1
        assert count_spanning_trees_bruteforce(FOUR_CYCLE) == 4
        assert count_spanning_trees_bruteforce(DIAMOND) == 8

    # A disconnected graph has spanning forests but no spanning tree.
    @pytest.mark.parametrize("graph,trees", [
        (TWO_COMPONENTS, 0),
        (LOOP, 1),
        (BRIDGE_PLUS_LOOP, 1),
        (Multigraph(3, ((0, 0), (0, 1), (1, 2), (0, 2), (2, 2), (1, 2)), 0, 2), 5),
        (Multigraph(3, ((0, 1), (1, 1), (0, 1)), 0, 2), 0),
    ])
    def test_loops_and_components(self, graph, trees):
        assert count_spanning_trees_bruteforce(graph) == trees


class TestCensusSweep:
    """The census eliminates vertices in an order its edge order can sway
    (through the order of its factors); its result must not depend on that
    order, and must match a listing of every subset."""

    def test_shuffled_lattice_edges_give_the_same_census(self):
        rng = random.Random(20261018)
        for family in LatticeFamily:
            for n in (0, 1, 2):
                g = build_lattice(family, n)
                edges = list(g.edges)
                rng.shuffle(edges)
                shuffled = Multigraph(g.vertex_count, tuple(edges), g.special_x, g.special_y)
                assert rank_nullity_census(shuffled) == rank_nullity_census(g)

    def test_seeded_multigraphs_match_the_listed_subsets(self):
        rng = random.Random(20261019)
        for _ in range(100):
            g = random_multigraph(rng, max_vertices=6, max_edges=10)
            assert rank_nullity_census(g) == listed_census(g), g

    @pytest.mark.parametrize("graph", [
        Multigraph(4, ((0, 1), (2, 3)), 0, 2),  # specials in different components
        Multigraph(4, ((0, 1), (1, 3), (0, 3)), 0, 1),  # vertex 2 isolated
        LOOP,
    ])
    def test_named_graphs_match_the_listed_subsets(self, graph):
        assert rank_nullity_census(graph) == listed_census(graph)

    def test_cycle_of_24_edges_with_even_edges_first(self):
        # Every other edge first made all 24 vertices live at once, the worst
        # order tried for the edge sweep that the elimination replaced.
        cycle = [(i, (i + 1) % 24) for i in range(24)]
        g = Multigraph(24, tuple(cycle[0::2] + cycle[1::2]), 0, 12)
        assert g.edge_count == 24
        start = time.perf_counter()
        t = tutte_subgraph_expansion(g)
        elapsed = time.perf_counter() - start
        assert t == sum((X ** k for k in range(1, 24)), Y)
        # Generous against a slow machine, yet well short of the 16 to 19 s
        # that listing all 2^24 subsets one by one takes.
        assert elapsed < 5.0


def _grid_graph(rows, columns):
    def at(r, c):
        return r * columns + c
    edges = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(columns - 1)]
    edges += [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(columns)]
    return Multigraph(rows * columns, tuple(edges), 0, rows * columns - 1)


class TestGraphsPastTwentyFourEdges:
    """Graphs of more than 24 edges: deletion-contraction against counts
    known in closed form, and the census against deletion-contraction."""

    def test_complete_graph_k7(self):
        t = tutte_deletion_contraction(Multigraph(7, tuple(combinations(range(7), 2)), 0, 6))
        assert t.evaluate(1, 1) == 7 ** 5  # Cayley's formula
        assert t.evaluate(2, 0) == 5040  # acyclic orientations of K7: 7!
        assert t.evaluate(2, 2) == 2 ** 21

    def test_three_by_six_grid(self):
        g = _grid_graph(3, 6)
        assert g.edge_count == 27
        t = tutte_deletion_contraction(g)
        assert t.evaluate(1, 1) == 380160  # matrix-tree theorem
        assert t.evaluate(2, 2) == 2 ** 27
        assert tutte_subgraph_expansion(g) == t
        assert count_spanning_trees_bruteforce(g) == 380160

    def test_path_of_25_edges(self):
        assert tutte_subgraph_expansion(_path_graph(25)) == X ** 25


def _path_graph(edge_total):
    edges = tuple((i, i + 1) for i in range(edge_total))
    return Multigraph(edge_total + 1, edges, 0, edge_total)


class TestCaps:
    @pytest.mark.parametrize("graph", [
        Multigraph(12, tuple(combinations(range(12), 2)), 0, 11),  # K_12
        _grid_graph(30, 30),
    ], ids=["K12", "grid30x30"])
    def test_elimination_cap_fails_fast(self, monkeypatch, graph):
        # Both are refused from their elimination order alone: no factor
        # table is joined or summed over, and each refusal is quick.
        def no_table(*args):
            raise AssertionError("a table was built")
        monkeypatch.setattr(oracle, "_join", no_table)
        monkeypatch.setattr(oracle, "_eliminate", no_table)
        for oracle_call in (tutte_subgraph_expansion, split_tutte, rank_nullity_census,
                            count_spanning_trees_bruteforce):
            start = time.perf_counter()
            with pytest.raises(CapExceeded, match="vertex elimination"):
                oracle_call(graph)
            assert time.perf_counter() - start < 0.5

    def test_deletion_contraction_cap(self):
        with pytest.raises(CapExceeded):
            tutte_deletion_contraction(_path_graph(65))
        tutte_deletion_contraction(_path_graph(64))  # at the cap is fine

    @pytest.mark.parametrize("family", (LatticeFamily.FLOWER22, LatticeFamily.FLOWER13))
    def test_deletion_contraction_memo_cap(self, family):
        # Both flowers at n=3 have 64 edges, within the edge cap; uncapped,
        # flower22 took 6.4 s and 517 MB, and flower13 ran past 110 s.
        g = build_lattice(family, 3)
        assert g.edge_count == DC_EDGE_CAP
        with pytest.raises(CapExceeded, match="memoized minors"):
            tutte_deletion_contraction(g)


class TestEdgelessGraphs:
    # One vertex is a tree of itself; two isolated vertices have no tree.
    @pytest.mark.parametrize("graph,split,trees", [
        (Multigraph(1, (), 0, 0), (BiPoly.one(), BiPoly.zero()), 1),
        (Multigraph(2, (), 0, 1), (BiPoly.zero(), BiPoly.one()), 0),
    ])
    def test_oracles(self, graph, split, trees):
        assert tutte_subgraph_expansion(graph) == BiPoly.one()
        assert tutte_deletion_contraction(graph) == BiPoly.one()
        assert split_tutte(graph) == split
        assert count_spanning_trees_bruteforce(graph) == trees
