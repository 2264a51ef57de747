"""Lattice construction: structure, counts, determinism, edge-list format."""

import hashlib
import tracemalloc

import pytest

from fractal_tutte import lattices
from fractal_tutte.errors import CapExceeded
from fractal_tutte.lattices import (
    Edges,
    LatticeFamily,
    Multigraph,
    build_lattice,
    from_edge_list,
    lattice_counts,
    to_edge_list,
)

FAMILIES = list(LatticeFamily)


class TestGenerationZero:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_single_edge(self, family):
        g = build_lattice(family, 0)
        assert g.vertex_count == 2
        assert tuple(g.edges) == ((0, 1),)
        assert (g.special_x, g.special_y) == (0, 1)


class TestGenerationOne:
    def test_fractal_is_diamond_with_frozen_labels(self):
        g = build_lattice(LatticeFamily.FRACTAL, 1)
        assert to_edge_list(g) == "p 4 5 0 3\ne 0 1\ne 0 2\ne 1 3\ne 2 3\ne 1 2\n"

    def test_flowers_are_four_cycles(self):
        for family in (LatticeFamily.FLOWER22, LatticeFamily.FLOWER13):
            g = build_lattice(family, 1)
            assert g.vertex_count == 4
            assert sorted(g.edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]
            assert g.degree_sequence() == [2, 2, 2, 2]

    def test_flower22_specials_are_opposite(self):
        g = build_lattice(LatticeFamily.FLOWER22, 1)
        pair = (g.special_x, g.special_y)
        assert pair not in g.edges and tuple(reversed(pair)) not in g.edges

    def test_flower13_specials_are_adjacent(self):
        g = build_lattice(LatticeFamily.FLOWER13, 1)
        assert (g.special_x, g.special_y) in g.edges


class TestCounts:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(5))
    def test_built_counts_match_closed_forms(self, family, n):
        g = build_lattice(family, n)
        assert (g.vertex_count, g.edge_count) == lattice_counts(family, n)

    def test_closed_form_spot_values(self):
        assert lattice_counts(LatticeFamily.FRACTAL, 0) == (2, 1)
        assert lattice_counts(LatticeFamily.FRACTAL, 2) == (12, 21)
        assert lattice_counts(LatticeFamily.FLOWER22, 2) == (12, 16)
        assert lattice_counts(LatticeFamily.FLOWER13, 6) == (2732, 4096)

    def test_counts_have_no_build_cap(self):
        vertices, edges = lattice_counts(LatticeFamily.FRACTAL, 30)
        assert vertices == (2 * 4 ** 30 + 4) // 3
        assert edges == (4 ** 31 - 1) // 3


class TestStructure:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(5))
    def test_connected(self, family, n):
        assert build_lattice(family, n).is_connected()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_specials_distinct(self, family):
        for n in range(5):
            g = build_lattice(family, n)
            assert g.special_x != g.special_y

    @pytest.mark.parametrize("n", range(5))
    def test_flower_degree_sequences_identical(self, n):
        a = build_lattice(LatticeFamily.FLOWER22, n).degree_sequence()
        b = build_lattice(LatticeFamily.FLOWER13, n).degree_sequence()
        assert a == b

    def test_degree_sequence_is_ascending_and_counts_loops_twice(self):
        g = Multigraph(3, ((0, 1), (1, 1), (1, 2)), 0, 2)
        assert g.degree_sequence() == [1, 1, 4]

    def test_determinism(self):
        for family in FAMILIES:
            assert build_lattice(family, 3) == build_lattice(family, 3)

    # Recorded at commit a008d65, whose build merged the hubs with a
    # union-find, and at n=10 from the build that kept one tuple per edge;
    # the label formula and the column layout must keep every label, edge and
    # special pair.
    EDGE_LIST_SHA256 = {
        (LatticeFamily.FRACTAL, 8): "e05c4188468b97dcb3d2efdce5aa5bb4300393b667bcfc679b9b86802e19c5cc",
        (LatticeFamily.FLOWER22, 8): "931a6beb18060a548efcbd6b3c9cbc97496f990f2de3dd455407453521beb11d",
        (LatticeFamily.FLOWER13, 8): "67a9ff9b4a34632b56e5d880463d39b9845c6969a13c817d60b06bf671ee39c0",
        (LatticeFamily.FRACTAL, 10): "299c8179e0b9a80a2d5b1dbebca163a395d681e1c8f19715110c6f34da1f1a2d",
        (LatticeFamily.FLOWER22, 10): "3f7a80c2fdaeea8b4cda0c997bf22a0a6c41197cdb4d52a1f2a1ce5a241ade19",
        (LatticeFamily.FLOWER13, 10): "a483cf0f1ac63a77e0cb799a58e1f621e979fd50e10a424b7d8828fc2612353e",
    }

    @pytest.mark.parametrize("n", (8, 10))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_edge_list_digest(self, family, n):
        text = to_edge_list(build_lattice(family, n))
        assert hashlib.sha256(text.encode()).hexdigest() == self.EDGE_LIST_SHA256[family, n]


class TestBuiltInvariants:
    # build_lattice skips the constructor's column scan and checks for turned
    # edges only at hub 3.sy; these are the facts it rests on.
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(8))
    def test_in_range_ordered_and_special_x_zero(self, family, n):
        g = build_lattice(family, n)
        tails, heads = g.edges.tails, g.edges.heads
        rebuilt = Multigraph(g.vertex_count, Edges(list(tails), list(heads)),
                             g.special_x, g.special_y)
        assert rebuilt == g
        assert all(u < v for u, v in zip(tails, heads))
        assert g.special_x == 0


class TestMemory:
    # Peak bytes traced per edge while building fractal n=8 and writing its
    # edge list.  The columns and chunked text measure about 59; a tuple per
    # edge and a string per line measured about 178.
    BYTES_PER_EDGE_BOUND = 80

    def test_build_and_edge_list_peak_per_edge(self):
        tracemalloc.start()
        try:
            g = build_lattice(LatticeFamily.FRACTAL, 8)
            text = to_edge_list(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.endswith("\n")
        assert peak / g.edge_count < self.BYTES_PER_EDGE_BOUND

    # Peak bytes traced per edge while building each family at n=8, with no
    # edge list.  Extending the old columns in place through one label list
    # per copy measured 33.7 (fractal) and 40.2 (flowers) on Python 3.11-3.13
    # and 31.7 and 37.6 on 3.10; copying the old columns and slicing a 3n-entry
    # label list measured 40.9 and 47.2-47.7, and 38.9 and 44.5-45.0 on 3.10.
    BUILD_BYTES_PER_EDGE_BOUND = {
        LatticeFamily.FRACTAL: 36,
        LatticeFamily.FLOWER22: 42,
        LatticeFamily.FLOWER13: 42,
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_build_peak_per_edge(self, family):
        tracemalloc.start()
        try:
            g = build_lattice(family, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.edge_count < self.BUILD_BYTES_PER_EDGE_BOUND[family]


class TestCaps:
    def test_generation_cap(self):
        with pytest.raises(CapExceeded):
            build_lattice(LatticeFamily.FRACTAL, 13)

    def test_negative_generation(self):
        with pytest.raises(ValueError):
            build_lattice(LatticeFamily.FRACTAL, -1)
        with pytest.raises(ValueError):
            lattice_counts(LatticeFamily.FRACTAL, -1)


class TestMultigraphValidation:
    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            Multigraph(2, ((0, 2),), 0, 1)

    def test_special_out_of_range(self):
        with pytest.raises(ValueError):
            Multigraph(2, ((0, 1),), 0, 5)

    def test_negative_endpoint(self):
        with pytest.raises(ValueError, match=r"edge \(1, -1\) out of range"):
            Multigraph(3, ((0, 1), (1, -1), (1, 2)), 0, 1)

    def test_endpoint_equal_to_vertex_count(self):
        with pytest.raises(ValueError, match=r"edge \(3, 0\) out of range"):
            Multigraph(3, ((0, 1), (3, 0)), 0, 1)
        with pytest.raises(ValueError):
            Multigraph(3, Edges([0, 1], [2, 3]), 0, 1)

    def test_vertex_count_must_be_positive(self):
        with pytest.raises(ValueError, match="vertex_count must be positive"):
            Multigraph(0, (), 0, 0)

    def test_edgeless_graph_is_accepted(self):
        g = Multigraph(2, (), 0, 1)
        assert g.edge_count == 0 and g.edges == Edges([], [])

    def test_columns_must_have_equal_length(self):
        with pytest.raises(ValueError):
            Edges([0, 1], [1])

    def test_specials_must_differ_on_two_or_more_vertices(self):
        with pytest.raises(ValueError):
            Multigraph(2, ((0, 1),), 1, 1)
        Multigraph(1, ((0, 0),), 0, 0)  # single vertex may self-pair


class TestEdges:
    def test_sequence_of_pairs(self):
        edges = Multigraph(3, [(0, 1), (1, 1), (1, 2)], 0, 2).edges
        assert len(edges) == 3
        assert list(edges) == [(0, 1), (1, 1), (1, 2)]
        assert edges[1] == (1, 1) and edges[-1] == (1, 2)
        assert edges[:-1] == Edges([0, 1], [1, 1])
        assert list(reversed(edges)) == [(1, 2), (1, 1), (0, 1)]
        assert (1, 2) in edges and (2, 1) not in edges
        assert edges.count((1, 1)) == 1 and edges.index((1, 2)) == 2

    def test_value_equality_and_hash(self):
        a = Multigraph(3, ((0, 1), (1, 2)), 0, 2)
        b = Multigraph(3, Edges([0, 1], [1, 2]), 0, 2)
        assert a == b and hash(a) == hash(b)
        assert a != Multigraph(3, ((0, 1), (0, 2)), 0, 2)
        assert a.edges != ((0, 1), (1, 2))  # a column pair is not a tuple

    def test_a_slice_builds_a_graph(self):
        g = build_lattice(LatticeFamily.FLOWER13, 3)
        smaller = Multigraph(g.vertex_count, g.edges[:-1], g.special_x, g.special_y)
        assert list(smaller.edges) == list(g.edges)[:-1]


class TestEdgeListFormat:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(6))
    def test_roundtrip(self, family, n):
        g = build_lattice(family, n)
        assert from_edge_list(to_edge_list(g)) == g

    @pytest.mark.parametrize("family", FAMILIES)
    def test_chunks_join_to_one_line_per_edge(self, family, monkeypatch):
        g = build_lattice(family, 3)
        expected = "".join([f"p {g.vertex_count} {g.edge_count} {g.special_x} {g.special_y}\n",
                            *(f"e {u} {v}\n" for u, v in g.edges)])
        for chunk_edges in (1, 7, g.edge_count, 1 << 15):
            monkeypatch.setattr(lattices, "_CHUNK_EDGES", chunk_edges)
            assert to_edge_list(g) == expected

    def test_terminated_by_newline(self):
        assert to_edge_list(build_lattice(LatticeFamily.FRACTAL, 0)).endswith("\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list("e 0 1\n")

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list("p 2 2 0 1\ne 0 1\n")

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list("p 2 1 0 1\ne 0 2\n")

    def test_blank_lines_are_skipped(self):
        assert from_edge_list("\np 2 1 0 1\n  \ne 0 1\n\n") == Multigraph(2, ((0, 1),), 0, 1)

    @pytest.mark.parametrize("text, message", [
        ("p 2 1 0 1\np 2 1 0 1\ne 0 1\n", "duplicate header line"),
        ("p 2 1 0\ne 0 1\n", "malformed header"),
        ("p 2 1 0 1\ne 0 1 1\n", "malformed edge line"),
    ])
    def test_malformed_lines_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            from_edge_list(text)

    def test_unknown_line_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list("p 2 1 0 1\nq 0 1\n")
