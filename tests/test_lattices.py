"""Lattice construction: structure, counts, determinism, edge-list format."""

import hashlib

import pytest

from fractal_tutte.errors import CapExceeded
from fractal_tutte.lattices import (
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
        assert g.edges == ((0, 1),)
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
    # union-find; the index rule must keep every label, edge and special pair.
    EDGE_LIST_N8_SHA256 = {
        LatticeFamily.FRACTAL: "e05c4188468b97dcb3d2efdce5aa5bb4300393b667bcfc679b9b86802e19c5cc",
        LatticeFamily.FLOWER22: "931a6beb18060a548efcbd6b3c9cbc97496f990f2de3dd455407453521beb11d",
        LatticeFamily.FLOWER13: "67a9ff9b4a34632b56e5d880463d39b9845c6969a13c817d60b06bf671ee39c0",
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generation_eight_edge_list_digest(self, family):
        text = to_edge_list(build_lattice(family, 8))
        assert hashlib.sha256(text.encode()).hexdigest() == self.EDGE_LIST_N8_SHA256[family]


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

    def test_specials_must_differ_on_two_or_more_vertices(self):
        with pytest.raises(ValueError):
            Multigraph(2, ((0, 1),), 1, 1)
        Multigraph(1, ((0, 0),), 0, 0)  # single vertex may self-pair


class TestEdgeListFormat:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_roundtrip(self, family):
        g = build_lattice(family, 2)
        assert from_edge_list(to_edge_list(g)) == g

    def test_terminated_by_newline(self):
        assert to_edge_list(build_lattice(LatticeFamily.FRACTAL, 0)).endswith("\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list("e 0 1\n")

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list("p 2 2 0 1\ne 0 1\n")

    def test_unknown_line_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list("p 2 1 0 1\nq 0 1\n")
