"""Closed-form invariants, growth constants, and Potts partition functions."""

import decimal
import math
import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import starmap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractal_tutte import invariants, oracle, recursion
from fractal_tutte.bipoly import EXACT_CONTEXT, BiPoly
from fractal_tutte.errors import CapExceeded, DomainError
from fractal_tutte.invariants import (
    POTTS_STATE_CAP,
    PottsParams,
    acyclic_root_connected_orientations,
    bicycle_space_dimension,
    diagonal_closed_form,
    diagonal_closed_value,
    growth_constant,
    potts_direct,
    potts_lattice,
    spanning_tree_count,
    strong_orientation_indegree_sequences,
    tutte_arguments,
)
from fractal_tutte.lattices import (
    LatticeFamily, Multigraph, build_lattice, lattice_counts, union_find,
)
from fractal_tutte.oracle import tutte_subgraph_expansion
from fractal_tutte.recursion import EVAL_NUMERATOR_BITS_CAP, eval_pair, tutte_eval, tutte_symbolic

from helpers import (POTTS_POINTS, Stepped, diagonal, forbid_steps, potts_partition,
                     random_multigraph)

X = BiPoly.x()


class TestSpanningTreeClosedForms:
    def test_frozen_values(self):
        assert [spanning_tree_count(LatticeFamily.FRACTAL, n) for n in range(4)] == [
            1,
            8,
            2 ** 15,
            2 ** 63,
        ]
        assert spanning_tree_count(LatticeFamily.FLOWER22, 2) == 1024
        assert spanning_tree_count(LatticeFamily.FLOWER13, 2) == 768

    @pytest.mark.parametrize("family", list(LatticeFamily))
    @pytest.mark.parametrize("n", [*range(5), 11])
    def test_matches_recursion_at_one_one(self, family, n):
        assert spanning_tree_count(family, n) == tutte_eval(family, n, 1, 1)

    def test_flower13_count_is_integral_for_all_small_generations(self):
        for n in range(11):
            assert spanning_tree_count(LatticeFamily.FLOWER13, n) >= 1


class TestOrientationCounts:
    def test_frozen_values(self):
        assert acyclic_root_connected_orientations(1) == 4
        assert acyclic_root_connected_orientations(2) == 2304
        assert strong_orientation_indegree_sequences(1) == 2
        assert strong_orientation_indegree_sequences(2) == 2304

    @pytest.mark.parametrize("n", [*range(5), 11])
    def test_acyclic_matches_recursion_at_one_zero(self, n):
        expected = tutte_eval(LatticeFamily.FRACTAL, n, 1, 0)
        assert acyclic_root_connected_orientations(n) == expected

    @pytest.mark.parametrize("n", [*range(1, 5), 11])
    def test_indegree_matches_recursion_at_zero_one(self, n):
        expected = tutte_eval(LatticeFamily.FRACTAL, n, 0, 1)
        assert strong_orientation_indegree_sequences(n) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_indegree_acyclic_ratio(self, n):
        assert 2 * strong_orientation_indegree_sequences(n) == (
            n * acyclic_root_connected_orientations(n)
        )

    def test_indegree_requires_positive_generation(self):
        with pytest.raises(DomainError):
            strong_orientation_indegree_sequences(0)


class TestBicycleDimension:
    def test_frozen_values(self):
        assert bicycle_space_dimension(0) == 0
        assert bicycle_space_dimension(1) == 1
        assert bicycle_space_dimension(3) == 21

    def test_controls_sign_pattern_at_minus_one(self):
        for n in range(4):
            _, edges = lattice_counts(LatticeFamily.FRACTAL, n)
            expected = (-1) ** edges * (-2) ** bicycle_space_dimension(n)
            assert tutte_eval(LatticeFamily.FRACTAL, n, -1, -1) == expected

    def test_no_generation_cap(self):
        assert bicycle_space_dimension(12) == (4 ** 12 - 1) // 3

    def test_result_past_the_bits_cap_is_refused(self):
        # (4^n - 1) / 3 has 2n - 1 bits: n = 2^23 is the last generation
        # within the cap.
        assert bicycle_space_dimension(2 ** 23).bit_length() == EVAL_NUMERATOR_BITS_CAP - 1
        with pytest.raises(CapExceeded):
            bicycle_space_dimension(2 ** 23 + 1)

    def test_negative_generation(self):
        with pytest.raises(ValueError):
            bicycle_space_dimension(-1)


class TestDiagonal:
    def test_generation_zero_is_x(self):
        assert diagonal_closed_form(0) == X

    def test_generation_one(self):
        assert diagonal_closed_form(1) == X ** 3 + 5 * X * X + 2 * X

    def test_matches_symbolic_diagonal(self):
        from fractal_tutte.recursion import tutte_symbolic

        for n in range(3):
            full = tutte_symbolic(LatticeFamily.FRACTAL, n)
            assert diagonal_closed_form(n) == diagonal(full)

    def test_degree(self):
        assert diagonal_closed_form(2).deg_x == 11

    def test_pointwise_value(self):
        assert diagonal_closed_value(2, Fraction(2)) == Fraction(2) * 16 ** 5
        exponent = (4 ** 8 - 1) // 3
        assert diagonal_closed_value(8, 1) == Fraction(8) ** exponent

    def test_cap_applies_to_symbolic_form_only(self):
        with pytest.raises(CapExceeded):
            diagonal_closed_form(5)
        diagonal_closed_value(9, Fraction(1, 2))

    # At (10, 10^20): 349,525 times the 133 bits of 10^40 + 5 * 10^20 + 2,
    # some 46 Mbit.
    @pytest.mark.parametrize("n, x", [(10, 10 ** 20), (13, 1), (2 ** 23, 1), (10 ** 9, 1)])
    def test_value_past_the_size_rule_is_refused_at_once(self, n, x):
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            diagonal_closed_value(n, x)
        assert time.perf_counter() - start < 0.1


class TestSizeRuleBoundary:
    """Generation 12 is the last that the size rule admits for the tree and
    orientation counts and the diagonal at x = 1; each value admitted has no
    more bits than the cap."""

    @pytest.mark.parametrize("family", list(LatticeFamily))
    def test_spanning_trees(self, family):
        assert 0 < spanning_tree_count(family, 12).bit_length() <= EVAL_NUMERATOR_BITS_CAP
        with pytest.raises(CapExceeded):
            spanning_tree_count(family, 13)

    def test_orientation_counts(self):
        acyclic = acyclic_root_connected_orientations(12)
        indegree = strong_orientation_indegree_sequences(12)
        assert 2 * indegree == 12 * acyclic
        assert indegree.bit_length() <= EVAL_NUMERATOR_BITS_CAP

    def test_diagonal_value(self):
        # 8 ** ((4^12 - 1) / 3) has exactly 2^24 bits.
        value = diagonal_closed_value(12, 1)
        assert value == 1 << 3 * bicycle_space_dimension(12)
        assert value.numerator.bit_length() == EVAL_NUMERATOR_BITS_CAP


class TestPastGeneration12:
    """(4^n - 1) / 3 is past the cap from n = 13 on, and the size rule predicts
    at least that many bits for every exact value but the bicycle-space
    dimension (see TestBicycleDimension), so each is refused at n = 13.  At
    n = 2^23, where (4^n - 1) / 3 has 2^24 - 1 bits, each is refused before
    4^n is formed, as the diagonal value is in TestDiagonal."""

    N = 2 ** 23
    REQUESTS = {
        "tutte_eval": lambda n: tutte_eval(LatticeFamily.FRACTAL, n, 1, 1),
        "eval_pair": lambda n: eval_pair(LatticeFamily.FRACTAL, n, 1, 1),
        "potts_lattice": lambda n: potts_lattice(LatticeFamily.FRACTAL, n, PottsParams(2, 1)),
        **{f"spanning_tree_count-{family.value}":
           lambda n, family=family: spanning_tree_count(family, n) for family in LatticeFamily},
        "acyclic_root_connected_orientations": acyclic_root_connected_orientations,
        "strong_orientation_indegree_sequences": strong_orientation_indegree_sequences,
        "growth_constant": lambda n: growth_constant(LatticeFamily.FRACTAL, n),
    }

    def assert_refused_at_once(self, request_name, n):
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            self.REQUESTS[request_name](n)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("request_name", REQUESTS)
    def test_refused_at_once(self, request_name):
        self.assert_refused_at_once(request_name, self.N)

    @pytest.mark.parametrize("request_name", REQUESTS)
    def test_refused_at_once_at_generation_13(self, request_name):
        self.assert_refused_at_once(request_name, 13)


class TestGrowthConstants:
    def test_limit_values(self):
        fractal = growth_constant(LatticeFamily.FRACTAL, 8)
        assert fractal.exact_form == "(3/2)*ln(2)"
        assert fractal.decimal == pytest.approx(1.5 * math.log(2), abs=1e-12)
        assert growth_constant(LatticeFamily.FLOWER22, 8).decimal == pytest.approx(
            math.log(2), abs=1e-12
        )
        assert growth_constant(LatticeFamily.FLOWER13, 8).decimal == pytest.approx(
            (4 * math.log(2) + math.log(3)) / 6, abs=1e-12
        )

    @pytest.mark.parametrize("family", list(LatticeFamily))
    def test_sequence_converges_within_tolerance(self, family):
        result = growth_constant(family, 8)
        assert [n for n, _ in result.sequence] == list(range(1, 9))
        assert abs(result.sequence[-1][1] - result.decimal) < 1e-3

    def test_sequence_is_monotone_increasing(self):
        for family in LatticeFamily:
            values = [v for _, v in growth_constant(family, 8).sequence]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_bounds_on_n_max(self):
        with pytest.raises(ValueError):
            growth_constant(LatticeFamily.FRACTAL, 0)
        with pytest.raises(CapExceeded):
            growth_constant(LatticeFamily.FRACTAL, 13)


class TestPottsParams:
    def test_coercion_to_fractions(self):
        params = PottsParams(2, "0.5")
        assert params.q == Fraction(2) and params.v == Fraction(1, 2)

    def test_tutte_arguments(self):
        x, y = tutte_arguments(PottsParams(2, 1))
        assert (x, y) == (Fraction(3), Fraction(2))

    def test_zero_v_has_no_tutte_arguments(self):
        with pytest.raises(DomainError):
            tutte_arguments(PottsParams(2, 0))


K2 = Multigraph(2, ((0, 1),), 0, 1)


class TestPottsDirect:
    def test_single_edge_two_states(self):
        assert potts_direct(K2, PottsParams(2, 1)) == 6

    def test_single_edge_identity(self):
        for q in (1, 2, 3):
            for v in (Fraction(-1, 2), Fraction(1), Fraction(2)):
                params = PottsParams(q, v)
                assert potts_direct(K2, params) == q * (q + v)

    def test_zero_coupling_counts_colorings(self):
        g = Multigraph(3, ((0, 1), (1, 2), (0, 2)), 0, 2)
        assert potts_direct(g, PottsParams(3, 0)) == 27

    def test_loop_weight(self):
        loop = Multigraph(1, ((0, 0),), 0, 0)
        assert potts_direct(loop, PottsParams(2, 3)) == 8

    def test_q_must_be_positive_integer(self):
        with pytest.raises(DomainError):
            potts_direct(K2, PottsParams(Fraction(3, 2), 1))
        with pytest.raises(DomainError):
            potts_direct(K2, PottsParams(0, 1))

    def test_state_cap(self):
        big = Multigraph(25, tuple((i, i + 1) for i in range(24)), 0, 24)
        with pytest.raises(CapExceeded):
            potts_direct(big, PottsParams(2, 1))

    def test_cap_counts_each_coloring_once_per_edge(self):
        # 2^20 colorings are within the cap, but 2^20 * 19 edge visits are not.
        path = Multigraph(20, tuple((i, i + 1) for i in range(19)), 0, 19)
        assert 2 ** 20 <= POTTS_STATE_CAP < 2 ** 20 * 19
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            potts_direct(path, PottsParams(2, 1))
        assert time.perf_counter() - start < 0.1


class TestPottsViaTutte:
    def test_lattice_frozen_value(self):
        assert potts_lattice(LatticeFamily.FRACTAL, 1, PottsParams(2, 1)) == 132

    def test_lattice_matches_direct(self):
        for family in LatticeFamily:
            for n in (0, 1):
                g = build_lattice(family, n)
                for q in (2, 3):
                    params = PottsParams(q, Fraction(-1, 2))
                    assert potts_lattice(family, n, params) == potts_direct(g, params)

    def test_lattice_cross_check_via_eval(self):
        params = PottsParams(3, 2)
        value = potts_lattice(LatticeFamily.FLOWER22, 2, params)
        t = tutte_eval(LatticeFamily.FLOWER22, 2, Fraction(5, 2), Fraction(3))
        vertices, _ = lattice_counts(LatticeFamily.FLOWER22, 2)
        assert value == 3 * Fraction(2) ** (vertices - 1) * t

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(list(LatticeFamily)), st.integers(0, 2),
           st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 35])),
           st.builds(Fraction, st.integers(-30, 30).filter(bool),
                     st.sampled_from([1, 2, 3, 5, 6, 35])))
    @example(LatticeFamily.FRACTAL, 2, Fraction(9, 4), Fraction(3, 2))
    @example(LatticeFamily.FLOWER13, 2, Fraction(1), Fraction(3, 2))
    def test_lattice_route_at_rational_parameters(self, family, n, q, v):
        params = PottsParams(q, v)
        x, y = tutte_arguments(params)
        vertices, _ = lattice_counts(family, n)
        expected = potts_partition(vertices, 1, tutte_symbolic(family, n).evaluate(x, y), params)
        got = potts_lattice(family, n, params)
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
        assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1

    # At q = 9/4, v = 3/2 the Tutte-plane point is (5/2, 5/2): the
    # numerators are predicted at e = 2 (4^n - 1) / 3 times 3 bits, and the
    # power (3/1)^e adds e times 2.
    PARAMS = PottsParams(Fraction(9, 4), Fraction(3, 2))

    @classmethod
    def predicted_bits(cls, n):
        return 2 * (4 ** n - 1) // 3 * (3 + 2)

    @staticmethod
    def prediction(monkeypatch, family, n, params):
        """The bits of the last size check potts_lattice makes, the driver's.
        The request ends there, so no step runs, even one placed outside the
        seam that forbid_steps replaces."""
        checked = []

        def check(what, bits):
            checked.append(bits)
            if what == "exact value":
                raise Stepped
        with monkeypatch.context() as patch:
            patch.setattr(recursion, "_check_size", check)
            with pytest.raises(Stepped):
                potts_lattice(family, n, params)
        return checked[-1]

    def test_factor_q_v_power_counts_against_the_cap(self, monkeypatch):
        forbid_steps(monkeypatch)
        for n in range(12):
            assert self.prediction(monkeypatch, LatticeFamily.FRACTAL, n, self.PARAMS) \
                == self.predicted_bits(n)
        # At (25/4, 5/2) the point is (7/2, 7/2): at n = 11 the numerators
        # are predicted at 8,388,606 bits and the power (5/1)^e adds as many,
        # 4 bits inside 2^24, so the request reaches its first step.
        params = PottsParams(Fraction(25, 4), Fraction(5, 2))
        assert self.prediction(monkeypatch, LatticeFamily.FRACTAL, 11, params) == (1 << 24) - 4
        with pytest.raises(Stepped):
            potts_lattice(LatticeFamily.FRACTAL, 11, params)
        # At (49/4, 7/2), point (9/2, 9/2), the numerators' 11,184,808 bits
        # are inside the cap, and the power (7/1)^e takes the whole past it.
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            potts_lattice(LatticeFamily.FRACTAL, 11, PottsParams(Fraction(49, 4), Fraction(7, 2)))
        assert time.perf_counter() - start < 0.5

    def test_admitted_value_stays_within_its_prediction(self, monkeypatch):
        # At n = 9 the numerator alone (834,056 bits) is past the numerators'
        # share of the prediction (524,286 bits), but within the whole.
        value = potts_lattice(LatticeFamily.FRACTAL, 9, self.PARAMS)
        bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
        assert 2 * (4 ** 9 - 1) // 3 * 3 < bits <= self.predicted_bits(9)
        # At q = v = 1/31 the point is (62/31, 32/31) and the base is
        # F D / h = 961.  The denominator, about 31^(2e + 2), is past
        # e bits(max(|X|, |Y|, D)) = 6e bits and within e bits(961) = 10e.
        params, e = PottsParams(Fraction(1, 31), Fraction(1, 31)), 2 * (4 ** 8 - 1) // 3
        value = potts_lattice(LatticeFamily.FRACTAL, 8, params)
        predicted = self.prediction(monkeypatch, LatticeFamily.FRACTAL, 8, params)
        assert predicted == 10 * e
        assert abs(value.numerator).bit_length() <= predicted
        assert 6 * e < value.denominator.bit_length() <= predicted

    def test_base_past_the_point_counts_against_the_cap(self, monkeypatch):
        # At q = v = 1/31 and n = 11 the base 961 has 10 bits, and the value
        # would have a denominator of about 27.7 million bits.
        forbid_steps(monkeypatch)
        params = PottsParams(Fraction(1, 31), Fraction(1, 31))
        assert self.prediction(monkeypatch, LatticeFamily.FRACTAL, 11, params) \
            == 2 * (4 ** 11 - 1) // 3 * 10
        with pytest.raises(CapExceeded):
            potts_lattice(LatticeFamily.FRACTAL, 11, params)

    def test_prediction_is_at_most_the_two_check_rule(self, monkeypatch):
        # The rule of the route that formed q v^(|V| - 1) T from T's Fraction:
        # T's numerators, then ceil(log2) of the numerator and denominator of
        # q once and of v |V| - 1 times.  Under the one-check rule a request
        # can only go from refused to admitted.
        rng = random.Random(4231)
        for _ in range(300):
            family, n = rng.choice(list(LatticeFamily)), rng.randint(0, 12)
            q = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
            v = Fraction(rng.choice([-1, 1]) * rng.randint(1, 90), rng.randint(1, 60))
            params = PottsParams(q, v)
            x, y = tutte_arguments(params)
            d = math.lcm(x.denominator, y.denominator)
            top = max(abs(x.numerator) * d // x.denominator,
                      abs(y.numerator) * d // y.denominator, d)
            vertices, _ = lattice_counts(family, n)
            old = 2 * (4 ** n - 1) // 3 * top.bit_length() + sum(
                e * ((abs(b.numerator) - 1).bit_length() + (b.denominator - 1).bit_length())
                for b, e in ((q, 1), (v, vertices - 1)))
            assert self.prediction(monkeypatch, family, n, params) <= old, (family, n, q, v)

    @pytest.mark.parametrize("family", list(LatticeFamily))
    def test_lattice_equals_the_elimination_past_the_oracle_cap(self, family):
        # Vertex elimination sums the subset expansion at x - 1 = q/v,
        # y - 1 = v and reads no step rule; v's numerator shares a prime
        # with D at both points.
        for q, v in [(Fraction(10), Fraction(-20, 3)), (Fraction(7, 4), Fraction(6, 5))]:
            for n in range(3, 6):
                vertices, _ = lattice_counts(family, n)
                tutte = sum(oracle._sweep(build_lattice(family, n), q / v, v))
                assert potts_lattice(family, n, PottsParams(q, v)) \
                    == q * v ** (vertices - 1) * tutte, (n, q, v)

    def test_lattice_equals_the_assembled_pair(self):
        # potts_lattice forms the last generation's value D J + (X - D) C
        # alone and divides P E times it by D; eval_pair steps the pair n
        # times.  q = v^2 puts the point on the diagonal, q = 1 on the
        # hyperbola (x - 1)(y - 1) = 1, and q / v < 0 makes X - D negative.
        rng = random.Random(7919)
        points = list(POTTS_POINTS)
        points += [(v * v, v) for v in (Fraction(3, 2), Fraction(-5, 2), Fraction(2, 3))]
        points += [(Fraction(1), v) for v in (Fraction(3, 2), Fraction(-1, 4))]
        points += [(Fraction(2), Fraction(-1)), (Fraction(-3, 2), Fraction(5, 6))]
        points += [(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                    Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)))
                   for _ in range(6)]
        for family in LatticeFamily:
            for n in range(7):
                vertices, _ = lattice_counts(family, n)
                for q, v in points:
                    params = PottsParams(q, v)
                    x, y = tutte_arguments(params)
                    pair = eval_pair(family, n, x, y)
                    expected = potts_partition(vertices, 1, pair.joined + (x - 1) * pair.cofactor,
                                               params)
                    got = potts_lattice(family, n, params)
                    assert (got.numerator, got.denominator) \
                        == (expected.numerator, expected.denominator), (family, n, q, v)
                    with decimal.localcontext(EXACT_CONTEXT):
                        numerator, denominator = invariants._potts_value(family, n, params,
                                                                         Decimal(1))
                    assert (type(numerator), type(denominator)) == (Decimal, Decimal)
                    assert (int(numerator), int(denominator)) \
                        == (expected.numerator, expected.denominator), (family, n, q, v)

    def test_partition_identity_on_random_multigraphs(self):
        rng = random.Random(6022)
        combos = [
            (q, v)
            for q in (1, 2, 3)
            for v in (Fraction(-1, 2), Fraction(1), Fraction(2))
        ]
        for _ in range(50):
            g = random_multigraph(rng)
            t = tutte_subgraph_expansion(g)
            components = g.vertex_count - sum(starmap(union_find(g.vertex_count), g.edges))
            for q, v in combos:
                params = PottsParams(q, v)
                direct = potts_direct(g, params)
                if v == 0:
                    continue
                x, y = tutte_arguments(params)
                via_tutte = potts_partition(
                    g.vertex_count, components, t.evaluate(x, y), params
                )
                assert direct == via_tutte
