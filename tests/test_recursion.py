"""Generation recursion: step rules, assembly, agreement with the oracles.

A state pair holds the specials-joined part and the divided severed part
(cofactor).  One generation step maps the pair for generation n to the pair
for generation n+1; assembling gives the full Tutte polynomial.
"""

import decimal
import hashlib
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractal_tutte import oracle, recursion
from fractal_tutte.bipoly import EXACT_CONTEXT, BiPoly
from fractal_tutte.checks import run_oracle_gates
from fractal_tutte.errors import CapExceeded
from fractal_tutte.invariants import PottsParams, potts_lattice, spanning_tree_count
from fractal_tutte.lattices import LatticeFamily, build_lattice
from fractal_tutte.recursion import (
    TuttePair,
    eval_pair,
    initial_pair,
    lowest_terms,
    step,
    tutte_eval,
    tutte_pair,
    tutte_symbolic,
)

from helpers import POTTS_POINTS, Residue, Stepped, forbid_steps

X = BiPoly.x()
Y = BiPoly.y()


@pytest.fixture(scope="module")
def symbolic_n3():
    return {family: tutte_pair(family, 3) for family in LatticeFamily}


@pytest.fixture(scope="module")
def symbolic_n4():
    return {family: tutte_pair(family, 4) for family in LatticeFamily}


@pytest.fixture(scope="module")
def polynomial_n4():
    return {family: tutte_symbolic(family, 4) for family in LatticeFamily}


class TestInitialPair:
    def test_single_edge_state(self):
        pair = initial_pair()
        assert pair.joined == BiPoly.one()
        assert pair.cofactor == BiPoly.one()
        assert pair.assemble() == X


class TestSingleStep:
    def test_fractal_step_from_start(self):
        pair = step(LatticeFamily.FRACTAL, initial_pair())
        assert pair.joined == Y * Y + 3 * Y + 2 * X + 2
        assert pair.cofactor == X * X + 3 * X + 2 * Y + 2

    def test_flower22_step_from_start(self):
        pair = step(LatticeFamily.FLOWER22, initial_pair())
        assert pair.joined == 2 * X + Y + 1
        assert pair.cofactor == X * X + 2 * X + 1

    def test_flower13_step_from_start(self):
        pair = step(LatticeFamily.FLOWER13, initial_pair())
        assert pair.joined == X * X + X + Y + 1
        assert pair.cofactor == X * X + X + 1


def composed(family, t, c, x, y, d):
    """d times the family's step of the pair p = (t, c), composed from the
    lattice's structure by the two-terminal series and parallel rules.

    In the pair (joined part, cofactor) at (x/d, y/d), each rule is
    homogeneous: its degree in (x, y, d) is one more than the sum of its
    operands'.  The flower22 glues two paths of two copies in parallel, the
    flower13 a copy in parallel with a path of three.  The fractal adds an
    edge between the other two hubs: deleted, it leaves the flower22;
    contracted, two parallel pairs in series; its step is the sum of both.
    """
    def series(a, b):
        (j1, c1), (j2, c2) = a, b
        return d * j1 * j2, d * (j1 * c2 + c1 * j2) + (x - d) * c1 * c2

    def parallel(a, b):
        (j1, c1), (j2, c2) = a, b
        return (y - d) * j1 * j2 + d * (j1 * c2 + c1 * j2), d * c1 * c2

    p = (t, c)
    s = series(p, p)
    if family is LatticeFamily.FLOWER22:
        return parallel(s, s)
    if family is LatticeFamily.FLOWER13:
        return parallel(p, series(s, p))
    deleted, contracted = parallel(s, s), series(parallel(p, p), parallel(p, p))
    return tuple(a + b for a, b in zip(deleted, contracted))


class TestQuarticForms:
    def test_coefficients_are_homogeneous_quadratics(self):
        # The pointwise recursion takes numerators over den to numerators
        # over den^4 D^2 only if scaling (X, Y, D) by k scales both parts
        # of the step by k^2.
        rng = random.Random(2718)
        for family in LatticeFamily:
            for _ in range(50):
                big_x, big_y = rng.randint(-99, 99), rng.randint(-99, 99)
                d, k = rng.randint(1, 99), rng.randint(-9, 9)
                t, c = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)
                scaled = recursion._rule(family, t, c, k * big_x, k * big_y, k * d)
                for part, scaled_part in zip(recursion._rule(family, t, c, big_x, big_y, d), scaled):
                    assert scaled_part == k * k * part, family

    def test_fractal_cofactor_form_is_the_dual_of_its_joined_form(self):
        # The fractal states its joined part alone; at (y, x) with t and c
        # swapped it must give the cofactor.
        rng = random.Random(1729)
        for _ in range(50):
            x, y, d = rng.randint(-99, 99), rng.randint(-99, 99), rng.randint(1, 99)
            t, c = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)
            _, cofactor = recursion._rule(LatticeFamily.FRACTAL, t, c, x, y, d)
            assert cofactor == recursion._rule(LatticeFamily.FRACTAL, c, t, y, x, d)[0]


class CountingRing:
    """An int that counts products of two CountingRing operands, that is of
    the pair and what is made from it, recording for each whether it
    squares one object; a product by a plain-int coefficient is not counted."""

    def __init__(self, value, counter):
        self.value, self.counter = value, counter

    def __mul__(self, other):
        if isinstance(other, CountingRing):
            self.counter.append(other is self)
            other = other.value
        return CountingRing(self.value * other, self.counter)

    __rmul__ = __mul__

    def __add__(self, other):
        other = other.value if isinstance(other, CountingRing) else other
        return CountingRing(self.value + other, self.counter)

    __radd__ = __add__

    def __floordiv__(self, other):
        return CountingRing(self.value // other, self.counter)

    def __eq__(self, other):
        return self.value == (other.value if isinstance(other, CountingRing) else other)


class TestRule:
    @pytest.mark.parametrize("family", list(LatticeFamily))
    def test_matches_composition_at_integers(self, family):
        rng = random.Random(1618)
        for _ in range(200):
            d = rng.randint(1, 9)
            # X = D, Y = D and X = 0 make some coefficients vanish.
            big_x = rng.choice([d, 0, -d, rng.randint(-99, 99)])
            big_y = rng.choice([d, 0, rng.randint(-99, 99)])
            t = rng.choice([0, rng.randint(-10 ** 6, 10 ** 6)])
            c = rng.randint(-10 ** 6, 10 ** 6)
            got = recursion._rule(family, t, c, big_x, big_y, d)
            assert tuple(d * part for part in got) == composed(family, t, c, big_x, big_y, d)

    @pytest.mark.parametrize("family", list(LatticeFamily))
    def test_matches_composition_on_polynomials(self, family):
        rng = random.Random(3141)

        def small_poly():
            return BiPoly({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5)
                           for _ in range(rng.randint(1, 6))})

        pairs = [tuple(tutte_pair(family, n)) for n in range(3)]
        pairs += [(small_poly(), small_poly()) for _ in range(20)]
        for t, c in pairs:
            for x, y, d in ((X, Y, 1), (X, Y, 3), (X, BiPoly.one(), 1), (BiPoly.one(), Y, 1)):
                got = recursion._rule(family, t, c, x, y, d)
                assert tuple(d * part for part in got) == composed(family, t, c, x, y, d)

    @pytest.mark.parametrize("family, point, c, products, squares", [
        (LatticeFamily.FRACTAL, (5, 7, 3), -13, 5, 2), (LatticeFamily.FLOWER22, (5, 7, 3), -13, 4, 2),
        (LatticeFamily.FLOWER13, (5, 7, 3), -13, 6, 3),
        # Y = D: the flower13 (t^2)^2 would only be multiplied by 0.
        (LatticeFamily.FRACTAL, (5, 3, 3), -13, 5, 2), (LatticeFamily.FLOWER22, (5, 3, 3), -13, 4, 2),
        (LatticeFamily.FLOWER13, (5, 3, 3), -13, 5, 2),
        # X = D: a vanishing scalar still meets its product.
        (LatticeFamily.FRACTAL, (3, 7, 3), -13, 5, 2), (LatticeFamily.FLOWER22, (3, 7, 3), -13, 4, 2),
        (LatticeFamily.FLOWER13, (3, 7, 3), -13, 6, 3),
        # The fractal on its diagonal X = Y with t = c, and with t != c.
        (LatticeFamily.FRACTAL, (5, 5, 3), 11, 2, 2), (LatticeFamily.FRACTAL, (5, 5, 3), -13, 5, 2)],
        ids=lambda v: v.value if isinstance(v, LatticeFamily) else str(v).replace(" ", ""))
    def test_products_of_pair_sized_operands(self, family, point, c, products, squares):
        # The fractal forms t^2, t c and c^2 and one product per part, or on
        # its diagonal with t = c the squares t^2 and (t^2)^2; flower22 the
        # square t^2, s = c (2D t + (X - D) c), t^2 times a form in t^2 and
        # s, and the square s^2; flower13 t^2, t c, c^2, the square (t^2)^2
        # and one product per part.
        counter = []
        t, c = CountingRing(11, counter), CountingRing(c, counter)
        joined, cofactor = recursion._rule(family, t, c, *point)
        assert len(counter) == products
        assert sum(counter) == squares
        d = point[2]
        assert (d * joined.value, d * cofactor.value) == composed(family, 11, c.value, *point)

    @pytest.mark.parametrize("family", list(LatticeFamily))
    def test_matches_composition_at_generation_three(self, family, symbolic_n3):
        # The 3 -> 4 step's products are packed, most on decimal slots.
        t, c = symbolic_n3[family]
        assert recursion._rule(family, t, c, X, Y, 1) == composed(family, t, c, X, Y, 1)

    def test_dual_step_is_both_parts_of_the_rule(self, symbolic_n3):
        family = LatticeFamily.FRACTAL
        for pair in [tutte_pair(family, n) for n in range(3)] + [symbolic_n3[family]]:
            assert step(family, pair) == recursion._rule(family, *pair, X, Y, 1)


def pair_sized_products(monkeypatch, pair, call):
    """call()'s result, and for each BiPoly product it makes of operands with
    at least as many terms as the smaller part of pair, whether it squares
    one object."""
    pair_terms = min(map(len, pair))
    squares = []
    multiply = BiPoly.__mul__

    def counted(a, b):
        if isinstance(b, BiPoly) and min(len(a), len(b)) >= pair_terms:
            squares.append(a is b)
        return multiply(a, b)
    with monkeypatch.context() as patch:
        patch.setattr(BiPoly, "__mul__", counted)
        patch.setattr(BiPoly, "__rmul__", counted)
        return call(), squares


class TestSymbolicStep:
    @pytest.mark.parametrize("family, products", [
        (LatticeFamily.FRACTAL, 3), (LatticeFamily.FLOWER22, 4), (LatticeFamily.FLOWER13, 6)])
    def test_products_of_pair_sized_operands(self, monkeypatch, family, products):
        # The fractal forms t^2, t c and one group product, and transposes;
        # flower22 forms t^2, s and one product per part, flower13 t^2, c^2,
        # t c and one product per nonempty group.
        pair = tutte_pair(family, 2)
        got, squares = pair_sized_products(monkeypatch, pair, lambda: step(family, pair))
        assert len(squares) == products
        assert got == composed(family, *pair, X, Y, 1)

    @pytest.mark.parametrize("family", [LatticeFamily.FLOWER22, LatticeFamily.FLOWER13])
    def test_flower_last_step_forms_four_squares(self, monkeypatch, family):
        # tutte_symbolic's last flower step: u^2, (u^2)^2, t^2 and (t^2)^2,
        # u = t + (x - 1) c, and no product of two operands.
        pair = tutte_pair(family, 2)
        got, squares = pair_sized_products(
            monkeypatch, pair, lambda: recursion._VALUES[family](*pair, X, Y, 1))
        assert squares == [True] * 4
        assert got == step(family, pair).assemble()

    @pytest.mark.parametrize("family", list(LatticeFamily))
    def test_matches_composition_on_pairs_that_are_not_dual(self, family):
        # A cofactor other than the joined part transposed takes the rule
        # that forms both parts.
        rng = random.Random(2024)
        for _ in range(10):
            t, c = (BiPoly({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5)
                            for _ in range(rng.randint(1, 6))}) for _ in range(2))
            assert step(family, TuttePair(t, c)) == composed(family, t, c, X, Y, 1)


class TestDuality:
    """The fractal's cofactor is its joined part with x and y swapped.  The
    symbolic step relies on it, and so does the last step's value form on
    the diagonal, where the two parts are equal; eval_pair forms both parts
    on its own at every step, so it checks the derived cofactor
    independently."""

    def test_symbolic_pair_matches_eval_pair(self, symbolic_n4):
        rng = random.Random(4096)
        points = [(Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                   Fraction(rng.randint(-6, 6), rng.randint(1, 6))) for _ in range(3)]
        points += [(Fraction(1), Fraction(-3, 4)), (Fraction(2, 5), Fraction(1))]
        pair = symbolic_n4[LatticeFamily.FRACTAL]
        for x, y in points:
            expected = eval_pair(LatticeFamily.FRACTAL, 4, x, y)
            assert (pair.joined.evaluate(x, y), pair.cofactor.evaluate(x, y)) == expected

    def test_eval_pair_swaps_its_parts_with_x_and_y(self):
        rng = random.Random(6174)
        points = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(6)]
        points += [(Fraction(1), Fraction(5, 7)), (Fraction(2), Fraction(-3))]
        for n in range(7):
            for x, y in points:
                pair = eval_pair(LatticeFamily.FRACTAL, n, x, y)
                swapped = eval_pair(LatticeFamily.FRACTAL, n, y, x)
                assert pair == (swapped.cofactor, swapped.joined), (n, x, y)


class TestAssembledPolynomials:
    def test_generation_zero_is_single_edge(self):
        for family in LatticeFamily:
            assert tutte_symbolic(family, 0) == X

    def test_fractal_generation_one(self):
        t = tutte_symbolic(LatticeFamily.FRACTAL, 1)
        assert t == X ** 3 + 2 * X * X + X + 2 * X * Y + Y + Y * Y

    def test_flower_generation_one_is_four_cycle(self):
        cycle = X ** 3 + X * X + X + Y
        assert tutte_symbolic(LatticeFamily.FLOWER22, 1) == cycle
        assert tutte_symbolic(LatticeFamily.FLOWER13, 1) == cycle

    def test_symbolic_equals_the_assembled_pair(self, symbolic_n4, polynomial_n4):
        # The flowers' last step is the value form, with its division by
        # x - 1; the pair comes from the steps alone.
        for family in LatticeFamily:
            for n in range(4):
                assert tutte_symbolic(family, n) == tutte_pair(family, n).assemble(), (family, n)
            assert polynomial_n4[family] == symbolic_n4[family].assemble(), family


class TestAgainstOracles:
    def test_gates_through_generation_one(self):
        results = run_oracle_gates(1)
        assert results and all(r.passed for r in results)

    def test_split_census_at_generation_three(self, symbolic_n3):
        # 64 to 85 edges.
        for family, pair in symbolic_n3.items():
            joined, severed = oracle.split_tutte(build_lattice(family, 3))
            assert (joined, severed) == (pair.joined, (X - 1) * pair.cofactor), family

    # (1, 5/7) lies on the line x = 1 and (-1/6, 1) on y = 1, where every
    # subset with a factor u or v weighs 0; at (-1/6, 5/7) and (1/2, 1/3)
    # the common denominator only partly cancels.
    @pytest.mark.parametrize("x,y,n_max", [
        (Fraction(3, 7), Fraction(-5, 2), 5), (Fraction(2), Fraction(3), 4),
        (Fraction(1), Fraction(5, 7), 4), (Fraction(-1, 6), Fraction(1), 4),
        (Fraction(-1, 6), Fraction(5, 7), 6), (Fraction(1, 2), Fraction(1, 3), 6),
    ])
    def test_sweep_at_a_point_past_generation_two(self, x, y, n_max):
        # The elimination on exact rationals, every family from n=3 to n_max
        # (1,024 to 1,365 edges at n=5).
        for family in LatticeFamily:
            for n in range(3, n_max + 1):
                expected = tutte_eval(family, n, x, y)
                got = sum(oracle._sweep(build_lattice(family, n), x - 1, y - 1))
                assert got == expected, (family, n)

    def test_tree_count_at_generation_three(self):
        for family in LatticeFamily:
            trees = oracle.count_spanning_trees_bruteforce(build_lattice(family, 3))
            assert trees == spanning_tree_count(family, 3), family


class TestPointwiseEvaluation:
    def test_matches_symbolic_at_seeded_rational_points(self, symbolic_n3):
        rng = random.Random(314159)
        points = [
            (
                Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            )
            for _ in range(25)
        ]
        for family in LatticeFamily:
            for n in range(4):
                t = symbolic_n3[family] if n == 3 else tutte_pair(family, n)
                full = t.assemble()
                for x, y in points:
                    assert tutte_eval(family, n, x, y) == full.evaluate(x, y)

    def test_eval_pair_structure(self):
        pair = eval_pair(LatticeFamily.FRACTAL, 0, Fraction(2), Fraction(3))
        assert pair == TuttePair(Fraction(1), Fraction(1))

    def test_tree_counts_at_one_one(self):
        assert tutte_eval(LatticeFamily.FRACTAL, 3, 1, 1) == 2 ** 63
        assert tutte_eval(LatticeFamily.FLOWER22, 2, 1, 1) == 1024
        assert tutte_eval(LatticeFamily.FLOWER13, 2, 1, 1) == 768

    def test_minus_one_minus_one_spot(self):
        value = tutte_eval(LatticeFamily.FRACTAL, 2, -1, -1)
        assert abs(value) == 32


# Denominators: composite (6, 30, 35), prime, and the prime 2^61 - 1.
DENOMINATORS = st.sampled_from([1, 2, 3, 5, 6, 7, 30, 35, 2 ** 61 - 1])
RATIONALS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-40, 40), DENOMINATORS),
)
SMALL_PAIRS = {(family, n): tutte_pair(family, n) for family in LatticeFamily for n in range(3)}


def assert_same_fraction(got: Fraction, expected: Fraction) -> None:
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    assert got.denominator > 0
    assert math.gcd(got.numerator, got.denominator) == 1


class TestIntegerEvaluation:
    """The pointwise steps run on integer numerators over a D-smooth den."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(list(LatticeFamily)), st.integers(0, 2), RATIONALS, RATIONALS)
    @example(LatticeFamily.FLOWER13, 2, Fraction(1), Fraction(1, 5))
    @example(LatticeFamily.FLOWER22, 2, Fraction(1, 2), Fraction(1, 3))
    @example(LatticeFamily.FRACTAL, 2, Fraction(3, 7), Fraction(-5, 2))
    @example(LatticeFamily.FRACTAL, 2, Fraction(1, 2 ** 61 - 1), Fraction(0))
    @example(LatticeFamily.FLOWER22, 2, Fraction(1, 6), Fraction(-2, 35))
    @example(LatticeFamily.FLOWER13, 2, Fraction(-1, 6), Fraction(5, 7))
    def test_matches_symbolic_polynomial(self, family, n, x, y):
        symbolic = SMALL_PAIRS[family, n]
        assert_same_fraction(tutte_eval(family, n, x, y), symbolic.assemble().evaluate(x, y))
        pair = eval_pair(family, n, x, y)
        assert_same_fraction(pair.joined, symbolic.joined.evaluate(x, y))
        assert_same_fraction(pair.cofactor, symbolic.cofactor.evaluate(x, y))

    def test_no_gcd_of_two_large_operands(self, monkeypatch):
        # At (1, 1/5) about half of each flower13 denominator cancels; at the
        # last two points only some primes of D do.
        cases = [(LatticeFamily.FRACTAL, Fraction(3, 7), Fraction(-5, 2)),
                 (LatticeFamily.FLOWER13, Fraction(1), Fraction(1, 5)),
                 (LatticeFamily.FLOWER22, Fraction(1, 2), Fraction(1, 3)),
                 (LatticeFamily.FLOWER13, Fraction(-1, 6), Fraction(5, 7))]
        expected = [tutte_pair(family, 3).assemble().evaluate(x, y) for family, x, y in cases]
        gcd = math.gcd

        def checked_gcd(*operands):
            assert min(abs(k) for k in operands) < 2 ** 64
            return gcd(*operands)
        monkeypatch.setattr(math, "gcd", checked_gcd)
        got = [tutte_eval(family, 3, x, y) for family, x, y in cases]
        monkeypatch.undo()
        for value, reference in zip(got, expected):
            assert_same_fraction(value, reference)


def assert_reduced(joined, cofactor, den, base, label):
    """den > 0 is base-smooth, and no prime of base divides all of J, C and den."""
    assert den > 0 and math.gcd(joined, cofactor, den, base) == 1, label
    smooth = den
    while (g := math.gcd(smooth, base)) > 1:
        smooth //= g
    assert smooth == 1, label


class TestReducedState:
    """After every step no prime of the reduction base divides all of J, C and den."""

    def test_state_shares_no_prime_of_d(self, symbolic_n3):
        rng = random.Random(1729)
        # Only some primes of D cancel at the first two points; then x = 1,
        # negative numerators, and D = 1.
        points = [(Fraction(-1, 6), Fraction(5, 7)), (Fraction(1, 2), Fraction(1, 3)),
                  (Fraction(1), Fraction(1, 5)), (Fraction(1), Fraction(-3, 4)),
                  (Fraction(-7, 3), Fraction(-5, 9)), (Fraction(2), Fraction(-3)),
                  (Fraction(1), Fraction(1))]
        points += [(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 12))) for _ in range(12)]
        for family in LatticeFamily:
            for x, y in points:
                big_x, big_y, d = recursion._homogeneous(x, y)
                for n in range(7):
                    joined, cofactor, den = recursion._eval_numerators(
                        family, n, big_x, big_y, d, d)
                    assert_reduced(joined, cofactor, den, d, (family, n, x, y))
                    if n < 4:
                        pair = symbolic_n3[family] if n == 3 else tutte_pair(family, n)
                        assert Fraction(joined, den) == pair.joined.evaluate(x, y)
                        assert Fraction(cofactor, den) == pair.cofactor.evaluate(x, y)

    def test_potts_base_state(self):
        # potts_lattice reduces against F D / h, h = gcd(P, D); the state is
        # then the split state times (D / base)^e, e = 2 (4^n - 1) / 3.
        for family in LatticeFamily:
            for q, v in POTTS_POINTS:
                x, y = (q + v) / v, v + 1
                big_x, big_y, d = recursion._homogeneous(x, y)
                base = v.denominator * d // math.gcd(v.numerator, d)
                for n in range(7):
                    joined, cofactor, den = recursion._eval_numerators(
                        family, n, big_x, big_y, d, base)
                    assert_reduced(joined, cofactor, den, base, (family, n, q, v))
                    scale = Fraction(d, base) ** (2 * (4 ** n - 1) // 3)
                    pair = eval_pair(family, n, x, y)
                    assert Fraction(joined, den) == pair.joined * scale, (family, n, q, v)
                    assert Fraction(cofactor, den) == pair.cofactor * scale, (family, n, q, v)

    def test_potts_with_a_shared_prime_takes_well_under_three_seconds(self):
        # v's numerator 15 shares the prime 5 with D = 10.  Reducing
        # q v^(|V| - 1) T a second time took about 3 s, against 0.2 s
        # (2-vCPU host, Python 3.11).
        start = time.perf_counter()
        potts_lattice(LatticeFamily.FRACTAL, 9, PottsParams(3, Fraction(-15, 2)))
        assert time.perf_counter() - start < 2

    def test_partial_cancellation_near_the_cap_takes_seconds(self):
        # Only some primes of D cancel here.  Carried to the end, the shared
        # factor grows to a large part of the denominator, and removing it
        # then takes tens of seconds.
        start = time.perf_counter()
        tutte_eval(LatticeFamily.FLOWER13, 10, Fraction(-1, 6), Fraction(5, 7))
        assert time.perf_counter() - start < 10


@pytest.fixture(params=[int, Decimal], ids=["int", "decimal"])
def ring(request):
    """int, or Decimal with its operations in the exact context."""
    with decimal.localcontext(EXACT_CONTEXT):
        yield request.param


def assert_same_pair(got, expected: Fraction, ring) -> None:
    """got is expected's (numerator, denominator), both in the given ring."""
    assert [type(part) for part in got] == [ring, ring]
    assert (int(got[0]), int(got[1])) == (expected.numerator, expected.denominator)


class TestLowestTerms:
    def test_several_division_rounds(self, ring):
        m = 5 ** 30 * 7
        numerator = 2 ** 40 * 3 ** 5 * m
        for sign in (1, -1):
            got = lowest_terms(ring(sign * numerator), ring(6 ** 60), 6)
            assert_same_pair(got, Fraction(sign * numerator, 6 ** 60), ring)
            assert got[1] == 2 ** 20 * 3 ** 55

    def test_already_in_lowest_terms(self, ring):
        p = 2 ** 61 - 1
        got = lowest_terms(ring(3 ** 200), ring(p ** 40), p)
        assert_same_pair(got, Fraction(3 ** 200, p ** 40), ring)

    def test_zero_and_integers(self, ring):
        assert_same_pair(lowest_terms(ring(0), ring(14 ** 500), 14), Fraction(0), ring)
        assert_same_pair(lowest_terms(ring(-7), ring(1), 1), Fraction(-7), ring)
        assert_same_pair(lowest_terms(ring(14 ** 9 * 3), ring(14 ** 9), 14), Fraction(3), ring)
        # Decimal has a signed zero; a zero numerator comes back unsigned.
        assert str(lowest_terms(ring(0) * -1, ring(6), 6)[0]) == "0"


def value_cases(branch, rng):
    """Ten seeded (X, Y, D, t, c) on one branch of the value forms: generic;
    on the hyperbola (X - D)(Y - D) = D^2, where k = 0; at X = D, where
    a = 0; and on the diagonal X = Y with t = c and with t != c."""
    cases = []
    for _ in range(10):
        d = rng.randint(1, 9)
        t, c = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)
        big_x, big_y = rng.randint(-99, 99), rng.randint(-99, 99)
        if branch == "hyperbola":
            a = rng.choice([-1, 1]) * rng.choice([m for m in range(1, d * d + 1) if d * d % m == 0])
            big_x, big_y = d + a, d + d * d // a
        elif branch == "x = 1":
            big_x = d
        elif branch == "diagonal, t = c":
            big_y, c = big_x, t
        elif branch == "diagonal, t != c":
            big_y, c = big_x, c if c != t else t + 1
        cases.append((big_x, big_y, d, t, c))
    return cases


VALUE_BRANCHES = ["generic", "hyperbola", "x = 1", "diagonal, t = c", "diagonal, t != c"]


class TestValueForm:
    """The last step as the value alone: N = D J + (X - D) C of the next pair."""

    @pytest.mark.parametrize("family", list(LatticeFamily))
    @pytest.mark.parametrize("branch", VALUE_BRANCHES)
    def test_equals_both_parts_of_the_rule(self, ring, family, branch):
        rng = random.Random(f"{family.value} {branch}")
        for big_x, big_y, d, t, c in value_cases(branch, rng):
            joined, cofactor = recursion._rule(family, t, c, big_x, big_y, d)
            got = recursion._VALUES[family](ring(t), ring(c), big_x, big_y, d)
            assert type(got) is ring
            assert got == d * joined + (big_x - d) * cofactor, (big_x, big_y, d, t, c)

    @pytest.mark.parametrize("family, point, c, products, squares", [
        # Generic, where (X - D)(Y - D) = 8 is not D^2 = 9.
        (LatticeFamily.FLOWER22, (5, 7, 3), -13, 4, 4), (LatticeFamily.FLOWER13, (5, 7, 3), -13, 4, 4),
        (LatticeFamily.FRACTAL, (5, 7, 3), -13, 5, 2),
        # On the hyperbola, k = 0: the square k multiplies is not formed.
        (LatticeFamily.FLOWER22, (6, 6, 3), -13, 2, 2), (LatticeFamily.FLOWER13, (6, 6, 3), -13, 2, 2),
        (LatticeFamily.FLOWER22, (4, 12, 3), -13, 2, 2), (LatticeFamily.FLOWER13, (4, 12, 3), -13, 2, 2),
        # On x = 1, a = 0.
        (LatticeFamily.FLOWER22, (3, 7, 3), -13, 3, 1), (LatticeFamily.FLOWER13, (3, 7, 3), -13, 3, 1),
        # The fractal on its diagonal with t = c, where its step squares twice, and with t != c.
        (LatticeFamily.FRACTAL, (5, 5, 3), 11, 2, 2), (LatticeFamily.FRACTAL, (5, 5, 3), -13, 5, 2),
    ])
    def test_products_of_pair_sized_operands(self, family, point, c, products, squares):
        counter = []
        t, c = CountingRing(11, counter), CountingRing(c, counter)
        got = recursion._VALUES[family](t, c, *point)
        assert len(counter) == products
        assert sum(counter) == squares
        joined, cofactor = recursion._rule(family, 11, c.value, *point)
        assert got.value == point[2] * joined + (point[0] - point[2]) * cofactor


class TestValueRoute:
    """tutte_eval, and the CLI's value in the decimal ring, form the last
    generation's value alone; eval_pair still steps the pair n times."""

    def test_value_equals_the_assembled_pair(self):
        rng = random.Random(5051)
        # x = 1; the hyperbola (x - 1)(y - 1) = 1; the diagonal; X - D < 0;
        # and the Tutte-plane points of the Potts points, some on the diagonal.
        points = [(Fraction(1), Fraction(5, 7)), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(-3)),
                  (Fraction(3), Fraction(3, 2)), (Fraction(-1, 2), Fraction(1, 3)), (Fraction(0), Fraction(0)),
                  (Fraction(5, 2), Fraction(5, 2)), (Fraction(-3, 2), Fraction(-3, 2)), (Fraction(2), Fraction(2)),
                  (Fraction(-1, 6), Fraction(5, 7)), (Fraction(3, 7), Fraction(-5, 2))]
        points += [((q + v) / v, v + 1) for q, v in POTTS_POINTS]
        points += [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(6)]
        for family in LatticeFamily:
            for n in range(7):
                for x, y in points:
                    pair = eval_pair(family, n, x, y)
                    expected = pair.joined + (x - 1) * pair.cofactor
                    assert_same_fraction(tutte_eval(family, n, x, y), expected)
                    with decimal.localcontext(EXACT_CONTEXT):
                        assert_same_pair(recursion._tutte_value(family, n, x, y, Decimal(1)),
                                         expected, Decimal)


class TestAnyRing:
    """The driver and the value forms run in a ring with only + - *, ==, bool
    and an exact //: the residues mod 2^61 - 1, at the point's image x = X/D,
    y = Y/D in that field, reduced against base 1."""

    def test_value_equals_tutte_eval_mod_p(self):
        rng = random.Random(6161)
        # x = 1; the hyperbola (x - 1)(y - 1) = 1; the diagonal, and (2, 2) on both.
        points = [(Fraction(1), Fraction(5, 7)), (Fraction(3), Fraction(3, 2)),
                  (Fraction(5, 2), Fraction(5, 2)), (Fraction(2), Fraction(2))]
        points += [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(6)]
        for family in LatticeFamily:
            for x, y in points:
                big_x, big_y, d = recursion._homogeneous(x, y)
                x_p, y_p = Residue(big_x) // d, Residue(big_y) // d
                for n in range(1, 8):
                    joined, cofactor, _ = recursion._eval_numerators(
                        family, n - 1, x_p, y_p, 1, 1, Residue(1))
                    got = recursion._VALUES[family](joined, cofactor, x_p, y_p, 1)
                    expected = tutte_eval(family, n, x, y)
                    assert got == Residue(expected.numerator) // expected.denominator, \
                        (family, n, x, y)


class TestStructuralInvariants:
    def test_degree_law(self, symbolic_n4):
        from fractal_tutte.lattices import lattice_counts

        for family in LatticeFamily:
            for n in range(5):
                pair = symbolic_n4[family] if n == 4 else tutte_pair(family, n)
                t = pair.assemble()
                vertices, edges = lattice_counts(family, n)
                assert t.deg_x == vertices - 1
                assert t.deg_y == edges - vertices + 1

    def test_coefficients_non_negative(self, symbolic_n4):
        for family in LatticeFamily:
            t = symbolic_n4[family].assemble()
            assert all(c > 0 for c in t.terms().values())

    def test_division_recovers_cofactor(self, symbolic_n4):
        for family in LatticeFamily:
            pair = symbolic_n4[family]
            severed = pair.assemble() - pair.joined
            assert severed == (X - 1) * pair.cofactor


class TestByteIdenticalOutput:
    # SHA-256 of the canonical JSON of T(G_4), recorded when every product
    # still went through the schoolbook loop; the packed product must not
    # change a byte.
    N4_JSON_SHA256 = {
        LatticeFamily.FRACTAL: "c70bf9545437b6544eeeddbf367598cdb15f0d0192845da6da16c074494cd20c",
        LatticeFamily.FLOWER22: "e9c2b0a519e573747adb30e57ec9b67b62b50e60b1e3ebaf39bd7bcd40ab2231",
        LatticeFamily.FLOWER13: "d14fcb42a12f77df040f10b5540b4f494b45615db775ccb73c788c1d33f39200",
    }

    def test_generation_four_json_digest(self, symbolic_n4, polynomial_n4):
        # Both routes: the assembled pair, and tutte_symbolic, which takes
        # the flowers' value form for the last step.
        for family, digest in self.N4_JSON_SHA256.items():
            for text in (symbolic_n4[family].assemble().to_json(), polynomial_n4[family].to_json()):
                assert hashlib.sha256(text.encode()).hexdigest() == digest, family


class TestCaps:
    def test_symbolic_default_cap(self, monkeypatch):
        # Refused before any step: a flower's polynomial steps only n - 1 times.
        forbid_steps(monkeypatch)
        for family in LatticeFamily:
            with pytest.raises(CapExceeded):
                tutte_pair(family, 5)
            with pytest.raises(CapExceeded):
                tutte_symbolic(family, 5)

    def test_eval_cap(self):
        with pytest.raises(CapExceeded):
            tutte_eval(LatticeFamily.FRACTAL, 13, 1, 1)

    def test_eval_size_cap_raises_before_any_step(self, monkeypatch):
        # 2 (4^10 - 1) / 3 = 699,050 times 25 bits, the largest of |X|, |Y|
        # and D here, is past 2^24 bits; 24 bits is just inside.
        forbid_steps(monkeypatch)
        for point in [(Fraction(1, 2 ** 24 + 1), 2), (2 ** 24 + 1, 2), (1, -2 ** 24 - 1)]:
            with pytest.raises(CapExceeded):
                tutte_eval(LatticeFamily.FRACTAL, 10, *point)
        with pytest.raises(CapExceeded):
            potts_lattice(LatticeFamily.FLOWER22, 10, PottsParams(2, Fraction(1, 2 ** 24 + 1)))
        with pytest.raises(Stepped):
            tutte_eval(LatticeFamily.FRACTAL, 10, Fraction(1, 2 ** 24 - 1), 1)

    def test_negative_generation(self):
        with pytest.raises(ValueError):
            tutte_pair(LatticeFamily.FRACTAL, -1)
        with pytest.raises(ValueError):
            tutte_eval(LatticeFamily.FRACTAL, -1, 1, 1)


class TestPairType:
    def test_assembly_drops_a_term_that_cancels(self):
        # -x + (x - 1) 1: the cofactor's x cancels the joined part's -x.
        pair = TuttePair(BiPoly({(1, 0): -1}), BiPoly.one())
        assert pair.assemble().terms() == {(0, 0): -1}

    def test_pair_is_immutable(self):
        pair = TuttePair(BiPoly.one(), BiPoly.one())
        with pytest.raises(AttributeError):
            pair.joined = BiPoly.zero()
