"""Generation recursion: step rules, assembly, agreement with the oracles.

A state pair holds the specials-joined part and the divided severed part
(cofactor).  One generation step maps the pair for generation n to the pair
for generation n+1; assembling gives the full Tutte polynomial.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from fractal_tutte.bipoly import BiPoly
from fractal_tutte.checks import run_oracle_gates
from fractal_tutte.errors import CapExceeded
from fractal_tutte.lattices import LatticeFamily
from fractal_tutte.recursion import (
    EvalPair,
    TuttePair,
    eval_pair,
    initial_pair,
    step,
    step_flower13,
    step_flower22,
    step_fractal,
    tutte_eval,
    tutte_pair,
    tutte_symbolic,
)

X = BiPoly.x()
Y = BiPoly.y()


@pytest.fixture(scope="module")
def symbolic_n3():
    return {family: tutte_pair(family, 3) for family in LatticeFamily}


@pytest.fixture(scope="module")
def symbolic_n4():
    return {family: tutte_pair(family, 4) for family in LatticeFamily}


class TestInitialPair:
    def test_single_edge_state(self):
        pair = initial_pair()
        assert pair.joined == BiPoly.one()
        assert pair.cofactor == BiPoly.one()
        assert pair.assemble() == X


class TestSingleStep:
    def test_fractal_step_from_start(self):
        pair = step_fractal(initial_pair())
        assert pair.joined == Y * Y + 3 * Y + 2 * X + 2
        assert pair.cofactor == X * X + 3 * X + 2 * Y + 2

    def test_flower22_step_from_start(self):
        pair = step_flower22(initial_pair())
        assert pair.joined == 2 * X + Y + 1
        assert pair.cofactor == X * X + 2 * X + 1

    def test_flower13_step_from_start(self):
        pair = step_flower13(initial_pair())
        assert pair.joined == X * X + X + Y + 1
        assert pair.cofactor == X * X + X + 1

    def test_generic_step_dispatch(self):
        for family, stepper in [
            (LatticeFamily.FRACTAL, step_fractal),
            (LatticeFamily.FLOWER22, step_flower22),
            (LatticeFamily.FLOWER13, step_flower13),
        ]:
            assert step(family, initial_pair()) == stepper(initial_pair())


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


class TestAgainstOracles:
    def test_gates_through_generation_one(self):
        results = run_oracle_gates(1)
        assert results and all(r.passed for r in results)


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
        assert pair == EvalPair(Fraction(1), Fraction(1))

    def test_tree_counts_at_one_one(self):
        assert tutte_eval(LatticeFamily.FRACTAL, 3, 1, 1) == 2 ** 63
        assert tutte_eval(LatticeFamily.FLOWER22, 2, 1, 1) == 1024
        assert tutte_eval(LatticeFamily.FLOWER13, 2, 1, 1) == 768

    def test_minus_one_minus_one_spot(self):
        value = tutte_eval(LatticeFamily.FRACTAL, 2, -1, -1)
        assert abs(value) == 32


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
            assert severed.divide_exact_x_minus_1() == pair.cofactor


class TestByteIdenticalOutput:
    # SHA-256 of the canonical JSON of T(G_4), recorded when every product
    # still went through the schoolbook loop; the packed product must not
    # change a byte.
    N4_JSON_SHA256 = {
        LatticeFamily.FRACTAL: "c70bf9545437b6544eeeddbf367598cdb15f0d0192845da6da16c074494cd20c",
        LatticeFamily.FLOWER22: "e9c2b0a519e573747adb30e57ec9b67b62b50e60b1e3ebaf39bd7bcd40ab2231",
        LatticeFamily.FLOWER13: "d14fcb42a12f77df040f10b5540b4f494b45615db775ccb73c788c1d33f39200",
    }

    def test_generation_four_json_digest(self, symbolic_n4):
        for family, digest in self.N4_JSON_SHA256.items():
            text = symbolic_n4[family].assemble().to_json()
            assert hashlib.sha256(text.encode()).hexdigest() == digest, family


class TestCaps:
    def test_symbolic_default_cap(self):
        with pytest.raises(CapExceeded):
            tutte_pair(LatticeFamily.FRACTAL, 5)
        with pytest.raises(CapExceeded):
            tutte_symbolic(LatticeFamily.FRACTAL, 5)

    def test_symbolic_cap_override(self):
        with pytest.raises(CapExceeded):
            tutte_pair(LatticeFamily.FLOWER22, 3, generation_cap=2)
        tutte_pair(LatticeFamily.FLOWER22, 3, generation_cap=3)

    def test_eval_cap(self):
        with pytest.raises(CapExceeded):
            tutte_eval(LatticeFamily.FRACTAL, 11, 1, 1)

    def test_negative_generation(self):
        with pytest.raises(ValueError):
            tutte_pair(LatticeFamily.FRACTAL, -1)
        with pytest.raises(ValueError):
            tutte_eval(LatticeFamily.FRACTAL, -1, 1, 1)


class TestPairType:
    def test_pair_is_immutable(self):
        pair = TuttePair(BiPoly.one(), BiPoly.one())
        with pytest.raises(AttributeError):
            pair.joined = BiPoly.zero()
