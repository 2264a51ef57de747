"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they are
produced.  Every comparison is exact rational/integer equality unless the
criterion line states a numeric tolerance.  Expected values are recomputed
here from their closed forms rather than taken from the library under test.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from fractal_tutte.bipoly import BiPoly
from fractal_tutte.invariants import PottsParams, growth_constant, potts_direct, potts_lattice
from fractal_tutte.lattices import LatticeFamily, build_lattice, lattice_counts
from fractal_tutte.oracle import (
    count_spanning_trees_bruteforce,
    split_tutte,
    tutte_deletion_contraction,
    tutte_subgraph_expansion,
)
from fractal_tutte.recursion import tutte_eval, tutte_pair, tutte_symbolic

from helpers import diagonal, random_connected_multigraph

X = BiPoly.x()
FAMILIES = list(LatticeFamily)


def _report(name, compute):
    try:
        ok = bool(compute())
    except Exception:
        print(f"FAIL {name}")
        raise
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def test_criterion_01_oracle_equivalence():
    def compute():
        start = time.perf_counter()
        for family, n in product(FAMILIES, range(3)):
            symbolic = tutte_symbolic(family, n)
            g = build_lattice(family, n)
            if symbolic != tutte_subgraph_expansion(g):
                return False
            if symbolic != tutte_deletion_contraction(g):
                return False
        return time.perf_counter() - start < 60.0

    _report(
        "criterion 1: recursion equals both oracles, all families, n <= 2 "
        "(exact, < 60 s)",
        compute,
    )


def test_criterion_02_split_equivalence():
    def compute():
        for family, n in product(FAMILIES, range(3)):
            pair = tutte_pair(family, n)
            joined, severed = split_tutte(build_lattice(family, n))
            if joined != pair.joined or severed != (X - 1) * pair.cofactor:
                return False
        return True

    _report(
        "criterion 2: specials-joined/severed split census equals recursion "
        "pair, n <= 2 (exact)",
        compute,
    )


def test_criterion_03_fractal_tree_count():
    def compute():
        for n in range(7):
            if tutte_eval(LatticeFamily.FRACTAL, n, 1, 1) != 2 ** (4 ** n - 1):
                return False
        tail = growth_constant(LatticeFamily.FRACTAL, 8).sequence[-1][1]
        return abs(tail - 1.5 * math.log(2)) < 1e-3

    _report(
        "criterion 3: fractal tree count equals 2^(4^n-1), n <= 6 (exact); "
        "growth at n = 8 within 1e-3 of (3/2)ln 2",
        compute,
    )


def test_criterion_04_fractal_orientation_counts():
    def compute():
        spots = {}
        for n in range(1, 7):
            expected = 1
            for i in range(n + 1):
                expected *= (i + 1) ** (2 * 4 ** (n - i))
            at_10 = tutte_eval(LatticeFamily.FRACTAL, n, 1, 0)
            at_01 = tutte_eval(LatticeFamily.FRACTAL, n, 0, 1)
            if at_10 != expected or at_01 != Fraction(n, 2) * expected:
                return False
            spots[n] = (at_10, at_01)
        return spots[1] == (4, 2) and spots[2] == (2304, 2304)

    _report(
        "criterion 4: fractal orientation counts at (1,0) and (0,1), "
        "1 <= n <= 6, with spot values at n = 1, 2 (exact)",
        compute,
    )


def test_criterion_05_fractal_diagonal():
    def compute():
        base = X * X + 5 * X + 2
        for n in range(4):
            expected = X * base ** ((4 ** n - 1) // 3)
            if diagonal(tutte_symbolic(LatticeFamily.FRACTAL, n)) != expected:
                return False
        rng = random.Random(50823)
        points = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(10)
        ]
        for x in points:
            for n in range(9):
                expected = x * (x * x + 5 * x + 2) ** ((4 ** n - 1) // 3)
                if tutte_eval(LatticeFamily.FRACTAL, n, x, x) != expected:
                    return False
        return True

    _report(
        "criterion 5: fractal diagonal equals x(x^2+5x+2)^((4^n-1)/3), "
        "symbolic n <= 3 and 10 random rational points for n <= 8 (exact)",
        compute,
    )


def test_criterion_06_fractal_minus_one_point():
    def compute():
        for n in range(7):
            edges = (4 ** (n + 1) - 1) // 3
            expected = (-1) ** edges * (-2) ** ((4 ** n - 1) // 3)
            if tutte_eval(LatticeFamily.FRACTAL, n, -1, -1) != expected:
                return False
        return True

    _report(
        "criterion 6: fractal value at (-1,-1) equals "
        "(-1)^|E| (-2)^((4^n-1)/3), n <= 6 (exact)",
        compute,
    )


def test_criterion_07_flower_tree_counts():
    def compute():
        for n in range(7):
            expected22 = 2 ** (2 * (4 ** n - 1) // 3)
            if tutte_eval(LatticeFamily.FLOWER22, n, 1, 1) != expected22:
                return False
            expected13 = (
                3 ** ((4 ** n - 3 * n - 1) // 9)
                * 4 ** ((2 * 4 ** n + 3 * n - 2) // 9)
            )
            if tutte_eval(LatticeFamily.FLOWER13, n, 1, 1) != expected13:
                return False
        tail22 = growth_constant(LatticeFamily.FLOWER22, 8).sequence[-1][1]
        tail13 = growth_constant(LatticeFamily.FLOWER13, 8).sequence[-1][1]
        return (
            abs(tail22 - math.log(2)) < 1e-3
            and abs(tail13 - (4 * math.log(2) + math.log(3)) / 6) < 1e-3
        )

    _report(
        "criterion 7: flower tree-count closed forms, n <= 6 (exact); growth "
        "at n = 8 within 1e-3 of ln 2 and (4 ln 2 + ln 3)/6",
        compute,
    )


def test_criterion_08_potts_routes_agree():
    def compute():
        start = time.perf_counter()
        cases = [
            (LatticeFamily.FRACTAL, 0),
            (LatticeFamily.FRACTAL, 1),
            (LatticeFamily.FLOWER22, 1),
            (LatticeFamily.FLOWER13, 1),
        ]
        couplings = [Fraction(-1, 2), Fraction(1), Fraction(2)]
        for family, n in cases:
            g = build_lattice(family, n)
            for q, v in product((1, 2, 3), couplings):
                params = PottsParams(q, v)
                if potts_direct(g, params) != potts_lattice(family, n, params):
                    return False
        return time.perf_counter() - start < 5.0

    _report(
        "criterion 8: Potts coloring sum equals Tutte-evaluation route on "
        "generation 0/1 lattices, 9 (q,v) pairs (exact, < 5 s)",
        compute,
    )


def test_criterion_09_structural_counts():
    def compute():
        for family, n in product(FAMILIES, range(7)):
            g = build_lattice(family, n)
            if (g.vertex_count, g.edge_count) != lattice_counts(family, n):
                return False
        g6 = build_lattice(LatticeFamily.FRACTAL, 6)
        average_degree = 2 * g6.edge_count / g6.vertex_count
        if abs(average_degree - 4) >= 0.01:
            return False
        for n in range(5):
            a = build_lattice(LatticeFamily.FLOWER22, n).degree_sequence()
            b = build_lattice(LatticeFamily.FLOWER13, n).degree_sequence()
            if a != b:
                return False
        return True

    _report(
        "criterion 9: lattice counts match closed forms n <= 6; fractal "
        "average degree within 0.01 of 4 at n = 6; flower degree sequences "
        "identical n <= 4",
        compute,
    )


def _random_poly(rng):
    return BiPoly(
        {
            (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-9, 9)
            for _ in range(rng.randint(0, 5))
        }
    )


def test_criterion_10_property_suites():
    def compute():
        rng = random.Random(1010)
        zero, one = BiPoly.zero(), BiPoly.one()
        for _ in range(1000):
            a, b, c = (_random_poly(rng) for _ in range(3))
            if a + b != b + a or (a + b) + c != a + (b + c):
                return False
            if a * b != b * a or (a * b) * c != a * (b * c):
                return False
            if a * (b + c) != a * b + a * c:
                return False
            if a + zero != a or a * one != a or a * zero != zero:
                return False
        for _ in range(200):
            g = random_connected_multigraph(rng)
            t = tutte_deletion_contraction(g)
            if t.evaluate(2, 2) != 2 ** g.edge_count:
                return False
            if t.evaluate(1, 1) != count_spanning_trees_bruteforce(g):
                return False
            if any(coeff <= 0 for coeff in t.terms().values()):
                return False
        for family, n in product(FAMILIES, range(4)):
            symbolic = tutte_symbolic(family, n)
            if any(coeff <= 0 for coeff in symbolic.terms().values()):
                return False
        return True

    _report(
        "criterion 10: ring axioms on 1000 random triples; tree-count and "
        "2^|E| identities plus positive coefficients on 200 random connected "
        "multigraphs (exact)",
        compute,
    )
