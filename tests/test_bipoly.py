"""Polynomial core: canonical form, ring laws, evaluation, transposition, JSON."""

import contextlib
import decimal
import json
import operator
import random
import sys
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fractal_tutte import bipoly
from fractal_tutte.bipoly import _PACKED_MIN_TERMS, BiPoly
from helpers import context_settings, diagonal, divisible_by_x_minus_1

X = BiPoly.x()
Y = BiPoly.y()
ONE = BiPoly.one()
ZERO = BiPoly.zero()

DIAMOND = BiPoly({(3, 0): 1, (2, 0): 2, (1, 0): 1, (1, 1): 2, (0, 1): 1, (0, 2): 1})


@st.composite
def bipolys(draw, max_terms=12, max_exp=6, max_coeff=99):
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
                st.integers(-max_coeff, max_coeff),
            ),
            max_size=max_terms,
        )
    )
    return BiPoly(dict(terms))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


class TestCanonicalForm:
    def test_zero_is_empty_mapping(self):
        assert ZERO.terms() == {}
        assert not ZERO
        assert ZERO == 0

    def test_cancellation_drops_terms(self):
        assert ((X + Y) + (X - Y)).terms() == {(1, 0): 2}

    def test_zero_coefficients_dropped_on_construction(self):
        assert BiPoly({(1, 1): 0, (0, 0): 3}).terms() == {(0, 0): 3}

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 1})

    @given(bipolys(), bipolys())
    def test_operations_never_store_zero_coefficients(self, a, b):
        for result in (a + b, a - b, a * b, -a, a.transpose()):
            assert all(c != 0 for c in result.terms().values())


class TestRingAxioms:
    @given(bipolys(), bipolys())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(bipolys(), bipolys(), bipolys())
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(bipolys(), bipolys())
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(bipolys(), bipolys(), bipolys())
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(bipolys(), bipolys(), bipolys())
    def test_multiplication_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(bipolys())
    def test_identities(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a * ZERO == ZERO
        assert a - a == ZERO


def schoolbook(a, b):
    """Reference product: every term pair, no packing."""
    data = {}
    for (i, j), c in a.terms().items():
        for (k, m), d in b.terms().items():
            data[(i + k, j + m)] = data.get((i + k, j + m), 0) + c * d
    return BiPoly(data)


# The radix of the packed product that each base given to bipoly._pack stands for.
RADIX_OF_BASE = {16: "int", 10: "decimal"}


@contextlib.contextmanager
def packed_operands(radix=None):
    """Collect the radix ("int" or "decimal") of every operand packed inside
    the block; given a radix, every packed product is put on it."""
    radices = []
    original = bipoly._pack

    def spy(terms, width, digits, base, parse, add):
        radices.append(RADIX_OF_BASE[base])
        return original(terms, width, digits, base, parse, add)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(bipoly, "_pack", spy))
        if radix is not None:
            threshold = 0 if radix == "decimal" else sys.maxsize
            stack.enter_context(mock.patch.object(bipoly, "_DECIMAL_MIN_BYTES", threshold))
        yield radices


# Exponent boxes (max x-exponent, max y-exponent) of at most 42 pairs:
# x-only, y-only, square, tall and flat.  Two operands filling most of one
# box are dense enough for the packed product.
BOXES = [(40, 0), (0, 40), (5, 6), (2, 13), (13, 2)]


@st.composite
def dense_operands(draw, boxes=BOXES):
    """Two polynomials filling most of one exponent box, above the threshold."""
    x_max, y_max = draw(st.sampled_from(boxes))
    grid = [(i, j) for i in range(x_max + 1) for j in range(y_max + 1)]
    coefficient = draw(st.sampled_from([
        st.integers(1, 10 ** 6),                       # positive, as in the recursion
        st.integers(-99, 99).filter(bool),             # mixed signs
        st.integers(-(2 ** 20), 2 ** 20).filter(bool),
    ]))
    operands = []
    for _ in range(2):
        keys = draw(st.permutations(grid))[:draw(st.integers(_PACKED_MIN_TERMS + 2, len(grid)))]
        # a short list of coefficients, cycled over the terms, keeps drawing cheap
        values = draw(st.lists(coefficient, min_size=1, max_size=9))
        operands.append(BiPoly({key: values[k % len(values)] for k, key in enumerate(keys)}))
    return tuple(operands)


@pytest.mark.parametrize("radix", sorted(RADIX_OF_BASE.values()))
class TestPackedProduct:
    """Large dense products are packed, on either radix, and agree with the
    schoolbook product."""

    @settings(max_examples=60, deadline=None)
    @given(dense_operands())
    def test_matches_schoolbook(self, radix, pair):
        a, b = pair
        with packed_operands(radix) as radices:
            product = a * b
        assert radices == [radix] * 2
        assert product == schoolbook(a, b)
        assert all(c != 0 for c in product.terms().values())

    @settings(max_examples=40, deadline=None)
    @given(dense_operands())
    def test_square_of_same_object(self, radix, pair):
        a = pair[0]
        with packed_operands(radix) as radices:
            square = a * a
        assert radices == [radix]
        assert square == schoolbook(a, a)
        assert square == a * BiPoly(a.terms())

    @settings(max_examples=30, deadline=None)
    @given(dense_operands(boxes=[(40, 0)]), st.integers(_PACKED_MIN_TERMS + 1, 60))
    def test_interior_coefficients_cancel(self, radix, pair, length):
        # (1 + x + ... + x^(L-1)) * ((x - 1) * h) = (x^L - 1) * h: most
        # coefficients of the product cancel to zero and must not be stored.
        h = pair[0]
        shifted = (X - 1) * h
        assume(len(shifted) > _PACKED_MIN_TERMS)
        geometric = BiPoly({(i, 0): 1 for i in range(length)})
        with packed_operands(radix) as radices:
            product = geometric * shifted
        assert radices and set(radices) == {radix}
        assert product == BiPoly({(length, 0): 1, (0, 0): -1}) * h
        assert all(c != 0 for c in product.terms().values())

    @settings(max_examples=10, deadline=None)
    @given(dense_operands())
    def test_zero_operand_and_opposite_sign(self, radix, pair):
        a = pair[0]
        assert a * ZERO == ZERO
        assert ZERO * a == ZERO
        with packed_operands(radix) as radices:
            assert a * a + a * (-a) == ZERO
        assert radices and set(radices) == {radix}

    @settings(max_examples=10, deadline=None)
    @given(dense_operands())
    def test_power(self, radix, pair):
        a = pair[0]
        with packed_operands(radix) as radices:
            cube = a ** 3
        assert radices and set(radices) == {radix}
        assert cube == schoolbook(a, schoolbook(a, a))

    @pytest.mark.parametrize("bits", range(1, 26))
    def test_coefficients_at_the_slot_bound(self, radix, bits):
        # Every coefficient of the operands at its largest for its bit length,
        # so the middle coefficients of the product come close to the slot's
        # capacity, with both signs.  On decimal slots of k digits they reach
        # 7% to 63% of the bias 5 * 10^(k-1), depending on bits; one digit
        # less would overflow most of these slots.
        top = (1 << bits) - 1
        a = BiPoly({(i, 0): top for i in range(40)})
        b = BiPoly({(i, 0): -top for i in range(45)})
        with packed_operands(radix) as radices:
            assert a * b == schoolbook(a, b)
            assert b * b == schoolbook(b, b)
        assert radices == [radix] * 3

    def test_coefficients_above_2_to_the_1000(self, radix):
        # Wide slots pay off only with many terms: 600 and 700 terms, one
        # operand with mixed signs.
        a = BiPoly({(i, 0): (-1) ** i * (2 ** 1030 - 3 ** i) for i in range(600)})
        b = BiPoly({(i, 0): 5 ** 440 - 7 * i for i in range(700)})
        with packed_operands(radix) as radices:
            product = a * b
        assert radices == [radix] * 2
        assert product == schoolbook(a, b)

    @settings(max_examples=20, deadline=None)
    @given(dense_operands())
    def test_transpose_of_product(self, radix, pair):
        a, b = pair
        with packed_operands(radix) as radices:
            assert (a * b).transpose() == a.transpose() * b.transpose()
        assert radices == [radix] * 4

    def test_sparse_operands_keep_the_schoolbook_loop(self, radix):
        # Forty terms spread over exponents up to 4 * 10^7: packing would need
        # petabytes of mostly empty slots.
        a = BiPoly({(10 ** 6 * i, 10 ** 6 * i): i + 1 for i in range(40)})
        with packed_operands(radix) as radices:
            square = a * a
        assert not radices
        assert square == schoolbook(a, a)


class TestDecimalRadix:
    """Which packed products take decimal-digit slots, and in which context."""

    @staticmethod
    def dense_60_bit_pair():
        # Two 800-term operands on a 40 x 20 box, mixed signs: about 52 KB
        # packed, above the threshold.
        rng = random.Random(800)
        return tuple(
            BiPoly({(i, j): rng.choice((1, -1)) * rng.getrandbits(60) for i in range(40)
                    for j in range(20)})
            for _ in range(2))

    def test_large_dense_product_takes_the_decimal_path(self):
        a, b = self.dense_60_bit_pair()
        with packed_operands() as radices:
            product = a * b
        assert radices == ["decimal"] * 2
        with packed_operands("int") as radices:
            assert product == a * b
        assert radices == ["int"] * 2

    @staticmethod
    def packed_bytes(a, b):
        """Bytes of the packed product of a and b, as the dispatch counts them."""
        small = min(len(a), len(b))
        coeff_bits = (max(map(int.bit_length, a.terms().values()))
                      + max(map(int.bit_length, b.terms().values()))
                      + small.bit_length() + 1)
        slots = (a.deg_x + b.deg_x + 1) * (a.deg_y + b.deg_y + 1)
        return slots * ((coeff_bits + 7) // 8)

    @pytest.mark.parametrize("lengths, bits, size, radix", [
        # 32 terms or fewer keep the schoolbook loop; 33 x 33 is the smallest
        # packed product.
        ((32, 33), (1, 1), 128, None),
        ((33, 33), (1, 1), 130, "int"),
        # 381 slots of 43 bytes: one byte below the threshold.
        ((190, 192), (167, 168), 16383, "int"),
        # 256 slots of 64 bytes: exactly at the threshold.
        ((128, 129), (251, 251), 16384, "decimal"),
    ])
    def test_radix_at_the_boundaries(self, lengths, bits, size, radix):
        # Every coefficient at its largest for its bit length, with mixed
        # signs in the second operand.
        a = BiPoly({(i, 0): (1 << bits[0]) - 1 for i in range(lengths[0])})
        b = BiPoly({(i, 0): (-1) ** i * ((1 << bits[1]) - 1) for i in range(lengths[1])})
        assert self.packed_bytes(a, b) == size
        with packed_operands() as radices:
            product = a * b
        assert radices == ([radix] * 2 if radix else [])
        assert product == schoolbook(a, b)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no digit limit")
    def test_slots_too_wide_for_digit_strings_stay_int(self):
        # 1000 terms of 1061 bits need slots of 643 digits, which int() would
        # refuse under 640, the least digit limit Python allows.
        a = BiPoly({(i, 0): (1 << 1060) + i for i in range(1000)})
        with packed_operands("int"):
            expected = a * a
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with packed_operands("decimal") as radices:
                square = a * a
        finally:
            sys.set_int_max_str_digits(limit)
        assert radices == ["int"]
        assert square == expected

    def test_caller_context_is_untouched(self):
        # The caller's context would round every product to six digits and
        # record flags; the product must neither use nor change it.
        a, b = self.dense_60_bit_pair()
        with packed_operands("int"):
            expected = a * b
        with decimal.localcontext() as caller:
            caller.prec = 6
            before = context_settings(caller)
            with packed_operands("decimal") as radices:
                product = a * b
            assert decimal.getcontext() is caller
            assert context_settings(caller) == before
        assert radices == ["decimal"] * 2
        assert product == expected


class TestPower:
    def test_zeroth_power_is_one(self):
        assert X ** 0 == ONE
        assert ZERO ** 0 == ONE

    def test_square_of_sum(self):
        assert (X + Y) ** 2 == BiPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_diagonal_factor_power(self):
        base = BiPoly({(2, 0): 1, (1, 0): 5, (0, 0): 2})
        assert base ** 5 == base * base * base * base * base

    @given(bipolys(max_terms=5, max_exp=3, max_coeff=9), st.integers(0, 5))
    def test_power_matches_repeated_multiplication(self, a, k):
        expected = ONE
        for _ in range(k):
            expected = expected * a
        assert a ** k == expected

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            X ** -1


class TestEvaluate:
    def test_diamond_at_one_one(self):
        assert DIAMOND.evaluate(1, 1) == 8

    def test_zero_polynomial_evaluates_to_zero(self):
        assert ZERO.evaluate(Fraction(7, 3), Fraction(-2)) == 0

    def test_diamond_at_minus_one(self):
        assert DIAMOND.evaluate(-1, -1) == 2

    @settings(max_examples=120)
    @given(bipolys(max_terms=6, max_exp=4), bipolys(max_terms=6, max_exp=4),
           rationals, rationals)
    def test_evaluation_is_a_ring_homomorphism(self, a, b, x0, y0):
        assert (a + b).evaluate(x0, y0) == a.evaluate(x0, y0) + b.evaluate(x0, y0)
        assert (a * b).evaluate(x0, y0) == a.evaluate(x0, y0) * b.evaluate(x0, y0)
        assert (a ** 3).evaluate(x0, y0) == a.evaluate(x0, y0) ** 3


class TestDiagonal:
    """helpers.diagonal, the y = x reference of the diagonal tests."""

    def test_y_becomes_x(self):
        assert diagonal(Y) == X

    def test_diamond_diagonal(self):
        assert diagonal(DIAMOND) == BiPoly({(3, 0): 1, (2, 0): 5, (1, 0): 2})

    def test_cycle_diagonal(self):
        c4 = BiPoly({(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1})
        assert diagonal(c4) == BiPoly({(3, 0): 1, (2, 0): 1, (1, 0): 2})

    @given(bipolys(), rationals)
    def test_diagonal_agrees_with_equal_arguments(self, a, t):
        assert diagonal(a).evaluate(t, 0) == a.evaluate(t, t)


class TestTranspose:
    def test_swaps_the_exponents(self):
        assert X.transpose() == Y
        assert DIAMOND.transpose() == BiPoly(
            {(0, 3): 1, (0, 2): 2, (0, 1): 1, (1, 1): 2, (1, 0): 1, (2, 0): 1})

    @given(bipolys())
    def test_twice_is_the_identity(self, a):
        assert a.transpose().transpose() == a

    @given(bipolys(), bipolys())
    def test_product_on_the_schoolbook_path(self, a, b):
        with packed_operands() as radices:
            assert (a * b).transpose() == a.transpose() * b.transpose()
        assert not radices

    @given(bipolys(max_terms=40, max_exp=9), st.randoms(use_true_random=False))
    def test_json_does_not_depend_on_insertion_order(self, a, rng):
        # The transpose is built in the order of a's terms; the same terms
        # inserted in another order must give the same bytes.
        terms = [((j, i), c) for (i, j), c in a.terms().items()]
        rng.shuffle(terms)
        assert a.transpose().to_json() == BiPoly(dict(terms)).to_json()


class TestDivisionByXMinus1:
    """helpers.divisible_by_x_minus_1, the reference of the severed-part tests."""

    def test_cubic_minus_one(self):
        cubic = BiPoly({(3, 0): 1, (0, 0): -1})
        assert divisible_by_x_minus_1(cubic)
        assert (X - 1) * (X * X + X + 1) == cubic

    def test_zero_divides(self):
        assert divisible_by_x_minus_1(ZERO)

    def test_nondivisible_detected(self):
        assert not divisible_by_x_minus_1(ONE)
        assert not divisible_by_x_minus_1(X * X + 1)
        assert not divisible_by_x_minus_1(X * Y - 1)

    @given(bipolys())
    def test_multiples_are_divisible(self, a):
        assert divisible_by_x_minus_1((X - 1) * a)
        # a(1, y) has degree at most 6, so it is 0 when it vanishes at 7 points.
        assert divisible_by_x_minus_1(a) == all(a.evaluate(1, k) == 0 for k in range(7))


def parsed_terms(text):
    """The exponent-to-coefficient mapping that to_json text stands for."""
    return {(t["x"], t["y"]): int(t["c"]) for t in json.loads(text)["terms"]}


class TestJson:
    def test_canonical_serialization_order(self):
        text = DIAMOND.to_json()
        assert text == (
            '{"terms":[{"x":3,"y":0,"c":"1"},{"x":2,"y":0,"c":"2"},'
            '{"x":1,"y":1,"c":"2"},{"x":1,"y":0,"c":"1"},'
            '{"x":0,"y":2,"c":"1"},{"x":0,"y":1,"c":"1"}]}'
        )

    def test_zero_serializes_to_empty_terms(self):
        assert ZERO.to_json() == '{"terms":[]}'
        assert parsed_terms(ZERO.to_json()) == {}

    def test_huge_coefficients_roundtrip(self):
        big = BiPoly({(2, 3): 10 ** 50, (0, 0): -(7 ** 40)})
        assert parsed_terms(big.to_json()) == big.terms()

    @given(bipolys())
    def test_roundtrip_identity(self, a):
        assert parsed_terms(a.to_json()) == a.terms()


class TestJsonWriter:
    """to_json writes in one pass the text json.dumps makes of the terms."""

    @given(st.dictionaries(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        st.one_of(st.integers(-99, 99),
                  # past 2^64, and within the least int-to-str digit limit
                  st.integers(-(2 ** 1900), 2 ** 1900).filter(lambda c: abs(c) > 2 ** 64)),
        max_size=40))
    @example({})
    @example({(0, 0): 1})
    @example({(7, 3): -(2 ** 64 + 1)})
    def test_equals_json_dumps_of_the_object(self, terms):
        a = BiPoly(terms)
        reference = {"terms": [{"x": i, "y": j, "c": str(c)} for (i, j), c in a.sorted_terms()]}
        assert a.to_json() == json.dumps(reference, separators=(",", ":"))


class TestBias:
    """The slot bias of a packed product, built by doubling, is the number
    its digit string "1" + bias * slots stands for."""

    # (first bias digit, parse, add, shift, digits of a value)
    RADICES = {
        "int": ("8", partial(int, base=16), operator.add, bipoly._shift_hex, "{:x}".format),
        "decimal": ("5", bipoly.EXACT_CONTEXT.create_decimal, bipoly.EXACT_CONTEXT.add,
                    bipoly.EXACT_CONTEXT.scaleb, bipoly.EXACT_CONTEXT.to_sci_string),
    }

    @pytest.mark.parametrize("radix", sorted(RADICES))
    @pytest.mark.parametrize("digits", [1, 2, 640])
    @pytest.mark.parametrize("slots", [1, 2, 3, 7, 8, 9, 1023, 1024, 1025])
    def test_doubling_equals_the_parsed_string(self, radix, digits, slots):
        lead, parse, add, shift, show = self.RADICES[radix]
        bias = lead + "0" * (digits - 1)
        built = bipoly._bias(bias, slots, parse, add, shift)
        assert built == parse("1" + bias * slots)
        # The digits too: a decimal bias keeps exponent 0, as the product has.
        assert show(built) == "1" + bias * slots


class TestDisplay:
    def test_zero_string(self):
        assert str(ZERO) == "0"

    def test_diamond_string(self):
        assert str(DIAMOND) == "x^3 + 2*x^2 + 2*x*y + x + y^2 + y"

    def test_leading_negative(self):
        assert str(-X) == "-x"
