"""Exact sparse bivariate polynomials over arbitrary-precision integers.

A polynomial in two variables x and y is stored as a mapping from exponent
pairs ``(i, j)`` to nonzero integer coefficients.  The representation is
canonical: zero coefficients are never stored, so the zero polynomial is the
empty mapping and structural equality coincides with mathematical equality.

Coefficients are plain Python ints, which are already arbitrary precision,
and evaluation is done in ``fractions.Fraction`` so every result is exact.

Large dense products are done by Kronecker substitution: each operand is
packed into one big number, with a fixed-size slot per exponent pair, and
the two numbers are multiplied once.  The slots are zero-padded digits of
one string, in one of two radices: below ``_DECIMAL_MIN_BYTES`` bytes they
are hex digits of an int (Karatsuba); from there on they are decimal digits
of a ``decimal.Decimal``, whose number-theoretic transform multiply is
several times faster at millions of bits.  Decimal arithmetic runs only in
``EXACT_CONTEXT``, never in the caller's thread-local context.
"""

from __future__ import annotations

import decimal
import operator
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Iterator, Tuple, Union

Exponents = Tuple[int, int]
Scalar = Union[int, "BiPoly"]

# Products whose smaller operand has more terms than this are packed into one
# big-integer multiplication; smaller ones, such as the thousands of tiny
# products in the oracles, keep the schoolbook loop over term pairs.
_PACKED_MIN_TERMS = 32

# Packed products of at least this many bytes (ceil(B/8) bytes for a slot of
# B bits) use decimal-digit slots and the Decimal multiply.  Measured on
# CPython 3.11 (README, "Polynomial product"): every product of the n <= 3
# recursion (at most 12,384 bytes) is faster on int slots; the n = 3 -> 4 step
# (24,650 bytes or more) is a near tie up to 37 KB and faster on decimal
# slots above.
_DECIMAL_MIN_BYTES = 16384

# Converting an int to or from a decimal string works for up to this many
# digits whatever sys.set_int_max_str_digits() allows; wider slots keep the
# int radix, whose hex digits have no limit.
_DECIMAL_MAX_SLOT_DIGITS = 640

# Every Decimal operation of the package runs in this context: integers of
# any length are exact, and anything that would round raises instead.
EXACT_CONTEXT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                traps=[decimal.Inexact, decimal.Rounded,
                                       decimal.InvalidOperation])


def _pack(terms: Dict[Exponents, int], width: int, digits: int, radix: int,
          parse: Callable, add: Callable) -> Union[int, decimal.Decimal]:
    """The number whose ``digits``-digit slot ``i * width + j`` holds coefficient (i, j).

    The slots are base-``radix`` digits (16 or 10) of one string, highest
    slot first, which ``parse`` reads.  Negative coefficients go into a
    second string, made only when one occurs, which is parsed with a minus
    sign and added to the first.
    """
    spec = "x" if radix == 16 else "d"
    top = max(i * width + j for i, j in terms)
    zero = "0" * digits
    positive = [zero] * (top + 1)
    negative = None
    for (i, j), c in terms.items():
        index = top - (i * width + j)
        if c > 0:
            positive[index] = format(c, spec).zfill(digits)
        else:
            if negative is None:
                negative = [zero] * (top + 1)
            negative[index] = format(-c, spec).zfill(digits)
    value = parse("".join(positive))
    if negative is not None:
        value = add(value, parse("-" + "".join(negative)))
    return value


def _bias(bias: str, slots: int, parse: Callable, add: Callable,
          shift: Callable) -> Union[int, decimal.Decimal]:
    """``parse("1" + bias * slots)``, where ``shift(v, k)`` multiplies v by
    the radix to the k-th power.

    The run of copies of the bias is doubled, one shift and one addition per
    bit of ``slots``, which costs about two additions of the full length.
    Parsing the string instead would cost far more in the decimal radix,
    where it has millions of digits.
    """
    digits, unit = len(bias), parse(bias)
    run, copies = unit, 1
    for bit in bin(slots)[3:]:
        run = add(shift(run, copies * digits), run)
        copies *= 2
        if bit == "1":
            run = add(shift(run, digits), unit)
            copies += 1
    return add(shift(parse("1"), slots * digits), run)


def _shift_hex(value: int, places: int) -> int:
    """value * 16^places."""
    return value << 4 * places


class BiPoly:
    """Immutable sparse polynomial in x and y with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Dict[Exponents, int], None] = None):
        data: Dict[Exponents, int] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair ({i}, {j})")
                if c:
                    data[i, j] = c
        self._terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): int(c)})

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    # -- inspection --------------------------------------------------------

    @property
    def deg_x(self) -> int:
        """Largest x-exponent, or -1 for the zero polynomial."""
        return max((i for i, _ in self._terms), default=-1)

    @property
    def deg_y(self) -> int:
        """Largest y-exponent, or -1 for the zero polynomial."""
        return max((j for _, j in self._terms), default=-1)

    def terms(self) -> Dict[Exponents, int]:
        """Copy of the underlying exponent-to-coefficient mapping."""
        return dict(self._terms)

    def sorted_terms(self) -> Iterator[Tuple[Exponents, int]]:
        """Terms ordered by x-exponent descending, then y-exponent descending."""
        for key in sorted(self._terms, reverse=True):
            yield key, self._terms[key]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: Scalar) -> "BiPoly":
        if isinstance(value, BiPoly):
            return value
        if isinstance(value, int):
            return BiPoly.const(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Scalar) -> "BiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for key, c in other._terms.items():
            acc = data.get(key, 0) + c
            if acc:
                data[key] = acc
            else:
                del data[key]
        return _canonical(data)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return _canonical({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: Scalar) -> "BiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "BiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Scalar) -> "BiPoly":
        """Product; large operands go through one big-number multiplication.

        When both operands have more than ``_PACKED_MIN_TERMS`` terms and
        fill their exponent range densely, each is packed into a single
        number by Kronecker substitution: term (i, j) lands in slot
        ``i * W + j`` with ``W = deg_y(a) + deg_y(b) + 1``, and every slot is
        wide enough to hold any coefficient of the product with its sign.
        One product (a square when both operands are the same object) then
        carries every coefficient.

        The slots are zero-padded digits of one string, highest slot first,
        in one of two radices.  Below ``_DECIMAL_MIN_BYTES`` packed bytes
        they are hex digits of an int, multiplied by CPython's Karatsuba;
        from there on they are decimal digits of a Decimal, multiplied by
        libmpdec's number-theoretic transform.  Either way half the slot
        range is added to every slot of the product, so the string of its
        digits splits into slots with no borrow.  Other products use the
        schoolbook loop over term pairs.  Every path gives the same
        polynomial.
        """
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        data: Dict[Exponents, int] = {}
        packed = len(a) > _PACKED_MIN_TERMS
        if packed:
            width = self.deg_y + other.deg_y + 1
            slots = (self.deg_x + other.deg_x + 1) * width
            # Every coefficient of the product is below 2^(coeff_bits - 1) in
            # absolute value.
            coeff_bits = (max(map(int.bit_length, a.values()))
                          + max(map(int.bit_length, b.values()))
                          + len(a).bit_length() + 1)
            size = (coeff_bits + 7) // 8
            # The packed product's bytes bound its cost and memory; when they
            # outnumber the term pairs the operands are sparse, and the
            # schoolbook loop is cheaper.
            packed = slots * size <= len(a) * len(b)
        if packed:
            # 10^digits >= 2^coeff_bits, as 0.30103 > log10(2).
            digits = coeff_bits * 30103 // 100000 + 1
            if slots * size >= _DECIMAL_MIN_BYTES and digits <= _DECIMAL_MAX_SLOT_DIGITS:
                ctx = EXACT_CONTEXT
                radix, parse, add, multiply, show, shift = (
                    10, ctx.create_decimal, ctx.add, ctx.multiply, ctx.to_sci_string, ctx.scaleb)
            else:
                radix, digits = 16, (coeff_bits + 3) // 4
                parse, add, multiply, show, shift = (
                    partial(int, base=16), operator.add, operator.mul, "{:x}".format, _shift_hex)
            packed_a = _pack(a, width, digits, radix, parse, add)
            packed_b = packed_a if a is b else _pack(b, width, digits, radix, parse, add)
            product = multiply(packed_a, packed_b)
            del packed_a, packed_b
            # Half the slot range added to every slot puts each coefficient
            # in [0, radix^digits), and a 1 above the top slot makes the
            # string exactly 1 + slots * digits long, leading zeros included.
            # A slot that reads as the bias alone holds a zero coefficient.
            bias = str(radix // 2) + "0" * (digits - 1)
            product = add(product, _bias(bias, slots, parse, add, shift))
            text = show(product)
            del product
            half = int(bias, radix)
            for slot, end in enumerate(range(len(text), 1, -digits)):
                piece = text[end - digits:end]
                if piece != bias:
                    data[divmod(slot, width)] = int(piece, radix) - half
        else:
            for (ia, ja), ca in a.items():
                for (ib, jb), cb in b.items():
                    key = (ia + ib, ja + jb)
                    acc = data.get(key, 0) + ca * cb
                    if acc:
                        data[key] = acc
                    else:
                        del data[key]
        return _canonical(data)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BiPoly":
        """Integer power by repeated squaring."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = BiPoly.one()
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- beyond the ring ---------------------------------------------------

    def evaluate(self, x: Union[int, Fraction], y: Union[int, Fraction]) -> Fraction:
        """Exact value at a rational point."""
        x = Fraction(x)
        y = Fraction(y)
        x_pow: Dict[int, Fraction] = {0: Fraction(1)}
        y_pow: Dict[int, Fraction] = {0: Fraction(1)}
        total = Fraction(0)
        for (i, j), c in self._terms.items():
            xi = x_pow.get(i)
            if xi is None:
                xi = x_pow[i] = x ** i
            yj = y_pow.get(j)
            if yj is None:
                yj = y_pow[j] = y ** j
            total += c * xi * yj
        return total

    def transpose(self) -> "BiPoly":
        """Swap x and y: the term (i, j) becomes (j, i)."""
        return _canonical({(j, i): c for (i, j), c in self._terms.items()})

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """``{"terms":[{"x":i,"y":j,"c":"<decimal>"},...]}`` in ``sorted_terms``
        order, as ``json.dumps`` writes it with separators ``(",", ":")``,
        made by one ``%`` format of a flat tuple of (x, y, c) values."""
        terms = self._terms
        keys = sorted(terms, reverse=True)
        values = tuple(value for key in keys for value in (*key, terms[key]))
        form = ",".join(['{"x":%d,"y":%d,"c":"%d"}'] * len(keys))
        return ('{"terms":[' + form + "]}") % values

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (i, j), c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or (i == 0 and j == 0):
                factors.append(str(abs(c)))
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            body = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"BiPoly({self._terms!r})"


def _canonical(terms: Dict[Exponents, int]) -> BiPoly:
    """The polynomial that owns ``terms``, taken as it is: it must hold no
    zero coefficient and no negative exponent, and must not be changed after."""
    result = BiPoly.__new__(BiPoly)
    result._terms = terms
    return result
