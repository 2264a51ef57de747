"""Generation-to-generation recursion for the Tutte polynomial split.

The state carried between generations is a pair: the part of the Tutte sum
coming from edge subsets that join the special vertex pair, and the cofactor
of the remaining part after its guaranteed (x - 1) factor is pulled out.
One step expresses the next pair in the four copies glued for the family;
the full polynomial is reassembled as joined + (x - 1) * cofactor.

Each part of the next pair is a quartic form in the pair (t, c).  One plain
function per family takes (t, c) and forms only the products that family
needs, over any commutative ring, so the same arithmetic runs symbolically
on polynomials and pointwise on the integer numerators of a rational point,
as ints or, for the CLI, as Decimals.  Shown at d = 1, with a = x - 1:

- fractal: t^2, t c, c^2, then joined = t^2 (y(y - 1) t^2 + 4y t c + 2(x + 1) c^2)
  and the cofactor, the same with x and y swapped and t and c swapped:
  5 products.  On the diagonal x = y with t = c both parts are
  (x^2 + 5x + 2) (t^2)^2, 2 squares;
- flower22: t^2 and s = c (2t + a c), then joined = t^2 ((y - 1) t^2 + 2s)
  and the cofactor s^2: 4 products, 2 of them squares;
- flower13: t^2, t c, c^2, then joined = (y - 1) (t^2)^2 + t c (4 t^2 + 3a t c + a^2 c^2)
  and the cofactor c^2 (3 t^2 + 3a t c + a^2 c^2): 6 products; on y = 1
  the square (t^2)^2 is not formed.

A square is formed as u * u on one object, which both radices of the packed
polynomial product, and int multiplication, do faster than a product of two
operands.  The fractal's symbolic step forms the joined part alone and
transposes it for the cofactor.

The value J + (x - 1) C at x = X/D, y = Y/D needs only N = D J + (X - D) C
of the last pair, so tutte_eval and potts_lattice run _eval_numerators
for n - 1 steps and form N of generation n from the pair of generation
n - 1.  Either flower's generation n is a ring of four copies of generation
n - 1, and its Tutte polynomial does not depend on which two hubs are
special, so one value form serves both.  With a = X - D, b = Y - D and
k = D^2 (a b - D^2), zero exactly on the hyperbola (x - 1)(y - 1) = 1,
a N = ((D t + a c)^2)^2 + k (t^2)^2, and at a = 0, N = D^2 t^2 (4D t c + b t^2).
The division by a is exact, and on k = 0 the square k multiplies is not
formed.  The fractal's N is D J + (X - D) C of its step.  tutte_symbolic
runs the flower form on polynomials at d = 1, where N is T: four squares,
two of quartic size, and BiPoly's exact division by a = x - 1.  The
fractal's polynomial is its assembled pair, one quartic product a step.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple, Tuple, Union

from .bipoly import BiPoly, _canonical
from .errors import CapExceeded
from .lattices import LatticeFamily, check_generation

SYMBOLIC_GENERATION_CAP = 4
EVAL_NUMERATOR_BITS_CAP = 1 << 24

Ring = Union[BiPoly, int, Decimal]


def _check_size(what: str, bits: int) -> None:
    """The one cap on exact values: refuse one predicted past EVAL_NUMERATOR_BITS_CAP bits."""
    if bits > EVAL_NUMERATOR_BITS_CAP:
        # At a huge n, the 2n - 1 bits of (4^n - 1) / 3 are too long a number to print.
        size = bits if bits < 1 << 64 else f"2^{math.log2(bits):.0f}"
        raise CapExceeded(f"{what} of about {size} bits exceeds cap {EVAL_NUMERATOR_BITS_CAP}")


def _four_sum(n: int, one: Ring = 1, what: str = "") -> Ring:
    """1 + 4 + ... + 4^(n - 1) = (4^n - 1) / 3 in the ring of one, refused by its own
    2n - 1 bits before 4^n is formed.  A caller whose size rule predicts at least that
    many bits names its value as what, and is refused, also before 4^n is formed, once
    the lower bound 4^(n - 1) is past the cap."""
    check_generation(n)
    _check_size(f"(4^{n} - 1) / 3", 2 * n - 1)
    if what and 2 * n - 2 >= EVAL_NUMERATOR_BITS_CAP.bit_length():
        raise CapExceeded(f"{what} of at least 4^{n - 1} bits exceeds cap "
                          f"{EVAL_NUMERATOR_BITS_CAP}")
    return (pow(4 * one, n) - 1) // 3


class TuttePair(NamedTuple):
    """Split state: joined part and the (x - 1)-cofactor of the severed part,
    as polynomials, or at a point from eval_pair.  assemble() works on the
    symbolic pair only (tutte_symbolic assembles only the fractal's);
    tutte_eval gives the assembled value at a point."""

    joined: Union[BiPoly, Fraction]
    cofactor: Union[BiPoly, Fraction]

    def assemble(self) -> BiPoly:
        """joined + (x - 1) * cofactor: each cofactor term c at (i, j) adds c
        at (i + 1, j) and -c at (i, j) to a copy of the joined terms."""
        terms = self.joined.terms()
        for (i, j), c in self.cofactor.terms().items():
            key = (i + 1, j)
            total = terms.get(key, 0) + c
            if total:
                terms[key] = total
            else:
                del terms[key]
            key = (i, j)
            total = terms.get(key, 0) - c
            if total:
                terms[key] = total
            else:
                del terms[key]
        return _canonical(terms)


# One function per family forms the next (joined, cofactor) from the pair
# (t, c).  The scalars are polynomials in (x, y, d): with d = 1 the step is
# at (x, y), symbolic or not; with integers X, Y, D every coefficient is a
# homogeneous quadratic in (X, Y, D), so the step maps numerators over den
# to numerators over den^4 D^2 at (X/D, Y/D).  Each scalar is formed before
# it meets a pair-sized operand.

def _fractal(t2: Ring, tc: Ring, c2: Ring, x: Ring, y: Ring, d: int) -> Ring:
    """The fractal's joined part from t^2, t c and c^2; its cofactor is
    _fractal(c2, tc, t2, y, x, d)."""
    return t2 * (y * (y - d) * t2 + 4 * y * d * tc + 2 * (x + d) * d * c2)


def _fractal_step(t: Ring, c: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    if x == y and t == c:  # the diagonal: both parts are (x^2 + 5x d + 2d^2) (t^2)^2
        t2 = t * t
        part = (x * x + 5 * x * d + 2 * d * d) * (t2 * t2)
        return part, part
    t2, tc, c2 = t * t, t * c, c * c
    return _fractal(t2, tc, c2, x, y, d), _fractal(c2, tc, t2, y, x, d)


def _flower22(t: Ring, c: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    t2 = t * t
    s = c * (2 * d * t + (x - d) * c)
    return t2 * ((y - d) * d * t2 + 2 * d * s), s * s


def _flower13(t: Ring, c: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    t2, tc, c2 = t * t, t * c, c * c
    x1 = x - d
    joined = tc * (4 * d * d * t2 + 3 * x1 * d * tc + x1 * x1 * c2)
    if y != d:  # on y = 1 the quartic-size square (t^2)^2 drops out
        joined = (y - d) * d * (t2 * t2) + joined
    return joined, c2 * (3 * d * d * t2 + 3 * x1 * d * tc + x1 * x1 * c2)


_STEPS: dict[LatticeFamily, Callable[..., Tuple[Ring, Ring]]] = {
    LatticeFamily.FRACTAL: _fractal_step,
    LatticeFamily.FLOWER22: _flower22,
    LatticeFamily.FLOWER13: _flower13,
}


def _rule(family: LatticeFamily, t: Ring, c: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    """The next (joined, cofactor) from the pair (t, c)."""
    return _STEPS[family](t, c, x, y, d)


# One function per family forms N = D J + (X - D) C of the next pair (J, C)
# from the pair (t, c) at the ints (X, Y, D); see the module docstring.

def _fractal_value(t: Ring, c: Ring, big_x: int, big_y: int, d: int) -> Ring:
    joined, cofactor = _rule(LatticeFamily.FRACTAL, t, c, big_x, big_y, d)
    return d * joined + (big_x - d) * cofactor


def _flower_value(t: Ring, c: Ring, big_x: int, big_y: int, d: int) -> Ring:
    a, b = big_x - d, big_y - d
    if not a:
        t2 = t * t
        return t2 * (t * (4 * d ** 3 * c) + b * d * d * t2)
    square = d * t + a * c
    square = square * square
    square = square * square
    k = d * d * (a * b - d * d)
    if k:
        t2 = t * t
        square = square + k * (t2 * t2)
    return square // a


_VALUES: dict[LatticeFamily, Callable[..., Ring]] = {
    LatticeFamily.FRACTAL: _fractal_value,
    LatticeFamily.FLOWER22: _flower_value,
    LatticeFamily.FLOWER13: _flower_value,
}


def initial_pair() -> TuttePair:
    """Generation 0 is a single edge: joined part 1, cofactor 1."""
    return TuttePair(BiPoly.one(), BiPoly.one())


def step(family: LatticeFamily, pair: TuttePair) -> TuttePair:
    """One symbolic generation step.  It has no cap: starting from
    initial_pair() and stepping n times runs past SYMBOLIC_GENERATION_CAP.

    Swapping x and y, and t and c, swaps the fractal's two parts.  So a
    fractal pair whose cofactor is its joined part transposed, as
    initial_pair() is, steps to such a pair: only the joined part is formed,
    from t^2, t c and c^2 = (t^2) transposed, and the cofactor is its transpose.
    """
    t, c = pair
    x, y = BiPoly.x(), BiPoly.y()
    if family is LatticeFamily.FRACTAL and c == t.transpose():
        t2 = t * t
        joined = _fractal(t2, t * c, t2.transpose(), x, y, 1)
        return TuttePair(joined, joined.transpose())
    return TuttePair(*_rule(family, t, c, x, y, 1))


def tutte_pair(family: LatticeFamily, n: int) -> TuttePair:
    """Symbolic split state after n recursion steps."""
    check_generation(n, SYMBOLIC_GENERATION_CAP)
    pair = initial_pair()
    for _ in range(n):
        pair = step(family, pair)
    return pair


def tutte_symbolic(family: LatticeFamily, n: int) -> BiPoly:
    """Full Tutte polynomial of generation n, refused past the cap before any
    step: a flower's is tutte_eval's value form on the pair of generation
    n - 1, the fractal's its assembled pair."""
    check_generation(n, SYMBOLIC_GENERATION_CAP)
    if family is LatticeFamily.FRACTAL or not n:
        return tutte_pair(family, n).assemble()
    return _VALUES[family](*tutte_pair(family, n - 1), BiPoly.x(), BiPoly.y(), 1)


def _homogeneous(x: Fraction, y: Fraction) -> Tuple[int, int, int]:
    """(X, Y, D) with x = X/D and y = Y/D over D = lcm of their denominators."""
    d = math.lcm(x.denominator, y.denominator)
    return x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d


if hasattr(Fraction, "_from_coprime_ints"):
    _coprime = Fraction._from_coprime_ints
else:
    def _coprime(numerator: int, denominator: int) -> Fraction:
        return Fraction(numerator, denominator, _normalize=False)


def lowest_terms(numerator: Ring, denominator: Ring, base: int) -> Tuple[Ring, Ring]:
    """(numerator, denominator) in lowest terms, in their ring, int or Decimal,
    given that every prime factor of the positive denominator divides the
    small positive int base.  A zero numerator comes back unsigned, over 1.

    Every gcd is of small ints, remainders by base or a divisor of it, so the
    common case of a fraction already in lowest terms costs two remainders
    by base; base itself is never factored.  Division is exact, never /, by
    powers of g formed in the ring.
    """
    ring = type(denominator)
    if not numerator:
        return abs(numerator), ring(1)
    while True:
        shared = math.gcd(int(denominator % base), base)
        g = math.gcd(int(numerator % shared), shared)
        if g == 1:
            return numerator, denominator
        # Divide by g, g^2, g^4, ... while both stay divisible.
        power = ring(g)
        while True:
            num, num_rem = divmod(numerator, power)
            den, den_rem = divmod(denominator, power)
            if num_rem or den_rem:
                break
            numerator, denominator, power = num, den, power * power


def _check_value(n: int, big_x: int, big_y: int, d: int, base: int, power_bits: int = 0) -> None:
    """The size rule of an exact value of generation n at x = X/D, y = Y/D reduced
    against base, made once before any step: J, C and N are homogeneous of degree
    e = 2 (4^n - 1) / 3 in (X, Y, D) and den divides base^e, so e bits(max(|X|, |Y|,
    D, base)), plus power_bits for a power the caller forms with the value."""
    top = max(abs(big_x), abs(big_y), d, base)
    _check_size("exact value", 2 * _four_sum(n, what="exact value") * top.bit_length()
                + power_bits)


def _eval_numerators(family: LatticeFamily, n: int, big_x: Ring, big_y: Ring, d: int,
                     base: int, one: Ring = 1) -> Tuple[Ring, Ring, Ring]:
    """(J, C, den) in the ring of one: (J/den, C/den) is the split state at
    x = X/D, y = Y/D times (D/base)^e, e = 2 (4^n - 1) / 3, so base = D gives
    the state itself.  The caller sizes the request with _check_value first.

    Each step runs _rule in the ring, which needs only + - * of it.  When
    base > 1 it sets den -> den^4 base^2, so every prime of den divides base;
    then J, C and den are divided by g = gcd(J, C, den, base), found from
    their remainders by base, while g > 1, and no common factor is carried
    into the next step to be raised to the fourth.  At base 1 den stays one.
    """
    joined = cofactor = den = one
    for _ in range(n):
        joined, cofactor = _rule(family, joined, cofactor, big_x, big_y, d)
        if base > 1:
            den = den ** 4 * base * base
            while (g := math.gcd(int(joined % base), int(cofactor % base), int(den % base), base)) > 1:
                joined, cofactor, den = joined // g, cofactor // g, den // g
    return joined, cofactor, den


def _eval_value(family: LatticeFamily, n: int, big_x: int, big_y: int, d: int,
                base: int, power_bits: int = 0, one: Ring = 1) -> Tuple[Ring, Ring]:
    """(N, den) in the ring of one: N / (D den) is J + (x - 1) C of generation n
    at x = X/D, y = Y/D times (D/base)^e, e = 2 (4^n - 1) / 3, as for
    _eval_numerators, so base = D gives the value itself.

    It is sized by _check_value for generation n, power_bits included, before
    any step; _eval_numerators runs n - 1 steps, and the family's value form
    makes the last one as N alone, over den^4 base^2.
    """
    _check_value(n, big_x, big_y, d, base, power_bits)
    if not n:  # the single edge: J = C = den = 1, and the value is x
        return one * big_x, one
    joined, cofactor, den = _eval_numerators(family, n - 1, big_x, big_y, d, base, one)
    return _VALUES[family](joined, cofactor, big_x, big_y, d), den ** 4 * base * base


def eval_pair(family: LatticeFamily, n: int,
              x: Union[int, Fraction], y: Union[int, Fraction]) -> TuttePair:
    """Split state evaluated at a rational point, without symbolic blowup:
    each part of (J/den, C/den) is brought to lowest terms once."""
    big_x, big_y, d = _homogeneous(Fraction(x), Fraction(y))
    _check_value(n, big_x, big_y, d, d)
    joined, cofactor, den = _eval_numerators(family, n, big_x, big_y, d, d)
    return TuttePair(_coprime(*lowest_terms(joined, den, d)),
                     _coprime(*lowest_terms(cofactor, den, d)))


def _tutte_value(family: LatticeFamily, n: int, x: Union[int, Fraction], y: Union[int, Fraction],
                 one: Ring) -> Tuple[Ring, Ring]:
    """tutte_eval's value as (numerator, denominator) in lowest terms, in the ring of one."""
    big_x, big_y, d = _homogeneous(Fraction(x), Fraction(y))
    value, den = _eval_value(family, n, big_x, big_y, d, d, one=one)
    return lowest_terms(value, d * den, d)


def tutte_eval(family: LatticeFamily, n: int,
               x: Union[int, Fraction], y: Union[int, Fraction]) -> Fraction:
    """Exact value of the generation-n Tutte polynomial at a rational point:
    J + (x - 1) C = (D J + (X - D) C) / (D den), brought to lowest terms once."""
    return _coprime(*_tutte_value(family, n, x, y, 1))
