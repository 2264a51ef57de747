"""Generation-to-generation recursion for the Tutte polynomial split.

The state carried between generations is a pair: the part of the Tutte sum
coming from edge subsets that join the special vertex pair, and the cofactor
of the remaining part after its guaranteed (x - 1) factor is pulled out.
One step expresses the next pair in the four copies glued for the family;
the full polynomial is reassembled as joined + (x - 1) * cofactor.

Each part of the next pair is a quartic form in the pair (t, c).  One plain
function per family forms both parts from t^2, t c and c^2 over any
commutative ring, so the same arithmetic runs symbolically on polynomials
and pointwise on the integer numerators of a rational point, as ints or,
for the CLI, as Decimals.  After t^2,
t c and c^2, the parts take these quartic-size products:

- fractal: joined = t^2 (y(y - 1) t^2 + 4y t c + 2(x + 1) c^2), and the
  cofactor is the same with x and y swapped and t and c swapped;
- flower22: joined = t^2 ((y - 1) t^2 + 4 t c + 2(x - 1) c^2), and the
  cofactor is the square (2 t c + (x - 1) c^2)^2;
- flower13: joined = (y - 1) (t^2)^2 + t c (4 t^2 + 3(x - 1) t c + (x - 1)^2 c^2),
  and the cofactor is c^2 (3 t^2 + 3(x - 1) t c + (x - 1)^2 c^2); on y = 1
  the square (t^2)^2 is not formed.

A square is formed as u * u on one object, which both radices of the
packed polynomial product, and int multiplication, do faster than a
product of two operands.  The fractal's cofactor is its joined part with x
and y swapped, so its symbolic step forms the joined part alone and
transposes it.
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
        # A prediction can itself have 2^24 bits, far too many digits to print.
        size = bits if bits < 1 << 64 else f"2^{math.log2(bits):.0f}"
        raise CapExceeded(f"{what} of about {size} bits exceeds cap {EVAL_NUMERATOR_BITS_CAP}")


def _four_sum(n: int, one: Ring = 1) -> Ring:
    """1 + 4 + ... + 4^(n - 1) = (4^n - 1) / 3 in the ring of one, a lower bound on every
    other exact value's predicted bits; refused by its own 2n - 1 bits before 4^n is formed."""
    check_generation(n)
    _check_size(f"(4^{n} - 1) / 3", 2 * n - 1)
    return (pow(4 * one, n) - 1) // 3


class TuttePair(NamedTuple):
    """Split state: joined part and the (x - 1)-cofactor of the severed part,
    as polynomials, or at a point from eval_pair.  assemble() works on the
    symbolic pair only; tutte_eval gives the assembled value at a point."""

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


# One function per family forms the next (joined, cofactor) from t^2, t c
# and c^2.  The scalars are polynomials in (x, y, d): with d = 1 the step is
# at (x, y), symbolic or not; with integers X, Y, D every coefficient is a
# homogeneous quadratic in (X, Y, D), so the step maps numerators over den
# to numerators over den^4 D^2 at (X/D, Y/D).  Each scalar is formed before
# it meets a pair-sized operand.

def _fractal(t2: Ring, tc: Ring, c2: Ring, x: Ring, y: Ring, d: int) -> Ring:
    """The fractal's joined part; its cofactor is _fractal(c2, tc, t2, y, x, d)."""
    return t2 * (y * (y - d) * t2 + 4 * y * d * tc + 2 * (x + d) * d * c2)


def _flower22(t2: Ring, tc: Ring, c2: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    square = 2 * d * tc + (x - d) * c2
    return t2 * ((y - d) * d * t2 + 4 * d * d * tc + 2 * (x - d) * d * c2), square * square


def _flower13(t2: Ring, tc: Ring, c2: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    x1 = x - d
    joined = tc * (4 * d * d * t2 + 3 * x1 * d * tc + x1 * x1 * c2)
    if y != d:  # on y = 1 the quartic-size square (t^2)^2 drops out
        joined = (y - d) * d * (t2 * t2) + joined
    return joined, c2 * (3 * d * d * t2 + 3 * x1 * d * tc + x1 * x1 * c2)


_STEPS: dict[LatticeFamily, Callable[..., Tuple[Ring, Ring]]] = {
    LatticeFamily.FRACTAL: lambda t2, tc, c2, x, y, d: (
        _fractal(t2, tc, c2, x, y, d), _fractal(c2, tc, t2, y, x, d)),
    LatticeFamily.FLOWER22: _flower22,
    LatticeFamily.FLOWER13: _flower13,
}


def _rule(family: LatticeFamily, t: Ring, c: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    """The next (joined, cofactor) from the pair (t, c), each part formed on its own."""
    return _STEPS[family](t * t, t * c, c * c, x, y, d)


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
    """Full Tutte polynomial of generation n, assembled from the split."""
    return tutte_pair(family, n).assemble()


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


def _eval_numerators(family: LatticeFamily, n: int, big_x: int, big_y: int, d: int,
                     base: int, power_bits: int = 0, one: Ring = 1) -> Tuple[Ring, Ring, Ring]:
    """(J, C, den) in the ring of one: (J/den, C/den) is the split state at
    x = X/D, y = Y/D times (D/base)^e, e = 2 (4^n - 1) / 3, so base = D gives
    the state itself.

    Before the first step the size rule predicts e bits(max(|X|, |Y|, D, base))
    plus the bits of any power the caller forms with the result, power_bits:
    J and C are homogeneous of degree e in (X, Y, D), and den divides base^e.

    Each step runs in the ring and sets den -> den^4 base^2, so every prime of
    den divides base; then J, C and den are divided by g = gcd(J, C, den, base),
    found from their remainders by base, while g > 1, and no common factor is
    carried into the next step to be raised to the fourth.
    """
    top = max(abs(big_x), abs(big_y), d, base)
    _check_size("exact value", 2 * _four_sum(n) * top.bit_length() + power_bits)
    joined = cofactor = den = one
    for _ in range(n):
        joined, cofactor = _rule(family, joined, cofactor, big_x, big_y, d)
        den = den ** 4 * base * base
        while (g := math.gcd(int(joined % base), int(cofactor % base), int(den % base), base)) > 1:
            joined, cofactor, den = joined // g, cofactor // g, den // g
    return joined, cofactor, den


def eval_pair(family: LatticeFamily, n: int,
              x: Union[int, Fraction], y: Union[int, Fraction]) -> TuttePair:
    """Split state evaluated at a rational point, without symbolic blowup:
    each part of (J/den, C/den) is brought to lowest terms once."""
    big_x, big_y, d = _homogeneous(Fraction(x), Fraction(y))
    joined, cofactor, den = _eval_numerators(family, n, big_x, big_y, d, d)
    return TuttePair(_coprime(*lowest_terms(joined, den, d)),
                     _coprime(*lowest_terms(cofactor, den, d)))


def _tutte_value(family: LatticeFamily, n: int, x: Union[int, Fraction], y: Union[int, Fraction],
                 one: Ring) -> Tuple[Ring, Ring]:
    """tutte_eval's value as (numerator, denominator) in lowest terms, in the ring of one."""
    big_x, big_y, d = _homogeneous(Fraction(x), Fraction(y))
    joined, cofactor, den = _eval_numerators(family, n, big_x, big_y, d, d, one=one)
    return lowest_terms(d * joined + (big_x - d) * cofactor, d * den, d)


def tutte_eval(family: LatticeFamily, n: int,
               x: Union[int, Fraction], y: Union[int, Fraction]) -> Fraction:
    """Exact value of the generation-n Tutte polynomial at a rational point:
    J + (x - 1) C = (D J + (X - D) C) / (D den), brought to lowest terms once."""
    return _coprime(*_tutte_value(family, n, x, y, 1))
