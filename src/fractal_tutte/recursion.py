"""Generation-to-generation recursion for the Tutte polynomial split.

The state carried between generations is a pair: the part of the Tutte sum
coming from edge subsets that join the special vertex pair, and the cofactor
of the remaining part after its guaranteed (x - 1) factor is pulled out.
One step expresses the next pair in the four copies glued for the family;
the full polynomial is reassembled as joined + (x - 1) * cofactor.

The step rules are written once, homogeneously, over an arbitrary commutative
ring, so the same code runs symbolically on polynomials and pointwise on the
integer numerators of a rational point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Tuple, Union

from .bipoly import BiPoly
from .errors import CapExceeded
from .lattices import LatticeFamily, check_generation

SYMBOLIC_GENERATION_CAP = 4
EVAL_GENERATION_CAP = 10
EVAL_NUMERATOR_BITS_CAP = 1 << 24

Ring = Union[BiPoly, int]


class TuttePair(NamedTuple):
    """Split state: joined part and the (x - 1)-cofactor of the severed part,
    as polynomials, or as values at a point when eval_pair returns it."""

    joined: Union[BiPoly, Fraction]
    cofactor: Union[BiPoly, Fraction]

    def assemble(self) -> BiPoly:
        return self.joined + (BiPoly.x() - 1) * self.cofactor


# Each rule is written homogeneously in (x, y, d): its coefficients have
# degree at most 2 in (x, y) and are scaled by d^2.  With d = 1 it is the
# step at (x, y), symbolic or not; with integers X, Y, D it maps numerators
# over D^e to numerators over D^(4e + 2) at the point (X/D, Y/D).
#
# Each rule adds every quartic product (t^4, t^3 c, t^2 c^2, t c^3, c^4) to
# its partial sums as soon as it is formed and drops it after its last use,
# so symbolically at most one of them is alive beside the two partial sums.


def _fractal_rule(t: Ring, c: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    t2 = t * t
    c2 = c * c
    tc = t * c
    t2c2 = tc * tc
    joined = (2 * x * d + 2 * d * d) * t2c2
    cofactor = (2 * y * d + 2 * d * d) * t2c2
    del t2c2
    joined = joined + y * (y - d) * (t2 * t2)
    joined = joined + 4 * y * d * (t2 * tc)
    cofactor = cofactor + 4 * x * d * (tc * c2)
    cofactor = cofactor + x * (x - d) * (c2 * c2)
    return joined, cofactor


def _flower22_rule(t: Ring, c: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    t2 = t * t
    c2 = c * c
    tc = t * c
    xm1 = x - d
    t2c2 = tc * tc
    joined = 2 * xm1 * d * t2c2
    cofactor = 4 * d * d * t2c2
    del t2c2
    joined = joined + (y - d) * d * (t2 * t2)
    joined = joined + 4 * d * d * (t2 * tc)
    cofactor = cofactor + 4 * xm1 * d * (tc * c2)
    cofactor = cofactor + xm1 * xm1 * (c2 * c2)
    return joined, cofactor


def _flower13_rule(t: Ring, c: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    t2 = t * t
    c2 = c * c
    tc = t * c
    xm1 = x - d
    t2c2 = tc * tc
    joined = 3 * xm1 * d * t2c2
    cofactor = 3 * d * d * t2c2
    del t2c2
    tcc2 = tc * c2
    joined = joined + xm1 * xm1 * tcc2
    cofactor = cofactor + 3 * xm1 * d * tcc2
    del tcc2
    joined = joined + (y - d) * d * (t2 * t2)
    joined = joined + 4 * d * d * (t2 * tc)
    cofactor = cofactor + xm1 * xm1 * (c2 * c2)
    return joined, cofactor


_STEP_RULES: dict[LatticeFamily, Callable[[Ring, Ring, Ring, Ring, int], Tuple[Ring, Ring]]] = {
    LatticeFamily.FRACTAL: _fractal_rule,
    LatticeFamily.FLOWER22: _flower22_rule,
    LatticeFamily.FLOWER13: _flower13_rule,
}


def initial_pair() -> TuttePair:
    """Generation 0 is a single edge: joined part 1, cofactor 1."""
    return TuttePair(BiPoly.one(), BiPoly.one())


def step(family: LatticeFamily, pair: TuttePair) -> TuttePair:
    """One symbolic generation step.  It has no cap: starting from
    initial_pair() and stepping n times runs past SYMBOLIC_GENERATION_CAP."""
    rule = _STEP_RULES[family]
    return TuttePair(*rule(pair.joined, pair.cofactor, BiPoly.x(), BiPoly.y(), 1))


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


def lowest_terms(numerator: int, denominator: int, base: int) -> Fraction:
    """numerator/denominator as a Fraction, given that every prime factor of
    the positive denominator divides the small positive base.

    Every gcd taken has base, or a divisor of it, as one operand, so the
    common case of a fraction already in lowest terms costs two remainders
    by base; base itself is never factored.
    """
    if not numerator:
        return Fraction(0)
    while True:
        shared = math.gcd(denominator % base, base)
        g = math.gcd(numerator % shared, shared)
        if g == 1:
            return _coprime(numerator, denominator)
        # Divide by g, g^2, g^4, ... while both stay divisible.
        power = g
        while True:
            num, num_rem = divmod(numerator, power)
            den, den_rem = divmod(denominator, power)
            if num_rem or den_rem:
                break
            numerator, denominator, power = num, den, power * power


def _eval_numerators(family: LatticeFamily, n: int, x: Union[int, Fraction],
                     y: Union[int, Fraction]) -> Tuple[int, int, int, int, int]:
    """(J, C, e, X, D): the split state at x = X/D, y = Y/D is (J/D^e, C/D^e).

    The steps run on integers, and e -> 4e + 2 per step.  Powers of D that
    both numerators share are taken out after each step; on the line x = 1
    of the flowers they are about half of D^e, and left in they would make
    every later product twice as long.
    """
    check_generation(n, EVAL_GENERATION_CAP)
    big_x, big_y, d = _homogeneous(Fraction(x), Fraction(y))
    # The numerators are homogeneous of degree e_n = 2 (4^n - 1) / 3 in (X, Y, D).
    predicted = 2 * (4 ** n - 1) // 3 * max(abs(big_x), abs(big_y), d).bit_length()
    if predicted > EVAL_NUMERATOR_BITS_CAP:
        raise CapExceeded(f"evaluation numerators of about {predicted} bits exceed cap "
                          f"{EVAL_NUMERATOR_BITS_CAP}")
    joined, cofactor, e = 1, 1, 0
    rule = _STEP_RULES[family]
    for _ in range(n):
        joined, cofactor = rule(joined, cofactor, big_x, big_y, d)
        e = 4 * e + 2
        while e and d > 1 and not (joined % d or cofactor % d):
            joined //= d
            cofactor //= d
            e -= 1
    return joined, cofactor, e, big_x, d


def eval_pair(family: LatticeFamily, n: int,
              x: Union[int, Fraction], y: Union[int, Fraction]) -> TuttePair:
    """Split state evaluated at a rational point, without symbolic blowup;
    each part is reduced once."""
    joined, cofactor, e, _, d = _eval_numerators(family, n, x, y)
    scale = d ** e
    return TuttePair(lowest_terms(joined, scale, d), lowest_terms(cofactor, scale, d))


def tutte_eval(family: LatticeFamily, n: int,
               x: Union[int, Fraction], y: Union[int, Fraction]) -> Fraction:
    """Exact value of the generation-n Tutte polynomial at a rational point:
    J + (x - 1) C over D^(e + 1), reduced once."""
    joined, cofactor, e, big_x, d = _eval_numerators(family, n, x, y)
    return lowest_terms(d * joined + (big_x - d) * cofactor, d ** (e + 1), d)
