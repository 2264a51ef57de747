"""Generation-to-generation recursion for the Tutte polynomial split.

The state carried between generations is a pair: the part of the Tutte sum
coming from edge subsets that join the special vertex pair, and the cofactor
of the remaining part after its guaranteed (x - 1) factor is pulled out.
One step expresses the next pair in the four copies glued for the family;
the full polynomial is reassembled as joined + (x - 1) * cofactor.

One table holds each family's step as quartic forms in the pair, over any
commutative ring; one rule, grouped by t^2 and c^2, runs it symbolically on
polynomials and pointwise on the integer numerators of a rational point.
The fractal's cofactor is its joined part with x and y swapped, so its
symbolic step forms the joined part alone and transposes it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Tuple, Union

from .bipoly import BiPoly
from .errors import CapExceeded
from .lattices import LatticeFamily, check_generation

SYMBOLIC_GENERATION_CAP = 4
EVAL_NUMERATOR_BITS_CAP = 1 << 24

Ring = Union[BiPoly, int]


def _check_size(what: str, bits: int) -> None:
    """The one cap on exact values: refuse one predicted past EVAL_NUMERATOR_BITS_CAP bits."""
    if bits > EVAL_NUMERATOR_BITS_CAP:
        # A prediction can itself have 2^24 bits, far too many digits to print.
        size = bits if bits < 1 << 64 else f"2^{math.log2(bits):.0f}"
        raise CapExceeded(f"{what} of about {size} bits exceeds cap {EVAL_NUMERATOR_BITS_CAP}")


def _four_sum(n: int) -> int:
    """1 + 4 + ... + 4^(n - 1) = (4^n - 1) / 3, a lower bound on every other exact
    value's predicted bits; refused by its own 2n - 1 bits before 4^n is formed."""
    check_generation(n)
    _check_size(f"(4^{n} - 1) / 3", 2 * n - 1)
    return ((1 << 2 * n) - 1) // 3


class TuttePair(NamedTuple):
    """Split state: joined part and the (x - 1)-cofactor of the severed part,
    as polynomials, or at a point from eval_pair.  assemble() works on the
    symbolic pair only; tutte_eval gives the assembled value at a point."""

    joined: Union[BiPoly, Fraction]
    cofactor: Union[BiPoly, Fraction]

    def assemble(self) -> BiPoly:
        return self.joined + (BiPoly.x() - 1) * self.cofactor


Form = Callable[[Ring, Ring, int], Tuple[Ring, ...]]

# The next joined part and cofactor are quartic forms in the pair (t, c):
# each form gives their coefficients of t^4, t^3 c, t^2 c^2, t c^3 and c^4,
# with 0 where a term is absent.  Each coefficient, of degree at most 2 in
# (x, y), is written as a homogeneous quadratic in (x, y, d).  With d = 1 the
# step is at (x, y), symbolic or not; with integers X, Y, D it maps
# numerators over D^e to numerators over D^(4e + 2) at (X/D, Y/D).
#
# Each family has a (joined, cofactor) pair of forms.  A cofactor form of
# None stands for the dual of the joined form: x and y swapped, and t and c,
# which reverses the coefficient tuple.  The fractal's two parts are dual in
# this sense, and its step is stated once.
_QUARTIC_FORMS: dict[LatticeFamily, Tuple[Form, Optional[Form]]] = {
    LatticeFamily.FRACTAL: (
        lambda x, y, d: (y * (y - d), 4 * y * d, 2 * (x + d) * d, 0, 0),
        None),
    LatticeFamily.FLOWER22: (
        lambda x, y, d: ((y - d) * d, 4 * d * d, 2 * (x - d) * d, 0, 0),
        lambda x, y, d: (0, 0, 4 * d * d, 4 * (x - d) * d, (x - d) * (x - d))),
    LatticeFamily.FLOWER13: (
        lambda x, y, d: ((y - d) * d, 4 * d * d, 3 * (x - d) * d, (x - d) * (x - d), 0),
        lambda x, y, d: (0, 0, 3 * d * d, 3 * (x - d) * d, (x - d) * (x - d))),
}


def _forms(family: LatticeFamily, x: Ring, y: Ring,
           d: int) -> Tuple[Tuple[Ring, ...], Tuple[Ring, ...]]:
    """The coefficients of the family's joined and cofactor forms at (x, y, d)."""
    joined, cofactor = _QUARTIC_FORMS[family]
    return joined(x, y, d), (cofactor(x, y, d) if cofactor else joined(y, x, d)[::-1])


def _quartic(form: Tuple[Ring, ...], t2: Ring, tc: Ring, c2: Ring) -> Ring:
    """a0 t^4 + a1 t^3 c + a2 t^2 c^2 + a3 t c^3 + a4 c^4 from t^2, t c and c^2,
    summed as t^2 (a0 t^2 + a1 t c + a2 c^2) + c^2 (a3 t c + a4 c^2), the a2
    term going to the c^2 group if that is nonempty: one quartic-size
    product per nonempty group."""
    a0, a1, a2, a3, a4 = form
    c2_used = a3 or a4
    total = 0
    for square, terms in ((t2, ((a0, t2), (a1, tc), (0 if c2_used else a2, c2))),
                          (c2, ((a2 if c2_used else 0, t2), (a3, tc), (a4, c2)))):
        group = None
        for a, u in terms:
            if a:
                group = a * u if group is None else group + a * u
        if group is not None:
            total = total + square * group
    return total


def _rule(family: LatticeFamily, t: Ring, c: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    """The next (joined, cofactor) from the pair (t, c), each part formed on its own."""
    t2, c2, tc = t * t, c * c, t * c
    joined, cofactor = _forms(family, x, y, d)
    return _quartic(joined, t2, tc, c2), _quartic(cofactor, t2, tc, c2)


def initial_pair() -> TuttePair:
    """Generation 0 is a single edge: joined part 1, cofactor 1."""
    return TuttePair(BiPoly.one(), BiPoly.one())


def step(family: LatticeFamily, pair: TuttePair) -> TuttePair:
    """One symbolic generation step.  It has no cap: starting from
    initial_pair() and stepping n times runs past SYMBOLIC_GENERATION_CAP.

    When the family's cofactor form is the dual of its joined form and the
    cofactor is the joined part with x and y swapped, as for initial_pair(),
    the next pair is dual too, since swapping x and y maps one form onto the
    other.  Then only the joined part is formed, from t^2, t c and
    c^2 = (t^2) transposed, and the next cofactor is its transpose.
    """
    t, c = pair
    x, y = BiPoly.x(), BiPoly.y()
    joined_form, cofactor_form = _QUARTIC_FORMS[family]
    if cofactor_form is None and c == t.transpose():
        t2 = t * t
        joined = _quartic(joined_form(x, y, 1), t2, t * c, t2.transpose())
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


def _numerator_bits(n: int, big_x: int, big_y: int, d: int) -> int:
    """Predicted bits of the generation-n numerators at (X/D, Y/D), which
    are homogeneous of degree e_n = 2 (4^n - 1) / 3 in (X, Y, D)."""
    return 2 * _four_sum(n) * max(abs(big_x), abs(big_y), d).bit_length()


def _eval_numerators(family: LatticeFamily, n: int, x: Union[int, Fraction],
                     y: Union[int, Fraction]) -> Tuple[int, int, int, int, int]:
    """(J, C, e, X, D): the split state at x = X/D, y = Y/D is (J/D^e, C/D^e).

    The steps run on integers, and e -> 4e + 2 per step.  Powers of D that
    both numerators share are taken out after each step; on the line x = 1
    of the flowers they are about half of D^e, and left in they would make
    every later product twice as long.
    """
    big_x, big_y, d = _homogeneous(Fraction(x), Fraction(y))
    _check_size("evaluation numerators", _numerator_bits(n, big_x, big_y, d))
    joined, cofactor, e = 1, 1, 0
    for _ in range(n):
        joined, cofactor = _rule(family, joined, cofactor, big_x, big_y, d)
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
