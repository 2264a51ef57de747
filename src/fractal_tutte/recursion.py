"""Generation-to-generation recursion for the Tutte polynomial split.

The state carried between generations is a pair: the part of the Tutte sum
coming from edge subsets that join the special vertex pair, and the cofactor
of the remaining part after its guaranteed (x - 1) factor is pulled out.
One step expresses the next pair in the four copies glued for the family;
the full polynomial is reassembled as joined + (x - 1) * cofactor.

Each part of the next pair is a quartic form in the pair (t, c).  One table
states, for each family, the products that form each part from t^2, t c and
c^2, over any commutative ring; one rule runs it symbolically on polynomials
and pointwise on the integer numerators of a rational point.  After t^2,
t c and c^2, the parts take these quartic-size products:

- fractal: joined = t^2 (y(y - 1) t^2 + 4y t c + 2(x + 1) c^2), and the
  cofactor is the same with x and y swapped and t and c swapped;
- flower22: joined = t^2 ((y - 1) t^2 + 4 t c + 2(x - 1) c^2), and the
  cofactor is the square (2 t c + (x - 1) c^2)^2;
- flower13: joined = (y - 1) (t^2)^2 + t c (4 t^2 + 3(x - 1) t c + (x - 1)^2 c^2),
  and the cofactor is c^2 (3 t^2 + 3(x - 1) t c + (x - 1)^2 c^2).

A square is formed as u * u on one object, which both radices of the
packed polynomial product, and int multiplication, do faster than a
product of two operands.  The fractal's cofactor is its joined part with x
and y swapped, so its symbolic step forms the joined part alone and
transposes it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Tuple, Union

from .bipoly import BiPoly, _canonical
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


# A product (scale, outer, inner) of a plan stands for scale * s * L, where L
# is the linear form in (t^2, t c, c^2) with the coefficients inner, and s is
# t^2, t c or c^2 by the index outer, or L itself if outer is None.
Product = Tuple[Ring, Optional[int], Tuple[Ring, Ring, Ring]]
Plan = Callable[[Ring, Ring, int], Tuple[Product, ...]]

_T2, _TC, _C2 = 0, 1, 2

# Each part of the next pair is a sum of products, stated by a plan: a
# function of (x, y, d) that gives the products.  Every product's
# coefficients in t^4, t^3 c, ..., c^4 are homogeneous quadratics in
# (x, y, d).  With d = 1 the step is at (x, y), symbolic or not; with
# integers X, Y, D it maps numerators over D^e to numerators over D^(4e + 2)
# at (X/D, Y/D).
#
# Each family has a (joined, cofactor) pair of plans.  A cofactor plan of
# None stands for the dual of the joined plan: x and y swapped, and t and c,
# which swaps t^2 and c^2.  The fractal's two parts are dual in this sense,
# and its step is stated once.
_QUARTIC_FORMS: dict[LatticeFamily, Tuple[Plan, Optional[Plan]]] = {
    LatticeFamily.FRACTAL: (
        lambda x, y, d: ((1, _T2, (y * (y - d), 4 * y * d, 2 * (x + d) * d)),),
        None),
    LatticeFamily.FLOWER22: (
        lambda x, y, d: ((1, _T2, ((y - d) * d, 4 * d * d, 2 * (x - d) * d)),),
        lambda x, y, d: ((1, None, (0, 2 * d, x - d)),)),
    LatticeFamily.FLOWER13: (
        lambda x, y, d: (((y - d) * d, None, (1, 0, 0)),
                         (1, _TC, (4 * d * d, 3 * (x - d) * d, (x - d) * (x - d)))),
        lambda x, y, d: ((1, _C2, (3 * d * d, 3 * (x - d) * d, (x - d) * (x - d))),)),
}


def _quartic(products: Tuple[Product, ...], quadratics: Tuple[Ring, Ring, Ring]) -> Ring:
    """The sum of the products at quadratics = (t^2, t c, c^2), one
    multiplication each; a product whose scale or linear form vanishes is
    skipped."""
    total = None
    for scale, outer, inner in products:
        if not scale:
            continue
        form = None
        for a, u in zip(inner, quadratics):
            if a:
                u = u if a == 1 else a * u
                form = u if form is None else form + u
        if form is None:
            continue
        term = form * (form if outer is None else quadratics[outer])
        if scale != 1:
            term = scale * term
        total = term if total is None else total + term
    return 0 if total is None else total


def _rule(family: LatticeFamily, t: Ring, c: Ring, x: Ring, y: Ring, d: int) -> Tuple[Ring, Ring]:
    """The next (joined, cofactor) from the pair (t, c), each part formed on
    its own; a dual cofactor is the joined plan at (y, x) on (c^2, t c, t^2)."""
    quadratics = (t * t, t * c, c * c)
    joined, cofactor = _QUARTIC_FORMS[family]
    if cofactor is None:
        return _quartic(joined(x, y, d), quadratics), _quartic(joined(y, x, d), quadratics[::-1])
    return _quartic(joined(x, y, d), quadratics), _quartic(cofactor(x, y, d), quadratics)


def initial_pair() -> TuttePair:
    """Generation 0 is a single edge: joined part 1, cofactor 1."""
    return TuttePair(BiPoly.one(), BiPoly.one())


def step(family: LatticeFamily, pair: TuttePair) -> TuttePair:
    """One symbolic generation step.  It has no cap: starting from
    initial_pair() and stepping n times runs past SYMBOLIC_GENERATION_CAP.

    When the family's cofactor plan is the dual of its joined plan and the
    cofactor is the joined part with x and y swapped, as for initial_pair(),
    the next pair is dual too, since swapping x and y maps one plan onto the
    other.  Then only the joined part is formed, from t^2, t c and
    c^2 = (t^2) transposed, and the next cofactor is its transpose.
    """
    t, c = pair
    x, y = BiPoly.x(), BiPoly.y()
    joined_form, cofactor_form = _QUARTIC_FORMS[family]
    if cofactor_form is None and c == t.transpose():
        t2 = t * t
        joined = _quartic(joined_form(x, y, 1), (t2, t * c, t2.transpose()))
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
