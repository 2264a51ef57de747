"""Generation-to-generation recursion for the Tutte polynomial split.

The state carried between generations is a pair: the part of the Tutte sum
coming from edge subsets that join the special vertex pair, and the cofactor
of the remaining part after its guaranteed (x - 1) factor is pulled out.
One step expresses the next pair in the four copies glued for the family;
the full polynomial is reassembled as joined + (x - 1) * cofactor.

The step rules are written once over an arbitrary commutative ring, so the
same code runs symbolically on polynomials and pointwise on exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Tuple, Union

from .bipoly import BiPoly
from .errors import CapExceeded
from .lattices import LatticeFamily

SYMBOLIC_GENERATION_CAP = 4
EVAL_GENERATION_CAP = 10

Ring = Union[BiPoly, Fraction]


@dataclass(frozen=True)
class TuttePair:
    """Split state: joined part and the (x - 1)-cofactor of the severed part."""

    joined: BiPoly
    cofactor: BiPoly

    def assemble(self) -> BiPoly:
        return self.joined + (BiPoly.x() - 1) * self.cofactor


class EvalPair(NamedTuple):
    joined: Fraction
    cofactor: Fraction


# Each rule adds every quartic product (t^4, t^3 c, t^2 c^2, t c^3, c^4) to
# its partial sums as soon as it is formed and drops it after its last use,
# so symbolically at most one of them is alive beside the two partial sums.


def _step_fractal(t: Ring, c: Ring, x: Ring, y: Ring) -> Tuple[Ring, Ring]:
    t2 = t * t
    c2 = c * c
    tc = t * c
    t2c2 = tc * tc
    joined = (2 * x + 2) * t2c2
    cofactor = (2 * y + 2) * t2c2
    del t2c2
    joined = joined + y * (y - 1) * (t2 * t2)
    joined = joined + 4 * y * (t2 * tc)
    cofactor = cofactor + 4 * x * (tc * c2)
    cofactor = cofactor + x * (x - 1) * (c2 * c2)
    return joined, cofactor


def _step_flower22(t: Ring, c: Ring, x: Ring, y: Ring) -> Tuple[Ring, Ring]:
    t2 = t * t
    c2 = c * c
    tc = t * c
    t2c2 = tc * tc
    joined = 2 * (x - 1) * t2c2
    cofactor = 4 * t2c2
    del t2c2
    joined = joined + (y - 1) * (t2 * t2)
    joined = joined + 4 * (t2 * tc)
    cofactor = cofactor + 4 * (x - 1) * (tc * c2)
    cofactor = cofactor + (x - 1) * (x - 1) * (c2 * c2)
    return joined, cofactor


def _step_flower13(t: Ring, c: Ring, x: Ring, y: Ring) -> Tuple[Ring, Ring]:
    t2 = t * t
    c2 = c * c
    tc = t * c
    xm1 = x - 1
    t2c2 = tc * tc
    joined = 3 * xm1 * t2c2
    cofactor = 3 * t2c2
    del t2c2
    tcc2 = tc * c2
    joined = joined + xm1 * xm1 * tcc2
    cofactor = cofactor + 3 * xm1 * tcc2
    del tcc2
    joined = joined + (y - 1) * (t2 * t2)
    joined = joined + 4 * (t2 * tc)
    cofactor = cofactor + xm1 * xm1 * (c2 * c2)
    return joined, cofactor


_STEP_RULES: dict[LatticeFamily, Callable[[Ring, Ring, Ring, Ring], Tuple[Ring, Ring]]] = {
    LatticeFamily.FRACTAL: _step_fractal,
    LatticeFamily.FLOWER22: _step_flower22,
    LatticeFamily.FLOWER13: _step_flower13,
}


def initial_pair() -> TuttePair:
    """Generation 0 is a single edge: joined part 1, cofactor 1."""
    return TuttePair(BiPoly.one(), BiPoly.one())


def step(family: LatticeFamily, pair: TuttePair) -> TuttePair:
    rule = _STEP_RULES[family]
    joined, cofactor = rule(pair.joined, pair.cofactor, BiPoly.x(), BiPoly.y())
    return TuttePair(joined, cofactor)


def step_fractal(pair: TuttePair) -> TuttePair:
    return step(LatticeFamily.FRACTAL, pair)


def step_flower22(pair: TuttePair) -> TuttePair:
    return step(LatticeFamily.FLOWER22, pair)


def step_flower13(pair: TuttePair) -> TuttePair:
    return step(LatticeFamily.FLOWER13, pair)


def tutte_pair(family: LatticeFamily, n: int,
               generation_cap: int = SYMBOLIC_GENERATION_CAP) -> TuttePair:
    """Symbolic split state after n recursion steps."""
    if n < 0:
        raise ValueError("generation must be nonnegative")
    if n > generation_cap:
        raise CapExceeded(
            f"symbolic generation {n} exceeds cap {generation_cap}; "
            "raise the cap explicitly to go further"
        )
    pair = initial_pair()
    for _ in range(n):
        pair = step(family, pair)
    return pair


def tutte_symbolic(family: LatticeFamily, n: int,
                   generation_cap: int = SYMBOLIC_GENERATION_CAP) -> BiPoly:
    """Full Tutte polynomial of generation n, assembled from the split."""
    return tutte_pair(family, n, generation_cap).assemble()


def eval_pair(family: LatticeFamily, n: int,
              x: Union[int, Fraction], y: Union[int, Fraction],
              generation_cap: int = EVAL_GENERATION_CAP) -> EvalPair:
    """Split state evaluated at a rational point, without symbolic blowup."""
    if n < 0:
        raise ValueError("generation must be nonnegative")
    if n > generation_cap:
        raise CapExceeded(f"evaluation generation {n} exceeds cap {generation_cap}")
    x = Fraction(x)
    y = Fraction(y)
    joined, cofactor = Fraction(1), Fraction(1)
    rule = _STEP_RULES[family]
    for _ in range(n):
        joined, cofactor = rule(joined, cofactor, x, y)
    return EvalPair(joined, cofactor)


def tutte_eval(family: LatticeFamily, n: int,
               x: Union[int, Fraction], y: Union[int, Fraction],
               generation_cap: int = EVAL_GENERATION_CAP) -> Fraction:
    """Exact value of the generation-n Tutte polynomial at a rational point."""
    joined, cofactor = eval_pair(family, n, x, y, generation_cap)
    return joined + (Fraction(x) - 1) * cofactor
