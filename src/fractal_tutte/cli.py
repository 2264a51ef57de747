"""Command-line interface.

Subcommands: gen, tutte, eval, invariant, potts, growth, verify.  Results go
to stdout (or --out) and are byte-identical across repeated invocations;
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 resource cap exceeded, 4 domain error.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import checks, invariants, oracle, recursion
from .bipoly import EXACT_CONTEXT
from .errors import CapExceeded, DomainError
from .lattices import LatticeFamily, build_lattice, edge_chunks, edge_list_chunks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_DOMAIN = 4

# Exact values are worked out in the decimal ring, whose str() is linear in
# the length (an int's is capped at 4300 digits and quadratic on 3.11), each
# operation in a local copy of EXACT_CONTEXT, never the caller's context.
_ONE = decimal.Decimal(1)

# tutte --mode oracle runs the subset oracle's vertex elimination alone: at
# n = 3 it takes about 0.2 s for the fractal and 0.03 s for either flower;
# fractal n = 4 takes about 15 s.
ORACLE_MODE_GENERATION_CAP = 3


def _family(text: str) -> LatticeFamily:
    try:
        return LatticeFamily(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown family {text!r}; expected one of "
            + ", ".join(f.value for f in LatticeFamily)
        )


def _rational(text: str) -> Fraction:
    """An integer, p/q or decimal argument, exactly.  Its numerator and
    denominator may have no more digits than int parsing allows (4300 if the
    interpreter has no such limit), so that the record can print them.
    Fraction expands an exponent as a power of ten, which that limit does
    not guard, so a longer exponent is refused before the power is built."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
    _, marker, exponent = text.lower().partition("e")
    try:
        if not (marker and limit and abs(int(exponent)) > limit):
            value = Fraction(text)
            if not limit or max(abs(value.numerator), value.denominator) < 10 ** limit:
                return value
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected an integer or p/q rational, got {text!r}")
    raise argparse.ArgumentTypeError(f"{text!r} has more than {limit} digits")


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _rational_value(numerator: decimal.Decimal, denominator: decimal.Decimal) -> Union[str, dict]:
    if denominator == 1:
        return str(numerator)
    return {"num": str(numerator), "den": str(denominator)}


def _dumps(record: dict) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractal-tutte",
        description="Exact Tutte polynomials and invariants of self-similar lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", type=_family, required=True)
        p.add_argument("--n", type=_nonnegative, required=True)
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p_gen = sub.add_parser("gen", help="emit a lattice generation as a graph")
    add_common(p_gen)
    p_gen.add_argument("--format", choices=("text", "json"), default="text")

    p_tutte = sub.add_parser("tutte", help="full Tutte polynomial of a generation")
    add_common(p_tutte)
    p_tutte.add_argument("--mode", choices=("recursive", "oracle"), default="recursive")
    p_tutte.add_argument("--format", choices=("json", "text"), default="json")

    p_eval = sub.add_parser("eval", help="exact value at a rational point")
    add_common(p_eval)
    p_eval.add_argument("--x", type=_rational, required=True)
    p_eval.add_argument("--y", type=_rational, required=True)

    p_inv = sub.add_parser("invariant", help="closed-form invariant of a generation")
    add_common(p_inv)
    p_inv.add_argument(
        "--quantity",
        choices=("spanning-trees", "acyclic-root-connected",
                 "indegree-sequences", "bicycle-dimension"),
        required=True,
    )

    p_potts = sub.add_parser("potts", help="Potts partition function of a generation")
    add_common(p_potts)
    p_potts.add_argument("--q", type=_rational, required=True)
    p_potts.add_argument("--v", type=_rational, required=True)

    p_growth = sub.add_parser("growth", help="spanning-tree growth constant")
    p_growth.add_argument("--family", type=_family, required=True)
    p_growth.add_argument("--n-max", type=int, default=8)
    p_growth.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run the oracle and closed-form gates")
    p_verify.add_argument("--n-max", type=int, default=checks.ORACLE_GATE_CAP)
    p_verify.add_argument("--out", default=None)
    return parser


def _cmd_gen(args) -> Iterator[str]:
    """The lattice in pieces, so that no copy of the whole text is held."""
    g = build_lattice(args.family, args.n)
    if args.format == "text":
        return edge_list_chunks(g)
    record = {
        "family": args.family.value,
        "n": args.n,
        "vertices": g.vertex_count,
        "special_x": g.special_x,
        "special_y": g.special_y,
        "edges": [],
    }
    # The record ends with '"edges":[]}\n'; the edge chunks go inside the
    # brackets, each edge led by a comma that the first one drops.
    head = _dumps(record)[:-3]
    chunks = edge_chunks(g, ",[%d,%d]")
    return chain([head, next(chunks, ",")[1:]], chunks, ["]}\n"])


def _cmd_tutte(args) -> str:
    if args.mode == "recursive":
        poly = recursion.tutte_symbolic(args.family, args.n)
    else:
        if args.n > ORACLE_MODE_GENERATION_CAP:
            raise CapExceeded(f"oracle mode is limited to generation {ORACLE_MODE_GENERATION_CAP}")
        poly = oracle.tutte_subgraph_expansion(build_lattice(args.family, args.n))
    if args.format == "json":
        return poly.to_json() + "\n"
    return str(poly) + "\n"


def _cmd_eval(args) -> str:
    with decimal.localcontext(EXACT_CONTEXT):
        value = _rational_value(*recursion._tutte_value(args.family, args.n, args.x, args.y, _ONE))
    record = {
        "family": args.family.value,
        "n": args.n,
        "quantity": "tutte-eval",
        "x": str(args.x),
        "y": str(args.y),
        "value": value,
    }
    return _dumps(record)


def _cmd_invariant(args) -> str:
    family, n = args.family, args.n
    if args.quantity != "spanning-trees" and family is not LatticeFamily.FRACTAL:
        raise DomainError(
            f"quantity {args.quantity!r} has a closed form only for the fractal family"
        )
    with decimal.localcontext(EXACT_CONTEXT):
        if args.quantity == "spanning-trees":
            value = invariants._spanning_trees(family, n, _ONE)
        elif args.quantity == "acyclic-root-connected":
            value = invariants._acyclic_orientations(n, _ONE)
        elif args.quantity == "indegree-sequences":
            value = invariants._indegree_sequences(n, _ONE)
        else:
            value = recursion._four_sum(n, _ONE)  # the bicycle-space dimension
        digits = str(value)
    record = {
        "family": family.value,
        "n": n,
        "quantity": args.quantity,
        "value": digits,
    }
    return _dumps(record)


def _cmd_potts(args) -> str:
    params = invariants.PottsParams(args.q, args.v)
    with decimal.localcontext(EXACT_CONTEXT):
        value = _rational_value(*invariants._potts_value(args.family, args.n, params, _ONE))
    record = {
        "family": args.family.value,
        "n": args.n,
        "quantity": "potts-partition",
        "q": str(params.q),
        "v": str(params.v),
        "value": value,
    }
    return _dumps(record)


def _cmd_growth(args) -> str:
    growth = invariants.growth_constant(args.family, args.n_max)
    record = {
        "family": args.family.value,
        "quantity": "growth-constant",
        "n_max": args.n_max,
        "exact": growth.exact_form,
        "decimal": growth.decimal,
        "sequence": [[n, value] for n, value in growth.sequence],
    }
    return _dumps(record)


def _cmd_verify(args) -> tuple[str, int]:
    results = checks.run_gates(oracle_n_max=args.n_max)
    width = max(len(r.name) for r in results)
    lines = []
    failures = [r for r in results if not r.passed]
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}")
    lines.append(f"{len(results) - len(failures)}/{len(results)} gates passed")
    if failures:
        print(f"first failing gate: {failures[0].name}: {failures[0].detail}",
              file=sys.stderr)
    return "\n".join(lines) + "\n", EXIT_VERIFY_FAILED if failures else EXIT_OK


def _write(output: Union[str, Iterable[str]], out: Optional[str]) -> None:
    """Write a result, given whole or as an iterable of pieces."""
    pieces = [output] if isinstance(output, str) else output
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not 0 <= args.n_max <= checks.ORACLE_GATE_CAP:
        parser.error(f"verify --n-max must lie in 0..{checks.ORACLE_GATE_CAP}")
    if args.command == "growth" and args.n_max < 1:
        parser.error("growth --n-max must be at least 1")

    handlers = {
        "gen": _cmd_gen,
        "tutte": _cmd_tutte,
        "eval": _cmd_eval,
        "invariant": _cmd_invariant,
        "potts": _cmd_potts,
        "growth": _cmd_growth,
    }
    try:
        if args.command == "verify":
            output, code = _cmd_verify(args)
        else:
            output, code = handlers[args.command](args), EXIT_OK
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        _write(output, args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
