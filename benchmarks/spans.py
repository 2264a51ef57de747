"""Spans around the public functions of each fractal_tutte module.

The wrappers live here, in the benchmark, and the package is not changed.
A `--trace 1` run calls every operation twice, back to back: once as the
package is, then once with the wrappers installed.  A span records its name,
start, end and parent.  Spans are kept in memory and written out when the
run ends.

A span's self time is its duration minus the part its child spans cover.
Where a function calls itself through a traced name (one closed form calling
another), only the outermost span counts toward that name's time.  Counts
that need a look at the result (terms, bits, bytes) are taken after the span
has ended, and their cost is taken out of every enclosing span.

tracemalloc slows lattice construction about eightfold, so the peak memory
of build_lattice is not taken inside the traced calls: after each round, the
largest lattice the round built is built once more under tracemalloc.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional

# name -> (unit, span name, field); field is calls, s, self_s or an attribute.
PER_LAYER = {
    "bipoly.mul.calls": ("count", "bipoly.mul", "calls"),
    "bipoly.mul.s": ("s", "bipoly.mul", "s"),
    "bipoly.mul.term_pairs": ("count", "bipoly.mul", "term_pairs"),
    "bipoly.mul.max_coeff_bits": ("bits", "bipoly.mul", "max_coeff_bits"),
    "bipoly.add.calls": ("count", "bipoly.add", "calls"),
    "bipoly.add.s": ("s", "bipoly.add", "s"),
    "bipoly.to_json.s": ("s", "bipoly.to_json", "s"),
    "bipoly.to_json.bytes": ("bytes", "bipoly.to_json", "bytes"),
    "recursion.step.calls": ("count", "recursion.step", "calls"),
    "recursion.step.s": ("s", "recursion.step", "s"),
    "recursion.step.self_s": ("s", "recursion.step", "self_s"),
    "recursion.step.out_terms": ("count", "recursion.step", "out_terms"),
    "recursion.assemble.s": ("s", "recursion.assemble", "s"),
    "recursion.eval_pair.calls": ("count", "recursion.eval_pair", "calls"),
    "recursion.eval_pair.s": ("s", "recursion.eval_pair", "s"),
    "recursion.eval_pair.value_bits": ("bits", "recursion.eval_pair", "value_bits"),
    "invariants.potts_lattice.s": ("s", "invariants.potts_lattice", "s"),
    "invariants.closed_form.s": ("s", "invariants.closed_form", "s"),
    "lattices.build_lattice.calls": ("count", "lattices.build_lattice", "calls"),
    "lattices.build_lattice.s": ("s", "lattices.build_lattice", "s"),
    "lattices.build_lattice.edges": ("count", "lattices.build_lattice", "edges"),
    "lattices.build_lattice.peak_mb": ("MB", "lattices.build_lattice", "peak_mb"),
    "lattices.to_edge_list.s": ("s", "lattices.to_edge_list", "s"),
    "lattices.to_edge_list.bytes": ("bytes", "lattices.to_edge_list", "bytes"),
    "oracle.census.calls": ("count", "oracle.census", "calls"),
    "oracle.census.s": ("s", "oracle.census", "s"),
    "oracle.census.subsets": ("count", "oracle.census", "subsets"),
    "oracle.contraction.calls": ("count", "oracle.contraction", "calls"),
    "oracle.contraction.s": ("s", "oracle.contraction", "s"),
    "oracle.tree_bruteforce.s": ("s", "oracle.tree_bruteforce", "s"),
    "oracle.tree_bruteforce.subsets": ("count", "oracle.tree_bruteforce", "subsets"),
    "checks.oracle_gates.s": ("s", "checks.oracle_gates", "s"),
    "checks.closed_form_gates.s": ("s", "checks.closed_form_gates", "s"),
    "cli.main.self_s": ("s", "cli.main", "self_s"),
}
OVERHEAD = {
    "trace.untraced_round_s": "s",
    "trace.traced_round_s": "s",
    "trace.overhead_s": "s",
}


def _mul_attrs(args, result) -> dict:
    a, b = args
    b_terms = len(b) if hasattr(b, "terms") else 1
    bits = max((abs(c).bit_length() for c in result.terms().values()), default=0) \
        if hasattr(result, "terms") else 0
    return {"term_pairs": len(a) * b_terms, "max_coeff_bits": bits}


def _step_attrs(args, pair) -> dict:
    return {"out_terms": len(pair.joined) + len(pair.cofactor)}


def _eval_pair_attrs(args, pair) -> dict:
    return {"value_bits": sum(v.numerator.bit_length() + v.denominator.bit_length() for v in pair)}


def _census_attrs(args, result) -> dict:
    return {"subsets": sum(sum(part.values()) for part in result)}


def _tree_attrs(args, result) -> dict:
    g = args[0]
    return {"subsets": comb(g.edge_count, g.vertex_count - 1)}


def _targets(pkg, build_attrs) -> List[tuple]:
    """(span name, owner, attribute names, attribute function)."""
    inv = pkg.invariants
    closed_forms = ("spanning_tree_count", "acyclic_root_connected_orientations",
                    "strong_orientation_indegree_sequences", "bicycle_space_dimension",
                    "diagonal_closed_form", "diagonal_closed_value")
    BiPoly = pkg.bipoly.BiPoly
    return [
        ("bipoly.mul", BiPoly, ("__mul__", "__rmul__"), _mul_attrs),
        ("bipoly.add", BiPoly, ("__add__", "__radd__"), None),
        ("bipoly.to_json", BiPoly, ("to_json",), lambda a, r: {"bytes": len(r)}),
        ("recursion.step", pkg.recursion, ("step",), _step_attrs),
        ("recursion.assemble", pkg.recursion.TuttePair, ("assemble",), None),
        ("recursion.eval_pair", pkg.recursion, ("eval_pair",), _eval_pair_attrs),
        ("invariants.potts_lattice", inv, ("potts_lattice",), None),
        ("invariants.closed_form", inv, closed_forms, None),
        ("lattices.build_lattice", pkg.lattices, ("build_lattice",), build_attrs),
        ("lattices.to_edge_list", pkg.lattices, ("to_edge_list",),
         lambda a, r: {"bytes": len(r)}),
        ("oracle.census", pkg.oracle, ("rank_nullity_census",), _census_attrs),
        ("oracle.contraction", pkg.oracle, ("tutte_deletion_contraction",), None),
        ("oracle.tree_bruteforce", pkg.oracle, ("count_spanning_trees_bruteforce",),
         _tree_attrs),
        ("checks.oracle_gates", pkg.checks, ("run_oracle_gates",), None),
        ("checks.closed_form_gates", pkg.checks, ("run_closed_form_gates",), None),
        ("cli.main", pkg.cli, ("main",), None),
    ]


class Tracer:
    """Installs span wrappers around traced calls and aggregates their spans."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.active = False
        self.rounds: List[List[list]] = []
        self.build_peaks_mb: List[float] = []
        self._largest_build: Optional[tuple] = None
        self._stack: List[list] = []
        self._saved: List[tuple] = []

    # -- installation -----------------------------------------------------

    def begin_round(self) -> None:
        self.rounds.append([])
        self._largest_build = None

    def end_round(self) -> None:
        """Measure the peak memory of the round's largest build, untraced."""
        peak = 0.0
        if self._largest_build:
            tracemalloc.start()
            self.pkg.lattices.build_lattice(*self._largest_build[1])
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
        self.build_peaks_mb.append(peak)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "fractal_tutte" or name.startswith("fractal_tutte.")]
        for span_name, owner, attributes, attrs in _targets(self.pkg, self._build_attrs):
            for attribute in attributes:
                original = owner.__dict__[attribute]
                wrapper = self._wrap(span_name, original, attrs)
                places = [owner] if isinstance(owner, type) else \
                    [m for m in modules if m.__dict__.get(attribute) is original]
                for place in places:
                    self._saved.append((place, attribute, original))
                    setattr(place, attribute, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            place, attribute, original = self._saved.pop()
            setattr(place, attribute, original)

    def _build_attrs(self, args, g) -> dict:
        if self._largest_build is None or g.edge_count > self._largest_build[0]:
            self._largest_build = (g.edge_count, args)
        return {"edges": g.edge_count}

    def _wrap(self, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.rounds[-1], tracer._stack
            # [name, start, end, parent index, excluded seconds, attributes, index]
            span = [name, 0.0, 0.0, stack[-1][6] if stack else -1, 0.0, None, len(spans)]
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs:
                span[5] = attrs(args, result)
                spent = time.perf_counter() - span[2]
                for outer in stack:
                    outer[4] += spent
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    @staticmethod
    def _aggregate(spans: List[list]) -> Dict[str, Dict[str, float]]:
        child_time = [0.0] * len(spans)
        duration = [s[2] - s[1] - s[4] for s in spans]
        for index, span in enumerate(spans):
            if span[3] >= 0:
                child_time[span[3]] += duration[index]
        stats: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(spans):
            entry = stats.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration[index] - child_time[index]
            parent = span[3]
            while parent >= 0 and spans[parent][0] != span[0]:
                parent = spans[parent][3]
            if parent < 0:
                entry["s"] += duration[index]
            for key, value in (span[5] or {}).items():
                if key.startswith("max_"):
                    entry[key] = max(entry.get(key, 0), value)
                else:
                    entry[key] = entry.get(key, 0) + value
        return stats

    def per_layer(self, paired: Dict[str, List[float]]) -> Dict[str, dict]:
        """Each per-layer metric: its median over the rounds.

        `paired` holds, per round, the seconds inside the untraced and the
        traced call of every operation; their difference is the overhead.
        """
        per_round = [self._aggregate(spans) for spans in self.rounds]
        for stats, peak in zip(per_round, self.build_peaks_mb):
            stats.setdefault("lattices.build_lattice", {})["peak_mb"] = peak
        metrics = {}
        for name, (unit, span_name, field) in PER_LAYER.items():
            values = [stats.get(span_name, {}).get(field, 0) for stats in per_round]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        untraced = statistics.median(paired["untraced"])
        traced = statistics.median(paired["traced"])
        for name, value in (("trace.untraced_round_s", untraced),
                            ("trace.traced_round_s", traced),
                            ("trace.overhead_s", traced - untraced)):
            metrics[name] = {"value": value, "unit": OVERHEAD[name]}
        return metrics

    def write_spans(self, path: Path) -> str:
        path.parent.mkdir(parents=True, exist_ok=True)
        rounds = [[{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                    "excluded": s[4], **({"attrs": s[5]} if s[5] else {})} for s in spans]
                  for spans in self.rounds]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"rounds": rounds}, handle, separators=(",", ":"))
        return str(path)
