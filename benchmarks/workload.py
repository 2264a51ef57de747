"""One benchmark workload of fractal-tutte, run in a process of its own.

run.py starts this file as

    python -I -S benchmarks/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

It imports the package from the checkout's src/ directory, builds the workload's inputs from the
seed, and prints the moment that set-up ended (on the system-wide monotonic
clock) and, unless --setup-only, the measured rounds, as one JSON line.

Each workload runs its own operations at full size and every other timed
operation at a small size ("probe"), so that every end-to-end metric is
defined on every workload.  A round runs, in a closed loop on one thread
(each call starts when the previous one has returned), the full-size
operations in three thirds, with PROBE_CYCLES cycles of the probes spread
over the gaps before the first group and after each group, so that samples
of every metric are spread over the round.
Rounds repeat until --seconds have passed, so every run attempts whole
rounds.  Every result is checked against benchmarks/reference.py, outside
the timed part.

The hosts this runs on change speed by up to twofold while it runs.  So in
an untraced run the speed meter of speed.py runs throughout, each call's
time is converted to reference seconds, each operation's time is the median
of its samples in the run, and a metric is the sum of those over its
operations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import speed  # noqa: E402

WORKLOADS = ("symbolic", "pointwise", "oracle", "build")

# Metrics each workload runs at full size; the rest run as probes.
MAIN_METRICS = {
    "symbolic": ("symbolic_fractal_s", "symbolic_flower_s"),
    "pointwise": ("eval_integer_s", "eval_rational_s", "potts_s"),
    "oracle": ("verify_s", "tree_count_s"),
    "build": ("build_s", "edge_list_s"),
}
# Full-size metrics cheap enough to run in every third of a round.
EVERY_THIRD = ("eval_integer_s", "tree_count_s")
# How often a round runs each of the other full-size operations, in
# different thirds, so that each has more than one sample in a run.  The
# symbolic n=4 operations take about 45 s together, so they run once.
FULL_REPEATS = {"symbolic": 1, "pointwise": 2, "oracle": 2, "build": 2}

# The kind of correction (speed.py) each metric's calls get; "mixed" if not
# named.  The pointwise evaluations follow the tick's Fraction part, and
# those at rational points only about half as strongly.
METER_KIND = {"eval_integer_s": "fraction", "eval_rational_s": "rational", "potts_s": "rational"}

# Cycles of the probes per round, so that each probe has a dozen samples
# spread over the round.
PROBE_CYCLES = 12

# Generation sizes: (full, probe).
SYMBOLIC_N = (4, 3)
INTEGER_N = (10, 8)
RATIONAL_N = (9, 7)
BUILD_N = (10, 6)
# run_gates(oracle_n_max) with the closed-form gates at their default.
GATES_ORACLE_N = (None, 1)

# Non-integer points, chosen so that the members of each pool cost the same
# within a few percent at n = 9 (measured).  Numerators and denominators are
# all small, but size alone does not fix the cost: the fractal diagonal at
# -9/2, where x^2 + 5x + 2 = -1/4, is 300 times cheaper than at 5/2, and at
# -13/2 or 3/2 it is 12 percent cheaper.
FRACTAL_DIAGONAL_POOL = (Fraction(5, 2), Fraction(-15, 2))
FLOWER22_POOL = tuple((Fraction(7, 2), Fraction(y, 2)) for y in (5, 7, 9, -7))
FLOWER13_POOL = tuple((Fraction(9, 2), Fraction(y, 2)) for y in (5, 9, 11, 13))
# The fractal Potts coupling v, at q = v^2.
POTTS_V_POOL = (Fraction(3, 2), Fraction(-15, 2))
INTEGER_POINTS = ((1, 1), (2, 2))

# CLI requests whose results exceed Python's 4300-digit int-to-str limit.
# At this commit each raises ValueError inside cli.main; they are counted as
# failed and kept out of every time metric.  Expected values are closed forms.
BIG_RESULT_REQUESTS = (
    ("eval", "--family", "flower22", "--n", "7", "--x", "2", "--y", "2"),
    ("eval", "--family", "fractal", "--n", "8", "--x=-3/7", "--y=-3/7"),
    ("invariant", "--family", "fractal", "--n", "10", "--quantity", "spanning-trees"),
    ("potts", "--family", "fractal", "--n", "7", "--q", "4", "--v=-2"),
)


def import_package(root: Path) -> SimpleNamespace:
    """Import fractal_tutte from root/src and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fractal_tutte
    if Path(fractal_tutte.__file__).resolve().parent.parent != src:
        raise SystemExit(f"fractal_tutte was imported from {fractal_tutte.__file__}, not {src}")
    from fractal_tutte import bipoly, checks, cli, invariants, lattices, oracle, recursion
    return SimpleNamespace(bipoly=bipoly, checks=checks, cli=cli, invariants=invariants,
                           lattices=lattices, oracle=oracle, recursion=recursion,
                           Family=lattices.LatticeFamily)


@dataclass
class Op:
    """One call into the package, its metric (None: untimed) and its check."""

    label: str
    metric: Optional[str]
    call: Callable[[], object]
    check: Callable[[object], List[str]]


class Workload:
    """The operations of one workload, with reference values cached per run."""

    def __init__(self, pkg: SimpleNamespace, name: str, seed: int):
        import reference
        self.ref = reference
        self.pkg = pkg
        rng = random.Random(seed)
        self.fractal_x = rng.choice(FRACTAL_DIAGONAL_POOL)
        self.flower_points = {"flower22": rng.choice(FLOWER22_POOL),
                              "flower13": rng.choice(FLOWER13_POOL)}
        self.potts_v = rng.choice(POTTS_V_POOL)
        self._trees: Dict[tuple, int] = {}
        self.reference_problems: List[str] = []
        self.graphs = {f: pkg.lattices.build_lattice(pkg.Family(f), 2)
                       for f in reference.FAMILIES}
        # The full-size operations in three thirds of a round, as groups.
        self.thirds: List[List[List[Op]]] = [[], [], []]
        self.probes: List[Op] = []
        # Called after each group, untimed, to drop what the group built.
        self.after_group: List[Callable[[], None]] = []
        single = []
        for metric, make in (("symbolic_fractal_s", self._symbolic),
                             ("eval_integer_s", self._integer),
                             ("eval_rational_s", self._rational),
                             ("potts_s", self._potts),
                             ("verify_s", self._verify),
                             ("tree_count_s", self._tree_count),
                             ("build_s", self._build)):
            if metric not in MAIN_METRICS[name]:
                self.probes += [op for group in make(False) for op in group]
            elif metric in EVERY_THIRD:
                for third in self.thirds:
                    third += make(True)
            else:
                for _ in range(FULL_REPEATS[name]):
                    single += make(True)
        if name == "pointwise":
            single.append(self._big_results())
        for index, group in enumerate(single):
            self.thirds[index % 3].append(group)

    def metrics(self) -> Dict[str, Optional[str]]:
        """The metric of each operation, by label."""
        ops = self.probes + [op for third in self.thirds for group in third for op in group]
        return {op.label: op.metric for op in ops}

    def inputs(self) -> dict:
        return {"fractal_diagonal_x": str(self.fractal_x),
                "flower_points": {f: [str(x), str(y)] for f, (x, y) in self.flower_points.items()},
                "potts_v": str(self.potts_v)}

    # -- references -------------------------------------------------------------

    def trees(self, family: str, n: int) -> int:
        """Matrix-tree count of the package's lattice, also held to the closed form."""
        key = (family, n)
        if key not in self._trees:
            g = self.pkg.lattices.build_lattice(self.pkg.Family(family), n)
            problems = self.ref.check_graph(family, n, g.vertex_count, g.edges,
                                            g.special_x, g.special_y)
            count = self.ref.matrix_tree_count(g.vertex_count, g.edges)
            problems += self.ref.check_tree_counts(family, n, count)
            self.reference_problems += problems
            self._trees[key] = count
        return self._trees[key]

    # -- operations ---------------------------------------------------------------

    # Each returns a list of groups of operations; a group runs as one unit.

    def _symbolic(self, full: bool):
        pkg, ref = self.pkg, self.ref
        n = SYMBOLIC_N[0 if full else 1]
        groups = []
        for family in ref.FAMILIES:
            def call(family=family):
                poly = pkg.recursion.tutte_symbolic(pkg.Family(family), n)
                return poly, poly.to_json()

            def check(result, family=family):
                poly, text = result
                terms = poly.terms()
                return (ref.check_polynomial(family, n, terms, self.trees(family, n))
                        + ref.check_json_terms(text, terms))
            metric = "symbolic_fractal_s" if family == "fractal" else "symbolic_flower_s"
            groups.append([Op(f"symbolic {family} n={n}", metric, call, check)])
        return groups

    def _integer(self, full: bool):
        pkg, ref = self.pkg, self.ref
        n = INTEGER_N[0 if full else 1]
        ops = []
        for family in ref.FAMILIES:
            for x, y in INTEGER_POINTS:
                ops.append(Op(
                    f"eval {family} n={n} ({x},{y})", "eval_integer_s",
                    lambda family=family, x=x, y=y: pkg.recursion.tutte_eval(pkg.Family(family), n, x, y),
                    lambda value, family=family, x=x, y=y: ref.check_integer_point(family, n, x, y, value)))
        return [ops]

    def _rational(self, full: bool):
        pkg, ref = self.pkg, self.ref
        n = RATIONAL_N[0 if full else 1]
        x0 = self.fractal_x
        ops = [Op(f"eval fractal n={n} ({x0},{x0})", "eval_rational_s",
                  lambda: pkg.recursion.tutte_eval(pkg.Family.FRACTAL, n, x0, x0),
                  lambda value: ref.check_fractal_diagonal(n, x0, value))]
        for family, (x, y) in self.flower_points.items():
            ops.append(Op(
                f"eval {family} n={n} ({x},{y})", "eval_rational_s",
                lambda family=family, x=x, y=y: pkg.recursion.tutte_eval(pkg.Family(family), n, x, y),
                lambda value, family=family, x=x, y=y: ref.check_denominator(family, n, x, y, value)))
        return [ops]

    def _potts(self, full: bool):
        pkg, ref = self.pkg, self.ref
        n = RATIONAL_N[0 if full else 1]
        points = [("fractal", self.potts_v * self.potts_v, self.potts_v),
                  ("flower22", Fraction(2), Fraction(-1)),
                  ("flower13", Fraction(2), Fraction(-1))]
        ops = []
        for family, q, v in points:
            ops.append(Op(
                f"potts {family} n={n} q={q} v={v}", "potts_s",
                lambda family=family, q=q, v=v: pkg.invariants.potts_lattice(
                    pkg.Family(family), n, pkg.invariants.PottsParams(q, v)),
                lambda value, family=family, q=q, v=v: ref.check_potts(family, n, q, v, value)))
        return [ops]

    def _verify(self, full: bool):
        pkg = self.pkg
        oracle_n = GATES_ORACLE_N[0 if full else 1]

        def call():
            return pkg.checks.run_gates() if oracle_n is None else pkg.checks.run_gates(oracle_n)

        def check(results):
            failing = [r.name for r in results if not r.passed]
            if not results or failing:
                return [f"verify gates failed: {failing[:3]}"]
            return []
        label = "run_gates()" if oracle_n is None else f"run_gates({oracle_n})"
        return [[Op(label, "verify_s", call, check)]]

    def _tree_count(self, full: bool):
        pkg, ref = self.pkg, self.ref
        families = ref.FAMILIES if full else ("flower22", "flower13")
        ops = []
        for family in families:
            g = self.graphs[family]
            ops.append(Op(
                f"tree bruteforce {family} n=2", "tree_count_s",
                lambda g=g: pkg.oracle.count_spanning_trees_bruteforce(g),
                lambda count, family=family: ref.check_tree_bruteforce(
                    family, 2, count, self.trees(family, 2))))
        return [ops]

    def _build(self, full: bool):
        pkg, ref = self.pkg, self.ref
        n = BUILD_N[0 if full else 1]
        built: Dict[str, object] = {}
        self.after_group.append(built.clear)
        groups = []
        for family in ref.FAMILIES:
            def build(family=family):
                # Drop the previous graph first, so one lattice is alive at a time.
                built.pop("g", None)
                built["g"] = pkg.lattices.build_lattice(pkg.Family(family), n)
                return built["g"]

            def edge_list():
                return pkg.lattices.to_edge_list(built["g"])

            def check_text(text):
                g = built["g"]
                return ref.check_edge_list(text, g.vertex_count, g.edges, g.special_x, g.special_y)

            def check_graph(g, family=family):
                return ref.check_graph(family, n, g.vertex_count, g.edges, g.special_x, g.special_y)
            groups.append([Op(f"build {family} n={n}", "build_s", build, check_graph),
                           Op(f"edge list {family} n={n}", "edge_list_s", edge_list, check_text)])
        return groups

    def _big_results(self) -> List[Op]:
        pkg, ref = self.pkg, self.ref
        expected = [
            lambda: (2 ** ref.lattice_counts("flower22", 7)[1], 1),
            lambda: ref.fractal_diagonal(8, Fraction(-3, 7)),
            lambda: (ref.tree_count_closed("fractal", 10), 1),
            lambda: ref.fractal_potts_diagonal(7, Fraction(-2)),
        ]
        ops = []
        for argv, value in zip(BIG_RESULT_REQUESTS, expected):
            def call(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = pkg.cli.main(list(argv))
                if code != 0:
                    raise RuntimeError(f"exit code {code}")
                return out.getvalue()

            def check(text, value=value):
                return check_cli_value(ref, text, *value())
            ops.append(Op("cli " + " ".join(argv), None, call, check))
        return ops

    def agreement_checks(self) -> List[str]:
        """Census and deletion-contraction agree, and both have the
        properties of a Tutte polynomial, on every generation <= 2."""
        pkg, ref = self.pkg, self.ref
        problems = []
        for family in ref.FAMILIES:
            for n in range(3):
                g = pkg.lattices.build_lattice(pkg.Family(family), n)
                census = pkg.oracle.tutte_subgraph_expansion(g)
                contraction = pkg.oracle.tutte_deletion_contraction(g)
                if census != contraction:
                    problems.append(f"{family} n={n}: census != deletion-contraction")
                problems += ref.check_polynomial(family, n, census.terms(), self.trees(family, n))
        return problems


def check_cli_value(ref, text: str, num: int, den: int) -> List[str]:
    """A CLI record's value equals num/den, compared modulo a large prime."""
    try:
        value = json.loads(text)["value"]
        if isinstance(value, dict):
            got_num, got_den = value["num"], value["den"]
        else:
            got_num, got_den = value, "1"
        p = ref.RESIDUE_PRIME
        same = (ref.decimal_residue(got_num) * den - num * ref.decimal_residue(got_den)) % p == 0
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable CLI record: {exc}"]
    return [] if same else ["CLI value differs from the closed form"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, str] = {}
        self.problems: List[str] = []
        # Seconds inside calls made as untraced/traced pairs (traced runs).
        self.paired = {"untraced": 0.0, "traced": 0.0}
        self.pairs = 0


def call_op(op: Op, tally: Tally, tracer=None) -> Optional[Tuple[float, float]]:
    """Call and check one operation; its (start, end), or None if it raised."""
    tally.attempted += 1
    if tracer:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        tally.failed += 1
        tally.failures[op.label] = f"{type(exc).__name__}: {str(exc)[:160]}"
        return None
    finally:
        end = time.perf_counter()
        if tracer:
            tracer.active = False
    tally.problems += [f"{op.label}: {p}" for p in op.check(result)]
    return start, end


def run_op(op: Op, tally: Tally, tracer=None) -> Optional[Tuple[float, float]]:
    """One operation; with a tracer, an untraced and a traced call.

    The two calls of a pair run back to back, so the machine's speed is
    about the same for both and their difference is the tracing overhead.
    Which one goes first alternates, because a second call finds memory
    already allocated and runs a little faster.
    """
    if tracer is None:
        return call_op(op, tally)

    def traced_call() -> Optional[Tuple[float, float]]:
        tracer.install()
        try:
            return call_op(op, tally, tracer)
        finally:
            tracer.uninstall()
    tally.pairs += 1
    if tally.pairs % 2:
        untraced, traced = call_op(op, tally), traced_call()
    else:
        traced, untraced = traced_call(), call_op(op, tally)
    if untraced is not None and traced is not None:
        tally.paired["untraced"] += untraced[1] - untraced[0]
        tally.paired["traced"] += traced[1] - traced[0]
    return untraced


def run_round(workload: Workload, tally: Tally,
              samples: Dict[str, List[Tuple[float, float]]], tracer=None) -> None:
    """One round: each group of the three thirds, with PROBE_CYCLES probe
    cycles spread evenly over the gaps before the first group and after
    each group.  Appends each call's (start, end) to samples[label]."""
    def run(ops: List[Op]) -> None:
        for op in ops:
            span = run_op(op, tally, tracer)
            if span is not None:
                samples.setdefault(op.label, []).append(span)

    groups = [group for third in workload.thirds for group in third]
    gaps = len(groups) + 1

    def probe_gap(index: int) -> None:
        for _ in range((index + 1) * PROBE_CYCLES // gaps - index * PROBE_CYCLES // gaps):
            run(workload.probes)

    probe_gap(0)
    for index, group in enumerate(groups, 1):
        run(group)
        for release in workload.after_group:
            release()
        probe_gap(index)


def metric_values(workload: Workload, seconds: Dict[str, List[float]]) -> Dict[str, float]:
    """Each metric: the sum over its operations of the median sample."""
    values: Dict[str, float] = {}
    for label, metric in workload.metrics().items():
        if metric and label in seconds:
            values[metric] = values.get(metric, 0.0) + statistics.median(seconds[label])
    return values


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    pkg = import_package(HERE.parent)
    workload = Workload(pkg, args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tally = Tally()
    rounds = 0
    samples: Dict[str, List[Tuple[float, float]]] = {}
    paired = {"untraced": [], "traced": []}
    tracer = meter = None
    if args.trace:
        import spans
        tracer = spans.Tracer(pkg)
    else:
        meter = speed.SpeedMeter()
        meter.start()
    start = time.perf_counter()
    while True:
        before = dict(tally.paired)
        if tracer:
            tracer.begin_round()
        run_round(workload, tally, samples, tracer)
        if tracer:
            tracer.end_round()
        for side in paired:
            paired[side].append(tally.paired[side] - before[side])
        rounds += 1
        if rounds == 1:
            # The peak after one round, so that it does not depend on how
            # many rounds fit in the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= args.seconds:
            break
    wall = {label: [end - begin for begin, end in calls] for label, calls in samples.items()}
    seconds = wall
    if meter:
        meter.stop()
        metric_of = workload.metrics()
        seconds = {label: [meter.reference_seconds(*span, METER_KIND.get(metric_of[label], "mixed"))
                           for span in calls]
                   for label, calls in samples.items()}
    if args.workload == "oracle":
        tally.problems += workload.agreement_checks()
    tally.problems += workload.reference_problems

    record = {
        "ready": ready,
        "inputs": workload.inputs(),
        "rounds": rounds,
        "samples": {label: {"s": seconds[label], "wall_s": wall[label]} for label in samples},
        "ticks": meter.summary() if meter else None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "problems": tally.problems[:20],
        "peak_rss_mb": peak_rss_mb,
        "metrics": metric_values(workload, seconds),
        "environment": {
            "python": sys.version.split()[0],
            "implementation": sys.implementation.name,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
        },
    }
    if tracer:
        record["per_layer"] = tracer.per_layer(paired)
        record["spans"] = tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
