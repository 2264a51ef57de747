"""Command-line interface: output bytes, exit codes, and error routing.

All tests drive ``main`` in-process and read stdout/stderr through capsys so
byte-level determinism of the emitted records can be asserted directly.
"""

import decimal
import hashlib
import itertools
import json
import sys
import time
from fractions import Fraction

import pytest

from fractal_tutte import checks, cli, invariants, lattices, oracle, recursion
from fractal_tutte.cli import main
from fractal_tutte.errors import DomainError
from fractal_tutte.lattices import LatticeFamily, build_lattice, lattice_counts, to_edge_list
from helpers import context_settings, forbid_steps, potts_partition

HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_text_output_is_frozen(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "fractal", "--n", "1")
        assert code == 0
        assert out == "p 4 5 0 3\ne 0 1\ne 0 2\ne 1 3\ne 2 3\ne 1 2\n"
        assert err == ""

    def test_repeat_runs_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "gen", "--family", "flower13", "--n", "3")
        _, second, _ = run(capsys, "gen", "--family", "flower13", "--n", "3")
        assert first == second

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--family", "flower22", "--n", "1", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["family"] == "flower22"
        assert record["vertices"] == 4
        assert len(record["edges"]) == 4
        assert {record["special_x"], record["special_y"]} == {0, 3}

    # SHA-256 of `gen --format json` stdout, recorded from the build that
    # formed the whole record with one json.dumps.
    JSON_SHA256 = {
        ("fractal", 0): "ee3d5067eb60a31581b9194ef3d37009f6b48d2ae0225cdd67af43f673addd7d",
        ("fractal", 1): "d9bcbb0bf5f922734613ef2f4b582ee28eee0b2e66a1bdcc4a8e7b151911ec33",
        ("fractal", 2): "3186a9a78c1d4ced076fd68e0c227f8e1084df60d6521426af29dba8a1c78e90",
        ("fractal", 3): "6960b1ea174a22173feb9212793e1fa811c08096879b5c879f28807ac8f1302e",
        ("flower22", 0): "84f5d8cecec1715b6d18561b351f0c1dd71e611ad03274f0b22283eecb234b49",
        ("flower22", 1): "f789d9a742eb677b696afded25b1f73afde73379ebac0a7d65279b8ac183669d",
        ("flower22", 2): "09c0c69593087a12b3ae83e0080f983b35bd05c760a551611dc94b11c1a03eb6",
        ("flower22", 3): "77e1aaad8c3ebfcf631db6148c863688e694746688030618df21bf35769cd147",
        ("flower13", 0): "3c0479cea469ee5160b15c589995802ec11cdc3bba0b4ec6ff07002e877a2864",
        ("flower13", 1): "f2b5967b6694aa9251beac9e01b3b6981aa7bd724bc068d549ebfb212bed68d1",
        ("flower13", 2): "9eaf2527dd45cf7b85888d9c6f2dda3d949d0eff778f46c5036020becfa434be",
        ("flower13", 3): "fb9c8efffc28fe6f4b1f7b58eeb14863a70307529e9c7cd8b017b7ac41438ca3",
    }

    @pytest.mark.parametrize("family", ("fractal", "flower22", "flower13"))
    @pytest.mark.parametrize("n", range(4))
    def test_json_output_is_frozen(self, capsys, family, n):
        _, out, _ = run(capsys, "gen", "--family", family, "--n", str(n), "--format", "json")
        assert hashlib.sha256(out.encode()).hexdigest() == self.JSON_SHA256[family, n]

    @pytest.mark.parametrize("chunk_edges", (1, 2, 1 << 15))
    def test_streamed_output_matches_whole_records(self, capsys, monkeypatch, chunk_edges):
        # The edges are written in chunks; every chunk boundary must leave
        # the bytes of one json.dumps record and of to_edge_list.
        monkeypatch.setattr(lattices, "_CHUNK_EDGES", chunk_edges)
        g = build_lattice(LatticeFamily.FRACTAL, 2)
        _, text, _ = run(capsys, "gen", "--family", "fractal", "--n", "2")
        _, record, _ = run(capsys, "gen", "--family", "fractal", "--n", "2", "--format", "json")
        assert text == to_edge_list(g)
        assert record == json.dumps({
            "family": "fractal", "n": 2, "vertices": g.vertex_count,
            "special_x": g.special_x, "special_y": g.special_y,
            "edges": [list(e) for e in g.edges]}, separators=(",", ":")) + "\n"

    def test_out_file_matches_stdout_over_many_chunks(self, capsys, tmp_path):
        target = tmp_path / "g8.json"
        code, out, _ = run(capsys, "gen", "--family", "flower13", "--n", "8",
                           "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        record = json.loads(target.read_text())
        assert record["edges"] == [list(e) for e in build_lattice(LatticeFamily.FLOWER13, 8).edges]


class TestTutte:
    def test_generation_zero_json(self, capsys):
        code, out, _ = run(capsys, "tutte", "--family", "fractal", "--n", "0")
        assert code == 0
        assert out == '{"terms":[{"x":1,"y":0,"c":"1"}]}\n'

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "tutte", "--family", "flower22", "--n", "1", "--format", "text"
        )
        assert code == 0
        assert out == "x^3 + x^2 + x + y\n"

    def test_oracle_mode_matches_recursive(self, capsys):
        _, recursive, _ = run(capsys, "tutte", "--family", "flower13", "--n", "1")
        _, via_oracle, _ = run(
            capsys, "tutte", "--family", "flower13", "--n", "1", "--mode", "oracle"
        )
        assert recursive == via_oracle

    @pytest.mark.parametrize("family", ("fractal", "flower22", "flower13"))
    def test_oracle_mode_matches_recursive_at_its_cap(self, capsys, family):
        # Oracle mode runs the elimination alone, not the deletion-contraction
        # gates, so its cap is its own.
        n = str(cli.ORACLE_MODE_GENERATION_CAP)
        assert n == "3"
        _, recursive, _ = run(capsys, "tutte", "--family", family, "--n", n)
        code, via_oracle, _ = run(capsys, "tutte", "--family", family, "--n", n,
                                  "--mode", "oracle")
        assert code == 0
        assert recursive == via_oracle

    def test_oracle_mode_generation_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "tutte", "--family", "fractal", "--n", "4", "--mode", "oracle"
        )
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == ""
        assert "resource cap" in err


class TestEval:
    def test_integer_value_record(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "fractal", "--n", "2",
            "--x", "1", "--y", "1",
        )
        assert code == 0
        record = json.loads(out)
        assert record["quantity"] == "tutte-eval"
        assert record["value"] == "32768"

    def test_rational_value_record(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "fractal", "--n", "0",
            "--x", "1/3", "--y", "7",
        )
        assert code == 0
        record = json.loads(out)
        assert record["x"] == "1/3"
        assert record["value"] == {"num": "1", "den": "3"}

    def test_malformed_rational_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--family", "fractal", "--n", "1", "--x", "pi", "--y", "1"])
        assert excinfo.value.code == 2

    def test_huge_exponent_is_a_usage_error_before_it_is_expanded(self, capsys):
        # Fraction("1e10000000") alone takes seconds: it builds 10**10000000.
        for text in ("1e10000000", "-2.5E-10000000", "1e" + "9" * 5000):
            start = time.perf_counter()
            with pytest.raises(SystemExit) as excinfo:
                main(["eval", "--family", "fractal", "--n", "1", f"--x={text}", "--y", "1"])
            assert excinfo.value.code == 2
            assert time.perf_counter() - start < 0.5
            assert "usage" in capsys.readouterr().err

    def test_exponent_past_the_digit_limit_is_a_usage_error(self, capsys):
        # 10^4300 parses quickly, but its 4301 digits could not be printed
        # back in the record.
        for argv in (["eval", "--family", "fractal", "--n", "1", "--x", "1e4300", "--y", "1"],
                     ["potts", "--family", "fractal", "--n", "1", "--q", "2", "--v", "3e-5000"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_short_exponents_and_decimals_still_parse(self, capsys):
        # Generation 0 is one edge, whose Tutte polynomial is x.
        for text, value in (("25e-1", {"num": "5", "den": "2"}), ("1E3", "1000"),
                            ("0.5", {"num": "1", "den": "2"}), ("-3/7", {"num": "-3", "den": "7"}),
                            ("12", "12")):
            code, out, _ = run(capsys, "eval", "--family", "fractal", "--n", "0",
                               f"--x={text}", "--y", "1")
            assert code == 0
            assert json.loads(out)["value"] == value

    def test_generation_cap(self, capsys):
        code, _, err = run(
            capsys, "eval", "--family", "fractal", "--n", "13", "--x", "1", "--y", "1"
        )
        assert code == 3 and "resource cap" in err

    def test_numerator_size_cap(self, capsys):
        # About 699,050 * 13,288 bits, some 9 Gbit, if it were run.
        code, out, err = run(
            capsys, "eval", "--family", "fractal", "--n", "10", "--x", "1/" + "9" * 4000, "--y", "2"
        )
        assert code == 3 and "resource cap" in err
        assert out == ""


class TestSizeRule:
    """Every exact value past the size rule exits 3 at once.  From n = 14 on
    the rule refuses before 4^n is formed, as 4^(n - 1), a lower bound on
    each prediction, is past the cap."""

    # Each request ends with the flag that takes the generation.
    REQUESTS = [
        ("eval", "--family", "fractal", "--x", "1", "--y", "1", "--n"),
        ("potts", "--family", "flower13", "--q", "3", "--v", "1", "--n"),
        ("growth", "--family", "flower22", "--n-max"),
        *(("invariant", "--family", family, "--quantity", "spanning-trees", "--n")
          for family in ("fractal", "flower22", "flower13")),
        ("invariant", "--family", "fractal", "--quantity", "acyclic-root-connected", "--n"),
        ("invariant", "--family", "fractal", "--quantity", "indegree-sequences", "--n"),
    ]

    @pytest.mark.parametrize("n", ["13", str(2 ** 23), "1000000000"])
    @pytest.mark.parametrize("argv", REQUESTS, ids=lambda argv: "-".join(argv[::2]))
    def test_refused_at_once(self, capsys, argv, n):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, n)
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == "" and "resource cap" in err


class TestInvariant:
    def test_spanning_trees_record(self, capsys):
        code, out, _ = run(
            capsys, "invariant", "--family", "fractal", "--n", "3",
            "--quantity", "spanning-trees",
        )
        assert code == 0
        assert json.loads(out)["value"] == "9223372036854775808"

    def test_orientation_quantities_are_fractal_only(self, capsys):
        code, out, err = run(
            capsys, "invariant", "--family", "flower22", "--n", "2",
            "--quantity", "acyclic-root-connected",
        )
        assert code == 4
        assert out == "" and "domain error" in err

    def test_bicycle_dimension(self, capsys):
        code, out, _ = run(
            capsys, "invariant", "--family", "fractal", "--n", "2",
            "--quantity", "bicycle-dimension",
        )
        assert code == 0
        assert json.loads(out)["value"] == "5"

    def test_bicycle_dimension_past_the_bits_cap_exits_3_at_once(self, capsys):
        # 2^23 + 1 is the first generation whose dimension has more than 2^24 bits.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "invariant", "--family", "fractal", "--n", str(2 ** 23 + 1),
            "--quantity", "bicycle-dimension",
        )
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == "" and "cap" in err

    def test_unknown_quantity_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["invariant", "--family", "fractal", "--n", "1",
                  "--quantity", "chromatic"])
        assert excinfo.value.code == 2


class TestPotts:
    def test_frozen_value(self, capsys):
        code, out, _ = run(
            capsys, "potts", "--family", "fractal", "--n", "1", "--q", "2", "--v", "1"
        )
        assert code == 0
        record = json.loads(out)
        assert record["quantity"] == "potts-partition"
        assert record["value"] == "132"

    def test_rational_coupling(self, capsys):
        # a value starting with "-" must be attached with "=" so argparse
        # does not mistake it for an option
        code, out, _ = run(
            capsys, "potts", "--family", "flower22", "--n", "1",
            "--q", "2", "--v=-1/2",
        )
        assert code == 0
        assert json.loads(out)["v"] == "-1/2"

    def test_value_just_past_the_size_rule_exits_3_at_once(self, capsys, monkeypatch):
        # At the Tutte-plane point (9/2, 9/2) the numerators are predicted at
        # 2 (4^11 - 1) / 3 = 2,796,202 times 4 bits, and the power (7/1)^e
        # adds 2,796,202 times 3: 19,573,414 bits, past 2^24.
        forbid_steps(monkeypatch)
        start = time.perf_counter()
        code, out, err = run(capsys, "potts", "--family", "fractal", "--n", "11",
                             "--q", "49/4", "--v", "7/2")
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == "" and "resource cap" in err and "19573414 bits" in err

    def test_zero_coupling_is_a_domain_error(self, capsys):
        code, _, err = run(
            capsys, "potts", "--family", "fractal", "--n", "1", "--q", "2", "--v", "0"
        )
        assert code == 4 and "domain error" in err


def assert_decimal(text: str, expected: int) -> None:
    """text is the decimal form of expected, checked without str(expected).

    Converting a 300,000-digit int to decimal takes seconds, so the digits
    are compared through their count and their residue modulo a 127-bit
    prime, folded in chunks below the interpreter's int-to-str digit limit.
    """
    prime = (1 << 127) - 1
    digits = text[1:] if text.startswith("-") else text
    assert digits.isdigit() and digits[0] != "0"
    assert text.startswith("-") == (expected < 0)
    assert 10 ** (len(digits) - 1) <= abs(expected) < 10 ** len(digits)
    residue = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        residue = (residue * pow(10, len(chunk), prime) + int(chunk)) % prime
    assert residue == abs(expected) % prime


class TestResultsPastDigitLimit:
    """Results longer than 4300 decimal digits are printed in full."""

    def run_big(self, capsys, *argv):
        limit = sys.get_int_max_str_digits() if HAS_DIGIT_LIMIT else None
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        if HAS_DIGIT_LIMIT:
            assert sys.get_int_max_str_digits() == limit
        return json.loads(out)["value"]

    def test_eval_integer_point(self, capsys):
        value = self.run_big(capsys, "eval", "--family", "flower22", "--n", "7",
                             "--x", "2", "--y", "2")
        _, edges = lattice_counts(LatticeFamily.FLOWER22, 7)
        assert len(value) > 4300
        assert_decimal(value, 2 ** edges)

    def test_eval_rational_point(self, capsys):
        value = self.run_big(capsys, "eval", "--family", "fractal", "--n", "8",
                             "--x=-3/7", "--y=-3/7")
        expected = invariants.diagonal_closed_value(8, Fraction(-3, 7))
        assert_decimal(value["num"], expected.numerator)
        assert_decimal(value["den"], expected.denominator)

    def test_spanning_trees(self, capsys):
        value = self.run_big(capsys, "invariant", "--family", "fractal", "--n", "10",
                             "--quantity", "spanning-trees")
        expected = invariants.spanning_tree_count(LatticeFamily.FRACTAL, 10)
        assert_decimal(value, expected)

    def test_potts(self, capsys):
        # q = v^2 puts the matching Tutte point on the diagonal x = y = v + 1
        value = self.run_big(capsys, "potts", "--family", "fractal", "--n", "7",
                             "--q", "4", "--v=-2")
        params = invariants.PottsParams(4, -2)
        vertices, _ = lattice_counts(LatticeFamily.FRACTAL, 7)
        tutte = invariants.diagonal_closed_value(7, -1)
        expected = potts_partition(vertices, 1, tutte, params)
        assert expected.denominator == 1
        assert_decimal(value, expected.numerator)

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="interpreter has no digit limit")
    def test_limit_still_guards_arguments(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--family", "fractal", "--n", "1", "--x", "1" * 5000, "--y", "1"])
        assert excinfo.value.code == 2


def printed(value) -> str:
    """A record's value as str() prints the library's int or Fraction."""
    return value if isinstance(value, str) else f"{value['num']}/{value['den']}"


class TestDecimalRing:
    """eval, potts and invariant compute in the decimal ring and print str()
    of its numbers: the digits of the library's int and Fraction results."""

    SMALL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)]

    @staticmethod
    def assert_prints(capsys, library, *argv):
        """The CLI prints str(library()) for argv, or exits 4 where it raises DomainError."""
        try:
            expected = str(library())
        except DomainError:
            expected = None
        code, out, err = run(capsys, *argv)
        if expected is None:
            assert code == 4, argv
        else:
            assert code == 0, err
            assert printed(json.loads(out)["value"]) == expected, argv

    def test_values_equal_the_library(self, capsys):
        # Decimal keeps a signed zero; each zero value must print as "0".
        for family in LatticeFamily:
            for n in range(3):
                for a, b in itertools.product(self.SMALL, repeat=2):
                    self.assert_prints(capsys, lambda: recursion.tutte_eval(family, n, a, b),
                                       "eval", "--family", family.value, "--n", str(n),
                                       f"--x={a}", f"--y={b}")
                    self.assert_prints(capsys, lambda: invariants.potts_lattice(
                                           family, n, invariants.PottsParams(a, b)),
                                       "potts", "--family", family.value, "--n", str(n),
                                       f"--q={a}", f"--v={b}")
        for n in range(6):
            for family in LatticeFamily:
                self.assert_prints(capsys, lambda: invariants.spanning_tree_count(family, n),
                                   "invariant", "--family", family.value, "--n", str(n),
                                   "--quantity", "spanning-trees")
            for quantity, library in (
                    ("acyclic-root-connected", invariants.acyclic_root_connected_orientations),
                    ("indegree-sequences", invariants.strong_orientation_indegree_sequences),
                    ("bicycle-dimension", invariants.bicycle_space_dimension)):
                self.assert_prints(capsys, lambda: library(n), "invariant", "--family", "fractal",
                                   "--n", str(n), "--quantity", quantity)

    def test_caller_context_is_untouched(self, capsys):
        # The caller's context would round to five digits and trap every signal.
        requests = [
            (("eval", "--family", "fractal", "--n", "3", "--x", "3/7", "--y=-5/2"),
             recursion.tutte_eval(LatticeFamily.FRACTAL, 3, Fraction(3, 7), Fraction(-5, 2))),
            (("potts", "--family", "flower13", "--n", "3", "--q", "9/4", "--v", "3/2"),
             invariants.potts_lattice(LatticeFamily.FLOWER13, 3, invariants.PottsParams(
                 Fraction(9, 4), Fraction(3, 2)))),
            (("invariant", "--family", "fractal", "--n", "3",
              "--quantity", "acyclic-root-connected"),
             invariants.acyclic_root_connected_orientations(3)),
        ]
        with decimal.localcontext() as caller:
            caller.prec = 5
            for signal in caller.traps:
                caller.traps[signal] = True
            before = context_settings(caller)
            results = [run(capsys, *argv) for argv, _ in requests]
            assert decimal.getcontext() is caller
            assert context_settings(caller) == before
        for (code, out, err), (_, expected) in zip(results, requests):
            assert code == 0, err
            assert printed(json.loads(out)["value"]) == str(expected)
            assert len(str(expected)) > 5


class TestRationalPointOutput:
    """stdout at rational points, pinned when the evaluation ran in Fraction."""

    STDOUT_SHA256 = [
        (("eval", "--family", "fractal", "--n", "7", "--x", "5/2", "--y", "5/2"),
         "7ab3df7e0c6fd54e1296558d0c5e4780523584f1aae19ef069c7f4b9cbd25f7e"),
        (("eval", "--family", "flower22", "--n", "7", "--x", "7/2", "--y=-7/2"),
         "f5399e5ac94e704096396e55cdebe77aa9a7b56fccea455c507a22b95d941c7e"),
        (("eval", "--family", "flower13", "--n", "7", "--x", "9/2", "--y", "11/2"),
         "3965519a4e28e019e2efc9fd6052032b18cc101363caaa407ac08589a304f0cc"),
        (("eval", "--family", "fractal", "--n", "6", "--x", "3/7", "--y=-5/2"),
         "e2165d0a41361b2797b95e25d19f76dcfff5d55348cdb3df573571e22e2ead21"),
        (("potts", "--family", "fractal", "--n", "7", "--q", "9/4", "--v", "3/2"),
         "76d020a56de61c4ca60446ff934073bf6c2da8b9e35659560bf0f2da528534ea"),
        # Only some primes of D cancel at these two points.
        (("eval", "--family", "flower13", "--n", "10", "--x=-1/6", "--y", "5/7"),
         "3f8755b7db706ce56df83dc88c6aa8dd063271ddcedd42c2e3531dcf2a9fa467"),
        (("eval", "--family", "flower22", "--n", "10", "--x", "1/2", "--y", "1/3"),
         "df6d2cfbdc78642c84c85cd7ef2c38db2a625b17d8a1fadad586dbc0a3f460ae"),
        # v's numerator shares a prime with D at these three points; pinned
        # when Z was formed from T's Fraction and reduced a second time.
        (("potts", "--family", "fractal", "--n", "9", "--q", "3", "--v=-15/2"),
         "8dac480c6ba083a19b9ca951a88e266cf17233be704e2e08c72590508c79dce6"),
        (("potts", "--family", "flower13", "--n", "8", "--q", "7/4", "--v", "6/5"),
         "b77c97717ae20766464e7551fcca5bc1551503a6c320f06f152517507cce06d8"),
        (("potts", "--family", "flower22", "--n", "8", "--q=-9/10", "--v", "4/3"),
         "ac4b9c8540987d389e6a09d7bd3c2d5e116ef2a14868108a057ef9355a604d00"),
    ]

    def test_stdout_digests(self, capsys):
        for argv, digest in self.STDOUT_SHA256:
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


class TestGrowth:
    def test_record_fields(self, capsys):
        code, out, _ = run(capsys, "growth", "--family", "flower22", "--n-max", "4")
        assert code == 0
        record = json.loads(out)
        assert record["exact"] == "ln(2)"
        assert record["n_max"] == 4
        assert [n for n, _ in record["sequence"]] == [1, 2, 3, 4]

    # SHA-256 of growth --n-max 12 stdout, recorded while the sequence took
    # its logarithms from a table of ln 2, ln 3 and 2 ln 2.
    N_MAX_12_SHA256 = {
        "fractal": "a036e217201d68bae42202ce1a94a961bb2bc845f0bf30f26ec5e1ef8a68ed85",
        "flower22": "642772cf77c5e4e0d513ce7be839f8f99dfc3a75c818f4fdfbee7029e76c4bc5",
        "flower13": "55bb886fc7630235afc506aaf960797c65d81a8c1fc1e8e2b2262471c9bd36b9",
    }

    @pytest.mark.parametrize("family", N_MAX_12_SHA256)
    def test_stdout_digest(self, capsys, family):
        code, out, _ = run(capsys, "growth", "--family", family, "--n-max", "12")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.N_MAX_12_SHA256[family]

    def test_n_max_bounds(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["growth", "--family", "fractal", "--n-max", "0"])
        assert excinfo.value.code == 2
        code, _, err = run(capsys, "growth", "--family", "fractal", "--n-max", "13")
        assert code == 3 and "resource cap" in err


class TestVerify:
    def test_small_gate_run_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--n-max", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("gates passed")
        assert err == ""

    # SHA-256 of the full verify stdout (112/112 gates), recorded while each
    # oracle gate still ran the subset census twice per graph.
    FULL_RUN_SHA256 = "b1baf6a47721ecba45537a7b9719fa11ff60419e9156b3f28d7b29f0ebc89983"

    def test_full_run_digest(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.endswith("112/112 gates passed\n")
        assert hashlib.sha256(out.encode()).hexdigest() == self.FULL_RUN_SHA256

    def test_one_census_per_oracle_graph(self, monkeypatch):
        calls = []
        sweep = oracle._sweep

        def counted(g, u, v):
            calls.append(g)
            return sweep(g, u, v)
        monkeypatch.setattr(oracle, "_sweep", counted)
        assert all(gate.passed for gate in checks.run_oracle_gates(2))
        assert len(calls) == 3 * 3  # three families, generations 0 to 2
        for family in LatticeFamily:
            calls.clear()
            oracle.count_spanning_trees_bruteforce(build_lattice(family, 2))
            assert len(calls) == 1

    def test_n_max_above_oracle_cap_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--n-max", "3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("n_max", [-1, checks.ORACLE_GATE_CAP + 1])
    def test_oracle_gates_outside_their_range_raise(self, n_max):
        # A negative n_max would otherwise run no oracle gate at all.
        with pytest.raises(ValueError):
            checks.run_oracle_gates(n_max)
        with pytest.raises(ValueError):
            checks.run_gates(n_max)

    def test_detects_a_mutated_step_rule(self, capsys, monkeypatch):
        # The fractal states its joined part once; its cofactor is the dual.
        original = recursion._fractal

        def broken(t2, tc, c2, x, y, d):
            # d^2 (t^2)^2 more in the joined part.
            return original(t2, tc, c2, x, y, d) + d * d * (t2 * t2)

        monkeypatch.setattr(recursion, "_fractal", broken)
        code, out, err = run(capsys, "verify", "--n-max", "1")
        assert code == 1
        assert "FAIL" in out
        assert "first failing gate" in err


    def test_detects_a_mutated_flower_value_form(self, capsys, monkeypatch):
        # (X - D) t^2 more in both flowers' last step: zero at (1, 1), the only
        # point where the closed-form gates reach the flowers, so only the
        # recursion=... gates, which compare the polynomial tutte prints, see it.
        original = recursion._flower_value

        def broken(t, c, big_x, big_y, d):
            return original(t, c, big_x, big_y, d) + (big_x - d) * (t * t)

        values = dict(recursion._VALUES)
        values[LatticeFamily.FLOWER22] = values[LatticeFamily.FLOWER13] = broken
        monkeypatch.setattr(recursion, "_VALUES", values)
        code, out, err = run(capsys, "verify", "--n-max", "1")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 4 and all("recursion=" in line for line in failed)
        assert "first failing gate" in err


class TestOutputFile:
    def test_out_writes_file_and_leaves_stdout_empty(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "eval", "--family", "fractal", "--n", "1",
            "--x", "2", "--y", "2", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["value"] == "32"

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        for argv in (
            ["eval", "--family", "fractal", "--n", "1", "--x", "1", "--y", "1",
             "--out", str(tmp_path / "no" / "such" / "file")],
            ["gen", "--family", "fractal", "--n", "1", "--out", str(tmp_path)],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("cannot write output: ")
            assert "Traceback" not in err


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_family(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--family", "sierpinski", "--n", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("text", ["-1", "abc", "1.5"])
    def test_negative_generation(self, capsys, text):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--family", "fractal", "--n", text, "--x", "1", "--y", "1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--n" in err and "_nonnegative" not in err

    def test_lattice_cap_maps_to_cap_exit(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "fractal", "--n", "99")
        assert code == 3 and "resource cap" in err
