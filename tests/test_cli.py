"""Argument grammar, rendering round-trips, command output, and exit codes."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from weightmult import ParseError, RankMismatch
from weightmult.cli import Query, main, parse_query, render_query, run


def machine_dict(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


class TestParseQuery:
    def test_expression_weight(self):
        q = parse_query(["mult", "A4", "[1,1,0,1]", "L-a1-a2-a3-a4"])
        assert q.command == "mult"
        assert (q.family, q.rank) == ("A", 4)
        assert q.lam == (1, 1, 0, 1)
        assert q.mu_spec == ("expr", (1, 1, 1, 1))
        assert (q.format, q.trace, q.algorithm) == ("text", "summary", "auto")

    def test_explicit_weight(self):
        q = parse_query(["mult", "A2", "[1,1]", "[0,0]"])
        assert q.mu_spec == ("coords", (0, 0))

    def test_bracket_arity_mismatch(self):
        with pytest.raises(RankMismatch):
            parse_query(["mult", "A2", "[1,1,0]", "[0,0]"])
        with pytest.raises(RankMismatch):
            parse_query(["mult", "A2", "[1,1]", "[0,0,0]"])

    def test_expression_with_coefficients_and_whitespace(self):
        q = parse_query(["mult", "B3", "[2,0,1]", "L - 2*a1 - a3"])
        assert q.mu_spec == ("expr", (2, 0, 1))

    def test_repeated_terms_accumulate(self):
        q = parse_query(["mult", "A2", "[2,2]", "L-a1-a1"])
        assert q.mu_spec == ("expr", (2, 0))

    def test_flags_in_both_spellings(self):
        q = parse_query(
            ["char", "G2", "[0,1]", "--format=machine", "--trace", "full",
             "--algorithm=classical", "--oracle-cap", "500"]
        )
        assert (q.format, q.trace, q.algorithm, q.oracle_cap) == ("machine", "full", "classical", 500)

    def test_unknown_command(self):
        with pytest.raises(ParseError) as info:
            parse_query(["frobnicate", "A2", "[1,1]"])
        assert "mult" in info.value.expected

    def test_bad_system_token(self):
        with pytest.raises(ParseError):
            parse_query(["mult", "H3", "[1,1,1]", "[0,0,0]"])
        with pytest.raises(ParseError):
            parse_query(["mult", "A", "[1]", "[0]"])

    def test_root_index_out_of_range_reports_offset(self):
        with pytest.raises(ParseError) as info:
            parse_query(["mult", "A2", "[1,1]", "L-2*a9"])
        assert info.value.offset == 5
        assert info.value.expected == frozenset({"a1", "a2"})

    def test_bad_bracket_character_reports_offset(self):
        with pytest.raises(ParseError) as info:
            parse_query(["mult", "A2", "[1;1]", "[0,0]"])
        assert info.value.offset == 2
        assert "," in info.value.expected

    def test_unterminated_bracket(self):
        with pytest.raises(ParseError):
            parse_query(["mult", "A2", "[1,1", "[0,0]"])

    def test_expression_must_start_with_the_highest_weight(self):
        with pytest.raises(ParseError) as info:
            parse_query(["mult", "A2", "[1,1]", "a1-a2"])
        assert info.value.expected == frozenset({"L"})

    def test_coefficient_requires_star(self):
        with pytest.raises(ParseError) as info:
            parse_query(["mult", "A2", "[1,1]", "L-2a1"])
        assert "*" in info.value.expected

    def test_missing_weight_argument(self):
        with pytest.raises(ParseError):
            parse_query(["mult", "A2", "[1,1]"])

    def test_char_takes_no_weight_argument(self):
        with pytest.raises(ParseError):
            parse_query(["char", "A2", "[1,1]", "[0,0]"])

    def test_unknown_flag(self):
        with pytest.raises(ParseError):
            parse_query(["dim", "A2", "[1,1]", "--colour=red"])

    def test_bad_flag_values(self):
        with pytest.raises(ParseError):
            parse_query(["dim", "A2", "[1,1]", "--format=xml"])
        with pytest.raises(ParseError):
            parse_query(["dim", "A2", "[1,1]", "--oracle-cap=-5"])
        with pytest.raises(ParseError):
            parse_query(["dim", "A2", "[1,1]", "--oracle-cap=many"])


# One argv per `raise ParseError` site of the parser, plus the arity check:
# (argv, error type, message, offset, expected set).
PARSE_ERRORS = [
    (["mult", "A2", "[1,x]", "[0,0]"], ParseError,
     "expected coordinate (offset 3, expected integer)", 3, {"integer"}),
    (["mult", "A2", "1,1]", "[0,0]"], ParseError,
     "highest weight must start with '[' (offset 0, expected [)", 0, {"["}),
    (["mult", "A2", "[1,", "[0,0]"], ParseError,
     "unterminated highest weight (offset 3, expected ] | integer)", 3, {"]", "integer"}),
    (["mult", "A2", "[1,1", "[0,0]"], ParseError,
     "unterminated highest weight (offset 4, expected , | ])", 4, {",", "]"}),
    (["mult", "A2", "[1;1]", "[0,0]"], ParseError,
     "bad character in highest weight (offset 2, expected , | ])", 2, {",", "]"}),
    (["mult", "A2", "[1,1]x", "[0,0]"], ParseError,
     "trailing input after highest weight (offset 5, expected end of argument)", 5,
     {"end of argument"}),
    (["mult", "A2", "[1,1]", " a1"], ParseError,
     "expression must start with the highest weight (offset 1, expected L)", 1, {"L"}),
    (["mult", "A2", "[1,1]", "L+a1"], ParseError,
     "expected a subtracted root term (offset 1, expected - | end of argument)", 1,
     {"-", "end of argument"}),
    (["mult", "A2", "[1,1]", "L-2a1"], ParseError,
     "coefficient must be followed by '*' (offset 3, expected *)", 3, {"*"}),
    (["mult", "A2", "[1,1]", "L-b1"], ParseError,
     "expected a simple-root symbol (offset 2, expected a<index>)", 2, {"a<index>"}),
    (["mult", "A2", "[1,1]", "L-2*a9"], ParseError,
     "root index 9 outside 1..2 (offset 5, expected a1 | a2)", 5, {"a1", "a2"}),
    # an out-of-range index is reported where it starts: at its leading zero or minus sign
    (["mult", "A2", "[1,1]", "L-a007"], ParseError,
     "root index 7 outside 1..2 (offset 3, expected a1 | a2)", 3, {"a1", "a2"}),
    (["mult", "A2", "[1,1]", "L-a-0"], ParseError,
     "root index 0 outside 1..2 (offset 3, expected a1 | a2)", 3, {"a1", "a2"}),
    (["dim", "A2", "[1,1]", "--format=xml"], ParseError,
     "bad value for format (offset 0, expected machine | text)", 0, {"machine", "text"}),
    ([], ParseError,
     "missing command (offset 0, expected bench | char | dim | mult | verify)", 0,
     {"bench", "char", "dim", "mult", "verify"}),
    (["frobnicate", "A2", "[1,1]"], ParseError,
     "unknown command 'frobnicate' (offset 0, expected bench | char | dim | mult | verify)", 0,
     {"bench", "char", "dim", "mult", "verify"}),
    (["mult"], ParseError,
     "missing system (offset 0, expected A<l>..G<l>)", 0, {"A<l>..G<l>"}),
    (["mult", "H3", "[1,1,1]", "[0,0,0]"], ParseError,
     "bad system token 'H3' (offset 0, expected A<l>..G<l>)", 0, {"A<l>..G<l>"}),
    # the whole token must match: a trailing newline is not part of a system name
    (["mult", "A2\n", "[1,1]", "[0,0]"], ParseError,
     "bad system token 'A2\\n' (offset 0, expected A<l>..G<l>)", 0, {"A<l>..G<l>"}),
    (["dim", "A2", "[1,1]", "--trace"], ParseError,
     "flag --trace needs a value (offset 7, expected value)", 7, {"value"}),
    (["dim", "A2", "[1,1]", "--oracle-cap=many"], ParseError,
     "oracle-cap must be an integer (offset 0, expected integer)", 0, {"integer"}),
    # one integer grammar for coordinates and flags: no underscore, space or plus sign
    (["verify", "G2", "[1,1]", "--oracle-cap=1_000"], ParseError,
     "oracle-cap must be an integer (offset 0, expected integer)", 0, {"integer"}),
    (["verify", "G2", "[1,1]", "--oracle-cap= 7"], ParseError,
     "oracle-cap must be an integer (offset 0, expected integer)", 0, {"integer"}),
    (["verify", "G2", "[1,1]", "--oracle-cap=+5"], ParseError,
     "oracle-cap must be an integer (offset 0, expected integer)", 0, {"integer"}),
    (["dim", "A2", "[1,1]", "--oracle-cap", "0"], ParseError,
     "oracle-cap must be positive (offset 0, expected positive integer)", 0,
     {"positive integer"}),
    (["dim", "A2", "[1,1]", "--colour=red"], ParseError,
     "unknown flag --colour (offset 0, expected --algorithm | --format | --oracle-cap | --trace)",
     0, {"--algorithm", "--format", "--oracle-cap", "--trace"}),
    (["dim", "A2"], ParseError,
     "missing highest-weight argument (offset 0, expected [a1,...,al])", 0, {"[a1,...,al]"}),
    (["mult", "A2", "[1,1]"], ParseError,
     "missing weight argument (offset 0, expected L-... | [m1,...,ml])", 0,
     {"L-...", "[m1,...,ml]"}),
    (["char", "A2", "[1,1]", "[0,0]"], ParseError,
     "unexpected argument '[0,0]' (offset 0, expected flag)", 0, {"flag"}),
    (["mult", "A2", "[1,1,0]", "[0,0]"], RankMismatch,
     "highest weight lists 3 coordinates, rank is 2", None, None),
]


class TestParseErrorContract:
    @pytest.mark.parametrize(
        "argv,kind,message,offset,expected", PARSE_ERRORS,
        ids=[" ".join(case[0]) for case in PARSE_ERRORS],
    )
    def test_message_offset_and_expected_set(self, argv, kind, message, offset, expected):
        with pytest.raises(kind) as info:
            parse_query(argv)
        assert type(info.value) is kind
        assert str(info.value) == message
        if kind is ParseError:
            assert (info.value.offset, info.value.expected) == (offset, expected)
        assert main(argv) == 2


class TestNonDecimalDigits:
    """A character other than a decimal digit where an integer is expected is a parse error."""

    @pytest.mark.parametrize(
        "lam,mu,offset,expected",
        [
            ("[²,1]", "[0,0]", 1, {"integer"}),
            ("[1,1]", "L-²*a1", 2, {"a<index>"}),
            ("[1,1]", "L-a²", 3, {"integer"}),
            ("[1,1]", "[0,5²]", 4, {",", "]"}),
        ],
    )
    def test_superscript_digit_is_a_parse_error(self, lam, mu, offset, expected, capsys):
        with pytest.raises(ParseError) as info:
            parse_query(["mult", "A2", lam, mu])
        assert (info.value.offset, info.value.expected) == (offset, expected)
        assert main(["mult", "A2", lam, mu]) == 2
        assert "error:" in capsys.readouterr().err

    def test_other_decimal_digits_still_parse(self):
        q = parse_query(["mult", "A2", "[٣,1]", "[0,0]"])
        assert q.lam == (3, 1)


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mult", "A4", "[1,1,0,1]", "L-a1-a2-a3-a4"],
            ["mult", "A2", "[1,1]", "[0,0]"],
            ["mult", "B3", "[2,0,1]", "L-2*a1-a3", "--algorithm=fast"],
            ["bench", "A6", "[1,0,0,0,0,1]", "L-a1-a2-a3-a4-a5-a6"],
            ["char", "G2", "[0,1]", "--format=machine"],
            ["dim", "A2", "[1,1]"],
            ["verify", "B2", "[1,1]", "--oracle-cap=2000", "--trace=off"],
        ],
    )
    def test_parse_render_parse(self, argv):
        q = parse_query(argv)
        assert parse_query(render_query(q)) == q

    def test_render_uses_expression_form(self):
        q = parse_query(["mult", "A3", "[1,1,1]", "L-a1-3*a2"])
        assert "L-a1-3*a2" in render_query(q)


class TestRun:
    def test_mult_reports_the_product_formula_value(self):
        q = parse_query(["mult", "A4", "[1,1,0,1]", "L-a1-a2-a3-a4"])
        code, text = run(q)
        assert code == 0
        assert text.splitlines()[0] == "multiplicity: 6"

    def test_mult_machine_format_has_the_stable_keys(self):
        q = parse_query(
            ["mult", "A2", "[1,1]", "[0,0]", "--format=machine", "--algorithm=classical"]
        )
        code, text = run(q)
        data = machine_dict(text)
        assert code == 0
        assert data["multiplicity"] == "2"
        assert data["counters.classical_terms"] == "3"
        assert data["counters.fast_terms"] == "0"
        assert data["counters.inner_products"] == "5"
        assert data["counters.cache_hits"] == "2"
        assert "trace" in data

    def test_mult_trace_full_shows_reduction_data(self):
        q = parse_query(["mult", "A4", "[1,1,0,1]", "L-a1-a2-a3-a4", "--trace=full"])
        _, text = run(q)
        assert "type_a_closed[1,2,4]" in text

    def test_dim_output_line(self):
        q = parse_query(["dim", "A2", "[1,1]"])
        code, text = run(q)
        assert code == 0
        assert text == "dimension: 8 (character-sum) / 8 (weyl)"

    def test_char_sorted_by_decreasing_height(self):
        q = parse_query(["char", "A2", "[1,1]", "--format=machine"])
        code, text = run(q)
        data = machine_dict(text)
        assert code == 0
        assert data["char.size"] == "2"
        assert data["char.0.mu"] == "[0,0]"
        assert data["char.0.multiplicity"] == "2"
        assert data["char.1.mu"] == "[1,1]"

    def test_char_reads_heights_off_the_descent(self, monkeypatch):
        calls = []
        for name in ("weightmult.rootsys", "weightmult.multiplicity"):
            module = importlib.import_module(name)
            original = module._lattice_coords
            monkeypatch.setattr(
                module, "_lattice_coords", lambda rs, v, f=original: calls.append(v) or f(rs, v)
            )
        code, _ = run(parse_query(["char", "E6", "[1,1,0,0,0,1]"]))
        assert code == 0
        assert calls == []

    def test_verify_pass(self):
        q = parse_query(["verify", "A3", "[1,1,0]"])
        code, text = run(q)
        assert code == 0
        assert "pass" in text

    def test_verify_capped_group_exits_four(self):
        q = parse_query(["verify", "E7", "[1,0,0,0,0,0,0]"])
        code, text = run(q)
        assert code == 4
        assert "skipped" in text

    def test_bench_counters_contrast(self):
        q = parse_query(
            ["bench", "A6", "[1,0,0,0,0,1]", "L-a1-a2-a3-a4-a5-a6", "--format=machine"]
        )
        code, text = run(q)
        data = machine_dict(text)
        assert code == 0
        assert data["bench.classical.counters.classical_terms"] == "21"
        assert data["bench.fast.counters.fast_terms"] == "6"
        assert data["bench.fast.counters.inner_products"] == "0"
        assert data["multiplicity"] == "6"
        assert int(data["bench.classical.median_us"]) >= 0

    @pytest.mark.parametrize(
        "system,lam,mu",
        [("A3", "[1,1,1]", "L-a1-a2"), ("B2", "[2,1]", "[0,1]"), ("G2", "[1,0]", "[0,0]")],
    )
    def test_machine_multiplicity_identical_across_algorithms(self, system, lam, mu):
        values = set()
        for algorithm in ("classical", "fast"):
            q = parse_query(["mult", system, lam, mu, "--format=machine",
                             f"--algorithm={algorithm}"])
            _, text = run(q)
            values.add(machine_dict(text)["multiplicity"])
        assert len(values) == 1


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["mult", "A4", "[1,1,0,1]", "L-a1-a2-a3-a4"]) == 0
        assert "multiplicity: 6" in capsys.readouterr().out

    def test_parse_error(self, capsys):
        assert main(["mult", "A2", "[1,1,0]", "[0,0]"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_domain_error(self, capsys):
        assert main(["mult", "A2", "[1,-1]", "[0,0]"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_a_query_too_deep_for_the_interpreter_is_a_domain_error(self, capsys):
        assert main(["mult", "A3", "[200,0,200]", "[0,0,0]"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the query for (0, 0, 0) under (200, 0, 200) recurses past")
        assert "Traceback" not in err

    def test_invalid_type_is_a_domain_error(self, capsys):
        assert main(["dim", "E5", "[1,1,1,1,1]"]) == 3
        capsys.readouterr()

    def test_an_empty_bracket_is_read_as_zero_coordinates(self, capsys):
        assert main(["mult", "A2", "[]", "[0,0]"]) == 2
        assert "highest weight lists 0 coordinates, rank is 2" in capsys.readouterr().err
        assert main(["dim", "A0", "[]"]) == 3
        assert "(A, 0) is not a finite simple type" in capsys.readouterr().err

    def test_verify_divergence_free_module_is_zero(self, capsys):
        assert main(["verify", "B2", "[0,2]"]) == 0
        capsys.readouterr()

    def test_capped_verify_is_four(self, capsys):
        assert main(["verify", "E7", "[0,0,0,0,0,0,1]", "--oracle-cap=100"]) == 4
        capsys.readouterr()

    def test_bench_policy_mismatch_exits_one(self, monkeypatch, capsys):
        import weightmult.cli as cli

        def disagreeing(rs, lam, mu, *, algorithm, ctx):
            return (1 if algorithm == "classical" else 2), None

        monkeypatch.setattr(cli, "multiplicity", disagreeing)
        assert main(["bench", "A2", "[1,1]", "[0,0]"]) == 1
        assert "mismatch: classical 1 vs fast 2" in capsys.readouterr().out


GOLDEN = Path(__file__).resolve().parent / "cli_golden.txt"
_MEDIAN = re.compile(r"(median(?:_us:)? )\d+")


def golden_cases():
    """``(argv, exit code, stdout lines)`` for each ``$`` block of `GOLDEN`."""
    cases = []
    for block in GOLDEN.read_text().split("\n$ "):
        head, code, *out = block.removeprefix("$ ").rstrip("\n").split("\n")
        cases.append((head.split(), int(code.removeprefix("exit ")), out))
    return cases


GOLDEN_CASES = golden_cases()


class TestGoldenOutput:
    """Every verb in both formats prints what `cli_golden.txt` shows; bench medians are masked."""

    @pytest.mark.parametrize(
        "argv,code,expected", GOLDEN_CASES, ids=[" ".join(case[0]) for case in GOLDEN_CASES]
    )
    def test_stdout_and_exit_code(self, argv, code, expected, capsys):
        assert main(argv) == code
        out = capsys.readouterr().out
        assert _MEDIAN.sub(r"\1N", out).splitlines() == expected


def _run_cli(*argv, interpreter_flags=()):
    """Run ``python -m weightmult`` on this checkout's sources in a subprocess."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "weightmult", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def _run_optimised(*argv):
    """Run the CLI under ``python -O``, where every ``assert`` is stripped."""
    return _run_cli(*argv, interpreter_flags=("-O",))


class TestSubprocess:
    def test_e8_dimension_in_the_billions(self):
        proc = _run_cli("dim", "E8", "[0,0,0,1,0,0,0,0]")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "dimension: 6899079264 (character-sum) / 6899079264 (weyl)"

    def test_e6_verify_runs_the_kostant_column(self):
        proc = _run_cli("verify", "E6", "[0,1,0,0,0,0]", "--format", "machine")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "verify.passed: true" in lines
        assert "verify.capped: false" in lines
        (zero_row,) = [line for line in lines if "[0,0,0,0,0,0]" in line]
        assert "kostant=6" in zero_row

    def test_e7_verify_runs_the_kostant_column_with_an_explicit_cap(self):
        proc = _run_cli("verify", "E7", "[1,0,0,0,0,0,0]", "--oracle-cap=2903040",
                        "--format", "machine")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "verify.passed: true" in lines
        assert "verify.capped: false" in lines
        (zero_row,) = [line for line in lines if "[0,0,0,0,0,0,0]" in line]
        assert "kostant=7" in zero_row

    def test_e8_adjoint_verify_passes_with_the_full_group_as_cap(self):
        proc = _run_cli("verify", "E8", "[0,0,0,0,0,0,0,1]", "--oracle-cap=696729600")
        assert proc.returncode == 0, proc.stderr
        assert "verify: pass" in proc.stdout


class TestOptimisedInterpreter:
    def test_character_with_an_off_chain_levi_piece(self):
        proc = _run_optimised("char", "D5", "[0,0,0,1,1]")
        assert proc.returncode == 0, proc.stderr

    def test_e6_dimension_agrees_both_ways(self):
        proc = _run_optimised("dim", "E6", "[1,1,0,0,0,1]")
        assert proc.returncode == 0, proc.stderr
        assert "dimension: 34749 (character-sum) / 34749 (weyl)" in proc.stdout

    def test_f4_verify_matches_the_plain_run(self):
        argv = ("verify", "F4", "[0,0,0,2]", "--format", "machine")
        proc = _run_optimised(*argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == _run_cli(*argv).stdout.splitlines()
