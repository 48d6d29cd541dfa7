"""End-to-end checks of the command line: exact text, JSON shape, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import shiftpat
from shiftpat import cli, enumeration
from shiftpat.cli import EXIT_BOUND, EXIT_MALFORMED, EXIT_OK, EXIT_REFUTED, EXIT_USAGE, main
from shiftpat.conjectures import (
    Conjecture1Report,
    Conjecture2Report,
    DescentDistribution,
    DivisibilityCell,
)
from shiftpat.permutations import format_permutation
from shiftpat.realization import witness

from references import eulerian_row

GOLDEN = Path(__file__).parent / "golden"
# The SHA-256 of the stdout of each command the benchmark runs, at one worker.
DIGESTS = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_usage_error(err):
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]


class TestNmin:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "nmin", "4 3 6 1 5 2")
        assert code == EXIT_OK
        assert out == (
            "N=4\n"
            "A={3,4,5}\n"
            "Delta=0 case=none\n"
            "theta=5 * 6 3 2 1\n"
            "des=3 eps=0\n"
        )

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "nmin", "--json", "4 3 6 1 5 2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert list(data.keys()) == ["input", "result", "details"]
        assert data["input"] == {"perm": [4, 3, 6, 1, 5, 2]}
        assert data["result"] == 4
        assert data["details"] == {
            "A": [3, 4, 5],
            "delta": 0,
            "delta_case": None,
            "theta": "5 * 6 3 2 1",
            "des": 3,
            "eps": 0,
        }

    def test_digit_shorthand_matches_spaced_form(self, capsys):
        _, out_digits, _ = run_cli(capsys, "nmin", "436152")
        _, out_commas, _ = run_cli(capsys, "nmin", "4,3,6,1,5,2")
        _, out_spaced, _ = run_cli(capsys, "nmin", "4 3 6 1 5 2")
        assert out_digits == out_commas == out_spaced

    def test_length_one(self, capsys):
        code, out, err = run_cli(capsys, "nmin", "1")
        assert code == EXIT_OK
        assert err == ""
        assert out == "N=1\nA={}\nDelta=0 case=none\ntheta=*\ndes=0 eps=0\n"

    def test_malformed_permutation(self, capsys):
        code, out, err = run_cli(capsys, "nmin", "4 4 1")
        assert code == EXIT_MALFORMED
        assert out == ""
        assert err == "error: not a permutation of 1..3: (4, 4, 1)\n"

    @pytest.mark.parametrize("text", ["+1", "٣١٢", "１ ２", "1_0 2"])
    def test_only_ascii_digits(self, capsys, text):
        code, out, err = run_cli(capsys, "nmin", text)
        assert code == EXIT_MALFORMED
        assert out == ""
        assert err == f"error: not a permutation literal: {text!r}\n"

    def test_python_dash_m(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "shiftpat", "nmin", "21"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == "N=2\nA={}\nDelta=1 case=II\ntheta=* 1\ndes=0 eps=1\n"


class TestWitness:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "436152", "--variant", "A", "--m", "2")
        assert code == EXIT_OK
        assert out == "word=103020302(0)\nvariant=A k=2 m=2\ncheck=ok\n"

    def test_default_m_is_the_least_the_bound_admits(self, capsys):
        # k = 2, n = 6: (m-1)(n-k) >= n-2 first holds at m = 2
        code, out, _ = run_cli(capsys, "witness", "436152")
        assert code == EXIT_OK
        assert out == "word=103020302(0)\nvariant=A k=2 m=2\ncheck=ok\n"
        code, out, _ = run_cli(capsys, "witness", "--json", "436152")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["result"] == "103020302(0)"
        assert data["details"] == {"variant": "A", "k": 2, "m": 2, "check": True}

    def test_json_reports_check(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--json", "35241", "--variant", "C")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["result"] == "0101(0)"
        assert data["details"]["variant"] == "C"
        assert data["details"]["check"] is True

    def test_inapplicable_variant_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "witness", "2 1 3", "--variant", "C")
        assert code == EXIT_USAGE
        assert "variant C needs pi(n) = 1" in err

    def test_m_below_bound_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "witness", "4 2 1 7 5 3 6", "--m", "2")
        assert code == EXIT_USAGE
        assert "repetition bound" in err


class TestPat:
    def test_defined(self, capsys):
        code, out, _ = run_cli(capsys, "pat", "103020302(0)", "6")
        assert code == EXIT_OK
        assert out == "4 3 6 1 5 2\n"

    def test_undefined(self, capsys):
        code, out, _ = run_cli(capsys, "pat", "(01)", "3")
        assert code == EXIT_OK
        assert out == "undefined\n"

    def test_length_past_the_word_is_undefined(self, capsys):
        # suffixes 2 and 3 of 01(0) are both 0^inf; no key is built
        code, out, err = run_cli(capsys, "pat", "01(0)", "100000000000000000000")
        assert code == EXIT_OK
        assert out == "undefined\n"
        assert err == ""

    def test_undefined_json_is_null(self, capsys):
        _, out, _ = run_cli(capsys, "pat", "--json", "(01)", "3")
        assert json.loads(out)["result"] is None

    def test_malformed_word(self, capsys):
        code, _, err = run_cli(capsys, "pat", "abc", "3")
        assert code == EXIT_MALFORMED
        assert "not a PRE(PER) word literal: 'abc'" in err

    def test_empty_list_item_is_malformed(self, capsys):
        # an empty item is a malformed literal, not int()'s own message
        code, out, err = run_cli(capsys, "pat", "[1,,2](0)", "3")
        assert code == EXIT_MALFORMED
        assert out == ""
        assert err == "error: not a PRE(PER) word literal: '[1,,2](0)'\n"

    def test_bracket_round_trip_from_witness(self, capsys):
        # 11 symbols: the witness is printed as bracketed lists and read back
        _, out, _ = run_cli(capsys, "witness", "--json", "1,12,2,11,3,10,4,9,5,8,6,7")
        word = json.loads(out)["result"]
        assert word.startswith("[")
        code, out, _ = run_cli(capsys, "pat", word, "12")
        assert code == EXIT_OK
        assert out == "1 12 2 11 3 10 4 9 5 8 6 7\n"

    def test_round_trip_from_witness(self, capsys):
        for pi in permutations(range(1, 7)):
            spec = witness(pi)
            code, out, _ = run_cli(capsys, "pat", spec.word.to_string(), "6")
            assert code == EXIT_OK
            assert out == format_permutation(pi) + "\n"


class TestPatternSets:
    def test_allowed_over_two_symbols(self, capsys):
        code, out, _ = run_cli(capsys, "allowed", "3", "2")
        assert code == EXIT_OK
        assert out.splitlines() == ["1 2 3", "1 3 2", "2 1 3", "2 3 1", "3 1 2", "3 2 1"]

    def test_forbidden_empty_below_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "forbidden", "4", "3")
        assert code == EXIT_OK
        assert out == ""

    def test_minimal_forbidden_six_four(self, capsys):
        code, out, _ = run_cli(capsys, "minimal-forbidden", "6", "4")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "1 6 2 5 3 4",
            "3 2 4 1 5 6",
            "3 4 2 5 1 6",
            "4 3 5 2 6 1",
            "4 5 3 6 2 1",
            "6 1 5 2 4 3",
        ]

    def test_allowed_past_the_byte_range(self, capsys):
        # N >= n gives the set of N = n, so a huge alphabet costs no more
        code, out, _ = run_cli(capsys, "allowed", "3", "300")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 6

    def test_allowed_over_one_symbol_is_empty(self, capsys):
        # no word on one symbol realizes a pattern, so nothing is swept
        assert run_cli(capsys, "allowed", "1200", "1") == (EXIT_OK, "", "")

    @pytest.mark.parametrize("argv", [("allowed", "1200", "2"),
                                      ("count", "1200", "2", "--method", "oracle")])
    def test_oracle_plan_past_the_bound_exits_4(self, capsys, monkeypatch, argv):
        # refused by the plan's word count before any job: the kernel is never reached
        def never(*args):
            raise AssertionError("an oracle job ran")

        monkeypatch.setattr(enumeration, "_oracle_slice", never)
        monkeypatch.setattr(enumeration, "_fan_out", never)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_BOUND, "")
        assert err == "error: n=1200 N=2 exceeds the oracle bound of 1000000000000 words\n"

    def test_golden_allowed_six_three(self, capsys):
        code, out, _ = run_cli(capsys, "allowed", "6", "3")
        assert code == EXIT_OK
        assert out == (GOLDEN / "allowed_6_3.txt").read_text()

    def test_json_count_detail(self, capsys):
        _, out, _ = run_cli(capsys, "allowed", "--json", "4", "2")
        data = json.loads(out)
        assert data["details"] == {"count": 18}
        assert len(data["result"]) == 18

    def test_threads_do_not_change_output(self, capsys):
        _, single, _ = run_cli(capsys, "allowed", "5", "3", "--threads", "1")
        _, double, _ = run_cli(capsys, "allowed", "5", "3", "--threads", "2")
        assert single == double


class TestCount:
    @pytest.mark.parametrize("method", ["closed", "recurrence", "brute", "oracle"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run_cli(capsys, "count", "5", "3", "--method", method)
        assert code == EXIT_OK
        assert out == "66\n"

    def test_large_cell(self, capsys):
        code, out, _ = run_cli(capsys, "count", "8", "4")
        assert code == EXIT_OK
        assert out == "19476\n"

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--json", "4", "2")
        data = json.loads(out)
        assert data == {
            "input": {"n": 4, "N": 2},
            "result": 18,
            "details": {"method": "closed"},
        }


class TestTable:
    def test_exact_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "table", "3")
        assert code == EXIT_OK
        assert out == "n\tN\ta_nN\n2\t2\t2\n3\t2\t6\n"

    def test_row_layout(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--json", "5")
        data = json.loads(out)
        assert data["result"] == [
            [2, 2, 2],
            [3, 2, 6],
            [4, 2, 18],
            [4, 3, 6],
            [5, 2, 48],
            [5, 3, 66],
            [5, 4, 6],
        ]


    @pytest.mark.parametrize("n_max", ["1", "-5"])
    @pytest.mark.parametrize("command", ["table", "conjecture2"])
    def test_rejects_n_max_below_two(self, capsys, command, n_max):
        code, out, err = run_cli(capsys, command, n_max)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: need n_max >= 2\n"

    @pytest.mark.parametrize("flags,suffix", [((), ".txt"), (("--json",), ".json")])
    @pytest.mark.parametrize("command", ["table", "conjecture2"])
    def test_golden_twelve(self, capsys, command, flags, suffix):
        code, out, _ = run_cli(capsys, command, *flags, "12")
        assert code == EXIT_OK
        assert out == (GOLDEN / f"{command}_12{suffix}").read_text()


class TestSextet:
    def test_four(self, capsys):
        code, out, _ = run_cli(capsys, "sextet", "4")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "1 4 2 3",
            "2 1 3 4",
            "2 3 1 4",
            "3 2 4 1",
            "3 4 2 1",
            "4 1 3 2",
        ]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "sextet", "5", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["input"] == {"n": 5}
        assert len(data["result"]) == 6
        assert data["details"] == {"count": 6}


class TestConjectureCommands:
    def test_conjecture1_verified(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture1", "4")
        assert code == EXIT_OK
        assert out == "conjecture1 n=4: verified (descent-set distributions compared)\n"

    def test_conjecture1_json(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture1", "9", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["input"] == {"n": 9}
        assert data["result"] is True
        assert data["details"]["population"] == math.factorial(9)
        assert data["details"]["distinct_descent_sets"] == 2**8
        assert data["details"]["by_count"] == {str(k): v for k, v in enumerate(eulerian_row(9))}

    def test_conjecture1_bound(self, capsys):
        code, _, err = run_cli(capsys, "conjecture1", "12")
        assert code == EXIT_BOUND
        assert err == "error: n=12 exceeds the sweep bound 9\n"

    def test_conjecture1_domain_before_bound(self, capsys):
        code, out, err = run_cli(capsys, "conjecture1", "-3", "--bound", "-5")
        assert (code, out, err) == (EXIT_USAGE, "", "error: need n >= 1\n")

    def test_conjecture1_bound_override(self, capsys):
        code, _, _ = run_cli(capsys, "conjecture1", "4", "--bound", "4")
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "conjecture1", "12", "--bound", "12")
        assert code == EXIT_OK
        assert out == "conjecture1 n=12: verified (descent-set distributions compared)\n"

    def test_conjecture1_refuted_exit(self, capsys, monkeypatch):
        dist = DescentDistribution(by_set={frozenset(): 1}, by_count={0: 1})
        fake = Conjecture1Report(
            n=3, matches=False, t0_distribution=dist, sn_distribution=dist
        )
        monkeypatch.setattr(cli, "check_conjecture1", lambda n, bound=9: fake)
        code, out, _ = run_cli(capsys, "conjecture1", "3")
        assert code == EXIT_REFUTED
        assert "REFUTED" in out

    def test_conjecture2_text(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture2", "5")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "n=2 N=2 a=2 even=yes",
            "n=3 N=2 a=6 even=yes",
            "n=4 N=2 a=18 even=yes",
            "n=4 N=3 a=6 even=yes six=yes",
            "n=5 N=2 a=48 even=yes",
            "n=5 N=3 a=66 even=yes six=yes",
            "n=5 N=4 a=6 even=yes six=yes",
            "conjecture2 up to n=5: verified",
        ]

    def test_conjecture2_refuted_exit(self, capsys, monkeypatch):
        cell = DivisibilityCell(n=4, N=3, a=7, even=False, six_claimed=True, six_ok=False)
        fake = Conjecture2Report(n_max=4, cells=[cell], all_even=False, refuted=True)
        monkeypatch.setattr(cli, "check_conjecture2", lambda n_max: fake)
        code, out, _ = run_cli(capsys, "conjecture2", "4")
        assert code == EXIT_REFUTED
        assert "n=4 N=3 a=7 even=NO six=NO" in out
        assert "REFUTED" in out


class TestXcheck:
    def test_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "xcheck", "4", "2")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "n=2 N=2 closed=2 brute=2 oracle=2 ok",
            "n=3 N=2 closed=6 brute=6 oracle=6 ok",
            "n=4 N=2 closed=18 brute=18 oracle=18 ok",
            "xcheck: all agree",
        ]

    @pytest.mark.parametrize("flags,suffix", [((), ".txt"), (("--json",), ".json")])
    def test_golden_seven_five(self, capsys, flags, suffix):
        code, out, _ = run_cli(capsys, "xcheck", *flags, "7", "5")
        assert code == EXIT_OK
        assert out == (GOLDEN / f"xcheck_7_5{suffix}").read_text()

    @pytest.mark.parametrize("n_max,N_max", [("1", "1"), ("3", "1"), ("1", "3")])
    def test_rejects_empty_grid(self, capsys, n_max, N_max):
        # no cell to check must not read as agreement
        code, out, err = run_cli(capsys, "xcheck", n_max, N_max)
        assert code == EXIT_USAGE
        assert out == ""
        # n_max is checked first, and the message names the one size it rejects
        rejected = "n_max" if n_max == "1" else "N_max"
        assert err == f"error: need {rejected} >= 2\n"

    def test_mismatch_exit(self, capsys, monkeypatch):
        real = cli.count_row

        def wrong_closed_row(n, N_max, method="closed", **kw):
            if method == "closed":
                return (999,) * (N_max - 1)
            return real(n, N_max, method=method, **kw)

        monkeypatch.setattr(cli, "count_row", wrong_closed_row)
        code, out, _ = run_cli(capsys, "xcheck", "2", "2")
        assert code == EXIT_REFUTED
        assert "MISMATCH" in out

    def test_bound_before_any_work(self, capsys, monkeypatch):
        def no_work(*args, **kw):
            raise AssertionError("xcheck computed a row past its bound")

        monkeypatch.setattr(cli, "count_row", no_work)
        code, out, err = run_cli(capsys, "xcheck", "10", "2")
        assert code == EXIT_BOUND
        assert out == ""
        assert err == "error: n=10 exceeds the sweep bound 9\n"


class TestPatternSetBound:
    @pytest.mark.parametrize("command", ["forbidden", "minimal-forbidden"])
    def test_bound_before_any_work(self, capsys, monkeypatch, command):
        def no_work(*args, **kw):
            raise AssertionError(f"{command} swept past its bound")

        monkeypatch.setattr(enumeration, "_least_alphabets", no_work)
        monkeypatch.setattr(enumeration, "_all_permutations", no_work)
        code, out, err = run_cli(capsys, command, "12", "3")
        assert code == EXIT_BOUND
        assert out == ""
        assert err == "error: n=12 exceeds the sweep bound 9\n"
        assert_one_usage_error(err)


class TestBenchmarkDigests:
    @pytest.mark.parametrize("key", list(DIGESTS))
    def test_stdout_matches_recorded_digest(self, capsys, key):
        code, out, _ = run_cli(capsys, *key.split(), "--threads", "1")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key]


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE
        assert err != ""

    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == EXIT_OK
        assert "shiftpat" in out

    def test_negative_threads(self, capsys):
        code, out, err = run_cli(capsys, "table", "4", "--threads", "-3")
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_usage_error(err)

    @pytest.mark.parametrize("digits", ["\u0663", "\uff12"])
    def test_non_ascii_threads(self, capsys, digits):
        code, out, err = run_cli(capsys, "table", "3", "--threads", digits)
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_usage_error(err)

    def test_environment_changes_nothing(self, capsys, monkeypatch):
        commands = (("table", "3"), ("allowed", "4", "2"))
        monkeypatch.delenv("SHIFTPAT_THREADS", raising=False)
        clean = [run_cli(capsys, *argv)[:2] for argv in commands]
        assert [code for code, _ in clean] == [EXIT_OK, EXIT_OK]
        for value in ("abc", "3"):
            monkeypatch.setenv("SHIFTPAT_THREADS", value)
            assert [run_cli(capsys, *argv)[:2] for argv in commands] == clean
            assert cli.build_parser().parse_args(["allowed", "3", "2"]).threads == 1


# Literal text for the fuzz test: ASCII digits, the separators and brackets of
# the permutation and word grammars, signs, `_` and a few non-ASCII digits,
# mixed with well-formed permutation and word literals so that some succeed.
LITERAL_TEXT = st.text(alphabet="0123456789 ,()[]*+-_\u0663\uff11\u00b2", max_size=14)
PERMUTATION_TEXT = st.one_of(
    LITERAL_TEXT,
    st.builds(
        lambda pi, sep: sep.join(map(str, pi)),
        st.integers(2, 9).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.sampled_from(["", " ", ","]),
    ),
)
WORD_TEXT = st.one_of(
    LITERAL_TEXT,
    st.builds("{}({})".format, st.text("0123", max_size=8), st.text("0123", min_size=1, max_size=3)),
)


# The sweep commands on number arguments: -3..6 keeps every sweep below S_7
# and every call at one worker, so no call forks or runs long.
NUMBER = st.integers(-3, 6).map(str)
SWEEP_ARGV = st.one_of(
    st.tuples(st.sampled_from(["allowed", "forbidden", "minimal-forbidden", "xcheck"]),
              NUMBER, NUMBER),
    st.tuples(st.just("count"), NUMBER, NUMBER, st.just("--method"),
              st.sampled_from(["closed", "recurrence", "brute", "oracle"])),
    st.tuples(st.sampled_from(["table", "sextet", "conjecture2"]), NUMBER),
    st.tuples(st.just("conjecture1"), NUMBER,
              st.one_of(st.just(()), st.tuples(st.just("--bound"), NUMBER))
              ).map(lambda argv: (*argv[:2], *argv[2])),
)


def run_quiet(*argv):
    """(exit code, stdout, stderr) of one in-process CLI run, outside pytest's capture."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(code, out, err, codes):
    """code is one of codes; exactly one `error:` line iff it is not 0, then no stdout; no traceback."""
    assert code in codes
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == (0 if code == EXIT_OK else 1), err
    if code != EXIT_OK:
        assert out == ""
    assert "Traceback" not in out + err


class TestFuzz:
    """Every command on arbitrary arguments: an exit code, never a traceback."""

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.tuples(st.sampled_from(["nmin", "witness"]), PERMUTATION_TEXT),
            st.tuples(st.just("pat"), WORD_TEXT, st.integers(1, 64).map(str)),
        )
    )
    def test_literals_end_in_an_exit_code(self, argv):
        assert_exit_contract(*run_quiet(*argv), (EXIT_OK, EXIT_USAGE, EXIT_MALFORMED))

    @settings(max_examples=200)
    @given(SWEEP_ARGV)
    def test_sweeps_end_in_an_exit_code(self, argv):
        assert_exit_contract(*run_quiet(*argv, "--threads", "1"), (EXIT_OK, EXIT_USAGE, EXIT_BOUND))


class TestBoundaryChecks:
    """Each entry point's own domain check, one call each: a ValueError, a value or an exit."""

    @pytest.mark.parametrize("call, expected", [
        ("count_binary(1)", ValueError),
        ("count_row(1, 3)", ValueError),
        ("count_row(4, 3, method='nope')", ValueError),
        ("oracle_allowed(1, 2)", ValueError),
        ("extremal_sextet(2)", ValueError),
        ("omega_census(1, 2)", ValueError),
        ("descent_set(())", ValueError),
        ("reduce((1, 1))", ValueError),
        ("list(marked_cycles(0))", ValueError),
        ("marked_eps((0,))", ValueError),
        ("a_set((1,))", ValueError),
        ("is_primitive(())", ValueError),
        ("mobius(0)", ValueError),
        ("psi(2, 0)", ValueError),
        ("EventuallyPeriodicWord((), ())", ValueError),
        ("EventuallyPeriodicWord((), (0,)).unroll(-1)", ValueError),
        ("EventuallyPeriodicWord((), (0,)).suffix(0)", ValueError),
        ("n_min_marked((1,))", 1),
        ("EventuallyPeriodicWord((), (0,)) == '(0)'", False),  # __eq__ returns NotImplemented
        ("run_quiet('sextet', '2')", (EXIT_USAGE, "", "error: need n >= 3\n")),
        ("run_quiet('pat', '1([])', '3')", (EXIT_MALFORMED, "", "error: period must be nonempty\n")),
        ("run_quiet('witness', '436152', '--m', '0')", (EXIT_USAGE, "", "error: need m >= 1\n")),
        # a word or sextet past 10^9 entries is refused before it is built
        ("run_quiet('witness', '4312', '--m', '1000000000000000')",
         (EXIT_BOUND, "", "error: m=1000000000000000 needs 1000000000000002 entries,"
                          " past the bound of 1000000000\n")),
        ("run_quiet('sextet', '1000000000000000')",
         (EXIT_BOUND, "", "error: n=1000000000000000 needs 6000000000000000 entries,"
                          " past the bound of 1000000000\n")),
        ("run_quiet('conjecture1', '4', '--bound', '-1')",
         (EXIT_USAGE, "", "error: need bound >= 0\n")),
        ("run_quiet('conjecture1', '4', '--bound', '0')",
         (EXIT_BOUND, "", "error: n=4 exceeds the sweep bound 0\n")),
    ])
    def test_check(self, call, expected):
        names = {**vars(shiftpat), "run_quiet": run_quiet}
        if expected is ValueError:
            with pytest.raises(ValueError):
                eval(call, names)
        else:
            assert eval(call, names) == expected
