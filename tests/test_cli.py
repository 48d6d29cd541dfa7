"""End-to-end checks of the command line: exact text, JSON shape, exit codes."""

import json
from itertools import permutations
from pathlib import Path

import pytest

from shiftpat import cli
from shiftpat.cli import EXIT_BOUND, EXIT_MALFORMED, EXIT_OK, EXIT_REFUTED, EXIT_USAGE, main
from shiftpat.conjectures import (
    Conjecture1Report,
    Conjecture2Report,
    DescentDistribution,
    DivisibilityCell,
)
from shiftpat.permutations import format_permutation
from shiftpat.realization import witness

GOLDEN = Path(__file__).parent / "golden"


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
        _, out_spaced, _ = run_cli(capsys, "nmin", "4 3 6 1 5 2")
        assert out_digits == out_spaced

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


class TestWitness:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "436152", "--variant", "A", "--m", "2")
        assert code == EXIT_OK
        assert out == "word=103020302(0)\nvariant=A k=2 m=2\ncheck=ok\n"

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

    def test_undefined_json_is_null(self, capsys):
        _, out, _ = run_cli(capsys, "pat", "--json", "(01)", "3")
        assert json.loads(out)["result"] is None

    def test_malformed_word(self, capsys):
        code, _, err = run_cli(capsys, "pat", "abc", "3")
        assert code == EXIT_MALFORMED
        assert "not a PRE(PER) word literal: 'abc'" in err

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


class TestConjectureCommands:
    def test_conjecture1_verified(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture1", "4")
        assert code == EXIT_OK
        assert out == "conjecture1 n=4: verified (descent-set distributions compared)\n"

    def test_conjecture1_bound(self, capsys):
        code, _, err = run_cli(capsys, "conjecture1", "12")
        assert code == EXIT_BOUND
        assert err == "error: n=12 exceeds the sweep bound 9\n"

    def test_conjecture1_bound_override(self, capsys):
        code, _, _ = run_cli(capsys, "conjecture1", "4", "--bound", "4")
        assert code == EXIT_OK

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
        cell = DivisibilityCell(n=4, N=3, value=7, even=False, six_claimed=True, six_ok=False)
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

    def test_mismatch_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_a", lambda n, N, **kw: 999)
        code, out, _ = run_cli(capsys, "xcheck", "2", "2")
        assert code == EXIT_REFUTED
        assert "MISMATCH" in out


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

    def test_threads_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SHIFTPAT_THREADS", "3")
        args = cli.build_parser().parse_args(["allowed", "3", "2"])
        assert args.threads == 3

    def test_threads_env_not_a_number(self, capsys, monkeypatch):
        monkeypatch.setenv("SHIFTPAT_THREADS", "abc")
        code, out, err = run_cli(capsys, "table", "4")
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_usage_error(err)

    def test_negative_threads(self, capsys):
        code, out, err = run_cli(capsys, "table", "4", "--threads", "-3")
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_usage_error(err)

    def test_explicit_threads_override_bad_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SHIFTPAT_THREADS", "abc")
        code, out, _ = run_cli(capsys, "table", "3", "--threads", "1")
        assert code == EXIT_OK
        assert out == "n\tN\ta_nN\n2\t2\t2\n3\t2\t6\n"
