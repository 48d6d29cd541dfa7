"""Counting formulas, brute-force and word-family oracles, pattern sets."""

import math
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from shiftpat import (
    BoundExceededError,
    EventuallyPeriodicWord,
    count_a,
    count_binary,
    count_g,
    count_h,
    count_row,
    count_table,
    enumerate_by_nmin,
    extremal_sextet,
    forbidden,
    minimal_forbidden,
    n_min,
    omega_census,
    oracle_allowed,
    parse_permutation,
    pat,
    reduce,
    solve_recurrence,
)

GOLDEN = Path(__file__).parent / "golden"

STRATA = {
    2: {2: 2},
    3: {2: 6},
    4: {2: 18, 3: 6},
    5: {2: 48, 3: 66, 4: 6},
    6: {2: 126, 3: 402, 4: 186, 5: 6},
    7: {2: 306, 3: 2028, 4: 2232, 5: 468, 6: 6},
    8: {2: 738, 3: 8790, 4: 19476, 5: 10212, 6: 1098, 7: 6},
}

ALLOWED_3_2 = {(1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1), (2, 3, 1), (2, 1, 3)}

ALLOWED_4_2 = {
    parse_permutation(s)
    for s in (
        "1234 1243 3412 1432 4123 2143 4312 4321 "
        "1342 1324 4231 4213 2341 2413 2431 3124 3142 3214"
    ).split()
}

MINIMAL_FORBIDDEN_6_4 = {
    parse_permutation(s) for s in "615243 324156 342516 162534 453621 435261".split()
}


def s_n(n):
    return permutations(range(1, n + 1))


class TestClosedForms:
    def test_binary_column(self):
        assert [count_binary(n) for n in range(2, 9)] == [2, 6, 18, 48, 126, 306, 738]

    def test_binary_equals_general_formula(self):
        for n in range(2, 11):
            assert count_binary(n) == count_a(n, 2)

    def test_stratification_table(self):
        for n, row in STRATA.items():
            for N, value in row.items():
                assert count_a(n, N) == value, (n, N)

    def test_worked_cells(self):
        assert count_a(5, 3) == 66
        assert count_a(8, 4) == 19476
        assert count_a(7, 6) == 6

    def test_vanishing_outside_support(self):
        assert count_a(2, 3) == 0
        assert count_a(3, 3) == 0
        for n in range(3, 9):
            assert count_a(n, n) == 0

    def test_rows_partition_the_symmetric_group(self):
        for n in range(2, 9):
            assert sum(count_a(n, N) for N in range(2, n + 1)) == math.factorial(n)

    def test_evenness(self):
        for n in range(2, 9):
            for N in range(2, n + 1):
                assert count_a(n, N) % 2 == 0

    def test_closed_equals_recurrence(self):
        for n in range(2, 9):
            for N in range(2, 8):
                assert count_a(n, N) == count_a(n, N, method="recurrence"), (n, N)

    def test_table_matches_every_cell(self):
        cells = list(count_table(30))
        assert [(n, N) for n, N, _ in cells] == [
            (n, N) for n in range(2, 31) for N in range(2, max(2, n - 1) + 1)
        ]
        for n, N, value in cells:
            assert value == count_a(n, N) == count_a(n, N, method="recurrence"), (n, N)

    def test_table_below_two_rejected(self):
        for n_max in (1, -5):
            with pytest.raises(ValueError, match="need n_max >= 2"):
                count_table(n_max)

    def test_row_is_the_closed_form_per_cell(self):
        assert count_row(6, 5) == (126, 402, 186, 6)
        assert count_row(5, 7, "h") == tuple(count_h(5, N) for N in range(2, 8))

    def test_row_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            count_row(5, 3, "x")


class TestHG:
    def test_h_worked(self):
        assert count_h(4, 2) == 4
        assert count_h(2, 2) == 1

    def test_h_matches_filtered_brute_force(self):
        # of the binary-allowed length-4 patterns, those fixing the top entry
        enders = {pi for pi in ALLOWED_4_2 if pi[-1] == 4}
        assert enders == {(1, 2, 3, 4), (1, 3, 2, 4), (3, 1, 2, 4), (3, 2, 1, 4)}
        assert count_h(4, 2) == len(enders)

    def test_g_plus_h(self):
        for n in range(2, 9):
            for N in range(2, 8):
                assert count_g(n, N) + count_h(n, N) == count_a(n, N)

    def test_g_row_plus_h_row(self):
        for n in range(2, 25):
            g, h, a = (count_row(n, n + 1, kind) for kind in "gha")
            assert tuple(x + y for x, y in zip(g, h)) == a, n

    def test_closed_equals_recurrence(self):
        for n in range(2, 8):
            for N in range(2, 7):
                assert count_h(n, N) == count_h(n, N, method="recurrence")
                assert count_g(n, N) == count_g(n, N, method="recurrence")

    def test_h_counts_both_boundary_strata(self):
        # ending at the top is as frequent as ending at the bottom
        for n in range(2, 7):
            strata = {}
            for pi in s_n(n):
                strata.setdefault(n_min(pi), []).append(pi)
            for N, members in strata.items():
                top = sum(1 for pi in members if pi[-1] == n)
                bottom = sum(1 for pi in members if pi[-1] == 1)
                assert top == bottom == count_h(n, N)


class TestSolveRecurrence:
    def test_constant_ones(self):
        unrolled, closed = solve_recurrence(3, [1, 1])
        assert unrolled == closed == (1, -2)

    def test_h_sequence(self):
        n = 4
        b = [(N - 1) * N ** (n - 2) for N in range(2, 7)]
        unrolled, closed = solve_recurrence(n, b)
        assert unrolled == closed == tuple(count_h(n, N) for N in range(2, 7))

    def test_zero(self):
        unrolled, closed = solve_recurrence(5, [0, 0, 0])
        assert unrolled == closed == (0, 0, 0)

    @given(st.integers(2, 7), st.lists(st.integers(-50, 50), min_size=1, max_size=6))
    def test_unrolled_always_matches_closed(self, n, b):
        unrolled, closed = solve_recurrence(n, b)
        assert unrolled == closed


class TestBruteForce:
    def test_small_rows(self):
        assert enumerate_by_nmin(4).counts == {2: 18, 3: 6}
        assert enumerate_by_nmin(6).counts == {2: 126, 3: 402, 4: 186, 5: 6}

    def test_row_sums(self):
        for n in range(2, 8):
            assert enumerate_by_nmin(n).total() == math.factorial(n)

    def test_members_partition(self):
        row = enumerate_by_nmin(4, keep_members=True)
        assert set(row.members[2]) == ALLOWED_4_2
        assert len(row.members[3]) == 6

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            enumerate_by_nmin(10)
        assert enumerate_by_nmin(10, bound=10).counts[2] == count_binary(10)

    def test_parallel_merge_identical(self):
        solo = enumerate_by_nmin(6, keep_members=True, workers=1)
        duo = enumerate_by_nmin(6, keep_members=True, workers=2)
        assert solo.counts == duo.counts
        assert solo.members == duo.members


class TestOracle:
    def test_all_of_s3_over_two_symbols(self):
        assert oracle_allowed(3, 2) == ALLOWED_3_2

    def test_exact_binary_length_four(self):
        assert oracle_allowed(4, 2) == ALLOWED_4_2

    def test_saturates_when_alphabet_is_large(self):
        for n in range(3, 6):
            assert oracle_allowed(n, n - 1) == set(s_n(n))

    def test_matches_formula_stratification(self):
        for n in range(2, 7):
            previous = 0
            for N in range(2, 7):
                size = len(oracle_allowed(n, N))
                assert size - previous == count_a(n, N), (n, N)
                previous = size

    def test_parallel_merge_identical(self):
        assert oracle_allowed(6, 3, workers=2) == oracle_allowed(6, 3, workers=1)

    def test_eventually_constant_words_add_nothing(self):
        # formula-free check: short one-tailed binary words stay inside
        # the family's pattern set
        for n in range(2, 6):
            allowed = oracle_allowed(n, 2)
            seen = set()
            for plen in range(9):
                for pre in product((0, 1), repeat=plen):
                    for x in (0, 1):
                        pi = pat(EventuallyPeriodicWord(pre, (x,), 2), n)
                        if pi is not None:
                            seen.add(pi)
            assert seen <= allowed


class TestForbidden:
    def test_minimal_forbidden_of_four_symbols(self):
        assert minimal_forbidden(6, 4) == MINIMAL_FORBIDDEN_6_4

    def test_nothing_forbidden_below_threshold(self):
        for N in range(2, 7):
            for n in range(2, N + 2):
                assert forbidden(n, N) == frozenset(), (n, N)

    def test_six_minimal_at_threshold(self):
        for N in (2, 3, 4):
            assert len(minimal_forbidden(N + 2, N)) == 6

    def test_golden_binary_length_four(self):
        want = {
            parse_permutation(line)
            for line in (GOLDEN / "minimal_forbidden_4_2.txt").read_text().splitlines()
        }
        assert minimal_forbidden(4, 2) == want

    def test_minimal_means_every_window_allowed(self):
        for pi in minimal_forbidden(6, 4):
            for m in range(2, 6):
                for s in range(6 - m + 1):
                    assert n_min(reduce(pi[s : s + m])) <= 4


class TestClosure:
    def test_allowed_sets_closed_under_containment(self):
        for n in range(2, 7):
            for M in range(2, 5):
                for pi in s_n(n):
                    if n_min(pi) > M:
                        continue
                    for m in range(2, n):
                        for s in range(n - m + 1):
                            assert n_min(reduce(pi[s : s + m])) <= M


class TestSextet:
    def test_length_four(self):
        assert extremal_sextet(4) == {
            (1, 4, 2, 3),
            (2, 1, 3, 4),
            (2, 3, 1, 4),
            (3, 2, 4, 1),
            (3, 4, 2, 1),
            (4, 1, 3, 2),
        }

    def test_equals_top_stratum(self):
        for n in range(3, 8):
            stratum = {pi for pi in s_n(n) if n_min(pi) == n - 1}
            assert extremal_sextet(n) == stratum

    def test_six_distinct(self):
        for n in range(3, 10):
            assert len(extremal_sextet(n)) == 6


class TestOmegaCensus:
    def test_identities_small(self):
        for n in range(2, 7):
            for N in (2, 3):
                census = omega_census(n, N)
                assert census.ok, (n, N, census)

    def test_binary_length_four_sizes(self):
        census = omega_census(4, 2)
        assert census.total == 18
        assert census.undefined == 4
        assert census.theta_total == 4

    def test_bucket_shapes(self):
        census = omega_census(6, 3)
        assert census.buckets == census.buckets_predicted
        assert census.theta_buckets == census.theta_buckets_predicted
        assert census.total == census.total_predicted
