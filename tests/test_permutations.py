"""Permutations, reduction, descents, symmetries, cycles, marked cycles."""

from collections import Counter
from itertools import permutations

import pytest
from hypothesis import example, given, strategies as st

from shiftpat import (
    check_permutation,
    complement,
    descent_count,
    descent_set,
    format_marked,
    format_permutation,
    inverse,
    marked_cycles,
    marked_des,
    marked_eps,
    marked_inverse,
    marked_rc,
    parse_permutation,
    reduce,
    theta,
    theta_inv,
)
from shiftpat.permutations import _missing_value

from references import eulerian_row, n_cycles


def s_n(n):
    return permutations(range(1, n + 1))


class TestReduce:
    def test_already_reduced(self):
        assert reduce((2, 5, 1, 7, 3, 6, 4)) == (2, 5, 1, 7, 3, 6, 4)

    def test_rank_relabeling(self):
        assert reduce((8, 14, 2, 12, 3)) == (3, 5, 1, 4, 2)

    def test_pair(self):
        assert reduce((10, 20)) == (1, 2)

    @given(st.lists(st.integers(-4, 4), max_size=8))
    @example([1, 3, 1])
    def test_duplicates_rejected(self, values):
        # the tie rule: the reduction is undefined exactly when a value repeats
        if len(set(values)) < len(values):
            with pytest.raises(ValueError, match="reduction undefined"):
                reduce(values)
        else:
            assert sorted(reduce(values)) == list(range(1, len(values) + 1))

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
    def test_idempotent_and_order_isomorphic(self, values):
        out = reduce(values)
        assert reduce(out) == out
        assert sorted(out) == list(range(1, len(values) + 1))
        for i in range(len(values)):
            for j in range(len(values)):
                assert (values[i] < values[j]) == (out[i] < out[j])


class TestDescents:
    def test_increasing_has_none(self):
        assert descent_set((1, 2, 3)) == frozenset()

    def test_scan(self):
        assert descent_set((2, 5, 1, 7, 3, 6, 4)) == frozenset({2, 4, 6})

    def test_star_deleted_sequence(self):
        assert descent_set((5, 3, 6, 1, 7, 4, 9, 2)) == frozenset({1, 3, 5, 7})
        assert descent_count((5, 3, 6, 1, 7, 4, 9, 2)) == 4

    def test_eulerian_row(self):
        assert eulerian_row(4) == (1, 11, 11, 1)

    def test_eulerian_row_matches_census(self):
        for n in range(1, 7):
            row = eulerian_row(n)
            for k in range(n):
                assert row[k] == sum(1 for pi in s_n(n) if descent_count(pi) == k)


class TestSymmetries:
    def test_complement_pair(self):
        assert complement((1, 2)) == (2, 1)

    def test_inverse_worked(self):
        assert inverse((8, 9, 3, 1, 4, 6, 2, 7, 5)) == (4, 7, 3, 5, 9, 6, 8, 1, 2)

    def test_involutions_on_s5(self):
        for pi in s_n(5):
            assert complement(complement(pi)) == pi
            assert inverse(inverse(pi)) == pi


class TestCycles:
    def test_n_cycles_census(self):
        import math

        for n in range(2, 6):
            cycles = list(n_cycles(n))
            assert len(cycles) == math.factorial(n - 1)
            assert len(set(cycles)) == len(cycles)
            for pi in cycles:
                # the walk from 1 returns to 1 after exactly n steps
                v, steps = pi[0], 1
                while v != 1:
                    v, steps = pi[v - 1], steps + 1
                assert steps == n, pi

    def test_n_cycles_order(self):
        # the cycles 1 -> c_1 -> ... -> c_{n-1} -> 1, walks in lexicographic order
        for n in range(1, 8):
            expected = []
            for walk in permutations(range(2, n + 1)):
                one_line = dict(zip((1,) + walk, walk + (1,)))
                expected.append(tuple(one_line[i] for i in range(1, n + 1)))
            assert list(n_cycles(n)) == expected, n


class TestTheta:
    def test_worked_nine(self):
        assert theta((8, 9, 2, 3, 6, 4, 1, 5, 7)) == (5, 3, 6, 1, 7, 4, 0, 9, 2)

    def test_worked_four(self):
        assert theta((3, 4, 2, 1)) == (0, 1, 4, 2)

    def test_bijection_small(self):
        import math

        for n in range(1, 8):
            images = Counter(theta(pi) for pi in s_n(n))
            assert len(images) == math.factorial(n)
            assert images == Counter(marked_cycles(n)), n
            for pi in s_n(n):
                assert theta_inv(theta(pi)) == pi

    def test_theta_inv_rejects_non_cycle(self):
        # filling the star of [*, 2, 1] gives [3, 2, 1] = (1 3)(2), not a 3-cycle
        with pytest.raises(ValueError):
            theta_inv((0, 2, 1))

    def test_theta_inv_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            theta_inv((0, 0, 1))
        with pytest.raises(ValueError):
            theta_inv((1, 2, 3))

    def test_star_helpers(self):
        mc = (5, 3, 6, 1, 7, 4, 0, 9, 2)
        assert _missing_value(mc) == 8

    @pytest.mark.parametrize("helper", [theta_inv, marked_inverse])
    @pytest.mark.parametrize("mc", [(1, 2, 3), (0, 0, 1), (0, 4, 1), (2, 0, 2), ()])
    def test_star_helpers_reject_bad_shape(self, helper, mc):
        with pytest.raises(ValueError, match="not a marked cycle shape"):
            helper(mc)


class TestMarkedStatistics:
    def test_marked_des_worked(self):
        assert marked_des((5, 3, 6, 1, 7, 4, 0, 9, 2)) == 4
        assert marked_des((0, 1, 4, 2)) == 1

    def test_marked_eps(self):
        assert marked_eps((0, 1, 4, 2)) == 1
        assert marked_eps((3, 0, 2)) == 0
        assert marked_eps((2, 3, 0)) == 1
        assert marked_eps((3, 1, 4, 0)) == 1
        assert marked_eps((5, 3, 6, 1, 7, 4, 0, 9, 2)) == 0

    def test_marked_rc_involution_and_closure(self):
        for n in range(2, 6):
            for mc in marked_cycles(n):
                out = marked_rc(mc)
                theta_inv(out)
                assert marked_rc(out) == mc

    def test_marked_inverse_involution_and_closure(self):
        for n in range(2, 7):
            for mc in marked_cycles(n):
                out = marked_inverse(mc)
                theta_inv(out)
                assert marked_inverse(out) == mc

    def test_marked_cycle_count(self):
        import math

        for n in range(1, 7):
            assert sum(1 for _ in marked_cycles(n)) == math.factorial(n)


class TestTextFormats:
    def test_parse_spaces_and_commas(self):
        assert parse_permutation("4 2 1 7 5 3 6") == (4, 2, 1, 7, 5, 3, 6)
        assert parse_permutation("3,2,1") == (3, 2, 1)

    def test_digit_shorthand(self):
        assert parse_permutation("436152") == (4, 3, 6, 1, 5, 2)

    def test_bad_permutations_rejected(self):
        for bad in ("4 4 1", "0 1 2", "2 3", "x y", ""):
            with pytest.raises(ValueError):
                parse_permutation(bad)

    # signs, digit separators and non-ASCII digits (str.isdigit accepts the last)
    NOT_ASCII_DIGITS = ["+1", "-1", "1_0 2", "٣١٢", "１ ２", "2 +1", "²1"]

    @pytest.mark.parametrize("bad", NOT_ASCII_DIGITS)
    def test_only_ascii_digits_in_a_permutation(self, bad):
        with pytest.raises(ValueError, match="not a permutation literal"):
            parse_permutation(bad)

    def test_format_round_trip(self):
        for pi in s_n(5):
            assert parse_permutation(format_permutation(pi)) == pi

    def test_marked_round_trip(self):
        assert format_marked((0, 1, 4, 2)) == "* 1 4 2"
        for mc in marked_cycles(4):
            # with the hidden value written for `*`, the text reads back as the n-cycle
            text = format_marked(mc).replace("*", str(_missing_value(mc)))
            assert parse_permutation(text) == tuple(e or _missing_value(mc) for e in mc)

    def test_check_permutation(self):
        assert check_permutation([2, 1]) == (2, 1)
        with pytest.raises(ValueError):
            check_permutation([1, 3])
