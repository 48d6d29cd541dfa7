"""Descent-set equidistribution on zero-marked cycles; divisibility of counts."""

import math
from collections import Counter
from itertools import permutations

import pytest

from shiftpat import (
    BoundExceededError,
    check_conjecture1,
    check_conjecture2,
    count_a,
    descent_count,
    marked_cycles,
    marked_des,
    marked_eps,
    marked_rc,
    phi,
    phi_inv,
)
from shiftpat import conjectures
from shiftpat.conjectures import _by_exact_set, _necklaces

from references import descent_distribution, eulerian_row, n_cycles


def e_n(n):
    """Marked cycles starting star, 1."""
    return [mc for mc in marked_cycles(n) if mc[0] == 0 and mc[1] == 1]


def e_prime_n(n):
    """Marked cycles ending n, star."""
    return [mc for mc in marked_cycles(n) if mc[-1] == 0 and mc[-2] == n]


class TestT0:
    def test_listed_elements_for_three(self):
        assert set(marked_cycles(3)) == {
            (0, 3, 1),
            (2, 0, 1),
            (2, 3, 0),
            (0, 1, 2),
            (3, 0, 2),
            (3, 1, 0),
        }

    def test_population_sizes(self):
        for n in range(2, 8):
            assert sum(1 for _ in marked_cycles(n)) == math.factorial(n)

    def test_descent_census_for_three(self):
        counts = Counter(descent_count(mc) for mc in marked_cycles(3))
        assert counts == {0: 1, 1: 4, 2: 1}


class TestConjecture1:
    def test_three(self):
        assert check_conjecture1(3).matches

    def test_five(self):
        assert check_conjecture1(5).matches

    def test_count_marginal_is_eulerian(self):
        report = check_conjecture1(4)
        row = eulerian_row(4)
        assert report.t0_distribution.by_count == {
            k: row[k] for k in range(4) if row[k]
        }

    def test_distributions_are_full_set_maps(self):
        # 12 and 16 lie past the default bound, out of reach of a sweep of S_n.
        for n in (4, 12, 16):
            report = check_conjecture1(n, bound=n)
            assert report.t0_distribution.size() == math.factorial(n), n
            assert report.sn_distribution.size() == math.factorial(n), n
            assert report.t0_distribution.by_set == report.sn_distribution.by_set, n

    def test_bound(self):
        with pytest.raises(BoundExceededError, match="exceeds the sweep bound"):
            check_conjecture1(10)
        with pytest.raises(ValueError):
            check_conjecture1(0)
        with pytest.raises(ValueError, match="need n >= 1"):  # the domain is tested first
            check_conjecture1(-3, bound=-5)

    def test_both_sides_match_direct_sweeps(self):
        for n in range(1, 9):
            report = check_conjecture1(n)
            for got, elements in (
                (report.t0_distribution, marked_cycles(n)),
                (report.sn_distribution, permutations(range(1, n + 1))),
            ):
                want = descent_distribution(elements)
                assert got.by_set == want.by_set, n
                assert list(got.by_count.items()) == list(want.by_count.items()), n

    def test_cycle_counts_match_cycle_sweep(self):
        # The necklace counts against the exhaustive (n-1)! sweep of the n-cycles.
        for n in range(1, 10):
            want = [0] * (1 << (n - 1))
            for sigma in n_cycles(n):
                want[sum(1 << i for i in range(n - 1) if sigma[i] > sigma[i + 1])] += 1
            assert _by_exact_set(n, _necklaces) == want, n

    def test_refutation_reports_full_set_maps(self, monkeypatch):
        # One extra 5-cycle with all four descents: the cycle side no longer
        # matches, and both sides still report every set as a frozenset.
        real = conjectures._necklaces
        monkeypatch.setattr(conjectures, "_necklaces", lambda gaps: real(gaps) + (len(gaps) == 5))
        report = check_conjecture1(5)
        assert not report.matches
        assert report.t0_distribution.size() == 120 + 5
        assert report.sn_distribution.size() == 120
        for dist in (report.t0_distribution, report.sn_distribution):
            assert dist.by_set and all(isinstance(S, frozenset) for S in dist.by_set)

    def test_descent_distribution_helper(self):
        dist = descent_distribution(permutations(range(1, 4)))
        assert dist.size() == 6
        assert dist.by_set[frozenset()] == 1
        assert dist.by_count == {0: 1, 1: 4, 2: 1}


class TestPhi:
    def test_worked_value(self):
        assert phi((0, 1, 5, 7, 6, 2, 3)) == (3, 5, 4, 0, 1)

    def test_round_trip(self):
        for mc in e_n(6):
            assert phi_inv(phi(mc)) == mc

    def test_descents_preserved(self):
        for mc in e_n(7):
            out = phi(mc)
            assert marked_des(mc) == descent_count(out)

    def test_image_is_all_of_t0(self):
        for n in (5, 6):
            image = {phi(mc) for mc in e_n(n)}
            assert image == set(marked_cycles(n - 2))

    def test_membership_sizes(self):
        for n in range(3, 9):
            assert len(e_n(n)) == math.factorial(n - 2)

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            phi((2, 3, 0))
        with pytest.raises(ValueError):
            phi((0, 3, 1))

    def test_phi_inv_rejects_non_cycle_image(self):
        with pytest.raises(ValueError):
            phi_inv((0, 2, 1))


class TestMirrorOnMarkedCycles:
    def test_rc_swaps_the_two_families(self):
        for n in range(3, 8):
            left, right = e_n(n), e_prime_n(n)
            assert sorted(marked_rc(mc) for mc in left) == sorted(right)
            for mc in left:
                assert marked_des(marked_rc(mc)) == marked_des(mc)

    def test_stratum_count_via_marked_statistics(self):
        # each alphabet-size stratum splits by whether the strictness
        # sits in the chain or in the tail
        for n in range(2, 8):
            census = Counter()
            for mc in marked_cycles(n):
                census[1 + marked_des(mc) + marked_eps(mc)] += 1
            for N in range(2, n + 1):
                assert census.get(N, 0) == count_a(n, N), (n, N)

    def test_sum_des_eps_identity(self):
        for n in range(2, 8):
            for N in range(2, n + 1):
                plain = sum(
                    1 for mc in marked_cycles(n) if marked_des(mc) == N - 1 and not marked_eps(mc)
                )
                shifted = sum(
                    1 for mc in marked_cycles(n) if marked_des(mc) == N - 2 and marked_eps(mc)
                )
                assert plain + shifted == count_a(n, N)


class TestConjecture2:
    def test_verified_through_eight(self):
        report = check_conjecture2(8)
        assert report.verified()
        assert report.all_even
        assert not report.refuted

    def test_worked_cells(self):
        report = check_conjecture2(8)
        cells = {(c.n, c.N): c for c in report.cells}
        assert cells[(5, 3)].a == 66 and cells[(5, 3)].six_ok
        assert cells[(8, 5)].a == 10212 and cells[(8, 5)].six_ok
        assert cells[(7, 2)].a == 306 and cells[(7, 2)].even
        assert not cells[(7, 2)].six_claimed

    def test_divisibility_extends_to_twelve(self):
        for n in range(4, 13):
            for N in range(3, n):
                assert count_a(n, N) % 6 == 0, (n, N)
