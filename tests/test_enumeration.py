"""Counting formulas, brute-force and word-family oracles, pattern sets."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import cache
from itertools import permutations, product
from pathlib import Path
from weakref import ref

import pytest
from hypothesis import given, strategies as st

import shiftpat
from shiftpat import conjectures, enumeration, realization, words
from shiftpat import permutations as permutations_module
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
    is_primitive,
    minimal_forbidden,
    n_min,
    n_min_marked,
    omega_census,
    oracle_allowed,
    parse_permutation,
    pat,
    reduce,
    solve_recurrence,
)
from shiftpat.enumeration import (
    CensusCounts,
    OmegaCensus,
    _alternate,
    _bases,
    _least_alphabets,
    _nmin_slice,
    _oracle_plan,
    _oracle_slice,
    _primitive_sum,
    _rc_blocks,
)
from shiftpat.permutations import _blocks, _cycle_block, _ranks_of, inverse
from shiftpat.realization import _n_min
from shiftpat.words import _order

from references import n_cycles, padded_cycles

GOLDEN = Path(__file__).parent / "golden"
SHIFTPAT_MODULES = (shiftpat, conjectures, enumeration, permutations_module, realization, words)

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


def expanded(least):
    """The oracle's {order: k} map with both orders of each complement pair as tuple keys."""
    return {tuple(o): k for key, k in least.items() for o in (key, key[::-1])}


def least_patterns(n, N):
    """The oracle's {order: k} map keyed by pattern: each suffix order inverted, by its definition."""
    return {inverse(tuple(i + 1 for i in o)): k for o, k in expanded(_least_alphabets(n, N, 1)).items()}


def family_least(n, N):
    """{pi: fewest distinct symbols of a realizing word}, over the whole family on N symbols.

    The reference for the oracle's sweep: every base in {0..N-1}^(n-1), cut
    into u p at every |p| = t, and both tails x in {0, N-1} of the words
    u p^(n-1) x^inf, with no relabelling, no complement step and no clamp.
    """
    least = {}
    for base in product(range(N), repeat=n - 1):
        for x in {0, N - 1}:
            k = len(set(base) | {x})
            for t in range(1, n):
                order = _order(base + base[n - 1 - t :] * (n - 2), (x,), n)
                if order is not None and k < least.get(pi := _ranks_of(order), n + 1):
                    least[pi] = k
    return least


@cache
def walked_orders(n, k):
    """({t: orders}, bases) of the tail-0 words on exactly 0..k-1 with a primitive period p.

    The reference for the oracle's prepend walk: _bases yields each base
    in {0..k-1}^(n-1) holding every symbol 1..k-1, and words._order sorts
    the suffixes of each word u p^(n-1) 0^inf, one word per cut t = |p|
    whose p is primitive; test_a_power_orders_as_its_root covers the powers.
    """
    orders = {t: set() for t in range(1, n)}
    bases = 0
    for base in _bases(b"", n - 1, frozenset(range(1, k)), k):
        bases += 1
        for t in orders:
            if is_primitive(p := base[n - 1 - t :]):
                orders[t].add(_order(base + p * (n - 2), b"\0", n))
    for found in orders.values():
        found.discard(None)
    return orders, bases


def walked_least(n, N):
    """The oracle's {order: k} map from walked_orders: the first k finding an order or its reversal."""
    least = {}
    for k in range(2, min(N, n) + 1):
        for found in walked_orders(n, k)[0].values():
            for o in found:
                if o not in least:
                    least[o] = least[o[::-1]] = k
    return least


def marks_slice(n, second):
    """Counter of N(pi) over the cycles with sigma(1) = second, one mark at a time.

    The reference for the brute sweep's two-values-per-cycle tally: deleting
    slot p removes the descent bits d[p-1] and d[p] and compares sigma_{p-1}
    with sigma_{p+1} instead; eps adds 1 to the mark shapes [*, 1, ...] and
    [..., n, *].
    """
    counts = Counter()
    for s in padded_cycles(n, second):
        counts.update(cycle_marks(n, s))
    return counts


def cycle_marks(n, s):
    """N(pi) for each of the n marks of the padded cycle s, one mark at a time."""
    d = [s[i] > s[i + 1] for i in range(n + 1)]
    top = 1 + sum(d)
    N = [top - d[p - 1] - d[p] + (s[p - 1] > s[p + 1]) for p in range(1, n + 1)]
    N[0] += s[2] == 1
    N[-1] += s[n - 1] == n
    return N


def census_reference(n, N):
    """omega_census(n, N) by one word object per (u, p), pat and the A/Delta kernel.

    The reference for the census's weighted walk over the normalized bases:
    every word over all N symbols is built, equal words collapse through the
    canonical form of EventuallyPeriodicWord, and each pattern's alphabet
    comes from _n_min, not from the oracle's map.
    """
    words = {}
    for t in range(1, n):
        for p in product(range(N), repeat=t):
            if not is_primitive(p):
                continue
            for u in product(range(N), repeat=n - t - 1):
                w = EventuallyPeriodicWord(u + p * (n - 1), (0,), N)
                words[w] = pat(w, n)
    buckets = {j: 0 for j in range(N - 1)}
    theta_buckets = {j: 0 for j in range(N - 1)}
    undefined = 0
    for pattern in words.values():
        if pattern is None:
            undefined += 1
            continue
        j = N - _n_min(pattern)
        buckets[j] += 1
        if pattern[-1] == 1:
            theta_buckets[j] += 1
    g_row, h_row = count_row(n, N, "g"), count_row(n, N, "h")
    actual = CensusCounts(len(words), undefined, buckets, sum(theta_buckets.values()), theta_buckets)
    predicted = CensusCounts(
        _primitive_sum(n, N),
        N ** (n - 2),
        {j: math.comb(n + j - 1, j) * g_row[N - 2 - j] for j in range(N - 1)},
        (N - 1) * N ** (n - 2),
        {j: math.comb(n + j - 1, j) * h_row[N - 2 - j] for j in range(N - 1)},
    )
    return OmegaCensus(n, N, actual, predicted, actual == predicted)


def psi_horner_sum(n, M):
    """sum over 1 <= t < n of psi_M(t) M^(n-1-t), by Horner's rule: one psi per length t."""
    out = 0
    for t in range(1, n):
        out = out * M + words.psi(M, t)
    return out


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
        # the running Horner sums against one count_row per n
        rows = {}
        for n, N, value in count_table(60):
            rows.setdefault(n, []).append(value)
        assert rows == {n: list(count_row(n, max(2, n - 1))) for n in range(2, 61)}

    def test_primitive_sum_equals_the_psi_horner_sum(self):
        # the polynomial holds at every M: S(n, 0) = 0 and S(n, 1) = 1
        for n in range(2, 81):
            for M in range(0, 21):
                assert _primitive_sum(n, M) == psi_horner_sum(n, M), (n, M)
            assert (_primitive_sum(n, 0), _primitive_sum(n, 1)) == (0, 1), n
        for n in (500, 2000):
            for M in (2, 3):
                assert _primitive_sum(n, M) == psi_horner_sum(n, M), (n, M)
        # the sums behind count 5 100000
        for M in range(2, 3001):
            assert _primitive_sum(5, M) == psi_horner_sum(5, M), M

    def test_primitive_sums_call_no_psi(self, monkeypatch):
        def cells():
            return (count_row(24, 23), count_row(24, 23, method="recurrence"),
                    count_binary(48), omega_census(6, 4).predicted.total)

        expected = cells()
        poison(monkeypatch, "psi")
        assert cells() == expected

    def test_table_advances_each_primitive_sum_by_one_psi(self, monkeypatch):
        # one psi per advanced alphabet and row, and none to seed alphabet
        # n - 1 at row n: 1 + (1 + 2 + ... + 45) = 1,036 calls at n_max = 48
        calls = []
        real = enumeration.psi

        def counted(N, t):
            calls.append((N, t))
            return real(N, t)

        monkeypatch.setattr(enumeration, "psi", counted)
        list(count_table(48))
        assert len(calls) == 1036

    def test_h_row_reads_no_primitive_sum(self, monkeypatch):
        expected = count_row(9, 8, "h")
        poison(monkeypatch, "_primitive_sum", "psi")
        assert count_row(9, 8, "h") == expected

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

    def test_row_four_methods_agree(self):
        for n in range(2, 8):
            for N_max in range(2, 7):
                rows = {count_row(n, N_max, method=m)
                        for m in ("closed", "recurrence", "brute", "oracle")}
                assert len(rows) == 1, (n, N_max, rows)

    def test_oracle_row_stops_at_n(self, monkeypatch):
        # one sweep over the alphabets k = 2 .. min(N_max, n), one tail-0 job
        # per cut t = |p| in 1..n-1: n - 1 jobs for each k
        alphabets = []
        sweep = enumeration._oracle_slice

        def counted(args):
            alphabets.append(args[1])
            return sweep(args)

        monkeypatch.setattr(enumeration, "_oracle_slice", counted)
        assert count_row(5, 12, method="oracle") == count_row(5, 12)
        assert alphabets == [2] * 4 + [3] * 4 + [4] * 4 + [5] * 4

    @pytest.mark.parametrize("kind", ["g", "h"])
    @pytest.mark.parametrize("method", ["brute", "oracle"])
    def test_brute_and_oracle_rows_count_a_only(self, kind, method):
        with pytest.raises(ValueError, match="counts kind 'a' only"):
            count_row(4, 3, kind, method)


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
        assert solve_recurrence(3, [1, 1]) == _alternate(3, [1, 1]) == (1, -2)

    def test_h_sequence(self):
        n = 4
        b = [(N - 1) * N ** (n - 2) for N in range(2, 7)]
        unrolled = solve_recurrence(n, b)
        assert unrolled == _alternate(n, b) == tuple(count_h(n, N) for N in range(2, 7))

    def test_zero(self):
        assert solve_recurrence(5, [0, 0, 0]) == _alternate(5, [0, 0, 0]) == (0, 0, 0)

    @given(st.integers(2, 7), st.lists(st.integers(-50, 50), min_size=1, max_size=6))
    def test_unrolled_always_matches_closed(self, n, b):
        assert solve_recurrence(n, b) == _alternate(n, b)

    def test_alternating_sum_stops_at_n(self, monkeypatch):
        # C(n, i) = 0 for i > n: a row far past n costs n + 1 binomials, not N_max - 1.
        calls = []

        def counting_comb(*args):
            calls.append(args)
            return math.comb(*args)

        monkeypatch.setattr(enumeration, "comb", counting_comb)
        row = count_row(5, 3000)
        assert len(calls) <= 6
        assert row == count_row(5, 4) + (0,) * 2996

    @pytest.mark.parametrize("kind", ["a", "g", "h"])
    def test_closed_rows_past_n_match_recurrence(self, kind):
        for n in range(2, 13):
            for N_max in range(2, 3 * n + 1):
                closed = count_row(n, N_max, kind)
                assert closed == count_row(n, N_max, kind, method="recurrence"), (n, N_max)


class TestBruteForce:
    def test_small_rows(self):
        assert enumerate_by_nmin(4).counts == {2: 18, 3: 6}
        assert enumerate_by_nmin(6).counts == {2: 126, 3: 402, 4: 186, 5: 6}

    def test_row_sums(self):
        for n in range(2, 8):
            assert enumerate_by_nmin(n).total() == math.factorial(n)

    def test_members_partition(self):
        strata = {}
        for pi in s_n(4):
            strata.setdefault(n_min(pi), set()).add(pi)
        assert strata[2] == ALLOWED_4_2
        assert len(strata[3]) == 6

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            enumerate_by_nmin(10)
        with pytest.raises(ValueError, match="need n >= 1"):  # the domain is tested first
            enumerate_by_nmin(-1, bound=-5)
        counts = enumerate_by_nmin(10, bound=10).counts
        assert counts[2] == count_binary(10)
        assert tuple(counts.values()) == count_row(10, 9)
        assert list(counts) == list(range(2, 10))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_slice_matches_the_mark_loop(self, n):
        # the blocks with sigma(1) = second, over every sigma(n), make up that sigma(1) slice
        for second in range(min(n, 2), n + 1):
            blocks = [_nmin_slice((n, a, b)) for a, b in _blocks(n) if a == second]
            assert sum(blocks, Counter()) == marks_slice(n, second), (n, second)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reverse_complement_keeps_the_tally(self, n):
        # rho_i = n+1 - sigma_{n+1-i} is an n-cycle with the same N over its n marks
        cycles = set(n_cycles(n))
        for sigma in cycles:
            rho = tuple(n + 1 - v for v in reversed(sigma))
            assert rho in cycles, sigma
            marks = [Counter(cycle_marks(n, (0,) + c + (n + 1,))) for c in (sigma, rho)]
            assert marks[0] == marks[1], sigma

    @pytest.mark.parametrize("n", range(1, 9))
    def test_blocks_partition_the_cycles(self, n):
        # _blocks lists each (sigma(1), sigma(n)) that some n-cycle has, once
        ends = {(sigma[0], sigma[-1]) for sigma in n_cycles(n)}
        assert sorted(_blocks(n)) == sorted(ends)
        seen = Counter()
        for a, b in _blocks(n):
            block = [tuple(s[1:-1]) for s in _cycle_block(n, a, b)]
            assert len(block) == math.factorial(max(n - 3, 0)), (a, b)
            assert all(sigma[0] == a and sigma[-1] == b for sigma in block), (a, b)
            seen.update(block)
        assert seen == Counter(n_cycles(n))
        # one side of the pairing, each block weighted by its partner, covers them all
        halves = _rc_blocks(n)
        partners = {(a, b) for a, b, _ in halves} | {(n + 1 - b, n + 1 - a) for a, b, _ in halves}
        assert partners == set(_blocks(n))
        assert sum(w for _, _, w in halves) * math.factorial(max(n - 3, 0)) == math.factorial(n - 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_halved_row_matches_the_full_sweep(self, n):
        full = sum((marks_slice(n, second) for second in range(min(n, 2), n + 1)), Counter())
        assert enumerate_by_nmin(n).counts == dict(sorted(full.items()))

    def test_halved_row_matches_the_closed_form(self):
        # S_10 at bound=10 is test_bound's
        counts = enumerate_by_nmin(9).counts
        assert tuple(counts.values()) == count_row(9, 8)
        assert list(counts) == list(range(2, 9))

    def test_marked_sweep_matches_a_delta_formula(self):
        # the brute row reads only the marked-cycle formula; this is the A/Delta side
        for n in range(1, 9):
            assert enumerate_by_nmin(n).counts == Counter(n_min(pi) for pi in s_n(n)), n

    def test_parallel_merge_identical(self):
        solo = enumerate_by_nmin(7, workers=1)
        duo = enumerate_by_nmin(7, workers=2)
        assert solo.counts == duo.counts
        assert list(solo.counts) == list(duo.counts)

    def test_parallel_blocks_merge_identical(self):
        # 24 block jobs, 18 pairs and 6 blocks that are their own partner, on two workers
        solo = enumerate_by_nmin(8, workers=1)
        duo = enumerate_by_nmin(8, workers=2)
        assert solo.counts == duo.counts
        assert list(solo.counts) == list(duo.counts)


# Run in a fresh interpreter: which modules importing the CLI loads, and
# which the first two-worker sweep adds.
STARTUP_PROBE = """
import sys
heavy = ("multiprocessing", "concurrent.futures.process", "dataclasses", "inspect")
before = set(sys.modules)
import shiftpat.cli
print(sorted(m for m in heavy if m in sys.modules and m not in before))
shiftpat.count_row(6, 4, method="oracle", workers=2)
print("concurrent.futures.process" in sys.modules)
"""


class TestFanOut:
    def test_cli_start_up_loads_no_pool_and_no_dataclasses(self):
        src = str(Path(enumeration.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\nTrue\n"

    def test_sweeps_use_the_pool_class_bound_at_the_call(self, monkeypatch):
        # the traced benchmark swaps a counting subclass into the module
        jobs = []

        class CountingPool(enumeration.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                batch = list(iterables[0])
                jobs.append(len(batch))
                return super().map(fn, batch, *iterables[1:], **kwargs)

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", CountingPool)
        assert count_row(6, 4, method="oracle", workers=2) == count_row(6, 4, method="oracle")
        assert enumerate_by_nmin(6, workers=2).counts == enumerate_by_nmin(6).counts
        # one pool each: the oracle's jobs (k, t) for k = 2..4 and t = 1..5, then one job per
        # block (sigma(1), sigma(n)) on one side of the reverse-complement pairing: 8 pairs, 4 self
        assert jobs == [3 * 5, 12]

    def test_pool_class_is_imported_on_first_read(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        monkeypatch.delitem(vars(enumeration), "ProcessPoolExecutor", raising=False)
        assert enumeration.ProcessPoolExecutor is ProcessPoolExecutor
        assert vars(enumeration)["ProcessPoolExecutor"] is ProcessPoolExecutor
        with pytest.raises(AttributeError):
            getattr(enumeration, "nope")


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

    def test_one_symbol_plans_no_job(self):
        # the all-zero word ties every pair of suffixes, so N = 1 realizes
        # nothing; at n = 1200 a one-symbol walk would recurse 1198 deep
        assert _least_alphabets(1200, 1, 1) == {}
        assert oracle_allowed(1200, 1) == frozenset()

    def test_parallel_merge_identical(self):
        # first-symbol jobs at an odd and an even alphabet, merged from two workers
        for n, N in ((6, 3), (7, 4), (6, 5)):
            assert oracle_allowed(n, N, workers=2) == oracle_allowed(n, N, workers=1), (n, N)
        assert count_row(7, 5, method="oracle", workers=2) == count_row(7, 5)

    def test_least_alphabet_is_n_min(self):
        # per pattern, exhaustively: the fewest symbols of a family word
        # realizing pi is N(pi), by both formulas, and a sweep over N < n
        # symbols finds exactly the pi with N(pi) <= N
        for n in range(2, 8):
            expected = {pi: n_min(pi) for pi in s_n(n)}
            assert {pi: n_min_marked(pi) for pi in s_n(n)} == expected
            assert least_patterns(n, n) == expected, n
            if n <= 6:
                for N in range(1, n):
                    restricted = {pi: k for pi, k in expected.items() if k <= N}
                    assert least_patterns(n, N) == restricted, (n, N)

    def test_alphabets_past_the_length_add_nothing(self):
        # the whole family over N > n symbols, without the clamp
        for n in range(2, 7):
            for N in range(n + 1, n + 3):
                assert least_patterns(n, N) == family_least(n, N), (n, N)
                assert oracle_allowed(n, N) == oracle_allowed(n, n), (n, N)

    def test_half_sweep_equals_full_family(self):
        # per pattern, against every word of the family over N symbols, both
        # tails, with no relabelling and no complement step; n = 2 has
        # one-symbol bases, and an odd k has self-complementary words
        for n in range(2, 8):
            for N in range(1, 6):
                assert least_patterns(n, N) == family_least(n, N), (n, N)

    def test_base_walk_is_the_filter_it_replaces(self):
        # each job walks the bases that start with first and hold every symbol
        # 1..k-1, once each and in increasing order, as filtering all of
        # {0..k-1}^(n-2) after first would keep them
        for n in range(2, 8):
            for k in range(1, 6):
                for first in range(k):
                    walked = list(_bases(bytes((first,)), n - 2, frozenset(range(1, k)) - {first}, k))
                    kept = [bytes((first, *rest)) for rest in product(range(k), repeat=n - 2)
                            if set(range(1, k)) <= {first, *rest}]
                    assert len(set(walked)) == len(walked), (n, k, first)
                    assert walked == kept, (n, k, first)

    def test_each_job_sweeps_exactly_its_symbols(self):
        # job (k, t) finds the orders of exactly the words on 0..k-1 cut at t
        # with a primitive period; a word with fewer symbols repeats a smaller
        # job and changes no merged result, so only the orders per job can
        # show it. Every k <= n up to n = 7 reaches the jobs the Lyndon walk
        # prunes most, and t = 1 and n < 4 go through the one relabeled sort
        for n in range(2, 9):
            for k in range(2, (n if n <= 7 else 5) + 1):
                orders, _ = walked_orders(n, k)
                for t in range(1, n):
                    assert _oracle_slice((n, k, t)) == set(map(bytes, orders[t])), (n, k, t)

    def test_a_power_orders_as_its_root(self):
        # a word u (q^j)^(n-1) 0^inf with q primitive and j >= 2 orders its
        # first n suffixes as u q^(j-1) q^(n-1) 0^inf does, a word with the
        # primitive period q on the same symbols, so the oracle may skip
        # powers; words._order alone decides, on every base of each k
        for n in range(2, 8):
            checked = 0
            for k in range(1, n + 1):
                for base in _bases(b"", n - 1, frozenset(range(1, k)), k):
                    for t in range(2, n):
                        u, p = base[: n - 1 - t], base[n - 1 - t :]
                        s = next(s for s in range(1, t + 1) if p == p[:s] * (t // s))
                        if s == t:
                            continue
                        q, j = p[:s], t // s
                        v = u + q * (j - 1)  # the other word cut at |q|: v q^(n-1) 0^inf
                        assert is_primitive(q) and set(v + q) == set(base), (base, t)
                        order = _order(u + p * (n - 1), b"\0", n)
                        assert order == _order(v + q * (n - 1), b"\0", n), (base, t)
                        checked += order is not None
            assert checked or n < 4, n

    @pytest.mark.parametrize("n, N", [(5, 3), (6, 4), (7, 3), (7, 5), (8, 4)])
    def test_sweeps_the_tail_zero_words_on_exactly_k_symbols(self, n, N):
        # alphabet k reads n-1 cuts of each base in {0..k-1}^(n-1) that holds
        # every symbol 1..k-1, as the plan counts them by inclusion-exclusion
        # over the missing ones
        words = {k: (n - 1) * walked_orders(n, k)[1] for k in range(2, N + 1)}
        assert dict(_oracle_plan(n, N)) == words

    def test_plan_counts_the_family_words(self):
        assert sum(words for _, words in _oracle_plan(8, 4)) == 85_855
        assert sum(words for _, words in _oracle_plan(9, 9)) == 8_733_352
        assert sum(words for _, words in _oracle_plan(13, 13)) < enumeration._ORACLE_WORD_BOUND
        assert list(_oracle_plan(1200, 1)) == []

    def test_map_equals_the_walk_it_replaced(self):
        cells = [(n, N) for n in range(2, 9) for N in range(1, n + 2)] + [(9, 3), (9, 4)]
        for n, N in cells:
            assert expanded(_least_alphabets(n, N, 1)) == walked_least(n, N), (n, N)

    def test_one_bytes_key_per_complement_pair(self):
        # an order and its reversal share their least alphabet, so the map
        # keeps only the smaller of the two, as bytes: no key's reversal is a key
        for n, N in ((2, 2), (5, 3), (6, 6), (8, 4)):
            least = _least_alphabets(n, N, 1)
            assert least, (n, N)
            assert all(type(o) is bytes and o < o[::-1] for o in least), (n, N)

    def test_map_peak_allocation(self):
        # the (8, 4) map holds 14,502 bytes keys for its 29,004 patterns and
        # peaks near 1.6 MB of traced allocation; a tuple key for each order
        # and its reversal peaked near 5 MB
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            least = _least_alphabets(8, 4, 1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert 2 * len(least) == sum(count_row(8, 4)) == 29_004
        assert peak < 2.5 * 2**20, peak

    def test_a_job_leaves_no_cycle_holding_its_orders(self):
        # with the cycle collector off, a job's order set is freed once the
        # caller drops it; a self-referencing walk would keep every job's
        # set alive until a full collection, and memory would grow per sweep
        enabled = gc.isenabled()
        gc.disable()
        try:
            orders = _oracle_slice((7, 3, 2))
            assert orders
            held = ref(orders)
            del orders
            assert held() is None
        finally:
            if enabled:
                gc.enable()

    def test_two_workers_give_the_one_worker_set(self):
        for n, N in ((6, 3), (7, 4), (8, 8)):
            assert oracle_allowed(n, N, workers=2) == oracle_allowed(n, N, workers=1), (n, N)

    @pytest.mark.parametrize("n, N", [(1200, 2), (1200, 1200), (14, 14)])
    def test_plan_past_the_bound_is_refused_before_any_job(self, monkeypatch, n, N):
        # refused through the estimate alone: the kernels raise if reached
        poison(monkeypatch, "_oracle_slice", "_fan_out", "_bases", "_order")
        with pytest.raises(BoundExceededError, match=f"^n={n} N={N} exceeds the oracle bound"):
            _least_alphabets(n, N, 1)
        with pytest.raises(BoundExceededError, match=f"^n={n} N={N} exceeds the oracle bound"):
            omega_census(n, N)

    def test_word_bound_refuses_only_past_it(self, monkeypatch):
        # (8, 4) plans exactly 85,855 words: at that bound the row runs, one
        # word below it the plan is refused before any job starts
        monkeypatch.setattr(enumeration, "_ORACLE_WORD_BOUND", 85_855)
        assert count_row(8, 4, method="oracle") == count_row(8, 4)
        monkeypatch.setattr(enumeration, "_ORACLE_WORD_BOUND", 85_854)
        poison(monkeypatch, "_oracle_slice", "_fan_out")
        with pytest.raises(BoundExceededError, match="^n=8 N=4 exceeds the oracle bound of 85854 words$"):
            _least_alphabets(8, 4, 1)

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
    @pytest.mark.parametrize("sweep", [forbidden, minimal_forbidden])
    def test_bound_before_any_work(self, monkeypatch, sweep):
        def no_work(*args, **kw):
            raise AssertionError("swept past the bound")

        monkeypatch.setattr(enumeration, "_least_alphabets", no_work)
        monkeypatch.setattr(enumeration, "_all_permutations", no_work)
        with pytest.raises(BoundExceededError, match="n=10 exceeds the sweep bound 9"):
            sweep(10, 3)
        with pytest.raises(AssertionError):  # n = 9 is within the bound, so the sweep starts
            sweep(9, 3)

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

    def test_minimal_is_every_proper_window_allowed(self):
        # the definition, over all windows of every length 2 .. n-1
        for N in range(1, 5):
            allowed = {m: oracle_allowed(m, N) for m in range(2, 7)}
            for n in range(2, 8):
                want = {
                    pi for pi in forbidden(n, N)
                    if all(reduce(pi[s : s + m]) in allowed[m]
                           for m in range(2, n) for s in range(n - m + 1))
                }
                assert minimal_forbidden(n, N) == want, (n, N)

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

    def test_past_the_entry_bound_is_refused_before_building(self):
        # 6n entries against 10^9, through the estimate alone; the first tuple
        # of this n would ask for petabytes and fail at once, not fill memory
        n = 10**15
        with pytest.raises(BoundExceededError, match=f"^n={n} needs {6 * n} entries, past the bound of 10+$"):
            extremal_sextet(n)

    def test_entry_bound_refuses_only_past_it(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_ENTRY_BOUND", 30)
        assert len(extremal_sextet(5)) == 6  # 30 entries
        with pytest.raises(BoundExceededError, match="^n=6 needs 36 entries, past the bound of 30$"):
            extremal_sextet(6)


class TestOmegaCensus:
    def test_identities_small(self):
        for n in range(2, 7):
            for N in (2, 3):
                census = omega_census(n, N)
                assert census.ok, (n, N, census)

    def test_binary_length_four_sizes(self):
        census = omega_census(4, 2).actual
        assert census.total == 18
        assert census.undefined == 4
        assert census.theta_total == 4

    def test_bucket_shapes(self):
        census = omega_census(6, 3)
        assert census.actual.buckets == census.predicted.buckets
        assert census.actual.theta_buckets == census.predicted.theta_buckets
        assert census.actual.total == census.predicted.total

    # every cell with n <= 7 and N <= 4, two whose alphabets k reach n, and
    # one whose weights stand for symbols past 255
    @pytest.mark.parametrize("n, N", [(n, N) for n in range(2, 8) for N in range(2, 5)]
                             + [(4, 6), (5, 5), (2, 300)])
    def test_equals_the_word_object_loop(self, n, N):
        census, want = omega_census(n, N), census_reference(n, N)
        assert census == want
        assert repr(census) == repr(want)  # the bucket dicts' key order too

    def test_sorts_no_word_itself(self, monkeypatch):
        # the census reads the oracle's own jobs and sorts no word itself: its
        # only sorts are the map's Lyndon-word sorts (511) and the same jobs
        # run once more for its word lists, 1,022 in all, where ordering each
        # word of the plan from k = 1 (5,410 words) made 5,717
        n, N = 6, 9
        calls = 0
        kernel = enumeration._order

        def counted(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(enumeration, "_order", counted)
        enumeration._least_alphabets(n, N, 1)
        oracle, calls = calls, 0
        assert omega_census(n, N).ok
        plan = (n - 1) * sum((-1) ** j * math.comb(k - 1, j) * (k - j) ** (n - 1)
                             for k in range(1, min(N, n) + 1) for j in range(k))
        assert plan == 5410
        assert (calls, oracle) == (1022, 511)

    def test_a_word_the_kernel_reports_twice_fails_ok(self, monkeypatch):
        # the census counts the kernel's words, so its total sees a repeat:
        # one order of job (5, 2, 2) reported twice adds one weight, C(2, 1)
        kernel = enumeration._oracle_slice

        def repeated(args, emit=None):
            if emit is None:  # the oracle map's jobs
                return kernel(args)
            kernel(args, emit)
            if args == (5, 2, 2):
                emit(min(kernel(args)))

        monkeypatch.setattr(enumeration, "_oracle_slice", repeated)
        census = omega_census(5, 3)
        assert not census.ok
        assert census.actual.total == census.predicted.total + 2

    def test_an_order_the_oracle_lacks_fails_without_raising(self, monkeypatch):
        least = enumeration._least_alphabets

        def short(n, N, workers):
            found = least(n, N, workers)
            del found[next(iter(found))]  # the first key: a tail-0 word's order over {0, 1}
            return found

        monkeypatch.setattr(enumeration, "_least_alphabets", short)
        census = omega_census(5, 3)
        assert not census.ok
        assert (census.actual.total, census.actual.undefined) == (census.predicted.total,
                                                                  census.predicted.undefined)


def poison(monkeypatch, *names):
    """Make each named function raise wherever a shiftpat module looks it up."""
    for name in names:
        def called(*args, name=name, **kwargs):
            raise AssertionError(f"{name} was called")

        sites = [m for m in SHIFTPAT_MODULES if hasattr(m, name)]
        assert sites, f"no module looks up {name}"
        for module in sites:
            monkeypatch.setattr(module, name, called)


class TestIndependence:
    """Each method computes its row with every other method's kernel poisoned, at one worker."""

    # the A/Delta and marked-cycle formulas for N(pi), and the brute sweep over them
    FORMULAS = ("_n_min", "n_min", "n_min_marked", "theta", "_theta", "_walk", "_delta",
                "marked_des", "marked_eps", "_marked_des", "_marked_eps", "_nmin_slice",
                "enumerate_by_nmin")
    # the closed forms: psi, mobius, their sums and the binomial inversion, unrolled or not
    CLOSED = ("_alternate", "_primitive_sum", "_primitive_coefficients", "mobius", "psi",
              "solve_recurrence")
    # the word-family oracle
    ORACLE = ("_oracle_slice", "_oracle_plan", "_lyndon_words", "_prepend", "_bases",
              "_least_alphabets", "_order")

    @pytest.mark.parametrize("n, N", [(6, 4), (7, 3)])
    def test_oracle_reads_no_formula(self, monkeypatch, n, N):
        row = count_row(n, N)
        allowed = frozenset(pi for pi in s_n(n) if n_min(pi) <= N)
        poison(monkeypatch, *self.FORMULAS, *self.CLOSED)
        assert count_row(n, N, method="oracle", workers=1) == row
        assert oracle_allowed(n, N, workers=1) == allowed

    @pytest.mark.parametrize("n, N", [(6, 3), (5, 4)])
    def test_census_reads_no_formula(self, monkeypatch, n, N):
        poison(monkeypatch, *self.FORMULAS)
        assert omega_census(n, N).ok

    @pytest.mark.parametrize("n, N", [(6, 5), (7, 6)])
    def test_brute_reads_neither_closed_form_nor_oracle(self, monkeypatch, n, N):
        row = count_row(n, N)
        poison(monkeypatch, "_n_min", "_walk", "_delta", *self.CLOSED, *self.ORACLE)
        assert count_row(n, N, method="brute", workers=1) == row

    @pytest.mark.parametrize("method, other", [("closed", "solve_recurrence"),
                                               ("recurrence", "_alternate")])
    def test_closed_and_recurrence_read_no_sweep(self, monkeypatch, method, other):
        brute = {n: count_row(n, 6, method="brute") for n in range(3, 8)}
        table = [(n, N, value) for n in range(2, 9)
                 for N, value in enumerate(count_row(n, max(2, n - 1), method="brute"), start=2)]
        poison(monkeypatch, *self.FORMULAS, *self.ORACLE, other)
        for n, row in brute.items():
            assert count_row(n, 6, method=method) == row
            g, h = count_row(n, 6, "g", method), count_row(n, 6, "h", method)
            assert tuple(map(sum, zip(g, h))) == row
        if method == "closed":  # the table is the closed form's alternating sum
            assert list(count_table(8)) == table
