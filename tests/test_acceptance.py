"""Acceptance gate: ten checks, one verdict line each.

Each check recomputes what it needs from scratch so it can be run
standalone, e.g. `pytest tests/test_acceptance.py -k criterion_04 -s`.
Run with -s to see the verdict lines for passing checks too.
"""

import math
import random
import time
from itertools import permutations, product

from shiftpat import (
    EventuallyPeriodicWord,
    check_conjecture1,
    check_conjecture2,
    compare,
    complement,
    count_a,
    count_binary,
    delta,
    descent_count,
    enumerate_by_nmin,
    extremal_sextet,
    forbidden,
    is_primitive,
    marked_cycles,
    marked_des,
    minimal_forbidden,
    n_min,
    omega_census,
    oracle_allowed,
    parse_permutation,
    pat,
    phi,
    phi_inv,
    reduce,
    witness,
)

W = EventuallyPeriodicWord.from_string

STRATA = {
    2: {2: 2},
    3: {2: 6},
    4: {2: 18, 3: 6},
    5: {2: 48, 3: 66, 4: 6},
    6: {2: 126, 3: 402, 4: 186, 5: 6},
    7: {2: 306, 3: 2028, 4: 2232, 5: 468, 6: 6},
    8: {2: 738, 3: 8790, 4: 19476, 5: 10212, 6: 1098, 7: 6},
}


def _verdict(num, label, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {label}")
        raise
    print(f"criterion {num:2d}: PASS - {label}")


def test_criterion_01_stratification_table():
    def body():
        start = time.perf_counter()
        table = {
            n: {N: count_a(n, N) for N in range(2, max(2, n - 1) + 1)}
            for n in range(2, 9)
        }
        elapsed = time.perf_counter() - start
        assert table == STRATA
        for n, row in table.items():
            assert sum(row.values()) == math.factorial(n)
        assert table[6][3] == 402
        assert table[7][5] == 468
        assert elapsed < 1.0, f"closed-form table took {elapsed:.2f}s"

    _verdict(1, "stratification table n <= 8 via closed form, < 1 s", body)


def test_criterion_02_triple_agreement():
    def body():
        start = time.perf_counter()
        for n in range(2, 8):
            brute = enumerate_by_nmin(n).counts
            previous = frozenset()
            for N in range(2, 7):
                current = oracle_allowed(n, N)
                stratum = len(current) - len(previous)
                previous = current
                assert count_a(n, N) == brute.get(N, 0) == stratum, (n, N)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"triple agreement sweep took {elapsed:.1f}s"

    _verdict(2, "closed = brute = oracle for n <= 7, N <= 6, < 2 min", body)


def test_criterion_03_worked_minimal_alphabets():
    def body():
        expected = {
            "4 2 1 7 5 3 6": 3,
            "4 3 6 1 5 2": 4,
            "8 9 2 3 6 4 1 5 7": 5,
            "8 9 3 1 4 6 2 7 5": 4,
            "3 4 2 1": 3,
        }
        for text, N in expected.items():
            assert n_min(parse_permutation(text)) == N, text

    _verdict(3, "five worked minimal alphabet sizes", body)


def _applicable_variants(pi):
    n, b = len(pi), pi[-1]
    variants = []
    if b != n:
        variants.append("A")
    if b != 1:
        variants.append("B")
    if b == 1:
        variants.append("C")
    if b == n:
        variants.append("D")
    if 1 < b < n and delta(pi) == (1, "I"):
        variants.extend(["E", "F"])
    return variants


def test_criterion_04_witness_round_trip():
    def body():
        for n in range(2, 8):
            for pi in permutations(range(1, n + 1)):
                N = n_min(pi)
                for variant in _applicable_variants(pi):
                    word = witness(pi, variant=variant).word
                    assert pat(word, n) == pi, (pi, variant)
                    assert len(set(word.pre) | set(word.per)) == N, (pi, variant)

        frozen = witness((4, 3, 6, 1, 5, 2), variant="A", m=2).word
        assert frozen == W("1030203020(0)")
        assert frozen.to_string() == "103020302(0)"
        frozen = witness((8, 9, 3, 1, 4, 6, 2, 7, 5), variant="E").word
        assert frozen == W("231012021(3)")
        assert frozen.to_string() == "231012021(3)"
        frozen = witness((3, 5, 2, 4, 1), variant="C").word
        assert frozen == W("01010(0)")
        assert frozen.to_string() == "0101(0)"
        frozen = witness((2, 3, 1, 4, 5, 6), variant="D").word
        assert frozen == W("120223(3)")
        assert frozen.to_string() == "12022(3)"

    _verdict(4, "witness round-trip, all variants, S_2..S_7 + frozen words", body)


def test_criterion_05_minimal_forbidden():
    def body():
        six = {
            (6, 1, 5, 2, 4, 3),
            (3, 2, 4, 1, 5, 6),
            (3, 4, 2, 5, 1, 6),
            (1, 6, 2, 5, 3, 4),
            (4, 5, 3, 6, 2, 1),
            (4, 3, 5, 2, 6, 1),
        }
        assert minimal_forbidden(6, 4) == six
        for N in range(2, 7):
            for n in range(2, N + 2):
                assert forbidden(n, N) == frozenset(), (n, N)
        for N in (2, 3, 4):
            assert len(minimal_forbidden(N + 2, N)) == 6, N

    _verdict(5, "minimal forbidden sextet at (6,4); none below threshold", body)


def test_criterion_06_extremal_sextet():
    def body():
        for n in range(3, 9):
            sextet = extremal_sextet(n)
            assert len(sextet) == 6, n
            top = {
                pi
                for pi in permutations(range(1, n + 1))
                if n_min(pi) == n - 1
            }
            assert sextet == top, n

    _verdict(6, "extremal sextet equals the top stratum, 3 <= n <= 8", body)


def test_criterion_07_binary_formula():
    def body():
        for n in range(2, 11):
            value = count_binary(n)
            assert value == count_a(n, 2) == len(oracle_allowed(n, 2)), n
        assert tuple(count_binary(n) for n in range(2, 9)) == (
            2, 6, 18, 48, 126, 306, 738,
        )

    _verdict(7, "binary closed form = stratum = oracle for n <= 10", body)


def test_criterion_08_census_identities():
    def body():
        for n in range(2, 7):
            for N in (2, 3):
                census = omega_census(n, N)
                actual, predicted = census.actual, census.predicted
                assert actual.total == predicted.total, (n, N)
                assert actual.undefined == predicted.undefined, (n, N)
                assert actual.theta_total == predicted.theta_total, (n, N)
                assert actual.buckets == predicted.buckets, (n, N)
                assert actual.theta_buckets == predicted.theta_buckets, (n, N)
                assert census.ok

    _verdict(8, "word-family census identities for n <= 6, N <= 3", body)


def test_criterion_09_conjecture_suite():
    def body():
        start = time.perf_counter()
        for n in range(2, 9):
            assert check_conjecture1(n).matches, n
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"descent sweep took {elapsed:.1f}s"

        for n in range(3, 9):
            domain = [mc for mc in marked_cycles(n) if mc[0] == 0 and mc[1] == 1]
            assert len(domain) == math.factorial(n - 2), n
            image = set()
            for mc in domain:
                out = phi(mc)
                assert phi_inv(out) == mc
                assert descent_count(out) == marked_des(mc)
                image.add(out)
            assert image == set(marked_cycles(n - 2)), n

        report = check_conjecture2(12)
        assert report.verified()
        assert report.all_even
        for cell in report.cells:
            if 3 <= cell.N < cell.n:
                assert cell.six_claimed and cell.six_ok, (cell.n, cell.N)

    _verdict(9, "descent equidistribution n <= 8; 6 | a(n,N) up to n = 12", body)


def test_criterion_10_property_suites():
    def body():
        rng = random.Random(0)
        sample = []
        for _ in range(60):
            N = rng.randint(2, 4)
            pre = tuple(rng.randrange(N) for _ in range(rng.randint(0, 5)))
            per = tuple(rng.randrange(N) for _ in range(rng.randint(1, 4)))
            sample.append(EventuallyPeriodicWord(pre, per, N))

        # total-order laws
        for a in sample:
            assert compare(a, a) == 0
            for b in sample:
                assert compare(a, b) in (-1, 0, 1)
                assert compare(a, b) == -compare(b, a)
                assert (compare(a, b) == 0) == (a == b)
        chain = sorted(sample, key=lambda w: w.unroll(64))
        for lo, hi in zip(chain, chain[1:]):
            assert compare(lo, hi) <= 0
        for _ in range(200):
            a, b, c = (rng.choice(chain) for _ in range(3))
            if compare(a, b) <= 0 and compare(b, c) <= 0:
                assert compare(a, c) <= 0

        # factors separating adjacent ranks are primitive
        for w in sample:
            for n in range(2, 7):
                pi = pat(w, n)
                if pi is None:
                    continue
                flat = w.unroll(n)
                for i in range(n):
                    for k in range(i + 1, n):
                        if abs(pi[i] - pi[k]) == 1:
                            assert is_primitive(flat[i:k])

        # minimal alphabet is invariant under complement
        for pi in permutations(range(1, 8)):
            assert n_min(pi) == n_min(complement(pi))

        # allowed sets are closed under consecutive containment
        for M in range(2, 5):
            allowed = {n: oracle_allowed(n, M) for n in range(2, 7)}
            for n in range(3, 7):
                for pi in allowed[n]:
                    for m in range(2, n):
                        for i in range(n - m + 1):
                            assert reduce(pi[i : i + m]) in allowed[m], (pi, M)

    _verdict(10, "order laws, factor primitivity, complement, closure", body)
