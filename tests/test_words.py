"""Eventually periodic words: normal form, order, Pat, primitivity counts."""

import math
from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from shiftpat import (
    EQ,
    GT,
    LT,
    EventuallyPeriodicWord,
    compare,
    complement,
    is_primitive,
    mobius,
    pat,
    primitive_root,
    psi,
    word_complement,
)

W = EventuallyPeriodicWord.from_string


def words(max_pre=6, max_per=4, alphabet=st.just(4)):
    return alphabet.flatmap(
        lambda N: st.builds(
            lambda pre, per: EventuallyPeriodicWord(tuple(pre), tuple(per), N),
            st.lists(st.integers(0, N - 1), max_size=max_pre),
            st.lists(st.integers(0, N - 1), min_size=1, max_size=max_per),
        )
    )


class TestNormalForm:
    def test_period_shrinks_to_primitive_root(self):
        assert W("(0101)") == W("(01)")
        assert W("(0101)").per == (0, 1)

    def test_preperiod_absorbed_into_period(self):
        assert W("01(01)") == W("(01)")
        assert hash(W("01(01)")) == hash(W("(01)"))

    def test_trailing_constant_absorption(self):
        w = W("1030203020(0)")
        assert w.pre == (1, 0, 3, 0, 2, 0, 3, 0, 2)
        assert w.to_string() == "103020302(0)"

    def test_bracket_literal(self):
        w = EventuallyPeriodicWord.from_string("[1,0,3](0)")
        assert w.pre == (1, 0, 3) and w.per == (0,)

    @pytest.mark.parametrize("bad", ["abc", "10", "()", "10()", "(", "1)(0)"])
    def test_bad_literals_rejected(self, bad):
        with pytest.raises(ValueError):
            W(bad)

    def test_symbol_out_of_alphabet_rejected(self):
        with pytest.raises(ValueError):
            EventuallyPeriodicWord((0, 5), (1,), alphabet_size=2)
        with pytest.raises(ValueError):
            EventuallyPeriodicWord((0, 1), (2,), alphabet_size=2)
        with pytest.raises(ValueError):
            EventuallyPeriodicWord((0, -1), (1,), alphabet_size=2)
        with pytest.raises(ValueError):
            EventuallyPeriodicWord((), (-1,))

    @given(words())
    @example(W("(0)"))
    def test_to_string_round_trip(self, w):
        assert W(w.to_string()) == w


class TestIndexing:
    def test_symbol_at(self):
        w = W("10(3)")
        assert w.symbol_at(1) == 1
        assert w.symbol_at(2) == 0
        assert w.symbol_at(5) == 3

    def test_suffix_of_constant(self):
        assert W("(0)").suffix(7) == W("(0)")

    def test_suffix_shifts_preperiod(self):
        assert W("1030203020(0)").suffix(2) == W("030203020(0)")

    @given(words(), st.integers(1, 8), st.integers(1, 8))
    def test_suffix_composes(self, w, j, k):
        assert w.suffix(k).suffix(j) == w.suffix(j + k - 1)

    @given(words(), st.integers(1, 30))
    def test_suffix_agrees_with_symbol_at(self, w, i):
        assert w.suffix(i).symbol_at(1) == w.symbol_at(i)


class TestCompare:
    def test_basic(self):
        assert compare(W("(0)"), W("1(0)")) == LT
        assert compare(W("1(0)"), W("(0)")) == GT

    def test_first_difference_inside_period_unrolling(self):
        assert compare(W("0100(0)"), W("01010(0)")) == LT

    def test_eq_after_normalization(self):
        assert compare(W("01(01)"), W("(01)")) == EQ

    def test_mixed_alphabets_compare_by_value(self):
        small = EventuallyPeriodicWord((0, 1), (1,), alphabet_size=2)
        big = EventuallyPeriodicWord((0, 2), (1,), alphabet_size=4)
        assert compare(small, big) == LT

    @given(words())
    def test_reflexive(self, w):
        assert compare(w, w) == EQ

    @given(words(), words())
    def test_antisymmetric(self, a, b):
        assert compare(a, b) == -compare(b, a)
        assert (compare(a, b) == EQ) == (a == b)

    @given(words(), words(), words())
    def test_transitive(self, a, b, c):
        lo, mid, hi = sorted([a, b, c], key=_sort_key)
        assert compare(lo, mid) != GT
        assert compare(mid, hi) != GT
        assert compare(lo, hi) != GT


def _sort_key(w):
    return w.unroll(64)


class TestPat:
    def test_worked_length_seven(self):
        assert pat(W("2102212210(0)"), 7) == (4, 2, 1, 7, 5, 3, 6)

    def test_undefined_when_suffixes_collide(self):
        assert pat(W("(0)"), 2) is None
        assert pat(W("(01)"), 3) is None

    def test_short_window_of_periodic_word(self):
        assert pat(W("(01)"), 2) == (1, 2)

    def test_length_one(self):
        assert pat(W("(0)"), 1) == (1,)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            pat(W("(0)"), 0)

    @given(words(max_pre=8, max_per=5, alphabet=st.integers(1, 4)), st.integers(1, 12))
    def test_ranks_match_suffix_order(self, w, n):
        # the definition: sort the suffixes by compare; undefined iff two are EQ
        sufs = [w.suffix(i) for i in range(1, n + 1)]
        order = sorted(range(n), key=cmp_to_key(lambda i, j: compare(sufs[i], sufs[j])))
        if any(compare(sufs[i], sufs[j]) == EQ for i, j in zip(order, order[1:])):
            assert pat(w, n) is None
        else:
            assert pat(w, n) == tuple(order.index(i) + 1 for i in range(n))

    @given(words(), st.integers(2, 6))
    def test_adjacent_rank_factors_are_primitive(self, w, n):
        # between consecutive ranks the separating factor cannot be a power
        pi = pat(w, n)
        if pi is None:
            return
        flat = w.unroll(n)
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                if abs(pi[i - 1] - pi[k - 1]) == 1:
                    assert is_primitive(flat[i - 1 : k - 1])


class TestComplementSymmetry:
    def test_exhaustive_binary_words(self):
        # every binary word with short preperiod, against the mirrored word
        for plen in range(7):
            for pre in product((0, 1), repeat=plen):
                for tlen in (1, 2, 3):
                    for per in product((0, 1), repeat=tlen):
                        w = EventuallyPeriodicWord(pre, per, 2)
                        wc = word_complement(w)
                        for n in range(2, 6):
                            pi = pat(w, n)
                            expected = None if pi is None else complement(pi)
                            assert pat(wc, n) == expected


class TestPrimitivity:
    def test_single_letter(self):
        assert is_primitive((0,))

    def test_square_rejected(self):
        assert not is_primitive((0, 1, 0, 1))

    def test_worked_period(self):
        assert is_primitive((0, 3, 0, 2))

    def test_primitive_root_examples(self):
        assert primitive_root((0, 1, 0, 1)) == (0, 1)
        assert primitive_root((0, 3, 0, 2)) == (0, 3, 0, 2)

    @pytest.mark.parametrize("d,value", [(1, 1), (2, -1), (3, -1), (4, 0), (6, 1), (12, 0)])
    def test_mobius(self, d, value):
        assert mobius(d) == value

    def test_psi_small_binary(self):
        assert [psi(2, t) for t in (1, 2, 3, 4)] == [2, 2, 6, 12]

    def test_psi_matches_brute_force(self):
        for N in range(1, 5):
            for t in range(1, 9):
                brute = sum(1 for p in product(range(N), repeat=t) if is_primitive(p))
                assert psi(N, t) == brute

    def test_psi_equals_direct_mobius_sum(self):
        for N in range(0, 7):
            for t in range(1, 41):
                direct = sum(mobius(d) * N ** (t // d) for d in range(1, t + 1) if t % d == 0)
                assert psi(N, t) == direct, (N, t)

    def test_psi_divisor_sum_recovers_all_words(self):
        # every word is a power of a unique primitive root
        for N in range(1, 5):
            for t in range(1, 9):
                assert sum(psi(N, d) for d in range(1, t + 1) if t % d == 0) == N**t
