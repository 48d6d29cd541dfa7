"""Eventually periodic words: normal form, order, Pat, primitivity counts."""

import math
import tracemalloc
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
)
from shiftpat.words import _order

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

    @pytest.mark.parametrize(
        "bad",
        [
            "abc", "10", "()", "10()", "(", "1)(0)",
            # ASCII digits only; a list item is one unsigned decimal integer
            "\u0661\u0660(\u0660)", "[1_0,2](0)", "[+3, 1](0)", "[1,,2](0)",
        ],
    )
    def test_bad_literals_rejected(self, bad):
        with pytest.raises(ValueError, match="not a PRE\\(PER\\) word literal"):
            W(bad)

    @pytest.mark.parametrize(
        "literal, pre, per",
        [
            ("10302(0)", (1, 0, 3, 0, 2), (0,)),
            ("[ 10 , 2 ,3 ](0)", (10, 2, 3), (0,)),
            ("[](12)", (), (1, 2)),
            ("[ ](0)", (), (0,)),
            ("[007](1)", (7,), (1,)),
            ("[300](256)", (300,), (2, 5, 6)),
        ],
    )
    def test_literal_grammar(self, literal, pre, per):
        w = W(literal)
        assert (w.pre, w.per) == (pre, per)

    @pytest.mark.parametrize(
        "pre, per, text",
        [
            ((), (0,), "(0)"),
            ((1, 0, 3, 0, 2), (0,), "10302(0)"),
            ((9, 8, 7), (0, 1), "987(01)"),
            ((10,), (0,), "[10](0)"),
            ((1, 0), (9, 12), "10([9,12])"),
            ((255, 3), (0,), "[255,3](0)"),
            ((256, 3), (0,), "[256,3](0)"),
        ],
    )
    def test_to_string_exact(self, pre, per, text):
        assert EventuallyPeriodicWord(pre, per).to_string() == text

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

    @given(words(max_pre=12, max_per=5, alphabet=st.integers(1, 300)))
    @example(EventuallyPeriodicWord((255, 256), (9,), 300))
    @example(EventuallyPeriodicWord((12,), (0,), 13))
    def test_bracket_round_trip(self, w):
        # a part holding a symbol past 9 is a bracketed list; past 255 it leaves the byte tables
        back = W(w.to_string())
        assert back == w and (back.pre, back.per) == (w.pre, w.per)

    @given(
        st.integers(1, 5).flatmap(
            lambda N: st.tuples(
                st.lists(st.integers(0, N - 1), max_size=6),
                st.lists(st.integers(0, N - 1), min_size=1, max_size=3),
            )
        ),
        st.integers(1, 3),
        st.integers(0, 4),
        st.integers(0, 3),
    )
    @example(((0,), (1, 0)), 3, 3, 1)  # a proper power spanned three times, then a rotation
    def test_canonical_form_matches_stepwise_absorption(self, drawn, power, spans, extra):
        # the period is a proper power; the preperiod ends in whole periods and a suffix of one
        head, root = drawn
        per = tuple(root) * power
        pre = tuple(head) + per * spans + per[len(per) - extra % len(per) :]
        w = EventuallyPeriodicWord(pre, per)
        ref_pre, ref_per = pre, primitive_root(per)
        while ref_pre and ref_pre[-1] == ref_per[-1]:
            ref_pre, ref_per = ref_pre[:-1], ref_per[-1:] + ref_per[:-1]
        assert (w.pre, w.per) == (ref_pre, ref_per)
        assert w.alphabet_size == max(pre + per) + 1


class TestIndexing:
    def test_suffix_of_constant(self):
        assert W("(0)").suffix(7) == W("(0)")

    def test_suffix_shifts_preperiod(self):
        assert W("1030203020(0)").suffix(2) == W("030203020(0)")

    @given(words(), st.integers(1, 8), st.integers(1, 8))
    def test_suffix_composes(self, w, j, k):
        assert w.suffix(k).suffix(j) == w.suffix(j + k - 1)

    @given(words(), st.integers(1, 30))
    def test_suffix_agrees_with_symbol_at(self, w, i):
        assert w.suffix(i).unroll(1) == w.unroll(i)[-1:]


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

    def test_coprime_periods_read_no_lcm(self):
        # periods 1,999 and 1,997 agree on 1,996 symbols; an lcm unroll takes
        # 3,992,003 symbols of each word, Fine and Wilf's bound 3,995
        a = EventuallyPeriodicWord((), (0,) * 1998 + (1,))
        b = EventuallyPeriodicWord((), (0,) * 1996 + (1,))
        tracemalloc.start()
        try:
            assert (compare(a, b), compare(b, a), compare(a, a)) == (LT, GT, EQ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @given(words(max_pre=8, max_per=12, alphabet=st.integers(1, 3)), st.data())
    def test_equals_a_long_unroll(self, a, data):
        # b is drawn at random, or its period is a cut of a's repeated period,
        # so that the two agree far past their preperiods
        if data.draw(st.booleans()):
            b = data.draw(words(max_pre=8, max_per=12, alphabet=st.integers(1, 3)))
        else:
            per = a.per * 4
            b = EventuallyPeriodicWord(a.pre, per[: data.draw(st.integers(1, len(per)))])
        # past both preperiods, lcm(|per1|, |per2|) symbols settle the order
        width = len(a.pre) + len(b.pre) + math.lcm(len(a.per), len(b.per))
        x, y = a.unroll(width), b.unroll(width)
        assert compare(a, b) == (x > y) - (x < y)

    @given(words(), words(), words())
    def test_transitive(self, a, b, c):
        lo, mid, hi = sorted([a, b, c], key=_sort_key)
        assert compare(lo, mid) != GT
        assert compare(mid, hi) != GT
        assert compare(lo, hi) != GT


def _sort_key(w):
    return w.unroll(64)


def suffix_order(w, n):
    """Starts 0..n-1 of w's first n suffixes sorted by compare, or None when two are EQ."""
    sufs = [w.suffix(i) for i in range(1, n + 1)]
    order = sorted(range(n), key=cmp_to_key(lambda i, j: compare(sufs[i], sufs[j])))
    if any(compare(sufs[i], sufs[j]) == EQ for i, j in zip(order, order[1:])):
        return None
    return tuple(order)


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
        order = suffix_order(w, n)
        if order is None:
            assert pat(w, n) is None
        else:
            assert pat(w, n) == tuple(order.index(i) + 1 for i in range(n))

    @given(
        st.integers(1, 4).flatmap(
            lambda N: st.tuples(
                st.just(N),
                st.lists(st.integers(0, N - 1), max_size=10),
                st.lists(st.integers(0, N - 1), min_size=1, max_size=4),
            )
        ),
        st.integers(0, 3),
        st.integers(1, 12),
        st.booleans(),
    )
    @example((2, [1, 0, 1], [0, 1]), 2, 6, False)  # preperiod ends in period symbols
    @example((2, [1], [0, 1, 0, 1]), 0, 7, True)  # non-primitive period, bytes
    @example((3, [2, 0, 0], [0, 0]), 1, 5, True)  # constant tail, as in the oracle
    def test_kernel_matches_pat_on_raw_pairs(self, drawn, repeats, n, as_bytes):
        # the kernel takes the raw (pre, per) the oracle builds, not the canonical form
        N, head, per = drawn
        pre = (head + per * repeats)[-10:]
        w = EventuallyPeriodicWord(pre, per, N)
        expected = suffix_order(w, n)
        convert = bytes if as_bytes else tuple
        assert _order(convert(pre), convert(per), n) == expected
        # pat of the canonical word is that order inverted: the start of rank r is at position r - 1
        pi = pat(w, n)
        if expected is None:
            assert pi is None
        else:
            assert tuple(pi[i] for i in expected) == tuple(range(1, n + 1))

    @given(st.lists(st.integers(0, 3), max_size=10), st.integers(1, 12), st.booleans())
    @example([0, 0, 0], 1, True)  # all zeros: q is empty, only n = 1 is defined
    @example([0, 0, 0], 2, False)
    @example([2, 1, 0, 0], 3, True)  # trailing zeros in pre
    @example([1, 0, 2], 4, True)  # |q| + 1 == n: the last key is empty, not a tie
    @example([1, 0, 2], 5, False)  # |q| + 1 < n: starts 3 and 4 both read 0^inf
    def test_zero_tail_order_matches_suffix_comparison(self, pre, n, as_bytes):
        # the zero-tail path keys unpadded slices; the reference compares the words
        convert = bytes if as_bytes else tuple
        expected = suffix_order(EventuallyPeriodicWord(pre, (0,), 4), n)
        assert _order(convert(pre), convert((0,)), n) == expected

    @given(
        st.lists(st.integers(0, 300), max_size=8),
        st.lists(st.integers(0, 300), min_size=1, max_size=4),
        st.integers(256, 400),
        st.booleans(),
        st.integers(1, 12),
    )
    @example([0, 1], [0], 256, True, 3)
    @example([], [255], 256, False, 2)
    def test_kernel_with_symbols_past_a_byte(self, pre, per, big, in_pre, n):
        # a symbol past 255 keeps the kernel on tuple keys; they must equal the reference
        pre, per = ((big, *pre), tuple(per)) if in_pre else (tuple(pre), (*per, big))
        width = len(pre) + len(per)
        full = pre + per * n
        keys = [full[i : i + width] for i in range(n)]
        # each key ranked by counting the smaller keys, undefined when two are equal
        if n > width or len(set(keys)) < n:
            expected = None
        else:
            expected = tuple(sum(other < key for other in keys) + 1 for key in keys)
        assert pat(EventuallyPeriodicWord(pre, per), n) == expected
        order = _order(pre, per, n)
        if expected is None:
            assert order is None
        else:
            assert tuple(expected[i] for i in order) == tuple(range(1, n + 1))

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
                        wc = EventuallyPeriodicWord([1 - s for s in pre], [1 - s for s in per], 2)
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
