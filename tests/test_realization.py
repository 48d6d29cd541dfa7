"""Minimal alphabet size, forced prefixes, and witness construction."""

from itertools import permutations, product

import pytest

from shiftpat import (
    EventuallyPeriodicWord,
    a_set,
    base_assignment,
    complement,
    delta,
    is_primitive,
    n_min,
    n_min_marked,
    oracle_allowed,
    pat,
    realize_check,
    required_chain,
    witness,
)

W = EventuallyPeriodicWord.from_string


def s_n(n):
    return permutations(range(1, n + 1))


def applicable_variants(pi):
    b = pi[-1]
    n = len(pi)
    out = []
    if b != n:
        out.append("A")
    if b != 1:
        out.append("B")
    if b == 1:
        out.append("C")
    if b == n:
        out.append("D")
    if 1 < b < n and delta(pi) == (1, "I"):
        out.extend(["E", "F"])
    return out


@pytest.mark.parametrize("bad", [(), (1, 1), (0, 1), (2, 3)])
@pytest.mark.parametrize(
    "entry",
    [a_set, delta, n_min, n_min_marked, required_chain, base_assignment, witness],
    ids=lambda f: f.__name__,
)
def test_entry_points_reject_non_permutations(entry, bad):
    with pytest.raises(ValueError, match="not a permutation"):
        entry(bad)


class TestASetAndDelta:
    def test_worked_a_sets(self):
        assert a_set((4, 3, 6, 1, 5, 2)) == frozenset({3, 4, 5})
        assert a_set((8, 9, 3, 1, 4, 6, 2, 7, 5)) == frozenset({2, 8})

    def test_identity_has_empty_a_set(self):
        for n in range(2, 7):
            assert a_set(tuple(range(1, n + 1))) == frozenset()

    def test_delta_cases(self):
        assert delta((4, 3, 6, 1, 5, 2)) == (0, None)
        assert delta((8, 9, 3, 1, 4, 6, 2, 7, 5)) == (1, "I")
        assert delta((3, 4, 2, 1)) == (1, "II")
        assert delta((1, 2)) == (1, "III")
        assert delta((2, 1)) == (1, "II")
        assert delta((3, 1, 2)) == (1, "I")
        assert delta((2, 1, 4, 3)) == (0, None)


class TestNMin:
    def test_worked_values(self):
        assert n_min((4, 2, 1, 7, 5, 3, 6)) == 3
        assert n_min((4, 3, 6, 1, 5, 2)) == 4
        assert n_min((8, 9, 2, 3, 6, 4, 1, 5, 7)) == 5
        assert n_min((8, 9, 3, 1, 4, 6, 2, 7, 5)) == 4
        assert n_min((3, 4, 2, 1)) == 3

    def test_length_one(self):
        assert n_min((1,)) == 1

    def test_marked_formula_worked(self):
        assert n_min_marked((8, 9, 3, 1, 4, 6, 2, 7, 5)) == 4
        assert n_min_marked((3, 4, 2, 1)) == 3

    def test_two_formulas_agree_exhaustively(self):
        for n in range(2, 9):
            for pi in s_n(n):
                assert n_min(pi) == n_min_marked(pi)

    def test_upper_bound(self):
        for n in range(3, 9):
            assert all(n_min(pi) <= n - 1 for pi in s_n(n))

    def test_complement_symmetry(self):
        for pi in s_n(7):
            assert n_min(complement(pi)) == n_min(pi)


class TestRequiredChain:
    def test_interior_case(self):
        ch = required_chain((4, 3, 6, 1, 5, 2))
        assert ch.order == (4, 2, 1, 5, 3)
        assert ch.strict_after == frozenset({2, 3, 4})
        assert ch.case_tag == "interior"
        assert ch.delta_case is None

    def test_interior_with_extra_strict_gap(self):
        ch = required_chain((8, 9, 3, 1, 4, 6, 2, 7, 5))
        assert ch.order == (4, 7, 3, 5, 6, 8, 1, 2)
        assert ch.strict_after == frozenset({2, 4, 7})
        assert ch.delta_case == "I"

    def test_ends_with_one(self):
        ch = required_chain((3, 5, 2, 4, 1))
        assert ch.order == (3, 1, 4, 2)
        assert ch.strict_after == frozenset({2})
        assert ch.case_tag == "ends_with_1"

    def test_ends_with_n(self):
        ch = required_chain((2, 3, 1, 4, 5, 6))
        assert ch.case_tag == "ends_with_n"
        assert ch.order == (3, 1, 2, 4, 5)

    def test_strict_gap_accounting(self):
        # interior delta strictness lands in the chain, tail cases do not
        for n in range(2, 8):
            for pi in s_n(n):
                ch = required_chain(pi)
                d, _ = delta(pi)
                assert len(ch.order) == n - 1
                expected = len(a_set(pi)) + (d if ch.case_tag == "interior" else 0)
                assert len(ch.strict_after) == expected
                assert all(1 <= g <= n - 2 for g in ch.strict_after)

    def test_base_levels_match_alphabet(self):
        # the forced prefix spans every level, leaving the top to the tail
        # exactly when the pattern ends n-1, n
        for n in range(2, 8):
            for pi in s_n(n):
                d, case = delta(pi)
                top = max(base_assignment(pi)) + 1
                if case == "III":
                    assert top == n_min(pi) - 1
                else:
                    assert top == n_min(pi)
                assert min(base_assignment(pi)) == (1 if case == "II" else 0)


class TestBaseAssignment:
    def test_worked_prefixes(self):
        assert base_assignment((4, 3, 6, 1, 5, 2)) == (1, 0, 3, 0, 2)
        assert base_assignment((8, 9, 3, 1, 4, 6, 2, 7, 5)) == (2, 3, 1, 0, 1, 2, 0, 2)
        assert base_assignment((3, 5, 2, 4, 1)) == (0, 1, 0, 1)
        assert base_assignment((2, 3, 1, 4, 5, 6)) == (1, 2, 0, 2, 2)

    def test_case_two_starts_at_one(self):
        assert base_assignment((3, 4, 2, 1)) == (1, 2, 1)
        assert base_assignment((2, 1)) == (1,)

    def test_prefix_fits_alphabet(self):
        for n in range(2, 8):
            for pi in s_n(n):
                base = base_assignment(pi)
                assert len(base) == n - 1
                assert 0 <= min(base) and max(base) <= n_min(pi) - 1


class TestWitness:
    def test_example_with_small_m(self):
        spec = witness((4, 3, 6, 1, 5, 2), variant="A", m=2)
        assert spec.word == W("1030203020(0)")
        assert spec.word.to_string() == "103020302(0)"
        assert (spec.variant, spec.k, spec.m) == ("A", 2, 2)

    def test_variant_e_example(self):
        spec = witness((8, 9, 3, 1, 4, 6, 2, 7, 5), variant="E")
        assert spec.word == W("231012021(3)")

    def test_variant_c_example(self):
        spec = witness((3, 5, 2, 4, 1), variant="C")
        assert spec.word == W("01010(0)")
        assert spec.word.to_string() == "0101(0)"

    def test_variant_d_example(self):
        spec = witness((2, 3, 1, 4, 5, 6), variant="D")
        assert spec.word == W("120223(3)")

    def test_variant_f_counterpart(self):
        pi = (8, 9, 3, 1, 4, 6, 2, 7, 5)
        spec = witness(pi, variant="F")
        assert spec.word.unroll(10) == (2, 3, 1, 0, 1, 2, 0, 2, 2, 0)
        assert realize_check(pi, spec.word)

    def test_default_policy(self):
        # final descent picks the zero-tailed shape, final ascent the max-tailed
        assert witness((2, 1)).variant == "A"
        assert witness((2, 1)).word == W("1(0)")
        assert witness((1, 2)).variant == "B"
        assert witness((1, 2)).word == W("0(1)")
        assert witness((4, 3, 6, 1, 5, 2)).variant == "A"
        assert witness((4, 2, 1, 7, 5, 3, 6)).variant == "B"

    def test_default_m(self):
        assert witness((4, 3, 6, 1, 5, 2)).m == 5

    def test_m_bound_enforced(self):
        with pytest.raises(ValueError, match="repetition bound"):
            witness((4, 2, 1, 7, 5, 3, 6), m=2)
        with pytest.raises(ValueError):
            witness((2, 1), m=0)

    def test_m_only_for_repeating_variants(self):
        with pytest.raises(ValueError):
            witness((3, 5, 2, 4, 1), variant="C", m=3)

    def test_inapplicable_variants_rejected(self):
        with pytest.raises(ValueError, match="variant A"):
            witness((1, 2, 3), variant="A")
        with pytest.raises(ValueError, match="variant B"):
            witness((2, 3, 1), variant="B")
        with pytest.raises(ValueError, match="variant C"):
            witness((1, 2, 3), variant="C")
        with pytest.raises(ValueError, match="variant D"):
            witness((2, 3, 1), variant="D")
        with pytest.raises(ValueError, match="E and F"):
            witness((4, 3, 6, 1, 5, 2), variant="E")

    def test_soundness_all_variants_small(self):
        for n in range(2, 7):
            for pi in s_n(n):
                N = n_min(pi)
                for v in applicable_variants(pi):
                    spec = witness(pi, variant=v)
                    assert realize_check(pi, spec.word), (pi, v)
                    used = set(spec.word.pre) | set(spec.word.per)
                    assert len(used) == N, (pi, v)
                    assert spec.word.alphabet_size == N

    def test_minimality_against_oracle(self):
        for n in range(2, 7):
            cumulative = {N: oracle_allowed(n, N) for N in range(1, n + 1)}
            for pi in s_n(n):
                N = n_min(pi)
                assert pi in cumulative[N]
                assert pi not in cumulative[N - 1], pi


class TestPrefixUniqueness:
    def test_any_realizing_word_forces_the_prefix(self):
        # sweep the full oracle family and compare prefixes on matches
        for n in range(2, 6):
            for N in range(2, 5):
                for base in product(range(N), repeat=n - 1):
                    for t in range(1, n):
                        tail_reps = n - 1
                        prefix = base + base[n - 1 - t :] * (tail_reps - 1)
                        for x in (0, N - 1):
                            w = EventuallyPeriodicWord(prefix, (x,), N)
                            pi = pat(w, n)
                            if pi is None or n_min(pi) != N:
                                continue
                            if len(set(prefix) | {x}) != N:
                                continue
                            assert w.unroll(n - 1) == base_assignment(pi)


class TestConsecutiveValueProperty:
    def test_final_entry_is_one_below_the_split(self):
        # for u p^{n-1} 0^inf the last suffix slots in just under suffix k
        for n in range(3, 6):
            for N in (2, 3):
                for base in product(range(N), repeat=n - 1):
                    for t in range(1, n):
                        u, p = base[: n - 1 - t], base[n - 1 - t :]
                        if not is_primitive(p) or all(s == 0 for s in p):
                            continue
                        w = EventuallyPeriodicWord(base + p * (n - 2), (0,), N)
                        pi = pat(w, n)
                        if pi is None:
                            continue
                        k = len(u) + 1
                        assert pi[-1] == pi[k - 1] - 1


class TestRealizeCheck:
    def test_worked_word(self):
        assert realize_check((4, 2, 1, 7, 5, 3, 6), W("2102212210(0)"))

    def test_undefined_pattern_fails(self):
        assert not realize_check((1, 2), W("(0)"))

    def test_wrong_pattern_fails(self):
        assert not realize_check((2, 1), W("0(1)"))
