"""Minimal alphabet size, forced prefixes, and witness construction."""

from itertools import permutations, product

import pytest

from shiftpat import enumeration, permutations as permutations_module, realization
from shiftpat import (
    BoundExceededError,
    EventuallyPeriodicWord,
    a_set,
    base_assignment,
    complement,
    delta,
    explain_nmin,
    is_primitive,
    marked_des,
    marked_eps,
    n_min,
    n_min_marked,
    oracle_allowed,
    pat,
    realize_check,
    theta,
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
    [a_set, delta, n_min, n_min_marked, explain_nmin, base_assignment, witness],
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

    def test_matches_the_definition_exhaustively(self):
        # a is in A(pi) iff the positions i, j of a, a+1 both precede slot n
        # and the entry after position i exceeds the entry after position j
        for n in range(2, 8):
            for pi in s_n(n):
                inv = {v: pos for pos, v in enumerate(pi, start=1)}
                expected = set()
                for a in range(1, n):
                    i, j = inv[a], inv[a + 1]
                    # pi[i] (0-based) is the entry at position i+1
                    if i < n and j < n and pi[i] > pi[j]:
                        expected.add(a)
                assert a_set(pi) == frozenset(expected), pi

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

    def test_marked_formula_checks_once(self, monkeypatch):
        calls = []
        check = permutations_module.check_permutation

        def counted(pi):
            calls.append(pi)
            return check(pi)

        monkeypatch.setattr(permutations_module, "check_permutation", counted)
        monkeypatch.setattr(realization, "check_permutation", counted)
        assert n_min_marked((3, 1, 2)) == 2
        assert len(calls) == 1

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


class TestExplainNmin:
    def test_worked_value(self):
        report = explain_nmin((4, 3, 6, 1, 5, 2))
        assert report.n_min == 4
        assert report.a_set == frozenset({3, 4, 5})
        assert (report.delta, report.delta_case) == (0, None)
        assert report.theta == (5, 0, 6, 3, 2, 1)
        assert (report.des, report.eps) == (3, 0)

    def test_length_one(self):
        report = explain_nmin((1,))
        assert (report.n_min, report.a_set, report.delta, report.delta_case) == (1, frozenset(), 0, None)
        assert (report.theta, report.des, report.eps) == ((0,), 0, 0)

    def test_matches_the_public_entry_points(self):
        for n in range(2, 7):
            for pi in s_n(n):
                report = explain_nmin(pi)
                mc = theta(pi)
                assert report.n_min == n_min(pi) == 1 + report.des + report.eps
                assert report.a_set == a_set(pi)
                assert (report.delta, report.delta_case) == delta(pi)
                assert (report.theta, report.des, report.eps) == (mc, marked_des(mc), marked_eps(mc))

    def test_checks_once(self, monkeypatch):
        calls = []
        check = permutations_module.check_permutation

        def counted(pi):
            calls.append(pi)
            return check(pi)

        monkeypatch.setattr(permutations_module, "check_permutation", counted)
        monkeypatch.setattr(realization, "check_permutation", counted)
        assert explain_nmin((8, 9, 3, 1, 4, 6, 2, 7, 5)).delta_case == "I"
        assert len(calls) == 1


def forced_chain(pi):
    """(order, strict gaps) of the forced weak chain on w_1..w_{n-1}, read off pi alone.

    order lists the positions 1..n-1 by increasing value. Gap g, between
    chain elements g and g+1 at positions i and j, is strict when the entry
    after position i exceeds the entry after position j.
    """
    n = len(pi)
    order = tuple(sorted(range(1, n), key=lambda i: pi[i - 1]))
    # pi[i] (0-based) is the entry after position i
    gaps = enumerate(zip(order, order[1:]), start=1)
    return order, frozenset(g for g, (i, j) in gaps if pi[i] > pi[j])


class TestRequiredChain:
    def test_interior_case(self):
        assert forced_chain((4, 3, 6, 1, 5, 2)) == ((4, 2, 1, 5, 3), frozenset({2, 3, 4}))
        assert delta((4, 3, 6, 1, 5, 2)) == (0, None)

    def test_interior_with_extra_strict_gap(self):
        # gap 4 joins the values pi(n) - 1 and pi(n) + 1: the case I step
        pi = (8, 9, 3, 1, 4, 6, 2, 7, 5)
        assert forced_chain(pi) == ((4, 7, 3, 5, 6, 8, 1, 2), frozenset({2, 4, 7}))
        assert delta(pi) == (1, "I")

    def test_ends_with_one(self):
        assert forced_chain((3, 5, 2, 4, 1)) == ((3, 1, 4, 2), frozenset({2}))

    def test_ends_with_n(self):
        assert forced_chain((2, 3, 1, 4, 5, 6))[0] == (3, 1, 2, 4, 5)

    def test_strict_gap_accounting(self):
        # the strict gaps are A(pi), shifted down by one above pi(n), plus the
        # case I gap pi(n) - 1; the tail cases II and III add none
        for n in range(2, 8):
            for pi in s_n(n):
                order, strict = forced_chain(pi)
                b = pi[-1]
                _, case = delta(pi)
                assert len(order) == n - 1
                expected = {a if a < b else a - 1 for a in a_set(pi)}
                if case == "I":
                    expected.add(b - 1)
                assert strict == expected, pi

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

    def test_one_walk_matches_the_chain(self):
        # the one walk over the values equals a walk over the chain built
        # from pi alone: from 0 (from 1 when pi ends 2, 1), up one at each
        # strict gap
        for n in range(2, 8):
            for pi in s_n(n):
                order, strict = forced_chain(pi)
                value = 1 if pi[-2:] == (2, 1) else 0
                w = [0] * (n + 1)
                for idx, pos in enumerate(order, start=1):
                    if idx > 1 and idx - 1 in strict:
                        value += 1
                    w[pos] = value
                assert base_assignment(pi) == tuple(w[1:n]), pi


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
        assert witness((4, 3, 6, 1, 5, 2)).m == 2

    def test_default_m_is_valid_and_least(self):
        # the default is 1 + ceil((n-2)/(n-k)), the least m with (m-1)(n-k) >= n-2
        for n in range(3, 9):
            for pi in s_n(n):
                N = n_min(pi)
                # A needs pi(n) != n, B needs pi(n) != 1
                for v in "A" * (pi[-1] != n) + "B" * (pi[-1] != 1):
                    spec = witness(pi, variant=v)
                    assert spec.m == 1 + -(-(n - 2) // (n - spec.k)), (pi, v)
                    assert realize_check(pi, spec.word), (pi, v)
                    assert len(set(spec.word.pre) | set(spec.word.per)) == N, (pi, v)
                    if spec.m > 1:
                        with pytest.raises(ValueError, match="repetition bound"):
                            witness(pi, variant=v, m=spec.m - 1)

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

    @pytest.mark.parametrize(
        "pi, variant, m, message",
        [
            ((1, 2, 3), "A", None, "variant A"),
            ((2, 3, 1), "B", None, "variant B"),
            ((2, 1, 3), "C", None, "variant C"),
            ((2, 3, 1), "D", None, "variant D"),
            ((4, 3, 6, 1, 5, 2), "E", None, "E and F"),
            ((4, 3, 6, 1, 5, 2), "F", None, "E and F"),
            ((4, 3, 6, 1, 5, 2), "A", 1, "repetition bound"),
        ],
        ids=["A", "B", "C", "D", "E", "F", "A-m1"],
    )
    def test_rejects_before_building(self, monkeypatch, pi, variant, m, message):
        # the one walk gives Delta's case, which E and F need; no word is built after it
        def unreachable(*args):
            raise AssertionError("built a word for a rejected request")

        walks = []
        walk = realization._walk

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(realization, "_walk", counted)
        monkeypatch.setattr(EventuallyPeriodicWord, "_canonical", unreachable)
        with pytest.raises(ValueError, match=message):
            witness(pi, variant, m)
        assert len(walks) == 1

    def test_m_past_the_entry_bound_is_refused_before_building(self, monkeypatch):
        # (4, 3, 1, 2) takes variant B with k = 3: k - 1 + (n - k) m = m + 2
        # symbols, checked through the estimate alone; the repeat of this m
        # would ask for petabytes and fail at once, not fill memory
        def unreachable(*args):
            raise AssertionError("built a word past the bound")

        monkeypatch.setattr(EventuallyPeriodicWord, "_canonical", unreachable)
        m = 10**15
        with pytest.raises(BoundExceededError, match=f"^m={m} needs {m + 2} entries, past the bound of 10+$"):
            witness((4, 3, 1, 2), m=m)

    def test_entry_bound_refuses_only_past_it(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_ENTRY_BOUND", 20)
        assert witness((4, 3, 1, 2), m=18).word.to_string() == "11" + "0" * 18 + "(1)"  # 20 symbols
        with pytest.raises(BoundExceededError, match="^m=19 needs 21 entries, past the bound of 20$"):
            witness((4, 3, 1, 2), m=19)

    def test_default_m_is_not_checked(self, monkeypatch):
        # the default m is about 2n symbols, so only a given m is estimated
        def unreachable(*args):
            raise AssertionError("estimated the default m")

        monkeypatch.setattr(realization, "_check_entries", unreachable)
        assert witness((4, 3, 6, 1, 5, 2)).m == 2

    @pytest.mark.parametrize("variant", ["Z", "G", "AB", ""])
    def test_unknown_variant(self, variant):
        with pytest.raises(ValueError, match="unknown witness variant"):
            witness((4, 3, 6, 1, 5, 2), variant)

    def test_lower_case_variant_accepted(self):
        assert witness((4, 3, 6, 1, 5, 2), "a") == witness((4, 3, 6, 1, 5, 2), "A")
        # (2, 4, 1, 3) ends interior with a strict neighbor gap: Delta case I
        assert witness((2, 4, 1, 3), "e").variant == "E"
        assert witness((2, 4, 1, 3), "e") == witness((2, 4, 1, 3), "E")

    @pytest.mark.parametrize("variant", ["C", "D", "z"])
    def test_m_checked_before_the_variant(self, variant):
        # m is rejected first, whether the variant applies (C), does not (D) or is unknown
        with pytest.raises(ValueError, match="m applies only to variants A and B"):
            witness((3, 5, 2, 4, 1), variant=variant, m=3)

    @pytest.mark.parametrize("m", [2.5, 3.0, "3", True, False])
    @pytest.mark.parametrize("variant", [None, "C"])
    def test_m_must_be_an_integer(self, variant, m):
        # checked before every other m check, so never truncated and never
        # mistaken for an m given to the wrong variant
        with pytest.raises(ValueError, match="^need m >= 1$"):
            witness((3, 1, 2), variant=variant, m=m)

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
