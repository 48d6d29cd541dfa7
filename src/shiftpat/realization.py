"""Minimal alphabet size N(pi) and explicit shift words realizing pi.

The two formulas for N(pi) are implemented independently: one through
the strict-inequality value set A(pi) plus the 0/1 correction Delta,
one through descents of the marked cycle theta(pi). The forced prefix
w_1..w_{n-1} and the witness word variants A-F are built from the
inequality chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .permutations import check_permutation, marked_des, marked_eps, theta
from .words import EventuallyPeriodicWord, pat

__all__ = [
    "a_set",
    "delta",
    "n_min",
    "n_min_marked",
    "RequiredChain",
    "required_chain",
    "base_assignment",
    "WitnessSpec",
    "witness",
    "realize_check",
]


def _positions(pi) -> list:
    """inv[v] = 1-indexed position of value v; inv[0] unused."""
    inv = [0] * (len(pi) + 1)
    for pos, v in enumerate(pi, start=1):
        inv[v] = pos
    return inv


def _checked(pi):
    """Check pi once for a public entry point; the (pi, inv) it returns feed the _kernels."""
    pi = check_permutation(pi)
    if len(pi) < 2:
        raise ValueError("need length >= 2")
    return pi, _positions(pi)


def a_set(pi) -> frozenset:
    """Values a whose forced inequality w at a < w at a+1 is strict.

    a qualifies iff the positions i, j of a, a+1 both precede the last
    slot and the entry after a exceeds the entry after a+1.

    >>> sorted(a_set((4, 3, 6, 1, 5, 2)))
    [3, 4, 5]
    """
    return _a_set(*_checked(pi))


def _a_set(pi, inv) -> frozenset:
    n = len(pi)
    out = set()
    for a in range(1, n):
        i, j = inv[a], inv[a + 1]
        # pi[i] (0-based) is the entry at position i+1
        if i < n and j < n and pi[i] > pi[j]:
            out.add(a)
    return frozenset(out)


def delta(pi):
    """The 0/1 correction to N(pi) with its case tag I, II, III or None.

    Case I: pi(n) is interior and the entries after pi(n)-1 and pi(n)+1
    are out of order. Case II: pi ends 2, 1. Case III: pi ends n-1, n.
    """
    return _delta(*_checked(pi))


def _delta(pi, inv):
    n = len(pi)
    b = pi[-1]
    if 1 < b < n:
        # i, j < n automatically: the values b-1, b+1 differ from b = pi(n)
        i, j = inv[b - 1], inv[b + 1]
        if pi[i] > pi[j]:
            return 1, "I"
    elif b == 1:
        if pi[-2] == 2:
            return 1, "II"
    else:
        if pi[-2] == n - 1:
            return 1, "III"
    return 0, None


def n_min(pi) -> int:
    """Least alphabet size whose one-sided shift realizes pi.

    >>> n_min((4, 3, 6, 1, 5, 2))
    4
    >>> n_min((4, 2, 1, 7, 5, 3, 6))
    3
    """
    pi = check_permutation(pi)
    return _n_min(pi) if len(pi) > 1 else 1


def _n_min(pi) -> int:
    """n_min of a permutation tuple of length >= 2 that is trusted to be valid."""
    inv = _positions(pi)
    return 1 + len(_a_set(pi, inv)) + _delta(pi, inv)[0]


def n_min_marked(pi) -> int:
    """N(pi) through the marked cycle: 1 + descents + end-shape indicator.

    Must agree with n_min on every permutation.
    """
    pi = check_permutation(pi)
    if len(pi) == 1:
        return 1
    mc = theta(pi)
    return 1 + marked_des(mc) + marked_eps(mc)


@dataclass(frozen=True)
class RequiredChain:
    """The forced weak chain on w_1..w_{n-1}, ordered by value of pi.

    order lists positions by increasing value with pi(n)'s slot removed.
    strict_after holds 1-based gap indices g: the inequality between
    chain elements g and g+1 is strict. Cases II and III force an extra
    strict inequality in the tail rather than in the chain; delta_case
    records which situation applies.
    """

    order: tuple
    strict_after: frozenset
    case_tag: str
    delta_case: str | None


def required_chain(pi) -> RequiredChain:
    pi, inv = _checked(pi)
    return _required_chain(pi, inv, _a_set(pi, inv), _delta(pi, inv)[1])


def _required_chain(pi, inv, strict_values, case) -> RequiredChain:
    """The chain of pi given A(pi) and the case tag of Delta."""
    n = len(pi)
    b = pi[-1]
    order = tuple(inv[v] for v in range(1, n + 1) if v != b)
    # value v sits at chain slot v (below b) or v-1 (above b)
    strict = {a if a < b else a - 1 for a in strict_values}
    if case == "I":
        strict.add(b - 1)
    if b == 1:
        tag = "ends_with_1"
    elif b == n:
        tag = "ends_with_n"
    else:
        tag = "interior"
    return RequiredChain(order=order, strict_after=frozenset(strict), case_tag=tag, delta_case=case)


def base_assignment(pi) -> tuple:
    """The forced prefix w_1..w_{n-1} over {0..N(pi)-1}.

    Walk the chain left to right, starting from 0 (from 1 when pi ends
    2, 1) and stepping up by one at each strict gap.

    >>> base_assignment((4, 3, 6, 1, 5, 2))
    (1, 0, 3, 0, 2)
    """
    return _base_assignment(required_chain(pi))


def _base_assignment(chain: RequiredChain) -> tuple:
    value = 1 if chain.delta_case == "II" else 0
    w = [0] * (len(chain.order) + 2)
    for idx, pos in enumerate(chain.order, start=1):
        if idx > 1 and (idx - 1) in chain.strict_after:
            value += 1
        w[pos] = value
    return tuple(w[1:-1])


@dataclass(frozen=True)
class WitnessSpec:
    """A realized witness: its variant, split data and the word itself."""

    variant: str
    k: int | None
    m: int | None
    word: EventuallyPeriodicWord


def witness(pi, variant=None, m=None) -> WitnessSpec:
    """A word over exactly n_min(pi) symbols whose pattern is pi.

    Variants follow the construction cases: A = u p^m 0^inf (needs
    pi(n) != n), B = u p^m (N-1)^inf (needs pi(n) != 1), C/D append a
    constant tail to the forced prefix when pi(n) is 1 resp. n, and
    E/F handle an interior pi(n) whose neighbor gap is strict. With no
    variant requested, A is chosen when pi(n-1) > pi(n), else B. The
    repetition count m defaults to n-1 and must keep (m-1)(n-k) >= n-2.
    """
    pi, inv = _checked(pi)
    n = len(pi)
    b = pi[-1]
    strict_values = _a_set(pi, inv)
    d, case = _delta(pi, inv)
    N = 1 + len(strict_values) + d
    base = _base_assignment(_required_chain(pi, inv, strict_values, case))
    if variant is None:
        variant = "A" if pi[-2] > b else "B"
    variant = str(variant).upper()
    if variant not in ("A", "B") and m is not None:
        raise ValueError("m applies only to variants A and B")
    k = reps = None
    if variant in ("A", "B"):
        if variant == "A":
            if b == n:
                raise ValueError("variant A needs pi(n) != n")
            k = inv[b + 1]
            tail = 0
        else:
            if b == 1:
                raise ValueError("variant B needs pi(n) != 1")
            k = inv[b - 1]
            tail = N - 1
        reps = n - 1 if m is None else int(m)
        if reps < 1 or (reps - 1) * (n - k) < n - 2:
            raise ValueError(f"m={reps} is below the repetition bound for k={k}")
        prefix = base[: k - 1] + base[k - 1 :] * reps
    elif variant == "C":
        if b != 1:
            raise ValueError("variant C needs pi(n) = 1")
        prefix, tail = base, 0
    elif variant == "D":
        if b != n:
            raise ValueError("variant D needs pi(n) = n")
        prefix, tail = base, N - 1
    elif variant in ("E", "F"):
        if not 1 < b < n or case != "I":
            raise ValueError("variants E and F need an interior pi(n) with a strict neighbor gap")
        c = base[inv[b - 1] - 1]
        if variant == "E":
            prefix, tail = base + (c,), N - 1
        else:
            prefix, tail = base + (c + 1,), 0
    else:
        raise ValueError(f"unknown witness variant: {variant!r}")
    word = EventuallyPeriodicWord(prefix, (tail,), N)
    return WitnessSpec(variant=variant, k=k, m=reps, word=word)


def realize_check(pi, w: EventuallyPeriodicWord) -> bool:
    """True iff the first len(pi) suffixes of w order exactly like pi."""
    return pat(w, len(pi)) == tuple(pi)
