"""Minimal alphabet size N(pi) and explicit shift words realizing pi.

The two formulas for N(pi) are implemented independently: one through
the strict-inequality value set A(pi) plus the 0/1 correction Delta,
one through descents of the marked cycle theta(pi). One walk over the
values 1..n gives the forced prefix w_1..w_{n-1}, A(pi) and N(pi) to
every entry point of the first formula; the witness word variants A-F
are built from that prefix.
"""

from __future__ import annotations

from typing import NamedTuple

from .permutations import (_marked_des, _marked_eps, _positions, _size, _theta,
                           check_permutation, theta)
from .words import EventuallyPeriodicWord, pat

__all__ = [
    "a_set",
    "delta",
    "n_min",
    "n_min_marked",
    "NminExplanation",
    "explain_nmin",
    "base_assignment",
    "WitnessSpec",
    "witness",
    "realize_check",
]


def _checked(pi):
    """Check pi once for a public entry point; the (pi, inv) it returns feed the _kernels."""
    pi = check_permutation(pi)
    _size(len(pi), 2, "length")
    return pi, _positions(pi)


def a_set(pi) -> frozenset:
    """Values a whose forced inequality w at a < w at a+1 is strict.

    a qualifies iff the positions i, j of a, a+1 both precede the last
    slot and the entry after a exceeds the entry after a+1.

    >>> sorted(a_set((4, 3, 6, 1, 5, 2)))
    [3, 4, 5]
    """
    return frozenset(_walk(*_checked(pi))[1])


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
    return _walk(pi, _positions(pi))[4]


def n_min_marked(pi) -> int:
    """N(pi) through the marked cycle: 1 + descents + end-shape indicator.

    Must agree with n_min on every permutation.
    """
    mc = theta(pi)
    if len(mc) == 1:
        return 1
    return 1 + _marked_des(mc) + _marked_eps(mc)


class NminExplanation(NamedTuple):
    """N(pi) with both of its derivations: A(pi) and Delta, and theta(pi) with des and eps."""

    n_min: int
    a_set: frozenset
    delta: int
    delta_case: str | None
    theta: tuple
    des: int
    eps: int


def explain_nmin(pi) -> NminExplanation:
    """Check pi once and report N(pi), A(pi), Delta and its case, theta(pi), des and eps.

    >>> explain_nmin((4, 3, 6, 1, 5, 2)).theta
    (5, 0, 6, 3, 2, 1)
    """
    pi = check_permutation(pi)
    mc = _theta(pi)
    if len(pi) == 1:
        return NminExplanation(1, frozenset(), 0, None, mc, 0, 0)
    _, strict, d, case, N = _walk(pi, _positions(pi))
    return NminExplanation(N, frozenset(strict), d, case, mc, _marked_des(mc), _marked_eps(mc))


def base_assignment(pi) -> tuple:
    """The forced prefix w_1..w_{n-1} over {0..N(pi)-1}.

    Walk the chain left to right, starting from 0 (from 1 when pi ends
    2, 1) and stepping up by one at each strict gap.

    >>> base_assignment((4, 3, 6, 1, 5, 2))
    (1, 0, 3, 0, 2)
    """
    return _walk(*_checked(pi))[0]


def _walk(pi, inv) -> tuple:
    """(w_1..w_{n-1}, A(pi) as a list, Delta, its case, N(pi)) from one walk over the values 1..n.

    The slot of each value v gets the current symbol, starting from 0
    (from 1 in case II). The chain then steps up when v is in A(pi), that
    is when the positions i, j of v, v+1 both precede slot n and the entry
    after v exceeds the entry after v+1, or in case I when v = pi(n) - 1.
    """
    n = len(pi)
    d, case = _delta(pi, inv)
    gap = pi[-1] - 1 if case == "I" else 0
    w = [0] * (n + 1)  # w[n], the slot of pi(n), is left out of the prefix
    value = 1 if case == "II" else 0
    strict = []
    for v in range(1, n):
        i, j = inv[v], inv[v + 1]
        w[i] = value
        # pi[i] (0-based) is the entry at position i+1
        if i < n and j < n and pi[i] > pi[j]:
            strict.append(v)
            value += 1
        elif v == gap:
            value += 1
    w[inv[n]] = value
    return tuple(w[1:n]), strict, d, case, 1 + len(strict) + d


class WitnessSpec(NamedTuple):
    """A realized witness: its variant, split data and the word itself."""

    variant: str
    k: int | None
    m: int | None
    word: EventuallyPeriodicWord


# Each variant's precondition on (n, pi(n), Delta case) and the message when
# it fails. Case I already means an interior pi(n); E and F share one entry.
_VARIANTS = {
    "A": (lambda n, b, case: b != n, "variant A needs pi(n) != n"),
    "B": (lambda n, b, case: b != 1, "variant B needs pi(n) != 1"),
    "C": (lambda n, b, case: b == 1, "variant C needs pi(n) = 1"),
    "D": (lambda n, b, case: b == n, "variant D needs pi(n) = n"),
    "E": (lambda n, b, case: case == "I",
          "variants E and F need an interior pi(n) with a strict neighbor gap"),
}
_VARIANTS["F"] = _VARIANTS["E"]


def witness(pi, variant=None, m=None) -> WitnessSpec:
    """A word over exactly n_min(pi) symbols whose pattern is pi.

    Variants follow the construction cases: A = u p^m 0^inf (needs
    pi(n) != n), B = u p^m (N-1)^inf (needs pi(n) != 1), C/D append a
    constant tail to the forced prefix when pi(n) is 1 resp. n, and
    E/F handle an interior pi(n) whose neighbor gap is strict. With no
    variant requested, A is chosen when pi(n-1) > pi(n), else B. The
    repetition count m, an int >= 1, must keep (m-1)(n-k) >= n-2 and
    defaults to the least m that does, 1 + ceil((n-2)/(n-k)): about 2n
    symbols in the word where m = n-1 would give about n^2 (the two
    agree when n <= 3 or k = n-1).

    >>> witness((4, 3, 6, 1, 5, 2)).word.to_string()
    '103020302(0)'
    """
    pi, inv = _checked(pi)
    n = len(pi)
    b = pi[-1]
    if m is not None:
        _size(m, 1, "m")
    if variant is None:
        variant = "A" if pi[-2] > b else "B"
    variant = str(variant).upper()
    if variant not in ("A", "B") and m is not None:
        raise ValueError("m applies only to variants A and B")
    if variant not in _VARIANTS:
        raise ValueError(f"unknown witness variant: {variant!r}")
    prefix, _, _, case, N = _walk(pi, inv)
    applies, message = _VARIANTS[variant]
    if not applies(n, b, case):
        raise ValueError(message)
    k = reps = None
    if variant in ("A", "B"):
        k = inv[b + 1 if variant == "A" else b - 1]
        reps = 1 - (2 - n) // (n - k) if m is None else m  # 1 + ceil((n-2)/(n-k))
        if (reps - 1) * (n - k) < n - 2:
            raise ValueError(f"m={reps} is below the repetition bound for k={k}")
    # pi, the variant and m are valid from here on: build the word
    if k is not None:
        prefix = prefix[: k - 1] + prefix[k - 1 :] * reps
    elif variant in ("E", "F"):
        c = prefix[inv[b - 1] - 1]
        prefix += (c + 1 if variant == "F" else c,)
    tail = N - 1 if variant in ("B", "D", "E") else 0
    word = EventuallyPeriodicWord._canonical(prefix, (tail,), N)
    return WitnessSpec(variant=variant, k=k, m=reps, word=word)


def realize_check(pi, w: EventuallyPeriodicWord) -> bool:
    """True iff the first len(pi) suffixes of w order exactly like pi."""
    pi = check_permutation(pi)
    return pat(w, len(pi)) == pi
