"""Checkers for the two open questions: descent equidistribution of
zero-marked cycles against all permutations, and divisibility of the
stratified pattern counts by six.

Checkers report; they never assert. A refutation is a first-class
outcome that the command line maps to its own exit code.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, gcd
from typing import NamedTuple

from .enumeration import DEFAULT_BOUND, check_bound, count_table
from .permutations import _size, theta_inv
from .words import _psi_terms

__all__ = [
    "DescentDistribution",
    "Conjecture1Report",
    "check_conjecture1",
    "phi",
    "phi_inv",
    "DivisibilityCell",
    "Conjecture2Report",
    "check_conjecture2",
]


class DescentDistribution(NamedTuple):
    """Population counts of descent sets, with the descent-number marginal."""

    by_set: dict
    by_count: dict

    def size(self) -> int:
        return sum(self.by_set.values())


def _distribution(by_set) -> DescentDistribution:
    """The distribution of a {descent set: count} map, its marginal sorted by count."""
    by_count = Counter()
    for ds, count in by_set.items():
        by_count[len(ds)] += count
    return DescentDistribution(by_set=dict(by_set), by_count=dict(sorted(by_count.items())))


def _mask_set(mask: int) -> frozenset:
    """The descent set whose position i is bit i-1 of mask."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _multinomial(gaps) -> int:
    """alpha_n(T) = n! / (g_1! g_2! ...), the permutations of S_n with descent set inside T."""
    out = factorial(sum(gaps))
    for g in gaps:
        out //= factorial(g)
    return out


def _necklaces(gaps) -> int:
    """The n-cycles with descent set inside T: primitive necklaces of content gaps.

    (1/n) sum over d | gcd of mu(d) (n/d)! / prod (g_i/d)! (Gessel and
    Reutenauer, JCTA 64, 1993). Content (2, 2) has aabb; abab is a square.

    >>> _necklaces((2, 2)), _necklaces((1, 1, 1)), _necklaces((3,))
    (1, 2, 0)
    """
    g = gcd(*gaps)
    terms = (mu * _multinomial([c * e // g for c in gaps]) for mu, e in _psi_terms(g))
    return sum(terms) // sum(gaps)


def _by_exact_set(n: int, at_most) -> list:
    """Counts by exact descent set, a list indexed by mask (position i is bit i-1).

    at_most(gaps) is the count with descent set inside T = {t_1 < ... < t_k}
    in [n-1], whose gaps are (t_1, t_2 - t_1, ..., n - t_k). The count at S
    is the sum of (-1)^|S - T| at_most(T) over T in S (Stanley, EC1,
    section 1.4), one subset Moebius transform over the 2^(n-1) bitmasks.
    """
    size = 1 << (n - 1)
    exact = []
    for mask in range(size):
        cuts = [0, *(i + 1 for i in range(n - 1) if mask >> i & 1), n]
        exact.append(at_most([b - a for a, b in zip(cuts, cuts[1:])]))
    for i in range(n - 1):
        for mask in range(size):
            if mask >> i & 1:
                exact[mask] -= exact[mask ^ (1 << i)]
    return exact


class Conjecture1Report(NamedTuple):
    n: int
    matches: bool
    t0_distribution: DescentDistribution
    sn_distribution: DescentDistribution


def check_conjecture1(n: int, bound: int = DEFAULT_BOUND) -> Conjecture1Report:
    """Compare descent-set distributions of zero-marked cycles and S_n.

    The comparison is by full descent SET, not just by count. The cycles
    are the marked cycles as stored, with 0 in the erased slot; that 0
    takes part in the descent count instead of being skipped. Both sides
    come from counts by descent set, with no permutation built: the
    n-cycles from necklace counts, each mark then moved into its cycle's
    set, and S_n from the classical beta_n(S) (Elizalde, Descent sets of
    cyclic permutations, Adv. Appl. Math. 47, 2011, studies this
    equidistribution).
    """
    check_bound(_size(n, 1, "n"), bound)
    # With 0 in slot p, position p-1 is a descent (sigma_{p-1} > 0) and p is not
    # (0 < sigma_{p+1}); the other positions keep the cycle's set D, so each mark is
    # O(1): set bit p-2 for position p-1 when p > 1, then clear bit p-1 for p.
    sn_counts = _by_exact_set(n, _multinomial)
    t0_counts = [0] * len(sn_counts)
    for D, count in enumerate(_by_exact_set(n, _necklaces)):
        if count:
            for p in range(1, n + 1):
                below = 1 << (p - 2) if p > 1 else 0
                t0_counts[(D | below) & ~(1 << (p - 1))] += count
    t0, sn = (
        _distribution({_mask_set(mask): c for mask, c in enumerate(counts) if c})
        for counts in (t0_counts, sn_counts)
    )
    return Conjecture1Report(
        n=n, matches=t0_counts == sn_counts, t0_distribution=t0, sn_distribution=sn
    )


def phi(mc) -> tuple:
    """Collapse a marked cycle of shape [*, 1, ...] two slots down.

    Drops the leading [*, 1] and subtracts 2 from every remaining entry,
    the entry 2 becoming the new 0. Preserves the number of descents.

    >>> phi((0, 1, 5, 7, 6, 2, 3))
    (3, 5, 4, 0, 1)
    """
    mc = tuple(mc)
    if len(mc) < 3 or mc[0] != 0 or mc[1] != 1:
        raise ValueError("phi needs a marked cycle of shape [*, 1, ...]")
    theta_inv(mc)
    return tuple(e - 2 for e in mc[2:])


def phi_inv(tc) -> tuple:
    """Prepend [*, 1] and add 2 to every entry, the 0 becoming 2."""
    tc = tuple(tc)
    theta_inv(tc)
    return (0, 1) + tuple(e + 2 for e in tc)


class DivisibilityCell(NamedTuple):
    n: int
    N: int
    a: int
    even: bool
    six_claimed: bool
    six_ok: bool


class Conjecture2Report(NamedTuple):
    n_max: int
    cells: list
    all_even: bool
    refuted: bool

    def verified(self) -> bool:
        return self.all_even and not self.refuted


def check_conjecture2(n_max: int) -> Conjecture2Report:
    """Evenness of every a(n, N), divisibility by 6 where conjectured.

    Divisibility by 6 is asserted only for n, N >= 3, which within the
    nonzero range means 3 <= N <= n-1. Evenness is asserted throughout.
    """
    cells = []
    for n, N, a in count_table(n_max):
        claimed = N >= 3 and n >= 3
        cells.append(
            DivisibilityCell(
                n=n,
                N=N,
                a=a,
                even=a % 2 == 0,
                six_claimed=claimed,
                six_ok=a % 6 == 0 if claimed else True,
            )
        )
    return Conjecture2Report(
        n_max=n_max,
        cells=cells,
        all_even=all(c.even for c in cells),
        refuted=any(c.six_claimed and not c.six_ok for c in cells),
    )
