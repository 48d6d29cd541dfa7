"""Checkers for the two open questions: descent equidistribution of
zero-marked cycles against all permutations, and divisibility of the
stratified pattern counts by six.

Checkers report; they never assert. A refutation is a first-class
outcome that the command line maps to its own exit code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations as _all_permutations

from .enumeration import BoundExceededError, DEFAULT_BOUND, count_table
from .permutations import descent_set, marked_cycles, theta_inv

__all__ = [
    "DescentDistribution",
    "descent_distribution",
    "t0_elements",
    "Conjecture1Report",
    "check_conjecture1",
    "phi",
    "phi_inv",
    "DivisibilityCell",
    "Conjecture2Report",
    "check_conjecture2",
]


@dataclass
class DescentDistribution:
    """Population counts of descent sets, with the descent-number marginal."""

    by_set: dict
    by_count: dict

    def size(self) -> int:
        return sum(self.by_set.values())


def descent_distribution(elements) -> DescentDistribution:
    by_set = Counter(descent_set(e) for e in elements)
    by_count = Counter(len(ds) for ds in by_set.elements())
    return DescentDistribution(by_set=dict(by_set), by_count=dict(sorted(by_count.items())))


def t0_elements(n: int):
    """All n! n-cycles with one one-line entry rewritten to 0.

    The stored encoding of a marked cycle already uses 0 for the erased
    slot, so these are the same tuples; here the 0 takes part in
    descent counting instead of being skipped.
    """
    return marked_cycles(n)


@dataclass
class Conjecture1Report:
    n: int
    matches: bool
    t0_distribution: DescentDistribution
    sn_distribution: DescentDistribution


def check_conjecture1(n: int, bound: int = DEFAULT_BOUND) -> Conjecture1Report:
    """Compare descent-set distributions of zero-marked cycles and S_n.

    The comparison is by full descent SET, not just by count.
    """
    if n > bound:
        raise BoundExceededError(f"n={n} exceeds the sweep bound {bound}")
    if n < 1:
        raise ValueError("need n >= 1")
    t0 = descent_distribution(t0_elements(n))
    sn = descent_distribution(_all_permutations(range(1, n + 1)))
    return Conjecture1Report(
        n=n, matches=t0.by_set == sn.by_set, t0_distribution=t0, sn_distribution=sn
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


@dataclass
class DivisibilityCell:
    n: int
    N: int
    value: int
    even: bool
    six_claimed: bool
    six_ok: bool


@dataclass
class Conjecture2Report:
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
    for n, N, value in count_table(n_max):
        claimed = N >= 3 and n >= 3
        cells.append(
            DivisibilityCell(
                n=n,
                N=N,
                value=value,
                even=value % 2 == 0,
                six_claimed=claimed,
                six_ok=value % 6 == 0 if claimed else True,
            )
        )
    return Conjecture2Report(
        n_max=n_max,
        cells=cells,
        all_even=all(c.even for c in cells),
        refuted=any(c.six_claimed and not c.six_ok for c in cells),
    )
