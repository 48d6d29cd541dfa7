"""Checkers for the two open questions: descent equidistribution of
zero-marked cycles against all permutations, and divisibility of the
stratified pattern counts by six.

Checkers report; they never assert. A refutation is a first-class
outcome that the command line maps to its own exit code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial
from operator import gt

from .enumeration import DEFAULT_BOUND, check_bound, count_table
from .permutations import descent_set, n_cycles, theta_inv

__all__ = [
    "DescentDistribution",
    "descent_distribution",
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
    return _distribution(Counter(descent_set(e) for e in elements))


def _distribution(by_set) -> DescentDistribution:
    """The distribution of a {descent set: count} map, its marginal sorted by count."""
    by_count = Counter()
    for ds, count in by_set.items():
        by_count[len(ds)] += count
    return DescentDistribution(by_set=dict(by_set), by_count=dict(sorted(by_count.items())))


def _mask_set(mask: int) -> frozenset:
    """The descent set whose position i is bit i-1 of mask."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _t0_descent_sets(n: int) -> Counter:
    """Descent sets of the n! zero-marked cycles, as bitmasks, from one sweep of the n-cycles.

    Each of the (n-1)! cycles has its descent set D read once; its n
    marks then cost O(1) each. With 0 in slot p, position p-1 is a
    descent (sigma_{p-1} > 0) and position p is not (0 < sigma_{p+1});
    every other position keeps its cycle descent. So the mark at p gives
    D minus {p-1, p}, plus p-1 when p > 1. Gessel and Reutenauer (JCTA
    64, 1993) count the cycles themselves by descent set.
    """
    cycle_sets = Counter()
    for sigma in n_cycles(n):
        cycle_sets[tuple(map(gt, sigma, sigma[1:]))] += 1
    # bit(i) for position i, 0 outside 1..n-1
    bit = [0] + [1 << (i - 1) for i in range(1, n)] + [0]
    out = Counter()
    for descents, count in cycle_sets.items():
        D = sum(1 << i for i, is_descent in enumerate(descents) if is_descent)
        for p in range(1, n + 1):
            out[(D & ~bit[p]) | bit[p - 1]] += count
    return out


def _sn_descent_sets(n: int) -> dict:
    """beta_n(S), the permutations of S_n with descent set exactly S, for each S.

    S runs over the subsets of [n-1]. alpha_n(T), the count with descent
    set inside T = {t_1 < ... < t_k}, is the multinomial
    n! / (t_1! (t_2 - t_1)! ... (n - t_k)!), and beta_n(S) is the sum of
    (-1)^|S - T| alpha_n(T) over the subsets T of S (Stanley, EC1,
    section 1.4). One subset Moebius transform over the 2^(n-1) bitmasks
    inverts it; no permutation is built.
    """
    size = 1 << (n - 1)
    beta = []
    for mask in range(size):
        alpha, last = factorial(n), 0
        for cut in [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]:
            alpha //= factorial(cut - last)
            last = cut
        beta.append(alpha)
    for i in range(n - 1):
        for mask in range(size):
            if mask >> i & 1:
                beta[mask] -= beta[mask ^ (1 << i)]
    return dict(enumerate(beta))


@dataclass
class Conjecture1Report:
    n: int
    matches: bool
    t0_distribution: DescentDistribution
    sn_distribution: DescentDistribution


def check_conjecture1(n: int, bound: int = DEFAULT_BOUND) -> Conjecture1Report:
    """Compare descent-set distributions of zero-marked cycles and S_n.

    The comparison is by full descent SET, not just by count. The cycles
    are the marked cycles as stored, with 0 in the erased slot; that 0
    takes part in the descent count instead of being skipped. The cycle
    side sweeps the n-cycles once (Elizalde, Descent sets of cyclic
    permutations, Adv. Appl. Math. 47, 2011, studies this
    equidistribution); the S_n side is the classical beta_n(S) and reads
    no marked cycle.
    """
    check_bound(n, bound)
    if n < 1:
        raise ValueError("need n >= 1")
    t0, sn = (
        _distribution({_mask_set(mask): count for mask, count in side.items()})
        for side in (_t0_descent_sets(n), _sn_descent_sets(n))
    )
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
