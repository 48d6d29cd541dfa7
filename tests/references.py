"""Reference enumerations the tests check the library against; nothing under src/ reads them.

Each one is the direct definition, written apart from the library's own
kernels: the n-cycles walked by sigma(1), the Eulerian numbers by their
recurrence and a descent-set distribution counted element by element.
"""

from collections import Counter
from itertools import permutations

from shiftpat.conjectures import DescentDistribution
from shiftpat.permutations import descent_set


def padded_cycles(n, second):
    """The n-cycles with sigma(1) = second, as lists [0, sigma_1, ..., sigma_n, n+1].

    The pads are those of permutations._cycle_block. For n = 1 the one cycle
    has second = 1. The cycles 1 -> second -> ... -> 1 come in lexicographic
    order of the rest of the walk, which is the order of n_cycles.
    """
    rest = [v for v in range(2, n + 1) if v != second]
    for walk in permutations(rest):
        s = [0] * (n + 1) + [n + 1]
        s[1] = prev = second
        for v in walk:
            s[prev] = prev = v
        s[prev] = 1
        yield s


def n_cycles(n):
    """All (n-1)! permutations of S_n that are a single n-cycle.

    Ordered by the cycle 1 -> sigma(1) -> sigma^2(1) -> ... read as a word.
    """
    for second in range(min(n, 2), n + 1):  # sigma(1) = 1 only when n = 1
        for s in padded_cycles(n, second):
            yield tuple(s[1:-1])


def eulerian_row(n):
    """Eulerian numbers (count of permutations of S_n by descents 0..n-1).

    Classical recurrence E(n,k) = (k+1)E(n-1,k) + (n-k)E(n-1,k-1).
    """
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0)
            + (m - k) * (row[k - 1] if k >= 1 else 0)
            for k in range(m)
        ]
    return tuple(row)


def descent_distribution(elements):
    """The descent-set distribution of the given permutations, each read once, by_count sorted."""
    by_set = Counter(descent_set(e) for e in elements)
    by_count = Counter()
    for ds, count in by_set.items():
        by_count[len(ds)] += count
    return DescentDistribution(by_set=dict(by_set), by_count=dict(sorted(by_count.items())))
