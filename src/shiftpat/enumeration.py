"""Counting allowed patterns: closed forms, recurrences and brute oracles.

a(n, N) counts patterns of length n whose minimal shift alphabet is
exactly N; h counts those ending in their maximum, g the rest. Closed
forms and recurrences are implemented side by side, and a word-family
oracle recomputes the same sets from nothing but lexicographic suffix
comparison. (For fixed N the total allowed count grows on the order of
n*N^(n-1); that asymptotic is informational only.)
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations as _all_permutations, product
from math import comb

from .permutations import marked_inverse, marked_rc, reduce, theta_inv
from .realization import _n_min, n_min
from .words import _rank_distinct, is_primitive, psi

__all__ = [
    "BoundExceededError",
    "DEFAULT_BOUND",
    "count_binary",
    "count_a",
    "count_h",
    "count_g",
    "count_row",
    "count_table",
    "solve_recurrence",
    "PatternRow",
    "enumerate_by_nmin",
    "oracle_allowed",
    "forbidden",
    "minimal_forbidden",
    "extremal_sextet",
    "OmegaCensus",
    "omega_census",
]

DEFAULT_BOUND = 9


class BoundExceededError(ValueError):
    """An exhaustive sweep was requested beyond its configured bound."""


def count_binary(n: int) -> int:
    """Allowed patterns of the 2-letter shift: sum of psi_2(t) 2^(n-t-1).

    >>> [count_binary(n) for n in range(2, 9)]
    [2, 6, 18, 48, 126, 306, 738]
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return _primitive_sum(n, 2)


def _primitive_sum(n: int, M: int) -> int:
    """sum over 1 <= t < n of psi_M(t) M^(n-t-1), by Horner's rule."""
    out = 0
    for t in range(1, n):
        out = out * M + psi(M, t)
    return out


# b_M of the closed forms, for a(n, .), g(n, .) and h(n, .)
_TERMS = {
    "a": lambda n, M: (M - 2) * M ** (n - 2) + _primitive_sum(n, M),
    "g": lambda n, M: _primitive_sum(n, M) - M ** (n - 2),
    "h": lambda n, M: (M - 1) * M ** (n - 2),
}


def _alternate(n: int, b) -> tuple:
    """r_N = sum_i (-1)^i C(n, i) b_{N-i} for every N of b, indexed from N = 2."""
    signed = [(-1) ** i * comb(n, i) for i in range(len(b))]
    return tuple(sum(c * b[k - i] for i, c in enumerate(signed[: k + 1])) for k in range(len(b)))


def count_row(n: int, N_max: int, kind: str = "a", method: str = "closed") -> tuple:
    """(r(n, 2), ..., r(n, N_max)) for r = count_a, count_g or count_h.

    Builds the series b_2 .. b_{N_max} once, then solves for the whole row
    by the alternating binomial sum (closed) or by unrolling the recurrence.

    >>> count_row(6, 5)
    (126, 402, 186, 6)
    """
    if n < 2 or N_max < 2:
        raise ValueError("need n, N >= 2")
    if kind not in _TERMS:
        raise ValueError(f"unknown kind: {kind!r}")
    if method not in ("closed", "recurrence"):
        raise ValueError(f"unknown method: {method!r}")
    b = [_TERMS[kind](n, M) for M in range(2, N_max + 1)]
    return _alternate(n, b) if method == "closed" else solve_recurrence(n, b)[0]


def count_table(n_max: int):
    """Iterator of (n, N, a(n, N)) for 2 <= n <= n_max and 2 <= N <= max(2, n-1), a row at a time."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    rows = ((n, count_row(n, max(2, n - 1))) for n in range(2, n_max + 1))
    return ((n, N, value) for n, row in rows for N, value in enumerate(row, start=2))


def count_a(n: int, N: int, method: str = "closed", workers: int = 1) -> int:
    """a(n, N), the number of patterns with minimal alphabet exactly N.

    methods: closed (inclusion-exclusion formula), recurrence (g + h
    recurrences unrolled), brute (n_min over all of S_n), oracle
    (realized-set difference from the word-family oracle).
    """
    if n < 2 or N < 2:
        raise ValueError("need n, N >= 2")
    if method == "recurrence":
        return count_g(n, N, "recurrence") + count_h(n, N, "recurrence")
    if method == "brute":
        return enumerate_by_nmin(n, workers=workers).counts.get(N, 0)
    if method == "oracle":
        below = oracle_allowed(n, N - 1, workers=workers) if N > 2 else frozenset()
        return len(oracle_allowed(n, N, workers=workers)) - len(below)
    return count_row(n, N, "a", method)[-1]


def count_h(n: int, N: int, method: str = "closed") -> int:
    """Patterns counted by a(n, N) that end with their maximum.

    >>> count_h(4, 2)
    4
    """
    return count_row(n, N, "h", method)[-1]


def count_g(n: int, N: int, method: str = "closed") -> int:
    """Patterns counted by a(n, N) that do not end with their maximum."""
    return count_row(n, N, "g", method)[-1]


def solve_recurrence(n: int, b):
    """Invert r_N = b_N - sum_{j>=1} C(n+j-1, j) r_{N-j} both ways.

    b is indexed from N = 2. Returns (unrolled, closed): the first by
    running the recurrence, the second by the alternating binomial
    formula r_N = sum_i (-1)^i C(n, i) b_{N-i}. The two must coincide.
    """
    b = tuple(b)
    unrolled = []
    for idx, b_val in enumerate(b):
        acc = b_val
        for j in range(1, idx + 1):
            acc -= comb(n + j - 1, j) * unrolled[idx - j]
        unrolled.append(acc)
    return tuple(unrolled), _alternate(n, b)


@dataclass
class PatternRow:
    """Stratification of S_n by minimal alphabet size."""

    n: int
    counts: dict
    members: dict | None = None

    def total(self) -> int:
        return sum(self.counts.values())


def _nmin_slice(args):
    n, first, keep = args
    counts = Counter()
    members = {} if keep else None
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in _all_permutations(rest):
        pi = (first,) + tail
        N = _n_min(pi)
        counts[N] += 1
        if keep:
            members.setdefault(N, []).append(pi)
    return counts, members


def enumerate_by_nmin(n: int, keep_members: bool = False, bound: int = DEFAULT_BOUND,
                      workers: int = 1) -> PatternRow:
    """Classify every permutation of S_n by n_min; counts per alphabet size.

    Fans out over the first entry when workers > 1; the merged result is
    identical for any worker count.
    """
    if n > bound:
        raise BoundExceededError(f"n={n} exceeds the sweep bound {bound}")
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return PatternRow(n=1, counts={1: 1}, members={1: ((1,),)} if keep_members else None)
    jobs = [(n, first, keep_members) for first in range(1, n + 1)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_nmin_slice, jobs))
    else:
        parts = [_nmin_slice(job) for job in jobs]
    counts = Counter()
    merged = {} if keep_members else None
    for part_counts, part_members in parts:
        counts.update(part_counts)
        if keep_members:
            for N, perms in part_members.items():
                merged.setdefault(N, []).extend(perms)
    if keep_members:
        merged = {N: tuple(sorted(perms)) for N, perms in sorted(merged.items())}
    return PatternRow(n=n, counts=dict(sorted(counts.items())), members=merged)


def _constant_tail_pattern(prefix: bytes, tail: int, n: int):
    """Pattern of prefix * tail^inf, or None when two suffixes coincide.

    Beyond the prefix the word is constant, so the first len(prefix)
    symbols of each suffix already decide every comparison: two suffixes
    agreeing that far agree everywhere.
    """
    L = len(prefix)
    ext = prefix + bytes([tail]) * (n - 1)
    return _rank_distinct([ext[i : i + L] for i in range(n)])


def _oracle_slice(args):
    n, N, first = args
    found = set()
    tails = (0,) if N == 1 else (0, N - 1)
    for rest in product(range(N), repeat=n - 2):
        base = bytes((first,) + rest)
        for t in range(1, n):
            prefix = base + base[n - 1 - t :] * (n - 2)
            for x in tails:
                p = _constant_tail_pattern(prefix, x, n)
                if p is not None:
                    found.add(p)
    return found


def oracle_allowed(n: int, N: int, workers: int = 1) -> frozenset:
    """Every pattern of length n realized over N symbols, by direct search.

    Runs pattern extraction over the word family u p^(n-1) x^inf with
    |u| + |p| = n - 1 and x in {0, N-1}, which realizes every allowed
    pattern. Uses only lexicographic suffix comparison; the minimal-
    alphabet formula is never consulted.
    """
    if n < 2 or N < 1:
        raise ValueError("need n >= 2 and N >= 1")
    jobs = [(n, N, first) for first in range(N)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_oracle_slice, jobs))
    else:
        parts = [_oracle_slice(job) for job in jobs]
    out = set()
    for part in parts:
        out |= part
    return frozenset(out)


def forbidden(n: int, N: int, workers: int = 1) -> frozenset:
    """Patterns of length n never realized over N symbols."""
    allowed = oracle_allowed(n, N, workers=workers)
    return frozenset(
        pi for pi in _all_permutations(range(1, n + 1)) if pi not in allowed
    )


def minimal_forbidden(n: int, N: int, workers: int = 1) -> frozenset:
    """Forbidden patterns all of whose proper windows are allowed."""
    allowed_by_len = {m: oracle_allowed(m, N, workers=workers) for m in range(2, n)}
    out = set()
    for pi in forbidden(n, N, workers=workers):
        if all(
            reduce(pi[s : s + m]) in allowed_by_len[m]
            for m in range(2, n)
            for s in range(n - m + 1)
        ):
            out.add(pi)
    return frozenset(out)


def extremal_sextet(n: int) -> frozenset:
    """The six permutations of length n needing the largest alphabet, n-1.

    Built from two explicit marked cycles and their rotations and
    transposes, then pulled back through the cycle marking.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    m = (n + 1) // 2
    sigma = tuple(range(n, m, -1)) + (0,) + tuple(range(m, 1, -1))
    tau = (0, 1) + tuple(range(n, m + 1, -1)) + tuple(range(m, 1, -1))
    sigma_inv = marked_inverse(sigma)
    marked = {
        sigma,
        marked_rc(sigma),
        sigma_inv,
        marked_rc(sigma_inv),
        tau,
        marked_rc(tau),
    }
    return frozenset(theta_inv(mc) for mc in marked)


@dataclass
class OmegaCensus:
    """Bucket counts for the word family u p^(n-1) 0^inf, with predictions.

    buckets[j] counts words whose pattern needs exactly N-j symbols;
    theta_buckets restricts to words whose pattern ends with rank 1.
    Each actual count sits next to the closed-form prediction; ok is
    the conjunction of all the comparisons.
    """

    n: int
    N: int
    total: int
    total_predicted: int
    undefined: int
    undefined_predicted: int
    buckets: dict
    buckets_predicted: dict
    theta_total: int
    theta_total_predicted: int
    theta_buckets: dict
    theta_buckets_predicted: dict
    ok: bool


def omega_census(n: int, N: int) -> OmegaCensus:
    """Partition u p^(n-1) 0^inf words by the alphabet need of their pattern."""
    if n < 2 or N < 2:
        raise ValueError("need n, N >= 2")
    words = {}
    for t in range(1, n):
        for p in product(range(N), repeat=t):
            if not is_primitive(p):
                continue
            for u in product(range(N), repeat=n - t - 1):
                q = u + p * (n - 1)
                stop = len(q)
                while stop and q[stop - 1] == 0:
                    stop -= 1
                words[q[:stop]] = _constant_tail_pattern(bytes(q), 0, n)
    buckets = {j: 0 for j in range(N - 1)}
    theta_buckets = {j: 0 for j in range(N - 1)}
    undefined = 0
    for pattern in words.values():
        if pattern is None:
            undefined += 1
            continue
        j = N - n_min(pattern)
        buckets[j] += 1
        if pattern[-1] == 1:
            theta_buckets[j] += 1
    g_row, h_row = count_row(n, N, "g"), count_row(n, N, "h")
    buckets_predicted = {j: comb(n + j - 1, j) * g_row[N - 2 - j] for j in range(N - 1)}
    theta_buckets_predicted = {j: comb(n + j - 1, j) * h_row[N - 2 - j] for j in range(N - 1)}
    census = OmegaCensus(
        n=n,
        N=N,
        total=len(words),
        total_predicted=_primitive_sum(n, N),
        undefined=undefined,
        undefined_predicted=N ** (n - 2),
        buckets=buckets,
        buckets_predicted=buckets_predicted,
        theta_total=sum(theta_buckets.values()),
        theta_total_predicted=(N - 1) * N ** (n - 2),
        theta_buckets=theta_buckets,
        theta_buckets_predicted=theta_buckets_predicted,
        ok=False,
    )
    census.ok = (
        census.total == census.total_predicted
        and census.undefined == census.undefined_predicted
        and census.buckets == census.buckets_predicted
        and census.theta_total == census.theta_total_predicted
        and census.theta_buckets == census.theta_buckets_predicted
    )
    return census
