"""Counting allowed patterns: closed forms, recurrences and brute oracles.

a(n, N) counts patterns of length n whose minimal shift alphabet is
exactly N; h counts those ending in their maximum, g the rest. Closed
forms and recurrences are implemented side by side, and a word-family
oracle recomputes the same sets from nothing but lexicographic suffix
comparison. (For fixed N the total allowed count grows on the order of
n*N^(n-1); that asymptotic is informational only.)
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter, deque
from itertools import chain, permutations as _all_permutations
from math import comb
from operator import gt, mul
from typing import NamedTuple

from .permutations import _blocks, _cycle_block, _ranks_of, _size, marked_inverse, marked_rc, theta_inv
from .words import _order, _primitive_coefficients, is_primitive, psi

__all__ = [
    "BoundExceededError",
    "DEFAULT_BOUND",
    "check_bound",
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
    "CensusCounts",
    "OmegaCensus",
    "omega_census",
]

DEFAULT_BOUND = 9


class BoundExceededError(ValueError):
    """An exhaustive sweep was requested beyond its configured bound."""


def check_bound(n: int, bound: int = DEFAULT_BOUND) -> None:
    """Raise BoundExceededError if a sweep over S_n is past its bound, an int >= 0."""
    if n > _size(bound, 0, "bound"):
        raise BoundExceededError(f"n={n} exceeds the sweep bound {bound}")


# the most entries (word symbols, tuple entries) one result is built with:
# 10^9 of them are gigabytes, so nothing that fits in memory is refused
_ENTRY_BOUND = 10**9


def _check_entries(entries: int, what: str) -> None:
    """Raise BoundExceededError, before anything is built, if what needs more than _ENTRY_BOUND entries."""
    if entries > _ENTRY_BOUND:
        raise BoundExceededError(f"{what} needs {entries} entries, past the bound of {_ENTRY_BOUND}")


def count_binary(n: int) -> int:
    """Allowed patterns of the 2-letter shift: sum of psi_2(t) 2^(n-t-1).

    >>> [count_binary(n) for n in range(2, 9)]
    [2, 6, 18, 48, 126, 306, 738]
    """
    return _primitive_sum(_size(n, 2, "n"), 2)


def _primitive_sum(n: int, M: int) -> int:
    """S(n, M) = sum over 1 <= t < n of psi_M(t) M^(n-1-t), as one integer polynomial in M.

    Write psi_M(t) = sum over d | t of mobius(d) M^(t/d) and put t = d j:
    each d < n and 1 <= j <= floor((n-1)/d) give mobius(d) M^(n-1-j(d-1)).
    Grouped by the power of M, d = 1 gives (n-1) M^(n-1), and each
    square-free d >= 2 adds mobius(d) to the coefficient of M^(n-1-j(d-1))
    for every such j. The coefficients do not depend on M, so
    words._primitive_coefficients builds them once per n, and each power
    is at least M^1 as j(d-1) < n-1. So S is M times one Horner pass over
    them: no power, no division and no psi. The polynomial holds at every M
    (S(n, 0) = 0, S(n, 1) = 1), and for n = 2 it is M.
    """
    out = 0
    for c in _primitive_coefficients(n):
        out = out * M + c
    return out * M


# b_M of the closed forms from S = _primitive_sum(n, M), for a(n, .), g(n, .) and h(n, .)
_TERMS = {
    "a": lambda n, M, S: (M - 2) * M ** (n - 2) + S,
    "g": lambda n, M, S: S - M ** (n - 2),
    "h": lambda n, M, S: (M - 1) * M ** (n - 2),
}


def _alternate(n: int, b) -> tuple:
    """r_N = sum_i (-1)^i C(n, i) b_{N-i} for every N of b, indexed from N = 2.

    C(n, i) = 0 for i > n, so each r_N is one dot product of at most n + 1
    terms against b read backwards from N.
    """
    signed = [(-1) ** i * comb(n, i) for i in range(min(len(b), n + 1))]
    back, top = b[::-1], len(b) - 1  # back[top - k + i] = b[k - i]
    return tuple(sum(map(mul, signed, back[top - k : top - k + len(signed)])) for k in range(len(b)))


def count_row(n: int, N_max: int, kind: str = "a", method: str = "closed",
              workers: int = 1) -> tuple:
    """(r(n, 2), ..., r(n, N_max)) for r = count_a, count_g or count_h.

    methods: closed (the series b_2 .. b_{N_max} by the alternating binomial
    sum), recurrence (that series unrolled; it is linear, so a = g + h), and
    for kind "a" only brute (the marked-cycle N over S_n) and oracle (each
    pattern's least alphabet, from one sweep of the family words on exactly
    k symbols, 2 <= k <= min(N_max, n); the sweep's map keys one suffix
    order per complement pair, both with the same least alphabet, so each
    key counts twice).

    >>> count_row(6, 5)
    (126, 402, 186, 6)
    >>> count_row(6, 5, method="oracle")
    (126, 402, 186, 6)
    """
    _size(n, 2, "n")
    _size(N_max, 2, "N")
    _size(workers, 0, "workers")  # for every method, not only the sweeps
    if kind not in _TERMS:
        raise ValueError(f"unknown kind: {kind!r}")
    if method in ("brute", "oracle") and kind != "a":
        raise ValueError(f"method {method!r} counts kind 'a' only")
    if method == "brute":
        counts = enumerate_by_nmin(n, workers=workers).counts
        return tuple(counts.get(N, 0) for N in range(2, N_max + 1))
    if method == "oracle":
        counts = Counter(_least_alphabets(n, N_max, workers).values())
        return tuple(2 * counts.get(N, 0) for N in range(2, N_max + 1))
    if method not in ("closed", "recurrence"):
        raise ValueError(f"unknown method: {method!r}")
    term = _TERMS[kind]
    b = [term(n, M, None if kind == "h" else _primitive_sum(n, M)) for M in range(2, N_max + 1)]
    return _alternate(n, b) if method == "closed" else solve_recurrence(n, b)


def count_table(n_max: int):
    """Iterator of (n, N, a(n, N)) for 2 <= n <= n_max and 2 <= N <= max(2, n-1), a row at a time.

    Each alphabet M keeps its primitive sum S(n, M) = _primitive_sum(n, M) and
    advances it one Horner step per row, S(n+1, M) = M S(n, M) + psi_M(n); a
    new alphabet is seeded by _primitive_sum, which calls no psi, so the
    table makes one psi call per advanced alphabet and row, about n_max^2 / 2.
    """
    _size(n_max, 2, "n_max")  # here, not at the first read of the generator
    return ((n, N, value) for n, row in _table_rows(n_max) for N, value in enumerate(row, start=2))


def _table_rows(n_max: int):
    """(n, (a(n, 2), ..., a(n, max(2, n-1)))) for 2 <= n <= n_max; alphabet n-1 enters at row n."""
    sums = []  # sums[M - 2] = S(n, M) once row n is built
    for n in range(2, n_max + 1):
        sums = [M * S + psi(M, n - 1) for M, S in enumerate(sums, start=2)]
        sums += [_primitive_sum(n, M) for M in range(len(sums) + 2, max(2, n - 1) + 1)]
        yield n, _alternate(n, [_TERMS["a"](n, M, S) for M, S in enumerate(sums, start=2)])


def count_a(n: int, N: int, method: str = "closed", workers: int = 1) -> int:
    """a(n, N), the number of patterns with minimal alphabet exactly N; see count_row."""
    return count_row(n, N, "a", method, workers)[-1]


def count_h(n: int, N: int, method: str = "closed") -> int:
    """Patterns counted by a(n, N) that end with their maximum.

    >>> count_h(4, 2)
    4
    """
    return count_row(n, N, "h", method)[-1]


def count_g(n: int, N: int, method: str = "closed") -> int:
    """Patterns counted by a(n, N) that do not end with their maximum."""
    return count_row(n, N, "g", method)[-1]


def solve_recurrence(n: int, b) -> tuple:
    """Invert r_N = b_N - sum_{j>=1} C(n+j-1, j) r_{N-j} by running it.

    b is indexed from N = 2. The binomials are made once, and each r_N is
    one dot product against the entries before it, latest first. The
    result must equal _alternate(n, b).
    """
    binomials = [comb(n + j - 1, j) for j in range(1, len(b))]
    back = deque()  # r_{N-1}, r_{N-2}, ... while r_N is computed
    for b_k in b:
        back.appendleft(b_k - sum(map(mul, binomials, back)))
    return tuple(reversed(back))


def __getattr__(name: str):
    """Import ProcessPoolExecutor on the first read of it and bind it here (PEP 562).

    Only a sweep on two or more workers runs a pool, so a one-worker
    process never loads multiprocessing. Every other name is missing.
    """
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _fan_out(work, jobs, workers: int):
    """Yield work(job) for job in jobs, on min(workers, len(jobs)) processes when that exceeds 1.

    Results come back one at a time in job order, so a merge over them is
    the same for any worker count and need not hold them all at once. The
    pool is whatever class enumeration.ProcessPoolExecutor names at the call.
    """
    workers = min(_size(workers, 0, "workers"), len(jobs))
    if workers <= 1:
        yield from map(work, jobs)
    else:
        pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with pool_class(max_workers=workers) as pool:
            yield from pool.map(work, jobs)


class PatternRow(NamedTuple):
    """Stratification of S_n by minimal alphabet size."""

    n: int
    counts: dict

    def total(self) -> int:
        return sum(self.counts.values())


def _nmin_slice(args):
    """Counter of N(pi) over the pi whose marked cycle theta(pi) has sigma(1) = first, sigma(n) = last.

    theta maps S_n one-to-one onto the marked cycles, so every pi is one
    n-cycle sigma with one slot p erased, and N(pi) = 1 + des + eps there
    (des counts the descents left after deleting slot p). With the descent
    bits d[i] = [s_i > s_{i+1}] and top = 1 + D, D = sum(d), mark p gives
    N_p = top - c_p + eps_p, c_p = d[p-1] + d[p] - [s_{p-1} > s_{p+1}]:
    deleting slot p removes two descent bits and compares its neighbours.
    c_p is 0 or 1 (0 when both bits are 0, 1 when both are 1, and
    1 - [s_{p-1} > s_{p+1}] when one is), so a cycle's n marks take only
    the two values top - 1 and top. The pads make d[0] = d[n] = 0, so
    sum_p c_p = 2D - G with G = #{i : s_i > s_{i+2}}. eps is 1 only for the
    mark shapes [*, 1, ...] (then c_1 = [s_1 > s_2] = 1) and [..., n, *]
    (then c_n = [s_{n-1} > s_n] = 1), so each moves one mark from top - 1
    to top. A cycle costs two C-level passes, for D and G.
    """
    n, first, last = args
    tally = [0] * (n + 1)  # tally[N]; D <= n - 1, so top <= n
    for s in _cycle_block(n, first, last):
        D = sum(map(gt, s, s[1:]))
        ones = 2 * D - sum(map(gt, s, s[2:])) - (s[2] == 1) - (s[n - 1] == n)  # marks at top - 1
        tally[D + 1] += n - ones
        tally[D] += ones
    return Counter({N: count for N, count in enumerate(tally) if count})


def _rc_blocks(n: int) -> list:
    """(first, last, weight) for the blocks sigma(1) = first, sigma(n) = last that the brute row sweeps.

    The reverse-complement rho_i = n+1 - sigma_{n+1-i} of an n-cycle is an
    n-cycle (sigma conjugated by i -> n+1-i), and it maps the block
    (a, b) onto the block (n+1-b, n+1-a). On the padded lists
    r[i] = n+1 - s[n+1-i] (i = 0..n+1, pads included) a descent at i is one
    of s at n-i and r_i > r_{i+2} is s_j > s_{j+2} at j = n-1-i, so D and G
    are the same; r_2 = 1 iff s_{n-1} = n and r_{n-1} = n iff s_2 = 1, so
    the two end terms swap and sigma and rho give the same two-value tally.
    So only the blocks of _blocks(n) with (a, b) <= (n+1-b, n+1-a) are
    swept: weight 2 when strictly smaller, 1 when the block is its own
    partner (a + b = n + 1), as the one block is for n <= 2.
    """
    return [(a, b, 1 if a + b == n + 1 else 2) for a, b in _blocks(n)
            if (a, b) <= (n + 1 - b, n + 1 - a)]


def enumerate_by_nmin(n: int, bound: int = DEFAULT_BOUND, workers: int = 1) -> PatternRow:
    """Classify every permutation of S_n by n_min; counts per alphabet size.

    Sweeps the n-cycles and their n marks with the marked-cycle formula; the
    A/Delta formula is not read. One job per block (sigma(1), sigma(n)) on
    one side of the reverse-complement pairing (_rc_blocks), each counted
    twice unless it is its own partner, so about half the (n-1)! cycles are
    walked. Fans out over those blocks when workers > 1; the merged result
    is identical for any worker count.
    """
    check_bound(_size(n, 1, "n"), bound)
    blocks = _rc_blocks(n)
    jobs = [(n, first, last) for first, last, _ in blocks]
    counts = Counter()
    for (_, _, weight), part in zip(blocks, _fan_out(_nmin_slice, jobs, workers)):
        counts.update({N: weight * count for N, count in part.items()})
    return PatternRow(n=n, counts=dict(sorted(counts.items())))


def _bases(prefix: bytes, left: int, missing: frozenset, k: int):
    """Each extension of prefix by left symbols of 0..k-1 that holds every missing symbol.

    Depth first and in increasing order; a prefix is dropped as soon as the
    symbols still missing outnumber the positions left.
    """
    if len(missing) > left:
        return
    if not left:
        yield prefix
        return
    for s in range(k):
        yield from _bases(prefix + _HEADS[s], left - 1, missing - {s}, k)


# about three weeks of words at one worker; (13, 13) plans 6.7e11, so no sweep
# that can finish is refused
_ORACLE_WORD_BOUND = 10**12
_HEADS = [bytes((s,)) for s in range(256)]  # one-symbol prefixes, made once


def _oracle_plan(n: int, N: int):
    """(k, words) for each alphabet 2 <= k <= min(N, n) the oracle sweeps, in increasing k.

    words = (n-1) sum_j (-1)^j C(k-1, j) (k-j)^(n-1): the n - 1 cuts of each
    base in {0..k-1}^(n-1) that holds every symbol 1..k-1, counted by
    inclusion-exclusion over the missing ones. That is every family word, so
    it bounds the sweep of primitive nonzero p: 85,855 and 78,952 at (8, 4).
    """
    for k in range(2, min(N, n) + 1):
        yield k, (n - 1) * sum((-1) ** j * comb(k - 1, j) * (k - j) ** (n - 1) for j in range(k))


def _lyndon_words(prefix: bytes, root: int, t: int, missing: frozenset, spare: int, k: int):
    """(word, still missing) per Lyndon word of length t on 0..k-1 lacking at most spare of missing.

    A Lyndon word is a primitive necklace, the strict least of its
    rotations. The walk is the Fredricksen-Kessler-Maiorana one (Ruskey,
    Savage and Wang, J. Algorithms 13, 1992), depth first and in increasing
    order: prefix starts with a sentinel 0, and root is the length of its
    longest Lyndon prefix, so the symbol root places back keeps root, any
    larger symbol makes the whole prefix the root, and a whole prefix is a
    Lyndon word iff root is t. A prefix is dropped once the symbols still
    missing outnumber the positions left plus spare; the symbol multiset,
    so what is missing, is the same for every rotation.
    """
    j = len(prefix)  # the position filled next; the sentinel is position 0
    if j > t:
        if root == t:
            yield prefix[1:], missing
        return
    low = prefix[j - root]
    tight = len(missing) == t - j + 1 + spare  # every position left must take a missing symbol
    for s in range(low, k):
        if tight and s not in missing:
            continue
        yield from _lyndon_words(prefix + _HEADS[s], root if s == low else j, t, missing - {s}, spare, k)


def _prepend(keys: list, starts: bytearray, front: bytes, left: int, missing: frozenset, k: int, found: set):
    """Add to found the order of each word (left symbols of 0..k-1) + front holding every missing symbol.

    keys are the sorted zero-stripped suffixes of front and starts their
    starts in the final word; each symbol prepended makes one new suffix,
    which bisect inserts, at start left - 1. Both are restored on return.
    """
    choices = missing if len(missing) == left else range(k)
    if left == 1:  # start 0: one insertion gives the whole order
        for s in choices:
            i = bisect(keys, _HEADS[s] + front)
            starts.insert(i, 0)
            found.add(bytes(starts))
            del starts[i]
        return
    left -= 1
    for s in choices:
        key = _HEADS[s] + front
        i = bisect(keys, key)
        keys.insert(i, key)
        starts.insert(i, left)
        _prepend(keys, starts, key, left, missing - {s} if s in missing else missing, k, found)
        del keys[i], starts[i]


def _oracle_slice(args):
    """The suffix orders, as bytes, of the tail-0 family words on exactly 0..k-1 cut at |p| = t.

    A tail-0 family word is u p^(n-1) 0^inf with |u| = m = n-1-t; only the
    bases u p holding every symbol 1..k-1 are walked, as the rest relabel
    into a smaller k, and only primitive p, as a power adds no order (b).
    Each suffix is keyed, as _order keys it, by its slice of q = u P,
    P = (p^(n-1)).rstrip(0): 0 is the least symbol, so the shorter of two
    slices that agree up to its end is the smaller. P ends in a nonzero
    symbol, so the n keys never tie; p = 0 at t = 1 ties and is skipped.

    The walk builds the base right to left: p as each rotation of a Lyndon
    word from _lyndon_words, then u from _prepend. _order sorts the Lyndon
    word's t periodic starts once, each rotation relabels that sort and adds
    start t (a), and each symbol of u inserts one suffix into its parent's
    sorted keys. A slice's start in the final word is m + its start in P.

    (a) Let P_r be the P of p_r, the rotation by r, and R the starts 0..t-1
    of P = P_0 in order. For any n >= 2, those of P_r are R relabeled by
    i -> (i - r) mod t, and start t sits just below start 0. For i < t the
    slice P_r[i:] holds at least (n-3)t + 2 >= t symbols of p_r^inf from i,
    as p_r^(n-1) loses at most t-1 trailing zeros and t <= n-1; a primitive
    p has t distinct rotations, so starts i, j < t differ within t symbols
    as starts (r+i) mod t and (r+j) mod t of P do. Start t reads
    p_r^(n-2) 0^inf, so for n >= 3 it agrees with start 0 on (n-2)t >= t
    symbols and meets each start 0 < i < t as start 0 does (n = 2 has no
    such i), and its slice is a proper prefix of start 0's.

    (b) Let p = q^j, j >= 2, s = |q|, L = |u| = n-1-js <= s(n-3).
    W = u q^(j(n-1)) 0^inf and W' = u q^(j-1) q^(n-1) 0^inf, a word of job
    (k, s) on the same symbols, agree on their first E = L + s(n+j-2)
    symbols. Two of the first n suffixes, from a < b <= n-1, differ before
    b reaches E, alike in both words, or agree on at least s(n-2) - L >= s
    symbols of the q-run; q being primitive, they then read q^inf at the
    same phase until b reads 0^inf, against q^((b-a)/s) 0^inf at a, in
    both words. So W orders its first n suffixes as W' does.
    """
    n, k, t = args
    m = n - 1 - t
    width = (n - 1) * t
    found = set()
    for word, missing in _lyndon_words(b"\0", 1, t, frozenset(range(1, k)), m, k):
        if not word[-1]:  # p = 0: a longer Lyndon word ends above its first symbol
            continue
        ring = word * n  # rotation r repeated n-1 times is ring[r : r + width]
        R = _order(ring[:width].rstrip(b"\0"), b"\0", t)
        for r in range(t):
            order = [(i - r) % t for i in R]
            order.insert(R.index(r), t)
            if m:
                P = ring[r : r + width].rstrip(b"\0")
                _prepend([P[i:] for i in order], bytearray([m + i for i in order]), P, m, missing, k, found)
            else:
                found.add(bytes(order))
    return found


def _least_alphabets(n: int, N: int, workers: int) -> dict:
    """{order: N(pi)} for every pi with N(pi) <= N, one bytes key per complement pair.

    A key is the suffix order _order would return, the inverse of pi, as
    bytes; no key is inverted here. An order and its reversal (the order of
    the complement of pi) share N(pi) and differ for n >= 2, so only the
    smaller is kept: count_row counts each key twice, oracle_allowed yields
    both orders and omega_census looks an order up both ways. Starts fit in
    a byte, as n <= 255 wherever a job runs: for N >= 2 the plan passes the
    bound from n = 36 on, and N = 1 plans no job. The plan, which bounds
    the sweep from above, is checked before any job runs:
    BoundExceededError past _ORACLE_WORD_BOUND words.

    Patterns depend only on how symbols compare, and a family word's tail is
    its least or largest symbol, so a word with k distinct symbols relabels,
    order-preservingly, into a family word on exactly the symbols 0..k-1, and
    that shifts back into the family over any N >= k. So N(pi) is the least k
    whose words realize pi, and k runs from 2 to min(N, n): the all-zero word
    ties every pair of suffixes, and a word has at most n symbols.

    Complementing every symbol within k (s -> k-1-s) reverses every suffix
    comparison, keeps ties and the symbols 0..k-1, and maps the words with
    tail k-1 onto the words with tail 0, so those realize exactly the
    complements of what these realize, whose suffix orders are these orders
    reversed. The jobs (k, t) therefore sweep tail 0 only, one per cut
    t = |p| in 1..n-1, in increasing k, and an order and its reversal take
    the k of the first job that finds either. A job's set is filtered
    against the map in C first, so only the orders left over are reversed.
    """
    jobs, words = [], 0
    for k, count in _oracle_plan(n, N):
        words += count
        if words > _ORACLE_WORD_BOUND:
            raise BoundExceededError(
                f"n={n} N={N} exceeds the oracle bound of {_ORACLE_WORD_BOUND} words")
        jobs += [(n, k, t) for t in range(1, n)]
    least = {}
    for (_, k, _), part in zip(jobs, _fan_out(_oracle_slice, jobs, workers)):
        for o in part.difference(least):
            r = o[::-1]
            if r not in least:
                least[min(o, r)] = k
    return least


def oracle_allowed(n: int, N: int, workers: int = 1) -> frozenset:
    """Every pattern of length n realized over N symbols, by direct search.

    Runs pattern extraction over the words u p^(n-1) 0^inf, p primitive, with
    |u| + |p| = n - 1 on exactly the symbols 0..k-1, for each 2 <= k <= min(N, n),
    and adds the complement of each pattern found, which the complemented
    words (tail k-1) realize; together they are the family u p^(n-1) x^inf,
    x in {0, k-1}, which realizes every allowed pattern. Uses only
    lexicographic suffix comparison; the minimal-alphabet formula is never
    consulted. The oracle's map keeps one order per complement pair, so
    each key gives two patterns: its own and its reversal's.
    """
    _size(n, 2, "n")
    _size(N, 1, "N")
    least = _least_alphabets(n, N, workers)
    return frozenset(map(_ranks_of, chain(least, (o[::-1] for o in least))))


def forbidden(n: int, N: int, workers: int = 1) -> frozenset:
    """Patterns of length n never realized over N symbols; n and N are checked before S_n is built."""
    _size(n, 2, "n")
    _size(N, 1, "N")
    check_bound(n)
    return frozenset(_all_permutations(range(1, n + 1))) - oracle_allowed(n, N, workers=workers)


def minimal_forbidden(n: int, N: int, workers: int = 1) -> frozenset:
    """Forbidden patterns all of whose proper windows are allowed.

    Only the two windows of length n-1 are read: every shorter window lies
    in one of them, and the realized sets are closed under consecutive
    containment (the window at s .. s+m-1 of a pattern realized by w is
    realized by the shifted word sigma^s(w)). Dropping the value v from a
    permutation leaves the pattern x -> x - [x > v] of the rest, so neither
    window is sorted.
    """
    out = forbidden(n, N, workers=workers)
    if n == 2:  # no proper window of length >= 2
        return out
    allowed = oracle_allowed(n - 1, N, workers=workers)
    return frozenset(pi for pi in out
                     if tuple([x - (x > pi[0]) for x in pi[1:]]) in allowed
                     and tuple([x - (x > pi[-1]) for x in pi[:-1]]) in allowed)


def extremal_sextet(n: int) -> frozenset:
    """The six permutations of length n needing the largest alphabet, n-1.

    Built from two explicit marked cycles and their rotations and
    transposes, then pulled back through the cycle marking. Their 6n
    entries go through _check_entries first.
    """
    _check_entries(6 * _size(n, 3, "n"), f"n={n}")
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


class CensusCounts(NamedTuple):
    """One side of the census of the word family u p^(n-1) 0^inf, counted or predicted.

    buckets[j] counts words whose pattern needs exactly N-j symbols;
    theta_total and theta_buckets restrict to words whose pattern ends with rank 1.
    """

    total: int
    undefined: int
    buckets: dict
    theta_total: int
    theta_buckets: dict


class OmegaCensus(NamedTuple):
    """The census counted and predicted by the closed forms; ok iff the two agree and add up."""

    n: int
    N: int
    actual: CensusCounts
    predicted: CensusCounts
    ok: bool


def omega_census(n: int, N: int) -> OmegaCensus:
    """Partition u p^(n-1) 0^inf words by the alphabet need of their pattern.

    Reads no N(pi) formula and walks only the oracle's bases b = u p with p
    primitive, once each and keeping no word: a word whose nonzero symbols are k-1 of
    1..N-1 relabels in order onto 0..k-1, so the zero-tail kernel orders
    one word per C(N-1, k-1) census words, and the oracle's map gives N(pi).
    """
    _size(n, 2, "n")
    _size(N, 2, "N")
    least = _least_alphabets(n, N, 1)
    buckets, theta_buckets = dict.fromkeys(range(N - 1), 0), dict.fromkeys(range(N - 1), 0)
    total = undefined = 0
    for k in range(1, min(N, n) + 1):
        weight = comb(N - 1, k - 1)
        for b in _bases(b"", n - 1, frozenset(range(1, k)), k):  # b = u p, cut at every |p|
            for p in filter(is_primitive, (b[t:] for t in range(n - 1))):
                total += weight
                order = _order(b + p * (n - 2), b"\0", n)
                if order is None:
                    undefined += weight
                    continue
                key = bytes(order)  # the map keys one order of each complement pair
                k_least = least.get(key) or least.get(key[::-1])
                if k_least:  # an order the oracle lacks is counted nowhere, and fails ok
                    j = N - k_least
                    buckets[j] += weight
                    theta_buckets[j] += weight * (order[0] == n - 1)  # pi(n) = 1: suffix n is least
    actual = CensusCounts(total, undefined, buckets, sum(theta_buckets.values()), theta_buckets)
    g_row, h_row = count_row(n, N, "g"), count_row(n, N, "h")
    predicted = CensusCounts(
        total=_primitive_sum(n, N),
        undefined=N ** (n - 2),
        buckets={j: comb(n + j - 1, j) * g_row[N - 2 - j] for j in range(N - 1)},
        theta_total=(N - 1) * N ** (n - 2),
        theta_buckets={j: comb(n + j - 1, j) * h_row[N - 2 - j] for j in range(N - 1)},
    )
    ok = actual == predicted and undefined + sum(buckets.values()) == total
    return OmegaCensus(n, N, actual, predicted, ok)
