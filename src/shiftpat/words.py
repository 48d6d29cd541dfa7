"""Eventually periodic infinite words over {0..N-1} with exact comparison.

A word is stored as a preperiod and a period in a canonical form, so
equality, hashing, lexicographic comparison and the suffix-pattern map
are all exact. Primitivity and the primitive-word count psi live here
as well.
"""

from __future__ import annotations

import re
from functools import cache
from math import lcm

LT, EQ, GT = -1, 0, 1

__all__ = [
    "LT",
    "EQ",
    "GT",
    "EventuallyPeriodicWord",
    "compare",
    "pat",
    "word_complement",
    "is_primitive",
    "primitive_root",
    "mobius",
    "psi",
]


def is_primitive(p) -> bool:
    """True iff the finite word p is not a proper power u^m, m > 1.

    >>> is_primitive((0,))
    True
    >>> is_primitive((0, 1, 0, 1))
    False
    >>> is_primitive((0, 3, 0, 2))
    True
    """
    p = tuple(p)
    k = len(p)
    if k == 0:
        raise ValueError("empty word has no primitivity")
    for d in range(1, k):
        if k % d == 0 and p == p[:d] * (k // d):
            return False
    return True


def primitive_root(p) -> tuple:
    """Shortest u with p = u^m."""
    p = tuple(p)
    k = len(p)
    for d in range(1, k + 1):
        if k % d == 0 and p == p[:d] * (k // d):
            return p[:d]
    return p


def mobius(d: int) -> int:
    """Moebius function by trial-division factorization.

    >>> [mobius(d) for d in (1, 2, 3, 4, 6, 12)]
    [1, -1, -1, 0, 1, 0]
    """
    if d < 1:
        raise ValueError("mobius needs a positive integer")
    out = 1
    q = 2
    while q * q <= d:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return 0
            out = -out
        q += 1
    if d > 1:
        out = -out
    return out


def _divisors(k: int) -> list[int]:
    small = [d for d in range(1, int(k**0.5) + 1) if k % d == 0]
    large = [k // d for d in reversed(small) if d * d != k]
    return small + large


@cache
def _psi_terms(t: int) -> tuple:
    """(mobius(d), t/d) for each divisor d of t with mobius(d) != 0."""
    return tuple((mu, t // d) for d in _divisors(t) if (mu := mobius(d)))


def psi(N: int, t: int) -> int:
    """Number of primitive words of length t over N letters.

    psi_N(t) = sum over d | t of mobius(d) * N^(t/d); the divisors and
    their Moebius values are factored once per t.
    """
    if N < 0 or t < 1:
        raise ValueError("need N >= 0 and t >= 1")
    return sum(mu * N**e for mu, e in _psi_terms(t))


class EventuallyPeriodicWord:
    """The infinite word pre . per . per . per ... in canonical form.

    Canonical form: the period is primitive, and while the last
    preperiod symbol equals the last period symbol it is absorbed into
    the period (rotating it right). Two words are equal as infinite
    sequences iff their canonical (pre, per) pairs coincide, so __eq__
    and __hash__ use exactly those. The alphabet size is metadata and
    does not take part in equality.

    >>> EventuallyPeriodicWord((0, 1), (0, 1)) == EventuallyPeriodicWord((), (0, 1))
    True
    """

    __slots__ = ("pre", "per", "alphabet_size")

    def __init__(self, pre, per, alphabet_size=None):
        pre = tuple(pre)
        per = primitive_root(per)
        if not per:
            raise ValueError("period must be nonempty")
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        symbols = pre + per
        if alphabet_size is None:
            alphabet_size = max(symbols) + 1
        if min(symbols) < 0 or max(symbols) >= alphabet_size:
            raise ValueError(f"symbols must lie in 0..{alphabet_size - 1}")
        self.pre = pre
        self.per = per
        self.alphabet_size = alphabet_size

    def symbol_at(self, i: int) -> int:
        """The i-th symbol, 1-indexed."""
        if i < 1:
            raise ValueError("positions are 1-indexed")
        if i <= len(self.pre):
            return self.pre[i - 1]
        return self.per[(i - len(self.pre) - 1) % len(self.per)]

    def suffix(self, k: int) -> "EventuallyPeriodicWord":
        """Left shift by k-1 letters; suffix(w, 1) is w itself."""
        if k < 1:
            raise ValueError("positions are 1-indexed")
        drop = k - 1
        if drop <= len(self.pre):
            return EventuallyPeriodicWord(self.pre[drop:], self.per, self.alphabet_size)
        off = (drop - len(self.pre)) % len(self.per)
        return EventuallyPeriodicWord((), self.per[off:] + self.per[:off], self.alphabet_size)

    def unroll(self, length: int) -> tuple:
        """The first `length` symbols as a tuple."""
        if length <= len(self.pre):
            return self.pre[:length]
        reps = -((len(self.pre) - length) // len(self.per))
        return (self.pre + self.per * reps)[:length]

    def __eq__(self, other):
        if not isinstance(other, EventuallyPeriodicWord):
            return NotImplemented
        return self.pre == other.pre and self.per == other.per

    def __hash__(self):
        return hash((self.pre, self.per))

    def __repr__(self):
        return f"EventuallyPeriodicWord({self.pre!r}, {self.per!r}, {self.alphabet_size})"

    @staticmethod
    def _part_to_string(part) -> str:
        if max(part, default=0) <= 9:
            return "".join(map(str, part))
        return "[" + ",".join(map(str, part)) + "]"

    def to_string(self) -> str:
        """Literal form PRE(PER), e.g. 10302(0); bracketed lists past digit range."""
        return f"{self._part_to_string(self.pre)}({self._part_to_string(self.per)})"

    _LITERAL = re.compile(r"^\s*(\[[^\][()]*\]|\d*)\s*\(\s*(\[[^\][()]*\]|\d+)\s*\)\s*$")

    @classmethod
    def from_string(cls, text: str, alphabet_size=None) -> "EventuallyPeriodicWord":
        """Parse the PRE(PER) literal syntax.

        >>> EventuallyPeriodicWord.from_string("10302(0)").pre
        (1, 0, 3, 0, 2)
        >>> EventuallyPeriodicWord.from_string("[1,0,3](0)").per
        (0,)
        """
        m = cls._LITERAL.match(text)
        if m is None:
            raise ValueError(f"not a PRE(PER) word literal: {text!r}")
        return cls(_parse_symbols(m.group(1)), _parse_symbols(m.group(2)), alphabet_size)


def _parse_symbols(token: str) -> tuple:
    if token.startswith("["):
        inner = token[1:-1].strip()
        if not inner:
            return ()
        return tuple(map(int, inner.split(",")))
    return tuple(map(int, token))


def compare(w1: EventuallyPeriodicWord, w2: EventuallyPeriodicWord) -> int:
    """Exact lexicographic order of two infinite words: LT, EQ or GT.

    Symbols are compared up to position |pre1| + |pre2| + lcm(|per1|, |per2|);
    beyond that the words are equal if no difference has appeared.
    """
    bound = len(w1.pre) + len(w2.pre) + lcm(len(w1.per), len(w2.per))
    a = w1.unroll(bound)
    b = w2.unroll(bound)
    if a < b:
        return LT
    if a > b:
        return GT
    return EQ


def pat(w: EventuallyPeriodicWord, n: int):
    """Rank pattern of the first n suffixes of w, or None if two coincide.

    Entry i is the lexicographic rank of suffix(w, i) among the first n
    suffixes (1 = smallest). Since w is canonical, every suffix has a
    preperiod of at most |pre| symbols and the period length |per|, so
    the first 2*|pre| + |per| symbols of two suffixes decide their order
    exactly; each such key is a window of one unrolled prefix of w.
    """
    if n < 1:
        raise ValueError("pattern length must be >= 1")
    width = 2 * len(w.pre) + len(w.per)
    full = w.unroll(n - 1 + width)
    return _rank_distinct([full[i : i + width] for i in range(n)])


def _rank_distinct(keys):
    """Rank of each key among all keys (1 = smallest), or None on a tie."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0] * len(keys)
    prev = None
    for r, idx in enumerate(order, start=1):
        if keys[idx] == prev:
            return None
        prev = keys[idx]
        ranks[idx] = r
    return tuple(ranks)


def word_complement(w: EventuallyPeriodicWord) -> EventuallyPeriodicWord:
    """Symbol-wise complement s -> N-1-s within w's alphabet."""
    top = w.alphabet_size - 1
    return EventuallyPeriodicWord(
        tuple(top - s for s in w.pre), tuple(top - s for s in w.per), w.alphabet_size
    )
