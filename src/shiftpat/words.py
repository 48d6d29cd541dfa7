"""Eventually periodic infinite words over {0..N-1} with exact comparison.

A word is stored as a preperiod and a period in a canonical form, so
equality, hashing, lexicographic comparison and the suffix-pattern map
are all exact. Primitivity and the primitive-word count psi live here
as well.
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd
from operator import itemgetter

from .permutations import _order_of, _ranks_of, _size

LT, EQ, GT = -1, 0, 1

__all__ = [
    "LT",
    "EQ",
    "GT",
    "EventuallyPeriodicWord",
    "compare",
    "pat",
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
    if not p:
        raise ValueError("empty word has no primitivity")
    return len(primitive_root(p)) == len(p)


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
    _size(d, 1, "d")
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


@cache
def _squarefree_below(n: int) -> tuple:
    """(d, mobius(d)) for each square-free d with 2 <= d < n, factored once per n."""
    return tuple((d, mu) for d in range(2, n) if (mu := mobius(d)))


def psi(N: int, t: int) -> int:
    """Number of primitive words of length t over N letters.

    psi_N(t) = sum over d | t of mobius(d) * N^(t/d); the divisors and
    their Moebius values are factored once per t.
    """
    _size(N, 0, "N")
    _size(t, 1, "t")
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
        """Check that every symbol is an int in 0..alphabet_size-1 (an int, default max + 1)."""
        pre, per = tuple(pre), tuple(per)
        if not per:
            raise ValueError("period must be nonempty")
        symbols = pre + per
        if set(map(type, symbols)) != {int} or type(alphabet_size) not in (int, type(None)):
            raise ValueError("symbols and the alphabet size must be integers")
        hi = max(symbols)
        if alphabet_size is None:
            alphabet_size = hi + 1
        if min(symbols) < 0 or hi >= alphabet_size:
            raise ValueError(f"symbols must lie in 0..{alphabet_size - 1}")
        w = self._canonical(pre, per, alphabet_size)
        self.pre, self.per, self.alphabet_size = w.pre, w.per, alphabet_size

    @classmethod
    def _canonical(cls, pre: tuple, per: tuple, alphabet_size: int) -> "EventuallyPeriodicWord":
        """pre . per^inf in canonical form, unchecked: the library's own tuples of ints in range."""
        per = primitive_root(per)
        # the preperiod's tail that reads the period backwards is absorbed: one cut, one rotation
        p, cut = len(per), len(pre)
        while cut and pre[cut - 1] == per[(cut - len(pre) - 1) % p]:
            cut -= 1
        r = p - (len(pre) - cut) % p
        w = object.__new__(cls)
        w.pre, w.per, w.alphabet_size = pre[:cut], per[r:] + per[:r], alphabet_size
        return w

    def suffix(self, k: int) -> "EventuallyPeriodicWord":
        """Left shift by k-1 letters; suffix(w, 1) is w itself."""
        drop = _size(k, 1, "k") - 1
        if drop <= len(self.pre):
            return self._canonical(self.pre[drop:], self.per, self.alphabet_size)
        off = (drop - len(self.pre)) % len(self.per)
        return self._canonical((), self.per[off:] + self.per[:off], self.alphabet_size)

    def unroll(self, length: int) -> tuple:
        """The first `length` symbols as a tuple."""
        if _size(length, 0, "length") <= len(self.pre):
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
        try:
            symbols = bytes(part)
        except ValueError:  # a symbol past 255
            return "[" + ",".join(map(str, part)) + "]"
        try:
            return symbols.translate(_TO_DIGIT).decode("ascii")
        except UnicodeDecodeError:  # a symbol past 9; index 0 makes itemgetter return a tuple
            return "[" + ",".join(itemgetter(0, *symbols)(_SYMBOL_TEXT)[1:]) + "]"

    def to_string(self) -> str:
        """Literal form PRE(PER), e.g. 10302(0); bracketed lists past digit range."""
        return f"{self._part_to_string(self.pre)}({self._part_to_string(self.per)})"

    # a part is ASCII digits, one symbol each, or a bracketed comma list of unsigned
    # integers; _parse_symbols rejects an empty or spaced-out item in the list
    _LITERAL = re.compile(r"^\s*(\[[\d\s,]*\]|\d*)\s*\(\s*(\[[\d\s,]*\]|\d+)\s*\)\s*$", re.ASCII)

    @classmethod
    def from_string(cls, text: str) -> "EventuallyPeriodicWord":
        """Parse the PRE(PER) literal syntax.

        >>> EventuallyPeriodicWord.from_string("10302(0)").pre
        (1, 0, 3, 0, 2)
        >>> EventuallyPeriodicWord.from_string("[1,0,3](0)").per
        (0,)
        """
        m = cls._LITERAL.match(text)
        if m is not None:
            try:
                pre, per = map(_parse_symbols, m.groups())
            except ValueError:
                pass
            else:
                if not per:
                    raise ValueError("period must be nonempty")
                # the parser yields unsigned ints only, so the largest one sets the alphabet
                return cls._canonical(pre, per, max(pre + per) + 1)
        raise ValueError(f"not a PRE(PER) word literal: {text!r}")


# Literal I/O tables. In the digit form a symbol 0..9 is one ASCII digit, and
# 10..255 map to a byte that is not ASCII, so decoding fails past 9. A bracketed
# list reads and writes symbols below 256 through their decimal texts.
_TO_DIGIT = b"0123456789" + b"\x80" * 246
_FROM_DIGIT = bytes.maketrans(b"0123456789", bytes(range(10)))
_SYMBOL_TEXT = tuple(map(str, range(256)))
_TEXT_SYMBOL = {text: s for s, text in enumerate(_SYMBOL_TEXT)}


def _parse_symbols(token: str) -> tuple:
    """The symbols of one literal part; ValueError for a list item that is not a number."""
    if token.startswith("["):
        inner = token[1:-1].strip()
        if not inner:
            return ()
        items = inner.split(",")
        try:
            return tuple(map(_TEXT_SYMBOL.__getitem__, items))
        except KeyError:  # a symbol past 255, a leading zero or a space: int() reads it or fails
            return tuple(map(int, items))
    return tuple(token.encode().translate(_FROM_DIGIT))


def compare(w1: EventuallyPeriodicWord, w2: EventuallyPeriodicWord) -> int:
    """Exact lexicographic order of two infinite words: LT, EQ or GT.

    Past position L = max(|pre1|, |pre2|) the two words are periodic with
    periods p = |per1| and q = |per2|, and by Fine and Wilf two such tails
    that agree on p + q - gcd(p, q) symbols agree everywhere. So symbols are
    compared up to position L + p + q - gcd(p, q), and no further.
    """
    p, q = len(w1.per), len(w2.per)
    bound = max(len(w1.pre), len(w2.pre)) + p + q - gcd(p, q)
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
    suffixes (1 = smallest).
    """
    order = _order(w.pre, w.per, _size(n, 1, "n"))
    return None if order is None else _ranks_of(order)


def _order(pre, per, n: int):
    """Starts 0..n-1 of the first n suffixes of pre . per^inf in increasing order, or None on a tie.

    pre and per are both tuples or both bytes, canonical or not; tuples whose
    symbols all lie below 256 are keyed as bytes. Suffix i is keyed by its
    first |pre| + |per| symbols, which decide every comparison: past its
    first |pre| symbols a suffix is |per|-periodic, so two suffixes agreeing
    that far agree on a whole period beyond |pre|, hence everywhere.
    Suffixes |pre| + 1 and |pre| + |per| + 1 are both per^inf, so any n
    past that width ties.

    A word with period 0 is keyed by the slices q[i:] of q, pre with its
    trailing zeros stripped, and no padding: 0 is the least symbol, so the
    shorter of two slices that agree up to its end is the smaller, as the
    padded words are. q ends in a nonzero symbol, so no two starts below
    |q| tie, and every start from |q| on reads 0^inf: a tie exactly when
    |q| + 1 < n.
    """
    width = len(pre) + len(per)
    if n > width:
        return None
    if type(pre) is tuple:
        try:  # bytes keys slice by memcpy and compare by memcmp
            pre, per = bytes(pre), bytes(per)
        except ValueError:  # a symbol past 255: keep the tuple keys
            pass
    if per == b"\0":
        q = pre.rstrip(b"\0")
        if len(q) + 1 < n:
            return None
        return tuple(sorted(range(n), key=lambda i: q[i:]))
    full = pre + per * (-(-(n - 1) // len(per)) + 1)
    return _order_of([full[i : i + width] for i in range(n)])

