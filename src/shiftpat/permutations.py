"""Permutations in one-line notation, descent statistics, and marked cycles.

A permutation of length n is a tuple over 1..n; positions are 1-indexed
everywhere. A marked cycle is the one-line form of an n-cycle with one
entry erased: the erased slot is stored as 0 and rendered as ``*``.
That same 0-encoding doubles as the "star rewritten to 0" variant used
for descent counts that include the erased entry.
"""

from __future__ import annotations

from itertools import permutations as _all_permutations

__all__ = [
    "check_permutation",
    "reduce",
    "descent_set",
    "descent_count",
    "complement",
    "inverse",
    "theta",
    "theta_inv",
    "marked_cycles",
    "marked_des",
    "marked_eps",
    "marked_rc",
    "marked_inverse",
    "parse_permutation",
    "format_permutation",
    "format_marked",
]


def check_permutation(pi) -> tuple:
    """Return pi as a tuple after checking it is a bijection of 1..n.

    Every entry must be an int: 2.0 and True compare equal to 2 and 1, so
    the set comparison alone would let them through.
    """
    pi = tuple(pi)
    n = len(pi)
    if n < 1 or set(pi) != set(range(1, n + 1)) or set(map(type, pi)) != {int}:
        raise ValueError(f"not a permutation of 1..{n}: {pi!r}")
    return pi


def _size(value, least: int, name: str):
    """Return value, the one rule for every n, N and other size: an int no smaller than least.

    2.0 and True compare like ints, so the type is tested exactly. The
    arguments stay positional: pat and psi call it on every query and cell.
    """
    if type(value) is not int or value < least:
        raise ValueError(f"need {name} >= {least}")
    return value


def reduce(values) -> tuple:
    """Relabel distinct values by rank, smallest becoming 1.

    >>> reduce([8, 14, 2, 12, 3])
    (3, 5, 1, 4, 2)
    >>> reduce([10, 20])
    (1, 2)
    """
    order = _order_of(tuple(values))
    if order is None:
        raise ValueError("reduction undefined: repeated value")
    return _ranks_of(order)


def _order_of(keys):
    """The indices 0..len(keys)-1 in increasing key order, or None when two keys tie."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for i, j in zip(order, order[1:]):
        if keys[i] == keys[j]:
            return None
    return tuple(order)


def descent_set(seq) -> frozenset:
    """Positions i with seq[i] > seq[i+1], 1-indexed.

    >>> sorted(descent_set((2, 5, 1, 7, 3, 6, 4)))
    [2, 4, 6]
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("descent set needs a nonempty sequence")
    return frozenset(i for i in range(1, len(seq)) if seq[i - 1] > seq[i])


def descent_count(seq) -> int:
    return len(descent_set(seq))


def complement(pi) -> tuple:
    """i -> n+1-pi(i)."""
    pi = check_permutation(pi)
    n = len(pi)
    return tuple(n + 1 - v for v in pi)


def _positions(pi) -> list:
    """inv[v] = 1-indexed position of value v; inv[0] unused, or inv[n] for values 0..n-1."""
    inv = [0] * (len(pi) + 1)
    for pos, v in enumerate(pi, start=1):
        inv[v] = pos
    return inv


def _ranks_of(order) -> tuple:
    """The ranks, smallest 1, of the items that order lists in increasing order (0-indexed)."""
    return tuple(_positions(order)[:-1])


def inverse(pi) -> tuple:
    return tuple(_positions(check_permutation(pi))[1:])


def _blocks(n: int) -> list:
    """Every (first, last) = (sigma(1), sigma(n)) that some n-cycle has: the blocks of _cycle_block.

    A cycle has first != last, and for n >= 3 the block (n, 1), 1 -> n -> 1,
    is empty; for n <= 2 the one n-cycle is the block (n, 1).
    """
    if n <= 2:
        return [(n, 1)]
    return [(a, b) for a in range(2, n + 1) for b in range(1, n) if a != b and (a, b) != (n, 1)]


def _cycle_block(n: int, first: int, last: int):
    """The n-cycles with sigma(1) = first and sigma(n) = last, as lists [0, sigma_1, ..., sigma_n, n+1].

    The pads make s[i] index sigma_i directly and compare below and above
    every entry, so a descent at either end needs no special case. The
    block (first, last) is one of _blocks(n). In the walk 1 -> first -> ...
    -> 1, n stands for the glued pair n -> last, and each list is mended at
    the end: last takes n's successor and n points at last. When last = 1
    the pair closes the walk, so n is left out and comes last; for n <= 2
    the walk is empty. The (n-3)! cycles of a block (for n >= 3) come in
    lexicographic order of the free part of the walk. Each list is new, so
    callers may keep it.
    """
    if last == 1:
        rest, end = [v for v in range(2, n) if v != first], n
    else:
        rest, end = [v for v in range(2, n + 1) if v not in (first, last)], 1
    for walk in _all_permutations(rest):
        s = [0] * (n + 1) + [n + 1]
        s[1] = prev = first
        for v in walk:
            s[prev] = prev = v
        s[prev] = end
        if last != 1:
            s[last] = s[n]
        s[n] = last
        yield s


def theta(pi) -> tuple:
    """Marked-cycle image of pi: position i holds the entry right of i in pi.

    The slot of i = pi(n) holds the mark (the hidden value is pi(1)).

    >>> theta((3, 4, 2, 1))
    (0, 1, 4, 2)
    """
    return _theta(check_permutation(pi))


def _theta(pi) -> tuple:
    """theta of a permutation tuple that is trusted to be valid."""
    n = len(pi)
    out = [0] * n
    for k in range(n - 1):
        out[pi[k] - 1] = pi[k + 1]
    return tuple(out)


def theta_inv(mc) -> tuple:
    """The unique pi with theta(pi) = mc; errors unless mc is a marked cycle."""
    mc = _check_marked_shape(mc)
    n = len(mc)
    pi = [_missing_value(mc)]
    while mc[pi[-1] - 1] != 0 and len(pi) <= n:
        pi.append(mc[pi[-1] - 1])
    if len(pi) != n:
        raise ValueError(f"not a marked n-cycle: {mc!r}")
    return tuple(pi)


def marked_cycles(n: int):
    """All n! marked cycles: n-cycles with one one-line entry erased, block by block."""
    _size(n, 1, "n")
    for first, last in _blocks(n):
        for s in _cycle_block(n, first, last):
            sigma = tuple(s[1:-1])
            for p in range(n):
                yield sigma[:p] + (0,) + sigma[p + 1 :]


def _check_marked_shape(mc) -> tuple:
    """Return mc as a tuple after checking it is n-1 distinct ints of 1..n and one mark 0."""
    mc = tuple(mc)
    n = len(mc)
    entries = set(mc)
    if set(map(type, mc)) != {int} or len(entries) != n or not {0} <= entries <= set(range(n + 1)):
        raise ValueError(f"not a marked cycle shape: {mc!r}")
    return mc


def _missing_value(mc) -> int:
    """The value of 1..n hidden behind the mark; mc is trusted to have the marked cycle shape."""
    return set(range(1, len(mc) + 1)).difference(mc).pop()


def marked_des(mc) -> int:
    """Descents of the one-line form with the mark deleted.

    >>> marked_des((5, 3, 6, 1, 7, 4, 0, 9, 2))
    4
    >>> marked_des((0, 1, 4, 2))
    1
    """
    return _marked_des(_check_marked_shape(mc))


def _marked_des(mc) -> int:
    """marked_des of a tuple trusted to have the marked cycle shape."""
    return descent_count(e for e in mc if e)


def marked_eps(mc) -> int:
    """1 iff the marked cycle looks like [*, 1, ...] or [..., n, *]."""
    mc = _check_marked_shape(mc)
    _size(len(mc), 2, "length")
    return _marked_eps(mc)


def _marked_eps(mc) -> int:
    """marked_eps of a tuple of length >= 2 trusted to have the marked cycle shape."""
    return int(mc[:2] == (0, 1) or mc[-2:] == (len(mc), 0))


def marked_rc(mc) -> tuple:
    """Rotate the dot array of the marked cycle by 180 degrees."""
    mc = _check_marked_shape(mc)
    n = len(mc)
    return tuple((n + 1 - e) if e else 0 for e in reversed(mc))


def marked_inverse(mc) -> tuple:
    """Transpose the dot array: the marked dot (i, j) becomes (j, i).

    The mark's implied value is restored for the transposition and
    erased again afterwards.
    """
    mc = _check_marked_shape(mc)
    v = _missing_value(mc)
    out = _positions([e or v for e in mc])[1:]  # the one 0 is the mark
    out[v - 1] = 0
    return tuple(out)


def _entries(text: str) -> tuple:
    """The entries of a permutation literal.

    Entries are unsigned ASCII decimal numbers split on commas and spaces;
    a permutation written as one run of digits has one digit per entry
    (the n <= 9 shorthand). Anything else raises "not a permutation literal".
    """
    tokens = text.replace(",", " ").split()
    if len(tokens) == 1 and len(tokens[0]) > 1 and tokens[0].isdigit():
        tokens = list(tokens[0])
    # on ASCII text isdigit() accepts exactly 0-9: no sign, `_` or other digits
    if not text.isascii() or not all(t.isdigit() for t in tokens):
        raise ValueError(f"not a permutation literal: {text!r}")
    return tuple(map(int, tokens))


def parse_permutation(text: str) -> tuple:
    """Parse `4 3 6 1 5 2`, `4,3,6,1,5,2` or the compact `436152` (n <= 9)."""
    return check_permutation(_entries(text))


def format_permutation(pi) -> str:
    return " ".join(str(v) for v in pi)


def format_marked(mc) -> str:
    return " ".join("*" if e == 0 else str(e) for e in mc)
