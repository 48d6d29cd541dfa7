"""The public surface: one integer rule at each input boundary, one module per exported name."""

from collections import Counter

import pytest

import shiftpat
from shiftpat import (
    EventuallyPeriodicWord,
    check_permutation,
    conjectures,
    enumeration,
    explain_nmin,
    marked_inverse,
    n_min,
    permutations,
    phi,
    phi_inv,
    realization,
    realize_check,
    theta,
    theta_inv,
    witness,
    words,
)

MODULES = [conjectures, enumeration, permutations, realization, words]
WORD = EventuallyPeriodicWord((0,), (1,))


def second_replaced(good, value):
    """good with its second entry, a 1, replaced by value: equal to 1, but not an int."""
    assert good[1] == 1 == value and type(value) is not int
    return (good[0], value, *good[2:])


BAD = pytest.mark.parametrize("bad", [1.0, True], ids=["float", "True"])
PERMUTATION_ENTRIES = {
    "check_permutation": check_permutation,
    "n_min": n_min,
    "theta": theta,
    "explain_nmin": explain_nmin,
    "witness": witness,
    "realize_check": lambda pi: realize_check(pi, WORD),
}


@BAD
@pytest.mark.parametrize("entry", PERMUTATION_ENTRIES.values(), ids=PERMUTATION_ENTRIES)
def test_permutation_entries_take_ints_only(entry, bad):
    good = (3, 1, 4, 2)
    entry(good)
    with pytest.raises(ValueError, match="not a permutation"):
        entry(second_replaced(good, bad))


@BAD
@pytest.mark.parametrize(
    "entry", [theta_inv, marked_inverse, phi_inv, phi], ids=lambda f: f.__name__
)
def test_marked_entries_take_ints_only(entry, bad):
    # theta((3, 4, 2, 1)) = (0, 1, 4, 2); phi needs the shape [*, 1, ...]
    good = (0, 1, 5, 7, 6, 2, 3) if entry is phi else (0, 1, 4, 2)
    entry(good)
    with pytest.raises(ValueError, match="not a marked cycle shape"):
        entry(second_replaced(good, bad))


@pytest.mark.parametrize(
    "args",
    [((1.0, 0), (0,)), ((True, 0), (0,)), ((0,), (1.0,)), ((1, 0), (0,), 2.5), ((0,), (0,), True)],
    ids=["float symbol", "True symbol", "float period", "float alphabet", "True alphabet"],
)
def test_word_constructor_takes_ints_only(args):
    with pytest.raises(ValueError, match="must be integers"):
        EventuallyPeriodicWord(*args)


def test_realize_check_rejects_a_non_permutation():
    # the first two suffixes of 0(1) are ordered like 1 2, but (1.0, 2.0) is no permutation
    assert realize_check((1, 2), WORD)
    with pytest.raises(ValueError, match="not a permutation"):
        realize_check((1.0, 2.0), WORD)


def test_module_exports_are_disjoint():
    # `from .x import *` in the package would let a later module shadow a duplicate
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []
    assert sorted(shiftpat.__all__) == sorted(counts)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_package_exports_the_defining_object(module):
    for name in module.__all__:
        assert getattr(shiftpat, name) is getattr(module, name), name


REMOVED = [
    "parse_marked",
    "star_position",
    "missing_value",
    "is_n_cycle",
    "cycle_decomposition",
    "reverse_complement",
    "word_complement",
]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert not hasattr(shiftpat, name)
    assert not any(hasattr(module, name) for module in MODULES)
