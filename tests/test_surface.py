"""The public surface: one integer rule at each input boundary, one module per exported name."""

import re
from argparse import Namespace
from collections import Counter

import pytest

import shiftpat
from shiftpat import (
    BoundExceededError,
    EventuallyPeriodicWord,
    check_conjecture1,
    check_permutation,
    cli,
    conjectures,
    count_a,
    count_binary,
    count_row,
    count_table,
    enumerate_by_nmin,
    enumeration,
    explain_nmin,
    extremal_sextet,
    forbidden,
    marked_cycles,
    marked_des,
    marked_eps,
    marked_inverse,
    marked_rc,
    minimal_forbidden,
    mobius,
    n_min,
    omega_census,
    oracle_allowed,
    pat,
    permutations,
    phi,
    phi_inv,
    psi,
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


def xcheck(n_max, N_max):
    return cli._cmd_xcheck(Namespace(n_max=n_max, N_max=N_max, threads=1))


def refused_at_one(sweep):
    """sweep(1, bound=v): a bound the rule takes but below n = 1 refuses the sweep, not the bound."""
    def call(bound):
        with pytest.raises(BoundExceededError):
            sweep(1, bound=bound)
    return call


# Every size argument: (call on the size, its name, the least value it takes).
SIZES = {
    "xcheck n_max": (lambda v: xcheck(v, 3), "n_max", 2),
    "xcheck N_max": (lambda v: xcheck(3, v), "N_max", 2),
    "check_conjecture1": (check_conjecture1, "n", 1),
    "check_conjecture1 bound": (refused_at_one(check_conjecture1), "bound", 0),
    "count_binary": (count_binary, "n", 2),
    "count_a n": (lambda v: count_a(v, 3), "n", 2),
    "count_a workers closed": (lambda v: count_a(5, 3, "closed", v), "workers", 0),
    "count_a workers recurrence": (lambda v: count_a(5, 3, "recurrence", v), "workers", 0),
    "count_row n": (lambda v: count_row(v, 3), "n", 2),
    "count_row N": (lambda v: count_row(5, v), "N", 2),
    "count_row workers closed": (lambda v: count_row(5, 3, "a", "closed", v), "workers", 0),
    "count_row workers recurrence": (lambda v: count_row(5, 3, "g", "recurrence", v), "workers", 0),
    "count_table": (count_table, "n_max", 2),  # raises on the call, before any row is read
    "enumerate_by_nmin n": (enumerate_by_nmin, "n", 1),
    "enumerate_by_nmin bound": (refused_at_one(enumerate_by_nmin), "bound", 0),
    "enumerate_by_nmin workers": (lambda v: enumerate_by_nmin(4, workers=v), "workers", 0),
    "forbidden n": (lambda v: forbidden(v, 3), "n", 2),
    "forbidden N": (lambda v: forbidden(4, v), "N", 1),
    "minimal_forbidden n": (lambda v: minimal_forbidden(v, 3), "n", 2),
    "minimal_forbidden N": (lambda v: minimal_forbidden(4, v), "N", 1),
    "oracle_allowed n": (lambda v: oracle_allowed(v, 2), "n", 2),
    "oracle_allowed N": (lambda v: oracle_allowed(4, v), "N", 1),
    "oracle_allowed workers": (lambda v: oracle_allowed(5, 3, workers=v), "workers", 0),
    "extremal_sextet": (extremal_sextet, "n", 3),
    "omega_census n": (lambda v: omega_census(v, 2), "n", 2),
    "omega_census N": (lambda v: omega_census(3, v), "N", 2),
    "marked_cycles": (lambda v: list(marked_cycles(v)), "n", 1),
    "mobius": (mobius, "d", 1),
    "psi N": (lambda v: psi(v, 3), "N", 0),
    "psi t": (lambda v: psi(2, v), "t", 1),
    "pat": (lambda v: pat(WORD, v), "n", 1),
    "suffix": (WORD.suffix, "k", 1),
    "unroll": (WORD.unroll, "length", 0),
    "witness m": (lambda v: witness((2, 1), m=v), "m", 1),  # n = 2 admits m = 1
}
MARKED_STATISTICS = [marked_des, marked_eps, marked_rc]
# One table of bad input: a float, True and one below the least for each size, and
# marked cycle statistics given what is not a marked cycle; (call, bad value, message).
BOUNDARY = {
    **{f"{key} {bad!r}": (call, bad, f"need {name} >= {least}")
       for key, (call, name, least) in SIZES.items() for bad in (2.0, True, least - 1)},
    **{f"{f.__name__} {mc!r}": (f, mc, f"not a marked cycle shape: {mc!r}")
       for f in MARKED_STATISTICS for mc in [(2.0, 0), (5, 5), (7, 7, 7), (9,)]},
}


@pytest.mark.parametrize("call, least", [(c, least) for c, _, least in SIZES.values()], ids=SIZES)
def test_size_entries_take_their_least(call, least):
    # BOUNDARY alone cannot tell a least set one too high from the right one
    call(least)


@pytest.mark.parametrize("call, bad, message", BOUNDARY.values(), ids=BOUNDARY)
def test_boundary_raises_value_error(call, bad, message):
    # a ValueError with the rule's own message: never a TypeError from inside, never a value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


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
    "RequiredChain",
    "required_chain",
    "contains_consecutive",
    "star_deleted",
    "eulerian_row",
    "n_cycles",
    "descent_distribution",
]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert not hasattr(shiftpat, name)
    assert not any(hasattr(module, name) for module in MODULES)


def test_word_has_no_symbol_at():
    # a word's symbols are read through unroll; suffix(i).unroll(1) is the i-th one
    assert not hasattr(EventuallyPeriodicWord, "symbol_at")
