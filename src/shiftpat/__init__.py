"""Exact combinatorics of permutation patterns realized by one-sided full shifts.

The shift map on N symbols acts on eventually periodic sequences; the
relative order of the first n shifts of a word, when totally ordered,
reduces to a permutation. This package decides which permutations arise
for a given alphabet size, constructs explicit witnesses, and counts the
strata exactly.
"""

from . import conjectures, enumeration, permutations, realization, words
from .conjectures import *  # noqa: F403
from .enumeration import *  # noqa: F403
from .permutations import *  # noqa: F403
from .realization import *  # noqa: F403
from .words import *  # noqa: F403

__all__ = [
    *conjectures.__all__,
    *enumeration.__all__,
    *permutations.__all__,
    *realization.__all__,
    *words.__all__,
]
__version__ = "0.1.0"
