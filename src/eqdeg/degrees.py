"""Equivariant Brouwer degrees valued in the Burnside ring.

For the odd gradient maps arising from the variational setup, the degree
of -id on the unit ball of an invariant space V is pinned down by its
marks: the fixed-point degree over a subgroup class (H) is
(-1)^{dim V^H}.  So a degree is the one mark solve of burnside.py applied
to that sign vector.  Fixed dimensions add over direct sums, so summing
characters multiplies degrees.
"""

from __future__ import annotations

import numpy as np

from .burnside import BurnsideElement
from .errors import ValidationError
from .lattice import SubgroupPoset
from .reps import MinusIrrep, fixed_dims


def degree_for_character(poset: SubgroupPoset,
                         character: np.ndarray) -> BurnsideElement:
    """Degree of the antipodal-equivariant map on the space with this character.

    The character may be any nonnegative-integer combination of irreducible
    characters; only the parities of the fixed-space dimensions enter.
    """
    char = np.asarray(character, dtype=float)
    if char.shape != (poset.group.order,):
        raise ValidationError("character length does not match the group order")
    return BurnsideElement.from_marks(poset, 1 - 2 * (fixed_dims(poset, char) % 2))


def basic_degree(poset: SubgroupPoset, irrep: MinusIrrep) -> BurnsideElement:
    """Degree of -id on the single irrep; an involution of the unit group."""
    return degree_for_character(poset, irrep.character)
