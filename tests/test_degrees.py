"""Degrees of -id on invariant spaces: the mark solve vs closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdeg.burnside import BurnsideElement
from eqdeg.degrees import basic_degree, degree_for_character
from eqdeg.errors import ValidationError
from eqdeg.groups import direct_product, make_dihedral, make_sign_group
from eqdeg.lattice import subgroup_poset
from eqdeg.reps import minus_irrep, time_irrep, time_irrep_indices, trivial_gamma_irrep

from .oracles import closed_form_basic_degree


def base_poset(m):
    group = direct_product(make_dihedral(m), make_sign_group())
    return group, subgroup_poset(group)


def base_minus(group, m, index):
    return minus_irrep(group, trivial_gamma_irrep(), time_irrep(m, index))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_closed_forms_match_recurrence(m):
    group, poset = base_poset(m)
    for i in time_irrep_indices(m):
        computed = basic_degree(poset, base_minus(group, m, i))
        assert computed == closed_form_basic_degree(poset, m, i), (m, i)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_basic_degrees_are_involutions(m):
    group, poset = base_poset(m)
    unit = BurnsideElement.unit(poset)
    for i in time_irrep_indices(m):
        d = basic_degree(poset, base_minus(group, m, i))
        assert d * d == unit


def test_involution_holds_for_four_dimensional_irrep(ctx_m3):
    # planar gamma factor tensored with a planar dihedral factor
    irr = ctx_m3.minus[1, 1]
    assert irr.dim == 4
    d = basic_degree(ctx_m3.poset, irr)
    assert d * d == BurnsideElement.unit(ctx_m3.poset)


def test_zero_character_gives_unit(ctx_m3):
    zero = np.zeros(ctx_m3.group.order)
    assert degree_for_character(ctx_m3.poset, zero) == \
        BurnsideElement.unit(ctx_m3.poset)


def test_all_ones_character_negates_unit(ctx_m3):
    # every fixed space is one-dimensional, so every mark is -1
    ones = np.ones(ctx_m3.group.order)
    top = BurnsideElement(ctx_m3.poset, {ctx_m3.poset.top_index: -1})
    assert degree_for_character(ctx_m3.poset, ones) == top


def test_character_length_is_checked(ctx_m3):
    with pytest.raises(ValidationError):
        degree_for_character(ctx_m3.poset, np.zeros(5))


def test_summed_character_equals_degree_product(ctx_m3):
    # one solve on the sum vs the product of basic degrees
    chars = [ctx_m3.minus[0, 1].character,
             ctx_m3.minus[1, 0].character,
             ctx_m3.minus[2, 0].character]
    summed = degree_for_character(ctx_m3.poset, sum(chars))
    product = BurnsideElement.unit(ctx_m3.poset)
    for c in chars:
        product = product * degree_for_character(ctx_m3.poset, c)
    assert summed == product


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
       st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5))
def test_degree_multiplicative_on_direct_sums(mults_a, mults_b):
    m = 4
    group, poset = base_poset(m)
    indices = time_irrep_indices(m)

    def char(mults):
        total = np.zeros(group.order)
        for c, i in zip(mults, indices):
            total += c * base_minus(group, m, i).character
        return total

    da = degree_for_character(poset, char(mults_a))
    db = degree_for_character(poset, char(mults_b))
    dsum = degree_for_character(poset, char(mults_a) + char(mults_b))
    assert dsum == da * db


def test_closed_form_rejects_foreign_lattice(ctx_m3):
    with pytest.raises(ValidationError):
        closed_form_basic_degree(ctx_m3.poset, 3, 0)


def test_closed_form_rejects_bad_index():
    _group, poset = base_poset(3)
    with pytest.raises(ValidationError):
        closed_form_basic_degree(poset, 3, 7)
