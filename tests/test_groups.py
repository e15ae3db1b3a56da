"""Group construction, actions and products against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdeg.errors import ValidationError
from eqdeg.groups import (
    FiniteGroup,
    dihedral_rotation_action,
    direct_product,
    make_cyclic,
    make_dihedral,
    make_permutation_group,
    make_sign_group,
    make_trivial,
)

from .oracles import (closure, product_components, validate_action,
                      validate_group)


SMALL_GROUPS = [
    make_trivial(),
    make_cyclic(2),
    make_cyclic(5),
    make_cyclic(12),
    make_sign_group(),
    make_dihedral(1),
    make_dihedral(3),
    make_dihedral(4),
    make_dihedral(6),
    direct_product(make_dihedral(3), make_sign_group()),
    direct_product(make_dihedral(3), direct_product(make_dihedral(3), make_sign_group())),
]


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.name)
def test_axioms(group):
    validate_group(group)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.name)
def test_inverses_round_trip(group):
    for g in range(group.order):
        assert group.mul(g, group.inv(g)) == 0
        assert group.mul(group.inv(g), g) == 0


def test_dihedral_relations():
    d = make_dihedral(5)
    r, s = 1, 5
    assert d.element_order(r) == 5
    assert d.element_order(s) == 2
    # s r s = r^-1
    assert d.mul(d.mul(s, r), s) == d.inv(r)


def test_element_orders_d4():
    d = make_dihedral(4)
    # rotations e, r, r^2, r^3 then four reflections
    assert list(d.element_orders()) == [1, 4, 2, 4, 2, 2, 2, 2]


def test_dihedral_rotation_action_is_homomorphism():
    for n in (1, 2, 3, 4, 6, 12):
        validate_action(dihedral_rotation_action(make_dihedral(n)))


def test_action_matrices_multiply():
    act = dihedral_rotation_action(make_dihedral(5))
    g, h = 3, 7
    gh = act.group.mul(g, h)
    assert np.allclose(act.matrix(g) @ act.matrix(h), act.matrix(gh))


def test_permutation_group_closure_order():
    # <(0 1 2 3 4), (1 4)(2 3)> is D5 acting on 5 points
    cycle = [1, 2, 3, 4, 0]
    flip = [0, 4, 3, 2, 1]
    group, act = make_permutation_group(5, [cycle, flip])
    assert group.order == 10
    validate_action(act)
    validate_group(group)


def test_permutation_group_symmetric_3():
    group, _ = make_permutation_group(3, [[1, 0, 2], [0, 2, 1]])
    assert group.order == 6
    assert sorted(group.element_orders().tolist()) == [1, 2, 2, 2, 3, 3]


def test_permutation_group_rejects_non_permutation():
    with pytest.raises(ValidationError):
        make_permutation_group(3, [[0, 0, 1]])


def test_subgroup_generated_matches_brute_closure():
    d = make_dihedral(6)
    for gens in [(1,), (2,), (6,), (2, 6), (1, 6), (4, 7)]:
        got = set(d.subgroup_generated(gens).tolist())
        assert got == set(closure(d, set(gens)))


def test_product_components_round_trip():
    g = direct_product(make_dihedral(4), make_sign_group())
    for a in range(8):
        for b in range(2):
            gid = a * 2                      # (a, +1)
            assert product_components(g, gid) == (a, 0)
            full = g.mul(gid, b)             # (e, b) has id b
            assert product_components(g, full) == (a, b)


def test_product_order_cap():
    with pytest.raises(ValidationError):
        direct_product(make_cyclic(30), make_cyclic(30))


def test_constructors_check_the_cap_before_building():
    assert make_dihedral(200).order == 400
    with pytest.raises(ValidationError, match="exceeds cap"):
        make_dihedral(201)
    with pytest.raises(ValidationError, match="exceeds cap"):
        make_cyclic(401)


def test_product_multiplication_componentwise():
    a, b = make_dihedral(3), make_cyclic(4)
    p = direct_product(a, b)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.integers(0, p.order, 2)
        xa, xb = product_components(p, int(x))
        ya, yb = product_components(p, int(y))
        za, zb = product_components(p, p.mul(int(x), int(y)))
        assert za == a.mul(xa, ya) and zb == b.mul(xb, yb)


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_dihedral_inverse_property(n, data):
    d = make_dihedral(n)
    g = data.draw(st.integers(min_value=0, max_value=d.order - 1))
    h = data.draw(st.integers(min_value=0, max_value=d.order - 1))
    # (g h)^-1 = h^-1 g^-1
    assert d.inv(d.mul(g, h)) == d.mul(d.inv(h), d.inv(g))


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_cyclic_element_orders_divide(n):
    c = make_cyclic(n)
    for g in range(n):
        assert n % c.element_order(g) == 0
