"""Burnside ring arithmetic: the mark solve against orbit counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdeg.burnside import BurnsideElement
from eqdeg.errors import ValidationError
from eqdeg.groups import direct_product, make_cyclic, make_dihedral, make_sign_group
from eqdeg.lattice import subgroup_poset

from . import oracles
from .oracles import from_marks_dense, multiply_oracle


@pytest.fixture(scope="module")
def pz2():
    return subgroup_poset(make_cyclic(2))


@pytest.fixture(scope="module")
def pd3():
    return subgroup_poset(make_dihedral(3))


@pytest.fixture(scope="module")
def pd3s():
    return subgroup_poset(direct_product(make_dihedral(3), make_sign_group()))


@pytest.fixture(scope="module")
def pg72():
    b = direct_product(make_dihedral(3), make_sign_group())
    return subgroup_poset(direct_product(make_dihedral(3), b))


def B(poset, name):
    return BurnsideElement.basis(poset, poset.index_by_name(name))


def test_free_class_squares(pz2):
    z1 = BurnsideElement.basis(pz2, 0)
    assert z1 * z1 == 2 * z1


def test_d3_hand_products(pd3):
    z1, d1, z3, d3 = (BurnsideElement.basis(pd3, i) for i in range(4))
    assert z3 * d1 == z1
    assert d1 * d1 == d1 + z1
    assert z3 * z3 == 2 * z3
    assert z1 * z1 == 6 * z1


def test_unit_law(pd3s):
    unit = BurnsideElement.unit(pd3s)
    for i in range(len(pd3s)):
        e = BurnsideElement.basis(pd3s, i)
        assert unit * e == e
        assert e * unit == e


def test_all_basis_products_match_oracle(pd3s):
    for i in range(len(pd3s)):
        for j in range(len(pd3s)):
            got = BurnsideElement.basis(pd3s, i) * BurnsideElement.basis(pd3s, j)
            assert got == multiply_oracle(pd3s, i, j), (i, j)


def test_sampled_basis_products_match_oracle_g72(pg72):
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, len(pg72), size=(25, 2))
    for i, j in pairs:
        got = BurnsideElement.basis(pg72, int(i)) * BurnsideElement.basis(pg72, int(j))
        assert got == multiply_oracle(pg72, int(i), int(j)), (i, j)


def test_oracle_against_pure_python_orbit_count(pd3):
    g = pd3.group
    for i in range(len(pd3)):
        for j in range(len(pd3)):
            h = frozenset(int(x) for x in pd3.classes[i].ids)
            k = frozenset(int(x) for x in pd3.classes[j].ids)
            subs = oracles.brute_force_subgroups(g, max_gens=2)
            raw = oracles.burnside_product_by_orbit_count(g, h, k, subs)
            expected = {oracles.index_of_subgroup(pd3, rep): c for rep, c in raw.items()}
            got = multiply_oracle(pd3, i, j)
            assert got.coeffs == expected


def test_scalar_and_additive_structure(pd3):
    d1 = BurnsideElement.basis(pd3, 1)
    z3 = BurnsideElement.basis(pd3, 2)
    assert (d1 - d1).is_zero()
    assert 3 * d1 - d1 == 2 * d1
    assert -(d1 - z3) == z3 - d1
    assert (2 * d1).coefficient(1) == 2


def test_power(pd3s):
    x = B(pd3s, "D3^p") - B(pd3s, "D3")
    assert x ** 0 == BurnsideElement.unit(pd3s)
    assert x ** 1 == x
    assert x ** 2 == x * x
    assert x ** 5 == x * x * x * x * x
    with pytest.raises(ValidationError):
        x ** -1


def test_mixed_poset_rejected(pd3, pz2):
    with pytest.raises(ValidationError):
        BurnsideElement.basis(pd3, 0) + BurnsideElement.basis(pz2, 0)


def test_str_rendering(pd3):
    x = (BurnsideElement.basis(pd3, 3) - 2 * BurnsideElement.basis(pd3, 1))
    assert str(x) == "(D3) - 2*(D1)"
    assert str(BurnsideElement.zero(pd3)) == "0"


def test_coefficient_by_name(pd3s):
    x = B(pd3s, "D3^z") - B(pd3s, "D1")
    assert x.coefficient_by_name("D3^z") == 1
    assert x.coefficient_by_name("D1") == -1
    assert x.coefficient_by_name("Z3") == 0


@st.composite
def burnside_elements(draw, poset):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    coeffs = {}
    for _ in range(n_terms):
        i = draw(st.integers(min_value=0, max_value=len(poset) - 1))
        c = draw(st.integers(min_value=-3, max_value=3))
        coeffs[i] = coeffs.get(i, 0) + c
    return BurnsideElement(poset, coeffs)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_marks_round_trip_and_multiply_pointwise(data, pg72):
    x = data.draw(burnside_elements(pg72))
    y = data.draw(burnside_elements(pg72))
    assert BurnsideElement.from_marks(pg72, x.marks()) == x
    assert (x * y).marks() == [a * b for a, b in zip(x.marks(), y.marks())]


def test_from_marks_rejects_marks_outside_the_image(pg72):
    with pytest.raises(ValidationError, match=r"class Z1 x Z1"):
        BurnsideElement.from_marks(pg72, [1] + [0] * (len(pg72) - 1))


@pytest.mark.parametrize("marks", [[6.9, 0.5, 0, 0.99], [float("nan"), 0, 0, 0],
                                   [float("inf"), 0, 0, 0], ["6", 0, 0, 0],
                                   np.array([6.5, 0, 0, 0])])
def test_from_marks_rejects_marks_that_are_not_integers(pd3, marks):
    # truncating 6.9 would give (Z1); every such vector is outside the image
    with pytest.raises(ValidationError, match=r"at class Z1 is not an integer"):
        BurnsideElement.from_marks(pd3, marks)
    for exact in ([6, 0, 0, 0], np.array([6, 0, 0, 0]), [6.0, 0, 0, 0]):
        assert BurnsideElement.from_marks(pd3, exact) == B(pd3, "Z1")


@pytest.fixture(scope="module")
def bif_poset():
    # the bif-scan context: D3 x (D6 x Z2), |G| = 144
    group = direct_product(make_dihedral(3),
                           direct_product(make_dihedral(6), make_sign_group()))
    poset = subgroup_poset(group)
    assert len(poset) == 284
    return poset


def _dense_marks(poset, coeffs):
    """marks = n_table (x |W|), one dense product per row of coeffs."""
    weyl = np.array([c.weyl_order for c in poset.classes], dtype=np.int64)
    return (coeffs * weyl) @ poset.n_table.T


def test_solve_matches_the_dense_oracle_on_the_bif_scan_lattice(bif_poset):
    rng = np.random.default_rng(10)
    c = len(bif_poset)
    coeffs = rng.integers(-3, 4, size=(200, c))
    coeffs[rng.random((200, c)) < 0.8] = 0          # mostly sparse, some dense
    coeffs[:20] = rng.integers(-3, 4, size=(20, c))
    for x, marks in zip(coeffs, _dense_marks(bif_poset, coeffs)):
        expected = BurnsideElement(bif_poset, dict(enumerate(x.tolist())))
        assert BurnsideElement.from_marks(bif_poset, marks) == expected
        assert from_marks_dense(bif_poset, marks) == expected
        assert expected.marks() == marks.tolist()

    rejected = 0
    for x, marks in zip(coeffs[:100], _dense_marks(bif_poset, coeffs[:100])):
        bad = marks.tolist()
        bad[int(rng.integers(c))] += int(rng.integers(1, 4))
        outcomes = []
        for solve in (BurnsideElement.from_marks, from_marks_dense):
            try:
                outcomes.append(solve(bif_poset, bad))
            except ValidationError:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]
        rejected += outcomes[0] is None
    assert rejected > 50
    half = [v + 0.5 for v in _dense_marks(bif_poset, coeffs[:1])[0].tolist()]
    for solve in (BurnsideElement.from_marks, from_marks_dense):
        with pytest.raises(ValidationError, match="not an integer"):
            solve(bif_poset, half)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_ring_axioms(data, request):
    poset = subgroup_poset(direct_product(make_dihedral(3), make_sign_group()))
    a = data.draw(burnside_elements(poset))
    b = data.draw(burnside_elements(poset))
    c = data.draw(burnside_elements(poset))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
