"""Irreps, frequency folding, fixed points and orbit types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdeg.errors import ValidationError
from eqdeg.groups import (
    dihedral_rotation_action,
    direct_product,
    make_dihedral,
    make_permutation_group,
    make_sign_group,
)
from eqdeg.lattice import subgroup_poset
from eqdeg.reps import (
    fixed_dims,
    fixed_point_dim,
    fold_frequency,
    gamma_irreps_in,
    isotypic_multiplicity,
    maximal_orbit_types,
    minus_irrep,
    orbit_types_of_character,
    time_irrep,
    time_irreps,
    trivial_gamma_irrep,
)

from .oracles import isotropy_oracle


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_time_irreps_are_homomorphisms(m):
    d = make_dihedral(m)
    rng = np.random.default_rng(m)
    for r in time_irreps(m):
        for _ in range(10):
            g, h = rng.integers(0, d.order, 2)
            assert np.allclose(r.matrix(int(g)) @ r.matrix(int(h)),
                               r.matrix(d.mul(int(g), int(h))), atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_time_irrep_character_orthonormality(m):
    irs = time_irreps(m)
    n = 2 * m
    for a in irs:
        for b in irs:
            inner = float(a.character @ b.character) / n
            assert abs(inner - (1.0 if a is b else 0.0)) < 1e-9


def test_time_irrep_count_and_dims():
    assert [(r.label, r.dim) for r in time_irreps(3)] == \
        [("V0", 1), ("V1", 2), ("V2", 1)]
    assert [(r.label, r.dim) for r in time_irreps(4)] == \
        [("V0", 1), ("V1", 2), ("V2", 1), ("V3", 1), ("V4", 1)]
    assert [(r.label, r.dim) for r in time_irreps(12)] == \
        [("V0", 1), ("V1", 2), ("V2", 2), ("V3", 2), ("V4", 2),
         ("V5", 2), ("V6", 1), ("V7", 1), ("V8", 1)]


def test_fold_frequency_small_cases():
    assert fold_frequency(0, 3) == [0]
    assert fold_frequency(1, 3) == [1]
    assert fold_frequency(2, 3) == [1]
    assert fold_frequency(3, 3) == [0, 2]
    assert fold_frequency(4, 3) == [1]
    assert fold_frequency(2, 4) == [3, 4]
    assert fold_frequency(4, 4) == [0, 2]
    assert fold_frequency(6, 4) == [3, 4]
    assert fold_frequency(5, 4) == [1]
    assert fold_frequency(1, 1) == [0, 1]
    with pytest.raises(ValidationError):
        fold_frequency(-1, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8])
def test_fold_frequency_matches_fourier_block(m):
    """The folded irreps must reproduce the action on span{cos jt, sin jt}."""
    for j in range(0, 3 * m + 1):
        chars = sum(time_irrep(m, i).character for i in fold_frequency(j, m))
        if j == 0:
            # constants only: the sine line is absent
            block = np.ones(2 * m)
        else:
            block = np.zeros(2 * m)
            for g in range(2 * m):
                a, refl = (g, False) if g < m else (g - m, True)
                phi = 2.0 * np.pi * j * a / m
                rot = np.array([[np.cos(phi), np.sin(phi)],
                                [-np.sin(phi), np.cos(phi)]])
                if refl:
                    rot = rot @ np.diag([1.0, -1.0])
                block[g] = np.trace(rot)
        assert np.allclose(chars, block, atol=1e-9), (m, j)


def test_gamma_irreps_dihedral_standard_action():
    gs = gamma_irreps_in(dihedral_rotation_action(make_dihedral(3)))
    assert [(g.label, g.dim, g.norm_sq) for g in gs] == [("U0", 1, 1), ("U1", 2, 1)]
    assert np.allclose(gs[0].character, np.ones(6))
    fixed = np.array([3, 0, 0, 1, 1, 1])   # points fixed by each element
    assert np.allclose(gs[1].character, fixed - 1, atol=1e-6)


def test_gamma_irreps_dihedral4_multiplicities():
    act = dihedral_rotation_action(make_dihedral(4))
    gs = gamma_irreps_in(act)
    assert [g.dim for g in gs] == [1, 1, 2]
    perm_char = np.array([np.trace(act.matrix(g)) for g in range(8)])
    mults = [isotypic_multiplicity(g, perm_char) for g in gs]
    assert mults == [1, 1, 1]
    assert sum(m * g.dim for m, g in zip(mults, gs)) == 4


def test_gamma_irreps_symmetric_group_action():
    group, act = make_permutation_group(3, [[1, 0, 2], [0, 2, 1]], name="S3")
    gs = gamma_irreps_in(act)
    assert [g.dim for g in gs] == [1, 2]


def test_gamma_irreps_cyclic_rotation_is_complex_type():
    group, act = make_permutation_group(4, [[1, 2, 3, 0]], name="C4")
    gs = gamma_irreps_in(act)
    assert [(g.dim, g.norm_sq) for g in gs] == [(1, 1), (1, 1), (2, 2)]


def test_gamma_irrep_matrices_are_homomorphisms():
    act = dihedral_rotation_action(make_dihedral(4))
    group = act.group
    rng = np.random.default_rng(3)
    for rep in gamma_irreps_in(act):
        if rep.basis is None:
            continue
        for _ in range(12):
            g, h = rng.integers(0, group.order, 2)
            assert np.allclose(rep.matrix(int(g)) @ rep.matrix(int(h)),
                               rep.matrix(group.mul(int(g), int(h))), atol=1e-9)


def test_trivial_gamma_multiplicity_is_dimension():
    triv = trivial_gamma_irrep()
    assert isotypic_multiplicity(triv, np.array([5.0])) == 5


def test_isotypic_multiplicity_rejects_non_integral():
    triv = trivial_gamma_irrep()
    with pytest.raises(ValidationError):
        isotypic_multiplicity(triv, np.array([2.5]))


def test_fixed_point_dim_integrality_guard():
    with pytest.raises(ValidationError):
        fixed_point_dim(np.array([1.0, 0.5]), np.array([0, 1]))


def test_fixed_dims_match_fixed_point_dim(ctx_m3):
    poset = ctx_m3.poset
    char = sum(ctx_m3.minus[i, l].character for i in (0, 1, 2) for l in (0, 1))
    assert fixed_dims(poset, char).tolist() == \
        [fixed_point_dim(char, c.ids) for c in poset.classes]
    with pytest.raises(ValidationError):
        fixed_dims(poset, np.full(poset.group.order, 0.5))


def test_minus_irrep_character_and_fixed_points():
    b = direct_product(make_dihedral(3), make_sign_group())
    poset = subgroup_poset(b)
    v0 = minus_irrep(b, trivial_gamma_irrep(), time_irrep(3, 0))
    assert v0.label == "V0-"
    full_time = poset.classes[poset.index_by_name("D3")].ids
    assert fixed_point_dim(v0.character, full_time) == 1
    whole = poset.classes[poset.top_index].ids
    assert fixed_point_dim(v0.character, whole) == 0


def test_orbit_types_of_planar_minus_irrep():
    b = direct_product(make_dihedral(3), make_sign_group())
    poset = subgroup_poset(b)
    v1 = minus_irrep(b, trivial_gamma_irrep(), time_irrep(3, 1))
    names = [poset.classes[i].name for i in orbit_types_of_character(poset, v1.character)]
    assert names == ["Z1", "D1", "D1^z"]
    maximal = [poset.classes[i].name
               for i in maximal_orbit_types(poset, v1.character)]
    assert maximal == ["D1", "D1^z"]


def test_isotropy_oracle_agrees_with_orbit_types():
    b = direct_product(make_dihedral(3), make_sign_group())
    poset = subgroup_poset(b)
    irreps = [minus_irrep(b, trivial_gamma_irrep(), time_irrep(3, i))
              for i in (0, 1, 2)]
    char = sum(r.character for r in irreps)
    claimed = set(orbit_types_of_character(poset, char))
    sampled = isotropy_oracle(poset, irreps)
    assert sampled <= claimed | {poset.top_index}
    assert set(maximal_orbit_types(poset, char)) <= sampled


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_folded_dimensions(m, j):
    total = sum(time_irrep(m, i).dim for i in fold_frequency(j, m))
    assert total == (1 if j == 0 else 2)
