"""Subgroup enumeration, conjugacy classes and containment counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdeg.errors import ValidationError
from eqdeg.groups import (FiniteGroup, direct_product, make_cyclic, make_dihedral,
                          make_permutation_group, make_sign_group)
from eqdeg.lattice import SubgroupPoset, subgroup_poset
from eqdeg.reps import split_ids

from . import oracles


@pytest.fixture(scope="module")
def d3s():
    return subgroup_poset(direct_product(make_dihedral(3), make_sign_group()))


@pytest.fixture(scope="module")
def d4s():
    return subgroup_poset(direct_product(make_dihedral(4), make_sign_group()))


@pytest.fixture(scope="module")
def g72():
    b = direct_product(make_dihedral(3), make_sign_group())
    return subgroup_poset(direct_product(make_dihedral(3), b))


def names(poset):
    return [c.name for c in poset.classes]


def all_subgroups(group):
    return {frozenset(np.flatnonzero(row).tolist())
            for c in subgroup_poset(group).classes for row in c.orbit_masks}


@pytest.mark.parametrize("group,max_gens", [
    (make_dihedral(3), 2),
    (make_dihedral(4), 3),
    (make_dihedral(6), 3),
    (make_cyclic(12), 1),
    (direct_product(make_dihedral(3), make_sign_group()), 3),
    (direct_product(make_dihedral(4), make_sign_group()), 3),
    (direct_product(make_dihedral(6), make_sign_group()), 3),
    (direct_product(make_dihedral(3), make_dihedral(3)), 3),
    (direct_product(make_sign_group(), make_dihedral(3)), 3),
], ids=lambda x: getattr(x, "name", x))
def test_enumeration_matches_brute_force(group, max_gens):
    brute = oracles.brute_force_subgroups(group, max_gens=max_gens)
    assert all_subgroups(group) == brute


def _base(m):
    return direct_product(make_dihedral(m), make_sign_group())


@pytest.mark.parametrize("group", [
    direct_product(make_dihedral(3), _base(3)),
    direct_product(make_dihedral(3), _base(4)),
    direct_product(make_dihedral(2), _base(2)),
    _base(30),
    direct_product(make_permutation_group(4, [[1, 2, 3, 0]])[0], _base(2)),
], ids=lambda g: f"{g.name}:{g.order}")
def test_pruned_sweep_matches_unpruned_oracle(group):
    poset = SubgroupPoset(group)
    classes, n_table = oracles.unpruned_lattice(group)
    assert names(poset) == [name for name, *_ in classes]
    for cls, (_name, rep, orbit, k, weyl) in zip(poset.classes, classes):
        assert np.array_equal(cls.ids, rep)
        assert np.array_equal(cls.orbit_masks.nonzero()[1].reshape(orbit.shape), orbit)
        assert (cls.n_conjugates, cls.weyl_order) == (k, weyl)
    assert np.array_equal(poset.n_table, n_table)
    # the solve's sparse columns: the nonzero n(L, H), as python ints, kept
    for h in range(len(poset)):
        below = poset.below(h)
        assert below == [(l, int(n_table[l, h])) for l in np.flatnonzero(n_table[:, h])]
        assert all(type(l) is int and type(n) is int for l, n in below)
        assert poset.below(h) is below


@pytest.mark.parametrize("group,n_classes", [
    (_base(3), 10),
    (direct_product(make_dihedral(3), _base(3)), 69),
], ids=lambda x: getattr(x, "name", x))
def test_sweep_closes_only_inside_the_sign_kernel(group, n_classes, monkeypatch):
    # the sweep runs on K = Gamma x D_m; the rest is lifted from its classes
    gens = []
    closure = FiniteGroup.subgroup_generated

    def recording(self, ids):
        gens.extend(int(i) for i in ids)
        return closure(self, ids)

    monkeypatch.setattr(FiniteGroup, "subgroup_generated", recording)
    poset = SubgroupPoset(group)
    assert gens
    assert not split_ids(np.array(gens), 3)[2].any()
    assert len(poset) == n_classes


def test_d3_classes():
    p = subgroup_poset(make_dihedral(3))
    assert names(p) == ["Z1", "D1", "Z3", "D3"]
    assert [c.n_conjugates for c in p.classes] == [1, 3, 1, 1]
    assert [c.weyl_order for c in p.classes] == [6, 1, 2, 1]


def test_d4_classes_with_reflection_parity():
    p = subgroup_poset(make_dihedral(4))
    assert names(p) == ["Z1", "D1", "Z2", "~D1", "D2", "~D2", "Z4", "D4"]


def test_d3_sign_class_names(d3s):
    assert set(names(d3s)) == {"Z1", "Z1^p", "D1", "D1^z", "Z3", "D1^p",
                               "Z3^p", "D3", "D3^z", "D3^p"}


def test_class_counts_for_case_study_groups(d3s, d4s, g72):
    assert len(d3s) == 10
    assert len(g72) == 69
    b4 = direct_product(make_dihedral(4), make_sign_group())
    g96 = subgroup_poset(direct_product(make_dihedral(3), b4))
    assert len(g96) == 236


def test_canonical_order_and_unique_names(g72):
    orders = [c.order for c in g72.classes]
    assert orders == sorted(orders)
    assert len(set(names(g72))) == len(names(g72))
    assert g72.classes[0].order == 1
    assert g72.classes[-1].order == g72.group.order


def test_named_twisted_classes(d4s):
    g = d4s.group
    r, s = 2, 8          # ids of (r,+1) and (s,+1); sign bit is the low bit
    rt = 3               # (r,-1)
    st = 9               # (s,-1)
    cases = [
        ([r], "Z4"),
        ([rt], "Z4^d"),
        ([st], "D1^z"),
        ([g.mul(r, r), s], "D2"),
        ([g.mul(r, r), g.mul(r, s)], "~D2"),
        ([rt, s], "D4^d"),
        ([rt, g.mul(r, s)], "D4^dh"),
        ([r, st], "D4^z"),
        ([r, s, 1], "D4^p"),
    ]
    for gens, expected in cases:
        idx = oracles.index_of_subgroup(d4s, g.subgroup_generated(gens))
        assert d4s.classes[idx].name == expected


def test_amalgamated_subgroup_names(g72):
    g = g72.group
    # graph of D1 -> Z2 paired with the sign of the right factor
    amalgam = g.subgroup_generated([2, 6, 37])
    assert amalgam.size == 12
    assert g72.classes[oracles.index_of_subgroup(g72, amalgam)].name == \
        "D1 x_{Z2}^{D3} D3^p"
    # full left factor times a twisted right dihedral
    twisted = g.subgroup_generated([12, 36, 2, 7])
    assert twisted.size == 36
    assert g72.classes[oracles.index_of_subgroup(g72, twisted)].name == \
        "D3 x D3^z"
    for name in ["D3 x D3", "D3 x D1^z", "D3 x D1", "D1 x D3", "Z1 x D3",
                 "D1 x D1", "D1 x_{Z2}^{D3} D3^p"]:
        g72.index_by_name(name)


def test_n_table_against_direct_count(d4s):
    g = d4s.group
    brute = oracles.brute_force_subgroups(g, max_gens=3)
    classes = oracles.subgroup_conjugacy_classes(g, brute)
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, len(d4s), size=(40, 2))
    for i, j in pairs:
        small = frozenset(int(x) for x in d4s.classes[i].ids)
        large = frozenset(int(x) for x in d4s.classes[j].ids)
        assert d4s.n_table[i, j] == oracles.count_conjugates_containing(
            g, small, large)


def test_n_table_diagonal_and_lagrange(g72):
    c = len(g72)
    for i in range(c):
        assert g72.n_table[i, i] == 1
    for i in range(c):
        for j in range(c):
            if g72.leq[i, j]:
                assert g72.classes[j].order % g72.classes[i].order == 0


def test_leq_is_a_partial_order(d3s):
    leq = d3s.leq
    c = len(d3s)
    assert np.all(np.diag(leq))
    for i in range(c):
        for j in range(c):
            for k in range(c):
                if leq[i, j] and leq[j, k]:
                    assert leq[i, k]
            if i != j and leq[i, j] and leq[j, i]:
                pytest.fail("antisymmetry violated")


def test_weyl_times_conjugates_divides_group(g72):
    n = g72.group.order
    for c in g72.classes:
        assert c.weyl_order * c.order * c.n_conjugates == n


def test_index_of_subgroup_handles_conjugates(d3s):
    g = d3s.group
    for c in d3s.classes:
        for h in range(0, g.order, 3):
            moved = frozenset(oracles.conjugate_subgroup(
                g, frozenset(int(x) for x in c.ids), h))
            assert oracles.index_of_subgroup(d3s, moved) == c.index


def test_index_of_subgroup_rejects_non_subgroup(d3s):
    with pytest.raises(ValidationError):
        oracles.index_of_subgroup(d3s, [0, 2])  # {(e,+1), (r,+1)} is not closed


def test_maximal_elements(d3s):
    top = d3s.top_index
    assert d3s.maximal_elements(range(len(d3s))) == [top]
    proper = [i for i in range(len(d3s)) if i != top]
    maxima = d3s.maximal_elements(proper)
    for i in proper:
        assert any(d3s.leq[i, m] for m in maxima)


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_dihedral_lattices_match_brute_force(n):
    group = make_dihedral(n)
    brute = oracles.brute_force_subgroups(group, max_gens=3)
    assert all_subgroups(group) == brute
