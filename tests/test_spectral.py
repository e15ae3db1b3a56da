"""Spectral pipeline: spectra, counters, degrees, guarantees, parities."""

import gc
import json
import pathlib
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdeg.bifurcation import bifurcation_report, critical_values
from eqdeg.burnside import BurnsideElement
from eqdeg.cli import basic_degrees_doc, validate_config
from eqdeg.degrees import basic_degree, degree_for_character
from eqdeg.errors import InputError, ValidationError
from eqdeg.groups import MAX_FREQUENCIES, frequency_count
from eqdeg.reps import fixed_dims, maximal_orbit_types, time_irrep_indices
from eqdeg.spectral import (EigenvalueEntry, GammaSpec, ProblemConfig,
                            SpectralTable, block_dims, build_symmetry_context,
                            check_nondegeneracy, count_eta_rho,
                            eigenspace_character, existence_degree,
                            interpret, lambda_value, matrix_spectrum,
                            parity_predictions, spectral_table,
                            validate_problem)

from .conftest import case_config
from .oracles import closed_form_eta, fourier_mode_fixed_dims

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

SIGMA_M3 = [(0, -2, Fraction(-2)), (1, -2, Fraction(-17, 10)),
            (2, -2, Fraction(-14, 13)), (3, -2, Fraction(-1, 2)),
            (4, -2, Fraction(-2, 25)), (0, -0.5, Fraction(-1, 2)),
            (1, -0.5, Fraction(-7, 20)), (2, -0.5, Fraction(-1, 26))]

SIGMA_M4 = [(0, -2, Fraction(-2)), (1, -2, Fraction(-31, 17)),
            (2, -2, Fraction(-7, 5)), (3, -2, Fraction(-23, 25)),
            (4, -2, Fraction(-1, 2)), (5, -2, Fraction(-7, 41)),
            (0, -0.5, Fraction(-1, 2)), (1, -0.5, Fraction(-7, 17)),
            (2, -0.5, Fraction(-1, 5))]


def trivial_config(m, entries, **kwargs):
    spectrum = tuple((Fraction(x), mult) for x, mult in entries)
    k = sum(mult for _x, mult in entries)
    return ProblemConfig(m=m, k=k, spectrum=spectrum, **kwargs)


# ---------------------------------------------------------------------------
# configuration validation

def test_rejects_small_m():
    with pytest.raises(ValidationError):
        validate_problem(case_config(1))


def test_rejects_matrix_and_spectrum_together():
    cfg = case_config(3, spectrum=((Fraction(-2), 3),))
    with pytest.raises(ValidationError):
        validate_problem(cfg)


def test_rejects_spectrum_with_spatial_symmetry():
    cfg = ProblemConfig(m=3, k=3, gamma=GammaSpec(type="dihedral", n=3),
                        spectrum=((Fraction(-2), 3),))
    with pytest.raises(ValidationError):
        validate_problem(cfg)


def test_rejects_unknown_gamma_type():
    cfg = ProblemConfig(m=3, k=3, gamma=GammaSpec(type="wreath"),
                        a_matrix=((1.0,),))
    with pytest.raises(InputError):
        validate_problem(cfg)


def test_action_degree_must_match_k():
    cfg = ProblemConfig(m=3, k=4, gamma=GammaSpec(type="dihedral", n=3),
                        a_matrix=tuple((0.0,) * 4 for _ in range(4)))
    with pytest.raises(ValidationError):
        build_symmetry_context(cfg)


# ---------------------------------------------------------------------------
# symmetry context

def test_repeated_context_builds_keep_memory_flat():
    # a sweep builds fresh groups each call; whatever is cached must stay bounded
    cfg = case_config(4)
    tracemalloc.start()
    try:
        for _ in range(10):
            build_symmetry_context(cfg)
        gc.collect()
        after_10 = tracemalloc.get_traced_memory()[0]
        for _ in range(30):
            build_symmetry_context(cfg)
        gc.collect()
        after_40 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_40 - after_10 < 1_000_000


# ---------------------------------------------------------------------------
# spectrum of A

def test_matrix_spectrum_with_isotypic_split(ctx_m3):
    table = matrix_spectrum(ctx_m3.config, ctx_m3)
    assert [e.mult for e in table.eigenvalues] == [1, 2]
    assert abs(table.eigenvalues[0].mu + 2) < 1e-9
    assert abs(table.eigenvalues[1].mu + 0.5) < 1e-9
    assert table.eigenvalues[0].gamma_mults == (1, 0)
    assert table.eigenvalues[1].gamma_mults == (0, 1)


def test_exact_spectrum_bypasses_floating_point():
    cfg = trivial_config(3, [("-2", 1), ("-1/2", 2)])
    ctx = build_symmetry_context(cfg)
    table = matrix_spectrum(cfg, ctx)
    assert [e.mu_exact for e in table.eigenvalues] == \
        [Fraction(-2), Fraction(-1, 2)]
    assert [e.gamma_mults for e in table.eigenvalues] == [(1,), (2,)]


def test_exact_spectrum_multiplicities_must_sum_to_k():
    cfg = ProblemConfig(m=3, k=4, spectrum=((Fraction(-2), 1),
                                            (Fraction(-1, 2), 2)))
    ctx = build_symmetry_context(cfg)
    with pytest.raises(ValidationError):
        matrix_spectrum(cfg, ctx)


def test_close_eigenvalues_cluster():
    cfg = ProblemConfig(m=3, k=2,
                        a_matrix=((-1.0, 0.0), (0.0, -1.0 - 5e-8)))
    ctx = build_symmetry_context(cfg)
    table = matrix_spectrum(cfg, ctx)
    assert len(table.eigenvalues) == 1
    assert table.eigenvalues[0].mult == 2


def test_ambiguous_cluster_is_rejected():
    cfg = ProblemConfig(m=3, k=2,
                        a_matrix=((-1.0, 0.0), (0.0, -1.0 - 5e-7)))
    ctx = build_symmetry_context(cfg)
    with pytest.raises(ValidationError):
        matrix_spectrum(cfg, ctx)


def test_asymmetric_matrix_rejected():
    cfg = ProblemConfig(m=3, k=2, a_matrix=((-1.0, 0.5), (0.0, -1.0)))
    ctx = build_symmetry_context(cfg)
    with pytest.raises(ValidationError, match=r"\(A5\)"):
        matrix_spectrum(cfg, ctx)


def test_noncommuting_matrix_rejected():
    cfg = ProblemConfig(m=3, k=3, gamma=GammaSpec(type="dihedral", n=3),
                        a_matrix=((-1.0, 0.0, 0.0), (0.0, -2.0, 0.0),
                                  (0.0, 0.0, -3.0)))
    ctx = build_symmetry_context(cfg)
    with pytest.raises(ValidationError, match=r"\(A4\)"):
        matrix_spectrum(cfg, ctx)


# ---------------------------------------------------------------------------
# lambda, negative blocks, nondegeneracy

def test_lambda_value_is_exact_on_fractions():
    assert lambda_value(3, Fraction(-2), 3) == Fraction(-1, 2)
    assert lambda_value(0, Fraction(-1, 2), 3) == Fraction(-1, 2)
    assert lambda_value(4, Fraction(-2), 3) == Fraction(-2, 25)


@pytest.mark.parametrize("mu,m,expected", [
    (-2.0, 3, 4), (-0.5, 3, 2), (-2.0, 4, 5), (-0.5, 4, 2),
    (-2.0, 6, 8), (-0.5, 6, 4),
])
def test_j_max_values(mu, m, expected):
    # the negative blocks over mu are j = 0..j_max, j_max^2 < -m^2 mu
    cfg = trivial_config(m, [(str(mu), 1)])
    table = spectral_table(cfg, build_symmetry_context(cfg))
    assert [j for j, _mu, _lam in table.negative_lambdas] == \
        list(range(expected + 1))


@given(st.floats(-10.0, 5000.0))
@settings(max_examples=200, deadline=None)
def test_frequency_count_matches_the_loop(x):
    j = 0
    while j * j < x:
        j += 1
    assert frequency_count(x, "x") == j


def test_frequency_count_refuses_more_than_the_cap():
    assert frequency_count(MAX_FREQUENCIES ** 2, "x") == MAX_FREQUENCIES
    for x in (MAX_FREQUENCIES ** 2 + 0.5, 1e300, float("inf")):
        with pytest.raises(ValidationError, match="MAX_FREQUENCIES"):
            frequency_count(x, "x")


def test_j_max_needs_negative_eigenvalue():
    cfg = trivial_config(3, [("1/4", 1)])
    assert spectral_table(cfg, build_symmetry_context(cfg)).negative_lambdas == []


def test_nondegeneracy_scan_finds_zero_lambda():
    table = SpectralTable(eigenvalues=[EigenvalueEntry(-1.0, 1, (1,))])
    assert check_nondegeneracy(table, 3) == [(3, -1.0)]
    clean = SpectralTable(eigenvalues=[EigenvalueEntry(-2.0, 1, (1,))])
    assert check_nondegeneracy(clean, 3) == []


def test_degenerate_configuration_raises(ctx_m3):
    cfg = ProblemConfig(m=3, k=2, a_matrix=((-1.0, 0.0), (0.0, -1.0)))
    ctx = build_symmetry_context(cfg)
    with pytest.raises(ValidationError, match=r"\(A5\)"):
        spectral_table(cfg, ctx)


# ---------------------------------------------------------------------------
# negative spectrum and counters

@pytest.mark.parametrize("m,expected", [(3, SIGMA_M3), (4, SIGMA_M4)])
def test_negative_spectrum_values_and_order(m, expected, ctx_m3, ctx_m4):
    ctx = ctx_m3 if m == 3 else ctx_m4
    table = spectral_table(case_config(m), ctx)
    assert len(table.negative_lambdas) == len(expected)
    for (j, mu, lam), (ej, emu, elam) in zip(table.negative_lambdas, expected):
        assert j == ej
        assert abs(mu - emu) < 1e-9
        assert abs(lam - float(elam)) < 1e-9


def test_negative_spectrum_matches_brute_force(ctx_m4):
    cfg = case_config(4)
    table = spectral_table(cfg, ctx_m4)
    m = cfg.m
    found = {(j, round(e.mu, 9)) for e in table.eigenvalues
             for j in range(m * 5)
             if lambda_value(j, e.mu, m) < 0}
    listed = {(j, round(mu, 9)) for j, mu, _lam in table.negative_lambdas}
    assert found == listed


def test_eta_anchors(ctx_m3, ctx_m4):
    t3 = spectral_table(case_config(3), ctx_m3)
    assert t3.eta == {0: 4, 1: 7, 2: 1}
    t4 = spectral_table(case_config(4), ctx_m4)
    assert t4.eta == {0: 4, 1: 5, 2: 1, 3: 3, 4: 3}


def blocks_up_to(jmax, mult=1):
    """Table of one eigenvalue -1 whose negative blocks are j = 0..jmax."""
    table = SpectralTable(eigenvalues=[EigenvalueEntry(-1.0, mult, (mult,))])
    table.negative_lambdas = [(j, -1.0, 0.0) for j in range(jmax + 1)]
    return table


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=0, max_value=24),
       st.integers(min_value=1, max_value=3))
def test_beta_counts_match_fold_oracle(m, jm, mult):
    table = blocks_up_to(jm, mult)
    count_eta_rho(table, m)
    assert table.eta == closed_form_eta(m, jm, mult)


def test_rho_groups_planar_indices_by_gcd():
    table = blocks_up_to(7)
    count_eta_rho(table, 10)
    eta = table.eta
    assert table.rho[1] == table.rho[3] == eta[1] + eta[3]
    assert table.rho[2] == table.rho[4] == eta[2] + eta[4]
    assert table.rho[0] == eta[0]
    assert table.rho[5] == eta[5]       # z-character index passes through


# ---------------------------------------------------------------------------
# degrees and interpretation

def test_every_guarantee_has_nonzero_coefficient(ctx_m3, ctx_m4):
    for ctx, m in ((ctx_m3, 3), (ctx_m4, 4)):
        report = existence_degree(case_config(m), ctx)
        names = dict(report.nonzero_terms)
        for g in report.guarantees:
            assert names.get(g.orbit_type, 0) != 0
            assert g.orbit_type in report.maximal_orbit_types


def test_orbit_size_times_subgroup_order_is_group_order(ctx_m3):
    report = existence_degree(case_config(3), ctx_m3)
    for g in report.guarantees:
        idx = ctx_m3.poset.index_by_name(g.orbit_type)
        cls = ctx_m3.poset.classes[idx]
        assert g.orbit_size * cls.order == ctx_m3.group.order


def test_m3_guarantee_flags(ctx_m3):
    report = existence_degree(case_config(3), ctx_m3)
    flags = {g.orbit_type: (g.nonconstant, g.minimal_period_exceeds_base)
             for g in report.guarantees}
    assert flags == {"D3 x D3^z": (True, True),
                     "D1 x_{Z2}^{D3} D3^p": (False, True)}


def test_full_group_guarantee_is_constant(ctx_m3):
    unit = BurnsideElement.unit(ctx_m3.poset)
    out = interpret(ctx_m3, unit, [ctx_m3.poset.top_index])
    assert len(out) == 1
    assert out[0].orbit_size == 1
    assert not out[0].nonconstant


@pytest.mark.parametrize("m", [3, 4])
def test_degree_at_maximal_types_matches_fourier_mode_oracle(m, request):
    """Fixed dimensions, maximal types and guarantees from explicit modes.

    Acceptance criteria 7 and 9 pin the values checked here.  The
    existence degree has marks 1 - (-1)^{dim V^H} over the negative
    modes V and vanishes at (G), and no class between a maximal orbit
    type H of the function space and G is an orbit type, so its
    coefficient at H is (1 - (-1)^{dim V^H}) / |W(H)|.
    """
    ctx = request.getfixturevalue(f"ctx_m{m}")
    poset = ctx.poset
    report = existence_degree(case_config(m), ctx)
    table = report.table
    negative = [(j, mu) for j, mu, _lam in table.negative_lambdas]
    ambient = [(j, e.mu) for e in table.eigenvalues for j in range(2 * m + 1)]
    dims = []
    for modes in (negative, ambient):
        got = fourier_mode_fixed_dims(ctx, modes)
        char = sum(eigenspace_character(ctx, j, table.entry(mu))
                   for j, mu in modes)
        assert got.tolist() == fixed_dims(poset, char).tolist()
        dims.append(got)
    neg, amb = dims

    above = [set(np.flatnonzero(poset.leq[i]).tolist()) - {i}
             for i in range(len(poset))]
    types = {i for i in range(len(poset))
             if amb[i] > 0 and all(amb[k] < amb[i] for k in above[i])}
    maximal = {i for i in types if not types & above[i]}
    assert {poset.classes[i].name for i in maximal} == \
        set(report.maximal_orbit_types)

    for i in maximal:
        weyl = poset.classes[i].weyl_order
        assert Fraction(1 - (-1) ** int(neg[i]), weyl) == \
            report.degree.coefficient(i), poset.classes[i].name
    sizes = sorted(ctx.group.order // poset.classes[i].order
                   for i in maximal if neg[i] % 2)
    assert sizes == sorted(g.orbit_size for g in report.guarantees)


def test_product_part_involution_and_parity_reduction():
    cfg = trivial_config(6, [("-2", 1), ("-1/2", 1)])
    ctx = build_symmetry_context(cfg)
    report = existence_degree(cfg, ctx)
    unit = BurnsideElement.unit(ctx.poset)
    assert report.product_part * report.product_part == unit
    reduced = unit
    for i in time_irrep_indices(6):
        if report.table.eta[i] % 2:
            reduced = reduced * basic_degree(ctx.poset, ctx.minus[i, 0])
    assert report.product_part == reduced


def test_parity_predictions_m6():
    cfg = trivial_config(6, [("-2", 1), ("-1/2", 1)])
    ctx = build_symmetry_context(cfg)
    report = existence_degree(cfg, ctx)
    preds = parity_predictions(report.table, 6)
    assert [p.candidates for p in preds] == \
        [("D6",), ("D6^z",), ("D2^z", "D6^z")]
    names = dict(report.nonzero_terms)
    for p in preds:
        assert any(names.get(c, 0) != 0 for c in p.candidates), p


def test_parity_predictions_dyadic_pair():
    # eta odd at the planar index 1 = 4/2^2 forces both twisted classes
    table = blocks_up_to(1)
    count_eta_rho(table, 4)
    assert table.rho[1] % 2 == 1
    preds = parity_predictions(table, 4)
    flat = [p.candidates for p in preds]
    assert ("D2^d",) in flat
    assert ("~D2^d",) in flat


def test_maximal_orbit_types_trivial_symmetry():
    expected = {
        3: {"D3", "D3^z"},
        4: {"D4", "D4^z", "D4^d", "D4^dh", "D2^d", "~D2^d"},
        5: {"D5", "D5^z"},
        6: {"D6", "D6^z", "D6^d", "D6^dh"},
        8: {"D8", "D8^z", "D8^d", "D8^dh", "D4^d", "~D4^d", "D2^d", "~D2^d"},
        12: {"D12", "D12^z", "D12^d", "D12^dh", "D6^d", "~D6^d"},
    }
    for m, names in expected.items():
        cfg = trivial_config(m, [("-2", 1)])
        ctx = build_symmetry_context(cfg)
        char = np.zeros(ctx.group.order)
        for i in time_irrep_indices(m):
            char += ctx.minus[i, 0].character
        found = {ctx.poset.classes[i].name
                 for i in maximal_orbit_types(ctx.poset,
                                              fixed_dims(ctx.poset, char))}
        assert found == names, m


def test_m3_maximal_orbit_types_of_function_space(ctx_m3):
    report = existence_degree(case_config(3), ctx_m3)
    assert set(report.maximal_orbit_types) == {
        "D3 x D3", "D3 x D3^z",
        "D1 x_{Z2}^{D3} D3^p", "D1 x_{Z2}^{D3^z} D3^p"}


# ---------------------------------------------------------------------------
# the integer fixed-dimension table

def _config(name):
    if name == "doubled":   # an eigenvalue of multiplicity 2
        return validate_config({"m": 4, "k": 3,
                                "spectrum": [["-2", 2], ["-1/2", 1]]})
    return validate_config(json.loads((CONFIGS / f"{name}.json").read_text()))


def _refuse(*_args, **_kwargs):
    raise AssertionError("a character was summed after the context was built")


@pytest.mark.parametrize("name", ["m3_d3", "m4_d3", "m6_trivial", "doubled"])
def test_requests_after_the_context_stay_integer(name, monkeypatch):
    config, window = _config(name)
    ctx = build_symmetry_context(config)

    def reports():
        return (existence_degree(config, ctx).degree, basic_degrees_doc(ctx),
                [inv.omega for inv in bifurcation_report(config, ctx, window).invariants])

    expected = reports()
    assert expected[2]
    originals = (fixed_dims, eigenspace_character)
    for module_name, module in list(sys.modules.items()):
        if module_name == "eqdeg" or module_name.startswith("eqdeg."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, attr, _refuse)
    assert sys.modules["eqdeg.reps"].fixed_dims is _refuse
    assert reports() == expected


@pytest.mark.parametrize("name", ["m3_d3", "m4_d3", "m6_trivial", "doubled"])
def test_dims_table_matches_summed_characters(name):
    config, window = _config(name)
    ctx = build_symmetry_context(config)
    poset = ctx.poset
    table = spectral_table(config, ctx)

    def by_characters(blocks):
        return fixed_dims(poset, sum(eigenspace_character(ctx, j, e)
                                     for j, e in blocks)).tolist()

    for j, mu, _lam in table.negative_lambdas:
        entry = table.entry(mu)
        assert block_dims(ctx, j, entry).tolist() == by_characters([(j, entry)])
    points = critical_values(ctx, table, window)
    assert points
    for point in points:
        blocks = [(j, table.entry(mu)) for j, mu in point.contributions]
        assert sum(block_dims(ctx, j, e) for j, e in blocks).tolist() == \
            by_characters(blocks)
    ambient = sum(irrep.character for irrep in ctx.minus.values())
    assert ctx.maximal_types == maximal_orbit_types(poset, fixed_dims(poset, ambient))
