"""Critical values and local invariants along the trivial branch."""

import importlib.util
import json
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from eqdeg.bifurcation import (bifurcation_report, critical_values,
                               local_invariant)
from eqdeg.burnside import BurnsideElement
from eqdeg.cli import validate_config
from eqdeg.degrees import degree_for_character
from eqdeg.errors import ValidationError
from eqdeg.spectral import (ProblemConfig, build_symmetry_context,
                            existence_degree, matrix_spectrum)

from . import oracles
from .conftest import case_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ALPHAS_M3 = [Fraction(-2), Fraction(-17, 9), Fraction(-14, 9), Fraction(-1),
             Fraction(-1, 2), Fraction(-7, 18), Fraction(-2, 9),
             Fraction(-1, 18)]


@pytest.fixture(scope="module")
def m3_data(ctx_m3):
    cfg = case_config(3)
    table = matrix_spectrum(cfg, ctx_m3)
    return cfg, ctx_m3, table


def test_critical_values_m3(m3_data):
    _cfg, ctx, table = m3_data
    points = critical_values(ctx, table)
    assert len(points) == len(ALPHAS_M3)
    for p, expected in zip(points, ALPHAS_M3):
        assert abs(p.alpha - float(expected)) < 1e-9
        assert len(p.contributions) == 1
    # alpha = (j^2 + m^2 mu) / m^2 for each contribution
    for p in points:
        for j, mu in p.contributions:
            assert abs(p.alpha - (mu + j * j / 9)) < 1e-9


def test_first_invariant_is_unit_minus_first_block(m3_data):
    _cfg, ctx, table = m3_data
    points = critical_values(ctx, table)
    inv = local_invariant(ctx, table, points[0])
    direct = BurnsideElement.unit(ctx.poset) - degree_for_character(
        ctx.poset, ctx.minus[0, 0].character)
    assert inv.omega == direct
    assert inv.omega.to_pairs() == [("D3 x D3", 1)]


def test_telescoping_sign_flip(m3_data):
    # consecutive crossings of the same planar irrep negate the invariant
    _cfg, ctx, table = m3_data
    points = critical_values(ctx, table)
    inv1 = local_invariant(ctx, table, points[1])
    inv2 = local_invariant(ctx, table, points[2])
    assert dict(inv2.omega.to_pairs()) == \
        {name: -c for name, c in inv1.omega.to_pairs()}


def test_window_truncation_preserves_invariants(m3_data):
    cfg, ctx, table = m3_data
    full = bifurcation_report(cfg, ctx)
    narrow = bifurcation_report(cfg, ctx, window=(-1.6, 0.0))
    assert 0 < len(narrow.invariants) < len(full.invariants)
    by_alpha = {round(inv.point.alpha, 9): inv for inv in full.invariants}
    for inv in narrow.invariants:
        match = by_alpha[round(inv.point.alpha, 9)]
        assert inv.omega == match.omega


def test_empty_window_yields_empty_report(m3_data):
    cfg, ctx, _table = m3_data
    report = bifurcation_report(cfg, ctx, window=(-10.0, -9.0))
    assert report.invariants == []


def test_degenerate_window_is_rejected(m3_data):
    _cfg, ctx, table = m3_data
    with pytest.raises(ValidationError):
        critical_values(ctx, table, window=(0.0, 0.0))


def test_odd_crossings_force_nonzero_invariants(m3_data):
    cfg, ctx, _table = m3_data
    report = bifurcation_report(cfg, ctx)
    odd = [inv for inv in report.invariants if inv.odd_crossing]
    assert len(odd) == 5       # the five crossings of the simple eigenvalue
    for inv in odd:
        assert inv.nonzero


def test_even_multiplicity_crossings_vanish():
    cfg = ProblemConfig(m=3, k=3, spectrum=((Fraction(-2), 1),
                                            (Fraction(-1, 2), 2)))
    ctx = build_symmetry_context(cfg)
    report = bifurcation_report(cfg, ctx)
    for inv in report.invariants:
        doubled = all(v % 2 == 0
                      for _k, v in inv.point.crossing_multiplicities)
        assert inv.nonzero == (not doubled)
        if inv.point.alpha_exact is not None:
            assert abs(float(inv.point.alpha_exact) - inv.point.alpha) < 1e-12


def assert_matches_reference(cfg, ctx, table):
    """Every omega of the report equals the from-scratch reference."""
    for inv in bifurcation_report(cfg, ctx).invariants:
        assert inv.omega == oracles.bifurcation_reference(
            ctx, table, inv.point, cfg.tolerance), inv.point.alpha


def test_coincident_crossings_merge_and_strict_mode_rejects():
    cfg = ProblemConfig(m=2, k=2, spectrum=((Fraction(-2), 1),
                                            (Fraction(-1), 1)))
    ctx = build_symmetry_context(cfg)
    table = matrix_spectrum(cfg, ctx)
    points = critical_values(ctx, table)
    merged = [p for p in points if len(p.contributions) > 1]
    assert len(merged) == 1    # alpha(2, -2) = alpha(0, -1) = -1
    assert merged[0].contributions == ((2, -2.0), (0, -1.0))
    assert not merged[0].simple
    assert merged[0].alpha_exact == Fraction(-1)
    local_invariant(ctx, table, merged[0])      # permissive mode works
    assert_matches_reference(cfg, ctx, table)
    with pytest.raises(ValidationError):
        local_invariant(ctx, table, merged[0], strict=True)


def test_shortcut_cross_check_runs_in_report(m3_data):
    cfg, ctx, table = m3_data
    assert_matches_reference(cfg, ctx, table)
    report = bifurcation_report(cfg, ctx)
    for inv in report.invariants:
        if inv.odd_crossing:
            assert inv.nonzero
        assert inv.nonzero == bool(inv.branch_types)


def test_report_merges_with_the_tolerance_of_its_config():
    # the context was built at the default tolerance; the report must
    # still merge critical values at the tolerance it is given
    spectrum = ((Fraction(-1), 1), (Fraction(-199, 200), 1))
    cfg = ProblemConfig(m=3, k=2, spectrum=spectrum, tolerance=1e-2)
    shared = build_symmetry_context(ProblemConfig(m=3, k=2, spectrum=spectrum))
    own = bifurcation_report(cfg)
    assert len(own.invariants) == 3
    assert [(inv.point.contributions, inv.branch_types)
            for inv in bifurcation_report(cfg, shared).invariants] == \
        [(inv.point.contributions, inv.branch_types) for inv in own.invariants]



def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bif_scan_outputs_match_the_benchmark_reference():
    # the benchmark's own stream, context and checks, on 30 of its matrices
    workloads = _perfbench_module("workloads")
    checks = _perfbench_module("checks")
    reference = json.loads((PERFBENCH / "reference" / "bif_scan.json")
                           .read_text(encoding="utf-8"))
    requests = [req for block in islice(workloads.bif_blocks(10), 3)
                for req in block]
    assert len({key for key, _raw in requests}) == 30
    ctx = build_symmetry_context(validate_config(requests[0][1])[0])
    assert len(ctx.poset) == 284
    for key, raw in requests:
        config = validate_config(raw)[0]
        report = bifurcation_report(config, ctx)
        assert checks.report_digest(report) == reference[key], key
        degree = existence_degree(config, ctx)
        assert checks.mark_identity_holds(ctx, degree.table,
                                          degree.degree.coeffs), key
