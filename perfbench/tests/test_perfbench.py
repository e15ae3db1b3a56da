"""Self-tests of the benchmark: generators, output checks, metric names.

Run from the repo root with the package on the path:
    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from eqdeg.cli import validate_config  # noqa: E402
from eqdeg.spectral import (build_symmetry_context,  # noqa: E402
                            existence_degree, spectral_table)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def take(blocks, n):
    return [next(blocks) for _ in range(n)]


@pytest.fixture(scope="module")
def d3_ctx():
    # the spatial part of a context does not depend on m, so the smallest
    # group serves every D3 matrix the generators draw
    return build_symmetry_context(
        validate_config(wl.d3_config(2, 1, 2))[0])


@pytest.mark.parametrize("make", [wl.sweep_blocks, wl.bif_blocks,
                                  wl.cli_passes])
def test_generators_repeat_per_seed(make):
    assert take(make(7), 60) == take(make(7), 60)
    assert take(make(7), 60) != take(make(8), 60)


def test_sweep_blocks_have_fixed_composition():
    for block in take(wl.sweep_blocks(3), 20):
        groups = sorted((raw["gamma"]["type"], raw["m"]) for _k, raw in block)
        assert groups == sorted(
            [("trivial", m) for m in wl.SWEEP_TRIVIAL_M]
            + [("dihedral", m) for m in wl.SWEEP_D3_M])


def test_bif_scan_draws_distinct_matrices_until_the_pool_is_used():
    pool = len(wl.bif_pool())
    keys = [k for block in take(wl.bif_blocks(5), pool // wl.BIF_BLOCK)
            for k, _raw in block]
    assert len(set(keys)) == len(keys) == pool - pool % wl.BIF_BLOCK


def _assert_nondegenerate(raw, ctx):
    config = validate_config(raw)[0]
    table = spectral_table(config, ctx)    # raises on (A5) or clustering
    assert len(table.eigenvalues) == (2 if raw["gamma"]["type"] != "trivial"
                                      else config.k)


def test_sweep_draws_are_never_degenerate(d3_ctx):
    for block in take(wl.sweep_blocks(11), 30):
        for _key, raw in block:
            ctx = d3_ctx if raw["gamma"]["type"] == "dihedral" else None
            _assert_nondegenerate(raw, ctx)


def test_bif_pool_is_never_degenerate(d3_ctx):
    for p, q in wl.bif_pool():
        _assert_nondegenerate(wl.d3_config(wl.BIF_M, p, q), d3_ctx)


def test_mark_identity_rejects_a_flipped_coefficient():
    config = validate_config(wl.trivial_config(3, [4, 13]))[0]
    ctx = build_symmetry_context(config)
    report = existence_degree(config, ctx)
    coeffs = dict(report.degree.coeffs)
    assert checks.mark_identity_holds(ctx, report.table, coeffs)
    for idx in coeffs:
        flipped = {**coeffs, idx: -coeffs[idx]}
        assert not checks.mark_identity_holds(ctx, report.table, flipped)


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_printed_metrics_are_the_declared_ones():
    results = [{"key": str(i), "block": i // 2, "latency_s": 0.1 * (i + 1),
                "ok": True, "error": None, "points": 0} for i in range(6)]
    res = {"results": results, "peak_rss_mb": 40.0, "probes": [0.004]}
    e2e = run.end_to_end_metrics([1.0, 2.0, 3.0], res, 2.0)
    assert set(e2e) == set(run.END_TO_END)
    assert e2e["p50_ms"] == pytest.approx(700.0)    # blocks of two, scaled
    assert e2e["setup_s"] == pytest.approx(4.0)
    trace = {"spans": [["request", 0.0, 1.0, -1, 0, None]], "counts": {},
             "max_order": 0}
    assert set(run.per_layer_metrics(trace, res, res)) == set(run.PER_LAYER)


def test_self_times_subtract_child_spans():
    spans = [["request", 0.0, 10.0, -1, 0, None],
             ["lattice", 1.0, 5.0, 0, 0, 48],
             ["naming", 2.0, 3.0, 1, 0, None],
             ["degrees", 6.0, 8.0, 0, 0, None]]
    own = tr.self_times(spans)
    assert (own["request"], own["lattice"], own["naming"],
            own["degrees"]) == (4.0, 3.0, 1.0, 2.0)
    assert tr.lattice_by_order(spans) == {48: (3.0, 1)}
    assert tr.nesting_errors(spans) == []
    spans.append(["naming", 9.0, 11.0, 0, 0, None])
    assert len(tr.nesting_errors(spans)) == 1
