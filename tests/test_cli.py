"""Command-line interface: validation, determinism, golden reports."""

import hashlib
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqdeg.cli import main, validate_config
from eqdeg.errors import InputError

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config validation

def test_validate_config_parses_rational_strings():
    cfg, window = validate_config({
        "m": 3, "k": 2, "A": [[-1, "-1/2"], ["-1/2", -1]],
        "window": [-3, 0]})
    assert cfg.a_matrix[0][1] == -0.5
    assert window == (-3.0, 0.0)
    assert cfg.gamma.type == "trivial"


@pytest.mark.parametrize("raw", [
    [],                                             # not an object
    {"k": 3},                                       # missing m
    {"m": 3, "k": 3},                               # neither A nor spectrum
    {"m": 3, "k": 3, "A": [[0]], "spectrum": []},   # both
    {"m": 3, "k": 2, "A": [[0, 0]]},                # wrong row count
    {"m": 3, "k": 2, "A": [[0, 0], [0, "x"]]},      # unparsable entry
    {"m": 3, "k": 2, "A": [[0, 0], [0, 0]], "shape": 1},   # unknown key
    {"m": 3, "k": 2, "A": [[0, 0], [0, 0]], "gamma": {"n": 3}},
    {"m": 3, "k": 2, "spectrum": [[-2]]},           # malformed pair
    {"m": True, "k": 2, "spectrum": [["-2", 2]]},   # boolean is not an int
])
def test_validate_config_rejects_malformed(raw):
    with pytest.raises(InputError):
        validate_config(raw)


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _out, err = run_cli(capsys, "existence", str(bad))
    assert code == 1
    assert "error:" in err


def test_exit_code_missing_file(capsys):
    code, _out, err = run_cli(capsys, "existence", "/nonexistent.json")
    assert code == 1


def test_exit_code_validation_failure(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for raw in ({"m": 3, "k": 2, "A": [[1, 2], [0, 1]]},     # asymmetric
                {"m": 3, "k": 1, "A": [[1e308]]}):           # m^2 mu overflows
        cfg.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "existence", str(cfg))
        assert (code, out) == (2, "")
        assert "(A5)" in err and err.count("\n") == 1


def test_exit_code_equivariance_failure(tmp_path, capsys):
    cfg = tmp_path / "noncomm.json"
    cfg.write_text(json.dumps(
        {"m": 3, "k": 3, "gamma": {"type": "dihedral", "n": 3},
         "A": [[-1, 0, 0], [0, -2, 0], [0, 0, -3]]}))
    code, _out, err = run_cli(capsys, "existence", str(cfg))
    assert code == 2
    assert "(A4)" in err


def test_exit_code_group_order_cap(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(
        {"m": 150, "k": 1, "A": [[-1]]}))
    code, _out, err = run_cli(capsys, "existence", str(cfg))
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("raw", [
    {"m": 10**6, "k": 1, "A": [[-1]]},
    {"m": 10**6, "k": 3, "gamma": {"type": "dihedral", "n": 3},
     "A": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]},
])
def test_order_cap_is_checked_before_any_table(tmp_path, capsys, raw):
    # a D_m table for m = 10**6 would take gigabytes
    cfg = tmp_path / "vast.json"
    cfg.write_text(json.dumps(raw))
    start = time.perf_counter()
    code, _out, err = run_cli(capsys, "existence", str(cfg))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "exceeds cap" in err


@pytest.mark.parametrize("verb,raw", [
    ("existence", {"m": 3, "k": 1, "A": [[-1e300]]}),
    ("bifurcation", {"m": 3, "k": 1, "A": [[-1e300]]}),
    ("bifurcation", {"m": 3, "k": 1, "A": [[-1]], "window": [-2, 1e20]}),
])
def test_frequency_cap_is_checked_before_looping(tmp_path, capsys, verb, raw):
    # each of these once looped over about 1e150 or 1e10 frequencies
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps(raw))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, verb, str(cfg))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "exceed cap MAX_FREQUENCIES = 1000" in err


@pytest.mark.parametrize("spectrum,message", [
    ([["-1/2", 2], ["-1/2", 1]], "spectrum[1]: eigenvalue -1/2 is listed twice"),
    ([["-1/2", 2], [-0.5, 1]], "spectrum[1]: eigenvalue -1/2 is listed twice"),
    ([["-1/2", -1], ["-3/2", 2]], "spectrum[0]: multiplicity -1 is below 1"),
    ([["-2", 1], ["-1/2", 0]], "spectrum[1]: multiplicity 0 is below 1"),
])
def test_malformed_exact_spectrum_exits_1(tmp_path, capsys, spectrum, message):
    # a repeated exact eigenvalue once counted its first multiplicity per copy
    cfg = tmp_path / "spectrum.json"
    k = sum(mult for _mu, mult in spectrum)
    cfg.write_text(json.dumps({"m": 3, "k": k, "spectrum": spectrum}))
    for verb in ("existence", "bifurcation"):
        assert run_cli(capsys, verb, str(cfg)) == (1, "", f"error: {message}\n")


SMALL = st.integers(-3, 3) | st.floats(-3, 3) | st.just("-1/2")
BAD = st.sampled_from([float("nan"), float("inf"), "1e999", "1/0", "x", True,
                       None, [], 10**400])
HUGE = st.sampled_from([1e308, 1e20, -1e20, -1e300])
ENTRY = SMALL | BAD | HUGE
KEYS = ["m", "k", "gamma", "A", "spectrum", "tolerance", "seed", "window"]


@st.composite
def configs(draw):
    """Well-formed configs with some huge, non-finite or mistyped parts."""
    k = draw(st.integers(1, 3))
    a = [[draw(ENTRY if r == c else SMALL) for c in range(k)] for r in range(k)]
    raw = {"m": draw(st.integers(2, 4)), "k": k, "gamma": draw(st.sampled_from([
        {"type": "dihedral", "n": k},
        {"type": "permutation", "generators": [[(i + 1) % k for i in range(k)]]}])),
        "A": [[a[min(r, c)][max(r, c)] for c in range(k)] for r in range(k)]}
    if draw(st.booleans()):
        del raw["A"]
        raw.update(gamma={"type": "trivial"}, spectrum=[[a[i][i], 1] for i in range(k)])
    for key in draw(st.sets(st.sampled_from(KEYS), max_size=2)):
        raw[key] = draw(ENTRY | st.lists(SMALL | BAD | HUGE, min_size=2,
                                         max_size=2))
    return raw


@given(raw=configs(), verb=st.sampled_from(["existence", "bifurcation"]))
@example(raw={"m": 3, "k": 1, "A": [[1e308]]}, verb="existence")
@example(raw={"m": 3, "k": 1, "A": [[-1e300]]}, verb="bifurcation")
@example(raw={"m": 3, "k": 1, "A": [[-1]], "window": [-2, 1e20]},
         verb="bifurcation")
@settings(max_examples=60, deadline=None)
def test_any_config_exits_cleanly(tmp_path_factory, raw, verb):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main([verb, str(path)]) in (0, 1, 2)


def test_burnside_mul_argument_errors(capsys):
    code, _out, _err = run_cli(capsys, "burnside-mul",
                               str(CONFIGS / "m6_trivial.json"), "D6")
    assert code == 1
    code, _out, _err = run_cli(capsys, "burnside-mul",
                               str(CONFIGS / "m6_trivial.json"),
                               "D6", "no-such-class")
    assert code == 1
    code, _out, _err = run_cli(capsys, "existence",
                               str(CONFIGS / "m6_trivial.json"), "D6")
    assert code == 1


# ---------------------------------------------------------------------------
# verbs

def test_group_info_lists_all_classes(capsys):
    code, out, _err = run_cli(capsys, "group-info",
                              str(CONFIGS / "m3_d3.json"))
    assert code == 0
    assert "subgroup classes 69" in out
    # header + group line + blank + table header + 69 rows
    assert len(out.rstrip("\n").split("\n")) == 4 + 69


def test_burnside_mul_of_index_two_classes(capsys):
    code, out, _err = run_cli(capsys, "burnside-mul",
                              str(CONFIGS / "m6_trivial.json"),
                              "D6", "D6^z", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["product"] == [{"name": "Z6", "coefficient": 1}]


def test_long_burnside_product_stays_exact(capsys):
    # coefficients pass 2**63, where int64 arithmetic would wrap
    code, out, _err = run_cli(capsys, "burnside-mul",
                              str(CONFIGS / "m3_d3.json"), *["D1 x Z1"] * 15)
    assert code == 0
    assert "+3070470465273175474176  Z1 x Z1" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e8a0c36a40a989c9e803753b09a3b859a38ff8e912df09831be9e83f71a5ee6c")


def test_basic_degrees_square_note(capsys):
    code, out, _err = run_cli(capsys, "basic-degrees",
                              str(CONFIGS / "m6_trivial.json"),
                              "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["degrees"]) == 6
    tops = {row["degree"][0]["name"] for row in doc["degrees"]}
    assert tops == {"D6^p"}     # every basic degree starts at the unit class


# ---------------------------------------------------------------------------
# determinism and format equivalence

def test_reports_are_deterministic(capsys):
    args = ("existence", str(CONFIGS / "m3_d3.json"), "--format", "json")
    _c1, out1, _e1 = run_cli(capsys, *args)
    _c2, out2, _e2 = run_cli(capsys, *args)
    assert out1 == out2


def test_seed_override_does_not_change_content(capsys):
    base = ("existence", str(CONFIGS / "m3_d3.json"), "--format", "json")
    _c, out1, _e = run_cli(capsys, *base)
    _c, out2, _e = run_cli(capsys, *base, "--seed", "999")
    assert json.loads(out1) == json.loads(out2)


def test_text_and_json_carry_identical_content(capsys):
    _c, text, _e = run_cli(capsys, "existence", str(CONFIGS / "m3_d3.json"))
    _c, raw, _e = run_cli(capsys, "existence", str(CONFIGS / "m3_d3.json"),
                          "--format", "json")
    doc = json.loads(raw)
    terms = [(f"{t['coefficient']:+d}", t["name"]) for t in doc["degree"]]
    for coeff, name in terms:
        assert re.search(rf"^\s*{re.escape(coeff)}\s+{re.escape(name)}\s*$",
                         text, re.M), (coeff, name)
    assert f"at least {doc['total_solutions']} different" in text
    for name in doc["maximal_orbit_types"]:
        assert name in text
    for i, v in doc["eta"].items():
        assert re.search(rf"^\s*{i}\s+{v}\s+\d+\s*$", text, re.M)


def test_bifurcation_window_is_honored(capsys):
    _c, raw, _e = run_cli(capsys, "bifurcation",
                          str(CONFIGS / "m3_bifurcation.json"),
                          "--format", "json")
    full = json.loads(raw)
    assert len(full["critical_points"]) == 8
    assert full["window"] == [-3.0, 0.0]


# ---------------------------------------------------------------------------
# golden reports

@pytest.mark.parametrize("verb,config,name", [
    ("existence", "m3_d3.json", "m3_existence"),
    ("existence", "m4_d3.json", "m4_existence"),
    ("bifurcation", "m3_bifurcation.json", "m3_bifurcation"),
    ("group-info", "m3_d3.json", "m3_group_info"),
    ("basic-degrees", "m6_trivial.json", "m6_basic_degrees"),
    ("existence", "m6_trivial.json", "m6_existence"),
])
def test_golden_reports(verb, config, name, capsys):
    code, out, _err = run_cli(capsys, verb, str(CONFIGS / config))
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()
    code, out, _err = run_cli(capsys, verb, str(CONFIGS / config),
                              "--format", "json")
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "eqdeg.cli", "existence",
         str(CONFIGS / "m3_d3.json")],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "m3_existence.txt").read_text()


def test_traced_cli_run_keeps_the_benchmark_contract(tmp_path, monkeypatch):
    # perfbench --trace 1 wraps package functions by module and name from
    # outside; a rename or removal there breaks the traced runs
    spans = tmp_path / "spans.json"
    path = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "cli_traced.py"),
         str(spans), "0", "existence", str(CONFIGS / "m3_d3.json")],
        capture_output=True, text=True, check=False, cwd=REPO,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "m3_existence.txt").read_text()
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    tracer = importlib.import_module("tracer")
    dump = json.loads(spans.read_text())
    assert tracer.nesting_errors(dump["spans"]) == []
    assert any(layer == "lattice" and order == 72
               for layer, *_times, order in dump["spans"])
    assert dump["counts"]["lattice.classes"] == 69

