"""Seeded request generators for the three benchmark workloads.

Every request is a JSON problem configuration in the format `eqdeg` reads
from disk, so the program under test receives nothing but configs.

Eigenvalues are p/7 with 7 never dividing p, and every period multiplier
m used here is prime to 7.  Then j^2 = -m^2 mu has no integer solution,
so no draw can sit on the (A5) degeneracy boundary, and two distinct
eigenvalues differ by at least 1/7, far above the clustering tolerance.

Streams are cut into blocks, and a run serves whole blocks.  A
sweep-repeat block always holds the same groups, so every run does the
same mix and the run-to-run spread comes from the spectra alone.
"""

from __future__ import annotations

import random

BIF_BLOCK = 10

# (verb, config, expected stdout), paths relative to the repo root.  The
# first six are the bundled runs of scripts/reproduce_case_studies.py; the
# last two are the benchmark's own larger configs: |G| = 144 with 284
# classes, and |G| = 120 with a long bifurcation report.  Output is held
# to the golden report where the test suite has one, otherwise to the
# seed commit's output stored under perfbench/reference/.
CLI_RUNS = (
    ("group-info", "configs/m3_d3.json",
     "perfbench/reference/group-info_m3_d3.txt"),
    ("basic-degrees", "configs/m6_trivial.json",
     "perfbench/reference/basic-degrees_m6_trivial.txt"),
    ("existence", "configs/m3_d3.json", "tests/golden/m3_existence.txt"),
    ("existence", "configs/m4_d3.json", "tests/golden/m4_existence.txt"),
    ("existence", "configs/m6_trivial.json",
     "perfbench/reference/existence_m6_trivial.txt"),
    ("bifurcation", "configs/m3_bifurcation.json",
     "tests/golden/m3_bifurcation.txt"),
    ("existence", "perfbench/configs/d3_m6_existence.json",
     "perfbench/reference/existence_d3_m6.txt"),
    ("bifurcation", "perfbench/configs/trivial_m30_bifurcation.json",
     "perfbench/reference/bifurcation_trivial_m30.txt"),
)

SWEEP_TRIVIAL_M = (2, 3, 4, 5, 6, 8, 10, 12)
SWEEP_D3_M = (2, 3)
BIF_M = 6
NUMERATORS = tuple(p for p in range(1, 28) if p % 7)
BIF_NUMERATORS = tuple(p for p in range(1, 42) if p % 7)


def _frac(num: int, den: int) -> str:
    return f"{num}/{den}"


def d3_matrix(p: int, q: int) -> list[list[str]]:
    """Symmetric A on R^3 commuting with D3, eigenvalues -p/7 and -q/7.

    A = a I + b J with J the all-ones matrix: -p/7 = a + 3b on the
    diagonal line and -q/7 = a (twice) on its orthogonal plane.
    """
    b_num = q - p                       # b = (q - p) / 21
    diag = _frac(-3 * q + b_num, 21)    # a + b
    off = _frac(b_num, 21)
    return [[diag if r == c else off for c in range(3)] for r in range(3)]


def d3_config(m: int, p: int, q: int) -> dict:
    return {"m": m, "k": 3, "gamma": {"type": "dihedral", "n": 3},
            "A": d3_matrix(p, q)}


def trivial_config(m: int, numerators: list[int]) -> dict:
    spectrum = [[_frac(-p, 7), 1] for p in sorted(numerators)]
    return {"m": m, "k": len(spectrum), "gamma": {"type": "trivial"},
            "spectrum": spectrum}


def cli_passes(seed: int):
    """Indices into CLI_RUNS: every run once per pass, shuffled per pass."""
    rng = random.Random(f"cli-cold/{seed}")
    while True:
        order = list(range(len(CLI_RUNS)))
        rng.shuffle(order)
        yield order


def sweep_blocks(seed: int):
    """Blocks of (key, config): each listed trivial m and D3 m once.

    Trivial spectra are drawn as in scripts/parity_scan.py: one to three
    distinct eigenvalues -p/7.  The groups repeat from block to block.
    """
    rng = random.Random(f"sweep-repeat/{seed}")
    while True:
        block = []
        for m in SWEEP_TRIVIAL_M:
            nums = sorted(rng.sample(NUMERATORS, rng.randint(1, 3)))
            block.append((f"trivial m={m} p={nums}", trivial_config(m, nums)))
        for m in SWEEP_D3_M:
            p, q = rng.sample(NUMERATORS, 2)
            block.append((f"D3 m={m} p={p} q={q}", d3_config(m, p, q)))
        rng.shuffle(block)
        yield block


def bif_pool() -> list[tuple[int, int]]:
    """Every ordered pair p != q: 1260 distinct D3-commuting matrices."""
    return [(p, q) for p in BIF_NUMERATORS for q in BIF_NUMERATORS
            if p != q]


def bif_key(p: int, q: int) -> str:
    return f"{p},{q}"


def bif_blocks(seed: int):
    """Blocks of (key, config) walking a seeded shuffle of the pool.

    A run serves about 550 to 1000 requests at the seed commit's speed, so
    no matrix repeats within a run.  A faster program that exhausts the pool
    continues with a fresh shuffle of it.
    """
    rng = random.Random(f"bif-scan/{seed}")
    pending: list[tuple[int, int]] = []
    while True:
        while len(pending) < BIF_BLOCK:
            pool = bif_pool()
            rng.shuffle(pool)
            pending += pool
        block, pending = pending[:BIF_BLOCK], pending[BIF_BLOCK:]
        yield [(bif_key(p, q), d3_config(BIF_M, p, q)) for p, q in block]
