"""Capture the reference outputs the benchmark checks against.

Usage (from the repo root, at the commit whose outputs are the reference):
    PYTHONPATH=src python3 perfbench/capture_reference.py

Writes the stdout of every cli-cold run that has no golden report under
tests/golden/, and a digest of the bifurcation report of every matrix in
the bif-scan pool.  The stored files were captured at the commit that
added the benchmark; regenerate them only when an output is meant to
change.
"""

import json
import subprocess
import sys
from pathlib import Path

from eqdeg.bifurcation import bifurcation_report
from eqdeg.cli import validate_config
from eqdeg.spectral import build_symmetry_context

from checks import report_digest
from workloads import BIF_M, CLI_RUNS, bif_key, bif_pool, d3_config

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    for verb, config, expected in CLI_RUNS:
        if not expected.startswith("perfbench/"):
            continue
        out = subprocess.run([sys.executable, "-m", "eqdeg.cli", verb, config],
                             cwd=ROOT, capture_output=True, check=True).stdout
        (ROOT / expected).write_bytes(out)
    digests = {}
    ctx = None
    for p, q in bif_pool():
        config = validate_config(d3_config(BIF_M, p, q))[0]
        if ctx is None:
            ctx = build_symmetry_context(config)
        digests[bif_key(p, q)] = report_digest(bifurcation_report(config, ctx))
    path = Path(__file__).resolve().parent / "reference" / "bif_scan.json"
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
