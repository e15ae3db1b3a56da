"""Serve one in-process request stream in a fresh process.

Usage: python perfbench/worker.py JOB_JSON

JOB_JSON holds: workload ("cli-cold", "sweep-repeat" or "bif-scan"),
seed, seconds, blocks (an exact block count, or null to run whole blocks
until `seconds` of service time have passed, and at least RSS_BLOCKS),
setup_only, and spans (a path to write spans to, or null for an untraced
run).

The worker prints "ready <monotonic clock>" once set-up is done, so the
caller can time set-up from the moment it started the process.  Set-up is
importing eqdeg, plus building the shared context for bif-scan.  Unless
setup_only, it then serves the stream, one request at a time, checks
each output outside the timed region and prints one JSON line.  A host
speed probe runs before each block and after the last (see hostspeed.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from itertools import chain
from pathlib import Path

from eqdeg.bifurcation import bifurcation_report
from eqdeg.cli import validate_config
from eqdeg.spectral import build_symmetry_context, existence_degree

import checks
import hostspeed
import tracer as tr
from workloads import bif_blocks, sweep_blocks

BIF_REFERENCE = Path(__file__).resolve().parent / "reference" / "bif_scan.json"
# Both streams keep state per request (posets, degree caches), so peak
# memory grows with the number of requests served.  It is read after a
# fixed number of blocks, which every run serves, so that a faster
# program serving more requests in its time does not read as using more.
RSS_BLOCKS = 15


def serve(workload: str, config, shared_ctx):
    """One request; returns (context, existence report, bifurcation report)."""
    if workload == "sweep-repeat":
        ctx = build_symmetry_context(config)
        return ctx, existence_degree(config, ctx), None
    bif = bifurcation_report(config, shared_ctx)
    return shared_ctx, existence_degree(config, shared_ctx), bif


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    workload = job["workload"]
    blocks = None
    shared_ctx = None
    if workload == "sweep-repeat":
        blocks = sweep_blocks(job["seed"])
    elif workload == "bif-scan":
        blocks = bif_blocks(job["seed"])
        first = next(blocks)
        blocks = chain([first], blocks)
        # every bif-scan request shares D3 x D6 x Z2; building it is set-up
        shared_ctx = build_symmetry_context(validate_config(first[0][1])[0])
    print(f"ready {time.monotonic()!r}", flush=True)
    if job["setup_only"]:
        return 0
    if workload == "bif-scan":
        reference = json.loads(BIF_REFERENCE.read_text(encoding="utf-8"))

    tracer = None
    if job["spans"]:
        tracer = tr.Tracer()
        tr.install(tracer)

    results = []
    probes: list[float] = []
    service = 0.0
    done = 0
    for block in blocks:
        if done == job["blocks"] or (job["blocks"] is None
                                     and done >= RSS_BLOCKS
                                     and service >= job["seconds"]):
            break
        probes.append(hostspeed.probe())
        for key, raw in block:
            config = validate_config(raw)[0]
            rid = len(results)
            error = None
            start = time.perf_counter()
            root = tracer.begin_request(rid) if tracer else None
            try:
                ctx, report, bif = serve(workload, config, shared_ctx)
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer:
                    tracer.end_request(root)
            latency = time.perf_counter() - start
            service += latency
            points = 0
            if error is None:
                if not checks.mark_identity_holds(ctx, report.table,
                                                  report.degree.coeffs):
                    error = "existence degree fails the mark identity"
                elif bif is not None:
                    points = len(bif.invariants)
                    if checks.report_digest(bif) != reference.get(key):
                        error = "bifurcation report differs from the seed"
            results.append({"key": key, "block": done, "latency_s": latency,
                            "ok": error is None, "error": error,
                            "points": points})
        done += 1
        if done == RSS_BLOCKS:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes.append(hostspeed.probe())
    if done < RSS_BLOCKS:   # only when the caller asked for fewer blocks
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.dump(job["spans"])
    print(json.dumps({"results": results, "blocks": done, "probes": probes,
                      "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
