"""Benchmark for eqdeg: three workloads, end-to-end and per-layer metrics.

Usage, from the repo root:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the generators):
  cli-cold      `python -m eqdeg.cli` as one subprocess per request over a
                fixed list of eight runs, shuffled per pass by the seed.
  sweep-repeat  existence_degree over a seeded stream whose groups repeat,
                each call building its context as the package does.
  bif-scan      bifurcation_report then existence_degree for distinct
                D3-commuting matrices over one D3 x D6 x Z2 context built
                during set-up.

One client sends one request at a time (closed loop).  Every run starts
fresh processes, because the package's caches keep state across calls.
A run serves whole passes or blocks until at least S seconds of service
time have passed.  Every output is checked; see checks.py.  End-to-end
times are scaled to a reference host speed; see hostspeed.py.

--trace 0 prints the end-to-end metrics.  --trace 1 serves the untraced
stream, then the same requests again with spans around each layer's
public functions, and prints per-layer self times, counts and the tracing
overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracer as tr
from workloads import CLI_RUNS, cli_passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("cli-cold", "sweep-repeat", "bif-scan")
# set-up is timed this often per run and the median counts; bif-scan's
# set-up builds a 284-class lattice, so it gets fewer samples
SETUP_RUNS = {"cli-cold": 5, "sweep-repeat": 5, "bif-scan": 3}
RUN_BUDGET_S = 170.0    # every child is killed once a run has used this much

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in tr.LAYER_NAMES},
    "groups.max_order": "count",
    "lattice.calls": "count",
    "lattice.classes": "count",
    "lattice.cache_hits": "count",
    "lattice.ms_per_class": "ms",
    "naming.calls": "count",
    "reps.calls": "count",
    "spectral.neg_blocks": "count",
    "degrees.calls": "count",
    "burnside.mul_calls": "count",
    "bifurcation.points": "count",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "trace_overhead_s": "s",
}


class BenchError(Exception):
    pass


class Runner:
    """Starts every child process of one run, within one time budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.setup_probes: list[float] = []
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else f"{src}{os.pathsep}{old}"

    def call(self, cmd: list[str]) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        try:
            return subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, timeout=left,
                                  check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(cmd[:4])}") from exc

    def worker(self, workload: str, seed: int, blocks=None, spans=None,
               setup_only=False) -> tuple[float, dict | None]:
        """Set-up seconds, and the stream result unless setup_only."""
        job = {"workload": workload, "seed": seed, "seconds": self.seconds,
               "blocks": blocks, "spans": spans, "setup_only": setup_only}
        if setup_only:
            self.setup_probes.append(hostspeed.probe())
        start = time.monotonic()
        proc = self.call([sys.executable, str(HERE / "worker.py"),
                          json.dumps(job)])
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker failed:\n"
                             f"{proc.stderr.decode(errors='replace')[-3000:]}")
        lines = proc.stdout.decode().splitlines()
        ready = float(lines[0].split()[1]) - start
        return ready, None if setup_only else json.loads(lines[-1])

    def cli_stream(self, seed: int, passes=None, spans_dir=None) -> dict:
        """cli-cold: one subprocess per request, whole passes."""
        expected = [(ROOT / path).read_bytes() for _v, _c, path in CLI_RUNS]
        results = []
        probes = []
        service = 0.0
        done = 0
        for order in cli_passes(seed):
            if done == passes or (passes is None and done
                                  and service >= self.seconds):
                break
            for idx in order:
                verb, config, _expected = CLI_RUNS[idx]
                rid = len(results)
                if spans_dir is None:
                    cmd = [sys.executable, "-m", "eqdeg.cli", verb, config]
                else:
                    cmd = [sys.executable, str(HERE / "cli_traced.py"),
                           str(spans_dir / f"{rid}.json"), str(rid), verb,
                           config]
                probes.append(hostspeed.probe())
                start = time.perf_counter()
                proc = self.call(cmd)
                latency = time.perf_counter() - start
                service += latency
                error = None
                if proc.returncode != 0:
                    error = f"exit {proc.returncode}: {proc.stderr[-300:]!r}"
                elif proc.stdout != expected[idx]:
                    error = "stdout differs from the reference"
                results.append({"key": f"{verb} {config}", "block": done,
                                "latency_s": latency, "ok": error is None,
                                "error": error, "points": 0})
            done += 1
        probes.append(hostspeed.probe())
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {"results": results, "blocks": done, "probes": probes,
                "peak_rss_mb": peak_kb / 1024.0}

    def stream(self, workload: str, seed: int, blocks=None, spans=None):
        """(set-up seconds, stream result) from one fresh process."""
        if workload == "cli-cold":
            setup, _ = self.worker(workload, seed, setup_only=True)
            return setup, self.cli_stream(seed, blocks, spans)
        return self.worker(workload, seed, blocks, spans)


# ---------------------------------------------------------------------------
# metrics

def block_latencies(res: dict, scale: float) -> list[list[float]]:
    """Scaled latencies of each block: a pass over the 8 cli-cold runs,
    or 10 stream requests."""
    by_block: dict[int, list[float]] = {}
    for r in res["results"]:
        by_block.setdefault(r["block"], []).append(scale * r["latency_s"])
    return list(by_block.values())


def end_to_end_metrics(setups: list[float], res: dict,
                       scale: float) -> dict[str, float]:
    """Latency statistics of the run, times scaled by the run's factor.

    Percentiles are taken within each block, then the median over blocks.
    A sweep-repeat block always holds the same ten groups, whose latencies
    form separate clusters; a percentile over the pooled run would fall
    in the gap between two clusters and read their extreme samples.
    """
    blocks = block_latencies(res, scale)
    total = sum(map(sum, blocks))
    return {
        "setup_s": scale * statistics.median(setups),
        "req_per_s": sum(map(len, blocks)) / total,
        "p50_ms": 1e3 * statistics.median(map(statistics.median, blocks)),
        "p90_ms": 1e3 * statistics.median(
            statistics.quantiles(b, n=10, method="inclusive")[-1]
            for b in blocks),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def load_spans(paths: list[Path]) -> dict:
    """Merge span files; parent indices are shifted to the merged list."""
    spans: list[list] = []
    counts: dict[str, int] = {}
    max_order = 0
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        base = len(spans)
        for layer, start, end, parent, req, order in doc["spans"]:
            spans.append([layer, start, end,
                          parent + base if parent >= 0 else -1, req, order])
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        max_order = max(max_order, doc["max_order"])
    return {"spans": spans, "counts": counts, "max_order": max_order}


def per_layer_metrics(trace: dict, traced: dict,
                      plain: dict) -> dict[str, float]:
    """Per-layer self times and counts of the traced run, unscaled.

    trace_overhead_s compares the traced and untraced service times of
    the same requests, each scaled by its own run's factor (see
    hostspeed.py), because the two runs meet the host at different speeds.
    """
    spans, counts = trace["spans"], trace["counts"]
    traced_wall = service_time(traced)
    own = tr.self_times(spans)
    calls = tr.call_counts(spans)
    classes = counts.get("lattice.classes", 0)
    layer_total = sum(own[layer] for layer in tr.LAYER_NAMES)
    return {
        **{f"{layer}.self_s": own[layer] for layer in tr.LAYER_NAMES},
        "groups.max_order": trace["max_order"],
        "lattice.calls": calls["lattice"],
        "lattice.classes": classes,
        "lattice.cache_hits": counts.get("lattice.cache_hits", 0),
        "lattice.ms_per_class": (1e3 * own["lattice"] / classes
                                 if classes else 0.0),
        "naming.calls": calls["naming"],
        "reps.calls": calls["reps"],
        "spectral.neg_blocks": counts.get("spectral.neg_blocks", 0),
        "degrees.calls": calls["degrees"],
        "burnside.mul_calls": calls["burnside"],
        "bifurcation.points": counts.get("bifurcation.points", 0),
        "unattributed_s": traced_wall - layer_total,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": service_time(plain),
        "trace_overhead_s": (scaled_service(traced) - scaled_service(plain)),
    }


def service_time(res: dict) -> float:
    """Unscaled seconds spent inside requests."""
    return sum(r["latency_s"] for r in res["results"])


def scaled_service(res: dict) -> float:
    return service_time(res) * hostspeed.factor(res["probes"])


def failures(res: dict) -> list[str]:
    return [f"{r['key']}: {r['error']}" for r in res["results"]
            if not r["ok"]]


# ---------------------------------------------------------------------------
# runs

def run_untraced(runner: Runner, workload: str, seed: int):
    setup, res = runner.stream(workload, seed)
    setups = [setup]
    for _ in range(SETUP_RUNS[workload] - 1):
        setups.append(runner.worker(workload, seed, setup_only=True)[0])
    scale = hostspeed.factor(res["probes"] + runner.setup_probes)
    metrics = end_to_end_metrics(setups, res, scale)
    requests = res["results"]
    print(f"{workload}: {len(requests)} requests in {res['blocks']} "
          f"{'passes' if workload == 'cli-cold' else 'blocks'}, "
          f"{service_time(res):.2f} s of service time; host speed factor "
          f"{scale:.3f}; unscaled set-up samples "
          f"{[round(s, 4) for s in setups]}, unscaled req_per_s "
          f"{len(requests) / service_time(res):.4g}")
    slowest = statistics.median(map(max, block_latencies(res, scale)))
    print(f"{workload}: slowest request per block, median over blocks: "
          f"{1e3 * slowest:.1f} ms scaled")
    points = sum(r["points"] for r in requests)
    if points:
        print(f"{workload}: {points} critical points, points_per_s "
              f"{points / (scale * service_time(res)):.2f} scaled, "
              f"{points / service_time(res):.2f} unscaled")
    return metrics, [res]


def run_traced(runner: Runner, workload: str, seed: int):
    WORK.mkdir(exist_ok=True)
    span_dir = WORK / f"spans-{workload}"
    span_dir.mkdir(exist_ok=True)
    for old in span_dir.glob("*.json"):
        old.unlink()
    _setup, plain = runner.stream(workload, seed)
    if workload == "cli-cold":
        _setup, traced = runner.stream(workload, seed, plain["blocks"],
                                       span_dir)
        paths = sorted(span_dir.glob("*.json"))
    else:
        path = span_dir / "worker.json"
        _setup, traced = runner.stream(workload, seed, plain["blocks"],
                                       str(path))
        paths = [path]
    if len(traced["results"]) != len(plain["results"]):
        raise BenchError("traced run served a different number of requests")
    trace = load_spans(paths)
    errors = tr.nesting_errors(trace["spans"])
    metrics = per_layer_metrics(trace, traced, plain)
    if metrics["unattributed_s"] < 0:
        errors.append("layer self times exceed the traced wall time")
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tr.LAYER_NAMES)
    print(f"{workload}: {len(traced['results'])} requests traced, "
          f"{len(trace['spans'])} spans; layer self times "
          f"{layer_sum:.4f} s + unattributed {metrics['unattributed_s']:.4f} s"
          f" = traced wall {metrics['traced_wall_s']:.4f} s")
    for order, (secs, calls) in tr.lattice_by_order(trace["spans"]).items():
        print(f"{workload}: lattice self time at |G| = {order}: {secs:.4f} s"
              f" over {calls} calls, {secs / calls:.4f} s each")
    return metrics, [plain, traced], errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eqdeg" / "cli.py").is_file():
        print(f"error: no eqdeg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.seconds)
    try:
        if args.trace:
            metrics, runs, errors = run_traced(runner, args.workload,
                                               args.seed)
            units = PER_LAYER
        else:
            metrics, runs = run_untraced(runner, args.workload, args.seed)
            errors = []
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = [f for res in runs for f in failures(res)]
    attempted = sum(len(res["results"]) for res in runs)
    for line in failed[:20] + errors:
        print(f"check failed: {line}")
    print(f"{args.workload}: fail_frac {len(failed) / attempted:.4f} "
          f"({len(failed)} of {attempted})")
    for name, unit in units.items():
        print(f"  {name:<24} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed and not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
