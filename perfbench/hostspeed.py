"""Host speed probe, timed around the measured work.

On a shared VM with 2 vCPUs, where the reference numbers were taken,
speed changes by up to half over seconds to minutes, for every process
alike, as other tenants' load comes and goes.  CPU time inflates with
wall time, so this is contention, not descheduling.  The probe times a
fixed pure-Python loop between the blocks of a run.  Every time the run
measured is then scaled by REF_S over the run's median probe, so it
reads as it would on a host that runs the loop in REF_S.  One factor per
run follows the slow drift between runs and averages out the probe's
own noise; per-request factors did worse on multi-second requests.  On
20 s windows of the sweep, the spread of throughput fell from 16%
unscaled to 6% scaled.

The constant never changes, so scaled times stay comparable across
commits.  A change to the program cannot move the probe, which runs no
eqdeg code.
"""

import statistics
import time

REF_S = 0.004        # about the loop's time on that VM
_LOOP = 50_000
_REPEATS = 5


def probe() -> float:
    """Median seconds of five runs of the fixed loop."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(probes: list[float]) -> float:
    """Scale for every time measured in the run that took these probes."""
    return REF_S / statistics.median(probes)
