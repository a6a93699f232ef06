"""The machine's speed: a fixed job in a fresh interpreter, timed before each invocation.

    python3 bench/speed.py    # runs the job; reference_s() times it

The benchmark shares a few cores of a host with other tenants, and the same
code runs up to half again as slow from one minute to the next: over twenty
minutes of 40 s runs on unchanged code, run medians of the analytic workload
went from 7.0 s to 10.1 s, and all workloads slowed together.  A run's
median cannot remove a slow spell that lasts the whole run.  So right before
each invocation the runner times this job, which is the benchmark's own and
never changes with divcorr, and rescales the run's times by the median of
its job times: a change of the machine's speed cancels, a change to divcorr
does not.  One job is too short to average out the machine's jitter, which
flips its speed within seconds, so the run's median job time is the measure.

The job has the shape of a divcorr invocation: a fresh interpreter that
imports numpy, finds primes by trial division and runs an integer loop in
pure Python, and updates strided numpy slices in a loop over those primes
(sieves, varphi tables).  A job timed
inside the long-lived runner process tracked the invocations' speed worse
than one in a fresh process.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

# about the job's time on a 2-core Xeon VM; it only sets the unit of the
# rescaled times, and must stay fixed for results to stay comparable
REF_S = 0.4
TIMEOUT_S = 60


def job() -> float:
    import numpy as np

    primes = [p for p in range(2, 50_000) if all(p % q for q in range(2, int(p**0.5) + 1))]
    table = np.zeros(1_000_001)
    for p in primes:
        table[p::p] += 1.0 / p
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return float(table[-1]) + s


def reference_s() -> float:
    """Wall time of the job in a fresh interpreter, from its start to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__],
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    # a blocking wait: waiting with a timeout polls, which rounds the time up
    # to steps of 50 ms
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, proc.args)
    return elapsed


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """A time measured while the job took ref_s, rescaled to the speed at which it takes REF_S."""
    return seconds * REF_S / ref_s


if __name__ == "__main__":
    job()
