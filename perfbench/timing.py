"""Speed calibration and quantile estimation for the benchmark's timings.

On the shared 2-vCPU host the baseline was measured on, the CPU speed
seen by one process drifts between runs, and an identical op's wall
time varies by about 13% from one call to the next.  Over ten seeded
runs of ``verify`` the unscaled throughput spread (IQR over median) by
0.33 and the median latency by 0.29, beyond their 0.25 bound; rescaled
as below they spread by 0.15 and 0.14 (per-seed figures of both kinds,
for every workload, are in ``baseline.json``).  Two measures keep
run-to-run comparisons usable under that noise without touching what
is measured:

* every op is bracketed by ``calibrate()``, a fixed integer and Fraction
  loop that shares no code with gearpinv, and its wall time is rescaled
  to the reference speed by the calibrations around it;
* quantiles are Harrell-Davis estimates, a Beta-weighted mean of all
  order statistics, which do not jump when the sample at a given rank
  moves between two op sizes.

A change to gearpinv changes op times but not the calibration loop, so
it shows in full in the rescaled times.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np

# Median calibrate() time on the machine the baseline was measured on.
CALIBRATION_REF_S = 0.030


def calibrate() -> float:
    """Wall time of a fixed integer and Fraction loop: the current machine speed."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 2000):
            total += Fraction(i * 7919, i * i + 1)
        x, modulus = 3**2000, 7**2100
        for _ in range(1500):
            x = x * 12345678901234567 % modulus
        return time.perf_counter() - start
    finally:
        gc.enable()


def rescale(times, speeds) -> list[float]:
    """Times rescaled to the reference speed.

    ``speeds[i]`` is a calibration taken just before sample ``i`` and
    ``speeds[i + 1]`` one just after it.  Each sample is scaled by the
    median of the (up to) four calibrations nearest to it.
    """
    out = []
    for i, t in enumerate(times):
        local = statistics.median(speeds[max(0, i - 1):i + 3])
        out.append(t * CALIBRATION_REF_S / local)
    return out


def harrell_davis(values, q) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    The i-th smallest of n values gets the weight of the Beta(q(n+1),
    (1-q)(n+1)) distribution on ``[(i-1)/n, i/n]``, integrated by the
    midpoint rule.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    steps = 256
    a, b = float(q) * (n + 1), (1 - float(q)) * (n + 1)
    x = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ ordered / weights.sum())
