"""Machine-speed probe that rescales measured times to a reference speed.

The benchmark runs on shared virtual machines whose speed swings by 2-3x
within minutes: on a 2-vCPU KVM guest (Xeon, Sapphire Rapids) a fixed
kernel of small numpy calls and interpreter work took between 4.5 and
13.5 ms over four minutes, and one grid call between 1.6 and 3.1 s. No
regression bound survives that. So every timed interval is bracketed by
``probe()``, a fixed kernel that uses nothing from the package, and is
reported as ``raw * REFERENCE_S / probe``: the time the interval would
have taken at the speed at which the probe takes REFERENCE_S. In two
four-minute samples of back-to-back grid calls, rescaling cut the
spread (interquartile range over median) of the medians of 8-10
consecutive calls from 40% to 8% and from 17% to 12%. It narrows the
drift; it does not remove it. Calls on the thread pool are not
rescaled (see run.py). The raw times are printed beside the rescaled
ones.

The probe cannot see a change to the package, so a faster or slower
program moves the rescaled time exactly as it moves the raw one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probe time on an uncontended 2-vCPU Xeon (Sapphire Rapids) KVM guest;
# a scale constant only: rescaled times are comparable with each other,
# not with raw times on other machines.
REFERENCE_S = 0.0045
_REPEATS = 11


def _kernel() -> float:
    """A mix like the package's hot loops: small-matrix numpy calls,
    dict and integer work, and text-to-float parsing."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((48, 14))
    y = np.sign(rng.standard_normal(48))
    w = np.zeros(14)
    for _ in range(200):
        m = y * (a @ w)
        w = w + 0.1 * (a.T @ (y * 0.5 * (1.0 + np.tanh(-0.5 * m)))) / 48.0
    counts: dict[int, int] = {}
    for i in range(10000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    total = 0.0
    for i in range(3000):
        total += float(f"{i * 0.37:.6e}")
    return float(w.sum()) + total + len(counts)


def probe() -> float:
    """Median time of the kernel, in seconds."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def rescale(raw: float, before: float, after: float) -> float:
    """Raw seconds at the reference speed, from the probes around them."""
    return raw * REFERENCE_S / ((before + after) / 2.0)
