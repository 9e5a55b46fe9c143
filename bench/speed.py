"""The machine's momentary speed, from a fixed reference kernel.

The shared machine this benchmark was built on switches between a fast
and a slow state every few seconds, the slow one taking 1.4 to 1.6 times
as long for the same work.  A run of half a minute catches a varying
share of each, which moves every timing by up to a third from run to
run.  So each op is bracketed by timings of a fixed kernel that
exercises what the program spends its time on (interpreted loops, small
numpy operations, QUADPACK calling back into Python), and its wall time
is rescaled to the speed at which the kernel takes
:data:`NOMINAL_SECONDS`.  Set-up time is rescaled the same way, by a
kernel that imports nothing (``probe.py``).
"""

from __future__ import annotations

import math
import time

import numpy as np
# bound now, so that the traced run's wrapper of scipy's quad never sees
# the kernel's calls
from scipy.integrate import quad as _quad

NOMINAL_SECONDS = 2.0e-3
_REPEATS = 3


def _kernel() -> None:
    total = 0.0
    for i in range(10000):
        total += math.sqrt(i + total % 7.0)
    grid = np.linspace(0.01, 1.0, 256)
    for _ in range(100):
        grid = np.sqrt(grid * 1.5 + 0.1)
    _quad(lambda x: x * math.exp(-x) / (1.0 + x * x), 0.0, 20.0, epsabs=1e-12)


def reference_seconds() -> float:
    """The best of three timings of the reference kernel, in seconds."""
    best = math.inf
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def rescaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the kernel took ``reference``, at the
    nominal speed."""
    return seconds * NOMINAL_SECONDS / reference
