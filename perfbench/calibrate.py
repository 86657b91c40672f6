"""Machine-speed probe for rescaling wall times on a shared machine.

On the 2-core machine these numbers were taken on, the speed of one core
drifts by up to 1.5-1.9x for seconds to minutes at a time (CPU time equals
wall time throughout, so it is contention for the physical core, not time
taken away from the process).  The probe times a fixed kernel that mixes
the kinds of work the program does: scalar Python arithmetic and float
formatting, small numpy array operations, and a short ``solve_ivp`` with a
Python right-hand side.  It lives in the benchmark and never calls
``alhflow``, so a change to the program cannot move it.

``probe()`` returns the kernel's best time of a few repeats; a timing
taken between two probes is rescaled by ``REFERENCE_S / probe time``,
which turns it into seconds at the speed the reference was measured at.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import solve_ivp

#: Best kernel time on an uncontended core of the reference machine.
REFERENCE_S = 0.005

_REPEATS = 2


def _rhs(x, y):
    return (-0.5 * y[0] + math.sin(x),)


def _kernel() -> str:
    total = 0.0
    cells = []
    for i in range(120):
        a = np.geomspace(1.0, 10.0 + i, 32)
        v = a * a + 0.5 * a - 2.0 / a
        total += float(v[i % 32]) + math.sqrt(i + 1.0)
        cells.append(format(total, ".17g"))
    sol = solve_ivp(_rhs, (0.0, 10.0), (1.0,), method="DOP853", rtol=1e-10)
    cells.append(format(float(sol.y[0][-1]), ".17g"))
    return ",".join(cells)


def probe() -> float:
    best = math.inf
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
