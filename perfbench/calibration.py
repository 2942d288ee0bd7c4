"""A fixed calibration kernel that measures the machine's current speed.

On a shared VM the same solve runs up to 1.7x slower for stretches of a
second to minutes, longer than a run, so a raw time cannot tell a slow
spell from a slower program.  The kernel below never changes and never
touches mpcc: like the solvers, it is interpreter-bound Python with small
numpy calls.  ``workloads.time_solves`` runs one slot of it right after
every solver call, and ``run.py`` scales each solver's time by
``REFERENCE_S`` over the kernel's time next to its calls.  A slow spell
slows kernel and solver alike and cancels out; a slower program does not.
"""

from time import perf_counter

import numpy as np

# One kernel call at the reference speed (about its fastest time on a
# 2-vCPU x86-64 VM, Python 3.11).  Scaled times read in seconds at this
# speed; the value only sets the scale and is the same for every commit.
REFERENCE_S = 40e-6

_DATA = np.linspace(0.0, 1.0, 256)


def kernel() -> float:
    """About 40 us of dict, integer and small-array work."""
    total = 0
    table = {}
    for i in range(300):
        total += (i * 7919) % 13
        table[i % 17] = total
    a = _DATA
    for _ in range(5):
        a = np.sqrt(a * a + 1.0)
    return total + len(table) + float(a[0])


def slot(calls: int) -> float:
    """Time of one kernel call, averaged over ``calls`` back-to-back calls."""
    t0 = perf_counter()
    for _ in range(calls):
        kernel()
    return (perf_counter() - t0) / calls
