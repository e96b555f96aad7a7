"""Host-speed calibration: a fixed kernel timed between the benchmark's ops.

On a shared host the speed available to one process drifts by up to 2x over
tens of seconds to minutes, because other tenants load the same cores and
caches; CPU time drifts with wall time, so it does not filter the drift out.
The benchmark therefore times this kernel after every op and scales each op
time by ``CAL_REF_S`` over the mean of the two samples around it.  Scaled
times read as seconds on a host where one sample takes ``CAL_REF_S``.

Set-up is mostly imports and file reads, which host load slows in another
way than it slows a step.  So each set-up probe is paired with an import
sample, a fresh interpreter that imports numpy and scipy.linalg, and scaled
by ``IMPORT_REF_S`` over it.

The kernel does the kind of work otsim's engine does per step, small dense
solves with numpy and scipy plus per-element Python loops that fill history
arrays, so that host load slows it about as much as it slows otsim.  It
imports nothing from otsim: a change to otsim does not change its time.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

CAL_REF_S = 0.007     # one sample on the host the baseline was recorded on
_N = 7                # unknowns, as in the XOR stream netlist
_ELEMENTS = 12
_STEPS = 170
_RUNS = 3             # a sample is the median of this many kernel runs
IMPORT_REF_S = 0.35   # one import sample on the same host
_IMPORT = ("import time; t0 = time.perf_counter(); import numpy, scipy.linalg; "
           "print(time.perf_counter() - t0)")


def _kernel() -> float:
    g = np.full((_N, _N), -0.1) + np.eye(_N) * (0.1 * _N + 1.0)
    lu = lu_factor(g)
    volts = np.zeros((_STEPS + 1, _N))
    currents = {j: np.zeros(_STEPS + 1) for j in range(_ELEMENTS)}
    prev = [0.0] * _ELEMENTS
    residual = 0.0
    for step in range(1, _STEPS + 1):
        z = np.zeros(_N)
        drive = 1.0 if (step // 25) % 2 else 0.0
        for j in range(4):
            z[j] += 0.5 * prev[j] + drive
        x = lu_solve(lu, z)
        residual = max(residual, float(np.max(np.abs(g @ x - z))))
        volts[step] = x
        for j in range(_ELEMENTS):
            v = float(x[j % _N] - x[(j + 1) % _N])
            currents[j][step] = 0.3 * v
            prev[j] = v
    return residual


def sample() -> float:
    """Median seconds of _RUNS kernel runs, so that one interrupt does not
    skew a sample.  The garbage collector is off meanwhile, so that
    collecting otsim's garbage is not charged to the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_RUNS):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def import_sample() -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.linalg;
    it inherits the caller's environment, thread pinning included."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])
