"""Host-speed calibration.

A shared host runs in speed phases that last minutes: the same op on the
same input can take 25% longer in one phase than in the next, and a whole
run can fall in either.  To cancel that, the run loop times a fixed
calibration probe before every case and once more after the last, and
scales each timed op by reference_s / (median probe time around its
case).  A reported latency is thus the op's time at the reference speed,
the speed at which the probe takes reference_s.  No probe runs
palinverse code, so no change to the package can move it.

Each op kind is scaled by the probe whose work it resembles, because
kinds of work do not slow down together.  In 120-150 s tests cut into 12
chunks, chunk medians of small LAPACK eigenvalue problems and of a Python
loop moved by 30-40%, those of SVDs and matrix products by 20%, and those
of a prescribed update (one SVD of a 4608-row matrix, memory-bound) by
15-30%.  solve_iep_full moved with the SVD probe (slope 0.93, 6% left),
eig_full with the compute probe (slope 0.92, 7% left), a free update with
the compute probe (slope 1.1).  A prescribed update tracked no probe: it
moved about half as much as the SVD probe (slope 0.4-0.6), and scaled by
it, its runs spread more than raw.  Its times stay raw.  A memory-bound
probe would read the caches the preceding op left behind, so the package
could move it.
- COMPUTE: LAPACK eigenvalues and an SVD on fixed matrices plus a
  pure-Python loop;
- SVD: an SVD and a matrix product on fixed matrices;
- START, for subprocess ops and fresh interpreter starts: one bare
  ``python -c pass``.
"""

import subprocess
import sys
import time
from statistics import median

import numpy as np

# Probe samples on each side of a case that its factor is the median of.
WINDOW = 3

_rng = np.random.default_rng(20060101)
_EIG = _rng.standard_normal((96, 96))
_SVD = _rng.standard_normal((160, 160))
_LOOP = [float(i) for i in range(6000)]
_MM = _rng.standard_normal((300, 300))


def compute_probe():
    np.linalg.eigvals(_EIG)
    np.linalg.svd(_SVD)
    acc = 0.0
    for x in _LOOP:
        acc += x * x
    [complex(x, acc) for x in _LOOP]


def svd_probe():
    np.linalg.svd(_SVD)
    _MM @ _MM



class Calibration:
    """A probe and its time at the reference speed.  The reference times
    are about the probes' medians in the faster phases of the 2-core host
    the benchmark was tuned on (Python 3.11, numpy 2.4, OpenBLAS 0.3.31)."""

    def __init__(self, probe, reference_s):
        self.probe = probe
        self.reference_s = reference_s

    def sample(self):
        """Wall seconds of one probe."""
        t0 = time.perf_counter()
        self.probe()
        return time.perf_counter() - t0

    def case_factors(self, samples):
        """Scale factor per case from probe samples taken before each case
        and after the last (len(samples) = cases + 1)."""
        return [self.reference_s / median(samples[max(0, i - WINDOW + 1):i + 1 + WINDOW])
                for i in range(len(samples) - 1)]

    def timed(self, fn):
        """Wall seconds of fn() at the reference speed, from one probe on
        each side of it."""
        before = self.sample()
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        return dt * self.reference_s / ((before + self.sample()) / 2.0)


COMPUTE = Calibration(compute_probe, 0.008)
SVD = Calibration(svd_probe, 0.006)


def start_calibration(cwd, env):
    """START, for interpreters started in `cwd` with `env`."""
    def probe():
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env,
                       check=True, capture_output=True, timeout=60)
    return Calibration(probe, 0.060)
