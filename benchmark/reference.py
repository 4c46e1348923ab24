"""Fixed reference work that measures how fast the host runs right now.

The benchmark's host is a shared VM.  Its speed for interpreter-bound code
drifts by up to 50% over minutes, so two wall times taken a few minutes
apart say as much about the host as about the code.  A session process
therefore times rounds of fixed work between its operations, and
``session_norm_s`` divides the session's wall time by how slowly that work
ran (its *slowness*, 1.0 at the nominal speed).  The kernels are the
benchmark's own code and never call renormlab, so they are the same on
every commit; together they do the three kinds of work renormlab does.
"""

import time

import numpy as np

ROUNDS = 4          # rounds of every kernel timed at each operation boundary

_A = np.array([[1.2, 0.3], [-0.4, 0.9]])
_V = np.array([0.1, 0.2])
_PTS = np.linspace(-0.9, 0.9, 2 * 2048).reshape(2048, 2)
_C = np.linspace(-1.0, 1.0, 81).reshape(9, 9)


def scalar():
    """Scalar Python arithmetic, as in 1-D orbits."""
    x = 0.3
    for _ in range(40000):
        x = 3.7 * x * (1.0 - x)
    return x


def small_numpy():
    """Python calling numpy on 2x2 arrays, as in Henon orbit steps."""
    for _ in range(80):
        w = np.linalg.solve(_A, _V)
        q, r = np.linalg.qr(_A @ _A)
    return w, q, r


def batched():
    """Batched numpy: a 9x9 tensor polynomial at 2048 points, as in MapND."""
    for _ in range(8):
        vx = np.vander(_PTS[:, 0], 9, increasing=True)
        vy = np.vander(_PTS[:, 1], 9, increasing=True)
        out = np.einsum("za,zb,ab->z", vx, vy, _C, optimize=True)
    return out


# Each kernel with its mean wall time on the reference machine (a 2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6) when these were set, so that
# session_norm_s is in seconds at that speed.
KERNELS = ((scalar, 0.0032), (small_numpy, 0.0037), (batched, 0.0050))


def sample():
    """Slowness now: each kernel's wall time over its nominal time, ROUNDS times."""
    out = []
    for _ in range(ROUNDS):
        for fn, nominal_s in KERNELS:
            t0 = time.perf_counter()
            fn()
            out.append((time.perf_counter() - t0) / nominal_s)
    return out
