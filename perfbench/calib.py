"""Speed calibration for timing on a shared host.

On a machine shared with other tenants the same code can run twice as
slow for tens of seconds, which would swamp any change worth measuring.
``measure()`` times a fixed piece of work made of the same ingredients
as perron's (parsing a large text of floats, interpreter loops over
lists and dicts, 8 x 8 and 800 x 800 numpy matrix-vector products) but
sharing no code with it, so a change to the library cannot move it.
Its working set is a few MB, so it slows down both when a neighbour
competes for the core and when it competes for the caches.  The benchmark
interleaves it with the workload and scales every timing by
``REF_S / measured``: timings are reported in milliseconds of a
reference machine on which this work takes ``REF_S`` seconds.  The raw
timings are printed alongside.
"""

import time

import numpy as np

# about what the work takes on an idle 2-vCPU x86_64 host of the kind
# the benchmark was written on
REF_S = 0.02

_rng = np.random.default_rng(12345)
_TEXT = " ".join(map(repr, _rng.uniform(0.0, 10.0, 60000).tolist()))
_SMALL = _rng.uniform(0.0, 1.0, (8, 8))
_LARGE = _rng.uniform(0.0, 1.0, (800, 800))


def _work():
    total = float(np.array([float(tok) for tok in _TEXT.split()]).sum())
    index = {}
    stack = []
    for i in range(6000):
        stack.append(i % 97)
        if len(stack) > 8:
            index[stack.pop(0)] = i
    x = np.full(8, 0.125)
    for _ in range(150):
        y = _SMALL @ x + x
        x = y / y.sum()
    z = np.full(800, 1.0 / 800)
    for _ in range(6):
        y = _LARGE @ z + z
        z = y / y.sum()
    return total + len(index) + float(x[0] + z[0])


def measure() -> float:
    """Seconds the calibration work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
