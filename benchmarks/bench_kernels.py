"""Time the certifying kernel on six matrices.

For each case, prints the vectors the kernel tried (the ones vector, an
eig or power proposal, power sweeps and Noda steps), the best wall time
over the repeats, and the certified width hi - lo.  The slow 2x2 has a
spectral gap of about 2e-4, which power sweeps alone would need some
10^5 iterations for; the dense 8x8 is the easy case at the largest size
that gets an eig proposal, and the dense 12x12 the same just above it,
where per-call overhead is the cost; the weak 6-cycle, one weight
1e-300, has every eigenvalue on one circle and a Perron vector spanning
250 orders of magnitude; the ring is a sparse 32x32 with a cycle
backbone; the dense 48x48 is the larger size ``perron converge`` traces
run at.  The cases above n = 8 run once more from
``start=power_proposal(b)[0]``, the start the solver gives the right
pass there; their time includes the squarings, which the solver spends
once for both passes.

Usage: python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from perron import _kernels

TOL = 1e-12
MAX_ITER = 10**6


def workloads():
    rng = np.random.default_rng(7)
    slow = np.array([[1.0, 1.0], [1e-8, 1.0]])
    dense8 = rng.uniform(0.1, 1.0, (8, 8))
    dense12 = rng.uniform(0.1, 1.0, (12, 12))
    cycle6 = np.zeros((6, 6))
    cycle6[np.arange(6), (np.arange(6) + 1) % 6] = 1.0
    cycle6[2, 3] = 1e-300
    ring32 = np.zeros((32, 32))
    for i in range(32):
        ring32[i, (i + 1) % 32] = 1.0
    ring32 += rng.uniform(0.0, 0.05, (32, 32))
    dense48 = rng.uniform(0.5, 1.5, (48, 48))
    return [
        ("slow 2x2 (gap 2e-4)", slow),
        ("dense 8x8", dense8),
        ("dense 12x12", dense12),
        ("weak 6-cycle (1e-300)", cycle6),
        ("ring+noise 32x32", ring32),
        ("dense 48x48", dense48),
    ]


def _plain(b):
    return _kernels.collatz_wielandt(b, TOL, MAX_ITER)


def _from_power(b):
    proposal = _kernels.power_proposal(b)
    return _kernels.collatz_wielandt(
        b, TOL, MAX_ITER, start=None if proposal is None else proposal[0])


def best_time(run, b, repeats):
    best = np.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run(b)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per case")
    args = parser.parse_args()

    rows = [("case", "iterations", "ms", "width", "converged")]
    for name, b in workloads():
        b = np.ascontiguousarray(b, dtype=np.float64)
        runs = [(name, _plain)]
        if b.shape[0] > _kernels._EIG_N:
            runs.append((f"{name}, power start", _from_power))
        for label, run in runs:
            t, (lo, hi, _, iterations, converged) = best_time(run, b, args.repeats)
            rows.append((label, str(iterations), f"{t * 1e3:.3f}", f"{hi - lo:.3g}",
                         "yes" if converged else "no"))

    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
