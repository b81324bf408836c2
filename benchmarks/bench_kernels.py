"""Time the certifying kernel on six matrices and on two stacks of 20.

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
run at.  Each case runs once more from the start the solver's first
step gives the right pass: eig's vector up to n = 8, above it the
squaring's right vector (``_power_vectors``); the time includes the
eig call or the squarings, which the solver spends once for both
passes.

Then the stacked first step: 20 dense matrices at n = 16 and n = 48,
the terms of a ``perron converge`` trace, certified (both passes,
certificate assembly included) in one stacked call, and in 20 calls of
one matrix each.  The iterations are summed, the width is the widest.

Usage: python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from perron import _kernels, solver

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


def _proposed(b):
    propose = _kernels._eig_vectors if b.shape[0] <= _kernels._EIG_N else (
        _kernels._power_vectors)
    right = propose(b[None])[0]
    return _kernels.collatz_wielandt(
        b, TOL, MAX_ITER, start=None if np.isnan(right[0]) else right)


def stacks():
    rng = np.random.default_rng(8)
    return [(f"20 dense {n}x{n}", rng.uniform(0.5, 1.5, (20, n, n))) for n in (16, 48)]


def _stacked(bs):
    return solver._certify_irreducible(bs, TOL, MAX_ITER)


def _one_by_one(bs):
    return [c for b in bs for c in solver._certify_irreducible(b[None], TOL, MAX_ITER)]


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
        start = "eig" if b.shape[0] <= _kernels._EIG_N else "power"
        for label, run in ((name, _plain), (f"{name}, {start} start", _proposed)):
            t, (lo, hi, _, iterations, converged) = best_time(run, b, args.repeats)
            rows.append((label, str(iterations), f"{t * 1e3:.3f}", f"{hi - lo:.3g}",
                         "yes" if converged else "no"))
    for name, bs in stacks():
        for label, run in ((f"{name}, stacked", _stacked),
                           (f"{name}, one by one", _one_by_one)):
            t, certs = best_time(run, bs, args.repeats)
            rows.append((label, str(sum(c.iterations for c in certs)), f"{t * 1e3:.3f}",
                         f"{max(c.width for c in certs):.3g}",
                         "yes" if all(c.converged for c in certs) else "no"))

    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
