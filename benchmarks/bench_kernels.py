"""Time the certifying kernel on six matrices and on two stacks of 20.

For each case, the right pass as the solver runs it: the stacked first
step (``collatz_wielandt_stack``, which proposes the vector, eig's up to
n = 8, above it the squaring's, ``_power_vectors``, and takes the first
step of both passes), then ``collatz_wielandt`` where the step hands the
pass on.  It prints the proposal, the vectors the pass tried (the ones
vector, a kept proposal, power sweeps and Noda steps), the best wall time
over the repeats, and the certified width hi - lo.  The slow 2x2 has a
spectral gap of about 2e-4, which power sweeps alone would need some
10^5 iterations for; the dense 8x8 is the easy case at the largest size
that gets an eig proposal, and the dense 12x12 the same just above it,
where per-call overhead is the cost; the weak 6-cycle, one weight
1e-300, has every eigenvalue on one circle and a Perron vector spanning
250 orders of magnitude; the ring is a sparse 32x32 with a cycle
backbone; the dense 48x48 is the larger size ``perron converge`` traces
run at.

Then the stacked first step: 20 dense matrices at n = 16 and n = 48,
the terms of a ``perron converge`` trace, certified (both passes,
certificate assembly included) in one stacked call, and in 20 calls of
one matrix each.  The iterations are summed, the width is the widest.
The stacked time is split into the square products of
``_power_vectors`` (their count in the iterations column, each timed
as a bare product of a stack of that many matrices) and the rest.

Then whole commands, in process: ``perron gelfand`` (a uniform [0, 1)
matrix) and ``perron converge`` (20 terms from a dense base), at n = 16
and 48, through ``cli.main`` with stdout discarded.

Last, the structure section: ``structure.frobenius_normal_form`` on
the ``analyze_large`` families at n = 300 and 800 (``perfbench/cases.py``:
ring+noise at 1% and 10%, 6 and 20 planted blocks, a nilpotent DAG),
dense matrices at n = 4, 16, 48, DAGs at n = 16, 48 and, around the
cut-over ``structure._REACH_N``, a ring with 5% noise and a bare cycle.
Each row gives the median time of the normal form and, on the boolean
pattern, of the breadth-first search with its level budget (what it
settled: yes, no, or "gave up") and of Tarjan's walk, so the cut-over
can be re-timed on another host.

Usage: python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import contextlib
import io
import pathlib
import statistics
import sys
import tempfile
import time

import numpy as np

from perron import _kernels, cli, matcore, solver, structure

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from perfbench import cases  # noqa: E402

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


def _right_pass(b):
    state = _kernels.collatz_wielandt_stack(b[None], TOL, MAX_ITER)[0]
    if isinstance(state, _kernels.Resume):
        return _kernels.collatz_wielandt(b, TOL, MAX_ITER, state)
    return state


def _proposal(n):
    if n <= _kernels._EIG_N:
        return "eig"
    return "power" if n <= _kernels._SQUARE_N else "no"


def stacks():
    rng = np.random.default_rng(8)
    return [(f"20 dense {n}x{n}", rng.uniform(0.5, 1.5, (20, n, n))) for n in (16, 48)]


def _stacked(bs):
    return solver._certify_irreducible(bs, TOL, MAX_ITER)


def _one_by_one(bs):
    return [c for b in bs for c in solver._certify_irreducible(b[None], TOL, MAX_ITER)]


class _Products(np.ndarray):
    """Records the stack size of every square product (a stack times a
    stack) taken of it and its views."""

    sizes = []

    def __matmul__(self, other):
        if self.ndim == np.ndim(other) == 3:
            _Products.sizes.append(self.shape[0])
        return super().__matmul__(other)


def square_products(bs):
    """Stack sizes of the square products ``_power_vectors`` takes."""
    _Products.sizes = []
    _kernels._power_vectors(bs.view(_Products))
    return _Products.sizes


def _products(bs, sizes):
    for k in sizes:
        bs[:k] @ bs[:k]


def stack_rows(repeats):
    rows = []
    for name, bs in stacks():
        for label, run in ((f"{name}, stacked", _stacked),
                           (f"{name}, one by one", _one_by_one)):
            t, certs = best_time(run, bs, repeats)
            rows.append((label, str(sum(c.iterations for c in certs)), f"{t * 1e3:.3f}",
                         f"{max(c.width for c in certs):.3g}",
                         "yes" if all(c.converged for c in certs) else "no"))
            if run is _stacked:
                sizes = square_products(bs)
                t_sq, _ = best_time(lambda b: _products(b, sizes), bs, repeats)
                rows += [(f"{name}, stacked: square products", str(len(sizes)),
                          f"{t_sq * 1e3:.3f}", "-", "-"),
                         (f"{name}, stacked: the rest", "-",
                          f"{(t - t_sq) * 1e3:.3f}", "-", "-")]
    return rows


def command_rows(repeats):
    """Median times of whole gelfand and converge commands, in process."""
    rng = np.random.default_rng(10)
    rows = [("command", "ms")]
    with tempfile.TemporaryDirectory() as tmp:
        for n in (16, 48):
            files = {}
            for key, a in (("x", rng.uniform(0.0, 1.0, (n, n))),
                           ("base", rng.uniform(0.5, 1.5, (n, n))),
                           ("direction", rng.uniform(0.0, 0.1, (n, n)))):
                files[key] = str(pathlib.Path(tmp) / f"{key}{n}.txt")
                matcore.write_matrix_file(files[key], a)
            for label, argv in (
                (f"gelfand n={n}", ["gelfand", files["x"]]),
                (f"converge n={n}, 20 terms",
                 ["converge", files["base"], files["direction"], "--count", "20"]),
            ):
                def run():
                    with contextlib.redirect_stdout(io.StringIO()):
                        return cli.main(argv)

                t, code = median_time(run, repeats)
                rows.append((label if code == 0 else f"{label} (exit {code})",
                             f"{t * 1e3:.3f}"))
    return rows


def structure_cases():
    rng = np.random.default_rng(9)
    out = []
    for n in (300, 800):
        out += [(f"ring 1% {n}", cases.ring_noise(rng, n, 0.01)),
                (f"ring 10% {n}", cases.ring_noise(rng, n, 0.10))]
        out += [(f"planted {k} {n}", cases.planted_reducible(rng, n, k, n // 50)[0])
                for k in (6, 20)]
        out.append((f"DAG {n}", cases.nilpotent_dag(rng, n, 0.01, depth=20)))
    out += [(f"dense {n}", rng.uniform(0.5, 1.5, (n, n))) for n in (4, 16, 48)]
    out += [(f"DAG {n}", cases.nilpotent_dag(rng, n, 0.3, depth=8)) for n in (16, 48)]
    for n in sorted({structure._REACH_N // 2, structure._REACH_N, 2 * structure._REACH_N}):
        cycle = np.zeros((n, n))
        cycle[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        out += [(f"ring 5% {n}", cases.ring_noise(rng, n, 0.05)), (f"cycle {n}", cycle)]
    return out


def median_time(run, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def structure_rows(repeats):
    rows = [("structure case", "normal form ms", "search ms", "settled", "Tarjan ms")]
    for name, a in structure_cases():
        p = a > 0.0
        fnf, _ = median_time(lambda: structure.frobenius_normal_form(a), repeats)
        search, settled = median_time(lambda: structure._reaches_all(p), repeats)
        tarjan, _ = median_time(lambda: structure.strongly_connected_components(p), repeats)
        rows.append((name, f"{fnf * 1e3:.3f}", f"{search * 1e3:.3f}",
                     "yes" if settled else "no",
                     f"{tarjan * 1e3:.3f}"))
    return rows


def print_table(rows):
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))


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
        t, (lo, hi, _, iterations, converged) = best_time(_right_pass, b, args.repeats)
        rows.append((f"{name}, {_proposal(b.shape[0])} proposal", str(iterations),
                     f"{t * 1e3:.3f}", f"{hi - lo:.3g}", "yes" if converged else "no"))
    rows += stack_rows(args.repeats)
    print_table(rows)
    print()
    print_table(command_rows(args.repeats))
    print()
    print_table(structure_rows(args.repeats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
