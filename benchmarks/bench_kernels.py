"""Time the certifying kernel on six matrices and on two stacks of 20.

For each case, the right pass as the solver runs it, in one
``collatz_wielandt_stack`` call on the matrix alone (which proposes the
vector, eig's up to n = 8, the squaring's, ``_power_vectors``, up to
n = 64, and iterates both passes to the end).  It prints the proposal,
the vectors the pass tried (the ones
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

Then 20 dense matrices at n = 16 and n = 48,
the terms of a ``perron converge`` trace, certified (both passes,
certificate assembly included) in one stacked call, and in 20 calls of
one matrix each.  The iterations are summed, the width is the widest.
The stacked time is split into the square products of
``_power_vectors`` (their count in the iterations column, each timed
as the kernel takes it, ``_kernels._square`` of a stack of that many
matrices) and the rest.  The last column gives the minor page faults
per call (``ru_minflt``, steady state: after a warm-up call), which the
kernel's per-thread scratch arrays keep near 0 on the squaring route.

Then 20-term ``perron converge`` traces (``harness.run_trace``) from
the reducible bases of the ``certify_converge`` workload
(``perfbench/cases.py``: three dense blocks at scales 1, 0.6 and 0.3,
sparse coupling above them) at n = 16 and 48, seeds 0 to 2.  Their
terms are positive with spectral gaps near 0.6 to 0.7, where the
squaring's give-up rule decides whether the passes of terms and blocks
stop at their proposal.  Each row gives the best trace time, the
kernel stacks the trace took, and how many of their passes finished at
two iterations (at the kept proposal), at three (one sweep from it) and
above three, so the rule can be re-checked on another host.

Then the cost per call on small inputs: ``perron_root`` on a dense
positive matrix at n = 1 to 8 (uniform [0, 10) entries, as the
``hard_spectra`` workload draws them), beside the eigensolve of the
matrix and its transpose, the one a certificate takes there (none at
n = 1): through ``np.linalg.eig``, and as the kernel calls it, numpy's
batched dgeev driver alone.  The last two columns are the wrapper's
share (eig minus the driver), which the kernel does not pay, and what a
call costs beyond the driver.  The last three are one
``collatz_wielandt_stack`` call on the matrix (none at n = 1), what
``perron_root`` costs beyond it (validation and the certificate's
assembly), and one ``solver.residual`` of the certificate, which forms
its right vector on first read and A v from the matrix on every call.
Each is the best over the repeats of the mean of 200 calls.

Then whole commands, in process: ``perron gelfand`` (a uniform [0, 1)
matrix) and ``perron converge`` (20 terms from a dense base), at n = 16
and 48, through ``cli.main`` with stdout discarded.

Then the parse section: ``matcore.parse_matrix`` (``nonneg=True``, as
``perron analyze`` reads) on the ``analyze_large`` families at n = 300
and 800 (``perfbench/cases.py``: ring+noise at 1% and 10%, 6 and 20
planted blocks, a nilpotent DAG), each written as perfbench writes its
files (``cases.render``: repr, zeros as ``0.0``).  Each row gives the
file's bytes per entry, the route ``parse_matrix`` takes (``zero``, the
route that converts only tokens other than ``0`` and ``0.0``, at n >= 100
and at most 6 bytes per entry, or ``loadtxt``), the median time of
``parse_matrix`` and of its loadtxt route alone (the zero route switched
off), and the minor page faults per call of each, so both cut-overs can
be re-timed on another host.

Then the structure section: ``structure.frobenius_normal_form`` on the
same families, dense matrices at n = 4, 16, 48, DAGs at n = 16, 48 and,
around the cut-over ``structure._REACH_N``, a ring with 5% noise and a
bare cycle.
Each row gives the median time of the normal form and, on the boolean
pattern, of the breadth-first search from vertex 0 (``_reaches_all``:
whether it reached every vertex both ways, yes or no) and of Tarjan's
walk, so the cut-over can be re-timed on another host.

Last, cold start: in each of at least 11 fresh interpreters (this
checkout's sources, the caller's environment otherwise), the time of
``import numpy``, then ``import perron``, ``import perron.cli``, the
first ``perron_root`` (a 2x2) and ``perron analyze`` on a 4x4 file,
each step timed alone.  It prints each step's median, the perron
modules that step loaded, and whether perron's bytecode was read from a
cache (``PYTHONDONTWRITEBYTECODE`` set, or a first run, leaves none), so
the start-up cost of a command can be re-timed on another host.

Usage: python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from perron import _kernels, cli, harness, matcore, solver, structure

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


def square_products(bs):
    """Stack sizes of the square products ``_power_vectors`` takes."""
    sizes, square = [], _kernels._square

    def recording(q, i):
        sizes.append(len(q))
        return square(q, i)

    _kernels._square = recording
    try:
        _kernels._power_vectors(bs)
    finally:
        _kernels._square = square
    return sizes


def _products(bs, sizes):
    for k in sizes:
        _kernels._square(bs[:k], 1)


def minor_faults(run, b, calls=5):
    """Minor page faults per call of run(b), after one call that warms
    up the kernel's scratch arrays."""
    run(b)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        run(b)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def stack_rows(repeats):
    rows = []
    for name, bs in stacks():
        for label, run in ((f"{name}, stacked", _stacked),
                           (f"{name}, one by one", _one_by_one)):
            t, certs = best_time(run, bs, repeats)
            rows.append((label, str(sum(c.iterations for c in certs)), f"{t * 1e3:.3f}",
                         f"{max(c.width for c in certs):.3g}",
                         "yes" if all(c.converged for c in certs) else "no",
                         f"{minor_faults(run, bs):.0f}"))
            if run is _stacked:
                sizes = square_products(bs)
                t_sq, _ = best_time(lambda b: _products(b, sizes), bs, repeats)
                rows += [(f"{name}, stacked: square products", str(len(sizes)),
                          f"{t_sq * 1e3:.3f}", "-", "-", "-"),
                         (f"{name}, stacked: the rest", "-",
                          f"{(t - t_sq) * 1e3:.3f}", "-", "-", "-")]
    return rows


def trace_rows(repeats):
    rows = [("reducible-base trace", "ms", "stacks", "passes at 2", "at 3", "above 3")]
    stack = solver.collatz_wielandt_stack
    iterations = []

    def recording(*args):
        out = stack(*args)
        iterations.append([p.iterations for p in out])
        return out

    solver.collatz_wielandt_stack = recording
    try:
        for n in (16, 48):
            for seed in (0, 1, 2):
                rng = np.random.default_rng(seed)
                spec = harness.SequenceSpec(
                    base=cases._reducible_base(rng, n)[0],
                    direction=rng.uniform(0.0, 0.1, (n, n)), count=20)
                iterations.clear()
                harness.run_trace(spec, TOL, MAX_ITER)
                counts = [sum(f(i) for its in iterations for i in its)
                          for f in (lambda i: i == 2, lambda i: i == 3, lambda i: i > 3)]
                t, _ = best_time(lambda sp: harness.run_trace(sp, TOL, MAX_ITER),
                                 spec, repeats)
                rows.append((f"n={n}, seed {seed}", f"{t * 1e3:.3f}", str(len(iterations)),
                             *map(str, counts)))
    finally:
        solver.collatz_wielandt_stack = stack
    return rows


def per_call_rows(repeats, calls=200):
    rng = np.random.default_rng(11)
    rows = [("perron_root, dense positive", "call us", "eig us", "dgeev us",
             "wrapper us", "rest us", "kernel us", "assembly us", "residual us")]

    def us(t):
        return f"{t / calls * 1e6:.1f}"

    for n in range(1, 9):
        a = rng.uniform(0.0, 10.0, (n, n))
        t_call, certs = best_time(
            lambda b: [solver.perron_root(b, TOL, MAX_ITER) for _ in range(calls)],
            a, repeats)
        t_res, _ = best_time(lambda c: [solver.residual(a, c) for _ in range(calls)],
                             certs[0], repeats)
        if n < 2:
            rows.append((f"n={n}", us(t_call), "-", "-", "-", us(t_call), "-",
                         us(t_call), us(t_res)))
            continue
        bs = np.stack((a, a.T))
        t_eig, _ = best_time(lambda b: [np.linalg.eig(b) for _ in range(calls)],
                             bs, repeats)
        t_dgeev, _ = best_time(
            lambda b: [_kernels._dgeev(b, signature="d->DD") for _ in range(calls)],
            bs, repeats)
        t_kernel, _ = best_time(
            lambda b: [_kernels.collatz_wielandt_stack(b, TOL, MAX_ITER) for _ in range(calls)],
            a[None], repeats)
        rows.append((f"n={n}", us(t_call), us(t_eig), us(t_dgeev),
                     us(t_eig - t_dgeev), us(t_call - t_dgeev), us(t_kernel),
                     us(t_call - t_kernel), us(t_res)))
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


def analyze_families(rng):
    """The ``analyze_large`` families at n = 300 and 800."""
    out = []
    for n in (300, 800):
        out += [(f"ring 1% {n}", cases.ring_noise(rng, n, 0.01)),
                (f"ring 10% {n}", cases.ring_noise(rng, n, 0.10))]
        out += [(f"planted {k} {n}", cases.planted_reducible(rng, n, k, n // 50)[0])
                for k in (6, 20)]
        out.append((f"DAG {n}", cases.nilpotent_dag(rng, n, 0.01, depth=20)))
    return out


def structure_cases():
    rng = np.random.default_rng(9)
    out = analyze_families(rng)
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
        tarjan, _ = median_time(lambda: structure._tarjan(structure._adjacency(p)), repeats)
        rows.append((name, f"{fnf * 1e3:.3f}", f"{search * 1e3:.3f}",
                     "yes" if settled else "no",
                     f"{tarjan * 1e3:.3f}"))
    return rows


def parse_rows(repeats):
    """Median times and minor page faults per call of ``parse_matrix``
    and of its loadtxt route alone, on the files perfbench writes."""
    rows = [("parse case", "B/entry", "route", "parse ms", "loadtxt ms",
             "parse minflt", "loadtxt minflt")]
    zeros = matcore._parse_zeros

    def parse(text):
        return matcore.parse_matrix(text, nonneg=True)

    for name, a in analyze_families(np.random.default_rng(9)):
        text = cases.render(a)
        times, faults = [], []
        for route in (zeros, lambda text: None):  # as it is, then loadtxt alone
            matcore._parse_zeros = route
            try:
                times.append(f"{median_time(lambda: parse(text), repeats)[0] * 1e3:.3f}")
                faults.append(f"{minor_faults(parse, text):.0f}")
            finally:
                matcore._parse_zeros = zeros
        rows.append((name, f"{len(text) / a.size:.2f}",
                     "zero" if zeros(text) is not None else "loadtxt", *times, *faults))
    return rows


_COLD_START = """
import contextlib, importlib, importlib.util, io, json, os, sys, time
cached = os.path.exists(
    importlib.util.cache_from_source(importlib.util.find_spec("perron").origin))
steps = []

def step(label, run):
    before = set(sys.modules)
    t0 = time.perf_counter()
    run()
    t = time.perf_counter() - t0
    steps.append((label, t, sorted(m for m in set(sys.modules) - before
                                   if m.split(".")[0] == "perron")))

def analyze():
    with contextlib.redirect_stdout(io.StringIO()):
        assert sys.modules["perron.cli"].main(["analyze", sys.argv[1]]) == 0

step("import numpy", lambda: importlib.import_module("numpy"))
step("import perron", lambda: importlib.import_module("perron"))
step("import perron.cli", lambda: importlib.import_module("perron.cli"))
step("first perron_root, 2x2", lambda: sys.modules["perron"].perron_root(
    sys.modules["numpy"].array([[1.0, 2.0], [3.0, 4.0]])))
step("perron analyze, 4x4 file", analyze)
print(json.dumps({"cached": cached, "steps": steps}))
"""


def cold_start_rows(runs):
    """Median time of each start-up step over fresh interpreters."""
    src = pathlib.Path(structure.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "a4.txt")
        matcore.write_matrix_file(path, np.random.default_rng(12).uniform(0.5, 1.5, (4, 4)))
        for _ in range(runs):
            proc = subprocess.run([sys.executable, "-c", _COLD_START, path], env=env,
                                  capture_output=True, text=True, check=True)
            reports.append(json.loads(proc.stdout))
    rows = [(f"cold start, {runs} interpreters", "median ms", "perron modules loaded")]
    for i, (label, _, loaded) in enumerate(reports[0]["steps"]):
        t = statistics.median(r["steps"][i][1] for r in reports)
        rows.append((label, f"{t * 1e3:.1f}",
                     " ".join(m.removeprefix("perron.") for m in loaded) or "-"))
    cached = sum(r["cached"] for r in reports)
    note = (f"bytecode read from a cache in {cached} of {runs} runs "
            f"(PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r})")
    return rows, note


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

    rows = [("case", "iterations", "ms", "width", "converged", "minflt/call")]
    for name, b in workloads():
        b = np.ascontiguousarray(b, dtype=np.float64)
        t, (lo, hi, _, iterations) = best_time(
            lambda a: _kernels.collatz_wielandt_stack(a[None], TOL, MAX_ITER)[0], b,
            args.repeats)
        rows.append((f"{name}, {_proposal(b.shape[0])} proposal", str(iterations),
                     f"{t * 1e3:.3f}", f"{hi - lo:.3g}", "yes" if hi - lo <= TOL else "no", "-"))
    rows += stack_rows(args.repeats)
    print_table(rows)
    print()
    print_table(trace_rows(args.repeats))
    print()
    print_table(per_call_rows(args.repeats))
    print()
    print_table(command_rows(args.repeats))
    print()
    print_table(parse_rows(args.repeats))
    print()
    print_table(structure_rows(args.repeats))
    print()
    rows, note = cold_start_rows(max(11, args.repeats))
    print_table(rows)
    print(note)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
