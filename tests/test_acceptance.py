"""Acceptance gate: nine go/no-go criteria at pinned tolerances.

Each criterion is one test, so `pytest tests/test_acceptance.py -v`
prints one pass/fail line per criterion.  Seeds are fixed; every run
checks the same matrices.
"""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np

from perron import harness, matcore, perturb, solver, structure
from generators import (
    flip_to_cone,
    planted_block_matrix,
    random_irreducible,
    random_nonneg,
    reducible_base,
)
from oracles import (
    closed_form_root, cw_exact, cw_midpoint, det_bisect_root, strongly_connected_bool,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_c1_oracle_enclosure():
    # certified interval contains the brute-force root within 1e-9:
    # polynomial bisection (n <= 3, cross-checked against closed forms)
    # and the long Collatz-Wielandt midpoint for all n
    rng = np.random.default_rng(101)
    excursion = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        a = rng.uniform(0.0, 10.0, (n, n))
        cert = solver.perron_root(a, tol=1e-12)
        refs = [cw_midpoint(a)]
        if n <= 3:
            refs += [det_bisect_root(a), closed_form_root(a)]
        for ref in refs:
            excursion = max(excursion, cert.lo - ref, ref - cert.hi)
            assert cert.lo - 1e-9 <= ref <= cert.hi + 1e-9
    print(f"C1 oracle enclosure: 1000 matrices, worst excursion {excursion:.2e}")


def test_c2_monotonicity():
    # 0 <= A <= B forces mid(A) <= mid(B) up to certificate widths
    rng = np.random.default_rng(102)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        density = float(rng.uniform(0.2, 1.0))
        a = random_nonneg(rng, n, scale=5.0, density=density)
        b = a + random_nonneg(rng, n, scale=2.0, density=density)
        ca = solver.perron_root(a)
        cb = solver.perron_root(b)
        assert ca.mid <= cb.mid + ca.width + cb.width
    print("C2 monotonicity: 1000 pairs, zero violations")


def test_c3_perturbation_soundness():
    # |mid rho(A+E) - mid rho(A)| <= ||E||_F / q_star plus widths; the
    # enclosure meets A+E's certificate and, where A+E has a right
    # witness, holds the exact least and greatest ratio of that witness,
    # so rho(A+E), in exact arithmetic
    rng = np.random.default_rng(103)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a = random_irreducible(rng, n)
        raw = rng.uniform(-1.0, 1.0, (n, n))
        nrm = matcore.frobenius_norm(raw)
        if nrm > 0.0:
            raw *= float(rng.uniform(0.0, 0.1)) / nrm
        e = flip_to_cone(a, raw)
        res = perturb.continuity_certificate(a, a + e)
        assert res.e_norm <= 0.1 + 1e-12
        prime = solver.perron_root(a + e)
        shift = abs(prime.mid - res.base.mid)
        assert shift <= res.bound + res.base.width + prime.width
        lo, hi = res.enclosure
        assert lo <= prime.hi and prime.lo <= hi
        if prime.right_witness is not None:
            least, greatest = cw_exact(a + e, prime.right_witness)
            assert Fraction(lo) <= least and greatest <= Fraction(hi)
    print("C3 perturbation soundness: 500 perturbations, zero violations")


def test_c4_normal_form():
    rng = np.random.default_rng(104)
    for _ in range(500):
        a, _sizes = planted_block_matrix(rng)
        fnf = structure.frobenius_normal_form(a)
        permuted = matcore.apply_symmetric_permutation(a, fnf.perm)
        for i, (si, ei) in enumerate(fnf.blocks):
            assert np.array_equal(fnf.block_matrices[i], permuted[si:ei, si:ei])
            assert structure.is_irreducible(fnf.block_matrices[i])
            assert strongly_connected_bool(fnf.block_matrices[i])
            for sj, ej in fnf.blocks[:i]:
                assert not permuted[si:ei, sj:ej].any()
        whole = solver.perron_root(a)
        block_certs = [solver.perron_root(b) for b in fnf.block_matrices]
        best = max(block_certs, key=lambda c: c.mid)
        assert abs(best.mid - whole.mid) <= best.width + whole.width
    print("C4 normal form: 500 planted matrices, zero violations")


def test_c5_reducible_traces():
    # every row passes, and lo(b_k) <= hi(r_k); the last block radius
    # is within 2 * s_count * ||direction||_F * n of the base radius
    rng = np.random.default_rng(105)
    for _ in range(100):
        base = reducible_base(rng)
        n = base.shape[0]
        direction = rng.uniform(0.0, 1.0, (n, n))
        spec = harness.SequenceSpec(
            base=base, direction=direction, rule="inv-k", coeff=1.0, count=20
        )
        trace = harness.run_trace(spec)
        assert trace.kind == "reducible" and trace.ok
        for row in trace.rows:
            assert row.extra[0] <= row.cert.hi  # lo(b_k) <= hi(r_k)
        b_lo, b_hi, _ = trace.rows[-1].extra
        final = abs(0.5 * (b_lo + b_hi) - trace.base_cert.mid)
        limit = 2.0 * spec.scale(20) * matcore.frobenius_norm(direction) * n
        assert final <= limit
    print("C5 reducible traces: 100 traces x 20 rows, zero violations")


def test_c6_nilpotent_branch():
    # A_k = [[0,1],[1/k,0]] squares to (1/k) I, so r_k = k^(-1/2)
    spec = harness.SequenceSpec(
        base=[[0.0, 1.0], [0.0, 0.0]],
        direction=[[0.0, 0.0], [1.0, 0.0]],
        rule="inv-k",
        coeff=1.0,
        count=20,
    )
    trace = harness.run_trace(spec)
    assert trace.kind == "nilpotent"
    assert trace.nilpotency == 2
    for row in trace.rows:
        exact = row.k ** -0.5
        assert abs(row.cert.mid - exact) <= 1e-8 * exact
        assert row.cert.hi ** 2 <= 1.0 / row.k + 1e-10
    print("C6 nilpotent branch: 20 rows match k^(-1/2) to rel 1e-8")


def test_c7_gelfand_homogeneity():
    rng = np.random.default_rng(107)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        density = float(rng.uniform(0.3, 1.0))
        x = random_nonneg(rng, n, scale=4.0, density=density)
        for m in range(1, 11):
            demo = harness.nonuniformity_demo(x, m, [2.0, 10.0, 100.0])
            if demo.vacuous:
                continue
            for row in demo.rows:
                checked += 1
                assert row.rel_err <= 1e-12
    assert checked >= 300
    print(f"C7 Gelfand homogeneity: {checked} scaled residuals within rel 1e-12")


def test_c8_power_identity():
    rng = np.random.default_rng(108)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        density = float(rng.uniform(0.3, 1.0))
        a = random_nonneg(rng, n, scale=3.0, density=density)
        p = int(rng.choice([2, 3]))
        powered, direct = solver.power_radius_identity_check(a, p)
        assert max(powered[0], direct[0]) <= min(powered[1], direct[1])
    print("C8 power identity: 200 matrices, certified intervals intersect")


def _run_cli(args):
    # the child runs in the fixtures directory, where a relative
    # PYTHONPATH no longer points at the sources
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "perron.cli", *args],
        capture_output=True,
        cwd=FIXTURES,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_c9_determinism():
    commands = [
        ["analyze", "cycle3.txt"],
        ["analyze", "blocks4.txt", "--format", "csv"],
        ["certify", "cycle2.txt", "cycle2_perturbed.txt"],
        ["converge", "reducible3.txt", "direction3.txt", "--count", "6"],
        ["converge", "nilpotent2.txt", "dir_lowerleft2.txt", "--count", "5",
         "--format", "csv"],
        ["converge", "cycle2.txt", "dir_lowerleft2.txt", "--schedule", "geom:0.5",
         "--count", "5"],
        ["gelfand", "triangular2.txt", "--m-max", "6"],
        ["gelfand", "ones2.txt", "--format", "csv"],
    ]
    for args in commands:
        first = _run_cli(args)
        second = _run_cli(args)
        assert first == second, f"output drifted across runs: {args}"
        assert first[0] == 0

    rng = np.random.default_rng(109)
    fixtures = sorted(
        p for p in FIXTURES.glob("*.txt")
        if p.name not in ("bad_token.txt", "negative.txt", "dir_negcorner2.txt")
    )
    assert len(fixtures) >= 10
    for path in fixtures:
        a = matcore.read_matrix_file(path, nonneg=True)
        ref_sizes = sorted(structure.frobenius_normal_form(a).block_sizes)
        ref_irr = structure.is_irreducible(a)
        for _ in range(50):
            p = rng.permutation(a.shape[0])
            b = matcore.apply_symmetric_permutation(a, p)
            assert sorted(structure.frobenius_normal_form(b).block_sizes) == ref_sizes
            assert structure.is_irreducible(b) == ref_irr
    print(
        f"C9 determinism: {len(commands)} commands byte-stable, "
        f"{len(fixtures)} fixtures x 50 relabelings invariant"
    )
