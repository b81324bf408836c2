import dataclasses
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perron import harness, matcore, solver, structure
from perron._kernels import _frobenius_up
from generators import (
    planted_block_matrix, random_irreducible, random_nonneg, reducible_base, three_block_base,
)
from oracles import cw_exact, power_norms

TWO_CYCLE = np.array([[0.0, 1.0], [1.0, 0.0]])
CORNER = np.array([[0.0, 0.0], [0.0, 1.0]])
_BASE_2X2 = np.array([[1.0, 2.0], [3.0, 4.0]])


def _dyadic_stack(n):
    """1 to 4 n x n matrices of integers 0..16, each times its own 2^(k-4),
    k near 0 or near the norm bounds of the BLAS chain."""
    entries = st.lists(
        st.lists(st.integers(0, 16), min_size=n, max_size=n), min_size=n, max_size=n)
    scales = st.one_of(st.integers(-540, -460), st.integers(-8, 8), st.integers(990, 1023))
    return st.lists(
        st.builds(lambda e, k: np.ldexp(np.array(e, dtype=np.float64), k - 4).tolist(),
                  entries, scales),
        min_size=1, max_size=4)


def _weighted_8_cycle(closing):
    """An 8-cycle with weights 1e300, 20, ..., 20 and ``closing`` at (7, 0)."""
    a = np.diag([1e300] + [20.0] * 6, 1)
    a[7, 0] = closing
    return a.tolist()


class TestSequenceSpec:
    def test_schedules(self):
        kw = dict(base=TWO_CYCLE, direction=CORNER, coeff=3.0)
        assert harness.SequenceSpec(rule="inv-k", **kw).scale(4) == 0.75
        assert harness.SequenceSpec(rule="inv-k2", **kw).scale(4) == 3.0 / 16.0
        geom = harness.SequenceSpec(rule="geom", gamma=0.5, **kw)
        assert geom.scale(1) == 1.5
        assert geom.scale(4) == 3.0 * 0.5**4

    def test_scales_decrease_to_zero(self):
        for rule in ("inv-k", "inv-k2", "geom"):
            spec = harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER, rule=rule)
            scales = [spec.scale(k) for k in range(1, 30)]
            assert all(a > b > 0.0 for a, b in zip(scales, scales[1:]))

    def test_term_values(self):
        spec = harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER, count=3)
        np.testing.assert_array_equal(spec.term(2), [[0.0, 1.0], [1.0, 0.5]])

    def test_term_leaving_cone_raises(self):
        spec = harness.SequenceSpec(base=TWO_CYCLE, direction=-CORNER, coeff=0.5)
        with pytest.raises(ValueError, match="k=1"):
            spec.term(1)

    def test_overflowing_term_raises(self):
        # clamping does not hide an entry that overflowed to -inf
        big = np.array([[1e308, 1.0], [1.0, 1.0]])
        for spec in (
            harness.SequenceSpec(base=big, direction=big, count=3),
            harness.SequenceSpec(base=TWO_CYCLE, direction=-1e300 * CORNER,
                                 coeff=1e10, clamp=True),
        ):
            with pytest.raises(ValueError, match="term k=1 has a non-finite"):
                spec.term(1)
            with pytest.raises(ValueError, match="k=1"):
                harness.run_trace(spec)

    @pytest.mark.parametrize("per_chunk", [1, 2, 20])
    def test_bad_terms_are_named(self, per_chunk):
        # the first bad term, and its first bad entry in row order, are
        # named, whether the term is built alone or in a chunk's stack
        base = np.ones((3, 3))
        for direction, message in (
            ([[0.0, 0.0, 0.0], [0.0, 0.0, -2.0], [-2.0, 0.0, 0.0]],
             r"term k=1 leaves the nonnegative cone at \(1, 2\)"),
            ([[0.0, 0.0, 0.0], [0.0, 1e308, 0.0], [1e308, 0.0, 0.0]],
             r"term k=1 has a non-finite entry at \(1, 1\)"),
        ):
            spec = harness.SequenceSpec(base=base, direction=direction, coeff=4.0, count=6)
            with pytest.raises(ValueError, match=message):
                spec.term(1)
            with mock.patch.object(harness, "_CHUNK_ENTRIES", per_chunk * 9):
                with pytest.raises(ValueError, match=message):
                    harness.run_trace(spec)

    def test_clamped_rows_are_those_of_the_clamped_terms(self, rng):
        base = rng.uniform(0.5, 1.5, (6, 6))
        direction = rng.uniform(-3.0, 1.0, (6, 6))
        spec = harness.SequenceSpec(base=base, direction=direction, count=8, clamp=True)
        with mock.patch.object(harness, "_CHUNK_ENTRIES", 3 * 36):
            trace = harness.run_trace(spec)
        for row in trace.rows:
            term = np.maximum(spec.base + row.scale * spec.direction, 0.0)
            assert np.array_equal(spec.term(row.k), term)
            assert _same_cert(row.cert, solver.perron_root(term))
        assert not (spec.term(1) > 0.0).all() and (spec.term(8) > 0.0).all()

    def test_clamp_keeps_terms_nonnegative(self):
        spec = harness.SequenceSpec(
            base=TWO_CYCLE, direction=-CORNER, coeff=0.5, clamp=True
        )
        np.testing.assert_array_equal(spec.term(1), TWO_CYCLE)

    def test_validation(self):
        with pytest.raises(ValueError, match="rule"):
            harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER, rule="linear")
        with pytest.raises(ValueError, match="coeff"):
            harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER, coeff=0.0)
        with pytest.raises(ValueError, match="gamma"):
            harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER, rule="geom", gamma=1.0)
        with pytest.raises(ValueError, match="count"):
            harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER, count=0)
        with pytest.raises(ValueError, match="shape"):
            harness.SequenceSpec(base=TWO_CYCLE, direction=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            harness.SequenceSpec(base=-TWO_CYCLE, direction=CORNER)
        spec = harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER)
        with pytest.raises(ValueError, match="index"):
            spec.scale(0)

    def test_matrices_are_read_only(self):
        spec = harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER)
        with pytest.raises(ValueError):
            spec.base[0, 0] = 5.0


class TestIrreducibleTrace:
    def test_zero_direction_is_flat(self):
        spec = harness.SequenceSpec(base=TWO_CYCLE, direction=np.zeros((2, 2)), count=5)
        trace = harness.run_trace(spec)
        assert trace.kind == "irreducible"
        assert trace.columns == ("bound",)
        assert trace.ok
        for row in trace.rows:
            assert row.deviation == 0.0
            assert row.extra == (0.0,)

    def test_corner_direction_matches_closed_form(self):
        # rho([[0,1],[1,s]]) is the larger root of x^2 - s x - 1
        spec = harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER, count=12)
        trace = harness.run_trace(spec)
        assert trace.ok
        assert [row.k for row in trace.rows] == list(range(1, 13))
        for row in trace.rows:
            s = row.scale
            exact = 0.5 * (s + math.sqrt(s * s + 4.0))
            assert abs(row.cert.mid - exact) <= 1e-9
            # q_star = 1/2 and ||D||_F = 1, so the bound is exactly 2 s_k
            (bound,) = row.extra
            assert abs(bound - 2.0 * s) <= 1e-12
            assert row.deviation <= bound

    def test_geometric_schedule(self):
        spec = harness.SequenceSpec(
            base=TWO_CYCLE, direction=CORNER, rule="geom", gamma=0.25, count=8
        )
        trace = harness.run_trace(spec)
        assert trace.ok
        assert trace.rows[-1].scale == 0.25**8
        # s_k shrinks by a power of two, so the bounds do so exactly
        for row, next_row in zip(trace.rows, trace.rows[1:]):
            assert row.extra[0] == 4.0 * next_row.extra[0]

    def test_bound_dominates_observed(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            spec = harness.SequenceSpec(
                base=random_irreducible(rng, n),
                direction=random_nonneg(rng, n, scale=1.0),
                coeff=0.05,
                count=4,
            )
            trace = harness.run_trace(spec)
            assert trace.kind == "irreducible"
            assert trace.ok
            for row in trace.rows:
                (bound,) = row.extra
                widths = row.cert.width + trace.base_cert.width
                assert row.deviation <= bound + widths

    def test_rejects_unconverged_base(self):
        # no longer refused: one vector per pass leaves the witness's q*
        # near 0.4 where the Perron vector's is 1e-4, but the enclosure is
        # centred on that witness's own bracket, as wide as it needs; each
        # term's radius, bracketed exactly by a converged witness, lies in it
        spec = harness.SequenceSpec(
            base=[[1.0, 1.0], [1e-8, 1.0]], direction=[[0.0, 0.0], [1e-6, 0.0]]
        )
        trace = harness.run_trace(spec, max_iter=1)
        assert not trace.base_cert.converged and trace.ok
        l, h = map(Fraction, trace.base_cert.passes[1][:2])
        for row in trace.rows:
            term = spec.term(row.k)
            least, greatest = cw_exact(term, solver.perron_root(term, tol=1e-15).right_witness)
            bound = Fraction(row.extra[0])
            assert l - bound <= least and greatest <= h + bound
        row = harness.run_trace(spec).rows[0]
        assert 9.0e-4 < row.deviation <= row.extra[0]


class TestReducibleTrace:
    def test_triangular_block_extraction(self):
        # terms [[1,1],[s,2]] couple the blocks; the dominant block entry
        # itself never moves, so b_k stays exactly [2, 2], its bound 0
        spec = harness.SequenceSpec(
            base=[[1.0, 1.0], [0.0, 2.0]],
            direction=[[0.0, 0.0], [1.0, 0.0]],
            count=10,
        )
        trace = harness.run_trace(spec)
        assert trace.kind == "reducible"
        assert trace.columns == ("b_lo", "b_hi", "bound")
        assert trace.ok
        for row in trace.rows:
            assert row.extra == (2.0, 2.0, 0.0) and row.deviation == 0.0
            s = row.scale
            exact = 0.5 * (3.0 + math.sqrt(1.0 + 4.0 * s))
            assert abs(row.cert.mid - exact) <= 1e-9
            assert row.extra[0] <= row.cert.hi

    def test_block_diagonal_base(self):
        base = np.zeros((3, 3))
        base[0, 1] = base[1, 0] = 1.0
        base[2, 2] = 2.0
        spec = harness.SequenceSpec(base=base, direction=np.ones((3, 3)), count=20)
        trace = harness.run_trace(spec)
        assert trace.ok
        assert trace.spectral_block_index is not None
        # the spectral block is [2]: q* = 1, and B_k is 2 + s_k as stored
        for row in trace.rows:
            stored = 2.0 + row.scale
            assert row.extra[:2] == (stored, stored)
            assert row.deviation == stored - 2.0 <= row.extra[2] <= row.scale * (1.0 + 1e-12)

    def test_base_certified_once_matches_direct_calls(self, rng):
        # one round of block certificates picks the block and certifies
        # the base, exactly as the standalone calls do
        for _ in range(10):
            base = reducible_base(rng)
            spec = harness.SequenceSpec(base=base, direction=np.ones(base.shape), count=2)
            trace = harness.run_trace(spec)
            direct = solver.perron_root(base)
            assert (trace.base_cert.lo, trace.base_cert.hi) == (direct.lo, direct.hi)
            assert trace.base_cert.iterations == direct.iterations
            assert trace.spectral_block_index == solver.spectral_block(base)

    def test_base_certificate_holds_the_spectral_block(self, monkeypatch, rng):
        # three 4 x 4 blocks, transposed so that the spectral block comes
        # last: one kernel call certifies the base, as one round of block
        # certificates did before the base certificate kept them, and the
        # chunk's 12 x 12 terms and 4 x 4 B_k take one each
        spec = harness.SequenceSpec(base=three_block_base(rng, 12).T,
                                    direction=rng.uniform(0.0, 0.1, (12, 12)), count=5)
        calls = _count_kernel_calls(monkeypatch)
        trace = harness.run_trace(spec)
        assert trace.kind == "reducible" and trace.ok and calls["stack"] == 3
        fnf, i = spec.normal_form, trace.spectral_block_index
        assert len(trace.base_cert.blocks) == len(fnf.blocks) == 3 and i == 2
        block_cert = trace.base_cert.blocks[i]
        assert _same_cert(block_cert, solver.perron_root(fnf.block_matrices[i]))
        # its q* is the one that bounds the rows
        q = solver.q_star(block_cert)
        start, end = fnf.blocks[i]
        at = np.ix_(fnf.perm[start:end], fnf.perm[start:end])
        for row in trace.rows:
            e = float(_frobenius_up((spec.term(row.k)[at] - fnf.block_matrices[i])[None])[0])
            assert row.extra[2] == (math.nextafter(e / q, math.inf) if e else 0.0)


class TestEveryRowHolds:
    """One rule checks every row of a base that is not nilpotent: b_k
    meets the bracket of B's left witness widened by ||B_k - B||_F /
    q*(B), and lo(b_k) <= hi(r_k)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["planted", "reducible", "irreducible"]),
        st.integers(min_value=0, max_value=2**32 - 1),
        # 2^k, or None: entrywise by 10^U(-6, 6)
        st.one_of(st.none(), st.integers(min_value=-500, max_value=500)),
        st.floats(min_value=-12.0, max_value=0.0),
    )
    def test_no_row_fails(self, family, seed, k, log_coeff):
        rng = np.random.default_rng(seed)
        if family == "planted":
            base, _ = planted_block_matrix(rng)
        elif family == "reducible":
            base = reducible_base(rng)
        else:
            base = random_irreducible(rng, int(rng.integers(2, 9)))
        n = base.shape[0]
        base = base * 10.0 ** rng.uniform(-6.0, 6.0, (n, n)) if k is None else np.ldexp(base, k)
        direction = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
        spec = harness.SequenceSpec(base=base, direction=direction, coeff=10.0**log_coeff, count=8)
        trace = harness.run_trace(spec, max_iter=10**4)
        assert trace.ok, [row for row in trace.rows if not row.ok]

    def test_block_pushed_past_the_bound_fails(self, monkeypatch):
        # the spectral block [2] moves to 2 + s_k, its bound s_k (q* = 1);
        # block intervals moved down by 3 s_k still hold lo(b_k) <= hi(r_k),
        # but shift 2 s_k, past the bound
        base = np.zeros((3, 3))
        base[0, 1] = base[1, 0] = 1.0
        base[2, 2] = 2.0
        spec = harness.SequenceSpec(base=base, direction=np.ones((3, 3)), count=5)
        assert harness.run_trace(spec).ok
        roots = solver._perron_roots

        def pushed(items, *args):
            certs, blocks = roots(items, *args), items[-1]
            if not isinstance(blocks, np.ndarray):  # the base's own call
                return certs
            shifts = [3.0 * spec.scale(k) for k in range(1, len(blocks) + 1)]
            return certs[:-len(blocks)] + [
                dataclasses.replace(c, lo=c.lo - d, hi=c.hi - d)
                for c, d in zip(certs[-len(blocks):], shifts)]

        monkeypatch.setattr(solver, "_perron_roots", pushed)
        trace = harness.run_trace(spec)
        assert not any(row.ok for row in trace.rows) and not trace.ok
        for row in trace.rows:
            b_lo, _, bound = row.extra
            assert b_lo <= row.cert.hi and row.deviation > bound


def _same_cert(got, want):
    """Field for field, each pass's too, witnesses and vectors byte for
    byte."""
    def raw(v):
        return None if v is None else v.tobytes()

    def fields(c):
        return (c.lo, c.hi, c.iterations, c.converged,
                [(p.lo, p.hi, raw(p.witness), p.iterations) for p in c.passes],
                raw(c.right_witness), raw(c.left_witness),
                raw(c.right_vector), raw(c.left_vector))

    return fields(got) == fields(want)


def _block_bound(block_k, block):
    """||B_k - B||_F / q*(B) as ``perturb.continuity_certificate`` rounds it."""
    e = float(_frobenius_up((block_k - block)[None])[0])
    return math.nextafter(e / solver.q_star(solver.perron_root(block)), math.inf) if e else 0.0


def _trace_family(family, n, rng):
    """A base and a direction whose terms exercise one path of the kernel."""
    if family == "dense":  # eig (n <= 8) or squaring (8 < n <= 64)
        return rng.uniform(0.5, 1.5, (n, n)), rng.uniform(0.0, 0.1, (n, n))
    if family == "ring":  # n > 64: no proposal, iterated from the ones vector
        base = np.roll(np.eye(n), 1, axis=1) + rng.uniform(0.0, 0.05, (n, n))
        return base, rng.uniform(0.0, 0.1, (n, n))
    if family == "cycle":  # the proposal is rejected: iterated from the ones vector
        pattern = np.roll(np.eye(n), 1, axis=1)
        return (pattern * np.exp(rng.uniform(-690.0, 0.0, n)),
                pattern * rng.uniform(0.0, 1.0, n))
    # reducible: block certificates, and spectral blocks of the terms
    base = reducible_base(rng)
    return base, rng.uniform(0.0, 0.1, base.shape)


class TestBatchCertificates:
    """run_trace certifies a chunk of terms in one stacked call; each
    certificate must be the one perron_root gives the term alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([("dense", 2, 8), ("dense", 9, 64), ("ring", 80, 80),
                         ("cycle", 12, 24), ("reducible", 0, 0)]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=7),
    )
    # the ring's base certifies to width 9.55e-13, under tol, though
    # neither pass alone does: converged is the intersected width's
    @example(("ring", 80, 80), 21790459, 7)
    # an n = 17 cycle whose base stalls out unconverged after 122
    # iterations: its rows are checked all the same
    @example(("cycle", 12, 24), 794590, 1)
    def test_rows_match_single_certificates(self, family, seed, per_chunk):
        (name, low, high), rng = family, np.random.default_rng(seed)
        base, direction = _trace_family(name, int(rng.integers(low, high + 1)), rng)
        spec = harness.SequenceSpec(base=base, direction=direction, count=7)
        n = spec.base.shape[0]
        # chunks of per_chunk terms, so that chunk boundaries are crossed
        with mock.patch.object(harness, "_CHUNK_ENTRIES", per_chunk * n * n):
            trace = harness.run_trace(spec)
        assert _same_cert(trace.base_cert, solver.perron_root(spec.base))
        fnf = spec.normal_form
        for row in trace.rows:
            term = spec.term(row.k)
            assert _same_cert(row.cert, solver.perron_root(term))
            if trace.kind == "reducible":
                i = trace.spectral_block_index
                s, e = fnf.blocks[i]
                b_k = matcore.apply_symmetric_permutation(term, fnf.perm)[s:e, s:e]
                block = solver.perron_root(b_k)
                assert row.extra == (block.lo, block.hi, _block_bound(b_k, fnf.block_matrices[i]))

    def test_dense_trace_is_one_stacked_call(self, monkeypatch, rng):
        # the base and all 20 terms leave the first step finished
        calls = _count_kernel_calls(monkeypatch)
        spec = harness.SequenceSpec(
            base=rng.uniform(0.5, 1.5, (16, 16)),
            direction=rng.uniform(0.0, 0.1, (16, 16)), count=20,
        )
        trace = harness.run_trace(spec)
        assert trace.ok and len(trace.rows) == 20
        assert calls == {"stack": 1, "longest": 2}
        assert all(row.cert.iterations == 4 for row in trace.rows)

    @pytest.mark.parametrize("n", [16, 48])
    def test_moderate_gaps_finish_in_the_stack(self, monkeypatch, n):
        # terms converging to a reducible limit have spectral gaps near
        # 0.6 to 0.7, where the squaring must not give up early, and a
        # proposal left just above tol by the rounding of seven squarings
        # (seed 0, n = 48: four passes 8e-13 to 1e-12 off) is finished by
        # one sweep: no pass of a term or a block goes further
        calls = _count_kernel_calls(monkeypatch)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            spec = harness.SequenceSpec(
                base=three_block_base(rng, n),
                direction=rng.uniform(0.0, 0.1, (n, n)), count=20)
            trace = harness.run_trace(spec)
            assert trace.kind == "reducible" and trace.ok
        assert calls["longest"] <= 3 and calls["stack"] >= 40

    def test_oscillating_changes_finish_in_the_stack(self, monkeypatch, fixtures_dir):
        # a nilpotent base plus a small positive direction gives terms
        # with a complex subdominant pair, whose squaring changes
        # oscillate (0.37, 0.82, 0.18, 0.21, then 0.008): the fourth
        # square is taken, and every pass stops within one sweep of it
        calls = _count_kernel_calls(monkeypatch)
        spec = harness.SequenceSpec(
            base=matcore.read_matrix_file(fixtures_dir / "nil16_base.txt"),
            direction=matcore.read_matrix_file(fixtures_dir / "nil16_direction.txt"),
            count=20)
        trace = harness.run_trace(spec, max_iter=20_000)
        assert trace.kind == "nilpotent" and trace.ok
        assert calls["longest"] <= 3

    @pytest.mark.parametrize("kind", ["irreducible", "reducible", "nilpotent"])
    def test_chunks_do_not_change_rows(self, rng, kind):
        n = 12
        if kind == "irreducible":
            base = rng.uniform(0.5, 1.5, (n, n))
        elif kind == "reducible":
            base = three_block_base(rng, n)
        else:
            base = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        spec = harness.SequenceSpec(
            base=base, direction=rng.uniform(0.0, 0.1, (n, n)), count=7)
        whole = harness.run_trace(spec)
        assert whole.kind == kind
        for per_chunk in (1, 3):
            with mock.patch.object(harness, "_CHUNK_ENTRIES", per_chunk * n * n):
                split = harness.run_trace(spec)
            assert _same_cert(split.base_cert, whole.base_cert)
            for got, want in zip(split.rows, whole.rows, strict=True):
                assert (got.k, got.scale, got.deviation, got.ok, got.extra) == (
                    want.k, want.scale, want.deviation, want.ok, want.extra)
                assert _same_cert(got.cert, want.cert)
        if kind == "nilpotent":  # F_p of each term taken alone, as a 1-stack
            p = whole.nilpotency
            for row in whole.rows:
                f = harness._gelfand_steps(spec.term(row.k)[None], p)[0]
                assert row.extra[0].hex() == float(f[0, -1]).hex()


def _count_kernel_calls(monkeypatch):
    """Counts of the stacked kernel calls, and the most iterations any of
    their passes took."""
    calls = {"stack": 0, "longest": 0}
    stack = solver.collatz_wielandt_stack

    def counting_stack(*args, **kwargs):
        calls["stack"] += 1
        out = stack(*args, **kwargs)
        calls["longest"] = max(calls["longest"], *(p[3] for p in out))
        return out

    monkeypatch.setattr(solver, "collatz_wielandt_stack", counting_stack)
    return calls


class TestTermsValidatedOnce:
    """A chunk's terms are built and checked as one stack, read-only once
    certified.  A chunk of positive terms reaches ``_certify_irreducible``
    as that stack, and its spectral blocks as one gathered array, with no
    normal form built; a chunk with a term that is not positive goes as
    the normal forms of its slices, each keeping its slice, as a
    one-matrix view.  ``_perron_roots`` joins the stacks of one size into
    one kernel stack, a copy, wherever it has more than one, as in a
    first chunk that also certifies the base; the spy sees through that
    join to the stacks it was given."""

    @pytest.mark.parametrize("kind", ["irreducible", "reducible", "nilpotent", "clamped"])
    def test_normal_forms_share_the_terms(self, monkeypatch, rng, kind):
        n, clamp = 16, kind == "clamped"
        direction = rng.uniform(0.0, 0.1, (n, n))
        if kind in ("irreducible", "clamped"):
            base = rng.uniform(0.5, 1.5, (n, n))
        elif kind == "reducible":
            base = reducible_base(rng)
            n = base.shape[0]
            direction = direction[:n, :n]
        else:
            base = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        if clamp:
            # terms 1 and 2 get a zero at (0, 0), clamped and exactly, so
            # every term of the chunk, positive or not, is a normal form
            direction = np.zeros((n, n))
            direction[0, 0] = -2.0 * base[0, 0]
        spec = harness.SequenceSpec(base=base, direction=direction, count=5, clamp=clamp)
        stacks, certified, validated, joins = [], [], [], []
        terms, certify, nonneg, concatenate = (
            harness.SequenceSpec._terms, solver._certify_irreducible, matcore.nonneg_matrix,
            np.concatenate)

        def building(self, ks):
            stacks.append(terms(self, ks))
            return stacks[-1]

        def joining(arrays, *args, **kwargs):
            joins.append((list(arrays), concatenate(arrays, *args, **kwargs)))
            return joins[-1][1]

        def certifying(ms, *args):
            # a joined stack stands for the stacks it joined
            certified.extend(next((parts for parts, out in joins if out is ms), [ms]))
            return certify(ms, *args)

        def validating(a):
            validated.append(np.shape(a))
            return nonneg(a)

        monkeypatch.setattr(harness.SequenceSpec, "_terms", building)
        monkeypatch.setattr(np, "concatenate", joining)
        monkeypatch.setattr(solver, "_certify_irreducible", certifying)
        monkeypatch.setattr(matcore, "nonneg_matrix", validating)
        trace = harness.run_trace(spec)
        assert trace.kind == ("irreducible" if clamp else kind) and trace.ok
        assert validated == []
        [stack] = stacks  # one chunk
        assert stack.shape == (5, n, n) and not stack.flags.writeable
        fnf = spec.normal_form
        given = [m for m in certified if not any(np.shares_memory(m, b)
                                                 for b in fnf.block_matrices)]
        if clamp:
            assert len(given) == 5
            for i, m in enumerate(given):
                assert m.base is stack and np.array_equal(m, stack[i:i + 1])
            return
        assert given[0] is stack
        assert len(given) == (2 if kind == "reducible" else 1)
        if kind == "reducible":
            s, e = fnf.blocks[trace.spectral_block_index]
            block = np.ix_(fnf.perm[s:e], fnf.perm[s:e])
            gathered = given[1]
            assert gathered.shape == (5, e - s, e - s) and not gathered.flags.writeable
            for b, t in zip(gathered, stack):
                assert np.array_equal(b, t[block])


class TestNilpotentTrace:
    def test_inverse_sqrt_decay(self):
        # A_k = [[0,1],[1/k,0]] has radius k^(-1/2) and A_k^2 = (1/k) I
        spec = harness.SequenceSpec(
            base=[[0.0, 1.0], [0.0, 0.0]],
            direction=[[0.0, 0.0], [1.0, 0.0]],
            count=20,
        )
        trace = harness.run_trace(spec)
        assert trace.kind == "nilpotent"
        assert trace.columns == ("power_bound",)
        assert trace.nilpotency == 2
        assert trace.ok
        for row in trace.rows:
            exact = row.k ** -0.5
            assert abs(row.cert.mid - exact) <= 1e-8 * exact
            assert abs(row.extra[0] - exact) <= 1e-12
            assert row.cert.hi ** 2 <= 1.0 / row.k + 1e-10

    def test_lo_above_the_norm_bound_fails(self, monkeypatch):
        # rho(A_k)^2 = ||A_k^2||_1 = 1/k exactly: a certificate with lo a
        # relative 1e-12 above the radius must fail on every row
        spec = harness.SequenceSpec(
            base=[[0.0, 1.0], [0.0, 0.0]], direction=[[0.0, 0.0], [1.0, 0.0]], count=20)
        roots = solver._perron_roots

        def raised(*args):
            return [dataclasses.replace(c, lo=c.lo * (1.0 + 1e-12), hi=c.hi * (1.0 + 1e-12))
                    for c in roots(*args)]

        assert harness.run_trace(spec).ok
        monkeypatch.setattr(solver, "_perron_roots", raised)
        trace = harness.run_trace(spec)
        assert not any(row.ok for row in trace.rows) and not trace.ok

    @pytest.mark.parametrize("n, p", [(1, 1), (3, 2), (5, 4), (8, 6)])
    def test_power_norms_exact_on_small_integers(self, rng, n, p):
        # entries 0..3: the exact ||t^p||_1 is an integer below 2^53, F_1
        # is it exactly, and F_p of the stack brackets it within d_p, as
        # for each term alone
        terms = rng.integers(0, 4, (5, n, n)).astype(np.float64)
        fs, ds = harness._gelfand_steps(terms, p)
        for i, t in enumerate(terms):
            alone = harness._gelfand_steps(terms[i:i + 1], p)
            assert [a.tobytes() for a in alone] == [a[i].tobytes() for a in (fs, ds)]
            norms = power_norms(t, p)
            assert fs[i, 0] == norms[0]
            exact, f, d = norms[-1], Fraction(float(fs[i, -1])), Fraction(float(ds[i, -1]))
            assert exact.denominator == 1 and exact < 2**53
            assert d < Fraction(1, 10**12)
            assert (f / (1 + d)) ** p <= exact <= (f / (1 - d)) ** p

    def test_lo_above_the_norm_bound_fails_on_a_wide_range_cycle(self, monkeypatch):
        # weights 2^400, 2^-600 closed by s_k: A_k^3 = 2^-200 s_k I, so
        # f_3 is the radius; F_3 bounds it within d_3 although the BLAS
        # chain may underflow, and a lo a relative 1e-9 above it fails
        base = np.zeros((3, 3))
        base[0, 1], base[1, 2] = 2.0**400, 2.0**-600
        spec = harness.SequenceSpec(base=base, direction=np.eye(3, k=-2), count=3)
        trace = harness.run_trace(spec)
        assert trace.nilpotency == 3 and trace.ok
        for row in trace.rows:
            _, d = harness._gelfand_steps(spec.term(row.k)[None], 3)
            assert d[0, -1] < 1e-12
        roots = solver._perron_roots

        def raised(*args):
            return [dataclasses.replace(c, lo=c.lo * (1.0 + 1e-9), hi=c.hi * (1.0 + 1e-9))
                    for c in roots(*args)]

        monkeypatch.setattr(solver, "_perron_roots", raised)
        assert not any(row.ok for row in harness.run_trace(spec).rows)

    @pytest.mark.parametrize("strict", [False, True])
    def test_entry_below_the_chain_range(self, strict):
        # 1e-160 times 1e-160 underflows in the chain, but x^3 = 0: each
        # row holds, with a zero or a strictly upper direction
        base = [[0.0, 1.0, 1e-160], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        direction = np.triu(np.ones((3, 3)), 1) if strict else np.zeros((3, 3))
        spec = harness.SequenceSpec(base=base, direction=direction, count=3)
        trace = harness.run_trace(spec)
        assert trace.nilpotency == 3 and trace.ok
        for row in trace.rows:
            assert row.cert.lo == 0.0 and row.extra == (0.0,)

    def test_zero_direction(self):
        spec = harness.SequenceSpec(
            base=[[0.0, 1.0], [0.0, 0.0]], direction=np.zeros((2, 2)), count=4
        )
        trace = harness.run_trace(spec)
        assert trace.ok
        for row in trace.rows:
            assert row.cert.lo == row.cert.hi == 0.0
            assert row.extra == (0.0,)

    def test_index_three_base(self):
        base = np.zeros((3, 3))
        base[0, 1] = base[1, 2] = 1.0
        direction = np.zeros((3, 3))
        direction[2, 0] = 1.0
        spec = harness.SequenceSpec(base=base, direction=direction, count=15)
        trace = harness.run_trace(spec)
        assert trace.nilpotency == 3
        assert trace.ok
        mids = [row.cert.mid for row in trace.rows]
        assert all(a > b for a, b in zip(mids, mids[1:]))

    def test_power_above_the_largest_float(self):
        # A_k^2 = (1e400/k) I overflows: the check runs on A_k scaled by a
        # power of two, and power_bound, 1e200/sqrt(k), is scaled back
        spec = harness.SequenceSpec(
            base=[[0.0, 1e200], [0.0, 0.0]],
            direction=[[0.0, 0.0], [1e200, 0.0]],
            count=6,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = harness.run_trace(spec)
        assert trace.ok and len(trace.rows) == 6
        for row in trace.rows:
            exact = 1e200 * row.k ** -0.5
            assert math.isfinite(row.cert.hi) and math.isfinite(row.deviation)
            assert abs(row.extra[0] - exact) <= 1e-12 * exact

    def test_power_above_the_largest_float_is_not_flushed(self):
        # an 8-cycle-shaped nilpotent base, weights 1e300, 20, ..., 20,
        # closed by 20 s_k at (7, 0): A_k^8 is diagonal, its 1-norm the
        # product of the weights, about 1.3e309; power_bound is its 8th
        # root within d_8, not 0.0
        spec = harness.SequenceSpec(base=_weighted_8_cycle(0.0),
                                    direction=np.eye(8, k=-7) * 20.0, count=2)
        trace = harness.run_trace(spec, max_iter=200)
        assert trace.kind == "nilpotent" and trace.nilpotency == 8 and trace.ok
        for row in trace.rows:
            exact = Fraction(1e300) * 20**6 * Fraction(20.0 / row.k)
            _, d = harness._gelfand_steps(spec.term(row.k)[None], 8)
            d = Fraction(float(d[0, -1]))
            (bound,) = row.extra
            assert row.ok and d < Fraction(1, 10**12)
            assert (Fraction(bound) / (1 + d)) ** 8 <= exact <= (Fraction(bound) / (1 - d)) ** 8

    def test_one_by_one_zero_base_is_nilpotent(self):
        # [[0]] is irreducible by convention too; the nilpotent check wins
        spec = harness.SequenceSpec(base=[[0.0]], direction=[[1.0]], count=4)
        trace = harness.run_trace(spec)
        assert trace.kind == "nilpotent"
        assert trace.nilpotency == 1
        assert trace.ok
        for row in trace.rows:
            assert row.extra == (row.scale,)


class TestGelfandTrace:
    def test_identity(self):
        trace = harness.gelfand_trace(np.eye(3), 6)
        assert trace.ok
        for row in trace.rows:
            assert row.f_m == 1.0
            assert row.residual == 0.0

    def test_nilpotent_drops_to_zero(self):
        trace = harness.gelfand_trace([[0.0, 2.0], [0.0, 0.0]], 4)
        assert trace.ok
        assert trace.cert.lo == trace.cert.hi == 0.0
        assert [row.f_m for row in trace.rows] == [2.0, 0.0, 0.0, 0.0]

    def test_rank_one_is_constant(self):
        # [[1,1],[1,1]]^m = 2^(m-1) * [[1,1],[1,1]], so f_m = 2 for all m
        trace = harness.gelfand_trace(np.ones((2, 2)), 10)
        assert trace.ok
        for row in trace.rows:
            assert abs(row.f_m - 2.0) <= 1e-12

    def test_values_dominate_radius(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            x = random_nonneg(rng, n, scale=2.0, density=0.6)
            trace = harness.gelfand_trace(x, 12)
            assert trace.ok
            for row in trace.rows:
                assert row.f_m >= trace.cert.lo * (1.0 - 4e-14)

    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e300])
    def test_row_below_lo_fails(self, monkeypatch, scale):
        # f_m of a ones matrix is its radius: each row passes against its
        # own bound, and fails once pushed a relative 1e-9 below lo
        x = scale * np.ones((3, 3))
        assert harness.gelfand_trace(x, 30).ok
        steps = harness._gelfand_steps
        monkeypatch.setattr(
            harness, "_gelfand_steps",
            lambda a, m: (lambda f, d: (f * (1.0 - 1e-9), d))(*steps(a, m)),
        )
        trace = harness.gelfand_trace(x, 30)
        assert not any(row.ok for row in trace.rows)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(_dyadic_stack))
    # norm 2^-407, the BLAS chain, while x^3 unnormalized is 2^-1219
    @example([np.ldexp(np.ones((2, 2)), -408).tolist()])
    # norm 2^1024, and f_m = 2^1024 above the largest float
    @example([np.full((2, 2), 2.0**1023).tolist()])
    # ||x^2||_1 = 1e400/k above the largest float, the BLAS chain
    @example([[[0.0, 1e200], [1e200 / k, 0.0]] for k in range(1, 5)])
    # ||x^8||_1 near 1.3e309 from weights 1e300 and 20
    @example([_weighted_8_cycle(20.0 / k) for k in (1, 2)])
    # a subnormal weight, and a range of 2^-1000: steps that may underflow
    @example([[[0.0, 1.0], [2.0**-1074, 0.0]], [[1.0, 2.0**-1000], [0.0, 2.0**-100]]])
    # where a chain scaled to the largest entry flushes: part of
    # ||x^2||_1 in a division, products below the normal range, an
    # entry in a prescale
    @example([[[0.0, 0.0, 2.0**-570], [2.0**-770, 2.0**-542, 0.0],
               [2.0**-923, 2.0**787, 0.0]]])
    @example([[[1.0288211318113338e-90, 2.4806964301324343e+136],
               [0.0, 3.87088560396098e-164]]])
    @example([[[0.0, 2.0**1023], [2.0**-1070, 0.0]]])
    # a step underflows in the BLAS chain
    @example([[[1.2876452363813729e-152, 8.445815910818899e+130, 7.028757061426344e+61],
               [0.0, 0.0, 0.0],
               [1.4419150210609047e-277, 3.8075841818739757e-156, 5.296401967403454e-290]]])
    def test_rows_hold_the_exact_norm(self, mats):
        # F_m is within d_m f_m + 2^-1074 of f_m = ||x^m||_1^(1/m), with
        # d_m < 1, for each matrix of a stack, checked as powers of
        # rationals against the exact norms; each matrix gets the same
        # values alone
        xs = np.array(mats, dtype=np.float64)
        fs, ds = harness._gelfand_steps(xs, 10)
        slack = Fraction(harness._TINY)
        for i, x in enumerate(xs):
            alone = harness._gelfand_steps(xs[i:i + 1], 10)
            assert [a.tobytes() for a in alone] == [a[i].tobytes() for a in (fs, ds)]
            for m, (f, d, exact) in enumerate(zip(
                    fs[i].tolist(), ds[i].tolist(), power_norms(x, 10), strict=True), 1):
                assert 0.0 <= d < 1e-9
                d = Fraction(d)
                if f == math.inf:  # f_m(1 + d_m) reaches the largest float
                    assert exact * (1 + d) ** m >= Fraction(np.finfo(np.float64).max) ** m
                    continue
                below, above = (Fraction(f) - slack) / (1 + d), (Fraction(f) + slack) / (1 - d)
                assert below <= 0 or below**m <= exact
                assert exact <= above**m

    def test_entry_below_the_chain_range(self):
        # x^3 = 0 while the chain may underflow: f_3 = 0 holds against lo = 0
        trace = harness.gelfand_trace([[0.0, 1.0, 1e-160], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], 3)
        assert trace.ok and trace.cert.lo == 0.0
        assert [row.f_m for row in trace.rows] == [1.0, 1.0, 0.0]

    @pytest.mark.parametrize("x", [
        # 1.4e-247 squared flushes in a chain scaled to the largest
        # entry, which read F_2 = F_3 = 0 where f_2 is 7.2e16
        [[1.430222333808547e-247, 3.6304123742133376e+280], [0.0, 0.0]],
        # a prescale to a norm near 1 flushes 2^-1070: F_2 read 0, where
        # f_2 is the radius 2^-23.5
        [[0.0, 2.0**1023], [2.0**-1070, 0.0]],
        [[1.43e-247, 3.63e280], [0.0, 0.0]],
    ])
    def test_rows_the_chain_flushes_hold(self, x):
        # F_2 and F_3 are within d_m f_m of the exact f_m, checked as
        # powers of rationals
        trace = harness.gelfand_trace(x, 3)
        assert trace.ok
        for m in (2, 3):
            row = trace.rows[m - 1]
            f, d = Fraction(row.f_m), Fraction(row.bound)
            exact = power_norms(trace.matrix, m)[-1]
            assert row.f_m > 0.0 and d < Fraction(1, 10**12)
            assert (f / (1 + d)) ** m <= exact <= (f / (1 - d)) ** m

    def test_m_max_validated(self):
        with pytest.raises(ValueError, match="m_max"):
            harness.gelfand_trace(np.eye(2), 0)

    def test_norm_above_largest_float(self):
        # rho = 1e308 but ||X^m||_1 = 2e308^m: f_1 overflows to inf, and
        # f_m = 1e308 * 2^(1/m) from m = 2 on, not 0
        x = [[1e308, 0.0], [1e308, 0.0]]
        trace = harness.gelfand_trace(x, 6)
        assert trace.ok
        assert trace.rows[0].f_m == math.inf
        for row in trace.rows[1:]:
            exact = 1e308 * 2.0 ** (1.0 / row.m)
            assert abs(row.f_m - exact) <= 1e-13 * exact

    def test_radius_above_largest_float_refused(self):
        x = [[1e308, 1e308], [1e308, 1e308]]
        assert harness._gelfand_steps(np.array([x]), 4)[0].tolist() == [[math.inf] * 4]
        with pytest.raises(ValueError, match="largest float"):
            harness.gelfand_trace(x, 4)
        with pytest.raises(ValueError, match="largest float"):
            harness.nonuniformity_demo(x, 4, [2.0])


class TestNonuniformityDemo:
    def test_nilpotent_gap_scales_exactly(self):
        # f_1 = 2 while rho = 0: the gap is as large as the matrix norm
        demo = harness.nonuniformity_demo([[0.0, 2.0], [0.0, 0.0]], 1, [10.0])
        assert not demo.vacuous
        assert demo.f_m == 2.0
        assert demo.residual == 2.0
        row = demo.rows[0]
        assert row.residual == 20.0
        assert row.expected == 20.0
        assert row.rel_err == 0.0
        assert demo.ok

    def test_identity_is_vacuous(self):
        demo = harness.nonuniformity_demo(np.eye(2), 3, [2.0, 10.0])
        assert demo.vacuous
        assert demo.rows == ()
        assert demo.ok

    def test_m_past_the_trace_rejected(self):
        trace = harness.gelfand_trace(np.eye(2), 3)
        assert harness.nonuniformity_demo(trace, 3, [2.0]).vacuous
        for m in (0, 4):
            with pytest.raises(ValueError, match="m must be in 1..3"):
                harness.nonuniformity_demo(trace, m, [2.0])

    def test_homogeneity_on_random_matrices(self, rng):
        nonvacuous = 0
        for _ in range(30):
            n = int(rng.integers(2, 7))
            x = random_nonneg(rng, n, scale=3.0, density=0.5)
            m = int(rng.integers(1, 9))
            demo = harness.nonuniformity_demo(x, m, [2.0, 10.0, 100.0])
            assert demo.ok
            if not demo.vacuous:
                nonvacuous += 1
                assert len(demo.rows) == 3
                for row in demo.rows:
                    assert row.rel_err <= row.bound
        assert nonvacuous >= 10

    def test_vacuity_is_relative(self):
        # the gap of [[1,2],[3,4]] at m = 10 is about 1% of f_m at every
        # scale; that of a rank-one matrix is round-off at every scale
        for scale in (1e-320, 1.0, 1e200):
            demo = harness.nonuniformity_demo(scale * _BASE_2X2, 10, [2.0, 10.0, 100.0])
            assert not demo.vacuous and len(demo.rows) == 3 and demo.ok
            assert 0.005 < demo.residual / demo.f_m < 0.02
            flat = harness.nonuniformity_demo(scale * np.ones((2, 2)), 10, [2.0])
            assert flat.vacuous

    def test_underflowing_expected_residual(self):
        # alpha * residual rounds to zero: no relative error to speak of,
        # and no division by it
        demo = harness.nonuniformity_demo(1e-28 * _BASE_2X2, 10, [1e-300])
        assert not demo.vacuous and demo.rows[0].expected == 0.0
        assert demo.rows[0].bound == math.inf and demo.ok

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_homogeneity_defect_fails(self, monkeypatch, scale):
        # the scaled copy's residual off by 1e-9 relative is a real
        # mismatch, far above the round-off bound at either scale
        x = scale * _BASE_2X2
        clean = harness.nonuniformity_demo(x, 10, [10.0])
        steps = harness._gelfand_steps

        def skewed(a, m):
            f, d = steps(a, m)
            f[a[:, 0, 0] != x[0, 0], -1] += 1e-9 * clean.rows[0].expected
            return f, d

        monkeypatch.setattr(harness, "_gelfand_steps", skewed)
        demo = harness.nonuniformity_demo(x, 10, [10.0])
        assert clean.ok and not demo.ok
        assert demo.rows[0].rel_err > 0.5e-9 > demo.rows[0].bound

    def test_each_alpha_gets_its_values_alone(self, monkeypatch, rng):
        # the scaled copies go through _gelfand_steps as one stack, the
        # 1e-300 one, below the BLAS chain's norms, by the extended chain
        # and the 1e250 one by the BLAS chain; each gets the F_m and d_m
        # it gets alone
        x = rng.uniform(0.0, 1.0, (6, 6))
        steps, extended, calls, wide = harness._gelfand_steps, harness._extended_steps, [], []

        def recording(xs, m_max):
            calls.append((xs, m_max, steps(xs, m_max)))
            return calls[-1][-1]

        def extending(xs, m_max):
            wide.append(xs)
            return extended(xs, m_max)

        monkeypatch.setattr(harness, "_gelfand_steps", recording)
        monkeypatch.setattr(harness, "_extended_steps", extending)
        demo = harness.nonuniformity_demo(x, 7, [2.0, 1e-300, 1e250])
        assert not demo.vacuous and len(demo.rows) == 3 and demo.ok
        (xs, _, _), (ys, m, stacked) = calls
        assert len(wide) == 1 and np.array_equal(wide[0], ys[1:2])
        assert xs.shape == (1, 6, 6) and ys.shape == (3, 6, 6) and m == 7
        for i, y in enumerate(ys):
            alone = steps(y[None], m)
            assert [a.tobytes() for a in alone] == [a[i].tobytes() for a in stacked]

    def test_overflowing_alpha_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            harness.nonuniformity_demo([[1e300, 0.0], [1e300, 0.0]], 2, [1e10])

    def test_subnormal_and_lost_entries(self):
        # 2^-40 X leaves the tiny entry subnormal, 2^-80 X rounds it to
        # zero: eps is t over the least entry, then 1; bounds bit for bit
        x = np.array([[2.0**-1000, 2.0], [3.0, 4.0]])
        demo = harness.nonuniformity_demo(x, 2, [0.5, 2.0**-40, 2.0**-80])
        assert not demo.vacuous and demo.ok
        assert [row.bound.hex() for row in demo.rows] == [
            "0x1.f266bc47509e2p-45", "0x1.190d2fb697f8ap-30", "0x1.19096e0a4d462p+4"]
        # the first alpha that overflows is named, wherever it stands
        with pytest.raises(ValueError, match=r"^alpha 1e\+308 times the matrix overflows$"):
            harness.nonuniformity_demo(x, 2, [2.0**-40, 1e308, 2.0**-80, 2.0**1023])

    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="m must be"):
            harness.nonuniformity_demo(np.eye(2), 0, [2.0])
        with pytest.raises(ValueError, match="alphas"):
            harness.nonuniformity_demo([[0.0, 2.0], [0.0, 0.0]], 1, [-1.0])

    @pytest.mark.parametrize("alphas", [[], [-1.0, math.nan], [2.0, math.inf], [0.0]])
    @pytest.mark.parametrize("x", [np.ones((2, 2)), [[1.0, 2.0], [3.0, 4.0]]])
    def test_alphas_checked_up_front(self, x, alphas):
        # on a vacuous demo (all ones) as on one with rows: no alpha
        # reaches the row loop unchecked, and none means no demo
        with pytest.raises(ValueError, match="alphas must be"):
            harness.nonuniformity_demo(x, 10, alphas)
        with pytest.raises(ValueError, match="alphas must be"):
            harness.nonuniformity_demo(harness.gelfand_trace(x, 10), 10, alphas)


class TestIdentityEquality:
    """Objects with array fields compare and hash by identity, so == and
    sets work where a field-by-field == would raise."""

    @pytest.mark.parametrize("make", [
        lambda: solver.perron_root(_BASE_2X2),
        lambda: structure.frobenius_normal_form(_BASE_2X2),
        lambda: harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER),
        lambda: harness.gelfand_trace(_BASE_2X2, 3),
    ], ids=["PerronCertificate", "FrobeniusNormalForm", "SequenceSpec", "GelfandTrace"])
    def test_equal_only_to_itself(self, make):
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        assert a in {a} and b not in {a} and len({a, b}) == 2
