import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perron import harness, matcore, solver, structure
from generators import random_irreducible, random_nonneg, reducible_base

TWO_CYCLE = np.array([[0.0, 1.0], [1.0, 0.0]])
CORNER = np.array([[0.0, 0.0], [0.0, 1.0]])
_BASE_2X2 = np.array([[1.0, 2.0], [3.0, 4.0]])


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
        # one vector per pass leaves q_star at 0.4 where the true one is
        # 1e-4: the k=1 bound read 2e-6 against a real shift of 9.05e-4
        spec = harness.SequenceSpec(
            base=[[1.0, 1.0], [1e-8, 1.0]], direction=[[0.0, 0.0], [1e-6, 0.0]]
        )
        with pytest.raises(ValueError, match="did not converge"):
            harness.run_trace(spec, max_iter=1)
        row = harness.run_trace(spec).rows[0]
        assert 9.0e-4 < row.deviation <= row.extra[0]


class TestReducibleTrace:
    def test_triangular_block_extraction(self):
        # terms [[1,1],[s,2]] couple the blocks; the dominant block entry
        # itself never moves, so b_k stays exactly [2, 2]
        spec = harness.SequenceSpec(
            base=[[1.0, 1.0], [0.0, 2.0]],
            direction=[[0.0, 0.0], [1.0, 0.0]],
            count=10,
        )
        trace = harness.run_trace(spec)
        assert trace.kind == "reducible"
        assert trace.columns == ("b_lo", "b_hi")
        assert trace.ok
        assert trace.final_deviation == 0.0
        for row in trace.rows:
            assert row.extra == (2.0, 2.0)
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
        assert trace.final_deviation <= trace.final_threshold

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
            assert trace.spectral_block_index == structure.spectral_block(base)


def _same_cert(got, want):
    """Field for field, vectors byte for byte."""
    def raw(v):
        return None if v is None else v.tobytes()

    return (got.lo, got.hi, got.iterations, got.converged, got.residual,
            raw(got.right_vector), raw(got.left_vector)) == (
        want.lo, want.hi, want.iterations, want.converged, want.residual,
        raw(want.right_vector), raw(want.left_vector))


def _trace_family(family, n, rng):
    """A base and a direction whose terms exercise one path of the kernel."""
    if family == "dense":  # eig (n <= 8) or squaring (8 < n <= 64)
        return rng.uniform(0.5, 1.5, (n, n)), rng.uniform(0.0, 0.1, (n, n))
    if family == "ring":  # n > 64: the serial kernel alone
        base = np.roll(np.eye(n), 1, axis=1) + rng.uniform(0.0, 0.05, (n, n))
        return base, rng.uniform(0.0, 0.1, (n, n))
    if family == "cycle":  # the proposal is rejected: the serial kernel
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
                s, e = fnf.blocks[trace.spectral_block_index]
                permuted = matcore.apply_symmetric_permutation(term, fnf.perm)
                block = solver.perron_root(permuted[s:e, s:e])
                assert row.extra == (block.lo, block.hi)

    def test_dense_trace_is_one_stacked_call(self, monkeypatch, rng):
        # the base and all 20 terms leave the first step finished
        calls = {"stack": 0, "serial": 0}
        stack, serial = solver.collatz_wielandt_stack, solver.collatz_wielandt

        def counting_stack(*args, **kwargs):
            calls["stack"] += 1
            return stack(*args, **kwargs)

        def counting_serial(*args, **kwargs):
            calls["serial"] += 1
            return serial(*args, **kwargs)

        monkeypatch.setattr(solver, "collatz_wielandt_stack", counting_stack)
        monkeypatch.setattr(solver, "collatz_wielandt", counting_serial)
        spec = harness.SequenceSpec(
            base=rng.uniform(0.5, 1.5, (16, 16)),
            direction=rng.uniform(0.0, 0.1, (16, 16)), count=20,
        )
        trace = harness.run_trace(spec)
        assert trace.ok and len(trace.rows) == 20
        assert calls == {"stack": 1, "serial": 0}
        assert all(row.cert.iterations == 4 for row in trace.rows)


class TestTermsValidatedOnce:
    """A term is checked where it is built; its normal form, and that of
    each spectral block read off it, keep the array without a copy."""

    @pytest.mark.parametrize("kind", ["irreducible", "reducible", "nilpotent"])
    def test_normal_forms_share_the_terms(self, monkeypatch, rng, kind):
        n = 16
        if kind == "irreducible":
            base = rng.uniform(0.5, 1.5, (n, n))
        elif kind == "reducible":
            base = reducible_base(rng)
            n = base.shape[0]
        else:
            base = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        spec = harness.SequenceSpec(
            base=base, direction=rng.uniform(0.0, 0.1, (n, n)), count=5)
        terms, items, validated = [], [], []
        term, roots, nonneg = (
            harness.SequenceSpec.term, solver._perron_roots, matcore.nonneg_matrix)

        def building(self, k):
            terms.append(term(self, k))
            return terms[-1]

        def certifying(batch, *args):
            items.extend(batch)
            return roots(batch, *args)

        def validating(a):
            validated.append(np.shape(a))
            return nonneg(a)

        monkeypatch.setattr(harness.SequenceSpec, "term", building)
        monkeypatch.setattr(solver, "_perron_roots", certifying)
        monkeypatch.setattr(matcore, "nonneg_matrix", validating)
        trace = harness.run_trace(spec)
        assert trace.kind == kind and trace.ok
        assert validated == []
        assert all(isinstance(f, structure.FrobeniusNormalForm) for f in items)
        forms = [f for f in items if f is not spec.normal_form]
        assert len(terms) == 5
        assert len(forms) == (2 if kind == "reducible" else 1) * len(terms)
        for t, f in zip(terms, forms):
            assert f.matrix is t and not t.flags.writeable
        if kind == "reducible":
            fnf = spec.normal_form
            s, e = fnf.blocks[trace.spectral_block_index]
            block = np.ix_(fnf.perm[s:e], fnf.perm[s:e])
            for t, f in zip(terms, forms[len(terms):]):
                assert f.matrix.base is None and np.array_equal(f.matrix, t[block])


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
            assert row.cert.hi ** 2 <= 1.0 / row.k + harness.NILPOTENT_SLACK

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
            lambda a, m: ((f * (1.0 - 1e-9), d) for f, d in steps(a, m)),
        )
        trace = harness.gelfand_trace(x, 30)
        assert not any(row.ok for row in trace.rows)

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
        assert [f for f, _ in harness._gelfand_steps(np.array(x), 4)] == [math.inf] * 4
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
            out = list(steps(a, m))
            if a[0, 0] != x[0, 0]:
                f, d = out[-1]
                out[-1] = (f + 1e-9 * clean.rows[0].expected, d)
            return iter(out)

        monkeypatch.setattr(harness, "_gelfand_steps", skewed)
        demo = harness.nonuniformity_demo(x, 10, [10.0])
        assert clean.ok and not demo.ok
        assert demo.rows[0].rel_err > 0.5e-9 > demo.rows[0].bound

    def test_overflowing_alpha_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            harness.nonuniformity_demo([[1e300, 0.0], [1e300, 0.0]], 2, [1e10])

    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="m must be"):
            harness.nonuniformity_demo(np.eye(2), 0, [2.0])
        with pytest.raises(ValueError, match="alphas"):
            harness.nonuniformity_demo([[0.0, 2.0], [0.0, 0.0]], 1, [-1.0])


class TestFormatters:
    def _trace(self):
        spec = harness.SequenceSpec(base=TWO_CYCLE, direction=CORNER, count=3)
        return harness.run_trace(spec)

    def test_table_layout(self):
        text = harness.format_convergence_trace(self._trace(), "table")
        lines = text.splitlines()
        assert lines[0].split() == ["k", "s_k", "r_lo", "r_hi", "deviation", "bound", "status"]
        assert len(lines) == 4
        assert not any(line.endswith(" ") for line in lines)
        assert all(line.endswith(("pass", "FAIL", "status")) for line in lines)

    def test_csv_round_trips_floats(self):
        trace = self._trace()
        lines = harness.format_convergence_trace(trace, "csv").splitlines()
        assert lines[0] == "k,s_k,r_lo,r_hi,deviation,bound,status"
        for row, line in zip(trace.rows, lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == row.k
            assert float(cells[1]) == row.scale
            assert float(cells[2]) == row.cert.lo
            assert float(cells[3]) == row.cert.hi
            assert float(cells[5]) == row.extra[0]
            assert cells[6] == "pass"

    def test_kind_specific_columns(self):
        red = harness.run_trace(
            harness.SequenceSpec(
                base=[[1.0, 1.0], [0.0, 2.0]],
                direction=[[0.0, 0.0], [1.0, 0.0]],
                count=2,
            )
        )
        nil = harness.run_trace(
            harness.SequenceSpec(
                base=[[0.0, 1.0], [0.0, 0.0]],
                direction=[[0.0, 0.0], [1.0, 0.0]],
                count=2,
            )
        )
        assert "b_lo,b_hi" in harness.format_convergence_trace(red, "csv").splitlines()[0]
        assert "power_bound" in harness.format_convergence_trace(nil, "csv").splitlines()[0]

    def test_gelfand_and_demo_grids(self):
        trace = harness.gelfand_trace([[0.0, 2.0], [0.0, 0.0]], 3)
        text = harness.format_gelfand_trace(trace, "csv")
        assert text.splitlines()[0] == "m,f_m,residual,status"
        assert text.splitlines()[1] == "1,2,2,pass"
        demo = harness.nonuniformity_demo([[0.0, 2.0], [0.0, 0.0]], 1, [10.0])
        out = harness.format_nonuniformity_demo(demo, "csv")
        assert out.splitlines()[0] == "alpha,residual,expected,rel_err,status"
        assert out.splitlines()[1] == "10,20,20,0,pass"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            harness.format_convergence_trace(self._trace(), "json")
