import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perron import _kernels, matcore, solver, structure
from generators import random_irreducible, random_nonneg
from oracles import eig_radius, encloses_radius


class TestPerronIrreducible:
    def test_symmetric_two_cycle(self):
        cert = solver.perron_irreducible([[0.0, 1.0], [1.0, 0.0]])
        assert cert.lo <= 1.0 <= cert.hi
        assert cert.width <= solver.DEFAULT_TOL
        np.testing.assert_allclose(cert.right_vector, [0.5, 0.5], atol=1e-12)
        assert cert.converged

    def test_quadratic_formula_case(self):
        # larger root of x^2 - 5x - 2, the characteristic polynomial
        ref = 0.5 * (5.0 + math.sqrt(33.0))
        cert = solver.perron_irreducible([[1.0, 2.0], [3.0, 4.0]])
        assert cert.lo <= ref <= cert.hi

    def test_one_by_one_is_exact(self):
        cert = solver.perron_irreducible([[2.0]])
        assert cert.lo == cert.hi == 2.0
        assert cert.residual == 0.0
        assert np.array_equal(cert.right_vector, [1.0])
        assert np.array_equal(cert.left_vector, [1.0])

    def test_rejects_reducible_input(self):
        with pytest.raises(ValueError, match="reducible"):
            solver.perron_irreducible([[1.0, 1.0], [0.0, 2.0]])

    def test_vectors_are_positive_normalized(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            cert = solver.perron_irreducible(random_irreducible(rng, n))
            assert cert.lo > 0.0
            for v in (cert.right_vector, cert.left_vector):
                assert (v > 0.0).all()
                assert abs(matcore.one_norm_vec(v) - 1.0) <= 1e-12

    def test_eigen_residual_small_at_convergence(self, rng):
        # generator keeps one_norm_mat(a) >= 0.5, which the 10x margin needs
        for _ in range(50):
            n = int(rng.integers(2, 8))
            a = random_irreducible(rng, n)
            cert = solver.perron_irreducible(a)
            assert cert.converged
            assert cert.residual <= 10.0 * solver.DEFAULT_TOL * matcore.one_norm_mat(a)

    def test_unconverged_interval_is_still_sound(self):
        a = np.array([[1.0, 1.0], [1e-9, 1.0]])
        # from max_iter=2 on, the eig proposal converges at once
        cert = solver.perron_irreducible(a, max_iter=1)
        assert not cert.converged
        assert cert.iterations == 2  # each pass stopped at its cap
        assert cert.lo <= eig_radius(a) <= cert.hi

    def test_iteration_parameters_validated(self):
        with pytest.raises(ValueError):
            solver.perron_irreducible([[2.0]], tol=0.0)
        with pytest.raises(ValueError):
            solver.perron_irreducible([[2.0]], max_iter=0)


def _passes(a, tol=solver.DEFAULT_TOL, max_iter=solver.DEFAULT_MAX_ITER):
    """Both passes of a, on a and on a.T, run to the end as the solver
    runs them: the stack's result, or collatz_wielandt resuming the
    state the stack hands on."""
    a = np.asarray(a, dtype=np.float64)
    out = _kernels.collatz_wielandt_stack(a[None], tol, max_iter)
    return [_kernels.collatz_wielandt(np.ascontiguousarray(b), tol, max_iter, p)
            if isinstance(p, _kernels.Resume) else p for b, p in zip((a, a.T), out)]


def _near_reducible(eps):
    """Two 3x3 positive blocks joined both ways by couplings of size eps,
    drawn from a fixed stream in a fixed order (two matrices per size)."""
    fixed = np.random.default_rng(1407)
    out = {}
    for size in (1e-3, 1e-6, 1e-9, 1e-12):
        for c in range(2):
            a = np.zeros((6, 6))
            a[:3, :3] = fixed.uniform(0.5, 1.5, (3, 3))
            a[3:, 3:] = fixed.uniform(0.5, 1.5, (3, 3))
            a[:3, 3:] = size * fixed.uniform(0.5, 1.5, (3, 3))
            a[3:, :3] = size * fixed.uniform(0.5, 1.5, (3, 3))
            out[size, c] = a
    return [out[eps, c] for c in range(2)]


_BASE_2X2 = np.array([[1.0, 2.0], [3.0, 4.0]])


class TestCertifiedBounds:
    """Bounds rounded outward hold the radius of the stored floats."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=-1074, max_value=1020))
    @example(-1074)
    @example(-1022)
    @example(1020)
    def test_scaled_2x2_at_every_scale(self, k):
        # 2^k * [[1,2],[3,4]] is exact for every k here, subnormal to near
        # overflow; its radius is 2^k * (5 + sqrt(33)) / 2
        cert = solver.perron_root(np.ldexp(_BASE_2X2, k))
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            rho = (5 + decimal.Decimal(33).sqrt()) / 2
            # scaling a float by 2^-k back to O(1) is exact
            assert decimal.Decimal(math.ldexp(cert.lo, -k)) <= rho
            assert rho <= decimal.Decimal(math.ldexp(cert.hi, -k))

    @pytest.mark.parametrize("k", [-1074, -1073, -1072, -1060, -1030])
    def test_subnormal_radius_at_smallest_tol(self, k):
        # iterating to the float floor puts the scaled bounds within an ulp
        # of the radius; scaling them back into the subnormal range rounds,
        # and must round outward
        cert = solver.perron_root(np.ldexp(_BASE_2X2, k), tol=5e-324)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            rho = (5 + decimal.Decimal(33).sqrt()) / 2
            assert decimal.Decimal(math.ldexp(cert.lo, -k)) <= rho
            assert rho <= decimal.Decimal(math.ldexp(cert.hi, -k))

    @pytest.mark.parametrize("c", [0, 1])
    def test_near_reducible_coupling(self, c):
        # Perron vector entries differ by ~1e-9: the unrounded bound fell
        # one ulp short of the radius
        a = _near_reducible(1e-9)[c]
        cert = solver.perron_root(a)
        assert encloses_radius(a, cert.lo, cert.hi)

    def test_easy_dense_one_ulp_case(self):
        # uniform(0, 10) draw whose unrounded hi was one ulp below the radius
        a = np.array([[6.667037720610733, 1.725115609166944],
                      [5.4850194618379335, 0.2012541969169379]])
        cert = solver.perron_root(a)
        assert encloses_radius(a, cert.lo, cert.hi)
        assert cert.converged

    def test_random_matrices_exact_enclosure(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            a = random_nonneg(rng, n, scale=10.0 ** float(rng.uniform(-30, 30)))
            cert = solver.perron_root(a)
            assert encloses_radius(a, cert.lo, cert.hi)

    def test_entries_spanning_the_exponent_range(self):
        # prescaled by 2^-988: entries below 2^-34 land under the normal
        # range and products underflow, which the absolute slack covers
        # (the interval is sound, if wide)
        a = np.array([
            [3.8836278624133076e+134, 3.544293627177226e-43, 4.642800716908912e+260,
             1.6278330345500606e+221],
            [5.215527635766868e-283, 0.0, 4.5985254435802855e-42, 0.03871381652509045],
            [3.763944288425527e+35, 1.6375648347570546e+222, 2.8610590525129236e-09,
             2.355421776031062e+57],
            [0.0, 2.3518241449067493e+297, 2.7435119332909727e-220,
             1.6535490684945394e-193],
        ])
        cert = solver.perron_root(a)
        assert encloses_radius(a, cert.lo, cert.hi)

    def test_weak_cycle(self):
        # every eigenvalue has modulus w^(1/6): power sweeps make no
        # progress and the Perron vector spans 250 orders of magnitude
        w = 1e-300
        a = np.zeros((6, 6))
        a[np.arange(6), (np.arange(6) + 1) % 6] = 1.0
        a[2, 3] = w
        cert = solver.perron_root(a)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            rho = decimal.Decimal(w) ** (decimal.Decimal(1) / 6)
            assert decimal.Decimal(cert.lo) <= rho <= decimal.Decimal(cert.hi)
        assert cert.converged

    def test_radius_above_largest_float(self):
        # rho = 2e308 exceeds DBL_MAX: a finite certified lo, hi infinite
        a = [[1e308, 1e308], [1e308, 1e308]]
        cert = solver.perron_root(a)
        assert encloses_radius(a, cert.lo, cert.hi)
        assert cert.lo == np.finfo(np.float64).max
        assert cert.hi == math.inf
        assert cert.residual is None
        assert not cert.converged

    def test_stops_at_the_float_floor(self):
        # rho ~ 5.8e301: an absolute tol of 1e-12 is far below one ulp, so
        # the kernel stops once the ratios agree to rounding, not at max_iter
        cert = solver.perron_root(np.ldexp(_BASE_2X2, 1000), tol=1e-12)
        assert not cert.converged
        assert cert.iterations < 100
        assert cert.width <= 1e-14 * cert.hi

    def test_longdouble_recertification_meets_tol(self, rng):
        # rho ~ 100 over rows of 100 nonzeros: the float64 rounding bound
        # alone, 2 * gamma_101 * rho, is wider than tol
        a = rng.uniform(0.5, 1.5, (100, 100))
        assert 2 * 101 * 2.0**-53 * eig_radius(a) > solver.DEFAULT_TOL
        cert = solver.perron_root(a)
        assert cert.converged and cert.width <= solver.DEFAULT_TOL
        assert cert.lo <= eig_radius(a) * (1 + 1e-12)
        assert eig_radius(a) * (1 - 1e-12) <= cert.hi

    def test_intersects_both_passes(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            a = matcore.nonneg_matrix(random_irreducible(rng, n))
            (r_lo, r_hi, *_), (l_lo, l_hi, *_) = _passes(a, max_iter=5)
            cert = solver.perron_irreducible(a, max_iter=5)
            assert (cert.lo, cert.hi) == (max(r_lo, l_lo), min(r_hi, l_hi))
            assert r_lo <= cert.lo <= cert.hi <= r_hi
            assert l_lo <= cert.lo <= cert.hi <= l_hi

    def test_converged_is_the_intersected_width(self):
        # near-reducible 5x5 at max_iter 3: each pass stops wider than
        # tol, their intersection is within it
        a = _small_input("near_reducible", 5, 2)
        (r_lo, r_hi, *_, r_conv), (l_lo, l_hi, *_, l_conv) = _passes(a, max_iter=3)
        cert = solver.perron_irreducible(a, max_iter=3)
        assert not (r_conv and l_conv)
        assert cert.converged and cert.width <= solver.DEFAULT_TOL


def _cycle(weights):
    n = len(weights)
    a = np.zeros((n, n))
    a[np.arange(n), (np.arange(n) + 1) % n] = weights
    return a


def _cycle_radius(a):
    # the geometric mean of the weights, to 60 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        prod = math.prod(decimal.Decimal(w) for w in a[a > 0.0])
        return prod ** (decimal.Decimal(1) / a.shape[0])


def _small_input(family, n, seed):
    """One n x n irreducible input of a hard family, from a seed."""
    rng = np.random.default_rng(seed)
    if family == "dense":
        return rng.uniform(0.0, 10.0, (n, n)) + 1e-3
    if family == "sparse":
        return random_irreducible(rng, n, density=0.3)
    if family == "weak_cycle":
        # weights down to 1e-300 (e^-690): the vector spans hundreds of
        # orders of magnitude, and entries may be subnormal
        return _cycle(np.exp(rng.uniform(-690.0, 0.0, n)))
    if family == "near_reducible":
        a = rng.uniform(0.5, 1.5, (n, n))
        h = n // 2
        eps = 10.0 ** rng.uniform(-12.0, -3.0)
        a[:h, h:] *= eps
        a[h:, :h] *= eps
        return a
    # an exact power-of-two scale, subnormal to near overflow
    return np.ldexp(rng.uniform(0.5, 1.5, (n, n)), int(rng.integers(-1000, 1000)))


class TestEigProposal:
    """n <= 8 starts from LAPACK's eigenvector; soundness rests on the
    certification alone, whatever eig proposes."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["dense", "sparse", "weak_cycle", "near_reducible", "scaled"]),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_encloses_the_radius(self, family, n, seed):
        a = _small_input(family, n, seed)
        cert = solver.perron_root(a)
        assert encloses_radius(a, cert.lo, cert.hi)

    def test_kept_on_easy_inputs(self, rng):
        # ones vector, then eig's vector at the float floor: two per pass
        for n in range(2, 9):
            cert = solver.perron_irreducible(rng.uniform(0.1, 1.0, (n, n)))
            assert cert.converged and cert.iterations == 4

    def test_size_limit(self, monkeypatch, rng):
        calls = []
        eig = np.linalg.eig

        def counting(b):
            calls.append(b.shape)
            return eig(b)

        monkeypatch.setattr(np.linalg, "eig", counting)
        for n in (8, 9):
            solver.perron_irreducible(rng.uniform(0.1, 1.0, (n, n)))
        # one call for the matrix and its transpose
        assert calls == [(2, 8, 8)]

    def test_weak_cycles_with_subnormal_vector_entries(self):
        # without the slack guard, draws 24 and 29 of this stream took
        # eig's vector with a subnormal entry and stopped unconverged at
        # the float floor, 5e-10 and 4e-11 wide
        rng = np.random.default_rng(690)
        for _ in range(30):
            n = int(rng.integers(6, 9))
            a = _cycle(np.exp(rng.uniform(-690.0, 0.0, n)))
            cert = solver.perron_root(a)
            assert cert.converged
            rho = _cycle_radius(a)
            assert decimal.Decimal(cert.lo) <= rho <= decimal.Decimal(cert.hi)

    def test_eig_failure_in_a_stack_is_retried_alone(self, monkeypatch, rng):
        # one failure fails the whole stacked call; each matrix is then
        # retried alone, so the others keep eig's vector and every
        # certificate is the one its matrix gets alone
        bad = rng.uniform(0.1, 1.0, (5, 5))
        eig = np.linalg.eig

        def flaky(b):
            if any(np.array_equal(m, bad) or np.array_equal(m, bad.T)
                   for m in b.reshape(-1, 5, 5)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(b)

        monkeypatch.setattr(np.linalg, "eig", flaky)
        mats = [rng.uniform(0.1, 1.0, (5, 5)), bad, rng.uniform(0.1, 1.0, (5, 5))]
        batch = solver._certify_blocks(
            mats, solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER)
        for a, got in zip(mats, batch):
            want = solver.perron_root(a)
            assert (got.lo, got.hi, got.iterations, got.converged, got.residual) == (
                want.lo, want.hi, want.iterations, want.converged, want.residual)
            assert got.right_vector.tobytes() == want.right_vector.tobytes()
            assert got.left_vector.tobytes() == want.left_vector.tobytes()
        assert [c.iterations == 4 for c in batch] == [True, False, True]

    def test_eig_failure_falls_back_to_iteration(self, monkeypatch, rng):
        def failing(b):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing)
        for family in ("dense", "sparse", "weak_cycle", "near_reducible", "scaled"):
            for n in (2, 5, 8):
                a = _small_input(family, n, int(rng.integers(2**32)))
                cert = solver.perron_root(a)
                assert encloses_radius(a, cert.lo, cert.hi)
                if family != "scaled":  # rho ~ 2^1000 stops at the float floor
                    assert cert.converged


class _Squarings(np.ndarray):
    """An array that counts the square products (a stack times a stack)
    taken of it and its views, not the matrix-vector products."""

    count = 0

    def __matmul__(self, other):
        if self.ndim == np.ndim(other) == 3:
            _Squarings.count += 1
        return super().__matmul__(other)


class TestPowerProposal:
    """8 < n <= _SQUARE_N starts both passes from one power of the
    matrix; soundness rests on the certification alone."""

    def test_size_limit(self, monkeypatch, rng):
        calls = []
        propose = _kernels._power_vectors

        def counting(bs):
            calls.append(bs.shape)
            return propose(bs)

        monkeypatch.setattr(_kernels, "_power_vectors", counting)
        for n in (8, 9, _kernels._SQUARE_N, _kernels._SQUARE_N + 1):
            solver.perron_irreducible(rng.uniform(0.1, 1.0, (n, n)))
        n = _kernels._SQUARE_N
        assert calls == [(1, 9, 9), (1, n, n)]

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["dense", "sparse", "weak_cycle", "near_reducible", "scaled"]),
        st.integers(min_value=9, max_value=64),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_encloses_the_radius(self, family, n, seed):
        a = _small_input(family, n, seed)
        cert = solver.perron_root(a)
        if n <= 12:  # exact elimination in Fractions is slow beyond
            assert encloses_radius(a, cert.lo, cert.hi)
        elif family == "weak_cycle":
            rho = _cycle_radius(a)
            assert decimal.Decimal(cert.lo) <= rho <= decimal.Decimal(cert.hi)
        elif family != "sparse":  # positive: eig is accurate to rounding
            rho = eig_radius(a)
            assert cert.lo <= rho * (1 + 1e-12) and rho * (1 - 1e-12) <= cert.hi

    def test_kept_on_dense_inputs(self, rng):
        # ones vector, then the proposal at the float floor: two per pass
        for n in (9, 16, 48, 64):
            cert = solver.perron_irreducible(rng.uniform(0.1, 1.0, (n, n)))
            assert cert.converged and cert.iterations == 4

    def test_bad_start_is_ignored(self, monkeypatch, rng):
        # a proposal that is not better than the ones vector: the pass
        # resumes from the ones vector, as with no proposal
        n, tol = 12, solver.DEFAULT_TOL
        b = rng.uniform(0.1, 1.0, (n, n))
        x = _kernels._power_vectors(b[None])
        right = x[0]
        zero, negative, nan = right.copy(), right.copy(), right.copy()
        zero[3], negative[5], nan[7] = 0.0, -right[5], math.nan
        # its ratios spread by about 1e6, the ones vector's by under 10
        worse = np.linspace(1.0, 1e6, n)
        results = []
        for bad in (zero, negative, nan, -right, worse):
            monkeypatch.setattr(_kernels, "_power_vectors",
                                lambda bs, bad=bad: np.stack([bad, x[1]]))
            state = _kernels.collatz_wielandt_stack(b[None], tol, 10**6)[0]
            assert isinstance(state, _kernels.Resume)
            assert (state.iterations, state.e) == (1, 0)
            assert (state.x == 1.0).all()
            np.testing.assert_allclose(state.bx, b.sum(axis=1), rtol=1e-14)
            results.append(_kernels.collatz_wielandt(b, tol, 10**6, state))
        for got in results[1:]:
            assert got[:2] == results[0][:2] and got[3:] == results[0][3:]
            assert got[2].tobytes() == results[0][2].tobytes()
        monkeypatch.undo()
        kept = _passes(b, tol)[0]
        assert kept[3] == 2 < results[0][3]

    def test_powers_are_rescaled_exactly(self, rng):
        # 2^k b keeps its row sums inside [2^-400, 2^400], where it is not
        # prescaled, but its squares leave it, and are rescaled by powers
        # of two: the vectors, scaled to max 1, are b's bit for bit
        bs = rng.uniform(0.5, 1.5, (3, 24, 24))
        want = _kernels._power_vectors(bs)
        want /= want.max(axis=1)[:, None]
        for k in (-390, -300, 300, 390):
            got = _kernels._power_vectors(np.ldexp(bs, k))
            got /= got.max(axis=1)[:, None]
            assert got.tobytes() == want.tobytes()

    def test_weighted_cycles_give_up(self):
        # every power of a cycle has one nonzero per row, so the row sums
        # never settle: the squaring stops within a few steps, and the
        # certificate stays converged
        rng = np.random.default_rng(12)
        for n in range(12, 25):
            for weights in (np.exp(rng.uniform(-690.0, 0.0, n)),
                            rng.uniform(0.5, 1.5, n)):
                a = _cycle(weights)
                _Squarings.count = 0
                _kernels._power_vectors(a[None].view(_Squarings))
                assert 1 <= _Squarings.count <= 4
                cert = solver.perron_root(a)
                assert cert.converged
                rho = _cycle_radius(a)
                assert decimal.Decimal(cert.lo) <= rho <= decimal.Decimal(cert.hi)


class TestResume:
    """Every pass takes its first step in collatz_wielandt_stack, which
    finishes the passes that stop at their proposal and hands each other
    one on as a Resume; collatz_wielandt only goes on from it."""

    def test_resume_skips_the_first_step(self, monkeypatch):
        proposed = []
        for name in ("_eig_vectors", "_power_vectors"):
            def counting(bs, propose=getattr(_kernels, name)):
                proposed.append(bs.shape)
                return propose(bs)

            monkeypatch.setattr(_kernels, name, counting)
        tol, max_iter = solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER
        resumed = 0
        for seed, n in enumerate((3, 5, 8, 12, 16, 24, 48, 64) * 3):
            a = _small_input("near_reducible", n, seed)
            for b, state in zip((a, a.T), _kernels.collatz_wielandt_stack(
                    a[None], tol, max_iter)):
                if not isinstance(state, _kernels.Resume):
                    assert state[3] == 2  # finished at its proposal
                    continue
                assert (state.iterations, state.e) == (2, 0)
                resumed += 1
                # the pass's own state: b x and the extremes of b x / x
                np.testing.assert_allclose(state.bx, b @ state.x, rtol=1e-13)
                r = state.bx / state.x
                assert (state.rmin, state.rmax) == (r.min(), r.max())
                proposed.clear()
                got = _kernels.collatz_wielandt(
                    np.ascontiguousarray(b), tol, max_iter, state)
                assert proposed == []
                assert got[3] > 2 and got[4]
                rho = eig_radius(a)
                assert got[0] <= rho * (1 + 1e-12) and rho * (1 - 1e-12) <= got[1]
        assert resumed >= 24

    def test_prescaled_passes_keep_their_proposal(self, rng):
        # each pass, prescaled by 2^-e, stops at its kept proposal and is
        # finished in the stack at two iterations, its bounds scaled back
        for n in (3, 12):
            a = np.ldexp(rng.uniform(0.5, 1.5, (4, n, n)), 600)
            out = _kernels.collatz_wielandt_stack(
                a, solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER)
            assert not any(isinstance(p, _kernels.Resume) for p in out)
            assert [p[3] for p in out] == [2] * 8
            for j, b in enumerate(a):
                rho = eig_radius(b)
                for lo, hi, *_ in (out[j], out[4 + j]):
                    assert lo <= rho * (1 + 1e-12) and rho * (1 - 1e-12) <= hi

    def test_each_pass_has_its_own_exponent(self):
        # rank one, radius the trace 2^500 + 1: largest row sum 2^501,
        # largest column sum 2^500 + 1
        a = np.array([[2.0**500, 2.0**500], [1.0, 1.0]])
        right, left = _kernels.collatz_wielandt_stack(a[None], solver.DEFAULT_TOL, 1)
        assert (right.e, left.e) == (502, 501)
        assert right.bx.tobytes() == np.ldexp(a, -502).sum(axis=1).tobytes()
        assert left.bx.tobytes() == np.ldexp(a, -501).sum(axis=0).tobytes()
        cert = solver.perron_irreducible(a)
        assert cert.lo <= 2.0**500 + 1 <= cert.hi

    def test_no_proposal_resumes_from_the_ones_vector(self, rng):
        # above _SQUARE_N, and with max_iter < 2, at any n
        for n, max_iter in ((_kernels._SQUARE_N + 1, 10**6), (3, 1), (12, 1)):
            a = rng.uniform(0.5, 1.5, (n, n))
            out = _kernels.collatz_wielandt_stack(a[None], solver.DEFAULT_TOL, max_iter)
            for b, state in zip((a, a.T), out):
                assert isinstance(state, _kernels.Resume)
                assert (state.iterations, state.e) == (1, 0)
                assert (state.x == 1.0).all()
                np.testing.assert_allclose(state.bx, b.sum(axis=1), rtol=1e-14)
            if max_iter == 1:  # each pass certifies the ones vector
                assert solver.perron_irreducible(a, max_iter=1).iterations == 2

    def test_one_stack_call_per_block_size(self, monkeypatch, rng):
        calls = []
        stack = solver.collatz_wielandt_stack

        def counting(bs, *args):
            calls.append(bs.shape)
            return stack(bs, *args)

        monkeypatch.setattr(solver, "collatz_wielandt_stack", counting)
        for n in (3, 12, 100):
            solver._certify_irreducible(
                rng.uniform(0.5, 1.5, (2, n, n)), solver.DEFAULT_TOL,
                solver.DEFAULT_MAX_ITER)
        assert calls == [(2, 3, 3), (2, 12, 12), (2, 100, 100)]


class TestPerronRoot:
    def test_zero_matrix(self):
        cert = solver.perron_root(np.zeros((3, 3)))
        assert cert.lo == cert.hi == 0.0
        assert cert.right_vector is None

    def test_three_cycle_contains_one(self):
        cert = solver.perron_root([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert cert.lo <= 1.0 <= cert.hi
        assert cert.width <= solver.DEFAULT_TOL

    def test_triangular_is_exact(self):
        cert = solver.perron_root([[1.0, 1.0], [0.0, 2.0]])
        assert cert.lo == cert.hi == 2.0
        assert cert.right_vector is None and cert.left_vector is None
        assert cert.residual is None

    def test_irreducible_input_carries_vectors(self):
        cert = solver.perron_root([[0.0, 1.0], [1.0, 0.0]])
        assert cert.right_vector is not None and cert.left_vector is not None

    def test_encloses_dense_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = random_nonneg(rng, n)
            cert = solver.perron_root(a)
            ref = eig_radius(a)
            assert cert.lo - 1e-9 <= ref <= cert.hi + 1e-9

    def test_encloses_sparse_oracle(self, rng):
        # sparse draws are mostly reducible, exercising the block path
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = random_nonneg(rng, n, scale=5.0, density=0.3)
            cert = solver.perron_root(a)
            ref = eig_radius(a)
            assert cert.lo - 1e-9 <= ref <= cert.hi + 1e-9

    def test_monotone_under_entrywise_growth(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a = random_nonneg(rng, n, scale=1.0, density=0.6)
            b = a + random_nonneg(rng, n, scale=0.5, density=0.6)
            ca = solver.perron_root(a)
            cb = solver.perron_root(b)
            assert ca.mid <= cb.mid + ca.width + cb.width

    def test_scaling_homogeneity(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 7))
            a = random_nonneg(rng, n, scale=1.0)
            cert = solver.perron_root(a)
            for alpha in (0.0, 0.125, 3.0):
                scaled = solver.perron_root(alpha * a)
                # both intervals contain alpha * rho exactly, so they overlap
                lo = max(scaled.lo, alpha * cert.lo)
                hi = min(scaled.hi, alpha * cert.hi)
                assert lo <= hi * (1.0 + 1e-14) + 1e-300

    def test_relabeling_invariance(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            a = random_nonneg(rng, n, scale=2.0, density=0.5)
            p = rng.permutation(n)
            b = matcore.apply_symmetric_permutation(a, p)
            ca = solver.perron_root(a)
            cb = solver.perron_root(b)
            assert max(ca.lo, cb.lo) <= min(ca.hi, cb.hi) * (1.0 + 1e-14) + 1e-300

    def test_agrees_with_spectral_block(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            a = random_nonneg(rng, n, scale=1.0, density=0.3)
            fnf = structure.frobenius_normal_form(a)
            idx = structure.spectral_block(a)
            block_cert = solver.perron_root(fnf.block_matrices[idx])
            whole = solver.perron_root(a)
            assert abs(block_cert.mid - whole.mid) <= block_cert.width + whole.width

    def test_deterministic(self, rng):
        a = random_nonneg(rng, 6, density=0.5)
        c1 = solver.perron_root(a)
        c2 = solver.perron_root(a)
        assert (c1.lo, c1.hi, c1.iterations) == (c2.lo, c2.hi, c2.iterations)


class TestCertificate:
    def test_frozen_and_read_only(self):
        cert = solver.perron_irreducible([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.lo = 0.0
        with pytest.raises(ValueError):
            cert.right_vector[0] = 9.0

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            solver.PerronCertificate(
                lo=2.0, hi=1.0, right_vector=None, left_vector=None,
                residual=None, iterations=0, converged=True,
            )
        with pytest.raises(ValueError):
            solver.PerronCertificate(
                lo=-0.5, hi=1.0, right_vector=None, left_vector=None,
                residual=None, iterations=0, converged=True,
            )

    def test_mid_and_width(self):
        cert = solver.PerronCertificate(
            lo=1.0, hi=3.0, right_vector=None, left_vector=None,
            residual=None, iterations=5, converged=False,
        )
        assert cert.mid == 2.0 and cert.width == 2.0

    def test_mid_near_the_largest_float(self):
        # lo + hi overflows; the midpoint does not
        cert = solver.PerronCertificate(
            lo=1e308, hi=1.5e308, right_vector=None, left_vector=None,
            residual=None, iterations=2, converged=False,
        )
        assert cert.mid == 1.25e308


class TestQStar:
    def test_symmetric_two_cycle(self):
        cert = solver.perron_irreducible([[0.0, 1.0], [1.0, 0.0]])
        assert abs(solver.q_star(cert) - 0.5) <= 1e-12

    def test_uniform_left_vector(self):
        cert = solver.perron_irreducible([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert abs(solver.q_star(cert) - 1.0 / 3.0) <= 1e-12

    def test_min_entry(self):
        cert = solver.perron_irreducible([[1.0, 2.0], [3.0, 4.0]])
        assert solver.q_star(cert) == float(cert.left_vector.min())

    def test_requires_left_vector(self):
        cert = solver.perron_root([[1.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            solver.q_star(cert)


class TestPowerRadiusIdentity:
    def test_two_cycle_squared(self):
        powered, direct = solver.power_radius_identity_check([[0.0, 1.0], [1.0, 0.0]], 2)
        for lo, hi in (powered, direct):
            assert lo <= 1.0 <= hi

    def test_scalar_cube(self):
        powered, direct = solver.power_radius_identity_check([[2.0]], 3)
        for lo, hi in (powered, direct):
            assert lo <= 8.0 <= hi

    def test_triangular(self):
        powered, direct = solver.power_radius_identity_check([[1.0, 1.0], [0.0, 1.0]], 2)
        for lo, hi in (powered, direct):
            assert lo <= 1.0 <= hi

    def test_intervals_intersect_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 7))
            a = random_nonneg(rng, n, scale=2.0, density=0.6)
            for p in (1, 2, 3):
                powered, direct = solver.power_radius_identity_check(a, p)
                assert max(powered[0], direct[0]) <= min(powered[1], direct[1])

    def test_power_validated(self):
        with pytest.raises(ValueError):
            solver.power_radius_identity_check([[1.0]], 0)

    def test_overflow_detected(self):
        a = [[1e200, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="overflow"):
            solver.power_radius_identity_check(a, 2)
