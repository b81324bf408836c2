import concurrent.futures
import dataclasses
import decimal
import math
import pathlib
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perron import _kernels, harness, matcore, solver, structure
from generators import (
    exact_radius, planted_block_matrix, random_irreducible, random_nonneg, reducible_base,
    three_block_base,
)
from oracles import cw_exact, eig_radius, encloses_radius, rational_power


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
        assert solver.residual([[2.0]], cert) == 0.0
        assert np.array_equal(cert.right_vector, [1.0])
        assert np.array_equal(cert.left_vector, [1.0])

    def test_rejects_reducible_input(self):
        with pytest.raises(ValueError, match="reducible"):
            solver.perron_irreducible([[1.0, 1.0], [0.0, 2.0]])

    @pytest.mark.parametrize("a", [
        [[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [3.0, 0.0, 0.5]],  # a 3-cycle and a loop
        np.arange(1.0, 17.0).reshape(4, 4),  # positive
        [[4.0]],
    ])
    def test_validates_once(self, monkeypatch, a):
        # the irreducibility verdict is read off the validated copy, which
        # is not validated again, and the certificate is perron_root's
        calls, validate = [], matcore.nonneg_matrix

        def counting(b):
            calls.append(1)
            return validate(b)

        monkeypatch.setattr(matcore, "nonneg_matrix", counting)
        cert = solver.perron_irreducible(a)
        assert len(calls) == 1
        assert _fields(a, cert) == _fields(a, solver.perron_root(a))

    def test_error_order(self):
        # the matrix first, then tol and max_iter, then irreducibility
        with pytest.raises(ValueError, match="negative entry"):
            solver.perron_irreducible([[1.0, -1.0], [0.0, 1.0]], tol=-1.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            solver.perron_irreducible([[1.0, 1.0], [0.0, 1.0]], tol=-1.0)
        with pytest.raises(ValueError, match="max_iter"):
            solver.perron_irreducible([[1.0, 1.0], [0.0, 1.0]], max_iter=0)

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
            assert solver.residual(a, cert) <= 10.0 * solver.DEFAULT_TOL * matcore.one_norm_mat(a)

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
    """Both passes of a, on a and on a.T, as the solver runs them."""
    return _kernels.collatz_wielandt_stack(
        np.asarray(a, dtype=np.float64)[None], tol, max_iter)


def _bits(p):
    """A ``Pass`` with its witness as bytes, to compare bit for bit."""
    return p.lo, p.hi, p.witness.tobytes(), p.iterations


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
        assert solver.residual(a, cert) is None
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
        cert = solver.perron_irreducible(a, max_iter=3)
        assert not all(p.hi - p.lo <= solver.DEFAULT_TOL for p in cert.passes)
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


def _nan_where(b, bad, signature, dgeev=_kernels._dgeev):
    """The real dgeev, bound before any patch, on a stack, each matrix
    equal to bad or bad.T (every matrix where bad is None) filled with NaN
    as where the driver fails."""
    w, v = dgeev(b, signature=signature)
    for i, m in enumerate(b):
        if bad is None or np.array_equal(m, bad) or np.array_equal(m, bad.T):
            w[i], v[i] = complex(math.nan, math.nan), complex(math.nan, math.nan)
    return w, v


def _helper(helper, *args):
    """A kernel helper called as the kernel calls it, under an errstate
    that silences what it flags: a failed solve, a square underflowing
    to zero."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return helper(*args)


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
        dgeev = _kernels._dgeev

        def counting(b, signature):
            calls.append(b.shape)
            return dgeev(b, signature=signature)

        monkeypatch.setattr(_kernels, "_dgeev", counting)
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

    def test_eig_failure_in_a_stack_is_its_own(self, monkeypatch, rng):
        # dgeev fills a matrix it fails on with NaN and solves the rest,
        # so the others keep its vector and every certificate is the one
        # its matrix gets alone
        bad = rng.uniform(0.1, 1.0, (5, 5))
        calls = []

        def flaky(b, signature):
            calls.append(len(b))
            return _nan_where(b, bad, signature)

        monkeypatch.setattr(_kernels, "_dgeev", flaky)
        mats = [rng.uniform(0.1, 1.0, (5, 5)), bad, rng.uniform(0.1, 1.0, (5, 5))]
        batch = solver._perron_roots(
            [np.stack(mats)], solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER)
        for a, got in zip(mats, batch):
            want = solver.perron_root(a)
            assert (got.lo, got.hi, got.iterations, got.converged,
                    solver.residual(a, got)) == (
                want.lo, want.hi, want.iterations, want.converged, solver.residual(a, want))
            assert got.right_vector.tobytes() == want.right_vector.tobytes()
            assert got.left_vector.tobytes() == want.left_vector.tobytes()
        assert [c.iterations == 4 for c in batch] == [True, False, True]
        # one call for the stack, then one for each matrix alone
        assert calls == [6, 2, 2, 2]

    def test_eig_failure_falls_back_to_iteration(self, monkeypatch, rng):
        calls = []

        def failing(b, signature):
            calls.append(len(b))
            return _nan_where(b, None, signature)

        monkeypatch.setattr(_kernels, "_dgeev", failing)
        for family in ("dense", "sparse", "weak_cycle", "near_reducible", "scaled"):
            for n in (2, 5, 8):
                a = _small_input(family, n, int(rng.integers(2**32)))
                cert = solver.perron_root(a)
                assert encloses_radius(a, cert.lo, cert.hi)
                if family != "scaled":  # rho ~ 2^1000 stops at the float floor
                    assert cert.converged
        assert calls


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
        # iterates from the ones vector, as with no proposal
        n, tol = 12, solver.DEFAULT_TOL
        b = rng.uniform(0.1, 1.0, (n, n))
        x = _kernels._power_vectors(b[None])
        right = x[0]
        zero, negative, nan = right.copy(), right.copy(), right.copy()
        zero[3], negative[5], nan[7] = 0.0, -right[5], math.nan
        # its ratios spread by about 1e6, the ones vector's by under 10
        worse = np.linspace(1.0, 1e6, n)
        sweep = b @ np.ones(n)
        results = []
        for bad in (zero, negative, nan, -right, worse):
            monkeypatch.setattr(_kernels, "_power_vectors",
                                lambda bs, bad=bad: np.stack([bad, x[1]]))
            results.append(_passes(b, tol)[0])
            # at two iterations, one sweep from the ones vector
            assert _passes(b, tol, 2)[0].witness.tobytes() == (sweep / sweep.max()).tobytes()
        assert results[0].iterations > 2
        for got in results[1:]:
            assert _bits(got) == _bits(results[0])
        monkeypatch.undo()
        assert _passes(b, tol)[0].iterations == 2

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

    def test_no_square_succeeds(self):
        # weights 2^-399 and 2^-1000: the max row sum is inside
        # [2^-400, 2^400], so nothing is prescaled, and every entry of the
        # first square, 2^-1399, underflows to zero; the proposals are NaN
        # and rejected, and the certificate still encloses 2^-699.5
        a = _cycle(np.ldexp(1.0, [-399, -1000] * 6))
        assert np.isnan(_helper(_kernels._power_vectors, a[None])).all()
        cert = solver.perron_root(a)
        rho = _cycle_radius(a)
        assert decimal.Decimal(cert.lo) <= rho <= decimal.Decimal(cert.hi)

    def test_caller_stack_is_not_written(self, rng):
        # the cycle above stops before its first square, the dense matrix
        # squares on: its powers replace its rows in a copy of the stack
        bs = np.stack([_cycle(np.ldexp(1.0, [-399, -1000] * 6)),
                       rng.uniform(0.5, 1.5, (12, 12))])
        before = bs.tobytes()
        got = _helper(_kernels._power_vectors, bs)
        assert bs.tobytes() == before
        assert np.isnan(got[[0, 2]]).all()
        alone = _helper(_kernels._power_vectors, bs[1:])
        assert got[[1, 3]].tobytes() == alone.tobytes()

    def test_weighted_cycles_give_up(self, monkeypatch):
        # every power of a cycle has one nonzero per row, so the row sums
        # never settle: the squaring stops within a few steps, and the
        # certificate stays converged
        squares, square = [], _kernels._square

        def counting(q, i):
            squares.append(len(q))
            return square(q, i)

        monkeypatch.setattr(_kernels, "_square", counting)
        rng = np.random.default_rng(12)
        for n in range(12, 25):
            for weights in (np.exp(rng.uniform(-690.0, 0.0, n)),
                            rng.uniform(0.5, 1.5, n)):
                a = _cycle(weights)
                squares.clear()
                _helper(_kernels._power_vectors, a[None])
                assert 1 <= len(squares) <= 4
                cert = solver.perron_root(a)
                assert cert.converged
                rho = _cycle_radius(a)
                assert decimal.Decimal(cert.lo) <= rho <= decimal.Decimal(cert.hi)


def _scratch_stack(rng, m, n):
    """m irreducible n x n matrices for the squaring route: weighted
    cycles and dense ones, which square on, beside rank-one ones, which
    stop after their first square, so that later squares take part of
    the stack."""
    return np.stack([_cycle(rng.uniform(0.5, 1.5, n)) if j % 3 == 0 else
                     rng.uniform(0.5, 1.5, (n, n)) if j % 3 == 1 else
                     np.outer(rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n))
                     for j in range(m)])


def _pass_bytes(out):
    """The kernel's results, the witnesses as bytes."""
    return [_bits(p) for p in out]


class TestScratch:
    """The squaring route keeps its pass stack and squares in per-thread
    scratch arrays, which nothing returned may be a view of."""

    def test_results_outlive_later_calls(self, rng):
        # in a new thread, whose scratch arrays start empty
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(self._outlive, rng).result()

    @staticmethod
    def _outlive(rng):
        tol, max_iter = solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER
        assert not any(a.size for a in _kernels._SCRATCH.arrays)
        first = _scratch_stack(rng, 7, 16)
        out = _kernels.collatz_wielandt_stack(first, tol, max_iter)
        certs = solver._certify_irreducible(first, tol, max_iter)
        scratch = list(_kernels._SCRATCH.arrays)
        assert scratch[0].size == 2 * 7 * 16 * 16 and scratch[1].size == 7 * 16 * 16
        assert 0 < scratch[2].size < 7 * 16 * 16  # the squares after the first
        for x in [p.witness for p in out] + [c.right_witness for c in certs] + [
                c.left_witness for c in certs]:
            assert not any(np.shares_memory(x, a) for a in scratch)
        before = _pass_bytes(out), [(c.lo, c.hi, c.right_witness.tobytes(),
                                     c.left_witness.tobytes()) for c in certs]
        for m, n in ((7, 16), (3, 16), (12, 48), (5, 64)):
            solver._certify_irreducible(_scratch_stack(rng, m, n), tol, max_iter)
        # grown to the largest stack, 12 x 48 x 48
        assert _kernels._SCRATCH.arrays[0].size == 2 * 12 * 48 * 48
        assert (_pass_bytes(out), [(c.lo, c.hi, c.right_witness.tobytes(),
                                    c.left_witness.tobytes()) for c in certs]) == before
        # and the same stack again gets the same results
        assert _pass_bytes(_kernels.collatz_wielandt_stack(first, tol, max_iter)) == before[0]

    def test_two_threads_get_the_serial_results(self, rng):
        stacks = [_scratch_stack(rng, 9, 48), _scratch_stack(rng, 4, 20),
                  _scratch_stack(rng, 11, 16), _scratch_stack(rng, 2, 64)]

        def run(bs):
            return _pass_bytes(_kernels.collatz_wielandt_stack(
                bs, solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER))

        serial = [run(bs) for bs in stacks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(run, stacks * 6, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == serial * 6


_FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _stack_input(family, n, seed, k):
    """One n x n irreducible input, scaled by 2^k where that keeps its
    pattern: a family of ``_small_input``, or a term of a converge trace
    whose proposals tend to miss tol narrowly: "moderate", of a
    three-block base (spectral gaps near 0.6 to 0.7), or "nil16", of the
    nilpotent base and direction of the fixtures (a complex subdominant
    pair; 16 x 16 whatever n is), or "corner", [[1, 1], [eps, 1]] with
    eps = 10^-U(1, 300) (2 x 2 whatever n is)."""
    term = seed % 20 + 1
    if family == "corner":
        eps = 10.0 ** -np.random.default_rng(seed).uniform(1.0, 300.0)
        a = np.array([[1.0, 1.0], [eps, 1.0]])
    elif family == "nil16":
        base, direction = (matcore.read_matrix_file(_FIXTURES / f"nil16_{name}.txt")
                           for name in ("base", "direction"))
        a = base + (1.0 / term) * direction
    elif family == "moderate":
        rng = np.random.default_rng(seed // 20 % 3)
        base = three_block_base(rng, n)
        a = base + (1.0 / term) * rng.uniform(0.0, 0.1, (n, n))
    else:
        a = _small_input(family, n, seed)
    scaled = np.ldexp(a, k)
    return scaled if np.count_nonzero(scaled) == np.count_nonzero(a) else a


def _same_stacked_or_alone(mats, max_iter=solver.DEFAULT_MAX_ITER):
    """The passes of a stack of mats, each checked bit for bit against
    the same matrix's passes alone, every stack calling its proposer
    once where there is one."""
    bs = np.stack(mats)
    m, n = bs.shape[:2]
    calls = int(n <= _kernels._SQUARE_N and max_iter >= 2)
    name = "_eig_vectors" if n <= _kernels._EIG_N else "_power_vectors"
    with mock.patch.object(_kernels, name, wraps=getattr(_kernels, name)) as proposer:
        stacked = _kernels.collatz_wielandt_stack(bs, solver.DEFAULT_TOL, max_iter)
        assert proposer.call_count == calls
        for j, a in enumerate(bs):
            proposer.reset_mock()
            alone = _kernels.collatz_wielandt_stack(a[None], solver.DEFAULT_TOL, max_iter)
            assert proposer.call_count == calls
            for got, want in zip((stacked[j], stacked[m + j]), alone):
                assert _bits(got) == _bits(want)
    return stacked


class TestOneLoop:
    """collatz_wielandt_stack takes the first step of every pass of a
    stack, then iterates all the passes that go on in one loop; each
    pass's result depends on its own matrix alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, 8, 12, 16, 48, 65, 80]),
        st.lists(st.tuples(
            st.sampled_from(["dense", "near_reducible", "weak_cycle", "moderate", "nil16"]),
            st.integers(min_value=0, max_value=2**32 - 1),
            st.sampled_from([0, 600, -600])), min_size=2, max_size=4),
        # 200 is past what the passes that converge take; weak cycles
        # scaled by 2^600 may not converge at all
        st.sampled_from([1, 2, 3, 200]),
    )
    # power sweeps beside Noda steps in one iteration: a dense or
    # near-reducible matrix beside a weak cycle, above _SQUARE_N
    @example(65, [("dense", 3707325242, 0), ("weak_cycle", 345313848, 0)], 200)
    @example(80, [("weak_cycle", 3270614076, 0), ("near_reducible", 1037989288, 0)], 200)
    def test_same_certificate_stacked_or_alone(self, n, picks, max_iter):
        # a stack with a term of the nil16 trace is at its n = 16
        n = 16 if any(family == "nil16" for family, *_ in picks) else n
        _same_stacked_or_alone([_stack_input(f, n, seed, k) for f, seed, k in picks],
                               max_iter)

    @pytest.mark.parametrize("family, n", [("moderate", 48), ("nil16", 16)])
    def test_near_misses_stacked_or_alone(self, family, n):
        # the twenty terms of each trace in one stack: some proposals miss
        # tol by less than their spread and finish at one sweep, some
        # stop at the proposal
        out = _same_stacked_or_alone([_stack_input(family, n, t, 0) for t in range(20)])
        iterations = {p.iterations for p in out}
        assert 2 in iterations and all(p.hi - p.lo <= solver.DEFAULT_TOL for p in out)
        if family == "moderate":
            assert 3 in iterations

    def test_passes_past_the_proposal_iterate_in_the_stack(self):
        tol, max_iter = solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER
        iterated = 0
        for seed, n in enumerate((3, 5, 8, 12, 16, 24, 48, 64) * 3):
            a = _small_input("near_reducible", n, seed)
            rho = eig_radius(a)
            for lo, hi, x, iterations in _same_stacked_or_alone([a]):
                assert hi - lo <= tol and x.max() == 1.0
                assert lo <= rho * (1 + 1e-12) and rho * (1 - 1e-12) <= hi
                iterated += iterations > 2
        assert iterated >= 24

    def test_settled_passes_beside_iterating_ones(self):
        # an easy 6x6, whose passes stop at the first step, beside two 3x3
        # blocks coupled by about 1e-6, whose passes go on: the loop takes
        # over from the first step's vectors, in either order, and every
        # field of each certificate is what its matrix gets alone
        easy = np.random.default_rng(7564).uniform(0.0, 10.0, (6, 6))
        coupled = _near_reducible(1e-6)[1]
        tol, max_iter = solver.DEFAULT_TOL, 10_000
        alone = [solver._certify_irreducible(a[None], tol, max_iter)[0] for a in (easy, coupled)]
        assert alone[0].iterations == 4 and alone[1].iterations > 4
        for order in ((0, 1), (1, 0)):
            stacked = solver._certify_irreducible(
                np.stack([(easy, coupled)[i] for i in order]), tol, max_iter)
            for got, i in zip(stacked, order):
                for field in dataclasses.fields(solver.PerronCertificate):
                    g, w = getattr(got, field.name), getattr(alone[i], field.name)
                    if field.name == "passes":
                        assert not any(p.witness.flags.writeable for p in g)
                        g, w = list(map(_bits, g)), list(map(_bits, w))
                    assert g == w, field.name

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, "coupled"])
    def test_one_dgeev_and_no_product_twice(self, n):
        # a positive n <= 8 matrix gets one batched dgeev call for both
        # passes, settled or not, and each vector's products are taken
        # once: the first step's two (the ones vector, the proposal), then
        # one per loop iteration, max(iterations) - 2 of them where both
        # passes keep their proposal, as these do
        if n == "coupled":
            a = _near_reducible(1e-6)[1]
        else:
            a = np.random.default_rng(n).uniform(0.0, 10.0, (n, n))
        with mock.patch.object(_kernels, "_dgeev", wraps=_kernels._dgeev) as dgeev, \
                mock.patch.object(_kernels, "_products", wraps=_kernels._products) as products:
            cert = solver.perron_root(a, max_iter=10_000)
            assert dgeev.call_count == 1
            assert (cert.iterations == 4) == (n != "coupled")  # settled
            taken = products.call_count
            products.reset_mock()
            its = [p.iterations for p in _passes(a, max_iter=10_000)]
        assert taken == products.call_count == max(its)

    def test_prescaled_passes_keep_their_proposal(self, rng):
        # each pass, prescaled by 2^-e, stops at its kept proposal at two
        # iterations, its bounds scaled back
        for n in (3, 12):
            a = np.ldexp(rng.uniform(0.5, 1.5, (4, n, n)), 600)
            out = _kernels.collatz_wielandt_stack(
                a, solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER)
            assert [p.iterations for p in out] == [2] * 8
            for j, b in enumerate(a):
                rho = eig_radius(b)
                for lo, hi, *_ in (out[j], out[4 + j]):
                    assert lo <= rho * (1 + 1e-12) and rho * (1 - 1e-12) <= hi

    def test_each_pass_has_its_own_exponent(self, monkeypatch):
        # rank one, radius the trace 2^500 + 1: largest row sum 2^501,
        # largest column sum 2^500 + 1
        a = np.array([[2.0**500, 2.0**500], [1.0, 1.0]])
        certified = []
        certify = _kernels._certify

        def recording(b, x, rmin, rmax, x_min, k, tol_s, e):
            certified.append((b.copy(), e))
            return certify(b, x, rmin, rmax, x_min, k, tol_s, e)

        monkeypatch.setattr(_kernels, "_certify", recording)
        _passes(a, max_iter=1)
        (right, e_right), (left, e_left) = certified
        assert (e_right, e_left) == (502, 501)
        assert right.tobytes() == np.ldexp(a, -502).tobytes()
        assert left.tobytes() == np.ldexp(a.T, -501).tobytes()
        monkeypatch.undo()
        cert = solver.perron_irreducible(a)
        assert cert.lo <= 2.0**500 + 1 <= cert.hi

    def test_no_proposal_starts_from_the_ones_vector(self, monkeypatch, rng):
        # above _SQUARE_N, and with max_iter < 2, at any n
        def refusing(bs):
            raise AssertionError("proposer called")

        monkeypatch.setattr(_kernels, "_eig_vectors", refusing)
        monkeypatch.setattr(_kernels, "_power_vectors", refusing)
        a = rng.uniform(0.5, 1.5, (_kernels._SQUARE_N + 1, _kernels._SQUARE_N + 1))
        assert all(p.hi - p.lo <= solver.DEFAULT_TOL and p.iterations > 2 for p in _passes(a))
        for n in (3, 12):
            a = rng.uniform(0.5, 1.5, (n, n))
            for sums, (lo, hi, x, iterations) in zip(
                    (a.sum(axis=1), a.sum(axis=0)), _passes(a, max_iter=1)):
                # each pass certifies the ones vector
                assert iterations == 1 and (x == 1.0).all()
                assert lo <= sums.min() * (1 + 1e-14)
                assert sums.max() * (1 - 1e-14) <= hi
            assert solver.perron_irreducible(a, max_iter=1).iterations == 2

    def test_noda_solve_failure_is_the_pass_own(self):
        # hi I - b is singular for b = I and hi = 1, which fails the
        # batched solve: the other pass gets what it gets alone
        x, b = np.ones((2, 2)), np.ones((2, 2))
        got = _helper(_kernels._noda_steps, np.stack([np.eye(2), b]), x, [1.0, 3.0])
        assert np.isnan(got[0]).all()
        assert got[1].tobytes() == _kernels._noda_steps(b[None], x[:1], [3.0])[0].tobytes()
        assert (got[1] == 1.0).all()

    def test_failed_noda_step_stops_the_pass(self, monkeypatch):
        # two 12-cycles and a dense matrix: four cycle passes take Noda
        # steps together; the third batched solve fails on its first
        # system, pass 0's, which stops at the vector it had, as it would
        # alone one iteration earlier (the failed step counts as tried)
        rng = np.random.default_rng(5)
        bs = np.stack([_cycle(rng.uniform(0.5, 1.5, 12)) for _ in range(2)]
                      + [rng.uniform(0.5, 1.5, (12, 12))])
        tol, max_iter = solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER
        alone = [_kernels.collatz_wielandt_stack(a[None], tol, max_iter) for a in bs]
        alone = [p for j in range(2) for p in (alone[0][j], alone[1][j], alone[2][j])]
        dgesv, calls = _kernels._dgesv, []

        def flaky(m, b, signature):
            calls.append(len(m))
            y = dgesv(m, b, signature=signature)
            if len(calls) == 3:
                y[0] = math.nan
            return y

        monkeypatch.setattr(_kernels, "_dgesv", flaky)
        with warnings.catch_warnings(), np.errstate(
                divide="warn", over="warn", invalid="warn"):
            warnings.simplefilter("error")
            out = _kernels.collatz_wielandt_stack(bs, tol, max_iter)
        assert len(calls) > 3 and calls[2] == 4
        for got, want in zip(out[1:], alone[1:]):
            assert _bits(got) == _bits(want)
        monkeypatch.undo()
        lo, hi, x, iterations = out[0]
        earlier = _kernels.collatz_wielandt_stack(bs[:1], tol, iterations - 1)[0]
        assert (lo, hi, x.tobytes(), iterations - 1) == _bits(earlier)
        assert iterations < alone[0].iterations

    @pytest.mark.parametrize("n, max_iter", [(5, 10_000), (12, 10_000), (70, 10_000),
                                             (5, 1), (12, 2)])
    def test_every_vector_is_a_row_of_one_array(self, n, max_iter):
        # an easy dense matrix, whose passes stop at the first step, beside
        # a near-reducible one, whose passes go on: on the eig, squaring
        # and no-proposal routes, settled or not, every pass's vector is
        # its row of one read-only (2m, n) array
        bs = np.stack([np.random.default_rng(n).uniform(0.0, 10.0, (n, n)),
                       _small_input("near_reducible", n, n)])
        out = _kernels.collatz_wielandt_stack(bs, solver.DEFAULT_TOL, max_iter)
        x = out[0].witness.base
        assert x.shape == (4, n) and not x.flags.writeable
        for j, p in enumerate(out):
            assert p.witness.base is x and p.witness.tobytes() == x[j].tobytes()
        assert max_iter < 3 or max(p.iterations for p in out) > 2

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


def _any_input(family, n, seed, k):
    """One n x n nonnegative matrix, any pattern, times 2^k: dense,
    sparse, reducible (block upper triangular) or nilpotent plus a
    diagonal with zeros."""
    rng = np.random.default_rng(seed)
    if family == "dense":
        a = rng.uniform(0.0, 10.0, (n, n))
    elif family == "sparse":
        a = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.3)
    elif family == "reducible":
        a = rng.uniform(0.0, 1.0, (n, n))
        a[n // 2:, :n // 2] = 0.0
    else:
        a = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        a += np.diag(rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5))
    return np.ldexp(a, k)


def _route_calls(route, n, picks, max_iter):
    """The kernel calls of one route, as (stack, tol, passes): one stacked
    call on the ``_stack_input`` picks ("stack", all n x n, or 2 x 2 with
    a "corner"), or, recorded by wrapping the solver's name for the
    kernel, ``perron_root`` of a scrambled block upper triangular matrix
    with the picks as its diagonal blocks, the second n // 2 x n // 2,
    or of the one pick ("blocks", through ``_perron_roots``), or a
    three-term ``run_trace`` from that matrix ("trace")."""
    tol, calls = solver.DEFAULT_TOL, []
    if route == "stack":
        n = 2 if any(f == "corner" for f, *_ in picks) else n
        bs = np.stack([_stack_input(f, n, seed, k) for f, seed, k in picks])
        return [(bs, tol, _kernels.collatz_wielandt_stack(bs, tol, max_iter))]
    blocks = [_stack_input(f, max(2, n // 2) if i == 1 else n, seed, k)
              for i, (f, seed, k) in enumerate(picks)]
    size = sum(len(b) for b in blocks)
    rng = np.random.default_rng(picks[0][1])
    a = np.triu(rng.uniform(0.0, 1.0, (size, size)) * (rng.random((size, size)) < 0.2), 1)
    start = 0
    for b in blocks:
        a[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    p = rng.permutation(size)
    a = a[np.ix_(p, p)] if len(blocks) > 1 else blocks[0]
    stack = solver.collatz_wielandt_stack

    def recording(bs, tol, max_iter):
        calls.append((bs, tol, stack(bs, tol, max_iter)))
        return calls[-1][2]

    with mock.patch.object(solver, "collatz_wielandt_stack", recording):
        if route == "blocks":
            solver.perron_root(a, tol, max_iter)
        else:
            direction = rng.uniform(0.0, 1.0, (size, size)) * (rng.random((size, size)) < 0.3)
            spec = harness.SequenceSpec(base=a, direction=direction, coeff=1e-3, count=3)
            harness.run_trace(spec, tol, max_iter)
    return calls


# the routes of every pass: the eig, squaring and no-proposal sizes, one
# to three matrices, each scaled by 2^k where that keeps its pattern
_ROUTES = dict(
    route=st.sampled_from(["stack", "blocks", "trace"]),
    n=st.one_of(st.integers(2, _kernels._EIG_N),
                st.integers(_kernels._EIG_N + 1, _kernels._SQUARE_N),
                st.integers(_kernels._SQUARE_N + 1, 70)),
    picks=st.lists(st.tuples(
        st.sampled_from(["dense", "sparse", "near_reducible", "weak_cycle", "moderate", "corner"]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-1000, max_value=1000)), min_size=1, max_size=3),
    # 200 is past what the passes that converge take
    max_iter=st.sampled_from([1, 2, 3, 200]),
)


class TestCertifyVectors:
    """``_kernels.certify_vectors``: any positive vector, certified on its
    own, apart from the iteration."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["dense", "sparse", "reducible", "nilpotent_diag"]),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-1000, max_value=1000),
        st.sampled_from([0, -1000, 1000]),
    )
    @example("dense", 2, 0, 0, 0)
    @example("nilpotent_diag", 12, 1, -1000, 1000)
    def test_encloses_the_radius(self, family, n, seed, k, j):
        # two matrices, vectors spanning e^-10 to e^10 times 2^j, drawn
        # apart from the matrices: far from their Perron vectors
        bs = np.stack([_any_input(family, n, seed + i, k) for i in range(2)])
        xs = np.ldexp(np.exp(np.random.default_rng(seed).uniform(-10.0, 10.0, (2, n))), j)
        for b, (lo, hi) in zip(bs, _kernels.certify_vectors(bs, xs, solver.DEFAULT_TOL)):
            # hi may pass the largest float: the ratios spread by up to e^20
            assert 0.0 <= lo <= hi and encloses_radius(b, lo, hi)

    def test_vectors_not_positive_and_finite(self, rng):
        bs = np.stack([rng.uniform(0.5, 1.5, (3, 3)) for _ in range(6)])
        xs = np.ones((6, 3))
        xs[1, 0], xs[2, 1], xs[3, 2], xs[4, 0], xs[5, 1] = 0.0, -1.0, math.nan, math.inf, -math.inf
        out = _kernels.certify_vectors(bs, xs, solver.DEFAULT_TOL)
        assert out[1:] == [(0.0, math.inf)] * 5
        assert out[0] == _kernels.certify_vectors(bs[:1], xs[:1], solver.DEFAULT_TOL)[0]
        assert encloses_radius(bs[0], *out[0]) and out[0][1] < math.inf

    def test_ones_vector_is_the_first_pass(self):
        # bit for bit the kernel's pass at max_iter = 1, which certifies
        # the ones vector: right passes on bs, left passes on a contiguous
        # transpose, as the kernel copies every transpose, at every n
        rng = np.random.default_rng(24)
        for n in range(2, 71, 3):
            for k in (-1000, -400, 0, 400, 900):
                family = rng.choice(["dense", "sparse", "reducible"])
                bs = _any_input(family, n, int(rng.integers(2**32)), k)[None]
                passes = _kernels.collatz_wielandt_stack(bs, solver.DEFAULT_TOL, 1)
                ones = np.ones((1, n))
                assert _kernels.certify_vectors(bs, ones, solver.DEFAULT_TOL) == [passes[0][:2]]
                t = np.ascontiguousarray(bs.transpose(0, 2, 1))
                assert _kernels.certify_vectors(t, ones, solver.DEFAULT_TOL) == [passes[1][:2]]

    @settings(max_examples=60, deadline=None)
    @given(**_ROUTES)
    def test_every_pass_replays(self, route, n, picks, max_iter):
        # bit for bit each pass's interval, from the vector it returned:
        # right passes on their matrix, left passes on a contiguous
        # transpose, as the kernel copies every transpose
        for bs, tol, passes in _route_calls(route, n, picks, max_iter):
            m = len(bs)
            for j, (lo, hi, x, *_) in enumerate(passes):
                b = bs[j] if j < m else np.ascontiguousarray(bs[j - m].T)
                assert _kernels.certify_vectors(b[None], x[None], tol) == [(lo, hi)]

    def test_vector_scale_is_a_power_of_two(self, rng):
        # x and x 2^j give the same bounds; a vector's max need not be 1
        b = rng.uniform(0.5, 1.5, (1, 5, 5))
        x = np.exp(rng.uniform(-10.0, 10.0, (1, 5)))
        want = _kernels.certify_vectors(b, x / np.ldexp(1.0, math.frexp(x.max())[1]),
                                        solver.DEFAULT_TOL)
        for j in (-1000, -3, 0, 7, 1000):
            assert _kernels.certify_vectors(b, np.ldexp(x, j), solver.DEFAULT_TOL) == want


def _certified(route, n, seed, k, max_iter):
    """(matrix, certificate) pairs of one route, its inputs scaled by 2^k:
    ``perron_root`` of a positive n x n matrix ("positive"), a scrambled
    n x n block upper triangular matrix of more than one block, then its
    diagonal blocks, read off its certificate ("blocks"), or the base and
    rows of a three-term ``run_trace`` from an irreducible n x n base
    ("trace")."""
    rng = np.random.default_rng(seed)
    tol = solver.DEFAULT_TOL
    if route == "positive":
        a = np.ldexp(rng.uniform(0.5, 10.0, (n, n)), k)
        return [(a, solver.perron_root(a, tol, max_iter))]
    if route == "blocks":
        a = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.3), 1)
        cuts = [0, *sorted(rng.choice(np.arange(1, n), int(rng.integers(0, n)), replace=False)), n]
        for start, end in zip(cuts, cuts[1:]):
            a[start:end, start:end] = random_irreducible(rng, end - start)
        p = rng.permutation(n)
        b = np.ldexp(a[np.ix_(p, p)], k)
        fnf = structure.frobenius_normal_form(b)
        cert = solver.perron_root(fnf, tol, max_iter)
        whole = [(b, cert)] if cert.blocks else []
        return whole + list(zip(fnf.block_matrices, cert.blocks or (cert,)))
    spec = harness.SequenceSpec(base=np.ldexp(random_irreducible(rng, n), k),
                                direction=np.ldexp(rng.uniform(0.0, 1.0, (n, n)), k),
                                coeff=1e-3, count=3)
    trace = harness.run_trace(spec, tol, max_iter)
    return [(spec.base, trace.base_cert)] + [(spec.term(r.k), r.cert) for r in trace.rows]


class TestExactWitness:
    """Each pass's [lo, hi] holds the exact least and greatest ratio
    (b x)_i / x_i of the vector x it returned (``oracles.cw_exact``), a
    left pass's on b.T: the interval is about the vector the kernel
    hands back, not only some vector near it.  A certificate keeps its
    two passes: each pass's bracket holds what its witness gives, and the
    certificate's interval is their intersection.  A 1x1 matrix has two
    equal passes, a matrix of more than one block none."""

    @settings(max_examples=60, deadline=None)
    @given(**_ROUTES)
    # a kept eig proposal: a 1-norm copy of its x has exact ratios outside [lo, hi]
    @example(route="stack", n=2, picks=[("dense", 1, 7)], max_iter=2)
    # an unconverged trace base whose left witness's least entry is 5e-324
    @example(route="trace", n=65, picks=[("weak_cycle", 0, 403)], max_iter=200)
    def test_every_pass_holds_its_witness(self, route, n, picks, max_iter):
        for bs, _, passes in _route_calls(route, n, picks, max_iter):
            m = len(bs)
            for j, (lo, hi, x, *_) in enumerate(passes):
                least, greatest = cw_exact(bs[j] if j < m else bs[j - m].T, x)
                assert Fraction(lo) <= least
                assert hi == math.inf or greatest <= Fraction(hi)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["positive", "blocks", "trace"]),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-1000, max_value=1000),
        st.sampled_from([1, 3, 200]),
    )
    def test_every_certificate_holds_its_witnesses(self, route, n, seed, k, max_iter):
        for a, cert in _certified(route, n, seed, k, max_iter):
            if cert.blocks:
                assert cert.passes == () and cert.right_witness is None is cert.left_witness
                continue
            right = cw_exact(a, cert.right_witness)
            left = cw_exact(np.ascontiguousarray(a.T), cert.left_witness)
            assert Fraction(cert.lo) <= max(right[0], left[0])
            assert cert.hi == math.inf or min(right[1], left[1]) <= Fraction(cert.hi)
            assert cert.lo == max(p.lo for p in cert.passes)
            assert cert.hi == min(p.hi for p in cert.passes)
            for p, (least, greatest) in zip(cert.passes, (right, left), strict=True):
                assert Fraction(p.lo) <= least and (p.hi == math.inf or greatest <= Fraction(p.hi))
            if len(a) == 1:
                r, t = cert.passes
                assert r is t and (r.lo, r.hi, r.witness.tolist(), r.iterations) == (
                    a[0, 0], a[0, 0], [1.0], 0)


class TestExactRadius:
    """``generators.exact_radius`` matrices, whose radius is 2^max(ks)
    exactly: every certificate holds it, with no witness or slack to
    trust, reducible ones (``_combine`` and the normal form) included."""

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 16), min_size=1, max_size=3),
        ks=st.lists(st.integers(-300, 300), min_size=3, max_size=3),
        spread=st.integers(0, 20),
        terms=st.integers(1, 5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_every_certificate_holds_the_radius(self, sizes, ks, spread, terms, seed):
        ks = ks[:len(sizes)]
        a = exact_radius(np.random.default_rng(seed), sizes, ks, spread, terms)
        assume(a is not None)
        cert = solver.perron_root(a, max_iter=20_000)
        assert cert.lo <= 2.0 ** max(ks) <= cert.hi


class TestPerronRoot:
    def test_complex_matrix_rejected(self):
        # its radius is 4.89; the real part's, 2, must not be certified
        for a in (np.array([[1 + 5j, 1], [1, 1]]), [[1 + 5j, 1], [1, 1]]):
            with pytest.raises(ValueError, match="complex"):
                solver.perron_root(a)

    def test_zero_matrix(self):
        cert = solver.perron_root(np.zeros((3, 3)))
        assert cert.lo == cert.hi == 0.0
        assert cert.right_vector is None

    def test_three_cycle_contains_one(self):
        cert = solver.perron_root([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert cert.lo <= 1.0 <= cert.hi
        assert cert.width <= solver.DEFAULT_TOL

    def test_reducible_converged_is_its_width(self):
        # blocks [5] and [[1, 2], [0.5, 1]]: one sweep leaves the 2x2 block
        # wide, yet the combined interval [5, 5] meets tol, and converged
        # means that, as for an irreducible matrix, here and on a trace's base
        a = np.array([[5.0, 1.0, 0.0], [0.0, 1.0, 2.0], [0.0, 0.5, 1.0]])
        fnf = structure.frobenius_normal_form(a)
        assert not all(c.converged for c in solver.perron_root(fnf, max_iter=1).blocks)
        cert = solver.perron_root(a, max_iter=1)
        assert (cert.lo, cert.hi, cert.converged) == (5.0, 5.0, True)
        spec = harness.SequenceSpec(base=a, direction=np.eye(3), count=1)
        base = harness.run_trace(spec, max_iter=1).base_cert
        assert (base.lo, base.hi, base.converged) == (5.0, 5.0, True)

    def test_triangular_is_exact(self):
        a = [[1.0, 1.0], [0.0, 2.0]]
        cert = solver.perron_root(a)
        assert cert.lo == cert.hi == 2.0
        assert cert.right_vector is None and cert.left_vector is None
        assert cert.right_witness is None and cert.left_witness is None
        assert solver.residual(a, cert) is None

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
            idx = solver.spectral_block(a)
            block_cert = solver.perron_root(fnf.block_matrices[idx])
            whole = solver.perron_root(a)
            assert abs(block_cert.mid - whole.mid) <= block_cert.width + whole.width

    def test_deterministic(self, rng):
        a = random_nonneg(rng, 6, density=0.5)
        c1 = solver.perron_root(a)
        c2 = solver.perron_root(a)
        assert (c1.lo, c1.hi, c1.iterations) == (c2.lo, c2.hi, c2.iterations)


def _block_inputs(rng):
    """Matrices of more than one normal-form block, several of them
    nilpotent: the generators' reducible and planted matrices and
    scrambled strictly upper triangular ones."""
    out = [reducible_base(rng) for _ in range(10)]
    out += [three_block_base(rng, n) for n in (6, 24)]
    out += [planted_block_matrix(rng)[0] for _ in range(20)]
    for n in (2, 5, 9):
        a = np.triu(random_nonneg(rng, n, scale=1.0, density=0.6), 1)
        out.append(matcore.apply_symmetric_permutation(a, rng.permutation(n)))
    return [a for a in out if len(structure.frobenius_normal_form(a).blocks) > 1]


class TestBlockCertificates:
    """A reducible matrix's certificate keeps its blocks' certificates,
    each the one its block gets alone; a matrix certified whole has none."""

    def test_one_certificate_per_block_as_alone(self, rng):
        inputs = _block_inputs(rng)
        assert len(inputs) >= 20
        assert any(structure.nilpotency_index(a) is not None for a in inputs)
        for a in inputs:
            fnf = structure.frobenius_normal_form(a)
            cert = solver.perron_root(a)
            assert len(cert.blocks) == len(fnf.blocks)
            for block, got in zip(fnf.block_matrices, cert.blocks):
                assert _fields(block, got) == _fields(block, solver.perron_root(block))
            assert cert.lo == max(c.lo for c in cert.blocks)
            assert cert.hi == max(c.hi for c in cert.blocks)

    def test_whole_matrices_have_none(self, rng):
        for a in (random_irreducible(rng, 5), rng.uniform(0.5, 1.5, (6, 6)),
                  [[0.0]], [[3.0]], [[0.0, 1.0], [1.0, 0.0]]):
            cert = solver.perron_root(a)
            assert cert.blocks == () and cert.spectral_block == 0
            assert solver.spectral_block(a) == 0

    def test_spectral_block_matches_the_function(self, rng):
        ties = [np.diag([2.0, 2.0]), np.diag([1.0, 3.0, 3.0]), np.zeros((3, 3)),
                np.triu(np.ones((4, 4)), 1)]
        for a in ties + _block_inputs(rng):
            cert = solver.perron_root(a)
            assert cert.spectral_block == solver.spectral_block(a)
            mids = [c.mid for c in cert.blocks]
            assert cert.spectral_block == mids.index(max(mids))
        fnf = structure.frobenius_normal_form(np.diag([1.0, 3.0, 3.0]))
        values = [b[0, 0] for b in fnf.block_matrices]
        assert solver.perron_root(fnf).spectral_block == values.index(3.0)

    def test_block_certificates_hold_no_matrix(self, rng):
        for a in _block_inputs(rng):
            cert = solver.perron_root(a)
            assert not any(isinstance(v, np.ndarray) for v in vars(cert).values())
            for block, c in zip(structure.frobenius_normal_form(a).block_matrices,
                                cert.blocks):
                c.right_vector, c.left_vector  # cached on first read
                assert c.blocks == ()
                held = [v for v in vars(c).values() if isinstance(v, np.ndarray)]
                assert all(v.ndim == 1 and v.size == len(block) for v in held)


def _scales_exactly(a, k, tol=solver.DEFAULT_TOL):
    """perron_root(2^k a, tol = 2^k tol) is 2^k perron_root(a, tol): bit
    for bit in lo and hi, the same vectors, iterations and flag."""
    base = solver.perron_root(a, tol=tol)
    cert = solver.perron_root(np.ldexp(a, k), tol=math.ldexp(tol, k))
    return ((cert.lo, cert.hi, cert.iterations, cert.converged)
            == (math.ldexp(base.lo, k), math.ldexp(base.hi, k),
                base.iterations, base.converged)
            and cert.right_vector.tobytes() == base.right_vector.tobytes()
            and cert.left_vector.tobytes() == base.left_vector.tobytes())


class TestScaleEquivariance:
    """Prescaling is by exact powers of two and every bound scales with
    the input, so a certificate scales bit for bit wherever the proposal
    does."""

    @pytest.mark.parametrize("k", [-1000, -600, -300, -100, -60, 60, 300, 600, 1000])
    def test_squaring_no_proposal_and_ring_routes(self, k):
        rng = np.random.default_rng(3)
        n = 48
        ring = np.zeros((n, n))
        ring[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.5, 1.5, n)
        ring += rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.05)
        for a in (rng.uniform(0.5, 1.5, (20, 20)),  # squaring proposal
                  rng.uniform(0.5, 1.5, (100, 100)),  # none: the ones vector
                  ring):
            assert _scales_exactly(a, k)

    @pytest.mark.parametrize("k", [1000, 1020, -1074])
    def test_prescaled_tol_rounds_toward_zero(self, k):
        # tol 2^-e is subnormal at k = 1000 and 1020 and overflows at
        # k = -1074: the scaled stopping target is never wider than the
        # requested one, and is the largest float that is not
        tol = 1e-12
        _, (e,), *_, (tol_s,), _ = _kernels._prescale(
            np.ldexp([[1.0, 2.0], [3.0, 4.0]], k)[None], tol)
        exact = Fraction(tol) * Fraction(2) ** -e
        if exact > Fraction(sys.float_info.max):
            assert tol_s == sys.float_info.max
        else:
            assert Fraction(tol_s) <= exact < Fraction(math.nextafter(tol_s, math.inf))

    def test_unscale_rounds_as_asked(self):
        # v 2^e for the kernel's exponents, |e| <= 1100, against exact
        # Fractions: toward zero the largest float not above it (the
        # largest float past it), toward inf the least float not below
        # it (inf past the largest float); the products aim at the
        # subnormals, at the top of the range and anywhere
        rng = np.random.default_rng(9)
        top = sys.float_info.max
        for _ in range(20_000):
            v = math.ldexp(rng.choice([0.75, rng.uniform(0.5, 1.0)]), int(rng.integers(-1074, 1024)))
            aim = rng.choice([rng.integers(-1080, -1015), rng.integers(1015, 1030),
                              rng.integers(-1080, 1030)])
            e = int(np.clip(aim - math.frexp(v)[1], -1100, 1100))
            exact = Fraction(v) * Fraction(2) ** e
            down, up = _kernels._unscale(v, e, 0.0), _kernels._unscale(v, e, math.inf)
            if exact > Fraction(top):
                assert (down, up) == (top, math.inf)
                continue
            assert Fraction(down) <= exact <= Fraction(up)
            assert math.nextafter(down, math.inf) == math.inf or (
                exact < Fraction(math.nextafter(down, math.inf)))
            assert Fraction(math.nextafter(up, 0.0)) < exact
            assert (down == up) == (Fraction(down) == exact)

    @pytest.mark.xfail(strict=True, reason=(
        "dgeev's vectors are not scale-equivariant: for max row sums "
        "between about 2^-400 and 2^-50, which the kernel leaves "
        "unscaled, the eig proposal differs by ulps from the one at scale 1"))
    @pytest.mark.parametrize("k", [-300, -100])
    def test_eig_route(self, k):
        a = np.random.default_rng(3).uniform(0.5, 1.5, (3, 3))
        assert _scales_exactly(a, k)


def _fields(a, cert):
    vec = [None if v is None else v.tobytes() for v in (
        cert.right_witness, cert.left_witness, cert.right_vector, cert.left_vector)]
    return (cert.lo, cert.hi, cert.iterations, cert.converged, *vec, solver.residual(a, cert))


class TestPositiveRoute:
    """A positive or 1x1 matrix is irreducible on sight: ``perron_root``
    certifies it whole, with no normal form built, and gives it the
    certificate its normal form gets."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["dense", "sparse", "weak_cycle", "near_reducible", "tiny_gap"]),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-1074, max_value=1000),
        # any cap gives both routes the same certificate; 10^4, not 10^6,
        # as a weak cycle scaled past about 2^420 runs to the cap
        st.sampled_from([1, 2, 3, 10_000]),
    )
    @example("dense", 2, 0, 0, solver.DEFAULT_MAX_ITER)
    @example("near_reducible", 6, 1, 0, 10_000)
    @example("tiny_gap", 2, 2, 600, 10_000)
    def test_same_certificate_as_the_normal_form(self, family, n, seed, k, max_iter):
        if family == "tiny_gap":  # [[1, 1], [eps, 1]], eps 1e-4 to 1e-12
            eps = 10.0 ** -np.random.default_rng(seed).uniform(4.0, 12.0)
            a = np.array([[1.0, 1.0], [eps, 1.0]])[:n, :n]
        else:
            a = _small_input(family, max(n, 2), seed)[:n, :n]
        a = np.ldexp(a, k)  # entries up to 11 * 2^1000 stay finite
        fnf = structure.frobenius_normal_form(a)
        assert _fields(a, solver.perron_root(a, max_iter=max_iter)) == _fields(
            a, solver.perron_root(fnf, max_iter=max_iter))

    def test_scaled_weak_cycle_is_sound(self):
        a = np.ldexp(_small_input("weak_cycle", 8, 4), 600)
        cert = solver.perron_root(a, max_iter=2_000)
        assert decimal.Decimal(cert.lo) <= _cycle_radius(a) <= decimal.Decimal(cert.hi)

    @pytest.mark.xfail(strict=True, reason=(
        "a weak cycle scaled by 2^k, k above about 420, runs to max_iter "
        "with a wide interval (ROADMAP item 6)"))
    def test_scaled_weak_cycle_converges(self):
        a = np.ldexp(_small_input("weak_cycle", 8, 4), 600)
        assert solver.perron_root(a, max_iter=2_000).converged

    def test_positive_input_builds_no_normal_form(self, monkeypatch, rng):
        def refusing(m):
            raise AssertionError("normal form built")

        monkeypatch.setattr(structure, "_normal_form", refusing)
        for n in range(1, 9):
            cert = solver.perron_root(rng.uniform(0.1, 10.0, (n, n)))
            assert cert.right_vector is not None and cert.converged
        assert solver.perron_root([[0.0]]).hi == 0.0  # 1x1, zero included
        with pytest.raises(AssertionError, match="normal form built"):
            solver.perron_root([[1.0, 0.0], [1.0, 1.0]])

    def test_bounds_near_overflow_are_python_floats(self):
        a = [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]
        cert = solver.perron_root(a)
        assert type(cert.lo) is float and type(cert.hi) is float
        assert cert.lo == sys.float_info.max and cert.hi == math.inf
        assert solver.residual(a, cert) is None


class TestCertificate:
    def test_frozen_and_read_only(self):
        cert = solver.perron_irreducible([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.lo = 0.0
        with pytest.raises(ValueError):
            cert.right_vector[0] = 9.0

    def test_holds_vectors_of_at_most_n_entries(self):
        # witnesses and the vectors cached on first read: no n x n array
        # (a matrix, a stack, an image) stays alive through a certificate
        fnf = structure.frobenius_normal_form(three_block_base(np.random.default_rng(9), 24))
        whole = solver.perron_root(fnf)
        i = whole.spectral_block
        pairs = [(fnf.block_matrices[i], whole.blocks[i]), *_certified("trace", 16, 2, 0, 200)]
        for n in (1, 5, 12, 48):
            pairs += _certified("positive", n, n, 0, solver.DEFAULT_MAX_ITER)
        for a, cert in pairs:
            assert cert.right_vector is cert.right_vector
            assert cert.left_vector is cert.left_vector
            # the cached vectors, then the fields of each pass
            held = [v for v in (*vars(cert).values(), *(f for p in cert.passes for f in p))
                    if isinstance(v, np.ndarray)]
            assert len(held) == 4
            assert all(v.ndim == 1 and v.size <= len(a) and not v.flags.writeable
                       for v in held)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            solver.PerronCertificate(lo=2.0, hi=1.0, converged=True)
        with pytest.raises(ValueError):
            solver.PerronCertificate(lo=-0.5, hi=1.0, converged=True)

    def test_mid_and_width(self):
        cert = solver.PerronCertificate(lo=1.0, hi=3.0, converged=False)
        assert cert.mid == 2.0 and cert.width == 2.0

    def test_mid_near_the_largest_float(self):
        # lo + hi overflows; the midpoint does not
        cert = solver.PerronCertificate(lo=1e308, hi=1.5e308, converged=False)
        assert cert.mid == 1.25e308


def _eager_residual(a, cert):
    """||A v - mid v||_1 of the right vector v formed at once from the
    matrix a: np.matmul, minus mid v, abs, np.add.reduce; None where it
    is not finite."""
    v = cert.right_vector
    with np.errstate(over="ignore", invalid="ignore"):
        r = float(np.add.reduce(np.abs(np.matmul(a, v) - cert.mid * v)))
    return r if r < math.inf else None


def _ring(rng, n):
    a = np.zeros((n, n))
    a[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.5, 1.5, n)
    return a + rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.05)


class TestResidual:
    """``solver.residual`` forms A v from the matrix it is given, and
    gives the bits of the eager formula on every route to a vector."""

    def _pinned(self, a, cert):
        assert cert.right_vector is not None
        got = solver.residual(a, cert)
        want = _eager_residual(np.asarray(a, dtype=np.float64), cert)
        assert got == want and (got is None or got.hex() == want.hex())

    def test_positive_input(self, rng):
        for n in range(1, 13):
            for _ in range(5):
                a = rng.uniform(0.0, 10.0, (n, n))
                self._pinned(a, solver.perron_root(a))

    @pytest.mark.parametrize("k", [-1000, -300, 300, 1000])
    def test_scaled(self, k):
        rng = np.random.default_rng(6)
        for n in (2, 5, 8, 12, 48):
            a = np.ldexp(rng.uniform(0.5, 1.5, (n, n)), k)
            self._pinned(a, solver.perron_root(a))
        a = np.ldexp(_ring(rng, 48), k)
        self._pinned(a, solver.perron_root(a))

    def test_normal_form_route(self):
        rng = np.random.default_rng(7)
        cycle = _cycle(np.ones(6))
        cycle[2, 3] = 1e-300
        for a in (_ring(rng, 48), cycle):
            assert not (a > 0.0).all() and structure.is_irreducible(a)
            self._pinned(a, solver.perron_root(a))
            self._pinned(a, solver.perron_root(structure.frobenius_normal_form(a)))

    def test_stacks_of_blocks(self, rng):
        for n in range(2, 9):
            bs = rng.uniform(0.0, 10.0, (6, n, n)) + 1e-3
            for a, cert in zip(bs, solver._perron_roots(
                    [bs], solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER)):
                self._pinned(a, cert)

    def test_trace_terms_and_base(self):
        from perron import harness, perturb
        rng = np.random.default_rng(8)
        spec = harness.SequenceSpec(base=rng.uniform(0.5, 1.5, (16, 16)),
                                    direction=rng.uniform(0.0, 0.1, (16, 16)), count=20)
        trace = harness.run_trace(spec)
        assert len(trace.rows) == 20
        self._pinned(spec.base, trace.base_cert)
        for row in trace.rows:
            self._pinned(spec.term(row.k), row.cert)
        a = spec.base
        bound = perturb.continuity_certificate(a, spec.term(1))
        self._pinned(a, bound.base)

    def test_none_without_a_finite_value(self):
        a = [[1.0, 1.0], [0.0, 2.0]]
        assert solver.residual(a, solver.perron_root(a)) is None
        a = np.full((2, 2), 1.7e308)
        cert = solver.perron_root(a)
        assert cert.hi == math.inf and solver.residual(a, cert) is None

    def test_one_by_one_is_zero(self):
        for value in (0.0, 3.0, 1.7e308):
            cert = solver.perron_root([[value]])
            assert solver.residual([[value]], cert) == 0.0 and cert.mid == value

    def test_midpoint_past_the_largest_float(self):
        # lo + hi overflows, but the residual does not
        a = np.full((2, 2), 0.5e308)
        cert = solver.perron_root(a)
        assert cert.lo + cert.hi == math.inf
        assert 0.0 <= solver.residual(a, cert) < math.inf
        self._pinned(a, cert)

    def test_no_matrix_on_the_certificate(self):
        # the certificate keeps neither the matrix nor its image A v,
        # before or after a residual is formed
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        cert = solver.perron_root(a)
        assert solver.residual(a, cert) is not None
        assert "image" not in repr(cert) and "residual" not in repr(cert)
        assert not hasattr(cert, "image") and not hasattr(cert, "residual")
        assert all(v.ndim == 1 for v in vars(cert).values() if isinstance(v, np.ndarray))


def _with_left_witness(z):
    """The certificate of [[1, 2], [3, 4]], its left witness replaced by z."""
    cert = solver.perron_irreducible([[1.0, 2.0], [3.0, 4.0]])
    right, left = cert.passes
    return dataclasses.replace(cert, passes=(right, left._replace(witness=np.array(z))))


class TestQStar:
    def test_symmetric_two_cycle(self):
        cert = solver.perron_irreducible([[0.0, 1.0], [1.0, 0.0]])
        assert abs(solver.q_star(cert) - 0.5) <= 1e-12

    def test_uniform_left_vector(self):
        cert = solver.perron_irreducible([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert abs(solver.q_star(cert) - 1.0 / 3.0) <= 1e-12

    def test_min_entry(self, rng):
        # min z / sum z of the left witness z, rounded down, exactly: at
        # most that quotient and within 4 ulps of it
        for a in ([[1.0, 2.0], [3.0, 4.0]], *(random_irreducible(rng, n) for n in range(2, 30))):
            cert = solver.perron_irreducible(a)
            z = [Fraction(v) for v in cert.left_witness.tolist()]
            q, exact = solver.q_star(cert), min(z) / sum(z)
            assert Fraction(q) <= exact <= Fraction(q) + 4 * Fraction(math.ulp(q))

    def test_requires_left_vector(self):
        cert = solver.perron_root([[1.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            solver.q_star(cert)

    def test_rejects_a_zero_entry(self):
        cert = _with_left_witness([0.0, 1.0])
        with pytest.raises(ValueError, match="not strictly positive"):
            solver.q_star(cert)

    def test_underflow_rounds_to_zero(self):
        # min z / sum z is below the least subnormal: 0 is its rounding down
        cert = _with_left_witness([5e-324, 1.0, 1.0])
        assert solver.q_star(cert) == 0.0


class TestModuli:
    @pytest.mark.parametrize("witness", [[5e-324, 1.0, 1.0], [0.0, 1.0, 1.0]])
    def test_no_usable_q_star_encloses_everything(self, witness):
        # q* 0, by underflow or a zero entry: any nonzero difference gets
        # the bound inf and the enclosure [0, inf]; a zero one the bracket
        cert = _with_left_witness(witness)
        d = np.zeros((2, 2, 2))
        d[1, 0, 1] = 1e-300
        q, e, bound, lo, hi = solver._moduli(cert, d)
        assert q == 0.0 and e[0] == 0.0 and e[1] > 0.0
        assert bound.tolist() == [0.0, math.inf]
        assert (lo[0], hi[0]) == cert.passes[1][:2]
        assert (lo[1], hi[1]) == (0.0, math.inf)


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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_kernel_call_certifies_a_and_its_power(self, monkeypatch, p):
        # a positive A and A^p go to the kernel as one (2, n, n) stack,
        # each certified bit for bit as perron_root certifies it alone;
        # at p = 1, A alone, once
        a = np.random.default_rng(12).uniform(0.5, 1.5, (12, 12))
        mp = a
        for _ in range(p - 1):  # as the check forms A^p
            mp = mp @ a
        alone = [solver.perron_root(m) for m in (a, mp)]
        calls, stack = [], solver.collatz_wielandt_stack

        def counting(bs, *args):
            calls.append(bs.shape)
            return stack(bs, *args)

        monkeypatch.setattr(solver, "collatz_wielandt_stack", counting)
        powered, direct = solver.power_radius_identity_check(a, p)
        assert calls == [(1 if p == 1 else 2, 12, 12)]
        pad = (p - 1) * 14 * float(np.finfo(np.float64).eps)
        assert direct == (alone[1].lo * (1.0 - pad), alone[1].hi * (1.0 + pad))
        assert powered == (max(float(solver._pow_rounded(alone[0].lo, p, -math.inf)), 0.0),
                           float(solver._pow_rounded(alone[0].hi, p, math.inf)))

    def test_overflow_detected(self):
        a = [[1e200, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="overflow"):
            solver.power_radius_identity_check(a, 2)

    @pytest.mark.parametrize("v", [1e-160, 3e-162, 1.7e-155])
    def test_underflow_detected(self, v):
        # v^2 is subnormal: the rounded square has no relative bound, and
        # an interval padded relatively around it misses the exact v^2
        with pytest.raises(ValueError, match="underflow"):
            solver.power_radius_identity_check([[v]], 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-600, max_value=-150),
        st.integers(min_value=2, max_value=4),
    )
    @example(1, 0, -531, 2)
    def test_exact_at_underflowing_scales(self, n, seed, k, p):
        # both intervals hold the exact rho(A^p) of the stored floats, or
        # the check raises, and then only where a power A^j, j <= p, has
        # a positive entry near or below the normal range
        a = np.ldexp(random_nonneg(np.random.default_rng(seed), n, scale=2.0, density=0.6), k)
        try:
            intervals = solver.power_radius_identity_check(a, p)
        except ValueError as exc:
            assert "underflow" in str(exc)
            assert any(0 < v < 2.0**-1000 for j in range(2, p + 1)
                       for row in rational_power(a, j) for v in row)
            return
        for lo, hi in intervals:
            assert encloses_radius(a, lo, hi, p)
