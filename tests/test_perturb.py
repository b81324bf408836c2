import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from perron import cli, harness, matcore, perturb, solver, structure
from generators import flip_to_cone, near_defective, random_irreducible
from oracles import cw_exact, eig_radius


class TestContinuityCertificate:
    def test_unperturbed_matrix(self):
        a = [[0.0, 1.0], [1.0, 0.0]]
        res = perturb.continuity_certificate(a, a)
        assert res.e_norm == 0.0
        assert res.bound == 0.0
        assert res.enclosure == res.base.passes[1][:2]

    def test_two_cycle_corner_bump(self):
        # bump of 0.01 at the lower right corner of the symmetric 2-cycle:
        # q_star = 1/2, so the certified bound is exactly 0.02
        a = [[0.0, 1.0], [1.0, 0.0]]
        ap = [[0.0, 1.0], [1.0, 0.01]]
        res = perturb.continuity_certificate(a, ap)
        assert abs(res.q_star - 0.5) <= 1e-12
        assert abs(res.e_norm - 0.01) <= 1e-15
        assert abs(res.bound - 0.02) <= 1e-12
        # new radius is the larger root of x^2 - 0.01x - 1
        rho_prime = 0.5 * (0.01 + math.sqrt(4.0001))
        assert abs(rho_prime - 1.0) <= res.bound
        assert res.enclosure[0] <= rho_prime <= res.enclosure[1]

    def test_ok_is_whether_the_perturbed_certificate_meets_the_enclosure(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        res = perturb.continuity_certificate(a, a + 0.001)
        assert res.ok
        lo, hi = res.enclosure
        for moved in ((math.nextafter(hi, math.inf), 2.0 * hi), (0.0, 0.5 * lo)):
            perturbed = dataclasses.replace(res.perturbed, lo=moved[0], hi=moved[1])
            assert not dataclasses.replace(res, perturbed=perturbed).ok
        touching = dataclasses.replace(res.perturbed, lo=hi, hi=2.0 * hi)
        assert dataclasses.replace(res, perturbed=touching).ok

    def test_uniform_bump(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        ap = a + 0.001
        res = perturb.continuity_certificate(a, ap)
        assert abs(res.e_norm - 0.002) <= 1e-15
        assert res.enclosure[0] <= eig_radius(ap) <= res.enclosure[1]
        assert res.norm == "frobenius"

    def test_sound_on_random_perturbations(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = random_irreducible(rng, n)
            e = flip_to_cone(a, rng.uniform(-1.0, 1.0, (n, n)) * rng.uniform(0, 0.1))
            ap = a + e
            res = perturb.continuity_certificate(a, ap)
            shift = abs(eig_radius(ap) - eig_radius(a))
            assert shift <= res.bound + res.base.width + 1e-9
            assert res.enclosure[0] - 1e-9 <= eig_radius(ap) <= res.enclosure[1] + 1e-9

    def test_bounds_are_rounded_outward(self, rng):
        # e_norm, bound and both enclosure ends hold in exact arithmetic
        # for the stored floats, the ends around the left witness's
        # bracket; q_star is checked in tests/test_solver.py
        for _ in range(300):
            n = int(rng.integers(2, 6))
            a = rng.uniform(0.5, 1.5, (n, n))
            ap = a + rng.uniform(-1e-3, 1e-3, (n, n))
            res = perturb.continuity_certificate(a, ap)
            sq = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(ap.flat, a.flat))
            bound = Fraction(res.bound)
            assert Fraction(res.e_norm) ** 2 >= sq
            assert bound >= Fraction(res.e_norm) / Fraction(res.q_star)
            l, h = map(Fraction, res.base.passes[1][:2])
            assert Fraction(res.enclosure[0]) <= max(l - bound, 0)
            assert Fraction(res.enclosure[1]) >= h + bound

    def test_bound_scales_exactly_with_perturbation(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        e = np.zeros((2, 2))
        e[1, 1] = 0.01
        one = perturb.continuity_certificate(a, a + e)
        two = perturb.continuity_certificate(a, a + 2.0 * e)
        assert two.e_norm == 2.0 * one.e_norm
        assert two.bound == 2.0 * one.bound

    def test_symmetric_matrix_has_matching_vectors(self):
        a = [[1.0, 2.0], [2.0, 1.0]]
        res = perturb.continuity_certificate(a, a)
        np.testing.assert_allclose(
            res.base.left_vector, res.base.right_vector, atol=1e-10
        )

    def test_rejects_reducible_base(self):
        with pytest.raises(ValueError, match="reducible"):
            perturb.continuity_certificate([[1.0, 1.0], [0.0, 2.0]], [[1.0, 1.0], [0.0, 2.0]])

    def test_accepts_a_normal_form(self, rng):
        a = random_irreducible(rng, 4)
        ap = a + 0.01
        from_fnf = perturb.continuity_certificate(structure.frobenius_normal_form(a), ap)
        direct = perturb.continuity_certificate(a, ap)
        assert (from_fnf.bound, from_fnf.enclosure) == (direct.bound, direct.enclosure)
        b = [[1.0, 1.0], [0.0, 2.0]]
        with pytest.raises(ValueError, match="reducible"):
            perturb.continuity_certificate(structure.frobenius_normal_form(b), b)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            perturb.continuity_certificate([[0.0, 1.0], [1.0, 0.0]], [[1.0]])

    def test_rejects_unconverged_base(self):
        # no longer refused: one sweep leaves the left witness far from
        # the Perron vector, its q* near 0.4 where the Perron vector's is
        # 1e-4, but centred on the witness's own wide bracket the
        # enclosure still holds rho(a_prime), bracketed exactly
        a = [[1.0, 1.0], [1e-8, 1.0]]
        a_prime = np.array([[1.0, 1.0], [1e-8 + 1e-6, 1.0]])
        least, greatest = cw_exact(a_prime, solver.perron_root(a_prime, tol=1e-15).right_witness)
        for max_iter in (1, solver.DEFAULT_MAX_ITER):
            res = perturb.continuity_certificate(a, a_prime, max_iter=max_iter)
            assert res.base.converged == (max_iter > 1) and res.ok
            assert Fraction(res.enclosure[0]) <= least and greatest <= Fraction(res.enclosure[1])

    def test_rejects_negative_perturbed_entry(self):
        with pytest.raises(ValueError):
            perturb.continuity_certificate([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, -0.01]])


def _exact_bracket(a):
    """The exact least and greatest ratio of a's right witness at tol
    1e-15 (``oracles.cw_exact``): rho(a) lies between them."""
    return cw_exact(a, solver.perron_root(a, tol=1e-15).right_witness)


class TestNearDefective:
    """On ``generators.near_defective`` matrices the left witness's q*,
    min z / ||z||_1, can exceed the left Perron vector's least entry,
    though the certificate converged.  The modulus ||E||_F / q* then
    bounds the shift from the witness's own bracket only: centred on the
    certificate's [lo, hi], the enclosure missed rho(A')."""

    def test_seed_3_draw_26(self, tmp_path, capsys):
        # n = 9, g = 6.50e-12, C = 3.29, d = 7.26e-33; A' adds 1e-25 at
        # (1, 0).  Centred on [lo, hi], the enclosure ended at
        # 1.0000000000000457, below the exact least ratio
        # 1.0000000000000502 of A''s witness
        rng = np.random.default_rng(3)
        for _ in range(26):
            a = near_defective(rng)
        a_prime = a.copy()
        a_prime[1, 0] += 1e-25
        least, greatest = _exact_bracket(a_prime)
        res = perturb.continuity_certificate(a, a_prime)
        assert res.ok
        assert Fraction(res.enclosure[0]) <= least and greatest <= Fraction(res.enclosure[1])
        paths = [str(tmp_path / "a.txt"), str(tmp_path / "a_prime.txt")]
        for path, m in zip(paths, (a, a_prime)):
            matcore.write_matrix_file(path, m)
            assert np.array_equal(matcore.read_matrix_file(path), m)
        assert cli.main(["certify", *paths]) == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        assert printed["soundness"] == "PASS"
        assert Fraction(float(printed["enclosure_lo"])) <= least
        assert greatest <= Fraction(float(printed["enclosure_hi"]))

    def test_no_enclosure_is_refuted(self):
        # 30 bases of seed 3 and A' = A + c e_i e_j^T, i the left
        # witness's largest entry and j the right witness's, c = 1e-16 *
        # 0.1^k for k = 1..18: each A' through continuity_certificate, and
        # all as the rows of one geometric trace, whose enclosures are the
        # base's left bracket widened by each row's bound
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = near_defective(rng)
            cert = solver.perron_root(a)
            direction = np.zeros(a.shape)
            direction[np.argmax(cert.left_witness), np.argmax(cert.right_witness)] = 1.0
            spec = harness.SequenceSpec(
                base=a, direction=direction, rule="geom", coeff=1e-16, gamma=0.1, count=18)
            trace = harness.run_trace(spec)
            assert trace.ok
            l, h = map(Fraction, trace.base_cert.passes[1][:2])
            for row in trace.rows:
                a_prime = spec.term(row.k)
                least, greatest = _exact_bracket(a_prime)
                bound = Fraction(row.extra[0])
                assert least <= h + bound and l - bound <= greatest
                res = perturb.continuity_certificate(a, a_prime)
                assert res.ok and res.bound == row.extra[0]
                assert least <= Fraction(res.enclosure[1])
                assert Fraction(res.enclosure[0]) <= greatest


class TestSharpnessProbe:
    """The bound ||A_k - A||_F / q_star against the observed shift along
    A_k = A + s*D, on the stored difference A_k - A.

    The irreducible trace rows of :func:`perron.harness.run_trace` hold
    both: ``extra`` is the bound and ``deviation`` the midpoint shift.
    ``rule="inv-k"`` with ``coeff=c`` gives the scales c, c/2, ...
    """

    @staticmethod
    def probe(a, d, coeff, count=1):
        spec = harness.SequenceSpec(base=a, direction=d, coeff=coeff, count=count)
        trace = harness.run_trace(spec)
        assert trace.kind == "irreducible"
        return [(row.scale, row.extra[0], row.deviation) for row in trace.rows]

    def test_zero_direction(self):
        rows = self.probe([[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], 1.0, 2)
        for s, bound, observed in rows:
            assert bound == 0.0
            assert observed <= 1e-12

    def test_corner_direction_on_two_cycle(self):
        # rho(A + s*D) = (s + sqrt(s^2+4))/2, so the observed shift is
        # about s/2 while the bound is 2s: a slack factor of 4
        a = [[0.0, 1.0], [1.0, 0.0]]
        d = [[0.0, 0.0], [0.0, 1.0]]
        s, bound, observed = self.probe(a, d, 0.01)[0]
        assert s == 0.01
        assert abs(bound - 0.02) <= 1e-12
        exact = 0.5 * (s + math.sqrt(s * s + 4.0)) - 1.0
        assert abs(observed - exact) <= 1e-9
        assert observed <= bound

    def test_bounds_halve_exactly_with_scale(self):
        # the stored differences, 0.5 I and 0.25 I, are exact, so the
        # certified bounds inherit the exact factor of two; 1 + 0.2 and
        # 1 + 0.1 round, and their differences are not a factor 2 apart
        rows = self.probe([[1.0, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]], 0.5, 2)
        assert [row[0] for row in rows] == [0.5, 0.25]
        assert rows[0][1] == 2.0 * rows[1][1]

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError, match="-1.0"):
            self.probe([[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], -1.0)

    def test_rejects_cone_violation(self):
        a = [[0.0, 1.0], [1.0, 0.0]]
        d = [[0.0, -1.0], [0.0, 0.0]]
        rows = self.probe(a, d, 0.5)
        assert rows[0][2] > 0.0
        with pytest.raises(ValueError, match="nonnegative cone"):
            self.probe(a, d, 2.0)

    def test_rejects_direction_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            self.probe([[0.0, 1.0], [1.0, 0.0]], [[1.0]], 0.1)
