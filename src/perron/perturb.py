"""Perturbation certificates for the Perron root of an irreducible matrix.

For irreducible nonnegative A and any positive vector z whose ratios
(A^T z)_i / z_i lie in [l, h], the spectral radius of any nonnegative
perturbation A + E lies in [l - delta, h + delta], delta = ||E||_F /
q*, q* = min z / ||z||_1: the paper's modulus, taken here with the left
witness of A's certificate and centred on that witness's own bracket,
so it holds whether or not the certificate converged.  The norm, the
bound and the enclosure are each rounded outward by ``solver._moduli``,
so they hold for the exact difference of the stored floats.  The
perturbed matrix's
own certificate, ``perturbed``, comes from the same stacked kernel call
as the base's, so checking the theorem against it costs no second call.
"""

from dataclasses import dataclass

from . import matcore, solver, structure

__all__ = ["PerturbationBound", "continuity_certificate"]


@dataclass(frozen=True)
class PerturbationBound:
    """Certified bound on the Perron root shift caused by a perturbation.

    ``enclosure`` is a closed interval guaranteed to contain the spectral
    radius of the perturbed matrix: the bracket of the base's left
    witness (the lo and hi of ``base.passes[1]``) widened by the bound
    on each side, rounded outward.  ``perturbed`` is the perturbed
    matrix's own certificate, the one ``solver.perron_root`` gives it, so
    its interval and the enclosure must intersect; ``ok`` says whether
    they do.
    """

    base: solver.PerronCertificate
    perturbed: solver.PerronCertificate
    q_star: float
    e_norm: float
    bound: float
    enclosure: tuple[float, float]
    norm: str = "frobenius"

    @property
    def ok(self) -> bool:
        """Whether the perturbed certificate meets the enclosure, as the
        theorem requires."""
        return (self.perturbed.lo <= self.enclosure[1]
                and self.perturbed.hi >= self.enclosure[0])


def continuity_certificate(
    a, a_prime, tol=solver.DEFAULT_TOL, max_iter=solver.DEFAULT_MAX_ITER
) -> PerturbationBound:
    """Bound the radius shift from irreducible a to nonnegative a_prime.

    a_prime only needs nonnegativity, it may be reducible or even zero;
    a itself must be irreducible, since that is what makes its left
    Perron vector strictly positive.  ``a`` may also be its
    :class:`~perron.structure.FrobeniusNormalForm`, which is then not
    recomputed.  The bound is ||a_prime - a||_F / q_star, rounded up,
    with ``solver.q_star`` of the base's left witness; an unconverged
    base gives a wider enclosure, not a wrong one.
    """
    given = isinstance(a, structure.FrobeniusNormalForm)
    fnf = a if given else structure.frobenius_normal_form(a)
    m = fnf.matrix
    mp = matcore.nonneg_matrix(a_prime)
    if mp.shape != m.shape:
        raise ValueError(f"shape mismatch: matrix {m.shape}, perturbed {mp.shape}")
    if not fnf.irreducible:
        raise ValueError("base matrix is reducible, so the continuity bound does not "
                         "apply; run `perron analyze` to see its block structure")
    cert, perturbed = solver._perron_roots([fnf, mp[None]], tol, max_iter)
    qs, *moduli = solver._moduli(cert, (mp - m)[None])
    e_norm, bound, lo, hi = (float(v[0]) for v in moduli)
    return PerturbationBound(
        base=cert, perturbed=perturbed, q_star=qs, e_norm=e_norm, bound=bound,
        enclosure=(lo, hi),
    )

