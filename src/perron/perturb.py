"""Perturbation certificates for the Perron root of an irreducible matrix.

For irreducible nonnegative A with left Perron vector q (1-norm one) the
spectral radius moves by at most ||E||_2 / min_i(q_i) under any nonnegative
perturbation A + E of A.  The Frobenius norm bounds the spectral norm from
above, so it can stand in for it without weakening soundness.  The
norm, the bound and the enclosure are each rounded outward, so they hold
for the exact difference of the stored floats.  The perturbed matrix's
own certificate, ``perturbed``, comes from the same stacked kernel call
as the base's, so checking the theorem against it costs no second call.
"""

import math
from dataclasses import dataclass

from . import _kernels, matcore, solver, structure

__all__ = ["PerturbationBound", "continuity_certificate"]


@dataclass(frozen=True)
class PerturbationBound:
    """Certified bound on the Perron root shift caused by a perturbation.

    ``enclosure`` is a closed interval guaranteed to contain the spectral
    radius of the perturbed matrix: the base certificate widened by the
    bound on each side, rounded outward.  ``perturbed`` is the perturbed
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
    recomputed.  The bound is ||a_prime - a||_F / q_star, rounded up.
    q_star is read off the left vector, so a base certificate that did
    not converge within ``max_iter`` raises ValueError: its left vector
    can be far from the Perron vector.
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
    qs = solver._base_q_star(cert, max_iter)
    e_norm = float(_kernels._frobenius_up((mp - m)[None])[0])
    bound = math.nextafter(e_norm / qs, math.inf) if e_norm else 0.0
    enclosure = (cert.lo, cert.hi)
    if bound:  # rounded outward, the low end clamped at 0
        enclosure = (max(math.nextafter(cert.lo - bound, -math.inf), 0.0),
                     math.nextafter(cert.hi + bound, math.inf))
    return PerturbationBound(
        base=cert, perturbed=perturbed, q_star=qs, e_norm=e_norm, bound=bound,
        enclosure=enclosure,
    )

