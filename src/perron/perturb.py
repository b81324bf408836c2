"""Perturbation certificates for the Perron root of an irreducible matrix.

For irreducible nonnegative A with left Perron vector q (1-norm one) the
spectral radius moves by at most ||E||_2 / min_i(q_i) under any nonnegative
perturbation A + E of A.  The Frobenius norm bounds the spectral norm from
above, so it can stand in for it without weakening soundness.  The
norm, the bound and the enclosure are each rounded outward, so they hold
for the exact difference of the stored floats.
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
    bound on each side, rounded outward.
    """

    base: solver.PerronCertificate
    q_star: float
    e_norm: float
    bound: float
    enclosure: tuple[float, float]
    norm: str = "frobenius"


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
    cert = solver.perron_root(fnf, tol=tol, max_iter=max_iter)
    if not cert.converged:
        raise ValueError(
            f"base certificate did not converge within max_iter={max_iter}, "
            "so q_star is not reliable; raise max_iter or tol"
        )
    qs = solver.q_star(cert)
    e_norm = _frobenius_up(mp - m)
    bound = math.nextafter(e_norm / qs, math.inf) if e_norm else 0.0
    enclosure = (cert.lo, cert.hi)
    if bound:  # rounded outward, the low end clamped at 0
        enclosure = (max(math.nextafter(cert.lo - bound, -math.inf), 0.0),
                     math.nextafter(cert.hi + bound, math.inf))
    return PerturbationBound(
        base=cert, q_star=qs, e_norm=e_norm, bound=bound, enclosure=enclosure
    )


def _frobenius_up(d) -> float:
    """Upper bound on the exact Frobenius norm of the difference that the
    N entries of ``d`` round.

    ``matcore.frobenius_norm(d)`` is scaled by 1 + g, g =
    ``_kernels._gamma(N + 6, u)``, at least Nu/(1 - 2Nu) + 11u.  The
    first term covers the N rounded squares and any order of their
    N - 1 sums; the 11u covers the difference (one rounding per entry),
    the square root, underflow in the scaled squares (each below
    2^-1074, against a sum of at least 1/8 for N < 2^50) and the
    padding's own arithmetic.  The ulp steps cover a norm scaled back
    into the subnormals and the product's rounding.  Only an exactly
    zero difference gives 0.
    """
    e = matcore.frobenius_norm(d)
    if e == 0.0:
        return 0.0
    g = _kernels._gamma(d.size + 6, _kernels._U)
    return math.nextafter(math.nextafter(e, math.inf) * (1.0 + g), math.inf)
