"""Certified Perron root and Perron vector computation.

Irreducible matrices get a Collatz-Wielandt interval from the kernel
(``_kernels.collatz_wielandt``: an eig proposal for n <= 8, for
8 < n <= 64 both vectors proposed by one repeated-squaring power
(``_kernels.power_proposal``), power sweeps handing over to Noda steps,
bounds rounded outward), run on the matrix
and on its transpose; the two intervals both hold the radius, so their
intersection is reported.
Reducible matrices are split into irreducible diagonal blocks first and
the block intervals are combined.  Certificates report closed intervals
[lo, hi] that always contain the spectral radius, converged or not;
``converged`` says whether both passes reached the requested width.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matcore, structure
from ._kernels import _EIG_N, _SQUARE_N, collatz_wielandt, power_proposal

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "PerronCertificate",
    "perron_irreducible",
    "perron_root",
    "q_star",
    "power_radius_identity_check",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**6


@dataclass(frozen=True)
class PerronCertificate:
    """Certified enclosure of a Perron root.

    ``right_vector`` and ``left_vector`` are 1-norm-normalized nonnegative
    eigenvector approximations, present only when the certified matrix is
    irreducible (strictly positive then, for n >= 2).  ``residual`` is
    ||A v - mid v||_1 for the right vector, None when no vector is carried
    or the residual overflows.  ``hi`` is infinite when the radius
    exceeds the largest float.
    """

    lo: float
    hi: float
    right_vector: np.ndarray | None
    left_vector: np.ndarray | None
    residual: float | None
    iterations: int
    converged: bool

    @property
    def mid(self) -> float:
        mid = 0.5 * (self.lo + self.hi)
        # lo + hi overflows for radii near the largest float
        return mid if mid < math.inf else 0.5 * self.lo + 0.5 * self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")


def _freeze(v: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(v, dtype=np.float64)
    v.flags.writeable = False
    return v


def _validate_iteration_params(tol, max_iter):
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if int(max_iter) < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    return float(tol), int(max_iter)


def perron_irreducible(b, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> PerronCertificate:
    """Certify the Perron root and both Perron vectors of an irreducible matrix.

    The kernel certifies the matrix, giving the right vector, and its
    transpose, giving the left vector; the interval is the intersection
    of the two certified intervals.  A 1x1 matrix is certified exactly.  Raises
    ValueError for reducible input; running out of iterations is not an
    error, the certificate is returned wide with ``converged=False``.
    """
    m = matcore.nonneg_matrix(b)
    tol, max_iter = _validate_iteration_params(tol, max_iter)
    if not structure.is_irreducible(m):
        raise ValueError("matrix is reducible; use perron_root")
    return _certify_irreducible(m, tol, max_iter)


def _certify_irreducible(m, tol, max_iter) -> PerronCertificate:
    # perron_irreducible minus its checks: m is a validated irreducible
    # matrix (a normal-form block, say) and the parameters are validated
    n = m.shape[0]
    if n == 1:
        val = float(m[0, 0])
        one = _freeze(np.ones(1))
        return PerronCertificate(
            lo=val, hi=val, right_vector=one, left_vector=one,
            residual=0.0, iterations=0, converged=True,
        )
    # both passes may start from one power of m; the kernel keeps a
    # proposed vector only where it beats the ones vector
    right = left = None
    if _EIG_N < n <= _SQUARE_N:
        right, left = power_proposal(m) or (None, None)
    lo, hi, x, iters, conv = collatz_wielandt(m, tol, max_iter, start=right)
    lt_lo, lt_hi, y, lt_iters, lt_conv = collatz_wielandt(
        np.ascontiguousarray(m.T), tol, max_iter, start=left
    )
    # rho(A) = rho(A^T): both intervals hold it
    lo, hi = max(lo, lt_lo), min(hi, lt_hi)
    with np.errstate(over="ignore", invalid="ignore"):  # hi may be inf
        res = m @ x - 0.5 * (lo + hi) * x
    residual = matcore.one_norm_vec(res) if np.isfinite(res).all() else None
    return PerronCertificate(
        lo=lo,
        hi=hi,
        right_vector=_freeze(x),
        left_vector=_freeze(y),
        residual=residual,
        iterations=iters + lt_iters,
        converged=conv and lt_conv,
    )


def _combine(certs) -> PerronCertificate:
    # certificates of the diagonal blocks: the radius is the largest block
    # radius, so [max lo, max hi] holds it; block vectors are dropped
    return PerronCertificate(
        lo=max(0.0, *(c.lo for c in certs)),
        hi=max(0.0, *(c.hi for c in certs)),
        right_vector=None, left_vector=None, residual=None,
        iterations=sum(c.iterations for c in certs),
        converged=all(c.converged for c in certs),
    )


def _spectral_block(fnf, tol, max_iter) -> tuple[int, list[PerronCertificate]]:
    """Index of the block whose certificate has the greatest midpoint
    (ties go to the lowest index), and the certificates of all blocks."""
    tol, max_iter = _validate_iteration_params(tol, max_iter)
    certs = [_certify_irreducible(mat, tol, max_iter) for mat in fnf.block_matrices]
    return max(range(len(certs)), key=lambda i: certs[i].mid), certs


def perron_root(a, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> PerronCertificate:
    """Certify the Perron root of any nonnegative matrix.

    Splits into irreducible diagonal blocks and combines the block
    intervals; the spectral radius is the maximum of the block radii, so
    [max of lows, max of highs] encloses it.  Perron vectors are carried
    only when the whole matrix is irreducible (reducible matrices need
    not have a strictly positive eigenvector; certify the spectral block
    directly if a vector is wanted).  ``a`` may also be the matrix's
    :class:`~perron.structure.FrobeniusNormalForm`, which is then not
    recomputed.
    """
    given = isinstance(a, structure.FrobeniusNormalForm)
    fnf = a if given else structure.frobenius_normal_form(a)
    tol, max_iter = _validate_iteration_params(tol, max_iter)
    if fnf.irreducible:
        return _certify_irreducible(fnf.matrix, tol, max_iter)
    return _combine([_certify_irreducible(b, tol, max_iter) for b in fnf.block_matrices])


def q_star(cert: PerronCertificate) -> float:
    """Smallest entry of the certificate's left Perron vector."""
    if cert.left_vector is None:
        raise ValueError("certificate carries no left Perron vector")
    qs = float(cert.left_vector.min())
    if qs <= 0.0:
        raise ValueError(f"left Perron vector is not strictly positive (min {qs})")
    return qs


def _pow_interval(lo: float, hi: float, p: int) -> tuple[float, float]:
    # interval [lo, hi]^p for 0 <= lo <= hi, rounded outward one ulp per step
    rlo, rhi = 1.0, 1.0
    for _ in range(p):
        rlo = math.nextafter(rlo * lo, -math.inf)
        rhi = math.nextafter(rhi * hi, math.inf)
    return max(rlo, 0.0), rhi


def power_radius_identity_check(
    a, p: int, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Certified intervals for rho(A)^p and for rho(A^p).

    The two real quantities coincide, so the returned intervals must
    intersect.  Both are padded outward for the floating-point rounding
    they carry: the first for the explicit interval power, the second for
    the rounding of the entries of A^p (relative, a few ulps).  Raises on
    overflow in the matrix power.
    """
    m = matcore.nonneg_matrix(a)
    p = int(p)
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    base = perron_root(m, tol=tol, max_iter=max_iter)
    powered_interval = _pow_interval(base.lo, base.hi, p)

    with np.errstate(over="ignore"):
        mp = np.linalg.matrix_power(m, p)
    if not np.isfinite(mp).all():
        raise ValueError(f"overflow computing matrix power {p}")
    cert = perron_root(mp, tol=tol, max_iter=max_iter)
    # entries of the floating A^p differ from the real ones by a relative
    # error below (p-1)*(n+2) ulps; nonnegative sums cannot cancel
    pad = (p - 1) * (m.shape[0] + 2) * float(np.finfo(np.float64).eps)
    power_cert = (cert.lo * (1.0 - pad), cert.hi * (1.0 + pad))
    return powered_interval, power_cert
