"""Certified Perron root and Perron vector computation.

Irreducible matrices get a Collatz-Wielandt interval from the kernel,
run on the matrix and on its transpose; the two intervals both hold
the radius, so their intersection is reported.  Irreducible matrices
of one size are certified together: one stacked first step
(``_kernels.collatz_wielandt_stack``: an eig proposal for n <= 8, for
8 < n <= 64 both vectors proposed by one repeated-squaring power, none
above, bounds rounded outward) finishes every pass that stops at its
proposal, and the serial ``_kernels.collatz_wielandt`` (power sweeps
handing over to Noda steps) resumes each other pass where the first
step left it.  A matrix's certificate does not depend on what it is
certified with.  Reducible matrices are split into irreducible diagonal
blocks first and the block intervals are combined.  Certificates report
closed intervals [lo, hi] that always contain the spectral radius,
converged or not; ``converged`` says whether the intersected interval
is at most the requested width.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matcore, structure
from ._kernels import Resume, collatz_wielandt, collatz_wielandt_stack

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
    return _certify_irreducible(m[None], tol, max_iter)[0]


def _certify_irreducible(ms, tol, max_iter) -> list[PerronCertificate]:
    # perron_irreducible minus its checks, for each matrix of an (m, n, n)
    # stack: validated irreducible matrices (normal-form blocks, say)
    # and validated parameters
    m, n = ms.shape[0], ms.shape[1]
    if n == 1:
        one = _freeze(np.ones(1))
        return [
            PerronCertificate(
                lo=val, hi=val, right_vector=one, left_vector=one,
                residual=0.0, iterations=0, converged=True,
            )
            for val in ms[:, 0, 0].tolist()
        ]
    # pass j < m is on ms[j], pass m + j on its transpose
    passes = [
        collatz_wielandt(np.ascontiguousarray(ms[j] if j < m else ms[j - m].T),
                         tol, max_iter, p)
        if isinstance(p, Resume) else p
        for j, p in enumerate(collatz_wielandt_stack(ms, tol, max_iter))
    ]
    # rho(A) = rho(A^T): both intervals hold it
    lo = [max(r[0], t[0]) for r, t in zip(passes, passes[m:])]
    hi = [min(r[1], t[1]) for r, t in zip(passes, passes[m:])]
    x = np.array([r[2] for r in passes[:m]])
    mid = np.array([0.5 * (a + b) for a, b in zip(lo, hi)])
    with np.errstate(over="ignore", invalid="ignore"):  # hi may be inf
        res = np.matmul(ms, x[:, :, None])[:, :, 0] - mid[:, None] * x
    finite = np.isfinite(res).all(axis=1).tolist()
    norms = np.abs(res).sum(axis=1).tolist()
    return [
        PerronCertificate(
            lo=lo[i],
            hi=hi[i],
            right_vector=_freeze(passes[i][2]),
            left_vector=_freeze(passes[m + i][2]),
            residual=norms[i] if finite[i] else None,
            iterations=passes[i][3] + passes[m + i][3],
            converged=hi[i] - lo[i] <= tol,
        )
        for i in range(m)
    ]


def _certify_blocks(mats, tol, max_iter) -> list[PerronCertificate]:
    """Certificates of irreducible matrices, in order, with one call of
    ``_certify_irreducible`` per size."""
    sizes = {}
    for i, a in enumerate(mats):
        sizes.setdefault(a.shape[0], []).append(i)
    certs = [None] * len(mats)
    for idx in sizes.values():
        # a lone matrix is certified from a view, not a copy
        if len(idx) == 1:
            stack = mats[idx[0]][None]
        else:
            stack = np.array([mats[i] for i in idx])
        for i, cert in zip(idx, _certify_irreducible(stack, tol, max_iter)):
            certs[i] = cert
    return certs


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
    certs = _certify_blocks(fnf.block_matrices, tol, max_iter)
    return max(range(len(certs)), key=lambda i: certs[i].mid), certs


def _perron_roots(items, tol, max_iter) -> list[PerronCertificate]:
    """``perron_root`` of each item, a matrix or its normal form, with the
    irreducible blocks of all items certified together, one stacked call
    per block size."""
    fnfs = [
        a if isinstance(a, structure.FrobeniusNormalForm)
        else structure.frobenius_normal_form(a)
        for a in items
    ]
    tol, max_iter = _validate_iteration_params(tol, max_iter)
    # an irreducible matrix is its own single block
    certs = iter(_certify_blocks(
        [b for fnf in fnfs for b in fnf.block_matrices], tol, max_iter))
    out = []
    for fnf in fnfs:
        blocks = [next(certs) for _ in fnf.block_matrices]
        out.append(blocks[0] if fnf.irreducible else _combine(blocks))
    return out


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
    return _perron_roots([a], tol, max_iter)[0]


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
