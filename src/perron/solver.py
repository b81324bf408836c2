"""Certified Perron root and Perron vector computation.

Irreducible matrices get a Collatz-Wielandt interval from the kernel,
run on the matrix and on its transpose; the two intervals both hold
the radius, so their intersection is reported.  Irreducible matrices
of one size are certified together by one
``_kernels.collatz_wielandt_stack`` call: a first step (an eig proposal
for n <= 8, for 8 < n <= 64 both vectors proposed by one
repeated-squaring power, none above), then power sweeps handing over to
Noda steps, iterated for every pass of the stack until each stops,
bounds rounded outward.  A matrix's certificate does not depend on what
it is certified with.  A positive or 1x1 matrix goes to the kernel
whole, with no normal form built; other matrices are split into
irreducible diagonal blocks first and the block intervals are combined,
the certificate keeping its blocks' certificates.  Certificates report
closed intervals [lo, hi] that always contain the spectral radius,
converged or not; ``converged`` says whether the intersected interval
is at most the requested width.  The kernel returns the vectors it
certified, each with its largest entry 1, and ``_certify_irreducible``
hands them to the certificates as they are, their witnesses; a
certificate forms its 1-norm vectors from them when they are first
read, and ``residual`` forms ||A v - mid v||_1 from the matrix it is
given.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcore, structure
from ._kernels import collatz_wielandt_stack

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "PerronCertificate",
    "perron_irreducible",
    "perron_root",
    "q_star",
    "residual",
    "power_radius_identity_check",
    "spectral_block",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**6
_min = np.minimum.reduce


@dataclass(frozen=True, eq=False)
class PerronCertificate:
    """Certified enclosure of a Perron root.

    ``right_witness`` and ``left_witness`` are the vectors the kernel
    certified on the matrix and on a contiguous copy of its transpose,
    read-only, with largest entry exactly 1: [1.0] for a 1x1 matrix, None
    where the certified matrix is not irreducible (strictly positive
    otherwise, for n >= 2).  ``right_vector`` and ``left_vector`` are
    their 1-norm copies, the nonnegative eigenvector approximations,
    formed and frozen on first read.  ``hi`` is infinite when the radius
    exceeds the largest float.  ``blocks`` are the certificates of the
    normal-form diagonal blocks, in normal-form order, for a matrix with
    more than one; () for a matrix certified whole.  Their positions and
    the permutation stay on the
    :class:`~perron.structure.FrobeniusNormalForm`.  Certificates hold
    no matrix: ``residual`` takes it.  They compare and hash by
    identity: their vectors have no single truth value.
    """

    lo: float
    hi: float
    right_witness: np.ndarray | None
    left_witness: np.ndarray | None
    iterations: int
    converged: bool
    blocks: tuple["PerronCertificate", ...] = ()

    @property
    def mid(self) -> float:
        mid = 0.5 * (self.lo + self.hi)
        # lo + hi overflows for radii near the largest float
        return mid if mid < math.inf else 0.5 * self.lo + 0.5 * self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def spectral_block(self) -> int:
        """Index of the block whose certificate has the greatest midpoint,
        ties to the lowest; 0 without blocks."""
        return max(range(len(self.blocks)), key=lambda i: self.blocks[i].mid, default=0)

    # cached_property writes the instance dict, which frozen allows
    @cached_property
    def right_vector(self) -> np.ndarray | None:
        return _unit(self.right_witness)

    @cached_property
    def left_vector(self) -> np.ndarray | None:
        return _unit(self.left_witness)

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")


def _unit(x):
    # the 1-norm copy of a witness, read-only
    return None if x is None else structure._frozen(x / np.add.reduce(x))


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
    # the verdict from the validated copy as it is: is_irreducible would validate again
    if not structure._normal_form(m).irreducible:
        raise ValueError("matrix is reducible; use perron_root")
    return _certify_irreducible(m[None], tol, max_iter)[0]


def _certify_irreducible(ms, tol, max_iter) -> list[PerronCertificate]:
    # perron_irreducible minus its checks, for each matrix of an (m, n, n)
    # stack: validated irreducible matrices (normal-form blocks, say)
    # and validated parameters
    m, n = ms.shape[0], ms.shape[1]
    if n == 1:
        one = structure._frozen(np.ones(1))
        return [
            PerronCertificate(
                lo=val, hi=val, right_witness=one, left_witness=one,
                iterations=0, converged=True,
            )
            for val in ms[:, 0, 0].tolist()
        ]
    # pass j < m is on ms[j], pass m + j on its transpose
    passes = collatz_wielandt_stack(ms, tol, max_iter)
    out = []
    for r, t in zip(passes, passes[m:]):
        # rho(A) = rho(A^T): both intervals hold it
        lo, hi = max(r[0], t[0]), min(r[1], t[1])
        out.append(PerronCertificate(
            lo=lo, hi=hi, right_witness=r[2], left_witness=t[2],
            iterations=r[3] + t[3], converged=hi - lo <= tol))
    return out


# perfbench/tracing.py times the kernel through this name; the library does not call it
def collatz_wielandt(b, tol, max_iter):
    return collatz_wielandt_stack(b[None], tol, max_iter)[0]


def _certify_blocks(mats, tol, max_iter) -> list[PerronCertificate]:
    """Certificates of irreducible matrices and of each matrix of (m, n, n)
    stacks of them, in order, one ``_certify_irreducible`` call per size;
    a size with one matrix or one stack is certified from it, not a copy."""
    stacks = [a if a.ndim == 3 else a[None] for a in mats]
    sizes = {}
    for a in stacks:
        sizes.setdefault(a.shape[1], []).append(a)
    certs = {n: iter(_certify_irreducible(
        group[0] if len(group) == 1 else np.concatenate(group), tol, max_iter))
        for n, group in sizes.items()}
    return [next(certs[a.shape[1]]) for a in stacks for _ in range(len(a))]


def _combine(certs, tol) -> PerronCertificate:
    # certificates of the diagonal blocks: the radius is the largest block
    # radius, so [max lo, max hi] holds it; the block certificates are kept,
    # the matrix carries no vector, and converged means hi - lo <= tol, as
    # for an irreducible matrix
    lo, hi = max(0.0, *(c.lo for c in certs)), max(0.0, *(c.hi for c in certs))
    return PerronCertificate(
        lo=lo, hi=hi, right_witness=None, left_witness=None,
        iterations=sum(c.iterations for c in certs), converged=hi - lo <= tol,
        blocks=tuple(certs),
    )


def spectral_block(a, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> int:
    """Index of a normal-form diagonal block whose certified Perron
    interval has the greatest midpoint.  Ties go to the lowest index.
    """
    return perron_root(structure.frobenius_normal_form(a), tol, max_iter).spectral_block


def _perron_roots(items, tol, max_iter) -> list[PerronCertificate]:
    """``perron_root`` of each matrix given, its irreducible blocks all
    certified together, one stacked call per size.  An item is a normal
    form, or an (m, n, n) stack of validated matrices, handed over and made
    read-only, one certificate each: a positive or 1x1 stack is certified
    whole, any other through the normal form of each of its slices."""
    tol, max_iter = _validate_iteration_params(tol, max_iter)
    forms = []  # normal forms, and stacks certified whole
    for f in items:
        whole = not isinstance(f, np.ndarray) or (
            _min(structure._frozen(f), axis=None) > 0.0 or f.shape[1] == 1)
        forms += [f] if whole else [structure._normal_form(t) for t in f]
    certs = iter(_certify_blocks([b for f in forms for b in (
        (f,) if isinstance(f, np.ndarray) else f.block_matrices)], tol, max_iter))
    out = []
    for f in forms:  # an irreducible matrix is its own single block
        stack = isinstance(f, np.ndarray)
        got = [next(certs) for _ in range(len(f if stack else f.block_matrices))]
        out += got if stack or f.irreducible else [_combine(got, tol)]
    return out


def perron_root(a, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> PerronCertificate:
    """Certify the Perron root of any nonnegative matrix.

    Splits into irreducible diagonal blocks and combines the block
    intervals; the spectral radius is the maximum of the block radii, so
    [max of lows, max of highs] encloses it.  A positive or 1x1 matrix
    is irreducible on sight and goes to the kernel whole, with no normal
    form built.  Perron vectors are carried only when the whole matrix
    is irreducible (reducible matrices need not have a strictly positive
    eigenvector); a reducible matrix's certificate carries its blocks'
    certificates instead, ``blocks[spectral_block]`` with the vectors of
    the spectral block.  ``a`` may also be the matrix's
    :class:`~perron.structure.FrobeniusNormalForm`, which is then not
    recomputed.
    """
    if not isinstance(a, structure.FrobeniusNormalForm):
        m = matcore.nonneg_matrix(a)
        # nonneg_matrix's minimum once more (2 us at n = 4, 0.3 ms at 800);
        # a positive matrix skips _perron_roots' sorting, about 20 us a call
        if m.shape[0] == 1 or _min(m, axis=None) > 0.0:
            return _certify_irreducible(m[None], *_validate_iteration_params(tol, max_iter))[0]
        a = structure._normal_form(m)
    return _perron_roots([a], tol, max_iter)[0]


def q_star(cert: PerronCertificate) -> float:
    """Smallest entry of the certificate's left Perron vector."""
    if cert.left_vector is None:
        raise ValueError("certificate carries no left Perron vector")
    qs = float(cert.left_vector.min())
    if qs <= 0.0:
        raise ValueError(f"left Perron vector is not strictly positive (min {qs})")
    return qs


def residual(a, cert: PerronCertificate) -> float | None:
    """||A v - mid v||_1 for the matrix ``a`` that ``cert`` certifies and
    its right vector v; None when the certificate carries no vector or
    the value is not finite (A v may overflow, and hi be infinite)."""
    v = cert.right_vector
    if v is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        image = np.matmul(np.asarray(a, dtype=np.float64)[None], v[None, :, None])[0, :, 0]
        r = float(np.add.reduce(np.abs(image - cert.mid * v)))
    return r if r < math.inf else None


def _base_q_star(cert: PerronCertificate, max_iter: int) -> float:
    """``q_star`` of a continuity bound's base certificate, which must have
    converged: where it did not within ``max_iter``, raises ValueError."""
    if not cert.converged:
        raise ValueError(
            f"base certificate did not converge within max_iter={max_iter}, "
            "so q_star is not reliable; raise max_iter or tol"
        )
    return q_star(cert)


def _pow_rounded(x, p: int, toward: float):
    """x^p for x >= 0, a float or an array, by p - 1 products each rounded
    one ulp toward ``toward`` (-inf or inf): a bound on the exact x^p."""
    r = x
    with np.errstate(over="ignore"):  # inf steps down to the largest float
        for _ in range(p - 1):
            r = np.nextafter(r * x, toward)
    return r


def power_radius_identity_check(
    a, p: int, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Certified intervals for rho(A)^p and for rho(A^p).

    The two real quantities coincide, so the returned intervals must
    intersect.  Both are padded outward for the floating-point rounding
    they carry: the first for the explicit interval power, the second for
    the rounding of the entries of A^p (relative, a few ulps).  A^p is
    formed as A^(j+1) = A^j A.  Raises ValueError where one of these
    products overflows, or underflows: has an entry below 2^-1022, the
    least normal float, that its pattern makes positive (a subnormal
    entry, or one that went to 0), since rounding there has no relative
    bound.  The pad of (p-1)(n+2) ulps, (2n+4)u a product, covers the
    rest: a product's entry is within gamma_n = nu + O(u^2) of the exact
    product of its rounded factors, and within n 2^-1075 more, n u of
    2^-1022, for the terms that underflowed in an entry it leaves at
    least 2^-1022 (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3; nonnegative sums cannot cancel).
    """
    m = matcore.nonneg_matrix(a)
    p = int(p)
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    tol, max_iter = _validate_iteration_params(tol, max_iter)
    mp = m
    for _ in range(p - 1):
        with np.errstate(over="ignore"):
            product = mp @ m
        if not np.isfinite(product).all():
            raise ValueError(f"overflow computing matrix power {p}")
        if ((product < 2.0**-1022) & (np.sign(mp) @ np.sign(m) > 0.0)).any():
            raise ValueError(f"underflow computing matrix power {p}")
        mp = product
    # A and A^p in one stacked call, each certified as perron_root would;
    # at p = 1, A once, the certificate of both
    certs = _perron_roots([m[None]] if p == 1 else [m[None], mp[None]], tol, max_iter)
    base, cert = certs[0], certs[-1]
    # [lo, hi]^p rounded outward, the low end clamped at 0
    powered_interval = (max(float(_pow_rounded(base.lo, p, -math.inf)), 0.0),
                        float(_pow_rounded(base.hi, p, math.inf)))
    # entries of the floating A^p differ from the real ones by a relative
    # error below (p-1)*(n+2) ulps, as above
    pad = (p - 1) * (m.shape[0] + 2) * float(np.finfo(np.float64).eps)
    power_cert = (cert.lo * (1.0 - pad), cert.hi * (1.0 + pad))
    return powered_interval, power_cert
