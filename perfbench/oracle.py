"""Radius oracle that shares no code with perron's solver.

* n <= 8: the radius of the stored floats to 50 digits.  numpy's Perron
  pair seeds a Newton iteration on (A - lam I) v = 0, sum(v) = 1 in
  mpmath at 60 digits; a strictly positive eigenvector proves that lam is
  the spectral radius (Perron-Frobenius), and the Collatz-Wielandt ratios
  of that vector bracket it.  Should Newton fail, mpmath's dense
  eigensolver is the fallback.  The check is strict containment.
* n >= 16: ``numpy.linalg.eigvals``, checked with relative slack 1e-9.
* Closed forms where eigensolvers cannot work: 0 for nilpotent-by-
  construction matrices, the geometric mean of the weights for weighted
  cycles, and the largest planted block radius for block triangular ones.

Radii are cached per workload and seed under a hash of the matrix bytes,
so a stale cache entry can never be used for a different matrix.
"""

import hashlib
import json
import os

import mpmath
import numpy as np

SMALL_N = 8
EIG_RTOL = 1e-9
_DPS = 60


class Radius:
    """A reference radius as an mpmath number, with a relative slack."""

    __slots__ = ("value", "rtol")

    def __init__(self, value, rtol=0.0):
        with mpmath.workdps(_DPS):
            self.value = mpmath.mpf(value)
        self.rtol = rtol

    def contained_in(self, lo: float, hi: float) -> bool:
        with mpmath.workdps(_DPS):
            lo_ok = mpmath.mpf(lo) <= self.value * (1 + self.rtol)
            hi_ok = mpmath.mpf(hi) >= self.value * (1 - self.rtol)
        return bool(lo_ok and hi_ok)

    def to_json(self):
        return [mpmath.nstr(self.value, 55, strip_zeros=False), self.rtol]

    @classmethod
    def from_json(cls, item):
        return cls(item[0], item[1])


def _newton_perron(a: np.ndarray):
    """50-digit Perron root via Newton from numpy's pair, or None."""
    n = a.shape[0]
    # an exact power-of-two scaling keeps the float start inside range
    amax = float(a.max())
    if amax == 0.0:
        return None
    e = int(np.frexp(amax)[1])
    w, vecs = np.linalg.eig(np.ldexp(a, -e))
    i = int(np.argmax(w.real))
    v = np.abs(vecs[:, i].real)
    if not np.isfinite(v).all() or v.sum() == 0.0:
        return None
    v = v / v.sum()
    with mpmath.workdps(_DPS):
        A = mpmath.matrix(a.tolist())
        lam = mpmath.ldexp(mpmath.mpf(float(w[i].real)), e)
        x = mpmath.matrix(v.tolist())
        eps = mpmath.mpf(10) ** (5 - _DPS)
        for _ in range(60):
            jac = mpmath.matrix(n + 1, n + 1)
            res = mpmath.matrix(n + 1, 1)
            ax = A * x
            for r in range(n):
                for c in range(n):
                    jac[r, c] = A[r, c]
                jac[r, r] -= lam
                jac[r, n] = -x[r]
                jac[n, r] = 1
                res[r] = ax[r] - lam * x[r]
            res[n] = sum(x) - 1
            try:
                step = mpmath.lu_solve(jac, -res)
            except ZeroDivisionError:
                return None
            for r in range(n):
                x[r] += step[r]
            lam += step[n]
            if abs(step[n]) <= eps * abs(lam):
                break
        else:
            return None
        if any(xi <= 0 for xi in x):
            return None
        ax = A * x
        ratios = [ax[r] / x[r] for r in range(n)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo > mpmath.mpf(10) ** -50 * hi:
            return None
        return (lo + hi) / 2


def small_radius(a: np.ndarray) -> Radius:
    """Radius of a nonnegative n <= 8 matrix to 50 digits."""
    if a.shape[0] == 1:
        return Radius(float(a[0, 0]))
    rho = _newton_perron(a)
    if rho is None:
        with mpmath.workdps(_DPS):
            ev = mpmath.eig(mpmath.matrix(a.tolist()), left=False, right=False)
            rho = max(abs(z) for z in ev)
    return Radius(rho)


def cycle_radius(a: np.ndarray) -> Radius:
    """A weighted cycle: lambda^n = product of weights, exactly."""
    n = a.shape[0]
    weights = a[a > 0.0]
    if weights.size != n:
        raise ValueError("not a weighted cycle")
    with mpmath.workdps(_DPS):
        prod = mpmath.fprod(mpmath.mpf(float(w)) for w in weights)
        return Radius(mpmath.root(prod, n))


def eig_radius(a: np.ndarray) -> Radius:
    return Radius(float(np.max(np.abs(np.linalg.eigvals(a)))), EIG_RTOL)


def radius(a: np.ndarray, kind: str = "auto", blocks=None) -> Radius:
    """Reference radius of ``a`` by the method ``kind`` names."""
    if kind == "zero":
        return Radius(0)
    if kind == "cycle":
        return cycle_radius(a)
    if blocks is not None:
        # block triangular by construction: the largest block radius
        radii = [radius(a[np.ix_(b, b)]) for b in blocks]
        return max(radii, key=lambda r: r.value)
    if a.shape[0] <= SMALL_N:
        return small_radius(a)
    return eig_radius(a)


class Cache:
    """Radii of one (workload, seed), keyed by a hash of the matrix."""

    def __init__(self, path):
        self.path = path
        self.entries = {}
        self.dirty = False
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.entries = json.load(fh)

    def radius(self, a: np.ndarray, kind: str = "auto", blocks=None) -> Radius:
        h = hashlib.sha1(np.ascontiguousarray(a).tobytes())
        h.update(repr((a.shape, kind, blocks)).encode())
        key = h.hexdigest()
        if key not in self.entries:
            self.entries[key] = radius(a, kind, blocks).to_json()
            self.dirty = True
        return Radius.from_json(self.entries[key])

    def save(self):
        if not self.dirty:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh)
        os.replace(tmp, self.path)
