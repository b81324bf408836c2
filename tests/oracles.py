"""Independent reference computations for checking certified results.

Nothing here calls the package's solver; these are separate code paths
(dense eigenvalues, determinant bisection, closed-form characteristic
roots, exact rational M-matrix tests, boolean reachability) so that
agreement with the library is evidence and not circularity.
"""

import math
from fractions import Fraction

import numpy as np


def eig_radius(a) -> float:
    """Spectral radius via dense eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(a, dtype=np.float64)))))


def cw_midpoint(a, max_iter=10**6, stop=1e-13) -> float:
    """Midpoint of the ratio bounds after a long shifted power iteration.

    Reliable as a radius oracle when the iteration converges, which it
    does whenever the matrix has all entries positive.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    x = np.full(n, 1.0 / n)
    lo, hi = 0.0, math.inf
    for _ in range(max_iter):
        y = a @ x + x
        r = y / x
        lo = float(r.min()) - 1.0
        hi = float(r.max()) - 1.0
        if hi - lo <= stop:
            break
        x = y / y.sum()
    return 0.5 * (lo + hi)


def rational_power(a, p: int):
    """a^p, exact for the stored floats, as rows of Fractions."""
    x = [[Fraction(v) for v in row] for row in np.asarray(a, dtype=np.float64).tolist()]
    n, power = len(x), x
    for _ in range(p - 1):
        power = [[sum(power[i][k] * x[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return power


def _leading_minors_positive(t, x) -> bool:
    """Whether every leading principal minor of t*I - x is positive, in
    exact rational arithmetic, x rows of Fractions."""
    n = len(x)
    m = [[Fraction(t) * (i == j) - x[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):  # Gaussian elimination: the k-th pivot is minor_k / minor_k-1
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return True


def encloses_radius(a, lo: float, hi: float, p: int = 1) -> bool:
    """Whether [lo, hi] holds the spectral radius of the stored floats,
    or of their exact p-th power.

    For nonnegative a and t >= 0, t*I - a is a nonsingular M-matrix
    exactly when t > rho(a), and a Z-matrix is one exactly when all its
    leading principal minors are positive.  So lo <= rho iff those minors
    are not all positive at lo, and hi >= rho iff they are all positive
    just above hi: at hi + 2^-200 hi + 2^-1200, which is past a rational
    radius equal to hi and far short of the next float.  Exact, so it
    sees a bound that is one ulp off.
    """
    x = rational_power(a, p)
    if _leading_minors_positive(lo, x):
        return False  # lo > rho
    if hi == math.inf:
        return True
    above = Fraction(hi) * (1 + Fraction(1, 2**200)) + Fraction(1, 2**1200)
    return _leading_minors_positive(above, x)


def _ints(v) -> list[int]:
    """Each float of v, finite and nonnegative, as the integer N with
    float = N 2^-1074: its denominator is a power of two, at most 2^1074."""
    out = []
    for f in v:
        p, q = f.as_integer_ratio()
        out.append(p << (1075 - q.bit_length()))
    return out


def cw_exact(a, x) -> tuple[Fraction, Fraction]:
    """The least and the greatest Collatz-Wielandt ratio (a x)_i / x_i of
    the stored floats, exactly, for nonnegative a and positive x.

    With every float an integer times 2^-1074, the ratio is
    sum_j A_ij X_j / (X_i 2^1074) for the integers A of a and X of x: a
    quotient of Python integers, with no rounding anywhere.  For any
    x > 0 the spectral radius of a lies between the two.
    """
    xs = _ints(np.asarray(x, dtype=np.float64).tolist())
    ratios = [Fraction(sum(ai * xj for ai, xj in zip(_ints(row), xs)), xi << 1074)
              for row, xi in zip(np.asarray(a, dtype=np.float64).tolist(), xs)]
    return min(ratios), max(ratios)


def _charpoly_at(a: np.ndarray, x: float) -> float:
    return float(np.linalg.det(x * np.eye(a.shape[0]) - a))


def det_bisect_root(a, grid: int = 4096) -> float:
    """Largest sign change of det(xI - a) on [0, max column sum].

    The radius of a nonnegative matrix is its largest real eigenvalue,
    and the characteristic polynomial is strictly positive beyond it, so
    the topmost sign change brackets the radius.  A top root of even
    multiplicity has no bracket; generic (randomly drawn) matrices avoid
    that case.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    top = float(np.abs(a).sum(axis=0).max()) * (1.0 + 1e-9) + 1e-30
    xs = np.linspace(0.0, top, grid + 1)
    dets = np.linalg.det(xs[:, None, None] * np.eye(n) - a)
    change = np.nonzero((dets[1:] > 0.0) & (dets[:-1] <= 0.0))[0]
    if change.size == 0:
        # no sign change anywhere: the only nonnegative root is 0
        return 0.0
    i = int(change[-1])
    lo, hi = float(xs[i]), float(xs[i + 1])
    for _ in range(80):
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if _charpoly_at(a, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def closed_form_root(a) -> float:
    """Largest real root of the characteristic polynomial, n <= 3.

    Quadratic formula for n = 2 (the discriminant of a nonnegative
    matrix is never negative), trigonometric/Cardano formulas for n = 3.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = tr * tr - 4.0 * det  # equals (a00-a11)^2 + 4 a01 a10 >= 0
        return 0.5 * (tr + math.sqrt(max(disc, 0.0)))
    if n != 3:
        raise ValueError(f"closed forms cover n <= 3, got n = {n}")
    # x^3 + B x^2 + C x + D
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    m2 = (
        a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    )
    b, c, d = -tr, m2, -float(np.linalg.det(a))
    # depressed cubic t^3 + p t + q with x = t - b/3
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        return _cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s) + shift
    if p == 0.0:  # disc <= 0 and p = 0 forces q = 0: triple root
        return shift
    m = 2.0 * math.sqrt(-p / 3.0)
    cos_phi = 3.0 * q / (p * m)
    phi = math.acos(min(1.0, max(-1.0, cos_phi)))
    roots = [m * math.cos((phi - 2.0 * math.pi * k) / 3.0) + shift for k in range(3)]
    return max(roots)


def strongly_connected_bool(a) -> bool:
    """Strong connectivity via boolean reachability closure."""
    adj = np.asarray(a) > 0
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(max(1, math.ceil(math.log2(n)) + 1) if n > 1 else 1):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def nilpotency_oracle(a):
    """Smallest p <= n with a^p exactly zero, or None.

    Boolean powers of the positivity pattern: products of nonnegative
    entries cannot cancel, so an entry of the real a^p is nonzero iff
    the same entry of the pattern's p-th power is.  Floating powers do
    not qualify: a tiny positive entry of a^p underflows to zero.
    """
    pattern = np.asarray(a, dtype=np.float64) > 0.0
    n = pattern.shape[0]
    power = pattern.copy()
    for p in range(1, n + 1):
        if not power.any():
            return p
        power = power @ pattern
    return None


def power_norms(a, m_max: int) -> list[Fraction]:
    """||a^m||_1 for m = 1..m_max, exact for the stored floats: powers
    of the rational matrix, then the largest column sum of each."""
    x = [[Fraction(v) for v in row] for row in np.asarray(a, dtype=np.float64).tolist()]
    n = len(x)
    power, norms = x, []
    for m in range(1, m_max + 1):
        if m > 1:
            power = [[sum(power[i][k] * x[k][j] for k in range(n)) for j in range(n)]
                     for i in range(n)]
        norms.append(max(sum(power[i][j] for i in range(n)) for j in range(n)))
    return norms
