"""The solver's kernel: propose a Perron vector, then certify it.

Each nonnegative irreducible matrix b, n >= 2, gets two passes, one on b
and one on its transpose.  ``collatz_wielandt_stack(bs, tol, max_iter)``
takes the first step of both passes of every matrix of a same-size
stack, in one fixed set of numpy calls; it finishes each pass that stops
at its proposal and hands each other one on as a ``Resume``, which
``collatz_wielandt(b, tol, max_iter, start)`` iterates to the end.  A
pass's result is ``(lo, hi, x, iterations, converged)``.  For every
x > 0 the Collatz-Wielandt ratios (bx)_i / x_i have the spectral radius
between their minimum and their maximum; lo and hi are those extremes
widened outward for every rounding error their float computation can
carry, so they hold the radius of the stored floats whatever method
proposed x.

1. Prescaling: a pass whose largest row sum lies outside [2^-400, 2^400]
   runs on b scaled by an exact power of two, which keeps the products
   clear of overflow and underflow; the bounds are scaled back outward.
   The matrix and its transpose get an exponent each.
2. Proposal (the first step): from the all-ones vector, then a proposed
   vector, tried as one iteration.  For n <= 8 that is the eigenvector
   LAPACK's dgeev gives for the eigenvalue of largest real part
   (``np.linalg.eig``; Anderson et al., LAPACK Users' Guide, 1999),
   sign flipped, from one eig call on all 2m prescaled matrices.  For
   8 < n <= 64 it is the row or column sums of one power b^(2^j) built
   by repeated squaring (``_power_vectors``), for both passes; above 64
   there is none.  Above 8 the passes on the transposes use x^T b, with
   no transposed copy.  A proposal is kept only when it is positive, its
   ratios spread less than the ones vector's, and its underflow slack
   stays under half of ``tol``; it usually lands at the floor of
   floating point at once.  A pass that stops at its kept proposal is
   certified as in 4. and finished at two iterations; every other pass
   is handed on as a ``Resume``, from the kept proposal or, where that
   was rejected or there is none, from the ones vector.  A matrix gets
   the same certificate stacked or alone.
3. Iteration: power sweeps x <- bx run while they contract well.  Once
   the sweeps still needed, extrapolated from the contraction seen over
   the last two, exceed what the Noda phase costs (about four steps,
   each a solve and a sweep), or a sweep stalls or underflows (a cycle,
   a tiny spectral gap), the kernel switches to Noda steps
   x <- (hi I - b)^-1 x, with hi the current upper bound (Noda, Numer.
   Math. 16, 1971; Elsner, LAA 15, 1976).  They converge superlinearly
   whatever the spectral gap, and need no shift for periodic patterns.
4. Certification (``_certify``): a ratio over a row with k nonzeros
   carries k + 1 roundings, so the exact ratio is within a relative
   gamma_{k+1} = (k+1)u / (1 - (k+1)u) of it, or slightly more (Higham,
   Accuracy and Stability of Numerical Algorithms, ch. 3; sums of
   nonnegative terms cannot cancel), plus an absolute term for results
   that underflow.  k is taken as n until that bound would use most of
   ``tol``, then counted, row by row only where some entry is zero.
   Where it still exceeds ``tol`` once the ratios agree to rounding, the
   final vector is certified once more in np.longdouble, in row blocks;
   where longdouble is float64 that gains nothing but stays sound.

A pass stops when the certified width, underflow slack aside (it does
not shrink with iteration), meets ``tol``, at ``max_iter``, or at the
floor of floating point: the ratio spread is down to what rounding alone
makes, or three Noda steps in a row shrink it by less than an eighth.
"""

import math
from typing import NamedTuple

import numpy as np

__all__ = ["Resume", "collatz_wielandt", "collatz_wielandt_stack"]

_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1074  # twice the absolute error of an underflowing operation
_LOW, _HIGH = 2.0**-400, 2.0**400  # row sums left unscaled
_LD_BLOCK = 1 << 16  # entries per row block of the longdouble pass
_STALLS = 3  # Noda steps in a row that shrink the spread by under 1/8
_SETTLED = 8 * _U  # _power_vectors' row sums have settled: 4 ulps of 1

# Host-timed cost model: numpy 2.4, one BLAS thread, a 2-core x86_64
# host.  Other hosts move where each method pays off, never a bound.
# Largest n that gets an eig proposal: np.linalg.eig costs 25 us at
# n = 2 and 50 us at n = 8, about one or two sweeps' overhead, but
# 135 us at n = 16, a whole kernel call there, and 1.4 ms at n = 48
_EIG_N = 8
# Largest n whose two passes start from _power_vectors.  Both passes of
# a dense matrix take 150 us at n = 16 and 48 and 230-290 us at n = 64
# to 100; the four squarings it needs cost 30, 75, 110-170 and 250 us,
# after which each pass stops at its second vector.  That wins at
# n = 16, breaks even at n = 48 to 64 and loses at n = 80 (350 against
# 230 us); patterns that need more sweeps (a ring, n = 48: 190 against
# 500 us) gain more
_SQUARE_N = 64
# the Noda phase costs _NODA_STEPS steps, each a solve and a sweep; a
# solve costs about n^2 / _SOLVE_N2 sweeps up to n = 300 and n / _SOLVE_N
# beyond (an n^3 / 3 factorization against an n^2 product), and one
# sweep at n <= 16
_NODA_STEPS = 4
_SOLVE_N2 = 1200
_SOLVE_N = 4
# the ufunc reductions skip ndarray.min/max's Python-level wrapper, which
# costs as much as the rest of a sweep at small n
_min, _max = np.minimum.reduce, np.maximum.reduce


def _gamma(k, u):
    """Relative bound g for a ratio over a row with k nonzeros.

    The computed ratio is within a factor 1 +- gamma_{k+1} of the exact
    one, so the exact one is within r / (1 -+ gamma_{k+1}), and
    1 / (1 - gamma_m) = 1 + mu / (1 - 2mu).  The extra 4u covers the
    roundings of ``_widen``'s scalar arithmetic, done in the type of u;
    1 - 2mu is exact there.
    """
    return (k + 1) * u / (1 - 2 * (k + 1) * u) + 4 * u


def _widen(rmin, rmax, g, slack):
    """Bounds on the exact ratios from the computed extremes: each exact
    ratio is within a relative g and an absolute ``slack`` of its
    computed value.  lo is clamped at 0, the radius being nonnegative."""
    lo = rmin - (rmin * g + slack)
    return max(lo, 0.0), rmax + rmax * g + slack


def _longdouble_bounds(b, x, k, slack):
    """Widened ratio extremes of x, computed in np.longdouble row blocks."""
    xl = x.astype(np.longdouble)
    rows = max(1, _LD_BLOCK // b.shape[1])
    rmin, rmax = np.longdouble(np.inf), np.longdouble(0)
    for s in range(0, b.shape[0], rows):
        r = np.einsum("ij,j->i", b[s:s + rows].astype(np.longdouble), xl)
        r /= xl[s:s + rows]
        rmin, rmax = min(rmin, r.min()), max(rmax, r.max())
    # np.finfo is looked up here, not at import: it costs a millisecond
    g = _gamma(k, np.finfo(np.longdouble).eps / 2)
    lo, hi = _widen(rmin, rmax, g, np.longdouble(slack))
    flo, fhi = float(lo), float(hi)  # rounded to nearest, so step outward
    return (math.nextafter(flo, 0.0) if flo > lo else flo,
            math.nextafter(fhi, math.inf) if fhi < hi else fhi)


def _eig_vectors(bs):
    """LAPACK's Perron vector of each matrix of a stack, sign flipped and
    scaled to max 1; a row of NaN where eig fails."""
    try:
        w, v = np.linalg.eig(bs)
    except np.linalg.LinAlgError:
        if len(bs) == 1:
            return np.full(bs.shape[:2], math.nan)
        # one failure fails the whole call: retry one by one, so that each
        # matrix gets what it gets alone
        return np.concatenate([_eig_vectors(b[None]) for b in bs])
    rows = np.arange(len(bs))
    y = v[rows, :, np.argmax(w.real, axis=1)].real
    return y / y[rows, np.argmax(np.abs(y), axis=1)][:, None]


@np.errstate(divide="ignore", invalid="ignore")  # a max row sum underflowed to 0
def _power_vectors(bs):
    """Right and left Perron vectors of each irreducible matrix of a stack
    from one power of it: a (2m, n) array, row j the right vector of
    bs[j], row m + j its left vector.

    For primitive b, (b / rho)^k tends to the rank-one x y^T / (y^T x)
    (Meyer, Matrix Analysis and Applied Linear Algebra, SIAM 2000, 8.3), so
    the row sums of a high power give the right vector x and its column
    sums the left vector y.  The power b^(2^j) is built by squaring until
    its row sums, compared at max 1, change by at most a few ulps, or
    would at the next square.  A square costs its product and one batched
    matrix-vector product for the row sums: the power is not
    renormalized, but scaled by an exact power of two, to max row sum
    near 1, only where its largest row sum leaves [_LOW, _HIGH] (b itself
    too).  Every power squared then has max row sum at most _HIGH, so no
    square overflows.  The squaring gives up, keeping what it has, once
    two squares in a row fail to halve the last change that did halve
    (an imprimitive or periodic pattern, a small spectral gap, rounding),
    or a square's max row sum is not positive (underflow).  Each matrix
    stops by these rules on its own; the squares of those still going are
    taken together.  Either vector may have zero entries; the first step
    keeps it only when it helps.  Rows are NaN where not one square
    succeeds.
    """
    m, n = bs.shape[0], bs.shape[1]
    ones = np.ones(n)
    p = bs
    r = p @ ones
    e = [_exponent(s, p[j]) for j, s in enumerate(_max(r, axis=1).tolist())]
    if any(e):
        p = np.ldexp(bs, -np.array(e)[:, None, None])
        r = p @ ones
    right = r / _max(r, axis=1)[:, None]
    best, change, misses = [math.inf] * m, [math.inf] * m, [0] * m
    live = list(range(m))
    # each reset of misses halves best, which stays above _SETTLED, so
    # the loop ends
    while live:
        every = len(live) == m
        q = p if every else p[live]
        q = q @ q
        r = q @ ones
        s = _max(r, axis=1)
        r /= s[:, None]
        c = _max(np.abs(r - (right if every else right[live])), axis=1)
        # the numpy calls above serve the whole stack, the rules below
        # are each matrix's own, in scalars
        kept, going = [], []
        for i, (j, sj, cj) in enumerate(zip(live, s.tolist(), c.tolist())):
            if not 0.0 < sj < math.inf:  # stop with the power it has
                continue
            kept.append(i)
            change[j] = cj
            if not _LOW <= sj <= _HIGH:
                np.ldexp(q[i], -_exponent(sj, q[i]), out=q[i])
            if cj > 0.5 * best[j]:
                misses[j] += 1
                if misses[j] < 2:
                    going.append(j)
            # once they halve, the changes shrink quadratically: the next
            # one would be about cj * (cj / best)^2
            elif not (cj <= _SETTLED or (
                    best[j] < math.inf and cj**3 <= _SETTLED * best[j]**2)):
                best[j], misses[j] = cj, 0
                going.append(j)
        if len(kept) == m:
            p, right = q, r
        elif kept:
            if p is bs:  # the caller's stack is not written to
                p = bs.copy()
            p[[live[i] for i in kept]] = q[kept]
            right[[live[i] for i in kept]] = r[kept]
        live = going
    y = np.concatenate((right, ones @ p))
    # not one square: nothing beyond b's row sums
    none = [j for j in range(m) if change[j] == math.inf]
    if none:
        y[none + [m + j for j in none]] = math.nan
    return y


def _slack(n, x_min):
    """Absolute slack per ratio of an n-vector x with max 1 and min
    x_min > 0: k + 1 roundings in the product and the ratio that may
    underflow, and up to n entries that prescaling pushed below the
    normal range, each off by at most _TINY / 2 relative to x_i >= x_min.
    """
    return (n + 2) * _TINY / x_min


def _certify(b, x, rmin, rmax, g, k, tol_s, slack, e):
    """Outward bounds on the radius of b 2^e from x's computed ratio
    extremes on b and its ``_slack``."""
    lo, hi = _widen(rmin, rmax, g, slack)
    if hi - lo > tol_s and rmax - rmin <= 2.0 * g * rmax:
        # at the floor of float64: certify x once more in longdouble
        l_lo, l_hi = _longdouble_bounds(b, x, k or b.shape[0], slack)
        lo, hi = max(lo, l_lo), min(hi, l_hi)
    if e:
        lo, hi = _unscale(lo, e, 0.0), _unscale(hi, e, math.inf)
    return lo, hi


def _exponent(rsum, b):
    """e scaling b's largest row sum rsum into [_LOW, _HIGH], to near 1,
    as b 2^-e, where it lies outside; 0 where it lies inside or is not
    positive.  An infinite rsum is bounded by b's largest entry times n."""
    if _LOW <= rsum <= _HIGH or not rsum > 0.0:
        return 0
    return math.frexp(rsum)[1] if math.isfinite(rsum) else (
        math.frexp(float(_max(b, axis=None)))[1] + b.shape[0].bit_length())


def _unscale(v, e, toward):
    """v * 2^e, rounded toward ``toward`` where that is not exact."""
    try:
        w = math.ldexp(v, e)
    except OverflowError:
        return math.inf if toward > v else np.finfo(np.float64).max
    return w if math.ldexp(w, -e) == v else math.nextafter(w, toward)


def _scaled_tol(tol, e):
    """tol 2^-e, the width a pass prescaled by 2^-e aims at."""
    try:
        return math.ldexp(tol, -e)
    except OverflowError:
        return math.inf


def _nonzeros(b, axis=-1):
    """The most nonzeros along ``axis`` of each matrix of a stack b, in a
    row by default, as a list: n where b is positive, else counted (that
    count costs ten times the positivity test)."""
    if _min(b, axis=None) > 0.0:
        return [b.shape[axis]] * len(b)
    return _max(np.count_nonzero(b, axis=axis), axis=-1).tolist()


def _stops(raw, rmax, g, k, tol_s, count):
    """The stopping test of a pass: (stop, g, k).  The pass stops where
    its certified width, underflow slack aside, meets tol_s, or its ratio
    spread raw is down to what rounding alone makes, 2 g rmax.  g bounds
    a ratio over rows of k nonzeros; k is None, n standing in for it,
    until rounding would take most of tol_s or the spread is down to it,
    and is then count()."""
    floor = 2.0 * g * rmax
    if k is None and (floor > 0.75 * tol_s or raw <= floor):
        k = count()
        g = _gamma(k, _U)
        floor = 2.0 * g * rmax
    return raw + floor <= tol_s or raw <= floor, g, k


class Resume(NamedTuple):
    """Where ``collatz_wielandt_stack`` leaves a pass it hands on: its
    vector x (max 1), b x and the extremes of the ratios (b x) / x, all
    for b prescaled by 2^-e, and the number of vectors tried.  x is the
    kept proposal, at two iterations, or the ones vector, at one."""

    x: np.ndarray
    bx: np.ndarray
    rmin: float
    rmax: float
    iterations: int
    e: int


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def collatz_wielandt(b, tol, max_iter, start):
    """Certified Collatz-Wielandt interval of nonnegative irreducible b,
    from the ``Resume`` state ``start`` that ``collatz_wielandt_stack``
    handed on for the pass on b; b is given unscaled, and the pass runs
    on b 2^-e, e the state's exponent.

    Returns (lo, hi, x, iterations, converged): the certified interval,
    the final iterate (1-norm one), the number of vectors tried (the
    ones vector, a kept proposal, sweeps and Noda steps), and whether
    hi - lo <= tol.  Overflow, zero division and the NaN it makes are
    detected and handled, not warned about.
    """
    x, z, rmin, rmax, it, e = start
    if e:
        b = np.ldexp(b, -e)
    tol_s = _scaled_tol(tol, e)
    n = b.shape[0]
    # sweeps the Noda phase costs
    noda_cost = _NODA_STEPS * (2.0 + min(n * n / _SOLVE_N2, n / _SOLVE_N))

    k, g = None, _gamma(n, _U)

    def count():
        return _nonzeros(b[None])[0]

    raws = []
    noda = False
    stalls = 0
    while True:
        raw = rmax - rmin
        stop, g, k = _stops(raw, rmax, g, k, tol_s, count)
        if stop or it >= max_iter:
            break
        if noda:
            stalls = stalls + 1 if raw > 0.875 * raws[-1] else 0
            if stalls >= _STALLS:
                break
        elif len(raws) >= 2 and raws[-2] > 0.0:
            # switch once the sweeps still needed, at the contraction seen
            # over the last two, exceed the cost of the Noda phase
            q = math.sqrt(raw / raws[-2])
            target = max(0.5 * tol_s, 2.0 * g * rmax)
            noda = q >= 1.0 or math.log(target / raw) < noda_cost * math.log(q)
        raws.append(raw)
        it += 1
        if noda:
            # the step in the basis where x is all ones: D^-1 b D with
            # D = diag(x) has row sums r_i <= rmax, so hi I - D^-1 b D is
            # diagonally dominant, and the solve keeps every component of
            # a vector spanning hundreds of orders of magnitude
            m = b * x
            m /= -x[:, None]
            m.flat[::n + 1] += rmax + rmax * g
            try:
                y = np.linalg.solve(m, np.ones(n))
            except np.linalg.LinAlgError:
                break
            y *= x
            y /= _max(y)
            if not _min(y) > 0.0:  # also catches NaN
                break
        else:
            y = z / _max(z)
        z_new = b @ y
        r = z_new / y
        r_lo, r_hi = float(_min(r)), float(_max(r))
        if not r_hi < math.inf:  # an entry of y underflowed to zero
            if noda:
                break
            noda = True  # hand over to Noda from x
            continue
        x, z, rmin, rmax = y, z_new, r_lo, r_hi
    lo, hi = _certify(b, x, rmin, rmax, g, k, tol_s, _slack(n, float(_min(x))), e)
    return lo, hi, x / x.sum(), it, hi - lo <= tol


def _products(rows, cols, x=None):
    """b x_j for each pass j of a stack, x_j the row j of x: rows[j] x_j
    for j < len(rows), then x_j^T cols[j - len(rows)]; with no x, b times
    the ones vector as row and column sums."""
    m = len(rows)
    r = rows.sum(axis=2) if x is None else np.matmul(rows, x[:m, :, None])[:, :, 0]
    if not len(cols):
        return r
    c = cols.sum(axis=1) if x is None else np.matmul(x[m:, None, :], cols)[:, 0, :]
    return np.concatenate((r, c))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def collatz_wielandt_stack(bs, tol, max_iter):
    """The first step of both passes of each matrix of a stack.

    ``bs`` is an (m, n, n) stack of nonnegative irreducible matrices with
    n >= 2.  Pass j < m is the one on bs[j], pass m + j the one on
    bs[j].T.  Returns a list of 2m entries: the pass's result
    (lo, hi, x, iterations, converged), as ``collatz_wielandt`` returns
    it, where the pass stops at its kept proposal, and otherwise the
    ``Resume`` state ``collatz_wielandt`` goes on from.  Each pass's
    entry depends on its own matrix alone, not on the rest of the stack.
    """
    m, n = bs.shape[0], bs.shape[1]
    # the matrices whose rows and whose columns the passes take: up to
    # _EIG_N the transposes are matrices of their own, which eig takes
    if n <= _EIG_N:
        rows, cols = np.concatenate((bs, bs.transpose(0, 2, 1))), bs[:0]
    else:
        rows = cols = bs
    # b times the ones vector: summed, as the serial kernel has always
    # started, but by BLAS where the proposals' products are, there three
    # times faster than a sum (n = 16 to 48)
    x1 = np.ones((2 * m, n)) if _EIG_N < n <= _SQUARE_N else None
    z = _products(rows, cols, x1)
    zmin, zmax = _min(z, axis=1).tolist(), _max(z, axis=1).tolist()
    # _exponent only for the passes it scales
    e = [0 if _LOW <= s <= _HIGH else _exponent(s, bs[j % m])
         for j, s in enumerate(zmax)]
    if any(e):
        scale = -np.array(e)[:, None, None]
        rows = np.ldexp(rows, scale[:len(rows)])
        cols = np.ldexp(cols, scale[len(rows):])
        z = _products(rows, cols, x1)
        zmin, zmax = _min(z, axis=1).tolist(), _max(z, axis=1).tolist()
    if max_iter < 2 or n > _SQUARE_N:  # no proposal
        return [Resume(np.ones(n), z[j], zmin[j], zmax[j], 1, e[j])
                for j in range(2 * m)]
    y = _eig_vectors(rows) if n <= _EIG_N else _power_vectors(bs)
    y_max = _max(y, axis=1)
    x = y / y_max[:, None]
    bx = _products(rows, cols, x)
    r = bx / x
    rmin, rmax = _min(r, axis=1).tolist(), _max(r, axis=1).tolist()
    x_min = _min(x, axis=1).tolist()
    positive = (y_max > 0.0).tolist()
    x_unit = x / x.sum(axis=1)[:, None]  # the 1-norm the result carries
    g_n = _gamma(n, _U)
    # each pass's nonzero count; the transposes' rows are cols' columns
    ks = _nonzeros(rows) + (_nonzeros(cols, axis=1) if len(cols) else [])
    # the numpy calls above serve the whole stack, the rest is per pass
    out = []
    for j in range(2 * m):
        raw = rmax[j] - rmin[j]
        tol_s = _scaled_tol(tol, e[j]) if e[j] else tol
        # kept where x > 0 (the tests fail on NaN), its ratios spread less
        # than the ones vector's and its underflow slack is small
        slack = _slack(n, x_min[j]) if positive[j] and x_min[j] > 0.0 else math.inf
        if not (raw < zmax[j] - zmin[j] and slack < 0.5 * tol_s):
            out.append(Resume(np.ones(n), z[j], zmin[j], zmax[j], 1, e[j]))
            continue
        stop, g, k = _stops(raw, rmax[j], g_n, None, tol_s, lambda: ks[j])
        if stop or max_iter <= 2:
            b = rows[j] if j < len(rows) else cols[j - len(rows)].T
            lo, hi = _certify(b, x[j], rmin[j], rmax[j], g, k, tol_s, slack, e[j])
            out.append((lo, hi, x_unit[j], 2, hi - lo <= tol))
        else:
            out.append(Resume(x[j], bx[j], rmin[j], rmax[j], 2, e[j]))
    return out
