"""The solver's kernel: propose a Perron vector, then certify it.

Each nonnegative irreducible matrix b, n >= 2, gets two passes, one on b
and one on its transpose.  ``collatz_wielandt_stack(bs, tol, max_iter)``
runs both passes of every matrix of a same-size stack: the first step of
all of them in one fixed set of numpy calls, whose stop test decides
every pass, then one loop (``_iterate``) that steps every pass that goes
on, in one set of numpy calls per iteration, until each has stopped.  A
stack whose passes all stop at the first step, the common case on the
eig route, returns from it: the loop's state (its spreads, stall counts
and Noda cost) exists only for passes that go on, and starts from the
vectors and products the first step holds.  A pass's result is a
``Pass(lo, hi, witness, iterations)``, the witness x the vector that lo
and hi certify, its largest entry exactly 1: row j of one read-only
(2m, n) array that holds every pass's last vector, whichever route it
took, the loop writing back those of the passes it steps.  For every
x > 0 the Collatz-Wielandt ratios (bx)_i / x_i have the spectral radius
between their minimum and their maximum; lo and hi are those extremes
widened outward for every rounding error their float computation can
carry, so they hold the radius of the stored floats whatever method
proposed x, and hold the exact ratios of the x returned, on b for a
pass on b and on b.T for a transpose's.

1. Prescaling (``_prescale``): a pass whose largest row sum lies outside
   [2^-400, 2^400] runs on b scaled by an exact power of two, which keeps
   the products clear of overflow and underflow; the bounds are scaled
   back outward.  The matrix and its transpose get an exponent each.
2. Proposal (the first step): from the all-ones vector, then a proposed
   vector, tried as one iteration.  For n <= 8 that is the eigenvector
   LAPACK's dgeev gives for the eigenvalue of largest real part (Anderson
   et al., LAPACK Users' Guide, 1999), sign flipped, from one call of the
   batched driver behind ``np.linalg.eig`` on all 2m prescaled matrices;
   a matrix it fails on comes back NaN, and is rejected.  For
   8 < n <= 64 it is the row or column sums of one power b^(2^j) built
   by repeated squaring (``_power_vectors``), for both passes; it gives
   up after three squares in a row fail to halve the change of the sums,
   as at a moderate spectral gap the first changes are not yet
   asymptotic, or after four where the third halves the largest of them
   (changes that oscillate, as under a complex subdominant pair).
   Above 64 there is none.  Both proposers scale their vectors to max
   1.  Every pass, at every n, runs on one stack of 2m matrices: the m
   given, then contiguous copies of their transposes, so a left pass
   takes the same products as ``certify_vectors`` on a contiguous
   transpose and matches it bit for bit.  A proposal is kept only when
   it is positive, its ratios spread less than the ones vector's, and
   its underflow slack stays under half of ``tol``; it usually lands at
   the floor of floating point at once, and the pass then stops at two
   iterations.
   The first step ends with each pass's stop test; every pass that goes
   on iterates from its kept proposal or, where that was rejected or
   there is none, from the ones vector.
3. Iteration: power sweeps x <- bx run while they contract well.  Once
   the sweeps still needed, extrapolated from the contraction seen over
   the last two, exceed what the Noda phase costs (about four steps,
   each a solve and a sweep), or a sweep stalls or underflows (a cycle,
   a tiny spectral gap), the pass switches to Noda steps
   x <- (hi I - b)^-1 x, with hi the current upper bound (Noda, Numer.
   Math. 16, 1971; Elsner, LAA 15, 1976).  They converge superlinearly
   whatever the spectral gap, and need no shift for periodic patterns.
   Each iteration takes the products of all live passes in one call and
   the Noda solves in another (batched dgesv; a singular system comes
   back NaN, a stall); each pass applies its own rules to its
   own scalars, so a matrix gets the same certificate stacked or alone.
   A pass that stops drops out, and only then is the stack of the live
   passes' matrices rebuilt, as a view where it can be.
4. Certification (``_certify``), apart from the iteration: it takes what
   a vector has, its ratio extremes (``_ratios`` takes them, for the
   first step's proposal, each iteration and ``certify_vectors`` alike),
   its least entry, k, the scaled ``tol`` and the exponent, and forms
   the bounds itself.  A ratio over a row with k nonzeros carries k + 1
   roundings, so the exact ratio is within a relative gamma_{k+1} =
   (k+1)u / (1 - (k+1)u) of it, or slightly more (``_gamma``; Higham,
   Accuracy and Stability of Numerical Algorithms, ch. 3; sums of
   nonnegative terms cannot cancel), plus an absolute term for results
   that underflow (``_slack``).  k is counted once per pass, before the
   first step: n where the matrix is positive, else its most nonzeros in
   a row.  Where the bound exceeds ``tol`` once the ratios agree to
   rounding, the final vector is certified once more in np.longdouble,
   in row blocks; where longdouble is float64 that gains nothing but
   stays sound.  ``certify_vectors(bs, xs, tol)`` certifies vectors a
   caller holds, on any nonnegative stack, through the same
   ``_prescale``, ``_ratios`` and ``_certify``; the kernel certifies
   every pass once it has stopped, from the ratios it already has, with
   no product taken twice.

A pass stops when the certified width, underflow slack aside (it does
not shrink with iteration), meets ``tol``, at ``max_iter``, or at the
floor of floating point: the ratio spread is down to what rounding alone
makes, or Noda steps stall: three in a row shrink it by less than an
eighth, or one fails (a singular solve, an entry underflowing to zero).

Memory: on the squaring route alone (8 < n <= 64), the pass stack and
the squares go into scratch arrays that each thread keeps between calls
(``_scratch``), so repeated stacked calls stop faulting fresh pages in;
the eig route and n > 64 allocate per call, where buffering measured
slower.  Each thread retains the three arrays of the largest
squaring-route stack it has certified, four times that stack's size:
about 1.5 MiB after a 20-term trace at n = 48, about 32 MiB after a
trace chunk of 2^20 entries.  Peak memory is as without them, the same
arrays being live at the peak.  Nothing returned is a view of them.

The batched dgeev and dgesv drivers are numpy's private gufuncs behind
``np.linalg.eig`` and ``np.linalg.solve``.  The drivers flag a failure
as an invalid operation, and a square may underflow to zero: no helper
has an errstate of its own, each runs under that of its entry point,
which handles these without a warning.
"""

import math
import threading
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eig as _dgeev, solve as _dgesv

from .matcore import _frobenius_norms

__all__ = ["Pass", "certify_vectors", "collatz_wielandt_stack"]

_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1074  # twice the absolute error of an underflowing operation
_LOW, _HIGH = 2.0**-400, 2.0**400  # row sums left unscaled
_LD_BLOCK = 1 << 16  # entries per row block of the longdouble pass
_STALLS = 3  # Noda steps in a row that shrink the spread by under 1/8
_SETTLED = 8 * _U  # _power_vectors' row sums have settled: 4 ulps of 1

# Host-timed cost model: numpy 2.4, one BLAS thread, a 2-core x86_64
# host.  Other hosts move where each method pays off, never a bound.
# Largest n that gets an eig proposal: dgeev on a matrix and its
# transpose costs 5 us at n = 2 and 40 us at n = 8 (np.linalg.eig adds
# 12-18 us), one or two sweeps' overhead, but 180 us at n = 16, a whole
# kernel call there.  Left at 8 on purpose: more moves n = 9-12 certificates
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
# the ufunc reductions skip ndarray.min/max's Python-level wrapper,
# which costs as much as the rest of a sweep at small n
_min, _max = np.minimum.reduce, np.maximum.reduce

class Pass(NamedTuple):
    """What one pass certified: the interval [lo, hi] that holds the
    radius of its matrix, the witness, the vector whose Collatz-Wielandt
    ratios lo and hi bound (read-only, largest entry exactly 1), and the
    number of vectors it tried."""

    lo: float
    hi: float
    witness: np.ndarray
    iterations: int


class _Scratch(threading.local):
    """Each thread's scratch arrays, flat float64, grown to the largest
    size asked of them and never shrunk: 0 holds the squaring route's
    pass stack, 1 and 2 the squares of ``_power_vectors``."""

    def __init__(self):
        self.arrays = [np.empty(0)] * 3


_SCRATCH = _Scratch()


def _scratch(i, shape):
    """The calling thread's scratch array i as an array of ``shape``, its
    contents left as they were: a view, which nothing the kernel returns
    may be."""
    arrays, size = _SCRATCH.arrays, math.prod(shape)
    if arrays[i].size < size:
        arrays[i] = np.empty(size)
    return arrays[i][:size].reshape(shape)


def _square(q, i):
    """q[j] @ q[j] for each matrix of the stack q, into scratch array i,
    which q must not lie in."""
    return np.matmul(q, q, out=_scratch(i, q.shape))


def _gamma(k, u):
    """Relative bound g for a ratio over a row with k nonzeros.

    The computed ratio is within a factor 1 +- gamma_{k+1} of the exact
    one, so the exact one is within r / (1 -+ gamma_{k+1}), and
    1 / (1 - gamma_m) = 1 + mu / (1 - 2mu).  The extra 4u covers the
    roundings of ``_widen``'s scalar arithmetic, done in the type of u;
    1 - 2mu is exact there.
    """
    return (k + 1) * u / (1 - 2 * (k + 1) * u) + 4 * u


def _frobenius_up(d) -> np.ndarray:
    """Upper bounds on the exact Frobenius norms of the differences that
    the N entries of each matrix of the (k, n, n) stack ``d`` round.

    Each matrix's ``matcore.frobenius_norm`` is scaled by 1 + g, g =
    ``_gamma(N + 6, u)``, at least Nu/(1 - 2Nu) + 11u.  The first term
    covers the N rounded squares and any order of their N - 1 sums; the
    11u covers the difference (one rounding per entry), the square root,
    underflow in the scaled squares (each below 2^-1074, against a sum
    of at least 1/8 for N < 2^50) and the padding's own arithmetic.  The
    ulp steps cover a norm scaled back into the subnormals and the
    product's rounding.  Only an exactly zero difference gives 0.
    """
    e = _frobenius_norms(d)
    g = _gamma(d[0].size + 6, _U)
    up = np.nextafter(np.nextafter(e, math.inf) * (1.0 + g), math.inf)
    return np.where(e > 0.0, up, 0.0)


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
    """LAPACK's Perron vector of each matrix of a stack, divided by its
    largest |entry|, so at max exactly 1; a row of NaN where dgeev fails,
    the others as they would be alone.  No np.linalg.eig checks: bs is
    finite."""
    w, v = _dgeev(bs, signature="d->DD")
    rows = np.arange(len(bs))
    y = v[rows, :, w.real.argmax(axis=1)].real
    return y / y[rows, np.abs(y).argmax(axis=1)][:, None]


def _power_vectors(bs):
    """Right and left Perron vectors of each irreducible matrix of a stack
    from one power of it: a (2m, n) array, row j the right vector of
    bs[j], row m + j its left vector.  Each bs[j] has its largest row
    sum inside [_LOW, _HIGH], as the kernel's prescaling leaves it.

    For primitive b, (b / rho)^k tends to the rank-one x y^T / (y^T x)
    (Meyer, Matrix Analysis and Applied Linear Algebra, SIAM 2000, 8.3), so
    the row sums of a high power give the right vector x and its column
    sums the left vector y.  The power b^(2^j) is built by squaring until
    its row sums, compared at max 1, change by at most a few ulps, or
    would at the next square.  A square costs its product and one batched
    matrix-vector product for the row sums: the power is not
    renormalized, but scaled by an exact power of two, to max row sum
    near 1, only where its largest row sum leaves [_LOW, _HIGH] (not
    bs[j]).  Every power squared then has max row sum at most _HIGH, so no
    square overflows.  The squaring gives up, keeping what it has, once
    three squares in a row fail to halve the last change that did halve
    (an imprimitive or periodic pattern, a small spectral gap, rounding;
    at |l2| / l1 near 0.6 changes 0.2, 0.2, 0.1 are not yet asymptotic),
    unless the third halves the largest change since that one, which
    earns a fourth square (a complex subdominant pair makes the changes
    oscillate: 0.37, 0.82, 0.18, 0.21, then 0.008), or a square's max
    row sum is not positive (underflow).  Each matrix stops by these
    rules on its own; the squares of those still going are
    taken together.  Both vectors are scaled to max 1.  Either may have
    zero entries; the first step keeps it only when it helps.  Rows are
    NaN where not one square succeeds.
    """
    m, n = bs.shape[0], bs.shape[1]
    ones = np.ones(n)
    p, spare = bs, 1  # spare: the scratch array that p does not lie in
    r = p @ ones
    right = r / _max(r, axis=1)[:, None]
    # peak: the largest change since the last that halved, inf before
    # the first square
    best, peak, misses = [math.inf] * m, [math.inf] * m, [0] * m
    live = list(range(m))
    # each reset of misses halves best, which stays above _SETTLED, and
    # at most four squares go between resets, so the loop ends
    while live:
        every = len(live) == m
        q = _square(p if every else p[live], spare)
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
            if not _LOW <= sj <= _HIGH:
                np.ldexp(q[i], -_exponent(sj, q[i]), out=q[i])
            if cj > 0.5 * best[j]:
                peak[j] = max(peak[j], cj)
                misses[j] += 1
                if misses[j] < 3 or (misses[j] == 3 and 2.0 * cj <= peak[j]):
                    going.append(j)
                continue
            peak[j] = cj
            # once they halve, the changes shrink quadratically: the next
            # one would be about cj * (cj / best)^2
            if not (cj <= _SETTLED or (
                    best[j] < math.inf and cj**3 <= _SETTLED * best[j]**2)):
                best[j], misses[j] = cj, 0
                going.append(j)
        if len(kept) == m:
            p, right, spare = q, r, 3 - spare
        elif kept:
            if p is bs:  # the caller's stack is not written to
                p = bs.copy()
            p[[live[i] for i in kept]] = q[kept]
            right[[live[i] for i in kept]] = r[kept]
        live = going
    left = ones @ p
    y = np.concatenate((right, left / _max(left, axis=1)[:, None]))
    # not one square: nothing beyond b's row sums
    none = [j for j in range(m) if peak[j] == math.inf]
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


def _certify(b, x, rmin, rmax, x_min, k, tol_s, e):
    """Outward bounds on the radius of b 2^e from the computed extremes
    rmin and rmax of x's ratios on b, for x with max at most 1 and least
    entry x_min > 0, k the most nonzeros in a row of b, tol_s the width
    sought in b's units."""
    g, slack = _gamma(k, _U), _slack(len(x), x_min)
    lo, hi = _widen(rmin, rmax, g, slack)
    if hi - lo > tol_s and rmax - rmin <= 2.0 * g * rmax:
        # at the floor of float64: certify x once more in longdouble
        l_lo, l_hi = _longdouble_bounds(b, x, k, slack)
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
    """v * 2^e, rounded toward ``toward`` where that is not exact; past
    the largest float, inf or the largest float.  Only a scale into the
    subnormals rounds, and scaling back is exact (for e > -2046, as here),
    so it tells on which side of v 2^e w lies: only the wrong side steps."""
    try:
        w = math.ldexp(v, e)
    except OverflowError:
        return math.inf if toward > v else math.nextafter(math.inf, 0.0)
    back = math.ldexp(w, -e)
    return w if back == v or (back < v) != (toward > v) else math.nextafter(w, toward)


def _nonzeros(b):
    """The most nonzeros in a row of each matrix of a stack b, as a list:
    n where b is positive, else counted (that count costs ten times the
    positivity test)."""
    if _min(b, axis=None) > 0.0:
        return [b.shape[-1]] * len(b)
    return _max(np.count_nonzero(b, axis=-1), axis=-1).tolist()


def _stops(raw, rmax, g, tol_s):
    """The stopping test of a pass: whether its certified width,
    underflow slack aside, meets tol_s, or its ratio spread raw is down
    to what rounding alone makes, 2 g rmax, g the pass's ``_gamma``."""
    floor = 2.0 * g * rmax
    return raw + floor <= tol_s or raw <= floor


# _products(bs, x): bs[j] x_j for each matrix of a stack, x_j the row j
# of x, in one batched product (np.matvec, new in numpy 2.2)
_products = np.matvec


def _ratios(bs, y):
    """The products of a stack with its vectors y, as ``_products`` takes
    them, and, as lists, each pass's least and greatest ratio
    (bs[j] y_j)_i / y_ji and y_j's least entry."""
    by = _products(bs, y)
    r = by / y
    return by, _min(r, axis=1).tolist(), _max(r, axis=1).tolist(), _min(y, axis=1).tolist()


def _prescale(bs, tol):
    """The first step's prescale of the passes on the matrices of a stack:
    returns the stack with bs[j] scaled by 2^-e_j, each pass's e_j, the
    ones vectors, their products and those products' least and greatest
    entries (the ones vector's ratios) on the scaled stack, tol scaled by
    2^-e_j, rounded toward zero by ``_unscale`` so that no pass stops
    wider than asked, and each pass's nonzero count."""
    ones = np.empty(bs.shape[:2])
    ones.fill(1.0)  # half the cost of np.ones at n <= 8
    z = _products(bs, ones)
    rmin, rmax = _min(z, axis=1).tolist(), _max(z, axis=1).tolist()
    if rmax and _LOW <= min(rmax) and max(rmax) <= _HIGH:  # nothing scales
        return bs, [0] * len(bs), ones, z, rmin, rmax, [tol] * len(bs), _nonzeros(bs)
    # _exponent only for the passes it scales
    e = [0 if _LOW <= s <= _HIGH else _exponent(s, bs[j]) for j, s in enumerate(rmax)]
    if any(e):
        bs = np.ldexp(bs, -np.array(e)[:, None, None])
        z = _products(bs, ones)
        rmin, rmax = _min(z, axis=1).tolist(), _max(z, axis=1).tolist()
    tol_s = [_unscale(tol, -s, 0.0) if s else tol for s in e]  # prescaled widths
    return bs, e, ones, z, rmin, rmax, tol_s, _nonzeros(bs)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def certify_vectors(bs, xs, tol):
    """Certified Collatz-Wielandt intervals of given vectors.

    ``bs`` is an (m, n, n) stack of nonnegative matrices, of any pattern,
    and ``xs`` an (m, n) array of vectors, row j for bs[j].  Returns a
    list of m pairs (lo, hi), outward bounds on the radius of bs[j] from
    the ratios (bs[j] x_j)_i / x_ji, or (0.0, inf) where x_j has an entry
    that is not positive and finite.  bs is prescaled as by the kernel's
    first step, and each x_j scaled by a power of two to max in (1/2, 1],
    and by nothing else; the bounds are then those the kernel's stop step
    gives a pass that ends at the scaled x_j.  ``tol`` is the width below
    which x_j is not certified once more in longdouble.
    """
    bs, e, *_, tol_s, ks = _prescale(bs, tol)
    # each max is top 2^f, top in [1/2, 1) where the max is positive and
    # finite; a max of top 1/2, a power of two, goes to 1
    top, f = np.frexp(_max(xs, axis=1))
    ys = np.ldexp(xs, ((top == 0.5) - f)[:, None])
    _, rmin, rmax, y_min = _ratios(bs, ys)
    return [_certify(bs[j], ys[j], rmin[j], rmax[j], y_min[j], ks[j], tol_s[j], e[j])
            if 0.5 <= t < 1.0 and y_min[j] > 0.0 else (0.0, math.inf)
            for j, t in enumerate(top.tolist())]


def _take(a, idx):
    """a[idx] for increasing indices idx, a view where they are a range."""
    return a[idx[0]:idx[-1] + 1] if idx and idx[-1] - idx[0] == len(idx) - 1 else a[idx]


def _noda_steps(bs, x, hi):
    """Noda's step x <- (hi I - b)^-1 x of each pass, for its matrix b of
    the (p, n, n) stack ``bs``, its vector x (a row of x, max 1) and its
    upper bound hi, taken in the basis where x is all ones: D^-1 b D with
    D = diag(x) has row sums r_i <= hi, so hi I - D^-1 b D is diagonally
    dominant, and the solve keeps every component of a vector spanning
    hundreds of orders of magnitude.  The p matrices are formed in one
    broadcast and solved in one batched call.  Returns the new vectors,
    each at max 1, NaN where its solve failed."""
    p, n = x.shape
    # C order, whatever bs's layout: the reshape below must be a view
    m = np.multiply(bs, x[:, None, :], order="C")
    m /= -x[:, :, None]
    m.reshape(p, n * n)[:, ::n + 1] += np.array(hi)[:, None]
    # a singular system comes back NaN, the others as they would alone
    y = _dgesv(m, np.ones((p, n, 1)), signature="dd->d")[:, :, 0]
    y *= x
    y /= _max(y, axis=1)[:, None]
    return y


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def collatz_wielandt_stack(bs, tol, max_iter):
    """Certified Collatz-Wielandt intervals of both passes of each matrix
    of a stack.

    ``bs`` is an (m, n, n) stack of nonnegative irreducible matrices with
    n >= 2.  Pass j < m is the one on bs[j], pass m + j the one on
    bs[j].T.  Returns a list of 2m ``Pass`` records: the certified
    interval, the witness it certifies (``certify_vectors`` gives lo and
    hi again from it, on bs[j] or a contiguous copy of bs[j].T) and the
    number of vectors tried (the ones vector, a kept proposal, sweeps and
    Noda steps).  Every witness is a row of one (2m, n) array, pass j's
    row j, on every route.  Each pass's result depends on its own matrix
    alone, not on the rest of the stack, and the caller's bs is read
    only to copy it into the stack of the passes' matrices.  The first
    step prescales through ``_prescale``, each step's ratios come from
    ``_ratios``, and a pass that stops is certified by ``_certify``, as
    ``certify_vectors`` certifies a given vector.  Overflow, zero
    division and the NaN it makes are detected and handled, not warned
    about, the helpers' included: they have no errstate of their own.
    """
    m, n = bs.shape[0], bs.shape[1]
    p = 2 * m
    # pass j takes the rows of rows[j]: the transposes are contiguous
    # copies, matrices of their own; on the squaring route, in scratch
    out = _scratch(0, (p, n, n)) if _EIG_N < n <= _SQUARE_N else None
    rows = np.concatenate((bs, bs.transpose(0, 2, 1)), out=out)
    rows, e, x, z, rmin, rmax, tol_s, ks = _prescale(rows, tol)
    # vectors tried, and the minimum of x, 1 for the ones vector
    it, low, y = [1] * p, [1.0] * p, None
    if max_iter >= 2 and n <= _SQUARE_N:
        # each row at max 1, or NaN where the proposer failed
        y = _eig_vectors(rows) if n <= _EIG_N else _power_vectors(rows[:m])
        by, ymin, ymax, y_min = _ratios(rows, y)
    # the first step decides every pass, in one loop over its scalars:
    # only the passes that go on iterate
    kept, live = [], []
    for j in range(p):
        # kept where y > 0 (the tests fail on NaN), its ratios spread
        # less than the ones vector's and its underflow slack is small
        if y is not None and ymax[j] - ymin[j] < rmax[j] - rmin[j] and (
                y_min[j] > 0.0 and _slack(n, y_min[j]) < 0.5 * tol_s[j]):
            kept.append(j)
            rmin[j], rmax[j], it[j], low[j] = ymin[j], ymax[j], 2, y_min[j]
        if not (_stops(rmax[j] - rmin[j], rmax[j], _gamma(ks[j], _U), tol_s[j])
                or it[j] >= max_iter):
            live.append(j)
    # x, every pass's vector, is the ones array or the proposer's: never
    # rows, nor a scratch array
    if len(kept) == p:
        x, z = y, by
    elif kept:  # x is the ones vector, not needed as such any more
        x[kept], z[kept] = y[kept], by[kept]
    if live:
        _iterate(rows, x, z, live, rmin, rmax, it, low, ks, tol_s, max_iter)
    x.setflags(write=False)
    return [Pass(*_certify(rows[j], xj, rmin[j], rmax[j], low[j], ks[j], tol_s[j], e[j]),
                 xj, it[j]) for j, xj in enumerate(x)]


def _iterate(rows, xs, zs, live, rmin, rmax, it, low, ks, tol_s, max_iter):
    """Iterate the passes ``live`` of the prescaled pass stack ``rows``,
    in order, from the first step until each stops: row j of xs and zs is
    pass j's vector and its product.  The loop steps copies of the live
    rows; each pass's last vector goes back into xs[j], and its ratio
    extremes, least entry and count into rmin[j], rmax[j], low[j] and
    it[j], for the caller to certify."""
    x, z = xs[live], zs[live]
    n = x.shape[1]
    g = [_gamma(k, _U) for k in ks]
    # sweeps the Noda phase costs
    noda_cost = _NODA_STEPS * (2.0 + min(n * n / _SOLVE_N2, n / _SOLVE_N))
    # the last two spreads, and the Noda steps in a row that shrank the
    # spread by under 1/8: None while the pass sweeps
    last = [hi - lo for lo, hi in zip(rmin, rmax)]
    before, stalls = [math.nan] * len(last), [None] * len(last)
    for j in live:  # each tries one more vector
        it[j] += 1
    # row i of lr, the matrices the products take, is pass live[i]'s
    lr = _take(rows, live)
    while True:
        y = z / _max(z, axis=1)[:, None]  # the power sweeps
        noda = [i for i, j in enumerate(live) if stalls[j] is not None]
        if noda:
            js = [live[i] for i in noda]
            y[noda] = _noda_steps(_take(rows, js), x[noda],
                                  [rmax[j] + rmax[j] * g[j] for j in js])
        by, ymin, ymax, y_min = _ratios(lr, y)
        kept = []
        for i, j in enumerate(live):
            # an entry of y underflowed to zero, or a Noda step failed (the
            # tests also catch NaN): a sweeping pass hands over to Noda
            # from x, a Noda pass stalls out at x, its spread unchanged
            if not (ymax[i] < math.inf and y_min[i] > 0.0):
                stalls[j] = 0 if stalls[j] is None else _STALLS
                continue
            rmin[j], rmax[j], low[j] = ymin[i], ymax[i], y_min[i]
            kept.append(i)
        if len(kept) == len(live):
            x, z = y, by
        else:
            x[kept], z[kept] = y[kept], by[kept]
        # the rules are each pass's own, in scalars; the numpy calls
        # serve all live passes at once
        going, done = [], []
        for i, j in enumerate(live):
            raw = rmax[j] - rmin[j]
            if _stops(raw, rmax[j], g[j], tol_s[j]) or it[j] >= max_iter:
                done.append(i)
                continue
            if stalls[j] is not None:
                stalls[j] = stalls[j] + 1 if raw > 0.875 * last[j] else 0
                if stalls[j] >= _STALLS:
                    done.append(i)
                    continue
            elif before[j] > 0.0:
                # switch to Noda once the sweeps still needed, at the
                # contraction seen over the last two, exceed its cost
                q = math.sqrt(raw / before[j])
                target = max(0.5 * tol_s[j], 2.0 * g[j] * rmax[j])
                if q >= 1.0 or math.log(target / raw) < noda_cost * math.log(q):
                    stalls[j] = 0
            before[j], last[j] = last[j], raw
            it[j] += 1
            going.append(i)
        if done:
            xs[[live[i] for i in done]] = x[done]
        if not going:
            return
        if done:  # compact the stack
            live, x, z = [live[i] for i in going], x[going], z[going]
            lr = _take(rows, live)
