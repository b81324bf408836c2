"""Convergence traces over matrix sequences A_k = base + s_k * direction.

``run_trace`` checks each certified root r_k with the inequality the
base's structure calls for: the norm bound lo(r_k)^p <= ||A_k^p||_1 for
a nilpotent base of index p, the perturbation bound
s_k * ||direction||_F / q_star for an irreducible one, and
lo(b_k) <= hi(r_k) for a reducible one, b_k the radius of the base's
spectral block read from the same positions of every term.

Separately, the Gelfand sequence f_m = ||X^m||_1^(1/m) is traced in
log-space, and a scaling table shows that the gap f_m - rho scales
linearly in alpha under X -> alpha*X, so the gap cannot be bounded
uniformly over the nonnegative cone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, matcore, solver, structure
from ._kernels import _TINY, _U

__all__ = [
    "SequenceSpec",
    "TraceRow",
    "ConvergenceTrace",
    "GelfandRow",
    "GelfandTrace",
    "HomogeneityRow",
    "NonuniformityDemo",
    "run_trace",
    "gelfand_trace",
    "nonuniformity_demo",
    "format_convergence_trace",
    "format_gelfand_trace",
    "format_nonuniformity_demo",
]

_RULES = ("inv-k", "inv-k2", "geom")

# _gelfand_steps prescales a matrix whose 1-norm lies outside these
_GELFAND_MIN_NORM, _GELFAND_MAX_NORM = 2.0**-500, 2.0**1020
# float64 entries of the terms run_trace certifies in one call (8 MiB):
# stacking saves per-call overhead, which is spread thin long before
# this, and the cap bounds the memory a long trace of large terms takes
_CHUNK_ENTRIES = 2**20
_min, _max = np.minimum.reduce, np.maximum.reduce


@dataclass(frozen=True, eq=False)
class SequenceSpec:
    """A finite matrix sequence base + s_k * direction, k = 1..count.

    ``rule`` picks the scale schedule: "inv-k" gives coeff/k, "inv-k2"
    gives coeff/k^2, "geom" gives coeff * gamma^k (0 < gamma < 1).  All
    three decrease strictly to zero.  Terms must stay finite, and
    entrywise nonnegative: by default a negative entry raises, with
    ``clamp`` it is set to zero instead.  ``normal_form`` is the
    base's structure, computed once here for every trace of the spec.
    Specs compare and hash by identity: their array fields have no
    single truth value.
    """

    base: np.ndarray
    direction: np.ndarray
    rule: str = "inv-k"
    coeff: float = 1.0
    gamma: float = 0.5
    count: int = 20
    clamp: bool = False
    normal_form: structure.FrobeniusNormalForm = field(init=False, repr=False)

    def __post_init__(self):
        fnf = structure.frobenius_normal_form(self.base)
        direction = matcore.square_matrix(self.direction)
        if direction.shape != fnf.matrix.shape:
            raise ValueError(
                f"shape mismatch: base {fnf.matrix.shape}, direction {direction.shape}"
            )
        direction.flags.writeable = False
        object.__setattr__(self, "base", fnf.matrix)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "normal_form", fnf)
        if self.rule not in _RULES:
            raise ValueError(f"unknown schedule rule {self.rule!r}; choose from {_RULES}")
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "count", int(self.count))
        if not (self.coeff > 0.0 and math.isfinite(self.coeff)):
            raise ValueError(f"coeff must be positive and finite, got {self.coeff}")
        if self.rule == "geom" and not (0.0 < self.gamma < 1.0):
            raise ValueError(f"geom schedule needs 0 < gamma < 1, got {self.gamma}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def scale(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"term index must be >= 1, got {k}")
        if self.rule == "inv-k":
            return self.coeff / k
        if self.rule == "inv-k2":
            return self.coeff / (k * k)
        return self.coeff * self.gamma**k

    def term(self, k: int) -> np.ndarray:
        """The k-th matrix of the sequence, a fresh array, guaranteed
        finite and nonnegative; a term that overflows raises."""
        return self._terms([k])[0]

    def _terms(self, ks) -> np.ndarray:
        """The terms k of ``ks`` as one fresh (len(ks), n, n) stack of the
        floats ``term(k)`` gives; the first bad one raises as there."""
        s = np.array([self.scale(k) for k in ks])
        with np.errstate(over="ignore"):
            # base added in place: one (k, n, n) array, not two
            a = s[:, None, None] * self.direction
            a += self.base
        # the ufunc reductions skip the Python-level wrappers of any/all;
        # both comparisons fail on NaN
        lo, hi = _min(a, axis=(1, 2)), _max(a, axis=(1, 2))
        finite = (-math.inf < lo) & (lo <= hi) & (hi < math.inf)
        bad = ~finite | (lo < 0.0) & (not self.clamp)
        if bad.any():
            t = int(bad.argmax())
            what, at = ("has a non-finite entry", ~np.isfinite(a[t])) if not finite[t] else (
                "leaves the nonnegative cone", a[t] < 0.0)
            i, j = np.argwhere(at)[0]
            raise ValueError(f"term k={ks[t]} {what} at ({i}, {j})")
        if self.clamp:
            np.maximum(a, 0.0, out=a)
        return a


@dataclass(frozen=True)
class TraceRow:
    """One sequence term: certificate for A_k plus the kind's extra values.

    ``deviation`` is |mid r_k - mid r| against the base certificate.
    ``extra`` holds the values the trace's ``columns`` name: the bound
    s_k * ||direction||_F / q_star (irreducible), the spectral block's
    interval (b_lo, b_hi) (reducible) or ||A_k^p||_1^(1/p) (nilpotent).
    """

    k: int
    scale: float
    cert: solver.PerronCertificate
    deviation: float
    ok: bool
    extra: tuple[float, ...]


@dataclass(frozen=True)
class ConvergenceTrace:
    kind: str
    columns: tuple[str, ...]
    base_cert: solver.PerronCertificate
    rows: tuple[TraceRow, ...]
    nilpotency: int | None = None
    spectral_block_index: int | None = None
    # reducible traces also check closeness of the last block radius
    final_deviation: float | None = None
    final_threshold: float | None = None

    @property
    def ok(self) -> bool:
        good = all(row.ok for row in self.rows)
        if self.final_deviation is not None:
            good = good and self.final_deviation <= self.final_threshold
        return good


def run_trace(
    spec: SequenceSpec, tol=solver.DEFAULT_TOL, max_iter=solver.DEFAULT_MAX_ITER
) -> ConvergenceTrace:
    """Trace the sequence with the check its base's structure calls for.

    * Nilpotent base of index p: the radius of any matrix is at most any
      consistent norm of it, and rho(A)^p = rho(A^p), so lo(r_k) <=
      ||A_k^p||_1^(1/p): a row fails where lo^p, rounded down, exceeds
      ``_power_norm_ceiling``.  The norm is the largest entry of 1^T A_k^p.
      This case is tested first: [[0]] is irreducible by convention, and
      nilpotent too.
    * Irreducible base: each row carries the a-priori bound
      s_k * ||direction||_F / q_star and passes when the observed
      midpoint shift stays within the bound plus both certificate widths.
      q_star is read off the base's left vector, so a base certificate
      that did not converge within ``max_iter`` raises ValueError, as in
      ``continuity_certificate``.
    * Reducible base: the blocks of the base are certified once, which
      picks the spectral block and gives the base certificate; every
      term is permuted by the base's permutation and the spectral
      block's positions are read off, giving block radii b_k.  Rows pass
      when lo(b_k) <= hi(r_k); the trace also requires the last b_k to
      land near the base radius (threshold 2 * s_count * ||direction||_F
      * n plus certificate widths).

    Each chunk of terms is built and validated as one (k, n, n) stack,
    and certified with its spectral blocks, gathered by one index, and,
    in the first chunk, a base not yet certified, each as ``perron_root``
    would.  A chunk of positive terms goes as its stack, with no normal
    form built, copied only where ``_certify_blocks`` joins it to other
    matrices of its size (the base's, in a first chunk).  The nilpotent
    norms of a chunk take one ``np.matmul`` a product for all its terms.
    """
    fnf = spec.normal_form
    p = fnf.nilpotency_index
    d_norm = matcore.frobenius_norm(spec.direction)
    summary = {}
    base_cert = None
    if p is not None:
        kind, columns = "nilpotent", ("power_bound",)
        summary["nilpotency"] = p
    elif fnf.irreducible:
        kind, columns = "irreducible", ("bound",)
    else:
        kind, columns = "reducible", ("b_lo", "b_hi")
        block_index, block_certs = solver._spectral_block(fnf, tol, max_iter)
        summary["spectral_block_index"] = block_index
        start, end = fnf.blocks[block_index]
        # the spectral block's positions in every term, read off unpermuted
        block_at = fnf.perm[start:end]
        base_cert = solver._combine(block_certs)

    rows = []
    block = None
    per_chunk = max(1, _CHUNK_ENTRIES // fnf.n**2)
    for first in range(1, spec.count + 1, per_chunk):
        ks = range(first, min(first + per_chunk, spec.count + 1))
        terms = spec._terms(ks)
        items = ([fnf] if base_cert is None else []) + [terms]
        if kind == "reducible":
            items.append(np.ascontiguousarray(terms[:, block_at[:, None], block_at]))
        certs = solver._perron_roots(items, tol, max_iter)
        if base_cert is None:
            base_cert = certs.pop(0)
            if kind == "irreducible":
                if not base_cert.converged:
                    raise ValueError(
                        f"base certificate did not converge within "
                        f"max_iter={max_iter}, so q_star is not reliable; "
                        "raise max_iter or tol"
                    )
                per_scale = d_norm / solver.q_star(base_cert)
        base_mid = base_cert.mid
        if kind == "nilpotent":
            norms = _power_norms(terms, p)
            lows = solver._pow_rounded(np.array([c.lo for c in certs]), p, -math.inf).tolist()
        for i, k in enumerate(ks):
            s = spec.scale(k)
            cert = certs[i]
            deviation = abs(cert.mid - base_mid)
            if kind == "nilpotent":
                term, low, e, norm_p = terms[i], lows[i], 0, norms[i]
                if not norm_p < math.inf:
                    # compare for 2^-e term, its 1-norm below 1, as
                    # _gelfand_steps prescales; lo rounded down
                    e = _kernels._exponent(math.inf, term)
                    term = np.ldexp(term, -e)
                    (norm_p,) = _power_norms(term[None], p)
                    low = solver._pow_rounded(_kernels._unscale(cert.lo, -e, 0.0), p, -math.inf)
                ok = low <= norm_p or low <= _power_norm_ceiling(term, p, norm_p)
                extra = (matcore._times_pow2(norm_p ** (1.0 / p), e),)
            elif kind == "irreducible":
                bound = s * per_scale
                ok = deviation <= bound + cert.width + base_cert.width
                extra = (bound,)
            else:
                block = certs[len(ks) + i]
                ok, extra = block.lo <= cert.hi, (block.lo, block.hi)
            rows.append(
                TraceRow(k=k, scale=s, cert=cert, deviation=deviation, ok=ok, extra=extra)
            )
    if block is not None:
        # the block's own mid, not one rebuilt from (b_lo, b_hi): mid
        # guards against overflow of lo + hi
        summary["final_deviation"] = abs(block.mid - base_mid)
        summary["final_threshold"] = (
            2.0 * spec.scale(spec.count) * d_norm * fnf.n
            + block.width
            + base_cert.width
        )
    return ConvergenceTrace(
        kind=kind, columns=columns, base_cert=base_cert, rows=tuple(rows), **summary
    )


def _power_norms(terms: np.ndarray, p: int) -> list:
    """||A^p||_1 of each A of a (k, n, n) stack: the largest entry of
    1^T A^p, from the column sums and p - 1 vector-matrix products, one
    ``np.matmul`` each for the stack.  inf or NaN where one overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.add.reduce(terms, axis=1)[:, None]
        for _ in range(p - 1):
            v = np.matmul(v, terms)
        return _max(v, axis=(1, 2)).tolist()


def _power_norm_ceiling(a: np.ndarray, p: int, norm_p: float) -> float:
    """An upper bound on the exact N = ||a^p||_1, a >= 0 n x n, from the
    finite norm_p ``_power_norms`` computed for it.

    With gamma_k = ku / (1 - ku) and t = 2^-1075 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3): the column sums are
    within gamma_(n-1), each v a within gamma_n entrywise less n t of
    underflow, no sum cancels and the max is exact, so
    N <= (norm_p + n t sum_(j<p-1) ||a^j||_1) / (1 - gamma_(pn)).  With
    c = 1 + 4pnu >= 1 / (1 - gamma_(pn)) and ||a^j||_1 <= (c ||a||)^j,
    ||a|| a's computed 1-norm, N <= (norm_p + (p - 1) n t g) c,
    g = max(1, c ||a||)^(p-2).  A term scaled to norm below 1, whose
    entries round, moves N by p n t at most.  The underflow term is
    formed as 8 p n t g, which covers both and its own rounding; the
    last sum and product round up.
    """
    n = a.shape[0]
    c = 1.0 + 4.0 * p * n * _U
    grow = max(1.0, float(_max(np.add.reduce(a, axis=0))) * c)
    under = 4.0 * p * n * _TINY
    for _ in range(p - 2):
        under *= grow
    return math.nextafter(math.nextafter(norm_p + under, math.inf) * c, math.inf)


@dataclass(frozen=True)
class GelfandRow:
    m: int
    f_m: float
    residual: float  # f_m - mid of the radius certificate
    bound: float  # d_m, the relative round-off bound of f_m
    ok: bool


@dataclass(frozen=True, eq=False)
class GelfandTrace:
    """Rows m = 1..m_max against the radius certificate of ``matrix``,
    the validated X (read-only).  Traces compare and hash by identity:
    the matrix has no single truth value."""

    cert: solver.PerronCertificate
    rows: tuple[GelfandRow, ...]
    matrix: np.ndarray = field(repr=False)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _gelfand_steps(x: np.ndarray, m_max: int):
    """Yield (f_m, d_m) for m = 1..m_max: f_m = ||x^m||_1^(1/m) as
    computed, and d_m, a bound on its relative error.

    ||x^m||_1 is the largest entry nu_m of 1^T x^m: from the column
    sums, one vector-matrix product a step, O(m n^2), renormalized by
    nu_m every step.  Only log-norms accumulate, so large m cannot
    overflow: every norm taken is at most about ||x||_1.  A matrix whose
    norm is near or above the largest float is first scaled by an exact
    power of two 2^-e, just below it, and one whose norm is below 2^-500
    up to norm about 1, clear of underflow; f_m is homogeneous, so
    f_m(x) = 2^e f_m(2^-e x), inf above the largest float.  m = 1 is
    returned exactly (no exp/log trip); f_m is 0.0 from the first m with
    x^m exactly zero.

    Error bound, for products that stay in the normal range (entries
    within a few hundred orders of magnitude of the norm).  With
    gamma_k = ku / (1 - ku): the column sums are within a relative
    gamma_(n-1), each step's division within u and its product of
    nonnegative factors within gamma_n, entrywise, and the max is
    exact; none of these can cancel, so prod_j nu_j is ||x^m||_1 up to
    a relative phi = gamma_(m(n+1)) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3).  f_m = exp(L / m) with L = sum_j
    log nu_j; each log is within 1 ulp, 2u |log nu_j|, each addition
    within u of its partial sum s_k, the division within u.  So the
    computed exponent is off by at most Delta = (2u sum_j |log nu_j|
    + u sum_k |s_k|) / m + u |L / m| + phi / (m (1 - phi)), and exp
    adds one ulp:
    d_m = expm1(Delta + 2u), times 1.01 for the rounding of this sum.
    The error grows with |log f_m|, the size of the logs.  Where
    2^e f_m lands below the normal range it rounds once more, by at most
    half the smallest float; callers add that absolutely.
    """
    n = x.shape[0]
    e = 0
    with np.errstate(over="ignore"):
        v = np.add.reduce(x, axis=0)
    nrm = float(_max(v))
    if not nrm <= _GELFAND_MAX_NORM:
        e = math.frexp(float(x.max()))[1] + n.bit_length() - 1020
    elif 0.0 < nrm < _GELFAND_MIN_NORM:
        e = math.frexp(nrm)[1]
    if e:
        x = np.ldexp(x, -e)
        v = np.add.reduce(x, axis=0)
        nrm = float(_max(v))
    log_acc = 0.0
    # sums of |log nu_j| and of the partial sums |s_k|
    abs_logs = abs_sums = 0.0
    for m in range(1, m_max + 1):
        if m > 1:
            # the scaling above keeps every entry finite
            v = (v / nrm) @ x
            nrm = float(_max(v))
        if nrm == 0.0:  # x^m is exactly zero, and so is every later power
            for _ in range(m, m_max + 1):
                yield 0.0, 0.0
            return
        k = m * (n + 1)
        phi = k * _U / (1.0 - k * _U)
        log_nrm = math.log(nrm)
        if m == 1:
            f, d = nrm, phi
        else:
            total = log_acc + log_nrm
            f = math.exp(total / m)
            delta = (
                (2.0 * _U * (abs_logs + abs(log_nrm)) + _U * (abs_sums + abs(total))) / m
                + _U * abs(total / m) + phi / (m * (1.0 - phi))
            )
            d = 1.01 * math.expm1(delta + 2.0 * _U)
        yield matcore._times_pow2(f, e), d
        log_acc += log_nrm
        abs_logs += abs(log_nrm)
        abs_sums += abs(log_acc)


def gelfand_trace(
    x, m_max: int, tol=solver.DEFAULT_TOL, max_iter=solver.DEFAULT_MAX_ITER
) -> GelfandTrace:
    """Trace f_m = ||X^m||_1^(1/m) against the certified radius of X.

    Every f_m dominates the radius, so row m passes when the computed
    F_m is at least lo (1 - d_m) less twice the smallest float, with
    d_m F_m's own round-off bound from ``_gelfand_steps``: F_m is within
    d_m f_m + 2^-1075 of the exact f_m >= rho >= lo.  The floor is
    formed as fl(lo fl(1 - d_m - 2u)) - 2^-1073, which stays below
    lo (1 - d_m) - 2^-1075 also where the product rounds below the
    normal range.  A radius above the largest float raises ValueError:
    f_m - rho cannot be formed.
    """
    mat = structure._frozen(matcore.nonneg_matrix(x))
    m_max = int(m_max)
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    cert = solver._perron_roots([mat[None]], tol, max_iter)[0]
    if cert.hi == math.inf:
        raise ValueError(
            "the spectral radius exceeds the largest float, so f_m - rho is "
            "not representable; scale the matrix down"
        )
    rows = tuple(
        GelfandRow(
            m=i + 1, f_m=f, residual=f - cert.mid, bound=d,
            ok=f >= cert.lo * (1.0 - d - 2.0 * _U) - 2.0 * _TINY,
        )
        for i, (f, d) in enumerate(_gelfand_steps(mat, m_max))
    )
    return GelfandTrace(cert=cert, rows=rows, matrix=mat)


@dataclass(frozen=True)
class HomogeneityRow:
    alpha: float
    residual: float  # f_m(alpha X) - alpha * mid, freshly computed
    expected: float  # alpha * residual(X)
    rel_err: float
    bound: float  # what round-off alone can make rel_err
    ok: bool


@dataclass(frozen=True)
class NonuniformityDemo:
    """Scaling table for the gap f_m(X) - rho(X) under X -> alpha X.

    f_m and rho are both positively homogeneous, so the gap at any fixed
    m scales exactly linearly in alpha: no single m can make f_m
    uniformly close to the radius over the whole cone.  ``vacuous`` is
    set when the gap of X itself is indistinguishable from zero at this
    m (then the table proves nothing and ``rows`` is empty).
    """

    m: int
    f_m: float
    cert: solver.PerronCertificate
    residual: float
    vacuous: bool
    rows: tuple[HomogeneityRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def nonuniformity_demo(
    x,
    m: int,
    alphas,
    tol=solver.DEFAULT_TOL,
    max_iter=solver.DEFAULT_MAX_ITER,
) -> NonuniformityDemo:
    """Recompute the Gelfand gap at m on alpha-scaled copies of X.

    The reference radius of alpha X is taken as alpha * mid(X): exact by
    homogeneity, and it keeps the comparison free of a second iteration's
    noise.  Each row must reproduce alpha * residual(X) up to the
    round-off bound derived below; residuals grow without bound as alpha
    grows.  A radius above the largest float, or an alpha X that
    overflows, raises ValueError.

    Write F, F' for the computed f_m(X), f_m(Y) with Y = fl(alpha X),
    d, d' for their bounds from ``_gelfand_steps``, and M for mid(X).
    Each of F, F' is within d f + t of its exact value, t = 2^-1075
    covering a final rounding below the normal range.  Y is alpha X up
    to a relative eps per entry: u where its nonzero entries are normal,
    up to t over its smallest one where not, and 1 where an entry
    rounded to zero; f_m is monotone and homogeneous, so f_m(Y) is
    alpha f_m(X) up to eps.  Hence
    |F' - alpha F| <= alpha f (d' (1 + eps) + eps + d) + (alpha + 1) t,
    f <= (F + t) / (1 - d).  The row residual F' - fl(alpha M) and
    expected = fl(alpha fl(F - M)) add at most
    u (alpha M + |residual| + 2 |expected|) + 2t, and their difference
    is F' - alpha F; the t terms, (alpha + 3) t in all, are counted as
    (alpha + 3) 2^-1074.  The bound is that sum over |expected|, times
    1.01 for second-order terms and the rounding of rel_err (infinite
    where expected underflows to zero).  It grows with
    |log f_m| through d and d', and the gap ratio f / |F - M| amplifies
    it; a homogeneity defect of 1e-9 stays far above it at any scale in
    the normal range.

    ``vacuous`` is set when |F - M| is within the certificate's width
    plus F's own error bound: the gap is then indistinguishable from
    zero, relative to the size of f_m at any scale.

    ``x`` may also be X's :class:`GelfandTrace` with m up to its m_max:
    its certificate and its row m's F and d are then reused, not
    recomputed, and ``tol`` and ``max_iter`` are not used.  A matrix is
    traced to m by ``gelfand_trace`` first.
    """
    m = int(m)
    if not isinstance(x, GelfandTrace):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        x = gelfand_trace(x, m, tol, max_iter)
    if not 1 <= m <= len(x.rows):
        raise ValueError(f"m must be in 1..{len(x.rows)} for this trace, got {m}")
    mat, cert, f, d = x.matrix, x.cert, x.rows[m - 1].f_m, x.rows[m - 1].bound
    residual = f - cert.mid
    vacuous = abs(residual) <= cert.width + d * f + _TINY
    rows = []
    if not vacuous:
        f_hi = (f + _TINY) / (1.0 - d) if d < 1.0 else math.inf
        nonzero = np.count_nonzero(mat)
        for alpha in alphas:
            alpha = float(alpha)
            if not (alpha > 0.0 and math.isfinite(alpha)):
                raise ValueError(f"alphas must be positive and finite, got {alpha}")
            with np.errstate(over="ignore"):
                scaled = alpha * mat
            if not np.isfinite(scaled).all():
                raise ValueError(f"alpha {alpha} times the matrix overflows")
            kept = scaled[scaled > 0.0]
            smallest = float(kept.min()) if kept.size else 0.0
            if kept.size < nonzero:
                eps = 1.0
            elif smallest < 2.0**-1022:
                eps = max(_U, _TINY / smallest)
            else:
                eps = _U
            *_, (f_scaled, d_scaled) = _gelfand_steps(scaled, m)
            row_residual = f_scaled - alpha * cert.mid
            expected = alpha * residual
            slack = (
                alpha * f_hi * (d_scaled * (1.0 + eps) + eps + d)
                + (alpha + 3.0) * _TINY
                + _U * (alpha * cert.mid + abs(row_residual) + 2.0 * abs(expected))
            )
            gap = abs(row_residual - expected)
            if expected:
                rel_err, bound = gap / abs(expected), 1.01 * slack / abs(expected)
            else:  # alpha * residual underflows: round-off accounts for any gap
                rel_err, bound = (math.inf if gap else 0.0), math.inf
            rows.append(
                HomogeneityRow(
                    alpha=alpha,
                    residual=row_residual,
                    expected=expected,
                    rel_err=rel_err,
                    bound=bound,
                    ok=rel_err <= bound,
                )
            )
    return NonuniformityDemo(
        m=m, f_m=f, cert=cert, residual=residual, vacuous=vacuous, rows=tuple(rows)
    )


def _grid(header, rows, fmt: str) -> str:
    if fmt == "csv":
        return "\n".join([",".join(header)] + [",".join(r) for r in rows])
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}; choose 'table' or 'csv'")
    # every column right-aligned to its widest cell
    line = "  ".join(f"{{:>{max(map(len, col))}}}" for col in zip(header, *rows))
    return "\n".join(line.format(*row).rstrip() for row in [header, *rows])


_f = matcore.format_float


def _status(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def format_convergence_trace(trace: ConvergenceTrace, fmt: str = "table") -> str:
    """Render a trace as an aligned table or comma-separated rows.

    The trace's ``columns`` follow the common ones; floats are rendered
    with 17 significant digits so the csv form round-trips exactly.
    """
    header = ["k", "s_k", "r_lo", "r_hi", "deviation", *trace.columns, "status"]
    rows = [
        [str(r.k), _f(r.scale), _f(r.cert.lo), _f(r.cert.hi), _f(r.deviation),
         *map(_f, r.extra), _status(r.ok)]
        for r in trace.rows
    ]
    return _grid(header, rows, fmt)


def format_gelfand_trace(trace: GelfandTrace, fmt: str = "table") -> str:
    header = ["m", "f_m", "residual", "status"]
    rows = [
        [str(r.m), _f(r.f_m), _f(r.residual), _status(r.ok)] for r in trace.rows
    ]
    return _grid(header, rows, fmt)


def format_nonuniformity_demo(demo: NonuniformityDemo, fmt: str = "table") -> str:
    header = ["alpha", "residual", "expected", "rel_err", "status"]
    rows = [
        [_f(r.alpha), _f(r.residual), _f(r.expected), _f(r.rel_err), _status(r.ok)]
        for r in demo.rows
    ]
    return _grid(header, rows, fmt)
