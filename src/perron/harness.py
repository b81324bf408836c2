"""Convergence traces over matrix sequences A_k = base + s_k * direction.

``run_trace`` checks each certified root r_k with the inequality the
base's structure calls for: lo(r_k) <= ||A_k^p||_1^(1/p) for a
nilpotent base of index p, and for any other base one rule on its
spectral block B, the whole base when irreducible, and the same
positions B_k of every term: the certificate b_k meets the enclosure
``solver._moduli`` gives B_k, the bracket of B's left witness widened
by ||B_k - B||_F / q*(B) on the stored difference, and lo(b_k) <=
hi(r_k).

Separately, the Gelfand sequence f_m = ||X^m||_1^(1/m) is traced in
log-space, and a scaling table shows that the gap f_m - rho scales
linearly in alpha under X -> alpha*X, so the gap cannot be bounded
uniformly over the nonnegative cone.  Every norm of a matrix power here
comes from one chain, ``_gelfand_steps``, with one relative rounding
bound: a BLAS chain for the matrices it keeps in the normal range, and
extended exponents for the rest.  Nilpotent rows pass by the Gelfand
rows' rule.

The module returns results only; ``perron.cli`` renders them as text.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore, solver, structure
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
]

_RULES = ("inv-k", "inv-k2", "geom")

# the exponent _gelfand_steps' extended chain gives a zero entry, below
# that of any positive entry of 1^T x^m, at least 2^(-1074 m), for m < 2^50
_ZERO_EXP = -2**60
# float64 entries of the terms run_trace certifies in one call (8 MiB;
# the kernel holds a transposed copy of each stack it certifies, so
# twice that): stacking saves per-call overhead, which is spread thin
# long before this, and the cap bounds the memory a long trace of large
# terms takes
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

    ``deviation`` is |mid b_k - mid b|, b_k and b the certificates of
    the spectral blocks of A_k and of the base: r_k and the base
    certificate themselves unless the base is reducible.  It is shown,
    not checked: ``ok`` is ``run_trace``'s rule.  ``extra`` holds the
    values the trace's ``columns`` name: the bound ||B_k - B||_F /
    q*(B) (irreducible), the block interval (b_lo, b_hi) and that bound
    (reducible) or F_p ~ ||A_k^p||_1^(1/p) (nilpotent).
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

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def run_trace(
    spec: SequenceSpec, tol=solver.DEFAULT_TOL, max_iter=solver.DEFAULT_MAX_ITER
) -> ConvergenceTrace:
    """Trace the sequence with the check its base's structure calls for.

    * Nilpotent base of index p: the radius of any matrix is at most any
      consistent norm of it, and rho(A)^p = rho(A^p), so lo(r_k) <=
      f_p(A_k) = ||A_k^p||_1^(1/p).  A row prints ``_gelfand_steps``'
      F_p as ``power_bound`` and passes by ``gelfand_trace``'s rule.
      This case is tested first: [[0]] is irreducible by convention,
      and nilpotent too.
    * Any other base: B is its spectral block, the whole base when it
      is irreducible, and B_k the same positions of A_k, with
      certificates b and b_k.  B is irreducible, so rho(B_k) lies in
      the enclosure ``solver._moduli`` forms from b, as
      ``perturb.continuity_certificate`` does: the bracket of b's left
      witness widened by ||B_k - B||_F / q*(B) on the difference of the
      stored floats, each step rounded outward, sound whether or not b
      converged.  Each row carries that bound, and passes when b_k
      meets its enclosure and lo(b_k) <= hi(r_k): B_k is a principal
      submatrix of A_k.  For an irreducible base b_k = r_k and b is the
      base certificate.  A reducible base is certified first, as
      ``perron_root`` would; its certificate's ``spectral_block`` picks
      B, and b is its block certificate there.

    Each chunk of terms is built and validated as one (k, n, n) stack,
    and certified with its spectral blocks, gathered by one index, and,
    in the first chunk, a base not yet certified, each as ``perron_root``
    would.  A chunk of positive terms goes as its stack, with no normal
    form built, copied only where ``solver._perron_roots`` joins it to
    other matrices of its size (the base's, in a first chunk).  The
    nilpotent F_p and d_p of a chunk come from one ``_gelfand_steps``
    call, the bounds and enclosures from one ``solver._moduli`` call.
    """
    fnf = spec.normal_form
    p = fnf.nilpotency_index
    summary = {}
    base_cert = None
    if p is not None:
        kind, columns = "nilpotent", ("power_bound",)
        summary["nilpotency"] = p
    elif fnf.irreducible:
        kind, columns, block = "irreducible", ("bound",), spec.base
    else:
        kind, columns = "reducible", ("b_lo", "b_hi", "bound")
        base_cert = solver._perron_roots([fnf], tol, max_iter)[0]
        block_index = summary["spectral_block_index"] = base_cert.spectral_block
        start, end = fnf.blocks[block_index]
        # the spectral block's positions in every term, read off unpermuted
        block_at = fnf.perm[start:end]
        block, block_cert = fnf.block_matrices[block_index], base_cert.blocks[block_index]

    rows = []
    per_chunk = max(1, _CHUNK_ENTRIES // fnf.n**2)
    for first in range(1, spec.count + 1, per_chunk):
        ks = range(first, min(first + per_chunk, spec.count + 1))
        terms = spec._terms(ks)
        items = ([fnf] if base_cert is None else []) + [terms]
        if kind == "reducible":
            items.append(np.ascontiguousarray(terms[:, block_at[:, None], block_at]))
        certs = solver._perron_roots(items, tol, max_iter)
        if base_cert is None:
            base_cert = block_cert = certs.pop(0)
        if kind == "nilpotent":
            f_p, d_p = (a[:, -1].tolist() for a in _gelfand_steps(terms, p))
        else:  # items[-1] holds the B_k
            bounds, lows, highs = (
                v.tolist() for v in solver._moduli(block_cert, items[-1] - block)[2:])
        for i, k in enumerate(ks):
            # b_k: the last certificates are those of the B_k
            cert, b = certs[i], certs[i - len(ks)]
            deviation = abs(b.mid - block_cert.mid)
            if kind == "nilpotent":
                ok, extra = _holds(f_p[i], d_p[i], cert.lo), (f_p[i],)
            else:
                ok = lows[i] <= b.hi and b.lo <= highs[i] and b.lo <= cert.hi
                extra = (bounds[i],) if b is cert else (b.lo, b.hi, bounds[i])
            rows.append(TraceRow(
                k=k, scale=spec.scale(k), cert=cert, deviation=deviation, ok=ok, extra=extra))
    return ConvergenceTrace(
        kind=kind, columns=columns, base_cert=base_cert, rows=tuple(rows), **summary
    )


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


def _gelfand_steps(xs: np.ndarray, m_max: int):
    """F_m, the computed f_m = ||x^m||_1^(1/m), and a bound d_m on its
    relative round-off, for m = 1..m_max and each x of the (k, n, n)
    stack ``xs``: two (k, m_max) arrays, the same bit for bit for a
    matrix alone or in a stack.  F_m is within d_m f_m + 2^-1074 of f_m
    for any finite nonnegative x, the 2^-1074 for rounding F_m below the
    normal range, and inf where f_m (1 + d_m) reaches the largest float.
    ||x^m||_1 is the largest entry nu_m of 1^T x^m; F_1 = nu_1, and F_m
    = d_m = 0 from the first nu_m = 0.

    BLAS chain.  The column sums, then one ``np.matmul`` a step for the
    stack, each vector divided by its nu_m first; F_m = exp(L_m / m),
    L_m = sum_(j<=m) log nu_j.  Round-off (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3; gamma_k = ku / (1 - ku)):
    the column sums are within gamma_(n-1), each division within u and
    each product of nonnegative factors within gamma_n, and the max is
    exact, so P_m = prod_(j<=m) nu_j is ||x^m||_1 up to phi =
    gamma_(m(n+1)).  With 2 ulps for numpy's log and exp (its tests hold
    them to 1), the exponent is off by at most u A_m (1 + 5/m) + phi /
    (m (1 - phi)), A_m = sum_(j<=m) |log nu_j|, the last term <= 2 (n +
    1) u for m (3n + 2) u <= 1/2, assumed throughout; exp adds 4u, so
    d_m = 1.01 expm1(u A_m (1 + 5/m) + (2n + 6) u).  A matrix takes this
    chain where nu_1 lies in [2^-500, 2^1020] and no step can leave the
    normal range: each divided vector is at most 1, so every entry stays
    below nu_1; and for l the least positive entry of x, the m-th
    divided vector's positive entries are >= b_m = prod_(j<=m) l / nu_j,
    so l >= 2^-1022 and b_m min(1, l) >= 2^-1021 keep step m + 1 normal.

    Extended chain, for every other matrix.  x and 1^T x^m are held as
    ``np.frexp`` splits them, mantissas in [1/2, 1) or 0 and int64
    exponents, so no value leaves the float range.  A step multiplies
    mantissas (within u: the products lie in [1/4, 1)), adds exponents,
    shifts each column's terms to its largest with ``np.ldexp`` (exact
    above 2^-1022, within 2^-1075 below) and sums them (within
    gamma_(n-1)).  The largest term is >= 1/4, so the n shifts lose a
    relative n 2^-1073 at most, below u, and a step is within
    gamma_(n+1): the largest entry mu_m 2^E_m is ||x^m||_1 up to phi, as
    above.  With E_m = q m + r, 0 <= r < m, F_m = 2^q exp2((r + log2
    mu_m) / m): the argument lies in [-1, 1), off by at most 2u/m + 2u
    <= 4u with 2 ulps for numpy's log2, a factor within 2.8u; exp2 adds
    4u, so d_m = 1.01 expm1((2n + 9) u), whatever the scale of x.
    """
    k, n = xs.shape[:2]
    ms = np.arange(1.0, m_max + 1.0)[:, None]
    nus = np.empty((m_max, k, 1))  # nus[m - 1]: nu_m
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v = np.add.reduce(xs, axis=1, keepdims=True)
        low = _min(xs, axis=(1, 2), initial=math.inf, where=xs > 0.0)
        _max(v, axis=2, out=nus[0])
        for m in range(1, m_max):
            # a zero vector turns to NaN, which fmax reads as nu = 0
            v = np.matmul(v / nus[m - 1, :, :, None], xs)
            _max(v, axis=2, out=nus[m])
        nus = np.fmax(nus[:, :, 0], 0.0)
        logs = np.log(nus)
        sums = np.add.accumulate(logs)
        f = np.exp(sums / ms)
        f[0] = nus[0]
        d = 1.01 * np.expm1(
            np.add.accumulate(np.abs(logs)) * (_U + 5.0 * _U / ms) + (2 * n + 6) * _U)
        d[sums == -math.inf] = 0.0
        # the matrices whose BLAS chain may leave the normal range
        wide = ((nus[0] < 2.0**-500) | (2.0**1020 < nus[0]) | (low < 2.0**-1022)
                | (np.multiply.accumulate(low / nus[:-1])
                   * np.minimum(low, 1.0) < 2.0**-1021).any(axis=0))
        if wide.any():
            f[:, wide], d[:, wide] = _extended_steps(xs[wide], m_max)
    return f.T, d.T


def _extended_steps(xs, m_max: int):
    """``_gelfand_steps``' F_m and d_m by its extended chain, for m =
    1..m_max: two (m_max, k) arrays."""
    k, n = xs.shape[:2]
    mx, ex = np.frexp(xs)
    # 1^T x^0 = 1/2 * 2^1; top, mu: each E_m and mu_m
    a, e = np.full((k, n), 0.5), np.ones((k, n), dtype=np.int64)
    top, mu = np.empty((m_max, k), dtype=np.int64), np.empty((m_max, k))
    for m in range(m_max):
        terms, exps = a[:, :, None] * mx, e[:, :, None] + ex
        col = _max(exps, axis=1, initial=_ZERO_EXP, where=terms > 0.0)
        a, shift = np.frexp(np.add.reduce(np.ldexp(terms, exps - col[:, None]), axis=1))
        e = col + shift
        _max(e, axis=1, out=top[m])
        _max(np.where(e == top[m, :, None], a, 0.0), axis=1, out=mu[m])
    ms = np.arange(1, m_max + 1)[:, None]
    q, r = np.divmod(top, ms)
    f = np.ldexp(np.exp2((r + np.log2(mu)) / ms), q)
    f[0] = np.ldexp(mu[0], top[0])
    return f, np.where(mu > 0.0, 1.01 * math.expm1((2 * n + 9) * _U), 0.0)


def _holds(f: float, d: float, lo: float) -> bool:
    """Whether F and d of an f >= rho from ``_gelfand_steps`` clear lo:
    F >= lo (1 - d - 2u) - 2^-1073 (see ``gelfand_trace``)."""
    return f >= lo * (1.0 - d - 2.0 * _U) - 2.0 * _TINY


def gelfand_trace(
    x, m_max: int, tol=solver.DEFAULT_TOL, max_iter=solver.DEFAULT_MAX_ITER
) -> GelfandTrace:
    """Trace f_m = ||X^m||_1^(1/m) against the certified radius of X.

    Every f_m dominates the radius, and F_m is within d_m f_m + 2^-1074
    of it (``_gelfand_steps``), so row m passes when F_m is at least the
    floor fl(lo fl(1 - d_m - 2u)) - 2^-1073, which stays below lo (1 -
    d_m) - 2^-1074 also where the product rounds below the normal range.
    A radius above the largest float raises ValueError: f_m - rho cannot
    be formed.
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
    f, d = (a[0].tolist() for a in _gelfand_steps(mat[None], m_max))
    rows = tuple(
        GelfandRow(m=m, f_m=f_m, residual=f_m - cert.mid, bound=d_m,
                   ok=_holds(f_m, d_m, cert.lo))
        for m, f_m, d_m in zip(range(1, m_max + 1), f, d)
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
    overflows, raises ValueError; so does an empty ``alphas``, or an
    alpha that is not positive and finite, before any work.  The scaled
    copies go through ``_gelfand_steps`` as one stack.

    Write F, F' for the computed f_m(X), f_m(Y) with Y = fl(alpha X),
    d, d' for their bounds from ``_gelfand_steps``, and M for mid(X).
    Each of F, F' is within d f + 2t of its exact value, t = 2^-1075.
    Y is alpha X up to a relative eps per entry: u where its nonzero
    entries are normal, up to t over its smallest one where not, and 1
    where an entry rounded to zero; f_m is monotone and homogeneous, so
    f_m(Y) is alpha f_m(X) up to eps.  Hence |F' - alpha F| <= alpha f
    (d' (1 + eps) + eps + d) + 2 (alpha + 1) t, f <= (F + 2t) / (1 - d).
    The row residual F' - fl(alpha M) and expected = fl(alpha fl(F -
    M)) add at most u (alpha M + |residual| + 2 |expected|) + 2t, and
    their difference is F' - alpha F; the t terms, 2 (alpha + 2) t in
    all, are counted as (alpha + 3) 2^-1074.  The bound is that sum over
    |expected|, times 1.01 for second-order terms and the rounding of
    rel_err (infinite where expected underflows to zero).  It grows with
    |log f_m| through the BLAS chain's d and d', and the gap ratio f /
    |F - M| amplifies it; a homogeneity defect of 1e-9 stays far above
    it at any scale in the normal range.

    ``vacuous`` is set when |F - M| is within the certificate's width
    plus F's own error bound: the gap is then indistinguishable from
    zero, relative to the size of f_m at any scale.

    ``x`` may also be X's :class:`GelfandTrace` with m up to its m_max:
    its certificate and its row m's F and d are then reused, not
    recomputed, and ``tol`` and ``max_iter`` are not used.  A matrix is
    traced to m by ``gelfand_trace`` first.
    """
    m = int(m)
    alphas = [float(alpha) for alpha in alphas]
    if not alphas or not all(0.0 < alpha < math.inf for alpha in alphas):
        raise ValueError(f"alphas must be non-empty, positive and finite, got {alphas}")
    if not isinstance(x, GelfandTrace):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        x = gelfand_trace(x, m, tol, max_iter)
    if not 1 <= m <= len(x.rows):
        raise ValueError(f"m must be in 1..{len(x.rows)} for this trace, got {m}")
    mat, cert, row = x.matrix, x.cert, x.rows[m - 1]
    f, d = row.f_m, row.bound
    residual = f - cert.mid
    vacuous = abs(residual) <= cert.width + d * f + _TINY
    rows = []
    if not vacuous:
        f_hi = (f + _TINY) / (1.0 - d) if d < 1.0 else math.inf
        with np.errstate(over="ignore"):
            stack = np.multiply.outer(alphas, mat)
        over = _max(stack, axis=(1, 2)) == math.inf
        if over.any():
            raise ValueError(f"alpha {alphas[over.argmax()]} times the matrix overflows")
        smallest = _min(stack, axis=(1, 2), initial=math.inf, where=stack > 0.0)
        epsilons = np.where(
            np.count_nonzero(stack, axis=(1, 2)) < np.count_nonzero(mat), 1.0,
            np.where(smallest < 2.0**-1022, np.maximum(_U, _TINY / smallest), _U)).tolist()
        fs, ds = (a[:, -1].tolist() for a in _gelfand_steps(stack, m))
        for alpha, eps, f_scaled, d_scaled in zip(alphas, epsilons, fs, ds):
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
