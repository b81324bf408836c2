"""Convergence traces over matrix sequences A_k = base + s_k * direction.

``run_trace`` checks each certified root r_k with the inequality the
base's structure calls for: the norm bound hi(r_k)^p <= ||A_k^p||_1 for
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

from . import matcore, solver, structure

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

# absolute slack for the nilpotent check, applied in the p-th power domain
NILPOTENT_SLACK = 1e-10
# allowance for log/exp round-off when checking f_m against lo(rho)
GELFAND_RTOL = 4e-14
# scaling rows must reproduce alpha * residual to this relative error
HOMOGENEITY_RTOL = 1e-12
# _gelfand_values prescales a matrix whose 1-norm exceeds this
_GELFAND_MAX_NORM = 2.0**1020


@dataclass(frozen=True)
class SequenceSpec:
    """A finite matrix sequence base + s_k * direction, k = 1..count.

    ``rule`` picks the scale schedule: "inv-k" gives coeff/k, "inv-k2"
    gives coeff/k^2, "geom" gives coeff * gamma^k (0 < gamma < 1).  All
    three decrease strictly to zero.  Terms must stay entrywise
    nonnegative; by default an offending term raises, with ``clamp``
    negative entries are set to zero instead.  ``normal_form`` is the
    base's structure, computed once here for every trace of the spec.
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
        """The k-th matrix of the sequence, guaranteed nonnegative."""
        a = self.base + self.scale(k) * self.direction
        if self.clamp:
            return np.maximum(a, 0.0)
        if np.any(a < 0.0):
            i, j = np.argwhere(a < 0.0)[0]
            raise ValueError(
                f"term k={k} leaves the nonnegative cone at ({i}, {j})"
            )
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
      consistent norm of it, and rho(A)^p = rho(A^p), so hi(r_k)^p <=
      ||A_k^p||_1 must hold up to round-off slack.  This case is tested
      first: [[0]] is irreducible by convention, and nilpotent too.
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
    """
    fnf = spec.normal_form
    p = fnf.nilpotency_index
    d_norm = matcore.frobenius_norm(spec.direction)
    summary = {}
    last_block = None
    if p is not None:
        kind, columns = "nilpotent", ("power_bound",)
        summary["nilpotency"] = p
        base_cert = solver.perron_root(fnf, tol=tol, max_iter=max_iter)

        def check(term, cert, s, deviation):
            norm_p = matcore.one_norm_mat(np.linalg.matrix_power(term, p))
            return cert.hi**p <= norm_p + NILPOTENT_SLACK, (norm_p ** (1.0 / p),)

    elif fnf.irreducible:
        kind, columns = "irreducible", ("bound",)
        base_cert = solver.perron_root(fnf, tol=tol, max_iter=max_iter)
        if not base_cert.converged:
            raise ValueError(
                f"base certificate did not converge within max_iter={max_iter}, "
                "so q_star is not reliable; raise max_iter or tol"
            )
        per_scale = d_norm / solver.q_star(base_cert)

        def check(term, cert, s, deviation):
            bound = s * per_scale
            return deviation <= bound + cert.width + base_cert.width, (bound,)

    else:
        kind, columns = "reducible", ("b_lo", "b_hi")
        block_index, block_certs = solver._spectral_block(fnf, tol, max_iter)
        summary["spectral_block_index"] = block_index
        start, end = fnf.blocks[block_index]
        base_cert = solver._combine(block_certs)

        def check(term, cert, s, deviation):
            nonlocal last_block
            permuted = matcore.apply_symmetric_permutation(term, fnf.perm)
            last_block = solver.perron_root(
                permuted[start:end, start:end], tol=tol, max_iter=max_iter
            )
            return last_block.lo <= cert.hi, (last_block.lo, last_block.hi)

    rows = []
    for k in range(1, spec.count + 1):
        s = spec.scale(k)
        term = spec.term(k)
        cert = solver.perron_root(term, tol=tol, max_iter=max_iter)
        deviation = abs(cert.mid - base_cert.mid)
        ok, extra = check(term, cert, s, deviation)
        rows.append(
            TraceRow(k=k, scale=s, cert=cert, deviation=deviation, ok=ok, extra=extra)
        )
    if last_block is not None:
        # the block's own mid, not one rebuilt from (b_lo, b_hi): mid
        # guards against overflow of lo + hi
        summary["final_deviation"] = abs(last_block.mid - base_cert.mid)
        summary["final_threshold"] = (
            2.0 * spec.scale(spec.count) * d_norm * fnf.n
            + last_block.width
            + base_cert.width
        )
    return ConvergenceTrace(
        kind=kind, columns=columns, base_cert=base_cert, rows=tuple(rows), **summary
    )


@dataclass(frozen=True)
class GelfandRow:
    m: int
    f_m: float
    residual: float  # f_m - mid of the radius certificate
    ok: bool


@dataclass(frozen=True)
class GelfandTrace:
    cert: solver.PerronCertificate
    rows: tuple[GelfandRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _times_pow2(v: float, e: int) -> float:
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.inf


def _gelfand_values(x: np.ndarray, m_max: int) -> list[float]:
    # f_m = ||x^m||_1^(1/m) for m = 1..m_max.  The running power is
    # renormalized every step and only log-norms accumulate, so large
    # m cannot overflow: every norm taken is at most about ||x||_1.  A
    # matrix whose norm is near or above the largest float is first
    # scaled by an exact power of two 2^-e, just below it; f_m is
    # homogeneous, so f_m(x) = 2^e f_m(2^-e x), inf above the largest
    # float.  m = 1 is returned exactly (no exp/log trip).
    e = 0
    with np.errstate(over="ignore"):
        big = not x.sum(axis=0).max() <= _GELFAND_MAX_NORM
    if big:
        e = math.frexp(float(x.max()))[1] + x.shape[0].bit_length() - 1020
        x = np.ldexp(x, -e)
    vals = []
    cur = x.copy()
    log_acc = 0.0
    dead = False  # set once x^m is exactly zero; it stays zero after
    for m in range(1, m_max + 1):
        if dead:
            vals.append(0.0)
            continue
        if m > 1:
            cur = cur @ x
        nrm = matcore.one_norm_mat(cur)
        if nrm == 0.0:
            dead = True
            vals.append(0.0)
            continue
        f = nrm if m == 1 else math.exp((log_acc + math.log(nrm)) / m)
        vals.append(_times_pow2(f, e))
        cur = cur / nrm
        log_acc += math.log(nrm)
    return vals


def _finite_radius(m, tol, max_iter) -> solver.PerronCertificate:
    cert = solver.perron_root(m, tol=tol, max_iter=max_iter)
    if cert.hi == math.inf:
        raise ValueError(
            "the spectral radius exceeds the largest float, so f_m - rho is "
            "not representable; scale the matrix down"
        )
    return cert


def gelfand_trace(
    x, m_max: int, tol=solver.DEFAULT_TOL, max_iter=solver.DEFAULT_MAX_ITER
) -> GelfandTrace:
    """Trace f_m = ||X^m||_1^(1/m) against the certified radius of X.

    Every f_m dominates the radius, so rows are checked against lo of
    the certificate (with a tiny relative allowance for the log-space
    round-off in f_m).  A radius above the largest float raises
    ValueError: f_m - rho cannot be formed.
    """
    m = matcore.nonneg_matrix(x)
    m_max = int(m_max)
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    cert = _finite_radius(m, tol, max_iter)
    floor = cert.lo * (1.0 - GELFAND_RTOL)
    rows = tuple(
        GelfandRow(m=i + 1, f_m=v, residual=v - cert.mid, ok=v >= floor)
        for i, v in enumerate(_gelfand_values(m, m_max))
    )
    return GelfandTrace(cert=cert, rows=rows)


@dataclass(frozen=True)
class HomogeneityRow:
    alpha: float
    residual: float  # f_m(alpha X) - alpha * mid, freshly computed
    expected: float  # alpha * residual(X)
    rel_err: float
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
    noise.  Each row must reproduce alpha * residual(X) to relative
    1e-12; residuals grow without bound as alpha grows.  A radius above
    the largest float, or an alpha X that overflows, raises ValueError.
    """
    mat = matcore.nonneg_matrix(x)
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    cert = _finite_radius(mat, tol, max_iter)
    f = _gelfand_values(mat, m)[-1]
    residual = f - cert.mid
    # below certificate width (or eps-level noise) the gap is not
    # meaningfully nonzero and scaling it demonstrates nothing
    vacuous = abs(residual) <= max(cert.width, 1e-12 * max(1.0, f))
    rows = []
    if not vacuous:
        for alpha in alphas:
            alpha = float(alpha)
            if not (alpha > 0.0 and math.isfinite(alpha)):
                raise ValueError(f"alphas must be positive and finite, got {alpha}")
            with np.errstate(over="ignore"):
                scaled = alpha * mat
            if not np.isfinite(scaled).all():
                raise ValueError(f"alpha {alpha} times the matrix overflows")
            f_scaled = _gelfand_values(scaled, m)[-1]
            row_residual = f_scaled - alpha * cert.mid
            expected = alpha * residual
            rel_err = abs(row_residual - expected) / abs(expected)
            rows.append(
                HomogeneityRow(
                    alpha=alpha,
                    residual=row_residual,
                    expected=expected,
                    rel_err=rel_err,
                    ok=rel_err <= HOMOGENEITY_RTOL,
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
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [header] + rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


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
