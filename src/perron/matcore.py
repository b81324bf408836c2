"""Dense square matrix primitives: validation, norms, permutations, text I/O.

Matrices are plain float64 numpy arrays.  The validators return fresh
C-contiguous copies, so callers may mutate their own inputs freely; every
other function in the package treats arrays as immutable values.
"""

import math

import numpy as np

__all__ = [
    "MatrixFormatError",
    "square_matrix",
    "nonneg_matrix",
    "permutation",
    "one_norm_vec",
    "one_norm_mat",
    "frobenius_norm",
    "apply_symmetric_permutation",
    "parse_matrix",
    "render_matrix",
    "read_matrix_file",
    "write_matrix_file",
    "format_float",
]

# 17 significant digits round-trip any float64 through decimal text.
_FLOAT_FMT = ".17g"


class MatrixFormatError(ValueError):
    """Malformed matrix text.  Carries 1-based line and token positions."""

    def __init__(self, message, line=None, column=None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.column = column


def format_float(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


def square_matrix(entries) -> np.ndarray:
    """Validate a finite square matrix (entries of either sign) and copy it."""
    a = np.array(entries, dtype=np.float64, order="C", copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"non-finite entry at ({i}, {j})")
    return a


def nonneg_matrix(entries) -> np.ndarray:
    """Like :func:`square_matrix` but rejects negative entries (no clamping)."""
    a = square_matrix(entries)
    if (a < 0.0).any():
        i, j = np.argwhere(a < 0.0)[0]
        raise ValueError(f"negative entry {a[i, j]!r} at ({i}, {j})")
    return a


def permutation(mapping) -> np.ndarray:
    """Validate an index permutation of {0, ..., n-1} and copy it."""
    p = np.array(mapping, dtype=np.intp, copy=True)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("permutation must be a non-empty 1-d index array")
    n = p.size
    seen = np.zeros(n, dtype=bool)
    for idx in p:
        if idx < 0 or idx >= n or seen[idx]:
            raise ValueError(f"not a permutation of 0..{n - 1}: {p.tolist()}")
        seen[idx] = True
    return p


def one_norm_vec(v) -> float:
    """Sum of absolute entries of a vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("expected a 1-d vector")
    if not np.isfinite(v).all():
        raise ValueError("non-finite vector entry")
    return float(np.abs(v).sum())


def one_norm_mat(x) -> float:
    """Maximum absolute column sum.  Submultiplicative, so an upper bound
    on the spectral radius of a square matrix."""
    a = square_matrix(x)
    return float(np.abs(a).sum(axis=0).max())


def frobenius_norm(e) -> float:
    """Square root of the sum of squared entries.  Upper-bounds the
    spectral norm, which is what the perturbation certificates need.

    The entries are squared scaled by an exact power of two 2^-k, with
    the largest |entry| in [1/2, 1), so the squares that matter neither
    overflow nor underflow; the norm is scaled back, inf above the
    largest float.  Where every square stays normal unscaled, this is
    the unscaled norm bit for bit.
    """
    a = square_matrix(e)
    big = float(np.abs(a).max())
    if big == 0.0:
        return 0.0
    k = math.frexp(big)[1]
    norm = float(np.linalg.norm(np.ldexp(a, -k), "fro"))
    try:
        return math.ldexp(norm, k)
    except OverflowError:
        return math.inf


def apply_symmetric_permutation(a, perm) -> np.ndarray:
    """Symmetric relabeling: result[i, j] = a[perm[i], perm[j]].

    The result is similar to ``a`` via a permutation matrix, so every
    spectral quantity is preserved.
    """
    m = square_matrix(a)
    p = permutation(perm)
    if p.size != m.shape[0]:
        raise ValueError(f"permutation size {p.size} != matrix dimension {m.shape[0]}")
    return m[np.ix_(p, p)]


def render_matrix(a) -> str:
    """Text form: dimension line, then one whitespace-separated row per line.

    Floats are rendered with 17 significant digits, so parse(render(a))
    reproduces a bit-exactly.
    """
    m = square_matrix(a)
    n = m.shape[0]
    lines = [str(n)]
    for row in m:
        lines.append(" ".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, nonneg: bool = False) -> np.ndarray:
    """Parse the text matrix format.

    Lines whose first non-blank character is ``#`` are comments; blank
    lines are ignored.  NaN and infinity tokens are rejected.  With
    ``nonneg=True`` a negative entry is a format error as well.
    Errors report 1-based line numbers and token columns.
    """
    a = _parse_bulk(text, nonneg)
    return a if a is not None else _parse_tokens(text, nonneg)


def _parse_bulk(text: str, nonneg: bool) -> np.ndarray | None:
    # numpy's C reader on the data lines; None sends anything but n rows
    # of n finite (nonnegative if asked) entries to the token loop, which
    # alone words the errors and also takes what float() takes (1_000)
    lines = [s for s in (raw.strip() for raw in text.splitlines())
             if s and not s.startswith("#")]
    try:
        n = int(lines[0]) if lines else 0
        if n < 1 or len(lines) != n + 1:
            return None
        a = np.loadtxt(lines[1:], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if a.shape != (n, n) or not np.isfinite(a).all() or (nonneg and (a < 0.0).any()):
        return None
    return a


def _parse_tokens(text: str, nonneg: bool) -> np.ndarray:
    rows = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise MatrixFormatError(
                    f"expected integer dimension, got {line!r}", line=lineno
                ) from None
            if n < 1:
                raise MatrixFormatError(f"dimension must be >= 1, got {n}", line=lineno)
            continue
        if len(rows) >= n:
            raise MatrixFormatError("unexpected content after matrix rows", line=lineno)
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixFormatError(
                f"expected {n} entries, got {len(tokens)}", line=lineno
            )
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                val = float(tok)
            except ValueError:
                raise MatrixFormatError(
                    f"invalid number {tok!r}", line=lineno, column=col
                ) from None
            if not math.isfinite(val):
                raise MatrixFormatError(
                    f"non-finite entry {tok!r}", line=lineno, column=col
                )
            if nonneg and val < 0.0:
                raise MatrixFormatError(
                    f"negative entry {tok!r}", line=lineno, column=col
                )
            row.append(val)
        rows.append((lineno, row))
    if n is None:
        raise MatrixFormatError("empty input, expected a dimension line")
    if len(rows) < n:
        raise MatrixFormatError(f"expected {n} rows, got {len(rows)}")
    return np.array([r for _, r in rows], dtype=np.float64)


def read_matrix_file(path, nonneg: bool = False) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_matrix(text, nonneg=nonneg)


def write_matrix_file(path, a) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_matrix(a))
