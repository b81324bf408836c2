"""Dense square matrix primitives: validation, norms, permutations, text I/O.

Matrices are plain float64 numpy arrays.  The validators return fresh
C-contiguous copies, so callers may mutate their own inputs freely; every
other function in the package treats arrays as immutable values.  One
min/max reduction pair checks finiteness and sign.  Matrix text takes
one of three parse routes, all giving the same array (``parse_matrix``).
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
]

# 17 significant digits round-trip any float64 through decimal text.
_FLOAT_FMT = ".17g"
_min, _max = np.minimum.reduce, np.maximum.reduce


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


def _validated(entries) -> tuple[np.ndarray, float]:
    """``square_matrix`` of entries and its smallest entry.  Complex
    entries, which a cast to float would strip of their imaginary parts,
    and entries that are not numbers raise ValueError before any cast."""
    a = np.asarray(entries)
    if a.dtype.kind == "c" or a.dtype == object and any(
            isinstance(v, (complex, np.complexfloating)) for v in a.flat):
        raise ValueError(f"expected real entries, got complex ones ({a.dtype})")
    try:
        a = np.array(a, dtype=np.float64, order="C", copy=True)
    except TypeError as exc:
        raise ValueError(f"expected real entries: {exc}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    lo, hi = float(_min(a, axis=None)), float(_max(a, axis=None))
    if not -math.inf < lo <= hi < math.inf:  # also fails on NaN
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"non-finite entry at ({i}, {j})")
    return a, lo


def square_matrix(entries) -> np.ndarray:
    """Validate a finite square matrix (entries of either sign) and copy it."""
    return _validated(entries)[0]


def nonneg_matrix(entries) -> np.ndarray:
    """Like :func:`square_matrix` but rejects negative entries (no clamping)."""
    a, lo = _validated(entries)
    if lo < 0.0:
        i, j = np.argwhere(a < 0.0)[0]
        raise ValueError(f"negative entry {a[i, j]!r} at ({i}, {j})")
    return a


def permutation(mapping) -> np.ndarray:
    """Validate an index permutation of {0, ..., n-1} and copy it."""
    p = np.array(mapping, dtype=np.intp, copy=True)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("permutation must be a non-empty 1-d index array")
    if not np.array_equal(np.sort(p), np.arange(p.size)):
        raise ValueError(f"not a permutation of 0..{p.size - 1}: {p.tolist()}")
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
    return float(_frobenius_norms(square_matrix(e)[None])[0])


def _frobenius_norms(a) -> np.ndarray:
    """``frobenius_norm`` of each matrix of the valid (k, n, n) stack
    ``a``, bit for bit: one ``np.vecdot`` of the scaled entries per
    matrix, the dot product ``np.linalg.norm`` takes."""
    flat = a.reshape(len(a), -1)
    # the largest |entry|, exactly, without an np.abs copy of the stack
    k = np.frexp(np.maximum(_max(flat, axis=1), -_min(flat, axis=1)))[1]
    scaled = np.ldexp(flat, -k[:, None])
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(np.vecdot(scaled, scaled)), k)


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

    Mostly-zero text at n >= 100 takes the zero route (``_parse_zeros``),
    which converts only the entries other than ``0`` and ``0.0``; other
    text of n rows of n numbers takes ``np.loadtxt``; what both refuse
    takes the token loop, which alone words the errors.  The array is
    the same bit for bit whichever route reads it.
    """
    a = _parse_bulk(text, nonneg)
    return a if a is not None else _parse_tokens(text, nonneg)


def _parse_bulk(text: str, nonneg: bool) -> np.ndarray | None:
    # the zero route, else numpy's C reader on the data lines; None sends
    # anything but n rows of n finite (nonnegative if asked) entries to the
    # token loop, which alone words the errors and also takes what float()
    # takes and loadtxt does not (1_000)
    a = _parse_zeros(text)
    if a is None:
        lines = [s for s in (raw.strip() for raw in text.splitlines())
                 if s and not s.startswith("#")]
        try:
            n = int(lines[0]) if lines else 0
            if n < 1 or len(lines) != n + 1:
                return None
            # n rows, checked above: the result is allocated once at its size
            a = np.loadtxt(lines[1:], dtype=np.float64, comments=None, ndmin=2, max_rows=n)
        except ValueError:
            return None
        if a.shape != (n, n):
            return None
    # one min/max pair, as in _validated: it also fails on NaN
    lo, hi = _min(a, axis=None), _max(a, axis=None)
    if not -math.inf < lo <= hi < math.inf or (nonneg and lo < 0.0):
        return None
    return a


# Bytes per block of whole lines that _parse_zeros tokenizes at once: its
# masks and token starts peak at about 2.1 MB on an n = 800 file, 19 MB
# with the whole file as one block (blocks end at a \n, so text whose
# lines end in \r alone is one block)
_BLOCK = 1 << 18


def _parse_zeros(text: str) -> np.ndarray | None:
    """The zero route: mostly-zero text at n >= 100 and at most 6 bytes
    per entry (repr text with 10% nonzeros takes about 5.6 and reads
    faster here; dense text, near 19, reads faster by loadtxt).  numpy
    finds where the tokens of each block of lines start, and the first
    four bytes of each tell ``0`` and ``0.0`` from the rest.  Only the
    rest go through ``float()``, each on the text from its start to the
    next token's (or the block's end).

    None for anything else: text that is not ASCII or holds a control
    byte other than tab, ``\\n`` and ``\\r``, a first line that is not the
    dimension alone, rows that are not n lines of n tokens, or a token
    float() refuses.  float() is what the token loop calls (so ``1_000``
    reads as there), and it and loadtxt both round correctly, so the
    array is the one the loadtxt route gives.
    """
    head = text[:32].split(None, 1)  # the dimension, without a copy of the text
    try:
        n = int(head[0]) if len(head) == 2 and text.isascii() else 0
    except ValueError:
        return None
    # n rows of n tokens take more than 2n^2 bytes, so n * n floats fit
    if n < 100 or not 2 * n * n < len(text) <= 6 * n * n:
        return None
    start = 32 - len(head[1])  # the offset of the first token after n
    if not text[:start].rstrip(" \t").endswith(("\n", "\r")):
        return None  # n is not alone on its line
    raw = text.encode("ascii")
    out = np.zeros(n * n)
    k = 0  # entries read
    while start < len(raw):
        stop = raw.find(b"\n", start + _BLOCK) + 1 or len(raw)
        size = stop - start
        # the block between three blanks each side: byte i at p[3 + i]
        p = np.full(size + 6, 32, np.uint8)
        p[3:-3] = np.frombuffer(raw, np.uint8, size, start)
        ctrl = np.flatnonzero(p < 32)
        kind = p[ctrl]
        if ((kind != 9) & (kind != 10) & (kind != 13)).any():
            return None
        brk = ctrl[kind != 9] - 3  # the line breaks
        # token starts: a byte above blank after a blank
        sep = p <= 32
        starts = np.flatnonzero(sep[2:2 + size] > sep[3:3 + size])
        if len(starts) % n or k + len(starts) > n * n:
            return None
        # each row's n tokens on one line, each row on a later line
        row0 = np.searchsorted(brk, starts[::n])
        row1 = np.searchsorted(brk, starts[n - 1::n])
        if (row0 != row1).any() or (row1[:-1] >= row0[1:]).any():
            return None
        # the tokens 0 and 0.0, told apart by the first four bytes of each
        b0, b1, b2, b3 = (p[3 + j:][starts] for j in range(4))
        zero = (b0 == 48) & ((b1 <= 32) | (b1 == 46) & (b2 == 48) & (b3 <= 32))
        # each other token runs to the next start, or to the block's end:
        # float() strips the blanks after it
        nonzero = np.flatnonzero(~zero)
        bounds = np.append(starts, size)[np.stack((nonzero, nonzero + 1))] + start
        try:
            out[k + nonzero] = [float(text[i:j]) for i, j in zip(*bounds.tolist())]
        except ValueError:
            return None
        k += len(starts)
        start = stop
    return out.reshape(n, n) if k == n * n else None


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
    """Parse the matrix file at path.  The file is UTF-8 text, with or
    without a byte-order mark; other bytes are a format error."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"not UTF-8 text: {exc.reason}") from None
    return parse_matrix(text, nonneg=nonneg)


def write_matrix_file(path, a) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_matrix(a))
