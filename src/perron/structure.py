"""Digraph structure of a nonnegative matrix.

The digraph has an edge i -> j exactly when ``a[i, j] > 0`` (strict, no
epsilon: pattern questions are combinatorial, tolerances belong to the
solver).  Strongly connected components give the irreducibility test and
the block-upper-triangular normal form with irreducible diagonal blocks.

Convention: every 1x1 matrix counts as irreducible, including ``[[0]]``,
which keeps the block decomposition total.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import matcore

__all__ = [
    "FrobeniusNormalForm",
    "strongly_connected_components",
    "is_irreducible",
    "frobenius_normal_form",
    "is_nilpotent",
    "nilpotency_index",
    "spectral_block",
]


def _adjacency(m: np.ndarray) -> list[list[int]]:
    """Out-neighbor lists in ascending index order (fixes iteration order)."""
    rows, cols = np.nonzero(m > 0.0)
    bounds = np.searchsorted(rows, np.arange(m.shape[0] + 1)).tolist()
    cols = cols.tolist()
    return [cols[s:e] for s, e in zip(bounds, bounds[1:])]


def strongly_connected_components(a) -> list[list[int]]:
    """SCCs of the positivity digraph, Tarjan's algorithm, iterative.

    Components are returned in a topological order of the condensation
    (every edge between distinct components points from an earlier
    component to a later one), with each component's vertices ascending.
    Output is deterministic for a fixed input.
    """
    m = matcore.square_matrix(a)
    n = m.shape[0]
    adj = _adjacency(m)

    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # explicit call stack of (vertex, next neighbor position)
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = adj[v]
            while pos < len(neighbors):
                w = neighbors[pos]
                pos += 1
                if index[w] == -1:
                    work.append((v, pos))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    # Tarjan emits a component only after everything it reaches, i.e. in
    # reverse topological order; flip so edges point forward.
    sccs.reverse()
    return sccs


@dataclass(frozen=True)
class FrobeniusNormalForm:
    """Permutation and block partition with PtAP block upper triangular.

    ``perm`` maps new index -> old index, so the permuted matrix is
    ``apply_symmetric_permutation(matrix, perm)``.  ``blocks`` are half-open
    ``(start, end)`` ranges in permuted coordinates; ``block_matrices``
    are the corresponding irreducible diagonal blocks.  ``irreducible``
    and ``nilpotency_index`` (None unless nilpotent) are read off the
    blocks.  All arrays are read-only.
    """

    matrix: np.ndarray
    perm: np.ndarray
    blocks: tuple[tuple[int, int], ...]
    block_matrices: tuple[np.ndarray, ...]
    irreducible: bool
    nilpotency_index: int | None

    @property
    def n(self) -> int:
        return self.perm.size

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(end - start for start, end in self.blocks)


def frobenius_normal_form(a) -> FrobeniusNormalForm:
    """Decompose into irreducible diagonal blocks in topological order.

    Entries of the permuted matrix below the block diagonal are exactly
    zero; each diagonal block is irreducible (1x1 blocks by convention).

    When every off-diagonal entry is positive the digraph is complete,
    so the matrix is one block and Tarjan is skipped (``perm`` is
    0..n-1).  The check rejects a zero in row 0 first, which makes it
    O(n) on a sparse matrix, and counts nonzeros without an n x n
    temporary.

    The matrix is nilpotent iff every block is a 1x1 zero.  Entry (i, j)
    of a^k is positive iff a walk of k edges leads from i to j (products
    of nonnegative entries cannot cancel), so the index is the vertex
    count of the longest path: exact where float powers underflow.
    """
    m = matcore.nonneg_matrix(a)
    m.flags.writeable = False
    n = m.shape[0]
    complete = (
        np.count_nonzero(m[0]) - (m[0, 0] != 0.0) == n - 1
        and np.count_nonzero(m) - np.count_nonzero(m.diagonal()) == n * (n - 1)
    )
    comps = [list(range(n))] if complete else strongly_connected_components(m)
    perm = np.array([v for comp in comps for v in comp], dtype=np.intp)
    perm.flags.writeable = False
    ends = list(itertools.accumulate(len(comp) for comp in comps))
    blocks = tuple(zip([0] + ends[:-1], ends))
    if len(comps) == 1:  # perm is 0..n-1: the read-only m is the block
        mats = (m,)
    else:
        permuted = m[np.ix_(perm, perm)]
        mats = tuple(permuted[s:e, s:e].copy() for s, e in blocks)
        for mat in mats:
            mat.flags.writeable = False
    index = None
    if len(comps) == n and not m.diagonal().any():
        # acyclic: longest path by depth, in reverse topological order
        adj, depth = _adjacency(m), [0] * n
        for v in reversed(perm.tolist()):
            depth[v] = 1 + max((depth[w] for w in adj[v]), default=0)
        index = max(depth)
    return FrobeniusNormalForm(
        matrix=m, perm=perm, blocks=blocks, block_matrices=mats,
        irreducible=len(comps) == 1, nilpotency_index=index,
    )


def is_irreducible(a) -> bool:
    """True iff the positivity digraph is strongly connected.

    A 1x1 matrix is irreducible by convention, zero entry included.
    """
    return frobenius_normal_form(a).irreducible


def nilpotency_index(a) -> int | None:
    """Smallest p with a^p = 0, or None if the matrix is not nilpotent."""
    return frobenius_normal_form(a).nilpotency_index


def is_nilpotent(a) -> bool:
    return nilpotency_index(a) is not None


def spectral_block(a, tol=None, max_iter=None) -> int:
    """Index of a normal-form diagonal block whose certified Perron
    interval has the greatest midpoint.  Ties go to the lowest index.
    """
    from . import solver  # deferred: solver builds on this module

    if tol is None:
        tol = solver.DEFAULT_TOL
    if max_iter is None:
        max_iter = solver.DEFAULT_MAX_ITER
    return solver._spectral_block(frobenius_normal_form(a), tol, max_iter)[0]
