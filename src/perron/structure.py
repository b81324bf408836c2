"""Digraph structure of a nonnegative matrix.

The digraph has an edge i -> j exactly when ``a[i, j] > 0`` (strict, no
epsilon: pattern questions are combinatorial, tolerances belong to the
solver).  Strongly connected components give the irreducibility test and
the block-upper-triangular normal form with irreducible diagonal blocks.

Only a reducible pattern pays for a Python graph walk.  Strong
connectivity is first read off reachability from vertex 0: a matrix
whose row 0 and column 0 are positive off the diagonal is irreducible
on sight, and from ``_REACH_N`` vertices up a breadth-first search,
one vectorized step per level, settles the rest.  Tarjan's algorithm
runs only where that fails (or below ``_REACH_N``), and its components
fix the normal form, so the result is the same whichever path settled it.

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

# Host-timed cut-over: numpy 2.4, one BLAS thread, a 2-core x86_64 host;
# other hosts move it, never a result (benchmarks/bench_kernels.py times
# both sides).  From _REACH_N vertices up, strong connectivity goes by
# breadth-first search and an acyclic pattern's nilpotency index by
# peeling.  A vectorized level, a search step or a peeling round, costs
# 5-20 us at any n besides its share of one pass over the pattern.  A
# search that settles in few levels pays: a ring with 10% noise at
# n = 800 takes 0.17 ms against Tarjan's 12, one with 5% noise 0.10
# against 0.31 at n = 128 but 0.11 against 0.12 at n = 64.  One that
# fails (a reducible pattern) adds to the walk: 0.04 ms to 0.12 on a DAG
# at n = 48.  Long paths cost a level per vertex: a bare 200-cycle takes
# 2n levels, several times Tarjan's walk
_REACH_N = 64


def _adjacency(p: np.ndarray) -> list[list[int]]:
    """Out-neighbor lists of the boolean pattern p, ascending (fixes
    iteration order)."""
    n = p.shape[0]
    rows, cols = divmod(np.flatnonzero(p), n)
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    return [cols[s:e] for s, e in zip(bounds, bounds[1:])]


def strongly_connected_components(a) -> list[list[int]]:
    """SCCs of the positivity digraph, Tarjan's algorithm, iterative.

    Components are returned in a topological order of the condensation
    (every edge between distinct components points from an earlier
    component to a later one), with each component's vertices ascending.
    Output is deterministic for a fixed input.  A square boolean array
    is taken as the pattern itself, without a validating copy.
    """
    if not (
        isinstance(a, np.ndarray) and a.dtype == np.bool_
        and a.ndim == 2 and a.shape[0] == a.shape[1] >= 1
    ):
        a = matcore.square_matrix(a) > 0.0
    n = a.shape[0]
    adj = _adjacency(a)

    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # explicit call stack of (vertex, its neighbor iterator, its
        # position on the component stack)
        work = [(root, iter(adj[root]), 0)]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, neighbors, at = work[-1]
            for w in neighbors:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    work.append((w, iter(adj[w]), len(stack)))
                    stack.append(w)
                    on_stack[w] = True
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                low = lowlink[v]
                if low == index[v]:
                    comp = stack[at:]
                    del stack[at:]
                    for w in comp:
                        on_stack[w] = False
                    comp.sort()
                    sccs.append(comp)
                elif low < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = low

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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _settle(m: np.ndarray) -> tuple[bool | None, np.ndarray | None]:
    """Strong connectivity of m's digraph by reachability from vertex 0.

    Returns the verdict, or None below ``_REACH_N`` vertices, where it
    is left to Tarjan, and the boolean pattern once formed.  The first
    level is row 0 and column 0: positive off the diagonal, they make
    every vertex reach 0 and be reached from it, so the matrix is
    irreducible, a 1x1 one included, whatever its size.
    """
    n = m.shape[0]
    star = np.count_nonzero(m[0]) + np.count_nonzero(m[:, 0]) - 2 * (m[0, 0] != 0.0)
    if star == 2 * n - 2:
        return True, None
    p = m > 0.0
    if n < _REACH_N:
        return None, p
    return _reaches_all(p), p


def _reaches_all(p: np.ndarray) -> bool:
    """Whether breadth-first search from vertex 0, along p's edges and
    against them, reaches every vertex."""
    n = p.shape[0]
    for out in (True, False):
        seen = (p[0] if out else p[:, 0]).copy()
        seen[0] = True
        frontier, count = seen, np.count_nonzero(seen)
        while count < n:
            idx = np.flatnonzero(frontier)
            frontier = (p[idx].any(axis=0) if out else p[:, idx].any(axis=1)) & ~seen
            new = np.count_nonzero(frontier)
            if not new:
                return False
            count += new
            seen |= frontier
    return True


def _peeled_index(p: np.ndarray) -> int:
    """Nilpotency index of an acyclic pattern: the rounds it takes to
    remove every vertex, each round removing those with no in-edge from
    the rest, which is the vertex count of the longest path."""
    indegree = np.count_nonzero(p, axis=0)
    left, rounds = p.shape[0], 0
    while left:
        sources = np.flatnonzero(indegree == 0)
        indegree[sources] = -1
        indegree -= np.count_nonzero(p[sources], axis=0)
        left -= sources.size
        rounds += 1
    return rounds


def frobenius_normal_form(a) -> FrobeniusNormalForm:
    """Decompose into irreducible diagonal blocks in topological order.

    Entries of the permuted matrix below the block diagonal are exactly
    zero; each diagonal block is irreducible (1x1 blocks by convention).

    Where reachability from vertex 0 settles irreducibility (see
    ``_settle``) Tarjan is skipped: the matrix is one block, ``perm`` is
    0..n-1 and the read-only matrix itself is the block.  Otherwise
    Tarjan's components fix ``perm`` and the blocks, each gathered on
    its own (a 1x1 one off the diagonal) without a permuted n x n copy.

    The matrix is nilpotent iff every block is a 1x1 zero.  Entry (i, j)
    of a^k is positive iff a walk of k edges leads from i to j (products
    of nonnegative entries cannot cancel), so the index is the vertex
    count of the longest path: exact where float powers underflow.  From
    ``_REACH_N`` vertices up it is counted by peeling sources, below by
    a loop over the vertices in reverse topological order.
    """
    m = _frozen(matcore.nonneg_matrix(a))
    n = m.shape[0]
    irreducible, p = _settle(m)
    comps = None if irreducible else strongly_connected_components(p)
    if comps is None or len(comps) == 1:
        return FrobeniusNormalForm(
            matrix=m, perm=_frozen(np.arange(n, dtype=np.intp)), blocks=((0, n),),
            block_matrices=(m,), irreducible=True,
            nilpotency_index=1 if n == 1 and m[0, 0] == 0.0 else None,
        )
    perm = _frozen(np.array([v for comp in comps for v in comp], dtype=np.intp))
    ends = list(itertools.accumulate(len(comp) for comp in comps))
    blocks = tuple(zip([0] + ends[:-1], ends))
    diagonal = _frozen(m.diagonal()[perm].reshape(n, 1, 1))
    mats = tuple(
        diagonal[s] if e - s == 1 else _frozen(m.take(comp, 0).take(comp, 1))
        for (s, e), comp in zip(blocks, comps)
    )
    index = None
    if len(comps) == n and not diagonal.any():
        if n >= _REACH_N:
            index = _peeled_index(p)
        else:  # longest path by depth, in reverse topological order
            adj, depth = _adjacency(p), [0] * n
            for v in reversed(perm.tolist()):
                depth[v] = 1 + max((depth[w] for w in adj[v]), default=0)
            index = max(depth)
    return FrobeniusNormalForm(
        matrix=m, perm=perm, blocks=blocks, block_matrices=mats,
        irreducible=False, nilpotency_index=index,
    )


def is_irreducible(a) -> bool:
    """True iff the positivity digraph is strongly connected.

    Answered by reachability from vertex 0 where that settles it (see
    ``_settle``), else by Tarjan; no blocks are built.  A 1x1 matrix is
    irreducible by convention, zero entry included.
    """
    irreducible, p = _settle(matcore.nonneg_matrix(a))
    if irreducible is None:
        irreducible = len(strongly_connected_components(p)) == 1
    return irreducible


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
