"""Seeded random matrix generators shared by the test files."""

import numpy as np


def random_nonneg(rng, n, scale=10.0, density=1.0):
    a = rng.uniform(0.0, scale, size=(n, n))
    if density < 1.0:
        a = a * (rng.random((n, n)) < density)
    return a


def random_irreducible(rng, n, scale=1.0, density=0.5):
    """Cycle backbone plus sparse nonnegative noise.

    The cycle keeps the positivity digraph strongly connected no matter
    what the noise does, and its weights are bounded away from zero so
    generated matrices never have vanishing column sums.
    """
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = rng.uniform(0.5, 1.5) * scale
    noise = rng.uniform(0.0, scale, size=(n, n)) * (rng.random((n, n)) < density)
    return a + noise


def flip_to_cone(a, e):
    """Flip signs of perturbation entries that would push a + e negative.

    Sign flips preserve the Frobenius norm exactly, so the perturbation
    keeps its intended size while a + e stays nonnegative.
    """
    e = e.copy()
    bad = a + e < 0.0
    e[bad] = -e[bad]
    return e


def planted_block_matrix(rng, max_blocks=4, max_block_size=3, coupling=0.5):
    """Random block upper triangular matrix scrambled by a relabeling.

    Diagonal blocks are irreducible (1x1 blocks may be zero); entries
    above the block diagonal are sparse nonnegative coupling.  Returns
    the scrambled matrix and the sorted list of planted block sizes.
    """
    k = int(rng.integers(1, max_blocks + 1))
    sizes = [int(rng.integers(1, max_block_size + 1)) for _ in range(k)]
    n = sum(sizes)
    a = np.zeros((n, n))
    bounds = []
    start = 0
    for s in sizes:
        if s == 1:
            a[start, start] = 0.0 if rng.random() < 0.3 else rng.uniform(0.2, 2.0)
        else:
            a[start:start + s, start:start + s] = random_irreducible(rng, s)
        bounds.append((start, start + s))
        start += s
    for bi in range(k):
        for bj in range(bi + 1, k):
            si, ei = bounds[bi]
            sj, ej = bounds[bj]
            block = rng.uniform(0.0, 1.0, size=(ei - si, ej - sj))
            a[si:ei, sj:ej] = block * (rng.random(block.shape) < coupling)
    p = rng.permutation(n)
    return a[np.ix_(p, p)], sorted(sizes)


def reducible_base(rng, max_blocks=3, max_block_size=3):
    """Reducible, non-nilpotent base with dense positive diagonal blocks.

    Dense positive blocks keep every block's Perron vectors roughly
    balanced, which keeps block radii moving at the generic O(scale)
    rate under perturbation rather than blowing up through a tiny
    left-vector entry.
    """
    k = int(rng.integers(2, max_blocks + 1))
    sizes = [int(rng.integers(1, max_block_size + 1)) for _ in range(k)]
    n = sum(sizes)
    a = np.zeros((n, n))
    bounds = []
    start = 0
    for s in sizes:
        if s == 1:
            a[start, start] = rng.uniform(0.5, 2.0)
        else:
            a[start:start + s, start:start + s] = random_irreducible(
                rng, s, density=1.0
            )
        bounds.append((start, start + s))
        start += s
    for bi in range(k):
        for bj in range(bi + 1, k):
            si, ei = bounds[bi]
            sj, ej = bounds[bj]
            a[si:ei, sj:ej] = rng.uniform(0.0, 1.0, size=(ei - si, ej - sj))
    return a


def three_block_base(rng, n):
    """Reducible base of the benchmark's converge traces, scrambled: three
    dense positive diagonal blocks at scales 1, 0.6 and 0.3, with sparse
    coupling above them.  Its terms are positive, with spectral gaps
    near 0.6 to 0.7."""
    sizes = (n // 3, n // 3, n - 2 * (n // 3))
    a = np.zeros((n, n))
    start = 0
    for size, scale in zip(sizes, (1.0, 0.6, 0.3)):
        end = start + size
        a[start:end, start:end] = rng.uniform(0.5, 1.5, (size, size)) * scale
        a[start:end, end:] = rng.uniform(0.0, 0.2, (size, n - end)) * (
            rng.random((size, n - end)) < 0.2)
        start = end
    p = rng.permutation(n)
    return a[np.ix_(p, p)]
