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


def near_defective(rng):
    """Near-defective coupled matrix, n = 9..13: a[0, 0] = 1, a[1, 1] =
    1 - g, a[0, 1] = C, a[1, 0] = d, a[0, 2:] = 10^U(0.2, 3), a[2:, 0] =
    10^U(-40, -20), zeros elsewhere.  Drawn in this order: n, then g =
    10^U(-13, -3), C = 10^U(-2, 2), d = 10^U(-40, -10), then the two
    vectors.  The two leading diagonal entries are g apart and coupled
    by C d alone, so the left Perron vector's entries span many orders
    of magnitude, and an approximate left vector can have a least entry
    over its 1-norm well above the Perron vector's."""
    n = int(rng.integers(9, 14))
    g = 10.0 ** rng.uniform(-13.0, -3.0)
    c = 10.0 ** rng.uniform(-2.0, 2.0)
    d = 10.0 ** rng.uniform(-40.0, -10.0)
    a = np.zeros((n, n))
    a[0, 0], a[1, 1], a[0, 1], a[1, 0] = 1.0, 1.0 - g, c, d
    a[0, 2:] = 10.0 ** rng.uniform(0.2, 3.0, n - 2)
    a[2:, 0] = 10.0 ** rng.uniform(-40.0, -20.0, n - 2)
    return a


def exact_radius(rng, sizes, ks, spread, terms):
    """A scrambled block upper triangular matrix whose spectral radius is
    exactly 2^max(ks), or None where a draw has an entry outside the
    normal range, whose rounding would move the radius.

    Diagonal block I, of size sizes[I], is 2^ks[I] D S D^-1: S a sum of
    1 to ``terms`` random permutation matrices with dyadic weights that
    sum to 1, so doubly stochastic, of radius 1 with Perron vectors all
    ones, and D = diag(2^d), each |d| <= spread.  Every entry is formed
    exactly.  Random entries go above the block diagonal, then a random
    symmetric permutation scrambles the blocks."""
    n = sum(sizes)
    a = np.zeros((n, n))
    start, tiny, huge = 0, 2.0**-1022, np.finfo(np.float64).max
    for size, k in zip(sizes, ks):
        t = int(rng.integers(1, terms + 1))
        # t dyadic weights, multiples of 2^-8, summing to 1
        cuts = np.sort(rng.choice(np.arange(1, 256), t - 1, replace=False))
        weights = np.diff(np.concatenate(([0], cuts, [256]))) / 256.0
        s = np.zeros((size, size))
        for w in weights:
            s[np.arange(size), rng.permutation(size)] += w
        d = rng.integers(-spread, spread + 1, size)
        block = np.ldexp(s, k + d[:, None] - d[None, :])
        # an entry of S that went to 0, a subnormal or inf
        if not ((tiny <= block[s > 0.0]) & (block[s > 0.0] <= huge)).all():
            return None
        end = start + size
        a[start:end, start:end] = block
        # multiples of 2^-53 below 1: zero or normal
        a[start:end, end:] = rng.uniform(0.0, 1.0, (size, n - end)) * (
            rng.random((size, n - end)) < 0.5)
        start = end
    p = rng.permutation(n)
    return a[np.ix_(p, p)]
