"""Seeded inputs for the three workloads: one generator, one case manifest.

``build(workload, seed)`` returns the list of operations one pass of the
workload runs.  All randomness comes from one numpy Generator seeded by
(workload, seed), so a seed always gives the same inputs.  The family
sizes and counts are fixed; the seed only draws the entries, which keeps
the cost of a pass nearly the same from seed to seed.

An operation is either ``root`` (``perron.perron_root`` on an array) or a
CLI command (``analyze``, ``certify``, ``converge``, ``gelfand``) on
matrix files that the benchmark writes to a scratch directory.  Each
operation carries the matrices the oracle needs to check its output.
``known_defects(workload)`` lists the fixed inputs the library gets wrong
at present; they run outside the passes (see ``run.py``).
"""

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("analyze_large", "hard_spectra", "certify_converge")

TOL = 1e-12
# hard_spectra certifies with this cap; BENCHMARK.json quotes it in the
# workload's "why".  Capped cases cost 2 * HARD_MAX_ITER sweeps (right and
# left pass), about 0.15 s each with the numpy kernel.
HARD_MAX_ITER = 10_000
# The CLI default (10**6 sweeps) would let one unlucky n=800 draw run for
# minutes; this cap keeps a run inside its time budget and is never
# reached by the generated CLI inputs.
CLI_MAX_ITER = 20_000
CONVERGE_COUNT = 20
# Passes per 15 s of --seconds, about what fits at the commit that
# introduced the benchmark.  A fixed count, not a deadline, so every
# commit measures the same number of samples and the tail (10 samples
# beyond it) keeps its rank.  9 analyze passes put that rank inside the
# 18 samples of the two slowest n=800 files rather than at their edge.
PASSES_PER_15S = {"analyze_large": 9, "hard_spectra": 10, "certify_converge": 27}


@dataclass
class Op:
    """One operation of a pass.

    ``mats`` maps a role to a matrix: ``a`` for root/analyze/gelfand,
    ``a`` and ``a_prime`` for certify, ``base`` and ``direction`` for
    converge.  ``radius`` tells the oracle how to get the radius of the
    first matrix: ``auto`` (numerically), ``zero`` (nilpotent by
    construction) or ``cycle`` (a weighted cycle, radius the geometric
    mean of its weights, where eigensolvers are useless).  ``blocks``
    are the vertex sets of planted irreducible diagonal blocks.
    """

    id: str
    family: str
    command: str
    mats: dict
    max_iter: int = CLI_MAX_ITER
    radius: str = "auto"
    blocks: list | None = None
    args: list = field(default_factory=list)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _permute(rng, a):
    p = rng.permutation(a.shape[0])
    return a[np.ix_(p, p)], p


def ring_noise(rng, n, density, scale=1.0):
    """Cycle backbone (irreducible whatever the noise) plus sparse noise."""
    a = np.zeros((n, n))
    a[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.5, 1.5, n) * scale
    a += rng.uniform(0.0, scale, (n, n)) * (rng.random((n, n)) < density)
    return a


def planted_reducible(rng, n, blocks, zero_rows):
    """Block upper triangular matrix, relabelled by a random permutation.

    ``blocks`` irreducible ring+noise diagonal blocks at distinct
    scales, sparse coupling above the block diagonal, and ``zero_rows``
    trailing vertices with no outgoing edge.  Returns the matrix and the
    vertex sets of the planted blocks.
    """
    m = n - zero_rows
    cuts = np.sort(rng.choice(np.arange(2, m - 1, 2), blocks - 1, replace=False))
    bounds = list(zip(np.r_[0, cuts], np.r_[cuts, m]))
    a = np.zeros((n, n))
    scales = rng.permutation(np.linspace(0.4, 1.6, blocks))
    for (s, e), scale in zip(bounds, scales):
        a[s:e, s:e] = ring_noise(rng, e - s, 0.05, scale)
        a[s:e, e:] = rng.uniform(0.0, 1.0, (e - s, n - e)) * (
            rng.random((e - s, n - e)) < 0.01
        )
    a, p = _permute(rng, a)
    where = np.argsort(p)  # old index -> new index
    return a, [sorted(where[s:e].tolist()) for s, e in bounds]


def nilpotent_dag(rng, n, density, depth):
    """A random DAG's weighted adjacency matrix, randomly relabelled.

    Vertices sit in ``depth`` layers, edges only go to later layers and
    one chain visits every layer, so the nilpotency index is exactly
    ``depth`` whatever the seed.
    """
    layer = np.arange(n) * depth // n
    a = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < density)
    a[layer[:, None] >= layer[None, :]] = 0.0
    heads = np.searchsorted(layer, np.arange(depth))
    a[heads[:-1], heads[1:]] = 1.0
    return _permute(rng, a)[0]


def _analyze_large(rng):
    ops = []
    for n, copies in ((300, 2), (800, 1)):
        for c in range(copies):
            tag = f"n{n}.{c}"
            # ring+noise: parsing (matcore) dominates; 1% vs 10% density
            # changes the cost of SCC and solve but not that of parsing
            ops.append(Op(f"ring1.{tag}", "ring_1pct", "analyze",
                          {"a": ring_noise(rng, n, 0.01)}))
            ops.append(Op(f"ring10.{tag}", "ring_10pct", "analyze",
                          {"a": ring_noise(rng, n, 0.10)}))
            # planted reducible: SCC and normal form (structure) plus one
            # certification per block, zero rows give 1x1 zero blocks
            for k in (6, 20):
                a, planted = planted_reducible(rng, n, k, zero_rows=n // 50)
                ops.append(Op(f"planted{k}.{tag}", f"planted_{k}_blocks", "analyze",
                              {"a": a}, blocks=planted))
            # nilpotent DAG: radius exactly 0, every SCC a singleton, and
            # the nilpotency index (20) costs that many n x n products
            ops.append(Op(f"dag.{tag}", "nilpotent_dag", "analyze",
                          {"a": nilpotent_dag(rng, n, 0.01, depth=20)}, radius="zero"))
    for op in ops:
        op.args = ["--max-iter", str(op.max_iter)]
    return ops


_BASE_2X2 = np.array([[1.0, 2.0], [3.0, 4.0]])
# 2**k * [[1,2],[3,4]] spans subnormal to near-overflow scale; the grid is
# fixed so every seed pays for the same capped middle range
_SCALE_EXPONENTS = (-1074, -1022, -600, -300, -120, -66, -40, -30, -20, -10,
                    0, 10, 100, 300, 600, 1000, 1020)


def _cycle(rng, weak):
    a = np.zeros((6, 6))
    a[np.arange(6), (np.arange(6) + 1) % 6] = 1.0
    i = int(rng.integers(6))
    a[i, (i + 1) % 6] = weak
    return a


def _near_reducible():
    """Two 3x3 positive blocks joined by tiny couplings in both directions,
    two per coupling size, keyed by the coupling."""
    fixed = np.random.default_rng(1407)
    out = []
    for eps in (1e-3, 1e-6, 1e-9, 1e-12):
        for c in range(2):
            a = np.zeros((6, 6))
            a[:3, :3] = fixed.uniform(0.5, 1.5, (3, 3))
            a[3:, 3:] = fixed.uniform(0.5, 1.5, (3, 3))
            a[:3, 3:] = eps * fixed.uniform(0.5, 1.5, (3, 3))
            a[3:, :3] = eps * fixed.uniform(0.5, 1.5, (3, 3))
            out.append((eps, c, a))
    return out


# Inputs on which the library returns an interval that misses the radius,
# or raises.  They stay out of the workload's passes, which must not fail,
# and run once per run instead, untimed, checked against the same oracle
# and reported on their own (``known_defects``), so each shows until fixed.
_DEFECT_SCALES = (-1074, -1022, -600, -300, -120, -66,  # underflow: [0, 0]
                  10, 100, 300, 600, 1000, 1020)  # one float beside the radius
_DEFECT_COUPLING = 1e-9  # hi one ulp below the radius
# an easy dense 2x2, uniform(0, 10) entries, whose hi lands one ulp below
# the radius; about one in 12,000 such draws does
_DEFECT_EASY = [[6.667037720610733, 1.725115609166944],
                [5.4850194618379335, 0.2012541969169379]]


def _hard_spectra(rng):
    ops = []
    # easy: dense random n <= 8 as in acceptance C1; a few dozen sweeps,
    # so per-call overhead, not the sweep count, sets their latency.  Every
    # n from 1 to 8 equally often, so the median does not move with the
    # seed.  Whether one of them misses the radius by an ulp is a rounding
    # accident (about one seed in a hundred would draw one), so they come
    # from a fixed stream; the probe keeps such a miss in view
    fixed = np.random.default_rng(7564)
    for i in range(120):
        n = 1 + i % 8
        ops.append(Op(f"easy.{i}", "easy_dense", "root",
                      {"a": fixed.uniform(0.0, 10.0, (n, n))}))
    # tiny spectral gap sqrt(eps): the shifted iteration contracts by about
    # 1 - sqrt(eps)/2 per sweep, so 1e-6 and 1e-8 run into max_iter
    for eps in (1e-4, 1e-6, 1e-8):
        ops.append(Op(f"gap.{eps:g}", "tiny_gap", "root",
                      {"a": np.array([[1.0, 1.0], [eps, 1.0]])}))
    # scale: the fixed +I shift is absolute, so middle scales stall; the
    # smaller and larger ones are known defects, in the probe
    for k in _SCALE_EXPONENTS:
        if k not in _DEFECT_SCALES:
            ops.append(Op(f"scale.{k}", "scale_2k", "root",
                          {"a": np.ldexp(_BASE_2X2, k)}))
    # weak 6-cycles: radius weight**(1/6), every eigenvalue on that circle,
    # a numerical eigensolver is useless here, hence the closed form
    for weak in (1e-12, 1e-300):
        ops.append(Op(f"cycle.{weak:g}", "weak_cycle", "root", {"a": _cycle(rng, weak)},
                      radius="cycle"))
    # near-reducible: the Perron vector has entries of size ~coupling.
    # Whether one of these misses the radius is a rounding accident, so
    # they come from a fixed stream: with the seed's they would swing
    # the failure count from seed to seed
    for eps, c, a in _near_reducible():
        if eps != _DEFECT_COUPLING:
            ops.append(Op(f"coupled.{eps:g}.{c}", "near_reducible", "root", {"a": a}))
    for op in ops:
        op.max_iter = HARD_MAX_ITER
    return ops


def _hard_spectra_defects():
    ops = [Op(f"scale.{k}", "scale_2k", "root", {"a": np.ldexp(_BASE_2X2, k)})
           for k in _DEFECT_SCALES]
    # entries near overflow: the shifted vector overflows and it raises
    ops.append(Op("scale.1e308", "scale_2k", "root", {"a": np.full((2, 2), 1e308)}))
    ops += [Op(f"coupled.{eps:g}.{c}", "near_reducible", "root", {"a": a})
            for eps, c, a in _near_reducible() if eps == _DEFECT_COUPLING]
    ops.append(Op("easy.ulp", "easy_dense", "root", {"a": np.array(_DEFECT_EASY)}))
    for op in ops:
        op.max_iter = HARD_MAX_ITER
    return ops


def _reducible_base(rng, n):
    # three dense positive diagonal blocks with separated radii, sparse
    # coupling above them
    sizes = (n // 3, n // 3, n - 2 * (n // 3))
    a = np.zeros((n, n))
    start = 0
    for size, scale in zip(sizes, (1.0, 0.6, 0.3)):
        end = start + size
        a[start:end, start:end] = rng.uniform(0.5, 1.5, (size, size)) * scale
        a[start:end, end:] = rng.uniform(0.0, 0.2, (size, n - end)) * (
            rng.random((size, n - end)) < 0.2
        )
        start = end
    a, p = _permute(rng, a)
    where = np.argsort(p)
    starts = np.cumsum((0,) + sizes)
    return a, [sorted(where[s:e].tolist()) for s, e in zip(starts, starts[1:])]


def _certify_converge(rng):
    ops = []
    for n, copies in ((16, 2), (48, 1)):
        for c in range(copies):
            # certify: one base certification (perturb) plus the perturbed
            # radius; the enclosure must hold the perturbed radius.  Five
            # fast operations against six slow ones put the median inside
            # the cheapest converge's samples instead of between clusters
            a = rng.uniform(0.5, 1.5, (n, n))
            e = 1e-3 * rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.3)
            ops.append(Op(f"certify.n{n}.{c}", "certify", "certify",
                          {"a": a, "a_prime": a + e}))
        # converge: 20 terms, each a full perron_root with its own
        # structure analysis (harness); one base per trace kind.  Dense
        # positive blocks keep the sweep counts, and so the cost, nearly
        # the same from seed to seed
        ops.append(Op(f"converge_irr.n{n}", "converge_irreducible", "converge",
                      {"base": rng.uniform(0.5, 1.5, (n, n)),
                       "direction": rng.uniform(0.0, 0.1, (n, n))}))
        base, blocks = _reducible_base(rng, n)
        ops.append(Op(f"converge_red.n{n}", "converge_reducible", "converge",
                      {"base": base, "direction": rng.uniform(0.0, 0.1, (n, n))},
                      blocks=blocks))
        ops.append(Op(f"converge_nil.n{n}", "converge_nilpotent", "converge",
                      {"base": nilpotent_dag(rng, n, 0.3, depth=8),
                       "direction": rng.uniform(0.0, 0.1, (n, n))},
                      radius="zero"))
        # gelfand: norm powers plus the scaling demo, three certifications
        ops.append(Op(f"gelfand.n{n}", "gelfand", "gelfand",
                      {"a": rng.uniform(0.0, 1.0, (n, n))}))
    for op in ops:
        op.args = ["--max-iter", str(op.max_iter)]
        if op.command == "converge":
            op.args += ["--count", str(CONVERGE_COUNT)]
    return ops


_BUILDERS = {
    "analyze_large": _analyze_large,
    "hard_spectra": _hard_spectra,
    "certify_converge": _certify_converge,
}


def passes(workload: str, seconds: float) -> int:
    return max(2, round(PASSES_PER_15S[workload] * seconds / 15))


def build(workload: str, seed: int) -> list[Op]:
    return _BUILDERS[workload](_rng(workload, seed))


def known_defects(workload: str) -> list[Op]:
    """The probe: fixed inputs the library gets wrong at present."""
    return _hard_spectra_defects() if workload == "hard_spectra" else []


def render(a: np.ndarray) -> str:
    """The matrix file format; repr() round-trips every float64 exactly."""
    lines = [str(a.shape[0])]
    lines += [" ".join(map(repr, row)) for row in a.tolist()]
    return "\n".join(lines) + "\n"
