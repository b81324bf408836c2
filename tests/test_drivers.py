"""The kernel calls numpy's batched LAPACK drivers, dgeev and dgesv, as
the gufuncs of the private ``numpy.linalg._umath_linalg`` that
``np.linalg.eig`` and ``np.linalg.solve`` wrap, without the wrappers.
These tests pin what the kernel relies on, so that a numpy upgrade that
changes it fails here instead of moving certificates silently, and that
a numpy without that module gets the same certificates from the public
functions."""

import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import perron
from perron import _kernels
from generators import random_irreducible

_ROOT = pathlib.Path(__file__).resolve().parents[1]

# numpy's default error handling, whatever the caller set
_DEFAULT_ERR = {"divide": "warn", "over": "warn", "invalid": "warn", "under": "ignore"}


def _eig_route(bs):
    """``_eig_vectors`` through the public wrapper, as the kernel took it."""
    w, v = np.linalg.eig(bs)
    rows = np.arange(len(bs))
    y = v[rows, :, w.real.argmax(axis=1)].real
    return y / y[rows, np.abs(y).argmax(axis=1)][:, None]


def _noda_route(b, x, hi):
    """One ``_noda_steps`` step of one pass through ``np.linalg.solve``."""
    m = np.multiply(b, x) / -x[:, None]
    m[np.diag_indices(len(x))] += hi
    y = np.linalg.solve(m, np.ones(len(x))) * x
    return y / y.max()


def _stack(rng, n, m=4):
    """m irreducible n x n matrices of mixed families: dense, sparse,
    weak cycles (every eigenvalue on one circle, so complex ones) and
    an exact power-of-two scale."""
    out = []
    for i in range(m):
        family = i % 4
        if family == 0:
            a = rng.uniform(0.0, 10.0, (n, n))
        elif family == 1:
            a = random_irreducible(rng, n, density=0.3)
        elif family == 2:
            a = np.zeros((n, n))
            a[np.arange(n), (np.arange(n) + 1) % n] = np.exp(rng.uniform(-690.0, 0.0, n))
        else:
            a = np.ldexp(rng.uniform(0.5, 1.5, (n, n)), int(rng.integers(-300, 300)))
        out.append(a)
    return np.stack(out)


def _singular_stack(rng):
    """Three Noda systems of size 3, the middle one exactly singular:
    3 I - J, from the all-ones matrix, x = 1 and hi = 3."""
    bs = np.stack([rng.uniform(0.5, 1.5, (3, 3)), np.ones((3, 3)),
                   rng.uniform(0.5, 1.5, (3, 3))])
    x = np.vstack([rng.uniform(0.1, 1.0, 3), np.ones(3), rng.uniform(0.1, 1.0, 3)])
    x /= x.max(axis=1)[:, None]
    hi = [float(((b @ xi) / xi).max()) * 1.01 for b, xi in zip(bs, x)]
    hi[1] = 3.0
    return bs, x, hi


@pytest.mark.parametrize("n", range(2, 9))
def test_eig_vectors_match_the_wrapper(rng, n):
    for _ in range(5):
        bs = _stack(rng, n)
        bs = np.concatenate((bs, bs.transpose(0, 2, 1)))  # as the kernel stacks them
        if n >= 3:  # a weak cycle's eigenvalues: the wrapper's complex branch
            assert (np.linalg.eigvals(bs[2]).imag != 0.0).any()
        got = _kernels._eig_vectors(bs)
        assert got.tobytes() == _eig_route(bs).tobytes()
        # and each matrix gets what it gets alone
        for b, row in zip(bs, got):
            assert _kernels._eig_vectors(b[None])[0].tobytes() == row.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_noda_steps_match_the_wrapper(rng, n):
    for _ in range(5):
        bs = _stack(rng, n)
        x = rng.uniform(0.01, 1.0, (len(bs), n))
        x /= x.max(axis=1)[:, None]
        hi = [float(((b @ xi) / xi).max()) * 1.5 for b, xi in zip(bs, x)]
        got = _kernels._noda_steps(bs, x, hi)
        for b, xi, h, row in zip(bs, x, hi, got):
            assert row.tobytes() == _noda_route(b, xi, h).tobytes()
        # a stack of transposed views gets what its contiguous copy gets
        t = bs.transpose(0, 2, 1)
        assert (_kernels._noda_steps(t, x, hi).tobytes()
                == _kernels._noda_steps(np.ascontiguousarray(t), x, hi).tobytes())


def test_singular_noda_matrix_is_nan_in_place(rng):
    bs, x, hi = _singular_stack(rng)
    # the kernel calls the helper under an errstate that silences the flag
    with np.errstate(invalid="ignore"):
        got = _kernels._noda_steps(bs, x, hi)
    assert np.isnan(got[1]).all()
    for i in (0, 2):
        alone = _kernels._noda_steps(bs[i:i + 1], x[i:i + 1], [hi[i]])[0]
        assert got[i].tobytes() == alone.tobytes() == _noda_route(bs[i], x[i], hi[i]).tobytes()


def _quiet(call, *args):
    """call(*args) under numpy's default errstate, a RuntimeWarning an error."""
    with warnings.catch_warnings(), np.errstate(**_DEFAULT_ERR):
        warnings.simplefilter("error")
        return call(*args)


def _cycle(weights):
    n = len(weights)
    a = np.zeros((n, n))
    a[np.arange(n), (np.arange(n) + 1) % n] = weights
    return a


def _bits(p):
    return p.lo, p.hi, p.witness.tobytes(), p.iterations


class TestCallersDoNotWarn:
    """The helpers have no errstate of their own.  The drivers flag a
    failed matrix as an invalid operation, which np.linalg turns into
    LinAlgError, and a square may underflow to zero; the entry points,
    ``collatz_wielandt_stack`` and ``certify_vectors``, handle both
    without a warning under numpy's default errstate, and every other
    matrix of a stack gets what it gets alone.  The fake drivers form
    their NaN as the real ones do, raising numpy's invalid flag."""

    TOL, MAX_ITER = 1e-12, 10**6

    def _alone(self, bs):
        """Each pass of the stack bs as its matrix alone gets it."""
        alone = [_kernels.collatz_wielandt_stack(a[None], self.TOL, self.MAX_ITER) for a in bs]
        return [p[j] for j in range(2) for p in alone]

    def _check(self, bs, alone, moved, zeroed):
        """The kernel's passes of bs, each not in ``moved`` as in
        ``alone``, then ``certify_vectors`` on their vectors, each in
        ``zeroed`` with its last entry zeroed (0, inf), the others their
        passes' bounds again; neither call warns."""
        out = _quiet(_kernels.collatz_wielandt_stack, bs, self.TOL, self.MAX_ITER)
        for i, (got, want) in enumerate(zip(out, alone)):
            assert i in moved or _bits(got) == _bits(want)
        xs = np.stack([p.witness for p in out])
        xs[zeroed, -1] = 0.0
        rows = np.concatenate((bs, bs.transpose(0, 2, 1)))
        bounds = _quiet(_kernels.certify_vectors, rows, xs, self.TOL)
        assert bounds == [(0.0, math.inf) if i in zeroed else p[:2] for i, p in enumerate(out)]
        return out

    def test_first_square_underflows(self, rng):
        # weights 2^-399 and 2^-1000: every entry of the first square,
        # 2^-1399, underflows to zero, so the cycle's proposals are NaN
        # and its passes iterate from the ones vector
        bs = np.stack([rng.uniform(0.5, 1.5, (12, 12)),
                       _cycle(np.ldexp(1.0, [-399, -1000] * 6))])
        out = self._check(bs, self._alone(bs), (), [1, 3])
        assert [p.iterations == 2 for p in out] == [True, False] * 2

    def test_eig_fails_on_one_matrix(self, monkeypatch, rng):
        bs = rng.uniform(0.1, 1.0, (3, 5, 5))
        dgeev = _kernels._dgeev

        def failing(b, signature):
            w, v = dgeev(b, signature=signature)
            for i, m in enumerate(b):
                if np.array_equal(m, bs[1]) or np.array_equal(m, bs[1].T):
                    w[i] = v[i] = np.divide(0.0, 0.0)
            return w, v

        monkeypatch.setattr(_kernels, "_dgeev", failing)
        out = self._check(bs, self._alone(bs), (), [1, 4])
        assert [p.iterations == 2 for p in out] == [True, False, True] * 2

    def test_singular_noda_system(self, monkeypatch, rng):
        # two 12-cycles and a dense matrix: the four cycle passes take
        # their first Noda steps together, and pass 0's system fails
        bs = np.stack([_cycle(rng.uniform(0.5, 1.5, 12)) for _ in range(2)]
                      + [rng.uniform(0.5, 1.5, (12, 12))])
        alone = self._alone(bs)
        dgesv, calls = _kernels._dgesv, []

        def failing(m, b, signature):
            calls.append(len(m))
            y = dgesv(m, b, signature=signature)
            if len(calls) == 1:
                y[0] = np.divide(0.0, 0.0)
            return y

        monkeypatch.setattr(_kernels, "_dgesv", failing)
        out = self._check(bs, alone, (0,), [0])
        assert calls[0] == 4 and out[0].iterations < alone[0].iterations


_HARD_SPECTRA = """
import importlib.util, json, sys
import numpy as np

def certificates(root):
    spec = importlib.util.spec_from_file_location("cases", root + "/perfbench/cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    out = []
    for op in cases.build("hard_spectra", 29):
        c = perron.perron_root(op.mats["a"], cases.TOL, op.max_iter)
        out.append([op.id, c.lo.hex(), c.hi.hex(), c.iterations, c.converged] + [
            None if w is None else w.tobytes().hex() for w in (c.right_witness, c.left_witness)])
    return out
"""


def test_without_the_private_drivers():
    # a numpy without numpy.linalg._umath_linalg: perron still imports,
    # runs np.linalg.eig and np.linalg.solve per matrix, and gives the
    # certificates the batched drivers give; a singular Noda system is NaN
    script = _HARD_SPECTRA + """
sys.modules["numpy.linalg._umath_linalg"] = None
import perron
from perron import _kernels
assert _kernels._dgeev.__module__ == _kernels._dgesv.__module__ == "perron._kernels"
bs = np.stack([np.full((3, 3), 0.75), np.ones((3, 3))])
noda = _kernels._noda_steps(bs, np.ones((2, 3)), [3.0, 3.0])
print(json.dumps({"nan": np.isnan(noda).all(axis=1).tolist(),
                  "certificates": certificates(sys.argv[1])}))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(_ROOT)], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(_ROOT / "src")})
    got = json.loads(proc.stdout)
    assert got["nan"] == [False, True]
    namespace = {"perron": perron}
    exec(_HARD_SPECTRA, namespace)
    want = namespace["certificates"](str(_ROOT))
    assert len(want) > 100
    assert got["certificates"] == json.loads(json.dumps(want))
