"""Certified spectral analysis of nonnegative matrices.

The spectral radius of a nonnegative matrix is itself an eigenvalue (the
Perron root) and carries a nonnegative eigenvector.  This package
computes certified enclosures of that root, detects irreducibility,
reduces any nonnegative matrix to block upper triangular form with
irreducible diagonal blocks, bounds how far the root can move under a
perturbation, and traces how root estimates behave along matrix
sequences and norm-power sequences.

Importing the package loads the matrix core, structure and solver
layers only.  The perturbation (:mod:`perron.perturb`) and trace
(:mod:`perron.harness`) layers load the first time one of their names is
read, from here or as a submodule; every name in ``__all__`` resolves
either way.
"""

import importlib

from . import matcore, solver, structure
from .matcore import *
from .structure import *
from .solver import *

# PEP 562: these layers load on the first read of one of their names
_LAZY = dict.fromkeys(("PerturbationBound", "continuity_certificate"), "perturb")
_LAZY.update(dict.fromkeys((
    "ConvergenceTrace", "GelfandTrace", "NonuniformityDemo", "SequenceSpec",
    "gelfand_trace", "nonuniformity_demo", "run_trace"), "harness"))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # bound once, as the eager import bound it
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

# each eager name is declared once, in its module's __all__
__all__ = [*matcore.__all__, *structure.__all__, *solver.__all__, *_LAZY, "__version__"]
