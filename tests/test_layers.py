"""The package's public surface, and the order its layers import in."""

import ast
import pathlib

import perron
from perron import matcore, solver, structure

PACKAGE = pathlib.Path(perron.__file__).parent
# lowest layer first: a module may import only modules before it
ORDER = ("matcore", "structure", "_kernels", "solver", "perturb", "harness", "cli")
PUBLIC = [
    "ConvergenceTrace", "DEFAULT_MAX_ITER", "DEFAULT_TOL", "FrobeniusNormalForm",
    "GelfandTrace", "MatrixFormatError", "NonuniformityDemo", "PerronCertificate",
    "PerturbationBound", "SequenceSpec", "__version__", "apply_symmetric_permutation",
    "continuity_certificate", "frobenius_norm", "frobenius_normal_form", "gelfand_trace",
    "is_irreducible", "is_nilpotent", "nilpotency_index", "nonneg_matrix",
    "nonuniformity_demo", "one_norm_mat", "one_norm_vec", "parse_matrix", "permutation",
    "perron_irreducible", "perron_root", "power_radius_identity_check", "q_star",
    "read_matrix_file", "render_matrix", "residual", "run_trace", "spectral_block",
    "square_matrix", "strongly_connected_components", "write_matrix_file",
]


def test_public_names_pinned():
    assert sorted(perron.__all__) == PUBLIC
    eager = [name for mod in (matcore, structure, solver) for name in mod.__all__]
    assert len(eager) == len(set(eager))  # each declared once
    for mod in (matcore, structure, solver):
        for name in mod.__all__:
            assert getattr(perron, name) is getattr(mod, name), name


def _package_imports(tree):
    """The package modules a module's tree imports, at any depth: module
    level and function bodies alike."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("perron."):
            yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("perron."))


def test_layers_import_only_downward():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert modules == sorted(ORDER)  # a new module takes its place in ORDER
    for rank, name in enumerate(ORDER):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        above = {dep for dep in _package_imports(tree) if ORDER.index(dep) >= rank}
        assert not above, f"{name} imports {sorted(above)}, at or above its layer"
