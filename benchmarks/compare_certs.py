"""Dump every certificate of a source tree, diff two dumps, count its lines.

    python3 benchmarks/compare_certs.py dump SRC OUT
    python3 benchmarks/compare_certs.py diff A B
    python3 benchmarks/compare_certs.py lines SRC

``dump`` imports ``perron`` from the directory SRC (a checkout's
``src``) and writes one JSON line per result to OUT.  The inputs are
those of ``perfbench/cases.py`` in this checkout, read without writing
to it: every operation of the three workloads at seeds 1 and 2, and the
known-defect probe.  Then the trace layer at extreme scales:
``converge`` on the seed-1 n = 16 nilpotent, irreducible and reducible
bases, and ``gelfand`` on each of those bases, all scaled by 2^k for k
in ``SCALES``, and ``converge`` on a nilpotent 8-cycle-shaped base whose
||A_k^8||_1 passes the largest float (weights 1e300, 20, ..., 20,
closed by 20 s_k; ``--max-iter 200``), and inputs whose norm chains
may leave the normal range: ``converge`` and ``gelfand`` on
[[0, 1, 1e-160], [0, 0, 1], [0, 0, 0]] (a zero and a strictly upper
direction), ``converge`` on a 3-cycle-shaped base with weights 2^400,
2^-600 closed by s_k, and ``gelfand`` on [[1.43e-247, 3.63e280], [0,
0]] (``--m-max 3``) and on [[0, 2^1023], [2^-1070, 0]].  Last,
``converge`` of [[1]] along [[1]] at ``--coeff 1.5e-16 --count 3``,
where fl(1 + s_1) - 1 exceeds s_1, and of [[0, 1e-12, 0], [1, 0, 0],
[0, 0, 0]] along 1 at (0, 1) at ``--coeff 1e-10 --count 3``, where the
radius of the reducible base's spectral block, 1e-6, moves by 9e-6 at
k = 1, far more than s_k ||direction||_F.  Then ``certify`` on a
near-defective base (``trace.certify.near_defective``): the 26th
``near_defective`` draw of ``tests/generators.py`` from
``default_rng(3)``, n = 9, against itself plus 1e-25 at (1, 0), whose
enclosure once ended below the radius of the perturbed matrix.  Every
``converge`` and
``gelfand`` operation so far runs once more with ``--format csv``
appended, recorded apart under its id plus ``.csv``, so csv output is
pinned as table output is.  A ``root`` operation records
lo, hi, both vectors' bytes, both witnesses' bytes, the iterations,
``converged`` and the residual, through ``solver.residual``; a command
operation records the exit code and stdout of
``perron.cli.main``, run on matrix files in a temporary directory named
relative to it, so the output does not depend on where that is, and
each matrix file it writes gets a result of its own (command ``parse``,
id the operation's plus ``.ROLE.parse``): the shape and the sha1 of the
bytes of the array ``matcore.read_matrix_file`` returns, so a change of
parser shows as a moved digest, not only through the certificates.  Then
``perron_root`` on seeded random matrices at n = 2..69 in six families
(dense, ring plus noise, 2^k-scaled, wide-range, nilpotent plus
diagonal, sparse), each at ``max_iter`` 10^6 and 3, and on the first
``FEW`` of each family (n = 2..13) ``power_radius_identity_check`` at
p = 2 and 3 (command ``power``: both intervals) and ``spectral_block``
(command ``block``: the index, and each normal-form block
certificate's lo, hi, iterations and ``converged``, read off
``perron_root(a).blocks``, a matrix certified whole standing as its own
block).
Every result also records its command, and a raise is recorded as a
result.

``diff`` counts the results that differ, per command (``root``,
``analyze``, ``certify``, ``converge``, ``gelfand``, ``power``,
``block``, ``parse``), ``converged``
flips, iteration counts that rise or fall (a block certificate's
counting for its ``block`` result), intervals that get wider or
narrower, results whose right or whose left vector's bytes moved,
results whose right or whose left witness's bytes moved (compared only
where both dumps record witnesses), ``root`` results whose residual
moved, exit-code changes and verdict
flips, naming a few of each, and the
largest move of ``lo`` and of ``hi`` among ``root`` results converged in
both dumps, in ulps of the first dump's value, with its id.  A
verdict flip is a command whose stdout's sequence of ``pass``, ``FAIL``
and ``PASS`` tokens changed, so a change that moves digits can show
that no check's outcome moved.  It exits 1 on a ``converged`` or
verdict flip, a rise, an exit-code change or a result present in one
dump only, else 0.

``lines`` prints the line count of each module of the package in SRC
(``SRC/perron``) and of them all, both every line and code lines only:
no docstring, comment or blank line, found by ``ast`` and ``tokenize``.
"""

import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import re
import sys
import tempfile
import tokenize

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
FAMILIES = ("dense", "ring", "scaled", "wide", "nilpotent_diag", "sparse")
PER_FAMILY = 100
FEW = 12  # random matrices per family that the power and block results take
MAX_ITERS = (10**6, 3)
SHOWN = 5  # ids named per category
SCALES = (-1000, -500, 500, 1000)  # 2^k scales of the trace-layer inputs
COMMANDS = ("root", "analyze", "certify", "converge", "gelfand", "power", "block",
            "parse")
VERDICT = re.compile(r"\b(?:pass|FAIL|PASS)\b")


def _cases():
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cases
    return cases


def _random_matrix(cases, family, n, rng):
    if family == "dense":
        return rng.uniform(0.0, 10.0, (n, n))
    if family == "ring":
        return cases.ring_noise(rng, n, 0.1)
    if family == "scaled":
        return np.ldexp(rng.uniform(0.5, 1.5, (n, n)), int(rng.integers(-1000, 1001)))
    if family == "wide":
        return 10.0 ** rng.uniform(-283.0, 297.0, (n, n))
    if family == "nilpotent_diag":
        a = cases.nilpotent_dag(rng, n, 0.3, depth=max(1, n // 2))
        return a + np.diag(rng.uniform(0.0, 1.0, n))
    return rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.2)


def _trace_ops(cases):
    """The trace layer's inputs at extreme scales, as (key, op) pairs."""
    ops = []
    for op in cases.build("certify_converge", 1):
        if op.command != "converge" or not op.id.endswith(".n16"):
            continue
        for k in SCALES:
            mats = {role: np.ldexp(a, k) for role, a in op.mats.items()}
            ops.append((f"trace.{op.id}.2^{k}", cases.Op(op.id, op.family, "converge",
                                                         mats, args=op.args)))
            ops.append((f"trace.gelfand.{op.id}.2^{k}", cases.Op(  # --max-iter only
                op.id, "gelfand", "gelfand", {"a": mats["base"]}, args=op.args[:2])))
    base, direction = np.diag([1e300] + [20.0] * 6, 1), np.zeros((8, 8))
    direction[7, 0] = 20.0
    ops.append(("trace.cycle8.1e300", cases.Op(
        "cycle8.1e300", "converge_nilpotent", "converge",
        {"base": base, "direction": direction}, args=["--max-iter", "200", "--count", "2"])))
    tiny = np.array([[0.0, 1.0, 1e-160], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    for name, direction in (("zero", np.zeros((3, 3))), ("upper", np.triu(np.ones((3, 3)), 1))):
        ops.append((f"trace.tiny.{name}", cases.Op(
            f"tiny.{name}", "converge_nilpotent", "converge",
            {"base": tiny, "direction": direction}, args=["--count", "3"])))
    ops.append(("trace.gelfand.tiny", cases.Op(
        "tiny", "gelfand", "gelfand", {"a": tiny}, args=["--m-max", "3"])))
    ops.append(("trace.cycle3.2^400", cases.Op(
        "cycle3.2^400", "converge_nilpotent", "converge",
        {"base": np.diag([2.0**400, 2.0**-600], 1), "direction": np.eye(3, k=-2)},
        args=["--count", "3"])))
    for name, x, args in (
            ("wide", [[1.43e-247, 3.63e280], [0.0, 0.0]], ["--m-max", "3"]),
            ("2^1023", [[0.0, 2.0**1023], [2.0**-1070, 0.0]], [])):
        ops.append((f"trace.gelfand.{name}", cases.Op(
            name, "gelfand", "gelfand", {"a": np.array(x)}, args=args)))
    one = np.ones((1, 1))
    ops.append(("trace.one.1.5e-16", cases.Op(
        "one.1.5e-16", "converge_irreducible", "converge", {"base": one, "direction": one},
        args=["--coeff", "1.5e-16", "--count", "3"])))
    weak, corner = np.zeros((3, 3)), np.zeros((3, 3))
    weak[0, 1], weak[1, 0], corner[0, 1] = 1e-12, 1.0, 1.0
    ops.append(("trace.weak3.1e-10", cases.Op(
        "weak3.1e-10", "converge_reducible", "converge", {"base": weak, "direction": corner},
        args=["--coeff", "1e-10", "--count", "3"])))
    sys.path.insert(0, str(ROOT / "tests"))
    from generators import near_defective
    rng = np.random.default_rng(3)
    for _ in range(26):
        a = near_defective(rng)
    a_prime = a.copy()
    a_prime[1, 0] += 1e-25
    ops.append(("trace.certify.near_defective", cases.Op(
        "near_defective", "certify", "certify", {"a": a, "a_prime": a_prime})))
    return ops


def _hex(v):
    return None if v is None else float(v).hex()


def _bytes(v):
    return None if v is None else v.tobytes().hex()


def _root(perron, a, tol, max_iter):
    try:
        cert = perron.perron_root(a, tol=tol, max_iter=max_iter)
    except Exception as exc:  # a raise is a result to compare, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"lo": _hex(cert.lo), "hi": _hex(cert.hi), "width": cert.hi - cert.lo,
            "right": _bytes(cert.right_vector), "left": _bytes(cert.left_vector),
            "iterations": cert.iterations, "converged": cert.converged,
            "residual": _hex(perron.solver.residual(a, cert)),
            "right_witness": _bytes(cert.right_witness),
            "left_witness": _bytes(cert.left_witness)}


def _power(perron, a, p):
    try:
        powered, direct = perron.power_radius_identity_check(a, p)
    except Exception as exc:  # a raise is a result to compare, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"powered": list(map(_hex, powered)), "direct": list(map(_hex, direct))}


def _block(perron, a):
    try:
        index = perron.spectral_block(a)
        cert = perron.perron_root(a)
        certs = cert.blocks or (cert,)  # a matrix certified whole is its own block
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"index": index, "blocks": [
        {"lo": _hex(c.lo), "hi": _hex(c.hi), "iterations": c.iterations,
         "converged": c.converged} for c in certs]}


def _files(op, i):
    """The (role, file name) of each matrix file of command operation i."""
    return [(role, f"op{i}_{role}.txt") for role in op.mats]


def _parse(perron, path):
    try:
        a = perron.matcore.read_matrix_file(path)
    except Exception as exc:  # a raise is a result to compare, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"shape": list(a.shape), "sha1": hashlib.sha1(a.tobytes()).hexdigest()}


def _command(perron, cases, op, work, i):
    names = []
    for role, name in _files(op, i):
        names.append(name)
        (work / name).write_text(cases.render(op.mats[role]), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = perron.cli.main([op.command, *names, *op.args])
    except Exception as exc:  # main() should map every error to an exit code
        return {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        os.chdir(cwd)
    keys = dict(line.split(": ", 1) for line in out.getvalue().splitlines()
                if line.startswith(("converged: ", "iterations: ")))
    return {"rc": rc, "stdout": out.getvalue(), "converged": keys.get("converged"),
            "iterations": int(keys["iterations"]) if "iterations" in keys else None}


def dump(src, out_path):
    sys.path.insert(0, str(pathlib.Path(src).resolve()))
    import perron
    import perron.cli
    cases = _cases()
    ops = [(f"{w}.s{seed}.{op.id}", op) for w in cases.WORKLOADS for seed in SEEDS
           for op in cases.build(w, seed)]
    ops += [(f"probe.{op.id}", op) for op in cases.known_defects("hard_spectra")]
    ops += _trace_ops(cases)
    ops += [(f"{key}.csv", dataclasses.replace(op, args=[*op.args, "--format", "csv"]))
            for key, op in ops if op.command in ("converge", "gelfand")]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (key, op) in enumerate(ops):
            if op.command == "root":
                res = _root(perron, op.mats["a"], cases.TOL, op.max_iter)
            else:
                res = _command(perron, cases, op, pathlib.Path(tmp), i)
            results.append((key, {"command": op.command, **res}))
            if op.command != "root":
                results += [(f"{key}.{role}.parse",
                             {"command": "parse", **_parse(perron, pathlib.Path(tmp) / name)})
                            for role, name in _files(op, i)]
    for f, family in enumerate(FAMILIES):
        rng = np.random.default_rng([1915, f])
        for i in range(PER_FAMILY):
            n = 2 + i % 68
            a = _random_matrix(cases, family, n, rng)
            for max_iter in MAX_ITERS:
                results.append((f"random.{family}.{i}.n{n}.it{max_iter}",
                                {"command": "root", **_root(perron, a, cases.TOL, max_iter)}))
            if i < FEW:
                for p in (2, 3):
                    results.append((f"random.{family}.{i}.n{n}.power{p}",
                                    {"command": "power", **_power(perron, a, p)}))
                results.append((f"random.{family}.{i}.n{n}.block",
                                {"command": "block", **_block(perron, a)}))
    with open(out_path, "w", encoding="utf-8") as fh:
        for key, res in results:
            fh.write(json.dumps({"id": key, **res}) + "\n")
    print(f"{len(results)} results written to {out_path}")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return {r.pop("id"): r for r in map(json.loads, fh)}


def _blockwise(r, key):
    """A result's value of ``key``, then that of each block certificate
    it records."""
    return [r.get(key)] + [c[key] for c in r.get("blocks", ())]


def diff(path_a, path_b):
    a, b = _load(path_a), _load(path_b)
    found = {name: [] for name in ("differ", "converged flips", "iterations rise",
                                   "iterations fall", "wider", "narrower",
                                   "right vectors moved", "left vectors moved",
                                   "right witnesses moved", "left witnesses moved",
                                   "residuals moved", "exit code changes", "verdict flips",
                                   "in one dump only")}
    per_command = dict.fromkeys(COMMANDS, 0)
    # the largest move of each bound of a root converged in both, in ulps
    # of A's value, and the id it is at
    moves = {"lo": (0.0, None), "hi": (0.0, None)}
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            found["in one dump only"].append(key)
            continue
        ra, rb = a[key], b[key]
        for side in ("right_witness", "left_witness"):
            if side not in ra or side not in rb:  # one dump records none
                ra.pop(side, None)
                rb.pop(side, None)
            elif ra[side] != rb[side]:
                found[f"{side.split('_')[0]} witnesses moved"].append(key)
        if ra == rb:
            continue
        found["differ"].append(key)
        command = ra.get("command", "?")
        per_command[command] = per_command.get(command, 0) + 1
        if _blockwise(ra, "converged") != _blockwise(rb, "converged"):
            found["converged flips"].append(key)
        steps = [(ia, ib) for ia, ib in zip(_blockwise(ra, "iterations"),
                                            _blockwise(rb, "iterations"))
                 if ia is not None and ib is not None and ia != ib]
        if steps:
            found["iterations rise" if any(ib > ia for ia, ib in steps)
                  else "iterations fall"].append(key)
        if "width" in ra and "width" in rb and ra["width"] != rb["width"]:
            found["wider" if rb["width"] > ra["width"] else "narrower"].append(key)
        for side in ("right", "left"):
            if ra.get(side) != rb.get(side):
                found[f"{side} vectors moved"].append(key)
        if command == "root" and ra.get("residual") != rb.get("residual"):
            found["residuals moved"].append(key)
        if command == "root" and ra.get("converged") is True and rb.get("converged") is True:
            for bound, (largest, _) in moves.items():
                va, vb = float.fromhex(ra[bound]), float.fromhex(rb[bound])
                ulps = abs(vb - va) / math.ulp(va)
                if ulps > largest:
                    moves[bound] = (ulps, key)
        if ra.get("rc") != rb.get("rc") or ("error" in ra) != ("error" in rb):
            found["exit code changes"].append(key)
        if VERDICT.findall(ra.get("stdout", "")) != VERDICT.findall(rb.get("stdout", "")):
            found["verdict flips"].append(key)
    print(f"{len(a)} results in {path_a}, {len(b)} in {path_b}")
    print("differ by command: " + ", ".join(f"{c} {k}" for c, k in per_command.items()))
    for name, keys in found.items():
        shown = ", ".join(keys[:SHOWN]) + (", ..." if len(keys) > SHOWN else "")
        print(f"{name}: {len(keys)}" + (f" ({shown})" if keys else ""))
    print("largest converged root move: " + ", ".join(
        f"{bound} {ulps:g} ulps" + (f" ({key})" if key else "")
        for bound, (ulps, key) in moves.items()))
    bad = ("converged flips", "iterations rise", "exit code changes", "verdict flips",
           "in one dump only")
    return int(any(found[name] for name in bad))


def _code_lines(text):
    """The lines of a module that hold a token of code: not a docstring
    (a module's, class's or function's first statement, a string), a
    comment or a blank line."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and body:
            first = body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def lines(src):
    total = [0, 0]
    print(f"{'module':<16} {'all':>6} {'code':>6}")
    for path in sorted((pathlib.Path(src) / "perron").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts = (len(text.splitlines()), _code_lines(text))
        total = [t + c for t, c in zip(total, counts)]
        print(f"{path.name:<16} {counts[0]:>6} {counts[1]:>6}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6}")


def main(argv):
    if argv[:1] == ["lines"] and len(argv) == 2:
        lines(argv[1])
        return 0
    if len(argv) != 3 or argv[0] not in ("dump", "diff"):
        print(__doc__.strip().splitlines()[0] + "\n\nusage: compare_certs.py "
              "dump SRC OUT | diff A B | lines SRC", file=sys.stderr)
        return 2
    if argv[0] == "dump":
        dump(argv[1], argv[2])
        return 0
    return diff(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
