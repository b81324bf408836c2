"""Command line front end: analyze, certify, converge, gelfand.

Reports are plain text on stdout, either aligned tables with key: value
summary lines or comma-separated rows (``--format csv``).  This module
builds every line of them from the results the library returns; output
is a pure function of the inputs and flags, byte for byte.

Exit codes: 0 success or PASS, 1 a checked invariant failed, 2 unreadable
or malformed input, 3 precondition violation (wrong matrix structure for
the command, bad sequence, ...).
"""

import argparse
import sys

from . import matcore, solver, structure

__all__ = ["main", "console_main"]

_f = matcore.format_float


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return value


def _schedule(text: str) -> tuple[str, float]:
    # "inv-k", "inv-k2" or "geom:GAMMA"; gamma is only meaningful for geom
    if text in ("inv-k", "inv-k2"):
        return text, 0.5
    if text.startswith("geom:"):
        try:
            gamma = float(text[len("geom:"):])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad geom ratio in {text!r}")
        if not 0.0 < gamma < 1.0:
            raise argparse.ArgumentTypeError(f"geom ratio must be in (0, 1): {gamma}")
        return "geom", gamma
    raise argparse.ArgumentTypeError(
        f"unknown schedule {text!r}; use inv-k, inv-k2 or geom:GAMMA"
    )


def _alpha_list(text: str) -> list[float]:
    # empty tokens are skipped: "3,,5" is [3, 5]
    alphas = [_positive_float(token) for token in map(str.strip, text.split(",")) if token]
    if not alphas:
        raise argparse.ArgumentTypeError("empty alpha list")
    return alphas


def _emit_pairs(pairs, fmt: str) -> None:
    # key: value lines in table mode, key,value in csv mode; list values
    # are space-joined (table) or semicolon-joined (csv) to keep csv rows
    # two columns wide, and a pair whose value is None is left out
    for key, value in pairs:
        if value is None:
            continue
        if isinstance(value, list):
            value = (" " if fmt == "table" else ";").join(value)
        if fmt == "table":
            print(f"{key}: {value}")
        else:
            print(f"{key},{value}")


def _status(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _grid(header, rows, fmt: str) -> None:
    # one line per row: comma-joined in csv mode, else every column
    # right-aligned to its widest cell, with no trailing blanks
    rows = [header, *rows]
    if fmt == "csv":
        print("\n".join(map(",".join, rows)))
    else:
        line = "  ".join(f"{{:>{max(map(len, col))}}}" for col in zip(*rows))
        print("\n".join(line.format(*row).rstrip() for row in rows))


def cmd_analyze(args) -> int:
    # the parser's array is fresh and validated: the normal form keeps it
    fnf = structure._normal_form(matcore.read_matrix_file(args.matrix, nonneg=True))
    index = fnf.nilpotency_index
    cert = solver.perron_root(fnf, tol=args.tol, max_iter=args.max_iter)
    pairs = [
        ("n", str(fnf.n)),
        ("irreducible", _yesno(fnf.irreducible)),
        ("nilpotent", _yesno(index is not None)),
        ("nilpotency_index", index),
        ("block_count", str(len(fnf.blocks))),
        ("block_sizes", [str(s) for s in fnf.block_sizes]),
        ("permutation", [str(i) for i in fnf.perm.tolist()]),
        ("rho_lo", _f(cert.lo)),
        ("rho_hi", _f(cert.hi)),
        ("converged", _yesno(cert.converged)),
        ("iterations", str(cert.iterations)),
    ]
    if cert.right_vector is not None:
        pairs += [
            # Python floats format faster than numpy scalars
            ("right_vector", [_f(v) for v in cert.right_vector.tolist()]),
            ("left_vector", [_f(v) for v in cert.left_vector.tolist()]),
            ("q_star", _f(solver.q_star(cert))),
        ]
    residual = solver.residual(fnf.matrix, cert)  # None also when not finite
    if residual is not None:
        pairs.append(("residual", _f(residual)))
    _emit_pairs(pairs, args.format)
    return 0


def cmd_certify(args) -> int:
    from . import perturb  # imported per command, so analyze never loads it
    a = matcore.read_matrix_file(args.matrix, nonneg=True)
    a_prime = matcore.read_matrix_file(args.perturbed, nonneg=True)
    pb = perturb.continuity_certificate(
        structure._normal_form(a), a_prime, tol=args.tol, max_iter=args.max_iter
    )
    prime = pb.perturbed
    pairs = [
        ("n", str(a.shape[0])),
        ("rho_lo", _f(pb.base.lo)),
        ("rho_hi", _f(pb.base.hi)),
        ("q_star", _f(pb.q_star)),
        ("e_norm", _f(pb.e_norm)),
        ("norm", pb.norm),
        ("bound", _f(pb.bound)),
        ("enclosure_lo", _f(pb.enclosure[0])),
        ("enclosure_hi", _f(pb.enclosure[1])),
        ("rho_prime_lo", _f(prime.lo)),
        ("rho_prime_hi", _f(prime.hi)),
        ("soundness", "PASS" if pb.ok else "FAIL"),
    ]
    _emit_pairs(pairs, args.format)
    return 0 if pb.ok else 1


def cmd_converge(args) -> int:
    from . import harness
    base = matcore.read_matrix_file(args.base, nonneg=True)
    direction = matcore.read_matrix_file(args.direction)
    rule, gamma = args.schedule
    spec = harness.SequenceSpec(
        base=base,
        direction=direction,
        rule=rule,
        coeff=args.coeff,
        gamma=gamma,
        count=args.count,
        clamp=args.clamp,
    )
    trace = harness.run_trace(spec, tol=args.tol, max_iter=args.max_iter)
    # floats with 17 significant digits, so the csv form round-trips exactly
    _grid(["k", "s_k", "r_lo", "r_hi", "deviation", *trace.columns, "status"], [
        [str(r.k), _f(r.scale), _f(r.cert.lo), _f(r.cert.hi), _f(r.deviation),
         *map(_f, r.extra), _status(r.ok)] for r in trace.rows], args.format)
    if args.format == "table":
        _emit_pairs([
            ("kind", trace.kind), ("nilpotency_index", trace.nilpotency),
            ("spectral_block", trace.spectral_block_index),
            ("rho_lo", _f(trace.base_cert.lo)), ("rho_hi", _f(trace.base_cert.hi)),
            ("result", "PASS" if trace.ok else "FAIL")], "table")
    return 0 if trace.ok else 1


def cmd_gelfand(args) -> int:
    from . import harness
    x = matcore.read_matrix_file(args.matrix, nonneg=True)
    trace = harness.gelfand_trace(x, args.m_max, tol=args.tol, max_iter=args.max_iter)
    # the demo reuses the trace's certificate and norm chain of X
    demo = harness.nonuniformity_demo(trace, args.m_max, args.alphas)
    if args.format == "table":
        _emit_pairs([("rho_lo", _f(trace.cert.lo)), ("rho_hi", _f(trace.cert.hi))], "table")
    _grid(["m", "f_m", "residual", "status"], [
        [str(r.m), _f(r.f_m), _f(r.residual), _status(r.ok)] for r in trace.rows], args.format)
    if demo.vacuous:
        note = (
            f"scaling demo skipped: f_m matches the certified radius at "
            f"m={demo.m} (gap {_f(demo.residual)})"
        )
        print(("note: " if args.format == "table" else "# ") + note)
    else:
        print()
        _grid(["alpha", "residual", "expected", "rel_err", "status"], [
            [_f(r.alpha), _f(r.residual), _f(r.expected), _f(r.rel_err), _status(r.ok)]
            for r in demo.rows], args.format)
    ok = trace.ok and demo.ok
    if args.format == "table":
        _emit_pairs([("result", "PASS" if ok else "FAIL")], "table")
    return 0 if ok else 1


def _add_common(sp) -> None:
    sp.add_argument(
        "--tol", type=_positive_float, default=solver.DEFAULT_TOL,
        help="target width of certified intervals (default 1e-12)",
    )
    sp.add_argument(
        "--max-iter", type=_positive_int, default=solver.DEFAULT_MAX_ITER,
        help="iteration cap per certification (default 1000000)",
    )
    sp.add_argument(
        "--format", choices=("table", "csv"), default="table",
        help="aligned table or comma-separated rows",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perron",
        description="Certified spectral analysis of nonnegative matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "analyze", help="structure and certified radius of one matrix"
    )
    sp.add_argument("matrix", help="matrix file")
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser(
        "certify", help="continuity bound for a perturbed matrix"
    )
    sp.add_argument("matrix", help="irreducible base matrix file")
    sp.add_argument("perturbed", help="perturbed nonnegative matrix file")
    _add_common(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser(
        "converge", help="trace certified radii along a matrix sequence"
    )
    sp.add_argument("base", help="limit matrix file")
    sp.add_argument("direction", help="perturbation direction file (any sign)")
    sp.add_argument(
        "--schedule", type=_schedule, default=("inv-k", 0.5),
        help="scale rule: inv-k, inv-k2 or geom:GAMMA (default inv-k)",
    )
    sp.add_argument(
        "--coeff", type=_positive_float, default=1.0,
        help="scale coefficient c in c/k, c/k^2, c*gamma^k (default 1)",
    )
    sp.add_argument(
        "--count", type=_positive_int, default=20,
        help="number of sequence terms (default 20)",
    )
    sp.add_argument(
        "--clamp", action="store_true",
        help="clamp negative term entries to zero instead of rejecting",
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser(
        "gelfand", help="norm-power radius estimates and the scaling demo"
    )
    sp.add_argument("matrix", help="matrix file")
    sp.add_argument(
        "--m-max", type=_positive_int, default=10,
        help="largest power in the trace (default 10)",
    )
    sp.add_argument(
        "--alphas", type=_alpha_list, default=[2.0, 10.0, 100.0],
        help="comma-separated scale factors for the demo (default 2,10,100)",
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_gelfand)

    return parser


_parser = None  # built on the first call of main, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (matcore.MatrixFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
