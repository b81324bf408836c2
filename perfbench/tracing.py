"""Spans at perron's layer boundaries, recorded from outside the library.

``install`` replaces the module attributes through which the layers call
each other (``perron.solver.collatz_wielandt``, ``perron.structure.
strongly_connected_components``, ...) with timing wrappers and returns a
function that puts the originals back.  A span is ``[name, start, end,
parent, op, info]``: ``parent`` indexes the enclosing span (-1 at the
top), ``op`` the operation of the pass, ``info`` a few values read from
the call (sweeps, widths, bytes parsed), or the exception it raised.  Names the library no longer
has are skipped, and the metrics of a layer with no wrapper installed
are reported absent.

``layer_metrics`` turns the spans into per-pass counts and times; a
span's self time is its duration minus that of its direct children.
"""

import importlib
import statistics
import time


def _parse_info(args, kwargs, result):
    return {"bytes": len(args[0] if args else kwargs["text"])}


def _cert_info(args, kwargs, result):
    return {"lo": float(result.lo), "hi": float(result.hi)}


def _kernel_info(args, kwargs, result):
    max_iter = args[2] if len(args) > 2 else kwargs["max_iter"]
    return {"n": int(args[0].shape[0]), "sweeps": int(result[3]),
            "converged": bool(result[4]), "max_iter": int(max_iter)}


def _trace_info(args, kwargs, result):
    return {"terms": len(result.rows)}


# (module, attribute, span name, reader of the call's info)
TARGETS = (
    ("perron.cli", "main", "cli.main", None),
    ("perron.matcore", "parse_matrix", "matcore.parse", _parse_info),
    ("perron.matcore", "nonneg_matrix", "matcore.validate", None),
    ("perron.structure", "strongly_connected_components", "structure.scc", None),
    ("perron.structure", "nilpotency_index", "structure.nilpotency", None),
    ("perron", "perron_root", "solver.perron_root", _cert_info),
    ("perron.solver", "perron_root", "solver.perron_root", _cert_info),
    ("perron.solver", "perron_irreducible", "solver.perron_irreducible", _cert_info),
    ("perron.solver", "collatz_wielandt", "kernels.collatz_wielandt", _kernel_info),
    ("perron.perturb", "continuity_certificate", "perturb.continuity", None),
    ("perron.perturb", "sharpness_probe", "perturb.sharpness", None),
    ("perron.harness", "run_irreducible_trace", "harness.run_trace", _trace_info),
    ("perron.harness", "run_reducible_trace", "harness.run_trace", _trace_info),
    ("perron.harness", "run_nilpotent_trace", "harness.run_trace", _trace_info),
    ("perron.harness", "gelfand_trace", "harness.gelfand", None),
    ("perron.harness", "nonuniformity_demo", "harness.nonuniformity", None),
)


class Tracer:
    """In-memory span recorder; ``op`` is set by the caller per operation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1

    def wrap(self, name, fn, read_info):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if read_info is not None:
                try:
                    rec[5] = read_info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # changed signature: the metrics using it go absent
            return result

        return traced


def install(tracer):
    """Wrap every target that exists; return (restore, installed span names)."""
    saved = []
    installed = set()
    for module_name, attr, name, read_info in TARGETS:
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, read_info))
        installed.add(name)

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore, installed


# metric -> unit; every value is per pass of the workload
UNITS = {
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "matcore.parse_calls": "count",
    "matcore.parse_s": "s",
    "matcore.parse_mb_per_s": "MB/s",
    "matcore.validate_calls": "count",
    "matcore.validate_s": "s",
    "structure.scc_calls": "count",
    "structure.scc_calls_per_op": "count/op",
    "structure.scc_s": "s",
    "structure.nilpotency_s": "s",
    "kernels.calls": "count",
    "kernels.sweeps": "count",
    "kernels.s": "s",
    "kernels.us_per_sweep": "us",
    "kernels.max_iter_hits": "count",
    "kernels.gflop_computed": "Gflop",
    "kernels.gb_computed": "GB",
    "solver.certs": "count",
    "solver.self_s": "s",
    "solver.kernel_calls_per_cert": "count/cert",
    "solver.width_rel_p50": "ratio",
    "perturb.calls": "count",
    "perturb.self_s": "s",
    "harness.terms": "count",
    "harness.self_s": "s",
    "harness.certs_per_term": "count/term",
    "trace.overhead_share": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, installed, passes, ops_per_pass, stdout_bytes, scale,
                  overhead):
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    Span times are multiplied by ``scale``, the calibration factor of the
    traced passes; ``overhead`` is the traced pass time over the untraced
    one, minus 1.  Returns (metrics, absent): a layer none of whose
    wrappers could be installed, or whose call info could not be read,
    is listed in ``absent`` instead of being reported as zero.
    """
    dur = [(s[2] - s[1]) * scale for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]
    layer = [s[0].split(".", 1)[0] for s in spans]

    def idx(name=None, lay=None):
        return [i for i, s in enumerate(spans)
                if (name is None or s[0] == name) and (lay is None or layer[i] == lay)]

    def total(values, ids):
        return sum(values[i] for i in ids) / passes

    def count(ids):
        return len(ids) / passes

    def infos(ids):
        # calls that raised carry no values; None (unreadable) raises TypeError
        return [spans[i][5] for i in ids if "raised" not in spans[i][5]]

    # outermost solver spans are the certificates callers receive
    certs = [i for i in idx(lay="solver")
             if spans[i][3] < 0 or layer[spans[i][3]] != "solver"]
    runs = set(idx(name="harness.run_trace"))

    def under_run(i):
        while i >= 0 and i not in runs:
            i = spans[i][3]
        return i >= 0

    parse, kern = idx(name="matcore.parse"), idx(name="kernels.collatz_wielandt")
    scc, validate = idx(name="structure.scc"), idx(name="matcore.validate")

    def cli():
        return {"cli.self_s": total(self_time, idx(lay="cli")),
                "cli.stdout_bytes": stdout_bytes / passes}

    def matcore():
        parsed = sum(x["bytes"] for x in infos(parse))
        return {"matcore.parse_calls": count(parse),
                "matcore.parse_s": total(dur, parse),
                "matcore.parse_mb_per_s": _ratio(parsed / 1e6, sum(dur[i] for i in parse)),
                "matcore.validate_calls": count(validate),
                "matcore.validate_s": total(dur, validate)}

    def structure():
        return {"structure.scc_calls": count(scc),
                "structure.scc_calls_per_op": count(scc) / ops_per_pass,
                "structure.scc_s": total(dur, scc),
                "structure.nilpotency_s": total(self_time, idx(name="structure.nilpotency"))}

    def kernels():
        sweeps = entries = hits = 0
        for x in infos(kern):
            sweeps += x["sweeps"]
            entries += x["n"] * x["n"] * x["sweeps"]  # one n x n mat-vec per sweep
            hits += (not x["converged"]) and x["sweeps"] >= x["max_iter"]
        seconds = sum(dur[i] for i in kern)
        return {"kernels.calls": count(kern),
                "kernels.sweeps": sweeps / passes,
                "kernels.s": seconds / passes,
                "kernels.us_per_sweep": _ratio(seconds * 1e6, sweeps),
                "kernels.max_iter_hits": hits / passes,
                # computed from the shapes: 2 flop and 8 bytes per entry per sweep
                "kernels.gflop_computed": 2.0 * entries / passes / 1e9,
                "kernels.gb_computed": 8.0 * entries / passes / 1e9}

    def solver():
        widths = [_ratio(x["hi"] - x["lo"], x["hi"]) for x in infos(certs)]
        return {"solver.certs": count(certs),
                "solver.self_s": total(self_time, idx(lay="solver")),
                "solver.kernel_calls_per_cert": _ratio(len(kern), len(certs)),
                "solver.width_rel_p50": statistics.median(widths) if widths else 0.0}

    def perturb():
        return {"perturb.calls": count(idx(lay="perturb")),
                "perturb.self_s": total(self_time, idx(lay="perturb"))}

    def harness():
        terms = sum(x["terms"] for x in infos(sorted(runs)))
        return {"harness.terms": terms / passes,
                "harness.self_s": total(self_time, idx(lay="harness")),
                "harness.certs_per_term": _ratio(sum(map(under_run, certs)), terms)}

    installed_layers = {name.split(".", 1)[0] for name in installed}
    metrics, absent = {}, []
    for compute in (cli, matcore, structure, kernels, solver, perturb, harness):
        names = [m for m in UNITS if m.startswith(compute.__name__ + ".")]
        try:
            if compute.__name__ not in installed_layers:
                raise TypeError
            metrics.update(compute())
        except TypeError:  # unreachable layer or unreadable call info
            absent += names
    metrics["trace.overhead_share"] = overhead
    return metrics, absent
