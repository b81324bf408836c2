"""The workload process: one closed-loop client driving perron.

Run by ``run.py`` as ``python3 worker.py MANIFEST RESULT``.  It imports
perron from the checkout's ``src``, loads the generated inputs, runs one
untimed warm-up operation per command, then runs the given number of
whole passes over the operations, with a speed calibration
(``calib.py``) every 0.25 s.  With tracing on, untraced and traced passes
alternate, half of the passes each.  The known-defect probe runs once
after the passes, untimed.
Each operation goes through a public entry point only:
``perron.perron_root`` or ``perron.cli.main`` with stdout captured.
The per-operation outputs and timings are written to RESULT, one JSON
line per pass and a summary line; checking them is left to the parent,
which holds the oracle.
"""

import contextlib
import io
import json
import platform
import resource
import sys
import time

import numpy as np

import calib
import tracing

CALIBRATE_EVERY_S = 0.25


def _runner(perron, op):
    if op["command"] == "root":
        a = np.load(op["npy"])
        tol, max_iter = op["tol"], op["max_iter"]

        def run():
            try:
                cert = perron.perron_root(a, tol=tol, max_iter=max_iter)
            except Exception as exc:  # a raise on valid input is a failure to report
                return {"error": f"{type(exc).__name__}: {exc}"}
            return {"lo": cert.lo, "hi": cert.hi}

    else:
        argv = op["argv"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = perron.cli.main(argv)
            except Exception as exc:  # main() should map every error to an exit code
                return {"error": f"{type(exc).__name__}: {exc}"}
            return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-400:]}

    return run


def _pass(runners, tracer=None):
    """One pass.  Each operation gets the mean of the calibrations just
    before and just after it, so its time can be put on the reference
    scale; calibration time is not part of any operation's time."""
    ops, pending = [], []  # pending: operations waiting for the next calibration
    cal = calib.measure()
    last = time.perf_counter()
    for i, run in enumerate(runners):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        out = run()
        out["t"] = time.perf_counter() - t0
        out["cal"] = cal
        ops.append(out)
        pending.append(out)
        if time.perf_counter() - last > CALIBRATE_EVERY_S or i == len(runners) - 1:
            cal = calib.measure()
            last = time.perf_counter()
            for o in pending:
                o["cal"] = 0.5 * (o["cal"] + cal)
            pending = []
    return {"ops": ops}


def _traced_pass(runners, tracer):
    restore, installed = tracing.install(tracer)
    try:
        return _pass(runners, tracer), installed
    finally:
        restore()


def main(manifest_path, result_path):
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    import perron
    import perron.cli

    runners = [_runner(perron, op) for op in manifest["ops"]]
    seen = set()
    for op, run in zip(manifest["ops"], runners):
        if op["command"] not in seen:
            seen.add(op["command"])
            run()

    # traced runs alternate an untraced and a traced pass, so drift hits
    # both alike, and split the passes between the two.  Each pass is
    # written out as it ends, so stored outputs do not add to peak memory.
    tracer = installed = None
    rounds = manifest["passes"]
    if manifest["trace"]:
        tracer = tracing.Tracer()
        rounds = (rounds + 1) // 2
    with open(result_path, "w", encoding="utf-8") as fh:
        for _ in range(rounds):
            fh.write(json.dumps({"kind": "untraced", **_pass(runners)}) + "\n")
            if tracer is not None:
                record, installed = _traced_pass(runners, tracer)
                fh.write(json.dumps({"kind": "traced", **record}) + "\n")
        probe = [_runner(perron, op)() for op in manifest["probe"]]
        fh.write(json.dumps({"kind": "probe", "ops": probe}) + "\n")
        summary = {
            "kind": "summary",
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numba_enabled": getattr(sys.modules.get("perron._kernels"), "NUMBA_ENABLED",
                                     None),
        }
        if tracer is not None:
            summary.update(spans=tracer.spans, installed=sorted(installed))
        fh.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
