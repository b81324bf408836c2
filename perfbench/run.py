"""Layered end-to-end benchmark of perron.

Usage, from the root of a checkout that has ``src/perron``:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there): ``analyze_large``,
``hard_spectra``, ``certify_converge``.  One run:

1. generates the workload's inputs from the seed (``cases.py``) and
   writes the matrix files to a scratch directory under ``.state``;
2. computes the oracle radius for every printed interval (``oracle.py``,
   cached per seed, not timed);
3. measures ``setup_s``: import of perron plus one warm-up certification,
   in fresh interpreters, median of several;
4. runs the workload in one child process, one client, closed loop:
   a fixed number of whole passes over the operations (``worker.py``),
   as many as took ``--seconds`` when the benchmark was introduced
   (``cases.PASSES_PER_15S``); with ``--trace 1`` untraced and traced
   passes alternate, half of them each;
5. checks every output against the oracle (``verify.py``) and prints
   the metrics, one per line with unit, then one JSON line:
   end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``.

The known-defect probe (``cases.known_defects``) holds the inputs the
library gets wrong at present.  The worker runs each once after the
passes, untimed; they are checked like the rest but reported on their own
lines, not in ``correct``/``failed``, which cover the workload's passes.

BLAS threads are pinned to 1 for this process and its children.  Spans
of the traced passes are written to ``.state/traces``.  The process exits
non-zero, printing no result, if the library sources are missing or the
workload process fails.
"""

import os

# before numpy loads, here and (through the environment) in every child
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
import cases  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_share": "share",
    "converged_share": "share",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import numpy as np
import perron
import perron.cli
perron.perron_root(np.array([[1.0, 2.0], [3.0, 4.0]]))
print(time.perf_counter() - t0)
"""


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup():
    """Median raw and calibrated set-up time over fresh interpreters."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calib.measure()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        t = float(proc.stdout.split()[-1])
        raw.append(t)
        scaled.append(t * calib.REF_S / statistics.median([before, calib.measure()]))
    return statistics.median(raw), statistics.median(scaled)


def write_inputs(ops, work, prefix="op"):
    """Matrix files (CLI) or .npy arrays (root) for the worker's manifest."""
    entries = []
    for i, op in enumerate(ops):
        entry = {"id": op.id, "command": op.command}
        if op.command == "root":
            entry["npy"] = str(work / f"{prefix}{i}.npy")
            np.save(entry["npy"], op.mats["a"])
            entry.update(tol=cases.TOL, max_iter=op.max_iter)
        else:
            paths = []
            for role, a in op.mats.items():
                path = work / f"{prefix}{i}_{role}.txt"
                path.write_text(cases.render(a), encoding="utf-8")
                paths.append(str(path))
            entry["argv"] = [op.command, *paths, *op.args]
        entries.append(entry)
    return entries


def provenance(result, seed):
    head = ROOT / ".git" / "HEAD"
    rev = "none (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                rev = target.read_text().strip()
    digest = hashlib.sha1()
    for path in sorted((SRC / "perron").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": result["python"],
        "numpy": result["numpy"],
        "NUMBA_ENABLED": result["numba_enabled"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_rev": rev,
        "src_sha1": digest.hexdigest(),
        "seed": seed,
        "blas_env": BLAS_ENV,
    }


def timings(passes, calibrated):
    """Throughput and latency quantiles, raw or in reference-machine time.

    ``ops_per_s`` is the median over passes of operations per second of
    operation time.  The tail is the sample with TAIL_BEYOND samples
    beyond it, reported with its percentile.
    """
    def t(o):
        return o["t"] * calib.REF_S / o["cal"] if calibrated else o["t"]

    xs = sorted(t(o) for p in passes for o in p["ops"])
    rank = max(len(xs) - TAIL_BEYOND, 1)  # 1-based
    pass_s = statistics.median(sum(map(t, p["ops"])) for p in passes)
    return {
        "pass_s": pass_s,
        "ops_per_s": len(passes[0]["ops"]) / pass_s,
        "latency_p50_ms": 1e3 * statistics.median(xs),
        "latency_tail_ms": 1e3 * xs[rank - 1],
        "tail_pct": 100.0 * rank / len(xs),
        "samples": len(xs),
    }


def report_probe(probe, radii, outs):
    """Check the known-defect inputs and print each still-failing one."""
    still = 0
    for op, rad, out in zip(probe, radii, outs):
        res = verify.check(op, out, rad)
        still += not res.ok
        print(f"known defect {'still fails' if not res.ok else 'now passes'}: "
              f"{op.id}: {res.reason or 'inside the oracle interval'}")
    if probe:
        print(f"known_defects: {still} of {len(probe)} probe inputs fail "
              "(untimed, outside correct/failed)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "perron" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2

    ops = cases.build(args.workload, args.seed)
    probe = cases.known_defects(args.workload)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, ops, probe, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, ops, probe, work):
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    families = Counter(op.family for op in ops)
    print(f"cases: {len(ops)} operations per pass: "
          + ", ".join(f"{k} {v}" for k, v in families.items()))
    manifest = {"src": str(SRC), "passes": cases.passes(args.workload, args.seconds),
                "trace": args.trace, "ops": write_inputs(ops, work),
                "probe": write_inputs(probe, work, prefix="probe")}

    t0 = time.perf_counter()
    cache = oracle.Cache(str(STATE / "oracle" / f"{args.workload}-{args.seed}.json"))
    radii = [verify.expected(op, cache) for op in ops]
    probe_radii = [verify.expected(op, cache) for op in probe]
    cache.save()
    print(f"oracle: {sum(map(len, radii + probe_radii))} radii in {time.perf_counter() - t0:.2f} s "
          "(untimed)")

    setup_raw, setup_scaled = measure_setup()

    manifest_path, result_path = work / "manifest.json", work / "result.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(manifest_path), str(result_path)],
        env=child_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    lines = [json.loads(line) for line in result_path.read_text(encoding="utf-8").splitlines()]
    result = lines[-1]
    for kind in ("untraced", "traced", "probe"):
        result[kind] = [p for p in lines if p["kind"] == kind]
    print("provenance: " + json.dumps(provenance(result, args.seed)))

    # every execution of every operation is checked, traced passes too
    attempted = failed = certs = unconverged = 0
    failures = Counter()
    first_reason = {}
    for p in result["untraced"] + result["traced"]:
        for op, rad, out in zip(ops, radii, p["ops"]):
            res = verify.check(op, out, rad)
            attempted += 1
            certs += res.certs
            unconverged += res.unconverged
            if not res.ok:
                failed += 1
                failures[op.family] += 1
                first_reason.setdefault(op.id, res.reason)
    for op_id, reason in first_reason.items():
        print(f"failed: {op_id}: {reason}")
    print(f"failures by family: {dict(failures) or 'none'}")
    report_probe(probe, probe_radii, result["probe"][0]["ops"])

    untraced = result["untraced"]
    raw, scaled = timings(untraced, calibrated=False), timings(untraced, calibrated=True)
    e2e = {
        "setup_s": setup_scaled,
        "ops_per_s": scaled["ops_per_s"],
        "latency_p50_ms": scaled["latency_p50_ms"],
        "latency_tail_ms": scaled["latency_tail_ms"],
        "ok_share": 1.0 - failed / attempted,
        "converged_share": 1.0 - unconverged / certs if certs else 1.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"passes: {len(untraced)} untraced of {len(ops)} operations; "
          f"latency_tail_ms is p{scaled['tail_pct']:.2f} of {scaled['samples']} samples "
          f"({TAIL_BEYOND} beyond it)")
    print(f"failed_share: {failed / attempted!r} ({failed} of {attempted}); "
          f"unconverged_share: {unconverged / max(certs, 1)!r} "
          f"({unconverged} of {certs} certificates)")
    print(f"raw (uncalibrated) timings: setup_s {setup_raw!r}, " + ", ".join(
        f"{k} {raw[k]!r}" for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")))
    for name, value in e2e.items():
        print(f"metric {name} = {value!r} {UNITS[name]}")

    if args.trace:
        traced = result["traced"]
        passes = len(traced)
        stdout_bytes = sum(len(o.get("stdout", "").encode()) for p in traced
                           for o in p["ops"])
        layers, absent = tracing.layer_metrics(
            result["spans"], set(result["installed"]), passes, len(ops), stdout_bytes,
            statistics.median(calib.REF_S / o["cal"] for p in traced for o in p["ops"]),
            timings(traced, calibrated=True)["pass_s"] / scaled["pass_s"] - 1.0)
        trace_dir = STATE / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "ops": [op.id for op in ops], "passes": passes,
            "fields": ["name", "start", "end", "parent", "op", "info"],
            "spans": result["spans"], "metrics": layers}), encoding="utf-8")
        print(f"trace: {passes} traced passes, {len(result['spans'])} spans "
              f"written to {trace_path.relative_to(ROOT)}; values are per pass")
        for name in absent:
            print(f"absent: {name} (its layer is not reachable)")
        for name, value in layers.items():
            print(f"metric {name} = {value!r} {tracing.UNITS[name]}")
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
