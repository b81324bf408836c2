"""Record the benchmark of a checkout as a committed ``BENCH_*.json``.

    python3 benchmarks/record_bench.py LABEL [CHECKOUT]

For each workload that ``BENCHMARK.json`` declares, at seeds 1 to 3,
runs its command (``perfbench/run.py``) in CHECKOUT, the root of this
checkout by default, as ``--workload W --seed S --seconds <run_seconds>
--trace 0``.  Of each run it keeps the ``provenance:`` JSON and the
result, the JSON of its last line, and writes them all to
``BENCH_<LABEL>.json`` at the root of this checkout.  A run that exits
non-zero, or whose last line is not JSON, ends the script with exit 1,
and nothing is written.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
PROVENANCE = "provenance: "


class RunFailed(Exception):
    pass


def _run(command, checkout, workload, seed, seconds):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    where = f"{workload} seed {seed}"
    if proc.returncode != 0:
        raise RunFailed(f"{where} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(f"{where}: last line is not JSON") from None
    provenance = next((json.loads(s[len(PROVENANCE):]) for s in lines
                       if s.startswith(PROVENANCE)), None)
    return {"workload": workload, "seed": seed, "provenance": provenance,
            "result": result}


def record(label, checkout, root=ROOT):
    """Run every workload at every seed in checkout, then write
    ``root/BENCH_<label>.json`` and return its path."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = [_run(spec["command"], checkout, w["name"], seed, spec["run_seconds"])
            for w in spec["workloads"] for seed in SEEDS]
    out = root / f"BENCH_{label}.json"
    out.write_text(json.dumps({"label": label, "command": spec["command"],
                               "run_seconds": spec["run_seconds"], "runs": runs},
                              indent=1) + "\n", encoding="utf-8")
    return out


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[0] + "\n\nusage: record_bench.py "
              "LABEL [CHECKOUT]", file=sys.stderr)
        return 2
    checkout = pathlib.Path(argv[1]).resolve() if len(argv) == 2 else ROOT
    try:
        out = record(argv[0], checkout)
    except RunFailed as exc:
        print(f"error: {exc}; nothing written", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
