"""Self-check of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. The oracle rejects an interval that ends one ulp short of the 50-digit
   radius and accepts the two-ulp interval around it.
2. A short run (two passes) of every workload, untraced and traced,
   prints every metric BENCHMARK.json names with its unit, ends with
   one JSON line of the agreed shape, and has no failed operation.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.

Exits 1 at the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_oracle():
    for a in (np.array([[1.0, 2.0], [3.0, 4.0]]),
              np.array([[1.0, 1.0], [1e-8, 1.0]]),
              np.random.default_rng(0).uniform(0.0, 10.0, (8, 8))):
        rho = oracle.small_radius(a)
        below = float(rho.value)
        if below >= rho.value:
            below = math.nextafter(below, -math.inf)
        above = math.nextafter(below, math.inf)
        assert below < rho.value < above, "radius is a float; pick another matrix"
        assert not rho.contained_in(math.nextafter(below, -math.inf), below), \
            f"accepted an interval 1 ulp short of {mpmath.nstr(rho.value, 25)}"
        assert not rho.contained_in(above, math.nextafter(above, math.inf)), \
            f"accepted an interval 1 ulp above {mpmath.nstr(rho.value, 25)}"
        assert rho.contained_in(below, above), \
            f"rejected [{below!r}, {above!r}] around {mpmath.nstr(rho.value, 25)}"
    print("oracle: 1-ulp-short intervals rejected, enclosing ones accepted")


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_metrics(spec):
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", workload["name"], "--seed", "0",
                        "--seconds", "1", "--trace", str(trace)], ROOT)
            assert proc.returncode == 0, proc.stderr[-2000:]
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            assert result["correct"] and result["failed"] == 0, \
                f"{workload['name']}: {result['failed']} operations failed"
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload['name']} trace={trace}: {got} != {want}"
            for name, unit in want.items():
                assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                           for line in lines), f"metric line for {name} missing"
            print(f"{workload['name']} trace={trace}: {len(want)} metrics with units, "
                  f"{result['failed']} of {result['attempted']} operations failed")


def check_bare():
    bare = HERE / ".state" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".state", "__pycache__"))
        proc = run(["--workload", "hard_spectra", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], bare)
        assert proc.returncode != 0, "succeeded without the library"
        assert not proc.stdout.strip(), f"printed a result: {proc.stdout[-300:]}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {proc.returncode}, nothing printed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        check_oracle()
        check_bare()
        check_metrics(spec)
    except AssertionError as exc:
        print(f"selfcheck failed: {exc}")
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
