"""``benchmarks/record_bench.py`` on a stub checkout whose ``run.py``
prints what perfbench's does, or fails."""

import importlib.util
import json
import pathlib
import sys

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

_STUB = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
print("provenance: " + json.dumps({{"seed": int(args["--seed"])}}))
print("metric ok_share = 1.0 share")
print({last!r} if args["--seed"] == "3" else json.dumps(args))
sys.exit({code} if args["--seed"] == "3" else 0)
"""


@pytest.fixture
def stub(tmp_path):
    root, checkout = tmp_path / "root", tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"], "run_seconds": 15,
        "workloads": [{"name": "a"}, {"name": "b"}]}))

    def write(last, code=0):
        (checkout / "perfbench" / "run.py").write_text(_STUB.format(last=last, code=code))
        return root, checkout

    return write


def test_records_every_workload_and_seed(stub):
    root, checkout = stub('{"correct": true}')
    out = record_bench.record("x", checkout, root)
    assert out == root / "BENCH_x.json"
    runs = json.loads(out.read_text())["runs"]
    assert [(r["workload"], r["seed"]) for r in runs] == [
        (w, s) for w in "ab" for s in (1, 2, 3)]
    assert all(r["provenance"] == {"seed": r["seed"]} for r in runs)
    assert runs[0]["result"] == {"--workload": "a", "--seed": "1", "--seconds": "15",
                                 "--trace": "0"}
    assert runs[2]["result"] == {"correct": True}


@pytest.mark.parametrize("last, code", [('{"correct": true}', 1), ("done", 0)])
def test_a_failed_run_writes_nothing(stub, last, code):
    root, checkout = stub(last, code)
    with pytest.raises(record_bench.RunFailed, match="a seed 3"):
        record_bench.record("x", checkout, root)
    assert not (root / "BENCH_x.json").exists()
