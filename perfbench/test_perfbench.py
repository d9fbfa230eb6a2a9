"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def latred():
    return run.import_latred()


def test_self_times_on_a_synthetic_span_tree():
    # op [0, 10] calls a [1, 5] and b [6, 9]; a calls c [2, 3]; b spends
    # 0.5 s in counted helpers
    spans = [
        ["op", 0.0, 10.0, -1, 0, 0.0, None],
        ["a", 1.0, 5.0, 0, 0, 0.0, None],
        ["c", 2.0, 3.0, 1, 0, 0.0, None],
        ["b", 6.0, 9.0, 0, 0, 0.5, None],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 1.0, 2.5]


def test_same_seed_same_inputs_other_seed_other_inputs(latred):
    for cls in workloads.WORKLOADS.values():
        a, b, c = (cls(seed, latred) for seed in (1, 1, 2))
        first = [a.inputs(i) for i in range(4)]
        assert first == [b.inputs(i) for i in range(4)]
        assert first != [c.inputs(i) for i in range(4)]


def test_tracer_sees_function_local_imports(latred):
    from latred.constructions import root_d

    tracer = tracing.Tracer()
    tracer.install(latred)
    try:
        tracer.begin_op(0)
        latred.reduction.kz_reduce(root_d(3))
    finally:
        tracer.uninstall()
    parents = {
        (rec[tracing.NAME], tracer.spans[rec[tracing.PARENT]][tracing.NAME])
        for rec in tracer.spans
        if rec[tracing.PARENT] >= 0
    }
    assert ("lattice.coordinates", "reduction.kz_reduce") in parents
    assert ("linalg.gram_schmidt", "enumeration.lll_rows") in parents
    assert tracer.counters["linalg.norm_sq"][0] > 0
    assert latred.reduction.kz_reduce.__module__ == "latred.reduction"
    assert not hasattr(latred.reduction.kz_reduce, "__wrapped__")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "random-minkowski"]
    cmd += ["--seed", "5", "--seconds", "1", "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in declared[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
