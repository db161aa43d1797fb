"""The benchmark's traced run must fill every per-layer figure it gates.

A figure whose span never runs comes out null, and a traced run with a null
gated figure is malformed even though every op exits 0 with a correct
report. This runs one traced op per pipeline workload through the harness's
own helpers (``perfbench/run.py``, imported as a file) and checks each
gated figure.
"""

import importlib.util
import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_pipeline_ops_fill_every_gated_figure(bench, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        gated = [m["name"] for m in json.load(fh)["per_layer"]]
    # trace.overhead compares traced with untraced rounds, not one dump
    gated.remove("trace.overhead")
    getters = {name: get for name, _, _, get in bench.layer_metrics()}
    assert set(gated) <= set(getters)

    workdir = str(tmp_path)
    inputs = {
        "fib-sweep": bench.WORKLOADS["fib-sweep"].args(0, bench.FIB_SCALES.index(0.05), workdir),
        "pd-deep": bench.WORKLOADS["pd-deep"].args(0, 0, workdir),
    }
    with ThreadPoolExecutor(len(inputs)) as pool:
        runs = {workload: pool.submit(bench.run_op, args, "trace", op_id, workdir)
                for op_id, (workload, args) in enumerate(inputs.items())}
    for workload, run in runs.items():
        rec = run.result()
        assert bench.check_op("pipeline", rec) is None, (workload, rec["stderr"])
        merged = bench._merge_round([rec])
        null = [name for name in gated if getters[name](merged) is None]
        assert null == [], f"{workload}: null gated figures {null}"
