"""The benchmark's traced run must fill every per-layer figure it gates.

A figure whose span never runs comes out null, and a traced run with a null
gated figure is malformed even though every op exits 0 with a correct
report. This runs one traced op per workload through the harness's own
helpers (``perfbench/run.py``, imported as a file) and checks each gated
figure; the ``verify`` op runs every suite at one trial.
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


def _gated_getters(bench):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        gated = [m["name"] for m in json.load(fh)["per_layer"]]
    # trace.overhead compares traced with untraced rounds, not one dump
    gated.remove("trace.overhead")
    getters = {name: get for name, _, _, get in bench.layer_metrics()}
    assert set(gated) <= set(getters)
    return {name: getters[name] for name in gated}


def _null_figures(bench, getters, rec):
    merged = bench._merge_round([rec])
    return [name for name, get in getters.items() if get(merged) is None]


def test_traced_pipeline_ops_fill_every_gated_figure(bench, tmp_path):
    getters = _gated_getters(bench)
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
        null = _null_figures(bench, getters, rec)
        assert null == [], f"{workload}: null gated figures {null}"


def test_traced_verify_op_fills_every_gated_figure(bench, tmp_path):
    getters = _gated_getters(bench)
    workdir = str(tmp_path)
    args = bench.WORKLOADS["verify-all"].args(0, 0, workdir) + ["--trials", "1"]
    rec = bench.run_op(args, "trace", 0, workdir)
    assert bench.check_op("verify", rec) is None, rec["stderr"]
    null = _null_figures(bench, getters, rec)
    assert null == [], f"verify-all: null gated figures {null}"
