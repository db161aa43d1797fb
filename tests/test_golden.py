"""Golden-certificate contract: fixed inputs must keep giving the same reports.

The reports under ``tests/data/`` were written by ``cli.main`` for the
inputs below (timing fields removed). Exit codes, stage, predicate and suite
names and results, chain bases and dimensions, ``depth_used`` and
``threshold_wiped`` must match exactly; floats (distances, the minimum
singular value, delta) to within ``FLOAT_ATOL``. A golden file changes only
with a change of specification named in CHANGES.md, never to absorb a
defect. Regenerate with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

from dsh_lab import cli
from conftest import strip_timing

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FLOAT_ATOL = 1e-12
PERIOD_DOUBLING = {"alphabet": ["0", "1"], "rules": {"0": "01", "1": "00"}, "seed": "0"}

# Fibonacci at CLI defaults over the plant scales; period doubling at scale
# 0.05 (seed 1104004 wipes the threshold); every suite at default trials, and
# the three parameter-grid suites at two more seeds.
PIPELINE_INPUTS = [
    ("pipeline", "--plant-scale", scale, "--seed", str(seed))
    for seed in range(4) for scale in ("0.02", "0.05", "0.1", "0.2")
] + [
    ("pipeline", "--substitution", "{pd}", "--plant-scale", "0.05", "--seed", str(seed))
    for seed in (0, 1, 2, 3, 1104004)
]
VERIFY_INPUTS = [("verify", "--suites", "all", "--seed", "0")] + [
    ("verify", "--suites", "conj,fullconj,condense", "--seed", str(seed)) for seed in (1, 2)
]
GOLDEN = {"golden_pipeline.json": PIPELINE_INPUTS, "golden_verify.json": VERIFY_INPUTS}


def _run(argv, workdir):
    """(exit code, report without timings) of one in-process CLI run."""
    pd = os.path.join(workdir, "period-doubling.json")
    if not os.path.exists(pd):
        with open(pd, "w", encoding="utf-8") as fh:
            json.dump(PERIOD_DOUBLING, fh)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main([a.format(pd=pd) for a in argv])
    text = buf.getvalue()
    return code, strip_timing(json.loads(text)) if text else None


def _float_str(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def assert_matches(got, want, path="report"):
    """Exact on structure, names, strings, ints and bools; floats within FLOAT_ATOL.
    A predicate witness that prints a float (delta) is compared as that float."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            assert_matches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)) and math.isclose(
            got, want, rel_tol=0.0, abs_tol=FLOAT_ATOL), (path, got, want)
    elif path.endswith(".witness") and None not in (_float_str(got), _float_str(want)):
        assert math.isclose(_float_str(got), _float_str(want),
                            rel_tol=0.0, abs_tol=FLOAT_ATOL), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def _load(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_match_golden(name, tmp_path):
    golden = _load(name)
    assert [tuple(g["argv"]) for g in golden] == GOLDEN[name]
    for entry in golden:
        code, report = _run(entry["argv"], str(tmp_path))
        assert code == entry["exit"], entry["argv"]
        assert_matches(report, entry["report"], " ".join(entry["argv"]))


def test_golden_contract_catches_drift():
    want = {"summary": {"threshold_delta": 0.05, "threshold_wiped": False},
            "stages": [{"predicates": {"p": {"pass": True, "witness": "0.05"}}}]}
    assert_matches(json.loads(json.dumps(want)), want)
    near = {"summary": {"threshold_delta": 0.05 + 1e-13, "threshold_wiped": False},
            "stages": [{"predicates": {"p": {"pass": True, "witness": repr(0.05 + 1e-13)}}}]}
    assert_matches(near, want)
    for bad in ({"summary": {"threshold_delta": 0.05 + 1e-9, "threshold_wiped": False},
                 "stages": want["stages"]},
                {"summary": {"threshold_delta": 0.05, "threshold_wiped": 0},
                 "stages": want["stages"]},
                {"summary": want["summary"],
                 "stages": [{"predicates": {"p": {"pass": False, "witness": "0.05"}}}]},
                {"summary": want["summary"], "stages": []}):
        with pytest.raises(AssertionError):
            assert_matches(bad, want)


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, inputs in GOLDEN.items():
            entries = []
            for argv in inputs:
                code, report = _run(argv, workdir)
                entries.append({"argv": list(argv), "exit": code, "report": report})
            with open(os.path.join(DATA, name), "w", encoding="utf-8") as fh:
                json.dump(entries, fh, sort_keys=True, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
