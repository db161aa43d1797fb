"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance and trial count is pinned here; the suites come from
``dsh_lab.verify`` so the command-line ``verify`` gate checks the same
properties.
"""

import time

import numpy as np
import pytest

from dsh_lab import dsh_model as dm
from dsh_lab import dynamics as dyn
from dsh_lab import matrixkit as mk
from dsh_lab import srone_pipeline as sp
from dsh_lab import unitary_paths as up
from dsh_lab import verify as vf


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


def _suite(name, trials=None, seed=2024):
    return vf.run_suite(name, seed=seed, trials=trials)


def test_criterion_01_path_endpoints():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        k1, k2 = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
        spec = up.TranspositionPathSpec(int(k1), int(k2), n)
        swap = mk.perm_matrix(mk.Permutation.transposition(n, int(k1), int(k2)))
        assert np.max(np.abs(up.u_transposition(spec, 0.0) - np.eye(n))) <= 1e-12
        assert np.max(np.abs(up.u_transposition(spec, 1.0) - swap)) <= 1e-12
    spec = up.TranspositionPathSpec(2, 7, 9)
    for t in np.linspace(0.0, 1.0, 100):
        assert mk.is_unitary(up.u_transposition(spec, float(t)), 1e-10)
    elapsed = time.monotonic() - t0
    _report(1, "transposition path endpoints and unitarity", elapsed < 5.0,
            f"{elapsed:.2f}s")


def test_criterion_02_identity_suites():
    t0 = time.monotonic()
    results = [_suite(name) for name in ("conj", "fullconj", "elementary")]
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in results) and elapsed < 30.0
    _report(2, "conjugation, nesting, and cycle/block-swap identities", ok,
            f"{elapsed:.2f}s, checks={sum(r.checks for r in results)}")


def test_criterion_03_multi_window_gathering():
    r = _suite("block2", trials=200)
    _report(3, "multi-window gathering bound on 200 trials", r.passed,
            r.failure or f"checks={r.checks}")


def test_criterion_04_condensation_bound():
    r = _suite("condense", trials=100)
    _report(4, "condensation endpoint crosses and radius bound", r.passed,
            r.failure or f"checks={r.checks}")


def test_criterion_05_vn_and_triangulation():
    r1 = _suite("vn", trials=100)
    r2 = _suite("triangulate", trials=100)
    ok = r1.passed and r2.passed
    _report(5, "triangulating-unitary decomposition and triangulation", ok,
            r1.failure or r2.failure or f"checks={r1.checks + r2.checks}")


def test_criterion_06_block_start_oracle():
    r = _suite("blockchar", trials=50)
    _report(6, "block-start/witness equivalence on 50 random models", r.passed,
            r.failure or f"checks={r.checks}")


def test_criterion_07_dynamics_oracle():
    t0 = time.monotonic()
    fib = dyn.Substitution.fibonacci()
    ok = True
    for scan in (10_000, 20_000):
        ok = ok and dyn.return_words(fib, "0", scan) == ["0", "01"]
        ok = ok and dyn.return_words(fib, "01", scan) == ["01", "010"]
    elapsed = time.monotonic() - t0
    _report(7, "return words to '0' and '01' at two scan lengths",
            ok and elapsed < 2.0, f"{elapsed:.2f}s")


def test_criterion_08_embedding_identity():
    r = _suite("embed")
    _report(8, "generator identities along '0' < '01' < '0100101'", r.passed,
            r.failure or f"checks={r.checks}")


def test_criterion_09_simplicity_witnesses():
    r = _suite("simplicity")
    _report(9, "finite simplicity witnesses at chain depth <= 6", r.passed,
            r.failure or f"checks={r.checks}")


def test_criterion_10_end_to_end_pipeline():
    t0 = time.monotonic()
    fib = dyn.Substitution.fibonacci()
    chain = dyn.build_cylinder_chain(fib, dyn.fibonacci_prefix_bases(fib, 3), base_horizon=1,
                                     max_points_per_level=16)
    rng = np.random.default_rng(2024)
    planted = sp.plant_singular_element(chain.model(1), rng, scale=0.02)
    eps = 0.25
    chain = sp.plan_chain(fib, chain, 14, planted, eps, 16, dyn.DEFAULT_SCAN_LENGTH)
    _, cert = sp.approximate_by_invertible(list(chain.maps), planted, eps,
                                           input_id="planted")
    elapsed = time.monotonic() - t0
    preds_ok = all(ok for s in cert.stages for (_, ok, _) in s.predicates)
    ok = (cert.total_distance < eps and cert.min_singular_value > 1e-3
          and preds_ok and elapsed < 60.0)
    _report(10, "end-to-end pipeline certificate", ok,
            f"distance={cert.total_distance:.4f}, "
            f"min_sv={cert.min_singular_value:.4f}, {elapsed:.1f}s")
