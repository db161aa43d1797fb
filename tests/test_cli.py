import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from dsh_lab import cli
from dsh_lab import verify as vf
from conftest import element_to_json, strip_timing, unit_element, zero_element


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse(stdout):
    return json.loads(stdout)


def test_return_words_report(capsys):
    code, out, _ = run_cli(capsys, "return-words", "--word", "0", "--seed", "7")
    assert code == 0
    report = parse(out)
    assert report["return_words"] == ["0", "01"]
    assert report["return_times"] == [1, 2]
    assert report["seed"] == 7
    assert report["stabilization"]["identical"] is True


def test_missing_substitution_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "return-words", "--substitution",
                           "/nonexistent/sub.json", "--word", "0")
    assert code == 1
    assert "not found" in err


def test_word_not_in_language_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "return-words", "--word", "11")
    assert code == 2
    assert "does not occur" in err


def test_build_model_writes_file(tmp_path, capsys):
    out_file = tmp_path / "model.json"
    code, _, _ = run_cli(capsys, "build-model", "--word", "0", "--horizon", "3",
                         "--out", str(out_file))
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert [lvl["dim"] for lvl in blob["model"]["levels"]] == [1, 2]
    assert blob["dynamics"]["base_word"] == "0"
    assert blob["dynamics"]["return_words"] == {"1": ["0"], "2": ["01"]}


def test_build_model_cap_one_point(capsys):
    code, out, _ = run_cli(capsys, "build-model", "--word", "0", "--horizon", "3",
                           "--max-points", "1")
    assert code == 0
    blob = parse(out)
    assert all(len(lvl["points"]) == 1 for lvl in blob["model"]["levels"])


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suites", "cnoj")
    assert code == 1
    for name in vf.SUITE_NAMES:
        assert name in err


def test_verify_smoke_mode_is_fast(capsys):
    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, "verify", "--trials", "1", "--seed", "3")
    elapsed = time.monotonic() - t0
    assert code == 0
    report = parse(out)
    assert report["all_passed"] is True
    assert set(report["suites"]) == set(vf.SUITE_NAMES)
    assert elapsed < 5.0


def test_verify_reports_are_deterministic(capsys):
    args = ("verify", "--suites", "conj,vn,indicator", "--trials", "5", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert strip_timing(parse(out1)) == strip_timing(parse(out2))
    norm1 = json.dumps(strip_timing(parse(out1)), sort_keys=True)
    norm2 = json.dumps(strip_timing(parse(out2)), sort_keys=True)
    assert norm1 == norm2


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_trials_below_one(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--trials", trials)
    assert code == 1
    assert out == ""
    assert "trials" in err


def test_run_suites_times_add_up_to_wall():
    t0 = time.perf_counter()
    results = vf.run_suites(vf.SUITE_NAMES, seed=3, trials=1)
    wall = time.perf_counter() - t0
    assert [r.name for r in results] == list(vf.SUITE_NAMES)
    assert sum(r.seconds for r in results) <= wall


def test_verify_failing_suite_exits_3(capsys, monkeypatch):
    def broken(rng, trials):
        raise vf.CounterexampleFound("forced counterexample")

    monkeypatch.setitem(vf._SUITES, "conj", (broken, 1, "broken stand-in"))
    code, out, _ = run_cli(capsys, "verify", "--suites", "conj")
    assert code == 3
    report = parse(out)
    assert report["suites"]["conj"]["passed"] is False
    assert "forced" in report["suites"]["conj"]["first_counterexample"]


def _break_at(values, theta, bad):
    """values with the matrices at the parameters ``bad`` doubled (no longer
    unitary); theta is the parameter or parameter array they were taken at."""
    out = np.array(values)
    out[np.isin(theta, bad)] *= 2
    return out


def test_condense_names_the_first_failing_grid_point(capsys, monkeypatch):
    from dsh_lab import unitary_paths as up

    grid = np.linspace(0.0, 1.0, 50)
    real = up.condense_path

    def broken(n, zs):
        path = real(n, zs)
        return up.UnitaryPath(n, lambda theta: _break_at(path(theta), theta, grid[[17, 30]]))

    monkeypatch.setattr(up, "condense_path", broken)
    code, out, _ = run_cli(capsys, "verify", "--suites", "condense")
    assert code == 3
    suite = parse(out)["suites"]["condense"]
    assert suite["passed"] is False and suite["checks"] == 0
    assert suite["first_counterexample"] == f"path value at theta={grid[17]} is not unitary"


def test_conj_names_the_first_failing_grid_point(capsys, monkeypatch):
    from dsh_lab import unitary_paths as up

    t_samples = np.linspace(0.0, 1.0, 20)
    real = up.u_transposition

    def broken(spec, t):
        # u_(2 3) in dimension 6 enters the identity as the left side only,
        # first for (k1,k2,k3) = (2,3,4)
        if (spec.k1, spec.k2, spec.n) == (2, 3, 6):
            return _break_at(real(spec, t), t, t_samples[[7, 12]])
        return real(spec, t)

    monkeypatch.setattr(up, "u_transposition", broken)
    code, out, _ = run_cli(capsys, "verify", "--suites", "conj")
    assert code == 3
    suite = parse(out)["suites"]["conj"]
    assert suite["passed"] is False and suite["checks"] == 0
    assert suite["first_counterexample"] == (
        f"conjugation identity failed at n=6, (k1,k2,k3)=(2,3,4), t={t_samples[7]}")


@pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
def test_pipeline_rejects_zero_epsilon(capsys, epsilon):
    code, out, err = run_cli(capsys, "pipeline", "--epsilon", epsilon)
    assert code == 1
    assert out == ""
    assert "positive" in err


def test_pipeline_end_to_end_certificate(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "pipeline", "--epsilon", "0.25", "--seed", "5",
                         "--out", str(out_file))
    assert code == 0
    blob = json.loads(out_file.read_text())
    summary = blob["certificate"]["summary"]
    assert summary["total_distance"] < 0.25
    assert summary["min_singular_value"] > 1e-3
    for stage in blob["certificate"]["stages"]:
        for name, entry in stage["predicates"].items():
            assert entry["pass"], f"{stage['name']}:{name}"


def test_pipeline_loads_element_from_file(tmp_path, capsys):
    from dsh_lab import dynamics as dyn

    fib = dyn.Substitution.fibonacci()
    stage1 = dyn.build_tower_model(fib, "0", 1, max_points_per_level=16)
    element = zero_element(stage1.model)
    src = tmp_path / "element.json"
    src.write_text(json.dumps(element_to_json(element)))
    code, out, _ = run_cli(capsys, "pipeline", "--epsilon", "0.25",
                           "--element", str(src))
    assert code == 0
    blob = parse(out)
    assert blob["certificate"]["input_element"] == str(src)
    assert blob["certificate"]["summary"]["total_distance"] == pytest.approx(0.25 / 8)


def test_pipeline_gathering_failure_exits_2(capsys, monkeypatch):
    from dsh_lab import srone_pipeline as sp

    make_zero_cross = sp.make_zero_cross

    def unrotated(e, eps, *scan):  # leaves the gate on a point without a zero cross
        zc = make_zero_cross(e, eps, *scan)
        return dataclasses.replace(zc, rotated=zc.element)

    monkeypatch.setattr(sp, "make_zero_cross", unrotated)
    code, out, err = run_cli(capsys, "pipeline", "--seed", "5")
    assert code == 2
    assert out == ""
    assert "windowed_gathering" in err and "no zero cross" in err


def _break_window(monkeypatch):
    from dsh_lab import unitary_paths as up
    monkeypatch.setattr(up, "_rmul_window", lambda *args: None)


def _break_cycle_power(monkeypatch):
    import numpy as np
    from dsh_lab import unitary_paths as up
    monkeypatch.setattr(up, "cycle_power", lambda n, N: np.eye(n, dtype=np.complex128))


def _break_witness(monkeypatch):
    from dsh_lab import dsh_model as dm
    witness = dm.witness_no_block_point

    def unit_witness(m, ref, k):  # still refuses genuine block starts
        witness(m, ref, k)
        return unit_element(m)

    monkeypatch.setattr(dm, "witness_no_block_point", unit_witness)


def _break_indicator(monkeypatch):
    import numpy as np
    from dsh_lab import dsh_model as dm
    from dsh_lab import srone_pipeline as sp
    build = dm.build_indicator

    def rolled(*args):  # every 1 one position late
        return build(*args).map_values(lambda v: np.diag(np.roll(np.diag(v), 1)))

    monkeypatch.setattr(dm, "build_indicator", rolled)
    monkeypatch.setattr(sp, "build_indicator", rolled)


# (break the construction, the pipeline predicate that fails or None, the
# verify suites that fail)
BROKEN_CONSTRUCTIONS = {
    "window_no_op": (_break_window, "periodic_zero_crosses", ("block1", "block2")),
    "cycle_power_identity": (_break_cycle_power, "strictly_lower_triangular", ("triangulate",)),
    "witness_is_unit": (_break_witness, None, ("blockchar",)),
    "indicator_rolled": (_break_indicator, "periodic_zero_crosses", ("indicator",)),
}


@pytest.mark.parametrize("name", sorted(BROKEN_CONSTRUCTIONS))
def test_broken_construction_is_caught_by_its_recorded_check(capsys, monkeypatch, name):
    # each construction's outcome is checked once, where it is recorded: a
    # pipeline predicate (exit 2) or a verify suite (exit 3, a counterexample)
    breaker, predicate, suites = BROKEN_CONSTRUCTIONS[name]
    breaker(monkeypatch)
    if predicate is not None:
        code, out, err = run_cli(capsys, "pipeline", "--seed", "5", "--plant-scale", "0.05")
        assert (code, out) == (2, "")
        assert f"predicate '{predicate}' failed" in err
    code, out, _ = run_cli(capsys, "verify", "--suites", ",".join(suites))
    assert code == 3
    for suite in suites:
        entry = parse(out)["suites"][suite]
        assert entry["passed"] is False and entry["first_counterexample"]


def test_pipeline_depth_exhaustion(capsys):
    code, _, err = run_cli(capsys, "pipeline", "--epsilon", "0.25", "--max-depth", "4")
    assert code == 2
    assert "exhausted" in err


def test_pipeline_deep_max_depth_builds_only_the_planned_chain(capsys):
    # the chain stops near depth 11; a base of depth 60 would be 2.5e12 characters
    code14, out14, _ = run_cli(capsys, "pipeline", "--max-depth", "14", "--seed", "5")
    code60, out60, _ = run_cli(capsys, "pipeline", "--max-depth", "60", "--seed", "5")
    assert code14 == code60 == 0
    assert strip_timing(parse(out60)) == strip_timing(parse(out14))


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("DSH_LAB_SEED", "99")
    code, out, _ = run_cli(capsys, "return-words", "--word", "0")
    assert code == 0
    assert parse(out)["seed"] == 99
    monkeypatch.setenv("DSH_LAB_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "return-words", "--word", "0")
    assert code == 1
    assert "DSH_LAB_SEED" in err


@pytest.mark.parametrize("argv", [
    ("pipeline", "--seed", "-1"),
    ("verify", "--suites", "conj", "--seed", "-1"),
])
def test_negative_seed_flag_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "dsh-lab: --seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv", [("return-words", "--word", "0"), ("verify", "--suites", "conj")])
def test_negative_seed_env_is_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("DSH_LAB_SEED", "-3")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "dsh-lab: DSH_LAB_SEED must be nonnegative, got -3\n"


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
def test_pipeline_rejects_non_finite_plant_scale(capsys, scale):
    code, out, err = run_cli(capsys, "pipeline", f"--plant-scale={scale}")
    assert code == 1
    assert out == ""
    assert err.startswith("dsh-lab: plant-scale must be finite")


@pytest.mark.parametrize("scale", ["0", "-0.05"])
def test_pipeline_accepts_zero_and_negative_plant_scale(capsys, scale):
    code, out, _ = run_cli(capsys, "pipeline", f"--plant-scale={scale}", "--seed", "1")
    assert code == 0
    cert = parse(out)["certificate"]
    assert cert["summary"]["total_distance"] < 0.25
    assert cert["summary"]["min_singular_value"] > 0
    assert all(entry["pass"] for stage in cert["stages"] for entry in stage["predicates"].values())


@pytest.mark.parametrize("name, checks", [("blockchar", 3984), ("indicator", 283)])
def test_suite_check_counts_at_default_trials(name, checks):
    # a rewrite of a suite's loop must not silently check less
    result = vf.run_suite(name, seed=0)
    assert result.passed and result.failure is None
    assert result.checks == checks


def test_unitary_eval_transposition(capsys):
    code, out, _ = run_cli(capsys, "unitary", "eval", "--kind", "transposition",
                           "--n", "2", "--k1", "1", "--k2", "2", "--t", "1.0")
    assert code == 0
    blob = parse(out)
    assert blob["matrix"]["n"] == 2
    assert blob["matrix"]["entries"][0][1] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert blob["matrix"]["entries"][0][0] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_unitary_eval_vn_invalid_theta_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "unitary", "eval", "--kind", "vn",
                           "--theta", "0.5,0,0,0", "--block", "1")
    assert code == 2
    assert "first_entry" in err


def test_out_of_memory_is_a_domain_failure(capsys, monkeypatch):
    # stands in for a size too large to allocate, such as --n 1000000,
    # without asking the machine for it
    from dsh_lab import unitary_paths as up

    def too_large(spec, t):
        raise MemoryError(f"Unable to allocate an array of shape ({spec.n}, {spec.n})")

    monkeypatch.setattr(up, "u_transposition", too_large)
    code, out, err = run_cli(capsys, "unitary", "eval", "--kind", "transposition",
                             "--n", "1000000", "--k1", "1", "--k2", "2", "--t", "0.5")
    assert (code, out) == (2, "")
    assert err == ("dsh-lab: out of memory: Unable to allocate an array of shape "
                   "(1000000, 1000000)\n")


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "dsh_lab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "return-words" in proc.stdout


def test_cli_import_leaves_verify_unloaded():
    # only the verify command loads the property suites
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dsh_lab.cli; print('dsh_lab.verify' in sys.modules)"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_element_file_run_leaves_numpy_random_unloaded(tmp_path):
    # only a planted element needs the seeded generator
    from dsh_lab import dynamics as dyn

    stage1 = dyn.build_tower_model(dyn.Substitution.fibonacci(), "0", 1, max_points_per_level=16)
    src = tmp_path / "element.json"
    src.write_text(json.dumps(element_to_json(zero_element(stage1.model))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from dsh_lab import cli; code = cli.main(sys.argv[1:]); "
         "print('numpy.random' in sys.modules); sys.exit(code)",
         "pipeline", "--element", str(src), "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    assert json.loads((tmp_path / "report.json").read_text())["certificate"]["input_element"] \
        == str(src)


def test_pipeline_tiny_plant_scale_runs_without_warnings():
    # delta / |z| overflows for entries near 1e-300; the shrink factor is 0
    # either way, so nothing may reach stderr
    proc = subprocess.run([sys.executable, "-m", "dsh_lab.cli", "pipeline",
                           "--plant-scale", "1e-300", "--seed", "5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert parse(proc.stdout)["certificate"]["summary"]["total_distance"] < 0.25


def test_pipeline_rejects_non_finite_element_file(tmp_path, capsys):
    from dsh_lab import dynamics as dyn

    fib = dyn.Substitution.fibonacci()
    stage1 = dyn.build_tower_model(fib, "0", 1, max_points_per_level=16)
    blob = element_to_json(zero_element(stage1.model))
    next(iter(blob["values"].values()))["entries"][0][0] = [float("nan"), 0.0]
    src = tmp_path / "element.json"
    src.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "pipeline", "--element", str(src))
    assert code == 1
    assert out == ""
    assert "invalid element file" in err and "finite" in err


@pytest.mark.parametrize("argv, code, message", [
    (("pipeline", "--max-depth", "0"), 1, "max-depth"),
    (("pipeline", "--max-depth", "-2"), 1, "max-depth"),
    (("pipeline", "--max-depth", "1"), 1, "max-depth"),
    (("pipeline", "--max-points", "0"), 1, "max-points must be at least 1, got 0"),
    (("pipeline", "--scan-length", "5"), 2, "too short"),
    (("return-words", "--word", "0101", "--scan-length", "5"), 2, "too short"),
    (("pipeline", "--max-points", "1"), 2, "no source representative"),
    (("unitary", "eval", "--kind", "eta", "--block", "0"), 2, "need N >= 1, got N=0"),
    (("unitary", "eval", "--kind", "eta", "--block", "-1"), 2, "need N >= 1, got N=-1"),
    (("unitary", "eval", "--kind", "transposition", "--t", "nan"), 2,
     "path parameter nan outside [0, 1]"),
    (("unitary", "eval", "--kind", "transposition", "--t", "1.5"), 2,
     "path parameter 1.5 outside [0, 1]"),
    (("unitary", "eval", "--kind", "vn", "--theta", "1,0,0,nan"), 2,
     "path parameter nan at index 3 outside [0, 1]"),
    (("pipeline", "--max-points", "-3"), 1, "max-points must be at least 1, got -3"),
    (("build-model", "--word", "0", "--horizon", "0"), 1, "horizon must be at least 1, got 0"),
    (("build-model", "--word", "0", "--horizon", "-1"), 1, "horizon must be at least 1, got -1"),
])
def test_bad_chain_flags_exit_with_message(capsys, argv, code, message):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("dsh-lab: ") and message in err
    # one line, with the message unquoted
    assert err.count("\n") == 1 and not err.startswith("dsh-lab: \"")


@pytest.mark.parametrize("argv, message", [
    (("pipeline", "--substitution", "{dir}/array.json"), "expected a JSON object, got list"),
    (("pipeline", "--substitution", "{dir}/string.json"), "expected a JSON object, got str"),
    (("pipeline", "--substitution", "{dir}"), "invalid substitution config"),
    (("pipeline", "--element", "{dir}/array.json"), "invalid element file"),
    (("verify", "--suites", ""), "no suite named"),
    (("verify", "--suites", " , "), "no suite named"),
    (("return-words", "--word", ""), "--word must be nonempty"),
    (("build-model", "--word", "", "--horizon", "1"), "--word must be nonempty"),
    (("return-words", "--word", "0", "--out", "{dir}/missing/x.json"),
     "cannot write --out {dir}/missing/x.json: No such file"),
    (("return-words", "--word", "0", "--out", "{dir}"), "cannot write --out {dir}: Is a directory"),
    (("pipeline", "--horizon", "0"), "horizon must be at least 1, got 0"),
    (("pipeline", "--horizon", "-2"), "horizon must be at least 1, got -2"),
    (("unitary", "eval", "--kind", "condense", "--positions", "x"), "--positions must be"),
    (("unitary", "eval", "--kind", "vn", "--theta", "x"), "--theta must be"),
    (("build-model", "--word", "0", "--horizon", "1", "--max-points", "0"),
     "max-points must be at least 1, got 0"),
    (("build-model", "--word", "0", "--horizon", "1", "--max-points", "-3"),
     "max-points must be at least 1, got -3"),
])
def test_bad_input_is_usage_error(tmp_path, capsys, argv, message):
    (tmp_path / "array.json").write_text("[1, 2]")
    (tmp_path / "string.json").write_text('"fibonacci"')
    code, out, err = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("dsh-lab: ") and err.count("\n") == 1
    assert message.format(dir=tmp_path) in err


@pytest.mark.parametrize("out, message", [
    ("{dir}/missing/x.json", "No such file or directory"),
    ("{dir}", "Is a directory"),
])
def test_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch, out, message):
    calls = []
    monkeypatch.setattr(cli, "approximate_by_invertible", lambda *a, **k: calls.append(a))
    out = out.format(dir=tmp_path)
    code, stdout, err = run_cli(capsys, "pipeline", "--out", out)
    assert code == 1
    assert stdout == ""
    assert err == f"dsh-lab: cannot write --out {out}: {message}\n"
    assert calls == []


def test_non_permutation_gathering_is_a_domain_failure(capsys, monkeypatch):
    # the pipeline reads each gathering unitary into a permutation index and
    # refuses any other unitary
    from dsh_lab import srone_pipeline as sp
    from dsh_lab import unitary_paths as up

    def gather_multi(*args):
        v = up.gather_multi(*args)
        return v @ up.u_transposition(up.TranspositionPathSpec(1, 2, len(v)), 0.5)

    monkeypatch.setattr(sp, "gather_multi", gather_multi)
    code, out, err = run_cli(capsys, "pipeline", "--plant-scale", "0.05", "--seed", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("dsh-lab: ") and err.count("\n") == 1
    assert "gathering unitary is not a 0/1 permutation matrix" in err


def test_wiped_threshold_is_recorded(tmp_path, capsys):
    # a period-doubling input whose every point has norm below eps/4 after
    # the propagation, so the soft threshold zeroes it
    pd = tmp_path / "period-doubling.json"
    pd.write_text(json.dumps({"alphabet": ["0", "1"], "rules": {"0": "01", "1": "00"},
                              "seed": "0"}))
    code, out, _ = run_cli(capsys, "pipeline", "--substitution", str(pd),
                           "--plant-scale", "0.05", "--seed", "1104004")
    assert code == 0
    cert = parse(out)["certificate"]
    assert all(entry["pass"] for stage in cert["stages"] for entry in stage["predicates"].values())
    assert cert["summary"]["threshold_wiped"] is True
    assert cert["summary"]["threshold_delta"] > 0
    assert cert["summary"]["min_singular_value"] == pytest.approx(0.25 / 8, rel=1e-12)
