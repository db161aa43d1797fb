"""dsh-lab benchmark: CLI workloads measured end to end, with a traced mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` as it stands, so nothing is built or installed. One op is one
``dsh-lab`` CLI invocation in a fresh interpreter (``op.py``). Ops run one
at a time from this process: a closed loop with one client, which is how
the tool is used (one process per certificate or verify gate).

Ops are grouped in rounds of a fixed composition. ``--trace 0`` runs rounds
of distinct inputs (consecutive op seeds derived from ``--seed``), each
followed by three set-up probes, until ``--seconds`` is used up (at least
three rounds), and reports the end-to-end metrics. ``--trace 1`` repeats
one round of inputs, each op untraced and then traced, and reports
per-layer figures (times as medians over the rounds, counts after checking
that every round gave the same count) plus the tracing overhead. Every
op's output is checked; a failed check counts against ``failed`` and makes
the run exit 1.

The last line of standard output is the result object; the lines before it
are a readable table and the run metadata. Scratch files and a full result
record go under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

OP_TIMEOUT_S = 150
SETUP_PROBES = 3           # extra set-up samples after each untraced round
RUN_LIMIT_S = 165          # no new round may be expected to end past this
SEEDS_PER_RUN = 1000       # op seeds of workload seed s: s*1000 .. s*1000+999
WIPE_RTOL = 1e-12

PERIOD_DOUBLING = {"alphabet": ["0", "1"], "rules": {"0": "01", "1": "00"}, "seed": "0"}
FIB_SCALES = (0.02, 0.05, 0.1, 0.2)

SUITES = ("conj", "fullconj", "elementary", "permute", "block1", "block2", "condense",
          "vn", "triangulate", "blockchar", "indicator", "embed", "simplicity")
STAGES = ("make_zero_cross", "propagate_crosses", "open_block_points",
          "condense_crosses", "triangulate", "rordam_invert")


# --------------------------------------------------------------- workloads


class Workload:
    def __init__(self, kind: str, round_size: int, args, wipe_is_error: bool = False):
        self.kind = kind                # "pipeline" or "verify"
        self.round_size = round_size
        self.args = args                # (op seed, position in round, work dir) -> CLI args
        self.wipe_is_error = wipe_is_error


def _pd_file(workdir: str) -> str:
    path = os.path.join(workdir, "period-doubling.json")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(PERIOD_DOUBLING, fh)
    return path


WORKLOADS = {
    # Fibonacci chain, CLI defaults, one op per plant scale in each round.
    "fib-sweep": Workload("pipeline", len(FIB_SCALES), lambda seed, k, d: [
        "pipeline", "--plant-scale", str(FIB_SCALES[k]), "--seed", str(seed)]),
    # Period doubling: power-of-two dimensions, SVD-bound threshold search;
    # after a wiped threshold, condensation and triangulation act on zero.
    "pd-deep": Workload("pipeline", 1, lambda seed, k, d: [
        "pipeline", "--substitution", _pd_file(d), "--plant-scale", "0.05",
        "--seed", str(seed)], wipe_is_error=True),
    # Every property suite at default trials through the CLI's worker pool.
    "verify-all": Workload("verify", 1, lambda seed, k, d: [
        "verify", "--suites", "all", "--seed", str(seed)]),
}


# --------------------------------------------------------------------- ops


def _op_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("DSH_LAB_SEED", None)
    return env


def run_op(args: list[str], mode: str, op_id: int, workdir: str) -> dict:
    """Spawn one op (``op.py`` mode plain, trace or setup) and reap it;
    wall, CPU and peak RSS come from wait4."""
    base = os.path.join(workdir, f"op{op_id}-{mode}")
    side = base + ".side"
    for stale in (side, side + ".trace"):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [sys.executable, os.path.join(HERE, "op.py"), side, mode, str(op_id), "--", *args]
    with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_op_env(), cwd=workdir)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"args": args, "trace": mode == "trace", "rc": proc.returncode, "wall": wall,
           "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
           "report_bytes": os.path.getsize(base + ".out"), "setup": None,
           "report": None, "spans": None}
    try:
        with open(side, encoding="utf-8") as fh:
            rec["setup"] = json.load(fh)["entry"] - spawn
        if mode != "setup":
            with open(base + ".out", encoding="utf-8") as fh:
                rec["report"] = json.load(fh)
        if mode == "trace":
            with open(side + ".trace", encoding="utf-8") as fh:
                rec["spans"] = json.load(fh)
    except (OSError, ValueError, KeyError) as exc:
        rec["error"] = f"unreadable op output: {exc}"
    with open(base + ".err", encoding="utf-8", errors="replace") as fh:
        rec["stderr"] = fh.read()[-2000:]
    return rec


def check_op(kind: str, rec: dict) -> str | None:
    """None when the op's output is correct, else what is wrong with it.

    A pipeline op must exit 0 with every predicate passing, total distance
    below epsilon and a positive minimum singular value; the op is marked
    wiped when the certified margin equals eps/8, which for a nonzero
    strictly lower triangular T cannot happen (sigma_min(dI + T) < d).
    A verify op must report all suites passed.
    """
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}: {rec['stderr'].strip()[-300:]}"
    if rec.get("error") or rec["report"] is None:
        return rec.get("error", "no report")
    rep = rec["report"]
    if kind == "verify":
        if rep.get("all_passed") is not True:
            bad = [n for n, s in rep.get("suites", {}).items() if not s.get("passed")]
            return f"suites failed: {bad}"
        return None
    try:
        cert = rep["certificate"]
        eps = rep["epsilon"]
        distance = cert["summary"]["total_distance"]
        margin = cert["summary"]["min_singular_value"]
        failed = [f"{st['name']}.{p}" for st in cert["stages"]
                  for p, res in st["predicates"].items() if not res["pass"]]
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed certificate: {exc!r}"
    if failed:
        return f"predicates failed: {failed}"
    if not distance < eps:
        return f"total_distance {distance} >= epsilon {eps}"
    if not margin > 0:
        return f"min_singular_value {margin} is not positive"
    rec["margin"] = margin
    rec["wiped"] = abs(margin - eps / 8) <= WIPE_RTOL * (eps / 8)
    return None


# ------------------------------------------------------------ per-layer


def _merge_round(ops: list[dict]) -> dict:
    """Sum the traced ops of one round into span and counter totals."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for rec in ops:
        data = rec["spans"] or {"aggregate": {}, "counters": {}}
        for name, agg in data["aggregate"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += agg[i]
        for name, val in data["counters"].items():
            counters[name] = counters.get(name, 0) + val
    pipeline = [r for r in ops if "margin" in r]
    return {"spans": spans, "counters": counters,
            "report_bytes": sum(r["report_bytes"] for r in ops),
            "certificates": len(pipeline),
            "wiped": sum(1 for r in pipeline if r["wiped"]),
            "pipeline_ops": sum(1 for r in ops if r["args"][0] == "pipeline")}


def _calls(span):
    return lambda r: r["spans"][span][0] if span in r["spans"] else None


def _self(span):
    return lambda r: r["spans"][span][1] if span in r["spans"] else None


def _incl(*spans):
    def get(r):
        hit = [r["spans"][s][2] for s in spans if s in r["spans"]]
        return sum(hit) if hit else None
    return get


def _counter(name, span):
    """A counter kept inside ``span``; null when that span never ran."""
    return lambda r: r["counters"].get(name, 0) if span in r["spans"] else None


def _ratio(num, den):
    def get(r):
        a, b = num(r), den(r)
        return a / b if a is not None and b else None
    return get


def _pool_efficiency(r):
    serial = [r["spans"][f"verify.{s}"][2] for s in SUITES if f"verify.{s}" in r["spans"]]
    pool = r["counters"].get("verify.run_suites.pool_s")
    return sum(serial) / pool if serial and pool else None


def layer_metrics() -> list[tuple[str, str, bool, object]]:
    """(name, unit, exact, getter): exact figures must repeat in every round."""
    m = [("cli.self_s", "s", False, _self("cli")),
         # reports carry runtime_ms fields, so their size varies by a few bytes
         ("cli.report_bytes", "bytes", False, lambda r: r["report_bytes"]),
         ("dynamics.chain_s", "s", False,
          _incl("dynamics.build_cylinder_chain", "dynamics.extend_cylinder_chain"))]
    for fn in ("fixed_point_prefix", "return_words"):
        m += [(f"dynamics.{fn}.s", "s", False, _self(f"dynamics.{fn}")),
              (f"dynamics.{fn}.calls", "count", True, _calls(f"dynamics.{fn}"))]
    m.append(("dynamics.fixed_point_prefix.chars", "count", True,
              _counter("dynamics.fixed_point_prefix.chars", "dynamics.fixed_point_prefix")))
    for fn in ("build_tower_model", "factorize_returns", "embedding_map"):
        m.append((f"dynamics.{fn}.s", "s", False, _self(f"dynamics.{fn}")))
    m.append(("dynamics.extend_cylinder_chain.calls", "count", True,
              _calls("dynamics.extend_cylinder_chain")))
    for st in STAGES:
        m.append((f"srone_pipeline.{st}.s", "s", False, _self(f"srone_pipeline.{st}")))
    for st in STAGES:
        m.append((f"srone_pipeline.{st}.incl_s", "s", False, _incl(f"srone_pipeline.{st}")))
    attempts = _counter("srone_pipeline.attempts", "srone_pipeline")
    m += [("srone_pipeline.self_s", "s", False, _self("srone_pipeline")),
          ("srone_pipeline.attempts", "count", True, attempts),
          ("srone_pipeline.attempt_yield", "ratio", True,
           _ratio(lambda r: r["certificates"], attempts)),
          ("srone_pipeline.open_block_points.dist_evals", "count", True,
           _counter("srone_pipeline.open_block_points.dist_evals",
                    "srone_pipeline.open_block_points")),
          ("srone_pipeline.threshold_wiped_ops", "count", True,
           lambda r: r["wiped"] if r["pipeline_ops"] else None)]
    for fn in ("norm_dist", "soft_threshold", "apply_diagonal_map", "min_singular_over_points"):
        m += [(f"dsh_model.{fn}.s", "s", False, _self(f"dsh_model.{fn}")),
              (f"dsh_model.{fn}.calls", "count", True, _calls(f"dsh_model.{fn}"))]
    for fn in ("compose_chain", "build_indicator", "block_starts"):
        m.append((f"dsh_model.{fn}.s", "s", False, _self(f"dsh_model.{fn}")))
    m += [("dsh_model.eval_element.calls", "count", True,
           lambda r: r["counters"].get("dsh_model.eval_element.calls") or None),
          ("dsh_model.element_mul.s", "s", False, _self("dsh_model.element_mul")),
          ("dsh_model.element_mul.calls", "count", True, _calls("dsh_model.element_mul")),
          ("dsh_model.element_new.calls", "count", True,
           lambda r: r["counters"].get("dsh_model.element_new.calls") or None),
          ("dsh_model.element_bytes", "bytes", True,
           lambda r: r["counters"].get("dsh_model.element_bytes") or None),
          ("matrixkit.svd.calls", "count", True, _calls("matrixkit.svd")),
          ("matrixkit.svd.s", "s", False, _self("matrixkit.svd")),
          ("matrixkit.svd.n3", "count", True, _counter("matrixkit.svd.n3", "matrixkit.svd")),
          ("matrixkit.svd.bytes", "bytes", True,
           _counter("matrixkit.svd.bytes", "matrixkit.svd"))]
    for fn in ("has_zero_cross", "diagonal_radius", "has_block_point", "direct_sum"):
        m += [(f"matrixkit.{fn}.calls", "count", True, _calls(f"matrixkit.{fn}")),
              (f"matrixkit.{fn}.s", "s", False, _self(f"matrixkit.{fn}"))]
    for fn in ("u_transposition", "eta_path", "v_n", "path_eval"):
        m += [(f"unitary_paths.{fn}.calls", "count", True, _calls(f"unitary_paths.{fn}")),
              (f"unitary_paths.{fn}.s", "s", False, _self(f"unitary_paths.{fn}"))]
    for fn in ("gather_once", "gather_multi", "triangulate_check"):
        m.append((f"unitary_paths.{fn}.s", "s", False, _self(f"unitary_paths.{fn}")))
    for suite in SUITES:
        m += [(f"verify.{suite}.s", "s", False, _incl(f"verify.{suite}")),
              (f"verify.{suite}.checks", "count", True,
               _counter(f"verify.{suite}.checks", f"verify.{suite}"))]
    m.append(("verify.pool_efficiency", "ratio", False, _pool_efficiency))
    return m


def per_layer(rounds: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Per-layer values, metrics that recorded nothing, and exact figures
    that differed between rounds of identical inputs."""
    values, empty, unstable = {}, [], []
    for name, unit, exact, get in layer_metrics():
        per_round = [get(r) for r in rounds]
        if any(v is None for v in per_round):
            values[name] = {"value": None, "unit": unit}
            empty.append(name)
            continue
        if exact:
            if len(set(per_round)) > 1:
                unstable.append(name)
            value = per_round[0]
        else:
            value = statistics.median(per_round)
        values[name] = {"value": value, "unit": unit}
    return values, empty, unstable


# ------------------------------------------------------------------ runs


_PROBE = """
import json, platform, sys
import numpy
import dsh_lab.cli
blas = None
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    pass
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas}))
"""


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: a speed index of the machine
    at this moment, for comparing runs made at different times."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append(1000 * (time.perf_counter() - t0))
    return statistics.median(times)


def source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fn)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(args, workdir: str) -> dict:
    """Run environment; the probe also warms the byte-code and file caches."""
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=_op_env(), cwd=workdir,
                           capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import dsh_lab from {SRC}: {probe.stderr.strip()[-500:]}")
    meta = json.loads(probe.stdout)
    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "PYTHONDONTWRITEBYTECODE")},
        "loadavg_start": os.getloadavg(), "calibration_ms_start": calibration_ms(),
    })
    return meta


def run_rounds(wl: Workload, args, workdir: str) -> tuple[list[list[dict]], list[float]]:
    """Closed loop: rounds until --seconds is used up, with a minimum count.

    Returns the rounds' op records and the set-up times of the extra
    set-up probes that follow each untraced round.
    """
    traced = args.trace == 1
    min_rounds = 2 if traced else 3
    rounds: list[list[dict]] = []
    probes: list[float] = []
    durations: list[float] = []
    start = time.monotonic()
    base = args.seed * SEEDS_PER_RUN
    while True:
        t0 = time.monotonic()
        ops = []
        for k in range(wl.round_size):
            index = k if traced else len(rounds) * wl.round_size + k
            cli_args = wl.args(base + index, k, workdir)
            ops.append(run_op(cli_args, "plain", index, workdir))
            if traced:
                ops.append(run_op(cli_args, "trace", index, workdir))
        if not traced:
            for k in range(SETUP_PROBES):
                rec = run_op([], "setup", k, workdir)
                if rec["rc"] == 0 and rec["setup"] is not None:
                    probes.append(rec["setup"])
        rounds.append(ops)
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        typical = statistics.median(durations)
        if elapsed + typical > RUN_LIMIT_S or (len(rounds) + 1) * wl.round_size > SEEDS_PER_RUN:
            return rounds, probes
        # stop once the next round would end more than half a round past --seconds
        if len(rounds) >= min_rounds and elapsed + typical / 2 > args.seconds:
            return rounds, probes


def _median_round_mean(rounds, key, trace=False):
    return statistics.median(
        statistics.fmean(op[key] for op in ops if op["trace"] == trace) for ops in rounds)


def check_all(wl: Workload, ops: list[dict]) -> list[str]:
    """Check every op; returns one line per failed op."""
    problems = []
    for op in ops:
        detail = check_op(wl.kind, op)
        if detail is None and wl.wipe_is_error and op["wiped"]:
            detail = "threshold wiped the element; condensation and triangulation ran on zero"
        op["ok"] = detail is None
        if detail:
            problems.append(f"op {' '.join(op['args'])}: {detail}")
    return problems


def end_to_end_metrics(rounds: list[list[dict]], probes: list[float]) -> dict:
    plain = [op for ops in rounds for op in ops if not op["trace"]]
    setups = [op["setup"] for op in plain if op["setup"] is not None] + probes
    return {
        "setup_s": statistics.median(setups) if setups else None,
        "wall_s": _median_round_mean(rounds, "wall"),
        "cpu_s": _median_round_mean(rounds, "cpu"),
        "peak_rss_mb": statistics.median(
            max(op["rss_mb"] for op in ops if not op["trace"]) for ops in rounds),
    }


def _row(name: str, value, unit: str) -> str:
    shown = "null" if value is None else f"{value:.6g}"
    return f"  {name:46s} {shown:>14s} {unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "dsh_lab", "cli.py")):
        sys.stderr.write(f"perfbench: no dsh_lab sources under {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        meta = metadata(args, workdir)
        rounds, probes = run_rounds(wl, args, workdir)
    except RuntimeError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = [op for ops in rounds for op in ops]
    meta.update({
        "ops": len(ops), "rounds": len(rounds), "setup_probes": len(probes),
        "op_seeds": sorted({int(op["args"][-1]) for op in ops}),
        "loadavg_end": os.getloadavg(), "calibration_ms_end": calibration_ms(),
    })

    problems = check_all(wl, ops)
    failed = len(problems)
    end_to_end = end_to_end_metrics(rounds, probes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"ops {len(ops)}  rounds {len(rounds)}  failed {failed}"]
    lines += [_row(name, value, units[name]) for name, value in end_to_end.items()]
    lines.append(_row("fail_share", failed / len(ops), "ratio"))
    margins = [op["margin"] for op in ops if "margin" in op]
    if margins:
        lines.append(_row("margin_log10_min", math.log10(min(margins)), "log10"))
        lines.append(_row("threshold_wiped_ops", sum(op["wiped"] for op in ops if "wiped" in op),
                          "count"))

    layers = None
    if args.trace:
        layers, empty, unstable = per_layer(
            [_merge_round([op for op in r if op["trace"]]) for r in rounds])
        layers["trace.overhead"] = {"unit": "ratio", "value": (
            _median_round_mean(rounds, "wall", trace=True) / end_to_end["wall_s"] - 1.0)}
        lines += [_row(name, m["value"], m["unit"]) for name, m in layers.items()]
        if empty:
            sys.stderr.write(f"perfbench: warning: recorded nothing on {args.workload}, "
                             f"reported as null: {', '.join(empty)}\n")
        if unstable:
            sys.stderr.write(f"perfbench: warning: counts differ between rounds of the same "
                             f"inputs: {', '.join(unstable)}\n")
        missing = sorted({m for op in ops if op["spans"] for m in op["spans"]["missing"]})
        if missing:
            sys.stderr.write(f"perfbench: warning: wrap targets not found: {missing}\n")
        meta["counts_repeat"] = not unstable
        reported = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        reported = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                    for m in spec["end_to_end"]}

    for p in problems:
        sys.stderr.write(f"perfbench: FAILED {p}\n")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": reported}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    record = os.path.join(BUILD, "results",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "end_to_end": end_to_end,
                   "per_layer": layers, "problems": problems,
                   "ops": [{k: op.get(k) for k in ("args", "trace", "rc", "ok", "wall", "cpu",
                                                    "rss_mb", "setup", "margin", "wiped")}
                           for op in ops]}, fh, indent=1)
    print("\n".join(lines))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
