"""Batch command-line interface.

Subcommands: ``return-words``, ``build-model``, ``verify``, ``pipeline``,
and ``unitary eval``. All randomness flows from a single seed (``--seed``,
falling back to the ``DSH_LAB_SEED`` environment variable, then 0) which is
recorded in every report; reports are sorted-key UTF-8 JSON and are
byte-identical across runs up to the ``runtime_ms`` timing fields.

Exit codes: 0 success, 1 usage or configuration error, 2 domain failure,
3 property-suite failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time

import numpy as np

from . import dsh_model as dm
from . import dynamics as dyn
from . import unitary_paths as up
from . import verify as vf
from .matrixkit import matrix_to_json
from .srone_pipeline import (
    PipelineError,
    approximate_by_invertible,
    plan_chain,
    plant_singular_element,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_SUITE = 3


class UsageError(Exception):
    pass


class DomainError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here reserves 2 for
    # domain failures, so remap
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_seed(value: int | None) -> int:
    source = "--seed"
    if value is None:
        env = os.environ.get("DSH_LAB_SEED")
        if env is None:
            return 0
        source = "DSH_LAB_SEED"
        try:
            value = int(env)
        except ValueError as exc:
            raise UsageError(f"DSH_LAB_SEED is not an integer: {env!r}") from exc
    if value < 0:
        raise UsageError(f"{source} must be nonnegative, got {value}")
    return value


def _load_substitution(spec: str) -> dyn.Substitution:
    if spec == "fibonacci":
        return dyn.Substitution.fibonacci()
    if spec == "thue-morse":
        return dyn.Substitution.thue_morse()
    if not os.path.exists(spec):
        raise UsageError(f"substitution file not found: {spec}")
    try:
        with open(spec, encoding="utf-8") as fh:
            return dyn.Substitution.from_json(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"invalid substitution config {spec}: {exc}") from exc


def _require_word(word: str) -> None:
    if not word:
        raise UsageError("--word must be nonempty")


def _check_out(out: str | None) -> None:
    """Fail before any work when --out is a directory or sits in a missing one."""
    if not out:
        return
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(out) or "."):
        code = errno.ENOENT
    else:
        return
    raise UsageError(f"cannot write --out {out}: {os.strerror(code)}")


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # a missing directory, or a directory given as --out
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text + "\n")


def _cmd_return_words(args) -> int:
    seed = _resolve_seed(args.seed)
    _require_word(args.word)
    s = _load_substitution(args.substitution)
    try:
        words = dyn.return_words(s, args.word, args.scan_length)
    except ValueError as exc:  # ScanError, or a scan too short for the word
        raise DomainError(str(exc)) from exc
    report = {
        "command": "return-words",
        "seed": seed,
        "substitution": s.to_json(),
        "word": args.word,
        "scan_length": args.scan_length,
        "return_words": words,
        "return_times": sorted({len(w) for w in words}),
        "stabilization": {"scan_lengths": [args.scan_length, 2 * args.scan_length],
                          "identical": True},
    }
    _emit(report, args.out)
    return EXIT_OK


def _cmd_build_model(args) -> int:
    seed = _resolve_seed(args.seed)
    _require_word(args.word)
    s = _load_substitution(args.substitution)
    try:
        tower = dyn.build_tower_model(s, args.word, args.horizon,
                                      args.max_points, args.scan_length)
    except (dyn.ScanError, ValueError) as exc:
        raise DomainError(str(exc)) from exc
    report = dm.validate_model(tower.model)
    if not report.ok:
        raise DomainError("; ".join(report.violations))
    out = {
        "command": "build-model",
        "seed": seed,
        "model": dm.model_to_json(tower.model),
        "dynamics": {
            "base_word": tower.base,
            "horizon": tower.horizon,
            "return_words": {str(t): list(ws) for t, ws in tower.return_time_words},
        },
    }
    _emit(out, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.trials is not None and args.trials < 1:
        raise UsageError(f"trials must be at least 1, got {args.trials}")
    names = list(vf.SUITE_NAMES) if args.suites == "all" else [
        s.strip() for s in args.suites.split(",") if s.strip()]
    if not names:
        raise UsageError(f"no suite named; valid suites: {', '.join(vf.SUITE_NAMES)}")
    for name in names:
        if name not in vf.SUITE_NAMES:
            raise UsageError(
                f"unknown suite '{name}'; valid suites: {', '.join(vf.SUITE_NAMES)}")
    results = vf.run_suites(names, seed=seed, trials=args.trials)
    descriptions = vf.suite_descriptions()
    report = {
        "command": "verify",
        "seed": seed,
        "trials": args.trials,
        "suites": {
            r.name: {
                "description": descriptions[r.name],
                "passed": r.passed,
                "checks": r.checks,
                "first_counterexample": r.failure,
                "runtime_ms": round(1000 * r.seconds, 3),
            }
            for r in results
        },
        "all_passed": all(r.passed for r in results),
    }
    _emit(report, args.out)
    return EXIT_OK if report["all_passed"] else EXIT_SUITE


def _cmd_pipeline(args) -> int:
    seed = _resolve_seed(args.seed)
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        raise UsageError(f"epsilon must be finite and positive, got {args.epsilon}")
    if not math.isfinite(args.plant_scale):
        raise UsageError(f"plant-scale must be finite, got {args.plant_scale}")
    if args.horizon < 1:
        raise UsageError(f"horizon must be at least 1, got {args.horizon}")
    if args.max_depth < 2:
        # a chain needs one embedding map before any element can be pushed along it
        raise UsageError(f"max-depth must be at least 2, got {args.max_depth}")
    s = _load_substitution(args.substitution)
    rng = np.random.default_rng(seed)
    bases = dyn.fibonacci_prefix_bases(s, min(3, args.max_depth))
    try:
        chain = dyn.build_cylinder_chain(s, bases,
                                         base_horizon=args.horizon,
                                         max_points_per_level=args.max_points,
                                         L_scan=args.scan_length)
    except ValueError as exc:  # ScanError, or a scan too short for the bases
        raise DomainError(str(exc)) from exc
    if args.element:
        if not os.path.exists(args.element):
            raise UsageError(f"element file not found: {args.element}")
        try:
            with open(args.element, encoding="utf-8") as fh:
                planted = dm.element_from_json(chain.model(1), json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # TypeError: JSON of the wrong shape, such as a list for "values"
            raise UsageError(f"invalid element file: {exc}") from exc
        input_id = args.element
    else:
        planted = plant_singular_element(chain.model(1), rng, scale=args.plant_scale)
        input_id = "planted"
    t0 = time.perf_counter()
    try:
        chain = plan_chain(s, chain, args.max_depth, planted, args.epsilon,
                           args.max_points, args.scan_length)
    except (PipelineError, ValueError) as exc:  # ValueError: a failed extension
        raise DomainError(str(exc)) from exc
    try:
        _, cert = approximate_by_invertible(list(chain.maps), planted,
                                            args.epsilon, j=1, input_id=input_id)
    except PipelineError as exc:
        raise DomainError(str(exc)) from exc
    report = {
        "command": "pipeline",
        "seed": seed,
        "epsilon": args.epsilon,
        "chain": {
            "bases": [t.base for t in chain.towers],
            "dimensions": [list(t.return_times) for t in chain.towers],
            "depth_used": cert.output_stage,
        },
        "certificate": cert.to_json(),
        "runtime_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    _emit(report, args.out)
    return EXIT_OK


def _parse_numbers(text: str, flag: str, kind=float) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"{flag} must be comma-separated numbers, got {text!r}") from exc


def _cmd_unitary_eval(args) -> int:
    seed = _resolve_seed(args.seed)
    try:
        if args.kind == "transposition":
            val = up.u_transposition(up.TranspositionPathSpec(args.k1, args.k2, args.n), args.t)
        elif args.kind == "eta":
            val = up.eta_path(args.k, args.n, args.block, args.t)
        elif args.kind == "condense":
            zs = _parse_numbers(args.positions, "--positions", int)
            val = up.condense_path(args.n, zs)(args.t)
        elif args.kind == "vn":
            val = up.v_n(_parse_numbers(args.theta, "--theta"), args.block)
        else:  # pragma: no cover - argparse restricts choices
            raise UsageError(f"unknown kind {args.kind}")
    except (ValueError, IndexError, up.ThetaInvariantError) as exc:
        raise DomainError(str(exc)) from exc
    _emit({"command": "unitary-eval", "seed": seed, "kind": args.kind,
           "matrix": matrix_to_json(val)}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dsh-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("return-words", help="scan first-return words to a cylinder")
    p.add_argument("--substitution", default="fibonacci")
    p.add_argument("--word", required=True)
    p.add_argument("--scan-length", type=int, default=dyn.DEFAULT_SCAN_LENGTH)
    common(p)
    p.set_defaults(fn=_cmd_return_words)

    p = sub.add_parser("build-model", help="build and validate a tower model")
    p.add_argument("--substitution", default="fibonacci")
    p.add_argument("--word", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--max-points", type=int, default=32)
    p.add_argument("--scan-length", type=int, default=dyn.DEFAULT_SCAN_LENGTH)
    common(p)
    p.set_defaults(fn=_cmd_build_model)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suites", default="all",
                   help="comma-separated suite names, or 'all'")
    p.add_argument("--trials", type=int, default=None)
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("pipeline", help="run the invertible-approximation pipeline")
    p.add_argument("--substitution", default="fibonacci")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--max-depth", type=int, default=14)
    p.add_argument("--max-points", type=int, default=16)
    p.add_argument("--plant-scale", type=float, default=0.02)
    p.add_argument("--element", default=None,
                   help="element JSON to approximate (default: plant one)")
    p.add_argument("--scan-length", type=int, default=dyn.DEFAULT_SCAN_LENGTH)
    common(p)
    p.set_defaults(fn=_cmd_pipeline)

    p_unitary = sub.add_parser("unitary", help="debugging helpers")
    unitary_sub = p_unitary.add_subparsers(dest="unitary_command", required=True)
    p = unitary_sub.add_parser("eval", help="evaluate a unitary path")
    p.add_argument("--kind", choices=("transposition", "eta", "condense", "vn"),
                   required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k1", type=int, default=1)
    p.add_argument("--k2", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--block", type=int, default=1, help="block width N")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--positions", default="1", help="comma-separated cross positions")
    p.add_argument("--theta", default="1.0,0.0,0.0,0.0", help="comma-separated parameters")
    common(p)
    p.set_defaults(fn=_cmd_unitary_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"dsh-lab: {exc}\n")
        return EXIT_USAGE
    except DomainError as exc:
        sys.stderr.write(f"dsh-lab: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
