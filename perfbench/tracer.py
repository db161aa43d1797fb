"""Span recorder for one traced dsh-lab CLI invocation.

``install`` rebinds the public functions of each layer (and the private
stage implementations the pipeline calls directly) to wrappers that record
spans: name, start, end and parent, tagged with the op id. Spans stay in
memory; ``Tracer.dump`` aggregates them and writes them out when the op
ends. Only the outermost span of a given name is recorded, so a public
wrapper that forwards to an implementation of the same stage counts once,
and recursion (``eval_element``) counts the top call only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.stack: list[int] = []      # indices of the open spans
        self.open: set[str] = set()     # names of open spans and counted calls
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []    # wrap targets absent from the package
        self.active = True
        self.main_thread = threading.get_ident()

    def _recording(self, name: str) -> bool:
        return (self.active and name not in self.open
                and threading.get_ident() == self.main_thread)

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call args."""
        fixed = None if callable(name) else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = fixed or name(args, kwargs)
            if not self._recording(span_name):
                return fn(*args, **kwargs)
            if before:
                before(self, args, kwargs)
            rec = [span_name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            self.open.add(span_name)
            rec[1] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _perf()
                self.open.discard(span_name)
                self.stack.pop()
            if after:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def count(self, name, fn, after=None):
        """Count outermost calls of ``fn`` without timing them."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording(name):
                return fn(*args, **kwargs)
            self.open.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.open.discard(name)
            self.counters[name + ".calls"] += 1
            if after:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def aggregate(self) -> dict[str, list[float]]:
        """Per span name: [calls, self seconds, inclusive seconds]."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += (t1 - t0) - child[i]
            agg[2] += t1 - t0
        return out

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "op": self.op_id,
                "aggregate": self.aggregate(),
                "counters": dict(self.counters),
                "missing": self.missing,
                "span_names": names,
                "spans": [[index[n], t0, t1, p] for n, t0, t1, p in self.spans],
            }, fh)


# ------------------------------------------------------------------ hooks


def _svd_size(tr, args, kwargs, result):
    n = len(args[0]) if args else len(kwargs["a"])
    tr.counters["matrixkit.svd.n3"] += n ** 3
    tr.counters["matrixkit.svd.bytes"] += 16 * n * n


def _prefix_chars(tr, args, kwargs, result):
    tr.counters["dynamics.fixed_point_prefix.chars"] += args[1] if len(args) > 1 else kwargs["L"]


def _dist_eval(tr, args, kwargs, result):
    if "srone_pipeline.open_block_points" in tr.open:
        tr.counters["srone_pipeline.open_block_points.dist_evals"] += 1


def _attempt(tr, args, kwargs):
    tr.counters["srone_pipeline.attempts"] += 1


def _element_bytes(tr, args, kwargs, result):
    tr.counters["dsh_model.element_bytes"] += 16 * sum(v.size for v in args[0].values.values())


def _suite_name(args, kwargs):
    return "verify." + (args[0] if args else kwargs["name"])


def _suite_checks(tr, args, kwargs, result):
    tr.counters[_suite_name(args, kwargs) + ".checks"] += result.checks


# (span name, "span" | "count", module, attribute, before hook, after hook).
# A stage listed twice is one span: the forwarding wrapper and the
# implementation the pipeline calls share a name.
TARGETS = [
    ("dynamics.build_cylinder_chain", "span", "dynamics", "build_cylinder_chain", None, None),
    ("dynamics.extend_cylinder_chain", "span", "dynamics", "extend_cylinder_chain", None, None),
    ("dynamics.fixed_point_prefix", "span", "dynamics", "fixed_point_prefix", None, _prefix_chars),
    ("dynamics.return_words", "span", "dynamics", "return_words", None, None),
    ("dynamics.build_tower_model", "span", "dynamics", "build_tower_model", None, None),
    ("dynamics.factorize_returns", "span", "dynamics", "factorize_returns", None, None),
    ("dynamics.embedding_map", "span", "dynamics", "embedding_map", None, None),
    ("srone_pipeline", "span", "srone_pipeline", "approximate_by_invertible", _attempt, None),
    ("srone_pipeline", "span", "srone_pipeline", "plant_singular_element", None, None),
    ("srone_pipeline.make_zero_cross", "span", "srone_pipeline", "make_zero_cross", None, None),
    ("srone_pipeline.propagate_crosses", "span", "srone_pipeline", "propagate_crosses", None, None),
    ("srone_pipeline.open_block_points", "span", "srone_pipeline", "open_block_points", None, None),
    ("srone_pipeline.condense_crosses", "span", "srone_pipeline", "condense_crosses", None, None),
    ("srone_pipeline.condense_crosses", "span", "srone_pipeline", "_condense_crosses_impl", None, None),
    ("srone_pipeline.triangulate", "span", "srone_pipeline", "triangulate", None, None),
    ("srone_pipeline.triangulate", "span", "srone_pipeline", "_triangulate_impl", None, None),
    ("srone_pipeline.rordam_invert", "span", "srone_pipeline", "rordam_invert", None, None),
    ("dsh_model.norm_dist", "span", "dsh_model", "norm_dist", None, _dist_eval),
    ("dsh_model.soft_threshold", "span", "dsh_model", "soft_threshold", None, None),
    ("dsh_model.apply_diagonal_map", "span", "dsh_model", "apply_diagonal_map", None, None),
    ("dsh_model.min_singular_over_points", "span", "dsh_model", "min_singular_over_points", None, None),
    ("dsh_model.compose_chain", "span", "dsh_model", "compose_chain", None, None),
    ("dsh_model.build_indicator", "span", "dsh_model", "build_indicator", None, None),
    ("dsh_model.block_starts", "span", "dsh_model", "block_starts", None, None),
    ("dsh_model.element_mul", "span", "dsh_model", "Element.__mul__", None, None),
    ("dsh_model.eval_element", "count", "dsh_model", "eval_element", None, None),
    ("dsh_model.element_new", "count", "dsh_model", "Element.__init__", None, _element_bytes),
    ("matrixkit.svd", "span", "matrixkit", "op_norm", None, _svd_size),
    ("matrixkit.svd", "span", "matrixkit", "min_singular_value", None, _svd_size),
    ("matrixkit.has_zero_cross", "span", "matrixkit", "has_zero_cross", None, None),
    ("matrixkit.diagonal_radius", "span", "matrixkit", "diagonal_radius", None, None),
    ("matrixkit.has_block_point", "span", "matrixkit", "has_block_point", None, None),
    ("matrixkit.direct_sum", "span", "matrixkit", "direct_sum", None, None),
    ("unitary_paths.u_transposition", "span", "unitary_paths", "u_transposition", None, None),
    ("unitary_paths.eta_path", "span", "unitary_paths", "eta_path", None, None),
    ("unitary_paths.v_n", "span", "unitary_paths", "v_n", None, None),
    ("unitary_paths.path_eval", "span", "unitary_paths", "UnitaryPath.__call__", None, None),
    ("unitary_paths.gather_once", "span", "unitary_paths", "gather_once", None, None),
    ("unitary_paths.gather_multi", "span", "unitary_paths", "gather_multi", None, None),
    ("unitary_paths.triangulate_check", "span", "unitary_paths", "triangulate_check", None, None),
    (_suite_name, "span", "verify", "run_suite", None, _suite_checks),
]


def _rebind(orig, wrapper) -> None:
    """Point every name bound to ``orig`` in the package's modules at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dsh_lab" or mod_name.startswith("dsh_lab.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def _serial_run_suites(tr: Tracer, orig):
    """run_suites as the CLI calls it (untraced, timed), then each suite
    serially under tracing; returns the CLI's own results."""

    def run_suites(names, seed=0, trials=None, **kwargs):
        names = list(names)
        tr.active = False
        try:
            t0 = _perf()
            results = orig(names, seed=seed, trials=trials, **kwargs)
            tr.counters["verify.run_suites.pool_s"] += _perf() - t0
        finally:
            tr.active = True
        verify = sys.modules["dsh_lab.verify"]
        for name, pooled in zip(names, results):
            serial = verify.run_suite(name, seed=seed, trials=trials)
            if (serial.passed, serial.checks) != (pooled.passed, pooled.checks):
                tr.counters["verify.serial_mismatch"] += 1
        return results

    return run_suites


def install(op_id: int) -> Tracer:
    tr = Tracer(op_id)
    for name, kind, mod_name, attr, before, after in TARGETS:
        mod = importlib.import_module("dsh_lab." + mod_name)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        orig = getattr(owner, member, None)
        if orig is None:
            tr.missing.append(f"{mod_name}.{attr}")
            continue
        if kind == "span":
            wrapper = tr.span(name, orig, before, after)
        else:
            wrapper = tr.count(name, orig, after)
        if owner_name:
            setattr(owner, member, wrapper)
        else:
            _rebind(orig, wrapper)
    verify = importlib.import_module("dsh_lab.verify")
    orig = getattr(verify, "run_suites", None)
    if orig is None:
        tr.missing.append("verify.run_suites")
    else:
        _rebind(orig, tr.span("verify.run_suites", _serial_run_suites(tr, orig)))
    return tr
