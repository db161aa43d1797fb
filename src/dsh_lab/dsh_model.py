"""Finite spectrum models of diagonal subhomogeneous algebra chains.

A model is a list of levels, each carrying a matrix dimension and a finite
set of spectrum points. A point is either *free* or *glued*; a glued point
carries an ordered gluing list of earlier-level points, and the value of any
element there is the diagonal assembly of its values at the listed points.
Elements therefore store matrices at free points only; glued values are
derived, which makes the gluing constraint hold by construction.

Levels and positions are 1-based throughout, like everywhere else in this
package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .matrixkit import (
    _frozen,
    direct_sum,
    matrix_from_json,
    matrix_to_json,
    min_singular_value,
    op_norm,
)


@dataclass(frozen=True, order=True)
class PointRef:
    level: int
    point: str


@dataclass(frozen=True)
class ModelPoint:
    id: str
    gluing: tuple[PointRef, ...] | None = None

    @property
    def is_glued(self) -> bool:
        return self.gluing is not None


@dataclass(frozen=True)
class Level:
    dim: int
    points: tuple[ModelPoint, ...]


@dataclass(frozen=True)
class FiniteDshModel:
    levels: tuple[Level, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a model needs at least one level")
        for lvl in self.levels:
            if lvl.dim < 1:
                raise ValueError("level dimensions must be positive")
            ids = [p.id for p in lvl.points]
            if len(set(ids)) != len(ids):
                raise ValueError(f"duplicate point ids in a level: {ids}")

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level(self, i: int) -> Level:
        if not (1 <= i <= self.num_levels):
            raise IndexError(f"level {i} out of range")
        return self.levels[i - 1]

    def dim(self, i: int) -> int:
        return self.level(i).dim

    @property
    def smallest_dim(self) -> int:
        return self.levels[0].dim

    @property
    def largest_dim(self) -> int:
        return max(lvl.dim for lvl in self.levels)

    # The index: built once per model on first use. cached_property stores
    # into the instance dict, so equality and hashing still see only levels.

    @cached_property
    def _points(self) -> dict[PointRef, tuple[ModelPoint, int]]:
        """Every point with its level's dimension, in level order."""
        return {PointRef(i, p.id): (p, lvl.dim)
                for i, lvl in enumerate(self.levels, start=1) for p in lvl.points}

    @cached_property
    def _free_refs(self) -> tuple[PointRef, ...]:
        return tuple(r for r, (p, _) in self._points.items() if not p.is_glued)

    @cached_property
    def free_set(self) -> frozenset[PointRef]:
        return frozenset(self._free_refs)

    @cached_property
    def _block_starts(self) -> Mapping[PointRef, tuple[int, ...]]:
        out: dict[PointRef, tuple[int, ...]] = {}
        for ref, (p, _) in self._points.items():
            starts = [1]
            for sub in (p.gluing or ())[:-1]:
                starts.append(starts[-1] + self.dim(sub.level))
            out[ref] = tuple(starts)
        return MappingProxyType(out)

    def has_point(self, ref: PointRef) -> bool:
        return ref in self._points

    def point(self, ref: PointRef) -> ModelPoint:
        try:
            return self._points[ref][0]
        except KeyError:
            raise KeyError(f"dangling reference: {ref}") from None

    def free_refs(self) -> tuple[PointRef, ...]:
        return self._free_refs

    def all_refs(self) -> tuple[PointRef, ...]:
        return tuple(self._points)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(m: FiniteDshModel) -> ValidationReport:
    """Check the model invariants; returns a report instead of raising.

    Checked: level 1 has no glued points, gluing lists reference existing
    *free* points at strictly earlier levels, each gluing list's dimensions
    sum to the level dimension, and level dimensions are nondecreasing.
    """
    bad: list[str] = []
    for i, lvl in enumerate(m.levels, start=1):
        if i > 1 and lvl.dim < m.levels[i - 2].dim:
            bad.append(f"level {i} dimension {lvl.dim} decreases below level {i - 1}")
        for p in lvl.points:
            if not p.is_glued:
                continue
            if i == 1:
                bad.append(f"level 1 point '{p.id}' is glued")
                continue
            if not p.gluing:
                bad.append(f"glued point {i}/'{p.id}' has an empty gluing list")
                continue
            total = 0
            for ref in p.gluing:
                if ref.level >= i:
                    bad.append(f"glued point {i}/'{p.id}' references level {ref.level} >= {i}")
                    continue
                if not m.has_point(ref):
                    bad.append(f"glued point {i}/'{p.id}' references missing {ref}")
                    continue
                if m.point(ref).is_glued:
                    bad.append(
                        f"glued point {i}/'{p.id}' references glued point {ref} (not normalized)"
                    )
                total += m.dim(ref.level)
            if total != lvl.dim:
                bad.append(
                    f"gluing list of {i}/'{p.id}' sums to {total}, level dimension is {lvl.dim}"
                )
    return ValidationReport(tuple(bad))


class Element:
    """An assignment of matrices to the free points of a model.

    Values at glued points are always derived by diagonal assembly. Supports
    pointwise algebra: ``e1 * e2``, ``e1 + e2``, ``e1 - e2``, ``c * e``,
    ``e.adjoint()``.
    """

    __slots__ = ("model", "values")

    def __init__(self, model: FiniteDshModel, values: Mapping[PointRef, np.ndarray]):
        if values.keys() != model.free_set:
            missing = [r for r in model.free_refs() if r not in values]
            extra = [r for r in values if r not in model.free_set]
            raise ValueError(f"element values must cover exactly the free points; "
                             f"missing={missing}, extra={extra}")
        points = model._points
        stored: dict[PointRef, np.ndarray] = {}
        for ref in model.free_refs():
            v = np.asarray(values[ref], dtype=np.complex128)
            n = points[ref][1]
            if v.shape != (n, n):
                raise ValueError(f"value at {ref} has shape {v.shape}, expected ({n}, {n})")
            stored[ref] = _frozen(v)
        self.model = model
        self.values = stored

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Element":
        return Element(self.model, {r: fn(v) for r, v in self.values.items()})

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if self.model != other.model:
            raise ValueError("elements live on different models")
        return Element(self.model, {r: v @ other.values[r] for r, v in self.values.items()})

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if self.model != other.model:
            raise ValueError("elements live on different models")
        return Element(self.model, {r: v + other.values[r] for r, v in self.values.items()})

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if self.model != other.model:
            raise ValueError("elements live on different models")
        return Element(self.model, {r: v - other.values[r] for r, v in self.values.items()})

    def __rmul__(self, c) -> "Element":
        if isinstance(c, (int, float, complex)):
            return Element(self.model, {r: c * v for r, v in self.values.items()})
        return NotImplemented

    def adjoint(self) -> "Element":
        return Element(self.model, {r: v.conj().T for r, v in self.values.items()})


def eval_element(e: Element, ref: PointRef) -> np.ndarray:
    """Stored matrix at a free point, diagonal assembly at a glued one."""
    p = e.model.point(ref)
    if not p.is_glued:
        return e.values[ref]
    return direct_sum(eval_element(e, r) for r in p.gluing)


def unit_element(m: FiniteDshModel) -> Element:
    return Element(m, {r: np.eye(m.dim(r.level), dtype=np.complex128) for r in m.free_refs()})


def zero_element(m: FiniteDshModel) -> Element:
    return Element(m, {r: np.zeros((m.dim(r.level),) * 2, dtype=np.complex128) for r in m.free_refs()})


def scalar_element(m: FiniteDshModel, c: complex) -> Element:
    return c * unit_element(m)


def random_element(m: FiniteDshModel, rng: np.random.Generator, scale: float = 1.0) -> Element:
    vals = {}
    for r in m.free_refs():
        n = m.dim(r.level)
        vals[r] = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Element(m, vals)


def block_starts(m: FiniteDshModel) -> Mapping[PointRef, tuple[int, ...]]:
    """Positions where a new diagonal block begins, per point (read-only).

    Free points start a single block at 1; a glued point with component
    dimensions (d_1, ..., d_t) starts blocks at 1, d_1+1, d_1+d_2+1, ...
    """
    return m._block_starts


def witness_no_block_point(m: FiniteDshModel, ref: PointRef, k: int) -> Element:
    """An element whose value at ``ref`` has no block point at position k.

    Only exists when k is not a block start there: the witness supports a
    single entry at (k-1, k) on the free point that position k traces back
    to, and is zero elsewhere.
    """
    p = m.point(ref)
    n = m.dim(ref.level)
    if not (1 <= k <= n):
        raise IndexError(f"position {k} out of range for dimension {n}")
    starts = block_starts(m)[ref]
    if k in starts:
        raise ValueError(f"position {k} is a genuine block start at {ref}; no witness exists")

    target, local_k = ref, k
    while m.point(target).is_glued:
        glist = m.point(target).gluing
        acc = 1
        for sub in glist:
            d = m.dim(sub.level)
            if acc < local_k < acc + d:
                local_k = local_k - acc + 1
                target = sub
                break
            acc += d
        else:
            raise ValueError(f"position {k} is a block boundary at {ref}; no witness exists")

    vals = {r: np.zeros((m.dim(r.level),) * 2, dtype=np.complex128) for r in m.free_refs()}
    vals[target][local_k - 2, local_k - 1] = 1.0
    out = Element(m, vals)
    from .matrixkit import has_block_point

    if has_block_point(eval_element(out, ref), k):
        raise RuntimeError(f"witness construction failed at {ref}, k={k}")
    return out


@dataclass(frozen=True)
class DiagonalMap:
    """Per target free point, an ordered eigenvalue list of source points."""

    source: FiniteDshModel
    target: FiniteDshModel
    lists: Mapping[PointRef, tuple[PointRef, ...]] = field(hash=False)

    def __post_init__(self):
        if self.lists.keys() != self.target.free_set:
            raise ValueError("eigenvalue lists must cover exactly the target free points")
        for tref, srcs in self.lists.items():
            if not srcs:
                raise ValueError(f"empty eigenvalue list at {tref}")
            total = 0
            for s in srcs:
                if not self.source.has_point(s):
                    raise KeyError(f"eigenvalue list at {tref} references missing {s}")
                total += self.source.dim(s.level)
            want = self.target.dim(tref.level)
            if total != want:
                raise ValueError(
                    f"eigenvalue list at {tref} sums to dimension {total}, expected {want}"
                )


def identity_shaped_map(source: FiniteDshModel, target: FiniteDshModel,
                        pairing: Mapping[PointRef, PointRef]) -> DiagonalMap:
    """Map where each target free point lists one same-dimension source point."""
    return DiagonalMap(source, target, {t: (s,) for t, s in pairing.items()})


def apply_diagonal_map(d: DiagonalMap, e: Element) -> Element:
    if e.model != d.source:
        raise ValueError("element does not belong to the map's source model")
    vals = {}
    for tref in d.target.free_refs():
        vals[tref] = direct_sum(eval_element(e, s) for s in d.lists[tref])
    return Element(d.target, vals)


def _expanded_list(d: DiagonalMap, ref: PointRef) -> tuple[PointRef, ...]:
    """The eigenvalue list of any target point, free or glued."""
    p = d.target.point(ref)
    if not p.is_glued:
        return tuple(d.lists[ref])
    out: list[PointRef] = []
    for sub in p.gluing:
        out.extend(_expanded_list(d, sub))
    return tuple(out)


def compose_diagonal_maps(d2: DiagonalMap, d1: DiagonalMap) -> DiagonalMap:
    """d2 after d1; eigenvalue lists concatenate by substitution."""
    if d1.target != d2.source:
        raise ValueError("maps are not composable")
    lists = {}
    for tref in d2.target.free_refs():
        out: list[PointRef] = []
        for mid in d2.lists[tref]:
            out.extend(_expanded_list(d1, mid))
        lists[tref] = tuple(out)
    return DiagonalMap(d1.source, d2.target, lists)


class InfeasibleIndicatorError(ValueError):
    pass


def _normalize_flags(f) -> dict[PointRef, frozenset[int]]:
    if f is None:
        return {}
    return {ref: frozenset(int(k) for k in ks) for ref, ks in dict(f).items()}


def build_indicator(m: FiniteDshModel, M: int, K: Sequence[int], F=None) -> Element:
    """Diagonal 0/1 element with a 1 exactly at position k+K_t for every
    block start k.

    K must be nonnegative, spaced at least M apart, with max(K) <= n_1 - M.
    The result satisfies, verbatim: (1) diagonal with entries in [0, 1];
    (2) at most one nonzero among any M consecutive diagonal entries;
    (3) the final M entries vanish; (4) zero at every flagged (point, k);
    (5) value 1 at k+K_t for every block start k. On discrete spectra the
    smoothing step collapses to exact 0/1 values, so infeasibility (a flag
    colliding with a demanded 1, or a boundary overflow into the zero tail)
    is detected by verifying the five conditions and raising.
    """
    report = validate_model(m)
    if not report.ok:
        raise ValueError(f"invalid model: {report.violations[0]}")
    n1 = m.smallest_dim
    ks = sorted(set(int(k) for k in K))
    if not ks:
        raise ValueError("K must be nonempty")
    if not (1 <= M < n1):
        raise ValueError(f"need 1 <= M < n_1, got M={M}, n_1={n1}")
    if ks[0] < 0 or ks[-1] > n1 - M:
        raise ValueError(f"need 0 <= K_t <= n_1 - M = {n1 - M}, got {ks}")
    for a in range(len(ks) - 1):
        if ks[a + 1] - ks[a] < M:
            raise ValueError(f"offsets {ks[a]} and {ks[a + 1]} closer than M={M}")
    flags = _normalize_flags(F)

    starts = block_starts(m)
    vals = {}
    for ref in m.free_refs():
        n = m.dim(ref.level)
        diag = np.zeros(n)
        for start in starts[ref]:
            for kt in ks:
                diag[start + kt - 1] = 1.0
        vals[ref] = np.diag(diag).astype(np.complex128)
    theta = Element(m, vals)

    for ref in m.all_refs():
        n = m.dim(ref.level)
        v = eval_element(theta, ref)
        d = np.real(np.diag(v)).copy()
        for k in range(n - M + 1, n + 1):
            if d[k - 1] != 0.0:
                raise InfeasibleIndicatorError(
                    f"condition (3) fails at {ref}: entry {k} = {d[k - 1]} inside the final {M}"
                )
        for k in range(1, n - M + 2):
            if np.count_nonzero(d[k - 1:k - 1 + M]) > 1:
                raise InfeasibleIndicatorError(
                    f"condition (2) fails at {ref}: window {k}..{k + M - 1}"
                )
        for start in starts[ref]:
            for kt in ks:
                if d[start + kt - 1] != 1.0:
                    raise InfeasibleIndicatorError(
                        f"condition (5) fails at {ref}: entry {start + kt} is not 1"
                    )
        for k in flags.get(ref, ()):
            if not (1 <= k <= n):
                raise IndexError(f"flag position {k} out of range at {ref}")
            if d[k - 1] != 0.0:
                raise InfeasibleIndicatorError(
                    f"flag at {ref}, position {k} collides with a demanded 1"
                )
    return theta


def shrink(v: np.ndarray, delta: float) -> np.ndarray:
    """Entrywise z -> z * max(0, |z| - delta) / |z| of one matrix."""
    mag = np.abs(v)
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.maximum(0.0, 1.0 - delta / mag)
    return v * np.where(np.isfinite(factor), factor, 0.0)


def soft_threshold(e: Element, delta: float) -> Element:
    """``shrink`` at every free point.

    Shrinks every entry toward zero by delta in modulus, zeroing anything of
    modulus <= delta; zero patterns (crosses, block points, bandwidth) can
    only grow. The per-point distance to the input is at most delta * n.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return e.map_values(lambda v: shrink(v, delta))


def norm_dist(e1: Element, e2: Element) -> float:
    """Max over free points of the operator norm of the difference.

    Glued points need no separate check: their values are diagonal
    assemblies of free values, and a diagonal assembly's norm is the max of
    its blocks'.
    """
    if e1.model != e2.model:
        raise ValueError("elements live on different models")
    return max(op_norm(e1.values[r] - e2.values[r]) for r in e1.model.free_refs())


def min_singular_over_points(e: Element) -> float:
    """Min over free points of the smallest singular value.

    Glued points need no separate check: their values are diagonal
    assemblies of free values, and a diagonal assembly's smallest singular
    value is the min of its blocks'.
    """
    return min(min_singular_value(v) for v in e.values.values())


def chain_models(chain: Sequence[DiagonalMap]) -> list[FiniteDshModel]:
    models = [chain[0].source]
    for d in chain:
        if d.source != models[-1]:
            raise ValueError("chain maps are not composable")
        models.append(d.target)
    return models


def compose_chain(chain: Sequence[DiagonalMap], i: int, j: int) -> DiagonalMap:
    """The composite map from chain stage i to stage j (1-based stages)."""
    if not (1 <= i < j <= len(chain) + 1):
        raise IndexError(f"invalid stage pair ({i}, {j}) for a chain of {len(chain)} maps")
    composed = chain[i - 1]
    for d in chain[i:j - 1]:
        composed = compose_diagonal_maps(d, composed)
    return composed


def check_simplicity_condition(chain: Sequence[DiagonalMap], i: int,
                               U: Iterable[PointRef]) -> tuple[bool, int | None]:
    """Least stage j > i where every free point's eigenvalue list meets U.

    U is a set of free points of stage i. Returns (False, None) when the
    chain is exhausted without a witness.
    """
    U = set(U)
    if not U:
        raise ValueError("U must be nonempty")
    models = chain_models(chain)
    if not (1 <= i <= len(models)):
        raise IndexError(f"stage {i} out of range")
    composed: DiagonalMap | None = None
    for j in range(i + 1, len(models) + 1):
        step = chain[j - 2]
        composed = step if composed is None else compose_diagonal_maps(step, composed)
        if all(any(s in U for s in composed.lists[t]) for t in models[j - 1].free_refs()):
            return True, j
    return False, None


def model_to_json(m: FiniteDshModel) -> dict:
    return {
        "levels": [
            {
                "dim": lvl.dim,
                "points": [
                    {
                        "id": p.id,
                        "glued": p.is_glued,
                        "gluing": [
                            {"level": r.level, "point": r.point} for r in (p.gluing or ())
                        ],
                    }
                    for p in lvl.points
                ],
            }
            for lvl in m.levels
        ]
    }


def model_from_json(obj: dict) -> FiniteDshModel:
    levels = []
    for lvl in obj["levels"]:
        pts = []
        for p in lvl["points"]:
            gluing = None
            if p["glued"]:
                gluing = tuple(PointRef(r["level"], r["point"]) for r in p["gluing"])
            pts.append(ModelPoint(p["id"], gluing))
        levels.append(Level(int(lvl["dim"]), tuple(pts)))
    return FiniteDshModel(tuple(levels))


def element_to_json(e: Element) -> dict:
    return {
        "values": {
            f"{r.level}/{r.point}": matrix_to_json(v)
            for r, v in sorted(e.values.items())
        }
    }


def element_from_json(m: FiniteDshModel, obj: dict) -> Element:
    values = obj.get("values") if isinstance(obj, dict) else None
    if not isinstance(values, dict):
        raise ValueError('expected a JSON object with a "values" object')
    vals = {}
    for key, mat in values.items():
        level, point = key.split("/", 1)
        vals[PointRef(int(level), point)] = matrix_from_json(mat)
    return Element(m, vals)
