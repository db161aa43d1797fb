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
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .matrixkit import (
    _freeze,
    _frozen,
    direct_sum,
    matrix_from_json,
    min_singular_value,
    op_norm,
)


class PointRef(NamedTuple):
    """A point of a model by level and id; a tuple, so it hashes in C."""

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

    def dim(self, i: int) -> int:
        if not (1 <= i <= len(self._dims)):
            raise IndexError(f"level {i} out of range")
        return self._dims[i - 1]

    @property
    def smallest_dim(self) -> int:
        return self.levels[0].dim

    @property
    def largest_dim(self) -> int:
        return max(lvl.dim for lvl in self.levels)

    # The index: built once per model on first use. cached_property stores
    # into the instance dict, so equality and hashing still see only levels.

    @cached_property
    def _dims(self) -> tuple[int, ...]:
        return tuple(lvl.dim for lvl in self.levels)

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

    @cached_property
    def _zero_values(self) -> Mapping[PointRef, np.ndarray]:
        """A read-only zero at every free point, one per dimension."""
        zeros = {d: _freeze(np.zeros((d, d), dtype=np.complex128)) for d in set(self._dims)}
        return MappingProxyType({r: zeros[self.dim(r.level)] for r in self._free_refs})

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

    Values at glued points are always derived by diagonal assembly. Values
    are read-only: a writeable array passed in is copied, and the package's
    own operations freeze the arrays they have just built in place instead.
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
            v = _frozen(values[ref])
            n = points[ref][1]
            if v.shape != (n, n):
                raise ValueError(f"value at {ref} has shape {v.shape}, expected ({n}, {n})")
            stored[ref] = v
        self.model = model
        self.values = stored

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Element":
        """Apply ``fn`` at every free point; ``fn`` must return a new array."""
        return Element(self.model, {r: _freeze(fn(v)) for r, v in self.values.items()})


def eval_element(e: Element, ref: PointRef) -> np.ndarray:
    """Stored matrix at a free point, diagonal assembly at a glued one."""
    p = e.model.point(ref)
    if not p.is_glued:
        return e.values[ref]
    return direct_sum(eval_element(e, r) for r in p.gluing)


def random_value_stack(m: FiniteDshModel, rng: np.random.Generator, count: int,
                       scale: float = 1.0) -> dict[PointRef, np.ndarray]:
    """The values of ``count`` successive ``random_element`` draws, stacked
    per free point into shape (count, n, n).

    One ``standard_normal`` draw covers them all, in the stream order of
    the successive draws (per element, per free point: real part, then
    imaginary part); the generator fills it sequentially, so the values and
    the generator's final state are bitwise those of ``count`` calls.
    """
    dims = [m.dim(r.level) for r in m.free_refs()]
    draw = rng.standard_normal((count, 2 * sum(n * n for n in dims)))
    out, off = {}, 0
    for r, n in zip(m.free_refs(), dims):
        re = draw[:, off:off + n * n].reshape(count, n, n)
        im = draw[:, off + n * n:off + 2 * n * n].reshape(count, n, n)
        out[r] = scale * (re + 1j * im)
        off += 2 * n * n
    return out


def random_element(m: FiniteDshModel, rng: np.random.Generator, scale: float = 1.0) -> Element:
    return Element(m, {r: _freeze(v[0]) for r, v in random_value_stack(m, rng, 1, scale).items()})


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

    vals = dict(m._zero_values)
    v = np.zeros((m.dim(target.level),) * 2, dtype=np.complex128)
    v[local_k - 2, local_k - 1] = 1.0
    vals[target] = _freeze(v)
    return Element(m, vals)


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

    K must be nonnegative and spaced at least M apart, with max(K) <= n_1 - M
    (a ValueError otherwise). The result satisfies, verbatim: (1) diagonal
    with entries in [0, 1]; (2) at most one nonzero among any M consecutive
    diagonal entries; (3) the final M entries vanish; (4) zero at every
    flagged (point, k); (5) value 1 at k+K_t for every block start k. On
    discrete spectra the smoothing step collapses to exact 0/1 values. Every
    block is a free value of dimension at least n_1 > M, so ones in
    neighbouring blocks lie at least M+1 apart and (1), (2) and (5) hold by
    construction; (3) fails exactly when max(K) = n_1 - M and some free point
    has dimension n_1, and (4) exactly when a flag hits a demanded 1. Both
    raise InfeasibleIndicatorError.
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
    if ks[-1] == n1 - M:
        for ref in m.free_refs():
            if m.dim(ref.level) == n1:
                raise InfeasibleIndicatorError(
                    f"condition (3) fails at {ref}: entry {n1 - M + 1} = 1.0 "
                    f"inside the final {M}")

    starts = block_starts(m)
    flags = _normalize_flags(F)
    for ref in m.all_refs():
        if ref not in flags:
            continue
        demanded = {start + kt for start in starts[ref] for kt in ks}
        for k in flags[ref]:
            if not (1 <= k <= m.dim(ref.level)):
                raise IndexError(f"flag position {k} out of range at {ref}")
            if k in demanded:
                raise InfeasibleIndicatorError(
                    f"flag at {ref}, position {k} collides with a demanded 1"
                )

    vals = {}
    for ref in m.free_refs():
        diag = np.zeros(m.dim(ref.level))
        diag[ks] = 1.0  # a free point starts one block, at 1
        vals[ref] = _freeze(np.diag(diag).astype(np.complex128))
    return Element(m, vals)


def shrink(v: np.ndarray, delta: float) -> np.ndarray:
    """Entrywise z -> z * max(0, |z| - delta) / |z| of an array, computed at
    its nonzeros only and written into zeros."""
    nz = v != 0
    z = v[nz]
    mag = np.abs(z)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        factor = np.maximum(0.0, 1.0 - delta / mag)
    out = np.zeros_like(v)
    out[nz] = z * np.where(np.isfinite(factor), factor, 0.0)
    return out


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


def element_from_json(m: FiniteDshModel, obj: dict) -> Element:
    values = obj.get("values") if isinstance(obj, dict) else None
    if not isinstance(values, dict):
        raise ValueError('expected a JSON object with a "values" object')
    vals = {}
    for key, mat in values.items():
        level, point = key.split("/", 1)
        vals[PointRef(int(level), point)] = matrix_from_json(mat)
    return Element(m, vals)
