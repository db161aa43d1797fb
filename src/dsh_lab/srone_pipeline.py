"""Invertible approximation of a non-invertible element along a model chain.

The pipeline mirrors the constructive argument that simple diagonal limits
of these algebra models have dense invertibles: rotate a singular value onto
a zero cross, push the element deep enough along the chain that every point
sees the cross periodically, open the block points with a soft threshold,
condense the periodic crosses into an initial segment, right-multiply by
the triangulating unitary, and perturb the resulting nilpotent by a scalar.
Every stage verifies its structural predicates on the free values and logs
the distance it consumed from the epsilon budget. A glued value is the
diagonal assembly of free values of dimension at least n_1, and every
checked position lies less than n_1 past a block start, so each predicate
holds at a glued point exactly when it holds at the free points it
assembles. Only ``input_block_points`` reads glued values: it holds by the
same construction, and stays as the pipeline's one caller of
``has_block_point``, whose figures the benchmark gates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from .dsh_model import (
    DiagonalMap,
    Element,
    FiniteDshModel,
    PointRef,
    apply_diagonal_map,
    block_starts,
    build_indicator,
    chain_models,
    check_simplicity_condition,
    compose_chain,
    eval_element,
    min_singular_over_points,
    norm_dist,
    scalar_element,
    shrink,
    soft_threshold,
    unit_element,
)
from .dynamics import (
    CylinderChain,
    Substitution,
    extend_cylinder_chain,
    fibonacci_prefix_bases,
)
from .matrixkit import (
    BUDGET_SLACK,
    DEFAULT_ATOL,
    INVERTIBLE_TOL,
    PATH_ATOL,
    SANDWICH_RTOL,
    THRESHOLD_RTOL,
    Permutation,
    _frozen,
    diagonal_radius,
    has_block_point,
    has_zero_cross,
    is_strictly_lower_triangular,
    min_singular_value,
    norm_below,
    perm_matrix,
)
from .unitary_paths import condense_path, gather_multi, v_n


class PipelineError(RuntimeError):
    pass


class NotCloseToSingularError(PipelineError):
    pass


class SimplicityError(PipelineError):
    pass


class ChainTooShortError(PipelineError):
    def __init__(self, required_n1: int, message: str):
        self.required_n1 = required_n1
        super().__init__(message)


Predicate = tuple[str, bool, str | None]


def _require(preds: list[Predicate], name: str, ok: bool, witness: str | None = None) -> None:
    preds.append((name, ok, None if ok else witness))
    if not ok:
        raise PipelineError(f"predicate '{name}' failed: {witness}")


def _require_crosses(preds: list[Predicate], name: str, e: Element,
                     offsets: Collection[int], atol: float) -> None:
    """Require a zero cross at 1 + o for every offset o, at every free point
    of ``e`` (a free point starts one block, at 1)."""
    for ref, val in e.values.items():
        for o in offsets:
            _require(preds, name, has_zero_cross(val, 1 + o, atol),
                     f"{ref}: missing zero cross at {1 + o}")


@dataclass
class StageRecord:
    name: str
    distance: float
    unitary_ids: tuple[str, ...]
    predicates: list[Predicate] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "unitary_ids": list(self.unitary_ids),
            "distance": self.distance,
            "predicates": {
                name: {"pass": ok, "witness": witness} for name, ok, witness in self.predicates
            },
        }


@dataclass
class PipelineCertificate:
    input_id: str
    epsilon: float
    stages: list[StageRecord]
    output: Element
    output_stage: int
    total_distance: float
    min_singular_value: float
    runtime_ms: float
    # the soft threshold's delta, and whether it zeroed every free value;
    # None when no threshold ran (an already invertible input)
    threshold_delta: float | None = None
    threshold_wiped: bool | None = None

    @property
    def budget_consumed(self) -> float:
        return sum(s.distance for s in self.stages)

    def to_json(self) -> dict:
        return {
            "input_element": self.input_id,
            "output_stage": self.output_stage,
            "stages": [s.to_json() for s in self.stages],
            "summary": {
                "epsilon": self.epsilon,
                "total_distance": self.total_distance,
                "stage_distance_sum": self.budget_consumed,
                "min_singular_value": self.min_singular_value,
                "runtime_ms": self.runtime_ms,
                "threshold_delta": self.threshold_delta,
                "threshold_wiped": self.threshold_wiped,
            },
        }


def find_singular_point(e: Element, tol: float) -> PointRef | None:
    """A free point with min singular value <= tol, preferring the highest
    level (then the first point in order); None when there is no such point."""
    best: PointRef | None = None
    for ref in sorted(e.model.free_refs()):
        if min_singular_value(e.values[ref]) <= tol:
            if best is None or ref.level > best.level:
                best = ref
    return best


@dataclass
class ZeroCrossStage:
    element: Element          # the perturbed element e'
    left: Element             # vL
    right: Element            # vR
    delta: Element            # diagonal gate: (1,1) entry 1 on U
    points: frozenset[PointRef]
    singular_point: PointRef
    distance: float
    predicates: list[Predicate] = field(default_factory=list)


def _require_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")


def _zero_cross_point(e: Element, eps: float) -> PointRef:
    """The point make_zero_cross rotates: the first point of the highest
    level whose smallest singular value is below eps."""
    svs = {ref: min_singular_value(e.values[ref]) for ref in sorted(e.model.free_refs())}
    global_min = min(svs.values())
    if global_min > INVERTIBLE_TOL:
        raise NotCloseToSingularError(
            f"element is invertible (min singular value {global_min:.3g})"
        )
    if global_min >= eps:
        raise NotCloseToSingularError(
            f"not eps-close to singular: min singular value {global_min:.3g} >= eps={eps:.3g}"
        )
    candidates = [r for r, sv in svs.items() if sv < eps]
    return max(candidates, key=lambda r: r.level)


def make_zero_cross(e: Element, eps: float) -> ZeroCrossStage:
    """Perturb within eps and rotate so row/column 1 vanishes at one point.

    The smallest singular value at the located point is replaced by zero
    (that is the whole distance), and the unitaries carry the corresponding
    singular bases so that vL e' vR has a zero cross in position 1 there.
    """
    _require_eps(eps)
    p_star = _zero_cross_point(e, eps)
    n = e.model.dim(p_star.level)
    a = e.values[p_star]

    preds: list[Predicate] = []
    if not np.any(a):
        e_prime, v_mat, w_mat = e, np.eye(n, dtype=np.complex128), np.eye(n, dtype=np.complex128)
        distance = 0.0
    else:
        u_svd, s, vh = np.linalg.svd(a)
        distance = float(s[-1])
        s_cut = s.copy()
        s_cut[-1] = 0.0
        a_prime = u_svd @ np.diag(s_cut).astype(np.complex128) @ vh
        vals = dict(e.values)
        vals[p_star] = a_prime
        e_prime = Element(e.model, vals)
        p_swap = perm_matrix(Permutation.transposition(n, 1, n)) if n > 1 else np.eye(1)
        v_mat = p_swap @ u_svd.conj().T
        w_mat = vh.conj().T @ p_swap

    unit = unit_element(e.model)
    left_vals = dict(unit.values)
    right_vals = dict(unit.values)
    left_vals[p_star] = v_mat
    right_vals[p_star] = w_mat
    v_left = Element(e.model, left_vals)
    v_right = Element(e.model, right_vals)

    delta_vals = {}
    for ref in e.model.free_refs():
        d = np.zeros((e.model.dim(ref.level),) * 2, dtype=np.complex128)
        if ref == p_star:
            d[0, 0] = 1.0
        delta_vals[ref] = d
    delta = Element(e.model, delta_vals)

    rotated = (v_left * e_prime * v_right).values[p_star]
    _require(preds, "distance_within_eps", distance < eps, f"{distance} >= {eps}")
    _require(preds, "zero_cross_at_1", has_zero_cross(rotated, 1, PATH_ATOL),
             f"no zero cross at {p_star}")
    return ZeroCrossStage(
        element=e_prime, left=v_left, right=v_right, delta=delta,
        points=frozenset([p_star]), singular_point=p_star, distance=distance,
        predicates=preds,
    )


@dataclass
class PropagationStage:
    stage_index: int          # j'
    witness_index: int        # the simplicity witness stage
    left: Element             # V1
    right: Element            # V2
    image: Element            # G = V1 phi(e') V2
    M: int
    N: int
    R: int
    predicates: list[Predicate] = field(default_factory=list)


def gathering_plan(chain: list[DiagonalMap], j: int, U: Collection[PointRef],
                   N: int | None = None) -> tuple[int, int, int, int, int]:
    """(j_witness, j', M, N, R) for gathering the crosses at U from stage j.

    j_witness is the first simplicity witness stage for U (every point there
    sees U through its eigenvalue list), M is twice its largest dimension, R
    the largest dimension at stage j, N defaults to R+M+3, and j' is the
    first later stage whose smallest dimension is at least NM+1. Raises
    SimplicityError without a witness and ChainTooShortError without j'.
    """
    models = chain_models(chain)
    holds, j_witness = check_simplicity_condition(chain, j, U)
    if not holds:
        raise SimplicityError(f"chain exhausted at depth {len(models)}: no stage is "
                              f"a simplicity witness for U={sorted(U)}")
    M = 2 * models[j_witness - 1].largest_dim
    R = models[j - 1].largest_dim
    if N is None:
        N = R + M + 3
    required = N * M + 1
    for jp in range(j_witness + 1, len(models) + 1):
        if models[jp - 1].smallest_dim >= required:
            return j_witness, jp, M, N, R
    raise ChainTooShortError(
        required,
        f"chain exhausted at depth {len(models)}: need a stage with smallest "
        f"dimension >= {required} (N={N}, M={M})",
    )


def propagate_crosses(chain: list[DiagonalMap], j: int, zc: ZeroCrossStage,
                      N: int | None = None) -> PropagationStage:
    """Push the zero cross down the chain until it recurs every M entries.

    ``gathering_plan`` picks the simplicity witness stage for U, M, N, R and
    the gathering stage j'. At every free point of stage j',
    ``gather_multi`` gathers the mapped cross gate into the windows that the
    indicator marks (1s at k+aM over each block start k).
    """
    models = chain_models(chain)
    if not (1 <= j <= len(models)) or zc.element.model != models[j - 1]:
        raise ValueError("stage data does not sit at chain position j")
    j_witness, jp, M, N, R = gathering_plan(chain, j, zc.points, N)
    model_jp = models[jp - 1]
    phi = compose_chain(chain, j, jp)
    delta_p = apply_diagonal_map(phi, zc.delta)
    g = apply_diagonal_map(phi, zc.left * zc.element * zc.right)
    theta = build_indicator(model_jp, M, tuple(a * M for a in range(N)))

    preds: list[Predicate] = []
    v_vals: dict[PointRef, np.ndarray] = {}
    image_vals: dict[PointRef, np.ndarray] = {}
    for ref in model_jp.free_refs():
        ks = [int(k) + 1 for k in np.flatnonzero(np.diag(theta.values[ref]))]
        witness = None
        try:
            v_vals[ref], image_vals[ref] = gather_multi(
                g.values[ref], np.real(np.diag(delta_p.values[ref])), ks, M)
        except (ValueError, IndexError, RuntimeError) as exc:
            witness = f"{ref}: {exc}"
        _require(preds, "windowed_gathering", witness is None, witness)
    gather = Element(model_jp, v_vals)
    v1 = gather * apply_diagonal_map(phi, zc.left)
    v2 = apply_diagonal_map(phi, zc.right) * gather.adjoint()
    image = Element(model_jp, image_vals)

    _require_crosses(preds, "periodic_zero_crosses", image, range(0, N * M, M), PATH_ATOL)
    for ref, val in image.values.items():
        r = diagonal_radius(val, PATH_ATOL)
        _require(preds, "radius_bound", r <= R + M - 1, f"{ref}: radius {r} > {R + M - 1}")
    return PropagationStage(
        stage_index=jp, witness_index=j_witness, left=v1, right=v2, image=image,
        M=M, N=N, R=R, predicates=preds,
    )


def open_block_points(g: Element, eps: float) -> tuple[Element, float, float]:
    """Soft-threshold with the largest delta whose distance stays under eps.

    Returns (thresholded element, delta, measured distance). The bracket
    comes from the per-point bound distance <= delta * n_l, so delta at
    least eps/n_l is always available; the binary search pushes it up to
    where the distance would reach eps (or everything is zeroed). Each step
    asks ``norm_below`` whether every per-point difference stays under eps,
    so an SVD runs only where the norm bounds cannot decide. The search
    stops once the bracket is narrower than THRESHOLD_RTOL relative to hi
    (lo is certified at every step, so the distance stays under eps and delta
    is within a relative 2*THRESHOLD_RTOL of the fully resolved search), or
    once the midpoint no longer splits it.
    """
    _require_eps(eps)
    n_l = g.model.largest_dim

    def below_eps(delta: float) -> bool:
        return norm_below([v - shrink(v, delta) for v in g.values.values()], eps)

    lo = eps / n_l
    while not below_eps(lo):
        lo /= 2.0
    max_mod = max((float(np.max(np.abs(v))) if v.size else 0.0) for v in g.values.values())
    hi = max_mod + eps / n_l
    if below_eps(hi):
        lo = hi
    else:
        for _ in range(60):
            if hi - lo <= THRESHOLD_RTOL * hi:
                break
            mid = (lo + hi) / 2
            if not lo < mid < hi:
                break
            if below_eps(mid):
                lo = mid
            else:
                hi = mid
    out = soft_threshold(g, lo)
    return out, lo, norm_dist(g, out)


def condense_crosses(g_prime: Element, M: int, N: int,
                     ) -> tuple[Element, Element, list[Predicate]]:
    """Walk the crosses at k, k+M, ..., k+(N-1)M into k, k+1, ..., k+N-1.

    Requires the crosses and a block point at every block start, so the
    condensation path acts inside one diagonal block per start; the diagonal
    radius grows by at most 2 at every point. The condensed crosses are left
    to ``triangulate``, which checks them at the stricter DEFAULT_ATOL.
    Returns (V3, V3 G' V3*, verified predicates).
    """
    model = g_prime.model
    nm = N * M
    if model.smallest_dim <= nm:
        raise ValueError(f"need n_1 > NM = {nm}, got n_1 = {model.smallest_dim}")
    # verified 0/1 with its final nm entries zero, so every window fits
    theta = build_indicator(model, nm, (0,))
    block = condense_path(nm, tuple(1 + a * M for a in range(N)))(1.0)

    preds: list[Predicate] = []
    _require_crosses(preds, "input_periodic_crosses", g_prime, range(0, nm, M), DEFAULT_ATOL)
    # holds by construction (glued values are direct sums); kept while the
    # benchmark gates has_block_point, which only this check calls
    starts = block_starts(model)
    for ref in model.all_refs():
        val = eval_element(g_prime, ref)
        for k in starts[ref]:
            _require(preds, "input_block_points",
                     has_block_point(val, k, DEFAULT_ATOL),
                     f"{ref}: no block point at {k}")

    v_vals: dict[PointRef, np.ndarray] = {}
    for ref in model.free_refs():
        v = np.eye(model.dim(ref.level), dtype=np.complex128)
        for k in np.flatnonzero(np.diag(theta.values[ref])):
            v[k:k + nm, k:k + nm] = block
        v_vals[ref] = _frozen(v)
    v3 = Element(model, v_vals)
    out = v3 * g_prime * v3.adjoint()

    for ref, before in g_prime.values.items():
        _require(preds, "radius_growth_at_most_2",
                 diagonal_radius(out.values[ref], PATH_ATOL)
                 <= diagonal_radius(before, PATH_ATOL) + 2,
                 f"{ref}: radius grew by more than 2")
    return v3, out, preds


def triangulate(g_second: Element, N: int) -> tuple[Element, Element, list[Predicate]]:
    """Right-multiply by the per-point triangulating unitary.

    Requires consecutive crosses k..k+N-1 at every block start and diagonal
    radius < N everywhere; the product is strictly lower triangular at every
    point. Returns (V4, G'' V4, verified predicates).
    """
    model = g_second.model
    if model.smallest_dim <= N:
        raise ValueError(f"need n_1 > N = {N}, got n_1 = {model.smallest_dim}")
    theta = build_indicator(model, N, (0,))

    preds: list[Predicate] = []
    _require_crosses(preds, "input_consecutive_crosses", g_second, range(N), DEFAULT_ATOL)
    for ref, val in g_second.values.items():
        r = diagonal_radius(val, DEFAULT_ATOL)
        _require(preds, "input_radius_below_N", r < N, f"{ref}: radius {r} >= N={N}")

    v_vals = {
        ref: v_n(tuple(np.real(np.diag(theta.values[ref]))), N)
        for ref in model.free_refs()
    }
    v4 = Element(model, v_vals)
    out = g_second * v4
    for ref, val in out.values.items():
        _require(preds, "strictly_lower_triangular",
                 is_strictly_lower_triangular(val, PATH_ATOL),
                 f"{ref}: product is not strictly lower triangular")
    return v4, out, preds


def rordam_invert(t: Element, delta: float) -> Element:
    """Add delta times the unit to a pointwise-nilpotent element.

    ``triangulate`` certifies that every value of ``t`` is strictly lower
    triangular, hence nilpotent, so the sum is invertible at every point
    (determinant delta^n); the caller measures its minimum singular value.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return t + scalar_element(t.model, delta)


def approximate_by_invertible(chain: list[DiagonalMap], a: Element, eps: float,
                              j: int = 1, input_id: str = "input",
                              ) -> tuple[Element, PipelineCertificate]:
    """Produce an invertible element within eps of the image of ``a``.

    Budget: eps/4 for the singular-value cut, eps/4 for the soft threshold,
    eps/8 for the scalar perturbation (half the final quarter, leaving slack
    for the triangulation tolerance). The certificate logs each stage's
    unitaries, verified predicates, and consumed distance, plus the measured
    total distance and minimum singular value, the threshold's delta, and
    whether the threshold zeroed every free value.
    """
    t0 = time.perf_counter()
    _require_eps(eps)
    models = chain_models(chain)
    if not (1 <= j <= len(models)) or a.model != models[j - 1]:
        raise ValueError("element does not live at chain position j")

    if find_singular_point(a, INVERTIBLE_TOL) is None:
        minsv = min_singular_over_points(a)
        cert = PipelineCertificate(
            input_id=input_id, epsilon=eps,
            stages=[StageRecord("already_invertible", 0.0, (),
                                [("invertible", True, None)])],
            output=a, output_stage=j, total_distance=0.0,
            min_singular_value=minsv,
            runtime_ms=1000 * (time.perf_counter() - t0),
        )
        return a, cert

    zc = make_zero_cross(a, eps / 4)
    prop = propagate_crosses(chain, j, zc)

    g_prime, delta_thresh, d_thresh = open_block_points(prop.image, eps / 4)
    # condense_crosses checks the crosses and block points that g' hands on
    thresh_preds: list[Predicate] = []
    for ref, val in g_prime.values.items():
        _require(thresh_preds, "radius_not_increased",
                 diagonal_radius(val) <= diagonal_radius(prop.image.values[ref], PATH_ATOL),
                 f"{ref}: radius increased")

    v3, g_second, condense_preds = condense_crosses(g_prime, prop.M, prop.N)
    v4, t_el, triangulate_preds = triangulate(g_second, prop.N)
    delta_r = eps / 8
    core = rordam_invert(t_el, delta_r)
    core_minsv = min_singular_over_points(core)
    if core_minsv <= 0.0:
        raise PipelineError("perturbed element is numerically singular")
    a_prime = (v3.adjoint() * core * v4.adjoint() * v3)
    a_prime = prop.left.adjoint() * a_prime * prop.right.adjoint()

    phi = compose_chain(chain, j, prop.stage_index)
    total = norm_dist(apply_diagonal_map(phi, a), a_prime)
    minsv = min_singular_over_points(a_prime)

    final_preds: list[Predicate] = []
    _require(final_preds, "total_distance_below_eps", total < eps, f"{total} >= {eps}")
    stage_sum = zc.distance + d_thresh + delta_r
    _require(final_preds, "stage_sum_below_eps", stage_sum < eps,
             f"stage distances sum to {stage_sum} >= {eps}")
    _require(final_preds, "budget_soundness", total <= stage_sum + BUDGET_SLACK,
             f"measured {total} exceeds stage sum {stage_sum}")
    _require(final_preds, "invertible_output", minsv > 0.0, "zero singular value")
    _require(final_preds, "unitary_sandwich_exactness",
             abs(minsv - core_minsv) <= SANDWICH_RTOL * max(1.0, core_minsv),
             f"min singular value drifted: {minsv} vs {core_minsv}")

    stages = [
        StageRecord("make_zero_cross", zc.distance, ("vL", "vR"), zc.predicates),
        StageRecord("propagate_crosses", 0.0, ("V1", "V2"), prop.predicates),
        StageRecord("open_block_points", d_thresh, (),
                    thresh_preds + [("threshold_delta_positive", delta_thresh > 0,
                                     str(delta_thresh))]),
        StageRecord("condense_crosses", 0.0, ("V3",), condense_preds),
        StageRecord("triangulate", 0.0, ("V4",), triangulate_preds),
        StageRecord("rordam_invert", delta_r, (), final_preds),
    ]
    cert = PipelineCertificate(
        input_id=input_id, epsilon=eps, stages=stages, output=a_prime,
        output_stage=prop.stage_index, total_distance=total,
        min_singular_value=minsv, runtime_ms=1000 * (time.perf_counter() - t0),
        threshold_delta=delta_thresh,
        threshold_wiped=not any(np.any(v) for v in g_prime.values.values()),
    )
    return a_prime, cert


def plan_chain(s: Substitution, chain: CylinderChain, max_depth: int, a: Element,
               eps: float, max_points_per_level: int, L_scan: int) -> CylinderChain:
    """Deepen ``chain`` along the Fibonacci-spaced prefix bases until
    ``approximate_by_invertible`` can run on ``a`` (an element at stage 1)
    in one attempt.

    The chain grows one base at a time until ``gathering_plan`` succeeds for
    the point that make_zero_cross rotates; ``chain`` needs at least two
    stages. Each base is built only when the chain grows to it. An
    invertible ``a`` needs no deepening. Once the chain reaches
    ``max_depth``, the last SimplicityError or ChainTooShortError is raised
    again.
    """
    _require_eps(eps)
    if find_singular_point(a, INVERTIBLE_TOL) is None:
        return chain
    # eps/4 is the budget approximate_by_invertible gives make_zero_cross
    U = {_zero_cross_point(a, eps / 4)}
    while True:
        try:
            gathering_plan(list(chain.maps), 1, U)
            return chain
        except (SimplicityError, ChainTooShortError):
            if chain.depth >= max_depth:
                raise
        base = fibonacci_prefix_bases(s, chain.depth + 1)[-1]
        chain = extend_cylinder_chain(s, chain, base, max_points_per_level, L_scan)


def plant_singular_element(model: FiniteDshModel, rng: np.random.Generator,
                           scale: float = 0.02) -> Element:
    """A random small-norm element with one exactly rank-deficient value.

    The deficiency is planted at the first point of the highest level by
    zeroing the smallest singular value; every other point stays generically
    invertible at this scale.
    """
    vals = {}
    refs = sorted(model.free_refs())
    target = max(refs, key=lambda r: (r.level, r.point))
    for ref in refs:
        n = model.dim(ref.level)
        m = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) \
            + scale * np.eye(n)
        if ref == target:
            u, s, vh = np.linalg.svd(m)
            s[-1] = 0.0
            m = u @ np.diag(s).astype(np.complex128) @ vh
        vals[ref] = m
    return Element(model, vals)
