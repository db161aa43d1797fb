"""Invertible approximation of a non-invertible element along a model chain.

The pipeline mirrors the constructive argument that simple diagonal limits
of these algebra models have dense invertibles: rotate a singular value onto
a zero cross, push the element deep enough along the chain that every point
sees the cross periodically, open the block points with a soft threshold,
condense the periodic crosses into an initial segment, right-multiply by
the triangulating unitary, and perturb the resulting nilpotent by a scalar.
Every stage verifies its structural predicates on the free values and logs
the distance it consumed from the epsilon budget. The output is certified
from its stages, with no SVD of its own: its margin is the smallest singular
value of the Rørdam core, which the output only rotates by unitaries, and
its total distance is a bound, the sum of the stage distances plus a
rounding term, once an entrywise O(n^2) identity has checked that the stages
account for the whole difference from the mapped input. A glued value is the
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
    shrink,
    soft_threshold,
)
from .dynamics import (
    CylinderChain,
    Substitution,
    extend_cylinder_chain,
    fibonacci_prefix_bases,
)
from .matrixkit import (
    DEFAULT_ATOL,
    IDENTITY_RTOL,
    INVERTIBLE_TOL,
    PATH_ATOL,
    THRESHOLD_RTOL,
    _component_blocks,
    _freeze,
    diagonal_radius,
    has_block_point,
    has_zero_cross,
    is_strictly_lower_triangular,
    is_unitary,
    min_singular_value,
    norm_below,
)
from .unitary_paths import condense_path, gather_multi, v_n


class PipelineError(RuntimeError):
    pass


class NotCloseToSingularError(PipelineError):
    pass


class SimplicityError(PipelineError):
    pass


class ChainTooShortError(PipelineError):
    pass


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


def _min_singular_values(e: Element) -> dict[PointRef, float]:
    """The smallest singular value of every free value, in point order: the
    one scan from which a caller reads both whether ``e`` is invertible and
    which point make_zero_cross rotates."""
    return {ref: min_singular_value(e.values[ref]) for ref in sorted(e.model.free_refs())}


@dataclass
class ZeroCrossStage:
    element: Element          # the perturbed element e'
    # vL and vR at the rotated point; both are the unit everywhere else
    left: np.ndarray
    right: np.ndarray
    delta: Element            # diagonal gate: (1,1) entry 1 on U
    rotated: Element          # vL e' vR
    points: frozenset[PointRef]
    distance: float
    predicates: list[Predicate] = field(default_factory=list)


def _require_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")


def _zero_cross_point(svs: dict[PointRef, float], eps: float) -> PointRef:
    """The point make_zero_cross rotates: the first point of the highest
    level whose smallest singular value (``svs``, from
    ``_min_singular_values``) is below eps."""
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


def make_zero_cross(e: Element, eps: float,
                    svs: dict[PointRef, float] | None = None) -> ZeroCrossStage:
    """Perturb within eps and rotate so row/column 1 vanishes at one point.

    The smallest singular value at the located point is replaced by zero
    (that is the whole distance), and the unitaries carry the corresponding
    singular bases so that vL e' vR has a zero cross in position 1 there.
    vL and vR are the unit away from that point, so the stage holds only
    their matrices there. ``svs`` is ``_min_singular_values(e)`` when the
    caller has it already.
    """
    _require_eps(eps)
    p_star = _zero_cross_point(_min_singular_values(e) if svs is None else svs, eps)
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
        vals[p_star] = _freeze(a_prime)
        e_prime = Element(e.model, vals)
        # swap row 1 with row n of U*, and column 1 with column n of V
        swap = np.arange(n)
        swap[[0, -1]] = swap[[-1, 0]]
        v_mat = u_svd.conj().T[swap]
        w_mat = vh.conj().T[:, swap]

    v_mat, w_mat = _freeze(v_mat), _freeze(w_mat)
    delta_vals = {}
    for ref in e.model.free_refs():
        d = np.zeros((e.model.dim(ref.level),) * 2, dtype=np.complex128)
        if ref == p_star:
            d[0, 0] = 1.0
        delta_vals[ref] = _freeze(d)
    delta = Element(e.model, delta_vals)

    rotated_vals = dict(e_prime.values)
    rotated_vals[p_star] = _freeze(v_mat @ e_prime.values[p_star] @ w_mat)
    rotated = Element(e.model, rotated_vals)
    _require(preds, "distance_within_eps", distance < eps, f"{distance} >= {eps}")
    _require(preds, "zero_cross_at_1", has_zero_cross(rotated.values[p_star], 1, PATH_ATOL),
             f"no zero cross at {p_star}")
    return ZeroCrossStage(
        element=e_prime, left=v_mat, right=w_mat, delta=delta, rotated=rotated,
        points=frozenset([p_star]), distance=distance, predicates=preds,
    )


def _permutation_index(u: np.ndarray, what: str) -> np.ndarray:
    """The index p of an exact 0/1 permutation matrix U, with U[i, p[i]] = 1,
    so that U A = A[p] and A U* = A[:, p]. Any other matrix is refused with
    a PipelineError that names ``what``."""
    nz = u != 0
    p = nz.argmax(axis=1)
    if not ((nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all()
            and (u[np.arange(len(p)), p] == 1).all()):
        raise PipelineError(f"{what} is not a 0/1 permutation matrix")
    return p


def _inverse(p: np.ndarray) -> np.ndarray:
    """The inverse permutation of an index: U* A = A[_inverse(p)]."""
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


@dataclass
class PropagationStage:
    stage_index: int          # j'
    witness_index: int        # the simplicity witness stage
    phi: DiagonalMap          # the composite map from stage 1 to stage j'
    # the gathering unitary's index at every free point of stage j'; with
    # the stage-1 vL and vR it gives V1 = gather phi(vL), V2 = phi(vR) gather*
    gather: dict[PointRef, np.ndarray]
    # the 0-based offsets of the copies of the rotated point's block in each
    # free value of stage j': where phi(vL) and phi(vR) differ from the unit
    offsets: dict[PointRef, np.ndarray]
    M: int
    N: int
    R: int
    predicates: list[Predicate] = field(default_factory=list)


def gathering_plan(chain: list[DiagonalMap],
                   U: Collection[PointRef]) -> tuple[int, int, int, int, int]:
    """(j_witness, j', M, N, R) for gathering the crosses at U from stage 1.

    j_witness is the first simplicity witness stage for U (every point there
    sees U through its eigenvalue list), M is twice its largest dimension, R
    the largest dimension at stage 1, N is R+M+3, and j' is the
    first later stage whose smallest dimension is at least NM+1. Raises
    SimplicityError without a witness and ChainTooShortError without j'.
    """
    models = chain_models(chain)
    holds, j_witness = check_simplicity_condition(chain, 1, U)
    if not holds:
        raise SimplicityError(f"chain exhausted at depth {len(models)}: no stage is "
                              f"a simplicity witness for U={sorted(U)}")
    M = 2 * models[j_witness - 1].largest_dim
    R = models[0].largest_dim
    N = R + M + 3
    required = N * M + 1
    for jp in range(j_witness + 1, len(models) + 1):
        if models[jp - 1].smallest_dim >= required:
            return j_witness, jp, M, N, R
    raise ChainTooShortError(
        f"chain exhausted at depth {len(models)}: need a stage with smallest "
        f"dimension >= {required} (N={N}, M={M})",
    )


def _gather_points(g: Element, gates: dict[PointRef, np.ndarray],
                   windows: dict[PointRef, list[int]], M: int, preds: list[Predicate],
                   ) -> tuple[dict, dict, dict]:
    """``gather_multi`` at every free point of ``g``: (gathering unitaries as
    permutation indices, image values, the radius bound r(g) + M - 1 of each
    image value)."""
    gather: dict[PointRef, np.ndarray] = {}
    image_vals: dict[PointRef, np.ndarray] = {}
    bounds: dict[PointRef, int] = {}
    for ref, val in g.values.items():
        bounds[ref] = diagonal_radius(val) + M - 1
        witness = None
        try:
            v = gather_multi(val, gates[ref], windows[ref], M)
        except (ValueError, IndexError) as exc:
            witness = f"{ref}: {exc}"
        _require(preds, "windowed_gathering", witness is None, witness)
        p = gather[ref] = _permutation_index(v, f"{ref}: gathering unitary")
        del v
        # V val V* = val[p][:, p]
        image_vals[ref] = _freeze(val[np.ix_(p, p)])
    return gather, image_vals, bounds


def propagate_crosses(chain: list[DiagonalMap], zc: ZeroCrossStage,
                      ) -> tuple[PropagationStage, Element]:
    """Push the zero cross at stage 1 down the chain until it recurs every M
    entries.

    ``gathering_plan`` picks the simplicity witness stage for U, M, N, R and
    the gathering stage j'. At every free point of stage j',
    ``gather_multi`` builds the unitary that gathers the mapped cross gate
    into the windows that the indicator marks (1s at k+aM over each block
    start k). Its preconditions are recorded as ``windowed_gathering``; its
    outcome, a cross at 1+aM and diagonal radius grown by at most M-1, as
    ``periodic_zero_crosses`` and ``radius_bound``. The mapped value is a
    direct sum of blocks of dimension at most R, so the radius bound implies
    radius at most R+M-1. Returns the stage (the gathering unitaries as
    permutation indices, the offsets of the rotated point's blocks, and the
    plan) and the image G = V1 phi(e') V2, where V1 = gather phi(vL) and
    V2 = phi(vR) gather*. No dense V1 or V2 is formed: the gathering
    unitaries are exact permutations at their path ends, so each is read
    into its index p, conjugating a value by it indexes the value by p on
    both sides, and it is let go before the next point. The mapped gate is
    1 exactly at the first row of every copy of the rotated point's block,
    copies inside a glued source point included, so its nonzero positions
    are the offsets where phi(vL) and phi(vR) differ from the unit; its
    diagonal is read through phi's eigenvalue lists, and no mapped gate is
    built. The stage peaks at about 2.2 output elements (see
    ``approximate_by_invertible``).
    """
    models = chain_models(chain)
    if zc.element.model != models[0]:
        raise ValueError("stage data does not sit at chain stage 1")
    j_witness, jp, M, N, R = gathering_plan(chain, zc.points)
    model_jp = models[jp - 1]
    phi = compose_chain(chain, 1, jp)
    # the mapped gate's diagonal, read through phi's eigenvalue lists
    gates = {ref: np.concatenate([np.diag(eval_element(zc.delta, src)).real
                                  for src in phi.lists[ref]])
             for ref in model_jp.free_refs()}
    offsets = {ref: np.flatnonzero(gate) for ref, gate in gates.items()}
    windows = {ref: [int(k) + 1 for k in np.flatnonzero(np.diag(v))]
               for ref, v in build_indicator(
                   model_jp, M, tuple(a * M for a in range(N))).values.items()}

    preds: list[Predicate] = []
    gather, image_vals, bounds = _gather_points(
        apply_diagonal_map(phi, zc.rotated), gates, windows, M, preds)
    image = Element(model_jp, image_vals)

    _require_crosses(preds, "periodic_zero_crosses", image, range(0, N * M, M), PATH_ATOL)
    for ref, bound in bounds.items():
        r = diagonal_radius(image.values[ref], PATH_ATOL)
        _require(preds, "radius_bound", r <= bound, f"{ref}: radius {r} > {bound}")
    stage = PropagationStage(
        stage_index=jp, witness_index=j_witness, phi=phi, gather=gather, offsets=offsets,
        M=M, N=N, R=R, predicates=preds,
    )
    return stage, image


def open_block_points(g: Element, eps: float) -> tuple[Element, float, float]:
    """Soft-threshold with the largest delta whose distance stays under eps.

    Returns (thresholded element, delta, measured distance). The bracket
    comes from the per-point bound distance <= delta * n_l, so delta at
    least eps/n_l is always available; the binary search pushes it up to
    where the distance would reach eps (or everything is zeroed). Unless
    the threshold zeroes everything, no delta >= eps passes: below the
    largest entry modulus, the entry of largest modulus leaves a difference
    entry of modulus delta, and at or above it the threshold zeroes
    everything. So hi drops to eps, and the search first tries
    eps*(1 - THRESHOLD_RTOL), which ends it at once when it passes. Each
    step asks ``norm_below`` whether every per-point difference stays under
    eps, so an SVD runs only where the norm bounds cannot decide. It asks
    about the components of the values' nonzeros, split once: the threshold
    keeps every zero, so a difference's norm is its blocks' largest. The
    search stops once the bracket is narrower than THRESHOLD_RTOL relative
    to hi (lo is certified at every step, so the distance stays under eps
    and delta is within a relative 2*THRESHOLD_RTOL of the fully resolved
    search), or once the midpoint no longer splits it.
    """
    _require_eps(eps)
    n_l = g.model.largest_dim
    blocks = []
    for v in g.values.values():
        parts = _component_blocks(v)
        blocks.extend([v[None]] if parts is None else parts[0])

    def below_eps(delta: float) -> bool:
        return norm_below((b - shrink(b, delta) for b in blocks), eps)

    lo = eps / n_l
    while not below_eps(lo):
        lo /= 2.0
    max_mod = max((float(np.abs(b).max()) for b in blocks), default=0.0)
    hi = max_mod + eps / n_l
    if below_eps(hi):
        lo = hi
    else:
        hi = min(hi, eps)
        probe = eps * (1.0 - THRESHOLD_RTOL)
        if lo < probe < hi:
            if below_eps(probe):
                lo = probe
            else:
                hi = probe
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
                     ) -> tuple[dict[PointRef, np.ndarray], Element, list[Predicate]]:
    """Walk the crosses at k, k+M, ..., k+(N-1)M into k, k+1, ..., k+N-1.

    Requires the crosses and a block point at every block start, so the
    condensation path acts inside one diagonal block per start; the diagonal
    radius grows by at most 2 at every point. The condensed crosses are left
    to ``triangulate``, which checks them at the stricter DEFAULT_ATOL.
    The condensation path ends in an exact permutation, so V3 is held as
    its index p per free point and V3 G' V3* is G'[p][:, p]. Returns (V3's
    indices, V3 G' V3*, verified predicates).
    """
    model = g_prime.model
    nm = N * M
    if model.smallest_dim <= nm:
        raise ValueError(f"need n_1 > NM = {nm}, got n_1 = {model.smallest_dim}")
    # the indicator is verified 0/1 with its final nm entries zero, so
    # every window fits
    windows = {ref: np.flatnonzero(np.diag(v))
               for ref, v in build_indicator(model, nm, (0,)).values.items()}
    block = _permutation_index(condense_path(nm, tuple(1 + a * M for a in range(N)))(1.0),
                               "condensation block")

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

    v3: dict[PointRef, np.ndarray] = {}
    for ref in model.free_refs():
        p = np.arange(model.dim(ref.level))
        for k in windows[ref]:
            p[k:k + nm] = k + block
        v3[ref] = p
    out = Element(model, {ref: _freeze(v[np.ix_(v3[ref], v3[ref])])
                          for ref, v in g_prime.values.items()})

    for ref, before in g_prime.values.items():
        _require(preds, "radius_growth_at_most_2",
                 diagonal_radius(out.values[ref], PATH_ATOL)
                 <= diagonal_radius(before, PATH_ATOL) + 2,
                 f"{ref}: radius grew by more than 2")
    return v3, out, preds


def triangulate(g_second: Element, N: int,
                ) -> tuple[dict[PointRef, np.ndarray], Element, list[Predicate]]:
    """Right-multiply by the per-point triangulating unitary.

    Requires consecutive crosses k..k+N-1 at every block start and diagonal
    radius < N everywhere; the product is strictly lower triangular at every
    point. The indicator's theta is 0/1, so V4 = v_n(theta, N) is an exact
    permutation, held as its index p per free point; G'' V4 takes the
    columns of G'' in the inverse order. Returns (V4's indices, G'' V4,
    verified predicates).
    """
    model = g_second.model
    if model.smallest_dim <= N:
        raise ValueError(f"need n_1 > N = {N}, got n_1 = {model.smallest_dim}")
    thetas = {ref: np.diag(v).real.copy()
              for ref, v in build_indicator(model, N, (0,)).values.items()}

    preds: list[Predicate] = []
    _require_crosses(preds, "input_consecutive_crosses", g_second, range(N), DEFAULT_ATOL)
    for ref, val in g_second.values.items():
        r = diagonal_radius(val, DEFAULT_ATOL)
        _require(preds, "input_radius_below_N", r < N, f"{ref}: radius {r} >= N={N}")

    v4 = {ref: _permutation_index(v_n(theta, N), f"{ref}: triangulating unitary")
          for ref, theta in thetas.items()}
    out = Element(model, {ref: _freeze(v.take(_inverse(v4[ref]), axis=1))
                          for ref, v in g_second.values.items()})
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
    Each value is copied once and shifted on its diagonal.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")

    def shifted(v: np.ndarray) -> np.ndarray:
        out = v.copy()
        out[np.diag_indices_from(out)] += delta
        return out

    return t.map_values(shifted)


def _rotate_blocks(x: np.ndarray, offsets: np.ndarray, vl: np.ndarray, vr: np.ndarray) -> None:
    """x <- phi(vL*) x phi(vR*), in place. Both are the unit but for the
    k x k blocks vl and vr at each offset, so the product rotates those k
    rows of x, then those k columns: O(n k) per offset."""
    k = len(vl)
    for o in offsets:
        x[o:o + k] = vl @ x[o:o + k]
    for o in offsets:
        x[:, o:o + k] = x[:, o:o + k] @ vr


def _threshold_change(before: np.ndarray, after: np.ndarray, gather: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """after - before at the nonzeros of ``before``, as (row, column, value)
    triplets, with rows and columns taken back through the gathering index
    ``gather`` to phi's frame."""
    rows, cols = np.nonzero(before)
    return gather[rows], gather[cols], after[rows, cols] - before[rows, cols]


def _identity_residual(out: np.ndarray, frame: tuple[np.ndarray, np.ndarray],
                       change: tuple[np.ndarray, np.ndarray, np.ndarray],
                       offsets: np.ndarray, vl: np.ndarray, vr: np.ndarray, delta_r: float,
                       sources: tuple[PointRef, ...], blocks: dict[PointRef, np.ndarray],
                       ) -> float:
    """The largest entry modulus of R = a' - phi(e') - phi(vL*) (g' - G +
    delta_r P) phi(vR*) at one output point, in O(n^2) and with no SVD.

    ``out`` is a' there, ``frame`` the indices (s, t) with X = core[s][:, t],
    ``change`` g' - G as (row, column, value) triplets in phi's frame, and
    ``sources`` the point's eigenvalue list, whose stage-1 values ``blocks``
    assemble phi(e'). P is where the core's diagonal lands in X: column j's
    one entry sits in the row that s sends to t[j]. phi(e') is assembled
    block by block into the one n x n work array, so no whole mapped
    element is formed.
    """
    n = len(out)
    s, t = frame
    r = np.zeros((n, n), dtype=np.complex128)
    rows, cols, diff = change
    r[rows, cols] = diff
    r[_inverse(s)[t], np.arange(n)] += delta_r
    _rotate_blocks(r, offsets, vl, vr)
    o = 0
    for src in sources:
        b = blocks[src]
        r[o:o + len(b), o:o + len(b)] += b
        o += len(b)
    np.subtract(out, r, out=r)
    return float(np.abs(r).max())


def approximate_by_invertible(chain: list[DiagonalMap], a: Element, eps: float,
                              input_id: str = "input",
                              ) -> tuple[Element, PipelineCertificate]:
    """Produce an invertible element within eps of the image of ``a``, an
    element at chain stage 1.

    Budget: eps/4 for the singular-value cut, eps/4 for the soft threshold,
    eps/8 for the scalar perturbation (half the final quarter). The
    certificate logs the ids of each stage's unitaries, its verified
    predicates and consumed distance, plus the certified total distance and
    minimum singular value, the threshold's delta, and whether the
    threshold zeroed every free value.

    No pipeline unitary is held as a dense element: the gathering
    unitaries, V3 and V4 are exact permutations, held as one index array
    per free point, and V1 and V2 are the gathering index with vL and vR,
    held as their k x k matrices at the rotated point (k its dimension).
    a' is one index X of the core, then a k-row and a k-column update at
    each offset where phi(vL*) and phi(vR*) differ from the unit, O(n k)
    per block.

    a' is certified from its stages, with no SVD of the output. Its
    smallest singular value is the core's, computed by components, since
    a' = phi(vL*) X phi(vR*) with X an index of the core; what that rests
    on, vL and vR unitary, is ``unitary_sandwich_exactness``. Its distance
    rests on the identity

        a' - phi(a) = phi(vL*) (g' - G) phi(vR*) + phi(e' - a) + delta_R W,

    where W = phi(vL*) P phi(vR*) and P is the permutation that delta_R I
    becomes in X's frame: X is g' plus delta_R P in phi's frame, and
    phi(vL*) G phi(vR*) = phi(e') because G gathers phi(vL e' vR). The
    terms' norms are the threshold's distance, the cut and delta_R
    (diagonal maps are isometric, W is unitary), so the reported
    ``total_distance`` is their sum plus the rounding term below, a
    certified bound on ||a' - phi(a)|| rather than a measurement of it.
    ``budget_soundness`` checks the identity entrywise at every free point
    (``_identity_residual``), against tau = IDENTITY_RTOL (k + 1)^3 s, with
    s = max|e'| + max|G| + delta_R bounding every operand entry (g' and
    g' - G lie within G entrywise). A row then column rotation by unitary
    k x k blocks, whose rows have 1-norm at most sqrt(k), computes a matrix
    of entries at most m to within 2 k gamma_k m (Higham, ch. 3;
    gamma_k ~ k u, u = 2^-53) and keeps its entries below k m. The residual
    gathers that for a' and its subtrahend (4 k^2 u s), the rotation
    vL e' vR of ``make_zero_cross`` carried back by the two blocks
    (2 k^3 u s), vL's departure from unitarity (order k^2 u s), the core's
    diagonal shift and the differences g' - G (k u s) and the two final
    sums (2 (k + 1) u s): below tau. The exact residual is within the same
    tau of the computed one, so a passing check bounds it entrywise by
    2 tau, and its norm by 2 n tau with n the largest output dimension:
    that is the rounding term. Every check is O(n^2) per point, and builds
    phi(e') one point at a time.

    At the output stage a run holds one working element and the operands
    of the step forming it: about 2.5-2.6 elements of the output's size at
    its peak, where the thresholded element is measured against G; the
    gathering reaches about 2.2.
    """
    t0 = time.perf_counter()
    _require_eps(eps)
    if a.model != chain_models(chain)[0]:
        raise ValueError("element does not live at chain stage 1")

    svs = _min_singular_values(a)
    if min(svs.values()) > INVERTIBLE_TOL:
        cert = PipelineCertificate(
            input_id=input_id, epsilon=eps,
            stages=[StageRecord("already_invertible", 0.0, (),
                                [("invertible", True, None)])],
            output_stage=1, total_distance=0.0,
            min_singular_value=min(svs.values()),
            runtime_ms=1000 * (time.perf_counter() - t0),
        )
        return a, cert

    zc = make_zero_cross(a, eps / 4, svs)
    prop, image = propagate_crosses(chain, zc)
    # g is the working element: g', then g'', T, the core and a'. Each
    # rebinding releases the stage input it replaces.
    image_radii = {ref: diagonal_radius(v, PATH_ATOL) for ref, v in image.values.items()}
    g, delta_thresh, d_thresh = open_block_points(image, eps / 4)
    # g' - G in phi's frame, at the nonzeros of G (the threshold keeps every
    # zero), as (row, column, value) triplets; G itself is let go
    change = {ref: _threshold_change(v, g.values[ref], prop.gather[ref])
              for ref, v in image.values.items()}
    del image
    # condense_crosses checks the crosses and block points that g' hands on
    thresh_preds: list[Predicate] = []
    for ref, radius in image_radii.items():
        _require(thresh_preds, "radius_not_increased",
                 diagonal_radius(g.values[ref]) <= radius, f"{ref}: radius increased")
    wiped = not any(np.any(v) for v in g.values.values())

    v3, g, condense_preds = condense_crosses(g, prop.M, prop.N)
    v4, g, triangulate_preds = triangulate(g, prop.N)
    delta_r = eps / 8
    g = rordam_invert(g, delta_r)
    core_minsv = min_singular_over_points(g)
    if core_minsv <= 0.0:
        raise PipelineError("perturbed element is numerically singular")
    # a' = V1* V3* core V4* V3 V2* = phi(vL*) X phi(vR*), where
    # X = gather* V3* core V4* V3 gather = core[s][:, t] is one index of the
    # core: s is (gather V3)'s inverse index, t V4's index at s
    frames = {}
    for ref in g.model.free_refs():
        s = _inverse(prop.gather[ref][v3[ref]])
        frames[ref] = (s, v4[ref][s])
    vl, vr = zc.left.conj().T, zc.right.conj().T

    # a function, so that no loop variable keeps a core value alive after
    def sandwiched(ref: PointRef, core: np.ndarray) -> np.ndarray:
        x = core[np.ix_(*frames[ref])]
        _rotate_blocks(x, prop.offsets[ref], vl, vr)
        return _freeze(x)

    g = Element(g.model, {ref: sandwiched(ref, v) for ref, v in g.values.items()})

    blocks = {ref: eval_element(zc.element, ref) for ref in zc.element.model.all_refs()}
    scale = (max(float(np.abs(v).max()) for v in zc.element.values.values())
             + max(float(np.abs(v).max()) for v in zc.rotated.values.values()) + delta_r)
    tol = IDENTITY_RTOL * (len(vl) + 1) ** 3 * scale
    residual = max(
        _identity_residual(v, frames[ref], change[ref], prop.offsets[ref], vl, vr, delta_r,
                           prop.phi.lists[ref], blocks)
        for ref, v in g.values.items())

    final_preds: list[Predicate] = []
    _require(final_preds, "unitary_sandwich_exactness",
             is_unitary(zc.left) and is_unitary(zc.right), "vL or vR is not unitary")
    _require(final_preds, "budget_soundness", residual <= tol,
             f"output identity residual {residual} > {tol}")
    stage_sum = zc.distance + d_thresh + delta_r
    _require(final_preds, "stage_sum_below_eps", stage_sum < eps,
             f"stage distances sum to {stage_sum} >= {eps}")
    total = stage_sum + 2 * g.model.largest_dim * tol
    _require(final_preds, "total_distance_below_eps", total < eps, f"{total} >= {eps}")
    _require(final_preds, "invertible_output", core_minsv > 0.0, "zero singular value")

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
        input_id=input_id, epsilon=eps, stages=stages,
        output_stage=prop.stage_index, total_distance=total,
        min_singular_value=core_minsv, runtime_ms=1000 * (time.perf_counter() - t0),
        threshold_delta=delta_thresh,
        threshold_wiped=wiped,
    )
    return g, cert


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
    svs = _min_singular_values(a)
    if min(svs.values()) > INVERTIBLE_TOL:
        return chain
    # eps/4 is the budget approximate_by_invertible gives make_zero_cross
    U = {_zero_cross_point(svs, eps / 4)}
    while True:
        try:
            gathering_plan(list(chain.maps), U)
            return chain
        except (SimplicityError, ChainTooShortError):
            if chain.depth >= max_depth:
                raise
        base = fibonacci_prefix_bases(s, chain.depth + 1)[-1]
        chain = extend_cylinder_chain(s, chain, base, max_points_per_level, L_scan)


def plant_singular_element(model: FiniteDshModel, rng: np.random.Generator,
                           scale: float = 0.02) -> Element:
    """A random small-norm element with one exactly rank-deficient value.

    The deficiency is planted at the free point of the highest level whose
    id sorts last, by zeroing the smallest singular value; every other point
    stays generically invertible at this scale.
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
        vals[ref] = _freeze(m)
    return Element(model, vals)
