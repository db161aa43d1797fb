import dataclasses
import tracemalloc

import numpy as np
import pytest

from dsh_lab import dsh_model as dm
from dsh_lab import dynamics as dyn
from dsh_lab import matrixkit as mk
from dsh_lab import srone_pipeline as sp
from dsh_lab import unitary_paths as up
from dsh_lab.dsh_model import FiniteDshModel, Level, ModelPoint, PointRef
from conftest import (assert_permutation_index, condensation_matrix, triangulating_matrix,
                      unit_element, zero_element)


@pytest.fixture(scope="module")
def fib_chain():
    fib = dyn.Substitution.fibonacci()
    bases = dyn.fibonacci_prefix_bases(fib, 6)
    return dyn.build_cylinder_chain(fib, bases, base_horizon=1, max_points_per_level=16)


def plant(model, rng, scale=0.02):
    return sp.plant_singular_element(model, rng, scale)


@pytest.fixture(scope="module")
def planned_chain(fib_chain):
    """(fib_chain deepened by plan_chain for a plant at stage 1, the plant)."""
    planted = plant(fib_chain.model(1), np.random.default_rng(12345))
    chain = sp.plan_chain(dyn.Substitution.fibonacci(), fib_chain, 14, planted, 0.25, 16,
                          dyn.DEFAULT_SCAN_LENGTH)
    return chain, planted


def test_make_zero_cross_prefers_highest_level(two_level_model, rng):
    unit = unit_element(two_level_model)

    def zeroed(*refs):
        vals = dict(unit.values)
        for r in refs:
            vals[r] = np.zeros((two_level_model.dim(r.level),) * 2)
        return dm.Element(two_level_model, vals)

    a, b, c = PointRef(1, "a"), PointRef(1, "b"), PointRef(2, "c")
    assert sp.make_zero_cross(zeroed(b), 0.5).points == {b}
    # the highest level wins, then the first point in order
    assert sp.make_zero_cross(zeroed(b, c), 0.5).points == {c}
    assert sp.make_zero_cross(zeroed(a, b), 0.5).points == {a}
    # the plant sits at the highest level's free point whose id sorts last
    assert sp.make_zero_cross(plant(two_level_model, rng), 0.5).points == {c}


def test_plant_goes_to_the_top_level_id_that_sorts_last(rng):
    # not the first free point of the top level: c comes first, d sorts last
    model = FiniteDshModel((
        Level(3, (ModelPoint("a"), ModelPoint("b"))),
        Level(6, (ModelPoint("g", (PointRef(1, "a"), PointRef(1, "b"))),
                  ModelPoint("c"), ModelPoint("d"))),
    ))
    planted = plant(model, rng)
    singular = {ref for ref, val in planted.values.items()
                if mk.min_singular_value(val) <= 1e-14}
    assert singular == {PointRef(2, "d")}


def test_make_zero_cross_singular_1x1_point():
    model = FiniteDshModel((Level(1, (ModelPoint("a"), ModelPoint("b"))),))
    tiny = np.array([[3e-10 * np.exp(0.7j)]])
    e = dm.Element(model, {PointRef(1, "a"): np.eye(1), PointRef(1, "b"): tiny})
    zc = sp.make_zero_cross(e, 0.5)
    assert zc.points == {PointRef(1, "b")}
    assert zc.distance == pytest.approx(3e-10, rel=1e-12)
    assert np.all(zc.element.values[PointRef(1, "b")] == 0)
    for v in (zc.left, zc.right):
        assert v.shape == (1, 1) and mk.is_unitary(v)


def test_make_zero_cross_exact_zero_value(two_level_model, rng):
    vals = dict(dm.random_element(two_level_model, rng).values)
    vals[PointRef(2, "c")] = np.zeros((6, 6))
    e = dm.Element(two_level_model, vals)
    zc = sp.make_zero_cross(e, 0.5)
    assert zc.distance == 0.0
    assert zc.points == frozenset([PointRef(2, "c")])
    assert dm.norm_dist(zc.element, e) == 0.0
    assert np.array_equal(zc.left, np.eye(6)) and np.array_equal(zc.right, np.eye(6))
    assert dm.norm_dist(zc.rotated, e) == 0.0
    assert np.real(dm.eval_element(zc.delta, PointRef(2, "c"))[0, 0]) == 1.0


def test_make_zero_cross_planted_svd(two_level_model, rng):
    e = plant(two_level_model, rng, scale=0.5)
    target = PointRef(2, "c")
    sv_min = mk.min_singular_value(e.values[target])
    zc = sp.make_zero_cross(e, 0.25)
    assert zc.distance == pytest.approx(sv_min, abs=1e-12)
    assert dm.norm_dist(e, zc.element) == pytest.approx(sv_min, abs=1e-10)
    # vL and vR are unitary 6 x 6 matrices at the target, the unit elsewhere
    for v in (zc.left, zc.right):
        assert v.shape == (6, 6) and mk.is_unitary(v)
        assert not v.flags.writeable
    rotated = zc.rotated.values[target]
    assert np.array_equal(rotated, zc.left @ zc.element.values[target] @ zc.right)
    assert mk.has_zero_cross(rotated, 1, 1e-9)
    for ref in two_level_model.free_refs():
        if ref != target:
            assert zc.rotated.values[ref] is zc.element.values[ref]
    # the gate marks only rotated zero-cross positions
    d = np.real(np.diag(dm.eval_element(zc.delta, target)))
    assert d[0] == 1.0 and np.count_nonzero(d) == 1


def test_make_zero_cross_budget_errors(two_level_model, rng):
    with pytest.raises(sp.NotCloseToSingularError, match="invertible"):
        sp.make_zero_cross(unit_element(two_level_model), 0.5)
    vals = dict(unit_element(two_level_model).values)
    a = np.eye(6, dtype=complex)
    a[5, 5] = 1e-12  # singular for the locator, but sigma_min >= eps below
    vals[PointRef(2, "c")] = a
    e = dm.Element(two_level_model, vals)
    with pytest.raises(sp.NotCloseToSingularError, match="not eps-close"):
        sp.make_zero_cross(e, 1e-13)


def test_propagate_requires_simplicity(two_level_model, rng):
    d = dm.identity_shaped_map(two_level_model, two_level_model,
                               {r: r for r in two_level_model.free_refs()})
    vals = dict(dm.random_element(two_level_model, rng).values)
    vals[PointRef(1, "a")] = np.zeros((3, 3))
    e = dm.Element(two_level_model, vals)
    zc = sp.make_zero_cross(e, 0.5)
    with pytest.raises(sp.SimplicityError):
        sp.propagate_crosses([d, d], zc)


def test_propagate_at_planned_depth(planned_chain):
    chain, planted = planned_chain
    zc = sp.make_zero_cross(planted, 0.0625)
    prop, image = sp.propagate_crosses(list(chain.maps), zc)
    assert prop.M == 6 and prop.N == prop.R + prop.M + 3
    assert prop.witness_index == 2
    model = chain.model(prop.stage_index)
    assert model.smallest_dim >= prop.N * prop.M + 1
    starts = dm.block_starts(model)
    for ref in model.all_refs():
        val = dm.eval_element(image, ref)
        for k in starts[ref]:
            assert mk.has_zero_cross(val, k, 1e-9)
        assert mk.diagonal_radius(val, 1e-9) <= prop.R + prop.M - 1
    # the sandwich equals the mapped, rotated element
    phi = dm.compose_chain(list(chain.maps), 1, prop.stage_index)
    mapped = dm.apply_diagonal_map(phi, zc.rotated)
    assert sorted(np.linalg.svd(v, compute_uv=False)[0]
                  for v in image.values.values()) == pytest.approx(
        sorted(np.linalg.svd(v, compute_uv=False)[0] for v in mapped.values.values()),
        abs=1e-10)


def test_propagate_gate_without_zero_cross_names_point(planned_chain):
    chain, planted = planned_chain
    zc = sp.make_zero_cross(planted, 0.0625)
    unrotated = dataclasses.replace(zc, rotated=zc.element)  # gate set, no cross
    with pytest.raises(sp.PipelineError,
                       match=r"windowed_gathering.*PointRef\(level=\d+, point='\w+'\): "
                             r"delta_\d+ > 0 but the matrix has no zero cross"):
        sp.propagate_crosses(list(chain.maps), unrotated)


def test_propagate_reports_required_depth(fib_chain, rng):
    planted = plant(fib_chain.model(1), rng)
    zc = sp.make_zero_cross(planted, 0.0625)
    with pytest.raises(sp.ChainTooShortError, match="smallest dimension >= 67 "):
        sp.propagate_crosses(list(fib_chain.maps), zc)  # N = R+M+3 = 11


def test_plan_chain_deepens_until_witness_and_n1():
    # period doubling at horizon 2 has no simplicity witness at depth 3
    pd = dyn.Substitution.from_json(
        {"alphabet": ["0", "1"], "rules": {"0": "01", "1": "00"}, "seed": "0"})
    bases = dyn.fibonacci_prefix_bases(pd, 3)
    chain = dyn.build_cylinder_chain(pd, bases, base_horizon=2, max_points_per_level=16)
    planted = plant(chain.model(1), np.random.default_rng(12))
    U = sp.make_zero_cross(planted, 0.25 / 4).points
    assert dm.check_simplicity_condition(list(chain.maps), 1, U) == (False, None)

    planned = sp.plan_chain(pd, chain, 14, planted, 0.25, 16, dyn.DEFAULT_SCAN_LENGTH)
    holds, j_witness = dm.check_simplicity_condition(list(planned.maps), 1, U)
    assert holds
    j_plan, jp, M, N, _ = sp.gathering_plan(list(planned.maps), U)
    assert (j_plan, jp) == (j_witness, planned.depth)
    models = [t.model for t in planned.towers]
    assert models[-1].smallest_dim >= N * M + 1
    assert models[-2].smallest_dim < N * M + 1


def test_open_block_points_bracket(two_level_model, rng):
    g = dm.random_element(two_level_model, rng)
    eps = 0.1
    out, delta, dist = sp.open_block_points(g, eps)
    assert delta >= eps / two_level_model.largest_dim - 1e-15
    assert dist < eps
    for ref in two_level_model.free_refs():
        v = out.values[ref]
        mags = np.abs(g.values[ref])
        assert np.all(np.abs(v[mags <= delta]) == 0.0)
        # entries with margin above delta survive, only shrunk
        assert np.all(np.abs(v[mags > delta]) > 0.0)


def svd_bisection(g, eps, rtol=0.0, bracket=True):
    """The threshold search measuring every step with norm_dist (one SVD per
    point): 60 bisection steps from the same bracket, stopping early once
    the bracket is no wider than rtol relative to hi. With ``bracket``, a
    search that does not zero everything starts below eps and tries
    eps*(1 - rtol) first, as open_block_points does; without it, the search
    starts from the wipe bound alone."""
    n_l = g.model.largest_dim

    def dist_at(delta):
        return dm.norm_dist(g, dm.soft_threshold(g, delta))

    lo = eps / n_l
    while dist_at(lo) >= eps:
        lo /= 2.0
    hi = max(float(np.max(np.abs(v))) for v in g.values.values()) + eps / n_l
    if dist_at(hi) < eps:
        lo = hi
    else:
        if bracket:
            hi = min(hi, eps)
            probe = eps * (1 - rtol)
            if lo < probe < hi:
                if dist_at(probe) < eps:
                    lo = probe
                else:
                    hi = probe
        for _ in range(60):
            if hi - lo <= rtol * hi:
                break
            mid = (lo + hi) / 2
            if dist_at(mid) < eps:
                lo = mid
            else:
                hi = mid
    return dm.soft_threshold(g, lo), lo, dist_at(lo)


def monomial_element(model, rng):
    """Each value a permutation matrix times phases of modulus 1 to 2: the
    distance of soft_threshold(., delta) to it is exactly delta below 1."""
    vals = {}
    for ref in model.free_refs():
        n = model.dim(ref.level)
        v = np.zeros((n, n), dtype=np.complex128)
        v[rng.permutation(n), np.arange(n)] = (
            rng.uniform(1.0, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n)))
        vals[ref] = v
    return dm.Element(model, vals)


@pytest.mark.parametrize("make, eps", [
    (dm.random_element, 0.1),
    (dm.random_element, 1.0),
    (lambda m, rng: dm.random_element(m, rng, scale=0.01), 0.1),
    (monomial_element, 0.0625),
    (monomial_element, 0.3),
])
def test_open_block_points_matches_svd_bisection(two_level_model, rng, make, eps):
    g = make(two_level_model, rng)
    out, delta, dist = sp.open_block_points(g, eps)
    # norm_below decides every step as an SVD would, under the same stop
    ref_out, ref_delta, ref_dist = svd_bisection(g, eps, mk.THRESHOLD_RTOL)
    assert (delta, dist) == (ref_delta, ref_dist)
    for ref in two_level_model.free_refs():
        assert np.array_equal(out.values[ref], ref_out.values[ref])
    # precision contract against the fully resolved search from the wipe bound
    _, ref60_delta, _ = svd_bisection(g, eps, bracket=False)
    assert ref60_delta * (1 - 2 * mk.THRESHOLD_RTOL) <= delta <= ref60_delta
    assert dist < eps


def test_open_block_points_converges_onto_eps(two_level_model, rng):
    g = monomial_element(two_level_model, rng)
    _, delta, dist = sp.open_block_points(g, 0.0625)
    assert dist < 0.0625 and 0.0625 - delta <= 2 * mk.THRESHOLD_RTOL * 0.0625


def test_threshold_search_resolves_delta_to_a_relative_1e_9():
    # the precision contract above is stated relative to this constant
    assert mk.THRESHOLD_RTOL == pytest.approx(1e-9, rel=1e-12)


def test_open_block_points_wiped_input_equals_full_search(two_level_model, rng):
    # every entry lies below hi, so the threshold zeroes the element before
    # any bisection step runs
    g = dm.random_element(two_level_model, rng, scale=1e-3)
    out, delta, dist = sp.open_block_points(g, 1.0)
    _, ref_delta, ref_dist = svd_bisection(g, 1.0)
    assert (delta, dist) == (ref_delta, ref_dist)
    assert not any(np.any(v) for v in out.values.values())


def test_open_block_points_stop_saves_svds(two_level_model, rng, monkeypatch):
    g = monomial_element(two_level_model, rng)
    calls = []
    op_norm = mk.op_norm
    monkeypatch.setattr(mk, "op_norm", lambda a: calls.append(1) or op_norm(a))
    sp.open_block_points(g, 0.0625)
    stopped = len(calls)
    calls.clear()
    monkeypatch.setattr(sp, "THRESHOLD_RTOL", 0.0)  # the search without the stop
    sp.open_block_points(g, 0.0625)
    assert stopped < len(calls)


def test_open_block_points_probe_ends_the_search_without_svd(two_level_model, rng,
                                                            monkeypatch):
    # every difference is delta times a permutation, so the norm bounds
    # decide the first probe, which passes and leaves a bracket of width
    # THRESHOLD_RTOL * eps
    g = monomial_element(two_level_model, rng)
    calls = []
    op_norm = mk.op_norm
    monkeypatch.setattr(mk, "op_norm", lambda a: calls.append(1) or op_norm(a))
    _, delta, dist = sp.open_block_points(g, 0.0625)
    assert calls == []
    assert delta == 0.0625 * (1 - mk.THRESHOLD_RTOL) and dist < 0.0625


def synthetic_condensation_fixture(rng, scale=0.01):
    """Two-level model (dims 22, 44, glued (a, b)) with nonzero banded values
    carrying crosses at 1, 4, ..., 19 inside each dimension-22 block."""
    M, N = 3, 7
    model = FiniteDshModel((
        Level(22, (ModelPoint("a"), ModelPoint("b"))),
        Level(44, (ModelPoint("g", (PointRef(1, "a"), PointRef(1, "b"))),
                   ModelPoint("c"))),
    ))
    crosses = [1 + a * M for a in range(N)]

    def value(n):
        v = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        v[np.abs(np.subtract.outer(range(n), range(n))) > 2] = 0
        for base in range(0, n, 22):
            for z in crosses:
                v[base + z - 1, :] = 0
                v[:, base + z - 1] = 0
        return v

    vals = {r: value(model.dim(r.level)) for r in model.free_refs()}
    return model, dm.Element(model, vals), M, N


def test_condense_and_triangulate_synthetic(rng):
    model, g_prime, M, N = synthetic_condensation_fixture(rng)
    starts = dm.block_starts(model)
    v3, g_second, _ = sp.condense_crosses(g_prime, M, N)
    for ref in model.free_refs():
        u = assert_permutation_index(v3[ref], condensation_matrix(model.dim(ref.level), M, N))
        assert np.array_equal(g_second.values[ref], u @ g_prime.values[ref] @ u.conj().T)
    for ref in model.all_refs():
        before = dm.eval_element(g_prime, ref)
        after = dm.eval_element(g_second, ref)
        for k in starts[ref]:
            for z in range(k, k + N):
                assert mk.has_zero_cross(after, z, 1e-9)
        assert mk.diagonal_radius(after, 1e-9) <= mk.diagonal_radius(before) + 2
    assert dm.norm_dist(g_second, zero_element(model)) > 0

    v4, t_el, _ = sp.triangulate(g_second, N)
    for ref in model.free_refs():
        u = assert_permutation_index(v4[ref], triangulating_matrix(model.dim(ref.level), N))
        assert np.array_equal(t_el.values[ref], g_second.values[ref] @ u)
    n_l = model.largest_dim
    for ref in model.all_refs():
        t_val = dm.eval_element(t_el, ref)
        assert mk.is_strictly_lower_triangular(t_val, 1e-9)
        power = np.linalg.matrix_power(t_val, t_val.shape[0])
        assert np.max(np.abs(power)) <= n_l * 1e-12

    out = sp.rordam_invert(t_el, 0.05)
    assert dm.norm_dist(out, t_el) == pytest.approx(0.05, abs=1e-12)
    assert dm.min_singular_over_points(out) > 0


def test_condense_precondition_witness(rng):
    model, g_prime, M, N = synthetic_condensation_fixture(rng)
    vals = dict(g_prime.values)
    broken = np.array(vals[PointRef(1, "a")])
    broken[3, 3] = 1.0  # destroys the cross at position 4
    vals[PointRef(1, "a")] = broken
    with pytest.raises(sp.PipelineError, match="input_periodic_crosses"):
        sp.condense_crosses(dm.Element(model, vals), M, N)


def test_triangulate_radius_witness(rng):
    model, g_prime, M, N = synthetic_condensation_fixture(rng)
    _, g_second, _ = sp.condense_crosses(g_prime, M, N)
    vals = dict(g_second.values)
    wide = np.array(vals[PointRef(1, "a")])
    wide[21, 8] = 1.0  # far off-band entry away from the condensed crosses
    vals[PointRef(1, "a")] = wide
    with pytest.raises(sp.PipelineError, match="radius"):
        sp.triangulate(dm.Element(model, vals), N)


def _with_entry(e, ref, i, j, x):
    vals = dict(e.values)
    v = np.array(vals[ref])
    v[i, j] = x
    vals[ref] = v
    return dm.Element(e.model, vals)


def test_threshold_handoff_checked_at_default_atol(rng):
    # g' hands its crosses to condense_crosses, which checks them at DEFAULT_ATOL
    model, g_prime, M, N = synthetic_condensation_fixture(rng)
    ref = PointRef(1, "a")
    sp.condense_crosses(_with_entry(g_prime, ref, 3, 4, 0.5 * mk.DEFAULT_ATOL), M, N)
    with pytest.raises(sp.PipelineError, match="input_periodic_crosses.*cross at 4"):
        sp.condense_crosses(_with_entry(g_prime, ref, 3, 4, 10 * mk.DEFAULT_ATOL), M, N)


def test_condense_handoff_checked_at_default_atol(rng):
    # a 1e-10 entry passes a PATH_ATOL cross check but not triangulate's
    model, g_prime, M, N = synthetic_condensation_fixture(rng)
    _, g_second, _ = sp.condense_crosses(g_prime, M, N)
    ref = PointRef(1, "a")
    broken = _with_entry(g_second, ref, 2, 3, 1e-10)
    assert mk.has_zero_cross(broken.values[ref], 3, mk.PATH_ATOL)
    with pytest.raises(sp.PipelineError, match="input_consecutive_crosses.*cross at 3"):
        sp.triangulate(broken, N)


def test_triangulate_handoff_checked_at_path_atol(monkeypatch):
    # rordam_invert relies on triangulate's strictly_lower_triangular; with the
    # identity for V4 the product keeps a diagonal entry of the input
    model = FiniteDshModel((Level(8, (ModelPoint("x"),)),))
    zero = zero_element(model)
    ref = PointRef(1, "x")
    monkeypatch.setattr(sp, "v_n", lambda theta, N: np.eye(len(theta), dtype=complex))
    sp.triangulate(_with_entry(zero, ref, 5, 5, 0.5 * mk.PATH_ATOL), 2)
    with pytest.raises(sp.PipelineError, match="strictly_lower_triangular"):
        sp.triangulate(_with_entry(zero, ref, 5, 5, 2 * mk.PATH_ATOL), 2)


def test_each_handoff_recorded_by_one_stage(rng):
    chain = _deepened_chain(67)
    planted = plant(chain.model(1), rng, scale=0.05)
    _, cert = sp.approximate_by_invertible(list(chain.maps), planted, 0.25)
    assert cert.threshold_wiped is False
    names = [name for s in cert.stages for name in {p[0] for p in s.predicates}]
    assert len(names) == len(set(names))
    assert not {"crosses_retained", "block_points_open", "consecutive_crosses"} & set(names)


def test_rordam_invert_cases(rng):
    model = FiniteDshModel((Level(4, (ModelPoint("x"),)),))
    zero = zero_element(model)
    out = sp.rordam_invert(zero, 0.3)
    assert dm.min_singular_over_points(out) == pytest.approx(0.3, abs=1e-12)

    shift = np.diag(np.ones(3), k=-1).astype(complex)
    jordan = dm.Element(model, {PointRef(1, "x"): shift})
    delta = 0.2
    inv = sp.rordam_invert(jordan, delta)
    det = np.linalg.det(inv.values[PointRef(1, "x")])
    assert det == pytest.approx(delta ** 4, abs=1e-12)

    with pytest.raises(ValueError, match="positive"):
        sp.rordam_invert(zero, 0.0)


def test_rordam_invert_shifts_a_copy_of_each_value(two_level_model, rng):
    t = dm.random_element(two_level_model, rng)
    vals = {}
    for ref, v in t.values.items():
        v = v.copy()
        v[0, 1] = complex(-0.0, 0.0)
        v[1, 0] = complex(0.0, -0.0)
        v[2, 2] = complex(-0.0, -0.0)
        vals[ref] = v
    t = dm.Element(two_level_model, vals)
    before = {ref: v.copy() for ref, v in t.values.items()}
    delta = 0.3
    out = sp.rordam_invert(t, delta)
    for ref, v in out.values.items():
        assert np.all(v == t.values[ref] + delta * np.eye(len(v), dtype=np.complex128))
        assert not v.flags.writeable
        assert not t.values[ref].flags.writeable
        assert np.array_equal(t.values[ref], before[ref])
        # the input really holds the signed zeros it was given
        assert np.signbit(t.values[ref][0, 1].real)


def test_approximate_invertible_input_is_trivial(fib_chain):
    e = unit_element(fib_chain.model(1))
    out, cert = sp.approximate_by_invertible(list(fib_chain.maps), e, 0.25)
    assert out is e
    assert cert.total_distance == 0.0
    assert cert.stages[0].name == "already_invertible"
    assert cert.min_singular_value == pytest.approx(1.0, abs=1e-12)


def _deepened_chain(required):
    fib = dyn.Substitution.fibonacci()
    bases = dyn.fibonacci_prefix_bases(fib, 14)
    chain = dyn.build_cylinder_chain(fib, bases[:3], base_horizon=1, max_points_per_level=16)
    depth = 3
    while chain.towers[-1].model.smallest_dim < required:
        depth += 1
        chain = dyn.extend_cylinder_chain(fib, chain, bases[depth - 1], 16)
    return chain


def test_approximate_zero_element_budget_equality():
    chain = _deepened_chain(67)
    zero = zero_element(chain.model(1))
    eps = 0.25
    out, cert = sp.approximate_by_invertible(list(chain.maps), zero, eps)
    assert cert.total_distance == pytest.approx(eps / 8, abs=1e-12)
    # all stage perturbations align here, so the triangle inequality is tight
    assert abs(cert.total_distance - cert.budget_consumed) <= 1e-9
    assert cert.min_singular_value == pytest.approx(eps / 8, abs=1e-10)
    # the output is delta times a unitary
    model = out.model
    for ref in model.free_refs():
        v = out.values[ref] / (eps / 8)
        assert mk.is_unitary(v, 1e-9)


def test_approximate_planted_end_to_end(rng):
    chain = _deepened_chain(67)
    planted = plant(chain.model(1), rng)
    eps = 0.25
    out, cert = sp.approximate_by_invertible(list(chain.maps), planted, eps,
                                             input_id="planted")
    assert cert.total_distance < eps
    assert cert.total_distance <= cert.budget_consumed + 1e-9
    assert cert.min_singular_value > 1e-3
    assert all(ok for s in cert.stages for (_, ok, _) in s.predicates)
    assert {s.name for s in cert.stages} == {
        "make_zero_cross", "propagate_crosses", "open_block_points",
        "condense_crosses", "triangulate", "rordam_invert"}
    # the certified bound is the stage sum plus a rounding term
    assert cert.budget_consumed < cert.total_distance
    _assert_certificate_holds_densely(list(chain.maps), planted, out, cert)
    blob = cert.to_json()
    assert blob["summary"]["total_distance"] < eps
    assert set(blob["stages"][0]["predicates"]) == {"distance_within_eps", "zero_cross_at_1"}


def _assert_certificate_holds_densely(maps, a, out, cert):
    """The dense measurements that the pipeline certifies without: by SVD
    at every free point, ||a' - phi(a)|| is at most the reported total, and
    sigma_min(a') is the reported margin to within 1e-13 ||a'||."""
    phi = dm.compose_chain(maps, 1, cert.output_stage)
    mapped = dm.apply_diagonal_map(phi, a)
    dist = max(np.linalg.norm(out.values[ref] - v, 2) for ref, v in mapped.values.items())
    assert dist <= cert.total_distance
    svs = [np.linalg.svd(v, compute_uv=False) for v in out.values.values()]
    assert abs(min(s[-1] for s in svs) - cert.min_singular_value) <= 1e-13 * max(
        s[0] for s in svs)


def _cli_input(s, seed, scale):
    """(chain maps, planted element) as ``dsh-lab pipeline`` builds them at
    its defaults for this substitution, seed and plant scale."""
    chain = dyn.build_cylinder_chain(s, dyn.fibonacci_prefix_bases(s, 3), base_horizon=1,
                                     max_points_per_level=16)
    planted = plant(chain.model(1), np.random.default_rng(seed), scale)
    chain = sp.plan_chain(s, chain, 14, planted, 0.25, 16, dyn.DEFAULT_SCAN_LENGTH)
    return list(chain.maps), planted


@pytest.mark.parametrize("rules, seed", [({"0": "01", "1": "0"}, 5), ({"0": "01", "1": "00"}, 3)],
                         ids=["fibonacci", "period-doubling"])
def test_pipeline_working_set_within_3_5_output_elements(rules, seed):
    # a run holds one working element and the operands of the step forming
    # it, with every pipeline unitary as a permutation index or a block at
    # the rotated point: 3.08 and 2.86 output elements here, the first in
    # the soft-threshold search
    s = dyn.Substitution.from_json({"alphabet": ["0", "1"], "rules": rules, "seed": "0"})
    maps, planted = _cli_input(s, seed, 0.05)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out, cert = sp.approximate_by_invertible(maps, planted, 0.25)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert cert.threshold_wiped is False
    assert all(ok for st in cert.stages for (_, ok, _) in st.predicates)
    out_bytes = sum(v.nbytes for v in out.values.values())
    assert peak <= 3.5 * out_bytes, f"traced peak {peak / out_bytes:.2f} output elements"
    _assert_certificate_holds_densely(maps, planted, out, cert)


def _unit_but(model, ref, mat):
    """The element that is ``mat`` at ``ref`` and the unit everywhere else."""
    vals = dict(unit_element(model).values)
    vals[ref] = mat
    return dm.Element(model, vals)


def _assert_output_is_dense_sandwich(maps, planted, monkeypatch):
    """Run the pipeline with every pipeline unitary built densely, test-side,
    from its path (vL and vR as whole elements, mapped by phi): the image
    G = gather phi(e') gather*, g'' = V3 g' V3* and T = g'' V4 agree
    exactly, and a' = V1* V3* core V4* V3 V2* to within rounding. Returns
    (the zero-cross stage, the propagation stage)."""
    seen = {}

    def record(name, fn):
        def wrapped(*args):
            seen[name] = out = fn(*args)
            return out
        monkeypatch.setattr(sp, name, wrapped)

    gathered = []

    def gather_multi(*args):
        gathered.append(up.gather_multi(*args))
        return gathered[-1]

    monkeypatch.setattr(sp, "gather_multi", gather_multi)
    for name in ("make_zero_cross", "propagate_crosses", "open_block_points",
                 "condense_crosses", "triangulate", "rordam_invert"):
        record(name, getattr(sp, name))
    out, cert = sp.approximate_by_invertible(maps, planted, 0.25)
    assert cert.threshold_wiped is False

    zc, (prop, image) = seen["make_zero_cross"], seen["propagate_crosses"]
    g_prime = seen["open_block_points"][0]
    v3, g_second, _ = seen["condense_crosses"]
    v4, t_el, _ = seen["triangulate"]
    core = seen["rordam_invert"]
    model = out.model
    phi = dm.compose_chain(maps, 1, cert.output_stage)
    (p_star,) = zc.points
    left = dm.apply_diagonal_map(phi, _unit_but(planted.model, p_star, zc.left))
    right = dm.apply_diagonal_map(phi, _unit_but(planted.model, p_star, zc.right))
    rotated = dm.apply_diagonal_map(phi, zc.rotated)
    assert len(gathered) == len(model.free_refs())
    for ref, gather in zip(model.free_refs(), gathered):
        n = model.dim(ref.level)
        assert_permutation_index(prop.gather[ref], gather)
        assert (image.values[ref].tobytes()
                == (gather @ rotated.values[ref] @ gather.conj().T).tobytes())
        w3 = assert_permutation_index(v3[ref], condensation_matrix(n, prop.M, prop.N))
        w4 = assert_permutation_index(v4[ref], triangulating_matrix(n, prop.N))
        w1 = gather @ left.values[ref]
        w2 = right.values[ref] @ gather.conj().T
        assert np.array_equal(g_second.values[ref], w3 @ g_prime.values[ref] @ w3.conj().T)
        assert np.array_equal(t_el.values[ref], g_second.values[ref] @ w4)
        dense = (w1.conj().T @ w3.conj().T @ core.values[ref] @ w4.conj().T @ w3
                 @ w2.conj().T)
        got = out.values[ref]
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.linalg.norm(got, 2)
    _assert_certificate_holds_densely(maps, planted, out, cert)
    return zc, prop


def test_output_by_index_equals_dense_sandwich(rng, monkeypatch):
    chain = _deepened_chain(67)
    planted = plant(chain.model(1), rng, scale=0.05)
    _assert_output_is_dense_sandwich(list(chain.maps), planted, monkeypatch)


def _glued_copies_input():
    """(maps, element) where the rotated point a (dimension 2) sits at level
    1 of stage 1, inside the glued point g = (a, b) and again beside it in
    x's list (g, a); z lists x 39 times and w alternates x and y."""
    a, b, g, c = PointRef(1, "a"), PointRef(1, "b"), PointRef(2, "g"), PointRef(2, "c")
    x, y, z, w = PointRef(1, "x"), PointRef(1, "y"), PointRef(1, "z"), PointRef(1, "w")
    m1 = FiniteDshModel((Level(2, (ModelPoint("a"), ModelPoint("b"))),
                         Level(4, (ModelPoint("g", (a, b)), ModelPoint("c")))))
    m2 = FiniteDshModel((Level(6, (ModelPoint("x"), ModelPoint("y"))),))
    m3 = FiniteDshModel((Level(234, (ModelPoint("z"), ModelPoint("w"))),))
    maps = [dm.DiagonalMap(m1, m2, {x: (g, a), y: (c, a)}),
            dm.DiagonalMap(m2, m3, {z: (x,) * 39, w: (x, y) * 19 + (x,)})]
    rng = np.random.default_rng(0)
    vals = {r: 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            + np.eye(n) for r, n in ((a, 2), (b, 2), (c, 4))}
    u, sv, vh = np.linalg.svd(vals[a])
    vals[a] = u @ np.diag([sv[0], 0.0]) @ vh
    return maps, dm.Element(m1, vals)


def test_output_sandwich_at_copies_inside_a_glued_source_point(monkeypatch):
    # phi(vL) and phi(vR) differ from the unit at every copy of a's block,
    # those inside g included
    z, w = PointRef(1, "z"), PointRef(1, "w")
    zc, prop = _assert_output_is_dense_sandwich(*_glued_copies_input(), monkeypatch)
    assert zc.points == {PointRef(1, "a")} and zc.left.shape == (2, 2)
    # a's block starts at 0 and 4 in each x block of 6, at 4 in each y block
    assert list(prop.offsets[z]) == [6 * j + o for j in range(39) for o in (0, 4)]
    assert list(prop.offsets[w]) == [12 * j + o for j in range(19) for o in (0, 4, 10)] + [
        228, 232]


def _failed_predicate(monkeypatch, maps, a, **mutations):
    """Run the pipeline with each named stage's result passed through its
    mutation (which also sees the stage results before it), and return the
    name of the run-time predicate that fails."""
    seen = {}
    for name, mutate in mutations.items():
        def wrapped(*args, real=getattr(sp, name), name=name, mutate=mutate):
            seen[name] = out = mutate(real(*args), seen)
            return out
        monkeypatch.setattr(sp, name, wrapped)
    with pytest.raises(sp.PipelineError, match="predicate '") as err:
        sp.approximate_by_invertible(maps, a, 0.25)
    return str(err.value).split("'")[1]


@pytest.fixture(scope="module")
def planted_input():
    """(maps, a non-wiped plant at stage 1): a mutation that moves the
    output acts on a nonzero nilpotent part."""
    chain = _deepened_chain(67)
    return list(chain.maps), plant(chain.model(1), np.random.default_rng(12345), scale=0.05)


def _changed(before, after):
    assert not np.array_equal(before, after), "the mutation changes nothing"
    return after


@pytest.mark.parametrize("side", ["left", "right"])
def test_block_transposed_without_conjugation_fails_the_identity(monkeypatch, planted_input,
                                                                 side):
    # the output uses vL.T (vR.T) for vL* (vR*)
    def transpose(zc, seen):
        return dataclasses.replace(zc, **{side: _changed(getattr(zc, side),
                                                          getattr(zc, side).conj())})

    assert _failed_predicate(monkeypatch, *planted_input,
                             make_zero_cross=transpose) == "budget_soundness"


def test_gather_v3_index_for_its_inverse_fails_the_identity(monkeypatch, planted_input):
    # V3 chosen so that the output's row index s = inverse(gather[v3]) reads
    # gather[v3] itself
    def invert(result, seen):
        v3, out, preds = result
        gather = seen["propagate_crosses"][0].gather
        mutated = {ref: sp._inverse(gather[ref])[sp._inverse(gather[ref][p])]
                   for ref, p in v3.items()}
        # the composite is an involution at some points, not at all
        _changed(np.concatenate([gather[ref][p] for ref, p in v3.items()]),
                 np.concatenate([sp._inverse(gather[ref][p]) for ref, p in v3.items()]))
        return mutated, out, preds

    assert _failed_predicate(monkeypatch, *planted_input,
                             propagate_crosses=lambda result, seen: result,
                             condense_crosses=invert) == "budget_soundness"


def test_v4_index_for_its_inverse_fails_the_identity(monkeypatch, planted_input):
    def invert(result, seen):
        v4, out, preds = result
        return {ref: _changed(p, sp._inverse(p)) for ref, p in v4.items()}, out, preds

    assert _failed_predicate(monkeypatch, *planted_input,
                             triangulate=invert) == "budget_soundness"


def test_offsets_from_eigenvalue_list_entries_fail_the_identity(monkeypatch):
    # the entries of the rotated point in each eigenvalue list miss the
    # copies of its block inside a glued source point
    maps, a = _glued_copies_input()

    def from_list_entries(result, seen):
        prop, image = result
        phi = dm.compose_chain(maps, 1, prop.stage_index)
        (p_star,) = seen["make_zero_cross"].points
        offsets = {}
        for ref, srcs in phi.lists.items():
            starts = np.cumsum([0] + [phi.source.dim(src.level) for src in srcs])
            offsets[ref] = _changed(prop.offsets[ref], np.array(
                [o for o, src in zip(starts, srcs) if src == p_star]))
        return dataclasses.replace(prop, offsets=offsets), image

    assert _failed_predicate(monkeypatch, maps, a,
                             make_zero_cross=lambda zc, seen: zc,
                             propagate_crosses=from_list_entries) == "budget_soundness"


def test_block_one_row_short_fails_the_identity(monkeypatch, planted_input):
    def rotate_blocks(x, offsets, vl, vr):
        k = len(vl)
        for o in offsets:
            x[o:o + k - 1] = (vl @ x[o:o + k])[:-1]
        for o in offsets:
            x[:, o:o + k] = x[:, o:o + k] @ vr

    monkeypatch.setattr(sp, "_rotate_blocks", rotate_blocks)
    assert _failed_predicate(monkeypatch, *planted_input) == "budget_soundness"


def test_scaled_block_fails_unitarity_and_the_identity(monkeypatch, planted_input):
    def scale(zc, seen):
        return dataclasses.replace(zc, left=zc.left * (1 + 1e-6))

    assert _failed_predicate(monkeypatch, *planted_input,
                             make_zero_cross=scale) == "unitary_sandwich_exactness"
    # without the unitarity check, the identity's residual still catches it
    monkeypatch.undo()
    monkeypatch.setattr(sp, "is_unitary", lambda u: True)
    assert _failed_predicate(monkeypatch, *planted_input,
                             make_zero_cross=scale) == "budget_soundness"


def test_certificate_records_threshold_delta_and_wipe(rng, fib_chain):
    chain = _deepened_chain(67)
    planted = plant(chain.model(1), rng, scale=0.05)
    _, cert = sp.approximate_by_invertible(list(chain.maps), planted, 0.25)
    summary = cert.to_json()["summary"]
    assert summary["threshold_wiped"] is False
    assert 0 < summary["threshold_delta"] <= 0.25 / 4
    # a nonzero nilpotent lowers the margin below the scalar eps/8
    assert cert.min_singular_value < 0.25 / 8

    unit = unit_element(fib_chain.model(1))
    summary = sp.approximate_by_invertible(list(fib_chain.maps), unit, 0.25)[1].to_json()["summary"]
    assert summary["threshold_delta"] is None and summary["threshold_wiped"] is None


def test_singular_core_is_a_pipeline_error(rng, monkeypatch):
    chain = _deepened_chain(67)
    planted = plant(chain.model(1), rng, scale=0.05)
    monkeypatch.setattr(sp, "min_singular_over_points", lambda e: 0.0)
    with pytest.raises(sp.PipelineError, match="numerically singular"):
        sp.approximate_by_invertible(list(chain.maps), planted, 0.25)


def test_approximate_rejects_bad_epsilon(fib_chain):
    e = zero_element(fib_chain.model(1))
    with pytest.raises(ValueError, match="positive"):
        sp.approximate_by_invertible(list(fib_chain.maps), e, 0.0)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
def test_eps_must_be_finite_and_positive(two_level_model, rng, fib_chain, eps):
    a = plant(two_level_model, rng)
    chain = [dm.identity_shaped_map(two_level_model, two_level_model,
                                    {r: r for r in two_level_model.free_refs()})]
    fib_a = plant(fib_chain.model(1), rng)
    calls = [
        lambda: sp.make_zero_cross(a, eps),
        lambda: sp.open_block_points(a, eps),
        lambda: sp.approximate_by_invertible(chain, a, eps),
        lambda: sp.plan_chain(dyn.Substitution.fibonacci(), fib_chain, 6, fib_a, eps, 16,
                              dyn.DEFAULT_SCAN_LENGTH),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"finite and positive, got {eps}"):
            call()
