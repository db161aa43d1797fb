import json

import numpy as np
import pytest

from dsh_lab import dsh_model as dm
from dsh_lab import matrixkit as mk
from dsh_lab import verify as vf
from dsh_lab.dsh_model import FiniteDshModel, Level, ModelPoint, PointRef
from conftest import element_to_json, model_from_json, unit_element, zero_element


def test_validate_single_level():
    m = FiniteDshModel((Level(4, (ModelPoint("x"), ModelPoint("y"))),))
    assert dm.validate_model(m).ok


def test_validate_mixed_dims_gluing():
    m = FiniteDshModel((
        Level(2, (ModelPoint("x"),)),
        Level(3, (ModelPoint("y"),)),
        Level(5, (ModelPoint("g", (PointRef(1, "x"), PointRef(2, "y"))),)),
    ))
    assert dm.validate_model(m).ok
    assert dm.block_starts(m)[PointRef(3, "g")] == (1, 3)


def test_validate_reports_bad_dim_sum():
    m = FiniteDshModel((
        Level(3, (ModelPoint("x"),)),
        Level(5, (ModelPoint("g", (PointRef(1, "x"), PointRef(1, "x"))),)),
    ))
    report = dm.validate_model(m)
    assert not report.ok
    assert any("sums to 6" in v for v in report.violations)


def test_validate_rejects_glued_level_one():
    m = FiniteDshModel((Level(2, (ModelPoint("g", (PointRef(1, "x"),)),)),))
    assert any("level 1" in v for v in dm.validate_model(m).violations)


def test_eval_element_free_and_glued(two_level_model, rng):
    e = dm.random_element(two_level_model, rng)
    assert np.array_equal(dm.eval_element(e, PointRef(1, "a")), e.values[PointRef(1, "a")])
    glued = dm.eval_element(e, PointRef(2, "g"))
    expected = mk.direct_sum([e.values[PointRef(1, "a")], e.values[PointRef(1, "b")]])
    assert np.array_equal(glued, expected)


def test_eval_element_nested_gluing_flattens(three_level_model, rng):
    e = dm.random_element(three_level_model, rng)
    val = dm.eval_element(e, PointRef(3, "h"))
    manual = mk.direct_sum([
        e.values[PointRef(2, "c")],
        e.values[PointRef(1, "a")],
    ])
    assert np.array_equal(val, manual)


def _banded_crossed_element(m, rng):
    """Banded values with random zero crosses, about half strictly lower triangular."""
    vals = {}
    for ref in m.free_refs():
        n = m.dim(ref.level)
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v[np.abs(np.subtract.outer(range(n), range(n))) >= int(rng.integers(1, 4))] = 0
        for z in rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False):
            v[z, :] = 0
            v[:, z] = 0
        vals[ref] = np.tril(v, -1) if rng.random() < 0.5 else v
    return dm.Element(m, vals)


def test_glued_predicates_follow_their_free_components(three_level_model):
    # the direct-sum rules behind checking the pipeline on free values only:
    # each predicate holds at a glued point exactly when it holds at the
    # free points assembled there
    rng = np.random.default_rng(7)
    models = [three_level_model] + [vf.random_model(np.random.default_rng(s)) for s in range(20)]
    lower_seen = set()
    for m in models:
        starts = dm.block_starts(m)
        elements = [dm.random_element(m, rng)] + [_banded_crossed_element(m, rng) for _ in range(3)]
        for e in elements:
            for ref in m.all_refs():
                if not m.point(ref).is_glued:
                    continue
                val = dm.eval_element(e, ref)
                parts = [e.values[c] for c in m.point(ref).gluing]
                for atol in (mk.DEFAULT_ATOL, mk.PATH_ATOL):
                    for k, part in zip(starts[ref], parts):
                        for o in range(part.shape[0]):
                            assert mk.has_zero_cross(val, k + o, atol) \
                                == mk.has_zero_cross(part, 1 + o, atol)
                    assert mk.diagonal_radius(val, atol) \
                        == max(mk.diagonal_radius(p, atol) for p in parts)
                    lower = mk.is_strictly_lower_triangular(val, atol)
                    assert lower == all(mk.is_strictly_lower_triangular(p, atol) for p in parts)
                    lower_seen.add(lower)
                assert abs(mk.min_singular_value(val)
                           - min(mk.min_singular_value(p) for p in parts)) <= 1e-12
    assert lower_seen == {True, False}


def test_element_requires_complete_free_assignment(two_level_model):
    with pytest.raises(ValueError, match="missing"):
        dm.Element(two_level_model, {PointRef(1, "a"): np.eye(3)})
    full = dict(zero_element(two_level_model).values)
    short = {r: v for r, v in full.items() if r != PointRef(1, "b")}
    with pytest.raises(ValueError) as exc:
        dm.Element(two_level_model, short)
    assert str(exc.value) == ("element values must cover exactly the free points; "
                              "missing=[PointRef(level=1, point='b')], extra=[]")
    with pytest.raises(ValueError) as exc:
        dm.Element(two_level_model, {**full, PointRef(2, "g"): np.zeros((6, 6))})
    assert str(exc.value) == ("element values must cover exactly the free points; "
                              "missing=[], extra=[PointRef(level=2, point='g')]")


def _scanned_point(m, ref):
    """The point at ``ref`` found by scanning its level, or None."""
    if not 1 <= ref.level <= len(m.levels):
        return None
    return next((p for p in m.levels[ref.level - 1].points if p.id == ref.point), None)


def test_model_index_agrees_with_linear_scan(three_level_model):
    rng = np.random.default_rng(0)
    models = [three_level_model] + [vf.random_model(np.random.default_rng(s)) for s in range(20)]
    for m in models:
        refs = [PointRef(i, p.id) for i, lvl in enumerate(m.levels, start=1) for p in lvl.points]
        probes = refs + [PointRef(0, refs[0].point), PointRef(len(m.levels) + 1, refs[-1].point),
                         PointRef(int(rng.integers(1, len(m.levels) + 1)), "missing")]
        for ref in probes:
            want = _scanned_point(m, ref)
            assert m.has_point(ref) == (want is not None)
            if want is None:
                with pytest.raises(KeyError, match="dangling reference"):
                    m.point(ref)
            else:
                assert m.point(ref) is want
        for i, lvl in enumerate(m.levels, start=1):
            assert m.dim(i) == lvl.dim
        for i in (0, len(m.levels) + 1):
            with pytest.raises(IndexError):
                m.dim(i)
        assert m.all_refs() == tuple(refs)
        assert m.free_refs() == tuple(r for r in refs if not _scanned_point(m, r).is_glued)
        assert m.free_set == frozenset(m.free_refs())


def test_equal_models_stay_equal_after_indexing(three_level_model):
    twin = model_from_json(dm.model_to_json(three_level_model))
    assert twin is not three_level_model
    dm.block_starts(three_level_model)
    dm.random_element(three_level_model, np.random.default_rng(1))
    assert twin == three_level_model and hash(twin) == hash(three_level_model)
    dm.block_starts(twin)
    assert twin == three_level_model and hash(twin) == hash(three_level_model)
    assert len({twin, three_level_model}) == 1


def test_block_starts_table_cannot_be_changed(two_level_model):
    starts = dm.block_starts(two_level_model)
    with pytest.raises(TypeError):
        starts[PointRef(2, "g")] = (1,)
    assert dm.block_starts(two_level_model)[PointRef(2, "g")] == (1, 4)


def test_block_starts_level_one_and_glued(two_level_model):
    starts = dm.block_starts(two_level_model)
    assert starts[PointRef(1, "a")] == (1,)
    assert starts[PointRef(2, "g")] == (1, 4)
    assert starts[PointRef(2, "c")] == (1,)


def test_block_starts_random_elements_respect_table(two_level_model, rng):
    starts = dm.block_starts(two_level_model)
    for _ in range(100):
        e = dm.random_element(two_level_model, rng)
        for ref, ks in starts.items():
            v = dm.eval_element(e, ref)
            for k in ks:
                assert mk.has_block_point(v, k)


def test_witness_free_point():
    m = FiniteDshModel((Level(3, (ModelPoint("x"),)),))
    w = dm.witness_no_block_point(m, PointRef(1, "x"), 2)
    v = dm.eval_element(w, PointRef(1, "x"))
    assert v[0, 1] == 1.0 and np.count_nonzero(v) == 1
    assert not mk.has_block_point(v, 2)


def test_witness_glued_interior(two_level_model):
    # k=3 is interior to the first block of g = (a, b)
    w = dm.witness_no_block_point(two_level_model, PointRef(2, "g"), 3)
    assert not mk.has_block_point(dm.eval_element(w, PointRef(2, "g")), 3)
    # the support sits on the first gluing source
    assert np.count_nonzero(w.values[PointRef(1, "a")]) == 1
    assert np.count_nonzero(w.values[PointRef(1, "b")]) == 0


def test_witness_errors_at_block_starts(two_level_model):
    with pytest.raises(ValueError, match="genuine block start"):
        dm.witness_no_block_point(two_level_model, PointRef(2, "g"), 1)
    with pytest.raises(ValueError, match="genuine block start"):
        dm.witness_no_block_point(two_level_model, PointRef(2, "g"), 4)


def _fanout_map(two_level_model):
    target = FiniteDshModel((Level(12, (ModelPoint("z"),)),))
    lists = {PointRef(1, "z"): (PointRef(1, "a"), PointRef(1, "b"), PointRef(2, "c"))}
    return dm.DiagonalMap(two_level_model, target, lists)


def test_apply_identity_shaped_map_copies(two_level_model, rng):
    pairing = {r: r for r in two_level_model.free_refs()}
    d = dm.identity_shaped_map(two_level_model, two_level_model, pairing)
    e = dm.random_element(two_level_model, rng)
    out = dm.apply_diagonal_map(d, e)
    assert dm.norm_dist(out, e) == 0.0


def test_apply_map_sends_unit_to_unit(two_level_model):
    d = _fanout_map(two_level_model)
    out = dm.apply_diagonal_map(d, unit_element(two_level_model))
    assert dm.norm_dist(out, unit_element(d.target)) == 0.0


def _product(e1, e2):
    """The pointwise product of two elements of one model."""
    return dm.Element(e1.model, {r: v @ e2.values[r] for r, v in e1.values.items()})


def test_diagonal_maps_are_homomorphisms(two_level_model, rng):
    d = _fanout_map(two_level_model)
    for _ in range(10):
        e1 = dm.random_element(two_level_model, rng)
        e2 = dm.random_element(two_level_model, rng)
        lhs = dm.apply_diagonal_map(d, _product(e1, e2))
        rhs = _product(dm.apply_diagonal_map(d, e1), dm.apply_diagonal_map(d, e2))
        assert dm.norm_dist(lhs, rhs) <= 1e-12


def test_diagonal_map_rejects_dim_mismatch(two_level_model):
    target = FiniteDshModel((Level(7, (ModelPoint("z"),)),))
    with pytest.raises(ValueError, match="sums to dimension"):
        dm.DiagonalMap(two_level_model, target,
                       {PointRef(1, "z"): (PointRef(1, "a"), PointRef(1, "b"))})


def test_compose_with_identity_shaped_map(two_level_model):
    d = _fanout_map(two_level_model)
    pairing = {r: r for r in two_level_model.free_refs()}
    ident = dm.identity_shaped_map(two_level_model, two_level_model, pairing)
    comp = dm.compose_diagonal_maps(d, ident)
    assert comp.lists == d.lists


def test_compose_functoriality_on_random_elements(two_level_model, rng):
    d1 = _fanout_map(two_level_model)
    mid = d1.target
    top = FiniteDshModel((Level(24, (ModelPoint("w"),)),))
    d2 = dm.DiagonalMap(mid, top, {PointRef(1, "w"): (PointRef(1, "z"), PointRef(1, "z"))})
    comp = dm.compose_diagonal_maps(d2, d1)
    for _ in range(50):
        e = dm.random_element(two_level_model, rng)
        lhs = dm.apply_diagonal_map(comp, e)
        rhs = dm.apply_diagonal_map(d2, dm.apply_diagonal_map(d1, e))
        assert dm.norm_dist(lhs, rhs) == 0.0


def test_compose_expands_through_glued_middle_points(two_level_model):
    # middle stage has a glued point; the composite expands it to free sources
    mid = two_level_model
    d1 = dm.identity_shaped_map(mid, mid, {r: r for r in mid.free_refs()})
    top = FiniteDshModel((Level(6, (ModelPoint("w"),)),))
    d2 = dm.DiagonalMap(mid, top, {PointRef(1, "w"): (PointRef(2, "g"),)})
    comp = dm.compose_diagonal_maps(d2, d1)
    assert comp.lists[PointRef(1, "w")] == (PointRef(1, "a"), PointRef(1, "b"))


def test_indicator_level_one_only():
    m = FiniteDshModel((Level(4, (ModelPoint("x"), ModelPoint("y"))),))
    theta = dm.build_indicator(m, 2, (0,))
    for ref in m.all_refs():
        assert np.array_equal(dm.eval_element(theta, ref),
                              np.diag([1.0, 0, 0, 0]).astype(complex))


def test_indicator_glued_matches_block_starts(two_level_model):
    theta = dm.build_indicator(two_level_model, 2, (0,))
    starts = dm.block_starts(two_level_model)
    for ref in two_level_model.all_refs():
        d = np.real(np.diag(dm.eval_element(theta, ref)))
        ones = {i + 1 for i, v in enumerate(d) if v == 1.0}
        assert ones == set(starts[ref])


def test_indicator_final_window_zero(three_level_model):
    M = 2
    theta = dm.build_indicator(three_level_model, M, (0,))
    for ref in three_level_model.all_refs():
        n = three_level_model.dim(ref.level)
        d = np.real(np.diag(dm.eval_element(theta, ref)))
        assert np.all(d[n - M:] == 0.0)


def test_indicator_multiple_offsets(two_level_model):
    theta = dm.build_indicator(two_level_model, 1, (0, 1))
    d = np.real(np.diag(dm.eval_element(theta, PointRef(2, "g"))))
    assert list(np.nonzero(d)[0] + 1) == [1, 2, 4, 5]


def test_indicator_infeasible_flag(two_level_model):
    with pytest.raises(dm.InfeasibleIndicatorError, match="collides"):
        dm.build_indicator(two_level_model, 2, (0,), {PointRef(1, "a"): {1}})
    # flagging an always-zero entry is satisfiable
    theta = dm.build_indicator(two_level_model, 2, (0,), {PointRef(1, "a"): {2}})
    assert dm.eval_element(theta, PointRef(1, "a"))[1, 1] == 0.0


def test_indicator_boundary_offset_is_reported(two_level_model):
    # K_m = n_1 - M puts a demanded 1 inside the final-M zero range
    with pytest.raises(dm.InfeasibleIndicatorError, match="condition \\(3\\)"):
        dm.build_indicator(two_level_model, 2, (1,))


def _indicator_ref(m, M, K, F=None):
    """build_indicator as it was: build the element, then verify conditions
    (2), (3) and (5) and the flags at every point, on assembled values."""
    report = dm.validate_model(m)
    if not report.ok:
        raise ValueError(f"invalid model: {report.violations[0]}")
    n1 = m.smallest_dim
    ks = sorted(set(int(k) for k in K))
    if not ks:
        raise ValueError("K must be nonempty")
    if not (1 <= M < n1):
        raise ValueError("M out of range")
    if ks[0] < 0 or ks[-1] > n1 - M:
        raise ValueError("K out of range")
    for a in range(len(ks) - 1):
        if ks[a + 1] - ks[a] < M:
            raise ValueError("offsets closer than M")
    flags = {} if F is None else {r: frozenset(int(k) for k in ks) for r, ks in F.items()}
    starts = dm.block_starts(m)
    vals = {}
    for ref in m.free_refs():
        diag = np.zeros(m.dim(ref.level))
        for start in starts[ref]:
            for kt in ks:
                diag[start + kt - 1] = 1.0
        vals[ref] = np.diag(diag).astype(np.complex128)
    theta = dm.Element(m, vals)
    for ref in m.all_refs():
        n = m.dim(ref.level)
        d = np.real(np.diag(dm.eval_element(theta, ref)))
        for k in range(n - M + 1, n + 1):
            if d[k - 1] != 0.0:
                raise dm.InfeasibleIndicatorError("condition (3)")
        for k in range(1, n - M + 2):
            if np.count_nonzero(d[k - 1:k - 1 + M]) > 1:
                raise dm.InfeasibleIndicatorError("condition (2)")
        for start in starts[ref]:
            for kt in ks:
                if d[start + kt - 1] != 1.0:
                    raise dm.InfeasibleIndicatorError("condition (5)")
        for k in flags.get(ref, ()):
            if not (1 <= k <= n):
                raise IndexError("flag out of range")
            if d[k - 1] != 0.0:
                raise dm.InfeasibleIndicatorError("flag collides")
    return theta


def _outcome(fn, *args):
    try:
        e = fn(*args)
    except (ValueError, IndexError) as exc:
        return type(exc)
    return {r: v.tobytes() for r, v in e.values.items()}


def test_indicator_matches_the_verified_construction_on_random_draws():
    rng = np.random.default_rng(2022)
    seen = set()
    for _ in range(1500):
        m = vf.random_model(rng)
        n1 = m.smallest_dim
        M = n1 if rng.random() < 0.05 else int(rng.integers(1, n1))
        if rng.random() < 0.3:
            K = [int(k) for k in rng.integers(-1, n1, size=int(rng.integers(0, 4)))]
        else:  # well spaced, the largest offset n_1 - M or n_1 - M - 1
            K = list(range(n1 - M - int(rng.integers(0, 2)), -1, -M))
        F = None
        if rng.random() < 0.6:
            refs = m.all_refs()
            F = {refs[int(rng.integers(len(refs)))]:
                 {int(k) for k in rng.integers(0, n1 + 2, size=int(rng.integers(1, 3)))}
                 for _ in range(int(rng.integers(1, 3)))}
        want = _outcome(_indicator_ref, m, M, K, F)
        got = _outcome(dm.build_indicator, m, M, K, F)
        assert got == want, (m, M, K, F)
        seen.add(want if isinstance(want, type) else dict)
    assert seen == {ValueError, IndexError, dm.InfeasibleIndicatorError, dict}


def test_soft_threshold_identity_and_cut(two_level_model, rng):
    e = dm.random_element(two_level_model, rng)
    assert dm.norm_dist(dm.soft_threshold(e, 0.0), e) == 0.0
    small = dm.Element(two_level_model, {
        r: 0.05 * np.ones((two_level_model.dim(r.level),) * 2)
        for r in two_level_model.free_refs()
    })
    cut = dm.soft_threshold(small, 0.1)
    assert dm.norm_dist(cut, zero_element(two_level_model)) == 0.0


def test_soft_threshold_distance_and_patterns(two_level_model, rng):
    delta = 0.1
    n_l = two_level_model.largest_dim
    e = dm.random_element(two_level_model, rng)
    vals = dict(e.values)
    a = np.array(vals[PointRef(1, "a")])
    a[0, :] = 0
    a[:, 0] = 0
    vals[PointRef(1, "a")] = a
    e = dm.Element(two_level_model, vals)
    out = dm.soft_threshold(e, delta)
    assert dm.norm_dist(e, out) <= delta * n_l
    for ref in two_level_model.all_refs():
        before = dm.eval_element(e, ref)
        after = dm.eval_element(out, ref)
        assert set(mk.zero_cross_positions(before)) <= set(mk.zero_cross_positions(after))
        assert mk.diagonal_radius(after) <= mk.diagonal_radius(before)


def test_norm_dist_and_invertibility(two_level_model, rng):
    e = dm.random_element(two_level_model, rng)
    assert dm.norm_dist(e, e) == 0.0
    assert dm.min_singular_over_points(unit_element(two_level_model)) > 0.5
    vals = dict(unit_element(two_level_model).values)
    vals[PointRef(2, "c")] = np.zeros((6, 6))
    singular = dm.Element(two_level_model, vals)
    assert dm.min_singular_over_points(singular) <= 1e-9


def test_simplicity_u_all_points(two_level_model):
    d = dm.identity_shaped_map(two_level_model, two_level_model,
                               {r: r for r in two_level_model.free_refs()})
    holds, j = dm.check_simplicity_condition([d, d], 1, set(two_level_model.free_refs()))
    assert holds and j == 2


def test_simplicity_identity_chain_proper_subset(two_level_model):
    d = dm.identity_shaped_map(two_level_model, two_level_model,
                               {r: r for r in two_level_model.free_refs()})
    holds, j = dm.check_simplicity_condition([d, d, d], 1, {PointRef(1, "a")})
    assert not holds and j is None


def test_model_json_round_trip(three_level_model):
    blob = json.dumps(dm.model_to_json(three_level_model), sort_keys=True)
    back = model_from_json(json.loads(blob))
    assert back == three_level_model


def test_element_json_round_trip(two_level_model, rng):
    e = dm.random_element(two_level_model, rng)
    blob = json.dumps(element_to_json(e))
    back = dm.element_from_json(two_level_model, json.loads(blob))
    assert dm.norm_dist(e, back) == 0.0


def test_random_value_stack_is_the_stream_of_successive_draws(three_level_model):
    m = three_level_model
    stacked_rng, loop_rng, ref_rng = (np.random.default_rng(7) for _ in range(3))
    stack = dm.random_value_stack(m, stacked_rng, 5, scale=0.3)
    loop = [dm.random_element(m, loop_rng, scale=0.3) for _ in range(5)]
    # reference: two standard_normal draws per free point, element by element
    per_point = []
    for _ in range(5):
        vals = {}
        for r in m.free_refs():
            n = m.dim(r.level)
            vals[r] = 0.3 * (ref_rng.standard_normal((n, n))
                             + 1j * ref_rng.standard_normal((n, n)))
        per_point.append(vals)
    for r in m.free_refs():
        assert stack[r].shape == (5, m.dim(r.level), m.dim(r.level))
        for i in range(5):
            assert stack[r][i].tobytes() == loop[i].values[r].tobytes()
            assert stack[r][i].tobytes() == per_point[i][r].tobytes()
    state = stacked_rng.bit_generator.state
    assert state == loop_rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_envelope_equals_the_max_over_assembled_values(three_level_model):
    # 23 elements: two full slices and a short one
    for m in (three_level_model, vf.random_model(np.random.default_rng(4))):
        env_rng, loop_rng = np.random.default_rng(3), np.random.default_rng(3)
        env = vf._sample_envelope(m, env_rng, 23)
        sample = [dm.random_element(m, loop_rng) for _ in range(23)]
        for ref in m.all_refs():
            want = np.max(np.abs([dm.eval_element(e, ref) for e in sample]), axis=0)
            assert np.array_equal(dm.eval_element(env, ref), want)
        assert env_rng.bit_generator.state == loop_rng.bit_generator.state


def test_blockchar_fails_on_a_shifted_block_start_table(monkeypatch):
    table = dm.block_starts

    def shifted(m):  # every start after the first one position early
        return {r: (1,) + tuple(s - 1 for s in st[1:]) for r, st in table(m).items()}

    monkeypatch.setattr(dm, "block_starts", shifted)
    r = vf.run_suite("blockchar", seed=0)
    assert not r.passed
    assert r.failure.startswith("element without block point at start")


def test_blockchar_fails_when_direct_sum_misplaces_a_block(monkeypatch):
    def misplaced(blocks):  # every block after the first one position early
        blocks = [np.asarray(b, dtype=np.complex128) for b in blocks]
        n = sum(b.shape[0] for b in blocks)
        out = np.zeros((n, n), dtype=np.complex128)
        off = 0
        for i, b in enumerate(blocks):
            at = off - 1 if i else off
            out[at:at + b.shape[0], at:at + b.shape[0]] = b
            off += b.shape[0]
        return out

    monkeypatch.setattr(dm, "direct_sum", misplaced)
    r = vf.run_suite("blockchar", seed=0)
    assert not r.passed
    assert r.failure.startswith("element without block point at start")


def test_package_built_values_are_read_only(two_level_model, rng):
    m = two_level_model
    e1, e2 = dm.random_element(m, rng), dm.random_element(m, rng)
    ident = dm.identity_shaped_map(m, m, {r: r for r in m.free_refs()})
    built = [e1, dm.soft_threshold(e1, 0.5), dm.apply_diagonal_map(ident, e1),
             dm.witness_no_block_point(m, PointRef(2, "g"), 2)]
    for e in built:
        for v in e.values.values():
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0, 0] = 1.0
    for ref in m.all_refs():
        assert not dm.eval_element(e1, ref).flags.writeable


def test_element_copies_the_arrays_it_is_given(two_level_model):
    m = two_level_model
    given = {r: np.ones((m.dim(r.level),) * 2, dtype=np.complex128) for r in m.free_refs()}
    given[PointRef(1, "a")] = np.ones((3, 3))  # converted to complex on the way in
    e = dm.Element(m, given)
    for v in given.values():
        v[0, 0] = 7.0
        assert v.flags.writeable
    for v in e.values.values():
        assert v[0, 0] == 1.0
    frozen = dict(e.values)
    assert all(dm.Element(m, frozen).values[r] is frozen[r] for r in frozen)


def test_dim_is_a_lookup_with_the_level_range_check(three_level_model):
    assert [three_level_model.dim(i) for i in (1, 2, 3)] == [3, 6, 9]
    for bad in (0, -1, 4):
        with pytest.raises(IndexError, match=f"level {bad} out of range"):
            three_level_model.dim(bad)


def test_point_refs_order_hash_and_print_by_their_fields():
    a, b = PointRef(1, "b"), PointRef(2, "a")
    assert sorted([b, a]) == [a, b] and a < b
    assert hash(a) == hash((1, "b")) and a == PointRef(1, "b")
    assert repr(a) == "PointRef(level=1, point='b')" == str(a)
    with pytest.raises(AttributeError):
        a.level = 3


def test_witness_shares_one_zero_per_dimension(three_level_model):
    m = three_level_model
    w = dm.witness_no_block_point(m, PointRef(3, "h"), 5)   # inside c, at local 5
    target = PointRef(2, "c")
    assert np.count_nonzero(w.values[target]) == 1 and w.values[target][3, 4] == 1.0
    others = [r for r in m.free_refs() if r != target]
    assert all(not w.values[r].any() and not w.values[r].flags.writeable for r in others)
    by_dim = {}
    for r in others:
        assert by_dim.setdefault(m.dim(r.level), w.values[r]) is w.values[r]
    assert not mk.has_block_point(dm.eval_element(w, PointRef(3, "h")), 5)
