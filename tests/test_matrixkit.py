import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsh_lab import matrixkit as mk


def random_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(n, rng):
    """Haar-ish unitary from the QR factorization of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    # normalize the diagonal phases so the distribution does not depend on
    # the QR sign convention
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        mk.as_matrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        mk.as_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        mk.as_matrix([[np.nan, 0], [0, 1]])


def test_as_matrix_is_read_only():
    a = mk.as_matrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        a[0, 0] = 5


def test_perm_matrix_identity():
    assert np.array_equal(mk.perm_matrix(mk.Permutation.identity(3)), np.eye(3))


def test_perm_matrix_transposition():
    u = mk.perm_matrix(mk.Permutation.transposition(2, 1, 2))
    assert np.array_equal(u, np.array([[0, 1], [1, 0]], dtype=complex))


def test_perm_matrix_cycle_moves_basis_vectors():
    # gamma_{1,3} = (1 2 3): e1 -> e2, e2 -> e3, e3 -> e1
    u = mk.perm_matrix(mk.cycle_perm(3, 1, 3))
    e = np.eye(3)
    assert np.array_equal(u @ e[:, 0], e[:, 1])
    assert np.array_equal(u @ e[:, 1], e[:, 2])
    assert np.array_equal(u @ e[:, 2], e[:, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.data())
def test_perm_matrix_respects_composition(n, data):
    images_p = data.draw(st.permutations(list(range(1, n + 1))))
    images_q = data.draw(st.permutations(list(range(1, n + 1))))
    p, q = mk.Permutation(tuple(images_p)), mk.Permutation(tuple(images_q))
    assert np.array_equal(mk.perm_matrix(p) @ mk.perm_matrix(q),
                          mk.perm_matrix(p.compose(q)))


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        mk.Permutation((1, 1, 3))


def test_zero_cross_trivial_cases():
    assert mk.has_zero_cross(np.zeros((4, 4)), 2)
    a = np.zeros((3, 3))
    a[1, 1] = 1.0
    assert mk.has_zero_cross(a, 1)
    assert not mk.has_zero_cross(a, 2)


def test_zero_cross_constructed(rng):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a[3, :] = 0
    a[:, 3] = 0
    assert mk.has_zero_cross(a, 4)
    assert mk.zero_cross_positions(a) == (4,)
    with pytest.raises(IndexError):
        mk.has_zero_cross(a, 7)


def test_block_point_cases(rng):
    a = rng.standard_normal((4, 4))
    assert mk.has_block_point(a, 1)  # both off-diagonal blocks empty
    b = np.zeros((5, 5), dtype=complex)
    b[:2, :2] = rng.standard_normal((2, 2))
    b[2:, 2:] = rng.standard_normal((3, 3))
    assert mk.has_block_point(b, 3)
    dense = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert not mk.has_block_point(dense, 2)


def test_diagonal_radius_values():
    assert mk.diagonal_radius(np.zeros((5, 5))) == 0
    assert mk.diagonal_radius(np.diag([1.0, 2.0, 3.0])) == 1
    a = np.zeros((6, 6))
    a[5, 0] = 1.0
    assert mk.diagonal_radius(a) == 6


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
def test_diagonal_radius_of_direct_sum_is_max(nb, nc, seed):
    r = np.random.default_rng(seed)
    b = r.standard_normal((nb, nb)) * (r.random((nb, nb)) < 0.5)
    c = r.standard_normal((nc, nc)) * (r.random((nc, nc)) < 0.5)
    s = mk.direct_sum([b, c])
    assert mk.diagonal_radius(s) == max(mk.diagonal_radius(b), mk.diagonal_radius(c))


def test_op_norm_and_min_singular_value(rng):
    assert mk.op_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert mk.min_singular_value(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    d = np.diag([3.0, 0.0])
    assert mk.op_norm(d) == pytest.approx(3.0, abs=1e-12)
    assert mk.min_singular_value(d) == pytest.approx(0.0, abs=1e-12)
    u = random_unitary(5, rng)
    assert mk.op_norm(u) == pytest.approx(1.0, abs=1e-10)
    assert mk.min_singular_value(u) == pytest.approx(1.0, abs=1e-10)
    assert mk.is_unitary(u)


def test_strictly_lower_triangular():
    assert mk.is_strictly_lower_triangular(np.zeros((3, 3)))
    assert not mk.is_strictly_lower_triangular(np.eye(3))
    shift = np.diag(np.ones(4), k=-1)
    assert mk.is_strictly_lower_triangular(shift)


@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_strictly_lower_implies_nilpotent(n, rng):
    a = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), k=-1)
    power = np.linalg.matrix_power(a, n)
    assert np.max(np.abs(power)) <= n * mk.DEFAULT_ATOL * max(1.0, mk.op_norm(a)) ** n


def test_matrix_json_round_trip_exact(rng):
    a = random_matrix(4, rng)
    blob = json.dumps(mk.matrix_to_json(a))
    back = mk.matrix_from_json(json.loads(blob))
    assert np.array_equal(a, back)


def test_matrix_json_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        mk.matrix_from_json({"n": 2, "entries": [[[0.0, 0.0]]]})


def _svd_below(mats, bound):
    return all(mk.op_norm(a) < bound for a in mats)


def test_norm_below_matches_svd_on_random_matrices(rng):
    for n in (1, 2, 5, 9, 16):
        a = random_matrix(n, rng)
        norm = mk.op_norm(a)
        for bound in (0.5 * norm, 0.999 * norm, norm, 1.001 * norm, 2.0 * norm,
                      10.0 * norm):
            assert mk.norm_below([a], bound) == (norm < bound)


def test_norm_below_runs_no_svd_where_the_bounds_decide(rng, monkeypatch):
    mats = [random_matrix(n, rng) for n in (3, 8)]
    upper = max(np.linalg.norm(a) for a in mats)
    calls = []
    monkeypatch.setattr(mk, "op_norm", lambda a: calls.append(a) or np.linalg.norm(a, 2))
    assert mk.norm_below(mats, 1.01 * upper)
    assert not mk.norm_below(mats, 0.5 * max(np.abs(a).max() for a in mats))
    assert calls == []


@pytest.mark.parametrize("delta", [1.0, 0.0625, 3.7e-5])
def test_norm_below_at_the_norm_of_scaled_unitaries(rng, delta):
    # the computed row and column norms of delta*U often exceed its computed
    # largest singular value by an ulp, so only the guard keeps them equal
    p = mk.perm_matrix(mk.Permutation((3, 1, 4, 2, 5)))
    mats = [delta * p] + [delta * random_unitary(n, rng) for n in range(2, 10)]
    for a in mats:
        bound = delta
        for _ in range(8):
            bound = np.nextafter(bound, 0.0)
        for _ in range(17):
            assert mk.norm_below([a], bound) == _svd_below([a], bound)
            bound = np.nextafter(bound, np.inf)


def test_norm_below_zero_and_one_by_one():
    zero = np.zeros((4, 4), dtype=np.complex128)
    assert mk.norm_below([zero], 1e-300)
    assert not mk.norm_below([zero], 0.0)
    one = np.array([[3.0 - 4.0j]])
    assert mk.norm_below([one], np.nextafter(5.0, np.inf))
    assert not mk.norm_below([one], 5.0)
    assert mk.norm_below([one], 5.0) == _svd_below([one], 5.0)


def test_norm_below_checks_every_matrix(rng):
    small = [0.1 * random_unitary(n, rng) for n in (2, 3, 4)]
    big = random_matrix(5, rng)
    bound = 0.5 * mk.op_norm(big)
    assert mk.norm_below(small, bound)
    assert not mk.norm_below(small + [big], bound)
    assert mk.norm_below([], 0.0)


def test_block_point_of_envelope_equals_block_point_of_every_matrix():
    # the blockchar suite checks a sample's entrywise max instead of each matrix
    rng = np.random.default_rng(11)
    atol = mk.DEFAULT_ATOL
    edge = (atol, 2 * atol, -atol * 1j, 0.5 * atol, 1.0)
    n = 7
    seen = set()
    for _ in range(300):
        split = int(rng.integers(2, n + 1))
        stack = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        stack[:, split - 1:, :split - 1] = 0
        stack[:, :split - 1, split - 1:] = 0
        for v in stack:
            if rng.random() < 0.4:
                i, j = rng.integers(0, n, size=2)
                v[i, j] = edge[int(rng.integers(0, len(edge)))]
        envelope = np.max(np.abs(stack), axis=0)
        for k in range(1, n + 1):
            want = all(mk.has_block_point(v, k) for v in stack)
            assert mk.has_block_point(envelope, k) == want
            seen.add(want)
    assert seen == {True, False}


def test_envelope_keeps_a_single_breaking_matrix():
    atol = mk.DEFAULT_ATOL
    stack = np.zeros((6, 5, 5), dtype=np.complex128)
    stack[:, :2, :2] = 1.0
    stack[:, 2:, 2:] = 1.0
    stack[:, 4, 0] = atol            # on the tolerance: still a block point
    stack[1, 0, 3] = -atol * 1j
    assert mk.has_block_point(np.max(np.abs(stack), axis=0), 3)
    stack[4, 3, 1] = 2 * atol        # one matrix breaks it
    envelope = np.max(np.abs(stack), axis=0)
    assert not mk.has_block_point(envelope, 3)
    assert [mk.has_block_point(v, 3) for v in stack] == [True] * 4 + [False, True]
