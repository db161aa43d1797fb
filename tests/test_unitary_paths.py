import numpy as np
import pytest

from dsh_lab import matrixkit as mk
from dsh_lab import unitary_paths as up
from dsh_lab.verify import random_crossed_matrix, random_valid_theta


def u(n, k1, k2, t):
    return up.u_transposition(up.TranspositionPathSpec(k1, k2, n), t)


def test_transposition_endpoints():
    spec = up.TranspositionPathSpec(2, 4, 5)
    assert np.max(np.abs(up.u_transposition(spec, 0.0) - np.eye(5))) <= 1e-12
    swap = mk.perm_matrix(mk.Permutation.transposition(5, 2, 4))
    assert np.max(np.abs(up.u_transposition(spec, 1.0) - swap)) <= 1e-12


def test_transposition_midpoint_profile():
    g1, g2, g3, g4 = up.transposition_profile(0.5)
    assert abs(g1) == pytest.approx(np.cos(np.pi / 4), abs=1e-12)
    assert abs(g4) == pytest.approx(np.cos(np.pi / 4), abs=1e-12)
    assert abs(g2) == pytest.approx(np.sin(np.pi / 4), abs=1e-12)
    assert abs(g3) == pytest.approx(np.sin(np.pi / 4), abs=1e-12)
    assert mk.is_unitary(u(3, 1, 2, 0.5))


def test_transposition_identity_rows_outside_pair(rng):
    for t in rng.random(5):
        v = u(6, 2, 5, float(t))
        for i in (1, 3, 4, 6):
            assert np.array_equal(v[i - 1, :], np.eye(6)[i - 1, :])
            assert np.array_equal(v[:, i - 1], np.eye(6)[:, i - 1])


def test_transposition_rejects_bad_parameters():
    with pytest.raises(ValueError):
        up.TranspositionPathSpec(3, 3, 5)
    with pytest.raises(ValueError):
        u(5, 1, 2, 1.5)


def test_conjugation_relabeling_exact(rng):
    for _ in range(25):
        n = int(rng.integers(3, 13))
        k1, k2, k3 = sorted(rng.choice(np.arange(1, n + 1), size=3, replace=False))
        t = float(rng.random())
        swap = mk.perm_matrix(mk.Permutation.transposition(n, int(k2), int(k3)))
        lhs = swap @ u(n, int(k1), int(k2), t) @ swap
        assert np.max(np.abs(lhs - u(n, int(k1), int(k3), t))) <= 1e-12


def test_conjugation_locality(rng):
    # B_{i,j} depends only on A at (i,j), (s(i),j), (i,s(j)), (s(i),s(j))
    n, k1, k2 = 6, 2, 5
    sigma = mk.Permutation.transposition(n, k1, k2)
    for _ in range(10):
        i, j = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        sources = {(i, j), (sigma(i), j), (i, sigma(j)), (sigma(i), sigma(j))}
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for (r, c) in sources:
            a[r - 1, c - 1] = 0.0
        t = float(rng.random())
        b = u(n, k1, k2, t) @ a @ u(n, k1, k2, t).conj().T
        assert abs(b[i - 1, j - 1]) <= 1e-12


def test_eta_endpoints_and_product_permutation():
    assert np.array_equal(up.eta_path(3, 6, 2, 0.0), np.eye(6))
    # swapping the final N entries with themselves is the identity
    assert np.max(np.abs(up.eta_path(6, 6, 2, 1.0) - np.eye(6))) <= 1e-12
    # n=6, N=2, k=2: transpositions (1 5)(2 6)
    expected = mk.perm_matrix(
        mk.Permutation.transposition(6, 1, 5).compose(mk.Permutation.transposition(6, 2, 6)))
    assert np.max(np.abs(up.eta_path(2, 6, 2, 1.0) - expected)) <= 1e-12
    assert np.array_equal(mk.perm_matrix(up.eta_permutation(2, 6, 2)), np.asarray(expected))


def test_eta_rejects_out_of_range():
    with pytest.raises(IndexError):
        up.eta_path(1, 6, 2, 0.5)


def test_nesting_identity_sampled(rng):
    for _ in range(20):
        n = int(rng.integers(6, 12))
        N = int(rng.integers(1, 3))
        i = int(rng.integers(2 * N, n - N + 1))
        k = int(rng.integers(N, i - N + 1))
        th = float(rng.random())
        big = up.eta_path(i, n, N, 1.0)
        lhs = up.eta_path(k, n, N, th)
        rhs = big @ up.eta_path(k, n, N, th, ambient=i) @ big
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_gather_once_vacuous_and_zero(rng):
    # one window: gather_multi with a single window start
    n = 6
    a = random_crossed_matrix(rng, n, [3])
    delta = np.zeros(n)
    delta[2] = 1.0
    v, b = up.gather_multi(a, delta, [3], 3)
    assert np.array_equal(v, np.eye(n))
    assert np.array_equal(b, a)
    z = np.zeros((n, n))
    delta2 = np.zeros(n)
    delta2[4] = 1.0
    _, b2 = up.gather_multi(z, delta2, [3], 3)
    assert np.array_equal(b2, z)


def test_gather_once_moves_cross(rng):
    a = random_crossed_matrix(rng, 8, [3, 5])
    delta = np.zeros(8)
    delta[4] = 1.0  # position 5
    v, b = up.gather_multi(a, delta, [3], 3)
    assert mk.has_zero_cross(b, 3, 1e-9)
    assert mk.is_unitary(v)


def test_gather_once_precondition_errors(rng):
    a = rng.standard_normal((6, 6)) + 0j
    delta = np.zeros(6)
    delta[3] = 1.0
    with pytest.raises(ValueError, match="no zero cross at position 4"):
        up.gather_multi(a, delta, [2], 4)
    crossed = random_crossed_matrix(rng, 6, [4])
    with pytest.raises(ValueError, match="equals 1"):
        up.gather_multi(crossed, 0.5 * delta, [2], 4)
    with pytest.raises(IndexError):
        up.gather_multi(crossed, delta, [5], 4)


def _window_product(n, k, delta, m_window):
    """u_{(k,k+1)}(delta_{k+1}) ... u_{(k,k+M-1)}(delta_{k+M-1}), factor by factor."""
    out = np.eye(n, dtype=complex)
    for i in range(k + 1, k + m_window):
        out = out @ up.u_transposition(up.TranspositionPathSpec(k, i, n), delta[i - 1])
    return out


def test_gather_multi_single_window_matches_gather_once(rng):
    a = random_crossed_matrix(rng, 9, [4])
    delta = np.zeros(9)
    delta[3] = 1.0
    v1 = _window_product(9, 2, delta, 4)
    v2, b2 = up.gather_multi(a, delta, [2], 4)
    assert np.array_equal(v1, v2)
    assert np.array_equal(v1 @ a @ v1.conj().T, b2)

    # several windows: the product of the single-window gathers of A
    for n, m_window, ks, gates in (
        (12, 3, [1, 5], {2: 1.0, 7: 1.0}),
        (20, 4, [2, 6, 11, 16], {2: 0.4, 3: 1.0, 9: 1.0, 12: 0.7, 14: 1.0, 18: 1.0}),
    ):
        a = random_crossed_matrix(rng, n, sorted(gates))
        delta = np.zeros(n)
        for z, t in gates.items():
            delta[z - 1] = t
        product = np.eye(n, dtype=complex)
        for k in ks:
            single = up.gather_multi(a, delta, [k], m_window)[0]
            # in place against matrix products: apart by rounding only
            assert np.max(np.abs(single - _window_product(n, k, delta, m_window))) <= 1e-15
            product = single @ product
        v, b = up.gather_multi(a, delta, ks, m_window)
        assert np.array_equal(v, product)
        assert np.array_equal(b, product @ a @ product.conj().T)


def test_gather_multi_diagonal_and_radius(rng):
    d = np.diag(rng.standard_normal(12) + 1j)
    d[2, 2] = 0  # zero cross at 3
    d[8, 8] = 0  # zero cross at 9
    delta = np.zeros(12)
    delta[2] = 1.0
    delta[8] = 1.0
    _, b = up.gather_multi(d, delta, [1, 7], 4)
    assert mk.has_zero_cross(b, 1, 1e-9) and mk.has_zero_cross(b, 7, 1e-9)
    assert mk.diagonal_radius(b, 1e-9) <= 4

    a = random_crossed_matrix(rng, 14, [2, 9])
    a = np.where(np.abs(np.subtract.outer(range(14), range(14))) >= 3, 0, a)  # r(A) <= 3
    delta2 = np.zeros(14)
    delta2[1] = 1.0
    delta2[8] = 1.0
    r_before = mk.diagonal_radius(a)
    _, b2 = up.gather_multi(a, delta2, [1, 8], 4)
    assert mk.diagonal_radius(b2, 1e-9) <= r_before + 3 <= 6


def test_gather_multi_spacing_violation(rng):
    a = random_crossed_matrix(rng, 10, [2, 4])
    delta = np.zeros(10)
    delta[1] = delta[3] = 1.0
    with pytest.raises(ValueError, match="closer than M"):
        up.gather_multi(a, delta, [1, 3], 4)


def test_condense_path_basics(rng):
    n = 7
    path = up.condense_path(n, [1, 2, 3])
    assert np.array_equal(path(0.0), np.eye(n))
    a = random_crossed_matrix(rng, n, [1, 2, 3])
    v = path(1.0)
    b = v @ a @ v.conj().T
    for k in (1, 2, 3):
        assert mk.has_zero_cross(b, k, 1e-9)

    z = np.zeros((n, n))
    single = up.condense_path(n, [n])
    for th in np.linspace(0, 1, 12):
        vv = single(float(th))
        assert np.array_equal(vv @ z @ vv.conj().T, z)


def test_condense_single_far_cross_grid(rng):
    n = 9
    a = random_crossed_matrix(rng, n, [n])
    r_before = mk.diagonal_radius(a)
    path = up.condense_path(n, [n])
    for th in np.linspace(0, 1, 50):
        v = path(float(th))
        assert mk.is_unitary(v)
        b = v @ a @ v.conj().T
        assert mk.diagonal_radius(b, 1e-9) <= r_before + 2
    b1 = path(1.0) @ a @ path(1.0).conj().T
    assert mk.has_zero_cross(b1, 1, 1e-9)


def test_condense_rejects_unsorted_positions():
    with pytest.raises(ValueError):
        up.condense_path(6, [3, 2])


def test_vn_all_eta_factors_off():
    n, N = 7, 2
    theta = (1.0,) + (0.0,) * (n - 1)
    expected = mk.perm_matrix(mk.cycle_perm(n, 1, n).power(N))
    assert np.max(np.abs(up.v_n(theta, N) - expected)) <= 1e-12


def test_vn_two_blocks_decomposition():
    # 1s exactly at 1 and k2: the unitary splits as a direct sum
    n, N, k2 = 9, 2, 5
    theta = [0.0] * n
    theta[0] = 1.0
    theta[k2 - 1] = 1.0
    v = up.v_n(tuple(theta), N)
    top = up.v_n(tuple(theta[:k2 - 1]), N, validate=False)
    bottom = up.v_n(tuple(theta[k2 - 1:]), N, validate=False)
    assert np.max(np.abs(v - mk.direct_sum([top, bottom]))) <= 1e-9


def test_vn_random_decomposition_residual(rng):
    for _ in range(20):
        N = int(rng.integers(1, 4))
        n = int(rng.integers(N + 2, 16))
        theta = random_valid_theta(rng, n, N)
        v = up.v_n(theta, N)
        assert mk.is_unitary(v)
        ones = [i + 1 for i, x in enumerate(theta) if x == 1.0]
        cuts = ones + [n + 1]
        blocks = [up.v_n(theta[c - 1:cuts[a + 1] - 1], N, validate=False)
                  for a, c in enumerate(ones)]
        assert np.max(np.abs(v - mk.direct_sum(blocks))) <= 1e-9


def test_vn_invariant_errors_name_the_constraint():
    with pytest.raises(up.ThetaInvariantError, match="first_entry"):
        up.v_n((0.5, 0.0, 0.0, 0.0, 0.0), 2)
    with pytest.raises(up.ThetaInvariantError, match="final_entries"):
        up.v_n((1.0, 0.0, 0.0, 0.0, 1.0), 2)
    with pytest.raises(up.ThetaInvariantError, match="window"):
        up.v_n((1.0, 0.5, 0.0, 0.0, 0.0, 0.0), 2)


def test_triangulate_check_zero_and_shift():
    n, N = 6, 2
    theta = (1.0,) + (0.0,) * (n - 1)
    assert np.array_equal(up.triangulate_check(np.zeros((n, n)), theta, N), np.zeros((n, n)))

    a = np.zeros((n, n), dtype=complex)
    a[4, 3] = 2.0  # strictly lower, r(A) = 2 <= N, crosses at 1, 2
    t = up.triangulate_check(a, theta, N)
    expected = a @ mk.perm_matrix(mk.cycle_perm(n, 1, n).power(N))
    assert np.array_equal(t, expected)
    assert mk.is_strictly_lower_triangular(t, 1e-9)


def test_triangulate_check_large_instance(rng):
    from dsh_lab.verify import banded_cross_fixture

    theta, a = banded_cross_fixture(rng, 18, 3)
    t = up.triangulate_check(a, theta, 3)
    assert mk.is_strictly_lower_triangular(t, 1e-9)


def test_triangulate_check_reports_violations(rng):
    n, N = 6, 2
    theta = (1.0,) + (0.0,) * (n - 1)
    wide = np.zeros((n, n), dtype=complex)
    wide[5, 0] = 1.0  # radius n
    with pytest.raises(ValueError, match="radius"):
        up.triangulate_check(wide, theta, N)
    dense = rng.standard_normal((n, n)) + 0j
    with pytest.raises(ValueError, match="zero cross"):
        up.triangulate_check(np.where(np.abs(np.subtract.outer(range(n), range(n))) >= 2,
                                      0, dense), theta, N)
