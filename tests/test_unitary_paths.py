import re

import numpy as np
import pytest

from dsh_lab import matrixkit as mk
from dsh_lab import unitary_paths as up
from dsh_lab.verify import random_crossed_matrix, random_valid_theta
from conftest import (assert_permutation_index, condensation_matrix, cycle_power_ref,
                      triangulating_matrix)


def u(n, k1, k2, t):
    return up.u_transposition(up.TranspositionPathSpec(k1, k2, n), t)


def transposition_profile(t):
    """The 2x2 core (g1, g2, g3, g4) of the transposition path at time t, the
    reference for the kernel: g1 = g4 = e^{-i pi t/2} cos(pi t/2) and
    g2 = g3 = i e^{-i pi t/2} sin(pi t/2), and the exact flip (0, 1, 1, 0) at
    t = 1 rather than its rounding (cos(pi/2) = 6.1e-17)."""
    if t == 1.0:
        zero, one = np.complex128(0.0), np.complex128(1.0)
        return zero, one, one, zero
    phase = np.exp(-1j * np.pi * t / 2)
    g1 = phase * np.cos(np.pi * t / 2)
    g2 = 1j * phase * np.sin(np.pi * t / 2)
    return g1, g2, g2, g1


def test_transposition_endpoints():
    spec = up.TranspositionPathSpec(2, 4, 5)
    assert np.max(np.abs(up.u_transposition(spec, 0.0) - np.eye(5))) <= 1e-12
    swap = mk.perm_matrix(mk.Permutation.transposition(5, 2, 4))
    assert np.max(np.abs(up.u_transposition(spec, 1.0) - swap)) <= 1e-12


def test_transposition_profile_is_the_exact_flip_at_one():
    assert transposition_profile(1.0) == (0, 1, 1, 0)
    assert all(type(g) is np.complex128 for g in transposition_profile(1.0))
    spec = up.TranspositionPathSpec(2, 4, 5)
    swap = mk.perm_matrix(mk.Permutation.transposition(5, 2, 4))
    assert np.array_equal(up.u_transposition(spec, 1.0), swap)
    core = up.u_transposition(up.TranspositionPathSpec(1, 2, 2), 1.0)
    assert (core[0, 0], core[0, 1], core[1, 0], core[1, 1]) == transposition_profile(1.0)


def test_transposition_profile_unchanged_inside(rng):
    # the kernel's core against the formula everywhere but t = 1
    for t in [0.0, 0.5, np.nextafter(1.0, 0.0), 1e-300] + list(rng.random(20)):
        core = up.u_transposition(up.TranspositionPathSpec(1, 2, 2), float(t))
        got = (core[0, 0], core[0, 1], core[1, 0], core[1, 1])
        assert all(abs(x - y) <= 1e-15 for x, y in zip(got, transposition_profile(t)))


def _old_rmul_transposition(m, a, b, t):
    """The kernel as a fancy-indexed product with the 2x2 core."""
    g1, g2, _, _ = transposition_profile(t)
    a, b = min(a, b), max(a, b)
    m[:, [a - 1, b - 1]] = m[:, [a - 1, b - 1]] @ np.array([[g1, g2], [g2, g1]])


def test_kernel_swaps_columns_exactly_at_one_and_is_identity_at_zero(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a, b = (int(x) + 1 for x in rng.choice(n, 2, replace=False))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m[rng.random((n, n)) < 0.3] = np.inf  # an exact swap moves even inf entries
        out = m.copy()
        up._rmul_transposition(out, a, b, 1.0)
        want = m.copy()
        want[:, [a - 1, b - 1]] = m[:, [b - 1, a - 1]]
        assert out.tobytes() == want.tobytes()
        out = m.copy()
        up._rmul_transposition(out, a, b, 0.0)
        assert out.tobytes() == m.tobytes()
        up._rmul_transposition(out, a, a, 0.5)
        assert out.tobytes() == m.tobytes()
        # a stack: each matrix swaps or stays as its own parameter says
        ts = rng.choice([0.0, 1.0], 4)
        stack = np.array([m] * 4)
        up._rmul_transposition(stack, a, b, ts)
        for k in range(4):
            assert stack[k].tobytes() == (want if ts[k] == 1.0 else m).tobytes()


def test_kernel_agrees_with_the_core_product_inside(rng):
    for t in [0.5, np.nextafter(1.0, 0.0), 1e-300, 1e-8] + list(rng.random(30)):
        n = int(rng.integers(2, 12))
        a, b = (int(x) + 1 for x in rng.choice(n, 2, replace=False))
        m = np.exp(2j * np.pi * rng.random((n, n))) * rng.random((n, n))  # |entries| <= 1
        new, old = m.copy(), m.copy()
        up._rmul_transposition(new, a, b, float(t))
        _old_rmul_transposition(old, a, b, float(t))
        assert np.max(np.abs(new - old)) <= 1e-15


def test_stacked_kernel_is_the_kernel_on_each_matrix(rng):
    for _ in range(30):
        n, K = int(rng.integers(2, 9)), int(rng.integers(1, 9))
        a, b = (int(x) + 1 for x in rng.choice(n, 2, replace=False))
        m = rng.standard_normal((K, n, n)) + 1j * rng.standard_normal((K, n, n))
        ts = np.where(rng.random(K) < 0.4, rng.choice([0.0, 1.0], K), rng.random(K))
        out = m.copy()
        up._rmul_transposition(out, a, b, ts)
        for k in range(K):
            one = m[k].copy()
            up._rmul_transposition(one, a, b, float(ts[k]))
            assert out[k].tobytes() == one.tobytes()


# the parameter grids of the conj, fullconj and condense suites
SUITE_GRIDS = [np.linspace(0.0, 1.0, 20), np.linspace(0.0, 1.0, 5),
               np.array([0.31, 0.77, 1.0]), np.linspace(0.0, 1.0, 50)]


def _random_grid(rng, size=40):
    """Random parameters in [0, 1], exact 0 and 1 among them, in random order."""
    ts = rng.random(size)
    ts[rng.choice(size, 6, replace=False)] = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    return ts


def _assert_stack_of_scalar_values(stack, value, ts):
    assert stack.shape[0] == len(ts) and not stack.flags.writeable
    for v, t in zip(stack, ts):
        assert v.tobytes() == value(float(t)).tobytes()


@pytest.mark.parametrize("grid", range(len(SUITE_GRIDS) + 1))
def test_paths_on_an_array_are_the_scalar_values_bitwise(rng, grid):
    ts = SUITE_GRIDS[grid] if grid < len(SUITE_GRIDS) else _random_grid(rng)
    for _ in range(6):
        n = int(rng.integers(2, 11))
        k1, k2 = sorted(int(x) + 1 for x in rng.choice(n, 2, replace=False))
        spec = up.TranspositionPathSpec(k1, k2, n)
        _assert_stack_of_scalar_values(up.u_transposition(spec, ts),
                                       lambda t: up.u_transposition(spec, t), ts)

        N = int(rng.integers(1, 4))
        n = int(rng.integers(N, 12))
        amb = int(rng.integers(N, n + 1))
        k = int(rng.integers(N, amb + 1))
        _assert_stack_of_scalar_values(up.eta_path(k, n, N, ts, ambient=amb),
                                       lambda t: up.eta_path(k, n, N, t, ambient=amb), ts)

        n = int(rng.integers(4, 17))
        m = int(rng.integers(1, min(5, n + 1)))
        path = up.condense_path(n, sorted(int(z) for z in rng.choice(n, m, replace=False) + 1))
        _assert_stack_of_scalar_values(path(ts), path, ts)


def _ramp_ref(j, i, theta):
    """The piecewise definition: 0 below (i-1)/j, 1 above i/j, linear between."""
    lo, hi = (i - 1) / j, i / j
    if theta <= lo:
        return 0.0
    if theta >= hi:
        return 1.0
    return (theta - lo) / (hi - lo)


def test_ramp_on_an_array_is_the_scalar_ramp(rng):
    for j in range(1, 9):
        for i in range(1, j + 1):
            lo, hi = (i - 1) / j, i / j
            ts = np.clip([lo, hi, np.nextafter(lo, 2.0), np.nextafter(hi, -1.0),
                          np.nextafter(lo, -1.0), np.nextafter(hi, 2.0), *rng.random(6)], 0, 1)
            got = up.ramp(j, i, ts)
            assert got.tobytes() == np.array([_ramp_ref(j, i, float(t)) for t in ts]).tobytes()
            assert got.tobytes() == np.array([up.ramp(j, i, float(t)) for t in ts]).tobytes()
            assert (got[0], got[1]) == (0.0, 1.0)


def test_array_parameters_are_checked_entry_by_entry():
    spec = up.TranspositionPathSpec(1, 2, 3)
    path = up.condense_path(3, [2])
    for ts, k in (([0.0, np.nan, 1.0], 1), ([0.5, 1.0, 1.5, 2.0], 2), ([-0.0, -1e-300], 1)):
        message = re.escape(f"path parameter {ts[k]} at index {k} outside [0, 1]")
        for evaluate in (lambda t: up.u_transposition(spec, t),
                         lambda t: up.eta_path(1, 3, 1, t), path):
            with pytest.raises(ValueError, match=message):
                evaluate(np.array(ts))
    with pytest.raises(ValueError, match="path parameter nan outside"):
        up.u_transposition(spec, float("nan"))


def _zero_one_only(v):
    return bool(np.all((v == 0) | (v == 1)))


def test_pipeline_unitaries_at_path_ends_are_exact_permutations(rng, monkeypatch):
    from dsh_lab import dynamics as dyn
    from dsh_lab import srone_pipeline as sp

    fib = dyn.Substitution.fibonacci()
    bases = dyn.fibonacci_prefix_bases(fib, 14)
    chain = dyn.build_cylinder_chain(fib, bases[:3], base_horizon=1, max_points_per_level=16)
    while chain.towers[-1].model.smallest_dim < 67:
        chain = dyn.extend_cylinder_chain(fib, chain, bases[chain.depth], 16)
    maps = list(chain.maps)
    planted = sp.plant_singular_element(chain.model(1), rng, 0.05)

    gathered = []

    def gather_multi(*args):
        gathered.append(up.gather_multi(*args))
        return gathered[-1]

    monkeypatch.setattr(sp, "gather_multi", gather_multi)
    zc = sp.make_zero_cross(planted, 0.25 / 4)
    prop, image = sp.propagate_crosses(maps, zc)
    g_prime, _, _ = sp.open_block_points(image, 0.25 / 4)
    assert any(np.any(v) for v in g_prime.values.values())   # not wiped
    v3, g_second, _ = sp.condense_crosses(g_prime, prop.M, prop.N)
    v4, _, _ = sp.triangulate(g_second, prop.N)

    # the pipeline holds each unitary as a permutation index whose 0/1
    # matrix is exactly the path's end
    nm = prop.N * prop.M
    assert _zero_one_only(up.condense_path(nm, tuple(1 + a * prop.M for a in range(prop.N)))(1.0))
    model = g_second.model
    assert len(gathered) == len(model.free_refs())
    for ref, v in zip(model.free_refs(), gathered):
        assert _zero_one_only(v)
        assert_permutation_index(prop.gather[ref], v)
        n = model.dim(ref.level)
        assert_permutation_index(v3[ref], condensation_matrix(n, prop.M, prop.N))
        assert_permutation_index(v4[ref], triangulating_matrix(n, prop.N))


def test_transposition_midpoint_profile():
    g1, g2, g3, g4 = transposition_profile(0.5)
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
    assert np.array_equal(up.eta_path(2, 6, 2, 1.0), np.asarray(expected))


@pytest.mark.parametrize("n, N", [(1, 0), (1, 3), (5, 0), (5, 1), (5, 2), (5, 5), (5, 7),
                                  (5, 12), (8, 3)])
def test_cycle_power_matches_its_definition(n, N):
    c = up.cycle_power(n, N)
    assert np.array_equal(c, cycle_power_ref(n, N))
    assert np.array_equal(c, np.roll(np.eye(n, dtype=np.complex128), N, axis=0))
    assert c.dtype == np.complex128 and not c.flags.writeable
    if N % n == 0:
        assert np.array_equal(c, np.eye(n))


def test_eta_rejects_out_of_range():
    with pytest.raises(IndexError):
        up.eta_path(1, 6, 2, 0.5)
    for N in (0, -1):
        with pytest.raises(ValueError, match="need N >= 1"):
            up.eta_path(2, 6, N, 1.0)


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


def _gathered(v, a):
    """A conjugated by its gathering unitary, V A V*."""
    return v @ a @ v.conj().T


def test_gather_multi_vacuous_and_zero(rng):
    # one window: gather_multi with a single window start
    n = 6
    a = random_crossed_matrix(rng, n, [3])
    delta = np.zeros(n)
    delta[2] = 1.0
    assert np.array_equal(up.gather_multi(a, delta, [3], 3), np.eye(n))
    # the zero matrix has a cross everywhere, so any full gate is accepted
    z = np.zeros((n, n))
    delta2 = np.zeros(n)
    delta2[4] = 1.0
    v2 = up.gather_multi(z, delta2, [3], 3)
    assert mk.is_unitary(v2)
    assert np.array_equal(_gathered(v2, z), z)


def test_gather_multi_moves_cross(rng):
    a = random_crossed_matrix(rng, 8, [3, 5])
    delta = np.zeros(8)
    delta[4] = 1.0  # position 5
    v = up.gather_multi(a, delta, [3], 3)
    assert mk.has_zero_cross(_gathered(v, a), 3, 1e-9)
    assert mk.is_unitary(v)


def test_gather_multi_precondition_errors(rng):
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


def test_gather_multi_matches_window_products(rng):
    a = random_crossed_matrix(rng, 9, [4])
    delta = np.zeros(9)
    delta[3] = 1.0
    v1 = _window_product(9, 2, delta, 4)
    assert np.array_equal(v1, up.gather_multi(a, delta, [2], 4))

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
            single = up.gather_multi(a, delta, [k], m_window)
            # in place against matrix products: apart by rounding only
            assert np.max(np.abs(single - _window_product(n, k, delta, m_window))) <= 1e-15
            product = single @ product
        assert np.array_equal(up.gather_multi(a, delta, ks, m_window), product)


def test_gather_multi_diagonal_and_radius(rng):
    d = np.diag(rng.standard_normal(12) + 1j)
    d[2, 2] = 0  # zero cross at 3
    d[8, 8] = 0  # zero cross at 9
    delta = np.zeros(12)
    delta[2] = 1.0
    delta[8] = 1.0
    b = _gathered(up.gather_multi(d, delta, [1, 7], 4), d)
    assert mk.has_zero_cross(b, 1, 1e-9) and mk.has_zero_cross(b, 7, 1e-9)
    assert mk.diagonal_radius(b, 1e-9) <= 4

    a = random_crossed_matrix(rng, 14, [2, 9])
    a = np.where(np.abs(np.subtract.outer(range(14), range(14))) >= 3, 0, a)  # r(A) <= 3
    delta2 = np.zeros(14)
    delta2[1] = 1.0
    delta2[8] = 1.0
    r_before = mk.diagonal_radius(a)
    b2 = _gathered(up.gather_multi(a, delta2, [1, 8], 4), a)
    assert mk.diagonal_radius(b2, 1e-9) <= r_before + 3 <= 6


@pytest.mark.parametrize("gate, message", [
    ((0.0, 1.0, 0.0, np.nan, 0.0, 0.0), "path parameter nan at index 3 outside"),
    ((0.0, 1.0, 0.0, -0.1, 0.0, 0.0), "path parameter -0.1 at index 3 outside"),
    ((0.0, 1.0, 0.0, 1.5, 0.0, 0.0), "path parameter 1.5 at index 3 outside"),
    ((0.0, 1.0, 0.0, 0.0, 0.0), "delta has length 5, matrix has dimension 6"),
    (((0.0, 1.0, 0.0), (0.0, 0.0, 0.0)), "nonempty 1-D array, got shape (2, 3)"),
])
def test_gather_multi_rejects_bad_gates(rng, gate, message):
    a = random_crossed_matrix(rng, 6, [2])
    with pytest.raises(ValueError, match=re.escape(message)):
        up.gather_multi(a, gate, [1], 3)


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
    expected = cycle_power_ref(n, N)
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


@pytest.mark.parametrize("theta, message", [
    ((), "nonempty 1-D array, got shape (0,)"),
    (((1.0, 0.0), (0.0, 0.0)), "nonempty 1-D array, got shape (2, 2)"),
    ((1.0, 0.0, 0.0, np.nan), "path parameter nan at index 3 outside"),
])
@pytest.mark.parametrize("validate", [True, False])
def test_vn_rejects_malformed_theta(theta, message, validate):
    with pytest.raises(ValueError, match=re.escape(message)):
        up.v_n(theta, 1, validate=validate)


def _v_n_loop(theta, N):
    """v_n as a loop over every k, reading theta_{k+1} 1-based from a tuple
    of Python floats: the reference for the array form."""
    vals = tuple(float(x) for x in theta)
    n = len(vals)
    out = np.array(cycle_power_ref(n, N))
    for k in range(N, n):
        t = vals[k]  # theta_{k+1}
        if t > 0.0:
            for j in range(1, N + 1):
                up._rmul_transposition(out, k - N + j, n - N + j, t)
    return out


def _theta_violations(vals, N):
    """Every v_n constraint that vals breaks, as (constraint name, detail),
    entry by entry: the reference for the first one v_n reports."""
    out = []
    n = len(vals)
    if vals[0] != 1.0:
        out.append(("first_entry", f"first entry is {vals[0]}, not 1"))
    for k in range(max(0, n - N), n):
        if vals[k] != 0.0:
            out.append(("final_entries", f"entry {k + 1} = {vals[k]} inside the final {N}"))
            break
    for k in range(n - N + 1):
        window = vals[k:k + N]
        if sum(1 for v in window if v > 0.0) > 1:
            out.append(("window", f"more than one nonzero in entries {k + 1}..{k + N}"))
            break
    return out


def test_vn_matches_the_loop_bitwise(rng):
    fractional = 0
    for _ in range(150):
        N = int(rng.integers(1, 4))
        n = int(rng.integers(N + 1, 41))
        theta = random_valid_theta(rng, n, N)
        fractional += any(0.0 < x < 1.0 for x in theta)
        expected = _v_n_loop(theta, N).tobytes()
        for form in (theta, list(theta), np.array(theta)):
            assert up.v_n(form, N).tobytes() == expected
        # the blocks of the decomposition go through validate=False
        ones = [i for i, x in enumerate(theta) if x == 1.0]
        for lo, hi in zip(ones, ones[1:] + [n]):
            block = np.array(theta[lo:hi])
            assert up.v_n(block, N, validate=False).tobytes() == _v_n_loop(block, N).tobytes()
    assert fractional >= 30


def test_check_theta_names_the_first_violation(rng):
    seen = {"first_entry": 0, "final_entries": 0, "window": 0}
    for _ in range(600):
        N = int(rng.integers(1, 4))
        n = int(rng.integers(1, 41))
        theta = np.where(rng.random(n) < 0.8, 0.0, np.where(rng.random(n) < 0.5, 1.0, rng.random(n)))
        if rng.random() < 0.7:
            theta[0] = 1.0
        bad = _theta_violations(tuple(float(x) for x in theta), N)
        if not bad:
            up._check_theta(theta, N)
            continue
        name, detail = bad[0]
        seen[name] += 1
        with pytest.raises(up.ThetaInvariantError) as got:
            up.v_n(theta, N)
        assert got.value.constraint == name
        assert str(got.value) == f"theta invariant '{name}' violated: {detail}"
    assert min(seen.values()) >= 30


def test_triangulate_check_zero_and_shift():
    # A v_n is strictly lower triangular when r(A) <= N and A has the crosses
    n, N = 6, 2
    theta = (1.0,) + (0.0,) * (n - 1)
    assert np.array_equal(np.zeros((n, n)) @ up.v_n(theta, N), np.zeros((n, n)))

    a = np.zeros((n, n), dtype=complex)
    a[4, 3] = 2.0  # strictly lower, r(A) = 2 <= N, crosses at 1, 2
    t = a @ up.v_n(theta, N)
    expected = a @ cycle_power_ref(n, N)
    assert np.array_equal(t, expected)
    assert mk.is_strictly_lower_triangular(t, 1e-9)


def test_triangulate_check_large_instance(rng):
    from dsh_lab.verify import banded_cross_fixture

    theta, a = banded_cross_fixture(rng, 18, 3)
    assert mk.is_strictly_lower_triangular(a @ up.v_n(theta, 3), 1e-9)
