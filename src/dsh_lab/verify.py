"""Named property suites driving every module's invariants.

Each suite runs seeded trials (or an exhaustive sweep where the property is
finite) and reports pass/fail with the first counterexample. The CLI's
``verify`` command and the acceptance tests both call into this module so
the gate and the tool agree by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import dsh_model as dm
from . import dynamics as dyn
from . import unitary_paths as up
from .matrixkit import (
    DEFAULT_ATOL,
    PATH_ATOL,
    Permutation,
    cycle_perm,
    diagonal_radius,
    direct_sum,
    has_block_point,
    has_zero_cross,
    is_unitary,
    perm_matrix,
)

class CounterexampleFound(AssertionError):
    pass


def _check(ok: bool, detail: str) -> None:
    if not ok:
        raise CounterexampleFound(detail)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failure: str | None
    seconds: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failure": self.failure,
            "seconds": round(self.seconds, 6),
        }


# ---------------------------------------------------------------- fixtures


def random_crossed_matrix(rng: np.random.Generator, n: int, zs) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for z in zs:
        a[z - 1, :] = 0
        a[:, z - 1] = 0
    return a


def random_valid_theta(rng: np.random.Generator, n: int, N: int,
                       allow_interior: bool = True) -> tuple[float, ...]:
    """A parameter vector satisfying the three v_n constraints."""
    vals = [0.0] * n
    vals[0] = 1.0
    pos = 0
    while True:
        pos += int(rng.integers(N, 2 * N + 2))
        if pos >= n - N:
            break
        if allow_interior and rng.random() < 0.35:
            vals[pos] = float(rng.uniform(0.1, 0.9))
        else:
            vals[pos] = 1.0
    return tuple(vals)


def random_model(rng: np.random.Generator, max_levels: int = 4,
                 max_dim: int = 24) -> dm.FiniteDshModel:
    """A random normalized model: levels <= 4, n_1 >= 3, dims <= max_dim."""
    n1 = int(rng.integers(3, 7))
    n_free1 = int(rng.integers(2, 5))
    levels = [dm.Level(n1, tuple(dm.ModelPoint(f"p1{chr(97 + i)}") for i in range(n_free1)))]
    pool = [dm.PointRef(1, p.id) for p in levels[0].points]
    target_levels = int(rng.integers(1, max_levels + 1))
    for i in range(2, target_levels + 1):
        prev_dim = levels[-1].dim
        dims = {r: levels[r.level - 1].dim for r in pool}
        glist = None
        for _ in range(40):
            t = int(rng.integers(2, 4))
            cand = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(t))
            total = sum(dims[r] for r in cand)
            if prev_dim <= total <= max_dim:
                glist = cand
                break
        if glist is None:
            break
        dim_i = sum(dims[r] for r in glist)
        points = [dm.ModelPoint(f"p{i}g0", glist)]
        if rng.random() < 0.5:
            for _ in range(40):
                t = int(rng.integers(2, 4))
                cand = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(t))
                if sum(dims[r] for r in cand) == dim_i:
                    points.append(dm.ModelPoint(f"p{i}g1", cand))
                    break
        n_free = int(rng.integers(1, 4))
        points.extend(dm.ModelPoint(f"p{i}{chr(97 + k)}") for k in range(n_free))
        levels.append(dm.Level(dim_i, tuple(points)))
        pool.extend(dm.PointRef(i, f"p{i}{chr(97 + k)}") for k in range(n_free))
    return dm.FiniteDshModel(tuple(levels))


def banded_cross_fixture(rng: np.random.Generator, n: int, N: int):
    """(theta, A) meeting the triangulation preconditions."""
    theta = random_valid_theta(rng, n, N)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for i in range(n):
        for j in range(n):
            if abs(i - j) >= N:
                a[i, j] = 0
    for i, v in enumerate(theta):
        if v > 0:
            for z in range(i + 1, i + N + 1):
                a[z - 1, :] = 0
                a[:, z - 1] = 0
    return theta, a


# ------------------------------------------------------------------ suites


def _suite_conj(rng: np.random.Generator, trials: int) -> int:
    n_max = 10 if trials >= 50 else 6
    t_samples = np.linspace(0.0, 1.0, 20 if trials >= 50 else 5)
    checks = 0
    for n in range(3, n_max + 1):
        for k1 in range(1, n - 1):
            for k2 in range(k1 + 1, n):
                for k3 in range(k2 + 1, n + 1):
                    swap = perm_matrix(Permutation.transposition(n, k2, k3))
                    for t in t_samples:
                        lhs = swap @ up.u_transposition(
                            up.TranspositionPathSpec(k1, k2, n), t) @ swap
                        rhs = up.u_transposition(up.TranspositionPathSpec(k1, k3, n), t)
                        _check(np.max(np.abs(lhs - rhs)) <= DEFAULT_ATOL,
                               f"conjugation identity failed at n={n}, "
                               f"(k1,k2,k3)=({k1},{k2},{k3}), t={t}")
                        checks += 1
    return checks


def _suite_fullconj(rng: np.random.Generator, trials: int) -> int:
    n_max = 10 if trials >= 50 else 7
    thetas = (0.31, 0.77, 1.0)
    checks = 0
    for n in range(3, n_max + 1):
        for N in range(1, 4):
            for i in range(2 * N, n - N + 1):
                for k in range(N, i - N + 1):
                    big = up.eta_path(i, n, N, 1.0)
                    for th in thetas:
                        lhs = up.eta_path(k, n, N, th)
                        rhs = big @ up.eta_path(k, n, N, th, ambient=i) @ big
                        _check(np.max(np.abs(lhs - rhs)) <= DEFAULT_ATOL,
                               f"nesting identity failed at n={n}, N={N}, i={i}, "
                               f"k={k}, theta={th}")
                        checks += 1
    return checks


def _suite_elementary(rng: np.random.Generator, trials: int) -> int:
    n_max = 14 if trials >= 50 else 8
    checks = 0
    for n in range(3, n_max + 1):
        for N in range(1, 4):
            for i in range(N + 1, n - N + 1):
                if i - 1 < N:
                    continue
                lhs = perm_matrix(cycle_perm(n, 1, n).power(N)) @ perm_matrix(
                    up.eta_permutation(i - 1, n, N))
                rhs = perm_matrix(cycle_perm(n, 1, i - 1).power(N)) @ perm_matrix(
                    cycle_perm(n, i, n).power(N))
                _check(np.array_equal(lhs, rhs),
                       f"cycle/block-swap identity failed at n={n}, N={N}, i={i}")
                checks += 1
    return checks


def _suite_permute(rng: np.random.Generator, trials: int) -> int:
    checks = 0
    for _ in range(trials):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(1, min(4, n)))
        picks = rng.choice(np.arange(1, n + 1), size=m + 1, replace=False)
        k = int(picks[0])
        zs = sorted(int(x) for x in picks[1:])
        a = random_crossed_matrix(rng, n, zs)
        ts = [float(rng.random()) for _ in zs]
        if rng.random() < 0.6:
            ts[int(rng.integers(0, m))] = 1.0
        v = np.eye(n, dtype=np.complex128)
        for z, t in zip(zs, ts):
            v = up.u_transposition(up.TranspositionPathSpec(min(k, z), max(k, z), n), t) @ v
        b = v @ a @ v.conj().T
        touched = set([k] + zs)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i not in touched and j not in touched:
                    _check(abs(b[i - 1, j - 1] - a[i - 1, j - 1]) <= PATH_ATOL,
                           f"entry ({i},{j}) moved although outside the touched set")
                elif i in touched and j not in touched and abs(a[k - 1, j - 1]) == 0:
                    _check(abs(b[i - 1, j - 1]) <= PATH_ATOL,
                           f"entry ({i},{j}) appeared without source row entry")
                elif j in touched and i not in touched and abs(a[i - 1, k - 1]) == 0:
                    _check(abs(b[i - 1, j - 1]) <= PATH_ATOL,
                           f"entry ({i},{j}) appeared without source column entry")
        if any(t == 1.0 for t in ts):
            _check(has_zero_cross(b, k, PATH_ATOL), f"no zero cross created at {k}")
        checks += 1
    return checks


def _suite_block1(rng: np.random.Generator, trials: int) -> int:
    checks = 0
    for _ in range(trials):
        n = int(rng.integers(5, 13))
        m_window = int(rng.integers(2, 5))
        k = int(rng.integers(1, n - m_window + 2))
        window = list(range(k, k + m_window))
        crossed = sorted({z for z in window if rng.random() < 0.5} | {int(rng.choice(window))})
        a = random_crossed_matrix(rng, n, crossed)
        delta = np.zeros(n)
        for z in crossed:
            delta[z - 1] = rng.uniform(0.2, 0.95)
        delta[int(rng.choice(crossed)) - 1] = 1.0
        v, b = up.gather_multi(a, delta, [k], m_window)
        _check(has_zero_cross(b, k, PATH_ATOL), f"gathering left no cross at {k}")
        _check(is_unitary(v), "gathering unitary is not unitary")
        # vacuous case: gate supported at k only
        vac = np.zeros(n)
        vac[k - 1] = 1.0
        a2 = random_crossed_matrix(rng, n, [k])
        v2, b2 = up.gather_multi(a2, vac, [k], m_window)
        _check(np.array_equal(v2, np.eye(n)), "vacuous product is not the identity")
        _check(np.array_equal(b2, a2), "vacuous gathering changed the matrix")
        checks += 1
    return checks


def _suite_block2(rng: np.random.Generator, trials: int) -> int:
    checks = 0
    for _ in range(trials):
        n = int(rng.integers(8, 25))
        m_window = int(rng.integers(2, 5))
        ks = []
        pos = int(rng.integers(1, m_window + 1))
        while pos <= n - m_window + 1 and len(ks) < 4:
            ks.append(pos)
            pos += m_window + int(rng.integers(0, 3))
        crossed = [int(rng.integers(k, k + m_window)) for k in ks]
        a = random_crossed_matrix(rng, n, crossed)
        delta = np.zeros(n)
        for z in crossed:
            delta[z - 1] = 1.0
        r_before = diagonal_radius(a)
        v, b = up.gather_multi(a, delta, ks, m_window)
        for k in ks:
            _check(has_zero_cross(b, k, PATH_ATOL), f"missing cross at {k} (n={n}, M={m_window})")
        _check(diagonal_radius(b, PATH_ATOL) <= r_before + m_window - 1,
               f"radius grew past M-1 (n={n}, M={m_window})")
        checks += 1
    return checks


def _suite_condense(rng: np.random.Generator, trials: int, theta_samples: int = 50) -> int:
    checks = 0
    grid = np.linspace(0.0, 1.0, theta_samples)
    for _ in range(trials):
        n = int(rng.integers(4, 17))
        m = int(rng.integers(1, min(5, n + 1)))
        zs = sorted(int(z) for z in rng.choice(np.arange(1, n + 1), size=m, replace=False))
        a = random_crossed_matrix(rng, n, zs)
        r_before = diagonal_radius(a)
        path = up.condense_path(n, zs)
        _check(np.array_equal(path(0.0), np.eye(n)), "path does not start at the identity")
        for th in grid:
            v = path(float(th))
            _check(is_unitary(v), f"path value at theta={th} is not unitary")
            b = v @ a @ v.conj().T
            _check(diagonal_radius(b, PATH_ATOL) <= r_before + 2,
                   f"radius exceeded r(A)+2 at theta={th} (n={n}, zs={zs})")
        v1 = path(1.0)
        b1 = v1 @ a @ v1.conj().T
        for k in range(1, m + 1):
            _check(has_zero_cross(b1, k, PATH_ATOL),
                   f"endpoint misses cross at {k} (n={n}, zs={zs})")
        checks += 1
    return checks


def _suite_vn(rng: np.random.Generator, trials: int) -> int:
    checks = 0
    for _ in range(trials):
        N = int(rng.integers(1, 4))
        n = int(rng.integers(N + 2, 21))
        theta = random_valid_theta(rng, n, N)
        v = up.v_n(theta, N)
        _check(is_unitary(v), "v_n is not unitary")
        ones = [i + 1 for i, x in enumerate(theta) if x == 1.0]
        cuts = ones + [n + 1]
        blocks = [up.v_n(theta[cuts[a] - 1:cuts[a + 1] - 1], N, validate=False)
                  for a in range(len(ones))]
        _check(float(np.max(np.abs(v - direct_sum(blocks)))) <= PATH_ATOL,
               f"block decomposition residual above 1e-9 (n={n}, N={N}, theta={theta})")
        checks += 1
    return checks


def _suite_triangulate(rng: np.random.Generator, trials: int) -> int:
    checks = 0
    for _ in range(trials):
        N = int(rng.integers(1, 4))
        n = int(rng.integers(max(6, N + 2), 21))
        theta, a = banded_cross_fixture(rng, n, N)
        t = up.triangulate_check(a, theta, N)  # raises on any unsound entry
        _check(t.shape == (n, n), "unexpected shape")
        checks += 1
    return checks


def _suite_blockchar(rng: np.random.Generator, trials: int,
                     elements_per_model: int = 100) -> int:
    checks = 0
    for _ in range(trials):
        model = random_model(rng)
        _check(dm.validate_model(model).ok, "random model failed validation")
        starts = dm.block_starts(model)
        sample = [dm.random_element(model, rng) for _ in range(elements_per_model)]
        for ref in model.all_refs():
            n = model.dim(ref.level)
            # |a_ij| <= atol holds for every sample iff it holds for their entrywise max
            envelope = np.max(np.abs([dm.eval_element(e, ref) for e in sample]), axis=0)
            for k in range(1, n + 1):
                if k in starts[ref]:
                    try:
                        dm.witness_no_block_point(model, ref, k)
                        raise CounterexampleFound(
                            f"witness exists at genuine block start {ref}, k={k}")
                    except ValueError:
                        pass
                    _check(has_block_point(envelope, k),
                           f"element without block point at start {ref}, k={k}")
                else:
                    w = dm.witness_no_block_point(model, ref, k)
                    _check(not has_block_point(dm.eval_element(w, ref), k),
                           f"witness fails to break block point at {ref}, k={k}")
                checks += 1
    return checks


def _suite_indicator(rng: np.random.Generator, trials: int) -> int:
    checks = 0
    for _ in range(trials):
        model = random_model(rng)
        n1 = model.smallest_dim
        m_window = int(rng.integers(1, n1))
        offsets = [0]
        while True:
            nxt = offsets[-1] + m_window + int(rng.integers(0, 2))
            if nxt > n1 - m_window - 1:
                break
            offsets.append(nxt)
        theta = dm.build_indicator(model, m_window, offsets)
        starts = dm.block_starts(model)
        for ref in model.all_refs():
            n = model.dim(ref.level)
            v = dm.eval_element(theta, ref)
            _check(np.array_equal(v, np.diag(np.diag(v))), f"not diagonal at {ref}")
            d = np.real(np.diag(v))
            _check(bool(np.all((0 <= d) & (d <= 1))), f"entries outside [0,1] at {ref}")
            for k in range(n - m_window + 1, n + 1):
                _check(d[k - 1] == 0, f"final-{m_window} entry {k} nonzero at {ref}")
            for k in range(1, n - m_window + 2):
                _check(np.count_nonzero(d[k - 1:k - 1 + m_window]) <= 1,
                       f"two nonzeros in window {k}..{k + m_window - 1} at {ref}")
            for start in starts[ref]:
                for kt in offsets:
                    _check(d[start + kt - 1] == 1.0,
                           f"missing 1 at block start {start}+{kt} at {ref}")
            checks += 1
        # a flag demanding zero at a demanded-1 position must be infeasible
        any_ref = model.all_refs()[0]
        try:
            dm.build_indicator(model, m_window, offsets, {any_ref: {1}})
            raise CounterexampleFound("colliding flag was not rejected")
        except dm.InfeasibleIndicatorError:
            pass
        checks += 1
    return checks


def _embed_generators():
    fives = [
        ("one", lambda w: 1.0),
        ("first_zero", lambda w: 1.0 if w[0] == "0" else 0.0),
        ("weight", lambda w: 0.25 * sum(int(c) for c in w) + 0.1),
        ("phase", lambda w: complex(0.3, 0.7) if w.startswith("01") else complex(-0.2, 0.1)),
        ("mix", lambda w: complex(int(w[0]) - 0.5, 0.4 * int(w[-1]))),
    ]

    def gs_for(base: str):
        def masked(val):
            return lambda w: 0.0 if w.startswith(base) else val(w)

        return [
            ("g_one", masked(lambda w: 1.0)),
            ("g_sign", masked(lambda w: -1.0 if w[0] == "1" else 0.5)),
            ("g_phase", masked(lambda w: complex(0.2, -0.6))),
        ]

    return fives, gs_for


def _suite_embed(rng: np.random.Generator, trials: int) -> int:
    fib = dyn.Substitution.fibonacci()
    chain = dyn.build_cylinder_chain(fib, ["0", "01", "0100101"], base_horizon=3)
    arity = 3
    fives, gs_for = _embed_generators()
    checks = 0
    pairs = list(zip(chain.towers, chain.towers[1:], chain.maps))
    for src, tgt, emb in pairs:
        for name, f in fives:
            lhs = dm.apply_diagonal_map(emb, dyn.generator_element_f(src, f, arity))
            rhs = dyn.generator_element_f(tgt, f, arity)
            _check(dm.norm_dist(lhs, rhs) <= DEFAULT_ATOL,
                   f"f-generator '{name}' breaks the embedding {src.base} -> {tgt.base}")
            checks += 1
        for name, g in gs_for(src.base):
            lhs = dm.apply_diagonal_map(emb, dyn.generator_element_ug(src, g, arity))
            # g vanishes on the source cylinder, hence on the nested target one,
            # so the same shift-element presentation applies downstairs
            rhs = dyn.generator_element_ug(tgt, g, arity)
            _check(dm.norm_dist(lhs, rhs) <= DEFAULT_ATOL,
                   f"shift-generator '{name}' breaks the embedding {src.base} -> {tgt.base}")
            checks += 1
    # composite map agrees with the two-step factorization on a generator
    comp = dm.compose_diagonal_maps(chain.maps[1], chain.maps[0])
    f = fives[2][1]
    lhs = dm.apply_diagonal_map(comp, dyn.generator_element_f(chain.towers[0], f, arity))
    rhs = dyn.generator_element_f(chain.towers[2], f, arity)
    _check(dm.norm_dist(lhs, rhs) <= DEFAULT_ATOL, "composite embedding breaks an f-generator")
    return checks + 1


def _suite_simplicity(rng: np.random.Generator, trials: int) -> int:
    fib = dyn.Substitution.fibonacci()
    bases = dyn.fibonacci_prefix_bases(fib, 6)
    chain = dyn.build_cylinder_chain(fib, bases, base_horizon=1)
    checks = 0
    for i in (1, 2):
        for ref in chain.model(i).free_refs():
            holds, j = dm.check_simplicity_condition(list(chain.maps), i, {ref})
            _check(holds and j is not None and j <= 6,
                   f"no witness within depth 6 for U={{{ref}}} from stage {i}")
            checks += 1
    # identity-shaped chains never meet a proper subset
    model = random_model(rng, max_levels=1)
    idmap = dm.identity_shaped_map(model, model, {r: r for r in model.free_refs()})
    u = {model.free_refs()[0]}
    if len(model.free_refs()) > 1:
        holds, j = dm.check_simplicity_condition([idmap, idmap], 1, u)
        _check(not holds and j is None, "identity-shaped chain reported a witness")
        checks += 1
    return checks


_SUITES = {
    "conj": (_suite_conj, 200, "relabeling conjugation identity for transposition paths"),
    "fullconj": (_suite_fullconj, 200, "nesting identity for block-swap paths"),
    "elementary": (_suite_elementary, 200, "cycle power versus block swap, exhaustively"),
    "permute": (_suite_permute, 200, "locality and cross creation under gathered conjugation"),
    "block1": (_suite_block1, 200, "single-window zero-cross gathering"),
    "block2": (_suite_block2, 200, "multi-window gathering and the bandwidth bound"),
    "condense": (_suite_condense, 100, "condensation path endpoints and radius bound"),
    "vn": (_suite_vn, 100, "block decomposition of the triangulating unitary"),
    "triangulate": (_suite_triangulate, 100, "triangulation of banded matrices with crosses"),
    "blockchar": (_suite_blockchar, 50, "block-start table versus witness equivalence"),
    "indicator": (_suite_indicator, 30, "indicator element conditions on random models"),
    "embed": (_suite_embed, 1, "generator compatibility of tower embeddings"),
    "simplicity": (_suite_simplicity, 1, "finite witnesses for the chain criterion"),
}

SUITE_NAMES = tuple(_SUITES)


def suite_descriptions() -> dict[str, str]:
    return {name: desc for name, (_, _, desc) in _SUITES.items()}


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> SuiteResult:
    if name not in _SUITES:
        raise KeyError(f"unknown suite '{name}'; valid: {', '.join(SUITE_NAMES)}")
    fn, default_trials, _ = _SUITES[name]
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    try:
        checks = fn(rng, trials if trials is not None else default_trials)
        return SuiteResult(name, True, checks, None, time.perf_counter() - t0)
    except (CounterexampleFound, AssertionError) as exc:
        return SuiteResult(name, False, 0, str(exc), time.perf_counter() - t0)


def run_suites(names, seed: int = 0, trials: int | None = None) -> list[SuiteResult]:
    """Run suites one after another, each on its own seeded generator."""
    return [run_suite(name, seed=seed, trials=trials) for name in names]
