"""Unitary paths between permutation matrices and the zero-cross machinery.

The building block is a continuous path ``t -> u_{(k1 k2)}(t)`` from the
identity to a transposition matrix that touches only rows/columns k1 and k2.
Products of these paths gather zero crosses of a matrix into prescribed
positions, condense scattered crosses into an initial segment, and finally
triangulate a banded matrix. Factor order is part of every contract here:
products are accumulated left to right exactly as documented, and
conjugation ``V A V*`` therefore applies the *rightmost* factor first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .matrixkit import (
    DEFAULT_ATOL,
    PATH_ATOL,
    Permutation,
    _frozen,
    cycle_perm,
    diagonal_radius,
    has_zero_cross,
    perm_matrix,
    zero_cross_positions,
)


class ThetaInvariantError(ValueError):
    """A parameter vector violates one of the named constraints for v_n."""

    def __init__(self, constraint: str, detail: str):
        self.constraint = constraint
        super().__init__(f"theta invariant '{constraint}' violated: {detail}")


@dataclass(frozen=True)
class TranspositionPathSpec:
    """Indices k1 < k2 of the swapped pair inside ambient dimension n."""

    k1: int
    k2: int
    n: int

    def __post_init__(self):
        if not (1 <= self.k1 < self.k2 <= self.n):
            raise ValueError(f"need 1 <= k1 < k2 <= n, got ({self.k1}, {self.k2}) in n={self.n}")


@dataclass(frozen=True)
class ThetaVector:
    """A vector of path parameters in [0, 1]^n."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("empty parameter vector")
        for i, v in enumerate(self.values):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"entry {i + 1} = {v} outside [0, 1]")

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> float:
        """1-based entry access."""
        return self.values[k - 1]

    @staticmethod
    def coerce(values) -> "ThetaVector":
        if isinstance(values, ThetaVector):
            return values
        return ThetaVector(tuple(float(v) for v in values))


def transposition_profile(t: float) -> tuple[complex, complex, complex, complex]:
    """The 2x2 core (g1, g2, g3, g4) of the transposition path at time t.

    g1 = g4 = e^{-i pi t/2} cos(pi t/2) and g2 = g3 = i e^{-i pi t/2}
    sin(pi t/2): unitary for every t, equal to the identity core at t=0 and
    to the flip at t=1. The symmetric off-diagonal profile is what makes the
    conjugation-relabeling identity below exact.
    """
    phase = np.exp(-1j * np.pi * t / 2)
    g1 = phase * np.cos(np.pi * t / 2)
    g2 = 1j * phase * np.sin(np.pi * t / 2)
    return g1, g2, g2, g1


def _check_t(t: float) -> float:
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"path parameter {t} outside [0, 1]")
    return float(t)


def _rmul_transposition(m: np.ndarray, a: int, b: int, t: float) -> None:
    """In place m <- m @ u_{(a b)}(t); a == b or t == 0 is the identity."""
    if a == b or t == 0.0:
        return
    a, b = (a, b) if a < b else (b, a)
    g1, g2, _, _ = transposition_profile(t)
    core = np.array([[g1, g2], [g2, g1]])
    m[:, [a - 1, b - 1]] = m[:, [a - 1, b - 1]] @ core


def u_transposition(spec: TranspositionPathSpec, t: float) -> np.ndarray:
    """Path value u_{(k1 k2)}(t); identity rows/columns outside {k1, k2}."""
    t = _check_t(t)
    out = np.eye(spec.n, dtype=np.complex128)
    _rmul_transposition(out, spec.k1, spec.k2, t)
    return _frozen(out)


def eta_permutation(k: int, n: int, N: int) -> Permutation:
    """Product of transpositions (k-N+1, n-N+1)...(k, n) as a permutation."""
    p = Permutation.identity(n)
    for j in range(1, N + 1):
        a, b = k - N + j, n - N + j
        if a != b:
            p = p.compose(Permutation.transposition(n, a, b))
    return p


def eta_path(k: int, n: int, N: int, t: float, ambient: int | None = None) -> np.ndarray:
    """u_{(k-N+1, a-N+1)}(t) ... u_{(k, a)}(t) with a = ambient (default n).

    Swaps the N-entry block ending at k with the block ending at ``a``. For
    k <= a-N the factors commute; beyond that the printed left-to-right
    order applies and coincident indices contribute identity factors. Passing
    ``ambient=i < n`` gives the same construction confined to the leading
    i x i corner, which is what the nesting identity below conjugates.
    """
    amb = n if ambient is None else ambient
    if not (N <= k <= amb <= n):
        raise IndexError(f"need N <= k <= ambient <= n, got k={k}, N={N}, ambient={amb}, n={n}")
    if k - N + 1 < 1:
        raise IndexError(f"block start {k - N + 1} out of range")
    t = _check_t(t)
    out = np.eye(n, dtype=np.complex128)
    for j in range(1, N + 1):
        _rmul_transposition(out, k - N + j, amb - N + j, t)
    return _frozen(out)


def _rmul_window(v: np.ndarray, k: int, delta: ThetaVector, m_window: int) -> None:
    """In place v <- v u_{(k,k+1)}(delta_{k+1}) ... u_{(k,k+M-1)}(delta_{k+M-1})."""
    for a in range(1, m_window):
        _rmul_transposition(v, k, k + a, delta[k + a])


def _check_gate(a: np.ndarray, delta: ThetaVector) -> None:
    n = a.shape[0]
    if delta.n != n:
        raise ValueError(f"delta has length {delta.n}, matrix has dimension {n}")
    crosses = set(zero_cross_positions(a, DEFAULT_ATOL))
    for i in range(1, n + 1):
        if delta[i] > 0.0 and i not in crosses:
            raise ValueError(f"delta_{i} > 0 but the matrix has no zero cross at position {i}")


def _check_window(n: int, k: int, delta: ThetaVector, m_window: int) -> None:
    if not (1 <= k and k + m_window - 1 <= n):
        raise IndexError(f"window [{k}, {k + m_window - 1}] does not fit in dimension {n}")
    if not any(delta[i] == 1.0 for i in range(k, k + m_window)):
        raise ValueError(f"no entry of delta equals 1 inside the window [{k}, {k + m_window - 1}]")


def gather_multi(a: np.ndarray, delta, ks: Sequence[int], m_window: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather zero crosses into every position of ks (windows of width M).

    ks must be increasing with gaps >= M and the last window must fit. The
    returned pair is (V_N ... V_1, the conjugated matrix); the diagonal
    radius grows by at most M-1. The windows are disjoint, so the factors
    commute and are accumulated into one unitary that conjugates A once. A
    window whose parameters above k all vanish contributes the identity
    (then delta_k = 1 and A already has the cross at k).
    """
    a = np.asarray(a, dtype=np.complex128)
    delta = ThetaVector.coerce(delta)
    ks = list(ks)
    for j in range(len(ks) - 1):
        if ks[j + 1] - ks[j] < m_window:
            raise ValueError(f"window starts {ks[j]} and {ks[j + 1]} closer than M={m_window}")
    _check_gate(a, delta)
    total = np.eye(a.shape[0], dtype=np.complex128)
    for k in ks:
        _check_window(a.shape[0], k, delta, m_window)
        _rmul_window(total, k, delta, m_window)
    b = total @ a @ total.conj().T
    for k in ks:
        if not has_zero_cross(b, k, PATH_ATOL):
            raise RuntimeError(f"gathering failed to produce a zero cross at {k}")
    if diagonal_radius(b, PATH_ATOL) > diagonal_radius(a) + m_window - 1:
        raise RuntimeError("diagonal radius grew by more than M-1")
    return _frozen(total), _frozen(b)


@dataclass(frozen=True)
class UnitaryPath:
    """An evaluable path theta in [0,1] -> unitary; consumers pick the grid."""

    n: int
    _fn: Callable[[float], np.ndarray]

    def __call__(self, theta: float) -> np.ndarray:
        return self._fn(_check_t(theta))


def ramp(j: int, i: int, theta: float) -> float:
    """Piecewise-linear ramp: 0 below (i-1)/j, 1 above i/j."""
    lo, hi = (i - 1) / j, i / j
    if theta <= lo:
        return 0.0
    if theta >= hi:
        return 1.0
    return (theta - lo) / (hi - lo)


def _rmul_cycle_gather(out: np.ndarray, i: int, j: int, theta: float) -> None:
    """out <- out @ u_j^i(theta).

    u_j^i ramps the consecutive transpositions (j-1, j), (j-2, j-1), ...,
    (i, i+1) one at a time (rightmost factor first under conjugation), so a
    zero cross at j walks left to position i as theta runs to 1. Factor
    (m, m+1) carries the ramp with index j-m.
    """
    for m in range(i, j):
        _rmul_transposition(out, m, m + 1, ramp(j - i, j - m, theta))


def condense_path(n: int, zs: Sequence[int]) -> UnitaryPath:
    """Path V with V(0) = I that walks crosses at zs into positions 1..m.

    For any A with zero crosses at z_1 < ... < z_m, conjugation by V(1)
    leaves zero crosses at 1..m, and the diagonal radius of the conjugated
    matrix never exceeds r(A)+2 along the whole path. Stage t (the factor
    u_{z_t}^1, ramped t-th) sits to the *right* of later stages so that it
    conjugates first; the earlier crosses then ride along.
    """
    zs = list(zs)
    m = len(zs)
    if not zs or any(zs[t] >= zs[t + 1] for t in range(m - 1)):
        raise ValueError(f"cross positions must be strictly increasing, got {zs}")
    if not (1 <= zs[0] and zs[-1] <= n):
        raise IndexError(f"cross positions {zs} out of range for dimension {n}")

    def fn(theta: float) -> np.ndarray:
        out = np.eye(n, dtype=np.complex128)
        for t in range(m, 0, -1):
            _rmul_cycle_gather(out, 1, zs[t - 1], ramp(m, t, theta))
        return _frozen(out)

    return UnitaryPath(n, fn)


def theta_violations(theta: ThetaVector, N: int) -> list[tuple[str, str]]:
    """The v_n constraints that theta breaks: (constraint name, detail)."""
    out = []
    vals = theta.values
    n = theta.n
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


def v_n(theta, N: int, validate: bool = True) -> np.ndarray:
    """The triangulating unitary: U[gamma_{1,n}]^N times the eta-path product.

    theta must have first entry 1, final N entries 0, and at most one
    nonzero among any N consecutive entries. Where theta_k = 1 the result
    splits as a direct sum of smaller v_n blocks.
    """
    theta = ThetaVector.coerce(theta)
    n = theta.n
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    # n == N arises in the recursive block decomposition (consecutive 1s
    # exactly N apart); the eta product is then empty and the cycle power is
    # the identity. Validated top-level vectors always have n > N since the
    # first entry is 1 and the final N vanish.
    if validate:
        bad = theta_violations(theta, N)
        if bad:
            raise ThetaInvariantError(bad[0][0], bad[0][1])
    out = np.array(perm_matrix(cycle_perm(n, 1, n).power(N)))
    for k in range(N, n):
        t = theta[k + 1]
        if t > 0.0:
            for j in range(1, N + 1):
                _rmul_transposition(out, k - N + j, n - N + j, t)
    return _frozen(out)


def triangulate_check(a: np.ndarray, theta, N: int) -> np.ndarray:
    """Right-multiply A by v_n(theta, N) and verify strict lower triangularity.

    Requires diagonal_radius(A) <= N and, wherever theta_k > 0, zero crosses
    of A at k, ..., k+N-1.
    """
    a = np.asarray(a, dtype=np.complex128)
    theta = ThetaVector.coerce(theta)
    n = a.shape[0]
    if theta.n != n:
        raise ValueError(f"theta has length {theta.n}, matrix has dimension {n}")
    r = diagonal_radius(a)
    if r > N:
        raise ValueError(f"diagonal radius {r} exceeds N={N}")
    for k in range(1, n + 1):
        if theta[k] > 0.0:
            for z in range(k, k + N):
                if z > n or not has_zero_cross(a, z, DEFAULT_ATOL):
                    raise ValueError(f"theta_{k} > 0 but no zero cross at position {z}")
    t = a @ v_n(theta, N)
    upper = np.triu(np.abs(t))
    if upper.size and upper.max() > PATH_ATOL:
        i, j = np.unravel_index(int(np.argmax(upper)), upper.shape)
        raise RuntimeError(f"entry ({i + 1}, {j + 1}) = {t[i, j]} above the diagonal")
    return _frozen(t)
