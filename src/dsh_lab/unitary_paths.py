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

from .matrixkit import DEFAULT_ATOL, _freeze, zero_cross_positions


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


def _check_t(t: float | np.ndarray) -> float | np.ndarray:
    """A path parameter in [0, 1] as a float, or a nonempty 1-D array of them
    (a grid, a gate or a theta) as a float64 array; NaN is out of range."""
    if np.ndim(t) == 0:
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"path parameter {t} outside [0, 1]")
        return float(t)
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1 or not t.size:
        raise ValueError(f"path parameters must form a nonempty 1-D array, got shape {t.shape}")
    bad = np.flatnonzero(~((0.0 <= t) & (t <= 1.0)))
    if bad.size:
        raise ValueError(f"path parameter {t[bad[0]]} at index {bad[0]} outside [0, 1]")
    return t


def _identity(n: int, t: float | np.ndarray) -> np.ndarray:
    """I_n for a parameter t, or a stack of one I_n per entry of an array t."""
    out = np.zeros(np.shape(t) + (n, n), dtype=np.complex128)
    out[..., np.arange(n), np.arange(n)] = 1.0
    return out


def _selector(mask: np.ndarray) -> slice | np.ndarray | None:
    """The matrices of a stack where ``mask`` holds, as an index: a slice
    when they are consecutive (ramps over a sorted grid give runs), else an
    index array; None when there are none."""
    idx = mask.nonzero()[0]
    if not idx.size:
        return None
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    return slice(lo, hi) if hi - lo == idx.size else idx


def _rmul_transposition(m: np.ndarray, a: int, b: int, t: float | np.ndarray) -> None:
    """In place m <- m @ u_{(a b)}(t); a == b or t == 0 is the identity.

    Only columns a and b change, each to a combination of the two with the
    2x2 core's coefficients g1 = e^{-i pi t/2} cos(pi t/2) and
    g2 = i e^{-i pi t/2} sin(pi t/2): unitary for every t and symmetric in a
    and b, which is what makes the conjugation-relabeling identity exact. At
    t = 1 the core is the exact flip (a column swap) rather than its rounding
    (cos(pi/2) = 6.1e-17), so every path the pipeline evaluates at its
    endpoints is a permutation.

    ``m`` may also be a stack of shape (K, n, n) with ``t`` an array of K
    parameters, one per matrix: each matrix then gets exactly what a call on
    it alone with its own parameter gives, since both compute the same
    elementwise operations.
    """
    if a == b:
        return
    if np.ndim(t) == 0:
        if t == 0.0:
            return
        # a lone matrix takes one branch whole; Ellipsis selects all of it
        flip, move = (..., None) if t == 1.0 else (None, ...)
    else:
        flip, move = _selector(t == 1.0), _selector((t != 0.0) & (t != 1.0))
    i, j = a - 1, b - 1
    if flip is not None:
        x = m[flip, :, i].copy()
        m[flip, :, i] = m[flip, :, j]
        m[flip, :, j] = x
    if move is not None:
        half = np.pi * np.asarray(t)[move, None] / 2
        phase = np.exp(-1j * half)
        g1 = phase * np.cos(half)
        g2 = 1j * phase * np.sin(half)
        x, y = m[move, :, i].copy(), m[move, :, j]
        m[move, :, i] = g1 * x + g2 * y
        m[move, :, j] = g2 * x + g1 * y


def u_transposition(spec: TranspositionPathSpec, t: float | np.ndarray) -> np.ndarray:
    """Path value u_{(k1 k2)}(t); identity rows/columns outside {k1, k2}.
    A 1-D array t gives the stack of the values at its entries."""
    t = _check_t(t)
    out = _identity(spec.n, t)
    _rmul_transposition(out, spec.k1, spec.k2, t)
    return _freeze(out)


def eta_path(k: int, n: int, N: int, t: float | np.ndarray,
             ambient: int | None = None) -> np.ndarray:
    """u_{(k-N+1, a-N+1)}(t) ... u_{(k, a)}(t) with a = ambient (default n).

    Swaps the N-entry block ending at k with the block ending at ``a``. For
    k <= a-N the factors commute; beyond that the printed left-to-right
    order applies and coincident indices contribute identity factors. Passing
    ``ambient=i < n`` gives the same construction confined to the leading
    i x i corner, which is what the nesting identity below conjugates. A 1-D
    array t gives the stack of the values at its entries.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    amb = n if ambient is None else ambient
    if not (N <= k <= amb <= n):
        raise IndexError(f"need N <= k <= ambient <= n, got k={k}, N={N}, ambient={amb}, n={n}")
    t = _check_t(t)
    out = _identity(n, t)
    _rmul_eta(out, k, N, amb, t)
    return _freeze(out)


def _rmul_eta(m: np.ndarray, k: int, N: int, amb: int, t: float | np.ndarray) -> None:
    """In place m <- m u_{(k-N+1, amb-N+1)}(t) ... u_{(k, amb)}(t)."""
    for j in range(1, N + 1):
        _rmul_transposition(m, k - N + j, amb - N + j, t)


def _rmul_window(v: np.ndarray, k: int, delta: np.ndarray, m_window: int) -> None:
    """In place v <- v u_{(k,k+1)}(delta_{k+1}) ... u_{(k,k+M-1)}(delta_{k+M-1})."""
    for a in range(1, m_window):
        _rmul_transposition(v, k, k + a, delta[k + a - 1])


def _check_gate(a: np.ndarray, delta: np.ndarray) -> None:
    n = a.shape[0]
    if len(delta) != n:
        raise ValueError(f"delta has length {len(delta)}, matrix has dimension {n}")
    crosses = zero_cross_positions(a, DEFAULT_ATOL)
    # not np.setdiff1d: numpy's set routines import numpy.ma, 1.3 MB per process
    bad = [i for i in np.flatnonzero(delta > 0.0) + 1 if i not in crosses]
    if bad:
        raise ValueError(f"delta_{bad[0]} > 0 but the matrix has no zero cross at position {bad[0]}")


def _check_window(n: int, k: int, delta: np.ndarray, m_window: int) -> None:
    if not (1 <= k and k + m_window - 1 <= n):
        raise IndexError(f"window [{k}, {k + m_window - 1}] does not fit in dimension {n}")
    if not (delta[k - 1:k + m_window - 1] == 1.0).any():
        raise ValueError(f"no entry of delta equals 1 inside the window [{k}, {k + m_window - 1}]")


def gather_multi(a: np.ndarray, delta, ks: Sequence[int], m_window: int) -> np.ndarray:
    """Gather zero crosses into every position of ks (windows of width M).

    The gate delta is a 1-D array of n parameters in [0, 1], delta_i at
    position i. ks must be increasing with gaps >= M, every window must fit
    and hold a full gate entry, and every positive gate entry must sit on a
    zero cross of A. Returns the gathering unitary V = V_N ... V_1; the
    caller conjugates A by it, as V A V*. The windows are disjoint, so the
    factors commute and are accumulated into one unitary. A window whose
    parameters above k all vanish contributes the identity (then delta_k = 1
    and A already has the cross at k). The outcome, V A V* with a cross at
    every k and diagonal radius grown by at most M-1, is for the caller to
    check: the pipeline records it as ``periodic_zero_crosses`` and
    ``radius_bound``.
    """
    a = np.asarray(a, dtype=np.complex128)
    delta = _check_t(delta)
    ks = list(ks)
    for j in range(len(ks) - 1):
        if ks[j + 1] - ks[j] < m_window:
            raise ValueError(f"window starts {ks[j]} and {ks[j + 1]} closer than M={m_window}")
    _check_gate(a, delta)
    total = np.eye(a.shape[0], dtype=np.complex128)
    for k in ks:
        _check_window(a.shape[0], k, delta, m_window)
        _rmul_window(total, k, delta, m_window)
    return _freeze(total)


@dataclass(frozen=True)
class UnitaryPath:
    """An evaluable path theta in [0,1] -> unitary; consumers pick the grid.
    A 1-D array of parameters gives the stack of the values at its entries."""

    n: int
    _fn: Callable[[float | np.ndarray], np.ndarray]

    def __call__(self, theta: float | np.ndarray) -> np.ndarray:
        return self._fn(_check_t(theta))


def ramp(j: int, i: int, theta: float | np.ndarray) -> float | np.ndarray:
    """Piecewise-linear ramp: 0 below (i-1)/j, 1 above i/j; elementwise on
    an array theta."""
    lo, hi = (i - 1) / j, i / j
    # np.clip's result, without its argument handling
    return np.minimum(np.maximum((theta - lo) / (hi - lo), 0.0), 1.0)


def _rmul_cycle_gather(out: np.ndarray, i: int, j: int, theta: float | np.ndarray) -> None:
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

    def fn(theta: float | np.ndarray) -> np.ndarray:
        out = _identity(n, theta)
        for t in range(m, 0, -1):
            _rmul_cycle_gather(out, 1, zs[t - 1], ramp(m, t, theta))
        return _freeze(out)

    return UnitaryPath(n, fn)


def _check_theta(theta: np.ndarray, N: int) -> None:
    """Raise ThetaInvariantError for the first v_n constraint that theta breaks."""
    if theta[0] != 1.0:
        raise ThetaInvariantError("first_entry", f"first entry is {theta[0]}, not 1")
    nonzero = np.flatnonzero(theta)
    if nonzero[-1] >= len(theta) - N:
        k = nonzero[nonzero >= len(theta) - N][0]
        raise ThetaInvariantError("final_entries", f"entry {k + 1} = {theta[k]} inside the final {N}")
    # crowded[k]: entries k+1..k+N hold more than one nonzero
    crowded = np.convolve(theta > 0.0, np.ones(N), mode="valid") > 1
    if crowded.any():
        k = np.argmax(crowded)
        raise ThetaInvariantError("window", f"more than one nonzero in entries {k + 1}..{k + N}")


def cycle_power(n: int, N: int) -> np.ndarray:
    """U[gamma_{1,n}]^N: the n-cycle j -> j+1 (mod n) to the power N, built
    by index; entry (j+N mod n, j) is 1."""
    out = np.zeros((n, n), dtype=np.complex128)
    cols = np.arange(n)
    out[(cols + N) % n, cols] = 1.0
    return _freeze(out)


def v_n(theta, N: int, validate: bool = True) -> np.ndarray:
    """The triangulating unitary: U[gamma_{1,n}]^N times the eta-path product.

    theta is a 1-D array of parameters in [0, 1], checked even without
    ``validate``; ``validate`` checks that it has first entry 1, final N
    entries 0, and at most one nonzero among any N consecutive entries.
    Where theta_k = 1 the result splits as a direct sum of smaller v_n
    blocks.
    """
    theta = _check_t(theta)
    n = len(theta)
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    # n == N arises in the recursive block decomposition (consecutive 1s
    # exactly N apart); the eta product is then empty and the cycle power is
    # the identity. Validated top-level vectors always have n > N since the
    # first entry is 1 and the final N vanish.
    if validate:
        _check_theta(theta, N)
    out = np.array(cycle_power(n, N))
    # theta_{k+1} drives the block swap of the N entries ending at k
    for k in np.flatnonzero(theta[N:]) + N:
        _rmul_eta(out, k, N, n, theta[k])
    return _freeze(out)
