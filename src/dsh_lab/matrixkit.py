"""Dense complex matrices, permutations, and zero-pattern predicates.

Matrices are square ``numpy.complex128`` arrays. Every function returns a
fresh read-only array, so values can be shared freely between concurrent
workers. All row/column *positions* in this package are 1-based, matching
the block-start / zero-cross bookkeeping of the algebra models built on top
(``has_zero_cross(A, k)`` speaks about row and column ``k`` with
``1 <= k <= n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Tolerance for structural predicates (zero crosses, block points, radii).
DEFAULT_ATOL = 1e-12
# Tolerance for identities about composed paths: products of ~n unitary
# factors accumulate roundoff roughly linearly in the factor count.
PATH_ATOL = 1e-9
# Unitarity slack for constructed path values.
UNITARY_ATOL = 1e-10
# Relative margin by which a norm bound must clear the threshold in
# ``norm_below`` before it decides. The bounds and the SVD's largest singular
# value are each computed to within about n*u (u = 1.1e-16) of the exact
# values, far inside this margin, so a decided answer equals the SVD's.
NORM_BOUND_GUARD = 1e-10
# Relative bracket width at which the soft-threshold search stops. Its lower
# end is certified below the budget at every step, so stopping early only
# lowers delta, by at most a relative 2*THRESHOLD_RTOL; resolving the bracket
# further would decide steps by rounding alone.
THRESHOLD_RTOL = 10 * NORM_BOUND_GUARD
# Smallest singular value at or below which the pipeline treats a point as
# singular and an element as needing approximation.
INVERTIBLE_TOL = 1e-9
# Absolute slack by which the measured total distance may exceed the sum of
# the stage distances (the triangle inequality): both sides are measured in
# floating point, after products with ~n unitary path factors (see PATH_ATOL).
BUDGET_SLACK = 1e-9
# Relative drift allowed between the smallest singular value of the output
# and of the core between its unitary factors: equal in exact arithmetic, and
# apart only by the roundoff of the products and the two SVDs.
SANDWICH_RTOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.complex128)
    if out.flags.writeable:
        # copy rather than flip flags on memory the caller may still hold
        out = out.copy(order="C")
        out.flags.writeable = False
    return out


def as_matrix(entries) -> np.ndarray:
    """Validate and freeze a square complex matrix with finite entries."""
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrices must have positive dimension")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return _frozen(a)


def direct_sum(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """diag(B_1, ..., B_t) of square blocks."""
    blocks = [np.asarray(b, dtype=np.complex128) for b in blocks]
    if not blocks:
        raise ValueError("direct_sum needs at least one block")
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    off = 0
    for b in blocks:
        d = b.shape[0]
        out[off:off + d, off:off + d] = b
        off += d
    return _frozen(out)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n}; ``images[j-1]`` is the image of j."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (p.compose(q))(j) = p(q(j))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(j)) for j in range(1, self.n + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for j in range(1, self.n + 1):
            inv[self(j) - 1] = j
        return Permutation(tuple(inv))

    def power(self, k: int) -> "Permutation":
        result = Permutation.identity(self.n)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            result = base.compose(result)
        return result

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"transposition indices out of range: ({a} {b}) in n={n}")
        im = list(range(1, n + 1))
        im[a - 1], im[b - 1] = b, a
        return Permutation(tuple(im))

    @staticmethod
    def from_cycle(n: int, cycle: Sequence[int]) -> "Permutation":
        """The cycle (c_1 c_2 ... c_m): c_i maps to c_{i+1}, c_m back to c_1."""
        im = list(range(1, n + 1))
        m = len(cycle)
        for i in range(m):
            im[cycle[i] - 1] = cycle[(i + 1) % m]
        return Permutation(tuple(im))


def cycle_perm(n: int, k: int, m: int) -> Permutation:
    """The cycle (k, k+1, ..., m) inside {1, ..., n}."""
    if not (1 <= k <= m <= n):
        raise ValueError(f"invalid cycle range ({k}..{m}) in n={n}")
    return Permutation.from_cycle(n, tuple(range(k, m + 1)))


def perm_matrix(p: Permutation) -> np.ndarray:
    """Unitary with entry (i, j) = 1 exactly when i = p(j)."""
    out = np.zeros((p.n, p.n), dtype=np.complex128)
    for j in range(1, p.n + 1):
        out[p(j) - 1, j - 1] = 1.0
    return _frozen(out)


def _check_position(n: int, k: int) -> None:
    if not (1 <= k <= n):
        raise IndexError(f"position {k} out of range for dimension {n}")


def has_zero_cross(a: np.ndarray, k: int, atol: float = DEFAULT_ATOL) -> bool:
    """True iff every entry of row k and column k has modulus <= atol."""
    a = np.asarray(a)
    _check_position(a.shape[0], k)
    return bool(np.all(np.abs(a[k - 1, :]) <= atol) and np.all(np.abs(a[:, k - 1]) <= atol))


def zero_cross_positions(a: np.ndarray, atol: float = DEFAULT_ATOL) -> tuple[int, ...]:
    """Every k for which has_zero_cross(A, k, atol) holds, in one pass over A."""
    small = np.abs(np.asarray(a)) <= atol
    return tuple(int(k) + 1 for k in np.flatnonzero(small.all(axis=0) & small.all(axis=1)))


def has_block_point(a: np.ndarray, k: int, atol: float = DEFAULT_ATOL) -> bool:
    """True iff A splits as a direct sum across position k.

    Both off-diagonal blocks must vanish: entries (i, j) with i >= k > j or
    j >= k > i. Position 1 is trivially a block point.
    """
    a = np.asarray(a)
    _check_position(a.shape[0], k)
    c = k - 1
    return bool(np.all(np.abs(a[c:, :c]) <= atol) and np.all(np.abs(a[:c, c:]) <= atol))


def diagonal_radius(a: np.ndarray, atol: float = DEFAULT_ATOL) -> int:
    """Smallest r >= 0 with |A_{i,j}| <= atol whenever |i-j| >= r."""
    a = np.asarray(a)
    idx = np.argwhere(np.abs(a) > atol)
    if idx.size == 0:
        return 0
    return int(np.max(np.abs(idx[:, 0] - idx[:, 1]))) + 1


def is_strictly_lower_triangular(a: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """True iff |A_{i,j}| <= atol for all i <= j."""
    a = np.asarray(a)
    return bool(np.max(np.abs(np.triu(a)), initial=0.0) <= atol)


def op_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    a = np.asarray(a, dtype=np.complex128)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def norm_below(mats: Iterable[np.ndarray], bound: float) -> bool:
    """True iff op_norm(a) < bound for every a in mats.

    Each matrix is decided by the norm inequalities (Golub & Van Loan 2.3)
    largest row or column 2-norm <= ||A||_2 <= min(sqrt(||A||_1 ||A||_inf),
    ||A||_F); only a matrix whose bounds straddle ``bound`` goes through
    op_norm, after every other matrix has been checked.
    """
    undecided = []
    for a in mats:
        mag = np.abs(a)
        sq = mag * mag
        lower = np.sqrt(max(np.max(sq.sum(axis=0)), np.max(sq.sum(axis=1))))
        if lower > bound * (1.0 + NORM_BOUND_GUARD):
            return False
        upper = min(np.sqrt(np.max(mag.sum(axis=0)) * np.max(mag.sum(axis=1))),
                    np.sqrt(sq.sum()))
        if not upper < bound * (1.0 - NORM_BOUND_GUARD):
            undecided.append(a)
    return all(op_norm(a) < bound for a in undecided)


def min_singular_value(a: np.ndarray) -> float:
    """Smallest singular value."""
    a = np.asarray(a, dtype=np.complex128)
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def is_unitary(a: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    a = np.asarray(a)
    n = a.shape[0]
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(n))) <= atol)


def matrix_to_json(a: np.ndarray) -> dict:
    """Row-major {"n": ..., "entries": [[[re, im], ...], ...]}; exact round-trip."""
    a = np.asarray(a, dtype=np.complex128)
    return {
        "n": int(a.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    n = int(obj["n"])
    rows = obj["entries"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("entries do not match declared dimension")
    return as_matrix([[complex(re, im) for re, im in row] for row in rows])
