"""Dense complex matrices, permutations, and zero-pattern predicates.

Matrices are square ``numpy.complex128`` arrays. The constructors
(``as_matrix``, ``direct_sum``, ``perm_matrix``, ``matrix_from_json``)
return fresh read-only arrays; products are plain ``@``. ``is_unitary`` and
``diagonal_radius`` reduce over the last two axes, so they also take a stack
of matrices of shape (K, n, n) and return one answer per matrix; every other
function works on single matrices. All row/column *positions* in this
package are 1-based, matching the block-start / zero-cross bookkeeping of
the algebra models built on top (``has_zero_cross(A, k)`` speaks about row
and column ``k`` with ``1 <= k <= n``). ``Permutation`` and ``perm_matrix``
stay as the independent reference that the ``conj`` suite and the tests
check paths against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
# Entrywise rounding tolerance of the identity that certifies the pipeline's
# total distance, per unit of s (k + 1)**3, where s bounds the entries of the
# identity's operands and k is the dimension of the rotated point: 4 units of
# roundoff u = 2**-53 (derived in ``srone_pipeline.approximate_by_invertible``).
IDENTITY_RTOL = 4 * 2.0 ** -53


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only complex array with the entries of ``a``: ``a`` itself when
    it is already read-only, else a copy."""
    out = np.asarray(a, dtype=np.complex128)
    if out.flags.writeable:
        # copy rather than flip flags on memory the caller may still hold
        out = out.copy(order="C")
        out.flags.writeable = False
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    """Make an array that the package has just built read-only, in place.

    Only for fresh arrays that no caller holds; ``_frozen`` copies the rest.
    """
    a.flags.writeable = False
    return a


def as_matrix(entries) -> np.ndarray:
    """Validate and freeze a square complex matrix with finite entries."""
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrices must have positive dimension")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return _freeze(a)


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
    return _freeze(out)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n}; ``images[j-1]`` is the image of j. With
    ``perm_matrix``, the reference that permutation paths are checked against."""

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


def perm_matrix(p: Permutation) -> np.ndarray:
    """Unitary with entry (i, j) = 1 exactly when i = p(j), built from the
    definition: the reference for the permutations the paths build by index."""
    out = np.zeros((p.n, p.n), dtype=np.complex128)
    out[np.array(p.images, dtype=np.intp) - 1, np.arange(p.n)] = 1.0
    return _freeze(out)


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


def diagonal_radius(a: np.ndarray, atol: float = DEFAULT_ATOL):
    """Smallest r >= 0 with |A_{i,j}| <= atol whenever |i-j| >= r.

    Reduces over the last two axes: an int for a matrix, an int array for a
    stack of matrices.
    """
    big = np.abs(np.asarray(a)) > atol
    n = big.shape[-1]
    rows = np.arange(n)
    # the farthest entry above atol in row i is its first or its last one
    first = big.argmax(axis=-1)
    last = n - 1 - big[..., ::-1].argmax(axis=-1)
    reach = np.where(big.any(axis=-1), np.maximum(rows - first, last - rows) + 1, 0)
    r = reach.max(axis=-1, initial=0)
    return r if r.ndim else int(r)


def is_strictly_lower_triangular(a: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """True iff |A_{i,j}| <= atol for all i <= j."""
    a = np.asarray(a)
    return bool(np.max(np.abs(np.triu(a)), initial=0.0) <= atol)


def _components(nz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the bipartite graph of ``nz``, rows against
    columns: one label per row and per column, shared exactly within a
    component. Min-label hooking with pointer jumping, in whole-array
    passes: each root takes the smallest label across its edges, then every
    label jumps to its root, until no edge joins two labels."""
    n, m = nz.shape
    rows, cols = np.nonzero(nz)
    cols += n
    lab = np.arange(n + m)
    while True:
        lr, lc = lab[rows], lab[cols]
        low = np.minimum(lr, lc)
        new = lab.copy()
        np.minimum.at(new, lr, low)
        np.minimum.at(new, lc, low)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, lab):
            return lab[:n], lab[n:]
        lab = new


def _block_spectra(a: np.ndarray) -> tuple[list[np.ndarray], bool] | None:
    """Singular values of A from the connected components of its exact
    nonzeros, or None when one component holds most of the rows.

    Permuting rows and columns by component makes A block diagonal with
    (generally rectangular) blocks, so its nonzero singular values are the
    blocks'. Blocks of one shape share a stacked SVD; 1x1 blocks are their
    modulus. Returns the per-shape singular value arrays and whether A has
    more singular values than the blocks supply: every row or column that a
    rectangular component leaves unmatched adds a zero.
    """
    if a.ndim != 2 or a.size == 0:
        return None
    n, m = a.shape
    nz = a != 0
    counts = np.count_nonzero(nz, axis=1)
    if not counts.any():
        return [], True
    # a full row joins every column, and with it every nonempty row
    if counts.max() == m and 2 * np.count_nonzero(counts) > n:
        return None
    rlab, clab = _components(nz)
    # rows and columns per label; labels that name no component count 0 and 0
    p = np.bincount(rlab, minlength=n + m)
    q = np.bincount(clab, minlength=n + m)
    if 2 * p.max() > n:
        return None
    # a stable sort keeps numpy's SIMD quicksort out of the process: loading
    # it raised fib-sweep's peak RSS by about 0.4 MB
    rorder = np.argsort(rlab, kind="stable")
    corder = np.argsort(clab, kind="stable")
    rstart = np.cumsum(p) - p
    cstart = np.cumsum(q) - q
    spectra = []
    shaped = (p > 0) & (q > 0)
    for bp, bq in set(zip(p[shaped].tolist(), q[shaped].tolist())):
        sel = np.flatnonzero((p == bp) & (q == bq))
        r = rorder[rstart[sel][:, None] + np.arange(bp)]
        c = corder[cstart[sel][:, None] + np.arange(bq)]
        blocks = a[r[:, :, None], c[:, None, :]]
        if bp == bq == 1:
            spectra.append(np.abs(blocks).ravel())
        else:
            spectra.append(np.linalg.svd(blocks, compute_uv=False))
    short = int(np.minimum(p, q).sum()) < min(n, m)
    return spectra, short


def op_norm(a: np.ndarray) -> float:
    """Largest singular value, by connected component of the nonzero
    pattern where A splits (see ``_block_spectra``)."""
    a = np.asarray(a, dtype=np.complex128)
    parts = _block_spectra(a)
    if parts is None:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    return max((float(s.max()) for s in parts[0]), default=0.0)


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
    """Smallest singular value, by connected component of the nonzero
    pattern where A splits (see ``_block_spectra``)."""
    a = np.asarray(a, dtype=np.complex128)
    parts = _block_spectra(a)
    if parts is None:
        return float(np.linalg.svd(a, compute_uv=False)[-1])
    spectra, short = parts
    if short:
        return 0.0
    return min(float(s.min()) for s in spectra)


def is_unitary(a: np.ndarray, atol: float = UNITARY_ATOL):
    """max |A* A - I| <= atol, reduced over the last two axes: a bool for a
    matrix, a bool array for a stack of matrices."""
    a = np.asarray(a)
    gram = a.conj().swapaxes(-1, -2) @ a
    ok = np.abs(gram - np.eye(a.shape[-1])).max(axis=(-2, -1)) <= atol
    return ok if ok.ndim else bool(ok)


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
