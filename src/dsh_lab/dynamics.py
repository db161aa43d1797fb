"""Tower models and diagonal embeddings from substitution subshifts.

A primitive substitution with a fixed point gives a minimal shift space.
First-return words to a cylinder [w] (read along the fixed point) carve the
spectrum into levels, one per distinct return time; sampled points are
finite words with an explicit horizon, so shifts and all generator
evaluations are exact and total within declared bounds. The inter-scale
gluing structure is carried by diagonal embedding maps obtained by
factoring inner return words over outer ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .dsh_model import (
    DiagonalMap,
    Element,
    FiniteDshModel,
    Level,
    ModelPoint,
    PointRef,
)
from .matrixkit import _freeze

DEFAULT_SCAN_LENGTH = 20_000


class ScanError(ValueError):
    """The scanned prefix cannot certify the requested combinatorial data."""


@dataclass(frozen=True)
class Substitution:
    """A primitive substitution with a designated fixed-point seed symbol."""

    alphabet: tuple[str, ...]
    rules: Mapping[str, str] = field(hash=False)
    seed: str = "0"

    def __post_init__(self):
        if set(self.rules) != set(self.alphabet):
            raise ValueError("rules must cover exactly the alphabet")
        for sym, word in self.rules.items():
            if not word or any(c not in self.alphabet for c in word):
                raise ValueError(f"rule for '{sym}' uses symbols outside the alphabet")
        if self.seed not in self.alphabet:
            raise ValueError(f"seed '{self.seed}' not in the alphabet")
        if self.rules[self.seed][0] != self.seed or len(self.rules[self.seed]) < 2:
            raise ValueError(
                f"seed '{self.seed}' does not generate a fixed point "
                f"(its rule must start with the seed and have length >= 2)"
            )
        if not self.is_primitive():
            raise ValueError("substitution is not primitive")

    def apply(self, word: str) -> str:
        return word.translate(str.maketrans(self.rules))

    def incidence_matrix(self) -> np.ndarray:
        k = len(self.alphabet)
        idx = {c: i for i, c in enumerate(self.alphabet)}
        m = np.zeros((k, k), dtype=np.int64)
        for c in self.alphabet:
            for d in self.rules[c]:
                m[idx[d], idx[c]] += 1
        return m

    def is_primitive(self) -> bool:
        m = self.incidence_matrix()
        power = np.eye(len(self.alphabet), dtype=np.int64)
        # positivity appears within (k-1)^2 + 1 steps when it appears at all
        for _ in range((len(self.alphabet) - 1) ** 2 + 1):
            power = np.minimum(power @ m, 1)
            if np.all(power > 0):
                return True
        return False

    @staticmethod
    def fibonacci() -> "Substitution":
        return Substitution(("0", "1"), {"0": "01", "1": "0"}, "0")

    @staticmethod
    def thue_morse() -> "Substitution":
        return Substitution(("0", "1"), {"0": "01", "1": "10"}, "0")

    @staticmethod
    def from_json(obj: dict) -> "Substitution":
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        alphabet, rules, seed = obj["alphabet"], obj["rules"], obj["seed"]
        if not (isinstance(alphabet, list) and all(isinstance(c, str) for c in alphabet)):
            raise ValueError("alphabet must be a list of strings")
        if not (isinstance(rules, dict) and all(isinstance(r, str) for r in rules.values())):
            raise ValueError("rules must map symbols to strings")
        if not isinstance(seed, str):
            raise ValueError("seed must be a string")
        return Substitution(tuple(alphabet), dict(rules), seed)

    def to_json(self) -> dict:
        return {"alphabet": list(self.alphabet), "rules": dict(self.rules), "seed": self.seed}


@functools.cache
def fixed_point_prefix(s: Substitution, L: int) -> str:
    """The length-L prefix of the substitution fixed point, computed once
    per (substitution, length)."""
    if L < 1:
        raise ValueError("prefix length must be positive")
    w = s.seed
    while len(w) < L:
        w = s.apply(w)
    return w[:L]


def _encode(text: str) -> np.ndarray:
    """One code per symbol, equal to its code point: a byte per symbol for
    latin-1 text, four bytes otherwise (read-only, sharing the encoded bytes)."""
    try:
        return np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    except UnicodeEncodeError:
        return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def _find(codes: np.ndarray, pattern: str) -> np.ndarray:
    """Start offsets of pattern in the coded text, in increasing order.

    The offsets where the first symbol matches are the candidates; each
    later pattern symbol in turn keeps those whose shifted code matches it.
    """
    n, m = len(codes), len(pattern)
    pat = [ord(c) for c in pattern]
    if n < m or max(pat, default=0) > np.iinfo(codes.dtype).max:
        return np.zeros(0, dtype=np.intp)
    if not m:
        return np.arange(n + 1)
    cand = np.flatnonzero(codes[:n - m + 1] == pat[0])
    for j in range(1, m):
        cand = cand[codes[j:][cand] == pat[j]]
    return cand


def occurrences(text: str, pattern: str) -> np.ndarray:
    """All (possibly overlapping) start offsets of pattern in text, in
    increasing order, as an integer array."""
    return _find(_encode(text), pattern)


def _first_distinct(codes: np.ndarray, starts: np.ndarray, length: int,
                    limit: int | None = None) -> list[int]:
    """The starts, in scan order, at which each distinct window
    codes[a:a+length] occurs first, at most ``limit`` of them.

    Each round keeps the first remaining start and drops every start whose
    window equals its window, so it costs one comparison of the remaining
    windows per distinct window found.
    """
    picks: list[int] = []
    if not len(starts):
        return picks
    windows = np.lib.stride_tricks.sliding_window_view(codes, length)[starts]
    while len(starts) and (limit is None or len(picks) < limit):
        picks.append(int(starts[0]))
        other = (windows != windows[0]).any(axis=1)
        windows, starts = windows[other], starts[other]
    return picks


def _gap_groups(occs: np.ndarray) -> dict[int, np.ndarray]:
    """The start offsets of consecutive occurrence pairs, grouped by the gap
    to the next occurrence, each group in scan order."""
    gaps = np.diff(occs)
    return {n: _freeze(occs[:-1][gaps == n])
            for n in np.flatnonzero(np.bincount(gaps)).tolist()}


@functools.lru_cache(maxsize=1)
def _scan_base(s: Substitution, w: str, L_scan: int
               ) -> tuple[str, np.ndarray, tuple[int, ...], dict[int, np.ndarray]]:
    """The doubled scan prefix, its codes, the first two start offsets of w
    in it and the start offsets of consecutive occurrence pairs grouped by
    gap (``_gap_groups``), kept for the one base that ``return_words`` and
    ``build_tower_model`` both scan."""
    prefix = fixed_point_prefix(s, 2 * L_scan)
    codes = _encode(prefix)
    occs = _find(codes, w)
    return prefix, codes, tuple(occs[:2].tolist()), _gap_groups(occs)


def return_words(s: Substitution, w: str, L_scan: int = DEFAULT_SCAN_LENGTH) -> list[str]:
    """Distinct first-return words to the cylinder [w], scan-stabilized.

    Compares the fixed-point prefixes of lengths L_scan and 2*L_scan (one
    scan of the longer, whose first half is the shorter); for a linearly
    recurrent subshift the sets agree once the scan is long enough, which is
    the stabilization certificate. The longer scan adds a word exactly when
    some return word first occurs past the shorter one. Sorted by (length,
    word).
    """
    if L_scan < 2 * len(w) + 2:
        raise ValueError(f"scan length {L_scan} is too short for |w| = {len(w)}")
    prefix, codes, first, groups = _scan_base(s, w, L_scan)
    # the length-L_scan prefix is the first half of the doubled one
    last = L_scan - len(w)
    if not first or first[0] > last:
        raise ScanError(f"'{w}' does not occur in the scanned prefix")
    if len(first) < 2 or first[1] > last:
        raise ScanError(f"'{w}' occurs fewer than twice in the scanned prefix")
    found = []
    for n, starts in groups.items():
        for a in _first_distinct(codes, starts, n):
            # the pair (a, a + n) lies in the shorter scan iff its end does
            if a + n > last:
                raise ScanError(
                    f"return-word set for '{w}' did not stabilize at scan length {L_scan}; "
                    f"rescan with a larger L_scan"
                )
            found.append(prefix[a:a + n])
    return sorted(found, key=lambda r: (len(r), r))


@dataclass(frozen=True)
class TowerModel:
    """A first-return tower over a base cylinder, as a finite model.

    Level i collects sampled words of length n_i + horizon whose prefix is a
    return word of length n_i (the i-th distinct return time). Point ids are
    the words themselves. Tower models have no glued points; the gluing
    structure between scales lives in the embedding maps.
    """

    substitution: Substitution
    base: str
    horizon: int
    return_time_words: tuple[tuple[int, tuple[str, ...]], ...]
    model: FiniteDshModel

    @property
    def return_times(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.return_time_words)

    @property
    def max_return_time(self) -> int:
        return self.return_times[-1]

    def level_of_time(self, n: int) -> int:
        for i, (t, _) in enumerate(self.return_time_words, start=1):
            if t == n:
                return i
        raise KeyError(f"no level with return time {n}")

    def point_word(self, ref: PointRef) -> str:
        return ref.point


def build_tower_model(s: Substitution, w: str, horizon: int,
                      max_points_per_level: int = 32,
                      L_scan: int = DEFAULT_SCAN_LENGTH) -> TowerModel:
    """Sample a first-return tower model for the cylinder [w].

    The horizon must be at least |w| so that return times are decidable from
    the sampled words alone. Points are the distinct words seen at return
    positions in the doubled scan prefix, capped per level.
    """
    if horizon < len(w):
        raise ValueError(f"horizon {horizon} shorter than the base word ({len(w)})")
    rws = return_words(s, w, L_scan)
    times = sorted({len(r) for r in rws})
    by_time = {t: tuple(sorted(r for r in rws if len(r) == t)) for t in times}

    prefix, codes, _, groups = _scan_base(s, w, L_scan)
    # every gap of the doubled scan is a return time: return_words checked it
    samples: dict[int, list[str]] = {t: [] for t in times}
    for n, starts in groups.items():
        size = n + horizon
        starts = starts[starts <= len(prefix) - size]
        samples[n] = [prefix[a:a + size]
                      for a in _first_distinct(codes, starts, size, max_points_per_level)]
    levels = []
    for t in times:
        pts = tuple(ModelPoint(word) for word in sorted(samples[t]))
        if not pts:
            raise ScanError(f"no sampled points at return time {t}; increase L_scan")
        levels.append(Level(t, pts))
    return TowerModel(
        substitution=s,
        base=w,
        horizon=horizon,
        return_time_words=tuple((t, by_time[t]) for t in times),
        model=FiniteDshModel(tuple(levels)),
    )


def factorize_returns(outer: TowerModel, inner: TowerModel) -> dict[str, tuple[str, ...]]:
    """Factor every return word of the inner tower at its occurrences of the
    outer tower's base.

    The outer base w must be a proper prefix of the inner base. The factor
    boundaries are exactly the occurrence positions of w inside the return
    word (continued by the inner base, which starts with w), so the
    factorization is unique; every factor must itself be a return word of
    the outer tower.
    """
    w, w_inner = outer.base, inner.base
    if not w_inner.startswith(w) or w_inner == w:
        raise ValueError("the outer base must be a proper prefix of the inner base")
    outer_set = {r for _, words in outer.return_time_words for r in words}
    factors: dict[str, tuple[str, ...]] = {}
    for _, words in inner.return_time_words:
        for rw in words:
            extended = rw + w_inner
            cuts = [p for p in occurrences(extended, w).tolist() if p < len(rw)]
            if cuts[0] != 0:
                raise ScanError(f"return word '{rw}' does not begin with '{w}'")
            cuts.append(len(rw))
            parts = tuple(rw[a:b] for a, b in zip(cuts, cuts[1:]))
            for part in parts:
                if part not in outer_set:
                    raise ScanError(
                        f"factor '{part}' of '{rw}' is not a known return word to '{w}'; "
                        f"rescan with a larger L_scan"
                    )
            factors[rw] = parts
    return factors


def embedding_map(source: TowerModel, target: TowerModel) -> DiagonalMap:
    """The diagonal embedding of the outer tower algebra into the inner one.

    A target point (a word z of level return time q) maps to the ordered
    list of source points representing z, shift^{S_1}(z), ...,
    shift^{S_{s-1}}(z), where the S_j are the partial sums of the lengths of
    its return word's factors (``factorize_returns``).
    """
    if source.substitution != target.substitution:
        raise ValueError("towers come from different substitutions")
    if target.horizon < source.horizon + source.max_return_time:
        raise ValueError(
            f"target horizon {target.horizon} < source horizon {source.horizon} "
            f"+ max source return time {source.max_return_time}"
        )
    factors = factorize_returns(source, target)
    lists: dict[PointRef, tuple[PointRef, ...]] = {}
    for tref in target.model.free_refs():
        word = tref.point
        q = target.model.dim(tref.level)
        rw = word[:q]
        entries: list[PointRef] = []
        offset = 0
        for part in factors[rw]:
            n = len(part)
            if word[offset:offset + n] != part:
                raise ScanError(f"factorization of '{rw}' does not match the sampled word")
            sub = word[offset:offset + n + source.horizon]
            sref = PointRef(source.level_of_time(n), sub)
            if not source.model.has_point(sref):
                raise KeyError(
                    f"shifted word '{sub}' has no source representative "
                    f"(horizon too small or sampling cap too low)"
                )
            entries.append(sref)
            offset += n
        lists[tref] = tuple(entries)
    return DiagonalMap(source.model, target.model, lists)


WordFunction = Callable[[str], complex]


def eval_generator_f(tower: TowerModel, ref: PointRef, f: WordFunction, arity: int) -> np.ndarray:
    """diag(f at shifts 1..n) of the point's word, windows of length arity."""
    word = tower.point_word(ref)
    n = tower.model.dim(ref.level)
    if len(word) < n + arity:
        raise ValueError(
            f"horizon deficit: point word has length {len(word)}, need {n + arity}"
        )
    vals = [complex(f(word[k:k + arity])) for k in range(1, n + 1)]
    return _freeze(np.diag(np.asarray(vals, dtype=np.complex128)))


def eval_generator_ug(tower: TowerModel, ref: PointRef, g: WordFunction, arity: int) -> np.ndarray:
    """The strictly-lower shift value: entry (k+1, k) = g at shift k.

    g must vanish on windows that start with the tower's base word. Shifts
    1..n-1 of a first-return word never revisit the base, so the decidable
    check is at shift 0 (which always starts with the base); every evaluated
    window is still guarded, and a violation reports its witness.
    """
    word = tower.point_word(ref)
    n = tower.model.dim(ref.level)
    if len(word) < n + arity:
        raise ValueError(
            f"horizon deficit: point word has length {len(word)}, need {n + arity}"
        )
    out = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        window = word[k:k + arity]
        val = complex(g(window))
        if window.startswith(tower.base) and val != 0:
            raise ValueError(
                f"g does not vanish on the base cylinder: g({window!r}) = {val} "
                f"at shift {k} of {ref}"
            )
        if k > 0:
            out[k, k - 1] = val
    return _freeze(out)


def generator_element_f(tower: TowerModel, f: WordFunction, arity: int) -> Element:
    return Element(tower.model, {
        r: eval_generator_f(tower, r, f, arity) for r in tower.model.free_refs()
    })


def generator_element_ug(tower: TowerModel, g: WordFunction, arity: int) -> Element:
    return Element(tower.model, {
        r: eval_generator_ug(tower, r, g, arity) for r in tower.model.free_refs()
    })


@dataclass(frozen=True)
class CylinderChain:
    """Nested cylinder bases with their towers and embedding maps."""

    towers: tuple[TowerModel, ...]
    maps: tuple[DiagonalMap, ...]

    @property
    def depth(self) -> int:
        return len(self.towers)

    def model(self, i: int) -> FiniteDshModel:
        return self.towers[i - 1].model


def build_cylinder_chain(s: Substitution, bases: Sequence[str], base_horizon: int | None = None,
                         max_points_per_level: int = 32,
                         L_scan: int = DEFAULT_SCAN_LENGTH) -> CylinderChain:
    """Towers over nested bases, with horizons chosen so embeddings exist.

    The first horizon defaults to |bases[0]|; each later base is appended
    by ``extend_cylinder_chain``.
    """
    h = max(base_horizon or 0, len(bases[0]))
    chain = CylinderChain((build_tower_model(s, bases[0], h, max_points_per_level, L_scan),), ())
    for base in bases[1:]:
        chain = extend_cylinder_chain(s, chain, base, max_points_per_level, L_scan)
    return chain


def extend_cylinder_chain(s: Substitution, chain: CylinderChain, base: str,
                          max_points_per_level: int = 32,
                          L_scan: int = DEFAULT_SCAN_LENGTH) -> CylinderChain:
    """Append one deeper stage to an existing chain.

    The base must strictly extend the last base. Its horizon is the last
    horizon plus the last tower's largest return time (and at least the base
    length), which is what ``embedding_map`` needs.
    """
    prev = chain.towers[-1]
    if not base.startswith(prev.base) or base == prev.base:
        raise ValueError(f"bases must be strictly nested prefixes; '{prev.base}' then '{base}'")
    h = max(prev.horizon + prev.max_return_time, len(base))
    tower = build_tower_model(s, base, h, max_points_per_level, L_scan)
    return CylinderChain(chain.towers + (tower,), chain.maps + (embedding_map(prev, tower),))


def prefix_length_schedule(count: int) -> list[int]:
    """Fibonacci-spaced prefix lengths 1, 2, 3, 5, 8, ... for chain bases."""
    out = [1, 2]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def fibonacci_prefix_bases(s: Substitution, count: int) -> list[str]:
    lengths = prefix_length_schedule(count)
    prefix = fixed_point_prefix(s, lengths[-1])
    return [prefix[:L] for L in lengths]
