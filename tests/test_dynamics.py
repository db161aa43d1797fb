import bisect

import numpy as np
import pytest

from dsh_lab import dsh_model as dm
from dsh_lab import dynamics as dyn
from dsh_lab import matrixkit as mk
from dsh_lab.dsh_model import PointRef
from conftest import unit_element, zero_element


@pytest.fixture(scope="module")
def fib():
    return dyn.Substitution.fibonacci()


@pytest.fixture(scope="module")
def tm():
    return dyn.Substitution.thue_morse()


def test_substitution_rejects_non_primitive():
    with pytest.raises(ValueError, match="primitive"):
        dyn.Substitution(("0", "1"), {"0": "01", "1": "1"}, "0")


def test_substitution_rejects_bad_seed():
    with pytest.raises(ValueError, match="fixed point"):
        dyn.Substitution(("0", "1"), {"0": "10", "1": "0"}, "0")


def test_substitution_json_round_trip(fib):
    assert dyn.Substitution.from_json(fib.to_json()) == fib


def test_fixed_point_prefix_values(fib, tm):
    assert dyn.fixed_point_prefix(fib, 13) == "0100101001001"
    assert dyn.fixed_point_prefix(fib, 1) == "0"
    assert dyn.fixed_point_prefix(tm, 8) == "01101001"
    with pytest.raises(ValueError):
        dyn.fixed_point_prefix(fib, 0)


def test_fixed_point_prefix_cache_is_keyed_by_rules(fib, tm):
    # all three share alphabet and seed, so they hash alike and differ only in rules
    pd = dyn.Substitution(("0", "1"), {"0": "01", "1": "00"}, "0")
    prefixes = [dyn.fixed_point_prefix(s, 8) for s in (fib, tm, pd)]
    assert prefixes == ["01001010", "01101001", "01000101"]


def test_return_words_fibonacci_oracle(fib):
    assert dyn.return_words(fib, "0", 10_000) == ["0", "01"]
    assert dyn.return_words(fib, "01", 10_000) == ["01", "010"]


def test_return_words_thue_morse(tm):
    # independent scan frozen: consecutive "0" occurrences have gaps {1,2,3}
    assert dyn.return_words(tm, "0", 4_000) == ["0", "01", "011"]


def test_return_words_errors(fib):
    with pytest.raises(dyn.ScanError, match="does not occur"):
        dyn.return_words(fib, "11", 1_000)
    with pytest.raises(dyn.ScanError, match="did not stabilize"):
        dyn.return_words(fib, dyn.fixed_point_prefix(fib, 13), 30)
    with pytest.raises(dyn.ScanError, match="fewer than twice"):
        dyn.return_words(fib, "100101", 14)


def test_build_tower_model_fibonacci(fib):
    tower = dyn.build_tower_model(fib, "0", 3)
    assert tower.return_times == (1, 2)
    assert [lvl.dim for lvl in tower.model.levels] == [1, 2]
    assert dm.validate_model(tower.model).ok
    assert tower.model.free_refs() == tower.model.all_refs()
    for ref in tower.model.free_refs():
        word = tower.point_word(ref)
        n = tower.model.dim(ref.level)
        assert len(word) == n + 3
        assert word[:n] in dict(tower.return_time_words)[n]


def test_build_tower_model_cap(fib):
    tower = dyn.build_tower_model(fib, "0", 3, max_points_per_level=1)
    assert [len(lvl.points) for lvl in tower.model.levels] == [1, 1]


def test_build_tower_model_thue_morse_matches_brute_scan(tm):
    tower = dyn.build_tower_model(tm, "0", 4)
    for scan in (4_000, 8_000):
        prefix = dyn.fixed_point_prefix(tm, scan)
        occs = [i for i in range(len(prefix)) if prefix.startswith("0", i)]
        times = sorted({b - a for a, b in zip(occs, occs[1:])})
        assert tuple(times) == tower.return_times == (1, 2, 3)


def test_build_tower_model_horizon_check(fib):
    with pytest.raises(ValueError, match="horizon"):
        dyn.build_tower_model(fib, "010", 2)


def test_factorize_returns_fibonacci(fib):
    factors = dyn.factorize_returns(dyn.build_tower_model(fib, "0", 1),
                                    dyn.build_tower_model(fib, "01", 2))
    assert factors["01"] == ("01",)
    assert factors["010"] == ("01", "0")


def test_factorize_rejects_degenerate_pair(fib):
    t0, t01 = dyn.build_tower_model(fib, "0", 2), dyn.build_tower_model(fib, "01", 2)
    with pytest.raises(ValueError, match="proper prefix"):
        dyn.factorize_returns(t01, t01)
    with pytest.raises(ValueError, match="proper prefix"):
        dyn.factorize_returns(t01, t0)


def test_embedding_map_lists(fib):
    chain = dyn.build_cylinder_chain(fib, ["0", "01"], base_horizon=1)
    emb = chain.maps[0]
    tgt = chain.towers[1]
    lvl1 = [r for r in tgt.model.free_refs() if r.level == 1]
    lvl2 = [r for r in tgt.model.free_refs() if r.level == 2]
    # single factor -> singleton eigenvalue list
    assert all(len(emb.lists[r]) == 1 for r in lvl1)
    # "010" = "01" + "0": list of length 2, dims (2, 1)
    for r in lvl2:
        assert [s.level for s in emb.lists[r]] == [2, 1]


def test_embedding_map_horizon_precondition(fib):
    src = dyn.build_tower_model(fib, "0", 3)
    tgt = dyn.build_tower_model(fib, "01", 4)  # needs >= 3 + 2
    with pytest.raises(ValueError, match="horizon"):
        dyn.embedding_map(src, tgt)


def test_embedding_map_missing_representative(fib):
    src = dyn.build_tower_model(fib, "0", 4, max_points_per_level=1)
    tgt = dyn.build_tower_model(fib, "01", 6)
    with pytest.raises(KeyError, match="no source representative"):
        dyn.embedding_map(src, tgt)


def test_eval_generator_f_basics(fib):
    tower = dyn.build_tower_model(fib, "0", 3)
    unit = dyn.generator_element_f(tower, lambda w: 1.0, 3)
    assert dm.norm_dist(unit, unit_element(tower.model)) == 0.0

    lvl1 = [r for r in tower.model.free_refs() if r.level == 1][0]
    ind = dyn.eval_generator_f(tower, lvl1, lambda w: 1.0 if w[0] == "0" else 0.0, 3)
    word = tower.point_word(lvl1)
    assert ind.shape == (1, 1)
    assert ind[0, 0] == (1.0 if word[1] == "0" else 0.0)


def test_eval_generator_f_matches_direct_windows(fib, rng):
    tower = dyn.build_tower_model(fib, "0", 3)
    table = {}

    def f(w):
        if w not in table:
            table[w] = complex(rng.standard_normal(), rng.standard_normal())
        return table[w]

    for ref in tower.model.free_refs():
        n = tower.model.dim(ref.level)
        word = tower.point_word(ref)
        val = dyn.eval_generator_f(tower, ref, f, 3)
        for k in range(1, n + 1):
            assert val[k - 1, k - 1] == f(word[k:k + 3])


def test_eval_generator_f_horizon_deficit(fib):
    tower = dyn.build_tower_model(fib, "0", 2)
    ref = tower.model.free_refs()[0]
    with pytest.raises(ValueError, match="horizon deficit"):
        dyn.eval_generator_f(tower, ref, lambda w: 1.0, 5)


def test_eval_generator_ug_values(fib):
    tower = dyn.build_tower_model(fib, "0", 3)
    zero = dyn.generator_element_ug(tower, lambda w: 0.0, 3)
    assert dm.norm_dist(zero, zero_element(tower.model)) == 0.0

    lvl1 = [r for r in tower.model.free_refs() if r.level == 1][0]
    assert np.array_equal(
        dyn.eval_generator_ug(tower, lvl1, lambda w: 0.0 if w.startswith("0") else 1.0, 3),
        np.zeros((1, 1)))

    g = lambda w: 0.0 if w.startswith("0") else 1.0
    for ref in tower.model.free_refs():
        n = tower.model.dim(ref.level)
        word = tower.point_word(ref)
        val = dyn.eval_generator_ug(tower, ref, g, 3)
        assert mk.is_strictly_lower_triangular(val)
        for k in range(1, n):
            assert val[k, k - 1] == (0.0 if word[k] == "0" else 1.0)


def test_eval_generator_ug_vanishing_violation(fib):
    tower = dyn.build_tower_model(fib, "0", 3)
    lvl2 = [r for r in tower.model.free_refs() if r.level == 2][0]
    with pytest.raises(ValueError, match="does not vanish"):
        dyn.eval_generator_ug(tower, lvl2, lambda w: 1.0, 3)


def test_embedding_generator_identity_small(fib):
    chain = dyn.build_cylinder_chain(fib, ["0", "01"], base_horizon=2)
    src, tgt = chain.towers
    emb = chain.maps[0]
    f = lambda w: complex(int(w[0]), int(w[1]))
    lhs = dm.apply_diagonal_map(emb, dyn.generator_element_f(src, f, 2))
    rhs = dyn.generator_element_f(tgt, f, 2)
    assert dm.norm_dist(lhs, rhs) == 0.0
    g = lambda w: -2.0 if w.startswith("1") else 0.0
    lhs_g = dm.apply_diagonal_map(emb, dyn.generator_element_ug(src, g, 2))
    rhs_g = dyn.generator_element_ug(tgt, g, 2)
    assert dm.norm_dist(lhs_g, rhs_g) == 0.0


def test_generator_ug_block_boundaries_vanish(fib):
    # the strictly-lower shift value splits at factorization boundaries
    chain = dyn.build_cylinder_chain(fib, ["0", "01"], base_horizon=1)
    tgt = chain.towers[1]
    emb = chain.maps[0]
    g = lambda w: 0.0 if w.startswith("0") else 3.0
    val = dyn.generator_element_ug(tgt, g, 1)
    for tref, srcs in emb.lists.items():
        v = val.values[tref]
        boundary = 0
        for s in srcs[:-1]:
            boundary += chain.towers[0].model.dim(s.level)
            assert v[boundary, boundary - 1] == 0.0


def test_return_words_010_matches_inline_scan(fib):
    for scan in (10_000, 20_000):
        got = dyn.return_words(fib, "010", scan)
        prefix = dyn.fixed_point_prefix(fib, scan)
        occs = [i for i in range(len(prefix)) if prefix.startswith("010", i)]
        expected = sorted({prefix[a:b] for a, b in zip(occs, occs[1:])},
                          key=lambda w: (len(w), w))
        assert got == expected == ["01", "010"]


def two_scan_return_words(s, w, L_scan):
    """return_words by scanning the L_scan and 2*L_scan prefixes separately."""
    def scan(prefix):
        occs = dyn.occurrences(prefix, w)
        return {prefix[a:b] for a, b in zip(occs, occs[1:])}

    short = dyn.fixed_point_prefix(s, L_scan)
    if w not in short:
        return "does not occur"
    found = scan(short)
    if not found:
        return "fewer than twice"
    if found != scan(dyn.fixed_point_prefix(s, 2 * L_scan)):
        return "did not stabilize"
    return sorted(found, key=lambda r: (len(r), r))


@pytest.mark.parametrize("name", ["fib", "tm", "pd"])
def test_return_words_match_two_separate_scans(name, fib, tm):
    s = {"fib": fib, "tm": tm, "pd": dyn.Substitution(("0", "1"), {"0": "01", "1": "00"})}[name]
    words = [format(i, "b").zfill(n) for n in range(1, 6) for i in range(2 ** n)]
    for L_scan in (14, 30, 100):
        for w in words:
            if L_scan < 2 * len(w) + 2:
                continue
            expected = two_scan_return_words(s, w, L_scan)
            if isinstance(expected, list):
                assert dyn.return_words(s, w, L_scan) == expected
            else:
                with pytest.raises(dyn.ScanError, match=expected):
                    dyn.return_words(s, w, L_scan)
    # the offsets of only the last base scanned stay cached
    assert dyn._scan_base.cache_info().currsize == 1


def test_factor_partial_sums_are_occurrence_positions(fib):
    factors = dyn.factorize_returns(dyn.build_tower_model(fib, "0", 1),
                                    dyn.build_tower_model(fib, "0100101", 7))
    for rw, parts in factors.items():
        assert "".join(parts) == rw
        sums = [0]
        for part in parts[:-1]:
            sums.append(sums[-1] + len(part))
        extended = rw + "0100101"
        assert sums == [p for p in dyn.occurrences(extended, "0") if p < len(rw)]


def test_composed_chain_maps_equal_direct_factorization(fib):
    chain = dyn.build_cylinder_chain(fib, ["0", "01", "0100101"], base_horizon=1)
    composed = dm.compose_diagonal_maps(chain.maps[1], chain.maps[0])
    direct = dyn.embedding_map(chain.towers[0], chain.towers[2])
    assert composed.lists == direct.lists


def test_chain_construction_and_extension(fib):
    full = dyn.build_cylinder_chain(fib, ["0", "01", "010"], base_horizon=1)
    partial = dyn.build_cylinder_chain(fib, ["0", "01"], base_horizon=1)
    extended = dyn.extend_cylinder_chain(fib, partial, "010")
    assert extended.towers[-1].model == full.towers[-1].model
    assert [t.horizon for t in extended.towers] == [t.horizon for t in full.towers]
    assert [m.lists for m in extended.maps] == [m.lists for m in full.maps]


def test_chain_rejects_non_nested_bases(fib):
    with pytest.raises(ValueError, match="nested"):
        dyn.build_cylinder_chain(fib, ["0", "10"])


def test_prefix_length_schedule():
    assert dyn.prefix_length_schedule(7) == [1, 2, 3, 5, 8, 13, 21]


# The str.find scan that the coded scan replaced, kept as the reference:
# occurrences by repeated find, return-word sets of the short and the doubled
# scan compared as sets, and the tower sample kept word by word in scan order.

def ref_occurrences(text, pattern):
    out = []
    start = text.find(pattern)
    while start != -1:
        out.append(start)
        start = text.find(pattern, start + 1)
    return out


def ref_return_words(s, w, L_scan):
    if L_scan < 2 * len(w) + 2:
        raise ValueError(f"scan length {L_scan} is too short for |w| = {len(w)}")
    prefix = dyn.fixed_point_prefix(s, 2 * L_scan)
    occs = ref_occurrences(prefix, w)
    short = occs[:bisect.bisect_right(occs, L_scan - len(w))]
    if not short:
        raise dyn.ScanError(f"'{w}' does not occur in the scanned prefix")
    found = {prefix[a:b] for a, b in zip(short, short[1:])}
    if not found:
        raise dyn.ScanError(f"'{w}' occurs fewer than twice in the scanned prefix")
    if found != {prefix[a:b] for a, b in zip(occs, occs[1:])}:
        raise dyn.ScanError(
            f"return-word set for '{w}' did not stabilize at scan length {L_scan}; "
            f"rescan with a larger L_scan"
        )
    return sorted(found, key=lambda r: (len(r), r))


def ref_tower(s, w, horizon, cap, L_scan):
    if horizon < len(w):
        raise ValueError(f"horizon {horizon} shorter than the base word ({len(w)})")
    rws = ref_return_words(s, w, L_scan)
    times = sorted({len(r) for r in rws})
    prefix = dyn.fixed_point_prefix(s, 2 * L_scan)
    occs = ref_occurrences(prefix, w)
    samples = {t: [] for t in times}
    for a, b in zip(occs, occs[1:]):
        word = prefix[a:a + b - a + horizon]
        bucket = samples[b - a]
        if len(word) == b - a + horizon and word not in bucket and len(bucket) < cap:
            bucket.append(word)
    levels = []
    for t in times:
        if not samples[t]:
            raise dyn.ScanError(f"no sampled points at return time {t}; increase L_scan")
        levels.append(dm.Level(t, tuple(dm.ModelPoint(x) for x in sorted(samples[t]))))
    by_time = tuple((t, tuple(sorted(r for r in rws if len(r) == t))) for t in times)
    return dyn.TowerModel(s, w, horizon, by_time, dm.FiniteDshModel(tuple(levels)))


def ref_chain(s, bases, cap, L_scan, monkeypatch):
    """The chain that build_cylinder_chain builds, from the reference scan;
    embedding_map factors return words with the reference occurrences."""
    monkeypatch.setattr(dyn, "occurrences", lambda t, p: np.array(ref_occurrences(t, p)))
    try:
        towers = [ref_tower(s, bases[0], len(bases[0]), cap, L_scan)]
        maps = []
        for base in bases[1:]:
            prev = towers[-1]
            h = max(prev.horizon + prev.max_return_time, len(base))
            towers.append(ref_tower(s, base, h, cap, L_scan))
            maps.append(dyn.embedding_map(prev, towers[-1]))
        return dyn.CylinderChain(tuple(towers), tuple(maps))
    finally:
        monkeypatch.undo()


def outcome(build):
    """What a chain build shows: per tower its return-time words and point
    ids in order, per map its lists in order; or the error's type and text."""
    try:
        chain = build()
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)
    return ([(t.return_time_words, t.model.all_refs()) for t in chain.towers],
            [list(m.lists.items()) for m in chain.maps])


SCAN_SUBSTITUTIONS = {
    "fibonacci": ({"0": "01", "1": "0"}, "0"),
    "thue-morse": ({"0": "01", "1": "10"}, "0"),
    "period-doubling": ({"0": "01", "1": "00"}, "0"),
    "tribonacci": ({"0": "01", "1": "02", "2": "0"}, "0"),
    "001-10": ({"0": "001", "1": "10"}, "0"),
    "non-latin-1": ({"\u03b1": "\u03b1\u03b2", "\u03b2": "\u03b1"}, "\u03b1"),
}


def scan_substitution(name):
    rules, seed = SCAN_SUBSTITUTIONS[name]
    return dyn.Substitution(tuple(rules), rules, seed)


@pytest.mark.parametrize("name", sorted(SCAN_SUBSTITUTIONS))
@pytest.mark.parametrize("L_scan", [60, 500, 20_000])
@pytest.mark.parametrize("cap", [0, 2, 16, 32])
def test_chain_matches_reference_scan(name, L_scan, cap, monkeypatch):
    s = scan_substitution(name)
    bases = dyn.fibonacci_prefix_bases(s, 11)
    got = outcome(lambda: dyn.build_cylinder_chain(s, bases, None, cap, L_scan))
    assert got == outcome(lambda: ref_chain(s, bases, cap, L_scan, monkeypatch))


@pytest.mark.parametrize("name", sorted(SCAN_SUBSTITUTIONS))
@pytest.mark.parametrize("L_scan", [14, 60, 500, 20_000])
def test_return_words_match_reference_scan(name, L_scan):
    s = scan_substitution(name)
    prefix = dyn.fixed_point_prefix(s, 40)
    # the chain's prefix bases, every factor of length 3 and one absent word
    words = {prefix[:k] for k in dyn.prefix_length_schedule(8)}
    words |= {prefix[i:i + 3] for i in range(len(prefix) - 2)} | {prefix[0] * 6}
    for w in sorted(words):
        results = []
        for fn in (dyn.return_words, ref_return_words):
            try:
                results.append(fn(s, w, L_scan))
            except ValueError as exc:
                results.append((type(exc), str(exc)))
        assert results[0] == results[1], w


def test_occurrences_match_reference():
    rng = np.random.default_rng(3)
    texts = ["", "a", "aaaa", "abab", "\u03b1\u03b2\u03b1\u03b1\u03b2",
             "".join(rng.choice(list("ab"), 300))]
    patterns = ["", "a", "aa", "aba", "ab" * 3, "\u03b1", "\u03b1\u03b2", "\u00e9"]
    for text in texts:
        for pattern in patterns:
            got = dyn.occurrences(text, pattern)
            assert got.tolist() == ref_occurrences(text, pattern), (text, pattern)
