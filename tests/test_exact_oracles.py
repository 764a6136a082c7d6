"""The exact-oracle layer against the per-query code it replaced.

`pairwise_l0` is the former enumeration k-cover, kept here as the reference:
for every candidate in lexicographic order it merges the k per-set sketches
pairwise (sorted union, cut to capacity), takes the median of the
per-repetition estimates, and keeps the first strict maximum. The numpy
enumeration must choose the same sets with a bit-identical estimate. The
hardness oracles are checked against their former per-call versions (the
band and validity checks against their `Fraction` formulas),
`gen_disjointness` against `from_edges` on the former edge list and against
its former `from_incidence` build, and the k = 1 scan of
`brute_force_kcover` against the `combinations` loop.
"""

import math
import statistics
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import distinct
from covsketch import (CoverageInstance, DistinctSketch, PlantedGoldInstance,
                       SetSystem, brute_force_kcover, build_per_set_sketches,
                       gen_disjointness, gen_planted_cover, gen_random,
                       kcover_via_l0, verify_oracle_validity)
from covsketch.errors import ConfigError, GuardExceededError, IdRangeError
from covsketch.hardness import _sample_query
from covsketch.hashing import unit_from_u64

MAX64 = (1 << 64) - 1


def pairwise_estimate(mins_per_rep, capacity):
    values = []
    for mins in mins_per_rep:
        if len(mins) < capacity:
            values.append(float(len(mins)))
        else:
            tail = unit_from_u64(mins[capacity - 1])
            values.append((capacity - 1) / max(tail, 2.0 ** -64))
    return float(statistics.median(values))


def pairwise_l0(sketches, k):
    capacity = sketches[0].capacity
    best_value, best_combo = -1.0, ()
    for combo in combinations(range(len(sketches)), k):
        merged = sketches[combo[0]].mins
        for u in combo[1:]:
            merged = [sorted(set(a).union(b))[:capacity]
                      for a, b in zip(merged, sketches[u].mins)]
        value = pairwise_estimate(merged, capacity)
        if value > best_value:
            best_value, best_combo = value, combo
    return best_combo, best_value


def assert_same_as_pairwise(bank):
    for k in range(1, len(bank) + 1):
        sol = kcover_via_l0(bank, k)
        combo, value = pairwise_l0(bank, k)
        assert sol.chosen == combo
        assert repr(sol.meta["estimate"]) == repr(value)
        assert sol.meta["candidates"] == math.comb(len(bank), k)


@settings(max_examples=60, deadline=None)
@given(sets=st.lists(st.lists(st.integers(0, 60), max_size=30),
                     min_size=1, max_size=6),
       copies=st.lists(st.integers(0, 5), max_size=3),
       capacity=st.integers(2, 12), reps=st.integers(1, 4),
       seed=st.integers(0, 2**32))
def test_l0_matches_pairwise_merges(sets, copies, capacity, reps, seed):
    # repeated sets tie on every estimate, so the first copy must win
    sets = sets + [sets[i % len(sets)] for i in copies]
    edges = [(u, v) for u, members in enumerate(sets) for v in members]
    bank = build_per_set_sketches(edges, len(sets), capacity, seed, reps=reps)
    assert_same_as_pairwise(bank)


# A small pool of raw hashes, with the largest u64 (the table's padding
# value) and its neighbour, so unions collide and fall short of capacity.
_POOL = [0, 1, 2, 1 << 32, 1 << 63, MAX64 - 2, MAX64 - 1, MAX64]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), capacity=st.integers(2, 5),
       reps=st.integers(1, 4))
def test_l0_matches_pairwise_merges_on_raw_hash_lists(data, n, capacity, reps):
    bank = []
    for _ in range(n):
        sk = DistinctSketch(capacity, seed=0, reps=reps)
        sk.mins = [sorted(data.draw(st.sets(st.sampled_from(_POOL),
                                            max_size=capacity)))
                   for _ in range(reps)]
        bank.append(sk)
    assert_same_as_pairwise(bank)


@pytest.mark.parametrize("chunk_hashes", [1, 40, distinct.L0_CHUNK_HASHES])
def test_l0_ties_go_to_the_first_subset(monkeypatch, chunk_hashes):
    # chunk_hashes=1 scores one candidate per chunk, so ties span chunks
    monkeypatch.setattr(distinct, "L0_CHUNK_HASHES", chunk_hashes)
    edges = [(u, v) for u in range(5) for v in range(10)]
    for reps in (1, 2, 3):
        bank = build_per_set_sketches(edges, 5, 4, seed=1, reps=reps)
        for k in range(1, 6):
            assert kcover_via_l0(bank, k).chosen == tuple(range(k))
    bank = build_per_set_sketches(gen_random(7, 200, 0.3, seed=2).edges_by_set(),
                                  7, 6, seed=3, reps=4)
    assert_same_as_pairwise(bank)


def _eval_bank():
    """The bank `eval --gen random:n=20,m=1000,p=0.2 --k 4 --eps 0.5` builds."""
    inst = gen_random(20, 1000, 0.2, seed=5)
    reps = math.ceil(math.log(math.comb(20, 4)))
    assert reps == 9
    return build_per_set_sketches(inst.edges_by_set(), 20, 16, seed=7, reps=reps)


L0_PEAK_BOUND = 2**20   # bytes; one chunk of 2^14 hashes measures ~0.3 MB


def test_l0_memory_is_one_chunk_in_flight():
    bank = _eval_bank()
    kcover_via_l0(bank, 4)   # imports and caches outside the measurement
    tracemalloc.start()
    try:
        sol = kcover_via_l0(bank, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < L0_PEAK_BOUND, f"peak {peak} bytes"
    combo, value = pairwise_l0(bank, 4)
    assert sol.chosen == combo and sol.meta["estimate"] == value


# ---------------------------------------------------------------------------
# Hardness oracles: the former versions, each cleaning its query anew


def old_clean(inst, items):
    s = frozenset(int(i) for i in items)
    if s and (min(s) < 0 or max(s) >= inst.n_items):
        raise IdRangeError("out of range")
    return s


def old_true(inst, items):
    s = old_clean(inst, items)
    g = len(s & inst.audit_gold())
    return Fraction(inst.k_gold) + Fraction(inst.n_items, inst.k_gold) * g


def old_deviation(inst, items):
    s = old_clean(inst, items)
    g = len(s & inst.audit_gold())
    center = Fraction(inst.k_gold * len(s), inst.n_items)
    slack = Fraction(inst.eps) * (
        center + Fraction(inst.k_gold * inst.k_gold, inst.n_items))
    return 0 if center - slack <= g <= center + slack else 1


def old_noisy(inst, items):
    s = old_clean(inst, items)
    if old_deviation(inst, s) == 0:
        return Fraction(inst.k_gold + len(s))
    return old_true(inst, s)


_QUERY_FORMS = (list, frozenset, lambda q: [np.int64(i) for i in q],
                lambda q: np.array(q, dtype=np.int32), lambda q: q + q[:3])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), data=st.data(),
       eps=st.floats(0.01, 0.9), seed=st.integers(0, 1000))
def test_hardness_oracles_match_former_code(n, data, eps, seed):
    k = data.draw(st.integers(1, n))
    inst = PlantedGoldInstance(n, k, eps, seed)
    query = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    for form in _QUERY_FORMS:
        q = form(query)
        assert inst.gold_count(q) == len(old_clean(inst, q) & inst.audit_gold())
        assert inst.true_coverage(q) == old_true(inst, q)
        assert inst.deviation_oracle(q) == old_deviation(inst, q)
        assert inst.noisy_coverage_oracle(q) == old_noisy(inst, q)
    with pytest.raises(IdRangeError):
        inst.true_coverage(query + [n])


def test_sampled_queries_are_the_former_draws():
    new, old = np.random.default_rng(11), np.random.default_rng(11)
    for n in (1, 2, 7, 200, 1000):
        for _ in range(50):
            query = _sample_query(new, n)
            size = int(old.integers(1, n + 1))
            assert query == [int(i) for i in old.choice(n, size=size,
                                                        replace=False)]
            assert all(type(i) is int for i in query)


# ---------------------------------------------------------------------------
# Disjointness instances


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_gen_disjointness_matches_from_edges(n, data):
    ids = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
    a, b = data.draw(ids), data.draw(ids)
    old = CoverageInstance.from_edges(
        n, 2, [(u, 0) for u in sorted(set(a))] + [(u, 1) for u in sorted(set(b))])
    new = gen_disjointness(a, b, n)
    assert (new.n, new.m, new.masks, new.edge_count) == (
        old.n, old.m, old.masks, old.edge_count)
    assert list(new.edges_by_element()) == list(old.edges_by_element())


def old_gen_disjointness(a_ids, b_ids, n):
    a = sorted(set(a_ids))
    b = sorted(set(b_ids))
    if not a or not b:
        raise ValueError("both id collections must be nonempty")
    return CoverageInstance(
        n, 2, SetSystem.from_incidence(n, 2, ((0, a), (1, b))).masks)


def _outcome(build, *args):
    try:
        inst = build(*args)
    except (IdRangeError, ValueError) as exc:
        return type(exc), str(exc)
    return inst.n, inst.m, inst.masks, inst.edge_count


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 10), data=st.data())
def test_gen_disjointness_matches_from_incidence_build(n, data):
    ids = st.lists(st.integers(-3, n + 3), max_size=2 * n + 2)
    a, b = data.draw(ids), data.draw(ids)
    assert _outcome(gen_disjointness, a, b, n) == _outcome(
        old_gen_disjointness, a, b, n)


@pytest.mark.parametrize("a, b, n, bad", [
    ([-2, 0, -5], [1], 3, -5),       # the smallest negative id
    ([0, 4, 3, 7], [1], 3, 3),       # the first id >= n, not the largest
    ([0], [2, 9, -1], 3, -1),        # a is fine, so b's first bad id
    ([5, -1], [-4, 6], 3, -1),       # bad ids in both: a's comes first
    ([3, 4], [9], 3, 3),
    ([0], [0], 0, 0),                # n = 0 has no valid id
])
def test_gen_disjointness_names_the_first_bad_id(a, b, n, bad):
    with pytest.raises(IdRangeError) as err:
        gen_disjointness(a, b, n)
    assert str(err.value) == f"set id {bad} outside [0, {n})"
    with pytest.raises(IdRangeError) as old:
        old_gen_disjointness(a, b, n)
    assert str(old.value) == str(err.value)


# ---------------------------------------------------------------------------
# brute_force_kcover: the k = 1 scan


def combinations_kcover(masks, k):
    """The former enumeration: first strict maximum over combinations."""
    best_value, best_combo = -1, ()
    for combo in combinations(range(len(masks)), k):
        mask = 0
        for u in combo:
            mask |= masks[u]
        if mask.bit_count() > best_value:
            best_value, best_combo = mask.bit_count(), combo
    return best_value, best_combo


@settings(max_examples=300, deadline=None)
@given(masks=st.lists(st.integers(0, 15), min_size=1, max_size=12))
def test_k1_scan_matches_combinations_loop(masks):
    # a 4-bit universe makes popcount ties the common case
    system = SetSystem(len(masks), 4, tuple(masks))
    assert brute_force_kcover(system, 1) == combinations_kcover(masks, 1)
    inst = CoverageInstance(len(masks), 4, tuple(masks))
    assert brute_force_kcover(inst, 1) == combinations_kcover(masks, 1)


def test_k1_scan_ties_and_empty_sets():
    assert brute_force_kcover(SetSystem(3, 1, (0, 0, 0)), 1) == (0, (0,))
    assert brute_force_kcover(SetSystem(4, 4, (1, 6, 5, 3)), 1) == (2, (1,))
    assert brute_force_kcover(SetSystem(3, 4, (1, 2, 15)), 1) == (4, (2,))


def test_k1_range_and_guard_errors():
    system = SetSystem(5, 3, (1, 2, 4, 3, 7))
    for k in (0, -1, 6):
        with pytest.raises(ConfigError, match=rf"k must lie in \[1, n=5\], got {k}"):
            brute_force_kcover(system, k)
    with pytest.raises(GuardExceededError, match=r"comb\(5, 1\) = 5 exceeds guard 4"):
        brute_force_kcover(system, 1, guard=4)
    assert brute_force_kcover(system, 1, guard=5) == (3, (4,))
    # the k-range check comes before the guard
    with pytest.raises(ConfigError):
        brute_force_kcover(system, 0, guard=0)


# ---------------------------------------------------------------------------
# The planted-gold band in integers


def _queries_by_gold_count(n, gold):
    """One query per (size, gold count) pair that n items and the gold allow."""
    plain = [i for i in range(n) if i not in gold]
    gold = sorted(gold)
    for size in range(1, n + 1):
        for g in range(max(0, size - len(plain)), min(size, len(gold)) + 1):
            yield gold[:g] + plain[:size - g]


@pytest.mark.parametrize("eps", [0.125, 0.25, 0.5, 0.75, 0.1, 0.3, 1 / 3, 0.9999])
def test_integer_band_matches_fraction_formula(eps):
    edges = 0
    for n in range(1, 17):
        for k in range(1, n + 1):
            inst = PlantedGoldInstance.from_gold(n, range(0, 2 * k, 2) if 2 * k <= n
                                                 else range(k), eps)
            for query in _queries_by_gold_count(n, inst.audit_gold()):
                assert inst.deviation_oracle(query) == old_deviation(inst, query)
                g = inst.gold_count(query)
                center = Fraction(k * len(query), n)
                slack = Fraction(eps) * (center + Fraction(k * k, n))
                edges += g in (center - slack, center + slack)
    if eps in (0.125, 0.25, 0.5, 0.75):
        # dyadic eps puts some gold counts exactly on a band edge
        assert edges > 0


def test_integer_band_on_exact_edges():
    # n = 8, k = 4, |S| = 4, eps = 1/4: center 2, slack 1, band [1, 3]
    inst = PlantedGoldInstance.from_gold(8, [0, 1, 2, 3], 0.25)
    for g, bit in ((0, 1), (1, 0), (2, 0), (3, 0), (4, 1)):
        query = list(range(g)) + list(range(4, 8 - g))
        assert len(query) == 4 and inst.gold_count(query) == g
        assert inst.deviation_oracle(query) == bit == old_deviation(inst, query)


def old_validity(inst, trials, seed, noisy_of=old_noisy):
    """The former validity loop: Fraction bounds times Fraction values."""
    rng = np.random.default_rng(seed)
    lo = Fraction(1) - Fraction(inst.eps_prime)
    hi = Fraction(1) + Fraction(inst.eps_prime)
    violations = []
    for _ in range(trials):
        query = _sample_query(rng, inst.n_items)
        noisy, true = noisy_of(inst, query), old_true(inst, query)
        if not (lo * noisy <= true <= hi * noisy) and len(violations) < 10:
            violations.append((len(set(query)), float(noisy), float(true)))
    return violations


@pytest.mark.parametrize("n, k, eps", [(1, 1, 0.5), (30, 7, 0.3), (200, 20, 0.1),
                                       (64, 64, 0.6)])
def test_validity_matches_fraction_check(n, k, eps):
    inst = PlantedGoldInstance(n, k, eps, seed=n + k)
    report = verify_oracle_validity(inst, 300, seed=5)
    assert report.trials == 300
    assert list(report.violations) == old_validity(inst, 300, 5) == []


def test_validity_reports_a_wrong_noisy_value(monkeypatch):
    inst = PlantedGoldInstance(40, 8, 0.2, seed=3)
    # a noisy oracle answering 0 violates the upper bound on every query;
    # the first ten are reported as (size, noisy, true) floats
    monkeypatch.setattr(PlantedGoldInstance, "_scaled_noisy", lambda self, s: 0)
    report = verify_oracle_validity(inst, 25, seed=9)
    assert len(report.violations) == 10 and not report.ok
    assert list(report.violations) == old_validity(
        inst, 25, 9, noisy_of=lambda inst, q: Fraction(0))


# ---------------------------------------------------------------------------
# CoverageInstance: the kept SetSystem, lazy edge_count, hash


def _instances():
    yield gen_random(9, 40, 0.3, seed=4)
    yield gen_planted_cover(12, 30, 3, seed=6)[0]
    yield gen_disjointness([0, 3, 5], [5, 6], 7)
    yield CoverageInstance.from_edges(4, 6, [(0, 0), (1, 1), (2, 2), (3, 3),
                                             (0, 4), (2, 5), (0, 0)])
    yield CoverageInstance(3, 70, (0, (1 << 70) - 1, 1 << 69))


def test_system_is_kept_and_edge_count_is_the_popcount():
    for inst in _instances():
        assert inst.system is inst.system
        assert inst.system == SetSystem(inst.n, inst.m, inst.masks)
        assert inst.edge_count == sum(bin(mask).count("1") for mask in inst.masks)
        assert inst.edge_count == sum(len(members) for members in inst.sets)
        assert inst.edge_count == len(list(inst.edges_by_set()))


def test_hash_follows_equality():
    for inst in _instances():
        twin = CoverageInstance(inst.n, inst.m, tuple(inst.masks))
        assert twin == inst and hash(twin) == hash(inst)
        assert hash(inst) == hash((inst.n, inst.m, inst.masks))
    a = gen_disjointness([1, 2], [2], 3)
    b = CoverageInstance.from_edges(3, 2, [(1, 0), (2, 0), (2, 1)])
    assert a == b and len({a, b}) == 1
