"""The exact-oracle layer against the per-query code it replaced.

`pairwise_l0` is the former enumeration k-cover, kept here as the reference:
for every candidate in lexicographic order it merges the k per-set sketches
pairwise (sorted union, cut to capacity), takes the median of the
per-repetition estimates, and keeps the first strict maximum. The numpy
enumeration must choose the same sets with a bit-identical estimate. The
hardness oracles are checked against their former per-call versions, and
`gen_disjointness` against `from_edges` on the former edge list.
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
                       build_per_set_sketches, gen_disjointness, gen_random,
                       kcover_via_l0)
from covsketch.errors import IdRangeError
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
