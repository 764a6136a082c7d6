"""Distinct-count sketches and the enumeration k-cover baseline."""

import math
from bisect import bisect_left, insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import instance
from covsketch import (DistinctSketch, build_per_set_sketches, gen_random,
                       kcover_via_l0, merge_sketches)
from covsketch.errors import (ConfigError, GuardExceededError, IdRangeError,
                              IncompatibleSketchError)
from covsketch.hashing import ElementHasher, derive_seed, unit_from_u64


def _filled(values, capacity=8, seed=3, reps=1):
    """One set's sketch of the values, as the bank builds it."""
    return build_per_set_sketches([(0, v) for v in values], 1, capacity, seed,
                                  reps)[0]


def _insert(sk, element):
    """The former per-element insert: keep element's hash iff among the t
    smallest of each repetition; duplicate-safe."""
    if element < 0:
        raise IdRangeError(f"element id {element} is negative")
    for rep in range(sk.reps):
        h = ElementHasher(derive_seed(sk.seed, rep)).value(element)
        mins = sk.mins[rep]
        pos = bisect_left(mins, h)
        if pos < len(mins) and mins[pos] == h:
            continue
        if len(mins) >= sk.capacity:
            if h >= mins[-1]:
                continue
            insort(mins, h)
            mins.pop()
        else:
            insort(mins, h)


def test_constructor_domain():
    with pytest.raises(ConfigError):
        DistinctSketch(1, seed=0)
    with pytest.raises(ConfigError):
        DistinctSketch(4, seed=0, reps=0)
    with pytest.raises(IdRangeError):
        _filled([-1], capacity=4, seed=0)


def test_exact_below_capacity():
    sk = _filled(range(5), capacity=64)
    assert sk.estimate() == 5.0
    assert sk.retained_hash_count == 5
    empty = DistinctSketch(8, seed=0)
    assert empty.estimate() == 0.0


def test_insert_idempotent():
    sk = _filled([7, 7, 7, 3, 3], capacity=16)
    assert sk.estimate() == 2.0
    again = _filled([7, 3], capacity=16)
    assert sk == again


def test_estimate_formula_above_capacity():
    capacity, seed = 8, 5
    sk = _filled(range(100), capacity=capacity, seed=seed)
    hasher = ElementHasher(derive_seed(seed, 0))
    lows = sorted(hasher.value(e) for e in range(100))[:capacity]
    assert sk.mins[0] == lows
    want = (capacity - 1) / unit_from_u64(lows[-1])
    assert sk.estimate() == pytest.approx(want)


def test_from_accuracy_mapping():
    sk = DistinctSketch.from_accuracy(eps=0.1, delta=0.05, seed=1)
    assert sk.capacity == math.ceil(4.0 / 0.01)
    assert sk.reps == math.ceil(math.log(1.0 / 0.05))
    with pytest.raises(ConfigError):
        DistinctSketch.from_accuracy(eps=0.0, delta=0.05, seed=1)
    with pytest.raises(ConfigError):
        DistinctSketch.from_accuracy(eps=0.1, delta=1.0, seed=1)


def test_merge_laws():
    a = _filled(range(0, 30), capacity=8)
    b = _filled(range(20, 50), capacity=8)
    empty = _filled([], capacity=8)
    assert a.merge(empty) == a
    assert a.merge(b) == b.merge(a)
    assert a.merge(a) == a
    # associativity on a third sketch
    c = _filled(range(40, 70), capacity=8)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    # merge equals the sketch of the union stream
    union = _filled(range(0, 50), capacity=8)
    assert a.merge(b) == union


def test_merge_exact_regime_counts_union():
    a = _filled([1, 2, 3], capacity=64)
    b = _filled([3, 4], capacity=64)
    merged = merge_sketches(a, b)
    assert merged.estimate() == 4.0


def test_merge_incompatibilities():
    base = _filled([1], capacity=8, seed=3)
    with pytest.raises(IncompatibleSketchError):
        base.merge(_filled([1], capacity=16, seed=3))
    with pytest.raises(IncompatibleSketchError):
        base.merge(_filled([1], capacity=8, seed=4))
    with pytest.raises(IncompatibleSketchError):
        base.merge(_filled([1], capacity=8, seed=3, reps=2))


def test_estimate_concentrates():
    # relative error within 3/sqrt(capacity) for most seeds
    capacity, truth = 256, 4000
    tolerance = 3.0 / math.sqrt(capacity)
    misses = 0
    seeds = 60
    for seed in range(seeds):
        sk = _filled(range(truth), capacity=capacity, seed=seed)
        if abs(sk.estimate() - truth) > tolerance * truth:
            misses += 1
    assert misses <= 3


def test_median_across_reps_tightens():
    truth = 3000
    single = _filled(range(truth), capacity=64, seed=11, reps=1)
    voted = _filled(range(truth), capacity=64, seed=11, reps=9)
    assert abs(voted.estimate() - truth) <= abs(single.estimate() - truth) * 2
    assert voted.retained_hash_count == 9 * 64
    assert voted.space_units == voted.retained_hash_count


# ---------------------------------------------------------------------------
# Enumeration baseline


def test_build_per_set_sketches():
    inst = gen_random(5, 30, 0.3, seed=2)
    bank = build_per_set_sketches(inst.edges_by_element(), 5, 64, seed=7)
    assert len(bank) == 5
    for u, sk in enumerate(bank):
        assert sk.estimate() == float(len(inst.sets[u]))
    with pytest.raises(IdRangeError):
        build_per_set_sketches([(5, 0)], 5, 64, seed=7)
    with pytest.raises(ConfigError):
        build_per_set_sketches([], 0, 64, seed=7)


def _bank_by_inserts(edges, n, capacity, seed, reps):
    """The former per-edge bank build: the reference for the block build."""
    bank = [DistinctSketch(capacity, seed, reps) for _ in range(n)]
    for u, v in edges:
        if not 0 <= u < n:
            raise IdRangeError(f"set id {u} outside [0, {n})")
        _insert(bank[u], v)
    return bank


def _bank_outcome(build, *args):
    try:
        return [sk.mins for sk in build(*args)]
    except IdRangeError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), capacity=st.integers(2, 6),
       reps=st.integers(1, 3),
       block_edges=st.sampled_from([1, 3, instance.BLOCK_EDGES]))
def test_block_bank_matches_per_edge_inserts(data, n, capacity, reps,
                                             block_edges):
    # few element ids, so sets repeat elements and hold fewer distinct ones
    # than the capacity as often as more
    ids = st.integers(0, data.draw(st.integers(1, 12)))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), ids),
                               max_size=40))
    bad_edges = st.sampled_from([(n, 0), (-1, 0), (0, -2), (n + 3, -1)])
    for bad in data.draw(st.lists(bad_edges, max_size=2)):
        edges.insert(data.draw(st.integers(0, len(edges))), bad)
    seed = data.draw(st.integers(0, 2 ** 64 - 1))
    want = _bank_outcome(_bank_by_inserts, edges, n, capacity, seed, reps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instance, "BLOCK_EDGES", block_edges)
        got = _bank_outcome(build_per_set_sketches, edges, n, capacity, seed,
                            reps)
    assert got == want


def test_kcover_via_l0_takes_everything_at_k_equals_n():
    inst = gen_random(3, 12, 0.5, seed=4)
    bank = build_per_set_sketches(inst.edges_by_element(), 3, 64, seed=1)
    sol = kcover_via_l0(bank, 3)
    assert sol.chosen == (0, 1, 2)
    assert sol.covered_on_target is None
    assert sol.meta["estimate"] == float(inst.m)
    assert sol.meta["candidates"] == 1
    assert sol.meta["space_units"] == sum(sk.retained_hash_count for sk in bank)


def test_kcover_via_l0_disjoint_equal_sets_prefers_first():
    edges = [(u, 3 * u + j) for u in range(4) for j in range(3)]
    bank = build_per_set_sketches(edges, 4, 64, seed=9)
    sol = kcover_via_l0(bank, 2)
    assert sol.chosen == (0, 1)
    assert sol.meta["estimate"] == 6.0


def test_kcover_via_l0_matches_exact_in_exact_regime():
    from covsketch import brute_force_kcover
    for seed in range(8):
        inst = gen_random(6, 20, 0.3, seed=seed)
        bank = build_per_set_sketches(inst.edges_by_element(), 6, 64, seed=seed)
        sol = kcover_via_l0(bank, 2)
        opt, _ = brute_force_kcover(inst, 2)
        assert inst.coverage(sol.chosen) == opt


def test_kcover_via_l0_guard_and_validation():
    bank = [DistinctSketch(4, seed=0) for _ in range(30)]
    with pytest.raises(GuardExceededError):
        kcover_via_l0(bank, 15, guard=1000)
    with pytest.raises(ConfigError):
        kcover_via_l0(bank, 0)
    with pytest.raises(ConfigError):
        kcover_via_l0([], 1)
    mixed = [DistinctSketch(4, seed=0), DistinctSketch(4, seed=1)]
    with pytest.raises(IncompatibleSketchError):
        kcover_via_l0(mixed, 1)


def test_distinct_repr():
    sk = _filled([1, 2], capacity=8)
    assert "DistinctSketch(" in repr(sk)
