"""One incidence representation: every structure reads as the same SetSystem.

The references are the former eager builds, kept here as oracles: the
instance builder that collected Python sets per set and derived sorted
adjacency and masks from them, the planted generator on top of it, the
element-at-a-time random edge generator, and the `from_incidence` loop that
set mask bits one (position, set ids) pair at a time.
"""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covsketch import (CoverageInstance, EdgeStream, SketchParams,
                       brute_force_kcover, build_sketch_from_stream,
                       build_sketch_offline, gen_planted_cover, greedy_kcover, greedy_setcover,
                       load_sketch, random_edge_stream, recap_sketch,
                       sample_subgraph, save_sketch, write_edges_binary,
                       write_edges_text)
from covsketch.errors import IdRangeError, IsolatedElementError
from covsketch.hashing import ElementHasher, unit_from_u64
from covsketch.instance import (BLOCK_EDGES, SetSystem, materialize_system,
                                random_edge_blocks, split_keys)
from covsketch.solvers import as_set_system


def _reference_from_incidence(n, universe, incidence):
    """The former mask builder: (position, set ids) pairs, one bit at a time."""
    masks = [0] * n
    for pos, set_ids in incidence:
        if not 0 <= pos < universe:
            raise IdRangeError(f"element id {pos} outside [0, {universe})")
        bit = 1 << pos
        for u in set_ids:
            if not 0 <= u < n:
                raise IdRangeError(f"set id {u} outside [0, {n})")
            masks[u] |= bit
    return SetSystem(n, universe, tuple(masks))


def _outcome(build, *args):
    try:
        return build(*args)
    except IdRangeError as exc:
        return type(exc), str(exc)


@st.composite
def incidence_pairs(draw):
    """(n, universe, pairs): in-range pairs with repeats, and sometimes
    pairs out of range on either side, each (position, set id)."""
    n = draw(st.integers(1, 6))
    universe = draw(st.integers(0, 70))
    pairs = []
    if universe:
        pairs = draw(st.lists(st.tuples(st.integers(0, universe - 1),
                                        st.integers(0, n - 1)), max_size=40))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=8))
    bad = st.tuples(st.integers(-3, universe + 3), st.integers(-3, n + 3))
    for pair in draw(st.lists(bad, max_size=2)):
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return n, universe, pairs


@settings(max_examples=400, deadline=None)
@example((1, 0, []), list)
@example((3, 0, [(0, 1)]), np.int64)
@example((1, 13, [(12, 0), (3, 0), (12, 0)]), np.int32)
@example((2, 70, [(69, 1), (64, 0), (70, 2)]), np.int64)
@example((2, 9, [(4, 2), (9, 0)]), list)
@example((2, 9, [(4, 1), (2 ** 70, 0)]), list)      # beyond int64
@example((2, 9, [(4, -2 ** 64), (2, 0)]), list)
@given(incidence_pairs(), st.sampled_from([list, np.int64, np.int32]))
def test_array_build_matches_per_edge_reference(case, as_ints):
    n, universe, pairs = case
    want = _outcome(_reference_from_incidence, n, universe,
                    [(pos, (u,)) for pos, u in pairs])
    positions = [pos for pos, _ in pairs]
    set_ids = [u for _, u in pairs]
    got = _outcome(SetSystem.from_incidence, n, universe,
                   as_ints(positions), as_ints(set_ids))
    assert got == want


def _reference_system(n, id_lists):
    return _reference_from_incidence(n, len(id_lists), enumerate(id_lists))


def test_sketch_and_view_systems_match_per_edge_reference():
    n, m = 12, 400
    inst = CoverageInstance.from_edges(n, m, random_edge_stream(n, m, 0.3, 4))
    base = build_sketch_from_stream(
        inst.edges_by_element(),
        SketchParams.custom(n=n, k=2, eps=0.2, degree_cap=n, edge_budget=600),
        seed=8)
    assert not base.full_retention
    buf = io.BytesIO()
    save_sketch(base, buf)
    buf.seek(0)
    loaded = load_sketch(buf)
    level = recap_sketch(base, SketchParams.custom(n=n, k=2, eps=0.2,
                                                   degree_cap=2, edge_budget=300))
    assert level.elements is not base.elements
    for sk in (loaded, level):
        assert sk.system == _reference_system(n, [item.sets for item in sk.elements])
    view = sample_subgraph(inst, 0.4, seed=3)
    assert 0 < view.ids.size < m
    assert view.system == _reference_system(
        n, [inst.elements[e] for e in view.ids.tolist()])


@st.composite
def sampled_instances(draw):
    """(instance, p, seed), p one of 0, 1, an element's exact unit hash, the
    double just below one, or any float in [0, 1]."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 60))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                          max_size=150))
    inst = CoverageInstance.from_edges(n, m, edges, attach_isolated_seed=1)
    seed = draw(st.integers(0, 2 ** 64 - 1))
    hasher = ElementHasher(seed)
    unit = st.sampled_from([unit_from_u64(hasher.value(e)) for e in range(m)])
    p = draw(st.one_of(st.just(0.0), st.just(1.0), unit,
                       unit.map(lambda u: math.nextafter(u, 0.0)),
                       st.floats(0.0, 1.0)))
    return inst, p, seed


@settings(max_examples=300, deadline=None)
@given(sampled_instances())
def test_sample_subgraph_keeps_exactly_the_scalar_filter(case):
    inst, p, seed = case
    hasher = ElementHasher(seed)
    kept = [e for e in range(inst.m) if unit_from_u64(hasher.value(e)) <= p]
    view = sample_subgraph(inst, p, seed)
    assert view.ids.tolist() == kept
    assert view.system == _reference_system(inst.n, [inst.elements[e] for e in kept])
    assert view.edge_count == sum(len(inst.elements[e]) for e in kept)


def _reference_finish(n, m, by_set):
    """(sets, elements, masks, edge_count) from per-set Python sets."""
    sets = tuple(tuple(sorted(s)) for s in by_set)
    rev = [[] for _ in range(m)]
    masks = []
    count = 0
    for u, members in enumerate(sets):
        mask = 0
        for v in members:
            rev[v].append(u)
            mask |= 1 << v
        masks.append(mask)
        count += len(members)
    return sets, tuple(tuple(r) for r in rev), tuple(masks), count


def _reference_from_edges(n, m, edges, attach_seed):
    """The eager build, or None where it raised IsolatedElementError."""
    by_set = [set() for _ in range(n)]
    seen = bytearray(m)
    for u, v in edges:
        by_set[u].add(v)
        seen[v] = 1
    isolated = [e for e in range(m) if not seen[e]]
    if isolated:
        if attach_seed is None:
            return None
        rng = np.random.default_rng(attach_seed)
        for e in isolated:
            by_set[int(rng.integers(n))].add(e)
    return _reference_finish(n, m, by_set)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 30))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    edges = draw(st.lists(edge, max_size=4 * m))
    edges += draw(st.lists(st.sampled_from(edges), max_size=8)) if edges else []
    seed = draw(st.none() | st.integers(0, 2 ** 32 - 1))
    return n, m, edges, seed


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.data())
def test_masks_only_instance_matches_eager_reference(case, data):
    n, m, edges, seed = case
    want = _reference_from_edges(n, m, edges, seed)
    if want is None:
        with pytest.raises(IsolatedElementError):
            CoverageInstance.from_edges(n, m, edges, attach_isolated_seed=seed)
        return
    inst = CoverageInstance.from_edges(n, m, edges, attach_isolated_seed=seed)
    sets, elements, masks, count = want
    assert inst.masks == masks
    assert inst.edge_count == count
    assert inst.sets == sets
    assert inst.elements == elements
    assert [inst.degree(e) for e in range(m)] == [len(r) for r in elements]
    assert list(inst.edges_by_element()) == [
        (u, v) for v, owners in enumerate(elements) for u in owners]
    chosen = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    assert inst.coverage(chosen) == len(set().union(*(sets[u] for u in chosen)))
    twin = CoverageInstance.from_edges(n, m, inst.edges_by_set())
    assert twin == inst and hash(twin) == hash(inst)


def test_from_edges_range_and_isolated_errors():
    with pytest.raises(IdRangeError, match="set id 3"):
        CoverageInstance.from_edges(3, 2, [(0, 0), (3, 1)])
    with pytest.raises(IdRangeError, match="element id 2"):
        CoverageInstance.from_edges(3, 2, [(0, 0), (1, 2)])
    with pytest.raises(IsolatedElementError, match="2 isolated element"):
        CoverageInstance.from_edges(2, 4, [(0, 1), (1, 3)])
    with pytest.raises(IdRangeError):
        SetSystem(2, 3, (1, 2)).coverage([2])


def _targets(inst, n):
    """The instance, a full-retention offline sketch, the p=1 subgraph and
    the materialized stream, all over the same edges."""
    params = SketchParams.custom(n=n, k=1, eps=0.2, degree_cap=n,
                                 edge_budget=inst.edge_count + 1)
    sk = build_sketch_offline(inst, params, seed=11)
    assert sk.full_retention and sk.edge_total == inst.edge_count
    return (inst, sk, sample_subgraph(inst, 1.0, seed=12),
            materialize_system(inst.edges_by_set(), n))


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.integers(1, 7))
def test_solvers_agree_on_every_adapted_structure(case, k):
    n, m, edges, _ = case
    inst = CoverageInstance.from_edges(n, m, edges, attach_isolated_seed=5)
    k = min(k, n)
    results = []
    for target in _targets(inst, n):
        system = as_set_system(target)
        assert system.universe == m
        assert system.coverage(range(n)) == m
        greedy = greedy_kcover(target, k)
        cover = greedy_setcover(target)
        results.append((greedy.chosen, greedy.gains, brute_force_kcover(target, k),
                        cover.chosen, cover.gains))
    assert all(r == results[0] for r in results[1:])


def test_materialize_system_counts_distinct_elements():
    system = materialize_system([(1, 40), (0, 7), (1, 7), (1, 40)], 2)
    assert (system.n, system.universe) == (2, 2)
    assert system.masks == (0b01, 0b11)       # positions rank 7 before 40
    assert materialize_system([], 3) == SetSystem(3, 0, (0, 0, 0))


def _reference_random_edges(n, m, p_e, seed):
    rng = np.random.default_rng(seed)
    for elem in range(m):
        hits = np.flatnonzero(rng.random(n) < p_e)
        if hits.size == 0:
            yield (int(rng.integers(n)), elem)
        else:
            for u in hits:
                yield (int(u), elem)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 400),
       st.sampled_from([0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0]),
       st.integers(0, 2 ** 32 - 1))
def test_random_edges_match_element_at_a_time_reference(n, m, p_e, seed):
    want = list(_reference_random_edges(n, m, p_e, seed))
    assert list(random_edge_stream(n, m, p_e, seed)) == want
    binary = io.BytesIO()
    assert write_edges_binary(
        binary, EdgeStream(blocks=random_edge_blocks(n, m, p_e, seed))) == len(want)
    assert binary.getvalue() == b"".join(struct.pack("<II", u, v) for u, v in want)
    text = io.StringIO()
    write_edges_text(text, EdgeStream(blocks=random_edge_blocks(n, m, p_e, seed)))
    assert text.getvalue() == "".join(f"{u} {v}\n" for u, v in want)


def test_random_edge_blocks_are_full_and_match_reference_across_blocks():
    n, m, p_e, seed = 3, 40_000, 0.6, 21
    blocks = list(random_edge_blocks(n, m, p_e, seed))
    sizes = [keys.size for keys in blocks]
    assert len(sizes) > 1 and all(s == BLOCK_EDGES for s in sizes[:-1])
    flat = [e for keys in blocks
            for e in zip(*(ids.tolist() for ids in split_keys(keys)))]
    assert flat == list(_reference_random_edges(n, m, p_e, seed))


@pytest.mark.parametrize("n,m,k_star,seed", [(4, 8, 2, 3), (6, 12, 3, 5),
                                             (3, 3, 3, 1), (9, 60, 1, 7),
                                             (12, 200, 5, 13)])
def test_gen_planted_cover_matches_eager_reference(n, m, k_star, seed):
    rng = np.random.default_rng(seed)
    planted = sorted(int(u) for u in rng.choice(n, size=k_star, replace=False))
    perm = [int(e) for e in rng.permutation(m)]
    cuts = (sorted(int(c) for c in rng.choice(np.arange(1, m), size=k_star - 1,
                                              replace=False))
            if k_star > 1 else [])
    bounds = [0] + cuts + [m]
    blocks = [perm[bounds[i]:bounds[i + 1]] for i in range(k_star)]
    by_set = [set() for _ in range(n)]
    for pid, block in zip(planted, blocks):
        by_set[pid].update(block)
    for u in range(n):
        if u in planted:
            continue
        block = blocks[int(rng.integers(k_star))]
        keep_p = float(rng.uniform(0.2, 0.8))
        sub = [e for e in block if rng.random() < keep_p]
        if len(sub) == len(block) and sub:
            sub.pop(int(rng.integers(len(sub))))
        by_set[u].update(sub)
    inst, got_planted = gen_planted_cover(n, m, k_star, seed)
    assert got_planted == tuple(planted)
    sets, elements, masks, count = _reference_finish(n, m, by_set)
    assert (inst.sets, inst.elements, inst.masks, inst.edge_count) == (
        sets, elements, masks, count)
