"""One incidence representation: every structure reads as the same SetSystem.

The references are the former eager builds, kept here as oracles: the
instance builder that collected Python sets per set and derived sorted
adjacency and masks from them, the planted generator on top of it, and the
element-at-a-time random edge generator.
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import (CoverageInstance, EdgeStream, SketchParams,
                       brute_force_kcover, build_sketch_offline,
                       gen_planted_cover, greedy_kcover, greedy_setcover,
                       random_edge_stream, sample_subgraph, write_edges_binary,
                       write_edges_text)
from covsketch.errors import IdRangeError, IsolatedElementError
from covsketch.instance import (BLOCK_EDGES, SetSystem, materialize_system,
                                random_edge_blocks)
from covsketch.solvers import as_set_system


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
    sizes = [u.size for u, _ in blocks]
    assert len(sizes) > 1 and all(s == BLOCK_EDGES for s in sizes[:-1])
    flat = [e for u, v in blocks for e in zip(u.tolist(), v.tolist())]
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
