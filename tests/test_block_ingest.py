"""Block ingestion against a per-edge reference of the admission rule.

`scalar_sketch` is a one-edge-at-a-time streaming builder, kept here as
the reference: a set of incident set ids per element, of which an element
keeps its degree_cap smallest (a smaller arrival displaces a full element's
largest id), a max-heap of (hash, id) keys, eviction the moment the
retained count passes edge_budget + degree_cap, and a reject key below
which nothing evicted comes back. It writes its sketch in the version-1
file format itself, one `struct` record at a time, so the format is pinned
by a writer that shares nothing with `save_sketch`. The block builder must
serialize to the same bytes whatever the block size. `reference_stats`
replays the block rule on a dict state to pin every `BuilderStats` counter.

A block is the stream's own u64 keys, (element id << 32) | set id: the
bytes of a binary edge file, read-only. The last test pins that encoding
and feeds such read-only blocks to every consumer.
"""

import heapq
import io
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import (CoverageInstance, ElementHasher, EdgeStream, SketchParams,
                       StreamingSketchBuilder, build_per_set_sketches,
                       build_sketch_from_stream, instance, random_edge_stream,
                       save_sketch, setcover_multipass, write_edges_binary,
                       write_edges_text)
from covsketch.errors import IdRangeError
from covsketch.harness import recount_coverage, scan_shape
from covsketch.hashing import unit_from_u64
from covsketch.instance import (BLOCK_EDGES, MAX_ID, edge_blocks,
                                load_edge_blocks, materialize_system)


def scalar_sketch(edges, params, seed):
    hasher = ElementHasher(seed)
    incident, hashes, heap = {}, {}, []
    reject, total = None, 0
    limit = params.edge_budget + params.degree_cap
    for u, v in edges:
        sets = incident.get(v)
        if sets is None:
            h = hasher.value(v)
            if reject is not None and (h, v) >= reject:
                continue
            incident[v] = {u}
            hashes[v] = h
            heapq.heappush(heap, (-h, -v))
        elif u in sets:
            continue
        elif len(sets) >= params.degree_cap:
            if u < max(sets):
                sets.remove(max(sets))
                sets.add(u)
            continue
        else:
            sets.add(u)
        total += 1
        while total > limit:
            neg_h, neg_v = heapq.heappop(heap)
            reject = (-neg_h, -neg_v)
            total -= len(incident.pop(-neg_v))
            del hashes[-neg_v]
    kept, total, threshold = [], 0, 1.0
    for h, v in sorted((h, v) for v, h in hashes.items()):
        kept.append((v, h, sorted(incident[v])))
        total += len(kept[-1][2])
        if total >= params.edge_budget:
            threshold = unit_from_u64(h)
            break
    return _v1_bytes(params, seed, threshold, kept, total)


def _v1_bytes(params, seed, threshold, records, total):
    """Version-1 sketch bytes from (element, hash, set ids) records."""
    out = struct.pack("<4sIIIddQdIQ", b"CVSK", 1, params.n, params.k,
                      params.eps, params.delta2, seed, threshold,
                      len(records), total)
    for elem, hash_val, sets in records:
        out += struct.pack("<IQI", elem, hash_val, len(sets))
        out += b"".join(struct.pack("<I", u) for u in sets)
    return out


def _bytes(sk):
    buf = io.BytesIO()
    save_sketch(sk, buf)
    return buf.getvalue()


def _block_sketch(edges, params, seed, block):
    builder = StreamingSketchBuilder(params, seed)
    for start in range(0, len(edges), block):
        chunk = edges[start:start + block]
        builder.update_block([u for u, _ in chunk], [v for _, v in chunk])
        assert builder.retained_edge_count <= params.edge_budget + params.degree_cap
    return builder.finalize()


@st.composite
def streams(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 80))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                          max_size=300))
    binding = draw(st.booleans())
    cap = draw(st.integers(1, 4)) if binding else n
    budget = draw(st.integers(1, 80))
    params = SketchParams.custom(n=n, k=1, eps=0.2, degree_cap=cap,
                                 edge_budget=budget)
    return edges, params, draw(st.integers(0, 2 ** 64 - 1))


@settings(max_examples=150, deadline=None)
@given(streams(), st.randoms(use_true_random=False))
def test_block_builder_matches_scalar_reference(case, rng):
    edges, params, seed = case
    shuffled = list(edges)
    rng.shuffle(shuffled)
    for order in (edges, shuffled):
        want = scalar_sketch(order, params, seed)
        for block in (1, 2, 7, BLOCK_EDGES):
            assert _bytes(_block_sketch(order, params, seed, block)) == want


def test_block_builder_matches_scalar_reference_across_full_blocks():
    edges = list(random_edge_stream(60, 2600, 0.5, seed=17))
    assert len(edges) > BLOCK_EDGES
    for cap, budget in ((5, 4000), (60, 9000), (3, 200_000)):
        params = SketchParams.custom(n=60, k=3, eps=0.2, degree_cap=cap,
                                     edge_budget=budget)
        builder = StreamingSketchBuilder(params, seed=5)
        builder.extend(edges)
        assert _bytes(builder.finalize()) == scalar_sketch(edges, params, 5)


def reference_stats(edges, params, seed, block):
    """The BuilderStats of a per-block build on a dict state: drop on sight
    at or above the reject hash, merge, keep each element's degree_cap
    smallest set ids, and cut only when the merged state passes
    edge_budget + degree_cap."""
    hasher = ElementHasher(seed)
    cap, limit = params.degree_cap, params.edge_budget + params.degree_cap
    state, reject = {}, None
    stats = dict(seen_edges=0, dropped_on_sight=0, dropped_duplicate_or_cap=0,
                 evicted_elements=0, evicted_edges=0)
    for start in range(0, len(edges), block):
        chunk = edges[start:start + block]
        stats["seen_edges"] += len(chunk)
        if reject is not None:
            kept = [(u, v) for u, v in chunk if hasher.value(v) < reject]
            stats["dropped_on_sight"] += len(chunk) - len(kept)
            chunk = kept
        held = sum(map(len, state.values())) + len(chunk)
        for u, v in chunk:
            state.setdefault(v, set()).add(u)
        state = {v: set(sorted(ids)[:cap]) for v, ids in state.items()}
        total = sum(map(len, state.values()))
        stats["dropped_duplicate_or_cap"] += held - total
        if total > limit:
            order, run = sorted(state, key=hasher.value), 0
            for cut, v in enumerate(order):
                if run + len(state[v]) > limit:
                    break
                run += len(state[v])
            reject = hasher.value(order[cut])
            stats["evicted_elements"] += len(order) - cut
            stats["evicted_edges"] += total - run
            state = {v: state[v] for v in order[:cut]}
    threshold, run = 1.0, 0
    for v in sorted(state, key=hasher.value):
        run += len(state[v])
        if run >= params.edge_budget:
            threshold = unit_from_u64(hasher.value(v))
            break
    return dict(stats, threshold=threshold, budget_bound=threshold < 1.0)


@settings(max_examples=150, deadline=None)
@given(streams(), st.randoms(use_true_random=False))
def test_builder_stats_match_a_per_block_reference(case, rng):
    edges, params, seed = case
    shuffled = list(edges)
    rng.shuffle(shuffled)
    for order in (edges, shuffled):
        for block in (1, 7, BLOCK_EDGES):
            stats = _block_sketch(order, params, seed, block).stats.as_dict()
            assert stats == reference_stats(order, params, seed, block)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 64 - 1),
       st.lists(st.integers(0, 2 ** 32 - 1), max_size=50))
def test_vector_hash_matches_scalar(seed, ids):
    hasher = ElementHasher(seed)
    ids = [0, 2 ** 32 - 1] + ids
    got = hasher.values(np.array(ids, dtype=np.int64))
    assert got.dtype == np.uint64
    assert got.tolist() == [hasher.value(e) for e in ids]


def test_vector_hash_of_a_large_random_batch():
    rng = random.Random(9)
    ids = [rng.randrange(2 ** 32) for _ in range(5000)]
    hasher = ElementHasher(12345)
    assert hasher.values(np.array(ids, dtype=np.uint32)).tolist() == \
        [hasher.value(e) for e in ids]


_IDS = st.integers(0, 9) | st.integers(0, MAX_ID)
_BAD_IDS = st.integers(-2 ** 40, -1) | st.integers(MAX_ID + 1, 2 ** 40)


def _consumers(n, m):
    """Each consumer of an edge source (a callable returning a fresh edge
    iterable) that applies to ids below n and m, by name."""
    out = {"shape": lambda src: scan_shape(src()),
           "recount": lambda src: recount_coverage(src(), [0, 3, MAX_ID])}
    if n <= 10:
        params = SketchParams.custom(n=n, k=1, eps=0.2, degree_cap=2,
                                     edge_budget=5)
        out["sketch"] = lambda src: _bytes(build_sketch_from_stream(src(), params, 7))
        out["system"] = lambda src: materialize_system(src(), n)
        out["bank"] = lambda src: [sk.mins for sk in
                                   build_per_set_sketches(src(), n, 3, seed=7)]
    if n <= 10 and m <= 10:
        out["instance"] = lambda src: CoverageInstance.from_edges(
            n, m, src(), attach_isolated_seed=1)
        # m = 60 admits r = 2, so one outlier pass runs before the last one
        out["cover"] = lambda src: setcover_multipass(src, n, 60, 2, 0.5, 3).chosen
    return out


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(_IDS, _IDS), max_size=40),
       st.sampled_from([3, BLOCK_EDGES]), st.data())
def test_one_key_encoding_from_file_to_every_consumer(edges, block_edges, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instance, "BLOCK_EDGES", block_edges)
        keys = list(edge_blocks(edges))
        assert [k for block in keys for k in block.tolist()] == \
            [v << 32 | u for u, v in edges]
        binary = io.BytesIO()
        assert write_edges_binary(binary, edges) == len(edges)
        assert binary.getvalue() == b"".join(block.tobytes() for block in keys)
        text = io.StringIO()
        write_edges_text(text, edges)
        for raw, fmt in ((binary.getvalue(), "binary"),
                         (text.getvalue().encode(), "text")):
            loaded = list(load_edge_blocks(io.BytesIO(raw), fmt))
            assert [b.tolist() for b in loaded] == [b.tolist() for b in keys]

        def read_only():
            for block in load_edge_blocks(io.BytesIO(binary.getvalue()), "binary"):
                assert not block.flags.writeable
                yield block

        n = 1 + max((u for u, _ in edges), default=0)
        m = 1 + max((v for _, v in edges), default=0)
        assert list(EdgeStream(read_only())) == edges
        for name, consume in _consumers(n, m).items():
            assert consume(lambda: EdgeStream(read_only())) == \
                consume(lambda: edges), name

        bad = data.draw(_BAD_IDS)
        spoiled = list(edges)
        spoiled.insert(data.draw(st.integers(0, len(edges))),
                       data.draw(st.sampled_from([(bad, 0), (0, bad)])))
        with pytest.raises(IdRangeError):
            write_edges_binary(io.BytesIO(), spoiled)
        with pytest.raises(IdRangeError):
            list(EdgeStream(edge_blocks(spoiled)))
        for name, consume in _consumers(n, m).items():
            with pytest.raises(IdRangeError):
                consume(lambda: spoiled)
