"""Block ingestion against a per-edge reference of the admission rule.

`scalar_sketch` is a one-edge-at-a-time streaming builder, kept here as
the reference: a set of incident set ids per element, of which an element
keeps its degree_cap smallest (a smaller arrival displaces a full element's
largest id), a max-heap of (hash, id) keys, eviction the moment the
retained count passes edge_budget + degree_cap, and a reject key below
which nothing evicted comes back. It writes its sketch in the version-1
file format itself, one `struct` record at a time, so the format is pinned
by a writer that shares nothing with `save_sketch`. The block builder must
serialize to the same bytes whatever the block size.
"""

import heapq
import io
import random
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import (ElementHasher, SketchParams, StreamingSketchBuilder,
                       random_edge_stream, save_sketch)
from covsketch.hashing import unit_from_u64
from covsketch.instance import BLOCK_EDGES


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
