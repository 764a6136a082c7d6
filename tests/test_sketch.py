"""Degree-capped subsampling sketches: params, builders, estimation, bytes."""

import io
import math
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import (CoverageInstance, Sketch, SketchParams,
                       StreamingSketchBuilder, build_sketch_from_stream,
                       build_sketch_offline, estimate_coverage, gen_random,
                       load_sketch, sample_subgraph, save_sketch)
from covsketch.errors import ConfigError, IdRangeError, ParseError, StateError
from covsketch.hashing import ElementHasher, unit_from_u64
from covsketch.instance import BLOCK_EDGES


def _cap_nonbinding(n, budget, **kw):
    # degree_cap = n can never truncate an incident list
    return SketchParams.custom(n=n, k=kw.pop("k", 2), eps=kw.pop("eps", 0.2),
                               degree_cap=n, edge_budget=budget, **kw)


# ---------------------------------------------------------------------------
# Parameters


def test_derive_matches_formula():
    n, k, eps, delta2, m_hint = 10, 3, 0.2, 1.5, 50
    p = SketchParams.derive(n=n, k=k, eps=eps, delta2=delta2, m_hint=m_hint)
    inner = 2.0 + math.log(m_hint) / math.log(1.0 / (1.0 - eps))
    delta = delta2 * max(1.0, math.log(inner))
    assert p.delta == pytest.approx(delta)
    assert p.degree_cap == math.ceil(n * math.log(1 / eps) / (eps * min(k, n)))
    assert p.edge_budget == math.ceil(
        24 * n * delta * math.log(1 / eps) * math.log(n) / ((1 - eps) * eps ** 3))


def test_derive_clamps_k_and_m_hint():
    a = SketchParams.derive(n=4, k=100, eps=0.1)
    b = SketchParams.derive(n=4, k=4, eps=0.1)
    assert a.degree_cap == b.degree_cap
    assert SketchParams.derive(n=4, k=1, eps=0.1, m_hint=0).m_hint == 2
    # budget grows with the element-count hint
    small = SketchParams.derive(n=4, k=1, eps=0.1, m_hint=2)
    big = SketchParams.derive(n=4, k=1, eps=0.1, m_hint=10**6)
    assert big.edge_budget > small.edge_budget


def test_params_domain_errors():
    with pytest.raises(ConfigError):
        SketchParams.derive(n=4, k=1, eps=0.25)
    with pytest.raises(ConfigError):
        SketchParams.derive(n=4, k=1, eps=0.0)
    with pytest.raises(ConfigError):
        SketchParams.derive(n=4, k=0, eps=0.1)
    with pytest.raises(ConfigError):
        SketchParams.derive(n=0, k=1, eps=0.1)
    with pytest.raises(ConfigError):
        SketchParams.derive(n=4, k=1, eps=0.1, delta2=0.5)
    with pytest.raises(ConfigError):
        SketchParams.custom(n=4, k=1, eps=0.3, degree_cap=2, edge_budget=5)
    with pytest.raises(ConfigError):
        SketchParams.custom(n=4, k=1, eps=0.1, degree_cap=0, edge_budget=5)


def test_custom_budgets_taken_verbatim():
    p = SketchParams.custom(n=9, k=2, eps=0.15, degree_cap=3, edge_budget=41)
    assert (p.degree_cap, p.edge_budget) == (3, 41)


# ---------------------------------------------------------------------------
# Subgraph views


def test_sample_subgraph_extremes():
    inst = gen_random(5, 20, 0.3, seed=1)
    everything = sample_subgraph(inst, 1.0, seed=7)
    assert everything.ids.tolist() == list(range(inst.m))
    assert everything.edge_count == inst.edge_count
    nothing = sample_subgraph(inst, 0.0, seed=7)
    assert nothing.ids.size == 0
    assert nothing.edge_count == 0
    with pytest.raises(ConfigError):
        sample_subgraph(inst, -0.1, seed=7)
    with pytest.raises(ConfigError):
        sample_subgraph(inst, 1.1, seed=7)


def test_sample_subgraph_matches_hash_filter():
    inst = gen_random(6, 30, 0.4, seed=2)
    p, seed = 0.4, 9
    view = sample_subgraph(inst, p, seed)
    hasher = ElementHasher(seed)
    expect = [e for e in range(inst.m) if unit_from_u64(hasher.value(e)) <= p]
    assert view.ids.tolist() == expect
    assert view.degrees.tolist() == [len(inst.elements[e]) for e in expect]
    assert view.sets.tolist() == [u for e in expect for u in inst.elements[e]]
    assert not (view.ids.flags.writeable or view.degrees.flags.writeable
                or view.sets.flags.writeable)


def test_sample_subgraph_nested_across_p():
    inst = gen_random(6, 50, 0.3, seed=3)
    grid = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0]
    views = [set(sample_subgraph(inst, p, seed=4).ids.tolist()) for p in grid]
    for smaller, bigger in zip(views, views[1:]):
        assert smaller <= bigger


def test_view_covered_count():
    inst = gen_random(6, 25, 0.35, seed=6)
    view = sample_subgraph(inst, 0.6, seed=8)
    chosen = [1, 4]
    want = sum(1 for e in view.ids.tolist()
               if set(chosen) & set(inst.elements[e]))
    assert view.covered_count(chosen) == want


# ---------------------------------------------------------------------------
# Offline builder


def test_offline_tiny_prefix():
    # m=6 singleton-degree elements, budget 3: the three smallest hashes win
    edges = [(e % 4, e) for e in range(6)]
    inst = CoverageInstance.from_edges(4, 6, edges)
    seed = 11
    params = _cap_nonbinding(4, 3)
    sk = build_sketch_offline(inst, params, seed)
    hasher = ElementHasher(seed)
    order = sorted(range(6), key=lambda e: (hasher.value(e), e))
    assert sk.ids.tolist() == order[:3]
    assert sk.edge_total == 3
    assert sk.threshold == unit_from_u64(hasher.value(order[2]))
    hashes = [item.hash for item in sk.elements]
    assert hashes == sorted(hashes)


def test_offline_full_retention_when_budget_loose():
    inst = gen_random(5, 15, 0.4, seed=7)
    params = _cap_nonbinding(5, 10_000)
    sk = build_sketch_offline(inst, params, seed=1)
    assert sk.full_retention and sk.threshold == 1.0
    assert sk.element_count == inst.m
    assert sk.edge_total == inst.edge_count


def test_offline_rejects_mismatched_n():
    inst = gen_random(5, 10, 0.5, seed=0)
    with pytest.raises(ConfigError):
        build_sketch_offline(inst, _cap_nonbinding(6, 10), seed=0)


# ---------------------------------------------------------------------------
# Streaming builder


def test_streaming_equals_offline_cap_nonbinding():
    inst = gen_random(10, 200, 0.15, seed=4)
    params = _cap_nonbinding(10, 60, k=3)
    for seed in (0, 1, 2):
        offline = build_sketch_offline(inst, params, seed)
        streamed = build_sketch_from_stream(inst.edges_by_element(), params, seed)
        assert streamed == offline
        a, b = io.BytesIO(), io.BytesIO()
        save_sketch(offline, a)
        save_sketch(streamed, b)
        assert a.getvalue() == b.getvalue()


def test_streaming_order_invariance():
    inst = gen_random(8, 120, 0.2, seed=9)
    params = _cap_nonbinding(8, 40)
    baseline = build_sketch_offline(inst, params, seed=3)
    edges = list(inst.edges_by_element())
    rng = random.Random(42)
    for _ in range(5):
        rng.shuffle(edges)
        assert build_sketch_from_stream(edges, params, seed=3) == baseline


@st.composite
def shuffled_multisets(draw):
    n = draw(st.integers(1, 10))
    owners = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1),
                           min_size=1, max_size=40))
    edges = [(u, v) for v, sets in enumerate(owners) for u in sorted(sets)]
    extra = draw(st.lists(st.sampled_from(edges), max_size=len(edges)))
    stream = draw(st.permutations(edges + extra))
    params = SketchParams.custom(n=n, k=1, eps=0.2,
                                 degree_cap=draw(st.integers(1, n)),
                                 edge_budget=draw(st.integers(1, 60)))
    return (CoverageInstance.from_edges(n, len(owners), edges), stream, params,
            draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=150, deadline=None)
@given(shuffled_multisets())
def test_streaming_equals_offline_whatever_the_order(case):
    inst, stream, params, seed = case
    want = build_sketch_offline(inst, params, seed)
    for block in (1, 3, 7, BLOCK_EDGES):
        builder = StreamingSketchBuilder(params, seed)
        for start in range(0, len(stream), block):
            chunk = stream[start:start + block]
            builder.update_block([u for u, _ in chunk], [v for _, v in chunk])
            assert builder.retained_edge_count <= params.edge_budget + params.degree_cap
        s = builder.stats
        assert s.seen_edges == (s.dropped_on_sight + s.dropped_duplicate_or_cap
                                + s.evicted_edges + builder.retained_edge_count)
        assert builder.finalize() == want


def test_streaming_duplicate_edges_idempotent():
    inst = gen_random(6, 50, 0.3, seed=5)
    params = _cap_nonbinding(6, 25)
    edges = list(inst.edges_by_element())
    once = build_sketch_from_stream(edges, params, seed=2)
    twice = build_sketch_from_stream(edges + edges, params, seed=2)
    assert once == twice


def test_streaming_cap_binding_keeps_ids_and_degrees():
    inst = gen_random(12, 80, 0.5, seed=6)
    params = SketchParams.custom(n=12, k=2, eps=0.2, degree_cap=2, edge_budget=30)
    offline = build_sketch_offline(inst, params, seed=1)
    edges = list(inst.edges_by_element())
    rng = random.Random(7)
    for _ in range(4):
        rng.shuffle(edges)
        # each element keeps its degree_cap smallest set ids, whatever the order
        assert build_sketch_from_stream(edges, params, seed=1) == offline
    assert build_sketch_from_stream(inst.edges_by_element(), params, seed=1) == offline


def test_streaming_budget_window_and_minimality():
    for seed in range(8):
        inst = gen_random(9, 150, 0.25, seed=seed)
        params = _cap_nonbinding(9, 50)
        sk = build_sketch_from_stream(inst.edges_by_element(), params, seed=seed)
        m_budget, d_cap = params.edge_budget, params.degree_cap
        assert m_budget <= sk.edge_total <= m_budget + d_cap
        assert all(len(i.sets) <= d_cap for i in sk.elements)
        # dropping the last retained element falls below the budget
        assert sk.edge_total - len(sk.elements[-1].sets) < m_budget
        assert not sk.full_retention


def test_streaming_counts_and_lifecycle():
    params = _cap_nonbinding(3, 100)
    builder = StreamingSketchBuilder(params, seed=0)
    builder.update_block([0], [5])
    builder.update_block([0], [5])          # duplicate: seen but not retained
    builder.update_block([1], [5])
    assert builder.seen_edge_count == 3
    assert builder.retained_edge_count == 2
    with pytest.raises(IdRangeError):
        builder.update_block([3], [0])
    with pytest.raises(IdRangeError):
        builder.update_block([0], [-1])
    sk = builder.finalize()
    assert sk.ids.tolist() == [5]
    with pytest.raises(StateError):
        builder.update_block([0], [1])
    with pytest.raises(StateError):
        builder.finalize()


def test_streaming_rejects_element_ids_beyond_32_bits():
    builder = StreamingSketchBuilder(_cap_nonbinding(3, 100), seed=0)
    with pytest.raises(IdRangeError, match="32-bit"):
        builder.update_block([0], [2 ** 32 + 5])
    with pytest.raises(IdRangeError):
        builder.update_block([0], [2 ** 64 + 1])
    with pytest.raises(IdRangeError):
        builder.extend([(0, 1), (1, 2 ** 32)])
    builder.update_block([0], [2 ** 32 - 1])
    sk = builder.finalize()
    assert sk.ids.tolist() == [2 ** 32 - 1]
    buf = io.BytesIO()
    save_sketch(sk, buf)
    buf.seek(0)
    assert load_sketch(buf) == sk


_U64 = np.uint64


@pytest.mark.parametrize("set_ids, element_ids, message", [
    ([0.5], [1], "id 0.5 is not an integer"),
    ([0], [2.9], "id 2.9 is not an integer"),
    ([0], [2 ** 64 + 1], "an id exceeds the 64-bit range"),
    (np.array([0], _U64), np.array([2 ** 32], _U64),
     "element id 4294967296 exceeds the 32-bit range"),
    (np.array([0], _U64), np.array([2 ** 63], _U64),
     "element id 9223372036854775808 exceeds the 32-bit range"),
], ids=["float-set", "float-element", "past-64-bits", "u64-2^32", "u64-2^63"])
def test_update_block_refuses_ids_it_would_truncate_or_wrap(set_ids, element_ids,
                                                            message):
    builder = StreamingSketchBuilder(_cap_nonbinding(3, 100), seed=0)
    with pytest.raises(IdRangeError, match=re.escape(message)):
        builder.update_block(set_ids, element_ids)
    assert builder.seen_edge_count == 0


def test_streamed_float_ids_are_refused_not_truncated():
    # (0.5, 2.9) was kept as element 2 in set 0
    with pytest.raises(IdRangeError, match="id 0.5 is not an integer"):
        build_sketch_from_stream([(0.5, 2.9)], _cap_nonbinding(3, 100), seed=0)


def test_builder_stats_account_for_every_arrival():
    inst = gen_random(10, 400, 0.4, seed=3)
    edges = list(inst.edges_by_element()) * 2            # every edge twice
    params = SketchParams.custom(n=10, k=2, eps=0.2, degree_cap=3,
                                 edge_budget=150)
    builder = StreamingSketchBuilder(params, seed=4)
    builder.extend(edges)
    stats = builder.stats
    assert stats.seen_edges == builder.seen_edge_count == len(edges)
    admitted = (stats.seen_edges - stats.dropped_on_sight
                - stats.dropped_duplicate_or_cap)
    assert admitted - stats.evicted_edges == builder.retained_edge_count
    assert stats.evicted_elements > 0 and stats.dropped_duplicate_or_cap > 0
    sk = builder.finalize()
    assert sk.stats is stats
    assert stats.budget_bound and stats.threshold == sk.threshold < 1.0
    assert set(stats.as_dict()) == {
        "seen_edges", "dropped_on_sight", "dropped_duplicate_or_cap",
        "evicted_elements", "evicted_edges", "budget_bound", "threshold"}

    full = StreamingSketchBuilder(_cap_nonbinding(10, 10 ** 6), seed=4)
    full.extend(edges)
    sk = full.finalize()
    assert sk.full_retention
    assert full.stats.budget_bound is False and full.stats.threshold == 1.0
    assert full.stats.evicted_edges == 0 and full.stats.dropped_on_sight == 0


def test_streaming_empty_stream():
    sk = build_sketch_from_stream([], _cap_nonbinding(4, 10), seed=0)
    assert sk.element_count == 0
    assert sk.edge_total == 0
    assert sk.threshold == 1.0


# ---------------------------------------------------------------------------
# Estimation


def test_estimate_exact_at_full_retention():
    inst = gen_random(7, 60, 0.25, seed=8)
    sk = build_sketch_offline(inst, _cap_nonbinding(7, 10**6), seed=2)
    for chosen in ([0], [1, 5], list(range(7))):
        est = estimate_coverage(sk, chosen)
        assert est.raw == inst.coverage(chosen)
        assert est.scaled == float(inst.coverage(chosen))
    empty = estimate_coverage(sk, [])
    assert (empty.raw, empty.scaled) == (0, 0.0)


def test_estimate_scales_by_threshold():
    inst = gen_random(7, 200, 0.2, seed=9)
    sk = build_sketch_offline(inst, _cap_nonbinding(7, 40), seed=5)
    est = estimate_coverage(sk, [0, 3])
    assert est.raw == sk.system.coverage([0, 3])
    assert est.scaled == est.raw / sk.threshold
    assert float(est) == est.scaled
    with pytest.raises(IdRangeError):
        estimate_coverage(sk, [7])


def test_estimate_unbiased_at_fixed_subsampling_rate():
    # mean of covered/p over 500 hash seeds lands within 2% of true coverage
    inst = gen_random(8, 500, 0.3, seed=11)
    chosen = [0, 3, 5]
    truth = inst.coverage(chosen)
    p = 0.2
    total = 0.0
    seeds = 500
    for seed in range(seeds):
        view = sample_subgraph(inst, p, seed=seed)
        total += view.covered_count(chosen) / p
    mean = total / seeds
    assert abs(mean - truth) <= 0.02 * truth


# ---------------------------------------------------------------------------
# Serialization


def test_save_load_round_trip_formula_params():
    inst = gen_random(8, 90, 0.3, seed=3)
    params = SketchParams.derive(n=8, k=2, eps=0.2, delta2=1.0, m_hint=90)
    sk = build_sketch_offline(inst, params, seed=4)
    buf = io.BytesIO()
    written = save_sketch(sk, buf)
    assert written == len(buf.getvalue())
    buf.seek(0)
    assert load_sketch(buf) == sk


def test_save_load_round_trip_custom_params():
    inst = gen_random(8, 90, 0.3, seed=3)
    sk = build_sketch_offline(inst, _cap_nonbinding(8, 30), seed=4)
    buf = io.BytesIO()
    save_sketch(sk, buf)
    buf.seek(0)
    loaded = load_sketch(buf)
    assert loaded == sk
    # loaded params come from the formula, structure is authoritative
    assert loaded.ids.tolist() == sk.ids.tolist()
    assert loaded.threshold == sk.threshold
    out = io.BytesIO()
    save_sketch(loaded, out)
    assert out.getvalue() == buf.getvalue()


def test_load_rejects_corruption():
    inst = gen_random(5, 40, 0.3, seed=1)
    sk = build_sketch_offline(inst, _cap_nonbinding(5, 15), seed=0)
    buf = io.BytesIO()
    save_sketch(sk, buf)
    blob = buf.getvalue()

    bad_magic = b"XXXX" + blob[4:]
    with pytest.raises(ParseError):
        load_sketch(io.BytesIO(bad_magic))

    bad_version = blob[:4] + b"\x99\x00\x00\x00" + blob[8:]
    with pytest.raises(ParseError):
        load_sketch(io.BytesIO(bad_version))

    with pytest.raises(ParseError):
        load_sketch(io.BytesIO(blob[:-2]))          # truncated records

    with pytest.raises(ParseError):
        load_sketch(io.BytesIO(blob + b"\x00"))     # trailing byte

    # edge-total header field inconsistent with the records
    head = bytearray(blob[: 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + 8])
    total_off = len(head) - 8
    stored = struct.unpack_from("<Q", head, total_off)[0]
    struct.pack_into("<Q", head, total_off, stored + 1)
    with pytest.raises(ParseError):
        load_sketch(io.BytesIO(bytes(head) + blob[len(head):]))


def _craft(n, seed, threshold, records):
    """Sketch bytes from raw (element, hash, set ids) records."""
    total = sum(len(sets) for _, _, sets in records)
    out = struct.pack("<4sIIIddQdIQ", b"CVSK", 1, n, 1, 0.2, 1.0, seed,
                      threshold, len(records), total)
    for elem, hash_val, sets in records:
        out += struct.pack("<IQI", elem, hash_val, len(sets))
        out += b"".join(struct.pack("<I", u) for u in sets)
    return out


_H = ElementHasher(3)     # the seed of every crafted sketch


def _keyed(elements):
    """(hash, id) of each element under _H, ascending."""
    return sorted((_H.value(e), e) for e in elements)


def test_load_accepts_crafted_valid_sketch():
    (h0, e0), (h1, e1) = _keyed((4, 9))
    for threshold in (1.0, unit_from_u64(h1)):
        sk = load_sketch(io.BytesIO(_craft(2, 3, threshold,
                                           [(e0, h0, (0, 1)), (e1, h1, (1,))])))
        assert sk.ids.tolist() == [e0, e1] and sk.edge_total == 3


def test_load_rejects_set_id_outside_n():
    blob = _craft(2, 3, 1.0, [(5, _H.value(5), (0, 99))])
    with pytest.raises(ParseError, match="outside"):
        load_sketch(io.BytesIO(blob))


def test_load_rejects_unsorted_or_duplicate_set_ids():
    for sets in ((1, 0), (1, 1)):
        with pytest.raises(ParseError, match="ascending"):
            load_sketch(io.BytesIO(_craft(2, 3, 1.0, [(5, _H.value(5), sets)])))


def test_load_rejects_elements_out_of_hash_order():
    (ha, a), (hb, b) = _keyed((5, 6))
    h5, h6 = _H.value(5), _H.value(6)
    # the order check comes before the keyed-hash check of the same record
    for records in ([(b, hb, (0,)), (a, ha, (1,))],      # hashes descend
                    [(6, h6, (0,)), (5, h6, (1,))],      # tie, ids descend
                    [(5, h5, (0,)), (5, h5, (1,))]):     # repeated element
        with pytest.raises(ParseError, match="order"):
            load_sketch(io.BytesIO(_craft(2, 3, 1.0, records)))


def test_load_rejects_threshold_off_the_last_hash():
    records = [(e, h, (u,)) for u, (h, e) in enumerate(_keyed((5, 6)))]
    last = unit_from_u64(records[-1][1])
    assert load_sketch(io.BytesIO(_craft(2, 3, last, records))).threshold == last
    for threshold in (last / 2, (1.0 + last) / 2, 1.5):
        with pytest.raises(ParseError, match="threshold"):
            load_sketch(io.BytesIO(_craft(2, 3, threshold, records)))
    with pytest.raises(ParseError, match="threshold"):
        load_sketch(io.BytesIO(_craft(2, 3, 0.5, [])))


@pytest.mark.parametrize("n, eps, domain", [(2, 0.5, "eps must lie in (0, 0.2]"),
                                           (0, 0.2, "n must be >= 1")],
                         ids=["eps", "n"])
def test_load_rejects_a_header_outside_the_params_domain(n, eps, domain):
    blob = struct.pack("<4sIIIddQdIQ", b"CVSK", 1, n, 1, eps, 1.0, 3, 1.0, 0, 0)
    with pytest.raises(ParseError, match=re.escape(domain)) as err:
        load_sketch(io.BytesIO(blob))
    assert err.value.offset == 0


def test_load_empty_stream():
    with pytest.raises(ParseError):
        load_sketch(io.BytesIO(b""))


def _saved(sk):
    buf = io.BytesIO()
    save_sketch(sk, buf)
    return buf.getvalue()


@st.composite
def streamed_sketches(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 80))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                          max_size=300))
    params = SketchParams.custom(n=n, k=1, eps=0.2,
                                 degree_cap=draw(st.integers(1, n + 1)),
                                 edge_budget=draw(st.integers(1, 350)))
    return build_sketch_from_stream(edges, params, draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=200, deadline=None)
@given(streamed_sketches())
def test_save_load_save_is_byte_identical(sk):
    blob = _saved(sk)
    assert len(blob) == 60 + 16 * sk.element_count + 4 * sk.edge_total
    loaded = load_sketch(io.BytesIO(blob))
    assert loaded == sk and _saved(loaded) == blob
    assert loaded.elements == sk.elements
    assert loaded.system == sk.system


_N = 5
_RECORDS = [(e, h, tuple(range(2 + i % 3))) for i, (h, e) in enumerate(_keyed(range(30)))]


def _record_at(records, i):
    """Byte offset of record i: the header, i records, their set ids."""
    return 60 + 16 * i + 4 * sum(len(sets) for _, _, sets in records[:i])


def _with(records, i, kind):
    elem, hash_val, sets = records[i]
    if kind == "set-order":
        sets = sets[::-1]
    elif kind == "set-range":
        sets = sets[:-1] + (_N + 2,)
    else:                                   # below the previous key
        hash_val = records[i - 1][1] - 1
    return records[:i] + [(elem, hash_val, sets)] + records[i + 1:]


_FAULTS = {    # kind: (message, offset past the start of the bad record)
    "set-order": ("set ids of element {e} are not strictly ascending", 16),
    "set-range": (f"set id {_N + 2} of element {{e}} outside [0, {_N})", 16),
    "key-order": ("element {e} out of ascending (hash, id) order", 0),
}


@pytest.mark.parametrize("i", [1, 16, 29])
@pytest.mark.parametrize("kind", sorted(_FAULTS))
def test_load_reports_the_first_bad_record_in_file_order(i, kind):
    message, past = _FAULTS[kind]
    records = _with(_RECORDS, i, kind)
    # a later record breaks another invariant; the earlier one is reported
    if i + 2 < len(records):
        later = "set-range" if kind == "key-order" else "key-order"
        records = _with(records, i + 2, later)
    with pytest.raises(ParseError) as err:
        load_sketch(io.BytesIO(_craft(_N, 3, 1.0, records)))
    assert str(err.value).startswith(message.format(e=records[i][0]))
    assert err.value.offset == _record_at(records, i) + past


@pytest.mark.parametrize("i", [1, 16, 29])
def test_load_reports_truncation_and_trailing_bytes_at_their_offset(i):
    blob = _craft(_N, 3, 1.0, _RECORDS)
    start = _record_at(_RECORDS, i)
    degree = len(_RECORDS[i][2])
    cases = [(blob[:start + 5], "expected 16 byte(s) for element record", start),
             (blob[:start + 18], f"expected {4 * degree} byte(s) for set id list",
              start + 16),
             (blob + b"\x00", "trailing bytes after last element record",
              _record_at(_RECORDS, len(_RECORDS)))]
    # a bad key before the cut outranks the truncation
    keyed = _craft(_N, 3, 1.0, _with(_RECORDS, i, "key-order"))
    cases.append((keyed[:start + 18], "out of ascending (hash, id) order", start))
    for data, message, offset in cases:
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_sketch(io.BytesIO(data))
        assert err.value.offset == offset


@pytest.mark.parametrize("i", [0, 1, -1])
def test_load_rejects_a_hash_that_is_not_its_elements_keyed_hash(i):
    inst = gen_random(5, 40, 0.3, seed=1)
    sk = build_sketch_offline(inst, _cap_nonbinding(5, 15), seed=0)
    ids = sk.ids.tolist()
    i %= len(ids)
    start = 60 + 16 * i + 4 * int(sk.degrees[:i].sum())
    # another id, the previous record's for i > 0 (a repeat), with the hash
    # left alone: the seed would not have sampled it there
    other = ids[i - 1] if i else next(e for e in range(inst.m) if e not in ids)
    blob = bytearray(_saved(sk))
    struct.pack_into("<I", blob, start, other)
    with pytest.raises(ParseError, match=re.escape(
            f"is not the keyed hash of element {other} under seed 0")) as err:
        load_sketch(io.BytesIO(bytes(blob)))
    assert err.value.offset == start


def test_sketch_repr_and_space_units():
    inst = gen_random(5, 40, 0.3, seed=1)
    sk = build_sketch_offline(inst, _cap_nonbinding(5, 15), seed=0)
    assert sk.space_units == sk.element_count + sk.edge_total
    assert "Sketch(" in repr(sk)
