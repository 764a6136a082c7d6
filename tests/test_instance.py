"""Instances, edge-stream I/O, and generators."""

import io
import itertools

import pytest

from covsketch import (CoverageInstance, brute_force_kcover, brute_force_setcover,
                       gen_disjointness, gen_planted_cover, gen_random,
                       load_edges, random_edge_stream, read_metadata,
                       write_edges_binary, write_edges_text, write_metadata)
from covsketch.errors import (IdRangeError, IsolatedElementError, ParseError)
from covsketch.instance import BLOCK_EDGES, edge_blocks, load_edge_blocks


# ---------------------------------------------------------------------------
# Text format


def test_load_text_basic():
    assert list(load_edges(io.StringIO("0 5\n2 7\n"))) == [(0, 5), (2, 7)]


def test_load_text_skips_blank_and_comment_lines():
    text = "# header\n\n0 1\n   \n# mid\n1 2\n"
    assert list(load_edges(io.StringIO(text))) == [(0, 1), (1, 2)]


def test_load_text_tolerates_crlf_and_extra_spaces():
    text = "0 1\r\n  2   3  \r\n"
    assert list(load_edges(io.StringIO(text))) == [(0, 1), (2, 3)]


def test_load_text_bytes_stream():
    assert list(load_edges(io.BytesIO(b"0 1\n4 2\n"))) == [(0, 1), (4, 2)]


def test_load_text_non_integer_field_position():
    with pytest.raises(ParseError) as err:
        list(load_edges(io.StringIO("0 5\n3 x\n")))
    assert err.value.line == 2
    assert err.value.offset == 2


def test_load_text_wrong_field_count():
    with pytest.raises(ParseError) as err:
        list(load_edges(io.StringIO("1 2 3\n")))
    assert err.value.line == 1
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        list(load_edges(io.StringIO("7\n")))


def test_load_text_id_overflow():
    with pytest.raises(IdRangeError):
        list(load_edges(io.StringIO(f"0 {2**32}\n")))


def test_load_text_rejects_non_ascii_bytes():
    with pytest.raises(ParseError):
        list(load_edges(io.BytesIO(b"0 1\n\xff 2\n")))


def test_load_text_rejects_non_ascii_digits():
    # str.isdigit accepts '²'; only ASCII digits are ids
    with pytest.raises(ParseError) as err:
        list(load_edges(io.StringIO("0 1\n4 \u00b2\n")))
    assert (err.value.line, err.value.offset) == (2, 2)


def test_load_unknown_format():
    with pytest.raises(ValueError):
        list(load_edges(io.StringIO(""), format="csv"))


def test_write_text_round_trip():
    edges = [(0, 1), (3, 2), (0, 0)]
    buf = io.StringIO()
    assert write_edges_text(buf, edges) == 3
    assert buf.getvalue() == "0 1\n3 2\n0 0\n"
    assert list(load_edges(io.StringIO(buf.getvalue()))) == edges


# ---------------------------------------------------------------------------
# Binary format


def test_binary_round_trip():
    edges = [(0, 1), (2**32 - 1, 7), (5, 2**32 - 1)]
    buf = io.BytesIO()
    assert write_edges_binary(buf, edges) == 3
    assert len(buf.getvalue()) == 24
    buf.seek(0)
    assert list(load_edges(buf, format="binary")) == edges


def test_binary_trailing_bytes_rejected():
    buf = io.BytesIO()
    write_edges_binary(buf, [(1, 2)])
    buf.write(b"\x01\x02\x03")
    buf.seek(0)
    with pytest.raises(ParseError):
        list(load_edges(buf, format="binary"))


def test_binary_write_rejects_oversized_ids():
    with pytest.raises(IdRangeError):
        write_edges_binary(io.BytesIO(), [(2**32, 0)])


def test_binary_empty_stream():
    assert list(load_edges(io.BytesIO(b""), format="binary")) == []


def _binary(edges):
    buf = io.BytesIO()
    write_edges_binary(buf, edges)
    return buf.getvalue()


def test_binary_blocks_are_bounded_and_flatten_to_load_edges():
    edges = [(e % 7, e) for e in range(2 * BLOCK_EDGES + 3)]
    blocks = list(load_edge_blocks(io.BytesIO(_binary(edges)), "binary"))
    assert [u.size for u, _ in blocks] == [BLOCK_EDGES, BLOCK_EDGES, 3]
    assert all(u.dtype == v.dtype == "int64" for u, v in blocks)
    assert [e for u, v in blocks for e in zip(u.tolist(), v.tolist())] == edges
    assert list(load_edges(io.BytesIO(_binary(edges)), "binary")) == edges


class _Trickle(io.BytesIO):
    """A pipe-like stream: each read returns at most 5 bytes."""

    def read(self, size=-1):
        return super().read(5 if size < 0 else min(size, 5))


def test_binary_blocks_survive_short_reads():
    edges = [(1, 2), (3, 4), (2**32 - 1, 0)]
    assert list(load_edges(_Trickle(_binary(edges)), "binary")) == edges


def test_binary_truncation_offset_after_full_blocks():
    edges = [(0, e) for e in range(BLOCK_EDGES + 1)]
    stream = io.BytesIO(_binary(edges) + b"\x01\x02\x03")
    blocks = load_edge_blocks(stream, "binary")
    assert next(blocks)[0].size == BLOCK_EDGES
    assert next(blocks)[0].size == 1
    with pytest.raises(ParseError, match="3 trailing") as err:
        next(blocks)
    assert err.value.offset == 8 * (BLOCK_EDGES + 1)


def test_text_blocks_keep_line_numbers_in_errors():
    text = "0 1\n" * (BLOCK_EDGES + 5) + "# note\n2 x\n"
    with pytest.raises(ParseError) as err:
        list(load_edge_blocks(io.StringIO(text), "text"))
    assert err.value.line == BLOCK_EDGES + 7 and err.value.offset == 2


def test_edge_blocks_batch_tuples_and_reject_huge_ids():
    edges = [(1, e) for e in range(BLOCK_EDGES + 2)]
    assert [u.size for u, _ in edge_blocks(edges)] == [BLOCK_EDGES, 2]
    assert list(edge_blocks([])) == []
    with pytest.raises(IdRangeError):
        list(edge_blocks([(0, 2**70)]))


# ---------------------------------------------------------------------------
# Metadata sidecar


def test_metadata_round_trip(tmp_path):
    path = tmp_path / "edges.meta.json"
    write_metadata(path, 4, 9, 17)
    assert read_metadata(path) == {"n": 4, "m": 9, "edge_count": 17}


def test_metadata_missing_key(tmp_path):
    path = tmp_path / "bad.meta.json"
    path.write_text('{"n": 4, "m": 9}\n')
    with pytest.raises(ParseError):
        read_metadata(path)


# ---------------------------------------------------------------------------
# CoverageInstance


def test_from_edges_and_coverage_by_hand():
    # set 0 = {0, 1}, set 1 = {1, 2}
    inst = CoverageInstance.from_edges(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    assert inst.sets == ((0, 1), (1, 2))
    assert inst.elements == ((0,), (0, 1), (1,))
    assert inst.coverage([0, 1]) == 3
    assert inst.coverage([0]) == 2
    assert inst.coverage([]) == 0
    assert inst.edge_count == 4
    assert inst.degree(1) == 2


def test_from_edges_collapses_duplicates():
    inst = CoverageInstance.from_edges(2, 2, [(0, 0), (0, 0), (1, 1), (1, 1), (1, 1)])
    assert inst.edge_count == 2
    assert inst.sets == ((0,), (1,))


def test_from_edges_id_range_errors():
    with pytest.raises(IdRangeError):
        CoverageInstance.from_edges(2, 2, [(2, 0), (0, 1)])
    with pytest.raises(IdRangeError):
        CoverageInstance.from_edges(2, 2, [(0, 2), (1, 0)])
    with pytest.raises(ValueError):
        CoverageInstance.from_edges(0, 2, [])


def test_from_edges_isolated_elements():
    with pytest.raises(IsolatedElementError):
        CoverageInstance.from_edges(2, 3, [(0, 0), (1, 2)])
    inst = CoverageInstance.from_edges(2, 3, [(0, 0), (1, 2)],
                                       attach_isolated_seed=5)
    assert all(inst.degree(e) >= 1 for e in range(3))
    again = CoverageInstance.from_edges(2, 3, [(0, 0), (1, 2)],
                                        attach_isolated_seed=5)
    assert inst == again


def test_coverage_rejects_bad_set_id():
    inst = CoverageInstance.from_edges(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(IdRangeError):
        inst.coverage([2])


def test_coverage_matches_marking_recount():
    inst = gen_random(8, 20, 0.3, seed=1)
    for chosen in ([0, 3, 5], [2], list(range(8))):
        marks = bytearray(inst.m)
        for u in chosen:
            for e in inst.sets[u]:
                marks[e] = 1
        assert inst.coverage(chosen) == sum(marks)


def test_edge_iterators_agree():
    inst = gen_random(6, 15, 0.4, seed=2)
    by_set = set(inst.edges_by_set())
    by_elem = set(inst.edges_by_element())
    assert by_set == by_elem
    assert len(by_set) == inst.edge_count
    # by-element order is element-major
    elems = [v for _, v in inst.edges_by_element()]
    assert elems == sorted(elems)


def test_coverage_monotone_and_submodular_exhaustive():
    inst = gen_random(5, 12, 0.35, seed=4)
    ids = range(inst.n)
    subsets = [frozenset(c) for r in range(6) for c in itertools.combinations(ids, r)]
    cov = {s: inst.coverage(s) for s in subsets}
    for small in subsets:
        for big in subsets:
            if not small <= big:
                continue
            assert cov[small] <= cov[big]
            for u in ids:
                if u in big:
                    continue
                gain_small = cov[small | {u}] - cov[small]
                gain_big = cov[big | {u}] - cov[big]
                assert gain_small >= gain_big


def test_full_family_covers_everything():
    for seed in range(5):
        inst = gen_random(7, 30, 0.2, seed=seed)
        assert inst.coverage(range(inst.n)) == inst.m


# ---------------------------------------------------------------------------
# Generators


def test_random_edge_stream_is_replayable():
    first = list(random_edge_stream(6, 20, 0.25, seed=3))
    second = list(random_edge_stream(6, 20, 0.25, seed=3))
    assert first == second
    assert list(random_edge_stream(6, 20, 0.25, seed=4)) != first


def test_random_edge_stream_rejects_bad_p():
    with pytest.raises(ValueError):
        list(random_edge_stream(2, 2, 0.0, seed=0))
    with pytest.raises(ValueError):
        list(random_edge_stream(2, 2, 1.5, seed=0))


def test_gen_random_single_set_full_probability():
    inst = gen_random(1, 3, 1.0, seed=0)
    assert inst.sets == ((0, 1, 2),)
    assert inst.coverage([0]) == 3


def test_gen_random_deterministic_and_isolated_free():
    a = gen_random(9, 40, 0.1, seed=6)
    b = gen_random(9, 40, 0.1, seed=6)
    assert a == b
    assert all(a.degree(e) >= 1 for e in range(a.m))


def test_gen_planted_cover_shapes():
    inst, planted = gen_planted_cover(4, 8, 2, seed=3)
    assert len(planted) == 2
    assert list(planted) == sorted(planted)
    assert inst.coverage(planted) == inst.m
    # filler sets never straddle planted blocks
    for u in range(inst.n):
        if u in planted:
            continue
        owners = {p for p in planted
                  if set(inst.sets[u]) <= set(inst.sets[p])}
        assert owners or not inst.sets[u]


def test_gen_planted_cover_optimum_at_most_k_star():
    inst, planted = gen_planted_cover(6, 12, 3, seed=5)
    size, _ = brute_force_setcover(inst)
    assert size <= 3
    assert inst.coverage(planted) == inst.m


def test_gen_planted_cover_singleton_partition():
    inst, planted = gen_planted_cover(3, 3, 3, seed=1)
    assert planted == (0, 1, 2)
    blocks = [set(inst.sets[p]) for p in planted]
    assert all(blocks)
    union = set().union(*blocks)
    assert union == {0, 1, 2}
    assert sum(len(b) for b in blocks) == 3


def test_gen_planted_cover_validation():
    with pytest.raises(ValueError):
        gen_planted_cover(3, 5, 0, seed=0)
    with pytest.raises(ValueError):
        gen_planted_cover(3, 2, 3, seed=0)


def test_gen_disjointness_examples():
    apart = gen_disjointness([0], [1], n=2)
    value, _ = brute_force_kcover(apart, 1)
    assert value == 1
    shared = gen_disjointness([0], [0], n=1)
    value, _ = brute_force_kcover(shared, 1)
    assert value == 2
    assert list(apart.edges_by_element()) == [(0, 0), (1, 1)]


def test_gen_disjointness_validation():
    with pytest.raises(ValueError):
        gen_disjointness([], [0], n=2)
    with pytest.raises(ValueError):
        gen_disjointness([0], [], n=2)
    with pytest.raises(IdRangeError):
        gen_disjointness([0], [2], n=2)


def test_gen_disjointness_matches_intersection_small():
    ids = range(4)
    subsets = [c for r in range(1, 5) for c in itertools.combinations(ids, r)]
    for a in subsets:
        for b in subsets:
            inst = gen_disjointness(a, b, n=4)
            value, _ = brute_force_kcover(inst, 1)
            assert value == (2 if set(a) & set(b) else 1)
