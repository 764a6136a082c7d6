"""Instances, edge-stream I/O, and generators."""

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import (CoverageInstance, brute_force_kcover, brute_force_setcover,
                       gen_disjointness, gen_planted_cover, gen_random,
                       load_edges, random_edge_stream, read_metadata,
                       write_edges_binary, write_edges_text, write_metadata)
from covsketch.errors import (IdRangeError, IsolatedElementError, ParseError)
from covsketch import instance
from covsketch.instance import (BLOCK_EDGES, MAX_ID, EdgeStream, KeyRuns,
                                SetSystem, edge_blocks, load_edge_blocks,
                                random_edge_blocks, split_keys)


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


# The former line-by-line text parser, kept as the reference that the
# byte-level parser in `load_edge_blocks` must match, blocks and errors alike.


def _parse_text_line(line, line_no):
    if line.endswith("\n"):
        line = line[:-1]
    if line.endswith("\r"):
        line = line[:-1]
    if not line.strip():
        return None
    if line.lstrip().startswith("#"):
        return None
    fields = []
    i = 0
    while i < len(line):
        if line[i] == " ":
            i += 1
            continue
        start = i
        while i < len(line) and line[i] != " ":
            i += 1
        fields.append((start, line[start:i]))
    if len(fields) != 2:
        where = fields[2][0] if len(fields) > 2 else len(line)
        raise ParseError(f"expected 'set_id element_id', got {len(fields)} field(s)",
                         line=line_no, offset=where)
    out = []
    for start, tok in fields:
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"non-integer field {tok!r}", line=line_no, offset=start)
        val = int(tok)
        if val > MAX_ID:
            raise IdRangeError(f"id {val} exceeds 32-bit range (line {line_no})")
        out.append(val)
    return (out[0], out[1])


def _reference_blocks(stream):
    batch = []
    for line_no, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("ascii")
            except UnicodeDecodeError as exc:
                raise ParseError(f"non-ASCII byte: {exc.reason}",
                                 line=line_no, offset=exc.start) from None
        edge = _parse_text_line(line, line_no)
        if edge is not None:
            batch.append(edge)
            if len(batch) == instance.BLOCK_EDGES:
                yield _pairs_block(batch)
                batch = []
    if batch:
        yield _pairs_block(batch)


def _pairs_block(batch):
    """A batch of edges as a key block, (element id << 32) | set id."""
    return np.array([v << 32 | u for u, v in batch], dtype=np.uint64)


def _outcome(blocks):
    """The blocks a parser yields, then its error as comparable fields."""
    out = []
    try:
        for keys in blocks:
            out.append((keys.size, keys.dtype, keys.tolist()))
    except (ParseError, IdRangeError) as exc:
        return out, (type(exc), str(exc), getattr(exc, "line", None),
                     getattr(exc, "offset", None))
    return out, None


_FIELDS = st.one_of(
    st.integers(0, 2**32 + 5).map(lambda i: str(i).encode()),
    st.sampled_from([b"0", b"007", b"0000000000001", b"4294967295",
                     b"4294967296", b"04294967295", b"9999999999",
                     b"10000000000", b"12345678901", b"99999999999", b"#",
                     b"x", b"-1", b"1\t", b"\t2", b"3\x0b", b"\x1c",
                     b"\xff", b"\xc2\xb2", b"4\x80"]))
_GAPS = st.sampled_from([b" ", b" ", b"  ", b"\t", b"\r", b"\x0b", b"\x1c", b""])
_ENDS = st.sampled_from([b"\n", b"\n", b"\r\n", b"\r\r\n", b"\r", b"\n\r"])


@st.composite
def _text_lines(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "any", "blank",
                                     "comment"]))
        if kind == "edge":
            body = (draw(st.sampled_from([b"", b" ", b"  "]))
                    + draw(st.integers(0, 2**32 - 1).map(lambda i: str(i).encode()))
                    + draw(st.sampled_from([b" ", b"   "]))
                    + draw(st.integers(0, 2**32 - 1).map(lambda i: str(i).encode()))
                    + draw(st.sampled_from([b"", b" "])))
        elif kind == "any":
            parts = draw(st.lists(st.tuples(_GAPS, _FIELDS), max_size=4))
            body = b"".join(g + f for g, f in parts) + draw(_GAPS)
        elif kind == "blank":
            body = b"".join(draw(st.lists(_GAPS, max_size=3)))
        else:
            body = (b"".join(draw(st.lists(_GAPS, max_size=2))) + b"#"
                    + b"".join(draw(st.lists(_FIELDS, max_size=2))))
        lines.append(body + draw(_ENDS))
    text = b"".join(lines)
    if text and draw(st.booleans()):
        text = text.rstrip(b"\n")      # a last line without its LF
    return text


@settings(max_examples=300, deadline=None)
@given(_text_lines(), st.sampled_from([1, 2, 3, BLOCK_EDGES]))
def test_text_parser_matches_line_reference(text, block_edges):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instance, "BLOCK_EDGES", block_edges)
        want = _outcome(_reference_blocks(io.BytesIO(text)))
        for chunk in (1, 3, 16, 1 << 20):
            mp.setattr(instance, "_TEXT_CHUNK", chunk)
            assert _outcome(load_edge_blocks(io.BytesIO(text), "text")) == want
            if text.isascii():
                got = load_edge_blocks(io.StringIO(text.decode()), "text")
                assert _outcome(got) == want


def test_text_parser_matches_reference_across_real_blocks():
    lines = [f"{u} {v}\n".encode() for u, v in
             zip(range(2 * BLOCK_EDGES + 9), itertools.cycle([7, 4294967295]))]
    lines[5] = b"# comment\n"
    lines[BLOCK_EDGES + 2] = b"  12   000034  \r\n"
    text = b"".join(lines)
    want = _outcome(_reference_blocks(io.BytesIO(text)))
    assert [size for size, *_ in want[0]] == [BLOCK_EDGES, BLOCK_EDGES, 8]
    assert _outcome(load_edge_blocks(io.BytesIO(text), "text")) == want
    bad = text + b"5 x\n"
    want = _outcome(_reference_blocks(io.BytesIO(bad)))
    assert len(want[0]) == 2 and want[1][0] is ParseError
    assert _outcome(load_edge_blocks(io.BytesIO(bad), "text")) == want


def test_text_str_stream_reads_utf8_bytes():
    with pytest.raises(ParseError, match="non-ASCII byte") as err:
        list(load_edges(io.StringIO("0 1\n# caf\u00e9\n")))
    assert (err.value.line, err.value.offset) == (2, 5)


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


def _flat(blocks):
    """The (set id, element id) edges of key blocks, in order."""
    return [e for keys in blocks
            for e in zip(*(ids.tolist() for ids in split_keys(keys)))]


def test_binary_blocks_are_bounded_and_flatten_to_load_edges():
    edges = [(e % 7, e) for e in range(2 * BLOCK_EDGES + 3)]
    blocks = list(load_edge_blocks(io.BytesIO(_binary(edges)), "binary"))
    assert [keys.size for keys in blocks] == [BLOCK_EDGES, BLOCK_EDGES, 3]
    assert all(keys.dtype == np.uint64 for keys in blocks)
    assert _flat(blocks) == edges
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
    assert next(blocks).size == BLOCK_EDGES
    assert next(blocks).size == 1
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
    assert [keys.size for keys in edge_blocks(edges)] == [BLOCK_EDGES, 2]
    assert list(edge_blocks([])) == []
    with pytest.raises(IdRangeError):
        list(edge_blocks([(0, 2**70)]))


def test_every_block_source_yields_contiguous_uint64_keys():
    edges = [(e % 7, e) for e in range(BLOCK_EDGES + 3)]
    text = "".join(f"{u} {v}\n" for u, v in edges).encode()
    for blocks in (load_edge_blocks(io.BytesIO(_binary(edges)), "binary"),
                   load_edge_blocks(io.BytesIO(text), "text"),
                   edge_blocks(edges)):
        blocks = list(blocks)
        assert [keys.size for keys in blocks] == [BLOCK_EDGES, 3]
        for keys in blocks:
            assert keys.dtype == np.uint64 and keys.ndim == 1
            assert keys.flags.c_contiguous
        assert blocks[1].tolist() == [v << 32 | u for u, v in edges[-3:]]
        assert _flat(blocks) == edges
    generated = list(random_edge_blocks(3, 40_000, 0.6, seed=21))
    assert all(keys.dtype == np.uint64 and keys.flags.c_contiguous
               for keys in generated)


def test_binary_blocks_are_read_only_views_of_the_records():
    edges = [(1, 2), (MAX_ID, 0), (0, MAX_ID)]
    data = _binary(edges)
    assert data == b"".join(np.array([u, v], "<u4").tobytes() for u, v in edges)
    (keys,) = load_edge_blocks(io.BytesIO(data), "binary")
    assert not keys.flags.writeable
    assert keys.tolist() == [v << 32 | u for u, v in edges]


# ---------------------------------------------------------------------------
# Sorted key runs


def _capped_reference(keys, cap):
    """np.unique of the keys, then each element's cap smallest."""
    kept, count = [], {}
    for key in np.unique(np.array(keys, dtype=np.uint64)).tolist():
        count[key >> 32] = count.get(key >> 32, 0) + 1
        if count[key >> 32] <= cap:
            kept.append(key)
    return kept


_KEYS = st.tuples(st.integers(0, 5) | st.integers(0, MAX_ID),
                  st.integers(0, 6) | st.integers(0, MAX_ID)).map(
                      lambda ids: ids[0] << 32 | ids[1])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(_KEYS, max_size=40), st.booleans()),
                max_size=12),
       st.sampled_from([1, 2, 5]))
def test_key_runs_merge_like_a_binary_counter(blocks, cap):
    runs = KeyRuns(cap)
    for keys, ordered in blocks:
        block = np.array(sorted(keys) if ordered else keys, dtype=np.uint64)
        block.flags.writeable = False       # a block is never written to
        runs.add(block)
        sizes = [run.size for run in runs.runs]
        assert all(2 * later <= earlier for earlier, later in zip(sizes, sizes[1:]))
        assert runs.size == sum(sizes)
        for run in runs.runs:
            assert run.tolist() == _capped_reference(run, cap)
    everything = [key for keys, _ in blocks for key in keys]
    assert runs.merged().tolist() == _capped_reference(everything, cap)
    assert runs.size == len(runs.merged()) and len(runs.runs) <= 1


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


def test_from_edges_refuses_ids_it_would_truncate_or_wrap():
    # a float id was truncated: these built masks (1, 2)
    with pytest.raises(IdRangeError, match="id 0.9 is not an integer"):
        CoverageInstance.from_edges(2, 2, [(0.9, 0), (1, 1.5)])
    with pytest.raises(IdRangeError, match="an id exceeds the 64-bit range"):
        CoverageInstance.from_edges(2, 2, [(0, 0), (1, 2 ** 64 + 1)])
    # a uint64 id past int64 would wrap to a negative one
    big = [(np.uint64(0), np.uint64(0)), (np.uint64(1), np.uint64(2 ** 63))]
    with pytest.raises(IdRangeError, match="id 9223372036854775808 exceeds"):
        CoverageInstance.from_edges(2, 2, big)
    # numpy reads a mix of numpy and Python ints as floats; still ints here
    mixed = [(np.uint64(0), 0), (1, np.uint64(1))]
    assert CoverageInstance.from_edges(2, 2, mixed).masks == (1, 2)


def test_source_blocks_of_floats_are_refused_not_truncated():
    # a source's own float blocks reached from_edges unchecked: this reported
    # "3 isolated element(s)", and with an attachment seed built masks
    floats = (np.array([0.5, 1.0, 0.0]), np.array([0.9, 1.2, 2.7]))
    for seed in (None, 4):
        with pytest.raises(IdRangeError, match="id 0.5 is not an integer"):
            CoverageInstance.from_edges(2, 3, EdgeStream([floats]),
                                        attach_isolated_seed=seed)
    with pytest.raises(IdRangeError, match="id 2.5 is not an integer"):
        list(edge_blocks(EdgeStream([([0, 1], np.array([2.5, 0]))])))
    pairs = EdgeStream([(np.array([1, 0]), np.array([2, 0], dtype=np.uint32))])
    assert CoverageInstance.from_edges(2, 3, pairs, attach_isolated_seed=4) \
        == CoverageInstance.from_edges(2, 3, [(1, 2), (0, 0)], attach_isolated_seed=4)


def test_from_incidence_refuses_non_integer_ids():
    # these were truncated: masks (4, 1)
    with pytest.raises(IdRangeError, match="id 0.9 is not an integer"):
        SetSystem.from_incidence(2, 3, [0.9, 2.5], [1, 0])
    with pytest.raises(IdRangeError, match="id 1.0 is not an integer"):
        SetSystem.from_incidence(2, 3, [0, 2], np.array([1.0, 0.0]))
    assert SetSystem.from_incidence(2, 3, [], []).masks == (0, 0)
    assert SetSystem.from_incidence(2, 3, [np.uint64(0), 2], [1, 0]).masks == (4, 1)
    with pytest.raises(IdRangeError, match=f"element id {2 ** 70} outside"):
        SetSystem.from_incidence(2, 3, [0, 2 ** 70], [1, 0])


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
