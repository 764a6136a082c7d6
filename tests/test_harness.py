"""Harness plumbing: edge sources, gen specs, stream oracles, reports."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import gen_random, greedy_kcover, write_edges_text, write_metadata
from covsketch.errors import ConfigError, IdRangeError, StateError
from covsketch.harness import (EVAL_CSV_HEADER, FileEdgeSource, GenEdgeSource,
                               OnceEdgeSource, PhaseTimer, RunReport,
                               emit_report, parse_gen_spec, recount_coverage,
                               scan_shape, solution_json)
from covsketch.instance import (BLOCK_EDGES, MAX_ID, materialize_system,
                                split_keys)


def test_eval_csv_header_is_pinned():
    assert EVAL_CSV_HEADER == "instance,seed,algo,k,coverage,opt,ratio,space_units,millis"


# ---------------------------------------------------------------------------
# Generator specs


def test_parse_gen_spec_random():
    spec = parse_gen_spec("random:n=10,m=50,p=0.2")
    assert spec["kind"] == "random"
    assert (spec["n"], spec["m"], spec["p"]) == (10, 50, 0.2)
    assert spec["label"] == "random:n=10,m=50,p=0.2"


def test_parse_gen_spec_planted_and_disjoint():
    spec = parse_gen_spec("planted:n=8,m=30,kstar=3")
    assert (spec["n"], spec["m"], spec["k_star"]) == (8, 30, 3)
    spec = parse_gen_spec("disjoint:n=6,a=0|2|3,b=1")
    assert spec["a"] == (0, 2, 3)
    assert spec["b"] == (1,)
    assert spec["m"] == 2


def test_parse_gen_spec_errors():
    with pytest.raises(ConfigError):
        parse_gen_spec("mystery:n=3")
    with pytest.raises(ConfigError):
        parse_gen_spec("random:n=3,m=5")            # missing p
    with pytest.raises(ConfigError):
        parse_gen_spec("random:n=3,m=5,p=high")     # bad float
    with pytest.raises(ConfigError):
        parse_gen_spec("random:n;3")                # missing '='


# ---------------------------------------------------------------------------
# Edge sources


def test_gen_edge_source_replays_identically():
    src = GenEdgeSource(parse_gen_spec("random:n=5,m=20,p=0.3"), seed=4)
    assert src.replayable
    first = list(src())
    second = list(src())
    assert first == second
    assert src.opens == 2
    assert src.shape() == (5, 20)


def test_gen_edge_source_planted_exposes_planted_ids():
    src = GenEdgeSource(parse_gen_spec("planted:n=6,m=18,kstar=2"), seed=9)
    assert len(src.planted) == 2
    n, m, count = scan_shape(src())
    assert (n <= 6, m == 18) == (True, True)


def test_gen_edge_source_disjoint():
    src = GenEdgeSource(parse_gen_spec("disjoint:n=4,a=1,b=1"), seed=0)
    assert list(src()) == [(1, 0), (1, 1)]


def test_file_edge_source_with_sidecar(tmp_path):
    inst = gen_random(4, 12, 0.4, seed=2)
    path = tmp_path / "edges.txt"
    with open(path, "w") as fp:
        write_edges_text(fp, inst.edges_by_element())
    write_metadata(str(path) + ".meta.json", inst.n, inst.m, inst.edge_count)
    src = FileEdgeSource(str(path), "text")
    assert src.shape() == (4, 12)
    assert list(src()) == list(inst.edges_by_element())
    assert list(src()) == list(inst.edges_by_element())
    assert src.opens == 2


def test_file_edge_source_without_sidecar(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("0 0\n1 1\n")
    src = FileEdgeSource(str(path), "text")
    assert src.shape() == (None, None)
    assert list(src()) == [(0, 0), (1, 1)]


def test_file_edge_source_streams_tuples_or_blocks(tmp_path):
    from covsketch import write_edges_binary
    inst = gen_random(5, 30, 0.4, seed=8)
    path = tmp_path / "edges.bin"
    with open(path, "wb") as fp:
        write_edges_binary(fp, inst.edges_by_element())
    src = FileEdgeSource(str(path), "binary")
    edges = list(src())
    assert edges == list(inst.edges_by_element())
    blocks = list(src().blocks())
    assert [e for keys in blocks
            for e in zip(*(ids.tolist() for ids in split_keys(keys)))] == edges
    assert src.opens == 2
    assert recount_coverage(src(), [1, 3]) == recount_coverage(edges, [1, 3])
    assert scan_shape(src()) == scan_shape(edges)
    assert src.opens == 4


def test_once_edge_source_refuses_replay():
    src = OnceEdgeSource(iter([(0, 0), (1, 1)]), label="stdin")
    assert not src.replayable
    assert list(src()) == [(0, 0), (1, 1)]
    with pytest.raises(StateError):
        src()


# ---------------------------------------------------------------------------
# Stream oracles


def test_scan_shape():
    assert scan_shape([(0, 5), (3, 2), (1, 1)]) == (4, 6, 3)
    assert scan_shape([]) == (0, 0, 0)


def test_recount_coverage_matches_instance_oracle():
    inst = gen_random(7, 25, 0.3, seed=3)
    for chosen in ([0, 2], [5], []):
        covered, universe = recount_coverage(inst.edges_by_element(), chosen)
        assert covered == inst.coverage(chosen)
        assert universe == inst.m


def test_recount_coverage_across_blocks():
    from covsketch.instance import BLOCK_EDGES
    edges = [(v % 4, v % 50_000) for v in range(BLOCK_EDGES * 2 + 10)]
    covered = {v for u, v in edges if u in (1, 2)}
    assert recount_coverage(edges, [1, 2]) == (len(covered), 50_000)


class _Blocked:
    """Edges handed out as blocks of a fixed size."""

    def __init__(self, edges, size):
        self.edges, self.size = edges, size

    def blocks(self):
        for start in range(0, len(self.edges), self.size):
            chunk = np.array(self.edges[start:start + self.size],
                             dtype=np.int64).reshape(-1, 2)
            yield chunk[:, 0], chunk[:, 1]


@st.composite
def recount_cases(draw):
    # set ids straddle the chosen ids' span on both sides, chosen ids may be
    # negative, and a negative set id in the stream is refused
    edges = draw(st.lists(st.tuples(st.integers(0, 30),
                                    st.integers(0, 40) | st.integers(0, 2 ** 32 - 1)),
                          max_size=150))
    edges += draw(st.lists(st.sampled_from(edges), max_size=40)) if edges else []
    streamed = st.sampled_from([u for u, _ in edges] or [0])
    chosen = draw(st.lists(st.integers(-6, 20) | streamed, max_size=8))
    edges = draw(st.permutations(edges))
    for bad in draw(st.lists(st.tuples(st.integers(-12, -1), st.integers(0, 40)),
                             max_size=1)):
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return edges, chosen + chosen[:2]


@settings(max_examples=150, deadline=None)
@given(recount_cases())
def test_recount_coverage_matches_a_set_reference(case):
    from covsketch.instance import BLOCK_EDGES
    edges, chosen = case
    picks = set(chosen)
    want = (len({v for u, v in edges if u in picks}), len({v for _, v in edges}))
    sources = [_Blocked(edges, size) for size in (1, 7, BLOCK_EDGES)] + [edges]
    for source in sources:
        if any(u < 0 for u, _ in edges):
            with pytest.raises(IdRangeError, match="set id -"):
                recount_coverage(source, chosen)
        else:
            assert recount_coverage(source, chosen) == want


@st.composite
def element_major_cases(draw):
    # an element-major prefix, then a tail in any order; dense ids, sparse
    # ids, and ids that a u32 step wraps past MAX_ID
    ids = (st.integers(0, 40) | st.integers(0, MAX_ID)
           | st.integers(MAX_ID - 3, MAX_ID))
    elements = sorted(draw(st.lists(ids, max_size=120)))
    elements += draw(st.lists(ids, max_size=30))
    set_ids = st.integers(0, 30) | st.just(MAX_ID)
    edges = [(draw(set_ids), v) for v in elements]
    chosen = draw(st.lists(st.integers(-6, 30) | st.just(MAX_ID), max_size=8))
    return edges, chosen


def _set_reference(edges, chosen):
    picks = set(chosen)
    return (len({v for u, v in edges if u in picks}), len({v for _, v in edges}))


@settings(max_examples=150, deadline=None)
@given(element_major_cases())
def test_recount_coverage_of_an_element_major_prefix_matches_a_set_reference(case):
    edges, chosen = case
    want = _set_reference(edges, chosen)
    for size in (1, 7, BLOCK_EDGES):
        assert recount_coverage(_Blocked(edges, size), chosen) == want


@pytest.mark.parametrize("elements", [
    [0, 1, 2, 5, 3, 4, 9, 9],       # disorder from a block's first id
    [0, 1, 2, 5, 5, 4, 9, 9],       # from a repeat of the last held id
    [0, 1, 2, 3, 3, 3, 4, 8],       # a run of one id across the boundary
    [0, 1, 2, 3, 4, 5, 7, 8],       # consecutive ids across it
    [0, 2, 4, 6, 7, 9, 11, MAX_ID],
    [1, MAX_ID, 0, MAX_ID],         # a fall that a u32 step wraps to 1
    [MAX_ID - 1, MAX_ID, MAX_ID, 0],
], ids=["disorder-at-boundary", "repeat-then-fall", "run-straddles",
        "consecutive-straddle", "sparse", "wrap-in-block", "wrap-at-boundary"])
@pytest.mark.parametrize("chosen", [[], [1], [0, 2, MAX_ID]],
                         ids=["no-picks", "one-pick", "picks"])
def test_recount_coverage_across_a_block_boundary(elements, chosen):
    edges = [(v % 3, v) for v in elements]
    want = _set_reference(edges, chosen)
    for size in (1, 3, 4, 8):
        assert recount_coverage(_Blocked(edges, size), chosen) == want


def test_materialize_system_popcounts():
    inst = gen_random(6, 20, 0.35, seed=5)
    system = materialize_system(inst.edges_by_element(), 6)
    assert system.universe == inst.m
    for chosen in ([1], [0, 4], list(range(6))):
        mask = 0
        for u in chosen:
            mask |= system.masks[u]
        assert mask.bit_count() == inst.coverage(chosen)
    with pytest.raises(IdRangeError):
        materialize_system([(6, 0)], 6)


# ---------------------------------------------------------------------------
# Timers and reports


def test_phase_timer_accumulates():
    timer = PhaseTimer()
    with timer.time("solve"):
        pass
    with timer.time("solve"):
        pass
    with timer.time("io"):
        pass
    assert set(timer.millis) == {"solve", "io"}
    assert timer.millis["solve"] >= 0.0


def test_solution_json_shape():
    inst = gen_random(5, 15, 0.4, seed=1)
    sol = greedy_kcover(inst, 2)
    payload = solution_json(sol, target_size=2, seed=7)
    assert payload["chosen"] == list(sol.chosen)
    assert payload["covered"] == sol.covered_on_target
    assert payload["target_size"] == 2
    assert payload["seed"] == 7
    assert payload["estimate"] is None
    json.dumps(payload)  # must be serializable as-is


def test_run_report_text_and_json():
    report = RunReport(command="kcover", label="random:n=5,m=15,p=0.4", seed=7)
    report.params["k"] = 2
    inst = gen_random(5, 15, 0.4, seed=1)
    report.solutions.append(solution_json(greedy_kcover(inst, 2), 2, 7))
    report.set_true("true_coverage", 11, "exact-recount")
    report.notes.append("shape scanned from the stream")
    report.passes = 1

    text = io.StringIO()
    emit_report(report, as_json=False, out_stream=text)
    rendered = text.getvalue()
    assert "command" in rendered and "kcover" in rendered
    assert "(oracle: exact-recount)" in rendered
    assert "note" in rendered

    blob = io.StringIO()
    emit_report(report, as_json=True, out_stream=blob)
    parsed = json.loads(blob.getvalue())
    assert parsed["command"] == "kcover"
    assert parsed["true_values"]["true_coverage"]["oracle"] == "exact-recount"
    assert parsed["passes"] == 1
    assert parsed["solutions"][0]["chosen"] == list(greedy_kcover(inst, 2).chosen)
