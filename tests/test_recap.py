"""Level sketches read off one base sketch, against a build at each level.

`recap_sketch(base, params)` must equal `build_sketch_offline` at `params`
whenever the base is capped at least as high and retains the level's whole
hash prefix, and must raise StateError rather than return anything else.
The base budget the outlier ladder uses, max over levels of
B * ceil(c_max / c), always retains every prefix.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import (CoverageInstance, SketchParams, build_sketch_from_stream,
                       build_sketch_offline, recap_sketch)
from covsketch.errors import ConfigError, StateError


def _params(n, cap, budget):
    return SketchParams.custom(n=n, k=1, eps=0.2, degree_cap=cap,
                               edge_budget=budget)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 40))
    owners = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1),
                           min_size=m, max_size=m))
    edges = [(u, v) for v, sets in enumerate(owners) for u in sorted(sets)]
    return CoverageInstance.from_edges(n, m, edges)


@st.composite
def ladders(draw):
    inst = draw(instances())
    levels = draw(st.lists(st.tuples(st.integers(1, inst.n + 1),
                                     st.integers(1, 60)),
                           min_size=1, max_size=5))
    return inst, [_params(inst.n, cap, budget) for cap, budget in levels], \
        draw(st.integers(0, 2 ** 64 - 1))


def _bases(inst, levels, seed, budget):
    top = max(p.degree_cap for p in levels)
    base_params = _params(inst.n, top, budget)
    offline = build_sketch_offline(inst, base_params, seed)
    edges = list(inst.edges_by_element())
    streamed = build_sketch_from_stream(edges, base_params, seed)
    shuffled = build_sketch_from_stream(random.Random(seed).sample(edges, len(edges)),
                                        base_params, seed)
    assert streamed == shuffled == offline
    return offline, shuffled


@settings(max_examples=200, deadline=None)
@given(ladders())
def test_recap_of_a_ladder_base_equals_each_level_built_offline(case):
    inst, levels, seed = case
    top = max(p.degree_cap for p in levels)
    budget = max(p.edge_budget * math.ceil(top / p.degree_cap) for p in levels)
    for base in _bases(inst, levels, seed, budget):
        for params in levels:
            assert recap_sketch(base, params) == \
                build_sketch_offline(inst, params, seed)


@settings(max_examples=200, deadline=None)
@given(ladders(), st.integers(1, 80))
def test_recap_of_any_base_is_exact_or_refused(case, budget):
    inst, levels, seed = case
    for base in _bases(inst, levels, seed, budget):
        for params in levels:
            want = build_sketch_offline(inst, params, seed)
            try:
                got = recap_sketch(base, params)
            except StateError:
                assert not base.full_retention
                assert (want.element_count > base.element_count
                        or want.full_retention)
            else:
                assert got == want


def test_recap_shares_the_base_when_nothing_is_cut():
    inst = CoverageInstance.from_edges(
        4, 6, [(0, 0), (1, 0), (2, 1), (3, 2), (0, 3), (1, 4), (2, 5), (3, 5)])
    base = build_sketch_offline(inst, _params(4, 4, 100), seed=3)
    same = recap_sketch(base, _params(4, 2, 50))
    assert same.elements is base.elements and same.system is base.system
    cut = recap_sketch(base, _params(4, 1, 50))
    assert cut.edge_total == 6 and cut.system is not base.system
    trimmed = recap_sketch(base, _params(4, 2, 3))
    assert trimmed == build_sketch_offline(inst, _params(4, 2, 3), seed=3)
    assert trimmed.threshold < 1.0 and trimmed.element_count < 6


def test_recap_refuses_what_the_base_cannot_hold():
    inst = CoverageInstance.from_edges(3, 4, [(u, v) for v in range(4)
                                              for u in range(3)])
    base = build_sketch_offline(inst, _params(3, 2, 4), seed=1)
    assert not base.full_retention
    with pytest.raises(StateError, match="short of the edge budget"):
        recap_sketch(base, _params(3, 1, 4))
    with pytest.raises(StateError, match="degree cap"):
        recap_sketch(base, _params(3, 3, 4))
    with pytest.raises(ConfigError):
        recap_sketch(base, _params(4, 2, 4))
