"""One object per instance: a CoverageInstance is its own SetSystem.

Pins what that design keeps: value equality and hashing across the two
types, read-only fields, pickling and copying, the SetSystem repr, the
solvers' adaptation and brute-force errors; `gen_disjointness` against its
former `sorted(set(...))` body, kept here as the reference; and the
SetSystem of a streaming build's sketch, plus the ingest-side hashing,
against a bit-by-bit and a scalar-hash reference.
"""

import bisect
import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import (CoverageInstance, SetSystem, SketchParams,
                       brute_force_kcover, build_sketch_from_stream,
                       build_sketch_offline, gen_disjointness, gen_random,
                       random_edge_stream, sample_subgraph)
from covsketch.errors import ConfigError, GuardExceededError, IdRangeError
from covsketch.hashing import ElementHasher, unit_from_u64
from covsketch.sketch import SketchElement
from covsketch.solvers import as_set_system


def test_instance_is_its_own_set_system():
    inst = gen_random(6, 20, 0.3, seed=2)
    plain = SetSystem(inst.n, inst.m, inst.masks)
    assert inst.system is inst and as_set_system(inst) is inst
    assert inst.universe == inst.m == 20
    # equal by value and hashed alike, from either side
    assert inst == plain and plain == inst and not inst != plain
    assert hash(inst) == hash(plain) == hash((inst.n, inst.m, inst.masks))
    assert len({inst, plain}) == 1
    assert plain != SetSystem(inst.n, inst.m + 1, inst.masks)
    assert inst != (inst.n, inst.m, inst.masks)

    for obj in (inst, plain):
        for name in ("n", "universe", "masks"):
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            obj.other = 1
    with pytest.raises(AttributeError):
        inst.m = 3

    for obj in (inst, plain):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                     copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj
            assert (twin.n, twin.universe, twin.masks) == (obj.n, obj.universe,
                                                            obj.masks)
    assert pickle.loads(pickle.dumps(inst)).elements == inst.elements

    assert repr(SetSystem(2, 3, (1, 6))) == "SetSystem(n=2, universe=3, masks=(1, 6))"
    assert repr(SetSystem(n=1, universe=0, masks=[0])) == (
        "SetSystem(n=1, universe=0, masks=[0])")

    # the k = 1 scan keeps the range check and the guard
    with pytest.raises(ConfigError, match=r"k must lie in \[1, n=0\], got 1"):
        brute_force_kcover(SetSystem(0, 0, ()), 1)
    with pytest.raises(GuardExceededError, match=r"comb\(6, 1\) = 6 exceeds guard 5"):
        brute_force_kcover(inst, 1, guard=5)
    assert brute_force_kcover(inst, 1, guard=6) == brute_force_kcover(plain, 1)


# ---------------------------------------------------------------------------
# gen_disjointness: min/max range check against the sorted reference


def sorted_gen_disjointness(a_ids, b_ids, n):
    """The former body: sort both id sets, check each by its two ends."""
    a = sorted(set(a_ids))
    b = sorted(set(b_ids))
    if not a or not b:
        raise ValueError("both id collections must be nonempty")
    for ids in (a, b):
        if ids[0] < 0:
            raise IdRangeError(f"set id {ids[0]} outside [0, {n})")
        if ids[-1] >= n:
            bad = ids[bisect.bisect_left(ids, n)]
            raise IdRangeError(f"set id {bad} outside [0, {n})")
    masks = [0] * n
    for u in a:
        masks[u] = 1
    for u in b:
        masks[u] |= 2
    return CoverageInstance(n, 2, tuple(masks))


def _result(build, a, b, n):
    try:
        inst = build(a, b, n)
    except (IdRangeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(inst), inst.n, inst.m, inst.masks


_SHAPES = {"list": list, "tuple": tuple, "generator": lambda ids: (u for u in ids)}


@settings(max_examples=400, deadline=None)
@given(n=st.integers(0, 9), data=st.data())
def test_gen_disjointness_matches_sorted_reference(n, data):
    # duplicates, any order, negative ids, ids >= n and empty sides
    ids = st.lists(st.integers(-4, n + 4), max_size=2 * n + 3)
    a, b = data.draw(ids), data.draw(ids)
    shape_a = data.draw(st.sampled_from(sorted(_SHAPES)))
    shape_b = data.draw(st.sampled_from(sorted(_SHAPES)))
    got = _result(gen_disjointness, _SHAPES[shape_a](a), _SHAPES[shape_b](b), n)
    assert got == _result(sorted_gen_disjointness, a, b, n)


# ---------------------------------------------------------------------------
# The streaming build's SetSystem and the ingest-side hashing


def _reference_system(n, id_lists):
    """The SetSystem whose position i holds the set ids id_lists[i],
    set one bit at a time."""
    masks = [0] * n
    for pos, ids in enumerate(id_lists):
        for u in ids:
            masks[u] |= 1 << pos
    return SetSystem(n, len(id_lists), tuple(masks))


@pytest.mark.parametrize("budget", [150, 10**6], ids=["binding", "non-binding"])
def test_finalize_seeds_the_tuple_built_system(budget):
    params = SketchParams.custom(n=30, k=3, eps=0.1, degree_cap=4,
                                 edge_budget=budget)
    sk = build_sketch_from_stream(random_edge_stream(30, 400, 0.1, 8), params, 5)
    assert sk.full_retention == (budget == 10**6)
    reference = _reference_system(30, [item.sets for item in sk.elements])
    assert sk.system == reference and sk.system.masks == reference.masks
    assert sk.system.universe == sk.element_count
    assert all(type(item) is SketchElement and type(item.sets) is tuple
               for item in sk.elements)


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_ingest_hashing_keeps_the_scalar_order(seed):
    inst = gen_random(12, 300, 0.2, seed=4)
    hasher = ElementHasher(seed)
    for p in (0.0, 0.3, 1.0):
        kept = [e for e in range(inst.m) if unit_from_u64(hasher.value(e)) <= p]
        view = sample_subgraph(inst, p, seed)
        assert view.ids.tolist() == kept
    params = SketchParams.custom(n=12, k=2, eps=0.1, degree_cap=3, edge_budget=200)
    sk = build_sketch_offline(inst, params, seed)
    order = sorted((hasher.value(e), e) for e in range(inst.m))
    assert [(item.hash, item.element) for item in sk.elements] == order[:sk.element_count]
