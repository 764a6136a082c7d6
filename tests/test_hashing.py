"""Hashing layer: splitmix64, seed derivation, element hashers."""

import numpy as np

from covsketch.hashing import (MASK64, ElementHasher, derive_seed, splitmix64,
                               unit_from_u64)

# Reference stream for seed 1234567 (three successive outputs of the
# standard generator; our finalizer applied at state, state+gamma, ...).
_GAMMA = 0x9E3779B97F4A7C15
_REF = [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_splitmix64_reference_stream():
    state = 1234567
    got = []
    for _ in range(3):
        got.append(splitmix64(state))
        state = (state + _GAMMA) & MASK64
    assert got == _REF


def test_splitmix64_range_and_determinism():
    for x in [0, 1, 2**31, 2**63, MASK64]:
        y = splitmix64(x)
        assert 0 <= y <= MASK64
        assert splitmix64(x) == y


def test_splitmix64_no_collisions_on_sample():
    outs = {splitmix64(x) for x in range(50_000)}
    assert len(outs) == 50_000


def test_derive_seed_fans_out():
    master = 42
    subs = [derive_seed(master, i) for i in range(200)]
    assert len(set(subs)) == 200
    assert all(0 <= s <= MASK64 for s in subs)
    assert derive_seed(master, 7) == subs[7]
    assert derive_seed(master + 1, 7) != subs[7]


def test_element_hasher_determinism_and_seed_sensitivity():
    a = ElementHasher(9)
    b = ElementHasher(9)
    c = ElementHasher(10)
    vals_a = [a.value(e) for e in range(100)]
    assert vals_a == [b.value(e) for e in range(100)]
    assert vals_a != [c.value(e) for e in range(100)]


def test_element_hasher_no_collisions_per_seed():
    for seed in (0, 1, 77):
        h = ElementHasher(seed)
        vals = {h.value(e) for e in range(20_000)}
        assert len(vals) == 20_000


def test_unit_interval_and_rounding_corner():
    h = ElementHasher(3)
    for e in range(5_000):
        u = unit_from_u64(h.value(e))
        assert 0.0 <= u <= 1.0
    assert unit_from_u64(0) == 0.0
    assert unit_from_u64(1 << 63) == 0.5
    # the very top of the u64 range rounds to exactly 1.0 in doubles
    assert unit_from_u64(MASK64) == 1.0
    assert unit_from_u64(MASK64 - (1 << 12)) < 1.0


def test_unit_matches_value():
    # on a float64 array of hashes (as sample_subgraph filters) as on each
    # hash: round to nearest, ties to even, at the rounding corners too
    h = ElementHasher(11)
    corners = [MASK64, MASK64 - (1 << 10), MASK64 - (1 << 10) - 1, 1 << 63,
               (1 << 63) + (1 << 10), (1 << 63) + (1 << 10) + 1,
               (1 << 53) + 1, (1 << 53) + 3, 1, 0]
    values = [h.value(e) for e in range(1000)] + corners
    units = unit_from_u64(np.array(values, dtype=np.uint64).astype(np.float64))
    assert units.tolist() == [unit_from_u64(v) for v in values]

