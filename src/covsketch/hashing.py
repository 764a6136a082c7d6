"""Deterministic 64-bit hashing and seed plumbing.

Every random choice in the package funnels through an explicit integer seed,
either via numpy Generators (instance generators) or via the keyed element
hash below (sketches). The hash is a fixed function of (seed, element id), so
results are reproducible across platforms and processes.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_INV_2_64 = 2.0 ** -64


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer; a full-avalanche bijection on 64-bit ints."""
    x = (x + _GOLDEN) & MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, counter: int) -> int:
    """Stable sub-seed so one master seed fans out to independent consumers."""
    return splitmix64((master & MASK64) ^ splitmix64(counter & MASK64))


class ElementHasher:
    """Keyed map from element id to a u64 (`unit_from_u64` maps it into [0, 1]).

    For a fixed seed the map is a bijection on the 64-bit range (composition
    of bijections), so distinct elements never collide in the u64 value;
    orderings additionally break ties by element id and are total either way.
    """

    __slots__ = ("seed", "_key")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._key = splitmix64(self.seed)

    def value(self, element: int) -> int:
        return splitmix64(self._key ^ ((element * _GOLDEN) & MASK64))

    def values(self, elements) -> np.ndarray:
        """`value` of each id in an integer array, as uint64, bit for bit."""
        x = np.asarray(elements).astype(np.uint64)
        x *= np.uint64(_GOLDEN)
        x ^= np.uint64(self._key)
        x += np.uint64(_GOLDEN)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return x


def unit_from_u64(value: int) -> float:
    """Hash scaled by 2^-64, rounded to nearest double; elementwise on a
    float64 array of hashes too. Values within half an ulp of 2^64 round to
    exactly 1.0, so the range is [0, 1]; ordering uses only the integer key."""
    return value * _INV_2_64
