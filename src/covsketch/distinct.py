"""Mergeable distinct-count sketches and the enumeration k-cover baseline.

Each sketch keeps the `capacity` smallest keyed hashes per repetition
(bottom-t); unions of sets become merges of sketches, and a k-cover candidate
is scored by the bottom-t of the union of its k per-set sketches, a chunk of
candidates at a time. Space grows with n*k-ish enumeration needs, which is
the contrast point against the edge-budget sketch.

Sketches are filled only by `build_per_set_sketches`, a block of edges at
a time, and live in memory only: nothing here writes or reads them.
"""

from __future__ import annotations

import math
import statistics
from itertools import chain, combinations, islice
from typing import Iterable

import numpy as np

from .errors import ConfigError, GuardExceededError, IncompatibleSketchError
from .hashing import ElementHasher, derive_seed, unit_from_u64
from .instance import Edge, edge_blocks, split_keys
from .solvers import Solution

L0_ENUM_GUARD = 1_000_000
L0_CHUNK_HASHES = 1 << 14

_PAD = (1 << 64) - 1


class DistinctSketch:
    """Bottom-t distinct counter: the t smallest distinct hashes per repetition.

    Estimates are exact while fewer than t distinct values have been seen,
    and (t-1)/t_th_smallest_normalized_hash afterwards; with reps > 1 the
    per-repetition estimates are medianed. Two sketches merge iff they share
    (capacity, reps, seed).
    """

    __slots__ = ("capacity", "seed", "reps", "mins", "_hashers")

    def __init__(self, capacity: int, seed: int, reps: int = 1):
        if capacity < 2:
            raise ConfigError(f"capacity must be >= 2, got {capacity}")
        if reps < 1:
            raise ConfigError(f"reps must be >= 1, got {reps}")
        self.capacity = capacity
        self.seed = seed
        self.reps = reps
        self.mins: list[list[int]] = [[] for _ in range(reps)]
        self._hashers = tuple(ElementHasher(derive_seed(seed, rep))
                              for rep in range(reps))

    @classmethod
    def from_accuracy(cls, eps: float, delta: float, seed: int) -> "DistinctSketch":
        """capacity = ceil(4/eps^2), reps = ceil(ln(1/delta)), median combined."""
        if not 0.0 < eps <= 1.0:
            raise ConfigError(f"eps must lie in (0, 1], got {eps}")
        if not 0.0 < delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {delta}")
        capacity = math.ceil(4.0 / (eps * eps))
        reps = max(1, math.ceil(math.log(1.0 / delta)))
        return cls(capacity=capacity, seed=seed, reps=reps)

    def estimate(self) -> float:
        """Median across repetitions of the per-repetition KMV estimate."""
        values = []
        for mins in self.mins:
            if len(mins) < self.capacity:
                values.append(float(len(mins)))
            else:
                tail = unit_from_u64(mins[self.capacity - 1])
                values.append((self.capacity - 1) / max(tail, 2.0 ** -64))
        return float(statistics.median(values))

    def merge(self, other: "DistinctSketch") -> "DistinctSketch":
        """Union semantics: bottom-t of the combined hash multiset, per rep."""
        if (self.capacity, self.seed, self.reps) != (other.capacity, other.seed,
                                                     other.reps):
            raise IncompatibleSketchError(
                f"cannot merge (capacity={self.capacity}, seed={self.seed}, "
                f"reps={self.reps}) with (capacity={other.capacity}, "
                f"seed={other.seed}, reps={other.reps})")
        # The merge shares this sketch's hashers: same (seed, reps), same maps.
        out = object.__new__(DistinctSketch)
        out.capacity, out.seed, out.reps = self.capacity, self.seed, self.reps
        out._hashers = self._hashers
        out.mins = []
        for a, b in zip(self.mins, other.mins):
            merged = sorted(set(a).union(b))[:self.capacity]
            if len(a) < self.capacity and len(b) < self.capacity:
                # exact regime: union estimate dominates both components
                assert len(merged) >= max(len(a), len(b))
            out.mins.append(merged)
        return out

    @property
    def retained_hash_count(self) -> int:
        return sum(len(mins) for mins in self.mins)

    @property
    def space_units(self) -> int:
        return self.retained_hash_count

    def __eq__(self, other):
        if not isinstance(other, DistinctSketch):
            return NotImplemented
        return ((self.capacity, self.seed, self.reps, self.mins)
                == (other.capacity, other.seed, other.reps, other.mins))

    def __repr__(self):
        return (f"DistinctSketch(capacity={self.capacity}, reps={self.reps}, "
                f"retained={self.retained_hash_count})")


def merge_sketches(a: DistinctSketch, b: DistinctSketch) -> DistinctSketch:
    return a.merge(b)


def build_per_set_sketches(edges: Iterable[Edge], n: int, capacity: int,
                           seed: int, reps: int = 1) -> list[DistinctSketch]:
    """One distinct-count sketch per set, filled in one pass, a block at a time."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    bank = [DistinctSketch(capacity, seed, reps) for _ in range(n)]
    for keys in edge_blocks(edges, n):
        u, v = split_keys(keys)
        # the block's distinct (set id, element) pairs, ordered by set id
        elements, ranks = np.unique(v, return_inverse=True)
        pairs = np.unique(u * elements.size + ranks)
        u, v = pairs // elements.size, elements[pairs % elements.size]
        ids, starts = np.unique(u, return_index=True)
        for rep, hasher in enumerate(bank[0]._hashers):
            hashes = np.split(hasher.values(v), starts[1:])
            for u_id, fresh in zip(ids.tolist(), hashes):
                mins = bank[u_id].mins
                fresh = np.sort(fresh)[:capacity].tolist()
                mins[rep] = sorted(set(mins[rep]).union(fresh))[:capacity]
    return bank


def kcover_via_l0(sketches: list[DistinctSketch], k: int, *,
                  guard: int = L0_ENUM_GUARD) -> Solution:
    """Enumerate every k-subset, score by merged-estimate, keep the argmax.

    A candidate's merged sketch is the bottom-t of the union of its k
    per-set hash lists, so its estimate reads only that union's t-th
    smallest distinct hash (or its distinct count, below t). Candidates are
    scored a chunk at a time with numpy: the bank becomes a padded
    (reps, n, t) uint64 table, and each chunk gathers, sorts and
    de-duplicates at most L0_CHUNK_HASHES hashes (or one candidate's
    reps*k*t, if that is more). One chunk in flight holds about 14 bytes
    per gathered hash, about 230 KB at the default, on top of the table's
    8*reps*n*t bytes. Estimates equal those of pairwise `merge`s bit for
    bit.

    Ties resolve to the lexicographically first subset (strict-improvement
    scan over combinations in lexicographic order). Exponential time, guarded
    by comb(n, k) <= guard; space across the bank is n sketches of capacity t.
    """
    n = len(sketches)
    if n < 1:
        raise ConfigError("need at least one sketch")
    if not 1 <= k <= n:
        raise ConfigError(f"k must lie in [1, n={n}], got {k}")
    first = sketches[0]
    for sk in sketches[1:]:
        if (sk.capacity, sk.seed, sk.reps) != (first.capacity, first.seed,
                                               first.reps):
            raise IncompatibleSketchError("bank sketches disagree on "
                                          "(capacity, seed, reps)")
    work = math.comb(n, k)
    if work > guard:
        raise GuardExceededError(f"comb({n}, {k}) = {work} exceeds guard {guard}")
    cap, reps = first.capacity, first.reps
    # Padding sorts after every real hash; a real hash can equal it only as
    # the last of a list, which `tops` records so distinct counts stay exact.
    table = np.full((reps, n, cap), _PAD, dtype=np.uint64)
    lens = np.zeros((reps, n), dtype=np.int64)
    tops = np.zeros((reps, n), dtype=bool)
    for u, sk in enumerate(sketches):
        for rep, mins in enumerate(sk.mins):
            # bottom-t of a union reads only each list's t smallest
            kept = mins[:cap]
            table[rep, u, :len(kept)] = kept
            lens[rep, u] = len(kept)
            tops[rep, u] = bool(kept) and kept[-1] == _PAD
    combos = combinations(range(n), k)
    chunk = max(1, L0_CHUNK_HASHES // (reps * k * cap))
    best_value = -1.0
    best_combo: tuple[int, ...] = ()
    while True:
        block = np.fromiter(chain.from_iterable(islice(combos, chunk)),
                            dtype=np.intp)
        if not block.size:
            break
        block = block.reshape(-1, k)
        values = _union_estimates(table, lens, tops, block, cap)
        at = int(np.argmax(values))
        if values[at] > best_value:
            best_value = float(values[at])
            best_combo = tuple(block[at].tolist())
    space = sum(sk.retained_hash_count for sk in sketches)
    return Solution(chosen=best_combo, covered_on_target=None, gains=(),
                    meta={"estimate": best_value, "candidates": work,
                          "space_units": space})


def _union_estimates(table: np.ndarray, lens: np.ndarray, tops: np.ndarray,
                     block: np.ndarray, cap: int) -> np.ndarray:
    """`estimate()` of each candidate's merged sketch, one per row of block."""
    reps = table.shape[0]
    rows = np.take(table, block, axis=1).reshape(reps, len(block), -1)
    rows.sort(axis=-1)
    fresh = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[..., 1:], rows[..., :-1], out=fresh[..., 1:])
    seen = np.cumsum(fresh, axis=-1, dtype=np.int32)
    # padding counts as one distinct value unless a real hash equals it
    padded = lens[:, block].sum(axis=-1) < rows.shape[-1]
    distinct = seen[..., -1] - (padded & ~tops[:, block].any(axis=-1))
    tail = np.take_along_axis(rows, np.argmax(seen >= cap, axis=-1)[..., None],
                              axis=-1)[..., 0]
    kmv = (cap - 1) / np.maximum(unit_from_u64(tail.astype(np.float64)),
                                 2.0 ** -64)
    per_rep = np.where(distinct < cap, distinct.astype(np.float64), kmv)
    # statistics.median of the reps: the middle value, or the mean of two
    per_rep.sort(axis=0)
    mid = reps // 2
    if reps % 2:
        return per_rep[mid]
    return (per_rep[mid - 1] + per_rep[mid]) / 2
