"""Degree-capped subsampling sketches of edge streams.

The sketch keeps the elements with the smallest keyed hashes, each with at
most `degree_cap` incident set ids, admitting elements in hash order until
`edge_budget` edges are retained. The effective sampling threshold is the
largest retained hash mapped into [0, 1); coverage counts on the retained
elements divided by that threshold estimate coverage on the full instance.

Two builders produce the same structure: an offline one that sorts all
elements of a materialized instance by hash, and a single-pass streaming one
that ingests the edge stream a block at a time (at most BLOCK_EDGES edges).
A block is the stream's own u64 keys, (element id << 32) | set id, as a
binary edge file holds them (see `instance`). Each element keeps its
degree_cap smallest set ids. The streaming builder holds its first
edge_budget + degree_cap arrivals as sorted runs (`KeyRuns`), so a build
whose budget never binds costs O(N log N); past that, it keeps a table of
the retained elements in hash order over a store of their key runs, and
cuts the table to the hash prefix of elements holding at most
edge_budget + degree_cap edges. So it holds at most that many keys between
blocks, and a block costs a fixed number of numpy calls over its arrivals
and the table. The sketch is a pure function of (edge multiset, seed, params): whatever the arrival
order or the block boundaries, it serializes to the same bytes as the
offline sketch of the same edges.

Under one seed, sketches at smaller caps and budgets are re-capped hash
prefixes of a larger one: `recap_sketch` reads them off a base sketch, so
one pass serves every level of the outlier ladder.

A `Sketch` is the builder's arrays, from finalize to file: element ids,
hashes and degrees in stored order, and the set ids element-major.
`sample_subgraph` returns the paper's hash-threshold subgraph, every
element whose unit hash is at most p with all its set ids, as a
`SubgraphView` on the same id, degree and set-id arrays. Each is also a
small coverage instance: its `system` is a `SetSystem` with one position
per retained element in stored order, so any solver runs on it unchanged.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import IO, Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, ParseError, StateError
from .hashing import ElementHasher, unit_from_u64
from .instance import (_NO_KEYS, KEY_SHIFT, MAX_ID, CoverageInstance, Edge,
                       KeyRuns, SetSystem, capped_keys, edge_blocks,
                       element_runs, grown, key_words, pack_keys)

_MAGIC = b"CVSK"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIddQdIQ")
_THRESHOLD_AT = struct.calcsize("<4sIIIddQ")   # header offset of the threshold
_RECORD = struct.calcsize("<IQI")   # element id, hash, degree; then the set ids
_U32 = struct.Struct("<I")
_TRUNCATED = "truncated sketch: expected {} byte(s) for {}"
_NO_INDEX = np.empty(0, dtype=np.int64)
_NO_WORDS = np.empty(0, dtype=np.uint32)
_NO_MASK = np.empty(0, dtype=bool)


def _check_domain(n: int, k: int, eps: float, delta2: float) -> None:
    """The (n, k, eps, delta2) domain shared by every SketchParams path."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if max(n, k) > MAX_ID:
        raise ConfigError(f"n and k must be <= 2^32 - 1 (the sketch header "
                          f"stores them as u32), got n={n}, k={k}")
    if not 0.0 < eps <= 0.2:
        raise ConfigError(f"eps must lie in (0, 0.2], got {eps}")
    if not 1.0 <= delta2 < math.inf:
        raise ConfigError(f"delta2 must be finite and >= 1, got {delta2}")


@dataclass(frozen=True)
class SketchParams:
    """Budget configuration for one sketch.

    `derive` computes the cap and budget from (n, k, eps, delta2) with the
    scaling that backs the estimation guarantee; `custom` accepts explicit
    budgets for experiments where the formula values would never bind at the
    instance sizes in play. eps must lie in (0, 1/5].
    """

    n: int
    k: int
    eps: float
    delta2: float
    m_hint: int
    delta: float
    degree_cap: int
    edge_budget: int

    def __post_init__(self):
        _check_domain(self.n, self.k, self.eps, self.delta2)
        if self.degree_cap < 1 or self.edge_budget < 1:
            raise ConfigError("degree_cap and edge_budget must be >= 1")

    @classmethod
    def derive(cls, n: int, k: int, eps: float, delta2: float = 1.0,
               m_hint: int = 2) -> "SketchParams":
        """Formula-derived budgets.

        degree_cap = ceil(n ln(1/eps) / (eps k)) with k clamped to n;
        edge_budget = ceil(24 n delta ln(1/eps) ln n / ((1-eps) eps^3)), where
        delta folds delta2 with a slowly growing function of the element-count
        hint. Both floor at 1, and ln n floors at ln 2, to keep degenerate
        configurations well defined.
        """
        base = cls.custom(n, k, eps, 1, 1, delta2, m_hint)
        lg = math.log(1.0 / eps)
        cap = max(1, math.ceil(n * lg / (eps * min(k, n))))
        budget = max(1, math.ceil(24.0 * n * base.delta * lg * math.log(max(n, 2))
                                  / ((1.0 - eps) * eps ** 3)))
        return replace(base, degree_cap=cap, edge_budget=budget)

    @classmethod
    def custom(cls, n: int, k: int, eps: float, degree_cap: int,
               edge_budget: int, delta2: float = 1.0, m_hint: int = 2) -> "SketchParams":
        """Explicit budgets; validation matches `derive`, values are taken as given."""
        _check_domain(n, k, eps, delta2)
        m_hint = max(2, int(m_hint))
        inner = 2.0 + math.log(m_hint) / math.log(1.0 / (1.0 - eps))
        delta = delta2 * max(1.0, math.log(inner))
        return cls(n=n, k=k, eps=eps, delta2=delta2, m_hint=m_hint,
                   delta=delta, degree_cap=degree_cap, edge_budget=edge_budget)


class SketchElement(NamedTuple):
    element: int
    hash: int                 # u64 keyed hash
    sets: tuple[int, ...]     # incident set ids, sorted ascending


def _flatten(id_lists: Iterable[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The (degrees, set ids) arrays of a sequence of set-id lists."""
    id_lists = list(id_lists)
    degrees = np.fromiter(map(len, id_lists), np.int64, len(id_lists))
    sets = np.fromiter(itertools.chain.from_iterable(id_lists), np.int64,
                       int(degrees.sum()))
    return degrees, sets


def _system_of(n: int, degrees: np.ndarray, sets: np.ndarray) -> SetSystem:
    """The SetSystem whose position i holds the i-th degrees[i]-long run of `sets`."""
    count = degrees.size
    return SetSystem.from_incidence(n, count, np.repeat(np.arange(count), degrees),
                                    sets)


def _frozen(values, dtype) -> np.ndarray:
    """A read-only view of `values` as `dtype` (a copy only to convert)."""
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class SubgraphView:
    """The hash-threshold subgraph of an instance: the elements whose unit
    hash is <= p, each with all its set ids.

    Read-only arrays hold it, as they hold a `Sketch`: `ids`, the kept
    element ids ascending, their `degrees`, and `sets`, each kept element's
    set ids in turn, ascending. `system` is built from them on first read.
    """

    n: int
    p: float
    seed: int
    ids: np.ndarray
    degrees: np.ndarray
    sets: np.ndarray

    @property
    def edge_count(self) -> int:
        return self.sets.size

    @cached_property
    def system(self) -> SetSystem:
        """The kept elements as a SetSystem, positions in `ids` order."""
        return _system_of(self.n, self.degrees, self.sets)

    def covered_count(self, chosen: Iterable[int]) -> int:
        """Number of kept elements hit by the chosen sets."""
        return self.system.coverage(chosen)


def sample_subgraph(inst: CoverageInstance, p: float, seed: int) -> SubgraphView:
    """Keep exactly the elements whose unit hash is <= p, with all their edges.

    p=1 keeps everything; element sets are nested across p for a fixed seed.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must lie in [0, 1], got {p}")
    ids = np.arange(inst.m)
    hashes = ElementHasher(seed).values(ids)
    ids = ids[unit_from_u64(hashes.astype(np.float64)) <= p]
    degrees, sets = _flatten(inst.elements[e] for e in ids.tolist())
    return SubgraphView(inst.n, p, seed, _frozen(ids, np.int64),
                        _frozen(degrees, np.int64), _frozen(sets, np.int64))


class Sketch:
    """Finalized sketch: retained elements in ascending (hash, id) order.

    Four read-only arrays hold it: `ids`, `hashes` (u64) and `degrees`, one
    entry per element, and `sets`, each element's set ids in turn, ascending.
    `elements` (SketchElement records) and `system` (a SetSystem) are decoded
    from them on first read and cached. The arrays default to empty.
    """

    __slots__ = ("params", "seed", "ids", "hashes", "degrees", "sets",
                 "threshold", "edge_total", "stats", "_decoded")

    def __init__(self, params: SketchParams, seed: int, ids, threshold: float,
                 edge_total: int, *, hashes=(), degrees=(), sets=()):
        self.params = params
        self.seed = seed
        self.ids = _frozen(ids, np.int64)
        self.hashes = _frozen(hashes, np.uint64)
        self.degrees = _frozen(degrees, np.int64)
        self.sets = _frozen(sets, np.int64)
        self.threshold = threshold
        self.edge_total = int(edge_total)
        self.stats: BuilderStats | None = None   # set by the streaming builder
        self._decoded: dict = {}     # "elements" and "system", once read

    @property
    def element_count(self) -> int:
        return self.ids.size

    @property
    def space_units(self) -> int:
        """Abstract footprint: one unit per retained hash plus one per edge."""
        return self.element_count + self.edge_total

    @property
    def full_retention(self) -> bool:
        return self.threshold >= 1.0

    @property
    def elements(self) -> tuple[SketchElement, ...]:
        """The arrays decoded as one SketchElement per retained element."""
        if "elements" not in self._decoded:
            sets, ends = self.sets.tolist(), np.cumsum(self.degrees).tolist()
            self._decoded["elements"] = tuple(map(SketchElement._make, zip(
                self.ids.tolist(), self.hashes.tolist(),
                (tuple(sets[start:end]) for start, end in zip([0] + ends, ends)))))
        return self._decoded["elements"]

    @property
    def system(self) -> SetSystem:
        """The retained elements as a SetSystem, positions in stored order."""
        if "system" not in self._decoded:
            self._decoded["system"] = _system_of(self.params.n, self.degrees, self.sets)
        return self._decoded["system"]

    def __eq__(self, other):
        # Equality matches the serialized identity: the header stores
        # (n, k, eps, delta2) but not m_hint or override budgets, so two
        # sketches with the same bytes on disk compare equal.
        if not isinstance(other, Sketch):
            return NotImplemented
        a, b = self.params, other.params
        return (self.seed == other.seed
                and (a.n, a.k, a.eps, a.delta2) == (b.n, b.k, b.eps, b.delta2)
                and self.threshold == other.threshold
                and self.edge_total == other.edge_total
                and all(map(np.array_equal,
                            (self.ids, self.hashes, self.degrees, self.sets),
                            (other.ids, other.hashes, other.degrees, other.sets))))

    def __repr__(self):
        return (f"Sketch(elements={self.element_count}, edges={self.edge_total}, "
                f"threshold={self.threshold:.6g})")


class CoverageEstimate(NamedTuple):
    raw: int        # retained elements covered
    scaled: float   # raw divided by the sampling threshold

    def __float__(self):
        return self.scaled


def estimate_coverage(sk: Sketch, chosen: Iterable[int]) -> CoverageEstimate:
    """Estimate coverage of the chosen sets on the sketched instance."""
    raw = sk.system.coverage(chosen)
    return CoverageEstimate(raw=raw, scaled=raw / sk.threshold)


def _trimmed(params: SketchParams, seed: int, ids, hashes, degrees, sets) -> Sketch:
    """The sketch of key-sorted arrays, trimmed to the minimal prefix of
    elements meeting params.edge_budget; all of them, threshold 1, if none does."""
    ends = np.cumsum(degrees)
    threshold = 1.0
    if ends.size and int(ends[-1]) >= params.edge_budget:
        cut = int(np.searchsorted(ends, params.edge_budget))
        threshold = unit_from_u64(int(hashes[cut]))
        ids, hashes, degrees = ids[:cut + 1], hashes[:cut + 1], degrees[:cut + 1]
        sets = sets[:int(ends[cut])]
    return Sketch(params, seed, ids, threshold, sets.size,
                  hashes=hashes, degrees=degrees, sets=sets)


def recap_sketch(base: Sketch, params: SketchParams) -> Sketch:
    """The sketch at `params` and the base's seed, read off a larger base.

    Each retained element keeps its params.degree_cap smallest set ids, and
    the result is trimmed to the minimal hash prefix meeting
    params.edge_budget, as `build_sketch_offline` would. That needs a base
    capped at params.degree_cap or above that retains the whole prefix;
    otherwise StateError. Uncut arrays are the base's or slices of them; if
    nothing is cut or trimmed, the decoded elements and SetSystem are shared.
    """
    if params.n != base.params.n:
        raise ConfigError(f"base sketch has n={base.params.n} but params "
                          f"expect n={params.n}")
    cap = params.degree_cap
    if cap > base.params.degree_cap:
        raise StateError(f"cannot raise degree cap {base.params.degree_cap} "
                         f"to {cap}")
    degrees, sets = base.degrees, base.sets
    if degrees.size and int(degrees.max()) > cap:
        rank = np.arange(sets.size) - np.repeat(np.cumsum(degrees) - degrees, degrees)
        degrees, sets = np.minimum(degrees, cap), sets[rank < cap]
    sk = _trimmed(params, base.seed, base.ids, base.hashes, degrees, sets)
    if sk.full_retention and not base.full_retention:
        raise StateError(f"base sketch holds {sk.edge_total} edges at cap "
                         f"{cap}, short of the edge budget {params.edge_budget}")
    if (sk.element_count, sk.edge_total) == (base.element_count, base.edge_total):
        sk._decoded = base._decoded
    return sk


def build_sketch_offline(inst: CoverageInstance, params: SketchParams,
                         seed: int) -> Sketch:
    """Admit elements in ascending (hash, id) order until edge_budget edges.

    Each admitted element contributes at most degree_cap edges (its smallest
    set ids). If the whole instance holds fewer than edge_budget capped edges
    the sketch retains everything and the threshold is 1.
    """
    if inst.n != params.n:
        raise ConfigError(f"instance has n={inst.n} but params expect n={params.n}")
    hashes = ElementHasher(seed).values(np.arange(inst.m))
    order = np.argsort(hashes)      # distinct: the hash is a bijection
    cap = params.degree_cap
    degrees, sets = _flatten(inst.elements[e][:cap] for e in order.tolist())
    return _trimmed(params, seed, order, hashes[order], degrees, sets)


@dataclass
class BuilderStats:
    """What a streaming build did with its arrivals.

    Every arrival counted in seen_edges is dropped on sight (its hash is at
    or above the reject hash), dropped as a duplicate or by the degree cap,
    or admitted. An admitted edge leaves again either with its whole evicted
    element (evicted_edges) or displaced by a smaller set id of the same
    element, which counts in dropped_duplicate_or_cap when runs merge, the
    last ones in finalize. finalize sets threshold, and budget_bound (the
    edge budget bound, so the threshold is below 1).
    """

    seen_edges: int = 0
    dropped_on_sight: int = 0
    dropped_duplicate_or_cap: int = 0
    evicted_elements: int = 0
    evicted_edges: int = 0
    budget_bound: bool = False
    threshold: float = 1.0

    def as_dict(self) -> dict:
        return asdict(self)


def _spans(starts, lengths) -> np.ndarray:
    """The indices of the runs [starts[i], starts[i] + lengths[i]), in turn."""
    at = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    at += np.arange(at.size)
    return at


class StreamingSketchBuilder:
    """Single-pass builder over (set_id, element_id) arrivals, a block at a time.

    A block is a key array, (element id << 32) | set id, taken as it is and
    never written to; `edge_blocks` checks its set ids against n. Each
    element keeps its degree_cap smallest set ids. While the arrivals so far
    number at most edge_budget + degree_cap, they are held as a
    `KeyRuns(degree_cap)`, so a build whose budget never binds costs
    O(N log N). Past that, the state is a table of the retained elements in
    ascending hash order (each one's hash, degree, and the start of its keys
    in a store of key runs, one ascending run per element, anywhere in the
    store), and each block goes as follows:

    - in a strictly ascending block, each run of arrivals with one element
      id is that element's keys: it is hashed once, dropped on sight if at
      or above the reject hash (the least hash evicted so far; an evicted
      element is never re-admitted), and otherwise kept, capped at
      degree_cap. Any other block's arrivals are hashed one by one, and
      the survivors are sorted, deduplicated and capped, and their runs
      found and hashed;
    - the survivors are appended to the store (their runs, or the whole
      block if most of it survives), and each new element is inserted into
      the table at its hash. An element already held gets a new run: its
      old and new keys merged, deduplicated and capped;
    - if the table then holds more than edge_budget + degree_cap keys, it is
      cut to the longest hash prefix holding at most that many, and the
      elements past it are evicted whole: the table drops a suffix. The
      store is packed to the table's runs only when it is full.

    So a block costs a fixed number of numpy calls: a few over its arrivals,
    the rest over its runs and the table of about
    (edge_budget + degree_cap) / degree elements, and none over the retained
    keys but the occasional packing. Memory: at most edge_budget +
    degree_cap keys held between blocks, in a store of at most 1.5 times
    what it held plus twice what it took in at its last packing, plus a
    block's temporaries (see README for the bound).

    An element's capped degree only grows as arrivals come in, so the cut
    only moves down the hash order, and the final state is a pure function
    of the edge multiset, the seed and the params, whatever the arrival
    order or the block boundaries: finalize gathers the table's runs and
    trims them to what `build_sketch_offline` builds from the same edges.
    It releases the state, so retained_edge_count then reads 0.
    """

    __slots__ = ("params", "seed", "stats", "_hasher", "_limit", "_runs",
                 "_reject", "_hashes", "_degrees", "_starts", "_store", "_top",
                 "_words", "_mask", "_finalized")

    def __init__(self, params: SketchParams, seed: int):
        self.params = params
        self.seed = seed
        self.stats = BuilderStats()
        self._hasher = ElementHasher(seed)
        self._limit = params.edge_budget + params.degree_cap
        self._runs: KeyRuns | None = KeyRuns(params.degree_cap)
        self._reject: np.uint64 | None = None
        self._hashes = _NO_KEYS                    # the element table
        self._degrees = self._starts = _NO_INDEX
        self._store, self._top = _NO_KEYS, 0       # and its key runs
        self._words, self._mask = _NO_WORDS, _NO_MASK   # scratch
        self._finalized = False

    @property
    def retained_edge_count(self) -> int:
        held = 0 if self._runs is None else self._runs.size
        return held + int(self._degrees.sum())

    @property
    def seen_edge_count(self) -> int:
        return self.stats.seen_edges

    def extend(self, edges: Iterable[Edge]) -> None:
        """All arrivals of an edge iterable, or of a source's `blocks()`."""
        for keys in edge_blocks(edges, self.params.n):
            self._update(keys)

    def update_block(self, set_ids, element_ids) -> None:
        """Arrivals given as two equal-length integer arrays, in order.

        `pack_keys` checks and packs them: a non-integer id, a set id outside
        [0, n) or an element id outside [0, 2^32) raises IdRangeError.
        """
        self._update(pack_keys(set_ids, element_ids, self.params.n))

    def _update(self, keys) -> None:
        """Arrivals given as a key array of set ids in [0, n), in order."""
        if self._finalized:
            raise StateError("update_block() after finalize()")
        self.stats.seen_edges += int(keys.size)
        runs = self._runs
        if runs is not None:
            held = runs.size + keys.size
            if held <= self._limit:         # the budget cannot bind yet
                runs.add(keys)
                self.stats.dropped_duplicate_or_cap += held - runs.size
                return
            self._release_runs()
        if keys.size:
            self._admit(keys)

    def _release_runs(self) -> None:
        """Make the held runs the table; the store is their merged keys."""
        runs, self._runs = self._runs, None
        held, keys = runs.size, runs.merged()
        self.stats.dropped_duplicate_or_cap += held - keys.size
        starts, lengths, ids = self._element_runs(keys)
        hashes = self._hasher.values(ids)
        order = np.argsort(hashes)      # distinct: the hash is a bijection
        self._hashes, self._degrees, self._starts = (
            hashes[order], lengths[order], starts[order])
        self._store, self._top = _frozen(keys, np.uint64), keys.size

    def _scratch(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The u32 and bool scratch buffers, grown to at least `size` items."""
        self._words = grown(self._words, size)
        self._mask = grown(self._mask, size)
        return self._words, self._mask

    def _element_runs(self, keys):
        """`element_runs` of a key array, on the scratch buffers."""
        return element_runs(keys, *self._scratch(keys.size))

    def _admit(self, keys) -> None:
        """Filter a block at the reject hash, merge its survivors into the
        table, and cut the table if it passes edge_budget + degree_cap."""
        stats, cap, seen = self.stats, self.params.degree_cap, keys.size
        words, mask = self._scratch(seen)
        if np.greater(keys[1:], keys[:-1], out=mask[:seen - 1]).all():
            # a strictly ascending block: each run is one element's keys
            starts, lengths, ids = self._element_runs(keys)
            hashes = self._hasher.values(ids)
            if self._reject is not None:
                live = np.flatnonzero(hashes < self._reject)
                starts, lengths, hashes = starts[live], lengths[live], hashes[live]
            held = int(lengths.sum())
            if held and lengths.max() > cap:
                lengths = np.minimum(lengths, cap)
        else:
            # any other block: each arrival is hashed, and the survivors
            # are sorted and capped, and their runs found and hashed
            if self._reject is not None:
                np.right_shift(keys, KEY_SHIFT, out=words[:seen], casting="unsafe")
                keys = keys[np.flatnonzero(self._hasher.values(words[:seen])
                                           < self._reject)]
            held = keys.size
            keys = capped_keys(np.sort(keys), cap)
            starts, lengths, ids = self._element_runs(keys)
            hashes = self._hasher.values(ids)
        stats.dropped_on_sight += seen - held
        if not held:
            return
        stats.dropped_duplicate_or_cap += held - int(lengths.sum())
        self._merge(keys, starts, lengths, hashes)
        self._cut()

    def _merge(self, keys, starts, lengths, hashes) -> None:
        """Add the runs [starts, starts + lengths) of `keys` to the table:
        each is one element's ascending capped keys, with that hash, and
        they come in element id order."""
        order = np.argsort(hashes)
        at = np.empty_like(order)       # each run's place in the table
        at[order] = np.searchsorted(self._hashes, hashes[order])
        held = np.zeros(at.size, dtype=bool)
        if self._hashes.size:
            np.equal(self._hashes.take(at, mode="clip"), hashes, out=held)
        both = _NO_KEYS
        if held.any():
            # the held rows' runs, then their new keys: two ascending runs
            rows = at[held]
            both = np.concatenate((
                self._store[_spans(self._starts[rows], self._degrees[rows])],
                keys[_spans(starts[held], lengths[held])]))
            both.sort(kind="stable")
            merged = capped_keys(both, self.params.degree_cap)
            self.stats.dropped_duplicate_or_cap += both.size - merged.size
            both = merged
            self._degrees[rows] = 0     # their old runs are not kept
            order = order[~held[order]]
        hashes, starts, lengths, at = (
            hashes[order], starts[order], lengths[order], at[order])
        size = int(lengths.sum())
        whole = 2 * size >= keys.size   # copy the keys as they are, not the runs
        self._reserve((keys.size if whole else size) + both.size)
        store, top = self._store, self._top
        if whole:
            store[top:top + keys.size] = keys
            starts = starts + top
            top += keys.size
        else:
            np.take(keys, _spans(starts, lengths), out=store[top:top + size],
                    mode="clip")
            starts = np.cumsum(lengths) - lengths + top
            top += size
        if both.size:   # one merged run per held row, in order
            run_starts, run_lengths, _ = self._element_runs(both)
            store[top:top + both.size] = both
            self._starts[rows] = top + run_starts
            self._degrees[rows] = run_lengths
            top += both.size
        self._top = top
        if not self._hashes.size:
            self._hashes, self._degrees, self._starts = hashes, lengths, starts
        elif hashes.size:
            at += np.arange(at.size)
            old = np.ones(self._hashes.size + at.size, dtype=bool)
            old[at] = False
            self._hashes, self._degrees, self._starts = (
                _inserted(table, old, at, new) for table, new in (
                    (self._hashes, hashes), (self._degrees, lengths),
                    (self._starts, starts)))

    def _reserve(self, need: int) -> None:
        """Room for `need` keys past the store's top. When it is short (or
        is the released runs' keys), the table's runs (`size` keys) are
        packed to the front in hash order, unless they fill the store up to
        its top already; if it is still short, into a new store of
        size + need + max(size // 2, need) keys, so that packing costs O(1)
        moves per key taken in."""
        writable = self._store.flags.writeable
        if writable and self._top + need <= self._store.size:
            return
        size, live = int(self._degrees.sum()), None
        if size < self._top:    # else the runs fill the store up to its top
            live = self._store[_spans(self._starts, self._degrees)]
            self._starts = np.cumsum(self._degrees) - self._degrees
        self._top = size
        if not writable or size + need > self._store.size:
            store = np.empty(size + need + max(size // 2, need), dtype=np.uint64)
            store[:size] = self._store[:size] if live is None else live
            self._store = store
        elif live is not None:
            self._store[:size] = live

    def _cut(self) -> None:
        """Evict the elements past the longest hash prefix holding at most
        edge_budget + degree_cap keys, if the table holds more."""
        ends = np.cumsum(self._degrees)
        total = int(ends[-1])
        if total > self._limit:
            cut = int(np.searchsorted(ends, self._limit, side="right"))
            self._reject = self._hashes[cut]
            self.stats.evicted_elements += ends.size - cut
            self.stats.evicted_edges += total - int(ends[cut - 1])
            self._hashes, self._degrees, self._starts = (
                self._hashes[:cut], self._degrees[:cut], self._starts[:cut])

    def finalize(self) -> Sketch:
        """Gather the table's runs in hash order, trim them to the minimal
        prefix meeting edge_budget, and freeze; the state is released."""
        if self._finalized:
            raise StateError("finalize() called twice")
        self._finalized = True
        if self._runs is not None:
            self._release_runs()
        degrees = self._degrees
        sets, elements = key_words(self._store[_spans(self._starts, degrees)])
        sk = _trimmed(self.params, self.seed, elements[np.cumsum(degrees) - degrees],
                      self._hashes, degrees, sets)
        self._hashes, self._degrees, self._starts = _NO_KEYS, _NO_INDEX, _NO_INDEX
        self._store, self._words, self._mask = _NO_KEYS, _NO_WORDS, _NO_MASK
        self.stats.threshold = sk.threshold
        self.stats.budget_bound = sk.threshold < 1.0
        sk.stats = self.stats
        return sk


def _inserted(table, old, at, new) -> np.ndarray:
    """`table` with `new` inserted: the result holds new[i] at at[i] and the
    table's entries, in order, where `old` is True."""
    out = np.empty(old.size, dtype=table.dtype)
    out[at] = new
    out[old] = table
    return out


def build_sketch_from_stream(edges: Iterable[Edge], params: SketchParams,
                             seed: int) -> Sketch:
    builder = StreamingSketchBuilder(params, seed)
    builder.extend(edges)
    return builder.finalize()


# ---------------------------------------------------------------------------
# Serialization


def save_sketch(sk: Sketch, stream: IO) -> int:
    """Write the versioned binary form; returns the byte count.

    Version 1 is a 60-byte header, then per element in stored order its id
    (u32), hash (u64), degree (u32) and set ids (u32), little-endian: u32
    words in which record i starts at word 4 i + (edges before i)."""
    p = sk.params
    count, total = sk.element_count, sk.edge_total
    head = _HEADER.pack(_MAGIC, _VERSION, p.n, p.k, p.eps, p.delta2,
                        sk.seed, sk.threshold, count, total)
    at = 4 * np.arange(count) + np.cumsum(sk.degrees) - sk.degrees
    body = np.empty(4 * count + total, dtype="<u4")
    body[at] = sk.ids
    body[at + 1] = sk.hashes & np.uint64(0xFFFFFFFF)
    body[at + 2] = sk.hashes >> np.uint64(32)
    body[at + 3] = sk.degrees
    body[np.arange(total) + 4 * np.repeat(np.arange(1, count + 1), sk.degrees)] = sk.sets
    stream.write(head)
    stream.write(body.tobytes())
    return len(head) + body.nbytes


def load_sketch(stream: IO) -> Sketch:
    """Read a sketch written by save_sketch, as whole arrays.

    Budget parameters are re-derived from the stored (n, k, eps, delta2), so
    a sketch built with custom budgets loads with formula params; the stored
    structure (elements, hashes, threshold, edge total) is authoritative and
    is all that estimation and solving consume. A file that breaks a sketch
    invariant raises ParseError at the first bad record in file order: set
    ids must be strictly ascending and below n, elements strictly ascending
    in (hash, id), each stored hash the keyed hash of its element id under
    the stored seed (a bijection, so no id repeats), and a threshold other
    than 1 must be the unit hash of the last element. One walk over the
    degree fields finds the records.
    """
    head = stream.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise ParseError(_TRUNCATED.format(_HEADER.size, "header"), offset=0)
    magic, version, n, k, eps, delta2, seed, threshold, count, edge_total = \
        _HEADER.unpack(head)
    if magic != _MAGIC:
        raise ParseError(f"bad magic {magic!r}", offset=0)
    if version != _VERSION:
        raise ParseError(f"unsupported sketch version {version}", offset=4)
    try:
        params = SketchParams.derive(n=n, k=k, eps=eps, delta2=delta2)
    except ConfigError as exc:
        raise ParseError(str(exc), offset=0) from None
    body = stream.read()
    size, starts, end = len(body), [], 0    # byte offsets of the records in the body
    for _ in range(count):
        if end + _RECORD > size:
            break
        starts.append(end)
        end += _RECORD + 4 * _U32.unpack_from(body, end + _RECORD - 4)[0]
    whole = len(starts) - (end > size)      # records with all their set ids
    words = np.frombuffer(body, dtype="<u4", count=size // 4)
    at = np.array(starts, dtype=np.int64) // 4
    ids, degrees = words[at].astype(np.int64), words[at + 3].astype(np.int64)
    hashes = words[at + 1] | words[at + 2].astype(np.uint64) << np.uint64(32)
    owner = np.repeat(np.arange(whole), degrees[:whole])
    sets = words[np.arange(owner.size) + 4 * owner + 4].astype(np.int64)

    # Find the first bad record in file order, then its first failed check.
    bad = np.zeros(len(starts) + 1, dtype=bool)
    bad[1:len(starts)] = (hashes[1:] < hashes[:-1]) | (
        (hashes[1:] == hashes[:-1]) & (ids[1:] <= ids[:-1]))
    keyed = hashes == ElementHasher(seed).values(ids)
    bad[:len(starts)] |= ~keyed
    bad[owner[1:][(owner[1:] == owner[:-1]) & (sets[1:] <= sets[:-1])]] = True
    bad[owner[sets >= n]] = True
    bad[whole] |= whole < count
    if bad.any():
        i = int(bad.argmax())
        if i == len(starts):
            raise ParseError(_TRUNCATED.format(_RECORD, "element record"),
                             offset=_HEADER.size + end)
        offset = _HEADER.size + starts[i]
        elem = int(ids[i])
        if i and (int(hashes[i]), elem) <= (int(hashes[i - 1]), int(ids[i - 1])):
            raise ParseError(f"element {elem} out of ascending (hash, id) order",
                             offset=offset)
        if not keyed[i]:
            raise ParseError(f"hash {int(hashes[i])} is not the keyed hash of "
                             f"element {elem} under seed {seed}", offset=offset)
        offset += _RECORD
        if i == whole:
            raise ParseError(_TRUNCATED.format(4 * int(degrees[i]), "set id list"),
                             offset=offset)
        own = sets[owner == i].tolist()
        if any(a >= b for a, b in zip(own, own[1:])):
            raise ParseError(f"set ids of element {elem} are not strictly "
                             "ascending", offset=offset)
        raise ParseError(f"set id {own[-1]} of element {elem} outside "
                         f"[0, {n})", offset=offset)

    total = int(degrees.sum())
    if total != edge_total:
        raise ParseError(f"edge total mismatch: header says {edge_total}, "
                         f"records hold {total}", offset=_HEADER.size + end)
    if threshold != 1.0 and not (
            count and threshold == unit_from_u64(int(hashes[-1]))):
        raise ParseError(f"threshold {threshold!r} is neither 1 nor the unit "
                         "hash of the last element", offset=_THRESHOLD_AT)
    if end < size:
        raise ParseError("trailing bytes after last element record",
                         offset=_HEADER.size + end)
    return Sketch(params, seed, ids, threshold, edge_total,
                  hashes=hashes, degrees=degrees, sets=sets)
