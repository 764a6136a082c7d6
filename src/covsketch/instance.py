"""Coverage instances: bipartite set systems, edge-stream I/O, generators.

An instance is a bipartite graph between n sets (ids 0..n-1) and m elements
(ids 0..m-1). Edges arrive as (set_id, element_id) pairs. Loaders stream
and never materialize the whole input: they yield blocks of at most
BLOCK_EDGES edges, and an `EdgeStream` is one open of such a block view;
its edges one at a time are the blocks' flatten.

Every edge has one encoding, from file to sketch: the u64 key
(element id << 32) | set id, both ids in [0, 2^32). A block is one
C-contiguous uint64 key array. A binary edge file's record, a little-endian
u32 set id then a u32 element id, read as one little-endian u64 is that key,
so a binary block is a read-only view of the bytes read; the text parser,
the tuple batcher and the generator pack their ids once, after the range
check. Nothing writes into a block. `split_keys` gives a block's
(set ids, element ids) as int64 arrays.

Every element of a constructed instance belongs to at least one set:
isolated elements are either attached to a uniformly random set (when an
attachment seed is supplied) or rejected.

Incidence has one representation, `SetSystem` (per-set bitmasks): an
instance is a SetSystem over its element ids, and sketches, views and
materialized streams adapt to it. `SetSystem.from_incidence(n, universe,
positions, set_ids)`, fed equal-length arrays, is the only code that sets
mask bits, apart from `gen_disjointness`, whose two-element masks are set
directly.
"""

from __future__ import annotations

import itertools
import json
import numbers
import operator
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import IdRangeError, IsolatedElementError, ParseError

Edge = tuple[int, int]
EdgeBlock = np.ndarray      # uint64 keys, (element id << 32) | set id

MAX_ID = 2**32 - 1
_ID_SPAN = MAX_ID + 1
BLOCK_EDGES = 65_536
KEY_SHIFT = np.uint64(32)   # a key's element id is key >> KEY_SHIFT
KEY_LOW = np.uint64(MAX_ID)     # and its set id key & KEY_LOW

_KEY_BYTES = 8      # one binary record
_NO_KEYS = np.empty(0, dtype=np.uint64)


class SetSystem:
    """n sets as bitmasks over a universe of `universe` bit positions.

    Bit `pos` of masks[u] is set iff set u holds the element at position pos
    (an element id, or a retained or distinct element's index). `n`,
    `universe` and `masks` are read-only. Equality and hashing go by
    (n, universe, masks), so a CoverageInstance equals the SetSystem of its
    own data.
    """

    __slots__ = ("_n", "_universe", "_masks")

    def __init__(self, n: int, universe: int, masks: tuple[int, ...]):
        self._n = n
        self._universe = universe
        self._masks = masks

    # Read-only: a property over a private slot, read through a C getter.
    n = property(operator.attrgetter("_n"), doc="Number of sets.")
    universe = property(operator.attrgetter("_universe"),
                        doc="Number of bit positions.")
    masks = property(operator.attrgetter("_masks"), doc="Per-set bitmasks.")

    @classmethod
    def from_incidence(cls, n: int, universe: int, positions, set_ids) -> "SetSystem":
        """Masks from equal-length integer arrays (or lists): pair i sets bit
        positions[i] of masks[set_ids[i]]; repeats OR together.

        A non-integer position, then a non-integer set id, raises
        IdRangeError, never truncated. The first out-of-range pair raises
        IdRangeError naming its position, if outside [0, universe), else its
        set id, outside [0, n). The bits are set in one n x ceil(universe / 8)
        uint8 table, the size of the masks.
        """
        pos, ids = np.asarray(positions), np.asarray(set_ids)
        if pos.dtype.kind not in "iu":
            pos = _integer_items(positions)
        if ids.dtype.kind not in "iu":
            ids = _integer_items(set_ids)
        bad = (pos < 0) | (pos >= universe) | (ids < 0) | (ids >= n)
        if bad.any():
            i = int(bad.argmax())
            if not 0 <= pos[i] < universe:
                raise IdRangeError(f"element id {pos[i]} outside [0, {universe})")
            raise IdRangeError(f"set id {ids[i]} outside [0, {n})")
        pos, ids = pos.astype(np.int64), ids.astype(np.int64)
        table = np.zeros((n, (universe + 7) // 8), dtype=np.uint8)
        np.bitwise_or.at(table, (ids, pos >> 3), (1 << (pos & 7)).astype(np.uint8))
        return cls(n, universe, tuple(int.from_bytes(row, "little") for row in table))

    def coverage(self, chosen: Iterable[int]) -> int:
        """Exact number of positions covered by the union of the chosen sets."""
        mask = 0
        for u in chosen:
            if not 0 <= u < self._n:
                raise IdRangeError(f"set id {u} outside [0, {self._n})")
            mask |= self._masks[u]
        return mask.bit_count()

    def __eq__(self, other):
        if not isinstance(other, SetSystem):
            return NotImplemented
        return ((self._n, self._universe, self._masks)
                == (other._n, other._universe, other._masks))

    def __hash__(self):
        return hash((self._n, self._universe, self._masks))

    def __repr__(self):
        return (f"SetSystem(n={self._n!r}, universe={self._universe!r}, "
                f"masks={self._masks!r})")


class CoverageInstance(SetSystem):
    """Immutable set system over elements 0..m-1: a SetSystem whose
    positions are element ids, so `m` is its `universe` and `system` is the
    instance itself.

    Bit e of masks[u] is set iff element e belongs to set u. `edge_count` is
    the masks' popcount; the sorted adjacency views `sets` and `elements`
    are decoded from the masks on first access and cached.
    """

    __slots__ = ("_sets", "_elements")

    def __init__(self, n: int, m: int, masks: tuple[int, ...]):
        # the slots set here, not through super(): tiny instances are hot
        self._n = n
        self._universe = m
        self._masks = masks
        self._sets = None
        self._elements = None

    m = property(operator.attrgetter("_universe"), doc="Number of elements.")

    @property
    def system(self) -> "CoverageInstance":
        """The instance as a SetSystem: itself."""
        return self

    @classmethod
    def from_edges(cls, n: int, m: int, edges: Iterable[Edge], *,
                   attach_isolated_seed: int | None = None) -> "CoverageInstance":
        """Build an instance from an edge stream.

        Duplicate edges collapse silently. Elements in [0, m) that never
        appear are attached to one uniformly chosen set each, drawn in
        ascending element order, when `attach_isolated_seed` is given;
        otherwise construction fails.
        """
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
        u, v = _edge_arrays(edges)
        isolated = np.setdiff1d(np.arange(m), v)
        if isolated.size and attach_isolated_seed is None:
            SetSystem.from_incidence(n, m, v, u)    # a bad id is named first
            raise IsolatedElementError(
                f"{isolated.size} isolated element(s), first={isolated[0]}; "
                "pass attach_isolated_seed to attach them")
        rng = np.random.default_rng(attach_isolated_seed)
        owners = np.array([rng.integers(n) for _ in isolated], dtype=np.int64)
        return cls.from_incidence(n, m, np.concatenate((v, isolated)),
                                  np.concatenate((u, owners)))

    @property
    def edge_count(self) -> int:
        """Number of (set, element) memberships: the masks' total popcount."""
        return sum(map(int.bit_count, self._masks))

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Element ids of each set, ascending."""
        if self._sets is None:
            self._sets = _rows(self._bits())
        return self._sets

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """Set ids of each element, ascending."""
        if self._elements is None:
            self._elements = _rows(self._bits().T)
        return self._elements

    def _bits(self) -> np.ndarray:
        """The masks as an n x m 0/1 matrix."""
        width = (self.m + 7) // 8
        raw = b"".join(mask.to_bytes(width, "little") for mask in self.masks)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             bitorder="little")
        return bits.reshape(self.n, 8 * width)[:, :self.m]

    def degree(self, element: int) -> int:
        return len(self.elements[element])

    def edges_by_set(self) -> Iterator[Edge]:
        for u, members in enumerate(self.sets):
            for v in members:
                yield (u, v)

    def edges_by_element(self) -> Iterator[Edge]:
        for v, owners in enumerate(self.elements):
            for u in owners:
                yield (u, v)

    def __repr__(self):
        return f"CoverageInstance(n={self.n}, m={self.m}, edges={self.edge_count})"


def _rows(bits: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Column indices of the nonzero entries of each row, ascending."""
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in bits)


# ---------------------------------------------------------------------------
# Edge-stream I/O


_TEXT_CHUNK = 64 * 1024     # text bytes read at a time
_SPACE = np.array([c < 128 and chr(c).isspace() for c in range(256)])
_POW10 = 10 ** np.arange(11, dtype=np.int64)


def load_edge_blocks(stream: IO, format: str = "text") -> Iterator[EdgeBlock]:
    """Yield blocks, C-contiguous uint64 key arrays, from an edge stream.

    Text: one 'set_id element_id' pair per line, '#' comment lines and blank
    lines skipped. LF or CRLF ends a line (a lone CR does not), and a str
    stream is read as its UTF-8 bytes. Binary: consecutive little-endian u32
    (set id, element id) records, each read as one little-endian u64, which
    is its key; a block is a read-only view of the bytes read. Malformed
    input raises ParseError carrying the byte position, after every block
    before it has been yielded.
    """
    if format == "text":
        held = _NO_KEYS
        for keys in _text_keys(stream):
            held = np.concatenate((held, keys))
            while held.size >= BLOCK_EDGES:
                yield held[:BLOCK_EDGES]
                held = held[BLOCK_EDGES:]
        if held.size:
            yield held
    elif format == "binary":
        size = BLOCK_EDGES * _KEY_BYTES
        offset = 0
        pending = b""
        while True:
            chunk = stream.read(size - len(pending))
            if not chunk:
                break
            data = pending + chunk
            usable = len(data) - (len(data) % _KEY_BYTES)
            if usable:
                yield np.frombuffer(data, dtype="<u8", count=usable // _KEY_BYTES)
            pending = data[usable:]
            offset += usable
        if pending:
            raise ParseError(f"truncated record: {len(pending)} trailing byte(s)",
                             offset=offset)
    else:
        raise ValueError(f"unknown edge format {format!r}")


def _text_keys(stream: IO) -> Iterator[EdgeBlock]:
    """A text stream's edges as key arrays, one per _TEXT_CHUNK bytes read
    and cut after the last LF. The first bad line raises after the edges
    before it have been yielded. A line's fields are its runs of bytes other
    than ' ', its LF and one CR before that; it is skipped when it has no
    byte outside _SPACE or its first one is '#'.
    """
    line_no, carry = 1, b""
    while True:
        chunk = stream.read(_TEXT_CHUNK)
        if isinstance(chunk, str):
            chunk = chunk.encode()
        if not chunk and not carry:
            return
        data = carry + (chunk or b"\n")     # the last line needs no LF
        cut = data.rfind(b"\n") + 1
        data, carry = data[:cut], data[cut:]
        if not data:
            continue
        b = np.frombuffer(data, dtype=np.uint8)
        nl = np.flatnonzero(b == 10)
        heads = np.concatenate(([0], nl[:-1] + 1))
        tails = nl - (b[nl - 1] == 13)      # b[-1] is an LF, never a CR
        field = (b != 32) & (b != 10)
        field[tails] = False
        flips = np.flatnonzero(field != np.concatenate(([False], field[:-1])))
        starts, ends = flips[::2], flips[1::2]      # b[-1] ends the last field
        field_line = np.searchsorted(nl, starts)
        fields = np.bincount(field_line, minlength=nl.size)
        solid = np.append(np.flatnonzero(~_SPACE[b]), b.size - 1)
        first = solid[np.searchsorted(solid, heads)]
        data_line = (first < nl) & (b[first] != ord("#"))

        # a field is an id: ASCII digits worth at most MAX_ID
        lengths = ends - starts
        at = np.flatnonzero(field)
        power = np.repeat(ends - 1, lengths) - at
        digit = b[at].astype(np.int64) - 48
        firsts = np.cumsum(lengths) - lengths
        not_int = np.logical_or.reduceat((digit < 0) | (digit > 9), firsts)
        value = np.add.reduceat(digit * _POW10[np.minimum(power, 10)], firsts)
        # a nonzero digit worth 10**10 or more makes an id too big to sum
        top = np.maximum.reduceat(np.where(digit != 0, power, 0), firsts)
        too_big = (top >= 10) | (value > MAX_ID)

        bad_line = data_line & (fields != 2)
        bad_line[np.searchsorted(nl, np.flatnonzero(b >= 128))] = True
        bad_line[field_line[data_line[field_line] & (not_int | too_big)]] = True
        bad = int(np.argmax(np.append(bad_line, True)))
        pairs = value[data_line[field_line] & (field_line < bad)]
        yield _pack(pairs[0::2], pairs[1::2])
        line_no += bad
        if bad == nl.size:
            continue

        # the bad line's first error, in the order a line reader meets them
        head = int(heads[bad])
        try:
            data[head:nl[bad]].decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"non-ASCII byte: {exc.reason}",
                             line=line_no, offset=exc.start) from None
        i = int(np.searchsorted(field_line, bad))
        count = int(fields[bad])
        if count != 2:
            where = starts[i + 2] if count > 2 else tails[bad]
            raise ParseError(f"expected 'set_id element_id', got {count} field(s)",
                             line=line_no, offset=int(where) - head)
        j = i if not_int[i] or too_big[i] else i + 1
        tok = data[starts[j]:ends[j]].decode("ascii")
        if not_int[j]:
            raise ParseError(f"non-integer field {tok!r}",
                             line=line_no, offset=int(starts[j]) - head)
        raise IdRangeError(f"id {int(tok)} exceeds 32-bit range (line {line_no})")


def load_edges(stream: IO, format: str = "text") -> Iterator[Edge]:
    """Yield (set_id, element_id) pairs: `load_edge_blocks`, one edge at a time."""
    return iter(EdgeStream(load_edge_blocks(stream, format)))


def _integer_items(values) -> np.ndarray:
    """`values` as an object array of integers; the first item that is not
    an integer raises IdRangeError."""
    items = np.asarray(values, dtype=object)
    for x in items.flat:
        if not isinstance(x, numbers.Integral):
            raise IdRangeError(f"id {x!r} is not an integer")
    return items


def id_array(values) -> np.ndarray:
    """Ids as an integer array: numpy's own, or int64 when numpy reads
    integers as floats or objects (a mix of numpy and Python ints, or an
    int past int64). A non-integer id raises IdRangeError, never truncated,
    and so does an int past 64 bits. Callers range-check the values.
    """
    ids = np.asarray(values)
    if ids.dtype.kind in "iu":
        return ids
    try:
        return _integer_items(values).astype(np.int64)
    except OverflowError:
        raise IdRangeError("an id exceeds the 64-bit range") from None


def _pack(set_ids: np.ndarray, element_ids: np.ndarray) -> EdgeBlock:
    """The keys of two integer id arrays whose ids lie in [0, 2^32)."""
    keys = element_ids.astype(np.uint64)
    keys <<= KEY_SHIFT
    keys |= set_ids.astype(np.uint64)
    return keys


def split_keys(keys: EdgeBlock) -> tuple[np.ndarray, np.ndarray]:
    """A block's (set ids, element ids), as int64 arrays."""
    return (keys & KEY_LOW).view(np.int64), (keys >> KEY_SHIFT).view(np.int64)


class KeyRuns:
    """Keys in which each element keeps its `cap` smallest set ids (of a
    union, those lie within each part's), held as ascending runs merged like
    a binary counter: each is at most half the one before it, so each key is
    merged O(log N) times. A block is never written to. `size` sums the run
    sizes, an upper bound on the keys held; `merged()` makes the runs one."""

    __slots__ = ("cap", "runs")

    def __init__(self, cap: int):
        self.cap, self.runs = cap, []

    @property
    def size(self) -> int:
        return sum(run.size for run in self.runs)

    def add(self, keys: EdgeBlock) -> None:
        if keys.size:
            run = self._merge(keys if (keys[1:] >= keys[:-1]).all() else np.sort(keys))
            while self.runs and 2 * run.size > self.runs[-1].size:
                run = self._merge(self.runs.pop(), run)
            self.runs.append(run)

    def merged(self) -> EdgeBlock:
        if len(self.runs) > 1:
            self.runs = [self._merge(*self.runs)]
        return self.runs[0] if self.runs else _NO_KEYS

    def _merge(self, *runs: EdgeBlock) -> EdgeBlock:
        """Ascending runs as one, without repeats, each element's first `cap`."""
        keys = runs[0]
        if len(runs) > 1:
            keys = np.concatenate(runs)
            keys.sort(kind="stable")        # a merge of the ascending runs
        cap, keep = self.cap, np.empty(keys.size, dtype=bool)
        if cap > 1:     # at cap 1 the cap step drops repeats too
            keep[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            if not keep.all():
                keys = keys[keep]
                keep = keep[:keys.size]
        # keys[i + cap] ranks cap or more within its element iff keys[i]
        # belongs to the same element, that is, their high words agree
        keep[:cap] = True
        np.greater(keys[cap:] ^ keys[:-cap], KEY_LOW, out=keep[cap:])
        return keys if keep.all() else keys[keep]


def pack_keys(set_ids, element_ids, n: int = _ID_SPAN) -> EdgeBlock:
    """The keys of two equal-length 1-d id arrays (or lists), checked by
    `id_array`. The first pair with a set id outside [0, n), or else an
    element id outside [0, 2^32), raises IdRangeError naming that id."""
    u, v = id_array(set_ids), id_array(element_ids)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("a block is two 1-d arrays of equal length")
    if u.size and (u.min() < 0 or u.max() >= n or v.min() < 0 or v.max() > MAX_ID):
        bad_set = (u < 0) | (u >= n)
        i = int(np.argmax(bad_set | (v < 0) | (v > MAX_ID)))
        if bad_set[i]:
            raise IdRangeError(f"set id {u[i]} outside [0, {n})")
        if v[i] < 0:
            raise IdRangeError(f"element id {v[i]} is negative")
        raise IdRangeError(f"element id {v[i]} exceeds the 32-bit range")
    return _pack(u, v)


def _block_keys(block, n: int = _ID_SPAN) -> EdgeBlock:
    """A source's block as keys: a 1-d uint64 key array as it is, or a
    (set ids, element ids) pair checked and packed by `pack_keys`. A set id
    outside [0, n) raises IdRangeError naming the first."""
    if not (isinstance(block, np.ndarray) and block.dtype == np.uint64
            and block.ndim == 1):
        set_ids, element_ids = block
        return pack_keys(set_ids, element_ids, n)
    if n < _ID_SPAN and block.size:
        u = block & KEY_LOW
        if u.max() >= n:
            raise IdRangeError(f"set id {u[np.argmax(u >= n)]} outside [0, {n})")
    return block


def edge_blocks(edges: Iterable[Edge], n: int = _ID_SPAN) -> Iterator[EdgeBlock]:
    """The edges as key blocks: the source's own `blocks()` when it has one,
    each a key array or a (set ids, element ids) pair, otherwise its
    (set_id, element_id) tuples batched BLOCK_EDGES at a time. An id that is
    not an integer, a set id outside [0, n) or an element id outside
    [0, 2^32) raises IdRangeError (see `pack_keys`)."""
    blocks = getattr(edges, "blocks", None)
    if blocks is not None:
        for block in blocks():
            yield _block_keys(block, n)
        return
    it = iter(edges)
    while batch := list(itertools.islice(it, BLOCK_EDGES)):
        block = id_array(batch).reshape(-1, 2)
        yield pack_keys(block[:, 0], block[:, 1], n)


class EdgeStream:
    """One open of an edge source: its edges as key blocks.

    `blocks()` yields the blocks (see `load_edge_blocks`); iterating yields
    their flatten, the same edges as (set_id, element_id) tuples. A stream
    is read once, one way or the other.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[EdgeBlock]):
        self._blocks = blocks

    def __iter__(self) -> Iterator[Edge]:
        for keys in map(_block_keys, self._blocks):
            u, v = split_keys(keys)
            yield from zip(u.tolist(), v.tolist())

    def blocks(self) -> Iterator[EdgeBlock]:
        return iter(self._blocks)


def _edge_arrays(edges: Iterable[Edge]) -> tuple[np.ndarray, np.ndarray]:
    """The whole stream's (set ids, element ids), as int64 arrays."""
    blocks = list(edge_blocks(edges))
    return split_keys(np.concatenate(blocks) if blocks else _NO_KEYS)


def materialize_system(edges: Iterable[Edge], n: int) -> SetSystem:
    """The stream as a SetSystem over its distinct elements, in one pass.

    Positions are the element ids' ranks, ascending. A set id outside
    [0, n) raises IdRangeError.
    """
    u, v = _edge_arrays(edges)
    elements, positions = np.unique(v, return_inverse=True)
    return SetSystem.from_incidence(n, elements.size, positions, u)


def write_edges_text(stream: IO, edges: Iterable[Edge]) -> int:
    """Write 'set_id element_id' lines a block at a time; returns the count."""
    count = 0
    for keys in edge_blocks(edges):
        u, v = split_keys(keys)
        stream.write("".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())))
        count += int(keys.size)
    return count


def write_edges_binary(stream: IO, edges: Iterable[Edge]) -> int:
    """Write the keys, little-endian u64, so u32 (set id, element id)
    records, a block at a time; returns the count."""
    count = 0
    for keys in edge_blocks(edges):
        stream.write(keys.astype("<u8").tobytes())
        count += int(keys.size)
    return count


def write_metadata(path, n: int, m: int, edge_count: int) -> None:
    with open(path, "w", encoding="ascii") as fp:
        json.dump({"n": n, "m": m, "edge_count": edge_count}, fp)
        fp.write("\n")


def read_metadata(path) -> dict:
    """A sidecar's {"n", "m", "edge_count"}. Bad JSON, a value that is not an
    object, or a key missing or not a non-negative int raises ParseError."""
    with open(path, encoding="ascii") as fp:
        try:
            meta = json.load(fp)
        except ValueError as exc:       # not JSON, or not ASCII
            raise ParseError(f"metadata is not ASCII JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ParseError(f"metadata is a JSON {type(meta).__name__}, not an object")
    for key in ("n", "m", "edge_count"):
        if key not in meta:
            raise ParseError(f"metadata missing key {key!r}")
        if type(meta[key]) is not int or meta[key] < 0:     # bool is no int here
            raise ParseError(f"metadata key {key!r} must be a non-negative "
                             f"int, got {meta[key]!r}")
    return meta


# ---------------------------------------------------------------------------
# Generators


def random_edge_blocks(n: int, m: int, p_e: float, seed: int
                       ) -> Iterator[EdgeBlock]:
    """Element-major Bernoulli(p_e) edge stream over an n x m bipartite graph.

    Each (set, element) pair appears independently with probability p_e; an
    element drawing no set at all is attached to one uniform set inline, so
    the stream can be consumed without materializing the instance and still
    induces no isolated elements. Draws come in element order (a row of n
    uniforms, then a set for an empty row), so the stream depends only on
    the seed. Blocks hold BLOCK_EDGES edges, the last one fewer.
    """
    if not 0.0 < p_e <= 1.0:
        raise ValueError(f"p_e must lie in (0, 1], got {p_e}")
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
    rng = np.random.default_rng(seed)
    most = max(1, BLOCK_EDGES // n)     # rows per draw
    rows, elem, start = most, 0, 0
    parts, keys = [], _NO_KEYS
    while elem < m:
        count = min(rows, m - elem)
        state = rng.bit_generator.state if count > 1 else None
        hits = rng.random((count, n)) < p_e
        filled = hits.any(axis=1)
        first = int(filled.argmin())
        if filled[first]:
            rows = min(most, 2 * count)
        else:
            # The empty row's set draw must follow that row's uniforms, so
            # rewind and redraw only up to it. The next draw takes as many
            # rows as this one used, which keeps rewinds rare at any p_e.
            if first + 1 < count:
                rng.bit_generator.state = state
                rng.random((first + 1, n))
            count = rows = first + 1
            hits[first, rng.integers(n)] = True
        parts.append(hits[:count])
        elem += count
        # Decode about 16 blocks' worth of cells at once, so that sparse
        # rows still fill whole blocks; the remainder carries over.
        if (elem - start) * n >= 16 * BLOCK_EDGES or elem == m:
            e, s = np.nonzero(np.concatenate(parts))
            keys = np.concatenate((keys, _pack(s, e + start)))
            full = keys.size if elem == m else keys.size - keys.size % BLOCK_EDGES
            for i in range(0, full, BLOCK_EDGES):
                yield keys[i:i + BLOCK_EDGES]
            keys = keys[full:]
            parts, start = [], elem


def random_edge_stream(n: int, m: int, p_e: float, seed: int) -> Iterator[Edge]:
    """`random_edge_blocks`, one (set_id, element_id) edge at a time."""
    return iter(EdgeStream(random_edge_blocks(n, m, p_e, seed)))


def gen_random(n: int, m: int, p_e: float, seed: int) -> CoverageInstance:
    """Random instance with i.i.d. Bernoulli(p_e) membership, no isolated elements."""
    return CoverageInstance.from_edges(
        n, m, EdgeStream(random_edge_blocks(n, m, p_e, seed)))


def gen_planted_cover(n: int, m: int, k_star: int, seed: int):
    """Instance with a planted cover of size k_star.

    The element universe is split into k_star nonempty blocks, each owned in
    full by one planted set; every other set holds a strict subset of a single
    block. A cover of size k_star therefore exists by construction (whether it
    is the unique minimum is up to the draw; exact optima come from the
    brute-force oracles). Returns (instance, planted set ids).
    """
    if not 1 <= k_star <= n:
        raise ValueError(f"k_star must lie in [1, n={n}], got {k_star}")
    if m < k_star:
        raise ValueError(f"need m >= k_star so every planted block is nonempty "
                         f"(m={m}, k_star={k_star})")
    rng = np.random.default_rng(seed)
    planted = sorted(int(u) for u in rng.choice(n, size=k_star, replace=False))
    perm = [int(e) for e in rng.permutation(m)]
    if k_star > 1:
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, m), size=k_star - 1,
                                                 replace=False))
    else:
        cuts = []
    bounds = [0] + cuts + [m]
    blocks = [perm[bounds[i]:bounds[i + 1]] for i in range(k_star)]

    pairs = [(e, pid) for pid, block in zip(planted, blocks) for e in block]
    planted_set = set(planted)
    for u in range(n):
        if u in planted_set:
            continue
        block = blocks[int(rng.integers(k_star))]
        keep_p = float(rng.uniform(0.2, 0.8))
        sub = [e for e in block if rng.random() < keep_p]
        if len(sub) == len(block) and sub:
            sub.pop(int(rng.integers(len(sub))))
        pairs += [(e, u) for e in sub]
    positions, set_ids = zip(*pairs)
    return CoverageInstance.from_incidence(n, m, positions, set_ids), tuple(planted)


def gen_disjointness(a_ids: Iterable[int], b_ids: Iterable[int], n: int) -> CoverageInstance:
    """Two-element instance encoding whether two id-sets intersect.

    Element 0 belongs to the sets in a_ids, element 1 to those in b_ids. A
    single set covers both elements iff the id-sets intersect, so the best
    1-cover has value 2 exactly when they do. Streaming order (element 0's
    edges, then element 1's) comes from edges_by_element(). A set id outside
    [0, n) raises IdRangeError naming the first such id, a_ids before b_ids,
    each ascending.

    The masks are set here rather than by `SetSystem.from_incidence`: with
    two elements, each set's mask is bit 0 and/or bit 1. Ids are checked
    by the list itself: a negative min, or an id past its end, sends the
    build to a slow path that sorts the ids to name the bad one. The
    exhaustive disjointness sweep builds tens of millions of these
    instances, so per-id range checks, sorting and per-element bit shifts
    would be its main cost.
    """
    a, b = tuple(a_ids), tuple(b_ids)
    if not a or not b:
        raise ValueError("both id collections must be nonempty")
    masks = [0] * n
    try:
        if min(a) < 0 or min(b) < 0:    # a negative index would wrap
            raise IndexError
        for u in a:
            masks[u] = 1
        for u in b:
            masks[u] |= 2
    except (IndexError, TypeError):
        for ids in (a, b):
            bad = [u for u in sorted(set(ids)) if not 0 <= u < n]
            if bad:
                raise IdRangeError(f"set id {bad[0]} outside [0, {n})") from None
        raise
    return CoverageInstance(n, 2, tuple(masks))
