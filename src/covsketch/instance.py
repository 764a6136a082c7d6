"""Coverage instances: bipartite set systems, edge-stream I/O, generators.

An instance is a bipartite graph between n sets (ids 0..n-1) and m elements
(ids 0..m-1). Edges arrive as (set_id, element_id) pairs; loaders are
streaming and never materialize the whole input; bulk consumers read them
as blocks, pairs of int64 arrays (set ids, element ids) of at most
BLOCK_EDGES rows. Every element of a constructed instance belongs to at
least one set: isolated elements are either attached to a uniformly random
set (when an attachment seed is supplied) or rejected.

Incidence has one representation, `SetSystem` (per-set bitmasks): instances
store only their masks, and sketches, views and materialized streams adapt
to it. `SetSystem.from_incidence` is the only code that sets mask bits,
apart from `gen_disjointness`, whose two-element masks are set directly.
"""

from __future__ import annotations

import bisect
import itertools
import json
import struct
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import IdRangeError, IsolatedElementError, ParseError

Edge = tuple[int, int]
EdgeBlock = tuple[np.ndarray, np.ndarray]

MAX_ID = 2**32 - 1
BLOCK_EDGES = 65_536

_BIN_EDGE = struct.Struct("<II")
_NO_IDS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class SetSystem:
    """n sets as bitmasks over a universe of `universe` bit positions.

    Bit `pos` of masks[u] is set iff set u holds the element at position pos
    (an element id, or a retained or distinct element's index).
    """

    n: int
    universe: int
    masks: tuple[int, ...]

    @classmethod
    def from_incidence(cls, n: int, universe: int,
                       incidence: Iterable[tuple[int, Iterable[int]]]
                       ) -> "SetSystem":
        """Masks from (position, set ids) pairs; repeats OR together.

        Ids are Python ints (a numpy scalar would overflow the shift); one
        outside [0, universe) or [0, n) raises IdRangeError.
        """
        masks = [0] * n
        for pos, set_ids in incidence:
            if not 0 <= pos < universe:
                raise IdRangeError(f"element id {pos} outside [0, {universe})")
            bit = 1 << pos
            for u in set_ids:
                if not 0 <= u < n:
                    raise IdRangeError(f"set id {u} outside [0, {n})")
                masks[u] |= bit
        return cls(n, universe, tuple(masks))

    def coverage(self, chosen: Iterable[int]) -> int:
        """Exact number of positions covered by the union of the chosen sets."""
        mask = 0
        for u in chosen:
            if not 0 <= u < self.n:
                raise IdRangeError(f"set id {u} outside [0, {self.n})")
            mask |= self.masks[u]
        return mask.bit_count()


class CoverageInstance:
    """Immutable set system over elements 0..m-1, stored as n bitmasks.

    Bit e of masks[u] is set iff element e belongs to set u. `system`, the
    masks as a SetSystem, is built once with the instance. `edge_count` and
    the sorted adjacency views `sets` and `elements` are computed from the
    masks on first access and cached.
    """

    __slots__ = ("n", "m", "masks", "system", "_edge_count", "_sets",
                 "_elements")

    def __init__(self, n: int, m: int, masks: tuple[int, ...]):
        self.n = n
        self.m = m
        self.masks = masks
        # The instance as a SetSystem: positions are element ids.
        self.system = SetSystem(n, m, masks)
        self._edge_count = None
        self._sets = None
        self._elements = None

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
        inst = cls(n, m, SetSystem.from_incidence(
            n, m, ((v, (u,)) for u, v in edges)).masks)
        if inst.coverage(range(n)) == m:
            return inst
        if attach_isolated_seed is None:
            isolated = [e for e, owners in enumerate(inst.elements) if not owners]
            raise IsolatedElementError(
                f"{len(isolated)} isolated element(s), first={isolated[0]}; "
                "pass attach_isolated_seed to attach them")
        rng = np.random.default_rng(attach_isolated_seed)
        owners = [sets or (int(rng.integers(n)),) for sets in inst.elements]
        return cls(n, m, SetSystem.from_incidence(n, m, enumerate(owners)).masks)

    @property
    def edge_count(self) -> int:
        """Number of (set, element) memberships: the masks' total popcount."""
        if self._edge_count is None:
            self._edge_count = sum(map(int.bit_count, self.masks))
        return self._edge_count

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

    def coverage(self, chosen: Iterable[int]) -> int:
        """Exact number of elements covered by the union of the chosen sets."""
        return self.system.coverage(chosen)

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

    def __eq__(self, other):
        if not isinstance(other, CoverageInstance):
            return NotImplemented
        return (self.n, self.m, self.masks) == (other.n, other.m, other.masks)

    def __hash__(self):
        return hash((self.n, self.m, self.masks))

    def __repr__(self):
        return f"CoverageInstance(n={self.n}, m={self.m}, edges={self.edge_count})"


def _rows(bits: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Column indices of the nonzero entries of each row, ascending."""
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in bits)


# ---------------------------------------------------------------------------
# Edge-stream I/O


def _parse_text_line(line: str, line_no: int) -> Edge | None:
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


def load_edge_blocks(stream: IO, format: str = "text") -> Iterator[EdgeBlock]:
    """Yield (set ids, element ids) int64 array blocks from an edge stream.

    Text: one 'set_id element_id' pair per line, '#' comment lines and blank
    lines skipped. Binary: consecutive little-endian u32 pairs. Malformed
    input raises ParseError carrying the byte position, after every block
    before it has been yielded.
    """
    if format == "text":
        batch: list[Edge] = []
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
                if len(batch) == BLOCK_EDGES:
                    yield _block_from_pairs(batch)
                    batch = []
        if batch:
            yield _block_from_pairs(batch)
    elif format == "binary":
        size = BLOCK_EDGES * _BIN_EDGE.size
        offset = 0
        pending = b""
        while True:
            chunk = stream.read(size - len(pending))
            if not chunk:
                break
            data = pending + chunk
            usable = len(data) - (len(data) % _BIN_EDGE.size)
            if usable:
                pairs = np.frombuffer(data, dtype="<u4", count=usable // 4)
                pairs = pairs.astype(np.int64).reshape(-1, 2)
                yield pairs[:, 0], pairs[:, 1]
            pending = data[usable:]
            offset += usable
        if pending:
            raise ParseError(f"truncated record: {len(pending)} trailing byte(s)",
                             offset=offset)
    else:
        raise ValueError(f"unknown edge format {format!r}")


def load_edges(stream: IO, format: str = "text") -> Iterator[Edge]:
    """Yield (set_id, element_id) pairs: `load_edge_blocks`, one edge at a time."""
    for u, v in load_edge_blocks(stream, format):
        yield from zip(u.tolist(), v.tolist())


def _block_from_pairs(pairs: list[Edge]) -> EdgeBlock:
    try:
        block = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise IdRangeError("an id in the edge batch exceeds the 64-bit range") from None
    return block[:, 0], block[:, 1]


def edge_blocks(edges: Iterable[Edge]) -> Iterator[EdgeBlock]:
    """The edges as blocks: the source's own `blocks()` when it has one,
    otherwise its (set_id, element_id) tuples batched BLOCK_EDGES at a time."""
    blocks = getattr(edges, "blocks", None)
    if blocks is not None:
        yield from blocks()
        return
    it = iter(edges)
    while batch := list(itertools.islice(it, BLOCK_EDGES)):
        yield _block_from_pairs(batch)


class EdgeStream:
    """One open of an edge source.

    Iterating yields (set_id, element_id) tuples; `blocks()` yields the same
    edges as int64 array blocks (see `load_edge_blocks`). A stream is read
    once, one way or the other. Either view can be given; the other is
    derived from it.
    """

    __slots__ = ("_edges", "_blocks")

    def __init__(self, edges: Iterable[Edge] | None = None,
                 blocks: Iterable[EdgeBlock] | None = None):
        self._edges = edges
        self._blocks = blocks

    def __iter__(self) -> Iterator[Edge]:
        if self._edges is not None:
            return iter(self._edges)
        return (edge for u, v in self._blocks
                for edge in zip(u.tolist(), v.tolist()))

    def blocks(self) -> Iterator[EdgeBlock]:
        if self._blocks is not None:
            return iter(self._blocks)
        return edge_blocks(self._edges)


def materialize_system(edges: Iterable[Edge], n: int) -> SetSystem:
    """The stream as a SetSystem over its distinct elements, in one pass.

    Positions are the element ids' ranks, ascending. A set id outside
    [0, n) raises IdRangeError.
    """
    blocks = list(edge_blocks(edges))
    u = np.concatenate([b[0] for b in blocks]) if blocks else _NO_IDS
    v = np.concatenate([b[1] for b in blocks]) if blocks else _NO_IDS
    elements, positions = np.unique(v, return_inverse=True)
    return SetSystem.from_incidence(
        n, elements.size,
        ((pos, (s,)) for s, pos in zip(u.tolist(), positions.tolist())))


def write_edges_text(stream: IO, edges: Iterable[Edge]) -> int:
    """Write 'set_id element_id' lines a block at a time; returns the count."""
    count = 0
    for u, v in edge_blocks(edges):
        stream.write("".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())))
        count += int(u.size)
    return count


def write_edges_binary(stream: IO, edges: Iterable[Edge]) -> int:
    """Write little-endian u32 pairs a block at a time; returns the count."""
    count = 0
    for u, v in edge_blocks(edges):
        bad = (u < 0) | (u > MAX_ID) | (v < 0) | (v > MAX_ID)
        if bad.any():
            i = int(np.argmax(bad))
            raise IdRangeError(f"edge ({u[i]}, {v[i]}) outside the 32-bit id range")
        stream.write(np.column_stack((u, v)).astype("<u4").tobytes())
        count += int(u.size)
    return count


def write_metadata(path, n: int, m: int, edge_count: int) -> None:
    with open(path, "w", encoding="ascii") as fp:
        json.dump({"n": n, "m": m, "edge_count": edge_count}, fp)
        fp.write("\n")


def read_metadata(path) -> dict:
    with open(path, encoding="ascii") as fp:
        meta = json.load(fp)
    for key in ("n", "m", "edge_count"):
        if key not in meta:
            raise ParseError(f"metadata missing key {key!r}")
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
    parts, sets, elems = [], _NO_IDS, _NO_IDS
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
            sets = np.concatenate((sets, s))
            elems = np.concatenate((elems, e + start))
            full = sets.size if elem == m else sets.size - sets.size % BLOCK_EDGES
            for i in range(0, full, BLOCK_EDGES):
                yield sets[i:i + BLOCK_EDGES], elems[i:i + BLOCK_EDGES]
            sets, elems = sets[full:], elems[full:]
            parts, start = [], elem


def random_edge_stream(n: int, m: int, p_e: float, seed: int) -> Iterator[Edge]:
    """`random_edge_blocks`, one (set_id, element_id) edge at a time."""
    for u, v in random_edge_blocks(n, m, p_e, seed):
        yield from zip(u.tolist(), v.tolist())


def gen_random(n: int, m: int, p_e: float, seed: int) -> CoverageInstance:
    """Random instance with i.i.d. Bernoulli(p_e) membership, no isolated elements."""
    return CoverageInstance.from_edges(n, m, random_edge_stream(n, m, p_e, seed))


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

    incidence = [(e, (pid,)) for pid, block in zip(planted, blocks)
                 for e in block]
    planted_set = set(planted)
    for u in range(n):
        if u in planted_set:
            continue
        block = blocks[int(rng.integers(k_star))]
        keep_p = float(rng.uniform(0.2, 0.8))
        sub = [e for e in block if rng.random() < keep_p]
        if len(sub) == len(block) and sub:
            sub.pop(int(rng.integers(len(sub))))
        incidence += [(e, (u,)) for e in sub]
    inst = CoverageInstance(n, m, SetSystem.from_incidence(n, m, incidence).masks)
    return inst, tuple(planted)


def gen_disjointness(a_ids: Iterable[int], b_ids: Iterable[int], n: int) -> CoverageInstance:
    """Two-element instance encoding whether two id-sets intersect.

    Element 0 belongs to the sets in a_ids, element 1 to those in b_ids. A
    single set covers both elements iff the id-sets intersect, so the best
    1-cover has value 2 exactly when they do. Streaming order (element 0's
    edges, then element 1's) comes from edges_by_element(). A set id outside
    [0, n) raises IdRangeError naming the first such id, a_ids before b_ids,
    each ascending.

    The masks are set here rather than by `SetSystem.from_incidence`: with
    two elements, each set's mask is bit 0 and/or bit 1, and a sorted id
    list is in range iff its two ends are. The exhaustive disjointness
    sweep builds tens of millions of these instances, so per-id range
    checks and per-element bit shifts are its main cost.
    """
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
