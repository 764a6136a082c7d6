"""Coverage instances: bipartite set systems, edge-stream I/O, generators.

An instance is a bipartite graph between n sets (ids 0..n-1) and m elements
(ids 0..m-1). Edges arrive as (set_id, element_id) pairs; loaders are
streaming and never materialize the whole input; bulk consumers read them
as blocks, pairs of int64 arrays (set ids, element ids) of at most
BLOCK_EDGES rows. Every element of a constructed instance belongs to at
least one set: isolated elements are either attached to a uniformly random
set (when an attachment seed is supplied) or rejected.
"""

from __future__ import annotations

import itertools
import json
import struct
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import IdRangeError, IsolatedElementError, ParseError

Edge = tuple[int, int]
EdgeBlock = tuple[np.ndarray, np.ndarray]

MAX_ID = 2**32 - 1
BLOCK_EDGES = 65_536

_BIN_EDGE = struct.Struct("<II")


class CoverageInstance:
    """Immutable set system with duplicate-free, sorted adjacency.

    Per-set element bitmasks make coverage of a family of sets a popcount
    over an OR of ints, which keeps the exact oracles and greedy solvers fast
    at the scales the brute-force guards allow.
    """

    __slots__ = ("n", "m", "sets", "elements", "masks", "edge_count")

    def __init__(self, n, m, sets, elements, masks, edge_count):
        self.n = n
        self.m = m
        self.sets = sets          # tuple of n tuples of element ids, sorted
        self.elements = elements  # tuple of m tuples of set ids, sorted
        self.masks = masks        # tuple of n ints, bit e set iff element e in set
        self.edge_count = edge_count

    @classmethod
    def from_edges(cls, n: int, m: int, edges: Iterable[Edge], *,
                   attach_isolated_seed: int | None = None) -> "CoverageInstance":
        """Build an instance from an edge stream.

        Duplicate edges collapse silently. Elements in [0, m) that never
        appear are attached to one uniformly chosen set each when
        `attach_isolated_seed` is given, otherwise construction fails.
        """
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
        by_set = [set() for _ in range(n)]
        seen = bytearray(m)
        for u, v in edges:
            if not 0 <= u < n:
                raise IdRangeError(f"set id {u} outside [0, {n})")
            if not 0 <= v < m:
                raise IdRangeError(f"element id {v} outside [0, {m})")
            by_set[u].add(v)
            seen[v] = 1
        isolated = [e for e in range(m) if not seen[e]]
        if isolated:
            if attach_isolated_seed is None:
                raise IsolatedElementError(
                    f"{len(isolated)} isolated element(s), first={isolated[0]}; "
                    "pass attach_isolated_seed to attach them")
            rng = np.random.default_rng(attach_isolated_seed)
            for e in isolated:
                by_set[int(rng.integers(n))].add(e)
        return cls._finish(n, m, by_set)

    @classmethod
    def _finish(cls, n, m, by_set):
        sets = tuple(tuple(sorted(s)) for s in by_set)
        rev = [[] for _ in range(m)]
        masks = []
        count = 0
        for u, members in enumerate(sets):
            mask = 0
            for v in members:
                rev[v].append(u)
                mask |= 1 << v
            masks.append(mask)
            count += len(members)
        elements = tuple(tuple(r) for r in rev)
        return cls(n, m, sets, elements, tuple(masks), count)

    def coverage(self, chosen: Iterable[int]) -> int:
        """Exact number of elements covered by the union of the chosen sets."""
        mask = 0
        for u in chosen:
            if not 0 <= u < self.n:
                raise IdRangeError(f"set id {u} outside [0, {self.n})")
            mask |= self.masks[u]
        return mask.bit_count()

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

    def metadata(self) -> dict:
        return {"n": self.n, "m": self.m, "edge_count": self.edge_count}

    def __eq__(self, other):
        if not isinstance(other, CoverageInstance):
            return NotImplemented
        return (self.n, self.m, self.sets) == (other.n, other.m, other.sets)

    def __hash__(self):
        return hash((self.n, self.m, self.sets))

    def __repr__(self):
        return f"CoverageInstance(n={self.n}, m={self.m}, edges={self.edge_count})"


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
        if not tok.isdigit():
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


def write_edges_text(stream: IO, edges: Iterable[Edge]) -> int:
    count = 0
    for u, v in edges:
        stream.write(f"{u} {v}\n")
        count += 1
    return count


def write_edges_binary(stream: IO, edges: Iterable[Edge]) -> int:
    count = 0
    for u, v in edges:
        if u > MAX_ID or v > MAX_ID:
            raise IdRangeError(f"edge ({u}, {v}) exceeds 32-bit id range")
        stream.write(_BIN_EDGE.pack(u, v))
        count += 1
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


def compact_ids(edges: Iterable[Edge]):
    """Remap sparse ids to dense 0-based ranges, preserving first-seen order.

    Returns (edge list, n, m, set_id map, element_id map); the maps go from
    original to compact ids.
    """
    set_map: dict[int, int] = {}
    elem_map: dict[int, int] = {}
    out = []
    for u, v in edges:
        cu = set_map.setdefault(u, len(set_map))
        cv = elem_map.setdefault(v, len(elem_map))
        out.append((cu, cv))
    return out, len(set_map), len(elem_map), set_map, elem_map


# ---------------------------------------------------------------------------
# Generators


def random_edge_stream(n: int, m: int, p_e: float, seed: int) -> Iterator[Edge]:
    """Element-major Bernoulli(p_e) edge stream over an n x m bipartite graph.

    Each (set, element) pair appears independently with probability p_e; an
    element drawing no set at all is attached to one uniform set inline, so
    the stream can be consumed without materializing the instance and still
    induces no isolated elements.
    """
    if not 0.0 < p_e <= 1.0:
        raise ValueError(f"p_e must lie in (0, 1], got {p_e}")
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
    rng = np.random.default_rng(seed)
    for elem in range(m):
        hits = np.flatnonzero(rng.random(n) < p_e)
        if hits.size == 0:
            yield (int(rng.integers(n)), elem)
        else:
            for u in hits:
                yield (int(u), elem)


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

    by_set = [set() for _ in range(n)]
    for pid, block in zip(planted, blocks):
        by_set[pid].update(block)
    planted_set = set(planted)
    for u in range(n):
        if u in planted_set:
            continue
        block = blocks[int(rng.integers(k_star))]
        keep_p = float(rng.uniform(0.2, 0.8))
        sub = [e for e in block if rng.random() < keep_p]
        if len(sub) == len(block) and sub:
            sub.pop(int(rng.integers(len(sub))))
        by_set[u].update(sub)
    inst = CoverageInstance._finish(n, m, by_set)
    return inst, tuple(planted)


def gen_disjointness(a_ids: Iterable[int], b_ids: Iterable[int], n: int) -> CoverageInstance:
    """Two-element instance encoding whether two id-sets intersect.

    Element 0 belongs to the sets in a_ids, element 1 to those in b_ids. A
    single set covers both elements iff the id-sets intersect, so the best
    1-cover has value 2 exactly when they do. Streaming order (element 0's
    edges, then element 1's) comes from edges_by_element().
    """
    a = sorted(set(a_ids))
    b = sorted(set(b_ids))
    if not a or not b:
        raise ValueError("both id collections must be nonempty")
    for u in (a[0], a[-1], b[0], b[-1]):
        if not 0 <= u < n:
            raise IdRangeError(f"set id {u} outside [0, {n})")
    edges = [(u, 0) for u in a] + [(u, 1) for u in b]
    return CoverageInstance.from_edges(n, 2, edges)
