"""Experiment plumbing shared by the CLI: replayable edge sources with pass
accounting, generator specs, oracle recounts, timing, and report shaping.

Every run funnels randomness through one master seed; consumers get stable
sub-seeds by fixed counters (generator=1, builder=2, distinct-count bank=3,
gold placement=4, validity sampling=5, demo=6, isolated-element attachment=7,
repeat i adds 100+i). True values in reports carry the oracle that produced
them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, ParseError, StateError
from .hashing import derive_seed
# load_edges is unused here; perfbench/layers.py patches it in --trace 1 runs
from .instance import (KEY_LOW, Edge, EdgeStream, KeyRuns, edge_blocks,
                       gen_disjointness, gen_planted_cover, load_edge_blocks,
                       load_edges, random_edge_blocks, read_metadata,
                       split_keys)
from .solvers import Solution

SEED_GENERATOR = 1
SEED_BUILDER = 2
SEED_L0 = 3
SEED_GOLD = 4
SEED_VALIDITY = 5
SEED_DEMO = 6
SEED_ATTACH = 7
SEED_REPEAT_BASE = 100

EVAL_CSV_HEADER = "instance,seed,algo,k,coverage,opt,ratio,space_units,millis"


# ---------------------------------------------------------------------------
# Edge sources


class EdgeSourceBase:
    """Callable yielding a fresh EdgeStream per invocation, counting opens."""

    label: str
    replayable: bool

    def __init__(self):
        self.opens = 0

    def __call__(self) -> EdgeStream:
        self.opens += 1
        return self._open()

    def _open(self) -> EdgeStream:
        raise NotImplementedError

    def shape(self) -> tuple[int | None, int | None]:
        """Known (n, m), with None for unknown dimensions."""
        return (None, None)


class FileEdgeSource(EdgeSourceBase):
    """Re-openable edge file; reads n/m from a '<path>.meta.json' sidecar."""

    replayable = True

    def __init__(self, path: str, fmt: str):
        super().__init__()
        self.path = path
        self.fmt = fmt
        self.label = path
        try:
            meta = read_metadata(path + ".meta.json")
            self._shape = (meta["n"], meta["m"])
        except FileNotFoundError:
            self._shape = (None, None)

    def _open(self):
        return EdgeStream(self._read())

    def _read(self):
        # text too is read as bytes, so the parser's ASCII check sees them
        with open(self.path, "rb") as fp:
            yield from load_edge_blocks(fp, self.fmt)

    def shape(self):
        return self._shape


class GenEdgeSource(EdgeSourceBase):
    """Synthetic source: regenerates the same stream per open from one seed."""

    replayable = True

    def __init__(self, spec: dict, seed: int):
        super().__init__()
        self.spec = spec
        self.seed = seed
        self.label = spec["label"]
        if spec["kind"] == "planted":
            inst, planted = gen_planted_cover(spec["n"], spec["m"],
                                              spec["k_star"], seed)
            self._inst = inst
            self.planted = planted
        elif spec["kind"] == "disjoint":
            self._inst = gen_disjointness(spec["a"], spec["b"], spec["n"])
        else:
            self._inst = None

    def _open(self):
        if self._inst is not None:
            return EdgeStream(edge_blocks(self._inst.edges_by_element()))
        spec = self.spec
        return EdgeStream(random_edge_blocks(spec["n"], spec["m"], spec["p"],
                                             self.seed))

    def shape(self):
        return (self.spec["n"], self.spec["m"])


class OnceEdgeSource(EdgeSourceBase):
    """Non-replayable wrapper (stdin); a second open is a state error.

    Takes an EdgeStream, or any iterable of edges, which it reads as
    blocks; its one open returns that EdgeStream.
    """

    replayable = False

    def __init__(self, edges: Iterable[Edge], label: str):
        super().__init__()
        if not isinstance(edges, EdgeStream):
            edges = EdgeStream(edge_blocks(edges))
        self._stream = edges
        self.label = label
        self._used = False

    def _open(self):
        if self._used:
            raise StateError(f"{self.label} cannot be replayed")
        self._used = True
        return self._stream


def parse_gen_spec(text: str) -> dict:
    """Parse 'kind:key=val,...' generator specs.

    Kinds: random (n, m, p), planted (n, m, kstar), disjoint (n, a, b with
    '|'-separated 0-based set ids, e.g. a=0|2|3).
    """
    kind, _, body = text.partition(":")
    kind = kind.strip()
    fields = {}
    if body:
        for part in body.split(","):
            key, eq, val = part.partition("=")
            if not eq:
                raise ConfigError(f"bad generator spec field {part!r}")
            fields[key.strip()] = val.strip()
    try:
        if kind == "random":
            spec = {"kind": kind, "n": int(fields["n"]), "m": int(fields["m"]),
                    "p": float(fields["p"])}
        elif kind == "planted":
            spec = {"kind": kind, "n": int(fields["n"]), "m": int(fields["m"]),
                    "k_star": int(fields["kstar"])}
        elif kind == "disjoint":
            spec = {"kind": kind, "n": int(fields["n"]),
                    "a": tuple(int(x) for x in fields["a"].split("|")),
                    "b": tuple(int(x) for x in fields["b"].split("|")),
                    "m": 2}
        else:
            raise ConfigError(f"unknown generator kind {kind!r} "
                              "(expected random, planted, or disjoint)")
    except KeyError as exc:
        raise ConfigError(f"generator spec {text!r} missing field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"generator spec {text!r}: {exc}") from None
    spec["label"] = text
    return spec


# ---------------------------------------------------------------------------
# Stream oracles


def scan_shape(edges: Iterable[Edge]) -> tuple[int, int, int]:
    """Infer (n, m, edge_count) as (max id + 1) over one full pass."""
    max_u = -1
    max_v = -1
    count = 0
    for keys in edge_blocks(edges):
        if not keys.size:
            continue
        u, v = split_keys(keys)
        max_u = max(max_u, int(u.max()))
        max_v = max(max_v, int(v.max()))
        count += int(keys.size)
    return (max_u + 1, max_v + 1, count)


def recount_coverage(edges: Iterable[Edge], chosen: Iterable[int]
                     ) -> tuple[int, int]:
    """(covered, universe) distinct-element counts from one stream pass.

    A boolean table over the span of the chosen ids, looked up by each key's
    set id, finds the covering arrivals. Each count is a `KeyRuns(1)` of
    keys, one per distinct element, over every key or the covering ones: at
    most about twice the distinct elements, plus one block.
    """
    picks = np.array(sorted(set(chosen)), dtype=np.int64)
    covered, universe = KeyRuns(1), KeyRuns(1)
    if picks.size:
        below = int(picks[0]) - 1       # table[0] and table[-1] are the misses
        table = np.zeros(int(picks[-1]) - below + 2, dtype=bool)
        table[picks - below] = True
    for keys in edge_blocks(edges):
        universe.add(keys)
        if picks.size:
            hit = table.take((keys & KEY_LOW).view(np.int64) - below, mode="clip")
            covered.add(keys[hit])
    return (covered.merged().size, universe.merged().size)


class PhaseTimer:
    """Accumulates wall-clock milliseconds per named phase."""

    def __init__(self):
        self.millis: dict[str, float] = {}

    def time(self, name: str):
        timer = self

        class _Span:
            def __enter__(self):
                self.start = time.perf_counter()
                return self

            def __exit__(self, *exc):
                elapsed = (time.perf_counter() - self.start) * 1000.0
                timer.millis[name] = timer.millis.get(name, 0.0) + elapsed
                return False

        return _Span()


# ---------------------------------------------------------------------------
# Reports


def solution_json(sol: Solution, target_size: int, seed: int) -> dict:
    """The fixed solution exchange shape."""
    if sol.estimate is not None:
        estimate = sol.estimate.scaled
    elif "estimate" in sol.meta:
        estimate = sol.meta["estimate"]
    else:
        estimate = None
    return {
        "chosen": list(sol.chosen),
        "covered": sol.covered_on_target,
        "target_size": target_size,
        "estimate": estimate,
        "params": _json_safe(sol.meta),
        "seed": seed,
    }


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


@dataclass
class RunReport:
    """One command's outcome: solutions plus oracle-tagged true values."""

    command: str
    label: str
    seed: int
    params: dict = field(default_factory=dict)
    solutions: list = field(default_factory=list)
    true_values: dict = field(default_factory=dict)
    sketch_stats: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    passes: int = 0
    notes: list = field(default_factory=list)

    def set_true(self, name: str, value, oracle: str):
        self.true_values[name] = {"value": value, "oracle": oracle}

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "instance": self.label,
            "seed": self.seed,
            "params": _json_safe(self.params),
            "solutions": _json_safe(self.solutions),
            "true_values": _json_safe(self.true_values),
            "sketch_stats": _json_safe(self.sketch_stats),
            "timings_ms": {k: round(v, 3) for k, v in self.timings.items()},
            "passes": self.passes,
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        lines = []

        def put(key, value):
            lines.append(f"{key:<22} {value}")

        put("command", self.command)
        put("instance", self.label)
        put("seed", self.seed)
        for key, value in self.params.items():
            put(key, value)
        for i, sol in enumerate(self.solutions):
            prefix = f"solution[{i}]." if len(self.solutions) > 1 else ""
            put(prefix + "chosen", sol["chosen"])
            put(prefix + "size", len(sol["chosen"]))
            if sol.get("covered") is not None:
                put(prefix + "covered", sol["covered"])
            if sol.get("estimate") is not None:
                put(prefix + "estimate", f"{sol['estimate']:.4f}")
        for name, tagged in self.true_values.items():
            put(name, f"{tagged['value']}  (oracle: {tagged['oracle']})")
        for key, value in self.sketch_stats.items():
            put(key, value)
        if self.timings:
            joined = " ".join(f"{k}={v:.1f}" for k, v in self.timings.items())
            put("millis", joined)
        put("passes", self.passes)
        for note in self.notes:
            put("note", note)
        return "\n".join(lines)


def emit_report(report: RunReport, as_json: bool, out_stream) -> None:
    if as_json:
        json.dump(report.to_json(), out_stream, indent=2, sort_keys=True)
        out_stream.write("\n")
    else:
        out_stream.write(report.render_text())
        out_stream.write("\n")
