"""Which covsketch calls a traced operation wraps, and the per-layer metrics.

Layers are the package modules. Each wrapper replaces the name at the site
that calls it (the CLI imports most names into its own namespace, the
solvers call each other through module globals, the builder through its
class), so a traced run makes exactly the calls an untraced run makes.
One call changes shape: `load_edges` parses its whole stream into a list
inside its span, so that parsing and sketch building time apart.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
import tracemalloc

from spans import totals_by_name

# name, unit, better; the order is the order of the printed table
PER_LAYER = [
    ("instance.parse_binary_s", "s", "lower"),
    ("instance.parse_binary_edges_per_s", "1/s", "higher"),
    ("instance.from_edges_s", "s", "lower"),
    ("instance.instances_built", "count", "lower"),
    ("hashing.hash_s", "s", "lower"),
    ("hashing.hashes", "count", "lower"),
    ("sketch.build_s", "s", "lower"),
    ("sketch.build_edges_per_s", "1/s", "higher"),
    ("sketch.admit_s", "s", "lower"),
    ("sketch.finalize_s", "s", "lower"),
    ("sketch.builds", "count", "lower"),
    ("sketch.seen_edges", "count", "lower"),
    ("sketch.retained_edges", "count", "lower"),
    ("sketch.retained_elements", "count", "lower"),
    ("sketch.threshold", "ratio", "higher"),
    ("sketch.budget_bound", "count", "lower"),
    ("sketch.retained_fraction", "ratio", "lower"),
    ("sketch.build_peak_mb", "MB", "lower"),
    ("solvers.adapt_s", "s", "lower"),
    ("solvers.greedy_s", "s", "lower"),
    ("solvers.brute_force_s", "s", "lower"),
    ("solvers.brute_force_combos", "count", "lower"),
    ("solvers.exact_greedy_s", "s", "lower"),
    ("distinct.bank_s", "s", "lower"),
    ("distinct.enum_s", "s", "lower"),
    ("distinct.candidates", "count", "lower"),
    ("distinct.space_units", "count", "lower"),
    ("distinct.l0_ratio", "ratio", "higher"),
    ("hardness.validity_s", "s", "lower"),
    ("hardness.validity_trials", "count", "lower"),
    ("hardness.demo_s", "s", "lower"),
    ("hardness.queries", "count", "lower"),
    ("harness.recount_s", "s", "lower"),
    ("harness.materialize_s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("accuracy.coverage_ratio", "ratio", "higher"),
    ("accuracy.estimate_rel_err", "ratio", "lower"),
]
SWEEP_BUDGETS = (12500, 25000, 50000)
for _budget in SWEEP_BUDGETS:
    PER_LAYER += [(f"accuracy.b{_budget}.coverage_ratio", "ratio", "higher"),
                  (f"accuracy.b{_budget}.estimate_rel_err", "ratio", "lower")]


def targets(tracer):
    """(owner, attribute, make_wrapper) for every call a traced run times."""
    from covsketch import cli, harness, instance, sketch, solvers

    def span(name, note=None):
        return lambda fn: tracer.wrap(fn, name, note)

    def count(key, amount):
        def note(t, args, kwargs, result):
            t.count(key, amount(args, kwargs, result))
        return note

    def parse_fully(load_edges):
        @functools.wraps(load_edges)
        def load(stream, format="text"):
            index = tracer.begin(f"instance.parse_{format}")
            try:
                edges = list(load_edges(stream, format))
            finally:
                tracer.end(index)
            tracer.count(f"instance.parse_{format}_edges", len(edges))
            return iter(edges)
        return load

    def counted(key):
        def make(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                tracer.count(key)
                return fn(*args, **kwargs)
            return call
        return make

    def note_extend(t, args, kwargs, result):
        t.count("sketch.extend_edges", args[0].seen_edge_count)

    def note_finalize(t, args, kwargs, sk):
        builder = args[0]
        t.count("sketch.builds")
        t.count("sketch.seen_edges", builder.seen_edge_count)
        t.count("sketch.retained_edges", sk.edge_total)
        t.count("sketch.retained_elements", sk.element_count)
        t.count("sketch.budget_bound", sk.threshold < 1.0)
        t.note("sketch.threshold", sk.threshold)
        if t.op_counts(t.op)["sketch.builds"] == 1:
            t.note("sketch.first", sk)

    def greedy_name(args, kwargs):
        if isinstance(args[0], sketch.Sketch):
            return "solvers.greedy_kcover"
        return "solvers.exact_greedy_kcover"

    def classmethod_span(name):
        return lambda cm: classmethod(tracer.wrap(cm.__func__, name))

    combos = count("solvers.brute_force_combos",
                   lambda args, kwargs, result: math.comb(args[0].n, args[1]))
    builder = sketch.StreamingSketchBuilder
    wrapped = [
        (cli, "main", span("cli.main")),
        (harness.EdgeSourceBase, "__call__", counted("passes")),
        (instance.CoverageInstance, "from_edges",
         classmethod_span("instance.from_edges")),
        (builder, "extend", span("sketch.extend", note_extend)),
        (builder, "finalize", span("sketch.finalize", note_finalize)),
        (solvers, "build_sketch_from_stream", span("sketch.build_sketch_from_stream")),
        (solvers, "estimate_coverage", span("sketch.estimate_coverage")),
        (solvers, "as_set_system", span("solvers.as_set_system")),
        (solvers, "greedy_kcover", span(greedy_name)),
        (solvers, "brute_force_kcover", span("solvers.brute_force_kcover", combos)),
        (cli, "kcover_via_sketch", span("solvers.kcover_via_sketch")),
        (cli, "greedy_kcover", span(greedy_name)),
        (cli, "brute_force_kcover", span("solvers.brute_force_kcover", combos)),
        (cli, "recount_coverage", span("harness.recount_coverage")),
        (cli, "materialize_system", span("harness.materialize_system")),
        (cli, "build_per_set_sketches", span("distinct.build_per_set_sketches")),
        (cli, "kcover_via_l0", span("distinct.kcover_via_l0", count(
            "distinct.candidates", lambda a, k, r: r.meta["candidates"]))),
        (cli, "verify_oracle_validity", span("hardness.verify_oracle_validity", count(
            "hardness.validity_trials", lambda a, k, r: r.trials))),
        (cli, "query_counter_demo", span("hardness.query_counter_demo", count(
            "hardness.queries", lambda a, k, r: r.queries_used))),
    ]
    if tracer.record:
        # Parsing into a list is what separates parse from build time, but
        # it holds the whole stream, so a count-only run streams instead.
        wrapped.append((harness, "load_edges", parse_fully))
    return wrapped


def op_metrics(tracer, op: int, base: int, summary: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced operation, and its span table."""
    table = totals_by_name(tracer.spans[base:], base, op)
    counts = tracer.op_counts(op)
    notes = tracer.op_notes(op)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def rate(edges, seconds):
        return edges / seconds if seconds > 0 else 0.0

    out = {
        "instance.parse_binary_s": own("instance.parse_binary"),
        "instance.parse_binary_edges_per_s": rate(
            counts.get("instance.parse_binary_edges", 0), own("instance.parse_binary")),
        "instance.from_edges_s": own("instance.from_edges"),
        "instance.instances_built": calls("instance.from_edges"),
        "sketch.build_s": own("sketch.extend"),
        "sketch.build_edges_per_s": rate(counts.get("sketch.extend_edges", 0),
                                         own("sketch.extend")),
        "sketch.finalize_s": own("sketch.finalize"),
        "sketch.builds": counts.get("sketch.builds", 0),
        "sketch.seen_edges": counts.get("sketch.seen_edges", 0),
        "sketch.retained_edges": counts.get("sketch.retained_edges", 0),
        "sketch.retained_elements": counts.get("sketch.retained_elements", 0),
        "sketch.threshold": min(notes.get("sketch.threshold", [0.0])),
        "sketch.budget_bound": counts.get("sketch.budget_bound", 0),
        "sketch.retained_fraction": (counts.get("sketch.retained_edges", 0)
                                     / counts["sketch.seen_edges"]
                                     if counts.get("sketch.seen_edges") else 0.0),
        "solvers.adapt_s": own("solvers.as_set_system"),
        "solvers.greedy_s": own("solvers.greedy_kcover"),
        "solvers.brute_force_s": own("solvers.brute_force_kcover"),
        "solvers.brute_force_combos": counts.get("solvers.brute_force_combos", 0),
        "solvers.exact_greedy_s": own("solvers.exact_greedy_kcover"),
        "distinct.bank_s": own("distinct.build_per_set_sketches"),
        "distinct.enum_s": own("distinct.kcover_via_l0"),
        "distinct.candidates": counts.get("distinct.candidates", 0),
        "distinct.space_units": 0,
        "distinct.l0_ratio": 0.0,
        "hardness.validity_s": own("hardness.verify_oracle_validity"),
        "hardness.validity_trials": counts.get("hardness.validity_trials", 0),
        "hardness.demo_s": own("hardness.query_counter_demo"),
        "hardness.queries": counts.get("hardness.queries", 0),
        "harness.recount_s": own("harness.recount_coverage"),
        "harness.materialize_s": own("harness.materialize_system"),
        "cli.overhead_s": own("cli.main"),
    }
    rows = summary.get("eval")
    if rows:
        out["distinct.space_units"] = int(rows["l0_enum"]["space_units"])
        out["distinct.l0_ratio"] = (int(rows["l0_enum"]["coverage"])
                                    / int(rows["brute_force"]["coverage"]))
    return out, table


def hash_probe(m: int, seed: int) -> dict:
    """Hash each of the m element ids once with the package's keyed hash."""
    from covsketch import ElementHasher
    hasher = ElementHasher(seed)
    start = time.perf_counter()
    for element in range(m):
        hasher.value(element)
    return {"hashing.hash_s": time.perf_counter() - start, "hashing.hashes": m}


def peak_mb(fn) -> float:
    """Peak Python allocation of fn() in MB, from tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def median_metrics(per_op: list[dict]) -> dict:
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
