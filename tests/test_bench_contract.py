"""What the benchmark under perfbench/ relies on in the package.

perfbench/workloads.py builds the exact_oracles reference by iterating a
generator source's stream as (set_id, element_id) tuples, and
perfbench/layers.py patches `covsketch.harness.load_edges` in traced
(--trace 1) runs and wraps, among others, `cli.materialize_system(edges, n)`,
`CoverageInstance.from_edges(n, m, edges, *, attach_isolated_seed)`,
`solvers.as_set_system(target)`, `cli.build_per_set_sketches(edges, n,
capacity, seed, reps=...)`, `cli.greedy_kcover(target, k)`,
`cli.verify_oracle_validity(inst, trials, seed)`, of whose report it reads
`trials`, and `cli.query_counter_demo(inst, strategy, budget, seed)`, of
whose report it reads `queries_used`. Its
disjointness sweep calls `instance.gen_disjointness` and
`solvers.brute_force_kcover` through their modules. Of each sketch it
builds, `layers.note_finalize` reads `edge_total`, `element_count`,
`threshold` and `space_units`, and `workloads.sketch_checks` reads the
decoded `elements` (`.element`, `.hash`, `.sets`), compares each `.hash`
with the scalar `ElementHasher(sk.seed).value(item.element)` (a Python
int), and round-trips the sketch through `save_sketch`/`load_sketch`. The
benchmark's files stay as they are, so the package keeps these names and
signatures.
"""

import io
from pathlib import Path

import pytest

from covsketch import (CoverageInstance, ElementHasher, PlantedGoldInstance,
                       SketchParams, StreamingSketchBuilder, cli, harness,
                       random_edge_stream, solvers, write_edges_binary)
from covsketch.harness import GenEdgeSource, parse_gen_spec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("record", [False, True], ids=["counts", "spans"])
def test_trace_targets_patch_and_restore(monkeypatch, record):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer, patched
    original = vars(harness)["load_edges"]
    edges = [(0, 1), (2, 3), (4, 5)]
    buf = io.BytesIO()
    write_edges_binary(buf, edges)
    with patched(layers.targets(Tracer(record=record))):
        buf.seek(0)
        assert list(harness.load_edges(buf, "binary")) == edges
    assert vars(harness)["load_edges"] is original


def test_wrapped_names_keep_their_signatures(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer, patched
    tracer = Tracer(record=True)
    edges = [(0, 1), (2, 3), (4, 5)]
    with patched(layers.targets(tracer)):
        system = cli.materialize_system(edges, 5)
        assert (system.n, system.universe) == (5, 3)
        assert system.masks == (0b001, 0, 0b010, 0, 0b100)
        inst = CoverageInstance.from_edges(5, 6, edges, attach_isolated_seed=7)
        assert inst.coverage(range(5)) == 6
        assert solvers.as_set_system(inst) is inst.system
        bank = cli.build_per_set_sketches(edges, 5, 4, 3, reps=2)
        assert [sk.estimate() for sk in bank] == [1.0, 0.0, 1.0, 0.0, 1.0]
        sol = cli.greedy_kcover(system, 2)
        assert (sol.chosen, sol.gains, sol.covered_on_target) == ((0, 2), (1, 1), 2)
        gadget = PlantedGoldInstance(30, 3, 0.2, 5)
        assert cli.verify_oracle_validity(gadget, 7, 2).trials == 7
        demo = cli.query_counter_demo(gadget, "greedy_via_noisy", 4, 3)
        assert demo.queries_used == 4
    assert {"harness.materialize_system", "instance.from_edges",
            "solvers.as_set_system", "distinct.build_per_set_sketches",
            "solvers.exact_greedy_kcover", "hardness.verify_oracle_validity",
            "hardness.query_counter_demo"} <= {s.name for s in tracer.spans}
    counts = tracer.op_counts(0)
    assert (counts["hardness.validity_trials"], counts["hardness.queries"]) == (7, 4)


def test_generator_source_stream_iterates_as_tuples():
    src = GenEdgeSource(parse_gen_spec("random:n=20,m=300,p=0.2"), 5)
    edges = list(src())
    assert edges == list(random_edge_stream(20, 300, 0.2, 5))
    assert all(type(e) is tuple and type(e[0]) is type(e[1]) is int for e in edges)
    assert src.opens == 1


def test_from_edges_is_a_classmethod_of_the_instance_itself():
    # perfbench's `patched` reads vars(owner)[attr]; an inherited from_edges
    # would be missing there and the traced run would break
    assert isinstance(vars(CoverageInstance)["from_edges"], classmethod)
    assert CoverageInstance.from_edges.__self__ is CoverageInstance


def test_sweep_calls_stay_module_attributes():
    # the disjointness sweep calls these through their modules
    from covsketch import instance
    assert callable(vars(instance)["gen_disjointness"])
    assert callable(vars(solvers)["brute_force_kcover"])
    pair = instance.gen_disjointness([0, 2], [2], 3)
    assert solvers.brute_force_kcover(pair, 1) == (2, (2,))


@pytest.mark.parametrize("budget", [300, 10**6], ids=["binding", "non-binding"])
def test_sketch_keeps_what_the_benchmark_reads(monkeypatch, budget):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer, patched
    from workloads import sketch_checks
    tracer = Tracer(record=False)
    params = SketchParams.custom(n=20, k=2, eps=0.2, degree_cap=3,
                                 edge_budget=budget)
    with patched(layers.targets(tracer)):
        builder = StreamingSketchBuilder(params, seed=4)
        builder.extend(random_edge_stream(20, 400, 0.1, 6))
        sk = builder.finalize()
    counts = tracer.op_counts(0)
    assert counts["sketch.retained_edges"] == sk.edge_total
    assert counts["sketch.retained_elements"] == sk.element_count
    assert counts["sketch.budget_bound"] == (budget == 300)
    assert tracer.op_notes(0)["sketch.threshold"] == [sk.threshold]
    assert sk.space_units == sk.element_count + sk.edge_total
    item = sk.elements[0]
    assert (type(item.element), type(item.hash), type(item.sets)) == (int, int, tuple)
    value = ElementHasher(sk.seed).value(item.element)
    assert type(value) is int and value == item.hash
    assert sketch_checks(sk) == []
