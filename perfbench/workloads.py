"""The two workloads: inputs made from a seed, one operation, its checks.

Each operation goes through the shipped CLI, `covsketch.cli.main(argv)`,
with `--json`, the way a user runs it; only `exact_oracles` adds a loop of
direct library calls that mirrors the tier-1 suite's hottest test. Checks
compare every operation's output with values computed in `oracles` or with
invariants of the returned structures; a failed check is recorded, never
raised.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import oracles


def run_cli(argv) -> tuple[int, str]:
    from covsketch import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _gen(spec: str, seed: int, path: Path, fmt: str) -> None:
    rc, _ = run_cli(["gen", "--gen", spec, "--seed", seed, "--format", fmt,
                     "--out", path, "--json"])
    if rc != 0:
        raise RuntimeError(f"covsketch gen {spec} exited {rc}")


def _report(rc: int, out: str) -> dict:
    """The parts of a solver command's JSON report that the checks read."""
    if rc != 0:
        return {"rc": rc}
    report = json.loads(out)
    sol = report["solutions"][0]
    true = report["true_values"]
    return {"rc": 0, "chosen": sol["chosen"], "estimate": sol["estimate"],
            "covered": true["true_coverage"]["value"],
            "universe": true["stream_universe"]["value"],
            "passes": report["passes"], "params": report["params"],
            "solution_params": sol["params"]}


def _valid_ids(chosen, n: int) -> bool:
    return len(set(chosen)) == len(chosen) and all(0 <= u < n for u in chosen)


class Workload:
    name = ""
    why = ""
    spec: dict = {}
    input_name: str | None = None   # binary edge file the operation reads
    n = m = 0

    def input_path(self, run_dir: Path) -> Path:
        return run_dir / self.input_name

    def setup(self, run_dir: Path, seed: int) -> tuple[dict, object]:
        """Write the inputs; return (reference values, arrays for checks)."""
        raise NotImplementedError

    def op(self, run_dir: Path, seed: int) -> dict:
        """Run one operation; return the summary its checks read."""
        raise NotImplementedError

    def result_key(self, summary: dict):
        """What must be identical across runs of the same operation."""
        return summary.get("chosen")

    def check(self, ref: dict, arrays, summary: dict) -> list[str]:
        raise NotImplementedError

    def quality(self, ref: dict, arrays, summary: dict) -> dict:
        """coverage_ratio of one operation, where the workload has no sweep."""
        return {}

    def edges_one_pass(self, ref: dict) -> int:
        return ref["edges"]

    def accuracy_sweep(self, ref: dict, arrays, seed: int) -> list[dict]:
        """Untimed accuracy rows; only the subsampling workload has them."""
        return []

    def _read(self, run_dir: Path):
        return oracles.read_binary(self.input_path(run_dir))


class StreamKCover(Workload):
    name = "stream_kcover"
    why = ("one-pass k-cover where the edge budget binds and the builder "
           "evicts; ingest (parse, hash, admit/evict) dominates")
    gen = "random:n=200,m=100000,p=0.05"
    n, m, k, cap, budget, eps = 200, 100000, 10, 20, 50000, 0.6
    input_name = "stream.bin"
    # Accuracy sweep: custom edge budgets x builder seeds, untimed.
    sweep_budgets = (12500, 25000, 50000)
    sweep_seeds = 2
    spec = {"input": gen, "format": "binary",
            "op": f"kcover --format binary --k {k} --degree-cap {cap} "
                  f"--edge-budget {budget}",
            "accuracy_sweep": {"budgets": list(sweep_budgets),
                               "builder_seeds": sweep_seeds}}

    def setup(self, run_dir, seed):
        path = self.input_path(run_dir)
        _gen(self.gen, seed, path, "binary")
        u, v = self._read(run_dir)
        curve = oracles.greedy_curve(u, v, self.n, self.m, self.k)
        ref = {"edges": oracles.read_sidecar(path)["edge_count"],
               "greedy_coverage": oracles.curve_at(curve, self.k)}
        return ref, (u, v)

    def op(self, run_dir, seed):
        return _report(*run_cli([
            "kcover", "--input", self.input_path(run_dir), "--format", "binary",
            "--k", self.k, "--degree-cap", self.cap, "--edge-budget", self.budget,
            "--seed", seed, "--json"]))

    def check(self, ref, arrays, s):
        chosen = s["chosen"]
        fails = []
        if len(chosen) != self.k or not _valid_ids(chosen, self.n):
            fails.append(f"chosen {chosen} is not {self.k} distinct ids in [0, {self.n})")
        true = oracles.recount(*arrays, self.n, self.m, chosen)
        if s["covered"] != true:
            fails.append(f"CLI recount {s['covered']} != independent recount {true}")
        return fails

    def accuracy_sweep(self, ref, arrays, seed) -> list[dict]:
        """Sketch-greedy coverage and estimate error per budget and seed."""
        from covsketch import SketchParams, kcover_via_sketch
        from covsketch.hashing import derive_seed
        u, v = arrays
        edges = list(zip(u.tolist(), v.tolist()))
        rows = []
        for budget in self.sweep_budgets:
            params = SketchParams.custom(n=self.n, k=self.k, eps=self.eps / 12.0,
                                         degree_cap=self.cap, edge_budget=budget)
            for j in range(self.sweep_seeds):
                sol = kcover_via_sketch(edges, self.n, self.k, self.eps,
                                        derive_seed(seed, 1000 + j), params=params)
                true = oracles.recount(u, v, self.n, self.m, sol.chosen)
                rows.append({
                    "budget": budget, "builder_seed": j,
                    "coverage_ratio": true / ref["greedy_coverage"],
                    "estimate_rel_err": abs(sol.estimate.scaled - true) / true})
        return rows


def disjointness_sweep(max_n: int) -> tuple[int, int]:
    """Every pair of nonempty id-subsets for n = 1..max_n: (checked, wrong).

    Calls go through the module attributes so that traced runs see them.
    """
    from covsketch import instance, solvers
    checked = wrong = 0
    for n in range(1, max_n + 1):
        subsets = [[i for i in range(n) if bits >> i & 1] for bits in range(1 << n)]
        for a in range(1, 1 << n):
            for b in range(1, 1 << n):
                pair = instance.gen_disjointness(subsets[a], subsets[b], n)
                opt, _ = solvers.brute_force_kcover(pair, 1)
                wrong += opt != (2 if a & b else 1)
                checked += 1
    return checked, wrong


class ExactOracles(Workload):
    name = "exact_oracles"
    why = ("exact and baseline layers (brute force, l0 enumeration, hardness "
           "oracles); barely sketches, so the no-change control for ingest")
    gen = "random:n=20,m=1000,p=0.2"
    n, m, k, eps = 20, 1000, 4, 0.5
    hardness = ("--n-items", 1000, "--k-gold", 100, "--eps", 0.1, "--trials", 2000)
    max_pair_n = 8
    spec = {"input": "generator specs only",
            "op": [f"eval --gen {gen} --k {k} --eps {eps}",
                   "hardness-demo " + " ".join(map(str, hardness)),
                   f"disjointness sweep n=1..{max_pair_n} with brute_force_kcover(pair, 1)"]}

    def setup(self, run_dir, seed):
        from covsketch.harness import (SEED_GENERATOR, SEED_REPEAT_BASE,
                                       GenEdgeSource, parse_gen_spec)
        from covsketch.hashing import derive_seed
        # eval's first repeat draws its instance from these sub-seeds
        master = derive_seed(seed, SEED_REPEAT_BASE)
        edges = list(GenEdgeSource(parse_gen_spec(self.gen),
                                   derive_seed(master, SEED_GENERATOR))())
        pairs = sum((2 ** n - 1) ** 2 for n in range(1, self.max_pair_n + 1))
        # each nonempty subset of n ids appears (2^n - 1) times per side
        pair_edges = sum(2 * (2 ** n - 1) * n * 2 ** (n - 1)
                         for n in range(1, self.max_pair_n + 1))
        ref = {"eval_edges": len(edges), "pairs": pairs, "pair_edges": pair_edges,
               "opt": oracles.brute_force_kcover(edges, self.n, self.k)}
        return ref, None

    def op(self, run_dir, seed):
        rc_eval, out = run_cli(["eval", "--gen", self.gen, "--k", self.k,
                                "--eps", self.eps, "--seed", seed])
        rc_hard, hard = run_cli(["hardness-demo", *self.hardness, "--seed", seed,
                                 "--json"])
        checked, wrong = disjointness_sweep(self.max_pair_n)
        summary = {"rc": rc_eval or rc_hard, "pairs": checked, "pairs_wrong": wrong}
        if rc_eval == 0:
            summary["eval"] = {row["algo"]: {"coverage": row["coverage"],
                                             "space_units": row["space_units"]}
                               for row in csv.DictReader(io.StringIO(out))}
        if rc_hard == 0:
            summary["hardness"] = json.loads(hard)["params"]
        return summary

    def result_key(self, s):
        return json.dumps([s.get("eval"), s.get("hardness"), s["pairs_wrong"]],
                          sort_keys=True)

    def check(self, ref, arrays, s):
        fails = []
        rows = s["eval"]
        opt = int(rows["brute_force"]["coverage"])
        greedy = int(rows["exact_greedy"]["coverage"])
        sketch = int(rows["sketch_greedy"]["coverage"])
        if opt != ref["opt"]:
            fails.append(f"eval brute force {opt} != independent optimum {ref['opt']}")
        if not opt >= greedy >= (1.0 - 1.0 / math.e) * opt:
            fails.append(f"exact greedy {greedy} outside [(1-1/e) opt, opt={opt}]")
        if sketch > opt:
            fails.append(f"sketch greedy {sketch} above the optimum {opt}")
        if s["pairs"] != ref["pairs"] or s["pairs_wrong"]:
            fails.append(f"disjointness: {s['pairs_wrong']} wrong of {s['pairs']}")
        hard = s["hardness"]
        if hard["validity_violations"] != 0 or hard["validity_trials"] != 2000:
            fails.append(f"hardness validity: {hard['validity_violations']} "
                         f"violations in {hard['validity_trials']} trials")
        return fails

    def quality(self, ref, arrays, s):
        rows = s["eval"]
        return {"coverage_ratio": int(rows["sketch_greedy"]["coverage"])
                / int(rows["brute_force"]["coverage"])}

    def edges_one_pass(self, ref):
        return ref["eval_edges"] + ref["pair_edges"]


WORKLOADS = {w.name: w for w in (StreamKCover(), ExactOracles())}


def sketch_checks(sk) -> list[str]:
    """Invariants of a finalized sketch, and a save/load round trip."""
    from covsketch import ElementHasher, load_sketch, save_sketch
    p = sk.params
    fails = []
    if sk.threshold < 1.0 and not (p.edge_budget <= sk.edge_total
                                   <= p.edge_budget + p.degree_cap):
        fails.append(f"retained {sk.edge_total} edges outside [budget, budget + cap]")
    if any(len(item.sets) > p.degree_cap for item in sk.elements):
        fails.append("an element keeps more set ids than the degree cap")
    keys = [(item.hash, item.element) for item in sk.elements]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        fails.append("elements not in ascending (hash, id) order")
    hasher = ElementHasher(sk.seed)
    if any(hasher.value(item.element) != item.hash for item in sk.elements):
        fails.append("stored hash differs from the keyed hash of the element")
    buf = io.BytesIO()
    save_sketch(sk, buf)
    buf.seek(0)
    if load_sketch(buf) != sk:
        fails.append("save_sketch -> load_sketch does not round-trip")
    return fails
