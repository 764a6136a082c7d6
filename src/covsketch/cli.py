"""Command line harness.

Subcommands: gen, build-sketch, kcover, setcover-outliers,
setcover-multipass, eval, hardness-demo. Reports go to stdout as aligned
text or JSON (--json); eval emits CSV. Exit codes: 0 success, 2 bad
configuration or flags, 3 input/parse trouble, 4 oracle guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .distinct import build_per_set_sketches, kcover_via_l0
from .errors import (ConfigError, CovsketchError, GuardExceededError,
                     IdRangeError, IsolatedElementError, ParseError,
                     StateError)
from .hardness import PlantedGoldInstance, query_counter_demo, verify_oracle_validity
from .harness import (EVAL_CSV_HEADER, SEED_BUILDER, SEED_DEMO, SEED_GENERATOR,
                      SEED_GOLD, SEED_L0, SEED_REPEAT_BASE, SEED_VALIDITY,
                      FileEdgeSource, GenEdgeSource, OnceEdgeSource, PhaseTimer,
                      RunReport, emit_report, parse_gen_spec, recount_coverage,
                      scan_shape, solution_json)
from .hashing import derive_seed
from .instance import (EdgeStream, load_edge_blocks, load_edges,
                       materialize_system, write_edges_binary,
                       write_edges_text, write_metadata)
from .sketch import SketchParams, StreamingSketchBuilder, save_sketch
from .solvers import (OutlierParams, brute_force_kcover, brute_force_setcover,
                      greedy_kcover, kcover_via_sketch, setcover_multipass,
                      setcover_outliers)


# ---------------------------------------------------------------------------
# Shared argument plumbing


def _add_source_args(sp):
    sp.add_argument("--input", metavar="PATH",
                    help="edge stream file ('-' for stdin)")
    sp.add_argument("--gen", metavar="SPEC",
                    help="generator spec, e.g. random:n=10,m=50,p=0.2")
    sp.add_argument("--format", choices=("text", "binary"), default="text",
                    help="edge file encoding (default text)")
    sp.add_argument("--n", type=int, help="number of sets (overrides sidecar)")
    sp.add_argument("--m", type=int, help="number of elements (overrides sidecar)")


def _open_source(args, master_seed):
    if (args.input is None) == (args.gen is None):
        raise ConfigError("exactly one of --input or --gen is required")
    if args.gen is not None:
        spec = parse_gen_spec(args.gen)
        return GenEdgeSource(spec, derive_seed(master_seed, SEED_GENERATOR))
    if args.input == "-":
        # bytes for text too, so non-ASCII input is a ParseError; a text
        # stream without a buffer (a replaced sys.stdin) is read as is
        stream = getattr(sys.stdin, "buffer", sys.stdin)
        return OnceEdgeSource(
            EdgeStream(edges=load_edges(stream, args.format),
                       blocks=load_edge_blocks(stream, args.format)), "stdin")
    return FileEdgeSource(args.input, args.format)


def _resolve_shape(src, args, *, need_n=True, need_m=False, allow_scan=True,
                   report=None):
    n, m = src.shape()
    if args.n is not None:
        n = args.n
    if args.m is not None:
        m = args.m
    missing = (need_n and n is None) or (need_m and m is None)
    if missing and allow_scan and src.replayable:
        scanned_n, scanned_m, _ = scan_shape(src())
        n = scanned_n if n is None else n
        m = scanned_m if m is None else m
        if report is not None:
            report.notes.append("shape inferred by an extra scan pass")
        missing = (need_n and n is None) or (need_m and m is None)
    if missing:
        raise ConfigError("stream dimensions unknown: pass --n/--m, use a "
                          "generator spec, or provide a metadata sidecar")
    return n, m


def _custom_params(args, n, k, eps, m_hint):
    both = (args.degree_cap is not None, args.edge_budget is not None)
    if any(both) and not all(both):
        raise ConfigError("--degree-cap and --edge-budget must be given together")
    if not all(both):
        return None
    return SketchParams.custom(n=n, k=k, eps=eps, degree_cap=args.degree_cap,
                               edge_budget=args.edge_budget,
                               delta2=args.delta2, m_hint=m_hint)


def _maybe_recount(src, chosen, report, timer):
    if not src.replayable:
        report.notes.append("true coverage skipped: source is not replayable")
        return None
    with timer.time("oracle"):
        covered, universe = recount_coverage(src(), chosen)
    report.set_true("true_coverage", covered, "exact-recount")
    report.set_true("stream_universe", universe, "exact-recount")
    return covered


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    spec = parse_gen_spec(args.gen)
    src = GenEdgeSource(spec, derive_seed(args.seed, SEED_GENERATOR))
    if args.format == "binary":
        with open(args.out, "wb") as fp:
            count = write_edges_binary(fp, src())
    else:
        with open(args.out, "w") as fp:
            count = write_edges_text(fp, src())
    n, m = src.shape()
    write_metadata(args.out + ".meta.json", n, m, count)
    report = RunReport(command="gen", label=spec["label"], seed=args.seed,
                       params={"n": n, "m": m, "edge_count": count,
                               "out": args.out, "format": args.format},
                       passes=src.opens)
    emit_report(report, args.json, sys.stdout)
    return 0


def cmd_build_sketch(args) -> int:
    src = _open_source(args, args.seed)
    report = RunReport(command="build-sketch", label=src.label, seed=args.seed)
    n, m = _resolve_shape(src, args, need_n=True, need_m=False, report=report)
    m_hint = args.m_hint if args.m_hint is not None else (m if m else 2)
    params = _custom_params(args, n, args.k, args.eps, m_hint)
    if params is None:
        params = SketchParams.derive(n=n, k=args.k, eps=args.eps,
                                     delta2=args.delta2, m_hint=m_hint)
    timer = PhaseTimer()
    builder = StreamingSketchBuilder(params, derive_seed(args.seed, SEED_BUILDER))
    with timer.time("build"):
        builder.extend(src())
        sk = builder.finalize()
    with open(args.out, "wb") as fp:
        written = save_sketch(sk, fp)
    report.params = {"n": n, "k": args.k, "eps": params.eps,
                     "delta2": params.delta2, "m_hint": m_hint}
    report.sketch_stats = {
        "degree_cap": params.degree_cap,
        "edge_budget": params.edge_budget,
        "p_star": sk.threshold,
        "retained_elements": sk.element_count,
        "retained_edges": sk.edge_total,
        "space_units": sk.space_units,
        "input_edges": builder.seen_edge_count,
        "bytes_written": written,
        "out": args.out,
        "builder": builder.stats.as_dict(),
    }
    report.timings = timer.millis
    report.passes = src.opens
    emit_report(report, args.json, sys.stdout)
    return 0


def cmd_kcover(args) -> int:
    src = _open_source(args, args.seed)
    report = RunReport(command="kcover", label=src.label, seed=args.seed)
    n, m = _resolve_shape(src, args, need_n=True, need_m=False, report=report)
    m_hint = args.m_hint if args.m_hint is not None else (m if m else 2)
    params = _custom_params(args, n, args.k, args.eps / 12.0, m_hint)
    timer = PhaseTimer()
    builder_seed = derive_seed(args.seed, SEED_BUILDER)
    with timer.time("solve"):
        sol = kcover_via_sketch(src(), n, args.k, args.eps, builder_seed,
                                m_hint=m_hint, params=params)
    report.params = {"n": n, "k": args.k, "eps": args.eps}
    report.sketch_stats = {"builder": sol.meta.pop("builder_stats")}
    report.solutions = [solution_json(sol, n, builder_seed)]
    covered = _maybe_recount(src, sol.chosen, report, timer)
    if args.with_opt:
        if not src.replayable:
            raise ConfigError("--with-opt needs a replayable source")
        with timer.time("opt"):
            system = materialize_system(src(), n)
            opt_value, _ = brute_force_kcover(system, args.k)
        report.set_true("opt", opt_value, "brute-force-kcover")
        if covered is not None and opt_value:
            report.params["ratio"] = f"{covered / opt_value:.4f}"
    report.timings = timer.millis
    report.passes = src.opens
    emit_report(report, args.json, sys.stdout)
    return 0


def cmd_setcover_outliers(args) -> int:
    src = _open_source(args, args.seed)
    report = RunReport(command="setcover-outliers", label=src.label,
                       seed=args.seed)
    n, _ = _resolve_shape(src, args, need_n=True, need_m=False, report=report)
    opts = OutlierParams.derive(eps=args.eps, lam=args.lam, c=args.c, n=n)
    timer = PhaseTimer()
    builder_seed = derive_seed(args.seed, SEED_BUILDER)
    with timer.time("solve"):
        sol = setcover_outliers(src, n, opts, builder_seed)
    report.params = {"n": n, "eps": args.eps, "lambda": args.lam, "c": args.c,
                     "k_prime": sol.meta.get("k_prime"),
                     "ladder_level": sol.meta.get("ladder_level")}
    report.sketch_stats = {"builder": sol.meta.pop("builder_stats")}
    report.solutions = [solution_json(sol, n, builder_seed)]
    covered = _maybe_recount(src, sol.chosen, report, timer)
    if covered is not None:
        universe = report.true_values["stream_universe"]["value"]
        if universe:
            report.params["true_covered_fraction"] = f"{covered / universe:.4f}"
    if args.with_opt:
        if not src.replayable:
            raise ConfigError("--with-opt needs a replayable source")
        with timer.time("opt"):
            system = materialize_system(src(), n)
            opt_size, _ = brute_force_setcover(system, args.lam)
        report.set_true("opt_size", opt_size, "brute-force-setcover")
    report.timings = timer.millis
    report.passes = src.opens
    emit_report(report, args.json, sys.stdout)
    return 0


def cmd_setcover_multipass(args) -> int:
    src = _open_source(args, args.seed)
    report = RunReport(command="setcover-multipass", label=src.label,
                       seed=args.seed)
    n, m = _resolve_shape(src, args, need_n=True, need_m=True, allow_scan=False,
                          report=report)
    if not src.replayable:
        raise ConfigError("multi-pass set cover cannot run on a "
                          "non-replayable stream")
    timer = PhaseTimer()
    builder_seed = derive_seed(args.seed, SEED_BUILDER)
    with timer.time("solve"):
        sol = setcover_multipass(src, n, m, args.r, args.eps, builder_seed,
                                 c=args.c)
    report.params = {"n": n, "m": m, "r": args.r, "eps": args.eps, "c": args.c,
                     "algorithm_passes": sol.meta["passes"],
                     "pass_budget": sol.meta["pass_budget"]}
    report.solutions = [solution_json(sol, n, builder_seed)]
    _maybe_recount(src, sol.chosen, report, timer)
    report.timings = timer.millis
    report.passes = src.opens
    emit_report(report, args.json, sys.stdout)
    return 0


def _eval_source_factory(args, master_seed):
    """Per-repeat source builder: a generator spec draws each repeat's
    instance from that repeat's seed."""
    if (args.input is None) == (args.gen is None):
        raise ConfigError("exactly one of --input or --gen is required")
    if args.gen is not None:
        spec = parse_gen_spec(args.gen)

        def make(repeat_master):
            return GenEdgeSource(spec, derive_seed(repeat_master, SEED_GENERATOR))
    else:
        if args.input == "-":
            raise ConfigError("eval needs a replayable source, not stdin")

        def make(repeat_master):
            return FileEdgeSource(args.input, args.format)
    return make


def _eval_one_repeat(make_source, args, repeat_master) -> list[list]:
    src = make_source(repeat_master)
    n, m = src.shape()
    if args.n is not None:
        n = args.n
    if args.m is not None:
        m = args.m
    if n is None or m is None:
        n_scan, m_scan, _ = scan_shape(src())
        n = n_scan if n is None else n
        m = m_scan if m is None else m
    k = args.k
    label = src.label
    system = materialize_system(src(), n)
    system_edges = sum(mask.bit_count() for mask in system.masks)
    rows = []

    def add_row(algo, coverage, opt, space, millis):
        ratio = ""
        if coverage == "skipped":
            ratio = "skipped"
            coverage = ""
            space = ""
        elif opt:
            ratio = f"{coverage / opt:.6f}"
        rows.append([label, repeat_master, algo, k, coverage, opt if opt else "",
                     ratio, space, f"{millis:.3f}"])

    timer = PhaseTimer()
    opt_value = None
    with timer.time("brute_force"):
        try:
            opt_value, _ = brute_force_kcover(system, k)
        except GuardExceededError:
            pass

    with timer.time("sketch_greedy"):
        sol = kcover_via_sketch(src(), n, k, args.eps,
                                derive_seed(repeat_master, SEED_BUILDER),
                                m_hint=m)
        sketch_cov = system.coverage(sol.chosen)
        sketch_space = (sol.meta["retained_elements"]
                        + sol.meta["retained_edges"])
    add_row("sketch_greedy", sketch_cov, opt_value, sketch_space,
            timer.millis["sketch_greedy"])

    with timer.time("l0_enum"):
        # The enumeration compares comb(n, k) candidate unions, so the bank
        # carries ceil(ln comb) repetitions for a union-max that holds with
        # constant confidence; this is where the baseline's k factor lives.
        capacity = max(2, math.ceil(4.0 / (args.eps * args.eps)))
        reps = max(1, math.ceil(math.log(math.comb(n, k))))
        bank = build_per_set_sketches(src(), n, capacity,
                                      derive_seed(repeat_master, SEED_L0),
                                      reps=reps)
        try:
            l0_sol = kcover_via_l0(bank, k)
            l0_cov = system.coverage(l0_sol.chosen)
            l0_space = l0_sol.meta["space_units"]
        except GuardExceededError:
            l0_cov = "skipped"
            l0_space = ""
    add_row("l0_enum", l0_cov, opt_value, l0_space, timer.millis["l0_enum"])

    with timer.time("exact_greedy"):
        greedy_sol = greedy_kcover(system, k)
    add_row("exact_greedy", greedy_sol.covered_on_target, opt_value,
            system_edges, timer.millis["exact_greedy"])

    if opt_value is not None:
        add_row("brute_force", opt_value, opt_value, system_edges,
                timer.millis["brute_force"])
    else:
        add_row("brute_force", "skipped", None, "", timer.millis["brute_force"])
    return rows


def cmd_eval(args) -> int:
    make_source = _eval_source_factory(args, args.seed)
    masters = [derive_seed(args.seed, SEED_REPEAT_BASE + i)
               for i in range(args.repeat)]
    blocks = [_eval_one_repeat(make_source, args, ms) for ms in masters]
    out_fp = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out_fp)
        writer.writerow(EVAL_CSV_HEADER.split(","))
        for block in blocks:
            writer.writerows(block)
    finally:
        if args.out:
            out_fp.close()
    return 0


def cmd_hardness_demo(args) -> int:
    inst = PlantedGoldInstance(args.n_items, args.k_gold, args.eps,
                               derive_seed(args.seed, SEED_GOLD))
    validity = verify_oracle_validity(inst, args.trials,
                                      derive_seed(args.seed, SEED_VALIDITY))
    strategies = (["random_subsets", "greedy_via_noisy"]
                  if args.strategy == "both" else [args.strategy])
    report = RunReport(command="hardness-demo",
                       label=f"planted-gold:n={args.n_items},k={args.k_gold}",
                       seed=args.seed)
    report.params = {"n_items": args.n_items, "k_gold": args.k_gold,
                     "eps": args.eps, "eps_prime": inst.eps_prime,
                     "validity_trials": validity.trials,
                     "validity_violations": len(validity.violations),
                     "validity_ok": validity.ok}
    report.set_true("opt_value", inst.opt_value, "closed-form")
    for idx, strategy in enumerate(strategies):
        demo = query_counter_demo(inst, strategy, args.budget,
                                  derive_seed(args.seed, SEED_DEMO + idx))
        prefix = demo.strategy
        report.params[f"{prefix}.queries_used"] = demo.queries_used
        report.params[f"{prefix}.deviation_found"] = demo.deviation_found
        report.params[f"{prefix}.best_ratio"] = f"{float(demo.best_ratio):.4f}"
        report.params[f"{prefix}.best_query_size"] = demo.best_query_size
    if args.unsafe_audit:
        report.notes.append(f"gold (unsafe audit): {sorted(inst.audit_gold())}")
    emit_report(report, args.json, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covsketch",
        description="Streaming coverage sketches, solvers, and baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="write a synthetic edge stream to a file")
    sp.add_argument("--gen", metavar="SPEC", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("text", "binary"), default="text")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("build-sketch", help="stream edges into a sketch file")
    _add_source_args(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, default=0.2)
    sp.add_argument("--delta2", type=float, default=1.0)
    sp.add_argument("--m-hint", type=int)
    sp.add_argument("--degree-cap", type=int)
    sp.add_argument("--edge-budget", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_build_sketch)

    sp = sub.add_parser("kcover", help="max coverage with k sets via a sketch")
    _add_source_args(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, default=0.6)
    sp.add_argument("--m-hint", type=int)
    sp.add_argument("--degree-cap", type=int)
    sp.add_argument("--edge-budget", type=int)
    sp.add_argument("--delta2", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--with-opt", action="store_true",
                    help="also brute-force the optimum (may exceed the guard)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_kcover)

    sp = sub.add_parser("setcover-outliers",
                        help="cover all but a lambda fraction of elements")
    _add_source_args(sp)
    sp.add_argument("--eps", type=float, default=0.3)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--with-opt", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_setcover_outliers)

    sp = sub.add_parser("setcover-multipass",
                        help="exact set cover in 2(r-1)+1 passes")
    _add_source_args(sp)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--eps", type=float, default=0.3)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_setcover_multipass)

    sp = sub.add_parser("eval",
                        help="CSV comparison of solvers on one instance")
    _add_source_args(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--repeat", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="CSV path (default stdout)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("hardness-demo",
                        help="planted-gold oracle validity and query lower bound demo")
    sp.add_argument("--n-items", type=int, default=400)
    sp.add_argument("--k-gold", type=int, default=20)
    sp.add_argument("--eps", type=float, default=0.2)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--budget", type=int, default=2000)
    sp.add_argument("--strategy",
                    choices=("both", "random_subsets", "greedy_via_noisy"),
                    default="both")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--unsafe-audit", action="store_true",
                    help="print the hidden gold set (breaks the oracle game)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_hardness_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GuardExceededError as exc:
        print(f"covsketch: guard exceeded: {exc}", file=sys.stderr)
        return 4
    except (ParseError, IdRangeError, IsolatedElementError) as exc:
        print(f"covsketch: input error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"covsketch: io error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, StateError, CovsketchError, ValueError) as exc:
        print(f"covsketch: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
