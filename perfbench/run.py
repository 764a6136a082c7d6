"""covsketch benchmark: one workload per run, or both in turn.

    python3 perfbench/run.py --workload stream_kcover --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a covsketch checkout; it imports the package from
./src and fails, printing no result, when there is none. A run makes its
inputs from --seed (several times, reporting the median set-up time), then
starts a fresh interpreter that runs the operation in a closed loop with
one client for --seconds, so peak RSS belongs to that workload alone.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced operations and reports the per-layer metrics. Every operation's
output is checked. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a record of the run goes to
.perfbench_out/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402

# Later claims must also hold on this seed; tune with others.
HELD_OUT_SEED = 9001
OUT_DIR = ".perfbench_out"
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 3, 200, 1.0
MIN_SAMPLES = 3          # timed operations per run, whatever --seconds says
RUN_DEADLINE = 170       # seconds from the start of a run; it must end within 180

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("edges_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("passes", "count", "lower"),
    ("space_units", "count", "lower"),
    ("coverage_ratio", "ratio", "higher"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "covsketch" / "__init__.py").is_file():
        print("perfbench: no src/covsketch here; run from the root of a "
              "covsketch checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, root, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = root / OUT_DIR / f"{workload.name}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.worker:
        return worker(workload, run_dir, args)
    return parent(workload, run_dir, args, root)


# ---------------------------------------------------------------------------
# The worker: a fresh interpreter that runs the operations


def _guarded(workload, run_dir, seed) -> dict:
    try:
        return workload.op(run_dir, seed)
    except Exception as exc:          # counted as a failed operation
        return {"rc": -1, "error": f"{type(exc).__name__}: {exc}"}


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for, in MB.

    Linux carries the forking parent's peak into a child's ru_maxrss across
    exec, so the worker's own peak is read from VmHWM, which belongs to its
    own address space; ru_maxrss stands in where /proc is missing.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def worker(workload, run_dir, args) -> int:
    import layers
    from spans import Tracer, patched
    from workloads import sketch_checks

    seed = args.seed
    tracer = Tracer(record=bool(args.trace))
    # Warm-up operation, untimed: counts passes and sketch space, and keeps
    # the first sketch built for the invariant checks.
    with patched(layers.targets(tracer)), tracer.span("op"):
        first = _guarded(workload, run_dir, seed)
    notes = tracer.op_notes(0)
    built = notes.get("sketch.first")
    out = {"results": [first],
           "audit": {"passes": tracer.op_counts(0).get("passes", 0),
                     "space_units": built[0].space_units if built else 0},
           "run_failures": sketch_checks(built[0]) if built else
           ["the operation built no sketch"]}
    first_build = (built[0].params, built[0].seed) if built else None
    del built, notes

    untraced, traced, per_op = [], [], []
    start = time.perf_counter()
    while (len(untraced) < MIN_SAMPLES
           or time.perf_counter() - start < args.seconds):
        t0 = time.perf_counter()
        out["results"].append(_guarded(workload, run_dir, seed))
        untraced.append(time.perf_counter() - t0)
        if not args.trace:
            continue
        tracer.op += 1
        base = len(tracer.spans)
        with patched(layers.targets(tracer)), tracer.span("op"):
            result = _guarded(workload, run_dir, seed)
        out["results"].append(result)
        traced.append(tracer.spans[base].duration)
        metrics, table = layers.op_metrics(tracer, tracer.op, base, result)
        per_op.append(metrics)
        if tracer.op == 1:
            out["span_table"] = table
            spans_end = len(tracer.spans)
        else:
            tracer.truncate(base)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["solve_times"] = untraced
    if args.trace:
        out["traced_times"] = traced
        layer = layers.median_metrics(per_op)
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        layer["trace.overhead_ratio"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1.0)
        layer.update(layers.hash_probe(workload.m, seed))
        layer["sketch.admit_s"] = (layer["sketch.build_s"] - layer["hashing.hash_s"]
                                   if layer["sketch.build_s"] > 0 else 0.0)
        layer["sketch.build_peak_mb"] = 0.0
        if workload.input_name and first_build:
            layer["sketch.build_peak_mb"] = _build_peak_mb(workload, run_dir,
                                                           *first_build)
        out["layer"] = layer
        with open(run_dir / "spans.jsonl", "w", encoding="ascii") as fp:
            for record in tracer.records()[:spans_end]:
                fp.write(json.dumps(record) + "\n")
    with open(run_dir / f"worker-trace{args.trace}.json", "w", encoding="ascii") as fp:
        json.dump(out, fp)
    return 0


def _build_peak_mb(workload, run_dir, params, seed) -> float:
    """tracemalloc peak of re-running the first build over the whole
    pre-parsed input."""
    import layers
    from covsketch import build_sketch_from_stream, load_edges
    with open(workload.input_path(run_dir), "rb") as fp:
        edges = list(load_edges(fp, "binary"))
    return layers.peak_mb(lambda: build_sketch_from_stream(edges, params, seed))


# ---------------------------------------------------------------------------
# The parent: set-up, checks, metrics, report


def parent(workload, run_dir, args, root) -> int:
    from layers import PER_LAYER
    started = time.monotonic()
    setup_times = []
    while len(setup_times) < SETUP_MAX_REPS and (
            len(setup_times) < SETUP_MIN_REPS
            or sum(setup_times) < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        ref, arrays = workload.setup(run_dir, args.seed)
        setup_times.append(time.perf_counter() - t0)
    sweep = workload.accuracy_sweep(ref, arrays, args.seed)

    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", workload.name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, timeout=max(
            1.0, RUN_DEADLINE - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        print(f"perfbench: the run went past {RUN_DEADLINE}s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    with open(run_dir / f"worker-trace{args.trace}.json", encoding="ascii") as fp:
        work = json.load(fp)

    results = work["results"]
    failures = check_all(workload, ref, arrays, results, work)
    failed = sum(1 for f in failures if f)
    if args.trace:
        metrics = dict(work["layer"])
        metrics.update(accuracy_layers(sweep))
        table = PER_LAYER
    else:
        passed = next((r for r, f in zip(results, failures) if not f), None)
        metrics = end_to_end(workload, ref, arrays, passed, work,
                             setup_times, sweep)
        table = END_TO_END
    record = {
        "workload": workload.name, "why": workload.why, "spec": workload.spec,
        "seed": args.seed, "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
        "seconds": args.seconds, "load": "closed loop, 1 client, single-threaded",
        "machine": machine(root),
        "samples": {"setup": len(setup_times), "solve": len(work["solve_times"]),
                    "traced": len(work.get("traced_times", []))},
        "setup_times": setup_times, "solve_times": work["solve_times"],
        "traced_times": work.get("traced_times", []),
        "accuracy_sweep": sweep, "span_table": work.get("span_table"),
        "failures": [[i, f] for i, fs in enumerate(failures) for f in fs],
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table},
    }
    records = root / OUT_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(path, "w", encoding="ascii") as fp:
        json.dump(record, fp, indent=1)
    print_report(record, path)
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def check_all(workload, ref, arrays, results, work) -> list[list[str]]:
    """Failures per operation; run-wide ones are charged to the first."""
    failures = []
    first_key = workload.result_key(results[0]) if results[0]["rc"] == 0 else None
    for index, result in enumerate(results):
        fails = list(work["run_failures"]) if index == 0 else []
        if result["rc"] != 0:
            fails.append(f"exit {result['rc']} {result.get('error', '')}".strip())
            failures.append(fails)
            continue
        try:
            fails += workload.check(ref, arrays, result)
        except (KeyError, TypeError, ValueError) as exc:
            fails.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if workload.result_key(result) != first_key:
            fails.append("result differs from the first operation's")
        if "passes" in result and result["passes"] != work["audit"]["passes"]:
            fails.append(f"CLI reports {result['passes']} passes, counted "
                         f"{work['audit']['passes']}")
        failures.append(fails)
    return failures


def end_to_end(workload, ref, arrays, passed, work, setup_times, sweep) -> dict:
    """The end-to-end metrics; quality comes from the first operation that
    passed its checks, and reads 0 when none did.

    solve_s is the mean over the timed loop, not the median: on a shared
    host the CPU runs at two speeds about 1.5x apart in phases of tens of
    seconds, and a run's median jumps to whichever speed held for most of
    it, while the mean moves with the share of time spent in each.
    """
    solve = statistics.mean(work["solve_times"])
    metrics = {
        "coverage_ratio": 0.0,
        "setup_s": statistics.median(setup_times),
        "solve_s": solve,
        "edges_per_s": workload.edges_one_pass(ref) / solve,
        "peak_rss_mb": work["peak_rss_mb"],
        "passes": work["audit"]["passes"],
        "space_units": work["audit"]["space_units"],
    }
    if passed is not None:
        metrics.update(workload.quality(ref, arrays, passed))
    if sweep:
        metrics["coverage_ratio"] = statistics.mean(r["coverage_ratio"] for r in sweep)
    return metrics


def accuracy_layers(sweep) -> dict:
    from layers import SWEEP_BUDGETS
    out = {"accuracy.coverage_ratio": 0.0, "accuracy.estimate_rel_err": 0.0}
    for budget in SWEEP_BUDGETS:
        out[f"accuracy.b{budget}.coverage_ratio"] = 0.0
        out[f"accuracy.b{budget}.estimate_rel_err"] = 0.0
    if not sweep:
        return out
    for key in ("coverage_ratio", "estimate_rel_err"):
        out[f"accuracy.{key}"] = statistics.mean(r[key] for r in sweep)
        for budget in SWEEP_BUDGETS:
            out[f"accuracy.b{budget}.{key}"] = statistics.mean(
                r[key] for r in sweep if r["budget"] == budget)
    return out


def machine(root) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "commit": git_commit(root)}


def git_commit(root) -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_report(record, path) -> None:
    samples = record["samples"]
    print(f"perfbench {record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  seconds={record['seconds']}  "
          f"({record['load']})")
    times = record["solve_times"]
    tail = summary.tail_percentile(len(times))
    sweep = len(record["accuracy_sweep"])
    notes = {
        "setup_s": f"median of {samples['setup']} set-ups",
        "solve_s": f"mean of {len(times)} operations; median "
                   f"{statistics.median(times):.4f} s; " + (
            f"p{tail:g} {summary.percentile(times, tail):.4f} s" if tail else
            f"no percentile has {summary.TAIL_BEYOND} samples beyond it"),
        "edges_per_s": "edges in one pass / solve_s",
        "peak_rss_mb": f"over {record['attempted']} operations",
        "passes": "counted in the warm-up operation",
        "space_units": "first sketch of the warm-up operation",
        "coverage_ratio": (f"mean of {sweep} accuracy-sweep builds" if sweep
                           else "first operation"),
    }
    traced = f"median of {samples['traced']} traced operations"
    layer_notes = {
        "hashing.": "one pass over the element ids after the loop",
        "sketch.admit_s": "derived: build_s - hash_s",
        "sketch.build_peak_mb": "tracemalloc, one re-run of the first build",
        "trace.": f"{traced} vs {samples['solve']} untraced",
        "accuracy.": f"mean over the accuracy sweep ({sweep} builds)",
    }
    for name, entry in record["metrics"].items():
        if record["trace"]:
            note = next((text for prefix, text in layer_notes.items()
                         if name.startswith(prefix)), traced)
        else:
            note = notes[name]
        print(f"  {name:<38} {entry['value']:>16.6g} {entry['unit']:<6} {note}")
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':<38} {rate:>16.6g} {'ratio':<6} "
          f"{record['failed']} failed of {record['attempted']} operations")
    for index, failure in record["failures"]:
        print(f"  FAILED operation {index}: {failure}")
    print(f"  record: {path}")


# ---------------------------------------------------------------------------
# All workloads, one after another


def run_all(args, root, names) -> int:
    combined = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE + 600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            combined[name] = None
            continue
        combined[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": combined}))
    ok = all(r is not None and r["correct"] for r in combined.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
