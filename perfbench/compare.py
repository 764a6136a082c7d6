"""Compare two sets of benchmark runs, one row per workload.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the run records that run.py writes to
.perfbench_out/records/ (copy them aside after running each commit, with
the same --seconds and the same seeds). Only untraced runs count. Each
end-to-end metric of each workload reads as within bound, regressed,
improved or unresolved, by the rules in summary.py and the bounds in
BENCHMARK.json. Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402


def load_runs(directory) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced records in a directory."""
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") != 0 or not record.get("correct"):
            continue
        for name, entry in record["metrics"].items():
            runs[record["workload"]][name].append(entry["value"])
    return runs


def compare(before, after, metrics) -> dict[str, list[tuple]]:
    """workload -> [(metric, verdict, before median, after median)]."""
    rows = {}
    for workload in sorted(set(before) | set(after)):
        cells = []
        for name, bound, better in metrics:
            b = before.get(workload, {}).get(name)
            a = after.get(workload, {}).get(name)
            if not b or not a:
                cells.append((name, "missing", None, None))
                continue
            cells.append((name, summary.verdict(b, a, bound, better),
                          statistics.median(b), statistics.median(a)))
        rows[workload] = cells
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["bound"], m["better"]) for m in bench["end_to_end"]]
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), metrics)
    regressed = False
    for workload, cells in rows.items():
        parts = []
        for name, verdict, b, a in cells:
            change = f" {100.0 * (a - b) / b:+.1f}%" if b else ""
            parts.append(f"{name}: {verdict}{change}")
            regressed |= verdict == summary.REGRESSED
        print(f"{workload:<18} " + " | ".join(parts))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
