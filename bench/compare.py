"""Compare two sets of benchmark result records, metric by metric.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --record FILE`` appends, one JSON
line per run.  For every workload and metric this prints each side's median,
quartiles and run count, then a verdict:

* ``gain``: the change wins at least nine tenths of the pairs (runs paired by
  seed, ties count for neither) and the medians differ by more than the
  parent's quartile distance;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's own quartile distance is wider than the bound,
  and not every change run beats every parent run;
* ``within bound``: none of the above.  Metrics without a bound (job-level
  and per-layer metrics) get only ``gain`` or ``-``.

A gain does not count when a larger share of operations fails than at the
parent; the attempted/failed line of each workload shows it.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, trace): [record, ...]} in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], record["trace"])].append(record)
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[tuple[int, float]], change: list[tuple[int, float]],
            higher_is_better: bool, bound: float | None) -> str:
    sign = 1 if higher_is_better else -1
    p_vals = [v for _, v in parent]
    c_vals = [v for _, v in change]
    p_med, c_med = median(p_vals), median(c_vals)
    q1, _, q3 = spread(p_vals)
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    if len(pairs) < min(len(parent), len(change)):
        pairs = list(zip(p_vals, c_vals))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > q3 - q1:
        return f"gain ({wins}/{len(pairs)} pairs)"
    if bound is None:
        return "-"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regression"
    if (q3 - q1) > bound * abs(p_med) and not (
            min(sign * c for c in c_vals) > max(sign * p for p in p_vals)):
        return "unresolved"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        print(f"== {workload} (trace {trace}): parent {len(p_runs)} runs "
              f"@ {sorted({r['commit'][:10] for r in p_runs})}, change {len(c_runs)} "
              f"runs @ {sorted({r['commit'][:10] for r in c_runs})}")
        for label, runs in (("parent", p_runs), ("change", c_runs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            wrong = sum(1 for r in runs if not r["correct"])
            print(f"   {label}: {failed}/{attempted} operations failed, "
                  f"{wrong} incorrect runs, python {sorted({r['python'] for r in runs})}, "
                  f"nproc {sorted({r['nproc'] for r in runs})}")
        names = [n for n in p_runs[0]["metrics"] if n in c_runs[0]["metrics"]]
        print(f"   {'metric':34s} {'unit':6s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s}  verdict")
        for name in names:
            unit = p_runs[0]["metrics"][name]["unit"]
            p = [(r["seed"], r["metrics"][name]["value"]) for r in p_runs]
            c = [(r["seed"], r["metrics"][name]["value"]) for r in c_runs]
            higher = better.get(name, "higher" if unit == "1/s" else "lower") == "higher"
            cells = []
            for side in (p, c):
                q1, q2, q3 = spread([v for _, v in side])
                cells.append(f"{q1:10.4g} {q2:10.4g} {q3:10.4g}")
            print(f"   {name:34s} {unit:6s} {cells[0]:>32s} {cells[1]:>32s}  "
                  f"{verdict(p, c, higher, bounds.get(name))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
