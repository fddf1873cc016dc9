"""walgebra benchmark: cold CLI workloads, checked against independent oracles.

    python3 bench/run.py --workload derive --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory and is never installed.  Each pass of the workload runs in a fresh
interpreter (``worker.py``), one process at a time, so each pass pays the
cold costs a CLI user pays.  Passes repeat until the next one would end after
``--seconds`` (at least one pass runs); a metric is the median over passes.

Times are reported in reference seconds: each operation's measured time
times ``REF_S / r``, where ``r`` is the time of a fixed pure-Python loop run
just before and just after it (worker.py's ``reference_loop``).  The host's
CPU speed swings by up to 2x within seconds and drifts between minutes; the
scale takes that out.  Raw wall-clock times are printed beside them
(``*_wall_s``) and kept in the record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one counted
pass and then traced passes and prints the per-layer metrics (raw seconds).
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  ``--record FILE`` also appends a result record (commit,
Python, nproc, seed, counts and every metric) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
RUN_LIMIT_S = 170  # a run must end within 180 s
# The reference loop's time on this host when nothing else is running on it.
REF_S = 0.05

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
DETAIL_UNITS = {
    "derive": {f"derive_p{p}_s": "s" for p in (2, 3, 4, 5)},
    "characters": {"triplet_char_s": "s", "verma_char_s": "s", "char_diff_s": "s"},
    "certify-solve": {"certificates_per_s": "1/s", "singular_solves_per_s": "1/s"},
}
WALL_UNITS = {"setup_wall_s": "s", "pass_wall_s": "s", "ref_wall_s": "s"}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes, one at a time, within the run's time limit."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload, self.seed = workload, seed
        self.base = {"root": str(ROOT), "workdir": workdir}
        self.started = time.monotonic()

    def spawn(self, mode: str, ops: list | None = None, trace_out: str | None = None
              ) -> dict:
        task = dict(self.base, mode=mode, ops=ops or [], trace_out=trace_out,
                    refs=mode in ("plain", "headline"))
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(BENCH / "worker.py"), json.dumps(task)],
                capture_output=True, text=True, timeout=timeout, cwd=str(ROOT),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker ran past the run's time limit "
                             f"({timeout:.0f} s)") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-800:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["ops"] = task["ops"]
        out["trace_out"] = trace_out
        return out

    def plan(self, index: int, mode: str) -> list[dict]:
        rng = random.Random(f"{self.seed}:{self.workload}:{index}:{mode}")
        return workloads.plan(self.workload, rng, mode)

    def one_pass(self, mode: str, index: int = 0) -> dict:
        trace_out = os.path.join(self.base["workdir"], f"trace-{index}.json")
        return self.spawn(mode, self.plan(index, mode), trace_out)

    def passes(self, mode: str, seconds: float) -> list[dict]:
        """Passes until the next one would end after ``seconds``; at least one."""
        loop_start = time.monotonic()
        done: list[dict] = []
        longest = 0.0
        while True:
            t = time.monotonic()
            done.append(self.one_pass(mode, len(done)))
            longest = max(longest, time.monotonic() - t)
            if time.monotonic() + longest > loop_start + seconds:
                return done


def scaled(result: dict) -> float:
    """An operation's time in reference seconds."""
    return result["seconds"] * REF_S / result["ref_s"]


def pass_seconds(one: dict, phase: str | None = None, time_of=scaled) -> float:
    return sum(time_of(r) for r in one["results"]
               if phase is None or r["phase"] == phase)


def wall(result: dict) -> float:
    return result["seconds"]


def judge(passes: list[dict], tables: workloads.Oracles):
    """Check every result; returns (attempted, failed, problems)."""
    attempted = failed = 0
    problems: list[str] = []
    for one in passes:
        ops = {op["name"]: op for op in one["ops"]}
        for result in one["results"]:
            bad, found = workloads.check(ops[result["op"]], result, tables)
            attempted += 1
            failed += bad
            if not bad:
                problems += [f"{result['name']}: {p}" for p in found]
    return attempted, failed, problems


def job_seconds(passes: list[dict], *names: str) -> float:
    """Median over the passes that ran the named jobs of their summed time."""
    return median(sum(scaled(r) for r in one["results"] if r["name"] in names)
                  for one in passes if any(r["name"] in names for r in one["results"]))


def detail_metrics(workload: str, passes: list[dict]) -> dict[str, float]:
    """Job-level figures of the workload, in reference seconds."""
    if workload == "derive":
        return {f"derive_p{p}_s": job_seconds(passes, f"derive_p{p}")
                for p in (2, 3, 4, 5)}
    if workload == "characters":
        return {"triplet_char_s": job_seconds(passes, "triplet_char"),
                "verma_char_s": job_seconds(passes, "verma_char"),
                "char_diff_s": job_seconds(passes, "char_diff_chi", "char_diff_verma")}
    return {
        "certificates_per_s": 1 / median(pass_seconds(o, "certificate") for o in passes),
        "singular_solves_per_s": 1 / median(pass_seconds(o, "singular") for o in passes),
    }


def measure_end_to_end(runner: Runner, seconds: float):
    runner.spawn("setup")  # compiles the bytecode; not measured
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    headline = [runner.one_pass("headline")] if runner.plan(0, "headline") else []
    remaining = seconds - (time.monotonic() - runner.started)
    passes = runner.passes("plain", remaining)
    metrics = {
        "setup_s": median(p["setup_s"] * REF_S / p["ref_s"] for p in probes),
        "pass_s": median(pass_seconds(one) for one in passes),
        "peak_rss_mb": median(one["peak_rss_mb"] for one in passes),
    }
    detail = detail_metrics(runner.workload, passes + headline)
    detail.update(
        setup_wall_s=median(setups),
        pass_wall_s=median(pass_seconds(one, time_of=wall) for one in passes),
        ref_wall_s=median(r["ref_s"] for one in passes for r in one["results"]),
    )
    units = {**DETAIL_UNITS[runner.workload], **WALL_UNITS}
    return metrics, END_TO_END_UNITS, detail, units, passes + headline, []


def measure_layers(runner: Runner, seconds: float):
    counted = [runner.one_pass("counted")]
    remaining = seconds - (time.monotonic() - runner.started)
    passes = runner.passes("traced", remaining)
    spans = []
    for one in passes:
        with open(one["trace_out"], encoding="utf-8") as fh:
            spans.append(json.load(fh))
    shutil.copy(passes[-1]["trace_out"], WORK / f"last-trace-{runner.workload}.json")
    metrics = tracing.layer_metrics(spans, counted[0]["poly_counts"])
    return metrics, tracing.PER_LAYER_UNITS, {}, {}, passes, counted


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append a result record (JSON line) to this file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "walgebra" / "__init__.py").is_file():
        print(f"error: no walgebra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, units, detail, detail_units, passes, extra = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tables = workloads.Oracles()
    attempted, failed, problems = judge(passes, tables)
    problems += judge(extra, tables)[2]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {attempted} operations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    for name, value in detail.items():
        print(f"  {name:34s} {value:14.6g} {detail_units[name]}")
    for problem in problems[:20]:
        print(f"  INCORRECT {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "commit": commit(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "correct": result["correct"], "attempted": attempted, "failed": failed,
            "passes_wall_s": [pass_seconds(one, time_of=wall) for one in passes],
            "metrics": {**result["metrics"],
                        **{k: {"value": v, "unit": detail_units[k]}
                           for k, v in detail.items()}},
        }
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
