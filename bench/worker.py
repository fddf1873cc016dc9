"""Run one pass of a workload in a fresh interpreter; print its results as JSON.

run.py starts this file once per pass, so every pass pays walgebra's cold
costs the way a CLI user does: module-level caches, a fresh ``Engine`` and
fresh memos.  Usage (one JSON argument, written by run.py):

    python3 -I bench/worker.py '{"root": ..., "mode": ..., "ops": [...], ...}'

Modes: ``setup`` (import walgebra and load the packaged spec between two
runs of the reference loop, then stop), ``plain`` and ``headline`` (timed
passes), ``traced`` (spans around layer boundaries, written to
``trace_out``) and ``counted`` (Poly operation counts).  With ``refs`` set,
the reference loop also runs before the first operation and after the
operations, and each result carries ``ref_s``, the host speed it ran at.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction


# A reference probe follows any operation that ends this much operation time
# after the previous probe, so probes bracket every operation closely.
REF_EVERY_S = 0.5


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of Fraction arithmetic and
    tuple-keyed dict updates, the operation mix walgebra spends its time in.
    Timed around the operations to measure how fast the host is running.
    The garbage collector is off while it runs, so that its time does not
    depend on how much the worker holds on its heap."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        total = Fraction(0)
        for i in range(1, 7000):
            f = Fraction(i % 89 + 1, i % 97 + 1)
            total += f * f
            key = (i % 251, "w", i % 7)
            acc[key] = acc.get(key, Fraction(0)) + f
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_cli(cli, op: dict, workdir: str) -> dict:
    out = os.path.join(workdir, op["name"] + ".out")
    stderr = io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(op["argv"] + ["--out", out])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation; record what raised
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = ""
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out)
    return {"name": op["name"], "seconds": seconds, "rc": rc, "error": error,
            "text": text, "stderr": stderr.getvalue()}


def timed(name: str, fn) -> dict:
    """Run a library operation; its value is the verdict it returns."""
    from walgebra.c2 import CertificateError

    error = None
    value = None
    start = time.perf_counter()
    try:
        value = fn()
    except CertificateError:
        value = False  # the certificate was rejected while loading
    except Exception as exc:  # a crash is a failed operation; record what raised
        error = f"{type(exc).__name__}: {exc}"
    return {"name": name, "seconds": time.perf_counter() - start, "value": value,
            "error": error}


def run_pass(task: dict, cli, spec, tracer) -> list[dict]:
    from walgebra import c2, singular
    from walgebra.scalar import Poly, parse_poly

    texts: dict[str, str] = {}
    numeric: dict = {}
    results: list[dict] = []
    refs: list[tuple[int, float]] = []  # (results before the probe, seconds)
    since_ref = 0.0
    if task["refs"]:
        refs.append((0, reference_loop()))
    for op in task["ops"]:
        if tracer is not None:
            tracer.job = op["name"]
        kind = op["kind"]
        first = len(results)
        if kind == "cli":
            result = run_cli(cli, op, task["workdir"])
            texts[op["name"]] = result["text"]
            results.append(result)
        elif kind == "replay":
            text = texts[op["source"]]
            results.append(timed(op["name"], lambda: c2.verify_certificate(
                c2.certificate_from_json(text), spec)[0]))
        elif kind == "corrupt":
            text = texts[op["source"]]
            rng = random.Random(op["seed"])
            n_steps = len(json.loads(text)["steps"])
            for idx in range(n_steps):
                pick = rng.random()
                factor = Fraction(rng.choice(op["multipliers"]))

                def corrupt(idx=idx, pick=pick, factor=factor):
                    cert = c2.certificate_from_json(text)
                    step = cert.steps[idx]
                    vec = list(step.vector)
                    t = int(pick * len(vec))
                    vec[t] = (vec[t][0] * factor, vec[t][1])
                    cert.steps[idx] = dataclasses.replace(step, vector=tuple(vec))
                    return c2.verify_certificate(cert, spec)[0]

                results.append(timed(f"{op['name']}_{idx}", corrupt))
        elif kind == "garbage":
            doc = json.loads(texts[op["source"]])
            doc["steps"][0]["claim"]["vector"] += op["suffix"]
            bad = json.dumps(doc)
            results.append(timed(op["name"], lambda: c2.verify_certificate(
                c2.certificate_from_json(bad), spec)[0]))
        elif kind == "plain_verify":
            report = json.loads(texts[op["source"]])["report"]

            def plain():
                assignment = {k: parse_poly(v) for k, v in report["assignment"].items()}
                assignment["dWW"] = Poly.const(-1)
                numeric["spec"] = singular.substitute_constants(spec, assignment)
                return singular.verify_singular_p2(numeric["spec"])[0]

            results.append(timed(op["name"], plain))
        elif kind == "perturb":
            table = singular.SingularTable()
            bad = table.replace(**{op["coefficient"]: getattr(table, op["coefficient"])
                                   + Fraction(op["delta"])})
            results.append(timed(op["name"], lambda: singular.verify_singular_p2(
                numeric["spec"], table=bad)[0]))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        for result in results[first:]:
            result["phase"] = op["phase"]
            result["op"] = op["name"]
            since_ref += result["seconds"]
        if task["refs"] and (since_ref >= REF_EVERY_S or op is task["ops"][-1]):
            refs.append((len(results), reference_loop()))
            since_ref = 0.0
    # an operation ran at the host speed of the two probes around it
    for i, result in enumerate(results):
        if refs:
            before = [t for n, t in refs if n <= i][-1]
            after = next(t for n, t in refs if n > i)
            result["ref_s"] = (before + after) / 2
    return results


def main() -> int:
    task = json.loads(sys.argv[1])
    src = os.path.join(task["root"], "src")
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    ref_before = reference_loop() if task["mode"] == "setup" else None
    start = time.perf_counter()
    import walgebra
    from walgebra import cli
    from walgebra.singular import load_triplet_p2_spec

    if not os.path.abspath(walgebra.__file__).startswith(src + os.sep):
        print(f"walgebra imported from {walgebra.__file__}, not {src}", file=sys.stderr)
        return 3
    mode = task["mode"]
    if mode == "setup":
        load_triplet_p2_spec()
        setup_s = time.perf_counter() - start
        ref_s = (ref_before + reference_loop()) / 2
        print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))
        return 0
    tracer = counts = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "counted":
        from tracing import install_poly_counters

        counts = install_poly_counters()
    spec = load_triplet_p2_spec()
    results = run_pass(task, cli, spec, tracer)
    out = {"results": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        with open(task["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    if counts is not None:
        out["poly_counts"] = counts
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
