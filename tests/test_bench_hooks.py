"""The names the benchmark reaches into walgebra by still resolve.

`bench/tracing.py` wraps the layer boundaries it lists in `BOUNDARIES`, and
`bench/worker.py` calls library functions directly; a renamed or removed
target would otherwise only show up when `bench/run.py --trace 1` runs.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


def _resolve(module_name: str, path: str):
    obj = importlib.import_module(module_name)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = _tracing().BOUNDARIES


@pytest.mark.parametrize("module_name, path", [(m, p) for _, m, p, _ in BOUNDARIES],
                         ids=[name for name, _, _, _ in BOUNDARIES])
def test_traced_boundary_resolves(module_name, path):
    assert callable(_resolve(module_name, path))


WORKER_CALLS = [
    ("walgebra.c2", "CertificateError"),
    ("walgebra.c2", "certificate_from_json"),
    ("walgebra.c2", "verify_certificate"),
    ("walgebra.singular", "SingularTable.replace"),
    ("walgebra.singular", "substitute_constants"),
    ("walgebra.singular", "verify_singular_p2"),
    ("walgebra.singular", "load_triplet_p2_spec"),
    ("walgebra.scalar", "Poly.const"),
    ("walgebra.scalar", "parse_poly"),
    ("walgebra.cli", "main"),
]


@pytest.mark.parametrize("module_name, path", WORKER_CALLS,
                         ids=[f"{m}.{p}" for m, p in WORKER_CALLS])
def test_worker_call_resolves(module_name, path):
    assert callable(_resolve(module_name, path))


# The imports `bench/worker.py` makes before a traced pass installs the
# tracer, which looks each boundary's module up in `sys.modules`.
TRACED_WORKER = textwrap.dedent("""
    import json, sys
    sys.path[:0] = sys.argv[1:3]
    import walgebra
    from walgebra import cli
    from walgebra.singular import load_triplet_p2_spec
    from tracing import BOUNDARIES, Tracer

    tracer = Tracer()
    tracer.install()
    unwrapped = []
    for name, module_name, path, _ in BOUNDARIES:
        obj = sys.modules[module_name]
        for attr in path.split("."):
            obj = getattr(obj, attr)
        if obj.__qualname__ != "Tracer._wrap.<locals>.traced":
            unwrapped.append(name)
    load_triplet_p2_spec()
    print(json.dumps({"unwrapped": unwrapped,
                      "spans": sorted({span[0] for span in tracer.spans})}))
""")


def test_tracer_installs_after_the_worker_imports():
    # the boundaries above resolve when this test imports each module itself;
    # here only the worker's own imports have run, in an isolated interpreter
    # as the worker's, so a module they no longer load fails the install
    proc = subprocess.run(
        [sys.executable, "-I", "-c", TRACED_WORKER, str(SRC), str(BENCH)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["unwrapped"] == []
    # the wrappers are live; the script's own name for the loader was bound
    # before the install, as the worker's is, so only the call inside it shows
    assert result["spans"] == ["algebra.load_spec"]
