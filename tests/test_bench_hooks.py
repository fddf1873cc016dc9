"""The names the benchmark reaches into walgebra by still resolve.

`bench/tracing.py` wraps the layer boundaries it lists in `BOUNDARIES`, and
`bench/worker.py` calls library functions directly; a renamed or removed
target would otherwise only show up when `bench/run.py --trace 1` runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
