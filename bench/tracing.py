"""Spans around walgebra's layer boundaries, and call counts in its scalars.

A traced pass replaces each boundary function with a wrapper that records a
span ``[name, start, end, parent, job, count]`` in memory; the worker writes
the spans out when the pass ends and ``layer_metrics`` turns them into the
per-layer metrics.  ``count`` holds a work count taken from the result (words
returned, coefficients produced, steps replayed).

The scalar counters wrap ``Poly.__add__`` and ``Poly.__mul__`` on every
call.  That would swamp the spans, so they run in a pass of their own.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from statistics import median_low


def _words(state) -> int:
    return len(state.terms())


def _coeffs(series) -> int:
    return len(series.coeffs)


def _kept_dropped(pair) -> list[int]:
    kept, dropped = pair
    return [len(kept.terms()), len(dropped.terms())]


def _steps(result) -> int:
    return len(result[1])


def _equations(states) -> int:
    return sum(len(s.terms()) for s in states.values())


# (span name, module, attribute path, count taken from the result).  A
# module-level function is replaced wherever walgebra imported it by name;
# the entry points the CLI calls are wrapped so that cli.main's self time is
# argument parsing, rendering and file output only.
BOUNDARIES = [
    ("cli.main", "walgebra.cli", "main", None),
    ("scalar.solve_linear", "walgebra.scalar", "solve_linear", None),
    ("algebra.load_spec", "walgebra.algebra", "load_spec", None),
    ("algebra.make_derivation_spec", "walgebra.algebra", "make_derivation_spec", None),
    ("algebra.bracket", "walgebra.algebra", "bracket", None),
    ("engine.apply_mode", "walgebra.engine", "Engine.apply_mode", _words),
    ("engine.field_mode_apply", "walgebra.engine", "Engine.field_mode_apply", _words),
    ("engine.normal_order", "walgebra.engine", "Engine.normal_order", _words),
    ("engine.qp_nop", "walgebra.engine", "Engine.qp_nop", None),
    ("derivation.project_with_audit", "walgebra.derivation", "project_with_audit",
     _kept_dropped),
    ("derivation.alpha_nonzero_report", "walgebra.derivation", "alpha_nonzero_report",
     None),
    ("derivation.report", "walgebra.derivation", "Derivation.report", None),
    ("derivation.beta_gamma_ww", "walgebra.derivation", "Derivation.beta_gamma_ww", None),
    ("derivation.solve_B_quasiprimary", "walgebra.derivation",
     "Derivation.solve_B_quasiprimary", None),
    ("derivation.gamma_sum", "walgebra.derivation", "Derivation.gamma_sum", None),
    ("derivation.descend_and_solve_xi", "walgebra.derivation",
     "Derivation.descend_and_solve_xi", None),
    ("derivation.solve_B_primary", "walgebra.derivation", "Derivation.solve_B_primary",
     None),
    ("qseries.inverse", "walgebra.qseries", "QSeries.inverse", _coeffs),
    ("qseries.mul", "walgebra.qseries", "QSeries.__mul__", _coeffs),
    ("qseries.phi_trunc", "walgebra.qseries", "phi_trunc", _coeffs),
    ("qseries.verma_character", "walgebra.qseries", "verma_character", None),
    ("qseries.triplet_character", "walgebra.qseries", "triplet_character", None),
    ("qseries.chi_tilde", "walgebra.qseries", "chi_tilde", None),
    ("qseries.diff_at_level", "walgebra.qseries", "diff_at_level", None),
    ("c2.certify", "walgebra.c2", "certify_triplet_p2", None),
    ("c2.to_json", "walgebra.c2", "certificate_to_json", None),
    ("c2.from_json", "walgebra.c2", "certificate_from_json", None),
    ("c2.verify", "walgebra.c2", "verify_certificate", _steps),
    ("singular.load_triplet_p2_spec", "walgebra.singular", "load_triplet_p2_spec", None),
    ("singular.annihilation_states", "walgebra.singular", "annihilation_states",
     _equations),
    ("singular.solve_structure_constants", "walgebra.singular",
     "solve_structure_constants", None),
    ("singular.verify_singular_p2", "walgebra.singular", "verify_singular_p2", None),
    ("singular.substitute_constants", "walgebra.singular", "substitute_constants", None),
]


class Tracer:
    """Records spans of the boundary calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "walgebra" or n.startswith("walgebra.")]
        for name, module_name, path, count in BOUNDARIES:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(name, getattr(cls, attr), count))
                continue
            fn = getattr(owner, path)
            wrapper = self._wrap(name, fn, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)


def install_poly_counters() -> dict[str, int]:
    """Count Poly additions and multiplications, and the calls whose two
    operands are both constants.  Returns the live counter dict."""
    from walgebra.scalar import Poly

    counts = {"mul": 0, "mul_const": 0, "add": 0, "add_const": 0}
    plain_mul, plain_add = Poly.__mul__, Poly.__add__

    def constant(x) -> bool:
        return isinstance(x, (int, Fraction)) or (isinstance(x, Poly) and x.is_const())

    def mul(self, other):
        counts["mul"] += 1
        if self.is_const() and constant(other):
            counts["mul_const"] += 1
        return plain_mul(self, other)

    def add(self, other):
        counts["add"] += 1
        if self.is_const() and constant(other):
            counts["add_const"] += 1
        return plain_add(self, other)

    Poly.__mul__ = Poly.__rmul__ = mul
    Poly.__add__ = Poly.__radd__ = add
    return counts


# --- per-layer metrics ------------------------------------------------------------

SELF_TIME_METRICS = {
    "scalar.solve_linear_s": "scalar.solve_linear",
    "algebra.bracket_s": "algebra.bracket",
    "algebra.load_spec_s": "algebra.load_spec",
    "engine.apply_mode_s": "engine.apply_mode",
    "engine.field_mode_apply_s": "engine.field_mode_apply",
    "engine.normal_order_s": "engine.normal_order",
    "engine.qp_nop_s": "engine.qp_nop",
    "qseries.inverse_s": "qseries.inverse",
    "qseries.mul_s": "qseries.mul",
    "qseries.phi_trunc_s": "qseries.phi_trunc",
    "c2.certify_s": "c2.certify",
    "c2.to_json_s": "c2.to_json",
    "c2.from_json_s": "c2.from_json",
    "c2.verify_s": "c2.verify",
    "singular.annihilation_states_s": "singular.annihilation_states",
    "cli.self_s": "cli.main",
}

# The derivation stages are timed in the p = 5 job only.
STAGE_METRICS = {
    f"derivation.{stage}_s": f"derivation.{stage}"
    for stage in ("beta_gamma_ww", "solve_B_quasiprimary", "gamma_sum",
                  "descend_and_solve_xi", "solve_B_primary")
}
STAGE_JOB = "derive_p5"

COUNT_METRICS = {
    "scalar.poly_mul_calls": "mul",
    "scalar.poly_mul_const_pairs": "mul_const",
    "scalar.poly_add_calls": "add",
    "scalar.poly_add_const_pairs": "add_const",
}

PER_LAYER_UNITS = {
    **{name: "count" for name in COUNT_METRICS},
    **{name: "s" for name in SELF_TIME_METRICS},
    **{name: "s" for name in STAGE_METRICS},
    "algebra.bracket_calls": "count",
    "engine.words_out": "count",
    "derivation.words_kept": "count",
    "derivation.words_dropped": "count",
    "derivation.keep_ratio": "ratio",
    "qseries.coeffs_out": "count",
    "c2.steps_replayed": "count",
    "singular.equations": "count",
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def pass_layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (counts and self times)."""
    own = self_times(spans)
    out = {name: 0.0 for name in SELF_TIME_METRICS}
    out.update({name: 0.0 for name in STAGE_METRICS})
    by_span = {v: k for k, v in SELF_TIME_METRICS.items()}
    by_stage = {v: k for k, v in STAGE_METRICS.items()}
    counts = {"algebra.bracket_calls": 0, "engine.words_out": 0,
              "derivation.words_kept": 0, "derivation.words_dropped": 0,
              "qseries.coeffs_out": 0, "c2.steps_replayed": 0,
              "singular.equations": 0}
    for span, t in zip(spans, own):
        name, _, _, parent, job, count = span
        if name in by_span:
            out[by_span[name]] += t
        if job == STAGE_JOB and name in by_stage:
            out[by_stage[name]] += t
        if name == "algebra.bracket":
            counts["algebra.bracket_calls"] += 1
        elif name.startswith("engine.") and count is not None:
            # words leaving the engine: skip calls made by another engine call
            if parent < 0 or not spans[parent][0].startswith("engine."):
                counts["engine.words_out"] += count
        elif name == "derivation.project_with_audit" and job == STAGE_JOB:
            counts["derivation.words_kept"] += count[0]
            counts["derivation.words_dropped"] += count[1]
        elif name.startswith("qseries.") and count is not None:
            counts["qseries.coeffs_out"] += count
        elif name == "c2.verify":
            counts["c2.steps_replayed"] += count
        elif name == "singular.annihilation_states":
            counts["singular.equations"] += count
    out.update(counts)
    total = counts["derivation.words_kept"] + counts["derivation.words_dropped"]
    out["derivation.keep_ratio"] = counts["derivation.words_kept"] / total if total else 0.0
    return out


def layer_metrics(passes: list[list[list]], poly_counts: dict[str, int]
                  ) -> dict[str, float]:
    """Median over traced passes of each per-layer metric (the lower middle
    value, so that counts stay whole), plus the counts of the counted pass."""
    per_pass = [pass_layer_metrics(spans) for spans in passes]
    out = {name: median_low(m[name] for m in per_pass) for name in per_pass[0]}
    out.update({name: poly_counts[key] for name, key in COUNT_METRICS.items()})
    return out
