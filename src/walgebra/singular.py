"""The six explicit weight-6 singular vectors of the c = -2 triplet algebra.

The coefficient table is published; the [W,W] structure constants are not.
``verify_singular_p2`` checks that the positive modes L_1 and L_2 annihilate
every table vector with numeric constants supplied by the algebra spec;
``solve_structure_constants`` treats the constants as unknowns and solves
the annihilation equations for them.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .algebra import AlgebraSpec, FrozenRecord, Mode, load_spec
from .engine import Engine, State
from .scalar import Poly, SolveError, exact, render_poly, solve_linear

EPSILON = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (3, 2, 1): -1, (2, 1, 3): -1, (1, 3, 2): -1,
}


class SingularTable(FrozenRecord):
    """Coefficients of the level-6 singular vectors
    N^ab = W^a_{-3} W^b_{-3} O - delta_ab (c1 L_{-2}^3 + c2 L_{-3}^2
         + c3 L_{-4} L_{-2} - c4 L_{-6}) O
         + I eps_abc (-c5 W^c_{-4} L_{-2} + c6 W^c_{-6}) O."""

    __slots__ = _fields = ("c1", "c2", "c3", "c4", "c5", "c6")

    def __init__(self, c1: int | Fraction = Fraction(8, 9),
                 c2: int | Fraction = Fraction(19, 36),
                 c3: int | Fraction = Fraction(14, 9),
                 c4: int | Fraction = Fraction(16, 9),
                 c5: int | Fraction = 2,
                 c6: int | Fraction = Fraction(5, 4)):
        # stored exactly through scalar.exact: a float raises TypeError
        for name, value in zip(self._fields, (c1, c2, c3, c4, c5, c6)):
            object.__setattr__(self, name, exact(value))

    replace = FrozenRecord._replace


DEFAULT_TABLE = SingularTable()


def load_triplet_p2_spec() -> AlgebraSpec:
    """The packaged c = -2 triplet spec (symbolic [W,W] constants)."""
    text = resources.files("walgebra.specs").joinpath("triplet_p2.json").read_text()
    return load_spec(text)


def _w(a: int, n: int) -> Mode:
    return Mode(f"W{a}", n)


def _t(n: int) -> Mode:
    return Mode("T", n)


def null_vector_terms(a: int, b: int, table: SingularTable = DEFAULT_TABLE
                      ) -> tuple[tuple[Poly, tuple[Mode, ...]], ...]:
    """The table vector N^ab as (coefficient, mode sequence) terms; the one
    place the table coefficients become vectors."""
    t = table
    terms = [(Poly.const(1), (_w(a, -3), _w(b, -3)))]
    if a == b:
        terms += [
            (Poly.const(-t.c1), (_t(-2), _t(-2), _t(-2))),
            (Poly.const(-t.c2), (_t(-3), _t(-3))),
            (Poly.const(-t.c3), (_t(-4), _t(-2))),
            (Poly.const(t.c4), (_t(-6),)),
        ]
    for c in (1, 2, 3):
        eps = EPSILON.get((a, b, c))
        if eps:
            iota = Poly.sym("I") * eps
            terms += [
                (iota * (-t.c5), (_w(c, -4), _t(-2))),
                (iota * t.c6, (_w(c, -6),)),
            ]
    return tuple(terms)


def annihilation_states(engine: Engine, table: SingularTable = DEFAULT_TABLE
                        ) -> dict[tuple[int, int, int], State]:
    """L_m N^ab for m in {1, 2} and all nine (a, b), as full States.

    L_m N^ab is evaluated term by term as the sum of c * L_m seq |0> over the
    terms (c, seq) of N^ab, so the engine memoizes each normal order once and
    a new table only re-weights them."""
    out = {}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            terms = null_vector_terms(a, b, table)
            for m in (1, 2):
                lead = (_t(m),)
                out[(m, a, b)] = engine.evaluate((c, lead + seq) for c, seq in terms)
    return out


def _symbolic_constants(spec: AlgebraSpec) -> list[str]:
    """The symbols of the spec's structure constants, I aside, sorted."""
    return sorted({s for v in spec.constants.values() for s in v.symbols()} - {"I"})


class SolveReport(NamedTuple):
    consistent: bool
    assignment: dict[str, Poly]
    free: list[str]
    detail: str

    def to_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "assignment": {k: render_poly(v) for k, v in
                           sorted(self.assignment.items())},
            "free": list(self.free),
            "detail": self.detail,
        }


def solve_structure_constants(spec: AlgebraSpec,
                              table: SingularTable = DEFAULT_TABLE) -> SolveReport:
    """Treat the symbolic [W,W] constants as unknowns and solve the
    annihilation equations of the table vectors."""
    unknowns = _symbolic_constants(spec)
    if not unknowns:
        raise SolveError("spec has no symbolic structure constants to solve for")
    equations = []
    for state in annihilation_states(spec.engine, table).values():
        equations.extend(state.terms().values())
    try:
        assignment = solve_linear(equations, unknowns)
    except SolveError as exc:
        return SolveReport(False, {}, exc.free, str(exc))
    nonzero = any(not v.is_zero() for v in assignment.values())
    detail = "annihilation equations admit a unique solution"
    if not nonzero:
        detail = "only the zero solution exists"
    return SolveReport(nonzero, assignment, [], detail)


def substitute_constants(spec: AlgebraSpec, assignment: dict[str, Poly]
                         ) -> AlgebraSpec:
    """New spec with structure constants (and pairings) substituted."""
    return AlgebraSpec(
        central_charge=spec.central_charge,
        generators=spec.generators,
        d={k: v.substitute(assignment) for k, v in spec.d.items()},
        constants={k: v.substitute(assignment) for k, v in spec.constants.items()},
        composites=dict(spec.composites),
        c_lower={k: v.substitute(assignment) for k, v in spec.c_lower.items()},
    )


def verify_singular_p2(spec: AlgebraSpec, *, table: SingularTable = DEFAULT_TABLE):
    """Check L_1 and L_2 annihilate all nine N^ab exactly; the spec constants
    must be numeric.  The result is a (bool, report-dict)."""
    symbolic = _symbolic_constants(spec)
    if symbolic:
        raise SolveError(
            f"spec carries symbolic constants {symbolic}; "
            "supply numeric values or use solve mode"
        )
    failures = {}
    for (m, a, b), state in annihilation_states(spec.engine, table).items():
        if state:
            failures[f"L{m} N{a}{b}"] = state.render()
    return not failures, {"failures": failures}
