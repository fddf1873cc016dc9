"""The six explicit weight-6 singular vectors of the c = -2 triplet algebra.

The coefficient table is published; the [W,W] structure constants are not.
``verify_singular_p2`` checks that the positive modes L_1 and L_2 annihilate
every table vector with numeric constants supplied by the algebra spec;
``solve_structure_constants`` treats the constants as unknowns and solves
the annihilation equations for them.  A table builds its nine vectors once,
on first use, and keeps them: the coefficient Polys are made once and the
mode words are module constants.
"""

from __future__ import annotations

import os
from collections import namedtuple
from fractions import Fraction

from .algebra import AlgebraSpec, Mode, Record, load_spec
from .engine import Engine, State
from .scalar import Poly, SolveError, exact, render_poly, solve_linear

EPSILON = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (3, 2, 1): -1, (2, 1, 3): -1, (1, 3, 2): -1,
}


class SingularTable(Record):
    """Coefficients of the level-6 singular vectors
    N^ab = W^a_{-3} W^b_{-3} O - delta_ab (c1 L_{-2}^3 + c2 L_{-3}^2
         + c3 L_{-4} L_{-2} - c4 L_{-6}) O
         + I eps_abc (-c5 W^c_{-4} L_{-2} + c6 W^c_{-6}) O;
    each coefficient left out takes its published value.  The nine vectors
    are built on first use and kept on the table, which never changes."""

    _fields = ("c1", "c2", "c3", "c4", "c5", "c6")
    __slots__ = _fields + ("_vectors",)
    _defaults = {"c1": Fraction(8, 9), "c2": Fraction(19, 36), "c3": Fraction(14, 9),
                 "c4": Fraction(16, 9), "c5": 2, "c6": Fraction(5, 4)}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # stored exactly through scalar.exact: a float raises TypeError
        for name in self._fields:
            object.__setattr__(self, name, exact(getattr(self, name)))
        object.__setattr__(self, "_vectors", None)

    replace = Record._replace


DEFAULT_TABLE = SingularTable()


def load_triplet_p2_spec() -> AlgebraSpec:
    """The packaged c = -2 triplet spec (symbolic [W,W] constants), read from
    the `specs` directory next to this module."""
    path = os.path.join(os.path.dirname(__file__), "specs", "triplet_p2.json")
    with open(path, encoding="utf-8") as fh:
        return load_spec(fh.read())


# the mode words of the table vectors, shared by every table
_T = {n: Mode("T", n) for n in (-2, -3, -4, -6)}
_W = {(a, n): Mode(f"W{a}", n) for a in (1, 2, 3) for n in (-3, -4, -6)}
_DIAGONAL = ((_T[-2], _T[-2], _T[-2]), (_T[-3], _T[-3]), (_T[-4], _T[-2]), (_T[-6],))
_TAIL = {c: ((_W[c, -4], _T[-2]), (_W[c, -6],)) for c in (1, 2, 3)}


def _null_vectors(t: SingularTable) -> dict[tuple[int, int], tuple]:
    """The nine N^ab of a table, each as its (coefficient, mode sequence)
    terms."""
    one = Poly.const(1)
    diagonal = tuple(zip((-Poly.const(t.c1), -Poly.const(t.c2), -Poly.const(t.c3),
                          Poly.const(t.c4)), _DIAGONAL))
    i5, i6 = Poly.sym("I") * t.c5, Poly.sym("I") * t.c6
    # the coefficients of the epsilon tail, by the sign of eps_abc
    tail = {1: (-i5, i6), -1: (i5, -i6)}
    out = {}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            terms = ((one, (_W[a, -3], _W[b, -3])),)
            if a == b:
                terms += diagonal
            else:
                c = 6 - a - b
                terms += tuple(zip(tail[EPSILON[a, b, c]], _TAIL[c]))
            out[a, b] = terms
    return out


def null_vector_terms(a: int, b: int, table: SingularTable = DEFAULT_TABLE
                      ) -> tuple[tuple[Poly, tuple[Mode, ...]], ...]:
    """The table vector N^ab, for a and b in 1..3, as (coefficient, mode
    sequence) terms; the one place the table coefficients become vectors.
    A table builds its nine vectors on the first call and keeps them."""
    vectors = table._vectors
    if vectors is None:
        vectors = _null_vectors(table)
        object.__setattr__(table, "_vectors", vectors)
    return vectors[a, b]


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
                lead = (Mode("T", m),)
                out[(m, a, b)] = engine.evaluate((c, lead + seq) for c, seq in terms)
    return out


def _symbolic_constants(spec: AlgebraSpec) -> list[str]:
    """The symbols of the spec's structure constants, I aside, sorted."""
    return sorted({s for v in spec.constants.values() for s in v.symbols()} - {"I"})


class SolveReport(namedtuple("SolveReport", "consistent assignment free detail")):
    __slots__ = ()

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
