"""Shared helpers for the tests: the math-convention mode identities, and
small constructors and comparisons that only tests use."""

from fractions import Fraction
from math import floor

from walgebra.algebra import (
    Derivative,
    FieldExpr,
    FieldRef,
    Identity,
    LinComb,
    Mode,
    Nprod,
    expr_weight,
)
from walgebra.engine import State
from walgebra.qseries import QSeries, QSeriesError
from walgebra.scalar import Poly


def T(n):
    return Mode("T", n)


def from_word(word, coeff=1) -> State:
    """The state coeff * word, for a canonical word."""
    c = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
    return State({tuple(word): c})


def agrees_with(a: QSeries, b: QSeries, through: Fraction) -> bool:
    """Whether two q-series agree at every lattice exponent <= `through`; a
    range past either series' validity is refused."""
    offset, xs, ys = QSeries._aligned(a, b)
    count = max(floor(Fraction(through) - offset) + 1, 0)
    if count > len(xs):
        raise QSeriesError("agreement range exceeds validity")
    return xs[:count] == ys[:count]


def virasoro_words(max_weight):
    """All canonical creation words over T (partitions into parts >= 2)."""
    words = []

    def rec(remaining, parts):
        if parts:
            words.append(tuple(T(-k) for k in parts))
        for k in range(2, remaining + 1):
            if not parts or k <= parts[-1]:
                rec(remaining - k, parts + [k])

    rec(max_weight, [])
    return words


def basis_states(max_weight):
    return [()] + virasoro_words(max_weight)


def math_apply(engine, expr, math_n, state):
    """Apply the math-index-n mode of a field expression."""
    h = expr_weight(expr, engine.spec)
    return engine.field_mode_apply(expr, math_n - h + 1, state)


def _fact(j):
    out = 1
    for k in range(2, j + 1):
        out *= k
    return out


def omega_mode_field(math_m):
    """Field of the state omega_m omega (math index m applied to the
    conformal vector).  None encodes the zero field."""
    c = Poly.sym("c")
    if math_m >= 4 or math_m == 2:
        return None
    if math_m == 3:
        return LinComb(((c * Fraction(1, 2), Identity()),))
    if math_m == 1:
        return LinComb(((Poly.const(2), FieldRef("T")),))
    if math_m == 0:
        return Derivative(FieldRef("T"), 1)
    j = -math_m - 1
    inner = Derivative(FieldRef("T"), j) if j else FieldRef("T")
    return LinComb(
        ((Poly.const(Fraction(1, _fact(j))), Nprod(j + 2, FieldRef("T"), inner)),)
    )


def nprod_tower(height: int) -> FieldExpr:
    """Nested bilinear product of `height` copies of T, evaluated exactly.

    The reference for `TopPower("T", height)`: on the vacuum the two agree on
    every word of length >= height, since the quasi-primary corrections that
    the tower leaves out only produce strictly shorter words.
    """
    expr: FieldExpr = FieldRef("T")
    weight = 2
    for _ in range(height - 1):
        expr = Nprod(weight, FieldRef("T"), expr)
        weight += 2
    return expr
