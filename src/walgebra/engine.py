"""PBW normal ordering on the vacuum module and composite-field mode evaluation.

States are finite linear combinations of canonical words of creation modes
applied to the vacuum.  A word is canonical when its physics indices are
nondecreasing left to right, ties broken by generator declaration order,
and every mode satisfies n <= -weight.  The leftmost mode acts last.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .algebra import (
    AlgebraSpec,
    Derivative,
    FieldExpr,
    FieldRef,
    Identity,
    LinComb,
    Mode,
    Nprod,
    QPNop,
    SpecError,
    bracket,
    expr_weight,
)
from .scalar import Poly, binom_int, render_poly

Word = tuple[Mode, ...]


def word_weight(word: Word) -> int:
    return sum(-m.n for m in word)


class State:
    """Finite Poly-linear combination of canonical PBW words."""

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[Word, Poly] | None = None):
        t: dict[Word, Poly] = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    t[word] = coeff
        self._t = t

    @classmethod
    def vacuum(cls) -> "State":
        return cls({(): Poly.const(1)})

    @classmethod
    def from_word(cls, word: Word, coeff=1) -> "State":
        c = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
        return cls({tuple(word): c})

    def terms(self) -> dict[Word, Poly]:
        return dict(self._t)

    def coeff(self, word: Word) -> Poly:
        return self._t.get(tuple(word), Poly.zero())

    def words(self) -> list[Word]:
        return sorted(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        return isinstance(other, State) and self._t == other._t

    def __add__(self, other: "State") -> "State":
        t = dict(self._t)
        for word, coeff in other._t.items():
            acc = t.get(word)
            coeff = coeff if acc is None else acc + coeff
            if coeff:
                t[word] = coeff
            elif word in t:
                del t[word]
        out = State.__new__(State)
        out._t = t
        return out

    def __sub__(self, other: "State") -> "State":
        return self + other.scale(-1)

    def scale(self, factor) -> "State":
        f = factor if isinstance(factor, Poly) else Poly.const(factor)
        if not f:
            return State()
        out = State.__new__(State)
        out._t = {w: c * f for w, c in self._t.items()}
        out._t = {w: c for w, c in out._t.items() if c}
        return out

    def substitute(self, assignment) -> "State":
        return State({w: c.substitute(assignment) for w, c in self._t.items()})

    def max_weight(self) -> int:
        return max((word_weight(w) for w in self._t), default=0)

    def render(self) -> str:
        if not self._t:
            return "0"
        bits = []
        for word in sorted(self._t, key=lambda w: (word_weight(w), len(w), w)):
            c = render_poly(self._t[word])
            mods = "".join(m.render() + " " for m in word)
            bits.append(f"({c}) {mods}|0>")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"State<{self.render()}>"


def project_with_audit(state: State, min_length: int) -> tuple[State, State]:
    """Split a state into the words made of at least `min_length` modes and
    the discarded remainder, kept for length-discipline audits."""
    kept = {w: c for w, c in state._t.items() if len(w) >= min_length}
    dropped = {w: c for w, c in state._t.items() if len(w) < min_length}
    return State(kept), State(dropped)


class Engine:
    """Rewriting engine bound to one algebra spec.

    Pure operations over immutable values; the internal memo tables are an
    invisible cache.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self._word_memo: dict[tuple[str, int, Word], dict] = {}
        self._field_memo: dict[tuple[FieldExpr, int, Word], dict] = {}
        self._qpnop_memo: dict[tuple[str, str, int], LinComb] = {}

    # --- mode application ----------------------------------------------------

    def apply_mode(self, mode: Mode, state: State) -> State:
        """Canonical form of mode * state."""
        out: dict[Word, Poly] = {}
        for word, coeff in state._t.items():
            for w, c in self._mode_on_word(mode, word).items():
                _acc(out, w, coeff * c)
        return State(out)

    def normal_order(self, word: Iterable[Mode]) -> State:
        """Apply a mode sequence right-to-left to the vacuum."""
        state = State.vacuum()
        for mode in reversed(list(word)):
            state = self.apply_mode(mode, state)
            if not state:
                break
        return state

    def _mode_on_word(self, mode: Mode, word: Word) -> dict:
        spec = self.spec
        if not spec.is_generator(mode.field):
            expr = spec.composite_expr(mode.field)
            return self._field_on_word(expr, mode.n, word)
        key = (mode.field, mode.n, word)
        hit = self._word_memo.get(key)
        if hit is not None:
            return hit
        h = spec.weight_of(mode.field)
        if not word:
            result = {} if mode.n > -h else {(mode,): Poly.const(1)}
        else:
            lead = word[0]
            lead_key = (lead.n, spec.rank(lead.field))
            mode_key = (mode.n, spec.rank(mode.field))
            if mode.n <= -h and mode_key <= lead_key:
                result = {(mode,) + word: Poly.const(1)}
            else:
                rest = word[1:]
                result = {}
                # mode * lead = lead * mode + [mode, lead]
                inner = self._mode_on_word(mode, rest)
                for w, c in inner.items():
                    for w2, c2 in self._mode_on_word(lead, w).items():
                        _acc(result, w2, c * c2)
                ops = bracket(mode, Mode(lead.field, lead.n), spec)
                for coeff, out_mode in ops.terms:
                    for w, c in self._mode_on_word(out_mode, rest).items():
                        _acc(result, w, coeff * c)
                if ops.central:
                    _acc(result, rest, ops.central)
                result = {w: c for w, c in result.items() if c}
        self._word_memo[key] = result
        return result

    # --- composite fields ------------------------------------------------------

    def field_mode_apply(self, expr: FieldExpr, n: int, state: State) -> State:
        """Apply the physics-index-n mode of a field expression to a state.

        The bilinear sums truncate exactly: on a lower-truncated module only
        finitely many summands act nontrivially.
        """
        out: dict[Word, Poly] = {}
        for word, coeff in state._t.items():
            for w, c in self._field_on_word(expr, n, word).items():
                _acc(out, w, coeff * c)
        return State(out)

    def _field_on_word(self, expr: FieldExpr, n: int, word: Word) -> dict:
        key = (expr, n, word)
        hit = self._field_memo.get(key)
        if hit is not None:
            return hit
        result = self._field_on_word_uncached(expr, n, word)
        self._field_memo[key] = result
        return result

    def _field_on_word_uncached(self, expr: FieldExpr, n: int, word: Word) -> dict:
        spec = self.spec
        if isinstance(expr, FieldRef):
            if spec.is_generator(expr.symbol):
                return self._mode_on_word(Mode(expr.symbol, n), word)
            return self._field_on_word(spec.composite_expr(expr.symbol), n, word)
        if isinstance(expr, Identity):
            return {word: Poly.const(1)} if n == 0 else {}
        if isinstance(expr, Derivative):
            h = expr_weight(expr.base, spec)
            factor = Fraction(1)
            for u in range(expr.order):
                factor *= -(n + h + u)
            if not factor:
                return {}
            inner = self._field_on_word(expr.base, n, word)
            return {w: c * factor for w, c in inner.items()}
        if isinstance(expr, LinComb):
            out: dict[Word, Poly] = {}
            for coeff, part in expr.parts:
                for w, c in self._field_on_word(part, n, word).items():
                    _acc(out, w, coeff * c)
            return {w: c for w, c in out.items() if c}
        if isinstance(expr, QPNop):
            return self._field_on_word(self.qp_nop(expr.j, expr.i, expr.n), n, word)
        if isinstance(expr, Nprod):
            wmax = word_weight(word)
            out = {}
            # sum_{k < m} phi_{n+k} psi_{-k}: psi acts first
            for k in range(-wmax, expr.m):
                inner = self._field_on_word(expr.right, -k, word)
                for w1, c1 in inner.items():
                    for w2, c2 in self._field_on_word(expr.left, n + k, w1).items():
                        _acc(out, w2, c1 * c2)
            # sum_{k >= m} psi_{-k} phi_{n+k}: phi acts first
            for k in range(expr.m, wmax - n + 1):
                inner = self._field_on_word(expr.left, n + k, word)
                for w1, c1 in inner.items():
                    for w2, c2 in self._field_on_word(expr.right, -k, w1).items():
                        _acc(out, w2, c1 * c2)
            return {w: c for w, c in out.items() if c}
        raise TypeError(f"not a field expression: {expr!r}")

    # --- quasi-primary normal-ordered products ---------------------------------

    def qp_nop(self, j: str, i: str, n: int = 0) -> LinComb:
        """Quasi-primary normal-ordered product of declared fields, as a
        linear combination of derivative/bilinear terms plus the declared
        correction channels."""
        key = (j, i, n)
        hit = self._qpnop_memo.get(key)
        if hit is None:
            hit = LinComb(
                tuple(self.qp_nop_plain(j, i, n).parts)
                + tuple(self.qp_nop_corrections(j, i, n).parts)
            )
            self._qpnop_memo[key] = hit
        return hit

    def qp_nop_plain(self, j: str, i: str, n: int = 0) -> LinComb:
        """The derivative-corrected bilinear part (no channel corrections)."""
        spec = self.spec
        hi = spec.weight_of(i)
        hj = spec.weight_of(j)
        parts = []
        for r in range(n + 1):
            coeff = (
                Fraction((-1) ** r)
                * binom_int(n, r)
                * binom_int(2 * hi + n - 1, r)
                / binom_int(2 * (hi + hj + n - 1), r)
            )
            if not coeff:
                continue
            core: FieldExpr = Nprod(
                hi + n + r,
                FieldRef(j),
                Derivative(FieldRef(i), n - r) if n - r else FieldRef(i),
            )
            if r:
                core = Derivative(core, r)
            parts.append((Poly.const(coeff), core))
        return LinComb(tuple(parts))

    def qp_nop_corrections(self, j: str, i: str, n: int = 0) -> LinComb:
        """The declared-channel corrections that restore quasi-primarity."""
        spec = self.spec
        hi = spec.weight_of(i)
        hj = spec.weight_of(j)
        parts = []
        for k, value in spec.channels(i, j):
            hk = spec.weight_of(k)
            h = hi + hj - hk
            sigma = hi + hj + hk - 1
            if h == 1:
                if value:
                    raise SpecError(
                        f"channel ({i},{j},{k}) has h(ijk)=1; the correction "
                        "coefficient is singular there"
                    )
                continue
            coeff = (
                -Fraction((-1) ** n)
                * binom_int(h + n - 1, n)
                * binom_int(2 * hi + n - 1, h + n)
                / binom_int(2 * (hi + hj + n - 1), n)
                / binom_int(sigma - 1, h - 1)
                / ((sigma + n) * (h - 1))
            )
            if not coeff:
                continue
            parts.append((value * coeff, Derivative(FieldRef(k), h + n)))
        return LinComb(tuple(parts))


def _acc(table: dict, word: Word, coeff: Poly) -> None:
    acc = table.get(word)
    coeff = coeff if acc is None else acc + coeff
    if coeff:
        table[word] = coeff
    elif word in table:
        del table[word]
