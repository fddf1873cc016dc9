"""PBW normal ordering on the vacuum module and composite-field mode evaluation.

States are finite linear combinations of canonical words of creation modes
applied to the vacuum.  A word is canonical when its physics indices are
nondecreasing left to right, ties broken by generator declaration order,
and every mode satisfies n <= -weight.  The leftmost mode acts last.

A mode application and `Engine.evaluate` gather the (coefficient, factor)
pairs that reach each output word and sum them once, in integers, with
`scalar.sum_products`; a word whose sum is zero is dropped.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import groupby
from math import factorial

from .algebra import (
    AlgebraSpec,
    Derivative,
    FieldExpr,
    Identity,
    LinComb,
    Mode,
    Nprod,
    OperatorSum,
    QPNop,
    SpecError,
    TopPower,
    bracket,
    commutator,
    expr_weight,
)
from .scalar import Poly, binom_int, exact, render_poly, sum_products

Word = tuple[Mode, ...]


def word_weight(word: Word) -> int:
    return sum(-m.n for m in word)


def _acc(table: dict, word: Word, coeff) -> None:
    acc = table.get(word)
    coeff = coeff if acc is None else acc + coeff
    if coeff:
        table[word] = coeff
    elif word in table:
        del table[word]


def _summed(pairs: dict[Word, list]) -> State:
    """The State whose coefficient on each word is the sum of a * b over
    that word's (a, b) pairs, zero sums dropped."""
    t = {}
    for word, ab in pairs.items():
        c = sum_products(ab)
        if c:
            t[word] = c
    out = State.__new__(State)
    out._t = t
    return out


def _partitions(total: int, count: int, least: int,
                most: int) -> Iterator[tuple[int, ...]]:
    """The nonincreasing tuples of `count` parts in [least, most] that sum to
    `total`."""
    if count == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(most, total - least * (count - 1)), least - 1, -1):
        if first * count < total:
            break
        for rest in _partitions(total - first, count - 1, least, first):
            yield (first,) + rest


def _orderings(parts: tuple[int, ...]) -> int:
    """The number of distinct orderings of a nonincreasing tuple."""
    out = factorial(len(parts))
    for _, run in groupby(parts):
        out //= factorial(len(list(run)))
    return out


def render_terms(terms: Iterable[tuple[Poly, Word]]) -> str:
    """The text `(c) M(n) ... |0> + ...` of (coefficient, word) terms, in the
    order given; "0" for no terms."""
    bits = [f"({render_poly(c)}) {''.join(m.render() + ' ' for m in word)}|0>"
            for c, word in terms]
    return " + ".join(bits) or "0"


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
            _acc(t, word, coeff)
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
        return out

    def render(self) -> str:
        words = sorted(self._t, key=lambda w: (word_weight(w), len(w), w))
        return render_terms((self._t[word], word) for word in words)

    def __repr__(self) -> str:
        return f"State<{self.render()}>"


def project_with_audit(state: State, min_length: int) -> tuple[State, State]:
    """Split a state into the words made of at least `min_length` modes and
    the remainder that a length projection drops."""
    kept = {w: c for w, c in state._t.items() if len(w) >= min_length}
    dropped = {w: c for w, c in state._t.items() if len(w) < min_length}
    return State(kept), State(dropped)


class Engine:
    """Rewriting engine bound to one algebra spec.

    Pure operations over immutable values; the internal memo tables (mode
    actions, commutator rows, normal orders, quasi-primary products, and the
    verdicts of replayed `c2` certificate steps) are invisible caches.  The
    library uses the engine owned by the spec (`AlgebraSpec.engine`), so its
    memos live as long as the spec does and are shared by every computation
    on that spec.  That engine is given a `weakref.ref` to its spec, so the
    two form no reference cycle; it works only while the spec is alive, and
    once the spec is freed it raises ReferenceError saying so.  Constructing
    an `Engine` from a spec gives fresh, empty memos and a strong reference
    to the spec.

    A commutator row is the commutator of a generator mode with the lead
    mode of a word, computed once per engine by `algebra.commutator` from
    the spec's exact tables (`AlgebraSpec.tables`).  It holds the terms
    (coefficient, output field, output index) and the central term, each
    coefficient an int or a Fraction, or a Poly only while a symbol remains,
    so the evaluator reads a row as it is: it normalizes no coefficient
    again and builds no Poly, Mode or OperatorSum for it.  `Engine.bracket`
    serves `algebra.bracket`'s OperatorSum of the same commutator from that
    row, built on its first request and kept in the row.
    """

    def __init__(self, spec: AlgebraSpec | weakref.ref):
        # a callable that returns the spec, or None once a weakly held spec
        # is freed; called once per mode application and per memo miss that
        # reads the spec
        self._spec = spec if isinstance(spec, weakref.ref) else (lambda: spec)
        # read on every mode action, so kept here rather than behind the spec
        tables = self.spec.tables
        self._weights, self._ranks = tables.weights, tables.ranks
        # (generator symbol or field expression, n, word) -> {word: coeff},
        # each coeff an int, a Fraction, or a Poly only when it has a symbol
        self._memo: dict[tuple[FieldExpr, int, Word], dict] = {}
        self._qpnop_memo: dict[tuple[str, str, int], LinComb] = {}
        # (generator symbol, n, lead mode) -> the commutator row
        # [terms, central, OperatorSum or None] of [generator_n, lead]
        self._rows: dict[tuple[str, int, Mode], list] = {}
        # mode sequence -> its normal order on the vacuum; every suffix of a
        # sequence normal-ordered so far has its entry
        self._normal_memo: dict[Word, State] = {(): State.vacuum()}
        # (rule, claim vector, cited vectors, table or None) -> the (ok,
        # detail) verdict of one c2 certificate step, filled by
        # c2.verify_certificate; the key holds everything the check reads
        # besides the spec, so a replay on this spec re-checks only the steps
        # that changed
        self.verdict_memo: dict[tuple, tuple[bool, str]] = {}

    @property
    def spec(self) -> AlgebraSpec:
        spec = self._spec()
        if spec is None:
            raise ReferenceError(
                "the AlgebraSpec of this engine was freed; keep the spec alive "
                "while spec.engine is in use"
            )
        return spec

    # --- mode application ----------------------------------------------------

    def apply_mode(self, mode: Mode, state: State) -> State:
        """Canonical form of mode * state."""
        return self._apply(mode.field, mode.n, state)

    def field_mode_apply(self, expr: FieldExpr, n: int, state: State) -> State:
        """Apply the physics-index-n mode of a field expression to a state.

        The bilinear sums truncate exactly: on a lower-truncated module only
        finitely many summands act nontrivially.
        """
        return self._apply(expr, n, state)

    def bracket(self, a: Mode, b: Mode) -> OperatorSum:
        """The commutator [a, b] under the spec: `algebra.bracket`, the
        OperatorSum view of the commutator row of (a, b), computed on the
        first request and kept in that row."""
        row = self._row(a.field, a.n, b)
        if row[2] is None:
            row[2] = bracket(a, b, self.spec)
        return row[2]

    def _row(self, field: str, n: int, lead: Mode) -> list:
        """The commutator row of [field_n, lead], computed once."""
        key = (field, n, lead)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [*commutator(field, n, lead.field, lead.n,
                                                 self.spec.tables), None]
        return row

    def normal_order(self, word: Iterable[Mode]) -> State:
        """Apply a mode sequence right-to-left to the vacuum.

        The longest suffix already normal-ordered is looked up, and each
        longer suffix is built from it by one mode application and stored,
        so every suffix is computed once; the loop is iterative, whatever
        the length of the word.  A returned State is shared with the memo,
        which is safe because no State method mutates its operand.
        """
        word = tuple(word)
        memo = self._normal_memo
        start = 0
        while word[start:] not in memo:
            start += 1
        state = memo[word[start:]]
        for i in range(start - 1, -1, -1):
            state = self.apply_mode(word[i], state) if state else state
            memo[word[i:]] = state
        return state

    def evaluate(self, terms: Iterable[tuple[Poly, Iterable[Mode]]]) -> State:
        """Canonical State of a sum of coefficient * mode sequence |0>, each
        output coefficient summed once."""
        out: dict[Word, list] = {}
        for coeff, seq in terms:
            if coeff:
                for word, c in self.normal_order(seq)._t.items():
                    out.setdefault(word, []).append((c, coeff))
        return _summed(out)

    def _apply(self, field: FieldExpr, n: int, state: State) -> State:
        self.spec  # raises once the spec is freed, though its tables live on
        out: dict[Word, list] = {}
        for word, coeff in state._t.items():
            for w, c in self._act(field, n, word).items():
                out.setdefault(w, []).append((coeff, c))
        return _summed(out)

    def _act(self, field: FieldExpr, n: int, word: Word) -> dict:
        """The mode field_n on one canonical word, as {word: coeff}.

        A composite symbol is replaced by its definition (an alias by the
        symbol it names) and a quasi-primary product by its expansion before
        the lookup, so a generator mode has one memo entry, keyed by its
        symbol, whichever entry point reached it.  Coefficients are exact
        numbers until a symbol enters (see `scalar.exact`), so the rewriting
        of constant coefficients never builds a Poly.
        """
        # a composite names only generators and earlier composites, so an
        # alias chain ends
        while isinstance(field, str) and field not in self._ranks:
            field = self.spec.composite_expr(field)
        if isinstance(field, QPNop):
            field = self.qp_nop(field.j, field.i, field.n)
        key = (field, n, word)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result: dict = {}
        if isinstance(field, str):
            creation = n <= -self._weights[field]
            if not word:
                if creation:
                    result[(Mode(field, n),)] = 1
            elif creation and (n, self._ranks[field]) <= (
                word[0].n, self._ranks[word[0].field]
            ):
                result[(Mode(field, n),) + word] = 1
            else:
                lead, rest = word[0], word[1:]
                # mode * lead = lead * mode + [mode, lead]
                for w, c in self._act(field, n, rest).items():
                    for w2, c2 in self._act(lead.field, lead.n, w).items():
                        _acc(result, w2, c * c2)
                terms, central, _ = self._row(field, n, lead)
                for coeff, k, index in terms:
                    for w, c in self._act(k, index, rest).items():
                        _acc(result, w, coeff * c)
                if central:
                    _acc(result, rest, central)
        elif isinstance(field, TopPower):
            if word:
                rendered = "".join(m.render() + " " for m in word)
                raise SpecError(
                    f"{field.base}^{field.count} is kept at top length and acts "
                    f"on the vacuum only, not on {rendered}|0>"
                )
            h = self.spec.weight_of(field.base)
            for parts in _partitions(-n, field.count, h, -n):
                result[tuple(Mode(field.base, -k) for k in parts)] = _orderings(parts)
        elif isinstance(field, Identity):
            if n == 0:
                result[word] = 1
        elif isinstance(field, Derivative):
            h = expr_weight(field.base, self.spec)
            factor = 1
            for u in range(field.order):
                factor *= -(n + h + u)
            if factor:
                for w, c in self._act(field.base, n, word).items():
                    result[w] = c * factor
        elif isinstance(field, LinComb):
            for coeff, part in field.parts:
                coeff = exact(coeff)
                for w, c in self._act(part, n, word).items():
                    _acc(result, w, coeff * c)
        elif isinstance(field, Nprod):
            wmax = word_weight(word)
            # sum_{k < m} phi_{n+k} psi_{-k}: psi acts first
            for k in range(-wmax, field.m):
                for w1, c1 in self._act(field.right, -k, word).items():
                    for w2, c2 in self._act(field.left, n + k, w1).items():
                        _acc(result, w2, c1 * c2)
            # sum_{k >= m} psi_{-k} phi_{n+k}: phi acts first
            for k in range(field.m, wmax - n + 1):
                for w1, c1 in self._act(field.left, n + k, word).items():
                    for w2, c2 in self._act(field.right, -k, w1).items():
                        _acc(result, w2, c1 * c2)
        else:
            raise TypeError(f"not a field expression: {field!r}")
        # a Fraction product may be integral and a Poly sum may cancel its
        # symbols; store each coefficient in its exact form, in place
        for w, c in result.items():
            if type(c) is not int:
                result[w] = exact(c)
        self._memo[key] = result
        return result

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
            coeff = exact(Fraction(
                (-1) ** r * binom_int(n, r) * binom_int(2 * hi + n - 1, r),
                binom_int(2 * (hi + hj + n - 1), r),
            ))
            if not coeff:
                continue
            core: FieldExpr = Nprod(hi + n + r, j, Derivative(i, n - r) if n - r else i)
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
            coeff = exact(Fraction(
                -((-1) ** n) * binom_int(h + n - 1, n)
                * binom_int(2 * hi + n - 1, h + n),
                binom_int(2 * (hi + hj + n - 1), n) * binom_int(sigma - 1, h - 1)
                * (sigma + n) * (h - 1),
            ))
            if not coeff:
                continue
            parts.append((value * coeff, Derivative(k, h + n)))
        return LinComb(tuple(parts))

