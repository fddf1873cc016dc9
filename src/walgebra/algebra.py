"""W-algebra declarations, modes, field expressions and commutator data.

Index conventions
-----------------
All mode indices are physics-convention: a field of weight h expands as
phi(x) = sum_n phi_n x^(-n-h); its mathematics index is n + h - 1
(`c2.math_index`).

A mode phi_n annihilates the vacuum exactly when n >= -h + 1.

Records
-------
A record whose kind is part of its equality is a class written out on
:class:`Record`, a ``tuple`` subclass whose instances are the tuple
``(type, *values)``, so records of two kinds never compare equal and each
builds, hashes and compares in C: the six field-expression kinds, the six
``c2`` rules, ``singular.SingularTable``, ``c2.Certificate`` and
``AlgebraSpec``.  Inside a field expression a declared field is its symbol
string.  Modes, declarations, the spec's lookup tables and bracket
results, like the derivation, solve and step reports elsewhere, are
subclasses of ``collections.namedtuple`` types with ``__slots__ = ()``,
which compare as tuples.  ``c2.MembershipClaim`` stays a dataclass only
because ``bench/worker.py`` calls ``dataclasses.replace`` on a step.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import itemgetter
from types import MappingProxyType

from .scalar import (IMAG, Poly, binom_int, clipped, exact, parse_poly, parse_rational, quoted,
                     render_poly)

TYPE_CHECKING = False  # true for a type checker only; `typing` is never imported
if TYPE_CHECKING:
    from .engine import Engine


class SpecError(ValueError):
    """Invalid algebra specification document."""


class Mode(namedtuple("Mode", "field n")):
    """A single mode of a declared field, physics index."""

    __slots__ = ()

    def render(self) -> str:
        return f"{self.field}({self.n})"


_NO_ENTRIES: Mapping = MappingProxyType({})


class Record(tuple):
    """A record written out by hand: a kind names its fields in `_fields`
    and may give some of them a value in `_defaults`.

    A record is the tuple ``(type, *values)``; each field is read through an
    `operator.itemgetter` property, so a record builds, hashes and compares
    in C.  The constructor takes each field by position, in `_fields` order,
    or by name; a field left out takes its default.  A missing, unknown or
    doubly given field raises TypeError.  Once built, a record refuses
    assignment and deletion.  A record equals a record of its own type with
    equal fields, never a record of another type or the tuple of its fields,
    and equal records hash equal; copy and pickle rebuild it from its fields.
    A kind that declares `__slots__ = ()` has no instance dict; one that
    does not keeps what it works out from its fields there.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: Mapping = _NO_ENTRIES

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in vars(cls):
            for index, name in enumerate(cls._fields, 1):
                setattr(cls, name, property(itemgetter(index), doc=f"Field {name}."))

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._values(args, kwargs)
        return tuple.__new__(cls, (cls, *args))

    @classmethod
    def _values(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values, in `_fields` order, that a constructor call
        gives or leaves to the defaults."""
        fields, kind = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{kind} takes {len(fields)} fields, got {len(args)}")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{kind} has no field {name!r}")
            if name in given:
                raise TypeError(f"{kind} got field {name!r} twice")
            given[name] = value
        values = {**cls._defaults, **given}
        for name in fields:
            if name not in values:
                raise TypeError(f"{kind} lacks field {name!r}")
        return tuple([values[name] for name in fields])

    def _astuple(self) -> tuple:
        return self[1:]

    def __getnewargs__(self) -> tuple:
        # copy and pickle call the constructor with these; tuple's own would
        # pass the type as a field
        return self[1:]

    def _replace(self, **changes):
        """A new record of the same type with some fields changed."""
        return type(self)(**dict(zip(self._fields, self[1:]), **changes))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# --- field expressions -------------------------------------------------------


class Identity(Record):
    """The identity field (weight 0, only mode 0 acts, as the identity)."""

    __slots__ = ()


class Derivative(Record):
    __slots__ = ()
    _fields = ("base", "order")  # FieldExpr, int


class Nprod(Record):
    """Ordered bilinear normal product N^(m)(left, right).

    Modes: N^(m)(phi,psi)_n = sum_{k<m} phi_{n+k} psi_{-k}
                            + sum_{k>=m} psi_{-k} phi_{n+k}.
    """

    __slots__ = ()
    _fields = ("m", "left", "right")


class QPNop(Record):
    """Quasi-primary normal-ordered product of declared fields j, i with
    n derivatives on the second slot; expanded by the engine."""

    __slots__ = ()
    _fields = ("j", "i", "n")


class LinComb(Record):
    __slots__ = ()
    _fields = ("parts",)  # ((coefficient, FieldExpr), ...), a Poly or an exact number


class TopPower(Record):
    """The `count`-fold normal-ordered power of the generator `base`, kept
    only at top length: its vacuum modes give the words of exactly `count`
    modes.

    Modulo shorter words the creation modes of one generator commute (the
    associated graded of Li's filtration is commutative), so mode n on the
    vacuum is the sum over the partitions of -n into `count` parts
    >= weight(base), each word weighted by its number of distinct orderings.
    The engine evaluates it on the vacuum only.
    """

    __slots__ = ()
    _fields = ("base", "count")


# a declared field, generator or composite, is its symbol
FieldExpr = str | Identity | Derivative | Nprod | QPNop | LinComb | TopPower


# --- algebra specification ---------------------------------------------------


class GeneratorDecl(namedtuple("GeneratorDecl", "symbol weight")):
    __slots__ = ()


class CompositeDecl(namedtuple("CompositeDecl", "symbol weight definition")):
    __slots__ = ()  # definition is a FieldExpr


class SpecTables(namedtuple("SpecTables", "weights ranks channels pairings composites")):
    """The lookups of a spec, built once by its constructor: the weight of
    every declared field, the declaration rank of every generator, the
    channels ``((k, C_ij^k), ...)`` of each generator pair (i, j) sorted by
    k, d_ij under each sorted pair, and the definition of every composite;
    every C_ij^k and d_ij is exact (`scalar.exact`), a Poly only while a
    symbol remains.  The tables refer to no spec, so the engine, which keeps
    only them, keeps no spec alive."""

    __slots__ = ()

    def weight_of(self, symbol: str) -> int:
        try:
            return self.weights[symbol]
        except KeyError:
            raise SpecError(f"undeclared field {quoted(symbol)}") from None

    def composite_expr(self, symbol: str) -> FieldExpr:
        try:
            return self.composites[symbol]
        except KeyError:
            raise SpecError(f"undeclared field {quoted(symbol)}") from None


class AlgebraSpec(Record):
    """Declared W-algebra: generators, pairings d, structure constants C_ij^k,
    and composite fields usable as commutator channels.

    A spec is immutable: its mappings are read-only copies of the ones it was
    built from, so the rewriting engine it owns can never go stale.  Its
    constructor builds its lookup tables (`SpecTables`) once, which its
    lookups read, and validates it.  The tables and its engine, cached on
    first use, live in its instance dict, so that `spec.engine` is a plain
    attribute lookup after its first use.  A spec copies, but neither
    pickles nor hashes: its mappings are read-only proxies.
    """

    _fields = ("central_charge", "generators", "d", "constants", "composites",
               "c_lower")

    def __new__(cls, central_charge: Fraction, generators: tuple[GeneratorDecl, ...],
                d: Mapping[tuple[str, str], Poly],
                constants: Mapping[tuple[str, str, str], Poly],
                composites: Mapping[str, CompositeDecl] = _NO_ENTRIES,
                c_lower: Mapping[tuple[str, str, str], Poly] = _NO_ENTRIES):
        self = tuple.__new__(cls, (cls, central_charge, generators, *[
            MappingProxyType(dict(m)) for m in (d, constants, composites, c_lower)]))
        weights = {g.symbol: g.weight for g in generators}
        for c in self.composites.values():
            weights[c.symbol] = c.weight
        channels: dict[tuple[str, str], list] = {}
        for (i, j, k), value in self.constants.items():
            channels.setdefault((i, j), []).append((k, exact(value)))
        vars(self)["tables"] = SpecTables(
            weights, {g.symbol: i for i, g in enumerate(generators)},
            {key: tuple(sorted(chans, key=itemgetter(0))) for key, chans in channels.items()},
            {key: exact(value) for key, value in self.d.items()},
            {symbol: c.definition for symbol, c in self.composites.items()})
        self.validate()
        return self

    @cached_property
    def engine(self) -> Engine:
        """The rewriting engine of this spec, built on first use; its memo
        lives as long as the spec does.  The engine keeps only the spec's
        tables, so the two form no reference cycle."""
        from .engine import Engine

        return Engine(self)

    # --- lookups ---

    def rank(self, symbol: str) -> int:
        return self.tables.ranks[symbol]

    def weight_of(self, symbol: str) -> int:
        return self.tables.weight_of(symbol)

    def pairing(self, i: str, j: str) -> int | Fraction | Poly:
        return self.tables.pairings.get((i, j) if i <= j else (j, i), 0)

    def channels(self, i: str, j: str) -> tuple[tuple[str, int | Fraction | Poly], ...]:
        return self.tables.channels.get((i, j), ())

    def composite_expr(self, symbol: str) -> FieldExpr:
        return self.tables.composite_expr(symbol)

    # --- validation ---

    def validate(self) -> None:
        if not self.generators:
            raise SpecError("no generators: the first generator must be the "
                            "weight-2 conformal field")
        seen = set()
        for g in self.generators:
            if g.weight <= 0:
                raise SpecError(f"generator {quoted(g.symbol)} has weight "
                                f"{quoted(g.weight)} <= 0")
            if g.symbol in seen:
                raise SpecError(f"duplicate generator {quoted(g.symbol)}")
            seen.add(g.symbol)
        for symbol, c in self.composites.items():
            if symbol != c.symbol:
                raise SpecError(f"composite {quoted(symbol)} declares the symbol "
                                f"{quoted(c.symbol)}")
            if c.symbol in seen:
                raise SpecError(f"composite {quoted(c.symbol)} shadows another field")
            if c.weight <= 0:
                raise SpecError(f"composite {quoted(c.symbol)} has weight "
                                f"{quoted(c.weight)} <= 0")
        # a composite names only generators and the composites listed before
        # it, so evaluating its modes never comes back to it, and its
        # declared weight is its definition's
        earlier = set()
        for c in self.composites.values():
            for symbol in expr_symbols(c.definition):
                if symbol in self.composites and symbol not in earlier:
                    named = ("itself" if symbol == c.symbol
                             else f"composite {quoted(symbol)}, which is listed after it")
                    raise SpecError(f"composite {quoted(c.symbol)} names {named}")
            earlier.add(c.symbol)
            got = expr_weight(c.definition, self)
            if got != c.weight:
                raise SpecError(f"composite {quoted(c.symbol)} declared weight "
                                f"{quoted(c.weight)}, definition has weight {quoted(got)}")
        for (i, j) in self.d:
            if j < i:
                raise SpecError(f"pairing key ({clipped(i)},{clipped(j)}) not sorted")
            wi, wj = self.weight_of(i), self.weight_of(j)
            if wi != wj and self.d[(i, j)]:
                raise SpecError(f"nonzero pairing between weights {quoted(wi)} "
                                f"and {quoted(wj)}")
        for (i, j, k) in self.constants:
            h = self.weight_of(i) + self.weight_of(j) - self.weight_of(k)
            if h < 1:
                raise SpecError(
                    f"structure constant ({clipped(i)},{clipped(j)},{clipped(k)}) "
                    f"has h(ijk)={quoted(h)} < 1"
                )
        # every generator must come with its conformal channels, and a
        # generator is primary: C_{T,phi}^phi = C_{phi,T}^phi = weight(phi)
        t = self.generators[0].symbol
        if self.weight_of(t) != 2:
            raise SpecError("first generator must be the weight-2 conformal field")
        # the conformal field pairs with itself to c/2, unless d_TT is symbolic
        d_tt = self.pairing(t, t)
        if not isinstance(d_tt, Poly) and d_tt != self.central_charge / 2:
            raise SpecError(f"d_{clipped(t)}{clipped(t)} = {clipped(render_poly(d_tt))} "
                            f"is not half the central charge "
                            f"{clipped(str(self.central_charge))}")
        for g in self.generators:
            want = Poly.const(g.weight)
            for key in ((t, g.symbol, g.symbol), (g.symbol, t, g.symbol)):
                got = self.constants.get(key)
                if got is None:
                    raise SpecError(f"missing conformal channel {quoted(key)}")
                if got != want:
                    raise SpecError(
                        f"channel {quoted(key)} must equal the field weight "
                        f"{quoted(g.weight)}, got {clipped(str(got))}"
                    )
        # cross-check optional lowered constants: sum_l C_ij^l d_lk = C_ijk
        for (i, j, k), want in self.c_lower.items():
            acc = Poly.zero()
            for (l, value) in self.channels(i, j):
                acc = acc + value * self.pairing(l, k)
            if acc != want:
                raise SpecError(
                    f"C_ijk consistency failed for ({clipped(i)},{clipped(j)},{clipped(k)}): "
                    f"sum C_ij^l d_lk = {clipped(str(acc))}, declared {clipped(str(want))}"
                )


# --- commutator polynomials --------------------------------------------------


@lru_cache(maxsize=None)
def _a_coeffs(hi: int, hj: int, hk: int) -> tuple[tuple[int, ...], int]:
    """The anchor coefficients a^t = C(h_i+h_k-h_j+t-1, t) / C(2h_k+t-1, t),
    t < h(ijk), as integer numerators over one common denominator:
    ``(numerators, den)`` with a^t = numerators[t] / den.

    a^{t+1} / a^t = (h_i+h_k-h_j+t) / (2h_k+t), so a^t is a ratio of two
    rising products and the last denominator is a multiple of every other;
    numerators and denominator are then divided by their common gcd."""
    u, v = hi + hk - hj, 2 * hk
    nums, top, den = [1], 1, 1
    for t in range(hi + hj - hk - 1):
        nums = [a * (v + t) for a in nums]
        top *= u + t
        nums.append(top)
        den *= v + t
    g = gcd(den, *nums)
    return tuple(a // g for a in nums), den // g


def _channel_sum(hi: int, hj: int, hk: int, x: int, y: int) -> int | Fraction:
    """sum_{t+s=h(ijk)-1} a^t C(x, t) C(y, s) for integers x, y, summed in
    integers over the common denominator of :func:`_a_coeffs`.

    Each binomial row is a running product, C(x, t+1) = C(x, t) (x-t) / (t+1),
    whose division is exact; one Fraction is built at the end."""
    h = hi + hj - hk
    if h < 1:
        raise ValueError(f"h(ijk) = {h} < 1")
    nums, den = _a_coeffs(hi, hj, hk)
    cy = [1]
    for s in range(h - 1):
        cy.append(cy[-1] * (y - s) // (s + 1))
    total = 0
    cx = 1
    for t in range(h):
        total += nums[t] * cx * cy[h - 1 - t]
        cx = cx * (x - t) // (t + 1)
    return exact(Fraction(total, den))


def p_poly(hi: int, hj: int, hk: int, m: int, n: int) -> int | Fraction:
    """Channel polynomial in the anchor normalization
    sum_{r+s=h(ijk)-1} a^r C(m+n-h_k, r) C(h_i-n-1, s), evaluated in
    integers as in :func:`channel_poly`."""
    return _channel_sum(hi, hj, hk, m + n - hk, hi - n - 1)


@lru_cache(maxsize=None)
def channel_poly(hi: int, hj: int, hk: int, m: int, n: int) -> int | Fraction:
    """Channel polynomial used by the mode bracket,
    sum_{t+s=h(ijk)-1} a^t C(-(m+n)-h_k, t) C(m+h_i-1, s).

    Summed in integers: the a^t are integer numerators over one common
    denominator (:func:`_a_coeffs`), each binomial row is a running product
    with exact divisions, and the one Fraction is built from the total.
    Agrees with :func:`p_poly` whenever h_i = h_j and reproduces
    [L_m, phi_n] = ((h-1)m - n) phi_{m+n} for primary phi.
    """
    return _channel_sum(hi, hj, hk, -(m + n) - hk, m + hi - 1)


class OperatorSum(namedtuple("OperatorSum", "terms central")):
    """Result of a mode bracket: channel modes with exact coefficients
    (`scalar.exact`), as (coefficient, Mode) pairs, plus an exact central
    term."""

    __slots__ = ()

    def render(self) -> str:
        bits = [f"({render_poly(c)})*{m.render()}" for c, m in self.terms]
        if self.central:
            bits.append(f"({render_poly(self.central)})*1")
        return " + ".join(bits) if bits else "0"


def commutator(a: Mode, b: Mode, tables: SpecTables) -> OperatorSum:
    """The mode commutator [i_m, j_n] of a = i_m and b = j_n from the
    declared channels,
    d_ij delta_{m+n,0} C(h_i+m-1, 2h_i-1) + sum_k C_ij^k p(m,n) (phi_k)_{m+n},
    each coefficient exact (`scalar.exact`).

    The one computation of a commutator: the rewriting engine keeps it as a
    commutator row, which :func:`bracket` and `Engine.bracket` serve.
    Channels are declared for generators only, so a mode of a composite
    field is refused rather than given a bracket of 0, and so is an
    undeclared field."""
    (i, m), (j, n) = a, b
    weights = tables.weights
    for mode in (a, b):
        if mode.field in weights and mode.field not in tables.ranks:
            raise SpecError(f"{clipped(mode.render())} is a mode of the "
                            f"composite field {quoted(mode.field)}; brackets are "
                            "declared between generator modes only")
    try:
        hi, hj = weights[i], weights[j]
    except KeyError as exc:
        raise SpecError(f"undeclared field {quoted(exc.args[0])}") from None
    terms = []
    for k, value in tables.channels.get((i, j), ()):
        pv = channel_poly(hi, hj, weights[k], m, n)
        if pv and value:
            terms.append((exact(value * pv), Mode(k, m + n)))
    central = 0
    if m + n == 0:
        dij = tables.pairings.get((i, j) if i <= j else (j, i))
        if dij:
            central = exact(dij * binom_int(hi + m - 1, 2 * hi - 1))
    return OperatorSum(tuple(terms), central)


def bracket(a: Mode, b: Mode, spec: AlgebraSpec) -> OperatorSum:
    """Mode commutator [a, b] under the spec (see :func:`commutator`), served
    from the commutator row of the spec's engine."""
    return spec.engine.bracket(a, b)


# --- expression weights ------------------------------------------------------


def expr_weight(expr: FieldExpr, spec: AlgebraSpec | SpecTables) -> int:
    """The weight of a field expression under a spec or its tables."""
    if isinstance(expr, str):
        return spec.weight_of(expr)
    if isinstance(expr, Identity):
        return 0
    if isinstance(expr, Derivative):
        return expr_weight(expr.base, spec) + expr.order
    if isinstance(expr, Nprod):
        return expr_weight(expr.left, spec) + expr_weight(expr.right, spec)
    if isinstance(expr, QPNop):
        return spec.weight_of(expr.j) + spec.weight_of(expr.i) + expr.n
    if isinstance(expr, TopPower):
        return expr.count * spec.weight_of(expr.base)
    if isinstance(expr, LinComb):
        weights = {expr_weight(part, spec) for _, part in expr.parts}
        if len(weights) != 1:
            raise SpecError(f"inhomogeneous linear combination: weights {weights}")
        return weights.pop()
    raise TypeError(f"not a field expression: {expr!r}")


def expr_symbols(expr: FieldExpr) -> Iterator[str]:
    """Every field symbol a field expression names."""
    if isinstance(expr, str):
        yield expr
    elif isinstance(expr, Derivative):
        yield from expr_symbols(expr.base)
    elif isinstance(expr, Nprod):
        yield from expr_symbols(expr.left)
        yield from expr_symbols(expr.right)
    elif isinstance(expr, QPNop):
        yield from (expr.j, expr.i)
    elif isinstance(expr, TopPower):
        yield expr.base
    elif isinstance(expr, LinComb):
        for _, part in expr.parts:
            yield from expr_symbols(part)


# --- spec documents ----------------------------------------------------------


# what each JSON type `typed` checks for is called in a refusal
_JSON_KINDS = {int: "a JSON integer", str: "a string", list: "a JSON array"}


def typed(value, kind: type, what: str, error=SpecError):
    """`value`, the field `what` of a document, if its type is exactly
    `kind` (int, str or list); otherwise raises `error`.  An integer field is
    a JSON integer, not a float, a string or a boolean."""
    if type(value) is not kind:
        raise error(f"{what} must be {_JSON_KINDS[kind]}, got {quoted(value)}")
    return value


def _json_count(value, what: str) -> int:
    """A derivative order of a spec document: a JSON integer >= 0."""
    value = typed(value, int, what)
    if value < 0:
        raise SpecError(f"{what} must be >= 0, got {quoted(value)}")
    return value


def parsed(parse, value, what: str, error=SpecError):
    """`parse` applied to the string field `what`, such as a number or a
    polynomial ("-2", "-uW"); its ValueError is refused as `error`, which
    names `what`."""
    text = value if type(value) is str else typed(value, str, what, error)
    try:
        return parse(text)
    except ValueError as exc:
        raise error(f"{what}: {exc}") from None


class _LongInteger(str):
    """A JSON integer with more digits than `int` converts, kept as its
    digits; no reader takes it, since each tests a value's exact type, so
    its refusal names the key that holds it."""

    __slots__ = ()
    __repr__ = str.__str__


def _integer(text: str) -> int | _LongInteger:
    try:
        return int(text)
    except ValueError:  # past the interpreter's int-conversion digit limit
        return _LongInteger(text)


def decoded(text: str, error=SpecError):
    """The JSON value of a document's text; text that is not JSON raises
    `error`.  An integer with more digits than `int` converts is decoded as
    a `_LongInteger`."""
    try:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:  # such an integer, refused without key or position
            return json.loads(text, parse_int=_integer)
    except (ValueError, RecursionError) as exc:
        # RecursionError for a document nested deeper than the interpreter's
        # recursion limit
        raise error(f"not valid JSON: {exc}") from exc


def _json_symbols(entry: dict, keys: str, what: str) -> tuple[str, ...]:
    """The field symbols under the one-letter `keys` of a `what` entry, each
    a string: the spec compares, sorts and hashes them."""
    return tuple(typed(entry[key], str, f"{what} {key}") for key in keys)


def keyed(doc, what: str, required: set, optional: set = frozenset(),
          error=SpecError) -> dict:
    """`doc`, the JSON object `what` of a document, if it has every
    `required` key, any `optional` one and no other; otherwise raises
    `error`."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {quoted(doc)}")
    if doc.keys() - optional != required:
        unknown = doc.keys() - required - optional
        if unknown:
            raise error(f"unknown key(s) {quoted(sorted(map(str, unknown)))} in {what}")
        raise error(f"{what} lacks key(s) {sorted(required - doc.keys())}")
    return doc


# each JSON object of a spec document: its required keys, then its optional ones
_SPEC_KEYS = {
    "the spec document": ({"central_charge", "generators"},
                          {"d", "structure_constants", "composite_fields", "c_lower"}),
    "generators": ({"symbol", "weight"},),
    "d": ({"i", "j", "value"},),
    "structure_constants": ({"i", "j", "k", "value"},),
    "composite_fields": ({"symbol", "weight", "definition"},),
    "c_lower": ({"i", "j", "k", "value"},),
}


def _entries(document: dict, key: str) -> list[dict]:
    """The objects listed under `key` of a spec document, each with exactly
    the keys `_SPEC_KEYS[key]` allows."""
    return [keyed(e, f"a {key} entry", *_SPEC_KEYS[key])
            for e in typed(document.get(key, []), list, key)]


def _put(table: dict, key, value, what: str) -> None:
    if key in table:
        raise SpecError(f"duplicate {what} {quoted(key)}")
    table[key] = value


def _parse_field_expr(doc) -> FieldExpr:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise SpecError(f"bad field expression {quoted(doc)}")
    (kind, body), = doc.items()
    if kind == "gen":
        return typed(body, str, "gen symbol")
    if kind == "deriv":
        body = keyed(body, "a deriv body", {"base", "order"})
        return Derivative(_parse_field_expr(body["base"]),
                          _json_count(body["order"], "deriv order"))
    if kind == "nprod":
        body = keyed(body, "an nprod body", {"m", "left", "right"})
        return Nprod(
            typed(body["m"], int, "nprod m"),
            _parse_field_expr(body["left"]),
            _parse_field_expr(body["right"]),
        )
    if kind == "qpnop":
        body = keyed(body, "a qpnop body", {"j", "i"}, {"n"})
        return QPNop(typed(body["j"], str, "qpnop j"), typed(body["i"], str, "qpnop i"),
                     _json_count(body.get("n", 0), "qpnop n"))
    if kind == "lincomb":
        terms = []
        for term in typed(body, list, "a lincomb body"):
            if not isinstance(term, list) or len(term) != 2:
                raise SpecError("a lincomb term must be a [coefficient, "
                                f"expression] pair, got {quoted(term)}")
            terms.append((parsed(parse_poly, term[0], "lincomb coefficient"),
                          _parse_field_expr(term[1])))
        return LinComb(tuple(terms))
    raise SpecError(f"unknown field expression kind {quoted(kind)}")


def load_spec(text: str) -> AlgebraSpec:
    """Load and validate an algebra-spec document from its JSON text.

    The central charge and every polynomial value are strings; weights,
    derivative orders, `nprod` m and `qpnop` n are JSON integers, and a
    derivative order or `qpnop` n is not negative.  A key the loader does
    not read, at any level, and a second entry for one pairing, structure
    constant, composite symbol or `c_lower` triple are refused.  A composite
    names only generators and the composites listed before it.
    """
    try:
        document = keyed(decoded(text), "the spec document",
                         *_SPEC_KEYS["the spec document"])
        c = parsed(parse_rational, document["central_charge"], "central_charge")
        gens = tuple(
            GeneratorDecl(typed(g["symbol"], str, "generator symbol"),
                          typed(g["weight"], int, "generator weight"))
            for g in _entries(document, "generators")
        )
        d = {}
        for entry in _entries(document, "d"):
            i, j = _json_symbols(entry, "ij", "d")
            _put(d, (i, j) if i <= j else (j, i),
                 parsed(parse_poly, entry["value"], "d value"), "pairing")
        constants = {}
        for entry in _entries(document, "structure_constants"):
            _put(constants, _json_symbols(entry, "ijk", "structure_constants"),
                 parsed(parse_poly, entry["value"], "structure constant value"),
                 "structure constant")
        composites = {}
        for entry in _entries(document, "composite_fields"):
            sym = typed(entry["symbol"], str, "composite symbol")
            _put(composites, sym, CompositeDecl(
                sym, typed(entry["weight"], int, "composite weight"),
                _parse_field_expr(entry["definition"])
            ), "composite field")
        c_lower = {}
        for entry in _entries(document, "c_lower"):
            _put(c_lower, _json_symbols(entry, "ijk", "c_lower"),
                 parsed(parse_poly, entry["value"], "c_lower value"), "c_lower entry")
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"malformed spec document: {exc!r}") from exc
    return AlgebraSpec(c, gens, d, constants, composites, c_lower)


# --- builders ----------------------------------------------------------------


def make_virasoro_spec(c: Fraction | str | Poly = "c") -> AlgebraSpec:
    """Virasoro-only algebra: one weight-2 generator T with C_TT^T = 2 and
    d_TT = c/2.  A string that is an identifier keeps the central charge
    symbolic (it then enters computations only through d_TT) and must not be
    the imaginary unit I; any other string is read by `parse_rational`."""
    if isinstance(c, str):
        if not (c.isascii() and c.isidentifier()):
            try:
                c = parse_rational(c)
            except ValueError as exc:
                raise SpecError("central charge is neither an identifier nor a "
                                f"rational: {exc}") from None
        elif c == IMAG:
            raise SpecError(f"central charge {c!r} is the reserved imaginary unit")
    if isinstance(c, str):
        cc = Fraction(0)
        d = {("T", "T"): Poly.sym(c) / 2}
    else:
        cc = Fraction(exact(c))
        d = {("T", "T"): Poly.const(cc) / 2}
    return AlgebraSpec(
        central_charge=cc,
        generators=(GeneratorDecl("T", 2),),
        d=d,
        constants={("T", "T", "T"): Poly.const(2)},
    )


def central_charge_p1(p: int) -> Fraction:
    """c_{p,1} = 1 - 6 (p-1)^2 / p."""
    return Fraction(1) - Fraction(6 * (p - 1) ** 2, p)


def make_derivation_spec(p: int) -> AlgebraSpec:
    """Single-W algebra used by the general-coefficient derivation.

    Generators T (weight 2) and W (weight 2p-1); the [W,W] bracket declares
    the T channel and the weight-(2*Delta-2) tower channel NT with symbolic
    constants CWWT and C.  NT is the (Delta-1)-fold power of T at top length
    (`TopPower`): the derivation works modulo words shorter than Delta-1 and
    only applies NT to the vacuum.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    delta = 2 * p - 1
    c = central_charge_p1(p)
    return AlgebraSpec(
        central_charge=c,
        generators=(GeneratorDecl("T", 2), GeneratorDecl("W", delta)),
        d={("T", "T"): Poly.const(c) / 2, ("W", "W"): Poly.sym("dWW")},
        constants={
            ("T", "T", "T"): Poly.const(2),
            ("T", "W", "W"): Poly.const(delta),
            ("W", "T", "W"): Poly.const(delta),
            ("W", "W", "T"): Poly.sym("CWWT"),
            ("W", "W", "NT"): Poly.sym("C"),
        },
        composites={
            "NT": CompositeDecl("NT", 2 * delta - 2, TopPower("T", delta - 1))
        },
    )
