"""Exact scalar arithmetic.

Exact rationals (an ``int`` when integral, else a ``fractions.Fraction``,
never a float; see :func:`exact`), multivariate polynomials over the
Gaussian rationals in named symbols, generalized binomial coefficients, and
a small linear solver.  The reserved symbol
``I`` is the formal imaginary unit and satisfies I*I = -1; it is reduced
eagerly so a polynomial never stores a power of I above 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping


IMAG = "I"

# monomial: tuple of (symbol, power) pairs, sorted by symbol, powers >= 1
Mono = tuple[tuple[str, int], ...]

_ONE_MONO: Mono = ()


@lru_cache(maxsize=None)
def binom_int(x: int, k: int) -> int:
    """Generalized binomial prod_{j=0}^{k-1}(x-j) / k! for integer x.

    x may be negative; k must be nonnegative.  The result is an integer (a
    product of k consecutive integers is divisible by k!), so the floor
    division is exact.
    """
    if k < 0:
        raise ValueError(f"binomial lower index must be >= 0, got {k}")
    num = 1
    for j in range(k):
        num *= x - j
    den = 1
    for j in range(2, k + 1):
        den *= j
    return num // den


def _mono_mul(a: Mono, b: Mono) -> tuple[int, Mono]:
    """Multiply two monomials; returns (sign, monomial) after I*I -> -1."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    counts: dict[str, int] = {}
    for name, p in a:
        counts[name] = counts.get(name, 0) + p
    for name, p in b:
        counts[name] = counts.get(name, 0) + p
    sign = 1
    ipow = counts.get(IMAG, 0)
    if ipow >= 2:
        if (ipow // 2) % 2:
            sign = -1
        ipow %= 2
        if ipow:
            counts[IMAG] = 1
        else:
            del counts[IMAG]
    return sign, tuple(sorted(counts.items()))


def _from_terms(t: dict[Mono, int | Fraction]) -> "Poly":
    p = Poly.__new__(Poly)
    p._t = t
    p._hash = None
    return p


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Each stored coefficient is an ``int`` when it is integral and a
    ``Fraction`` with denominator > 1 otherwise, never a float (see
    :func:`exact`).  Immutable by convention: no method mutates ``self``.
    """

    __slots__ = ("_t", "_hash")

    def __init__(self, terms: Mapping[Mono, int | Fraction] | None = None):
        t: dict[Mono, int | Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = _number(exact(c))
                if c:
                    t[mono] = c
        self._t = t
        self._hash: int | None = None

    # --- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value) -> "Poly":
        v = _number(exact(value))
        return _from_terms({_ONE_MONO: v} if v else {})

    @classmethod
    def sym(cls, name: str) -> "Poly":
        if not name:
            raise ValueError("empty symbol name")
        return _from_terms({((name, 1),): 1})

    # --- basic queries ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def is_const(self) -> bool:
        return not self._t or (len(self._t) == 1 and _ONE_MONO in self._t)

    def const_value(self) -> int | Fraction:
        if not self._t:
            return 0
        if not self.is_const():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._t[_ONE_MONO]

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for mono in self._t:
            for name, _ in mono:
                out.add(name)
        return out

    def terms(self) -> dict[Mono, int | Fraction]:
        return dict(self._t)

    # --- ring operations --------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if not other._t:
            return self
        if not self._t:
            return other
        t = dict(self._t)
        for mono, c in other._t.items():
            acc = t.get(mono)
            c = c if acc is None else exact(acc + c)
            if c:
                t[mono] = c
            elif mono in t:
                del t[mono]
        return _from_terms(t)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _from_terms({m: -c for m, c in self._t.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def _scaled(self, c: int | Fraction) -> "Poly":
        """self * c for a nonzero exact number c; no monomial changes."""
        if c == 1:
            return self
        return _from_terms({m: exact(v * c) for m, v in self._t.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            a, b = self._t, other._t
            if not a or not b:
                return Poly()
            # a constant operand scales the other one directly
            if len(b) == 1 and _ONE_MONO in b:
                return self._scaled(b[_ONE_MONO])
            if len(a) == 1 and _ONE_MONO in a:
                return other._scaled(a[_ONE_MONO])
        else:
            c = _number(other)
            return self._scaled(c) if c and self._t else Poly()
        t: dict[Mono, int | Fraction] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                sign, m = _mono_mul(m1, m2)
                c = c1 * c2 if sign == 1 else -(c1 * c2)
                acc = t.get(m)
                c = exact(c if acc is None else acc + c)
                if c:
                    t[m] = c
                elif m in t:
                    del t[m]
        return _from_terms(t)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        return self * (Fraction(1) / _number(other))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._t.items()))
        return self._hash

    # --- structure --------------------------------------------------------

    def substitute(self, assignment: Mapping[str, "Poly | Fraction | int"]) -> "Poly":
        """Replace symbols by polynomials or rationals; exact."""
        subs = {k: _coerce(v) for k, v in assignment.items()}
        out = Poly()
        for mono, c in self._t.items():
            term = Poly.const(c)
            for name, p in mono:
                rep = subs.get(name)
                factor = rep if rep is not None else Poly.sym(name)
                term = term * factor**p
            out = out + term
        return out

    def coeff_of_symbol(self, name: str) -> tuple["Poly", "Poly"]:
        """Split as  coeff*name + rest  with ``name`` of degree exactly 1.

        Raises ValueError (a SolveError) if ``name`` appears with power >= 2.
        """
        row = _decompose(self, [name])
        return row.get(name, Poly()), row.get(None, Poly())

    # --- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)!r})"

    def __str__(self) -> str:
        return render_poly(self)


def exact(c) -> int | Fraction | Poly:
    """`c` as an int when it is integral, else as a Fraction; a constant
    Poly becomes its number and a Poly with a symbol is returned as it is.
    A float is refused rather than rounded.  This is the one normaliser of
    every coefficient a `Poly` stores and of the engine's memo values."""
    t = type(c)
    if t is int:
        return c
    if t is Fraction:
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, Poly):
        if not c.is_const():
            return c
        c = c.const_value()
    elif isinstance(c, float):
        raise TypeError(f"exact coefficient expected, got the float {c!r}")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _number(value) -> int | Fraction:
    """A non-Poly operand of `*` or `/`: an exact number, never a float."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"exact number expected, got {type(value).__name__} {value!r}")


def _coerce(value) -> Poly:
    return value if isinstance(value, Poly) else Poly.const(_number(value))


# --- rendering / parsing -----------------------------------------------------


def _render_mono(mono: Mono) -> str:
    parts = []
    for name, p in mono:
        parts.append(name if p == 1 else f"{name}^{p}")
    return "*".join(parts)


def render_poly(p: Poly) -> str:
    if not p:
        return "0"
    bits = []
    for mono in sorted(p._t):
        c = p._t[mono]
        m = _render_mono(mono)
        if not m:
            body = str(abs(c))
        elif abs(c) == 1:
            body = m
        else:
            body = f"{abs(c)}*{m}"
        sign = "-" if c < 0 else "+"
        bits.append((sign, body))
    first_sign, first = bits[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, body in bits[1:]:
        out += f" {sign} {body}"
    return out


def parse_rational(text: str) -> Fraction:
    """`Fraction(text)`, with a zero denominator refused as the ValueError
    parse_poly raises for one, not as a ZeroDivisionError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


PARSE_CACHE_SIZE = 1024

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[\^*/+-])")


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_poly(text: str) -> Poly:
    """Parse sums of '*'-joined factors: rationals p/q, symbols, sym^k, I.

    Terms are joined by '+' or '-'; each is read into one exact number and
    one monomial, and the result is built as one Poly.

    The last `PARSE_CACHE_SIZE` = 1024 distinct texts parsed are cached, so a
    certificate that repeats a coefficient parses it once; every caller gets
    the same `Poly`, which no method mutates.  A text that does not parse
    raises each time it is given (errors are not cached).
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse polynomial {text!r} at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial string")

    terms: dict[Mono, Fraction] = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        coeff: int | Fraction = sign
        mono = _ONE_MONO
        while True:
            if i >= n:
                raise ValueError(f"dangling operator in {text!r}")
            tok = tokens[i]
            i += 1
            if tok.isdigit():
                if i < n and tokens[i] == "/":
                    den = tokens[i + 1] if i + 1 < n else ""
                    if not den.isdigit():
                        raise ValueError(f"bad rational in {text!r}")
                    if not int(den):
                        raise ValueError(f"zero denominator in {text!r}")
                    coeff *= Fraction(int(tok), int(den))
                    i += 2
                else:
                    coeff *= int(tok)
            elif tok in "^*/+-":
                raise ValueError(f"unexpected token {tok!r} in {text!r}")
            else:
                power = 1
                if i < n and tokens[i] == "^":
                    if i + 1 >= n or not tokens[i + 1].isdigit():
                        raise ValueError(f"bad power in {text!r}")
                    power = int(tokens[i + 1])
                    i += 2
                if tok == IMAG:
                    coeff *= -1 if (power // 2) % 2 else 1
                    power %= 2
                if power:
                    s, mono = _mono_mul(mono, ((tok, power),))
                    coeff *= s
            if i < n and tokens[i] == "*":
                i += 1
                continue
            break
        if i < n and tokens[i] not in "+-":
            raise ValueError(f"missing operator before {tokens[i]!r} in {text!r}")
        terms[mono] = terms.get(mono, 0) + coeff
    return Poly(terms)


# --- linear solver -------------------------------------------------------------


class SolveError(ValueError):
    """Linear system is inconsistent or underdetermined."""

    def __init__(self, message: str, free: list[str] | None = None):
        super().__init__(message)
        self.free = free or []


def _decompose(eq: Poly, unknowns: list[str]) -> dict[str | None, Poly]:
    """Write eq = sum coeff_u * u + rest as the row {u: coeff_u, None: rest},
    zeros left out; each monomial may hold one unknown, to the first power."""
    uset = set(unknowns)
    row: dict[str | None, dict[Mono, int | Fraction]] = {}
    for mono, c in eq.terms().items():
        present = [(s, p) for s, p in mono if s in uset]
        if not present:
            row.setdefault(None, {})[mono] = c
            continue
        if len(present) > 1 or present[0][1] > 1:
            raise SolveError(f"equation not linear in unknowns: {eq}")
        name = present[0][0]
        reduced = tuple((s, p) for s, p in mono if s != name)
        row.setdefault(name, {})[reduced] = c
    return {k: Poly(t) for k, t in row.items()}


def _eliminate(row: dict[str | None, Poly], name: str,
               pivot: dict[str | None, Poly]) -> dict[str | None, Poly]:
    """row - c * (name + pivot), with c the row's coefficient on `name`; a
    pivot row leaves its coefficient 1 on its own unknown implicit."""
    c = row.get(name)
    if c is None:
        return row
    neg = -c
    out = {k: v for k, v in row.items() if k != name}
    for k, v in pivot.items():
        term = v * neg
        out[k] = out[k] + term if k in out else term
    return {k: v for k, v in out.items() if v}


def solve_linear(equations: Iterable[Poly], unknowns: Iterable[str]) -> dict[str, Poly]:
    """Solve a linear system over the polynomial ring by Gauss-Jordan
    elimination: each pivot row is scaled to 1 on its unknown u, and u is
    eliminated from every other row, so each pivot row ends as u + rest = 0.

    Pivots must be nonzero rational constants (the systems this engine
    produces always have constant coefficients on their unknowns).
    Returns an assignment mapping each unknown to a Poly free of unknowns.
    """
    names = list(unknowns)
    rows = [_decompose(eq, names) for eq in equations]
    pivots: dict[str, dict[str | None, Poly]] = {}

    remaining = list(names)
    while remaining:
        pivot_idx = pivot_name = None
        for ri, row in enumerate(rows):
            for u in remaining:
                c = row.get(u)
                if c is not None and c.is_const() and c.const_value():
                    pivot_idx, pivot_name = ri, u
                    break
            if pivot_idx is not None:
                break
        if pivot_idx is None:
            appearing = sorted({u for row in rows for u in row if u in remaining})
            if appearing:
                raise SolveError(
                    f"no constant pivot for unknowns {appearing}", free=appearing
                )
            raise SolveError(
                f"underdetermined system; free unknowns: {sorted(remaining)}",
                free=sorted(remaining),
            )
        row = rows.pop(pivot_idx)
        inv = Fraction(1) / row.pop(pivot_name).const_value()
        row = {k: v * inv for k, v in row.items()}
        remaining.remove(pivot_name)
        if any(pivot_name in r and not r[pivot_name].is_const() for r in rows):
            raise SolveError(f"nonconstant coefficient on {pivot_name}")
        rows = [_eliminate(r, pivot_name, row) for r in rows]
        pivots = {u: _eliminate(r, pivot_name, row) for u, r in pivots.items()}
        pivots[pivot_name] = row

    for row in rows:
        rest = row.get(None)
        if rest:
            raise SolveError(f"inconsistent system, residual {rest}")
    return {u: -row.get(None, Poly()) for u, row in pivots.items()}
