"""Exact scalar arithmetic.

Exact rationals (an ``int`` when integral, else a ``fractions.Fraction``,
never a float; see :func:`exact`), multivariate polynomials over the
Gaussian rationals in named symbols, generalized binomial coefficients, and
a small linear solver.  A polynomial stores integer numerators over one
positive denominator and does integer arithmetic; its coefficients become
exact rationals only when read.  The reserved symbol
``I`` is the formal imaginary unit and satisfies I*I = -1; it is reduced
eagerly so a polynomial never stores a power of I above 1.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


IMAG = "I"

# monomial: tuple of (symbol, power) pairs, sorted by symbol, powers >= 1
Mono = tuple[tuple[str, int], ...]

_ONE_MONO: Mono = ()
_I_MONO: Mono = ((IMAG, 1),)


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


def _make(n: dict[Mono, int], d: int) -> "Poly":
    """The Poly n / d, with n and d already in the stored form."""
    p = Poly.__new__(Poly)
    p._n = n
    p._d = d
    p._hash = None
    return p


def _reduced(n: dict[Mono, int], d: int) -> "Poly":
    """The Poly n / d for nonzero numerators n and a denominator d > 0,
    divided through by the gcd of all of them."""
    if not n:
        return _ZERO
    if d != 1:
        g = gcd(d, *n.values())
        if g != 1:
            n = {m: c // g for m, c in n.items()}
            d //= g
    return _make(n, d)


def _ratio(num: int, den: int) -> int | Fraction:
    """num / den as `exact` would store it."""
    if den == 1:
        return num
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Stored as nonzero integer numerators, one per monomial, over one
    positive denominator that shares no factor with all of them; zero is
    no numerators over 1.  Ring operations do integer arithmetic only and
    reduce once at the end, and a coefficient becomes an ``int`` or a
    ``Fraction`` only when it is read (see :func:`exact`).  Immutable by
    convention: no method mutates ``self``.
    """

    __slots__ = ("_n", "_d", "_hash")

    def __init__(self, terms: Mapping[Mono, int | Fraction] | None = None):
        coeffs: dict[Mono, int | Fraction] = {}
        d = 1
        if terms:
            for mono, c in terms.items():
                c = _number(exact(c))
                if c:
                    coeffs[mono] = c
                    if not isinstance(c, int):
                        d = lcm(d, c.denominator)
        # over the lcm of reduced denominators the numerators are already
        # coprime to it: a prime to its highest power divides only d
        self._n = {m: c * d if isinstance(c, int) else c.numerator * (d // c.denominator)
                   for m, c in coeffs.items()}
        self._d = d
        self._hash: int | None = None

    # --- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value) -> "Poly":
        v = _number(exact(value))
        if not v:
            return _ZERO
        if isinstance(v, int):
            return _make({_ONE_MONO: v}, 1)
        return _make({_ONE_MONO: v.numerator}, v.denominator)

    @classmethod
    def sym(cls, name: str) -> "Poly":
        if not name:
            raise ValueError("empty symbol name")
        return _make({((name, 1),): 1}, 1)

    # --- basic queries ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._n)

    def is_zero(self) -> bool:
        return not self._n

    def is_const(self) -> bool:
        n = self._n
        return not n or (len(n) == 1 and _ONE_MONO in n)

    def const_value(self) -> int | Fraction:
        n = self._n
        if not n:
            return 0
        if len(n) != 1 or _ONE_MONO not in n:
            raise ValueError(f"not a constant polynomial: {self}")
        return _ratio(n[_ONE_MONO], self._d)

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for mono in self._n:
            for name, _ in mono:
                out.add(name)
        return out

    def terms(self) -> dict[Mono, int | Fraction]:
        d = self._d
        if d == 1:
            return dict(self._n)
        return {m: _ratio(c, d) for m, c in self._n.items()}

    # --- ring operations --------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        b = other._n
        if not b:
            return self
        a = self._n
        if not a:
            return other
        da, db = self._d, other._d
        if da == db:
            n = dict(a)
            fb = 1
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            n = {m: c * fa for m, c in a.items()}
            da *= fa
        for mono, c in b.items():
            if fb != 1:
                c *= fb
            acc = n.get(mono)
            if acc is not None:
                c += acc
                if not c:
                    del n[mono]
                    continue
            n[mono] = c
        return _reduced(n, da)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make({m: -c for m, c in self._n.items()}, self._d)

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def _scaled(self, num: int, den: int) -> "Poly":
        """self * num / den for a nonzero num over den > 0, coprime; no
        monomial changes."""
        n, d = self._n, self._d
        if den == 1:
            # the numerators share no factor with d, so only num can cancel
            g = gcd(num, d)
            if g != 1:
                num //= g
                d //= g
            elif num == 1:
                return self
            return _make(n if num == 1 else {m: c * num for m, c in n.items()}, d)
        return _reduced(n if num == 1 else {m: c * num for m, c in n.items()}, d * den)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            a, b = self._n, other._n
            if not a or not b:
                return _ZERO
            # a constant operand scales the other one directly
            if len(b) == 1 and _ONE_MONO in b:
                return self._scaled(b[_ONE_MONO], other._d)
            if len(a) == 1 and _ONE_MONO in a:
                return other._scaled(a[_ONE_MONO], self._d)
        else:
            c = _number(other)
            if not c:
                return _ZERO
            if isinstance(c, int):
                return self._scaled(c, 1)
            return self._scaled(c.numerator, c.denominator)
        n: dict[Mono, int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                sign, m = _mono_mul(m1, m2)
                c = c1 * c2 if sign == 1 else -(c1 * c2)
                acc = n.get(m)
                if acc is not None:
                    c += acc
                    if not c:
                        del n[m]
                        continue
                n[m] = c
        return _reduced(n, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        c = _number(other)
        if not c:
            raise ZeroDivisionError(f"polynomial division by {c}")
        num, den = (c, 1) if isinstance(c, int) else (c.numerator, c.denominator)
        if num < 0:
            num, den = -num, -den
        return self._scaled(den, num)

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
        return self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._d, frozenset(self._n.items())))
        return self._hash

    # --- structure --------------------------------------------------------

    def substitute(self, assignment: Mapping[str, "Poly | Fraction | int"]) -> "Poly":
        """Replace symbols by polynomials or rationals; exact."""
        subs = {k: _coerce(v) for k, v in assignment.items()}
        out = _ZERO
        for mono, c in self._n.items():
            term = _make({_ONE_MONO: c}, 1)
            for name, p in mono:
                rep = subs.get(name)
                factor = rep if rep is not None else Poly.sym(name)
                term = term * factor**p
            out = out + term
        # the numerators were summed; divide once by their denominator
        return out._scaled(1, self._d)

    def coeff_of_symbol(self, name: str) -> tuple["Poly", "Poly"]:
        """Split as  coeff*name + rest  with ``name`` of degree exactly 1.

        Raises ValueError (a SolveError) if ``name`` appears with power >= 2.
        """
        row = _decompose(self, [name])
        return row.get(name, _ZERO), row.get(None, _ZERO)

    # --- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)!r})"

    def __str__(self) -> str:
        return render_poly(self)


_ZERO = _make({}, 1)


def exact(c) -> int | Fraction | Poly:
    """`c` as an int when it is integral, else as a Fraction; a constant
    Poly becomes its number and a Poly with a symbol is returned as it is.
    A float is refused rather than rounded.  This is the one normaliser of
    the numbers a `Poly` is built from and reads out, and of the engine's
    memo values."""
    t = type(c)
    if t is int:
        return c
    if t is Fraction:
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, Poly):
        return c.const_value() if c.is_const() else c
    if isinstance(c, float):
        raise TypeError(f"exact coefficient expected, got the float {c!r}")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _factor(x) -> tuple[int, int, dict[Mono, int] | None]:
    """x as k / d times the numerators m, with m None for a constant, so that
    a constant scales the other side of a product directly; k is 0 for zero."""
    if type(x) is Poly:
        m = x._n
        if len(m) == 1 and _ONE_MONO in m:
            return m[_ONE_MONO], x._d, None
        return (1 if m else 0), x._d, m
    x = _number(x)
    if type(x) is int:
        return x, 1, None
    return x.numerator, x.denominator, None


def sum_products(pairs: list[tuple]) -> Poly:
    """The sum of a * b over the (a, b) pairs, each side a Poly or an exact
    number, as one Poly.

    The products are summed as integer numerators over one running
    denominator, the lcm of the pairs' denominators, and reduced once at the
    end with one gcd, where one `+` per pair would build a Poly and take a
    gcd for each.  A constant side scales the other side's numerators
    directly, and I*I reduces to -1 as in `*`.  A single pair is one `*`."""
    if len(pairs) == 1:
        (a, b), = pairs
        return _coerce(a) * b
    n: dict[Mono, int] = {}
    den = 1
    for a, b in pairs:
        ka, da, ma = _factor(a)
        if not ka:
            continue
        kb, db, mb = _factor(b)
        if not kb:
            continue
        d = da * db
        k = ka * kb
        if d != den:
            if not n:
                den = d
            else:
                g = gcd(den, d)
                if g != d:
                    # den is not a multiple of d: move the sum to their lcm
                    grow = d // g
                    n = {m: c * grow for m, c in n.items()}
                    den *= grow
                k *= den // d
        if ma is None:
            if mb is None:
                n[_ONE_MONO] = n.get(_ONE_MONO, 0) + k
                continue
            ma, mb = mb, ma
        if mb is None:
            for m, c in ma.items():
                n[m] = n.get(m, 0) + c * k
            continue
        for m1, c1 in ma.items():
            c1 *= k
            for m2, c2 in mb.items():
                sign, m = _mono_mul(m1, m2)
                n[m] = n.get(m, 0) + (c1 * c2 if sign == 1 else -(c1 * c2))
    if 0 in n.values():
        n = {m: c for m, c in n.items() if c}
    return _reduced(n, den)


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
    n, d = p._n, p._d
    bits = []
    for mono in sorted(n):
        c = n[mono]
        m = _render_mono(mono)
        if not m:
            body = str(_ratio(abs(c), d))
        elif abs(c) == d:
            body = m
        else:
            body = f"{_ratio(abs(c), d)}*{m}"
        sign = "-" if c < 0 else "+"
        bits.append((sign, body))
    first_sign, first = bits[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, body in bits[1:]:
        out += f" {sign} {body}"
    return out


PARSE_CACHE_SIZE = 1024

# the longest repr of a document value that a refusal quotes whole
QUOTED = 60


def clipped(text: str) -> str:
    """`text` as a refusal echoes it: whole up to `QUOTED` characters, else
    its first `QUOTED` characters and its length."""
    return text if len(text) <= QUOTED else f"{text[:QUOTED]}... ({len(text)} characters)"


def quoted(value) -> str:
    """The repr of a document value, clipped as a refusal echoes it."""
    return clipped(repr(value))


def _exponent_notation(text: str) -> bool:
    """Whether `Fraction` reads `text` in exponent notation, such as "1e5"
    or "2.5E-3": a rational mantissa, an "e" and a signed integer."""
    mantissa, e, power = text.lower().partition("e")
    power = power.rstrip()
    if power[:1] in ("+", "-"):
        power = power[1:]
    if not (e and power.replace("_", "").isdecimal()):
        return False
    try:
        Fraction(mantissa + "e0")
    except ValueError:
        return False
    return True


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_rational(text: str) -> Fraction:
    """`Fraction(text)`, with a zero denominator refused as the ValueError
    parse_poly raises for one, not as a ZeroDivisionError.

    Exponent notation is refused with a ValueError too: Fraction builds 10
    to the exponent outright, a billion digits for "1e999999999", and even
    "1e5000" has more digits than `str` converts back to text.

    Like `parse_poly`, the last `PARSE_CACHE_SIZE` distinct texts parsed are
    cached, so a certificate loaded again parses each null coefficient once;
    a Fraction is immutable, and errors are not cached."""
    if _exponent_notation(text):
        raise ValueError(f"exponent notation in {quoted(text)}; write the rational "
                         "as an integer, a decimal or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {quoted(text)}") from None
    except ValueError as exc:  # Fraction's own refusal repeats the whole text
        raise ValueError(str(exc).replace(repr(text), quoted(text))) from None

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
                raise ValueError(f"cannot parse polynomial {quoted(text)} "
                                 f"at {quoted(text[pos:])}")
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
                raise ValueError(f"dangling operator in {quoted(text)}")
            tok = tokens[i]
            i += 1
            if tok.isdigit():
                if i < n and tokens[i] == "/":
                    den = tokens[i + 1] if i + 1 < n else ""
                    if not den.isdigit():
                        raise ValueError(f"bad rational in {quoted(text)}")
                    if not int(den):
                        raise ValueError(f"zero denominator in {quoted(text)}")
                    coeff *= Fraction(int(tok), int(den))
                    i += 2
                else:
                    coeff *= int(tok)
            elif tok in "^*/+-":
                raise ValueError(f"unexpected token {quoted(tok)} in {quoted(text)}")
            else:
                power = 1
                if i < n and tokens[i] == "^":
                    if i + 1 >= n or not tokens[i + 1].isdigit():
                        raise ValueError(f"bad power in {quoted(text)}")
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
            raise ValueError(f"missing operator before {quoted(tokens[i])} in {quoted(text)}")
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
    row: dict[str | None, dict[Mono, int]] = {}
    for mono, c in eq._n.items():
        present = [(s, p) for s, p in mono if s in uset]
        if not present:
            row.setdefault(None, {})[mono] = c
            continue
        if len(present) > 1 or present[0][1] > 1:
            raise SolveError(f"equation not linear in unknowns: {eq}")
        name = present[0][0]
        reduced = tuple((s, p) for s, p in mono if s != name)
        row.setdefault(name, {})[reduced] = c
    return {k: _reduced(t, eq._d) for k, t in row.items()}


def _gaussian(c: Poly) -> bool:
    """Whether c is a constant a + b*I of Q(i)."""
    return all(not m or m == _I_MONO for m in c._n)


def _inverse(c: Poly) -> Poly:
    """1/c for a nonzero c = (a + b*I)/d of Q(i): d*(a - b*I)/(a^2 + b^2)."""
    a, b, d = c._n.get(_ONE_MONO, 0), c._n.get(_I_MONO, 0), c._d
    n = {}
    if a:
        n[_ONE_MONO] = a * d
    if b:
        n[_I_MONO] = -b * d
    return _reduced(n, a * a + b * b)


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

    Pivots must be nonzero constants of Q(i) (the systems this engine
    produces always have constant coefficients on their unknowns); a
    rational pivot is taken wherever one exists, so a system with rational
    pivots is solved in the same order as over Q.
    Returns an assignment mapping each unknown to a Poly free of unknowns.
    """
    names = list(unknowns)
    rows = [_decompose(eq, names) for eq in equations]
    pivots: dict[str, dict[str | None, Poly]] = {}

    remaining = list(names)
    while remaining:
        found = None
        for pivotable in (Poly.is_const, _gaussian):
            found = next(((ri, u) for ri, row in enumerate(rows) for u in remaining
                          if u in row and pivotable(row[u])), None)
            if found:
                break
        if found is None:
            appearing = sorted({u for row in rows for u in row if u in remaining})
            if appearing:
                raise SolveError(
                    f"no constant pivot for unknowns {appearing}", free=appearing
                )
            raise SolveError(
                f"underdetermined system; free unknowns: {sorted(remaining)}",
                free=sorted(remaining),
            )
        pivot_idx, pivot_name = found
        row = rows.pop(pivot_idx)
        inv = _inverse(row.pop(pivot_name))
        row = {k: v * inv for k, v in row.items()}
        remaining.remove(pivot_name)
        if any(pivot_name in r and not _gaussian(r[pivot_name]) for r in rows):
            raise SolveError(f"nonconstant coefficient on {pivot_name}")
        rows = [_eliminate(r, pivot_name, row) for r in rows]
        pivots = {u: _eliminate(r, pivot_name, row) for u, r in pivots.items()}
        pivots[pivot_name] = row

    for row in rows:
        rest = row.get(None)
        if rest:
            raise SolveError(f"inconsistent system, residual {rest}")
    return {u: -row.get(None, _ZERO) for u, row in pivots.items()}
