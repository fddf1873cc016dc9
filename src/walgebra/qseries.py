"""Exact truncated q-series and the characters used for singular-vector counting.

A series is sum_n a_n q^(offset + n) with a rational offset, stored as one
dense list a_0 .. a_cutoff of the `int` coefficients at integer steps above
the offset; the list's length is the validity range.  The characters are
integer series, so all arithmetic is plain `int` arithmetic; only the
offset, q^(-c/24), is a `Fraction`.  phi = prod_{n>=1} (1 - q^n) comes from
Euler's pentagonal theorem.  Division by a series with constant term +-1 is
one exact recurrence, `_divide`, whose sum over the divisor's terms is three
C-level gathers per coefficient: the terms with coefficient +1 summed, those
with -1 summed, and every other one in one dot product; an inverse is
division of 1.  The triplet character divides its theta bracket by phi.  The
Verma and quotient characters are numer / prod_k phi_k, with phi_k = 1 through
the cutoff for a weight k above it and 1/phi_k = (1/phi) prod_{n<k} (1 - q^n)
otherwise: each (1 - q^n) is one running difference on the short numerator,
and the result is divided once by phi^3 per three weights and by phi per
weight left over.  phi^3 comes from Jacobi's identity and is as sparse as
phi, so no character multiplies two series.  A product runs one C-level row
per nonzero term of its sparser factor.  Cutoff bookkeeping is
conservative.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, itemgetter, mul, sub

from .algebra import central_charge_p1


# The largest cutoff taken from untrusted input.  A character divides by phi
# or phi^3, each with O(sqrt(cutoff)) nonzero terms, so its cost grows about
# 3x per doubling of the cutoff.  At 20000 the p = 2 Verma and quotient
# characters took about 0.6 s each in-process (best of 5, Python 3.11.7 on
# a shared 2-vCPU Intel Xeon VM), and a weight above the cutoff costs
# nothing.  A weight k at or below the cutoff still costs k - 1 running
# differences over up to cutoff + 1 terms, so O(k x cutoff): a cold
# verma-character --p 10000 --cutoff 20000 takes about 27 s on that host.
MAX_CUTOFF = 20000


class QSeriesError(ValueError):
    pass


class QSeries:
    """Truncated formal series sum a_n q^(offset + n): `coeffs` lists the
    integers a_0 .. a_cutoff densely, so its length is the validity range (n
    counts integer steps above the offset)."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: Fraction, coeffs: list[int]):
        self.offset = Fraction(offset)
        # a copy: the caller's list stays its own to mutate
        self.coeffs = list(coeffs)

    # --- constructors ----------------------------------------------------------

    @classmethod
    def one(cls, cutoff: int):
        return cls(Fraction(0), [1] + [0] * cutoff)

    # --- lattice alignment ------------------------------------------------------

    @staticmethod
    def _aligned(a: "QSeries", b: "QSeries"):
        """The lower offset, and both coefficient lists on it: zero-padded in
        front and cut to their common validity."""
        shift = b.offset - a.offset
        if shift.denominator != 1:
            raise QSeriesError(
                f"offsets {a.offset} and {b.offset} differ off-lattice"
            )
        s = int(shift)
        xs = [0] * -s + a.coeffs
        ys = [0] * s + b.coeffs
        n = min(len(xs), len(ys))
        return min(a.offset, b.offset), xs[:n], ys[:n]

    # --- arithmetic --------------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        offset, xs, ys = QSeries._aligned(self, other)
        return QSeries(offset, [x + y for x, y in zip(xs, ys)])

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + other.scale(-1)

    def scale(self, factor) -> "QSeries":
        return QSeries(self.offset, [c * factor for c in self.coeffs])

    def __mul__(self, other: "QSeries") -> "QSeries":
        # both factors are exact through the aligned length, so their product
        # is too; it sits at twice the common offset
        offset, xs, ys = QSeries._aligned(self, other)
        count = len(xs)
        if xs.count(0) < ys.count(0):
            xs, ys = ys, xs
        # one C-level row per nonzero term x q^i of the sparser factor
        out = [0] * count
        for i, x in enumerate(xs):
            if x:
                out[i:] = map(add, out[i:], map(mul, ys[:count - i], repeat(x)))
        return QSeries(2 * offset, out)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; the constant lattice term must be a unit,
        +-1, for the inverse to have integer coefficients."""
        if not self.coeffs or not self.coeffs[0]:
            raise QSeriesError("series with vanishing constant term at its "
                               "offset cannot be inverted on the lattice")
        inv0 = self.coeffs[0]
        if inv0 not in (1, -1):
            raise QSeriesError(f"constant term {inv0} is not +-1, so the "
                               "inverse is not an integer series")
        return QSeries(-self.offset, _divide([1], self.coeffs))

    def shift(self, exponent: Fraction) -> "QSeries":
        """Multiply by q^exponent (exact offset shift)."""
        return QSeries(self.offset + Fraction(exponent), self.coeffs)

    # --- queries ------------------------------------------------------------------

    def leading_exponent(self) -> Fraction:
        for n, c in enumerate(self.coeffs):
            if c:
                return self.offset + n
        raise QSeriesError("series is zero through its cutoff")

    def coeff_at_exponent(self, exponent: Fraction) -> int:
        n = Fraction(exponent) - self.offset
        if n.denominator != 1:
            raise QSeriesError(f"exponent {exponent} is off-lattice")
        n = int(n)
        if n < 0:
            return 0
        if n >= len(self.coeffs):
            raise QSeriesError(f"exponent {exponent} beyond validity "
                               f"(cutoff index {len(self.coeffs) - 1})")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        if (self.offset - other.offset).denominator != 1:
            # off-lattice series share no exponent: equal only when both are
            # zero through their validity
            return not any(self.coeffs) and not any(other.coeffs)
        _, xs, ys = QSeries._aligned(self, other)
        return xs == ys

    def render_terms(self) -> list[tuple[str, int]]:
        """(exponent text, coefficient) for each nonzero term, in order.

        offset + n = (a + n b)/b stays in lowest terms for a reduced offset
        a/b, so each exponent is rendered from integer steps without building
        a Fraction."""
        a, b = self.offset.numerator, self.offset.denominator
        return [(str(a + n * b) if b == 1 else f"{a + n * b}/{b}", c)
                for n, c in enumerate(self.coeffs) if c]

    def render_lines(self) -> list[str]:
        return [f"{e}: {c}" for e, c in self.render_terms()]

    def __repr__(self) -> str:
        lines = self.render_lines()
        return f"QSeries<{', '.join(lines[:6])}{', ...' if len(lines) > 6 else ''}>"


# --- exact division ------------------------------------------------------------------


def _divide(numer: list[int], den: list[int]) -> list[int]:
    """The integers X_0 .. X_{len(den) - 1} with den * X = numer through
    q^(len(den) - 1); den_0 must be +-1.

    With den_0 = -1 both sides are negated first, so that den_0 = 1 and
    X_n = numer_n - sum_{k>=1} den_k X_{n-k}.  The sum is three C-level
    gathers: an itemgetter picks each X_{n-k} from the output so far as
    out[-k], since len(out) == n, once for the exponents k with den_k = 1,
    whose values are summed and subtracted, once for den_k = -1, summed and
    added, and once for every other nonzero den_k, taken against those
    values as one dot product.  A group's getter is rebuilt only when n
    reaches a new nonzero exponent of den."""
    count = len(den)
    numer = numer[:count] + [0] * (count - len(numer))
    if den[0] == -1:
        numer = [-c for c in numer]
        den = [-d for d in den]
    # each group's exponents k, stored as -k, and the other group's den_k
    plus, minus, others, values = [], [], [], []
    out: list[int] = []
    start = 0
    for stop in [k for k in range(1, count) if den[k]] + [count]:
        for acc in numer[start:stop]:
            if plus:
                acc -= sum(get_plus(out))
            if minus:
                acc += sum(get_minus(out))
            if others:
                acc -= sum(map(mul, values, get_others(out)))
            out.append(acc)
        if stop < count:
            v = den[stop]
            if v == 1:
                plus.append(-stop)
                get_plus = _gather(plus)
            elif v == -1:
                minus.append(-stop)
                get_minus = _gather(minus)
            else:
                others.append(-stop)
                values.append(v)
                get_others = _gather(others)
            start = stop
    return out


def _gather(indices: list[int]):
    """A getter of the items at the nonempty `indices` as a sequence.  An
    itemgetter over one index returns the item itself, not a 1-tuple, so one
    index k is the slice k .. k + 1 instead."""
    if len(indices) > 1:
        return itemgetter(*indices)
    k = indices[0]
    return itemgetter(slice(k, k + 1 or None))


# --- phi products ------------------------------------------------------------------


def phi(cutoff: int) -> QSeries:
    """prod_{n>=1} (1 - q^n), exactly through q^cutoff."""
    return phi_trunc(1, cutoff)


def phi_trunc(k: int, cutoff: int) -> QSeries:
    """prod_{n>=k} (1 - q^n), exactly through q^cutoff."""
    if k < 1:
        raise QSeriesError("phi truncation index must be >= 1")
    # Euler: phi = sum_j (-1)^j q^(j(3j-1)/2) over all integers j
    coeffs = [0] * (cutoff + 1)
    j = 0
    while j * (3 * j - 1) // 2 <= cutoff:
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e <= cutoff:
                coeffs[e] = -1 if j % 2 else 1
        j += 1
    # divide out (1 - q^n) for n < k: a running sum with stride n
    for n in range(1, min(k, cutoff + 1)):
        for e in range(n, cutoff + 1):
            coeffs[e] += coeffs[e - n]
    return QSeries(Fraction(0), coeffs)


def _phi_cubed(cutoff: int) -> list[int]:
    """The coefficients of phi^3 through q^cutoff, by Jacobi's identity
    phi^3 = sum_{j>=0} (-1)^j (2j+1) q^(j(j+1)/2): as sparse as phi."""
    coeffs = [0] * (cutoff + 1)
    j = 0
    while j * (j + 1) // 2 <= cutoff:
        coeffs[j * (j + 1) // 2] = -(2 * j + 1) if j % 2 else 2 * j + 1
        j += 1
    return coeffs


def _over_phi_truncs(numer: list[int], ks: list[int], cutoff: int) -> QSeries:
    """numer / prod_{k in ks} phi_k, exactly through q^cutoff.

    A weight k above the cutoff is dropped, as phi_k = 1 through q^cutoff.
    Each other 1/phi_k = (1/phi) prod_{n<k} (1 - q^n): the finite products
    go into the short numerator first, one running difference per n over
    its own length, and the result is divided once by phi^3 per three
    weights and by phi per weight left over."""
    ks = [k for k in ks if k <= cutoff]
    length = min(cutoff + 1, len(numer) + sum(k * (k - 1) // 2 for k in ks))
    out = numer[:length] + [0] * (length - len(numer))
    for k in ks:
        for n in range(1, k):
            out[n:] = map(sub, out[n:], out[:length - n])
    cubes, rest = divmod(len(ks), 3)
    if cubes:
        den = _phi_cubed(cutoff)
        for _ in range(cubes):
            out = _divide(out, den)
    if rest:
        den = phi(cutoff).coeffs
        for _ in range(rest):
            out = _divide(out, den)
    # with no weight at or below the cutoff, the numerator is not yet padded
    return QSeries(Fraction(0), out + [0] * (cutoff + 1 - len(out)))


# --- characters ----------------------------------------------------------------------


def verma_character(weights: list[int], c: Fraction, cutoff: int) -> QSeries:
    """Vacuum Verma character q^(-c/24) / (phi_2 * prod phi_{h_i}).

    `weights` lists every generator weight and must contain the conformal
    weight 2; the remaining entries contribute one phi factor each.
    """
    ws = sorted(weights)
    if 2 not in ws:
        raise QSeriesError("weights must include the conformal weight 2")
    if ws[0] < 1:
        raise QSeriesError(f"bad weight {ws[0]}")
    out = _over_phi_truncs([1], ws, cutoff)
    return out.shift(-Fraction(c) / 24)


def triplet_theta_bracket(p: int, cutoff: int) -> QSeries:
    """sum_s (2s+1) q^(p s^2 + (p-1) s), the numerator of the triplet character
    after factoring q^(-c/24).  The exponent grows with |s| on each side of
    s = 0, and the two sides never share an exponent, so n = |s| runs upward
    until the smaller exponent p n^2 - (p-1) n, at s = -n, passes the cutoff."""
    coeffs = [0] * (cutoff + 1)
    n = 0
    while p * n * n - (p - 1) * n <= cutoff:
        for s in (n, -n) if n else (0,):
            e = p * s * s + (p - 1) * s
            if e <= cutoff:
                coeffs[e] = 2 * s + 1
        n += 1
    return QSeries(Fraction(0), coeffs)


def triplet_character(p: int, cutoff: int) -> QSeries:
    """Character of the weight-(2p-1) triplet algebra at c_{p,1}."""
    if p < 2:
        raise QSeriesError("p must be >= 2")
    c = central_charge_p1(p)
    bracket = triplet_theta_bracket(p, cutoff)
    series = _divide(bracket.coeffs, phi(cutoff).coeffs)
    return QSeries(-c / 24, series)


def chi_tilde(p: int, cutoff: int) -> QSeries:
    """Character of the vacuum Verma module with the three weight-(2p-1)+3
    singular vectors removed."""
    if p < 2:
        raise QSeriesError("p must be >= 2")
    c = central_charge_p1(p)
    w = 2 * p - 1
    first = _over_phi_truncs([1], [2], cutoff)
    second = _over_phi_truncs([1, 0, 0, -1], [1, w, w], cutoff)
    total = first + second.scale(3).shift(Fraction(w))
    return total.shift(-c / 24)


def coeff_at_level(series: QSeries, level: Fraction) -> int:
    """Coefficient at (leading vacuum exponent) + level."""
    return series.coeff_at_exponent(series.leading_exponent() + Fraction(level))


def diff_at_level(a: QSeries, b: QSeries, level: Fraction) -> int:
    return coeff_at_level(a, level) - coeff_at_level(b, level)
