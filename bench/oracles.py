"""Reference values computed apart from walgebra.

Everything here is plain ``int`` combinatorics or a closed form in Delta, so a
fault in walgebra cannot hide in its own oracle.  Nothing here imports
walgebra.
"""

from __future__ import annotations

import re
from fractions import Fraction


def partition_numbers(n_max: int) -> list[int]:
    """p(n) for 0 <= n <= n_max, by the coin-change recurrence."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            table[n] += table[n - part]
    return table


def pentagonal_phi(n_max: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n) by Euler's pentagonal theorem."""
    coeffs = [0] * (n_max + 1)
    k = 0
    while True:
        hit = False
        for j in ((k, -k) if k else (0,)):
            e = j * (3 * j - 1) // 2
            if e <= n_max:
                coeffs[e] += -1 if j % 2 else 1
                hit = True
        if not hit:
            return coeffs
        k += 1


def check_partitions(partitions: list[int]) -> None:
    """p(n) times phi must be 1: the partition table inverts the pentagonal
    series exactly through its length."""
    phi = pentagonal_phi(len(partitions) - 1)
    for n in range(len(partitions)):
        total = sum(partitions[n - k] * phi[k] for k in range(n + 1) if phi[k])
        if total != (1 if n == 0 else 0):
            raise AssertionError(f"partition oracle fails 1/phi at q^{n}")


def coloured_partitions(min_parts: list[int], n_max: int) -> list[int]:
    """Partitions with one colour per entry of ``min_parts``; colour i uses
    parts >= min_parts[i].  This is the coefficient list of
    prod_i 1 / prod_{n >= min_parts[i]} (1 - q^n)."""
    table = [1] + [0] * n_max
    for low in min_parts:
        for part in range(low, n_max + 1):
            for n in range(part, n_max + 1):
                table[n] += table[n - part]
    return table


def theta_exponents(p: int, n_max: int):
    """(exponent, weight) pairs of sum_s (2s+1) q^(p s^2 + (p-1) s)."""
    s_max = 0
    while p * s_max * s_max - (p - 1) * s_max <= n_max:
        s_max += 1
    for s in range(-s_max, s_max + 1):
        e = p * s * s + (p - 1) * s
        if 0 <= e <= n_max:
            yield e, 2 * s + 1


def triplet_coefficients(p: int, partitions: list[int]) -> list[int]:
    """Sum_s (2s+1) p(n - p s^2 - (p-1) s): the triplet character's level-n
    coefficient, for every n the partition table covers."""
    n_max = len(partitions) - 1
    out = [0] * (n_max + 1)
    for e, weight in theta_exponents(p, n_max):
        for n in range(e, n_max + 1):
            out[n] += weight * partitions[n - e]
    return out


def verma_coefficients(p: int, n_max: int) -> list[int]:
    """Vacuum Verma character of the weight-(2, d, d, d) algebra, d = 2p-1:
    parts >= 2 in one colour and parts >= d in three colours."""
    d = 2 * p - 1
    return coloured_partitions([2, d, d, d], n_max)


def central_charge(p: int) -> Fraction:
    """c_{p,1} = 1 - 6 (p-1)^2 / p."""
    return 1 - Fraction(6 * (p - 1) ** 2, p)


def derivation_closed_forms(p: int) -> dict[str, dict[str, Fraction]]:
    """The report fields as linear forms in B and C, from Delta = 2p-1 alone."""
    d = 2 * p - 1
    f = Fraction
    b_quasi = f(-(6 * d * d - 8 * d + 3), 6 * (4 * d - 3))
    b_primary = f(-(12 * d * d - 18 * d + 7), 4 * (4 * d - 3))
    forms = {
        "beta_ww_prime": {"": f(-(2 * d - 1) * (d - 1), 2 * (4 * d - 3))},
        "B_quasiprimary": {"C": b_quasi},
        "B_primary": {"C": b_primary},
        "gamma_sum": {"B": f(-5, 8)},
        "xi1": {"B": f(3), "C": f(d - 1, 2)},
        "xi2": {"B": f(2 * d - 9, 2), "C": f(d * d - 3 * d + 2, 2)},
        "xi3": {"B": f(45 - 15 * d, 24),
                "C": f(2 * d ** 3 - 12 * d * d + 22 * d - 12, 24)},
        "difference": {"C": f(6 * d - 5, 12)},
    }
    if b_quasi - b_primary != forms["difference"]["C"]:
        raise AssertionError("closed forms disagree on the difference")
    return {k: {s: c for s, c in v.items() if c} for k, v in forms.items()}


_TERM = re.compile(r"^(\d+(?:/\d+)?)?(?:\*?([A-Za-z_][A-Za-z0-9_]*))?$")


def parse_linear(text: str) -> dict[str, Fraction]:
    """Parse a rendered linear form such as ``-5/8*B + 3*C`` or ``12/5*I``
    into {symbol: coefficient}; the constant term has the symbol ``""``."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[str, Fraction] = {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for i, token in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = 1 if token == "+" else -1
            continue
        m = _TERM.match(token)
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"not a linear form: {text!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        symbol = m.group(2) or ""
        if symbol in out:
            raise ValueError(f"repeated term {symbol!r} in {text!r}")
        out[symbol] = sign * coeff
    return out
