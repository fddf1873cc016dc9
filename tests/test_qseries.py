from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walgebra import qseries
from walgebra.algebra import central_charge_p1
from walgebra.qseries import (
    QSeries,
    QSeriesError,
    chi_tilde,
    coeff_at_level,
    diff_at_level,
    phi,
    phi_trunc,
    triplet_character,
    triplet_theta_bracket,
    verma_character,
)

from identity_helpers import agrees_with


def partitions_min_part(n_max, kmin):
    """DP oracle: number of partitions with all parts >= kmin."""
    table = [0] * (n_max + 1)
    table[0] = 1
    for part in range(kmin, n_max + 1):
        for n in range(part, n_max + 1):
            table[n] += table[n - part]
    return table


def series(offset, terms, cutoff):
    """The series with the {n: coefficient} `terms` at n <= cutoff."""
    return QSeries(offset, [terms.get(n, 0) for n in range(cutoff + 1)])


def series_from_terms(terms, cutoff):
    coeffs = {}
    for e, c in terms:
        coeffs[e] = coeffs.get(e, 0) + c
    return series(Fraction(0), coeffs, cutoff)


def test_inverse_phi_counts_partitions():
    oracle = partitions_min_part(60, 1)
    inv = phi(60).inverse()
    for n in range(61):
        assert inv.coeffs[n] == oracle[n]
    assert oracle[6] == 11


def test_phi_trunc_identity_to_60():
    for k in range(2, 8):
        rhs = phi(60)
        for l in range(1, k):
            rhs = rhs * series_from_terms([(0, 1), (l, -1)], 60).inverse()
        assert phi_trunc(k, 60) == rhs


def test_phi_unit():
    assert phi(50) * phi(50).inverse() == QSeries.one(50)


def test_phi_trunc_counts_restricted_partitions():
    for k in (2, 3, 5):
        oracle = partitions_min_part(40, k)
        inv = phi_trunc(k, 40).inverse()
        for n in range(41):
            assert inv.coeffs[n] == oracle[n]


def verma_enumeration(p, n_max):
    """Count monomials in L modes (parts >= 2) and three colors of W modes
    (parts >= 2p-1)."""
    d = 2 * p - 1
    conv = partitions_min_part(n_max, 2)
    w_part = partitions_min_part(n_max, d)
    for _ in range(3):
        new = [0] * (n_max + 1)
        for a in range(n_max + 1):
            if conv[a]:
                for b in range(0, n_max + 1 - a):
                    new[a + b] += conv[a] * w_part[b]
        conv = new
    return conv


@pytest.mark.parametrize("p", [2, 3])
def test_verma_character_vs_enumeration(p):
    d = 2 * p - 1
    ch = verma_character([2, d, d, d], central_charge_p1(p), 25)
    oracle = verma_enumeration(p, 25)
    for level in range(26):
        assert coeff_at_level(ch, level) == oracle[level]


def test_verma_examples():
    ch = verma_character([2, 3, 3, 3], Fraction(-2), 10)
    assert coeff_at_level(ch, 6) == 19
    assert coeff_at_level(ch, 0) == 1
    assert ch.leading_exponent() == Fraction(1, 12)
    vir = verma_character([2], Fraction(-2), 20)
    assert vir == phi_trunc(2, 20).inverse().shift(Fraction(1, 12))
    with pytest.raises(QSeriesError):
        verma_character([3, 3], Fraction(0), 10)


def test_triplet_character_examples():
    tc = triplet_character(2, 12)
    assert coeff_at_level(tc, 0) == 1
    assert coeff_at_level(tc, 6) == 10
    oracle = partitions_min_part(6, 1)
    assert (
        oracle[6] - oracle[5] + 3 * oracle[3] - 3 * oracle[0]
        == 11 - 7 + 9 - 3
        == 10
    )


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_partial_expansions(p):
    cutoff = 6 * p
    bracket = triplet_theta_bracket(p, cutoff)
    partial = series_from_terms(
        [(0, 1), (1, -1), (2 * p - 1, 3), (2 * p + 2, -3)], cutoff
    )
    assert agrees_with(bracket, partial, Fraction(6 * p - 3))
    # the stated error order is sharp: the next theta term enters at 6p-2
    assert bracket.coeff_at_exponent(Fraction(6 * p - 2)) != partial.coeff_at_exponent(
        Fraction(6 * p - 2)
    )
    c = central_charge_p1(p)
    tilde_bracket = phi(cutoff) * chi_tilde(p, cutoff).shift(c / 24)
    partial2 = series_from_terms(
        [(0, 1), (1, -1), (2 * p - 1, 3), (2 * p + 2, -3), (4 * p - 2, 6)], cutoff
    )
    assert agrees_with(tilde_bracket, partial2, Fraction(4 * p - 2))


def test_chi_tilde_examples():
    ct = chi_tilde(2, 12)
    assert [coeff_at_level(ct, k) for k in (0, 1, 2)] == [1, 0, 1]
    assert coeff_at_level(ct, 6) == 16


@pytest.mark.parametrize("p", [3, 4, 5])
def test_diff_by_three(p):
    cutoff = 4 * p + 6
    d = 2 * p - 1
    v = verma_character([2, d, d, d], central_charge_p1(p), cutoff)
    t = triplet_character(p, cutoff)
    assert diff_at_level(v, t, Fraction(2 * p + 2)) == 3


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_diff_by_six(p):
    cutoff = 4 * p + 6
    ct = chi_tilde(p, cutoff)
    t = triplet_character(p, cutoff)
    assert diff_at_level(ct, t, Fraction(4 * p - 2)) == 6


def test_p2_overlap_is_nine():
    v = verma_character([2, 3, 3, 3], Fraction(-2), 10)
    t = triplet_character(2, 10)
    assert diff_at_level(v, t, Fraction(6)) == 9
    assert diff_at_level(t, t, Fraction(6)) == 0


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_theta_truncation_certified(p):
    # brute force over every |s| <= cutoff: p s^2 + (p-1) s >= |s| for p >= 2,
    # so no term past |s| = cutoff can land at or below the cutoff
    cutoff = 60
    coeffs = {}
    for s in range(-cutoff, cutoff + 1):
        e = p * s * s + (p - 1) * s
        if e <= cutoff:
            coeffs[e] = coeffs.get(e, 0) + 2 * s + 1
    bracket = triplet_theta_bracket(p, cutoff)
    assert len(bracket.coeffs) == cutoff + 1
    assert bracket.coeffs == [coeffs.get(e, 0) for e in range(cutoff + 1)]


def test_cutoff_bookkeeping_is_conservative():
    s = phi(10).inverse()
    with pytest.raises(QSeriesError):
        s.coeff_at_exponent(Fraction(11))
    with pytest.raises(QSeriesError):
        s.coeff_at_exponent(Fraction(1, 2))
    # products never claim validity beyond the shorter factor
    t = phi(5) * phi(10)
    assert len(t.coeffs) == 5 + 1


def test_lattice_alignment():
    # series live on integer steps above their offset; offsets that differ by
    # an integer align, anything else is off-lattice
    a = series(Fraction(1, 6), {0: 1}, 8)
    b = series(Fraction(-5, 6), {0: 1}, 9)
    s = a + b
    assert s.offset == Fraction(-5, 6)
    assert s.coeff_at_exponent(Fraction(-5, 6)) == 1
    assert s.coeff_at_exponent(Fraction(1, 6)) == 1
    with pytest.raises(QSeriesError):
        s.coeff_at_exponent(Fraction(1, 2))
    with pytest.raises(QSeriesError):
        a + series(Fraction(0), {0: 1}, 8)


def test_agreement_range_rounds_down():
    # exponents of a run from 0; a `through` below the offset compares nothing
    a = series_from_terms([(0, 1), (1, 1)], 5)
    b = series_from_terms([(0, 2), (1, 1)], 5)
    assert agrees_with(a, b, Fraction(-1, 2))
    assert not agrees_with(a, b, Fraction(0))
    assert agrees_with(a.shift(Fraction(1, 3)), b.shift(Fraction(1, 3)), Fraction(1, 6))
    with pytest.raises(QSeriesError):
        agrees_with(a, b, Fraction(6))


def test_inverse_is_exact():
    # an integer series has an integer inverse only when a_0 is +-1; any
    # other constant term is refused rather than inverted into fractions
    for a0 in (2, -3, Fraction(3, 2)):
        with pytest.raises(QSeriesError, match="not \\+-1"):
            series(Fraction(0), {0: a0, 1: -1}, 30).inverse()
    inv = series(Fraction(0), {0: -1, 1: 1}, 30).inverse()
    assert inv.coeffs == [-1] * 31


def test_character_coefficients_are_ints():
    for ch in (verma_character([2, 5, 5, 5], central_charge_p1(3), 60),
               triplet_character(3, 60), chi_tilde(3, 60)):
        assert any(ch.coeffs)
        assert all(type(c) is int for c in ch.coeffs)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_characters_agree_under_truncation(p):
    # cutoffs below chi-tilde's (1 - q^3) numerator and below the W weight
    d = 2 * p - 1
    for character in (
            lambda cutoff: verma_character([2, d, d, d], central_charge_p1(p), cutoff),
            lambda cutoff: triplet_character(p, cutoff),
            lambda cutoff: chi_tilde(p, cutoff)):
        full = character(40)
        for cutoff in range(5):
            ch = character(cutoff)
            assert ch.offset == full.offset and ch == full
            assert len(ch.coeffs) == cutoff + 1
            assert all(type(c) is int for c in ch.coeffs)


def test_characters_divide_by_phi_cubed_per_three_weights(monkeypatch):
    c = central_charge_p1(5)
    inverse = {k: phi_trunc(k, 80).inverse() for k in (1, 2, 9)}
    verma = (inverse[2] * inverse[9] * inverse[9] * inverse[9]).shift(-c / 24)
    triplet = (inverse[1] * triplet_theta_bracket(5, 80)).shift(-c / 24)
    numer = series(Fraction(0), {0: 1, 3: -1}, 80)
    chi = (inverse[2] + (numer * inverse[1] * inverse[9] * inverse[9]
                         ).scale(3).shift(9)).shift(-c / 24)
    above = (inverse[2] * inverse[9] * inverse[9]).shift(-c / 24)
    cube, once = qseries._phi_cubed(80), phi(80).coeffs
    divisions = []
    plain = qseries._divide

    def counted(numer, den):
        divisions.append(den)
        return plain(numer, den)

    def refused(*args):
        raise AssertionError("a character multiplied or inverted a series")

    monkeypatch.setattr(qseries, "_divide", counted)
    monkeypatch.setattr(QSeries, "__mul__", refused)
    monkeypatch.setattr(QSeries, "inverse", refused)
    # phi^3 once for three weights, phi for the one left over, and no
    # product or inverse; a weight above the cutoff divides by nothing
    for character, want, plan in (
            (lambda: verma_character([2, 9, 9, 9], c, 80), verma, [cube, once]),
            (lambda: triplet_character(5, 80), triplet, [once]),
            (lambda: chi_tilde(5, 80), chi, [once, cube]),
            (lambda: verma_character([2, 9, 9, 81], c, 80), above, [cube]),
            (lambda: verma_character([2, 81, 90, 90], c, 80), inverse[2].shift(-c / 24),
             [once]),
            (lambda: qseries._over_phi_truncs([1, -1], [81, 90], 80),
             series(Fraction(0), {0: 1, 1: -1}, 80), [])):
        divisions.clear()
        got = character()
        assert divisions == plan
        assert got.offset == want.offset and got.coeffs == want.coeffs
        assert got.render_lines() == want.render_lines()


def test_phi_cubed_is_jacobis_identity():
    for n in (0, 1, 2, 600):
        assert qseries._phi_cubed(n) == (phi(n) * phi(n) * phi(n)).coeffs


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5),
       st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=7),
       st.integers(min_value=0, max_value=20))
@example([1], [1, 2, 3], 0)
@example([2, 0, 0, -1, 3], [2, 9, 9, 9], 2)
@example([1, -1], [1, 5, 5, 21, 30, 2, 7], 20)
@example([-3, 1], [4, 4, 4, 4, 4, 4], 13)
def test_over_phi_truncs_is_numer_times_inverses(numer, ks, cutoff):
    # every remainder of len(ks) mod 3, weights on both sides of the cutoff,
    # and cutoffs below the numerator's degree
    want = QSeries(Fraction(0), (numer + [0] * cutoff)[:cutoff + 1])
    for k in ks:
        want = want * phi_trunc(k, cutoff).inverse()
    got = qseries._over_phi_truncs(list(numer), ks, cutoff)
    assert got.offset == 0 and got.coeffs == want.coeffs
    assert all(type(x) is int for x in got.coeffs)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, -1]),
       st.dictionaries(st.integers(min_value=1, max_value=15),
                       st.integers(min_value=-6, max_value=6), max_size=5))
def test_inverse_round_trip(a0, rest):
    s = series(Fraction(0), {0: a0, **rest}, 15)
    inv = s.inverse()
    assert all(type(c) is int for c in inv.coeffs)
    assert s * inv == QSeries.one(15)


def test_phi_is_pentagonal_to_1000():
    n_max = 1000
    product = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(n_max, part - 1, -1):
            product[n] -= product[n - part]
    pentagonal = {}
    for j in range(-30, 31):
        e = j * (3 * j - 1) // 2
        if e <= n_max:
            pentagonal[e] = (-1) ** j
    got = phi(n_max)
    assert got.coeffs == [pentagonal.get(n, 0) for n in range(n_max + 1)]
    assert [got.coeff_at_exponent(n) for n in range(n_max + 1)] == product


@pytest.mark.parametrize("k", [1, 2, 9])
def test_phi_trunc_inverse_at_400(k):
    oracle = partitions_min_part(400, k)
    inv = phi_trunc(k, 400).inverse()
    assert [inv.coeff_at_exponent(n) for n in range(401)] == oracle


def test_triplet_character_p3_to_1000_is_theta_convolution():
    p, n_max = 3, 1000
    parts = partitions_min_part(n_max, 1)
    ch = triplet_character(p, n_max)
    assert ch.offset == -central_charge_p1(p) / 24
    for n in range(n_max + 1):
        expected = 0
        for s in range(-20, 21):
            m = n - p * s * s - (p - 1) * s
            if m >= 0:
                expected += (2 * s + 1) * parts[m]
        assert ch.coeff_at_exponent(ch.offset + n) == expected


@pytest.mark.parametrize("offset", [Fraction(0), Fraction(91, 120), Fraction(-7, 3),
                                    Fraction(-5), Fraction(5, 2)])
def test_render_terms_are_the_fraction_exponents(offset):
    terms = {0: 1, 1: -2, 3: Fraction(1, 3), 40: 7}
    got = series(offset, terms, 50)
    want = [(str(offset + n), c) for n, c in sorted(terms.items())]
    assert got.render_terms() == want
    assert got.render_lines() == [f"{e}: {c}" for e, c in want]


def schoolbook_product(x, y):
    """Reference product: every pair of terms, placed by its exponent, on the
    lattice of the lower offset and through the shorter validity."""
    low = min(x.offset, y.offset)
    dx, dy = int(x.offset - low), int(y.offset - low)
    cutoff = min(len(x.coeffs) - 1 + dx, len(y.coeffs) - 1 + dy)
    out = [0] * (cutoff + 1)
    for n1, c1 in enumerate(x.coeffs):
        for n2, c2 in enumerate(y.coeffs):
            n = n1 + dx + n2 + dy
            if n <= cutoff:
                out[n] += c1 * c2
    return QSeries(2 * low, out)


def assert_same_series(got, want):
    assert got.offset == want.offset and len(got.coeffs) == len(want.coeffs)
    assert got.coeffs == want.coeffs
    assert all(type(c) is int for c in got.coeffs)


big_ints = st.integers(min_value=-2 ** 256, max_value=2 ** 256)
kernel_coeffs = st.one_of(
    st.just(0), big_ints, st.integers(min_value=-3, max_value=3),
)
kernel_terms = st.one_of(
    st.dictionaries(st.integers(min_value=0, max_value=40), kernel_coeffs,
                    max_size=12),
    st.lists(kernel_coeffs, max_size=35).map(lambda cs: dict(enumerate(cs))),
)


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=12), st.integers(min_value=-5, max_value=5),
       st.integers(min_value=-5, max_value=5), kernel_terms, kernel_terms,
       st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
@example(Fraction(0), 0, 0, dict(enumerate(range(1, 31))), {0: 2, 7: -3}, 30, 30)
@example(Fraction(1, 3), 2, -1, {n: (-1) ** n * 2 ** 200 for n in range(25)},
         {3: 5}, 24, 30)
@example(Fraction(-1, 2), -3, 0, {n: n - 5 for n in range(31)}, {0: 1, 30: 1}, 30, 28)
def test_product_is_the_schoolbook_product(base, i, j, xs, ys, x_cut, y_cut):
    # each order of the factors: the product runs over the sparser one
    x = series(base + i, xs, x_cut)
    y = series(base + j, ys, y_cut)
    want = schoolbook_product(x, y)
    assert_same_series(x * y, want)
    assert_same_series(y * x, want)


def test_product_of_empty_series():
    # the zero series is valid through 1/3 + 12 = -2/3 + 13
    zero = series(Fraction(1, 3), {}, 12)
    assert_same_series(zero * phi(20).shift(Fraction(-2, 3)),
                       series(Fraction(-4, 3), {}, 13))
    # terms past the product's cutoff contribute nothing
    late = series(Fraction(0), {15: 7}, 20)
    assert (late * phi(10)).coeffs == [0] * 11


def test_verma_character_to_600_is_a_partition_convolution():
    # parts >= 2 for L, three colours of parts >= 9 for the W modes at p = 5
    ch = verma_character([2, 9, 9, 9], central_charge_p1(5), 600)
    want = verma_enumeration(5, 600)
    assert [coeff_at_level(ch, n) for n in range(601)] == want


def test_inverse_phi_truncs_count_restricted_partitions():
    # 1/phi_k is one division by phi and a running difference per n < k;
    # k = 500 lies above the cutoff, so 1/phi_k = 1 there
    for k in (9, 1, 2, 500):
        inv = qseries._over_phi_truncs([1], [k], 400)
        assert inv.offset == 0 and len(inv.coeffs) == 400 + 1
        assert [inv.coeff_at_exponent(n) for n in range(401)] == \
            partitions_min_part(400, k)


def test_triplet_character_p2_is_the_symplectic_fermion_formula():
    # at p = 2, c = -2: the character is q^(1/12) (1/2)[prod (1 + q^n)^2 +
    # prod (1 - q^n)^2], an oracle that never divides by phi
    n_max = 400

    def square_of_product(sign):
        product = [1] + [0] * n_max
        for part in range(1, n_max + 1):
            for n in range(n_max, part - 1, -1):
                product[n] += sign * product[n - part]
        return [sum(product[i] * product[n - i] for i in range(n + 1))
                for n in range(n_max + 1)]

    plus, minus = square_of_product(1), square_of_product(-1)
    ch = triplet_character(2, n_max)
    assert ch.offset == Fraction(1, 12)
    assert all((a + b) % 2 == 0 for a, b in zip(plus, minus))
    assert ch.coeffs == [(a + b) // 2 for a, b in zip(plus, minus)]


def long_division(numer, den):
    """Schoolbook long division through len(den) terms: each quotient term
    is taken off the remainder before the next one is read."""
    count = len(den)
    rest = (list(numer) + [0] * count)[:count]
    out = []
    for n in range(count):
        x = rest[n] * den[0]
        out.append(x)
        for k in range(1, count - n):
            rest[n + k] -= den[k] * x
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, -1]),
       st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]), max_size=60),
       st.lists(st.integers(), max_size=60))
@example(1, [0, 0, 5], [1, 2, 3, 4, 5])
@example(-1, [0, -2, 0, 0, 0], [3])
@example(1, [], [])
@example(-1, [], [4, 5])
def test_divide_is_long_division(d0, tail, numer):
    # a value that occurs at one exponent is gathered by an itemgetter with
    # one index, which returns the item itself rather than a 1-tuple
    den = [d0] + tail
    got = qseries._divide(numer, den)
    assert got == long_division(numer, den)
    assert all(type(x) is int for x in got)


@pytest.mark.parametrize("cutoff", [0, 1, 2, 600, 2000])
@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_triplet_character_is_inverse_phi_times_theta(p, cutoff):
    want = (phi(cutoff).inverse() * triplet_theta_bracket(p, cutoff)
            ).shift(-central_charge_p1(p) / 24)
    got = triplet_character(p, cutoff)
    assert got.offset == want.offset and got.coeffs == want.coeffs
