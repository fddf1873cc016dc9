from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from walgebra.algebra import make_derivation_spec
from walgebra.engine import Engine
from walgebra.scalar import (
    Poly,
    SolveError,
    binom_int,
    exact,
    parse_poly,
    parse_rational,
    quoted,
    render_poly,
    solve_linear,
    sum_products,
)


def test_quoted_keeps_a_short_repr_and_cuts_a_long_one():
    assert quoted("x" * 58) == repr("x" * 58)
    assert quoted("x" * 59) == "'" + "x" * 59 + "... (61 characters)"
    assert quoted([1, 2]) == "[1, 2]"
    with pytest.raises(ValueError) as refusal:
        parse_poly("x" * 5000 + " ?")
    assert str(refusal.value) == ("cannot parse polynomial '" + "x" * 59
                                  + "... (5004 characters) at ' ?'")
    with pytest.raises(ValueError) as refusal:
        parse_rational("x" * 5000)
    assert str(refusal.value) == "Invalid literal for Fraction: '" + "x" * 59 + "... (5002 characters)"


def test_binom_examples():
    assert binom_int(5, 2) == 10
    for x in (-7, -1, 0, 3, 12):
        assert binom_int(x, 0) == 1
    assert binom_int(-1, 2) == 1


def test_binom_matches_factorials():
    from math import comb

    for x in range(21):
        for k in range(x + 1):
            assert binom_int(x, k) == comb(x, k)


def test_binom_negative_lower_index():
    with pytest.raises(ValueError):
        binom_int(3, -1)


def test_imaginary_unit():
    I = Poly.sym("I")
    assert I * I == Poly.const(-1)
    assert I * I * I == -I
    assert (I * I) * (I * I) == Poly.const(1)


def test_poly_examples():
    C, B = Poly.sym("C"), Poly.sym("B")
    assert (C + B) + (C - B) == C * 2
    assert (C * Fraction(3, 2)) * Fraction(2, 3) == C
    assert (C + 1) * (C - 1) == C * C - 1


def test_substitute_and_coeff():
    C, B = Poly.sym("C"), Poly.sym("B")
    p = C * 3 + B * C + Poly.const(2)
    assert p.substitute({"B": Fraction(1)}) == C * 4 + 2
    coeff, rest = p.coeff_of_symbol("B")
    assert coeff == C
    assert rest == C * 3 + 2
    with pytest.raises(ValueError):
        (B * B).coeff_of_symbol("B")


names = st.sampled_from(["B", "C", "I", "x"])
monos = st.lists(names, max_size=3).map(tuple)
rationals = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=8),
)


@st.composite
def polys(draw):
    terms = draw(st.lists(st.tuples(monos, rationals), max_size=4))
    out = Poly.zero()
    for mono, coeff in terms:
        term = Poly.const(coeff)
        for name in mono:
            term = term * Poly.sym(name)
        out = out + term
    return out


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _is_exact(c) -> bool:
    """An int, or a Fraction that is not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


exact_numbers = st.one_of(st.integers(min_value=-40, max_value=40), rationals)


@st.composite
def ic_polys(draw):
    """Polys in I and C built from int and Fraction coefficients; some of
    the Fractions are integral (4/2) and must be stored as ints."""
    terms = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(["I", "C"]), max_size=3), exact_numbers),
        max_size=4,
    ))
    out = Poly.zero()
    for names, coeff in terms:
        term = Poly.const(coeff)
        for name in names:
            term = term * Poly.sym(name)
        out = out + term
    return out


@settings(max_examples=150, deadline=None)
@given(ic_polys(), ic_polys(), exact_numbers)
def test_stored_coefficients_are_exact(a, b, r):
    results = [
        a, b, a + b, a - b, a * b, b * a, a * r, r * a, a + r, a - r,
        a * Poly.const(r), Poly.const(r) * b,
        a.substitute({"C": b}), a.substitute({"C": r, "I": b}),
        parse_poly(render_poly(a)),
    ]
    if r:
        results.append(a / r)
    for p in results:
        assert all(_is_exact(c) for c in p.terms().values()), p.terms()


# --- Poly against a dict-of-Fraction reference ------------------------------

# monomials in I, C and uW, each (name, power) pair sorted by name
ref_monos = st.builds(
    lambda i, c, u: tuple((n, k) for n, k in (("C", c), ("I", i), ("uW", u)) if k),
    st.integers(0, 1), st.integers(0, 2), st.integers(0, 2),
)
ref_dicts = st.dictionaries(ref_monos, rationals, max_size=4)
scalars = st.one_of(st.integers(min_value=-12, max_value=12), rationals)


def ref_clean(t: dict) -> dict:
    return {m: Fraction(c) for m, c in t.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return ref_clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            powers = dict(m1)
            for name, k in m2:
                powers[name] = powers.get(name, 0) + k
            c = c1 * c2
            i = powers.pop("I", 0)
            if i % 4 >= 2:
                c = -c
            if i % 2:
                powers["I"] = 1
            m = tuple(sorted(powers.items()))
            out[m] = out.get(m, Fraction(0)) + c
    return ref_clean(out)


def ref_pow(a: dict, n: int) -> dict:
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_substitute(a: dict, subs: dict) -> dict:
    out: dict = {}
    for mono, c in a.items():
        term = {(): c}
        for name, k in mono:
            rep = subs.get(name, {((name, 1),): Fraction(1)})
            term = ref_mul(term, ref_pow(rep, k))
        out = ref_add(out, term)
    return out


def typed(t: dict) -> dict:
    """Each coefficient with its type; an integral Fraction read as an int."""
    out = {}
    for m, c in t.items():
        c = c.numerator if type(c) is Fraction and c.denominator == 1 else c
        out[m] = (type(c), c)
    return out


def assert_matches(p: Poly, ref: dict) -> None:
    got = p.terms()
    assert {m: (type(c), c) for m, c in got.items()} == typed(ref_clean(ref))
    # the stored form: nonzero integer numerators over a positive
    # denominator, all coprime, and zero as nothing over 1
    assert type(p._d) is int and p._d > 0
    assert all(type(c) is int and c for c in p._n.values())
    assert gcd(p._d, *p._n.values()) == 1
    if not got:
        assert p._n == {} and p._d == 1


@settings(max_examples=200, deadline=None)
@given(ref_dicts, ref_dicts, scalars, st.integers(0, 3))
def test_poly_matches_fraction_reference(ta, tb, r, n):
    a, b = Poly(ta), Poly(tb)
    rt = {(): Fraction(r)}
    assert_matches(a, ta)
    assert_matches(a + b, ref_add(ta, tb))
    assert_matches(a - b, ref_add(ta, ref_mul(tb, {(): Fraction(-1)})))
    assert_matches(-a, ref_mul(ta, {(): Fraction(-1)}))
    assert_matches(a * b, ref_mul(ta, tb))
    assert_matches(a * r, ref_mul(ta, rt))
    assert_matches(r * a, ref_mul(ta, rt))
    assert_matches(a + r, ref_add(ta, rt))
    assert_matches(r - a, ref_add(rt, ref_mul(ta, {(): Fraction(-1)})))
    assert_matches(a * Poly.const(r), ref_mul(ta, rt))
    assert_matches(a**n, ref_pow(ta, n))
    assert_matches(a.substitute({"C": b}), ref_substitute(ta, {"C": tb}))
    assert_matches(a.substitute({"uW": r, "I": b}),
                   ref_substitute(ta, {"uW": rt, "I": tb}))
    if r:
        assert_matches(a / r, ref_mul(ta, {(): 1 / Fraction(r)}))
    else:
        with pytest.raises(ZeroDivisionError):
            a / r
    # every symbol replaced by r leaves a constant, read as its number
    k = a.substitute({"C": r, "I": r, "uW": r})
    tk = ref_substitute(ta, {"C": rt, "I": rt, "uW": rt})
    assert_matches(k, tk)
    want = typed({(): tk.get((), Fraction(0))})[()]
    for value in (k.const_value(), exact(k)):
        assert (type(value), value) == want


# either side of a product: an int, a Fraction or a Poly in I, C and uW
product_sides = st.one_of(scalars, ref_dicts.map(Poly))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(product_sides, product_sides), max_size=6))
def test_sum_products_matches_poly_operations(pairs):
    got = sum_products(pairs)
    want = Poly.zero()
    for a, b in pairs:
        want = want + (a if isinstance(a, Poly) else Poly.const(a)) * b
    assert type(got) is Poly and got == want
    # the same values as the Fraction reference, in the stored form
    ref: dict = {}
    for a, b in pairs:
        ta = a.terms() if isinstance(a, Poly) else {(): a}
        tb = b.terms() if isinstance(b, Poly) else {(): b}
        ref = ref_add(ref, ref_mul(ref_clean(ta), ref_clean(tb)))
    assert_matches(got, ref)


def test_equal_values_are_equal_and_hash_alike():
    half = [Poly({(): Fraction(2, 4)}), Poly.const(1) / 2, parse_poly("1/2"),
            Poly.const(Fraction(1, 2))]
    for p in half:
        assert p == half[0] == Fraction(1, 2)
        assert hash(p) == hash(half[0])
        assert p.terms() == {(): Fraction(1, 2)}
    zeros = [Poly(), Poly.zero(), Poly({(): 0}), Poly.sym("C") - Poly.sym("C"),
             Poly.const(Fraction(1, 3)) * 0, parse_poly("x - x")]
    for p in zeros:
        assert p == zeros[0] == 0 and hash(p) == hash(zeros[0])
        assert (p._n, p._d) == ({}, 1)
    # 1/6 + 1/3 = 1/2: a sum over the common denominator is reduced
    C = Poly.sym("C")
    assert C / 6 + C / 3 == C / 2 and hash(C / 6 + C / 3) == hash(C / 2)
    assert (C / 6 + C / 3)._d == 2


@pytest.mark.parametrize("make", [
    lambda: Poly.const(0.1),
    lambda: Poly({(): 0.5}),
    lambda: Poly.sym("C") / 0.5,
    lambda: Poly.sym("C") * 0.5,
    lambda: 0.5 * Poly.sym("C"),
    lambda: Poly.sym("C") + 0.5,
    lambda: Poly.sym("C").substitute({"C": 0.5}),
], ids=["const", "init", "truediv", "mul", "rmul", "add", "substitute"])
def test_float_rejected(make):
    with pytest.raises(TypeError):
        make()


def test_bracket_constants_are_exact():
    for x, k in product(range(-10, 11), range(9)):
        assert type(binom_int(x, k)) is int
    # channel_poly and p_poly: test_algebra checks each value and its type
    # against the Fraction formula
    for p in (2, 3, 4):
        eng = Engine(make_derivation_spec(p))
        for (j, i), n in product(product("TW", repeat=2), range(11)):
            for lincomb in (eng.qp_nop_plain(j, i, n), eng.qp_nop_corrections(j, i, n)):
                for coeff, _ in lincomb.parts:
                    assert all(_is_exact(c) for c in coeff.terms().values())


@settings(max_examples=60, deadline=None)
@given(polys())
def test_render_parse_round_trip(a):
    assert parse_poly(render_poly(a)) == a


def test_parse_examples():
    assert parse_poly("-5/9*C") == Poly.sym("C") * Fraction(-5, 9)
    assert parse_poly("I*uW") == Poly.sym("I") * Poly.sym("uW")
    assert parse_poly("2") == Poly.const(2)
    assert parse_poly("C^2 - 1") == Poly.sym("C") ** 2 - 1
    I, x = Poly.sym("I"), Poly.sym("x")
    assert parse_poly("I*I") == Poly.const(-1)
    assert parse_poly("I^3") == -I
    assert parse_poly("I^2*I*x - 2*I*I") == -I * x + 2
    assert parse_poly("-I*2/3*I*x") == x * Fraction(2, 3)
    assert parse_poly("x^0 + 0*y") == Poly.const(1)
    assert parse_poly("x - x") == Poly.zero()
    with pytest.raises(ValueError):
        parse_poly("3 **")


@pytest.mark.parametrize("text,error", [
    ("1.5", ValueError),
    ("1e3", ValueError),
    ("2 3", ValueError),
    ("2+", ValueError),
    ("3*", ValueError),
    ("*3", ValueError),
    ("x^", ValueError),
    ("x^-1", ValueError),
    ("x/2", ValueError),
    ("1/", ValueError),
    ("1/0", ValueError),
    ("", ValueError),
    ("   ", ValueError),
])
def test_parse_rejects(text, error):
    with pytest.raises(error):
        parse_poly(text)


def test_zero_denominator_is_a_value_error_that_names_the_text():
    # not Fraction's ZeroDivisionError('Fraction(1, 0)'), which loaders
    # once printed as a bare repr
    for parse in (parse_poly, parse_rational):
        with pytest.raises(ValueError, match=r"^zero denominator in '1/0'$"):
            parse("1/0")
    with pytest.raises(ValueError, match=r"^zero denominator in 'x \+ 3/0'$"):
        parse_poly("x + 3/0")
    assert parse_rational("-8/12") == Fraction(-2, 3)


@pytest.mark.parametrize("text", ["1e5", "1E5", " 1e5 ", "2.5E-3", ".5e+2", "1.e2",
                                  "1e1_0", "1e5000"])
def test_parse_rational_refuses_exponent_notation(text):
    # Fraction builds 10**exponent outright, whose digits can pass what str
    # converts; the refusal names the text, clipped
    with pytest.raises(ValueError, match=r"^exponent notation in "):
        parse_rational(text)


@pytest.mark.parametrize("text", ["e5", "1e", "1/2e3", "1 e5", "1e5x", "seven"])
def test_parse_rational_keeps_fractions_refusal_of_other_texts(text):
    with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: "):
        parse_rational(text)


def test_solve_single_equation():
    B, C = Poly.sym("B"), Poly.sym("C")
    sol = solve_linear([B * 2 + C], ["B"])
    assert sol["B"] == C * Fraction(-1, 2)


def test_solve_xi_style():
    # xi1 - 3B - C = 0 with B already eliminated
    xi1, B, C = Poly.sym("xi1"), Poly.sym("B"), Poly.sym("C")
    sol = solve_linear([xi1 - B * 3 - C], ["xi1"])
    assert sol["xi1"] == B * 3 + C


def test_solve_inconsistent():
    B = Poly.sym("B")
    with pytest.raises(SolveError):
        solve_linear([B + 1, B - 1], ["B"])


def test_solve_underdetermined():
    B, C = Poly.sym("B"), Poly.sym("C")
    with pytest.raises(SolveError) as err:
        solve_linear([B + C], ["B", "C"])
    assert err.value.free


def test_solve_substitution_residuals():
    B, C, D = Poly.sym("B"), Poly.sym("C"), Poly.sym("D")
    eqs = [B * 2 + C * 3 - 1, C * 4 + D, D - B + 5]
    sol = solve_linear(eqs, ["B", "C", "D"])
    for eq in eqs:
        assert eq.substitute(sol).is_zero()


def test_solve_late_pivot_back_substitutes():
    # x has a constant coefficient only in the second row, so y is pivoted
    # first on row 0, and x = 2 must then be eliminated from y's row, where
    # its coefficient is C
    x, y, C = Poly.sym("x"), Poly.sym("y"), Poly.sym("C")
    eqs = [C * x + y - 1, x - 2]
    sol = solve_linear(eqs, ["x", "y"])
    assert sol == {"x": Poly.const(2), "y": 1 - C * 2}
    for eq in eqs:
        assert eq.substitute(sol).is_zero()


def _det(matrix) -> Fraction:
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


@st.composite
def nonsingular_systems(draw):
    """sum_j A_ij x_j + b_i = 0 with A an invertible rational matrix and each
    b_i a polynomial in I and C."""
    n = draw(st.integers(min_value=1, max_value=4))
    matrix = draw(st.lists(st.lists(exact_numbers, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    assume(_det(matrix) != 0)
    names = [f"x{j}" for j in range(n)]
    eqs = []
    for row in matrix:
        eq = draw(ic_polys())
        for a, name in zip(row, names):
            eq = eq + Poly.sym(name) * a
        eqs.append(eq)
    return eqs, names


@settings(max_examples=60, deadline=None)
@given(nonsingular_systems())
def test_solve_round_trip(system):
    eqs, names = system
    sol = solve_linear(eqs, names)
    assert sorted(sol) == names
    for value in sol.values():
        assert value.symbols() <= {"I", "C"}
    for eq in eqs:
        assert eq.substitute(sol).is_zero()


def test_solve_pivots_on_a_gaussian_constant():
    I, x, y = Poly.sym("I"), Poly.sym("x"), Poly.sym("y")
    assert solve_linear([2 * I * x - 4], ["x"]) == {"x": -2 * I}
    sol = solve_linear([x + y - 1, I * y - 2], ["x", "y"])
    assert sol == {"x": 1 + 2 * I, "y": -2 * I}
    assert solve_linear([(3 + 4 * I) * x - 25], ["x"]) == {"x": 3 - 4 * I}
    # x is pivoted on the rational row first and eliminated from a row where
    # its coefficient is I, which leaves (1 + 2I) y + I
    eqs = [x - 2 * y - 1, I * x + y]
    sol = solve_linear(eqs, ["x", "y"])
    assert sol == {"x": (1 - 2 * I) / 5, "y": (-2 - I) / 5}
    for eq in eqs:
        assert eq.substitute(sol).is_zero()
    # a coefficient with another symbol is still no pivot, and is refused
    # in a row the pivot is eliminated from
    C = Poly.sym("C")
    with pytest.raises(SolveError, match=r"no constant pivot for unknowns \['x'\]"):
        solve_linear([C * I * x - 4], ["x"])
    with pytest.raises(SolveError, match=r"^nonconstant coefficient on x$"):
        solve_linear([x - 1, C * x + y], ["x", "y"])
