"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per criterion.
"""

from fractions import Fraction

from walgebra.algebra import (
    Mode,
    bracket,
    central_charge_p1,
    make_virasoro_spec,
    p_poly,
)
from walgebra.c2 import certificate_from_json, certificate_to_json, certify_triplet_p2, verify_certificate
from walgebra.engine import Engine, State, word_weight
from walgebra.qseries import (
    QSeries,
    chi_tilde,
    diff_at_level,
    phi,
    phi_trunc,
    triplet_character,
    triplet_theta_bracket,
    verma_character,
)
from walgebra.scalar import Poly, binom_int
from walgebra.singular import (
    SingularTable,
    load_triplet_p2_spec,
    solve_structure_constants,
    substitute_constants,
    verify_singular_p2,
)

from identity_helpers import agrees_with


def _report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def T(n):
    return Mode("T", n)


def test_criterion_1_virasoro_oracle():
    spec = make_virasoro_spec("c")
    c = Poly.sym("c")
    for m in range(-6, 7):
        for n in range(-6, 7):
            ops = bracket(T(m), T(n), spec)
            terms = dict((mode, coeff) for coeff, mode in ops.terms)
            got = terms.pop(Mode("T", m + n), Poly.zero())
            assert not terms
            assert got == Poly.const(m - n) or (m == n and got.is_zero())
            want = c * Fraction(m * (m * m - 1), 12) if m + n == 0 else Poly.zero()
            assert ops.central == want
    _report(1, "[L_m, L_n] = (m-n) L_{m+n} + c/12 m(m^2-1) delta for |m|,|n| <= 6")


def test_criterion_2_mode_identities():
    from identity_helpers import basis_states, from_word, math_apply, omega_mode_field

    from walgebra.algebra import FieldRef

    eng = Engine(make_virasoro_spec("c"))
    states = [w for w in basis_states(6)]
    for w in states:
        state = from_word(w)
        weight = word_weight(w)
        for m in range(-3, 4):
            # commutation identity, u = v = omega, math indices
            for n in range(1, 4):
                lhs = math_apply(eng, FieldRef("T"), m,
                                 math_apply(eng, FieldRef("T"), -n, state))
                rhs = math_apply(eng, FieldRef("T"), -n,
                                 math_apply(eng, FieldRef("T"), m, state))
                for i in range(0, 4):
                    coeff = binom_int(m, i)
                    expr = omega_mode_field(i)
                    if not coeff or expr is None:
                        continue
                    rhs = rhs + math_apply(eng, expr, m - n - i, state).scale(coeff)
                assert lhs == rhs
            # iteration identity
            expr = omega_mode_field(m)
            for n in range(-3, 4):
                lhs = math_apply(eng, expr, n, state) if expr is not None else State()
                rhs = State()
                sign_m = -1 if m % 2 else 1
                for i in range(0, weight + abs(n) + 8):
                    coeff = binom_int(m, i) * (-1) ** i
                    if not coeff:
                        continue
                    first = math_apply(eng, FieldRef("T"), m - i,
                                       math_apply(eng, FieldRef("T"), n + i, state))
                    second = math_apply(eng, FieldRef("T"), m + n - i,
                                        math_apply(eng, FieldRef("T"), i, state))
                    rhs = rhs + first.scale(coeff) - second.scale(coeff * sign_m)
                assert lhs == rhs
    _report(2, "commutation and iteration identities on weight <= 6, |m|,|n| <= 3")


def test_criterion_3_phi_identities():
    def partitions(n_max):
        table = [0] * (n_max + 1)
        table[0] = 1
        for part in range(1, n_max + 1):
            for n in range(part, n_max + 1):
                table[n] += table[n - part]
        return table

    oracle = partitions(60)
    inv = phi(60).inverse()
    for n in range(61):
        assert inv.coeffs[n] == oracle[n]
    for k in range(2, 8):
        rhs = phi(60)
        for l in range(1, k):
            terms = [0] * 61
            terms[0], terms[l] = 1, -1
            rhs = rhs * QSeries(Fraction(0), terms).inverse()
        assert phi_trunc(k, 60) == rhs
    _report(3, "phi truncation identity to cutoff 60 for k in 2..7; "
               "1/phi = partition counts to 60")


def test_criterion_4_character_expansions():
    for p in (2, 3, 4, 5):
        cutoff = 6 * p
        coeffs = [Fraction(0)] * (cutoff + 1)
        for e, c in [(0, 1), (1, -1), (2 * p - 1, 3), (2 * p + 2, -3)]:
            coeffs[e] += c
        partial = QSeries(Fraction(0), coeffs)
        assert agrees_with(triplet_theta_bracket(p, cutoff), partial,
                           Fraction(6 * p - 3))
        coeffs2 = list(coeffs)
        coeffs2[4 * p - 2] += 6
        partial2 = QSeries(Fraction(0), coeffs2)
        c = central_charge_p1(p)
        tilde_bracket = phi(cutoff) * chi_tilde(p, cutoff).shift(c / 24)
        assert agrees_with(tilde_bracket, partial2, Fraction(4 * p - 2))
    _report(4, "1 - q + 3q^(2p-1) - 3q^(2p+2) (+ 6q^(4p-2)) expansions, p in 2..5")


def test_criterion_5_singular_vector_counting():
    for p in (3, 4, 5):
        d = 2 * p - 1
        cutoff = 4 * p + 6
        v = verma_character([2, d, d, d], central_charge_p1(p), cutoff)
        t = triplet_character(p, cutoff)
        assert diff_at_level(v, t, Fraction(2 * p + 2)) == 3
    for p in (2, 3, 4, 5):
        cutoff = 4 * p + 6
        assert diff_at_level(chi_tilde(p, cutoff), triplet_character(p, cutoff),
                             Fraction(4 * p - 2)) == 6
    v2 = verma_character([2, 3, 3, 3], Fraction(-2), 8)
    t2 = triplet_character(2, 8)
    assert diff_at_level(v2, t2, Fraction(6)) == 9
    _report(5, "level-(2p+2) diff = 3 (p>=3), level-(4p-2) diff = 6 (p>=2), "
               "p=2 overlap diff = 9 = 19 - 10")


def test_criterion_6_derivation_closed_forms(derivation):
    B, C = Poly.sym("B"), Poly.sym("C")
    for p in (2, 3, 4, 5):
        d = 2 * p - 1
        rep = derivation(p).report()
        assert rep.beta_ww_prime == Fraction(-(2 * d - 1) * (d - 1), 2 * (4 * d - 3))
        assert rep.B_quasiprimary == C * Fraction(-(6 * d * d - 8 * d + 3),
                                                  6 * (4 * d - 3))
        assert rep.gamma_sum == B * Fraction(-5, 8)
        assert rep.xi[0] == (B * 6 + C * (d - 1)) / 2
        assert rep.xi[1] == (B * (2 * d - 9) + C * (d * d - 3 * d + 2)) / 2
        assert rep.xi[2] == (B * (45 - 15 * d)
                             + C * (2 * d**3 - 12 * d * d + 22 * d - 12)) / 24
        assert rep.B_primary == C * Fraction(-(12 * d * d - 18 * d + 7),
                                             4 * (4 * d - 3))
        diff = rep.B_quasiprimary - rep.B_primary
        assert rep.difference == diff
        coeff, rest = diff.coeff_of_symbol("C")
        assert rest.is_zero() and coeff.const_value() != 0
        assert not rep.alpha_zero_consistent
    _report(6, "beta'_WW, both B routes, xi_1..xi_3, gamma sum: exact for p in 2..5; "
               "difference a nonzero multiple of C")


def test_criterion_7_p_polynomial_anchors():
    for d in (3, 5, 7, 9):
        assert p_poly(d, d, 2 * d - 2, 2 - d, -d) == 1
    assert p_poly(3, 3, 4, -3, -4) == Fraction(1, 2)
    _report(7, "p_{D,D,2D-2}(2-D,-D) = 1 for D in {3,5,7,9}; p_{3,3,4}(-3,-4) = 1/2")


def test_criterion_8_c2_certificate():
    import dataclasses

    spec = load_triplet_p2_spec()
    cert = certify_triplet_p2()
    labels = {s.label for s in cert.steps if s.id in cert.targets}
    assert "W1(-3)^3 |0> in C2" in labels
    assert "L(-2)^6 |0> in C2" in labels
    ok, _ = verify_certificate(cert, spec)
    assert ok
    text = certificate_to_json(cert)
    for idx in range(len(cert.steps)):
        bad = certificate_from_json(text)
        step = bad.steps[idx]
        vec = list(step.vector)
        vec[0] = (vec[0][0] * 2, vec[0][1])
        bad.steps[idx] = dataclasses.replace(step, vector=tuple(vec))
        okbad, _ = verify_certificate(bad, spec)
        assert not okbad
    _report(8, "certificate targets include (W^a)^3 and L_{-2}^6; replay true; "
               "every single-step corruption rejected")


def test_criterion_9_quasiprimary_not_primary(derivation):
    for p in (2, 3, 4, 5):
        der = derivation(p)
        _, _, beta_prime = der.beta_gamma_ww()
        _, without_B = der.solve_B_quasiprimary(beta_prime)
        coeff, rest = without_B.coeff_of_symbol("C")
        assert rest.is_zero() and coeff.const_value() != 0
    _report(9, "L_2 image of the aggregate-free ansatz is nonzero at length "
               "Delta-1 for p in 2..5")


def test_criterion_10_singular_solve_and_perturbations():
    spec = load_triplet_p2_spec()
    solved = solve_structure_constants(spec)
    assert solved.consistent and solved.to_dict()["assignment"]
    assignment = dict(solved.assignment)
    assignment["dWW"] = Poly.const(-1)
    numeric = substitute_constants(spec, assignment)
    ok2, _ = verify_singular_p2(numeric)
    assert ok2
    table = SingularTable()
    for name in ("c1", "c2", "c3", "c4", "c5", "c6"):
        bad = table.replace(**{name: getattr(table, name) + Fraction(1, 5)})
        okbad, _ = verify_singular_p2(numeric, table=bad)
        assert not okbad
    _report(10, "solve mode consistent (nonempty solution); solved constants "
                "annihilate; every single-coefficient perturbation fails")
