from fractions import Fraction

import pytest

from walgebra import engine
from walgebra.algebra import Mode
from walgebra.derivation import Derivation, alpha_nonzero_report
from walgebra.engine import State
from walgebra.scalar import Poly

B = Poly.sym("B")
C = Poly.sym("C")


def closed_forms(p):
    d = 2 * p - 1
    return {
        "beta_prime": Fraction(-(2 * d - 1) * (d - 1), 2 * (4 * d - 3)),
        "B_quasi": C * Fraction(-(6 * d * d - 8 * d + 3), 6 * (4 * d - 3)),
        "B_primary": C * Fraction(-(12 * d * d - 18 * d + 7), 4 * (4 * d - 3)),
        "xi1": (B * 6 + C * (d - 1)) / 2,
        "xi2": (B * (2 * d - 9) + C * (d * d - 3 * d + 2)) / 2,
        "xi3": (B * (45 - 15 * d) + C * (2 * d**3 - 12 * d * d + 22 * d - 12)) / 24,
        "gamma": C * Fraction(-(2 * d - 1), 2 * (4 * d - 3))
        * (Fraction((d - 2) ** 2) - Fraction((d - 2) * (d - 3), 2))
        - B * Fraction(5, 8),
    }


@pytest.mark.parametrize("p", range(2, 13))
def test_closed_forms(p, derivation):
    want = closed_forms(p)
    rep = derivation(p).report()
    assert rep.beta_ww_prime == want["beta_prime"]
    assert rep.beta_ww == C * want["beta_prime"]
    assert rep.B_quasiprimary == want["B_quasi"]
    assert rep.gamma_sum == B * Fraction(-5, 8)
    assert rep.gamma == want["gamma"]
    assert rep.xi[0] == want["xi1"]
    assert rep.xi[1] == want["xi2"]
    assert rep.xi[2] == want["xi3"]
    assert rep.B_primary == want["B_primary"]
    assert not rep.alpha_zero_consistent
    assert rep.difference == want["B_quasi"] - want["B_primary"]


def test_p7_values(derivation):
    rep = derivation(7).report()
    assert rep.beta_ww_prime == Fraction(-150, 49)
    assert rep.B_quasiprimary == C * Fraction(-913, 294)
    assert rep.B_primary == C * Fraction(-1801, 196)
    assert rep.xi == (B * 3 + C * 6, B * Fraction(17, 2) + C * 66,
                      B * Fraction(-25, 4) + C * 110)
    assert rep.difference == C * Fraction(73, 12)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_weakened_multiplicity_is_caught(p, monkeypatch):
    # counting each partition of the NT tower once, not once per ordering,
    # passes every DerivationError check; only the closed forms catch it
    monkeypatch.setattr(engine, "_orderings", lambda parts: 1)
    rep = Derivation(p).report()
    want = closed_forms(p)
    assert rep.B_quasiprimary != want["B_quasi"]
    assert rep.B_primary != want["B_primary"]


def test_p2_instantiations():
    rep = alpha_nonzero_report(2)
    assert rep.beta_ww_prime == Fraction(-5, 9)
    assert rep.B_quasiprimary == C * Fraction(-11, 18)
    assert rep.xi[0] == B * 3 + C
    assert rep.xi[2].is_zero()
    assert rep.B_primary == C * Fraction(-61, 36)
    assert rep.difference == C * Fraction(13, 12)


def test_difference_is_nonzero_multiple_of_C(derivation):
    for p in (2, 3, 4):
        rep = derivation(p).report()
        coeff, rest = rep.difference.coeff_of_symbol("C")
        assert rest.is_zero()
        assert coeff.const_value() != 0


def test_gamma_sum_examples(derivation):
    der = derivation(2)
    assert der.gamma_sum(B) == B * Fraction(-5, 8)
    assert der.gamma_sum(Poly.zero()).is_zero()
    assert der.gamma_sum(C * Fraction(-11, 18)) == C * Fraction(55, 144)


def test_quasiprimary_but_not_primary(derivation):
    # the L2 image of the ansatz without the aggregate B term is nonzero
    for p in (2, 3, 4, 5):
        der = derivation(p)
        _, _, beta_prime = der.beta_gamma_ww()
        _, without_B = der.solve_B_quasiprimary(beta_prime)
        coeff, rest = without_B.coeff_of_symbol("C")
        assert rest.is_zero()
        assert coeff.const_value() != 0


@pytest.mark.parametrize("p", [2, 3])
def test_lowering_consistency(p, derivation):
    """L_{-1} of the ansatz agrees with the mode-by-mode sl2 lowering rule."""
    d = 2 * p - 1
    der = derivation(p)
    eng = der.spec.engine
    beta_ww, gamma_ww, _ = der.beta_gamma_ww()
    beta = beta_ww + B
    gamma = gamma_ww + der.gamma_sum(B)
    mono = der.mono
    ansatz = State(
        {mono.ww: Poly.const(1), mono.l4_l2: beta, mono.l33_l2: gamma}
    )
    direct = eng.apply_mode(Mode("T", -1), ansatz)
    # independent route: lower each mode with [L_{-1}, phi_n] = ((h-1)(-1) - n) phi_{n-1}
    indirect = State()
    for word, coeff in ansatz.terms().items():
        for pos, mode in enumerate(word):
            h = der.spec.weight_of(mode.field)
            factor = (h - 1) * (-1) - mode.n
            lowered = word[:pos] + (Mode(mode.field, mode.n - 1),) + word[pos + 1:]
            indirect = indirect + eng.normal_order(lowered).scale(coeff * factor)
    assert direct == indirect


def test_invalid_p():
    with pytest.raises(ValueError):
        alpha_nonzero_report(1)


def test_report_serialization():
    rep = alpha_nonzero_report(2)
    doc = rep.to_dict()
    assert doc["alpha_zero_consistent"] is False
    assert doc["B_quasiprimary"] == "-11/18*C"
    assert doc["B_primary"] == "-61/36*C"
    assert doc["difference"] == "13/12*C"
    assert doc["xi"][0] == "3*B + C"
    assert doc["p"] == 2 and doc["delta"] == 3
    assert doc["assumptions"]
