"""General-weight coefficient derivation for the triplet-type singular vector.

For each p >= 2 (Delta = 2p-1) the pipeline builds the two-W ansatz at word
length Delta-1, determines the aggregate correction coefficient B two
independent ways, extracts the level-lowered coefficients xi_1..xi_3, and
certifies that the two values of B disagree by a nonzero multiple of the
symbolic structure constant C, which rules out a vanishing top Virasoro
coefficient in the singular vector.

Everything is exact; the only symbols in play are C (the structure constant
of the [W,W] tower channel), CWWT, dWW and the aggregate unknown B.
All computations are carried out modulo words of length < Delta-1, which
each projection drops.  The tower channel NT is
declared at that top length only (`algebra.TopPower`): on the vacuum, the
only state it meets here, its modes are sums over partitions, and no word
shorter than Delta-1 is built for it.  p is bounded by `MAX_P`, which keeps
the engine's recursion inside Python's default limit.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from .algebra import Mode, make_derivation_spec
from .engine import State, project_with_audit
from .scalar import Poly, render_poly, solve_linear


# The engine recurses about once per mode of a word, and the derivation's
# words reach Delta + 1 = 2p modes; p <= 400 keeps that recursion inside
# Python's default limit of 1000 frames, with room for the caller.
MAX_P = 400


class DerivationError(RuntimeError):
    """Residual outside the expected monomial span; indicates an engine bug."""


def _T(n: int) -> Mode:
    return Mode("T", n)


def _W(n: int) -> Mode:
    return Mode("W", n)


def _lword(parts: list[int]) -> tuple[Mode, ...]:
    """Virasoro word from a nonincreasing list of positive part sizes."""
    return tuple(_T(-k) for k in sorted(parts, reverse=True))


class Monomials(namedtuple("Monomials", "delta")):
    """The canonical words the pipeline tracks at length Delta-1."""

    __slots__ = ()

    @property
    def ww(self):  # W_{-d} W_{-d}
        return (_W(-self.delta), _W(-self.delta))

    @property
    def ww_down(self):  # W_{-d-1} W_{-d}
        return (_W(-self.delta - 1), _W(-self.delta))

    @property
    def l2_pow(self):  # L_{-2}^{d-1}
        return _lword([2] * (self.delta - 1))

    @property
    def l4_l2(self):  # L_{-4} L_{-2}^{d-2}
        return _lword([4] + [2] * (self.delta - 2))

    @property
    def l33_l2(self):  # L_{-3}^2 L_{-2}^{d-3}
        return _lword([3, 3] + [2] * (self.delta - 3))

    @property
    def l3_l2(self):  # L_{-3} L_{-2}^{d-2}
        return _lword([3] + [2] * (self.delta - 2))

    @property
    def l5_l2(self):  # L_{-5} L_{-2}^{d-2}
        return _lword([5] + [2] * (self.delta - 2))

    @property
    def l4_l3_l2(self):  # L_{-4} L_{-3} L_{-2}^{d-3}
        return _lword([4, 3] + [2] * (self.delta - 3))

    @property
    def l333_l2(self):  # L_{-3}^3 L_{-2}^{d-4}; absent when delta < 5
        if self.delta < 5:
            return None
        return _lword([3, 3, 3] + [2] * (self.delta - 4))


class DerivationReport(namedtuple("DerivationReport", (
        "p delta beta_ww gamma_ww beta_ww_prime B_quasiprimary gamma_sum beta gamma "
        "xi B_primary alpha_zero_consistent difference assumptions"))):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "delta": self.delta,
            "beta_ww_prime": str(self.beta_ww_prime),
            "beta_ww": render_poly(self.beta_ww),
            "gamma_ww": render_poly(self.gamma_ww),
            "B_quasiprimary": render_poly(self.B_quasiprimary),
            "gamma_sum": render_poly(self.gamma_sum),
            "beta": render_poly(self.beta),
            "gamma": render_poly(self.gamma),
            "xi": [render_poly(x) for x in self.xi],
            "B_primary": render_poly(self.B_primary),
            "alpha_zero_consistent": self.alpha_zero_consistent,
            "difference": render_poly(self.difference),
            "assumptions": list(self.assumptions),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


ASSUMPTIONS = [
    "structure constants coupling two equal W fields to odd-weight or "
    "single-derivative composite channels vanish",
    "only the weight-(2*Delta-2) tower channel of [W,W] contributes words of "
    "length Delta-1 on the vacuum",
]


class Derivation:
    """Derivation pipeline bound to one p; every stage uses the engine owned by
    its spec."""

    def __init__(self, p: int):
        if not 2 <= p <= MAX_P:
            raise ValueError(f"p must be between 2 and {MAX_P}")
        self.p = p
        self.delta = 2 * p - 1
        self.spec = make_derivation_spec(p)
        self.mono = Monomials(self.delta)

    # -- helpers ---------------------------------------------------------------

    def _project(self, state: State, tag: str,
                 expected: set | None = None) -> State:
        """Keep the words of length >= Delta-1; with `expected` given, any
        other kept word is a DerivationError."""
        kept = project_with_audit(state, self.delta - 1)[0]
        if expected is not None:
            stray = [w for w in kept.words() if w not in expected]
            if stray:
                raise DerivationError(f"unexpected words in {tag}: {stray}")
        return kept

    def _coeff_c_multiple(self, poly: Poly) -> Fraction:
        coeff, rest = poly.coeff_of_symbol("C")
        if rest:
            raise DerivationError(f"expected a multiple of C, got {poly}")
        return coeff.const_value()

    # -- pipeline steps -----------------------------------------------------------

    def beta_gamma_ww(self) -> tuple[Poly, Poly, Fraction]:
        """Coefficients of L_{-4}L_{-2}^(d-2) and L_{-3}^2 L_{-2}^(d-3) in the
        length-projected quasi-primary product of W with itself at its lowest
        vacuum mode."""
        d = self.delta
        eng = self.spec.engine
        ww = eng.qp_nop("W", "W", 0)
        state = eng.field_mode_apply(ww, -2 * d, State.vacuum())
        mono = self.mono
        proj = self._project(state, "qpnop_ww_bottom",
                             {mono.ww, mono.l4_l2, mono.l33_l2})
        beta_ww = proj.coeff(mono.l4_l2)
        gamma_ww = proj.coeff(mono.l33_l2)
        beta_prime = self._coeff_c_multiple(beta_ww)
        return beta_ww, gamma_ww, beta_prime

    def solve_B_quasiprimary(self, beta_prime: Fraction) -> tuple[Poly, Poly]:
        """Impose that L_2 kills the ansatz at length Delta-1 and solve the
        vanishing of the L_{-2}^(d-1) coefficient for B.

        Returns (B, the L_2-image coefficient with B omitted); the latter
        being nonzero is the quasi-primary-but-not-primary statement.
        """
        d = self.delta
        eng = self.spec.engine
        B = Poly.sym("B")
        C = Poly.sym("C")
        ansatz = State(
            {self.mono.ww: Poly.const(1), self.mono.l4_l2: C * beta_prime + B}
        )
        image = eng.apply_mode(_T(2), ansatz)
        proj = self._project(image, "L2_ansatz", {self.mono.l2_pow})
        equation = proj.coeff(self.mono.l2_pow)
        without_B = equation.substitute({"B": 0})
        solution = solve_linear([equation], ["B"])["B"]
        return solution, without_B

    def gamma_sum(self, B: Poly) -> Poly:
        """Aggregate second coefficient forced by quasi-primarity of the
        remaining weight-2*Delta fields: L_1 annihilation at length Delta-1
        ties it to B."""
        eng = self.spec.engine
        b_sym, g_sym = Poly.sym("B"), Poly.sym("_G")
        state = State({self.mono.l4_l2: b_sym, self.mono.l33_l2: g_sym})
        image = eng.apply_mode(_T(1), state)
        proj = self._project(image, "L1_aggregate", {self.mono.l3_l2})
        equation = proj.coeff(self.mono.l3_l2)
        g = solve_linear([equation], ["_G"])["_G"]
        return g.substitute({"B": B})

    def descend_and_solve_xi(self, beta: Poly, gamma: Poly) -> tuple[Poly, Poly, Poly]:
        """Lower the ansatz one level with L_{-1} and match the length-(d-1)
        monomials against the quasi-primary product's correction channels;
        returns the three aggregate coefficients xi."""
        d = self.delta
        eng = self.spec.engine
        mono = self.mono
        ansatz = State(
            {mono.ww: Poly.const(1), mono.l4_l2: beta, mono.l33_l2: gamma}
        )
        lowered = eng.apply_mode(_T(-1), ansatz)
        # the two-W content must be exactly 2 W_{-d-1} W_{-d}
        w_words = {
            w: c
            for w, c in lowered.terms().items()
            if any(m.field == "W" for m in w)
        }
        if w_words != {mono.ww_down: Poly.const(2)}:
            raise DerivationError(f"unexpected W content {w_words}")
        proj = self._project(lowered, "L-1_ansatz")

        corr = eng.qp_nop_corrections("W", "W", 0)
        corr_state = self._project(
            eng.field_mode_apply(corr, -2 * d - 1, State.vacuum()),
            "qpnop_ww_corr_down",
        )

        residual = State(
            {
                w: c
                for w, c in (proj - corr_state).terms().items()
                if all(m.field != "W" for m in w)
            }
        )
        targets = [mono.l5_l2, mono.l4_l3_l2]
        if mono.l333_l2 is not None:
            targets.append(mono.l333_l2)
        stray = [w for w in residual.words() if w not in targets]
        if stray:
            raise DerivationError(f"xi matching failed, stray words {stray}")
        xi1 = residual.coeff(mono.l5_l2)
        xi2 = residual.coeff(mono.l4_l3_l2)
        xi3 = (
            residual.coeff(mono.l333_l2)
            if mono.l333_l2 is not None
            else Poly.zero()
        )
        return xi1, xi2, xi3

    def solve_B_primary(self, xi: tuple[Poly, Poly, Poly]) -> Poly:
        """Impose that L_2 also kills the lowered vector at length Delta-1.

        The bilinear part of the quasi-primary product is kept exact here:
        its two-W words regrow length-(d-1) content under L_2.
        """
        d = self.delta
        eng = self.spec.engine
        mono = self.mono
        rep = eng.field_mode_apply(eng.qp_nop("W", "W", 0), -2 * d - 1, State.vacuum())
        rep = rep + State({mono.l5_l2: xi[0], mono.l4_l3_l2: xi[1]})
        if mono.l333_l2 is not None:
            rep = rep + State({mono.l333_l2: xi[2]})
        image = eng.apply_mode(_T(2), rep)
        proj = self._project(image, "L2_lowered", {mono.l3_l2})
        equation = proj.coeff(mono.l3_l2)
        return solve_linear([equation], ["B"])["B"]

    # -- full pipeline -----------------------------------------------------------

    def report(self) -> DerivationReport:
        beta_ww, gamma_ww, beta_prime = self.beta_gamma_ww()
        B_quasi, l2_without_B = self.solve_B_quasiprimary(beta_prime)
        if l2_without_B.is_zero():
            raise DerivationError("L2 image of the B-free ansatz vanished")
        B = Poly.sym("B")
        gsum = self.gamma_sum(B)
        beta = beta_ww + B
        gamma = gamma_ww + gsum
        xi = self.descend_and_solve_xi(beta, gamma)
        B_primary = self.solve_B_primary(xi)
        difference = B_quasi - B_primary
        consistent = difference.is_zero()
        return DerivationReport(
            p=self.p,
            delta=self.delta,
            beta_ww=beta_ww,
            gamma_ww=gamma_ww,
            beta_ww_prime=beta_prime,
            B_quasiprimary=B_quasi,
            gamma_sum=gsum,
            beta=beta,
            gamma=gamma,
            xi=xi,
            B_primary=B_primary,
            alpha_zero_consistent=consistent,
            difference=difference,
            assumptions=list(ASSUMPTIONS),
        )


def alpha_nonzero_report(p: int) -> DerivationReport:
    return Derivation(p).report()
