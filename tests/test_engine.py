import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from walgebra.algebra import (
    Derivative,
    Identity,
    Mode,
    Nprod,
    QPNop,
    SpecError,
    TopPower,
    bracket,
    make_derivation_spec,
    make_virasoro_spec,
)
from walgebra.engine import (
    Engine,
    State,
    project_with_audit,
    word_weight,
)
from walgebra.scalar import Poly, binom_int, exact
from walgebra.singular import load_triplet_p2_spec, null_vector_terms


from identity_helpers import (
    basis_states,
    from_word,
    math_apply,
    nprod_tower,
    omega_mode_field,
    virasoro_words,
)


def T(n):
    return Mode("T", n)


def W(n):
    return Mode("W", n)


@pytest.fixture(scope="module")
def vir():
    return Engine(make_virasoro_spec("c"))


@pytest.fixture(scope="module")
def vir2():
    return Engine(make_virasoro_spec(Fraction(-2)))


@pytest.fixture(scope="module")
def der2():
    return Engine(make_derivation_spec(2))


# --- examples ---------------------------------------------------------------


def test_apply_mode_examples(vir2):
    assert vir2.normal_order([T(1), T(-2)]).is_zero()
    assert vir2.normal_order([T(2), T(-2)]) == State({(): Poly.const(-1)})
    w2 = Engine(make_derivation_spec(2))
    assert w2.normal_order([W(-2)]).is_zero()


def test_normal_order_examples(vir2):
    s = vir2.normal_order([T(-2)] * 3)
    assert s == State({(T(-2), T(-2), T(-2)): Poly.const(1)})
    s = vir2.normal_order([T(-2), T(-4)])
    assert s.coeff((T(-4), T(-2))) == Poly.const(1)
    assert s.coeff((T(-6),)) == Poly.const(2)
    assert vir2.normal_order([T(2), T(-3)]).is_zero()


def test_field_mode_examples(der2):
    vac = State.vacuum()
    # a generator reference degenerates to apply_mode
    s = der2.field_mode_apply("T", -4, vac)
    assert s == der2.normal_order([T(-4)])
    # derivative rule
    s = der2.field_mode_apply(Derivative("T", 1), -3, vac)
    assert s == State({(T(-3),): Poly.const(1)})
    # identity field
    s = der2.field_mode_apply(Identity(), 0, der2.normal_order([T(-2)]))
    assert s == State({(T(-2),): Poly.const(1)})
    assert der2.field_mode_apply(Identity(), -1, vac).is_zero()


# one field expression of each kind that acts on the vacuum, and a
# derivative and a power with the same fields
MEMO_KINDS = [Identity(), "T", Derivative("T", 1), TopPower("T", 1), QPNop("T", "T", 0),
              Derivative("T", 2), TopPower("T", 2)]


def test_memo_keeps_field_expression_kinds_apart():
    # each kind gets memo entries of its own: Derivative("T", k) and
    # TopPower("T", k) would share one if field expressions compared as
    # plain tuples
    spec = make_virasoro_spec("c")
    vac = State.vacuum()
    modes = range(-6, 1)
    fresh = {(i, n): Engine(spec).field_mode_apply(expr, n, vac)
             for i, expr in enumerate(MEMO_KINDS) for n in modes}
    assert fresh[(0, 0)] == vac and fresh[(3, -2)] == from_word([T(-2)])
    assert fresh[(5, -4)] != fresh[(6, -4)]
    kinds = range(len(MEMO_KINDS))
    for order in (kinds, reversed(kinds)):
        shared = Engine(spec)
        for i in order:
            for n in modes:
                got = shared.field_mode_apply(MEMO_KINDS[i], n, vac)
                assert got == fresh[(i, n)], (MEMO_KINDS[i], n)


def _outcome(apply, *args):
    """The State an entry point returns, or the message of its SpecError."""
    try:
        return apply(*args)
    except SpecError as exc:
        return f"SpecError: {exc}"


@pytest.mark.parametrize("spec", [load_triplet_p2_spec(), make_derivation_spec(3)],
                         ids=["triplet_p2", "derivation_p3"])
def test_entry_points_agree_on_every_symbol(spec):
    # each entry point runs on its own engine, so no memo entry is shared
    by_mode, by_ref, by_expr = Engine(spec), Engine(spec), Engine(spec)
    top = spec.generators[-1]
    seqs = [(), (T(-2),), (Mode(top.symbol, -top.weight),),
            (T(-3), Mode(top.symbol, -top.weight))]
    states = [by_mode.normal_order(seq) for seq in seqs]
    symbols = [g.symbol for g in spec.generators] + sorted(spec.composites)
    for sym in symbols:
        h = spec.weight_of(sym)
        top_length = (sym in spec.composites
                      and isinstance(spec.composite_expr(sym), TopPower))
        for n in range(-h - 1, 3):
            for seq, st in zip(seqs, states):
                want = _outcome(by_mode.apply_mode, Mode(sym, n), st)
                # a top-length power acts on the vacuum only, so NT raises on
                # any other word, and so does a W mode whose [W, W] bracket
                # puts NT on the word's other mode
                if top_length:
                    assert isinstance(want, str) == bool(seq)
                elif isinstance(want, str):
                    assert sym == "W" and len(seq) == 2
                assert _outcome(by_ref.field_mode_apply, sym, n, st) == want
                if sym in spec.composites:
                    expr = spec.composite_expr(sym)
                    assert _outcome(by_expr.field_mode_apply, expr, n, st) == want


@pytest.mark.parametrize("p", [2, 3])
def test_tower_bottom_mode(p):
    d = 2 * p - 1
    eng = Engine(make_derivation_spec(p))
    s = eng.field_mode_apply(TopPower("T", d - 1), -(2 * d - 2), State.vacuum())
    assert s == State({tuple([T(-2)] * (d - 1)): Poly.const(1)})
    exact = eng.field_mode_apply(nprod_tower(d - 1), -(2 * d - 2), State.vacuum())
    assert s == project_with_audit(exact, d - 1)[0]


@pytest.mark.parametrize("p", [2, 3, 4])
def test_top_power_is_the_exact_tower_at_top_length(p):
    # the four lowest vacuum modes of NT, the ones the derivation uses
    d = 2 * p - 1
    spec = make_derivation_spec(p)
    assert spec.composite_expr("NT") == TopPower("T", d - 1)
    eng = Engine(spec)
    tower = nprod_tower(d - 1)
    for n in range(-(2 * d + 1), -(2 * d - 2) + 1):
        got = eng.apply_mode(Mode("NT", n), State.vacuum())
        exact = eng.field_mode_apply(tower, n, State.vacuum())
        assert got and got == project_with_audit(exact, d - 1)[0], n


def test_project_examples():
    # delta = 5 projection keeps only words of length >= 4
    beta, delta_sym = Poly.sym("beta"), Poly.sym("delta")
    s = State(
        {
            (T(-4), T(-2), T(-2), T(-2)): beta,
            (T(-4), T(-4), T(-2)): delta_sym,
        }
    )
    kept, dropped = project_with_audit(s, 4)
    assert kept == State({(T(-4), T(-2), T(-2), T(-2)): beta})
    assert project_with_audit(s, 0)[0] == s
    assert project_with_audit(State.vacuum(), 1)[0].is_zero()
    assert dropped == State({(T(-4), T(-4), T(-2)): delta_sym})


# --- properties -----------------------------------------------------------------


def test_weight_grading(vir):
    rng = random.Random(7)
    words = virasoro_words(8)
    for _ in range(60):
        word = rng.choice(words)
        n = rng.randint(-4, 4)
        out = vir.apply_mode(T(n), from_word(word))
        for w in out.words():
            assert word_weight(w) == word_weight(word) - n


def test_confluence_weight_10(vir):
    # two rewriting schedules of the same composition agree
    for word in virasoro_words(10):
        for perm in {word, tuple(reversed(word))}:
            base = vir.normal_order(perm)
            for i in range(len(perm) - 1):
                a, b = perm[i], perm[i + 1]
                swapped = perm[:i] + (b, a) + perm[i + 2:]
                alt = vir.normal_order(swapped)
                ops = vir.bracket(a, b)
                for coeff, mode in ops.terms:
                    alt = alt + vir.normal_order(
                        perm[:i] + (mode,) + perm[i + 2:]
                    ).scale(coeff)
                if ops.central:
                    alt = alt + vir.normal_order(perm[:i] + perm[i + 2:]).scale(
                        ops.central
                    )
                assert alt == base, (perm, i)


# --- the two mode identities (math convention) -------------------------------------


def test_omega_mode_fields(vir):
    # the field of omega_m omega reproduces that state at its bottom mode
    for m in range(-3, 4):
        expr = omega_mode_field(m)
        state = math_apply(vir, "T", m, vir.normal_order([T(-2)]))
        if expr is None:
            assert state.is_zero(), m
            continue
        # weight of the product field
        from walgebra.algebra import expr_weight

        h = expr_weight(expr, vir.tables)
        got = vir.field_mode_apply(expr, -h, State.vacuum())
        assert got == state, (m, got.render(), state.render())


def test_commutation_identity(vir):
    # v_m u_{-n} w = u_{-n} v_m w + sum_i C(m,i) (v_i u)_{m-n-i} w   (math)
    for w in basis_states(8):
        state = from_word(w)
        for m in range(-3, 4):
            for n in range(1, 5):
                lhs = math_apply(
                    vir, "T", m, math_apply(vir, "T", -n, state)
                )
                rhs = math_apply(
                    vir, "T", -n, math_apply(vir, "T", m, state)
                )
                for i in range(0, 4):
                    coeff = binom_int(m, i)
                    if not coeff:
                        continue
                    expr = omega_mode_field(i)
                    if expr is None:
                        continue
                    rhs = rhs + math_apply(vir, expr, m - n - i, state).scale(coeff)
                assert lhs == rhs, (w, m, n)


def test_iteration_identity(vir):
    # (u_m v)_n = sum_i (-1)^i C(m,i) [u_{m-i} v_{n+i} - (-1)^m v_{m+n-i} u_i]
    for w in basis_states(6):
        state = from_word(w)
        weight = word_weight(w)
        for m in range(-3, 4):
            expr = omega_mode_field(m)
            for n in range(-3, 4):
                lhs = (
                    math_apply(vir, expr, n, state)
                    if expr is not None
                    else State()
                )
                rhs = State()
                sign_m = -1 if m % 2 else 1
                for i in range(0, weight + abs(n) + 8):
                    coeff = binom_int(m, i) * (-1) ** i
                    if not coeff:
                        continue
                    first = math_apply(
                        vir, "T", m - i,
                        math_apply(vir, "T", n + i, state),
                    )
                    second = math_apply(
                        vir, "T", m + n - i,
                        math_apply(vir, "T", i, state),
                    )
                    rhs = rhs + first.scale(coeff) - second.scale(coeff * sign_m)
                assert lhs == rhs, (w, m, n)


# --- quasi-primary products -----------------------------------------------------------


def test_qp_nop_without_channels_is_plain_product():
    from walgebra.algebra import AlgebraSpec, GeneratorDecl

    spec = AlgebraSpec(
        central_charge=Fraction(1),
        generators=(GeneratorDecl("T", 2), GeneratorDecl("U", 5)),
        d={("T", "T"): Poly.const(Fraction(1, 2))},
        constants={
            ("T", "T", "T"): Poly.const(2),
            ("T", "U", "U"): Poly.const(5),
            ("U", "T", "U"): Poly.const(5),
        },
    )
    eng = Engine(spec)
    expr = eng.qp_nop("U", "U", 0)
    assert expr.parts == (
        (Poly.const(1), Nprod(5, "U", "U")),
    )


@pytest.mark.parametrize("p", [2, 3])
def test_qp_nop_correction_mode_at_lowered_level(p):
    # the correction channels of the W-product, one level below the bottom,
    # carry -(3/2) C (2d-1)/(4d-3) times the tower monomial combination
    d = 2 * p - 1
    eng = Engine(make_derivation_spec(p))
    corr = eng.qp_nop_corrections("W", "W", 0)
    state = project_with_audit(
        eng.field_mode_apply(corr, -2 * d - 1, State.vacuum()), d - 1
    )[0]
    C = Poly.sym("C")
    factor = C * Fraction(-3 * (2 * d - 1), 2 * (4 * d - 3))
    m1 = tuple([T(-5)] + [T(-2)] * (d - 2))
    m2 = tuple([T(-4), T(-3)] + [T(-2)] * (d - 3))
    assert state.coeff(m1) == factor * (d - 1)
    assert state.coeff(m2) == factor * ((d - 1) * (d - 2))
    if d >= 5:
        m3 = tuple([T(-3)] * 3 + [T(-2)] * (d - 4))
        assert state.coeff(m3) == factor * binom_int(d - 1, 3)


# --- prefix soundness ----------------------------------------------------------------


def test_prefix_invariance_soundness(der2):
    from walgebra.c2 import manifest_member, prefixed_manifest

    spec = make_derivation_spec(2)
    manifest = [w for w in virasoro_words(8) if manifest_member(w, 2, spec)]
    prefixes = [T(-1), T(-2), T(-3), W(-3), W(-4)]
    for w in manifest:
        for mode in prefixes:
            out = der2.apply_mode(mode, from_word(w))
            for word in out.words():
                assert prefixed_manifest(word, 2, spec), (mode, w, word)


# --- exact memo coefficients -------------------------------------------------------


def _memo_coeffs(engine):
    return [c for table in engine._memo.values() for c in table.values()]


def _is_exact(c):
    return (type(c) is int or (type(c) is Fraction and c.denominator > 1)
            or (type(c) is Poly and not c.is_const()))


def test_memo_holds_exact_numbers(derivation):
    der = derivation(4)
    der.report()
    coeffs = _memo_coeffs(der.spec.engine)
    assert coeffs and all(_is_exact(c) for c in coeffs)
    kinds = {type(c) for c in coeffs}
    assert kinds == {int, Fraction, Poly}
    # only the [W,W] channels bring symbols into the rewriting
    for c in coeffs:
        if type(c) is Poly:
            assert c.symbols() <= {"C", "CWWT", "dWW"}


def test_memo_keeps_symbolic_coefficients_as_poly():
    engine = Engine(load_triplet_p2_spec())
    states = [engine.evaluate(null_vector_terms(a, b))
              for a in (1, 2, 3) for b in (1, 2, 3)]
    coeffs = _memo_coeffs(engine)
    assert all(_is_exact(c) for c in coeffs)
    symbols = set().union(*(c.symbols() for c in coeffs if type(c) is Poly))
    assert {"uW", "uX"} <= symbols
    state_coeffs = [c for st in states for c in st.terms().values()]
    assert all(type(c) is Poly for c in state_coeffs)
    assert any("I" in c.symbols() for c in state_coeffs)


# --- the bracket and normal-order memos -------------------------------------------


@pytest.mark.parametrize("spec", [load_triplet_p2_spec(), make_derivation_spec(3),
                                  make_virasoro_spec("c")],
                         ids=["triplet_p2", "derivation_p3", "virasoro"])
def test_engine_bracket_matches_algebra_bracket(spec):
    engine = Engine(spec)
    symbols = [g.symbol for g in spec.generators]
    for a in symbols:
        for b in symbols:
            for m in range(-7, 5):
                for n in range(-7, 5):
                    x, y = Mode(a, m), Mode(b, n)
                    first = engine.bracket(x, y)
                    assert first == bracket(x, y, spec)
                    # the row the evaluator reads is the OperatorSum itself,
                    # computed once, each coefficient already exact
                    assert engine.bracket(x, y) is first is engine._row(a, m, y)
                    for c in (*[c for c, _ in first.terms], first.central):
                        assert (type(c), c) == (type(exact(c)), exact(c))


def _fold(engine, word):
    """normal_order as it was: the modes applied right to left to the vacuum."""
    state = State.vacuum()
    for mode in reversed(list(word)):
        state = engine.apply_mode(mode, state)
    return state


_TRIPLET = load_triplet_p2_spec()
_WORD_MODES = ([T(n) for n in range(-4, 3)] + [Mode("W1", n) for n in range(-4, 2)]
               + [Mode("W2", n) for n in (-3, 1)])


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.lists(st.sampled_from(_WORD_MODES), max_size=4),
                      min_size=1, max_size=4),
       factor=st.sampled_from([Poly.const(3), Poly.sym("I"), Poly.sym("uT") + 1]))
def test_memoized_normal_order_matches_fold(words, factor):
    engine = _TRIPLET.engine  # one memo across every example, warming up
    oracle = Engine(_TRIPLET)
    for word in words:
        want = _fold(oracle, word)
        got = engine.normal_order(word)
        assert got == want
        # scaling, adding and subtracting a result build new States and
        # leave the memoized one as it was
        assert got.scale(factor) + got - got.scale(factor) == want
        assert engine.evaluate([(factor, word), (-factor, word)]).is_zero()
        assert engine.normal_order(iter(word)) == want


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.lists(st.sampled_from(_WORD_MODES), min_size=1, max_size=3),
                      min_size=1, max_size=3),
       mode=st.sampled_from(_WORD_MODES),
       factor=st.sampled_from([2, Fraction(-1, 3), Poly.sym("I"), Poly.sym("uT") + 1]))
def test_mode_application_is_linear(words, mode, factor):
    # a mode applied to a state of several words equals the sum of its
    # applications to each word alone
    engine = _TRIPLET.engine
    terms = {w: c for word in words for w, c in engine.normal_order(word)._t.items()}
    state = State(terms).scale(factor) + State.vacuum() + engine.normal_order((T(-2),))
    assume(len(state._t) >= 2)
    singles = [State({w: c}) for w, c in state._t.items()]
    one_by_one = State()
    for single in singles:
        one_by_one = one_by_one + engine.apply_mode(mode, single)
    assert engine.apply_mode(mode, state) == one_by_one
    # a coefficient given as a number still comes out as Polys
    out = engine.apply_mode(mode, State({next(iter(state._t)): 2}))
    assert all(type(c) is Poly for c in out._t.values())


def test_normal_order_applies_each_suffix_once():
    engine = Engine(make_virasoro_spec(Fraction(-2)))
    calls = []
    plain = engine.apply_mode
    engine.apply_mode = lambda mode, state: calls.append(mode) or plain(mode, state)
    word = (T(-2), T(-3), T(-4))
    engine.normal_order(word)
    assert calls == [T(-4), T(-3), T(-2)]
    engine.normal_order((T(-5),) + word[1:])
    assert calls[3:] == [T(-5)]
    engine.normal_order(word)
    engine.normal_order(word[1:])
    assert len(calls) == 4


def test_normal_order_depth_does_not_grow_with_the_word():
    engine = Engine(make_virasoro_spec(Fraction(-2)))
    word = (T(-2),) * (sys.getrecursionlimit() + 100)
    assert engine.normal_order(word) == from_word(word)
