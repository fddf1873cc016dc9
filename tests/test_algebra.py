import json
import subprocess
import sys
import weakref
from fractions import Fraction
from itertools import product
from math import factorial, lcm
from operator import mul

import pytest

from walgebra.algebra import (
    AlgebraSpec,
    CompositeDecl,
    Derivative,
    GeneratorDecl,
    Identity,
    Mode,
    QPNop,
    Record,
    SpecError,
    TopPower,
    bracket,
    central_charge_p1,
    channel_poly,
    load_spec,
    make_derivation_spec,
    make_virasoro_spec,
    p_poly,
)
from walgebra.c2 import math_index
from walgebra.engine import State
from walgebra.scalar import Poly
from walgebra.singular import load_triplet_p2_spec, substitute_constants


def T(n):
    return Mode("T", n)


def test_math_index():
    # n_math = n_phys + h - 1: the lowest creation mode of a weight-h field
    # has math index -1
    spec = make_derivation_spec(3)
    assert math_index(T(-2), spec) == -1
    assert math_index(Mode("W", -5), spec) == -1
    for n in range(-9, 10):
        for field, h in (("T", 2), ("W", 5)):
            assert math_index(Mode(field, n), spec) == n + h - 1


def test_p_poly_anchors():
    for delta in (3, 5, 7, 9):
        assert p_poly(delta, delta, 2 * delta - 2, 2 - delta, -delta) == 1
    assert p_poly(3, 3, 4, -3, -4) == Fraction(1, 2)


def test_p_poly_rejects_bad_channel():
    with pytest.raises(ValueError):
        p_poly(2, 2, 5, 0, 0)


def test_channel_poly_matches_p_poly_on_equal_weights():
    for (hi, hj, hk) in [(2, 2, 2), (3, 3, 2), (3, 3, 3), (3, 3, 4),
                         (5, 5, 8), (5, 5, 2), (4, 4, 6)]:
        for m in range(-6, 7):
            for n in range(-6, 7):
                assert channel_poly(hi, hj, hk, m, n) == p_poly(hi, hj, hk, m, n)


def _falling_binom(x, k):
    """C(x, k) as the falling factorial x (x-1) ... (x-k+1) over k!."""
    num = 1
    for j in range(k):
        num *= x - j
    value = Fraction(num, factorial(k))
    assert value.denominator == 1
    return value.numerator


def test_channel_sums_match_the_fraction_formula():
    # The Fraction formula restated apart from the integer kernel: each a^t
    # is a Fraction of two falling-factorial binomials.  The sum is taken over
    # the lcm of their denominators and compared by cross-multiplying, which
    # keeps the grid (about 900k points per function) to seconds.  Weights up
    # to 12 reach the W x W -> T channel at p = 6.  The uncached channel_poly
    # body keeps the grid out of its lru_cache.
    channel = channel_poly.__wrapped__
    grid = range(-12, 13)
    for hi, hj, hk in product(range(1, 13), repeat=3):
        h = hi + hj - hk
        if not 1 <= h <= 20:
            continue
        a = [Fraction(_falling_binom(hi + hk - hj + t - 1, t),
                      _falling_binom(2 * hk + t - 1, t)) for t in range(h)]
        den = lcm(*(c.denominator for c in a))
        # x_row[x][t] = a^t C(x, t) * den; y_row[y][t] = C(y, h-1-t)
        x_row = {x: [c.numerator * (den // c.denominator) * _falling_binom(x, t)
                     for t, c in enumerate(a)]
                 for x in range(-24 - hk, 25 - hk)}
        y_row = {y: [_falling_binom(y, h - 1 - t) for t in range(h)]
                 for y in range(hi - 13, hi + 12)}
        for m, n in product(grid, grid):
            for got, x, y in ((channel(hi, hj, hk, m, n), -(m + n) - hk, m + hi - 1),
                              (p_poly(hi, hj, hk, m, n), m + n - hk, hi - n - 1)):
                total = sum(map(mul, x_row[x], y_row[y]))
                if total % den:
                    assert type(got) is Fraction, (hi, hj, hk, m, n)
                    assert got.numerator * den == total * got.denominator
                else:
                    assert type(got) is int and got == total // den, (hi, hj, hk, m, n)


def test_virasoro_oracle():
    spec = make_virasoro_spec("c")
    c = Poly.sym("c")
    for m in range(-6, 7):
        for n in range(-6, 7):
            ops = bracket(T(m), T(n), spec)
            terms = dict((mode, coeff) for coeff, mode in ops.terms)
            want = Poly.const(m - n)
            got = terms.pop(Mode("T", m + n), Poly.zero())
            assert not terms
            assert got == want or (m == n and got.is_zero())
            want_central = (
                c * Fraction(m * (m * m - 1), 12) if m + n == 0 else Poly.zero()
            )
            assert ops.central == want_central


def test_virasoro_central_charge_is_exact():
    assert make_virasoro_spec(Fraction(1, 3)).central_charge == Fraction(1, 3)
    assert make_virasoro_spec(Poly.const(-2)).central_charge == -2
    with pytest.raises(TypeError):
        make_virasoro_spec(0.1)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_primary_bracket(p):
    # [L_m, phi_n] = ((h-1) m - n) phi_{m+n} for a primary field, all m, n
    spec = make_derivation_spec(p)
    h = 2 * p - 1
    for m in range(-4, 5):
        for n in range(-2 * h, 3):
            ops = bracket(T(m), Mode("W", n), spec)
            terms = dict((mode, coeff) for coeff, mode in ops.terms)
            got = terms.get(Mode("W", m + n), Poly.zero())
            assert got == Poly.const((h - 1) * m - n)
            assert ops.central.is_zero()


@pytest.mark.parametrize("h", range(1, 13))
def test_primary_bracket_every_weight(h):
    # the same rule for a lone primary P of each weight h = 1..12, with no
    # other channel declared, so the bracket is that one term
    spec = AlgebraSpec(
        central_charge=Fraction(1),
        generators=(GeneratorDecl("T", 2), GeneratorDecl("P", h)),
        d={("T", "T"): Poly.const(Fraction(1, 2))},
        constants={("T", "T", "T"): Poly.const(2), ("T", "P", "P"): Poly.const(h),
                   ("P", "T", "P"): Poly.const(h)},
    )
    for m in range(-4, 5):
        for n in range(-2 * h, 3):
            ops = bracket(T(m), Mode("P", n), spec)
            want = (h - 1) * m - n
            assert ops.terms == (((Poly.const(want), Mode("P", m + n)),) if want else ())
            assert ops.central.is_zero()


def test_quasi_primary_sl2_rule():
    # [L_m, phi_n] = ((h-1) m - n) phi_{m+n} for m in {-1,0,1} also for the
    # weight-4 composite channel of the p=2 algebra
    spec = load_triplet_p2_spec()
    for m in (-1, 0, 1):
        for n in range(-8, 3):
            # no constants for (T, L4) are declared, so the bracket refuses
            # the composite mode; the sl2 content is the channel polynomial
            with pytest.raises(SpecError, match="composite field 'L4'"):
                bracket(T(m), Mode("L4", n), spec)
            assert channel_poly(2, 4, 2, m, n) == 0
    # and the conformal channel reproduces the sl2 coefficient
    for m in (-1, 0, 1):
        for n in range(-8, 3):
            assert channel_poly(2, 4, 4, m, n) * 4 == Fraction(3 * m - n)


def test_bracket_antisymmetry_triplet():
    spec = load_triplet_p2_spec()
    fields = ["T", "W1", "W2", "W3"]
    for fa in fields:
        for fb in fields:
            for m in range(-6, 7):
                for n in range(-6, 7):
                    ab = bracket(Mode(fa, m), Mode(fb, n), spec)
                    ba = bracket(Mode(fb, n), Mode(fa, m), spec)
                    total = {}
                    for coeff, mode in ab.terms + ba.terms:
                        total[mode] = total.get(mode, Poly.zero()) + coeff
                    assert not any(total.values()), (fa, m, fb, n, ab.render())
                    assert not ab.central + ba.central, (fa, m, fb, n, ab.render())


def test_load_spec_round_trip():
    spec = load_triplet_p2_spec()
    assert spec.central_charge == -2
    assert [g.symbol for g in spec.generators] == ["T", "W1", "W2", "W3"]
    assert spec.weight_of("L4") == 4
    assert spec.pairing("T", "T") == Poly.const(-1)


def _valid_virasoro_doc():
    return {
        "central_charge": "-2",
        "generators": [{"symbol": "T", "weight": 2}],
        "d": [{"i": "T", "j": "T", "value": "-1"}],
        "structure_constants": [{"i": "T", "j": "T", "k": "T", "value": "2"}],
    }


def test_load_spec_virasoro_with_c_lower_check():
    doc = _valid_virasoro_doc()
    # sum_l C_TT^l d_lT = 2 * (-1) = -2 = c
    doc["c_lower"] = [{"i": "T", "j": "T", "k": "T", "value": "-2"}]
    spec = load_spec(json.dumps(doc))
    assert spec.central_charge == -2


@pytest.mark.parametrize("symbol", ["A", "Z" * 5000], ids=["short", "long"])
def test_composite_mode_refusal_clips_its_symbol(symbol):
    # a spec's symbols are untrusted input: the refusal quotes them by the
    # `quoted` rule, and a short one reads as it always did
    doc = _valid_virasoro_doc()
    doc["composite_fields"] = [{"symbol": symbol, "weight": 2,
                                "definition": {"gen": "T"}}]
    spec = load_spec(json.dumps(doc))
    with pytest.raises(SpecError) as info:
        bracket(T(1), Mode(symbol, -5), spec)
    if symbol == "A":
        assert str(info.value) == ("A(-5) is a mode of the composite field 'A'; "
                                   "brackets are declared between generator "
                                   "modes only")
    else:
        assert len(str(info.value)) < 300


def test_load_spec_rejects_bad_c_lower():
    doc = _valid_virasoro_doc()
    doc["c_lower"] = [{"i": "T", "j": "T", "k": "T", "value": "5"}]
    with pytest.raises(SpecError):
        load_spec(json.dumps(doc))


def test_load_spec_rejects_zero_weight():
    doc = _valid_virasoro_doc()
    doc["generators"].append({"symbol": "X", "weight": 0})
    with pytest.raises(SpecError):
        load_spec(json.dumps(doc))


def test_load_spec_rejects_forbidden_channel():
    # h(ijk) = 0 channel listed
    doc = _valid_virasoro_doc()
    doc["generators"].append({"symbol": "U", "weight": 4})
    doc["structure_constants"] += [
        {"i": "T", "j": "U", "k": "U", "value": "4"},
        {"i": "U", "j": "T", "k": "U", "value": "4"},
        {"i": "T", "j": "T", "k": "U", "value": "1"},
    ]
    with pytest.raises(SpecError):
        load_spec(json.dumps(doc))


def test_load_spec_rejects_missing_conformal_channel():
    doc = _valid_virasoro_doc()
    doc["generators"].append({"symbol": "W", "weight": 3})
    with pytest.raises(SpecError):
        load_spec(json.dumps(doc))


@pytest.mark.parametrize("symbol", ["W", "x" * 5000])
def test_validate_clips_long_symbols_and_values(symbol):
    # a symbol or value whose text passes 60 characters is echoed as its
    # first 60 and its length; a shorter one is echoed whole, as before
    def clip(text):
        return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"

    value, duplicate, extra = (_valid_virasoro_doc() for _ in range(3))
    value["structure_constants"][0]["value"] = symbol
    duplicate["generators"] += [{"symbol": symbol, "weight": 3}] * 2
    extra["generators"].append({"symbol": symbol, "weight": 3})
    for doc, message in [
            (value, "channel ('T', 'T', 'T') must equal the field weight 2, got "
                    + clip(symbol)),
            (duplicate, "duplicate generator " + clip(repr(symbol))),
            (extra, "missing conformal channel " + clip(repr(("T", symbol, symbol))))]:
        with pytest.raises(SpecError) as refusal:
            load_spec(json.dumps(doc))
        assert str(refusal.value) == message


def test_load_spec_rejects_malformed_json():
    with pytest.raises(SpecError):
        load_spec("{not json")


def test_central_charges():
    assert central_charge_p1(2) == -2
    assert central_charge_p1(3) == Fraction(-7)
    assert central_charge_p1(5) == Fraction(1) - Fraction(6 * 16, 5)


def test_spec_is_frozen_and_owns_its_engine():
    spec = load_triplet_p2_spec()
    constants = spec.constants
    with pytest.raises(AttributeError):
        spec.central_charge = Fraction(1)
    with pytest.raises(AttributeError):
        spec.constants = {}
    assert spec.central_charge == -2 and spec.constants is constants
    key = ("T", "T", "T")
    for mapping in (spec.d, spec.constants, spec.composites, spec.c_lower):
        with pytest.raises(TypeError):
            mapping[key] = Poly.const(1)
    # the engine computes under its spec
    assert spec.engine is spec.engine and spec.engine.spec.constants is constants
    # substitution builds a new spec, with an engine of its own
    new = substitute_constants(spec, {"uT": Poly.const(3)})
    assert new is not spec and new.engine is not spec.engine
    assert new.engine.spec.constants is new.constants
    assert new.constants[("W1", "W1", "T")] == Poly.const(3)
    assert spec.constants[("W1", "W1", "T")] == Poly.sym("uT")
    # the engine holds no strong reference to its spec: the two form no
    # cycle, so dropping the spec frees it at once
    engine, ref = new.engine, weakref.ref(new)
    del new
    assert ref() is None
    with pytest.raises(ReferenceError):
        engine.spec.weight_of("T")


def test_engine_of_a_freed_spec_says_so():
    # a spec nobody keeps is freed at once, and its engine then names the
    # cause rather than a bare "weakly-referenced object no longer exists"
    engine = make_virasoro_spec("c").engine
    with pytest.raises(ReferenceError, match=r"^the AlgebraSpec of this engine was "
                       r"freed; keep the spec alive while spec\.engine is in use$"):
        engine.apply_mode(Mode("T", -2), State.vacuum())


SPEC_ATTRIBUTES = ("central_charge", "generators", "d", "constants", "composites",
                   "c_lower", "engine")


@pytest.mark.parametrize("name", SPEC_ATTRIBUTES)
def test_spec_refuses_assigning_or_deleting_any_attribute(name):
    spec = load_triplet_p2_spec()
    value = getattr(spec, name)
    with pytest.raises(AttributeError):
        setattr(spec, name, None)
    with pytest.raises(AttributeError):
        delattr(spec, name)
    assert getattr(spec, name) is value


def test_spec_engine_is_a_plain_attribute_after_first_use():
    # the replay reads spec.engine on every swap and step: after the first
    # read it comes from the instance, not from a property call
    spec = load_triplet_p2_spec()
    assert "engine" not in vars(spec)
    engine = spec.engine
    assert vars(spec)["engine"] is engine


def test_spec_compares_by_value():
    assert load_triplet_p2_spec() == load_triplet_p2_spec()
    assert make_virasoro_spec("1") != make_virasoro_spec("2")
    assert make_virasoro_spec("1") != tuple(make_virasoro_spec("1")._astuple())


def test_spec_copies_the_mappings_it_is_built_from():
    d = {("T", "T"): Poly.const(1)}
    spec = AlgebraSpec(Fraction(2), (GeneratorDecl("T", 2),), d,
                       {("T", "T", "T"): Poly.const(2)})
    d[("T", "T")] = Poly.const(5)
    assert spec.pairing("T", "T") == Poly.const(1)


def test_spec_built_in_python_checks_composite_weights():
    # the definition has weight 4; accepted, L4(-5) |0> came out as
    # (-4/5) T(-5) |0> + (2) T(-3) T(-2) |0>
    base = make_virasoro_spec(-2)
    with pytest.raises(SpecError, match="composite 'L4' declared weight 5, "
                                        "definition has weight 4"):
        AlgebraSpec(base.central_charge, base.generators, base.d, base.constants,
                    composites={"L4": CompositeDecl("L4", 5, QPNop("T", "T", 0))})


def test_spec_refuses_a_composite_filed_under_another_symbol():
    # filed under X, Y would have a weight but no modes, and X modes but no
    # weight
    base = make_virasoro_spec(-2)
    with pytest.raises(SpecError, match="composite 'X' declares the symbol 'Y'"):
        AlgebraSpec(base.central_charge, base.generators, base.d, base.constants,
                    composites={"X": CompositeDecl("Y", 4, QPNop("T", "T", 0))})


class Pair(Record):
    __slots__ = ()
    _fields = ("left", "right")
    _defaults = {"right": 0}


@pytest.mark.parametrize("args, kwargs", [
    ((1, 2), {}), ((), {"right": 2, "left": 1}), ((1,), {"right": 2}),
], ids=["positional", "keyword", "mixed"])
def test_record_takes_each_field_by_position_or_name(args, kwargs):
    pair = Pair(*args, **kwargs)
    assert (pair.left, pair.right) == (1, 2) and pair == Pair(1, 2)


def test_record_fills_a_left_out_field_from_its_defaults():
    assert Pair(1) == Pair(left=1) == Pair(1, 0)
    assert Pair(1)._replace(right=5) == Pair(1, 5)
    with pytest.raises(TypeError, match="Pair has no field 'middle'"):
        Pair(1)._replace(middle=2)


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "Pair lacks field 'left'"),
    ((), {"right": 2}, "Pair lacks field 'left'"),
    ((1,), {"middle": 2}, "Pair has no field 'middle'"),
    ((1,), {"left": 2}, "Pair got field 'left' twice"),
    ((1, 2, 3), {}, "Pair takes 2 fields, got 3"),
], ids=["nothing", "missing", "unknown", "twice", "too_many"])
def test_record_refuses_a_missing_unknown_or_doubly_given_field(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def _virasoro_with_composites(*definitions):
    doc = _valid_virasoro_doc()
    doc["composite_fields"] = [{"symbol": symbol, "weight": 2, "definition": d}
                               for symbol, d in definitions]
    return json.dumps(doc)


@pytest.mark.parametrize("definitions,message", [
    ([("Y", {"deriv": {"base": {"gen": "Y"}, "order": 0}})],
     "composite 'Y' names itself"),
    ([("Y", {"gen": "Z"}), ("Z", {"gen": "T"})],
     "composite 'Y' names composite 'Z', which is listed after it"),
    ([("Y", {"lincomb": [["1", {"gen": "T"}], ["1", {"gen": "Y"}]]})],
     "composite 'Y' names itself"),
], ids=["itself", "later", "itself_in_a_lincomb"])
def test_load_spec_refuses_a_composite_not_yet_defined(definitions, message):
    # evaluating such a composite would never end
    with pytest.raises(SpecError, match=message):
        load_spec(_virasoro_with_composites(*definitions))


def test_field_expressions_compare_by_kind():
    assert Derivative("T", 1) != TopPower("T", 1)
    assert Derivative("T", 1) != ("T", 1) and Identity() != ()
    assert Identity() and Identity() == Identity()
    assert hash(Derivative("T", 1)) == hash(Derivative("T", 1))
    spec = load_spec(_virasoro_with_composites(("Z", {"gen": "T"})))
    assert spec.composite_expr("Z") == "T"


def test_composite_alias_chain_evaluates_as_the_generator():
    spec = load_spec(_virasoro_with_composites(("Z", {"gen": "T"}),
                                               ("Y", {"gen": "Z"})))
    engine = spec.engine
    for state in (State.vacuum(), engine.normal_order([T(-2), T(-3)])):
        for n in range(-4, 5):
            want = engine.apply_mode(T(n), state)
            assert engine.field_mode_apply("Y", n, state) == want
            assert engine.apply_mode(Mode("Y", n), state) == want


def test_undeclared_field_is_a_spec_error():
    spec = make_virasoro_spec("c")
    for lookup in (spec.weight_of, spec.composite_expr):
        with pytest.raises(SpecError, match="undeclared field 'W1'"):
            lookup("W1")


# a document nested deeper than the interpreter's recursion limit
DEEP_JSON = "[" * 200_000 + "]" * 200_000


def test_load_spec_refuses_a_deeply_nested_document():
    with pytest.raises(SpecError, match="not valid JSON"):
        load_spec(DEEP_JSON)
    with pytest.raises(SpecError, match="not valid JSON"):
        load_spec('{"central_charge": ' + DEEP_JSON + "}")


@pytest.mark.parametrize("generators, message", [
    ([], "no generators: the first generator must be the weight-2 conformal field"),
    # an empty object is not an empty array: every list part must be an array
    ({}, r"generators must be a JSON array, got \{\}"),
], ids=["list", "object"])
def test_load_spec_refuses_a_spec_without_generators(generators, message):
    for doc in ({"central_charge": "-2", "generators": generators},
                {**_valid_virasoro_doc(), "generators": generators}):
        with pytest.raises(SpecError, match=message):
            load_spec(json.dumps(doc))


# The one dataclass left: bench/worker.py calls dataclasses.replace on a
# step.  Every other record is a collections.namedtuple subclass or a
# hand-written class, either of which costs a cold import far less than a
# dataclass.
KEPT_DATACLASSES = {"walgebra.c2.MembershipClaim"}

_LIST_DATACLASSES = """
import dataclasses, json, sys
import walgebra, walgebra.cli
from walgebra.singular import load_triplet_p2_spec
load_triplet_p2_spec()
print(json.dumps(sorted(
    f"{name}.{attr}"
    for name, module in list(sys.modules.items()) if name.split(".")[0] == "walgebra"
    for attr, value in vars(module).items()
    if isinstance(value, type) and value.__module__ == name
    and dataclasses.is_dataclass(value))))
"""


def test_only_the_listed_types_are_dataclasses():
    # a cold interpreter, so that every module a CLI call imports is loaded
    proc = subprocess.run([sys.executable, "-c", _LIST_DATACLASSES],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == KEPT_DATACLASSES
