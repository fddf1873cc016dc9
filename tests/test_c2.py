import dataclasses
import json
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walgebra import algebra, c2
from walgebra.algebra import (AlgebraSpec, GeneratorDecl, Mode, SpecError, bracket,
                              load_spec)
from walgebra.c2 import (
    Certificate,
    CertificateError,
    LinearCombinationRule,
    ManifestMemberRule,
    MembershipClaim,
    PrefixInvarianceRule,
    ReorderRule,
    SingularRewriteRule,
    WeightBoundedBracketRule,
    certificate_from_dict,
    certificate_from_json,
    certificate_to_json,
    certify_triplet_p2,
    expr_add,
    expr_scale,
    expression,
    manifest_member,
    parse_expression,
    prefixed_manifest,
    render_expression,
    verify_certificate,
)
from walgebra.c2 import _residual
from walgebra.engine import Engine
from walgebra.scalar import Poly, parse_poly
from walgebra.singular import SingularTable, load_triplet_p2_spec, null_vector_terms


GOLDEN = Path(__file__).parent / "golden"


def T(n):
    return Mode("T", n)


def W(a, n):
    return Mode(f"W{a}", n)


@pytest.fixture(scope="module")
def spec():
    return load_triplet_p2_spec()


@pytest.fixture(scope="module")
def cert():
    return certify_triplet_p2()


def test_manifest_member_examples(spec):
    assert manifest_member((T(-3), T(-2)), 2, spec)
    assert not manifest_member((T(-2), T(-2), T(-2)), 2, spec)
    assert manifest_member((W(1, -4), T(-2)), 2, spec)
    assert manifest_member((T(-2),), 1, spec)
    assert not manifest_member((), 2, spec)


def all_canonical_words(spec, max_weight):
    """Every canonical creation word of the triplet algebra up to a weight."""
    modes = []
    for g in spec.generators:
        for n in range(-max_weight, -g.weight + 1):
            modes.append((Mode(g.symbol, n), spec.rank(g.symbol)))
    words = []

    def rec(start_key, remaining, word):
        if word:
            words.append(tuple(word))
        for mode, rank in modes:
            key = (mode.n, rank)
            if key < start_key or -mode.n > remaining:
                continue
            rec(key, remaining + mode.n, word + [mode])

    rec((-max_weight, -1), max_weight, [])
    return words


def test_manifest_monotonicity_exhaustive(spec):
    words = all_canonical_words(spec, 8)
    assert len(words) > 100
    for word in words:
        for m in range(2, 8):
            if manifest_member(word, m, spec):
                for n in range(1, m):
                    assert manifest_member(word, n, spec)


def test_certificate_verifies(cert, spec):
    ok, reports = verify_certificate(cert, spec)
    assert ok, [r.detail for r in reports if not r.ok]
    assert all(r.ok for r in reports)


def test_certificate_targets(cert):
    labels = {s.label for s in cert.steps if s.id in cert.targets}
    assert "W1(-3)^3 |0> in C2" in labels
    assert "W1(-3)^4 |0> in C2" in labels
    assert "W1(-3)^5 |0> in C2" in labels
    assert "L(-2)^6 |0> in C2" in labels
    assert "(W1(-3)^2 - W2(-3)^2) |0> in C2" in labels
    assert any(lab.startswith("W1(-3) W2(-3)") for lab in labels)


def test_cube_justification_chain(cert):
    """The cube claim rests on a singular rewrite, prefix invariance and a
    weight-bounded bracket."""
    by_id = {s.id: s for s in cert.steps}
    cube = next(s for s in cert.steps if s.label == "W1(-3)^3 |0> in C2")
    seen = set()
    frontier = [cube]
    while frontier:
        step = frontier.pop()
        seen.add(type(step.rule).__name__)
        if hasattr(step.rule, "parts"):
            for _, cid in step.rule.parts:
                frontier.append(by_id[cid])
        if hasattr(step.rule, "base"):
            frontier.append(by_id[step.rule.base])
    assert {"SingularRewriteRule", "PrefixInvarianceRule",
            "WeightBoundedBracketRule"} <= seen


def test_round_trip(cert, spec):
    text = certificate_to_json(cert)
    again = certificate_from_json(text)
    ok, _ = verify_certificate(again, spec)
    assert ok
    assert certificate_to_json(again) == text


def test_parse_expression_is_strict(cert):
    for step in cert.steps:
        parsed = parse_expression(render_expression(step.vector))
        assert not expr_add(parsed, expr_scale(step.vector, -1))
    for text in ("(1) W1(-3) W2(-3) |0> + GARBAGE (7) T(-9) junk",
                 "(1) W1(-3) W2(-3) |0> junk",
                 "(1) W1(-3) W2(-3) |0> +",
                 "junk (1) W1(-3) W2(-3) |0>",
                 # a coefficient that does not parse is a CertificateError too
                 "(1+) W1(-3) |0>",
                 "(1/0) |0>"):
        with pytest.raises(CertificateError):
            parse_expression(text)


def _edited(cert, edit):
    doc = json.loads(certificate_to_json(cert))
    edit(doc)
    return json.dumps(doc)


BAD_CERTIFICATES = [
    ("empty_object", lambda cert: "{}"),
    ("array", lambda cert: "[]"),
    ("not_json", lambda cert: "not a certificate"),
    ("step_without_claim",
     lambda cert: _edited(cert, lambda d: d["steps"][0].pop("claim"))),
    ("dangling_coefficient",
     lambda cert: _edited(cert, lambda d: d["steps"][0]["claim"].update(
         vector="(1+) W1(-3) W2(-3) |0>"))),
    ("claim_space_c7",
     lambda cert: _edited(cert, lambda d: d["steps"][0]["claim"].update(space="C7"))),
    ("claim_without_space",
     lambda cert: _edited(cert, lambda d: d["steps"][0]["claim"].pop("space"))),
    ("string_id", lambda cert: _edited(cert, lambda d: d["steps"][0].update(id="0"))),
    # a rule names the claims it rests on; the old `depends_on` and `uses`
    # step keys are no longer part of the format
    ("string_depends_on",
     lambda cert: _edited(cert, lambda d: d["steps"][0].update(depends_on="abc"))),
    ("uses_key", lambda cert: _edited(cert, lambda d: d["steps"][3].update(uses=[1]))),
    ("bad_null_coefficient",
     lambda cert: _edited(cert, lambda d: d["null_coefficients"].update(c1="1/0"))),
    # the writer writes every coefficient as a string; a JSON number would
    # load as a value the file does not state exactly
    ("float_null_coefficient",
     lambda cert: _edited(cert, lambda d: d["null_coefficients"].update(c5=2.0))),
    ("bool_null_coefficient",
     lambda cert: _edited(cert, lambda d: d["null_coefficients"].update(c1=True))),
    # a key the loader does not know, at any level, or a null coefficient
    # left out (a missing c6 once loaded as the published 5/4)
    ("unknown_top_level_key",
     lambda cert: _edited(cert, lambda d: d.update(bogus=5))),
    ("unknown_step_key",
     lambda cert: _edited(cert, lambda d: d["steps"][6].update(bogus=5))),
    ("unknown_claim_key",
     lambda cert: _edited(cert, lambda d: d["steps"][6]["claim"].update(bogus=5))),
    ("unknown_params_key",
     lambda cert: _edited(cert, lambda d: d["steps"][6]["params"].update(bogus=5))),
    ("unknown_null_entry_key",
     lambda cert: _edited(cert, lambda d: d["steps"][0]["params"]["nulls"][0].update(
         bogus=5))),
    ("unknown_part_entry_key",
     lambda cert: _edited(cert, lambda d: d["steps"][10]["params"]["parts"][0].update(
         bogus=5))),
    ("unknown_null_coefficient",
     lambda cert: _edited(cert, lambda d: d["null_coefficients"].update(c7="1"))),
    ("missing_null_coefficient",
     lambda cert: _edited(cert, lambda d: d["null_coefficients"].pop("c6"))),
]


@pytest.mark.parametrize("make", [m for _, m in BAD_CERTIFICATES],
                         ids=[name for name, _ in BAD_CERTIFICATES])
def test_malformed_certificate_rejected(cert, make):
    text = make(cert)
    with pytest.raises(CertificateError):
        certificate_from_json(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return
    with pytest.raises(CertificateError):
        certificate_from_dict(doc)


# (step index, params key) of a list-typed key in the p = 2 certificate
LIST_PARAMS = [(0, "nulls"), (7, "prefix"), (9, "right"), (10, "parts"),
               (16, "prefix"), (16, "block")]


@pytest.mark.parametrize("value", ["W1(-3)", True, 3, {"0": "W1(-3)"}],
                         ids=["string", "bool", "int", "object"])
@pytest.mark.parametrize("idx, key", LIST_PARAMS + [(None, "targets"), (None, "steps")],
                         ids=[f"step{i + 1}-{k}" for i, k in LIST_PARAMS]
                         + ["targets", "steps"])
def test_list_keys_must_be_lists(cert, idx, key, value):
    # a string was once read one character at a time ("bad mode 'W'"), and
    # `true` gave a bare TypeError repr
    doc = json.loads(certificate_to_json(cert))
    (doc if idx is None else doc["steps"][idx]["params"])[key] = value
    with pytest.raises(CertificateError, match=r"^expected list, got "):
        certificate_from_dict(doc)


def test_rule_kinds_with_equal_fields_differ():
    combination, rewrite = LinearCombinationRule((), ()), SingularRewriteRule((), ())
    assert combination != rewrite and not combination == rewrite
    assert rewrite != combination and not rewrite == combination
    assert combination != () and combination != ((), ())
    prefix = (T(-2),)
    again = PrefixInvarianceRule(prefix, 3)
    assert again == PrefixInvarianceRule(base=3, prefix=(T(-2),))
    assert not again != PrefixInvarianceRule((T(-2),), 3)
    assert hash(again) == hash(PrefixInvarianceRule((T(-2),), 3))
    assert again != ReorderRule(prefix, (), 3)
    assert again._replace(base=4) == PrefixInvarianceRule(prefix, 4)


def test_rules_refuse_assignment():
    rule = ManifestMemberRule()
    with pytest.raises(AttributeError):
        rule.n = 3
    with pytest.raises(AttributeError):
        del rule.n
    assert rule.n == 2


def test_corrupt_any_step_fails(cert, spec):
    text = certificate_to_json(cert)
    for idx in range(len(cert.steps)):
        bad = certificate_from_json(text)
        step = bad.steps[idx]
        vec = list(step.vector)
        vec[0] = (vec[0][0] * 3, vec[0][1])
        bad.steps[idx] = dataclasses.replace(step, vector=tuple(vec))
        ok, _ = verify_certificate(bad, spec)
        assert not ok, f"corrupted step {step.id} slipped through"


def _rule_parameter_cases():
    """(step index, field, term index) for every null coefficient, part
    coefficient and remainder term of the p = 2 certificate."""
    cases = []
    for idx, step in enumerate(certify_triplet_p2().steps):
        for field in ("nulls", "parts", "remainder"):
            for term in range(len(getattr(step.rule, field, ()))):
                cases.append(pytest.param(idx, field, term,
                                          id=f"step{step.id}-{field}{term}"))
    return cases


RULE_PARAMETER_CASES = _rule_parameter_cases()


def test_rule_parameter_cases_cover_every_coefficient():
    assert len(RULE_PARAMETER_CASES) == 34


@pytest.mark.parametrize("idx, field, term", RULE_PARAMETER_CASES)
def test_corrupted_rule_parameter_fails(cert, spec, idx, field, term):
    # triple one coefficient of a rule's own parameters; the claim vector is
    # left as it was
    bad = certificate_from_json(certificate_to_json(cert))
    step = bad.steps[idx]
    items = list(getattr(step.rule, field))
    items[term] = (items[term][0] * 3, items[term][1])
    rule = step.rule._replace(**{field: tuple(items)})
    bad.steps[idx] = dataclasses.replace(step, rule=rule)
    ok, reports = verify_certificate(bad, spec)
    assert not ok
    assert reports[-1].id == step.id and not reports[-1].ok


def _citing(rule, claim_id):
    """The rule with its first cited claim replaced by `claim_id`."""
    if hasattr(rule, "base"):
        return rule._replace(base=claim_id)
    (coeff, _), *rest = rule.parts
    return rule._replace(parts=((coeff, claim_id), *rest))


def _citing_steps(cert):
    return [idx for idx, step in enumerate(cert.steps)
            if hasattr(step.rule, "base") or hasattr(step.rule, "parts")]


def test_citation_of_itself_or_a_later_step_fails(cert, spec):
    # a prefix, reorder or combination step may rest only on claims verified
    # before it: citing itself or the step after it is rejected at that step
    text = certificate_to_json(cert)
    cited = _citing_steps(cert)
    assert len(cited) == 10
    for idx in cited:
        for offset in (0, 1):
            bad = certificate_from_json(text)
            step = bad.steps[idx]
            bad.steps[idx] = dataclasses.replace(
                step, rule=_citing(step.rule, step.id + offset))
            ok, reports = verify_certificate(bad, spec)
            assert not ok and reports[-1].id == step.id, step.id
            assert reports[-1].detail == ("cites a claim that is not an "
                                          "earlier verified step")


def test_ordering_violation_fails(cert, spec):
    bad = certificate_from_json(certificate_to_json(cert))
    # make some step cite a claim that does not exist
    idx = _citing_steps(bad)[0]
    bad.steps[idx] = dataclasses.replace(bad.steps[idx],
                                         rule=_citing(bad.steps[idx].rule, 10_000))
    ok, reports = verify_certificate(bad, spec)
    assert not ok


def test_manifest_claim_for_l2_cubed_fails(spec):
    claim = MembershipClaim(
        id=1,
        vector=expression((1, (T(-2), T(-2), T(-2)))),
        rule=ManifestMemberRule(2),
    )
    cert = Certificate(SingularTable(), [claim], [1])
    ok, reports = verify_certificate(cert, spec)
    assert not ok
    assert "not manifest" in reports[0].detail


@pytest.mark.parametrize("n", [1, 0])
def test_manifest_member_below_depth_two_fails(cert, spec, n):
    # T(-2) has math index -1: the vector lies in C_1 only, and omega is not
    # in C_2; depth 0 names no space at all
    doc = json.loads(certificate_to_json(cert))
    doc["steps"] = [{"id": 1, "claim": {"vector": "(1) T(-2) |0>", "space": "C2"},
                     "rule": "ManifestMember", "params": {"n": n}}]
    doc["targets"] = [1]
    ok, reports = verify_certificate(certificate_from_dict(doc), spec)
    assert not ok
    assert [r.id for r in reports] == [1] and not reports[0].ok
    assert "n >= 2" in reports[0].detail and "\n" not in reports[0].detail


def test_bracket_with_central_term_fails():
    # without its [W1,W1] channels, [W1(3), W1(-3)] is its central term alone,
    # and the step would certify a multiple of the vacuum as a C2 member
    doc = json.loads(
        resources.files("walgebra.specs").joinpath("triplet_p2.json").read_text())
    doc["structure_constants"] = [e for e in doc["structure_constants"]
                                  if not e["i"] == e["j"] == "W1"]
    spec = load_spec(json.dumps(doc))
    a, b = W(1, 3), W(1, -3)
    claim = MembershipClaim(1, expression((1, (a, b)), (-1, (b, a))),
                            WeightBoundedBracketRule(a, b, ()))
    assert Engine(spec).evaluate(claim.vector)
    ok, reports = verify_certificate(Certificate(SingularTable(), [claim], [1]), spec)
    assert not ok
    assert "central term" in reports[0].detail


def test_corrupted_table_still_certifies(spec):
    table = SingularTable().replace(c1=Fraction(1, 2))
    cert = certify_triplet_p2(table=table)
    ok, _ = verify_certificate(cert, spec)
    assert ok


def test_vanishing_key_coefficient_rejected():
    with pytest.raises(CertificateError):
        certify_triplet_p2(table=SingularTable().replace(c1=0))


def test_certificate_is_self_contained(cert, spec):
    # replaying a certificate generated from a different table must use the
    # table stored in the certificate, not the default one
    table = SingularTable().replace(c2=Fraction(1, 2))
    cert2 = certify_triplet_p2(table=table)
    ok, _ = verify_certificate(cert2, spec)
    assert ok
    # swapping the body table breaks it
    cert2.table = SingularTable()
    ok, _ = verify_certificate(cert2, spec)
    assert not ok


def test_prefixed_manifest(spec):
    assert prefixed_manifest((T(-2), W(1, -5), W(1, -3)), 2, spec)
    assert not prefixed_manifest((T(-2), T(-2)), 2, spec)
    assert not prefixed_manifest((T(3), W(1, -5)), 2, spec)


# --- the engine memo shared through the spec ----------------------------------

# the factors the benchmark's corruptions multiply one term by
MULTIPLIERS = (2, 3, -1, -2, Fraction(1, 2), Fraction(1, 3), Fraction(-3, 7),
               Fraction(5, 4))


def _with_vector(cert, idx, vector):
    steps = list(cert.steps)
    steps[idx] = dataclasses.replace(steps[idx], vector=tuple(vector))
    return Certificate(cert.table, steps, list(cert.targets))


@pytest.fixture(scope="module")
def shared_spec(cert):
    spec = load_triplet_p2_spec()
    assert verify_certificate(cert, spec)[0]
    return spec


@pytest.mark.parametrize("idx", range(len(certify_triplet_p2().steps)))
def test_shared_memo_corruptions_match_fresh_spec(cert, shared_spec, idx):
    # the memo a spec's engine keeps from earlier replays changes no verdict
    # and no report
    for k, factor in enumerate(MULTIPLIERS):
        vec = list(cert.steps[idx].vector)
        t = k % len(vec)
        vec[t] = (vec[t][0] * factor, vec[t][1])
        bad = _with_vector(cert, idx, vec)
        shared = verify_certificate(bad, shared_spec)
        assert not shared[0]
        assert shared == verify_certificate(bad, load_triplet_p2_spec())


def test_second_clean_replay_adds_no_memo_entries(cert):
    spec = load_triplet_p2_spec()
    first = verify_certificate(cert, spec)
    size = len(spec.engine._memo)
    assert first[0] and size
    assert verify_certificate(cert, spec) == first
    assert len(spec.engine._memo) == size


def test_bracket_step_on_a_composite_mode_is_a_spec_error(cert, spec):
    # a composite has no declared channels, so its bracket with a generator
    # is refused, as an undeclared field's is, rather than taken as 0
    idx = next(i for i, s in enumerate(cert.steps)
               if isinstance(s.rule, WeightBoundedBracketRule))
    rule = cert.steps[idx].rule._replace(b=Mode("X1", -5))
    bad = _with_vector(cert, idx, expression((1, (rule.a, rule.b) + rule.right),
                                             (-1, (rule.b, rule.a) + rule.right)))
    bad.steps[idx] = dataclasses.replace(bad.steps[idx], rule=rule)
    with pytest.raises(SpecError, match="composite field 'X1'"):
        verify_certificate(bad, spec)


def test_replay_raising_part_way_leaves_engine_usable(cert):
    spec = load_triplet_p2_spec()
    clean = verify_certificate(cert, spec)
    # the bracket step, applied to a word of an undeclared field: the engine
    # raises in its exact replay, after a clean replay filled the memo
    idx = next(i for i, s in enumerate(cert.steps)
               if isinstance(s.rule, WeightBoundedBracketRule))
    rule = cert.steps[idx].rule._replace(right=(Mode("X", -4),))
    bad = _with_vector(cert, idx, expression((1, (rule.a, rule.b) + rule.right),
                                             (-1, (rule.b, rule.a) + rule.right)))
    bad.steps[idx] = dataclasses.replace(bad.steps[idx], rule=rule)
    with pytest.raises(SpecError, match="undeclared field 'X'"):
        verify_certificate(bad, spec)
    assert spec.engine._memo
    assert verify_certificate(cert, spec) == clean
    assert clean == verify_certificate(cert, load_triplet_p2_spec())


# --- combinations cancel formally; reorders fail, never raise -------------------


def test_combination_must_cancel_formally(spec):
    # T(-2) W1(-5) |0> = W1(-5) T(-2) |0> + c W1(-7) |0> holds as states, but
    # the claimed combination does not cancel as formal expressions
    ops = bracket(T(-2), W(1, -5), spec)
    assert ops.terms == ((Poly.const(1), W(1, -7)),) and not ops.central
    (c, mode), = ops.terms
    steps = [
        MembershipClaim(1, expression((1, (W(1, -5), T(-2)))), ManifestMemberRule(2)),
        MembershipClaim(2, expression((1, (T(-2), W(1, -5)))),
                        LinearCombinationRule(((Poly.const(1), 1),),
                                              expression((c, (mode,))))),
    ]
    claim = steps[1]
    assert not spec.engine.evaluate(expr_add(
        claim.vector, expr_scale(steps[0].vector + claim.rule.remainder, -1)))
    ok, reports = verify_certificate(Certificate(SingularTable(), steps, [2]), spec)
    assert not ok and [r.ok for r in reports] == [True, False]
    assert reports[1].detail.startswith("residual: ")
    assert "\n" not in reports[1].detail


def test_reorder_across_a_central_term_fails():
    # a second weight-2 generator X pairs with T, so moving T(-2) past X(2)
    # fires a central term: the step fails with a one-line detail
    spec = AlgebraSpec(
        Fraction(-2), (GeneratorDecl("T", 2), GeneratorDecl("X", 2)),
        d={("T", "T"): Poly.const(-1), ("T", "X"): Poly.const(1)},
        constants={("T", "T", "T"): Poly.const(2), ("T", "X", "X"): Poly.const(2),
                   ("X", "T", "X"): Poly.const(2)},
    )
    x5, x2 = Mode("X", -5), Mode("X", 2)
    assert bracket(T(-2), x2, spec).central
    steps = [
        MembershipClaim(1, expression((1, (x5, x2, T(-2)))), ManifestMemberRule(2)),
        MembershipClaim(2, expression((1, (T(-2), x5, x2))),
                        ReorderRule((T(-2),), (x5, x2), 1)),
    ]
    ok, reports = verify_certificate(Certificate(SingularTable(), steps, [2]), spec)
    assert not ok and [r.ok for r in reports] == [True, False]
    assert "central term" in reports[1].detail and "\n" not in reports[1].detail


# --- one-pass residual, scaling once, and the expression text ---------------------

# a small pool of modes, so that random expressions share words and cancel
_MODES = [T(-2), T(-3), W(1, -3), W(2, -4), Mode("X_1", 5)]
_SEQS = st.lists(st.sampled_from(_MODES), max_size=3).map(tuple)
_SYMBOLS = st.sampled_from(["I", "u", "C2"])
_NUMBERS = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)
_COEFFS = st.one_of(
    _NUMBERS,
    st.builds(lambda n, s: Poly.const(n) * Poly.sym(s), _NUMBERS, _SYMBOLS),
    st.builds(lambda n, m, s: Poly.sym(s) * n + m, _NUMBERS, _NUMBERS, _SYMBOLS),
)
_EXPRESSIONS = st.lists(st.tuples(_COEFFS, _SEQS), max_size=5).map(
    lambda terms: expression(*terms))


def _old_expr_scale(a, factor):
    """expr_scale as it was, multiplying each coefficient twice."""
    f = factor if isinstance(factor, Poly) else Poly.const(factor)
    return tuple((c * f, s) for c, s in a if c * f)


def _chained_residual(vector, known):
    """_residual as it was: one sorted expr_add per known vector."""
    for coeff, known_vector in known:
        vector = expr_add(vector, _old_expr_scale(known_vector, -coeff))
    return vector


@settings(max_examples=150, deadline=None)
@given(vector=_EXPRESSIONS,
       known=st.lists(st.tuples(_COEFFS, _EXPRESSIONS), min_size=1, max_size=4),
       cancel=st.sampled_from(["none", "vector", "pair"]))
def test_residual_matches_chained_expr_add(vector, known, cancel):
    if cancel == "vector":
        # the vector is cited against itself: everything else is left over
        known = known + [(1, vector)]
    elif cancel == "pair":
        # a known vector cited twice with opposite coefficients cancels out
        coeff, known_vector = known[0]
        known = known + [(-coeff, known_vector)]
    assert _residual(vector, known) == _chained_residual(vector, known)
    if cancel == "pair":
        assert _residual(vector, known) == _residual(vector, known[1:-1])
    assert _residual(vector, [(1, vector)]) == ()


@settings(max_examples=100, deadline=None)
@given(a=_EXPRESSIONS, factor=_COEFFS)
def test_expr_scale_matches_old_and_multiplies_once(a, factor):
    want = _old_expr_scale(a, factor)
    calls = []
    plain = Poly.__mul__

    def counted(self, other):
        calls.append(1)
        return plain(self, other)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Poly, "__mul__", counted)
        got = expr_scale(a, factor)
    assert got == want
    assert len(calls) == len(a)


@settings(max_examples=150, deadline=None)
@given(e=_EXPRESSIONS)
def test_expression_text_round_trip(e):
    e = expr_add(e, ())  # one term per word, sorted, as a certificate holds it
    assert parse_expression(render_expression(e)) == e


_NEVER_VALID = "#$%&;?@[]{}~!"


@settings(max_examples=150, deadline=None)
@given(e=_EXPRESSIONS, where=st.integers(0, 500), junk=st.sampled_from(_NEVER_VALID))
def test_junk_expression_always_raises(e, where, junk):
    # a character the expression grammar has no use for, put anywhere, is
    # refused on every parse, cached coefficients or not
    text = render_expression(expr_add(e, ()))
    at = where % (len(text) + 1)
    bad = text[:at] + junk + text[at:]
    for clear in (True, False, False):
        if clear:
            parse_poly.cache_clear()
        with pytest.raises(CertificateError):
            parse_expression(bad)


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet="()|0>+-*/^ IuW1T23", max_size=30))
def test_any_text_parses_or_raises_certificate_error(text):
    # whatever the text, parse_expression returns an expression or raises
    # CertificateError, never another exception, and does so again
    for _ in range(2):
        try:
            parsed = parse_expression(text)
        except CertificateError:
            continue
        assert parse_expression(render_expression(parsed)) == expr_add(parsed, ())


# --- work done once: coefficient parsing and brackets ----------------------------

def _coefficient_texts(doc: dict) -> list[str]:
    """Every coefficient text of a certificate document, in load order."""
    texts = []
    for step in doc["steps"]:
        texts += [m.group(1) for m in c2._TERM_RE.finditer(step["claim"]["vector"])]
        params = step["params"]
        if "remainder" in params:
            texts += [m.group(1) for m in c2._TERM_RE.finditer(params["remainder"])]
        for entry in params.get("nulls", []) + params.get("parts", []):
            texts.append(entry["coeff"])
    return texts


def test_load_parses_each_coefficient_text_once():
    text = (GOLDEN / "certificate_p2.json").read_text()
    texts = _coefficient_texts(json.loads(text))
    assert len(texts) > len(set(texts))  # the certificate repeats coefficients
    parse_poly.cache_clear()
    certificate_from_json(text)
    info = parse_poly.cache_info()
    assert info.misses <= len(set(texts))
    assert info.hits + info.misses == len(texts)


def test_parse_errors_are_not_cached():
    parse_poly.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError):
            parse_poly("2+")
    assert parse_poly.cache_info().currsize == 0


def test_two_replays_bracket_each_pair_once(monkeypatch):
    calls = {}
    plain = algebra.bracket

    def counted(a, b, spec):
        calls[(a, b)] = calls.get((a, b), 0) + 1
        return plain(a, b, spec)

    # count the calls wherever walgebra imported the bracket by name
    for name, module in list(sys.modules.items()):
        if name.startswith("walgebra") and getattr(module, "bracket", None) is plain:
            monkeypatch.setattr(module, "bracket", counted)
    spec = load_triplet_p2_spec()  # a fresh spec owns a fresh engine
    cert = certificate_from_json((GOLDEN / "certificate_p2.json").read_text())
    for _ in range(2):
        assert verify_certificate(cert, spec)[0]
    assert calls and max(calls.values()) == 1


def test_second_replay_walks_no_reorder_swap_tree(monkeypatch):
    # the verdict of the Reorder step (17) is memoized on the spec's engine,
    # so a second replay fires none of its T-past-W brackets
    spec = load_triplet_p2_spec()
    cert = certificate_from_json((GOLDEN / "certificate_p2.json").read_text())
    assert isinstance(cert.steps[16].rule, ReorderRule)
    calls = []
    plain = spec.engine.bracket
    monkeypatch.setattr(spec.engine, "bracket",
                        lambda a, b: calls.append((a, b)) or plain(a, b))
    assert verify_certificate(cert, spec)[0]
    assert any(a.field == "T" for a, _ in calls)
    calls.clear()
    assert verify_certificate(cert, spec)[0]
    assert calls and not any(a.field == "T" for a, _ in calls)


def test_a_reloaded_certificate_hits_the_null_terms_cache():
    # each load builds a new table, equal to the last one and hashing equal
    text = (GOLDEN / "certificate_p2.json").read_text()
    spec = load_triplet_p2_spec()
    assert verify_certificate(certificate_from_json(text), spec)[0]
    again = certificate_from_json(text)
    misses = null_vector_terms.cache_info().misses
    assert verify_certificate(again, spec)[0]
    assert null_vector_terms.cache_info().misses == misses


def test_deeply_nested_certificate_is_a_certificate_error():
    deep = "[" * 200_000 + "]" * 200_000
    for text in (deep, '{"steps": ' + deep + "}"):
        with pytest.raises(CertificateError, match="not valid JSON"):
            certificate_from_json(text)
