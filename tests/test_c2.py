import copy
import dataclasses
import json
import pickle
import re
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
    expression,
    manifest_member,
    parse_expression,
    prefixed_manifest,
    render_expression,
    verify_certificate,
)
from walgebra.engine import Engine
from walgebra.scalar import Poly, parse_poly
from walgebra.singular import SingularTable, load_triplet_p2_spec


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


def test_a_certificate_equals_its_json_round_trip(monkeypatch):
    # built and loaded hold each vector in the one normal form, so they are
    # equal, and a replay of the loaded form on a spec that verified the
    # built one checks no step again
    built = certify_triplet_p2()
    loaded = certificate_from_json(certificate_to_json(built))
    assert loaded == built
    spec = load_triplet_p2_spec()
    assert verify_certificate(built, spec)[0]
    checked = []
    plain = c2._check_rule
    monkeypatch.setattr(c2, "_check_rule", lambda claim, *rest: (
        checked.append(claim.id) or plain(claim, *rest)))
    assert verify_certificate(loaded, spec)[0]
    assert checked == []


def test_a_repeated_sequence_loads_as_its_sorted_sum():
    ww, l3 = (W(1, -3), W(1, -3)), (T(-2), T(-2), T(-2))
    text = ("(1/2) W1(-3) W1(-3) |0> + (-8/9) T(-2) T(-2) T(-2) |0> "
            "+ (1/2) W1(-3) W1(-3) |0>")
    assert parse_expression(text) == ((Poly.const(Fraction(-8, 9)), l3),
                                      (Poly.const(1), ww))
    assert parse_expression("(1) T(-2) |0> + (-1) T(-2) |0>") == ()
    # in a certificate, step 14 so written loads as the step its golden
    # text states
    golden = (GOLDEN / "certificate_p2.json").read_text()
    doc = json.loads(golden)
    assert doc["steps"][13]["claim"]["vector"] == render_expression(
        parse_expression(text))
    doc["steps"][13]["claim"]["vector"] = text
    loaded = certificate_from_dict(doc)
    assert loaded == certificate_from_json(golden)
    assert verify_certificate(loaded, load_triplet_p2_spec())[0]


def test_parse_expression_is_strict(cert):
    for step in cert.steps:
        parsed = parse_expression(render_expression(step.vector))
        assert not expression(*parsed, *_scaled(step.vector, -1))
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


def test_a_step_may_leave_out_its_label(cert):
    # the label is a step's one optional key: without it the step loads,
    # with an empty label, and the certificate still replays
    text = _edited(cert, lambda d: [s.pop("label") for s in d["steps"]])
    loaded = certificate_from_json(text)
    assert [s.label for s in loaded.steps] == [""] * len(cert.steps)
    assert verify_certificate(loaded, load_triplet_p2_spec())[0]


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
    # `true` gave a bare TypeError repr; the refusal names the key
    doc = json.loads(certificate_to_json(cert))
    (doc if idx is None else doc["steps"][idx]["params"])[key] = value
    with pytest.raises(CertificateError, match=rf"^{key} must be a JSON array, got "):
        certificate_from_dict(doc)


# (step index, path within the step, name in a refusal) of each
# string-valued key of the p = 2 certificate
STRING_KEYS = [(0, ("claim", "vector"), "claim vector"), (0, ("rule",), "rule"),
               (0, ("params", "remainder"), "remainder"),
               (9, ("params", "a"), "a"), (9, ("params", "b"), "b"),
               (16, ("params", "prefix", 0), "a prefix entry"),
               (16, ("params", "block", 0), "a block entry"),
               (9, ("params", "right", 0), "a right entry"),
               (0, ("params", "nulls", 0, "coeff"), "a null coeff"),
               (10, ("params", "parts", 0, "coeff"), "a part coeff")]


@pytest.mark.parametrize("value", [5, ["x"], None], ids=["int", "list", "null"])
@pytest.mark.parametrize("idx, path, what", STRING_KEYS,
                         ids=[f"step{i + 1}-" + "-".join(map(str, path))
                              for i, path, _ in STRING_KEYS])
def test_string_keys_must_be_strings(cert, idx, path, what, value):
    # a number once gave a bare AttributeError repr and a list an
    # "unhashable type" one; the memoized parser hashes its argument first,
    # and the refusal names the key
    doc = json.loads(certificate_to_json(cert))
    owner = doc["steps"][idx]
    for key in path[:-1]:
        owner = owner[key]
    assert isinstance(owner[path[-1]], str)
    owner[path[-1]] = value
    with pytest.raises(CertificateError, match=rf"^{what} must be a string, got "):
        certificate_from_dict(doc)


def _leaves(doc, path=()):
    """The path of every leaf of a JSON document: each value that is not an
    object or a nonempty array."""
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list) and doc:
        for index, value in enumerate(doc):
            yield from _leaves(value, path + (index,))
    else:
        yield path


def test_every_leaf_swap_loads_or_is_refused_in_one_line():
    # each leaf of both untrusted documents, swapped for each atom, either
    # loads or is refused by the document's own error class in one line that
    # names its key: no exception repr, and no bare "expected <type>", "bad
    # mode" or "cannot parse expression"
    spec_text = resources.files("walgebra.specs").joinpath("triplet_p2.json").read_text()
    cert_text = (GOLDEN / "certificate_p2.json").read_text()
    atoms = [None, True, False, 0, -1, 2.5, "", "x", []]
    for text, load, error in [(spec_text, load_spec, SpecError),
                              (cert_text, certificate_from_json, CertificateError)]:
        refused = 0
        for path in _leaves(json.loads(text)):
            for atom in atoms:
                doc = json.loads(text)
                owner = doc
                for key in path[:-1]:
                    owner = owner[key]
                owner[path[-1]] = atom
                try:
                    load(json.dumps(doc))
                except error as exc:
                    refused += 1
                    message = str(exc)
                    assert "\n" not in message and "Error(" not in message, message
                    assert not message.startswith(
                        ("expected ", "bad mode", "cannot parse expression")), message
        assert refused > 1000


def test_a_long_value_is_quoted_in_a_short_refusal():
    # each leaf of both documents set to a 5,000-character text, a list or
    # an object holding one, or an expression of 1,000 modes: a refusal
    # quotes the first characters and the length, not the whole value
    spec_text = resources.files("walgebra.specs").joinpath("triplet_p2.json").read_text()
    cert_text = (GOLDEN / "certificate_p2.json").read_text()
    values = ["x" * 5000, ["x" * 5000], {"x" * 5000: 1}, "(1) " + "T(-2) " * 1000 + "|0> x"]
    for text, load, error in [(spec_text, load_spec, SpecError),
                              (cert_text, certificate_from_json, CertificateError)]:
        for path in _leaves(json.loads(text)):
            for value in values:
                doc = json.loads(text)
                _at(doc, path[:-1])[path[-1]] = value
                try:
                    load(json.dumps(doc))
                except error as exc:
                    assert len(str(exc)) < 300, (path, str(exc)[:200])


# More digits than int() converts by default (4,300): the oversized mutations
# of the refusal golden, which quotes their first digits and their length.
BIG = "1" * 5000


def _refusal_lines(text):
    """One line per mutation of a certificate text: the JSON path, the
    mutation, then `loads` or what the load raised.  Each leaf is set to each
    atom of the leaf-swap test above, each object key is deleted, each integer
    leaf is set to a 5,000-digit integer and each mode text gets a 5,000-digit
    index."""
    atoms = [None, True, False, 0, -1, 2.5, "", "x", []]
    mutations = []
    for path in _leaves(json.loads(text)):
        mutations += [(path, f"set {json.dumps(atom)}", atom) for atom in atoms]
    for path in _key_paths(json.loads(text)):
        mutations.append((path, "delete", None))
    for path in _leaves(json.loads(text)):
        value = _at(json.loads(text), path)
        if type(value) is int:
            mutations.append((path, "set a 5000-digit integer", BIG))
        elif isinstance(value, str) and re.fullmatch(r"\w+\(-?\d+\)", value):
            mode = re.sub(r"\d+\)$", BIG + ")", value)
            mutations.append((path, "set a mode with a 5000-digit index", mode))
    lines = []
    for path, mutation, value in mutations:
        doc = json.loads(text)
        owner = _at(doc, path[:-1])
        if mutation == "delete":
            del owner[path[-1]]
        else:
            owner[path[-1]] = "@big@" if value is BIG else value
        mutated = json.dumps(doc).replace('"@big@"', BIG)
        try:
            certificate_from_json(mutated)
            outcome = "loads"
        except CertificateError as exc:
            outcome = f"refused: {exc}"
        except Exception as exc:
            outcome = f"escapes {type(exc).__name__}: {exc}"
        where = "/" + "/".join(map(str, path))
        lines.append(f"{where}\t{mutation}\t{outcome}")
    return lines


def _key_paths(doc, path=()):
    """The path of every key of every JSON object in a document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _key_paths(value, path + (index,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_refusals_match_their_golden():
    # what every mutation of the golden certificate loads as, byte for byte;
    # the refusal texts of a load are part of its interface
    text = (GOLDEN / "certificate_p2.json").read_text()
    lines = _refusal_lines(text)
    assert "\n".join(lines) + "\n" == (GOLDEN / "certificate_refusals.txt").read_text()


@pytest.mark.parametrize("path, value, message", [
    (("steps", 0, "id"), "@big@",
     f"step id must be a JSON integer, got {BIG[:60]}... (5000 characters)"),
    (("steps", 9, "params", "a"), f"W1(-{BIG})",
     f"a: bad mode 'W1(-{BIG[:55]}... (5007 characters)"),
], ids=["json_integer", "mode_index"])
def test_oversized_integer_text_is_refused_in_one_line(path, value, message):
    # the JSON decoder refuses such an integer without its key or position,
    # and `int` refuses such a mode index; each refusal names the key and
    # quotes a bounded prefix of the value
    doc = json.loads((GOLDEN / "certificate_p2.json").read_text())
    _at(doc, path[:-1])[path[-1]] = value
    with pytest.raises(CertificateError) as refusal:
        certificate_from_json(json.dumps(doc).replace('"@big@"', BIG))
    text = str(refusal.value)
    assert text == message and "\n" not in text and "Error(" not in text


def test_a_step_checks_its_id_vector_rule_and_label_in_that_order():
    # a step with more than one bad field is refused for the first of them
    doc = json.loads((GOLDEN / "certificate_p2.json").read_text())
    step = doc["steps"][0]
    step["label"] = 5
    with pytest.raises(CertificateError, match="^label must be a string, got 5$"):
        certificate_from_dict(doc)
    step["rule"] = 7
    with pytest.raises(CertificateError, match="^rule must be a string, got 7$"):
        certificate_from_dict(doc)
    step["claim"]["vector"] = 3
    with pytest.raises(CertificateError, match="^claim vector must be a string, got 3$"):
        certificate_from_dict(doc)
    step["id"] = "1"
    with pytest.raises(CertificateError, match="^step id must be a JSON integer, got '1'$"):
        certificate_from_dict(doc)


def test_a_reloaded_rule_equals_and_hashes_as_the_built_one():
    built = certify_triplet_p2()
    loaded = certificate_from_json((GOLDEN / "certificate_p2.json").read_text())
    for one, two in zip(built.steps, loaded.steps, strict=True):
        assert one.rule == two.rule and hash(one.rule) == hash(two.rule)
        assert one.rule is not two.rule and type(one.rule) is type(two.rule)


def test_a_fresh_reload_replays_without_a_rule_check(monkeypatch):
    # the verdict memo is keyed on the rule; a reload's rules hash and
    # compare equal to the first load's, so no step is checked again
    text = (GOLDEN / "certificate_p2.json").read_text()
    spec = load_triplet_p2_spec()
    assert verify_certificate(certificate_from_json(text), spec)[0]
    checked = []
    for kind in c2._RULES.values():
        plain = kind.check
        monkeypatch.setattr(kind, "check", lambda self, *rest, plain=plain: (
            checked.append(self) or plain(self, *rest)))
    assert verify_certificate(certificate_from_json(text), spec)[0]
    assert checked == []
    # the wrappers count: a replay on another spec checks every step
    assert verify_certificate(certificate_from_json(text), load_triplet_p2_spec())[0]
    assert len(checked) == len(json.loads(text)["steps"])


def test_a_well_formed_load_compares_its_key_sets_without_keyed(monkeypatch):
    # a load checks some eighty objects; the keys of a well-formed one,
    # with or without a step's optional label, are compared inline
    calls = []
    plain = c2.keyed
    monkeypatch.setattr(c2, "keyed", lambda *args, **kwargs: (
        calls.append(args[1]) or plain(*args, **kwargs)))
    text = (GOLDEN / "certificate_p2.json").read_text()
    doc = json.loads(text)
    doc["steps"][0].pop("label")
    for loaded in (certificate_from_json(text), certificate_from_dict(doc)):
        assert loaded.steps[1] == certify_triplet_p2().steps[1]
    assert calls == []
    # an object with a key it does not allow is refused by keyed
    doc["steps"][0]["bogus"] = 1
    with pytest.raises(CertificateError, match=r"^unknown key\(s\) \['bogus'\] in a step$"):
        certificate_from_dict(doc)
    assert calls == ["a step"]


def test_the_edits_the_benchmark_worker_makes_still_work(spec):
    # bench/worker.py perturbs a table with SingularTable.replace, and
    # corrupts a step in place with dataclasses.replace on its claim
    table = SingularTable()
    bad_table = table.replace(c1=table.c1 + 1)
    assert bad_table.c1 == Fraction(17, 9) and bad_table.c2 == table.c2
    assert bad_table != table and bad_table.key != table.key
    cert = certificate_from_json((GOLDEN / "certificate_p2.json").read_text())
    step = cert.steps[3]
    vector = list(step.vector)
    vector[0] = (vector[0][0] * 2, vector[0][1])
    cert.steps[3] = dataclasses.replace(step, vector=tuple(vector))
    assert cert.steps[3].rule is step.rule and cert.steps[3].vector != step.vector
    ok, reports = verify_certificate(cert, spec)
    assert not ok and reports[-1].id == step.id


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["null_coefficients"].update(c3="1/0"),
     "null coefficient c3: zero denominator in '1/0'"),
    (lambda d: d["steps"][0]["params"]["nulls"][0].update(coeff="1/0"),
     "a null coeff: zero denominator in '1/0'"),
    (lambda d: d["steps"][0]["claim"].update(vector="(1/0) W1(-3) |0>"),
     "claim vector: bad coefficient in expression '(1/0) W1(-3) |0>': "
     "zero denominator in '1/0'"),
], ids=["null_coefficient", "null_coeff", "claim_coefficient"])
def test_zero_denominator_in_certificate_names_the_text(cert, edit, message):
    # once "malformed certificate: ZeroDivisionError('Fraction(1, 0)')"
    doc = json.loads(certificate_to_json(cert))
    edit(doc)
    with pytest.raises(CertificateError) as info:
        certificate_from_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("key, value", [("a", 4), ("a", 0), ("b", -1)])
def test_null_outside_the_table_is_refused(cert, key, value):
    # the table states N^ab for a and b in 1..3 only
    doc = json.loads(certificate_to_json(cert))
    doc["steps"][0]["params"]["nulls"][0][key] = value
    with pytest.raises(CertificateError) as info:
        certificate_from_dict(doc)
    assert str(info.value) == f"a null {key} must be 1, 2 or 3, got {value}"


# one rule of each kind, every field set, each a value its JSON form keeps
SAMPLE_RULES = [
    ManifestMemberRule(3),
    PrefixInvarianceRule((T(-2), W(1, -3)), 1),
    SingularRewriteRule(((Poly.const(1), (1, 2)), (Poly.sym("I") * Fraction(-1, 2), (3, 3))),
                        expression((2, (W(1, -5),)))),
    WeightBoundedBracketRule(W(1, -3), W(2, -3), (W(2, -3),)),
    ReorderRule((T(-2),), (W(1, -3), W(1, -3)), 1),
    LinearCombinationRule(((Poly.const(Fraction(1, 2)), 1),), expression((1, (T(-6),)))),
]


def _rule_id(rule):
    return rule.name


def test_every_rule_kind_has_a_sample_and_one_params_entry():
    assert sorted(type(rule).__name__ for rule in SAMPLE_RULES) == sorted(
        kind.__name__ for kind in c2._RULES.values())
    assert [what for what in c2._KEYS if what.endswith(" params")] == [
        f"{name} params" for name in c2._RULES]
    for name, kind in c2._RULES.items():
        assert c2._KEYS[f"{name} params"] == (set(kind._fields), frozenset())


@pytest.mark.parametrize("rule", SAMPLE_RULES, ids=_rule_id)
def test_every_rule_kind_checks_and_round_trips(rule):
    assert callable(vars(type(rule)).get("check"))
    one = Certificate(SingularTable(), [MembershipClaim(1, expression((1, (T(-2),))),
                                                        rule, "one step")], [1])
    doc = json.loads(json.dumps(c2.certificate_to_dict(one)))
    assert certificate_from_dict(doc) == one


@pytest.mark.parametrize("rule", SAMPLE_RULES, ids=_rule_id)
def test_rule_kinds_with_equal_fields_differ(rule):
    kind, fields = type(rule), rule._astuple()
    again = kind(*fields)
    assert again == rule and not again != rule and hash(again) == hash(rule)
    assert kind(**dict(zip(kind._fields, fields))) == rule
    assert rule != fields and rule != ()
    assert rule._replace(**{kind._fields[0]: 0}) == kind(0, *fields[1:]) != rule
    for other in c2._RULES.values():
        if other is not kind and len(other._fields) == len(fields):
            assert rule != other(*fields) and not rule == other(*fields)
            assert other(*fields) != rule


@pytest.mark.parametrize("rule", SAMPLE_RULES, ids=_rule_id)
def test_rules_refuse_assignment(rule):
    _refuses_assignment(rule)


@pytest.mark.parametrize("record", [ManifestMemberRule(2), SingularTable(c1=1),
                                    SAMPLE_RULES[-1]], ids=lambda r: type(r).__name__)
def test_copy_and_pickle_rebuild_a_record(record):
    if type(record) is SingularTable:
        assert record.key  # kept in the table's instance dict, copied too
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
        assert twin._astuple() == record._astuple()


def _refuses_assignment(record):
    for name in record._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def _subclasses(kind):
    for sub in kind.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_refuses_assignment(cert, spec):
    # the rules above, the six field-expression kinds, the table,
    # certificate and spec here
    expressions = [algebra.Identity(), algebra.Derivative("T", 1),
                   algebra.Nprod(0, "T", "T"), algebra.QPNop("T", "T", 0),
                   algebra.LinComb(((Poly.const(1), "T"),)), algebra.TopPower("T", 2)]
    kinds = {kind for kind in _subclasses(algebra.Record)
             if kind.__module__.startswith("walgebra.") and kind.__name__ != "_Rule"}
    assert kinds == {SingularTable, Certificate, algebra.AlgebraSpec, *c2._RULES.values(),
                     *map(type, expressions)}
    for record in (cert.table, cert, spec, *expressions):
        _refuses_assignment(record)


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
    cert2 = cert2._replace(table=SingularTable())
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
    golden = certificate_from_json((GOLDEN / "certificate_p2.json").read_text())
    assert verify_certificate(golden, spec)[0]
    assert verify_certificate(cert, spec)[0]
    return spec


def _swapped_mixed_quadratics(cert):
    """Steps 1 and 2 trade their claims and keep their ids: each claim still
    holds, but step 9 now cites a different vector under id 1."""
    steps = list(cert.steps)
    one, two = steps[0], steps[1]
    steps[0] = dataclasses.replace(one, vector=two.vector, rule=two.rule, label=two.label)
    steps[1] = dataclasses.replace(two, vector=one.vector, rule=one.rule, label=one.label)
    return Certificate(cert.table, steps, list(cert.targets))


def _perturbed_null_coefficient(cert):
    """The table with c2 moved by 1/5: every SingularRewrite step is checked
    against other null vectors, and the one that rests on N^11 fails."""
    table = cert.table.replace(c2=cert.table.c2 + Fraction(1, 5))
    return Certificate(table, list(cert.steps), list(cert.targets))


# certificates whose changed steps keep the key of a clean step in all but
# one of its parts: a cited vector, or the table
VERDICT_KEY_VARIANTS = {"swapped_mixed_quadratics": _swapped_mixed_quadratics,
                        "perturbed_null_coefficient": _perturbed_null_coefficient}


def _corruptions(cert, case):
    """The certificates one case of the shared-memo test replays: each
    multiplier applied to one term of the step at index `case`, or the named
    variant."""
    if case in VERDICT_KEY_VARIANTS:
        return [VERDICT_KEY_VARIANTS[case](cert)]
    out = []
    for k, factor in enumerate(MULTIPLIERS):
        vec = list(cert.steps[case].vector)
        t = k % len(vec)
        vec[t] = (vec[t][0] * factor, vec[t][1])
        out.append(_with_vector(cert, case, vec))
    return out


@pytest.mark.parametrize("case", [*range(len(certify_triplet_p2().steps)),
                                  *VERDICT_KEY_VARIANTS])
def test_shared_memo_corruptions_match_fresh_spec(cert, shared_spec, case):
    # the memo a spec's engine keeps from earlier replays changes no verdict
    # and no report
    memo = shared_spec.engine.verdict_memo
    for bad in _corruptions(cert, case):
        size = len(memo)
        shared = verify_certificate(bad, shared_spec)
        assert not shared[0]
        assert shared == verify_certificate(bad, load_triplet_p2_spec())
        if case in VERDICT_KEY_VARIANTS:
            # the warm replay did reuse verdicts of the clean replay
            assert len(memo) - size < len(shared[1])


def test_second_clean_replay_adds_no_memo_entries(cert):
    spec = load_triplet_p2_spec()
    first = verify_certificate(cert, spec)
    size = len(spec.engine._memo)
    assert first[0] and size
    assert len(spec.engine.verdict_memo) == len(cert.steps)
    assert verify_certificate(cert, spec) == first
    assert len(spec.engine._memo) == size
    assert len(spec.engine.verdict_memo) == len(cert.steps)


def test_replay_rechecks_only_the_steps_that_changed(monkeypatch):
    checked = []
    plain = c2._check_rule
    monkeypatch.setattr(c2, "_check_rule", lambda claim, *rest: (
        checked.append(claim.id) or plain(claim, *rest)))
    spec = load_triplet_p2_spec()
    text = (GOLDEN / "certificate_p2.json").read_text()
    cert = certificate_from_json(text)
    assert verify_certificate(cert, spec)[0]
    assert checked == [step.id for step in cert.steps]
    # the same certificate, loaded again: no step is checked again
    checked.clear()
    assert verify_certificate(certificate_from_json(text), spec)[0]
    assert checked == []
    # a corrupted step is checked, and it fails
    checked.clear()
    vec = list(cert.steps[10].vector)
    vec[0] = (vec[0][0] * 3, vec[0][1])
    ok, reports = verify_certificate(_with_vector(cert, 10, vec), spec)
    assert not ok and checked == [reports[-1].id] == [cert.steps[10].id]
    # a claim that moved to another id is checked again only where it is cited
    checked.clear()
    ok, reports = verify_certificate(_swapped_mixed_quadratics(cert), spec)
    assert not ok and checked == [reports[-1].id] == [9]


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
    assert not spec.engine.evaluate(expression(
        *claim.vector, *_scaled(steps[0].vector + claim.rule.remainder, -1)))
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


# --- the normal form, scaling once, and the expression text ----------------------

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


def _scaled(a, factor):
    """The terms of factor * a, as (coefficient, factor, sequence) terms."""
    return [(c, factor, s) for c, s in a]


def _dict_sum(terms):
    """The oracle: each sequence's coefficients summed in a dict, the zero
    sums dropped, sorted by sequence."""
    acc = {}
    for *factors, seq in terms:
        coeff = Poly.const(1)
        for f in factors:
            coeff = coeff * f
        acc[seq] = acc.get(seq, Poly.zero()) + coeff
    return tuple((acc[seq], seq) for seq in sorted(acc) if acc[seq])


def _residual_terms(vector, known):
    """The terms of vector - sum coeff * known, unsummed, as a combination
    step lists them."""
    return [*vector, *(term for coeff, terms in known
                       for term in _scaled(terms, -coeff))]


@settings(max_examples=150, deadline=None)
@given(vector=_EXPRESSIONS,
       known=st.lists(st.tuples(_COEFFS, _EXPRESSIONS), min_size=1, max_size=4),
       cancel=st.sampled_from(["none", "vector", "pair"]),
       raw=st.lists(st.tuples(_COEFFS, _SEQS), max_size=5),
       rnd=st.randoms(use_true_random=False))
def test_expression_is_the_sorted_dict_sum(vector, known, cancel, raw, rnd):
    if cancel == "vector":
        # the vector is cited against itself: only the rest is left over
        known = known + [(1, vector)]
    elif cancel == "pair":
        # a known vector cited twice with opposite coefficients cancels out
        coeff, known_vector = known[0]
        known = known + [(-coeff, known_vector)]
    got = expression(*_residual_terms(vector, known))
    if cancel == "vector":
        assert got == expression(*_residual_terms((), known[:-1]))
    elif cancel == "pair":
        assert got == expression(*_residual_terms(vector, known[1:-1]))
    assert expression(*_residual_terms(vector, [(1, vector)])) == ()
    # the residual's terms plus raw ones, numbers among their coefficients:
    # in any order they sum to the oracle's result, which is its own sum
    terms = _residual_terms(vector, known) + raw
    want = _dict_sum(terms)
    assert expression(*terms) == want
    rnd.shuffle(terms)
    assert expression(*terms) == want
    assert expression(*want) == want


@settings(max_examples=100, deadline=None)
@given(a=_EXPRESSIONS, factor=_COEFFS)
def test_scaled_terms_match_old_expr_scale_and_multiply_once(a, factor):
    # a (coefficient, factor, sequence) term of a sequence no other term
    # shares is one product
    want = _old_expr_scale(a, factor)
    calls = []
    plain = Poly.__mul__

    def counted(self, other):
        calls.append(1)
        return plain(self, other)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Poly, "__mul__", counted)
        got = expression(*_scaled(a, factor))
    assert got == want
    assert len(calls) == len(a)


@settings(max_examples=150, deadline=None)
@given(e=_EXPRESSIONS)
def test_expression_text_round_trip(e):
    assert parse_expression(render_expression(e)) == e


_NEVER_VALID = "#$%&;?@[]{}~!"


@settings(max_examples=150, deadline=None)
@given(e=_EXPRESSIONS, where=st.integers(0, 500), junk=st.sampled_from(_NEVER_VALID))
def test_junk_expression_always_raises(e, where, junk):
    # a character the expression grammar has no use for, put anywhere, is
    # refused on every parse, cached coefficients or not
    text = render_expression(e)
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
        assert parse_expression(render_expression(parsed)) == parsed


# --- work done once: coefficient parsing and brackets ----------------------------

def _coefficient_texts(doc: dict) -> list[str]:
    """Every coefficient text of a certificate document, in load order."""
    # c2 keeps the pattern text and compiles it on first use
    term_re = re.compile(c2._TERM_RE)
    texts = []
    for step in doc["steps"]:
        texts += [m.group(1) for m in term_re.finditer(step["claim"]["vector"])]
        params = step["params"]
        if "remainder" in params:
            texts += [m.group(1) for m in term_re.finditer(params["remainder"])]
        for entry in params.get("nulls", []) + params.get("parts", []):
            texts.append(entry["coeff"])
    return texts


def test_load_parses_each_coefficient_text_once():
    text = (GOLDEN / "certificate_p2.json").read_text()
    texts = _coefficient_texts(json.loads(text))
    assert len(texts) > len(set(texts))  # the certificate repeats coefficients
    parse_poly.cache_clear()
    parse_expression.cache_clear()
    c2._mode_from_text.cache_clear()
    certificate_from_json(text)
    info = parse_poly.cache_info()
    assert info.misses <= len(set(texts))
    assert info.hits + info.misses == len(texts)
    # a second load parses no expression, coefficient or mode text again
    expressions = parse_expression.cache_info()
    modes = c2._mode_from_text.cache_info()
    assert modes.hits  # the certificate repeats modes too
    certificate_from_json(text)
    assert parse_poly.cache_info().misses == info.misses
    assert parse_expression.cache_info().misses == expressions.misses
    assert c2._mode_from_text.cache_info().misses == modes.misses


def test_parse_errors_are_not_cached():
    parse_poly.cache_clear()
    parse_expression.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError):
            parse_poly("2+")
    assert parse_poly.cache_info().currsize == 0
    for _ in range(3):
        for text in ("(2+) W1(-3) |0>", "(1) W1(-3) |0> junk"):
            with pytest.raises(CertificateError):
                parse_expression(text)
    assert parse_expression.cache_info().currsize == 0


def test_two_replays_bracket_each_pair_once(monkeypatch):
    # every commutator is computed once per engine: an `Engine.bracket`
    # request, first ones included, reads the row the evaluator computed
    calls = {}
    plain = algebra.commutator

    def counted(a, b, tables):
        calls[(a, b)] = calls.get((a, b), 0) + 1
        return plain(a, b, tables)

    # count the calls wherever walgebra imported the commutator by name
    for name, module in list(sys.modules.items()):
        if name.startswith("walgebra") and getattr(module, "commutator", None) is plain:
            monkeypatch.setattr(module, "commutator", counted)
    spec = load_triplet_p2_spec()  # a fresh spec owns a fresh engine
    cert = certificate_from_json((GOLDEN / "certificate_p2.json").read_text())
    for _ in range(2):
        assert verify_certificate(cert, spec)[0]
    assert calls and max(calls.values()) == 1


def test_second_replay_walks_no_reorder_swap_tree(monkeypatch):
    # every step's verdict is memoized on the spec's engine, so a second
    # replay fires no bracket at all: none of the Reorder step's (17) T-past-W
    # brackets, and not the WeightBoundedBracket step's (10)
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
    assert not calls


def test_deeply_nested_certificate_is_a_certificate_error():
    deep = "[" * 200_000 + "]" * 200_000
    for text in (deep, '{"steps": ' + deep + "}"):
        with pytest.raises(CertificateError, match="not valid JSON"):
            certificate_from_json(text)
