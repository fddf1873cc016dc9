import json
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walgebra import singular
from walgebra.algebra import Mode, load_spec
from walgebra.engine import Engine
from walgebra.scalar import Poly, SolveError
from walgebra.singular import (
    SingularTable,
    annihilation_states,
    load_triplet_p2_spec,
    null_vector_terms,
    solve_structure_constants,
    substitute_constants,
    verify_singular_p2,
)


@pytest.fixture(scope="module")
def spec():
    return load_triplet_p2_spec()


@pytest.fixture(scope="module")
def solved(spec):
    report = solve_structure_constants(spec)
    assert report.consistent
    return report


@pytest.fixture(scope="module")
def numeric_spec(spec, solved):
    assignment = dict(solved.assignment)
    assignment["dWW"] = Poly.const(-1)
    return substitute_constants(spec, assignment)


def test_solve_mode_reports_solution(spec):
    solved = solve_structure_constants(spec)
    assert solved.consistent
    assert set(solved.to_dict()["assignment"]) == {"uL", "uT", "uW", "uX"}


@pytest.mark.parametrize("target,weight", [("L4", 4), ("T", 2)])
def test_alias_composite_evaluates_as_the_field_it_names(solved, target, weight):
    # the packaged spec with the [W, W] channels of `target` moved to Y,
    # a composite defined as `target` itself
    doc = json.loads(resources.files("walgebra.specs")
                     .joinpath("triplet_p2.json").read_text())
    doc["composite_fields"].append(
        {"symbol": "Y", "weight": weight, "definition": {"gen": target}})
    moved = [e for e in doc["structure_constants"]
             if e["k"] == target and "T" not in (e["i"], e["j"])]
    assert len(moved) == 3
    for entry in moved:
        entry["k"] = "Y"
    report = solve_structure_constants(load_spec(json.dumps(doc)))
    assert report.consistent
    assert report.assignment == solved.assignment


def test_solved_constants(solved):
    # derived, not assumed: the annihilation system pins these uniquely
    assert solved.assignment["uT"] == Poly.const(3)
    assert solved.assignment["uL"] == Poly.const(4)
    assert solved.assignment["uW"] == Poly.sym("I") * 5
    assert solved.assignment["uX"] == Poly.sym("I") * Fraction(12, 5)


def test_numeric_constants_annihilate(numeric_spec):
    ok, report = verify_singular_p2(numeric_spec)
    assert ok, report


def test_numeric_spec_refused_before_any_engine_work(numeric_spec, monkeypatch):
    # nothing to solve for is known from the spec alone, so no annihilation
    # state may be built first
    def fail(*args, **kwargs):
        raise AssertionError("annihilation states built for a numeric spec")

    monkeypatch.setattr(singular, "annihilation_states", fail)
    with pytest.raises(SolveError, match="no symbolic structure constants"):
        solve_structure_constants(numeric_spec)


def test_symbolic_spec_requires_solve_mode(spec):
    with pytest.raises(SolveError):
        verify_singular_p2(spec)


@pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4", "c5", "c6"])
def test_any_single_perturbation_fails(numeric_spec, name):
    table = SingularTable()
    bad = table.replace(**{name: getattr(table, name) + Fraction(1, 7)})
    ok, report = verify_singular_p2(numeric_spec, table=bad)
    assert not ok
    assert report["failures"]


def test_solve_mode_with_corrupted_table_inconsistent(spec):
    bad = SingularTable().replace(c1=Fraction(1, 3))
    assert not solve_structure_constants(spec, table=bad).consistent


def test_null_vectors_have_table_shape(numeric_spec):
    engine = Engine(numeric_spec)
    n12 = engine.evaluate(null_vector_terms(1, 2))
    # mixed vector: the two-W word plus the epsilon tail; delta part absent
    assert n12.coeff((Mode("W1", -3), Mode("W2", -3))) == Poly.const(1)
    assert n12.coeff((Mode("W3", -4), Mode("T", -2))) == Poly.sym("I") * -2
    assert n12.coeff((Mode("W3", -6),)) == Poly.sym("I") * Fraction(5, 4)
    n11 = engine.evaluate(null_vector_terms(1, 1))
    assert n11.coeff((Mode("T", -2),) * 3) == Poly.const(Fraction(-8, 9))
    assert n11.coeff((Mode("T", -6),)) == Poly.const(Fraction(16, 9))


def test_all_eighteen_annihilations(numeric_spec):
    states = annihilation_states(Engine(numeric_spec))
    assert len(states) == 18
    assert all(s.is_zero() for s in states.values())


def test_table_values_are_exact():
    with pytest.raises(TypeError):
        SingularTable().replace(c1=0.1)
    with pytest.raises(TypeError):
        SingularTable(c6=1.25)
    table = SingularTable().replace(c1=Fraction(4, 2), c2=Fraction(1, 3))
    assert type(table.c1) is int and table.c1 == 2
    assert table.c2 == Fraction(1, 3) and table.c3 == Fraction(14, 9)
    assert type(SingularTable().c5) is int
    table = SingularTable(c1=Fraction(8, 1))
    assert type(table.c1) is int and table.c1 == 8
    with pytest.raises(TypeError):
        SingularTable(0.5)


def test_tables_compare_and_hash_by_value():
    table = SingularTable().replace(c2=Fraction(1, 3))
    same = SingularTable(c2=Fraction(2, 6))
    assert table == same and hash(table) == hash(same)
    assert table != SingularTable()
    assert table != table._astuple()


@pytest.mark.parametrize("delta", [Fraction(1, 5), Fraction(-1, 5)])
@pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4", "c5", "c6"])
def test_shared_memo_perturbation_matches_fresh_spec(spec, solved, numeric_spec,
                                                     name, delta):
    # after a clean verification has filled the numeric spec's memo, a
    # perturbed table fails exactly as it does on a fresh spec
    assert verify_singular_p2(numeric_spec)[0]
    table = SingularTable()
    bad = table.replace(**{name: getattr(table, name) + delta})
    assignment = dict(solved.assignment)
    assignment["dWW"] = Poly.const(-1)
    fresh = substitute_constants(spec, assignment)
    shared = verify_singular_p2(numeric_spec, table=bad)
    assert not shared[0]
    assert shared == verify_singular_p2(fresh, table=bad)


# --- L_m N^ab term by term, against L_m applied to the evaluated N^ab -------------

_RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
_TABLES = st.builds(SingularTable, c1=_RATIONALS, c2=_RATIONALS, c3=_RATIONALS,
                    c4=_RATIONALS, c5=_RATIONALS, c6=_RATIONALS)


def _annihilation_states_oracle(engine, table):
    """annihilation_states as it was: N^ab evaluated whole, then L_m applied."""
    out = {}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            n_ab = engine.evaluate(null_vector_terms(a, b, table))
            for m in (1, 2):
                out[(m, a, b)] = engine.apply_mode(Mode("T", m), n_ab)
    return out


@settings(max_examples=12, deadline=None)
@given(table=_TABLES)
def test_annihilation_states_match_whole_vector_oracle(spec, numeric_spec, table):
    for on in (spec, numeric_spec):
        want = _annihilation_states_oracle(Engine(on), table)
        assert annihilation_states(on.engine, table) == want


def test_second_table_adds_no_memo_entries(numeric_spec):
    engine = numeric_spec.engine
    assert verify_singular_p2(numeric_spec)[0]
    sizes = len(engine._memo), len(engine._normal_memo)
    bad = SingularTable().replace(c3=Fraction(3, 2), c6=Fraction(-1, 4))
    assert not verify_singular_p2(numeric_spec, table=bad)[0]
    assert (len(engine._memo), len(engine._normal_memo)) == sizes


def test_null_vector_terms_are_cached_per_table():
    table = SingularTable().replace(c2=Fraction(1, 3))
    first = null_vector_terms(1, 1, table)
    assert null_vector_terms(1, 1, SingularTable().replace(c2=Fraction(1, 3))) is first
    assert null_vector_terms(1, 1) is not first
    assert null_vector_terms.cache_info().maxsize == singular.NULL_TERMS_CACHE_SIZE
