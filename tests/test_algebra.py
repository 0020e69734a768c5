import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedgroups.algebra import (MAX_DIMENSION, AntisymmetryViolation, GradedAlgebra,
                                  GradingViolation, GroupValidationError,
                                  JacobiViolation, spec_from_dict,
                                  spec_from_json, validate_algebra)
from json_strategy import JSON


def make_spec(layers, brackets):
    return spec_from_dict({"layers": list(layers), "brackets": brackets})


HEIS = {"layers": [2, 1], "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}


def test_parse_rational_coefficients():
    spec = spec_from_dict({"layers": [2, 1],
                           "brackets": [{"i": 1, "j": 2, "k": 3, "c": "-3/7"}]})
    assert spec.brackets == ((1, 2, 3, Fraction(-3, 7)),)
    assert spec.n == 3


def test_parse_rejects_unknown_keys():
    with pytest.raises(GroupValidationError, match="unknown keys"):
        spec_from_dict({"layers": [2, 1], "brackets": [], "extra": True})


def test_parse_rejects_bad_layers():
    for layers in ([], [0], [2, -1], "21", [1.5], [True, 1]):
        with pytest.raises(GroupValidationError):
            spec_from_dict({"layers": layers, "brackets": []})


def test_parse_rejects_malformed_bracket_entries():
    with pytest.raises(GroupValidationError, match="bad bracket entry"):
        spec_from_dict({"layers": [2, 1], "brackets": [{"i": 1, "j": 2, "k": 3}]})
    for brackets in (5, None, "abc", {"i": 1}):
        with pytest.raises(GroupValidationError, match="'brackets' must be a list"):
            spec_from_dict({"layers": [2, 1], "brackets": brackets})
    # coefficients are never coerced either: no floats, no booleans
    for c in ("0.5x", 0.5, True, "1/0"):
        with pytest.raises(GroupValidationError, match="rational"):
            spec_from_dict({"layers": [2, 1],
                            "brackets": [{"i": 1, "j": 2, "k": 3, "c": c}]})
    # indices are never coerced: no truncated floats, booleans or strings
    for bad in ({"i": 1.7}, {"j": True}, {"i": "1"}):
        entry = {"i": 1, "j": 2, "k": 3, "c": "1", **bad}
        with pytest.raises(GroupValidationError, match="integers"):
            spec_from_dict({"layers": [2, 1], "brackets": [entry]})


def test_spec_from_json_roundtrip():
    spec = spec_from_json(json.dumps(HEIS))
    alg = validate_algebra(spec)
    assert alg.n == 3
    assert alg.degrees == (1, 1, 2)
    assert alg.layer_slice(2) == slice(2, 3)


def test_validate_accepts_abelian():
    alg = validate_algebra(make_spec([1, 1], []))
    assert alg.step == 2
    assert alg.bracket((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))) \
        == (Fraction(0), Fraction(0))


def test_bracket_values():
    alg = validate_algebra(spec_from_dict(HEIS))
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    e2 = (Fraction(0), Fraction(1), Fraction(0))
    assert alg.bracket(e1, e2) == (0, 0, Fraction(1))
    assert alg.bracket(e2, e1) == (0, 0, Fraction(-1))


def test_self_bracket_rejected():
    with pytest.raises(AntisymmetryViolation):
        validate_algebra(make_spec([2, 1], [{"i": 1, "j": 1, "k": 3, "c": "1"}]))


def test_conflicting_mirror_entries_rejected():
    # both orientations given, but not antisymmetric
    with pytest.raises(AntisymmetryViolation):
        validate_algebra(make_spec([2, 1], [
            {"i": 1, "j": 2, "k": 3, "c": "1"},
            {"i": 2, "j": 1, "k": 3, "c": "1"},
        ]))


def test_consistent_mirror_entries_accepted():
    alg = validate_algebra(make_spec([2, 1], [
        {"i": 1, "j": 2, "k": 3, "c": "1"},
        {"i": 2, "j": 1, "k": 3, "c": "-1"},
    ]))
    assert alg.bracket_coeffs(0, 1) == {2: Fraction(1)}


def test_duplicate_conflicting_entries_rejected():
    with pytest.raises(GroupValidationError, match="conflict"):
        validate_algebra(make_spec([2, 1], [
            {"i": 1, "j": 2, "k": 3, "c": "1"},
            {"i": 1, "j": 2, "k": 3, "c": "2"},
        ]))


def test_grading_violation():
    # target lives in layer 1, sources in layer 1: degree 1 != 1 + 1
    with pytest.raises(GradingViolation):
        validate_algebra(make_spec([2, 1], [{"i": 1, "j": 2, "k": 2, "c": "1"}]))


def test_grading_violation_skipping_a_layer():
    with pytest.raises(GradingViolation):
        validate_algebra(make_spec([2, 1, 1], [{"i": 1, "j": 2, "k": 4, "c": "1"}]))


def test_jacobi_violation():
    # [e3, [e1, e2]] = e5 while the two other cyclic terms vanish
    with pytest.raises(JacobiViolation):
        validate_algebra(make_spec([3, 1, 1], [
            {"i": 1, "j": 2, "k": 4, "c": "1"},
            {"i": 3, "j": 4, "k": 5, "c": "1"},
        ]))


def test_jacobi_holds_for_step3_chain():
    alg = validate_algebra(make_spec([2, 1, 1], [
        {"i": 1, "j": 2, "k": 3, "c": "1"},
        {"i": 1, "j": 3, "k": 4, "c": "1"},
    ]))
    assert alg.step == 3
    assert alg.degrees == (1, 1, 2, 3)


def test_jacobi_check_reads_brackets_only_around_bracketed_pairs(monkeypatch):
    # a triple whose three pairs all bracket to 0 cannot fail, so the check
    # does not grow with the n^3 / 6 triples
    calls = []
    read = GradedAlgebra.bracket_coeffs

    def counted(self, i, j):
        calls.append((i, j))
        return read(self, i, j)

    monkeypatch.setattr(GradedAlgebra, "bracket_coeffs", counted)
    n = MAX_DIMENSION
    validate_algebra(make_spec([n], []))
    assert calls == []
    # one bracket [e_1, e_2] = e_n: only the n - 2 triples (1, 2, k) are checked
    validate_algebra(make_spec([n - 1, 1], [{"i": 1, "j": 2, "k": n, "c": "1"}]))
    assert 0 < len(calls) < 10 * n


def test_out_of_range_indices_rejected():
    with pytest.raises(GroupValidationError):
        validate_algebra(make_spec([2, 1], [{"i": 1, "j": 4, "k": 3, "c": "1"}]))


def test_dimension_above_the_limit_rejected():
    for layers in ([MAX_DIMENSION + 1], [2, MAX_DIMENSION], [10 ** 30]):
        with pytest.raises(GroupValidationError, match="dimension"):
            validate_algebra(make_spec(layers, []))
    assert validate_algebra(make_spec([MAX_DIMENSION - 1, 1], [])).n == MAX_DIMENSION


# -- fuzzing -------------------------------------------------------------------------

_RATIONAL = st.integers(-9, 9).filter(bool) | st.builds(
    "{}/{}".format, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@st.composite
def _algebra_docs(draw):
    # filiform of step 2..4, [e_1, e_k] = c_k e_(k+1): valid for any nonzero c_k
    step = draw(st.integers(2, 4))
    brackets = [{"i": 1, "j": k, "k": k + 1, "c": draw(_RATIONAL)}
                for k in range(2, step + 1)]
    layers = [2] + [1] * (step - 1)
    doc = {"layers": layers, "brackets": brackets}
    # inner parts first, so each replacement finds the structure it edits
    order = ["index", "c", "entry", "layer", "layers", "brackets", "extra", "doc"]
    for where in sorted(draw(st.lists(st.sampled_from(order), max_size=2)), key=order.index):
        entry = draw(st.integers(0, len(brackets) - 1))
        if where == "index":
            brackets[entry][draw(st.sampled_from("ijk"))] = draw(JSON)
        elif where == "c":
            brackets[entry]["c"] = draw(JSON)
        elif where == "entry":
            brackets[entry] = draw(JSON)
        elif where == "layer":
            layers[draw(st.integers(0, step - 1))] = draw(JSON)
        elif where == "extra":
            doc[draw(st.text(max_size=4))] = draw(JSON)
        elif where == "doc":
            return draw(JSON)
        else:
            doc[where] = draw(JSON)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=_algebra_docs())
def test_algebra_documents_fail_only_with_validation_errors(doc):
    try:
        validate_algebra(spec_from_dict(doc))
    except GroupValidationError:
        pass
