"""Problem-file and outcome-document codecs: every family, domain and outcome kind.

Emission is canonical, so a document that has been parsed once re-emits to
the same bytes; the property test below checks that on random problems of
every family over all three domains, in both senses.
"""

import dataclasses
import inspect
import json
import typing

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import feasgame as fg
from conftest import FAMILY_KINDS, random_constraint, random_domain
from feasgame.harness import (
    ProblemFileError,
    cli,
    emit_outcome_document,
    emit_problem_file,
    outcome_document,
    outcome_from_doc,
    outcome_to_doc,
    parse_outcome_document,
    parse_problem_file,
)

problems = st.tuples(
    st.lists(st.sampled_from(FAMILY_KINDS), min_size=1, max_size=5),
    st.sampled_from(["simplex", "ball", "box"]),
    st.integers(1, 4),
    st.sampled_from(["min", "max"]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problems)
def test_emit_parse_emit_is_byte_stable(spec):
    fams, kind, n, sense, seed = spec
    rng = np.random.default_rng(seed)
    domain = random_domain(kind, rng, n, positive=True)
    problem = fg.make_problem([random_constraint(f, rng, domain) for f in fams], domain,
                              sense=sense)
    text = emit_problem_file(problem)
    again = parse_problem_file(text)
    assert emit_problem_file(again) == text
    assert [type(f) for f in again.constraints] == [type(f) for f in problem.constraints]
    assert type(again.domain) is type(domain)
    assert again.params == problem.params


def doc_with(constraints, domain=None):
    return json.dumps({"version": 1, "domain": domain or {"kind": "simplex", "n": 2},
                       "constraints": constraints})


class TestFamilyFields:
    def test_neg_entropy_shift_is_optional(self):
        prob = parse_problem_file(doc_with([{"family": "neg_entropy", "n": 2}]))
        f = prob.constraints[0]
        assert isinstance(f, fg.NegEntropy) and f.n == 2 and f.shift == 0.0
        assert json.loads(emit_problem_file(prob))["constraints"][0] == {
            "family": "neg_entropy", "n": 2, "shift": 0.0}

    def test_neg_entropy_dimension_must_be_an_integer(self):
        with pytest.raises(ProblemFileError, match=r"constraints\[0\]\.n: expected an integer"):
            parse_problem_file(doc_with([{"family": "neg_entropy", "n": 2.0}]))

    def test_neg_log_barrier_fields(self):
        rows = [[1.0, 0.5], [0.25, 2.0]]
        prob = parse_problem_file(doc_with([{"family": "neg_log_barrier", "rows": rows,
                                             "level": -1.5}]))
        f = prob.constraints[0]
        assert isinstance(f, fg.NegLogBarrier) and f.level == -1.5
        np.testing.assert_array_equal(f.rows, rows)
        assert json.loads(emit_problem_file(prob))["constraints"][0] == {
            "family": "neg_log_barrier", "rows": rows, "level": -1.5}

    def test_neg_log_barrier_ragged_rows_name_the_row(self):
        with pytest.raises(ProblemFileError, match=r"constraints\[0\]\.rows\[1\]: ragged row"):
            parse_problem_file(doc_with([{"family": "neg_log_barrier",
                                          "rows": [[1.0, 0.5], [1.0]], "level": 0.0}]))

    def test_missing_field_is_named(self):
        with pytest.raises(ProblemFileError, match=r"constraints\[0\]: missing field\(s\) level"):
            parse_problem_file(doc_with([{"family": "neg_log_barrier", "rows": [[1.0, 1.0]]}]))

    def test_log_composite_inner_path(self):
        bad = {"family": "log_affine_composite", "omega": 1.0,
               "inner": {"family": "affine", "a": [1.0, 0.0], "b": "x"}}
        with pytest.raises(ProblemFileError, match=r"constraints\[0\]\.inner\.b"):
            parse_problem_file(doc_with([bad]))

    def test_unknown_family_is_named(self):
        with pytest.raises(ProblemFileError, match="unknown constraint family 'cubic'"):
            parse_problem_file(doc_with([{"family": "cubic"}]))

    def test_family_that_is_not_a_string_is_named(self):
        with pytest.raises(ProblemFileError, match=r"constraints\[0\]\.family: unknown"):
            parse_problem_file(doc_with([{"family": ["affine"]}]))
        with pytest.raises(ProblemFileError, match=r"generator\.family: unknown"):
            parse_problem_file(json.dumps({"version": 1,
                                           "generator": {"family": {"a": 1}, "n": 2}}))

    def test_constructor_errors_carry_the_path(self):
        with pytest.raises(ProblemFileError, match=r"constraints\[0\]: omega must be positive"):
            parse_problem_file(doc_with([{"family": "log_affine_composite", "omega": 0.0,
                                          "inner": {"family": "affine", "a": [1.0, 0.0],
                                                    "b": 0.0}}]))


@pytest.mark.parametrize("key, value, message", [
    ("feasible", 1, "expected a boolean"),
    ("m", 2.0, "expected an integer"),
    ("seed", True, "expected an integer"),
    ("h_target", "1", "expected a number"),
])
def test_generator_fields_are_typed(key, value, message):
    gen = {"family": "strict_qp", "n": 3, key: value}
    with pytest.raises(ProblemFileError, match=rf"problem\.generator\.{key}: {message}"):
        parse_problem_file(json.dumps({"version": 1, "generator": gen}))


class TestDomainFields:
    AFFINE = [{"family": "affine", "a": [1.0, -1.0], "b": 0.0}]

    def test_ball(self):
        dom = {"kind": "ball", "center": [0.5, -0.5], "radius": 2.0}
        prob = parse_problem_file(doc_with(self.AFFINE, dom))
        assert isinstance(prob.domain, fg.Ball) and prob.domain.radius == 2.0
        np.testing.assert_array_equal(prob.domain.center, [0.5, -0.5])
        assert json.loads(emit_problem_file(prob))["domain"] == dom

    def test_box(self):
        dom = {"kind": "box", "lo": [-1.0, 0.0], "hi": [1.0, 0.5]}
        prob = parse_problem_file(doc_with(self.AFFINE, dom))
        assert isinstance(prob.domain, fg.Box)
        assert json.loads(emit_problem_file(prob))["domain"] == dom

    def test_ball_radius_must_be_positive(self):
        dom = {"kind": "ball", "center": [0.0, 0.0], "radius": 0.0}
        with pytest.raises(ProblemFileError, match=r"problem\.domain: ball radius must be positive"):
            parse_problem_file(doc_with(self.AFFINE, dom))

    def test_box_bounds_must_be_ordered(self):
        dom = {"kind": "box", "lo": [0.0, 1.0], "hi": [1.0, 0.5]}
        with pytest.raises(ProblemFileError, match=r"problem\.domain: box has lo > hi"):
            parse_problem_file(doc_with(self.AFFINE, dom))

    def test_unknown_kind_is_named(self):
        with pytest.raises(ProblemFileError, match="unknown domain kind 'torus'"):
            parse_problem_file(doc_with(self.AFFINE, {"kind": "torus"}))


OUTCOME_SAMPLES = [
    fg.Feasible(x=np.array([0.25, 0.75]), residuals=np.array([-0.5])),
    fg.Infeasible(p_bar=np.array([1.0])),
    fg.EpsilonInfeasible(p_bar=np.array([1.0])),
    fg.Exhausted(best_x=np.array([0.5, 0.5]), best_violation=0.125),
]


@pytest.mark.parametrize("outcome", OUTCOME_SAMPLES, ids=lambda o: type(o).__name__)
def test_every_outcome_kind_round_trips(outcome):
    doc = outcome_to_doc(outcome)
    again = outcome_from_doc(json.loads(json.dumps(doc)))
    assert type(again) is type(outcome)
    assert outcome_to_doc(again) == doc


@pytest.mark.parametrize("outcome", OUTCOME_SAMPLES, ids=lambda o: type(o).__name__)
def test_every_outcome_kind_survives_a_document(outcome):
    problem = parse_problem_file(doc_with(TestDomainFields.AFFINE))
    result = fg.SolveResult(outcome=outcome, trace=(), iterations=3, T_star=3, ended_by="horizon",
                            algo="primal", learner="ogd", eps=0.1, eps_effective=0.1)
    text = emit_outcome_document(outcome_document(result, problem))
    doc = parse_outcome_document(text)
    assert emit_outcome_document(doc) == text
    assert type(outcome_from_doc(doc["outcome"])) is type(outcome)


# ---------------------------------------------------------------------------
# The tables the document layer reads: a generator family's row names the
# builder's keyword parameters, the CLI names every family, and every
# outcome kind has a document kind.


@pytest.mark.parametrize("family", sorted(fg.GENERATORS))
def test_generator_knobs_are_the_builders_parameters(family):
    build, knobs = fg.GENERATORS[family]
    spec_fields = {field.name for field in dataclasses.fields(fg.GeneratorSpec)}
    first, *rest = inspect.signature(build).parameters
    assert first == "n"
    assert set(knobs) <= spec_fields
    assert sorted(knobs) == sorted(rest)


def test_the_cli_names_every_generator_family():
    assert sorted(cli._FAMILY_BY_TAG.values()) == sorted(fg.GENERATORS)


def test_every_outcome_kind_has_a_document_kind():
    kinds = typing.get_args(fg.Outcome)
    assert set(fg.OUTCOMES.values()) == set(kinds)
    assert len(fg.OUTCOMES) == len(kinds)
    assert all(fg.OUTCOMES[cls.tag] is cls for cls in kinds)
    assert {type(o) for o in OUTCOME_SAMPLES} == set(kinds)
