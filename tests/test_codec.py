"""Problem-file and outcome-document codecs: every family, domain and outcome kind.

Emission is canonical, so a document that has been parsed once re-emits to
the same bytes; the property test below checks that on random problems of
every family over all three domains.  The canonical writer
is pinned to json.dumps(v, sort_keys=True, indent=2) on random JSON values
and on real documents, and the whole-matrix parse to the row-by-row one.
"""

import dataclasses
import inspect
import json
import math
import typing

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import feasgame as fg
from conftest import FAMILY_KINDS, random_constraint, random_domain
from feasgame.harness import (
    ProblemFileError,
    canonical_json,
    cli,
    emit_outcome_document,
    emit_problem_file,
    outcome_document,
    outcome_from_doc,
    outcome_to_doc,
    parse_outcome_document,
    parse_problem_file,
    problem_from_doc,
    regret_experiment,
    run_solver,
    scaling_experiment,
)
from feasgame.harness import io as harness_io

problems = st.tuples(
    st.lists(st.sampled_from(FAMILY_KINDS), min_size=1, max_size=5),
    st.sampled_from(["simplex", "ball", "box"]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problems)
def test_emit_parse_emit_is_byte_stable(spec):
    fams, kind, n, seed = spec
    rng = np.random.default_rng(seed)
    domain = random_domain(kind, rng, n, positive=True)
    problem = fg.make_problem([random_constraint(f, rng, domain) for f in fams], domain)
    text = emit_problem_file(problem)
    again = parse_problem_file(text)
    assert emit_problem_file(again) == text
    assert [type(f) for f in again.constraints] == [type(f) for f in problem.constraints]
    assert type(again.domain) is type(domain)
    assert again.params == problem.params


def doc_with(constraints, domain=None):
    return json.dumps({"version": 2, "domain": domain or {"kind": "simplex", "n": 2},
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

    def test_a_log_composite_over_a_quadratic_is_refused_by_its_path(self):
        # 1 - log(e + (10 |x - (1/2, 1/2)|^2 - 1)/10) is not convex
        bad = {"family": "log_affine_composite", "omega": 10.0,
               "inner": {"family": "quadratic", "A": [[10.0, 0.0], [0.0, 10.0]],
                         "b": [-10.0, -10.0], "c": 4.0}}
        with pytest.raises(ProblemFileError,
                           match=r"^problem\.constraints\[0\]: a log_affine_composite's "
                                 r"inner must be affine, not quadratic$"):
            problem_from_doc(json.loads(doc_with([bad])))

    def test_unknown_family_is_named(self):
        with pytest.raises(ProblemFileError, match="unknown constraint family 'cubic'"):
            parse_problem_file(doc_with([{"family": "cubic"}]))

    def test_family_that_is_not_a_string_is_named(self):
        with pytest.raises(ProblemFileError, match=r"constraints\[0\]\.family: unknown"):
            parse_problem_file(doc_with([{"family": ["affine"]}]))
        with pytest.raises(ProblemFileError, match=r"generator\.family: unknown"):
            parse_problem_file(json.dumps({"version": 2,
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
        parse_problem_file(json.dumps({"version": 2, "generator": gen}))


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


# ---------------------------------------------------------------------------
# The canonical writer writes json.dumps's bytes and raises json's errors


def json_text(v) -> str:
    return json.dumps(v, sort_keys=True, indent=2) + "\n"


floats = st.one_of(
    st.floats(),  # NaN, infinities, subnormals and -0.0 included
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1e22, 0.1,
                     math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
)
strings = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "caf\u00e9 \u2603",
                                                "\U0001f600", "a\nb\tc"]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(min_value=2**64, max_value=2**300), floats, strings)
json_values = st.recursive(
    st.one_of(scalars, st.lists(floats), st.lists(floats).map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(strings, children, max_size=4).map(harness_io._ParsedDocument),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(json_values)
def test_canonical_json_is_json_dumps(value):
    assert canonical_json(value) == json_text(value)


@pytest.mark.parametrize("value", [
    np.zeros(3),
    {"a": [1.0, np.zeros(2)]},
    [1.0, 2.0, np.float32(1.0)],
    {1: 0.5, "a": 0.5},
    {"a": {None: 1, "b": 2}},
    {"a": object()},
], ids=["ndarray", "nested-ndarray", "float32-in-a-row", "mixed-keys", "nested-mixed-keys",
        "object"])
def test_canonical_json_raises_what_json_raises(value):
    with pytest.raises(Exception) as expected:
        json_text(value)
    with pytest.raises(type(expected.value)) as got:
        canonical_json(value)
    assert str(got.value) == str(expected.value)


def test_canonical_json_refuses_a_cycle_like_json():
    cycle = {"a": [1.0]}
    cycle["a"].append(cycle)
    with pytest.raises(ValueError, match="Circular reference detected"):
        canonical_json(cycle)


def test_non_string_keys_are_written_by_json():
    value = {"a": {2: [1.0, math.inf], 1: None, 0.5: True}}
    assert canonical_json(value) == json_text(value)


# the benchmark workloads on generator seed 0: (generator, algo, learner,
# eps, log-transformed, iterations)
WORKLOAD_RUNS = {
    "primal-ons": ("perceptron", "primal", "ons", 0.05, True, 38_473),
    "primal-dual-ogd": ("portfolio", "primal-dual", "ogd", 0.05, False, 18_970),
    "dual-descent": ("portfolio", "dual", None, 0.025, False, 1_148),
    "certify": ("perceptron", "dual", None, 0.025, False, 2),
}


def workload_document(name) -> dict:
    family, algo, learner, eps, log, _ = WORKLOAD_RUNS[name]
    base = (fg.make_perceptron_lp(10, 20, feasible=False, seed=0) if family == "perceptron"
            else fg.make_portfolio_risk(10, 20, seed=0))
    if not log:
        return outcome_document(run_solver(base, algo, learner, eps), base)
    omega = base.params.omega
    problem = fg.log_transform(base, omega)
    return outcome_document(run_solver(problem, algo, learner, eps), problem, original=base,
                            transforms=({"kind": "log_transform", "omega": omega,
                                         "eps_log": eps},),
                            eps_original=fg.approx_translate(eps, omega))


@pytest.mark.parametrize("name", sorted(WORKLOAD_RUNS))
def test_workload_documents_are_json_dumps(name):
    doc = workload_document(name)
    assert doc["iterations"] == WORKLOAD_RUNS[name][-1]
    text = emit_outcome_document(doc)
    assert text == json_text(doc)
    # the parsed document, a dict subclass, re-emits to the same bytes
    assert canonical_json(parse_outcome_document(text)) == text


def test_experiment_reports_are_json_dumps():
    spec = fg.GeneratorSpec(family="strict_qp", n=3, m=3, seed=2, feasible=False)
    for report in (scaling_experiment(spec, "primal", "ogd", (0.4, 0.2, 0.1)),
                   regret_experiment("mw", T=10_000, seeds=2)):
        doc = report.to_doc()
        assert canonical_json(doc) == json_text(doc)


def hand_written_report_doc(report) -> dict:
    """An experiment report's ten fields as a hand-written dict, the layout
    its document had before it came from dataclasses.asdict."""
    return {
        "kind": report.kind,
        "algo": report.algo,
        "learner": report.learner,
        "ladder": list(report.ladder),
        "values": list(report.values),
        "exponent": report.exponent,
        "exponent_residual": report.exponent_residual,
        "wall_times_s": list(report.wall_times_s),
        "incomplete": report.incomplete,
        "details": report.details,
    }


@pytest.mark.parametrize("argv", [
    ["--kind", "regret", "--learner", "mw", "--t", "10000", "--seeds", "2"],
    ["--kind", "regret", "--learner", "ogd", "--t", "10000"],
    ["--kind", "scaling", "--family", "qp", "--n", "3", "--m", "3", "--seed", "2",
     "--infeasible", "--algo", "primal", "--learner", "ogd", "--eps-ladder", "0.4,0.2,0.1"],
])
def test_experiment_cli_keeps_the_report_bytes(argv, tmp_path, monkeypatch):
    reports = []
    for name in ("regret_experiment", "scaling_experiment"):
        def keep(*args, run=getattr(cli, name), **kwargs):
            reports.append(run(*args, **kwargs))
            return reports[-1]
        monkeypatch.setattr(cli, name, keep)
    out = tmp_path / "report.json"
    assert cli.main(["experiment", *argv, "--out", str(out)]) == 0
    (report,) = reports
    assert out.read_text() == canonical_json(hand_written_report_doc(report))


# ---------------------------------------------------------------------------
# A matrix is read at once when it is what emission writes; anything else
# goes row by row, so each error names its row or entry as before


@pytest.mark.parametrize("text, message", [
    ("[[1.0, 2.0], [3.0]]", "A[1]: ragged row (expected length 2)"),
    ("[[1.0], [2.0, 3.0]]", "A[1]: ragged row (expected length 1)"),
    ("[[1.0, NaN], [3.0, 4.0]]", "A[0][1]: expected a finite number, got nan"),
    ("[[1.0, 2.0], [1e400, 4.0]]", "A[1][0]: expected a finite number, got inf"),
    ("[[1.0, 2.0], [true, 4.0]]", "A[1][0]: expected a number"),
    ('[[1.0, "2"], [3.0, 4.0]]', "A[0][1]: expected a number"),
    ("[[1.0, null], [3.0, 4.0]]", "A[0][1]: expected a number"),
    ("[[1.0, 2.0], [3.0, 1" + "0" * 400 + "]]",
     "A[1][1]: expected a finite number, got 1" + "0" * 400),
    ("[[1.0, 2.0], 3.0]", "A[1]: expected a nonempty array of numbers"),
    ("[[1.0, 2.0], []]", "A[1]: expected a nonempty array of numbers"),
    ("[[]]", "A[0]: expected a nonempty array of numbers"),
    ("[]", "A: expected a nonempty array of rows"),
], ids=["ragged-short", "ragged-long", "nan", "1e400", "bool", "string", "null", "huge-int",
        "not-a-row", "empty-row", "only-an-empty-row", "no-rows"])
def test_matrix_errors_name_the_field(text, message):
    with pytest.raises(ProblemFileError) as err:
        harness_io._matrix(json.loads(text), "A")
    assert str(err.value) == message


def test_matrix_errors_carry_the_document_path():
    A = [[1.0, 0.0], [True, 1.0]]
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file(doc_with([{"family": "quadratic", "A": A, "b": [0.0, 0.0],
                                      "c": 0.0}]))
    assert str(err.value) == "problem.constraints[0].A[1][0]: expected a number"


def test_matrix_int_entries_parse_to_the_same_floats():
    x = harness_io._matrix([[1, 2.0], [3.0, -4]], "A")
    assert x.dtype == np.float64
    assert x.tolist() == [[1.0, 2.0], [3.0, -4.0]]
    assert [type(e) for row in x.tolist() for e in row] == [float] * 4


def test_whole_matrix_parse_is_the_row_by_row_parse():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-300, 300, size=(6, 4))
    rows = json.loads(json.dumps(A.tolist()))
    x = harness_io._matrix(rows, "A")
    assert x.shape == (6, 4) and x.tobytes() == A.tobytes()
    assert x.tobytes() == np.vstack([harness_io._vector(r, "A") for r in rows]).tobytes()
