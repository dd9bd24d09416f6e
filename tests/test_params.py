"""Documents that carry their instance constants.

A problem document whose params hold every constant is built from them: the
constants are not estimated, and only what can refuse the constraints over
the domain runs (the log argument, the entropy and barrier domains, and an
estimate wherever the numbers are too large or too small to rule out a
non-finite constant).  The reference is the parse that estimates the
constants and then replaces them with the document's; the two must agree on
every problem, refusals and their messages included.
"""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import feasgame as fg
from conftest import FAMILY_KINDS, random_constraint, random_domain
from feasgame import core
from feasgame.harness import (
    emit_outcome_document,
    emit_problem_file,
    outcome_document,
    parse_outcome_document,
    problem_from_doc,
    problem_to_doc,
    run_solver,
    verify_outcome_document,
)

# the estimate of a document scaled by 1e160 or more overflows on purpose
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

KEYS = ("G", "H", "omega", "D", "G_inf", "alpha")
ANY_PARAMS = fg.ProblemParams(G=1.0, H=0.0, omega=1.0, D=1.0, G_inf=1.0, alpha=0.0)


def _scaled(obj, factor):
    """The document obj with every float scaled by factor (omegas too)."""
    if isinstance(obj, float):
        return obj * factor
    if isinstance(obj, list):
        return [_scaled(v, factor) for v in obj]
    if isinstance(obj, dict):
        return {k: v if k == "family" else _scaled(v, factor) for k, v in obj.items()}
    return obj


def _document(kinds, domain_kind, n, seed, factor, positive, shrink, flip):
    """A problem document of the given families over a domain, bent toward
    refusal or overflow by the knobs."""
    rng = np.random.default_rng(seed)
    domain = random_domain(domain_kind, rng, n, positive=True)
    constraints = [random_constraint(k, rng, domain) for k in kinds]
    if not positive:
        domain = random_domain(domain_kind, rng, n, positive=False)
    doc = problem_to_doc(fg.Problem(constraints, domain, ANY_PARAMS))
    rows = [_scaled(row, factor) for row in doc["constraints"]]
    for row in rows:
        if row["family"] == "log_affine_composite":
            row["omega"] *= shrink
        if row["family"] == "neg_log_barrier" and flip:
            row["rows"] = _scaled(row["rows"], -1.0)
    doc["constraints"] = rows
    doc["params"] = {k: float(v) for k, v in zip(KEYS, rng.uniform(0.0, 3.0, 6))}
    return doc


def _result(build):
    """The problem's file text, or the type and message of what it raised."""
    try:
        return emit_problem_file(build())
    except Exception as e:  # noqa: BLE001 - the refusal itself is compared
        return type(e).__name__, str(e)


def _estimated_then_replaced(doc):
    """The problem with its constants estimated, then replaced by the
    document's params: what a complete document was built as before."""
    problem = problem_from_doc({**doc, "params": {}})
    return fg.Problem(problem.constraints, problem.domain, fg.ProblemParams(**doc["params"]))


documents = st.builds(
    _document,
    st.lists(st.sampled_from(FAMILY_KINDS), min_size=1, max_size=4),
    st.sampled_from(["simplex", "ball", "box"]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1.0, 1.0, 1e-30, 1e30, 1e-170, 1e160, 1e300]),
    st.booleans(),
    st.sampled_from([1.0, 1.0, 0.3, 0.05]),
    st.booleans(),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(documents)
def test_complete_params_give_what_the_estimate_did(doc):
    assert _result(lambda: problem_from_doc(doc)) == _result(lambda: _estimated_then_replaced(doc))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(documents)
def test_outcome_documents_embed_the_same_problem(doc):
    text = emit_outcome_document({
        "version": 1, "algo": "dual", "learner": None, "eps": 0.1, "eps_effective": 0.1,
        "iterations": 1, "outcome": {"kind": "exhausted", "best_x": [0.5], "best_violation": 1.0},
        "problem": doc})
    assert (_result(lambda: parse_outcome_document(text).problem)
            == _result(lambda: _estimated_then_replaced(doc)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(documents, st.sets(st.sampled_from(KEYS)))
def test_missing_constants_are_estimated(doc, kept):
    doc["params"] = {k: v for k, v in doc["params"].items() if k in kept}
    try:
        problem = problem_from_doc(doc)
    except (ValueError, ZeroDivisionError):
        return
    estimated = fg.estimate_parameters(problem)
    for k in KEYS:
        want = doc["params"][k] if k in kept else getattr(estimated, k)
        assert getattr(problem.params, k) == want


# ---------------------------------------------------------------------------
# The three refusals keep their messages, with and without params

PARAM_CHOICES = [None, {"G": 1.0}, {k: 1.0 for k in KEYS}]


def _refused(domain, constraint, params):
    doc = problem_to_doc(fg.Problem([constraint], domain, ANY_PARAMS))
    if params is None:
        del doc["params"]
    else:
        doc["params"] = params
    with pytest.raises(fg.harness.ProblemFileError) as info:
        problem_from_doc(doc)
    return str(info.value)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["simplex", "ball", "box"]), st.integers(1, 4),
       st.integers(0, 2**32 - 1), st.sampled_from(PARAM_CHOICES))
def test_a_log_argument_below_zero_is_refused(kind, n, seed, params):
    rng = np.random.default_rng(seed)
    domain = random_domain(kind, rng, n)
    inner = fg.Affine(a=rng.uniform(-2, 2, n), b=-5.0)  # its least value is below -3
    message = _refused(domain, fg.LogAffineComposite(inner=inner, omega=1.0), params)
    assert message.startswith("problem: log argument e + inner/omega falls to ")
    assert message.endswith(" <= 0 on the domain (omega is too small for the inner's range)")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from(PARAM_CHOICES))
def test_entropy_over_negative_coordinates_is_refused(n, seed, params):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 0.5, n)
    lo[int(rng.integers(n))] = -0.25
    domain = fg.Box(lo=lo, hi=lo + 1.0)
    assert (_refused(domain, fg.NegEntropy(n=n, shift=0.1), params)
            == "problem: negative entropy over a domain with negative coordinates")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["simplex", "ball", "box"]), st.integers(1, 4),
       st.integers(0, 2**32 - 1), st.sampled_from(PARAM_CHOICES))
def test_a_barrier_row_nonpositive_over_the_domain_is_refused(kind, n, seed, params):
    rng = np.random.default_rng(seed)
    domain = random_domain(kind, rng, n, positive=True)
    rows = rng.uniform(0.2, 1.5, (2, n))
    rows[1] = -rows[1]
    barrier = fg.NegLogBarrier(rows=rows, level=0.0)
    assert (_refused(domain, barrier, params)
            == "problem: log barrier row is nonpositive over the whole domain")


def test_constants_the_estimate_cannot_make_finite_are_refused_with_params():
    affine = fg.Affine(a=np.array([1e200, 1e200]), b=0.0)
    message = _refused(fg.Simplex(n=2), affine, {k: 1.0 for k in KEYS})
    assert message == "problem: instance constant G must be finite, got inf"


def test_nested_log_composites_whose_gradient_bound_overflows_are_refused_with_params():
    # every number is tame, yet each level multiplies the gradient bound by
    # up to 2**60 / omega-ish factors until it overflows after 22 levels
    domain, f = fg.Simplex(n=2), fg.Affine(a=np.array([-1.0, 0.0]), b=0.0)
    for _ in range(22):
        lo = f.interval(domain)[0]
        f = fg.LogAffineComposite(inner=f, omega=2.0**-60 if lo >= 0 else -lo / (np.e - 1e-12))
    message = _refused(domain, f, {k: 1.0 for k in KEYS})
    assert message == "problem: instance constant G must be finite, got inf"


# ---------------------------------------------------------------------------
# Verifying a document estimates nothing


@pytest.fixture
def estimates(monkeypatch):
    """The argument tuples of every core._estimate call from here on."""
    calls = []
    estimate = core._estimate

    def counted(*args):
        calls.append(args)
        return estimate(*args)

    monkeypatch.setattr(core, "_estimate", counted)
    return calls


def test_verifying_an_untransformed_document_runs_no_estimate(estimates):
    problem = fg.make_portfolio_risk(4, 5, seed=0)
    text = emit_outcome_document(outcome_document(
        run_solver(problem, "primal-dual", "ogd", 0.2), problem))
    estimates.clear()
    assert verify_outcome_document(text).ok
    assert estimates == []
    # a problem file without params still has its constants estimated
    doc = problem_to_doc(problem)
    del doc["params"]
    assert problem_from_doc(doc).params == problem.params
    assert len(estimates) == 1


def test_numbers_too_small_to_rule_out_an_overflow_are_estimated(estimates):
    for a in ([0.5, 1.0], [1e-30, 1.0]):
        affine = fg.Affine(a=np.array(a), b=0.0)
        doc = problem_to_doc(fg.Problem([affine], fg.Simplex(n=2), ANY_PARAMS))
        assert problem_from_doc(doc).params == ANY_PARAMS
    assert len(estimates) == 1
