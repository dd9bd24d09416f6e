"""Brute-force game-value oracle and standalone outcome verification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import Array, Problem, SetupError, evaluate, residual_gradients, residuals_batch
from ..reductions import log_transform, strictify
from ..solvers import Feasible, VerificationReport, verify_certificate
from .io import (
    ProblemFileError,
    _check_keys,
    _real,
    outcome_from_doc,
    parse_outcome_document,
    problem_from_doc,
    problem_to_doc,
)


@dataclass(frozen=True)
class GridValue:
    """Grid estimate of min_x max_j r_j(x), with a Lipschitz slack radius."""

    value: float
    slack: float
    x: Array


def brute_force_lambda_star(problem: Problem, resolution: float) -> GridValue:
    """Game value by exhaustive grid search; n <= 3 only.

    The true value lies within slack = resolution * (max sampled residual
    gradient norm) of the reported grid minimum.
    """
    if problem.n > 3:
        raise SetupError("brute-force game value is limited to n <= 3")
    X = problem.domain.grid(resolution)
    worst = np.max(residuals_batch(problem, X), axis=1)
    k = int(np.argmin(worst))
    sample = X[:: max(1, X.shape[0] // 512)]
    gmax = max(float(np.max(np.linalg.norm(residual_gradients(problem, x), axis=1)))
               for x in sample)
    return GridValue(value=float(worst[k]), slack=resolution * gmax, x=X[k].copy())


def _reapply(original: Problem, transforms) -> Problem:
    """original with the document's transforms applied in order."""
    if not isinstance(transforms, list):
        raise ProblemFileError("outcome_document.transforms: expected an array")
    problem = original
    for i, t in enumerate(transforms):
        path = f"outcome_document.transforms[{i}]"
        kind = t.get("kind") if isinstance(t, dict) else None
        if kind == "strictify":
            _check_keys(t, path, ("kind", "delta"))
            problem = strictify(problem, _real(t["delta"], f"{path}.delta"))
        elif kind == "log_transform":
            _check_keys(t, path, ("kind", "omega"), ("eps_log",))
            problem = log_transform(problem, _real(t["omega"], f"{path}.omega"))
        else:
            raise ProblemFileError(f"{path}.kind: expected 'strictify' or 'log_transform'")
    return problem


def verify_outcome_document(doc: dict | str) -> VerificationReport:
    """Re-check an outcome document using only its own contents.

    For a transformed run, first re-applies the transforms to the original
    problem and refuses a document whose embedded problem is not what they
    give.  Then verifies the embedded certificate against the problem the
    solver ran on, and (for feasible outcomes of transformed runs)
    re-evaluates the original constraints at the returned point against
    eps_original.
    """
    if isinstance(doc, str):
        doc = parse_outcome_document(doc)
        outcome, problem, original = doc.outcome, doc.problem, doc.original
    else:
        problem = problem_from_doc(doc["problem"])
        original = (problem_from_doc(doc["original_problem"])
                    if "original_problem" in doc else None)
        outcome = outcome_from_doc(doc["outcome"])
    if original is not None:
        try:
            rebuilt = _reapply(original, doc.get("transforms", []))
        except SetupError as e:
            return VerificationReport(
                ok=False, method="transforms",
                message=f"transforms do not apply to the original problem: {e}")
        if problem_to_doc(rebuilt) != problem_to_doc(problem):
            return VerificationReport(
                ok=False, method="transforms",
                message="the embedded problem is not the original problem with its "
                        "transforms applied")
    report = verify_certificate(problem, outcome, float(doc["eps_effective"]))
    if not report.ok or original is None:
        return report
    if isinstance(outcome, Feasible):
        eps_orig = float(doc["eps_original"])
        vals = [evaluate(f, outcome.x) for f in original.constraints]
        worst = int(np.argmax(vals))
        if vals[worst] > eps_orig:
            return VerificationReport(
                ok=False, method=report.method, value=float(vals[worst]),
                witness_index=worst,
                message=(f"original constraint {worst} has value "
                         f"{vals[worst]:.6g} > eps_original {eps_orig:.6g}"),
            )
    return report
