"""Standalone outcome verification."""

from __future__ import annotations

from ..core import Problem, SetupError, residuals
from ..reductions import log_transform, strictify
from ..solvers import Feasible, VerificationReport, verify_certificate
from .io import (
    ProblemFileError,
    _check_keys,
    _real,
    parse_outcome_document,
    problem_to_doc,
)


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
    re-evaluates the original constraints at the returned point (by
    residuals, as verify_certificate does) against eps_original.
    """
    doc = parse_outcome_document(doc)
    outcome, problem, original = doc.outcome, doc.problem, doc.original
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
        vals = residuals(original, outcome.x)
        worst = int(vals.argmax())
        if vals[worst] > eps_orig:
            return VerificationReport(
                ok=False, method=report.method, value=float(vals[worst]),
                witness_index=worst,
                message=(f"original constraint {worst} has value "
                         f"{vals[worst]:.6g} > eps_original {eps_orig:.6g}"),
            )
    return report
