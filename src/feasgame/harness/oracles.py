"""Brute-force game-value oracle and standalone outcome verification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import Array, Problem, SetupError, evaluate, residual_gradients, residuals_batch
from ..grids import domain_grid
from ..solvers import Feasible, VerificationReport, verify_certificate
from .io import outcome_from_doc, parse_outcome_document, problem_from_doc


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
    X = domain_grid(problem.domain, resolution)
    worst = np.max(residuals_batch(problem, X), axis=1)
    k = int(np.argmin(worst))
    sample = X[:: max(1, X.shape[0] // 512)]
    gmax = max(float(np.max(np.linalg.norm(residual_gradients(problem, x), axis=1)))
               for x in sample)
    return GridValue(value=float(worst[k]), slack=resolution * gmax, x=X[k].copy())


def verify_outcome_document(doc: dict | str, *, method: str = "auto",
                            resolution: float = 1e-3) -> VerificationReport:
    """Re-check an outcome document using only its own contents.

    Verifies the embedded certificate against the problem the solver ran
    on, then (for feasible outcomes of transformed runs) re-evaluates the
    original constraints at the returned point against eps_original.
    """
    if isinstance(doc, str):
        doc = parse_outcome_document(doc)
    problem = problem_from_doc(doc["problem"])
    outcome = outcome_from_doc(doc["outcome"])
    report = verify_certificate(problem, outcome, float(doc["eps_effective"]),
                                method=method, resolution=resolution)
    if not report.ok or "original_problem" not in doc:
        return report
    if isinstance(outcome, Feasible):
        original = problem_from_doc(doc["original_problem"])
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
