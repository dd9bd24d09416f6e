"""Problem transformations that buy curvature or exp-concavity.

strictify adds delta * (||x||^2 - 1) to every constraint, making each one
delta-strongly convex at the price of an additive perturbation of at most
delta anywhere on a unit-diameter-bounded domain; any eps-approximate
answer for the transformed system translates back with a controlled blowup
(strictify_guarantee).

log_transform rewrites f_j(x) <= 0 over width omega as the threshold form
log(e - f_j(x) / omega) >= 1, whose residual 1 - log(e - f_j(x) / omega)
is the LogAffineComposite family's value and is 1-exp-concave when the
f_j are affine; approx_translate maps accuracy on the log scale back to the
original residual scale.

Both return make_problem of the new constraints: their constants are
estimated, as every problem's are, never derived by hand.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Affine, LogAffineComposite, Problem, Quadratic, SetupError, Simplex, make_problem


def strictify(problem: Problem, delta: float) -> Problem:
    """Add delta-strong convexity: f_j(x) + delta * ||x||^2 - delta.

    Only quadratic-representable families are eligible.  delta = 0 returns
    the problem unchanged; otherwise the constants are estimated from the
    new constraints.  A delta that is not a nonnegative finite float raises
    SetupError.
    """
    if not 0 <= delta < math.inf:
        raise SetupError(f"delta must be a nonnegative finite float, got {delta!r}")
    if not isinstance(problem.domain, Simplex):
        raise SetupError("strictify is calibrated for simplex domains only")
    if delta == 0:
        return problem
    n = problem.n
    out = []
    for f in problem.constraints:
        q = f.as_quadratic()
        if q is None:
            raise SetupError(f"cannot strictify constraint family {type(f).__name__}")
        out.append(Quadratic(A=q.A + delta * np.eye(n), b=q.b, c=q.c - delta))
    return make_problem(out, problem.domain)


def strictify_guarantee(eps: float) -> tuple[float, float]:
    """(delta, eps_original): solving the strictified system to accuracy eps
    with delta = eps certifies the original system to accuracy 2 * eps."""
    if not 0 < eps < math.inf:
        raise SetupError(f"eps must be a positive finite float, got {eps!r}")
    return eps, 2.0 * eps


def log_transform(problem: Problem, omega: float | None = None) -> Problem:
    """Rewrite affine constraints in the exp-concave threshold form.

    Each f_j(x) <= 0 becomes log(e + (-f_j(x)) / omega) >= 1 where omega
    bounds |f_j| over the domain: the constraint LogAffineComposite(-f_j,
    omega), whose value is the residual 1 - log(e + (-f_j(x)) / omega).  The
    constants are estimated from the new constraints, with alpha = 1.  A
    transformed problem is not affine, so it is refused here.  omega must be
    positive and finite.
    """
    if not all(isinstance(f, Affine) for f in problem.constraints):
        raise SetupError("log_transform needs affine constraints")
    if omega is None:
        omega = problem.params.omega
    if not 0 < omega < math.inf:
        raise SetupError(f"omega must be positive and finite, got {omega!r}")
    # Width precondition |f_j(x)| <= omega, checked on the exact interval of
    # each affine f_j over the domain, so a bad caller-supplied omega fails
    # loudly.
    bounds = problem.packed.bounds
    width = np.maximum(abs(bounds.lo), abs(bounds.hi))
    over = width > omega * (1 + 1e-12)
    if over.any():
        j = int(over.argmax())
        raise SetupError(f"constraint {j} exceeds width omega: |values| up to "
                         f"{width[j]:.6g} > {omega:.6g}")
    out = [LogAffineComposite(inner=Affine(a=-f.a, b=-f.b), omega=omega)
           for f in problem.constraints]
    return make_problem(out, problem.domain)


def approx_translate(eps_log: float, omega: float) -> float:
    """Residual guarantee on the original scale implied by eps_log on the
    log scale: 3 * omega * eps_log.  Needs a finite eps_log >= 0 and a
    finite omega > 0."""
    if not 0 <= eps_log < math.inf:
        raise SetupError(f"eps_log must be nonnegative and finite, got {eps_log!r}")
    if not 0 < omega < math.inf:
        raise SetupError(f"omega must be positive and finite, got {omega!r}")
    return 3.0 * omega * eps_log
