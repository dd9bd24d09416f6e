"""Problem transformations that buy curvature or exp-concavity.

strictify adds delta * (||x||^2 - 1) to every constraint, making each one
delta-strongly convex at the price of an additive perturbation of at most
delta anywhere on a unit-diameter-bounded domain; any eps-approximate
answer for the transformed system translates back with a controlled blowup
(strictify_guarantee).

log_transform rewrites f_j(x) <= 0 over width omega as the threshold form
log(e - f_j(x) / omega) >= 1, whose objective is 1-exp-concave when the
inner functions are affine; approx_translate maps accuracy on the log
scale back to the original residual scale.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Affine,
    LogAffineComposite,
    NormDistSq,
    Problem,
    ProblemParams,
    Quadratic,
    SetupError,
    Simplex,
    residuals_batch,
    value_interval,
)
from .grids import sample_domain


def _as_quadratic(f) -> Quadratic:
    """Rewrite an Affine/Quadratic/NormDistSq constraint as a Quadratic."""
    if isinstance(f, Affine):
        n = f.a.shape[0]
        return Quadratic(A=np.zeros((n, n)), b=f.a.copy(), c=f.b)
    if isinstance(f, Quadratic):
        return Quadratic(A=f.A.copy(), b=f.b.copy(), c=f.c)
    if isinstance(f, NormDistSq):
        n = f.center.shape[0]
        # ||x - z||^2 + c = x'Ix - 2z'x + (||z||^2 + c)
        return Quadratic(A=np.eye(n), b=-2.0 * f.center,
                         c=float(f.center @ f.center) + f.c)
    raise SetupError(f"cannot strictify constraint family {type(f).__name__}")


def strictify(problem: Problem, delta: float) -> Problem:
    """Add delta-strong convexity: f_j(x) + delta * ||x||^2 - delta.

    Only quadratic-representable families are eligible.  delta = 0 returns
    the problem unchanged.  Parameters are adjusted conservatively:
    H' = H + 2 delta, G' = G + 2 delta, omega' = omega + delta.
    """
    if delta < 0:
        raise SetupError("delta must be >= 0")
    if problem.sense != "min":
        raise SetupError("strictify expects minimization-form residuals")
    if not isinstance(problem.domain, Simplex):
        raise SetupError("strictify is calibrated for simplex domains only")
    if delta == 0:
        return problem
    n = problem.n
    out = []
    for f in problem.constraints:
        q = _as_quadratic(f)
        out.append(Quadratic(A=q.A + delta * np.eye(n), b=q.b, c=q.c - delta))
    p = problem.params
    # On a domain within the unit ball (simplex), the added term lies in
    # [-delta, 0], its gradient norm is at most 2 * delta, and the added
    # curvature is exactly 2 * delta.
    G2, H2 = p.G + 2 * delta, p.H + 2 * delta
    alpha = H2 / (G2 * G2) if G2 > 0 else 0.0
    params = ProblemParams(G=G2, H=H2, omega=p.omega + delta, D=p.D,
                           G_inf=p.G_inf + delta, alpha=alpha)
    return Problem(constraints=tuple(out), domain=problem.domain, params=params,
                   sense="min")


def strictify_guarantee(eps: float) -> tuple[float, float]:
    """(delta, eps_original): solving the strictified system to accuracy eps
    with delta = eps certifies the original system to accuracy 2 * eps."""
    if not eps > 0:
        raise SetupError("eps must be positive")
    return eps, 2.0 * eps


def log_transform(problem: Problem, omega: float | None = None) -> Problem:
    """Rewrite affine constraints in the exp-concave threshold form.

    Each f_j(x) <= 0 becomes log(e + (-f_j(x)) / omega) >= 1 where omega
    bounds |f_j| over the domain.  The returned problem has sense "max" and
    alpha = 1; its residuals are 1 - log(...).
    """
    if problem.sense != "min":
        raise SetupError("log_transform expects minimization-form residuals")
    for f in problem.constraints:
        if not isinstance(f, Affine):
            raise SetupError("log_transform needs affine constraints")
    if omega is None:
        omega = problem.params.omega
    if not omega > 0:
        raise SetupError("omega must be positive")
    # Width precondition |f_j(x)| <= omega: exact interval on the domain,
    # plus a sampled spot check so a bad caller-supplied omega fails loudly.
    for j, f in enumerate(problem.constraints):
        lo, hi = value_interval(f, problem.domain)
        if max(abs(lo), abs(hi)) > omega * (1 + 1e-12):
            raise SetupError(
                f"constraint {j} exceeds width omega: |values| up to "
                f"{max(abs(lo), abs(hi)):.6g} > {omega:.6g}"
            )
    X = sample_domain(problem.domain, 200, seed=0)
    over = np.argwhere(np.abs(residuals_batch(problem, X)) > omega * (1 + 1e-9))
    if over.size:
        raise SetupError(f"sampled point violates width omega on constraint {over[0, 1]}")
    out = []
    for f in problem.constraints:
        inner = Affine(a=-f.a.copy(), b=-f.b)
        out.append(LogAffineComposite(inner=inner, omega=omega))
    p = problem.params
    # Residual 1 - log(e + u/omega) with |u| <= omega keeps values within
    # [1 - log(e+1), 1 - log(e-1)]; the larger magnitude bounds the payoff.
    width = max(abs(1.0 - np.log(np.e + 1.0)), abs(1.0 - np.log(np.e - 1.0)))
    params = ProblemParams(G=p.G / omega, H=0.0, omega=width, D=p.D,
                           G_inf=width, alpha=1.0)
    return Problem(constraints=tuple(out), domain=problem.domain, params=params,
                   sense="max")


def approx_translate(eps_log: float, omega: float) -> float:
    """Residual guarantee on the original scale implied by eps_log on the
    log scale: 3 * omega * eps_log."""
    if eps_log < 0 or omega <= 0:
        raise SetupError("need eps_log >= 0 and omega > 0")
    return 3.0 * omega * eps_log
