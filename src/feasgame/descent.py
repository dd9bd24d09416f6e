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
# evaluate, gradient and smoothness_bound are not called in this module; they
# stay importable from it because call-site tracers (bench/workloads.py) wrap
# them here.
from .core import evaluate, gradient, smoothness_bound  # noqa: F401
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
    infinite or negative raises SetupError first.  Fixed step
    1/smoothness when a finite positive smoothness bound is supplied,
    backtracking line search otherwise.  The line search doubles its next
    trial step (up to 1) only after a strict decrease and halves it
    otherwise: near the minimum the differences of f fall below rounding,
    where the test's 1e-15 slack accepts any step, and a step that kept
    doubling there would overshoot 2/L and bounce around the minimizer
    without ever closing the gap.  A trial point off fn's analytic domain
    (EvaluationDomainError) counts as f = +inf, a rejected step.  A round
    without a strict decrease at a step below 1e-18, and MAX_STEPS steps,
    end the descent unconverged with its best value and certified bound;
    it never raises for want of convergence.  No float differs from the
    plain loop's: the last gradient's linear minimum is memoized on
    g.tobytes(), not identity (fn may refill one buffer), so an affine
    mixture pays one argmin (drop the memo once affine mixtures skip the
    descent, ROADMAP item 7); g.dot(v) replaces g @ v for a unit-stride
    float64 g, and any other g keeps @, which sums a reversed or broadcast
    vector in its own loop.
    """
    if not 0.0 <= tol < math.inf:
        raise SetupError(f"tol must be a nonnegative finite float, got {tol!r}")
    x = domain.start()
    fx, g = fn(x)
    best_x, best_f = x, fx
    best_lb = -math.inf
    fixed = smoothness is not None and math.isfinite(smoothness) and smoothness > 0
    step = 1.0 / smoothness if fixed else 1.0
    iters, key = 0, None
    for iters in range(1, MAX_STEPS + 1):
        if stop_below is not None and best_f <= stop_below:
            return MinimizeResult(best_x, best_f, best_lb, iters - 1, True)
        gdot = g.dot if g.strides == (8,) and g.dtype.char == "d" else g.__matmul__
        if key != (key := g.tobytes()):
            lin = domain.linear_minimum(g)[1]
        best_lb = max(best_lb, fx + lin - float(gdot(x)))
        if best_f - best_lb <= tol:
            return MinimizeResult(best_x, best_f, best_lb, iters - 1, True)
        if fixed:
            x_new = project_domain(domain, x - step * g)
            f_new, g_new = fn(x_new)
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
    the Frank-Wolfe lower bound for the general path.  An unconverged
    descent with neither a point nor a certificate raises ConvergenceError,
    which is a solver failure rather than a FAIL answer.
    """
    if not 0.0 <= tol < math.inf:
        raise SetupError(f"tol must be a nonnegative finite float, got {tol!r}")
    p = check_distribution(p, problem.m)
    mix = Mixture(problem, p)
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
