"""Inner convex minimization over a domain, and the optimization oracle.

The engine is projected gradient descent with a Frank-Wolfe style certified
lower bound: at any iterate x, value(x) + min_z grad(x).(z - x) is a valid
lower bound on the domain minimum, and the linear minimum has a closed form
on every supported domain.  That turns "FAIL" answers of the optimization
oracle into certificates rather than heuristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# evaluate, gradient and smoothness_bound are not called in this module; they
# stay importable from it because call-site tracers (bench/workloads.py) wrap
# them here.
from .core import (  # noqa: F401
    Array,
    ConvergenceError,
    Domain,
    Mixture,
    Problem,
    check_distribution,
    evaluate,
    gradient,
    linear_minimum,
    smoothness_bound,
    start_point,
)
from .projections import project_domain

DEFAULT_CAP = 100_000


@dataclass
class MinimizeResult:
    x: Array
    value: float
    lower_bound: float
    iterations: int
    converged: bool


def minimize_over_domain(value_fn: Callable[[Array], float],
                         grad_fn: Callable[[Array], Array],
                         domain: Domain,
                         *,
                         smoothness: float | None = None,
                         tol: float = 1e-9,
                         max_iters: int = DEFAULT_CAP,
                         stop_below: float | None = None,
                         x0=None,
                         on_cap: str = "raise") -> MinimizeResult:
    """Minimize a convex function over the domain by projected gradient.

    Stops when the certified gap value - lower_bound falls below tol, or as
    soon as the value drops to stop_below when that is given.  Fixed step
    1/smoothness when a finite positive smoothness bound is supplied,
    backtracking line search otherwise.  Hitting the cap raises
    ConvergenceError unless on_cap="return".
    """
    x = start_point(domain) if x0 is None else np.asarray(x0, float)
    fx = value_fn(x)
    best_x, best_f = x, fx
    best_lb = -math.inf
    fixed = smoothness is not None and math.isfinite(smoothness) and smoothness > 0
    step = 1.0 / smoothness if fixed else 1.0
    iters = 0
    for iters in range(1, max_iters + 1):
        if stop_below is not None and best_f <= stop_below:
            return MinimizeResult(best_x, best_f, best_lb, iters - 1, True)
        g = grad_fn(x)
        _, lin = linear_minimum(domain, g)
        best_lb = max(best_lb, fx + lin - float(g @ x))
        if best_f - best_lb <= tol:
            return MinimizeResult(best_x, best_f, best_lb, iters - 1, True)
        if fixed:
            x_new = project_domain(domain, x - step * g)
            f_new = value_fn(x_new)
        else:
            # Armijo backtracking on the projected step
            s = step
            while True:
                x_new = project_domain(domain, x - s * g)
                f_new = value_fn(x_new)
                d = x_new - x
                if f_new <= fx + float(g @ d) + float(d @ d) / (2.0 * s) + 1e-15:
                    break
                s *= 0.5
                if s < 1e-18:
                    x_new, f_new = x, fx
                    break
            step = min(s * 2.0, 1.0)
        if f_new < best_f:
            best_x, best_f = x_new, f_new
        if f_new >= fx and fixed:
            # no progress at a provably safe step: gradient is flat here
            if best_f - best_lb <= tol:
                return MinimizeResult(best_x, best_f, best_lb, iters, True)
        x, fx = x_new, f_new
    if on_cap == "return":
        return MinimizeResult(best_x, best_f, best_lb, iters, False)
    raise ConvergenceError(f"inner minimization hit the {max_iters} iteration cap")


def optimization_oracle(problem: Problem, p, tol: float,
                        max_iters: int = DEFAULT_CAP) -> Array | None:
    """Point x with mixed value sum_j p_j r_j(x) <= tol, or None (FAIL).

    FAIL certifies min_x sum_j p_j r_j(x) > 0: exactly when the mixture is
    affine (closed-form linear minimization over the domain), and through
    the Frank-Wolfe lower bound for the general path.  An inner solve that
    can neither return nor certify within the cap raises ConvergenceError,
    which is a solver failure rather than a FAIL answer.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    p = check_distribution(p, problem.m)
    mix = Mixture(problem, p)
    if mix.linear:
        x, lin = linear_minimum(problem.domain, mix.q)
        return x if lin + mix.c <= 0 else None

    res = minimize_over_domain(
        mix.value, mix.gradient, problem.domain,
        smoothness=mix.smoothness, tol=max(tol, 1e-12) * 0.5,
        max_iters=max_iters, stop_below=0.0,
    )
    if res.value <= 0.0:
        return res.x
    if res.lower_bound > 0.0:
        return None
    if res.value <= tol:
        return res.x
    # gap <= tol/2 and value > tol together certify min > tol/2 > 0
    return None
