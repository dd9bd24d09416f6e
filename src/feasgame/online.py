"""Online learners and regret accounting.

Three learners, used as the players inside the game solvers:

* OGD: gradient steps of size 1/(H t) for H-strongly-convex costs, with
  Euclidean projection back onto the domain.  Regret O((G^2/H) log T).
* ONS: Newton-style steps for alpha-exp-concave costs.  The conditioning
  matrix accumulates gradient outer products and its inverse is maintained
  by rank-one (Sherman-Morrison) updates; the iterate is projected in the
  matrix norm.  Regret O((1/alpha + G D) n log T).
* MW: multiplicative weights over the simplex with learning rate eta <= 1/2;
  plays the normalized weight vector.  Regret O(G_inf sqrt(T log n)).

States are immutable; each step returns a fresh state with t advanced by 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    Affine,
    Array,
    ConstraintFn,
    Domain,
    NormDistSq,
    Quadratic,
    SetupError,
    Simplex,
    domain_dim,
    evaluate,
    evaluate_batch,
    gradient,
    linear_minimum,
    smoothness_bound,
    start_point,
)
from .descent import minimize_over_domain
from .grids import domain_grid
from .projections import generalized_project, project_domain

logger = logging.getLogger(__name__)

# Drift threshold on ||A A_inv - I||_max before the inverse is rebuilt.
INVERSE_DRIFT_TOL = 1e-6


# ---------------------------------------------------------------------------
# Online gradient descent


@dataclass(frozen=True, eq=False)
class OgdState:
    x: Array
    t: int
    H: float


def init_ogd(domain: Domain, H: float) -> OgdState:
    if not H > 0:
        raise SetupError("OGD needs a positive strong-convexity modulus H")
    return OgdState(x=start_point(domain), t=1, H=float(H))


def ogd_step(state: OgdState, grad, domain: Domain) -> OgdState:
    """Move against grad with step 1/(H t), project, advance t."""
    if not state.H > 0:
        raise SetupError("OGD needs a positive strong-convexity modulus H")
    g = np.asarray(grad, float)
    y = state.x - g / (state.H * state.t)
    return OgdState(x=project_domain(domain, y), t=state.t + 1, H=state.H)


# ---------------------------------------------------------------------------
# Online Newton step


@dataclass(frozen=True, eq=False)
class OnsState:
    x: Array
    t: int
    beta: float
    A: Array
    A_inv: Array
    rebuilds: int = 0


def init_ons(domain: Domain, G: float, D: float) -> OnsState:
    """beta = min(1, 1/(4 G D))/2, A0 = I/(D beta)^2, inverse exact."""
    if not (G > 0 and D > 0):
        raise SetupError("ONS needs positive G and D bounds")
    n = domain_dim(domain)
    beta = 0.5 * min(1.0, 1.0 / (4.0 * G * D))
    scale = 1.0 / (D * D * beta * beta)
    A = np.eye(n) * scale
    A_inv = np.eye(n) / scale
    return OnsState(x=start_point(domain), t=1, beta=beta, A=A, A_inv=A_inv)


def ons_step(state: OnsState, grad, domain: Domain, sense: str = "min",
             projection_tol: float = 1e-9) -> OnsState:
    """Newton-style step, matrix-norm projection, then rank-one update.

    sense="min" moves along -A_inv grad / beta, sense="max" along the
    positive direction.  The conditioning matrix update uses the gradient
    just observed; its inverse follows by Sherman-Morrison and is rebuilt
    from scratch if the consistency check ||A A_inv - I||_max exceeds 1e-6.
    """
    g = np.asarray(grad, float)
    direction = -1.0 if sense == "min" else 1.0
    y = state.x + (direction / state.beta) * (state.A_inv @ g)
    x_new = generalized_project(y, state.A, domain, tol=projection_tol, x0=state.x)

    # column-times-row products are np.outer without its wrapper
    A_new = state.A + g[:, None] * g
    Ag = state.A_inv @ g
    denom = 1.0 + float(g @ Ag)
    A_inv_new = state.A_inv - Ag[:, None] * Ag / denom

    rebuilds = state.rebuilds
    residual = A_new @ A_inv_new
    residual.flat[:: g.size + 1] -= 1.0  # A A_inv - I without building I
    drift = float(abs(residual).max())
    if drift > INVERSE_DRIFT_TOL:
        A_inv_new = np.linalg.inv(A_new)
        rebuilds += 1
        logger.warning("ONS inverse drift %.3g exceeded %.0e; rebuilt inverse", drift, INVERSE_DRIFT_TOL)

    return OnsState(x=x_new, t=state.t + 1, beta=state.beta,
                    A=A_new, A_inv=A_inv_new, rebuilds=rebuilds)


# ---------------------------------------------------------------------------
# Multiplicative weights


@dataclass(frozen=True, eq=False)
class MwState:
    w: Array
    t: int
    eta: float
    G_inf: float
    direction: str  # "min" or "max"


def init_mw(n: int, eta: float, G_inf: float, direction: str = "min") -> MwState:
    if n < 1:
        raise SetupError("MW needs at least one coordinate")
    if eta < 0 or eta > 0.5:
        raise SetupError("MW learning rate must lie in [0, 1/2]")
    if G_inf < 0:
        raise SetupError("G_inf must be nonnegative")
    if direction not in ("min", "max"):
        raise SetupError("direction must be 'min' or 'max'")
    return MwState(w=np.full(n, 1.0 / n), t=1, eta=float(eta),
                   G_inf=float(G_inf), direction=direction)


def mw_point(state: MwState) -> Array:
    """The played point: weights normalized to the simplex."""
    return state.w / float(state.w.sum())


def mw_step(state: MwState, grad) -> MwState:
    """Reweight by (1 -/+ eta grad_i / G_inf) for min/max direction.

    If a gradient entry exceeds the current G_inf in magnitude the scale
    grows to the largest value encountered so far, so weights stay positive
    without a priori knowledge of the payoff range.
    """
    g = np.asarray(grad, float)
    if g.shape != state.w.shape:
        raise SetupError("gradient dimension does not match the weight vector")
    g_inf = state.G_inf
    observed = float(abs(g).max()) if g.size else 0.0
    if observed > g_inf:
        g_inf = observed
    if g_inf > 0:
        factor = (state.eta / g_inf) * g
        scale = 1.0 - factor if state.direction == "min" else 1.0 + factor
        # eta <= 1/2 and |g_i| <= g_inf keep every multiplier in [1/2, 3/2],
        # so a nonpositive weight can only be underflow; floor it
        w = np.maximum(state.w * scale, 1e-300)
        mx = float(w.max())
        if mx > 1e100 or mx < 1e-100:
            # plays are weight ratios, so a common rescale is invisible
            w = np.maximum(w / mx, 1e-300)
    else:
        w = state.w.copy()
    return MwState(w=w, t=state.t + 1, eta=state.eta,
                   G_inf=g_inf, direction=state.direction)


# ---------------------------------------------------------------------------
# Regret bounds


@dataclass(frozen=True)
class RegretBoundSpec:
    """Algorithm tag plus the constants its worst-case regret bound needs."""

    algorithm: str
    G: float = 0.0
    H: float = 0.0
    D: float = 0.0
    alpha: float = 0.0
    G_inf: float = 0.0
    n: int = 0


def ogd_bound_spec(G: float, H: float) -> RegretBoundSpec:
    if not H > 0:
        raise SetupError("OGD regret bound needs H > 0")
    return RegretBoundSpec(algorithm="ogd", G=float(G), H=float(H))


def ons_bound_spec(G: float, D: float, alpha: float, n: int) -> RegretBoundSpec:
    if not alpha > 0:
        raise SetupError("ONS regret bound needs alpha > 0")
    return RegretBoundSpec(algorithm="ons", G=float(G), D=float(D), alpha=float(alpha), n=int(n))


def mw_bound_spec(G_inf: float, n: int) -> RegretBoundSpec:
    return RegretBoundSpec(algorithm="mw", G_inf=float(G_inf), n=int(n))


def regret_bound(spec: RegretBoundSpec, T: int) -> float:
    """Worst-case cumulative regret after T rounds, natural log throughout."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if spec.algorithm == "ogd":
        return (spec.G**2 / spec.H) * math.log(T + 1.0)
    if spec.algorithm == "ons":
        return 5.0 * (1.0 / spec.alpha + spec.G * spec.D) * spec.n * math.log(T + 1.0)
    if spec.algorithm == "mw":
        return 2.0 * spec.G_inf * math.sqrt(T * math.log(spec.n)) if spec.n > 1 else 0.0
    raise SetupError(f"unknown regret bound algorithm {spec.algorithm!r}")


# ---------------------------------------------------------------------------
# Measured regret


def _combine(costs: Sequence[ConstraintFn], n: int):
    """Sum of affine/quadratic-representable costs as one closed form."""
    A = np.zeros((n, n))
    b = np.zeros(n)
    c = 0.0
    quadratic = False
    for f in costs:
        if isinstance(f, Affine):
            b += f.a
            c += f.b
        elif isinstance(f, Quadratic):
            A += f.A
            c += f.c
            b += f.b
            quadratic = True
        elif isinstance(f, NormDistSq):
            A += np.eye(n)
            b += -2.0 * f.center
            c += float(f.center @ f.center) - f.c
            quadratic = True
        else:
            return None
    return Quadratic(A=A, b=b, c=c) if quadratic else Affine(a=b, b=c)


def hindsight_minimum(costs: Sequence[ConstraintFn], domain: Domain,
                      grid_resolution: float = 1e-3) -> tuple[Array, float]:
    """Best fixed domain point for the summed costs, and its total cost."""
    if not costs:
        raise SetupError("need at least one cost")
    n = domain_dim(domain)
    combined = _combine(costs, n)
    if isinstance(combined, Affine):
        x, v = linear_minimum(domain, combined.a)
        return x, v + combined.b
    if combined is not None:
        L = smoothness_bound(combined, domain)
        scale = 1.0 + abs(evaluate(combined, start_point(domain)))
        res = minimize_over_domain(
            lambda x: evaluate(combined, x),
            lambda x: gradient(combined, x),
            domain,
            smoothness=L if L > 0 else None,
            tol=1e-9 * scale,
            max_iters=200_000,
            on_cap="return",
        )
        return res.x, res.value
    if n <= 3:
        X = domain_grid(domain, grid_resolution)
        total = np.zeros(X.shape[0])
        for f in costs:
            total += evaluate_batch(f, X)
        k = int(np.argmin(total))
        return X[k], float(total[k])

    def value_fn(x):
        return sum(evaluate(f, x) for f in costs)

    def grad_fn(x):
        g = np.zeros(n)
        for f in costs:
            g += gradient(f, x)
        return g

    res = minimize_over_domain(value_fn, grad_fn, domain, tol=1e-8,
                               max_iters=200_000, on_cap="return")
    return res.x, res.value


def measured_regret(costs: Sequence[ConstraintFn], plays: Sequence[Array],
                    domain: Domain, grid_resolution: float = 1e-3) -> float:
    """Realized regret: cumulative online cost minus best fixed point's cost."""
    if len(costs) != len(plays):
        raise SetupError("costs and plays must have equal length")
    online = sum(evaluate(f, x) for f, x in zip(costs, plays))
    _, best = hindsight_minimum(costs, domain, grid_resolution)
    return float(online - best)
