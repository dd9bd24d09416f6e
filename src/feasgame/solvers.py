"""Game-based feasibility solvers and certificate checking.

Each solver runs a repeated zero-sum game between a point player over the
domain and a weight player over constraint indices, with payoff
g(x, p) = sum_j p_j r_j(x) (r_j the oriented residuals).  A player backed
by a no-regret learner runs until its worst-case regret bound drops below
eps * t; the play averages then certify one side of the game value:

* primal_game_opt: learner picks points, a separation oracle answers.  An
  oracle FAIL yields an eps-feasible point; surviving the full horizon
  yields a dual distribution p_bar with min_x g(x, p_bar) > 0 (infeasible).
* dual_game_opt: multiplicative weights picks distributions, an
  optimization oracle answers with near-minimizing points.  An oracle FAIL
  certifies infeasibility outright; otherwise the point average is
  approximately feasible (eps plus the oracle tolerance).
* primal_dual_game_opt: both sides learn with budget eps/2 each; the point
  average is eps-feasible, or the weight average certifies that even
  relaxing every constraint by eps leaves the system infeasible.

Stopping always uses the theoretical regret-bound formula, never measured
regret, so iteration counts are deterministic for a given instance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .core import (
    Array,
    Mixture,
    Problem,
    SetupError,
    Simplex,
    check_distribution,
    mixed_gradient,
    residual_gradient,
    residuals,
    separation_oracle,
    start_point,
)
from .descent import minimize_over_domain, optimization_oracle
from .grids import domain_grid
from .online import (
    MwState,
    OgdState,
    OnsState,
    RegretBoundSpec,
    init_mw,
    init_ogd,
    init_ons,
    mw_bound_spec,
    mw_point,
    mw_step,
    ogd_bound_spec,
    ogd_step,
    ons_bound_spec,
    ons_step,
    regret_bound,
)

MAX_THRESHOLD = 2**62


class CertificateContradiction(RuntimeError):
    """A feasibility and an infeasibility certificate for the same problem."""


# ---------------------------------------------------------------------------
# Outcomes and trace records


@dataclass(frozen=True, eq=False)
class Feasible:
    """eps-approximately feasible point with its residual vector."""

    x: Array
    residuals: Array


@dataclass(frozen=True, eq=False)
class Infeasible:
    """Distribution certifying min_x sum_j p_j r_j(x) > 0."""

    p_bar: Array


@dataclass(frozen=True, eq=False)
class EpsilonInfeasible:
    """Distribution certifying min_x sum_j p_j r_j(x) > -eps."""

    p_bar: Array


@dataclass(frozen=True, eq=False)
class Exhausted:
    """Iteration cap hit below the theoretical horizon; best iterate seen."""

    best_x: Array
    best_violation: float


Outcome = Union[Feasible, Infeasible, EpsilonInfeasible, Exhausted]


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    violated_index: int | None
    violation: float
    game_loss: float
    regret_bound: float
    elapsed_ns: int


@dataclass
class SolveResult:
    outcome: Outcome
    trace: tuple[TraceRecord, ...]
    iterations: int
    eps: float
    eps_effective: float
    algo: str
    learner: str | None


# ---------------------------------------------------------------------------
# Stopping rule


def stopping_threshold(spec: RegretBoundSpec, eps: float) -> int:
    """Smallest integer T >= 1 with regret_bound(spec, T) <= eps * T.

    Doubling then bisection; assumes the bound shapes are concave in T so
    the predicate is monotone once true.  Raises if no T below 2^62 works.
    """
    if not eps > 0:
        raise SetupError("eps must be positive")

    def ok(T: int) -> bool:
        return regret_bound(spec, T) <= eps * T

    if ok(1):
        return 1
    hi = 2
    while not ok(hi):
        hi *= 2
        if hi > MAX_THRESHOLD:
            raise SetupError("no stopping threshold below 2^62 for this bound and eps")
    lo = hi // 2  # ok(lo) is False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Primal learner plumbing shared by the solvers


def _primal_bound_spec(problem: Problem, learner: str) -> RegretBoundSpec:
    p = problem.params
    if learner == "ogd":
        if not p.H > 0:
            raise SetupError("OGD needs H > 0; strictify the problem or pick another learner")
        return ogd_bound_spec(p.G, p.H)
    if learner == "ons":
        if not p.alpha > 0:
            raise SetupError("ONS needs exp-concave costs (alpha > 0)")
        if not (p.G > 0 and p.D > 0):
            raise SetupError("ONS needs positive G and D")
        return ons_bound_spec(p.G, p.D, p.alpha, problem.n)
    if learner == "mw":
        if not isinstance(problem.domain, Simplex):
            raise SetupError("the MW primal learner needs a simplex domain")
        return mw_bound_spec(p.G, problem.n)
    raise SetupError(f"unknown learner {learner!r}")


def _init_primal(problem: Problem, learner: str, horizon: int):
    p = problem.params
    if learner == "ogd":
        return init_ogd(problem.domain, p.H)
    if learner == "ons":
        return init_ons(problem.domain, p.G, p.D)
    eta = min(0.5, math.sqrt(math.log(problem.n) / horizon)) if problem.n > 1 else 0.0
    return init_mw(problem.n, eta, p.G, "min")


def _primal_play(state) -> Array:
    return mw_point(state) if isinstance(state, MwState) else state.x


def _primal_step(state, grad, domain):
    if isinstance(state, OgdState):
        return ogd_step(state, grad, domain)
    if isinstance(state, OnsState):
        return ons_step(state, grad, domain, sense="min")
    return mw_step(state, grad)


def _emit(trace: list, sink, rec: TraceRecord) -> None:
    trace.append(rec)
    if sink is not None:
        sink(rec)


def _resolve_cap(T_star: int, max_iters: int | None) -> int:
    if max_iters is None:
        return T_star
    if max_iters < 1:
        raise SetupError("max_iters must be >= 1")
    return min(T_star, max_iters)


# ---------------------------------------------------------------------------
# Solvers


def primal_game_opt(problem: Problem, eps: float, learner: str = "ogd", *,
                    max_iters: int | None = None,
                    trace_sink: Callable[[TraceRecord], None] | None = None) -> SolveResult:
    """Point player learns; the separation oracle plays violated constraints.

    Per-iteration work outside the oracle call and the projection touches
    only the single violated constraint, so it is O(n) for OGD.
    """
    spec = _primal_bound_spec(problem, learner)
    T_star = stopping_threshold(spec, eps)
    cap = _resolve_cap(T_star, max_iters)
    state = _init_primal(problem, learner, T_star)
    counts = np.zeros(problem.m)
    best_violation = math.inf
    best_x = _primal_play(state)
    trace: list[TraceRecord] = []
    for t in range(1, cap + 1):
        t0 = time.perf_counter_ns()
        x_t = _primal_play(state)
        hit = separation_oracle(problem, x_t, eps)
        if hit is None:
            res = residuals(problem, x_t)
            worst = float(np.max(res))
            _emit(trace, trace_sink, TraceRecord(t, None, worst, worst,
                                                 regret_bound(spec, t),
                                                 time.perf_counter_ns() - t0))
            return SolveResult(Feasible(x=x_t, residuals=res), tuple(trace), t,
                               eps, eps, "primal", learner)
        counts[hit.index] += 1
        if hit.value < best_violation:
            best_violation = hit.value
            best_x = x_t.copy()
        g = residual_gradient(problem, hit.index, x_t)
        state = _primal_step(state, g, problem.domain)
        _emit(trace, trace_sink, TraceRecord(t, hit.index, hit.value, hit.value,
                                             regret_bound(spec, t),
                                             time.perf_counter_ns() - t0))
    if cap < T_star:
        outcome: Outcome = Exhausted(best_x=best_x, best_violation=best_violation)
    else:
        outcome = Infeasible(p_bar=counts / cap)
    return SolveResult(outcome, tuple(trace), cap, eps, eps, "primal", learner)


def _oracle_is_exact(problem: Problem) -> bool:
    # every mixture of affine residuals is affine: linear minimization is exact
    return problem.packed.affine


def dual_game_opt(problem: Problem, eps: float, *,
                  oracle_tol: float | None = None,
                  max_iters: int | None = None,
                  trace_sink: Callable[[TraceRecord], None] | None = None) -> SolveResult:
    """Weight player learns; the optimization oracle answers each mixture.

    The oracle is queried at tolerance eps/2 (unless overridden); when the
    approximate path is used the feasibility guarantee on the averaged point
    is eps + tol and is reported through eps_effective.
    """
    p = problem.params
    spec = mw_bound_spec(p.G_inf, problem.m)
    T_star = stopping_threshold(spec, eps)
    cap = _resolve_cap(T_star, max_iters)
    tol = 0.5 * eps if oracle_tol is None else oracle_tol
    eps_eff = eps if _oracle_is_exact(problem) else eps + tol
    eta = min(0.5, math.sqrt(math.log(problem.m) / T_star)) if problem.m > 1 else 0.0
    dual = init_mw(problem.m, eta, p.G_inf, "max")
    x_sum = np.zeros(problem.n)
    best_violation = math.inf
    best_x = start_point(problem.domain)
    trace: list[TraceRecord] = []
    for t in range(1, cap + 1):
        t0 = time.perf_counter_ns()
        p_t = mw_point(dual)
        x_t = optimization_oracle(problem, p_t, tol)
        if x_t is None:
            _emit(trace, trace_sink, TraceRecord(t, None, math.inf, math.inf,
                                                 regret_bound(spec, t),
                                                 time.perf_counter_ns() - t0))
            return SolveResult(Infeasible(p_bar=p_t), tuple(trace), t,
                               eps, eps_eff, "dual", "mw")
        r = residuals(problem, x_t)
        worst = float(np.max(r))
        x_sum += x_t
        if worst < best_violation:
            best_violation = worst
            best_x = x_t.copy()
        dual = mw_step(dual, r)
        _emit(trace, trace_sink, TraceRecord(t, None, worst, float(p_t @ r),
                                             regret_bound(spec, t),
                                             time.perf_counter_ns() - t0))
    if cap < T_star:
        return SolveResult(Exhausted(best_x=best_x, best_violation=best_violation),
                           tuple(trace), cap, eps, eps_eff, "dual", "mw")
    x_bar = x_sum / cap
    return SolveResult(Feasible(x=x_bar, residuals=residuals(problem, x_bar)),
                       tuple(trace), cap, eps, eps_eff, "dual", "mw")


def primal_dual_game_opt(problem: Problem, eps: float, learner: str = "ogd", *,
                         max_iters: int | None = None,
                         trace_sink: Callable[[TraceRecord], None] | None = None) -> SolveResult:
    """Both players learn, each with regret budget eps/2.

    Returns the eps-feasible point average, or the weight average as an
    eps-infeasibility certificate (even the eps-relaxed system has no
    solution).  The trace's regret_bound column reports the point player's
    bound, which is the one selected by ``learner``.
    """
    half = 0.5 * eps
    pspec = _primal_bound_spec(problem, learner)
    dspec = mw_bound_spec(problem.params.G_inf, problem.m)
    T_star = max(stopping_threshold(pspec, half), stopping_threshold(dspec, half))
    cap = _resolve_cap(T_star, max_iters)
    state = _init_primal(problem, learner, T_star)
    eta = min(0.5, math.sqrt(math.log(problem.m) / T_star)) if problem.m > 1 else 0.0
    dual = init_mw(problem.m, eta, problem.params.G_inf, "max")
    x_sum = np.zeros(problem.n)
    p_sum = np.zeros(problem.m)
    best_violation = math.inf
    best_x = start_point(problem.domain)
    trace: list[TraceRecord] = []
    for t in range(1, cap + 1):
        t0 = time.perf_counter_ns()
        x_t = _primal_play(state)
        p_t = mw_point(dual)
        r = residuals(problem, x_t)
        worst = float(np.max(r))
        gx = mixed_gradient(problem, p_t, x_t)
        x_sum += x_t
        p_sum += p_t
        if worst < best_violation:
            best_violation = worst
            best_x = x_t.copy()
        state = _primal_step(state, gx, problem.domain)
        dual = mw_step(dual, r)
        _emit(trace, trace_sink, TraceRecord(t, None, worst, float(p_t @ r),
                                             regret_bound(pspec, t),
                                             time.perf_counter_ns() - t0))
    if cap < T_star:
        return SolveResult(Exhausted(best_x=best_x, best_violation=best_violation),
                           tuple(trace), cap, eps, eps, "primal-dual", learner)
    x_bar = x_sum / cap
    res = residuals(problem, x_bar)
    if float(np.max(res)) <= eps:
        outcome: Outcome = Feasible(x=x_bar, residuals=res)
    else:
        outcome = EpsilonInfeasible(p_bar=p_sum / cap)
    return SolveResult(outcome, tuple(trace), cap, eps, eps, "primal-dual", learner)


# ---------------------------------------------------------------------------
# Certificate verification


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    method: str
    value: float | None = None
    slack: float | None = None
    witness_index: int | None = None
    message: str = ""


def _grid_certificate(problem: Problem, p: Array, threshold: float,
                      resolution: float) -> VerificationReport:
    X = domain_grid(problem.domain, resolution)
    mix = Mixture(problem, p)
    vals = mix.value_batch(X)
    k = int(np.argmin(vals))
    gmin = float(vals[k])
    sample = X[:: max(1, X.shape[0] // 256)]
    gmax = max(float(np.linalg.norm(mix.gradient(x))) for x in sample)
    slack = resolution * gmax
    ok = gmin > threshold
    msg = "" if ok else f"grid point with mixed residual {gmin:.6g} <= {threshold:.6g}"
    return VerificationReport(ok=ok, method="grid", value=gmin, slack=slack, message=msg)


def _pgd_certificate(problem: Problem, p: Array, threshold: float) -> VerificationReport:
    mix = Mixture(problem, p)
    res = minimize_over_domain(mix.value, mix.gradient, problem.domain, tol=1e-9,
                               max_iters=200_000, on_cap="return")
    ok = res.lower_bound > threshold
    msg = "" if ok else (
        f"certified lower bound {res.lower_bound:.6g} does not exceed {threshold:.6g}"
    )
    return VerificationReport(ok=ok, method="pgd", value=res.lower_bound, message=msg)


def verify_certificate(problem: Problem, outcome: Outcome, eps: float, *,
                       method: str = "auto", resolution: float = 1e-3) -> VerificationReport:
    """Independent check of a solver outcome.

    Feasible points are re-evaluated against eps.  Infeasibility weight
    vectors are checked to keep the mixed residual above 0 (or above -eps
    for the eps-relaxed claim) over a dense grid (n <= 3) or through the
    certified descent lower bound.
    """
    if isinstance(outcome, Feasible):
        res = residuals(problem, outcome.x)
        worst = int(np.argmax(res))
        ok = float(res[worst]) <= eps
        return VerificationReport(
            ok=ok, method="evaluate", value=float(res[worst]),
            witness_index=None if ok else worst,
            message="" if ok else f"constraint {worst} has residual {res[worst]:.6g} > {eps:.6g}",
        )
    if isinstance(outcome, Exhausted):
        return VerificationReport(ok=True, method="none",
                                  message="exhausted run carries no certificate")
    if isinstance(outcome, (Infeasible, EpsilonInfeasible)):
        p = check_distribution(outcome.p_bar, problem.m)
        threshold = 0.0 if isinstance(outcome, Infeasible) else -eps
        if method == "auto":
            method = "grid" if problem.n <= 3 else "pgd"
        if method == "grid":
            if problem.n > 3:
                raise SetupError("grid verification is limited to n <= 3")
            return _grid_certificate(problem, p, threshold, resolution)
        if method == "pgd":
            return _pgd_certificate(problem, p, threshold)
        raise SetupError(f"unknown verification method {method!r}")
    raise SetupError(f"not a solver outcome: {outcome!r}")


def assert_no_contradiction(outcomes: Iterable[Outcome]) -> None:
    """Raise if a Feasible point and an Infeasible certificate coexist.

    Feasible certifies a point with residuals <= eps; Infeasible certifies
    that some mixture of constraints is positive everywhere.  Run at an eps
    below the instance's violation depth the pair is impossible, so seeing
    both there is an implementation error, not an unlucky instance.
    EpsilonInfeasible may legitimately coexist with Feasible.
    """
    outcomes = list(outcomes)
    has_feasible = any(isinstance(o, Feasible) for o in outcomes)
    has_infeasible = any(isinstance(o, Infeasible) for o in outcomes)
    if has_feasible and has_infeasible:
        raise CertificateContradiction(
            "a Feasible point and an Infeasible certificate were produced for the same problem"
        )
