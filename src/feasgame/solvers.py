"""Game-based feasibility solvers and certificate checking.

Every solver plays one repeated zero-sum game between a point player over
the domain and a weight player over constraint indices, with payoff
g(x, p) = sum_j p_j r_j(x) (r_j the constraint values).  Each player is
either a no-regret learner (OGD, ONS or MW) or an oracle that best-responds
to the other's play, and may answer FAIL when no response exists.  The game
ends at the horizon T*, the first t at which the learners' worst-case
regret bounds drop below eps * t, or earlier when an oracle FAILs; one
driver (_play_game) runs it for the three pairings, which differ only in
what a round is and in what the horizon's end certifies:

* primal_game_opt: a learner picks points, the separation oracle answers
  with a violated constraint.  An oracle FAIL yields an eps-feasible point;
  surviving the full horizon yields a dual distribution p_bar (the visit
  frequencies) with min_x g(x, p_bar) > 0 (infeasible).  A round whose
  point did not move costs the learner's step alone (see primal_game_opt).
* dual_game_opt: multiplicative weights picks distributions, the
  optimization oracle answers with near-minimizing points.  An oracle FAIL
  certifies infeasibility outright; otherwise the point average is
  approximately feasible (eps plus the oracle tolerance).
* primal_dual_game_opt: both players learn, with budget eps/2 each; the
  point average is eps-feasible, or the weight average certifies that even
  relaxing every constraint by eps leaves the system infeasible.

Stopping always uses the theoretical regret-bound formula, never measured
regret, so iteration counts are deterministic for a given instance.

verify_certificate re-evaluates a Feasible point and proves a weight vector
by the certified descent's Frank-Wolfe lower bound (Jaggi, 2013).  It and
the regret bounds need convex constraints: an indefinite quadratic is refused.

Every round's TraceRecord goes to the solver's trace_sink (the CLI's
--trace file); SolveResult.trace keeps a log-spaced sample of them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Union, get_args

import numpy as np

from .core import (
    Array,
    Mixture,
    Problem,
    SetupError,
    Simplex,
    Vector,
    check_distribution,
    residual_gradient,
    residuals,
    residuals_and_mixed_gradient,
    separation_oracle,
)
from .descent import minimize_over_domain, optimization_oracle
from .online import (
    MwState,
    RegretBoundSpec,
    init_mw,
    init_ogd,
    init_ons,
    mw_bound_spec,
    mw_learning_rate,
    mw_point,
    mw_step,
    ogd_bound_spec,
    ogd_step,
    ons_bound_spec,
    ons_step,
    regret_bound_curve,
)

MAX_THRESHOLD = 2**62


class CertificateContradiction(RuntimeError):
    """A feasibility and an infeasibility certificate for the same problem."""


# ---------------------------------------------------------------------------
# Outcomes and trace records
#
# Each outcome kind is one frozen dataclass holding its outcome-document
# ``tag`` and its fields, annotated with their file types as a domain's
# are; OUTCOMES maps document kinds to the classes.


@dataclass(frozen=True, eq=False)
class Feasible:
    """eps-approximately feasible point with its residual vector; an
    outcome document of kind "feasible" carries both."""

    tag = "feasible"
    x: Vector
    residuals: Vector


@dataclass(frozen=True, eq=False)
class Infeasible:
    """Distribution certifying min_x sum_j p_j r_j(x) > 0 (document kind
    "infeasible")."""

    tag = "infeasible"
    p_bar: Vector


@dataclass(frozen=True, eq=False)
class EpsilonInfeasible:
    """Distribution certifying min_x sum_j p_j r_j(x) > -eps (document kind
    "epsilon_infeasible")."""

    tag = "epsilon_infeasible"
    p_bar: Vector


@dataclass(frozen=True, eq=False)
class Exhausted:
    """Iteration cap hit below the theoretical horizon; best iterate seen
    and its worst violation (document kind "exhausted")."""

    tag = "exhausted"
    best_x: Vector
    best_violation: float


Outcome = Union[Feasible, Infeasible, EpsilonInfeasible, Exhausted]

# The outcome kinds by outcome-document kind.
OUTCOMES = {cls.tag: cls for cls in get_args(Outcome)}


class TraceRecord(NamedTuple):
    """One round of a solve; a named tuple, which costs a round less to
    build than a frozen dataclass."""

    iteration: int
    violated_index: int | None
    violation: float
    game_loss: float
    regret_bound: float
    elapsed_ns: int


@dataclass
class SolveResult:
    """A solve's outcome and how the run went.

    trace holds the records of rounds 1, 2, 4, ..., 2^k <= iterations and of
    round iterations itself (at most 64 records); every round's record went
    to the trace_sink.  T_star is the horizon the stopping rule fixed, and
    ended_by says what stopped the run: "oracle" (an oracle FAILed),
    "horizon" (T_star rounds played) or "cap" (max_iters rounds played,
    fewer than T_star).
    """

    outcome: Outcome
    trace: tuple[TraceRecord, ...]
    iterations: int
    T_star: int
    ended_by: str
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
    Every solver, and so the scaling experiment, takes T* from here, so an
    eps that is not a positive finite float (a NaN or an infinity, which no
    outcome document can carry) is refused here with SetupError.
    """
    if not 0 < eps < math.inf:
        raise SetupError(f"eps must be a positive finite float, got {eps!r}")

    bound = regret_bound_curve(spec)

    def ok(T: int) -> bool:
        return bound(T) <= eps * T

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
# Players and the game


class _Learner(NamedTuple):
    """A no-regret player: its regret bound, init(T*), play(state), step(state, grad).

    The layer functions are named inside the lambdas so that they are looked
    up on this module at call time, where a tracer or a test may wrap them.
    """

    spec: RegretBoundSpec
    init: Callable[[int], object]
    play: Callable[[object], Array]
    step: Callable[[object, Array], object]


def _mw(n: int, G_inf: float, direction: str) -> _Learner:
    return _Learner(mw_bound_spec(G_inf, n),
                    lambda T: init_mw(n, mw_learning_rate(n, T), G_inf, direction),
                    lambda s: mw_point(s), lambda s, g: mw_step(s, g))


def _check_scale(state, spec: RegretBoundSpec, name: str) -> None:
    """SetupError where an MW player's payoff scale grew past the constant
    (named name) that its regret bound, and so T*, assumed: its horizon
    then certifies nothing.  Other players' states pass."""
    if isinstance(state, MwState) and state.G_inf > spec.G_inf:
        raise SetupError(f"MW payoff scale grew to {state.G_inf!r} past {name} = {spec.G_inf!r}")


def _point_learner(problem: Problem, learner: str) -> _Learner:
    """The point player's learner by name; refuses a pairing its bound cannot cover."""
    p, domain = problem.params, problem.domain
    if learner == "ogd":
        if not p.H > 0:
            raise SetupError("OGD needs H > 0; strictify the problem or pick another learner")
        return _Learner(ogd_bound_spec(p.G, p.H), lambda T: init_ogd(domain, p.H),
                        lambda s: s.x, lambda s, g: ogd_step(s, g, domain))
    if learner == "ons":
        if not p.alpha > 0:
            raise SetupError("ONS needs exp-concave costs (alpha > 0)")
        if not (p.G > 0 and p.D > 0):
            raise SetupError("ONS needs positive G and D")
        return _Learner(ons_bound_spec(p.G, p.D, p.alpha, problem.n),
                        lambda T: init_ons(domain, p.G, p.D),
                        lambda s: s.x, lambda s, g: ons_step(s, g, domain))
    if learner == "mw":
        if not isinstance(domain, Simplex):
            raise SetupError("the MW primal learner needs a simplex domain")
        return _mw(problem.n, p.G, "min")
    raise SetupError(f"unknown learner {learner!r}")


# One round: (x_t, violated index, violation, game loss, outcome when an oracle FAILs)
_Round = tuple[Array | None, int | None, float, float, Outcome | None]


def _max_and_loss(r: Array, p: Array) -> tuple[float, float]:
    """max_j r_j and p.r for a weight player's round: r.max() and p @ r bit
    for bit (r and p are new float64 vectors), without ndarray.max's wrapper
    and matmul's dispatch."""
    return float(np.maximum.reduce(r)), float(p.dot(r))


def _play_game(problem: Problem, spec: RegretBoundSpec, T_star: int, round_: Callable[[], _Round],
               horizon_outcome: Callable[[int], Outcome], max_iters: int | None,
               trace_sink: Callable[[TraceRecord], None] | None
               ) -> tuple[Outcome, tuple[TraceRecord, ...], int, int, str]:
    """Play rounds until an oracle FAILs or the horizon ends.

    Keeps the records of rounds 1, 2, 4, ... and of the last round, and
    hands every round's record to trace_sink when there is one (the bound
    column is regret_bound(spec, t), to the bit); a record no one receives
    is not built.  An indefinite quadratic, a row that packed.bounds refuses,
    or max_iters not an int >= 1 (a bool, a float or a NaN included), raises
    SetupError before the first round.  A cap below T* ends in Exhausted
    with the least-violating point, since only the full horizon certifies
    horizon_outcome(T*), which checks what T* assumed (_check_scale); only
    such a run tracks that point.  Returns the outcome, the sampled records,
    the rounds played, T* and what ended the run (see SolveResult).
    """
    if problem.packed.indefinite:
        raise SetupError(f"constraint {problem.packed.indefinite[0]} is an indefinite "
                         "quadratic; the solvers need convex constraints")
    problem.packed.bounds  # raises where a row has no bounds over the domain
    if max_iters is None:
        cap = T_star
    elif isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 1:
        raise SetupError(f"max_iters must be >= 1 and an int (not a bool), got {max_iters!r}")
    else:
        cap = min(T_star, max_iters)
    capped = cap < T_star
    best_x, best_violation = problem.domain.start(), math.inf
    bound, clock = regret_bound_curve(spec), time.perf_counter_ns
    sample: list[TraceRecord] = []
    for t in range(1, cap + 1):
        t0 = clock()
        x_t, index, violation, loss, stop = round_()
        # a power of two or the last round
        keep = not t & (t - 1) or stop is not None or t == cap
        if keep or trace_sink is not None:
            rec = TraceRecord(t, index, violation, loss, bound(t), clock() - t0)
            if trace_sink is not None:
                trace_sink(rec)
            if keep:
                sample.append(rec)
        if stop is not None:
            ended_by = "oracle"
            break
        if capped and violation < best_violation:
            best_violation, best_x = violation, x_t.copy()
    else:
        if capped:
            stop, ended_by = Exhausted(best_x=best_x, best_violation=best_violation), "cap"
        else:
            stop, ended_by = horizon_outcome(cap), "horizon"
    return stop, tuple(sample), t, T_star, ended_by


# ---------------------------------------------------------------------------
# Solvers: the paper's three pairings


def primal_game_opt(problem: Problem, eps: float, learner: str = "ogd", *,
                    max_iters: int | None = None,
                    trace_sink: Callable[[TraceRecord], None] | None = None) -> SolveResult:
    """Point player learns; the separation oracle plays violated constraints.

    Per-iteration work outside the oracle call and the projection touches
    only the single violated constraint, so it is O(n) for OGD.  A round
    whose point has the same bits as the previous round's re-uses that
    round's violation and gradient instead of asking again; an oracle FAIL
    ends the game, so it is never re-used.
    """
    player = _point_learner(problem, learner)
    T_star = stopping_threshold(player.spec, eps)
    state = player.init(T_star)
    counts = [0] * problem.m  # exact ints: a list element adds faster than a numpy one
    # the bytes of the last point the oracle was asked at, its answer and
    # the violated row's gradient there
    asked, hit, grad = None, None, None

    def round_() -> _Round:
        nonlocal state, asked, hit, grad
        x_t = player.play(state)
        # oracle and gradient are functions of the bits of x (a -0.0 against
        # a 0.0 may flip the sign of a zero sum, so equal values are not
        # enough); no step writes into its gradient, so it can be re-used
        key = x_t.tobytes()
        if key != asked:
            hit = separation_oracle(problem, x_t, eps)
            if hit is None:  # FAIL: no constraint is violated by more than eps
                res = residuals(problem, x_t)
                worst = float(res.max())
                return x_t, None, worst, worst, Feasible(x=x_t, residuals=res)
            asked, grad = key, residual_gradient(problem, hit.index, x_t)
        counts[hit.index] += 1
        state = player.step(state, grad)
        return x_t, hit.index, hit.value, hit.value, None

    def horizon_outcome(T: int) -> Outcome:
        _check_scale(state, player.spec, "G")
        return Infeasible(p_bar=np.array(counts, float) / T)

    return SolveResult(*_play_game(problem, player.spec, T_star, round_,
                                   horizon_outcome, max_iters, trace_sink),
                       eps, eps, "primal", learner)


def dual_game_opt(problem: Problem, eps: float, *,
                  max_iters: int | None = None,
                  trace_sink: Callable[[TraceRecord], None] | None = None) -> SolveResult:
    """Weight player learns; the optimization oracle answers each mixture.

    The oracle is queried at tolerance eps/2; when the approximate path is
    used the feasibility guarantee on the averaged point is 3 eps/2 and is
    reported through eps_effective.
    """
    weights = _mw(problem.m, problem.params.G_inf, "max")
    T_star = stopping_threshold(weights.spec, eps)
    tol = 0.5 * eps
    # every mixture of affine residuals is affine: linear minimization is exact
    eps_eff = eps if problem.packed.affine else eps + tol
    dual = weights.init(T_star)
    x_sum = np.zeros(problem.n)

    def round_() -> _Round:
        nonlocal dual, x_sum
        p_t = weights.play(dual)
        x_t = optimization_oracle(problem, p_t, tol)
        if x_t is None:  # FAIL: the mixture p_t is positive everywhere
            return None, None, math.inf, math.inf, Infeasible(p_bar=p_t)
        r = residuals(problem, x_t)
        x_sum += x_t
        dual = weights.step(dual, r)
        return x_t, None, *_max_and_loss(r, p_t), None

    def horizon_outcome(T: int) -> Outcome:
        _check_scale(dual, weights.spec, "G_inf")
        x_bar = x_sum / T
        return Feasible(x=x_bar, residuals=residuals(problem, x_bar))

    return SolveResult(*_play_game(problem, weights.spec, T_star, round_,
                                   horizon_outcome, max_iters, trace_sink),
                       eps, eps_eff, "dual", "mw")


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
    player = _point_learner(problem, learner)
    weights = _mw(problem.m, problem.params.G_inf, "max")
    T_star = max(stopping_threshold(player.spec, half), stopping_threshold(weights.spec, half))
    state, dual = player.init(T_star), weights.init(T_star)
    x_sum, p_sum = np.zeros(problem.n), np.zeros(problem.m)

    def round_() -> _Round:
        nonlocal state, dual, x_sum, p_sum
        x_t, p_t = player.play(state), weights.play(dual)
        r, g = residuals_and_mixed_gradient(problem, p_t, x_t)
        x_sum += x_t
        p_sum += p_t
        state = player.step(state, g)
        dual = weights.step(dual, r)
        return x_t, None, *_max_and_loss(r, p_t), None

    def horizon_outcome(T: int) -> Outcome:
        _check_scale(state, player.spec, "G")
        _check_scale(dual, weights.spec, "G_inf")
        x_bar = x_sum / T
        res = residuals(problem, x_bar)
        if float(res.max()) <= eps:
            return Feasible(x=x_bar, residuals=res)
        return EpsilonInfeasible(p_bar=p_sum / T)

    return SolveResult(*_play_game(problem, player.spec, T_star, round_,
                                   horizon_outcome, max_iters, trace_sink),
                       eps, eps, "primal-dual", learner)


# ---------------------------------------------------------------------------
# Certificate verification


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    method: str
    value: float | None = None
    witness_index: int | None = None
    message: str = ""
    steps: int | None = None  # the certified descent's iterations; None where none ran


def verify_certificate(problem: Problem, outcome: Outcome, eps: float) -> VerificationReport:
    """Independent check of a solver outcome.

    Feasible points are re-evaluated against eps.  An infeasibility weight
    vector p is accepted when the certified descent proves the mixed
    residual min_x sum_j p_j r_j(x) above 0 (above -eps for the eps-relaxed
    claim): the Frank-Wolfe lower bound at a descent iterate bounds that
    minimum from below on every domain and at every n, so one route serves
    them all; value is the bound it proved in steps descent steps.  It
    makes the optimization oracle's call, with tol 1e-9 and no stop_below
    (FISTA's momentum and restart from a plain 1/L first step at a finite
    smoothness, else the line search without momentum; see
    minimize_over_domain), unless the problem has an indefinite quadratic,
    which the report names.  A NaN or an infinite eps raises SetupError.
    """
    if not math.isfinite(eps):
        raise SetupError(f"eps must be finite, got {eps!r}")
    if isinstance(outcome, Feasible):
        res = residuals(problem, outcome.x)
        worst = int(np.argmax(res))
        ok = float(res[worst]) <= eps
        return VerificationReport(
            ok=ok, method="evaluate", value=float(res[worst]),
            witness_index=None if ok else worst,
            message="" if ok else f"constraint {worst} has residual {res[worst]:.6g} > {eps:.6g}")
    if isinstance(outcome, Exhausted):
        return VerificationReport(ok=True, method="none",
                                  message="exhausted run carries no certificate")
    if isinstance(outcome, (Infeasible, EpsilonInfeasible)):
        p = check_distribution(outcome.p_bar, problem.m)
        if problem.packed.indefinite:
            j = problem.packed.indefinite[0]
            return VerificationReport(ok=False, method="pgd", witness_index=j,
                                      message=f"constraint {j} is an indefinite quadratic")
        threshold = 0.0 if isinstance(outcome, Infeasible) else -eps
        mix = Mixture(problem, p)
        res = minimize_over_domain(mix.value_and_gradient, problem.domain,
                                   smoothness=mix.smoothness, tol=1e-9)
        ok = res.lower_bound > threshold
        return VerificationReport(
            ok=ok, method="pgd", value=res.lower_bound, steps=res.iterations,
            message="" if ok else (f"certified lower bound {res.lower_bound:.6g} "
                                   f"does not exceed {threshold:.6g}"))
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
