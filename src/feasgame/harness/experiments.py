"""Regret and iteration-scaling experiments, plus the solver dispatcher."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ..core import Ball, Problem, Quadratic, SetupError, gradient
from ..online import init_ogd, measured_regret, mw_learning_rate, ogd_step
from ..problems import GeneratorSpec, make_problem_from_spec
from ..solvers import (
    Exhausted,
    SolveResult,
    dual_game_opt,
    primal_dual_game_opt,
    primal_game_opt,
)


def run_solver(problem: Problem, algo: str, learner: str | None, eps: float, *,
               max_iters: int | None = None, trace_sink=None) -> SolveResult:
    """Dispatch one solve by algorithm tag; dual runs are always MW."""
    if algo == "primal":
        return primal_game_opt(problem, eps, learner or "ogd",
                               max_iters=max_iters, trace_sink=trace_sink)
    if algo == "dual":
        if learner not in (None, "mw"):
            raise SetupError("the dual solver's weight player is always MW")
        return dual_game_opt(problem, eps, max_iters=max_iters,
                             trace_sink=trace_sink)
    if algo == "primal-dual":
        return primal_dual_game_opt(problem, eps, learner or "ogd",
                                    max_iters=max_iters, trace_sink=trace_sink)
    raise SetupError(f"unknown algorithm {algo!r}")


@dataclass
class ExperimentReport:
    """One experiment's axis, measurements, and log-log fit."""

    kind: str
    algo: str | None
    learner: str | None
    ladder: tuple[float, ...]
    values: tuple[float, ...]
    exponent: float
    exponent_residual: float
    wall_times_s: tuple[float, ...]
    incomplete: bool = False
    details: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return asdict(self)


def fit_exponent(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log y against log x, with RMS residual."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    slope, intercept = np.polyfit(lx, ly, 1)
    rms = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), rms


# ---------------------------------------------------------------------------
# Regret streams


class SignsRun(NamedTuple):
    regret: float
    advantage: float


def mw_signs_regret(T: int, seed: int) -> SignsRun:
    """MW on the two-expert +/-1 stream (costs g_t = (r_t, -r_t), G_inf = 1)
    at the learning rate mw_learning_rate(2, T).

    Closed-form fast path: with weights w1 = prod(1 - eta r_s) and
    w2 = prod(1 + eta r_s), the played loss at round t is
    -r_t * tanh(c S_{t-1} / 2) where S is the prefix sign sum and
    c = log(1+eta) - log(1-eta).  Matches the step-by-step learner to
    rounding; the equivalence is pinned by a test.
    """
    if T < 1:
        raise SetupError("T must be >= 1")
    rng = np.random.default_rng(seed)
    r = rng.integers(0, 2, T) * 2.0 - 1.0
    eta = mw_learning_rate(2, T)
    c = math.log1p(eta) - math.log1p(-eta)
    S = np.cumsum(r)
    S_prev = np.concatenate([[0.0], S[:-1]])
    played = -r * np.tanh(0.5 * c * S_prev)
    advantage = abs(float(S[-1]))
    return SignsRun(regret=float(np.sum(played)) + advantage, advantage=advantage)


def ogd_quadratic_stream_regret(T: int, seed: int, *,
                                checkpoints: Sequence[int] | None = None,
                                ) -> list[tuple[int, float]]:
    """OGD on the stream f_t(x) = 0.5 ||x - z_t||^2 over the unit ball in R^5.

    The costs are 1-strongly convex with gradients bounded by 2.  Returns
    (T_i, measured regret) at each checkpoint of a single run.
    """
    if T < 1:
        raise SetupError("T must be >= 1")
    checkpoints = sorted(set(checkpoints or [T]))
    if checkpoints[-1] > T or checkpoints[0] < 1:
        raise SetupError("checkpoints must lie in [1, T]")
    n = 5
    domain = Ball(n=n, radius=1.0, center=np.zeros(n))
    zs = domain.sample(T, seed=seed)
    half_eye = 0.5 * np.eye(n)
    state = init_ogd(domain, 1.0)
    fs, xs = [], []
    for t in range(T):
        z = zs[t]
        f = Quadratic(A=half_eye, b=-z, c=0.5 * float(z @ z))
        fs.append(f)
        xs.append(state.x)
        state = ogd_step(state, gradient(f, state.x), domain)
    return [(c, measured_regret(fs[:c], xs[:c], domain)) for c in checkpoints]


def regret_experiment(learner: str, T: int = 10_000, seeds: int = 20) -> ExperimentReport:
    """Measured-regret growth for one learner on its adversarial stream.

    MW runs the +/-1 two-expert stream over `seeds` streams per ladder
    point and fits mean regret against T; OGD runs a single strongly
    convex stream and fits regret at prefix checkpoints.
    """
    ladder = sorted({10 ** k for k in range(2, 7) if 10 ** k <= T} | {T})
    if len(ladder) < 3:
        raise SetupError("T too small for an exponent fit; need T >= 10^4")
    values, walls = [], []
    details: dict = {}
    if learner == "mw":
        advantages = []
        worst_ratio = 0.0
        for T_i in ladder:
            t0 = time.perf_counter()
            runs = [mw_signs_regret(T_i, s) for s in range(seeds)]
            walls.append(time.perf_counter() - t0)
            values.append(float(np.mean([r.regret for r in runs])))
            advantages.append(float(np.mean([r.advantage for r in runs])))
            bound = 2.0 * math.sqrt(T_i * math.log(2.0))
            worst_ratio = max(worst_ratio, max(r.regret for r in runs) / bound)
        details["mean_advantage"] = advantages[-1]
        details["max_regret_over_bound"] = worst_ratio
    elif learner == "ogd":
        t0 = time.perf_counter()
        pairs = ogd_quadratic_stream_regret(max(ladder), seed=0,
                                            checkpoints=[int(t) for t in ladder])
        wall = time.perf_counter() - t0
        walls = [wall / len(ladder)] * len(ladder)
        values = [max(reg, 1e-12) for _, reg in pairs]
        details["regret_over_log_t"] = max(
            reg / math.log(t) for t, reg in pairs if t > 1
        )
    else:
        raise SetupError(f"no regret stream for learner {learner!r}")
    exponent, rms = fit_exponent(ladder, values)
    return ExperimentReport(kind="regret", algo=None, learner=learner,
                            ladder=tuple(float(t) for t in ladder),
                            values=tuple(values), exponent=exponent,
                            exponent_residual=rms, wall_times_s=tuple(walls),
                            details=details)


# ---------------------------------------------------------------------------
# Iteration scaling


def scaling_experiment(spec: GeneratorSpec, algo: str, learner: str | None,
                       eps_ladder: Sequence[float], *,
                       max_iters: int | None = None) -> ExperimentReport:
    """Iterations needed per eps on one generated instance, with a fit
    of iterations against 1/eps.  The solves run one after another: each
    holds the GIL, so worker threads would only slow them down."""
    ladder = [float(e) for e in eps_ladder]
    if len(ladder) < 3:
        raise SetupError("need at least 3 eps values")
    for a, b in zip(ladder, ladder[1:]):
        if abs(b - 0.5 * a) > 1e-9 * a:
            raise SetupError("eps ladder must halve at each step")
    problem = make_problem_from_spec(spec)
    iterations, walls, incomplete = [], [], False
    for eps in ladder:
        t0 = time.perf_counter()
        result = run_solver(problem, algo, learner, eps, max_iters=max_iters)
        walls.append(time.perf_counter() - t0)
        iterations.append(float(result.iterations))
        incomplete |= isinstance(result.outcome, Exhausted)
    exponent, rms = fit_exponent([1.0 / e for e in ladder], iterations)
    return ExperimentReport(kind="scaling", algo=algo, learner=learner,
                            ladder=tuple(ladder), values=tuple(iterations),
                            exponent=exponent, exponent_residual=rms,
                            wall_times_s=tuple(walls), incomplete=incomplete,
                            details={"family": spec.family, "n": spec.n,
                                     "m": spec.m, "seed": spec.seed})
