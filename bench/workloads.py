"""Benchmark workloads, the user pipeline they run, and its correctness gate.

Every workload goes through the pipeline a user of the library or the CLI
goes through: build the instance (generator, parameter estimation, and
``log_transform`` where it applies) and compute the horizon T*, solve with
``run_solver``, emit the outcome document, and re-check it from the emitted
text with ``verify_outcome_document``, which is what ``feasgame verify`` does.

Timed passes always run the instance of ``PIN_SEED``, whose outcome kind and
iteration count are pinned below: the work of one solve depends on the
instance so strongly (``dual-descent`` takes 1,148, 710 and 3,838 iterations
on generator seeds 0, 1 and 2) that timings of different instances cannot
be compared.  The run's ``--seed`` picks a held-out instance of the same
family that is solved and verified once, for correctness only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

from feasgame import (
    approx_translate,
    log_transform,
    make_perceptron_lp,
    make_portfolio_risk,
    mw_bound_spec,
    ogd_bound_spec,
    ons_bound_spec,
    stopping_threshold,
)
from feasgame import harness
from spans import Site

PIN_SEED = 0
N, M = 10, 20


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "perceptron" (infeasible LP) or "portfolio"
    algo: str
    learner: str | None
    eps: float  # the tolerance the solver runs at (log scale after log_transform)
    log_transform: bool
    kind: str  # pinned outcome kind on PIN_SEED
    iterations: int  # pinned solver iterations on PIN_SEED
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("primal-ons", "perceptron", "primal", "ons", 0.05, True, "Infeasible", 38_473,
             "exp-concave primal route: ONS steps and the A-norm generalized_project do "
             "most of the work"),
    Workload("primal-dual-ogd", "portfolio", "primal-dual", "ogd", 0.05, False,
             "Feasible", 18_970,
             "per-constraint Python dispatch in core (residuals, residual_gradient) "
             "dominates the primal-dual loop"),
    Workload("dual-descent", "portfolio", "dual", None, 0.025, False, "Infeasible", 1_148,
             "dual MW loop whose optimization oracle runs projected gradient descent over "
             "scalar evaluate/gradient and smoothness_bound"),
    Workload("certify", "perceptron", "dual", None, 0.025, False, "Infeasible", 2,
             "closed-form oracle fails at once; the certified descent that verifies the "
             "certificate is almost all of the run"),
)}


class Horizon(NamedTuple):
    """T* and the regret bound that sets it, with that bound's constant."""

    T_star: int
    bound: str
    constant: float


BOUND_CONSTANTS = {
    "ogd": "G^2/H",
    "ons": "5(1/alpha+G*D)*n",
    "mw": "2*G_inf*sqrt(log m)",
}


def _bound_constant(spec) -> float:
    if spec.algorithm == "ogd":
        return spec.G**2 / spec.H
    if spec.algorithm == "ons":
        return 5.0 * (1.0 / spec.alpha + spec.G * spec.D) * spec.n
    return 2.0 * spec.G_inf * math.sqrt(math.log(spec.n))


def horizon(problem, w: Workload) -> Horizon:
    """T* as the solver computes it, from the public bound specs.

    The primal-dual solver splits eps between its players and runs for the
    larger of their two thresholds.
    """
    p = problem.params
    specs = []
    if w.algo in ("primal", "primal-dual"):
        specs.append(ogd_bound_spec(p.G, p.H) if w.learner == "ogd"
                     else ons_bound_spec(p.G, p.D, p.alpha, problem.n))
    if w.algo in ("dual", "primal-dual"):
        specs.append(mw_bound_spec(p.G_inf, problem.m))
    eps = 0.5 * w.eps if w.algo == "primal-dual" else w.eps
    T_star, spec = max(((stopping_threshold(s, eps), s) for s in specs),
                       key=lambda pair: pair[0])
    return Horizon(T_star, BOUND_CONSTANTS[spec.algorithm], _bound_constant(spec))


@dataclass(frozen=True)
class Instance:
    problem: object  # the problem the solver runs on
    original: object | None
    transforms: tuple
    eps_original: float | None
    horizon: Horizon


def build(w: Workload, seed: int) -> Instance:
    """Generate, estimate, transform, and compute T*: the set-up a user pays."""
    if w.family == "perceptron":
        base = make_perceptron_lp(N, M, feasible=False, seed=seed)
    else:
        base = make_portfolio_risk(N, M, seed=seed)
    if not w.log_transform:
        return Instance(base, None, (), None, horizon(base, w))
    omega = base.params.omega
    problem = log_transform(base, omega)
    transforms = ({"kind": "log_transform", "omega": omega, "eps_log": w.eps},)
    return Instance(problem, base, transforms, approx_translate(w.eps, omega),
                    horizon(problem, w))


class Pass(NamedTuple):
    """One trip through the pipeline with its stage times in seconds."""

    setup_s: float
    solve_s: float
    verify_s: float
    instance: Instance
    result: object
    text: str
    report: object


def solve(w: Workload, inst: Instance, trace_sink=None):
    return harness.run_solver(inst.problem, w.algo, w.learner, w.eps,
                              trace_sink=trace_sink)


def emit_and_verify(w: Workload, inst: Instance, result):
    """Emit the outcome document and re-check it from its text alone."""
    doc = harness.outcome_document(result, inst.problem,
                                   original=inst.original,
                                   transforms=inst.transforms,
                                   eps_original=inst.eps_original)
    text = harness.emit_outcome_document(doc)
    return text, harness.verify_outcome_document(text)


def run_pass(w: Workload, seed: int) -> Pass:
    """Inputs to a verified certificate.

    The harness functions are looked up on the ``feasgame.harness`` module at
    call time, so a ``Tracer`` can wrap them.
    """
    clock = time.perf_counter
    t0 = clock()
    inst = build(w, seed)
    t1 = clock()
    result = solve(w, inst)
    t2 = clock()
    text, report = emit_and_verify(w, inst, result)
    t3 = clock()
    return Pass(t1 - t0, t2 - t1, t3 - t2, inst, result, text, report)


def check(w: Workload, seed: int, inst: Instance, result, report) -> list[str]:
    """Reasons a pass is wrong; empty when it ended in a verified certificate.

    Every seed must give a certificate that verifies, within the horizon;
    the pinned seed must also give the pinned outcome kind and iteration count.
    """
    errors = []
    kind = type(result.outcome).__name__
    if kind == "Exhausted":
        errors.append("solver exhausted its budget without a certificate")
    if not report.ok:
        errors.append(f"certificate rejected: {report.message}")
    if result.iterations > inst.horizon.T_star:
        errors.append(f"{result.iterations} iterations exceed T*={inst.horizon.T_star}")
    if seed == PIN_SEED:
        if kind != w.kind:
            errors.append(f"outcome {kind}, pinned {w.kind}")
        if result.iterations != w.iterations:
            errors.append(f"{result.iterations} iterations, pinned {w.iterations}")
    return errors


# ---------------------------------------------------------------------------
# Layer map for the traced run: where each public layer function is called.


def _ons_rebuilds(args, state, counts):
    counts["online.ons_step.rebuilds"] += state.rebuilds - args[0].rebuilds


def _mw_scale_growth(args, state, counts):
    counts["online.mw_step.scale_growth"] += state.G_inf > args[0].G_inf


def _inner_iters(args, res, counts):
    counts["descent.minimize_over_domain.inner_iters"] += res.iterations


SITES = (
    # pipeline stages, called from this file through feasgame.harness
    Site("feasgame.harness", "run_solver", "solvers.loop"),
    Site("feasgame.harness", "outcome_document", "harness.io.outcome_document"),
    Site("feasgame.harness", "emit_outcome_document", "harness.io.emit_outcome_document"),
    Site("feasgame.harness", "verify_outcome_document",
         "harness.oracles.verify_outcome_document"),
    Site("feasgame.harness.oracles", "parse_outcome_document",
         "harness.io.parse_outcome_document"),
    Site("feasgame.harness.oracles", "verify_certificate", "solvers.verify_certificate"),
    # the solver loops and the certificate check
    Site("feasgame.solvers", "separation_oracle", "core.separation_oracle"),
    Site("feasgame.solvers", "residuals", "core.residuals"),
    Site("feasgame.solvers", "residual_gradient", "core.residual_gradient"),
    Site("feasgame.solvers", "optimization_oracle", "descent.optimization_oracle"),
    Site("feasgame.solvers", "minimize_over_domain", "descent.minimize_over_domain",
         _inner_iters),
    Site("feasgame.solvers", "ons_step", "online.ons_step", _ons_rebuilds),
    Site("feasgame.solvers", "ogd_step", "online.ogd_step"),
    Site("feasgame.solvers", "mw_step", "online.mw_step", _mw_scale_growth),
    Site("feasgame.solvers", "mw_point", "online.mw_point"),
    # learners and the A-norm projection
    Site("feasgame.online", "generalized_project", "projections.generalized_project"),
    Site("feasgame.online", "project_domain", "projections.project_domain"),
    Site("feasgame.projections", "project_domain", "projections.project_domain"),
    # the optimization oracle's descent
    Site("feasgame.descent", "minimize_over_domain", "descent.minimize_over_domain",
         _inner_iters),
    Site("feasgame.descent", "project_domain", "projections.project_domain"),
    Site("feasgame.descent", "evaluate", "core.evaluate"),
    Site("feasgame.descent", "gradient", "core.gradient"),
    Site("feasgame.descent", "smoothness_bound", "core.smoothness_bound"),
)

SPANS = tuple(dict.fromkeys(site.span for site in SITES))
COUNTERS = ("online.ons_step.rebuilds", "online.mw_step.scale_growth",
            "descent.minimize_over_domain.inner_iters")
