"""Convex feasibility through repeated games between online learners.

Find a point satisfying f_j(x) <= 0 for all j over a simplex, ball, or box,
or produce a weighting of the constraints certifying that none exists.  The
solvers pit a point player against a constraint player and convert regret
bounds into eps-approximate certificates; see the solvers module for the
three pairings and the harness subpackage for files, experiments, and CLI.
"""

from .core import (
    Affine,
    Ball,
    Box,
    ConstraintFn,
    ConvergenceError,
    DimensionMismatch,
    DOMAINS,
    Domain,
    EvaluationDomainError,
    FAMILIES,
    InvalidDistribution,
    LogAffineComposite,
    Mixture,
    NegEntropy,
    NegLogBarrier,
    NormDistSq,
    Problem,
    ProblemParams,
    Quadratic,
    SetupError,
    Simplex,
    Violation,
    check_distribution,
    estimate_parameters,
    evaluate,
    game_loss,
    gradient,
    make_problem,
    project_simplex,
    residual_gradient,
    residual_gradients,
    residuals,
    residuals_and_mixed_gradient,
    separation_oracle,
    simplex_threshold,
    smoothness_bound,
)
from .projections import generalized_project, project_domain
from .descent import MinimizeResult, minimize_over_domain, optimization_oracle
from .online import (
    MwState,
    OgdState,
    OnsState,
    RegretBoundSpec,
    hindsight_minimum,
    init_mw,
    init_ogd,
    init_ons,
    measured_regret,
    mw_bound_spec,
    mw_learning_rate,
    mw_point,
    mw_step,
    ogd_bound_spec,
    ogd_step,
    ons_bound_spec,
    ons_step,
    regret_bound,
)
from .solvers import (
    CertificateContradiction,
    EpsilonInfeasible,
    Exhausted,
    Feasible,
    Infeasible,
    OUTCOMES,
    Outcome,
    ROUTES,
    SolveResult,
    TraceRecord,
    VerificationReport,
    assert_no_contradiction,
    dual_game_opt,
    primal_dual_game_opt,
    primal_game_opt,
    stopping_threshold,
    verify_certificate,
)
from .reductions import approx_translate, log_transform, strictify, strictify_guarantee
from .problems import (
    GENERATORS,
    GeneratorSpec,
    make_crp_problem,
    make_entropy_problem,
    make_perceptron_lp,
    make_portfolio_risk,
    make_problem_from_spec,
    make_strict_qp,
)

__version__ = "0.1.0"
