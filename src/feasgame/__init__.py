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
    Domain,
    EvaluationDomainError,
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
    bounding_box,
    check_distribution,
    constraint_dim,
    curvature_bound,
    domain_contains,
    domain_diameter,
    domain_dim,
    estimate_parameters,
    evaluate,
    evaluate_batch,
    game_loss,
    gradient,
    gradient_norm_bound,
    linear_minimum,
    make_problem,
    mixed_gradient,
    residual,
    residual_gradient,
    residual_gradients,
    residuals,
    residuals_batch,
    separation_oracle,
    smoothness_bound,
    start_point,
    value_interval,
)
from .projections import (
    PsdMatrix,
    generalized_project,
    project_ball,
    project_box,
    project_domain,
    project_simplex,
    simplex_threshold,
)
from .descent import MinimizeResult, minimize_over_domain, optimization_oracle
from .grids import domain_grid, sample_domain
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
    Outcome,
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
    GeneratorSpec,
    make_crp_problem,
    make_entropy_problem,
    make_perceptron_lp,
    make_portfolio_risk,
    make_problem_from_spec,
    make_strict_qp,
)

__version__ = "0.1.0"
