"""Problem files, outcome verification, experiments, and the CLI."""

from .io import (
    OUTCOME_VERSION,
    PROBLEM_VERSION,
    ProblemFileError,
    canonical_json,
    emit_outcome_document,
    emit_problem_file,
    outcome_document,
    outcome_from_doc,
    outcome_to_doc,
    parse_outcome_document,
    parse_problem_file,
    problem_from_doc,
    problem_to_doc,
)
from .oracles import verify_outcome_document
from .experiments import (
    ExperimentReport,
    mw_signs_regret,
    ogd_quadratic_stream_regret,
    regret_experiment,
    run_solver,
    scaling_experiment,
)
from .cli import main
