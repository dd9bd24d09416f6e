"""feasgame command line: solve, gen, experiment, verify.

Exit codes: 0 feasible / success, 2 infeasible (either kind of certificate),
3 iteration cap exhausted, 1 any error.  Flag mistakes also exit 1 so that
2 and 3 stay unambiguous in scripts.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ..core import SetupError
from ..problems import GENERATORS, GeneratorSpec
from ..reductions import log_transform, strictify
from ..solvers import ROUTES, EpsilonInfeasible, Exhausted, Feasible, Infeasible, TraceRecord
from .experiments import regret_experiment, run_solver, scaling_experiment
from .io import (
    PROBLEM_VERSION,
    canonical_json,
    emit_outcome_document,
    outcome_document,
    parse_problem_file,
    problem_from_doc,
)
from .oracles import verify_outcome_document

TRACE_HEADER = "iter,violated_index,violation,game_loss,regret_bound,elapsed_ns"

# The --family short name of each generator family.
_FAMILY_BY_TAG = {
    "qp": "strict_qp",
    "lp": "perceptron_lp",
    "portfolio": "portfolio_risk",
    "entropy": "entropy",
    "crp": "crp",
}

_EXIT_CODES = {Feasible: 0, Infeasible: 2, EpsilonInfeasible: 2, Exhausted: 3}


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags, which collides with the
    # "infeasible" exit code; surface flag errors as SetupError instead.
    def error(self, message):
        raise SetupError(message)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _trace_line(rec: TraceRecord) -> str:
    idx = "" if rec.violated_index is None else str(rec.violated_index)
    return (f"{rec.iteration},{idx},{rec.violation!r},{rec.game_loss!r},"
            f"{rec.regret_bound!r},{rec.elapsed_ns}")


def _strictify_arg(s: str):
    if s == "auto":
        return "auto"
    try:  # strictify itself refuses a negative or non-finite delta
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number or 'auto'") from None


def _eps_ladder_arg(s: str) -> list[float]:
    try:
        return [float(tok) for tok in s.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers") from None


def _cmd_solve(args) -> int:
    problem = parse_problem_file(Path(args.problem).read_text(),
                                 seed_override=args.seed)
    original = problem
    transforms: tuple[dict, ...] = ()
    eps_run = args.eps
    eps_original = None
    if args.strictify is not None and args.log_transform:
        raise SetupError("--strictify and --log-transform cannot be combined")
    if args.strictify is not None:
        delta = args.eps if args.strictify == "auto" else args.strictify
        problem = strictify(problem, delta)
        transforms = ({"kind": "strictify", "delta": delta},)
        eps_original = args.eps + delta
    elif args.log_transform:
        omega = problem.params.omega
        eps_run = args.eps / (3.0 * omega)
        problem = log_transform(problem, omega)
        transforms = ({"kind": "log_transform", "omega": omega,
                       "eps_log": eps_run},)
        eps_original = args.eps

    # the trace file is opened at the first record, so a solve refused
    # before its first round leaves no file and an existing one untouched
    trace_file = sink = None
    if args.trace:
        def sink(rec):
            nonlocal trace_file
            if trace_file is None:
                trace_file = open(args.trace, "w")
                trace_file.write(TRACE_HEADER + "\n")
            trace_file.write(_trace_line(rec) + "\n")

    try:
        result = run_solver(problem, args.algo, args.learner, eps_run,
                            max_iters=args.max_iters, trace_sink=sink)
    finally:
        if trace_file is not None:
            trace_file.close()

    doc = outcome_document(result, problem,
                           original=original if transforms else None,
                           transforms=transforms, eps_original=eps_original)
    _write_text(args.out, emit_outcome_document(doc))
    return _EXIT_CODES[type(result.outcome)]


def _generator_spec(args) -> GeneratorSpec:
    return GeneratorSpec(family=_FAMILY_BY_TAG[args.family], n=args.n, m=args.m,
                         seed=args.seed, h_target=args.h_target,
                         feasible=not args.infeasible, margin=args.margin,
                         c=args.c, t_days=args.t_days)


def _cmd_gen(args) -> int:
    spec = _generator_spec(args)
    _, knobs = GENERATORS[spec.family]
    gen = {"family": spec.family, "n": spec.n,
           **{key: getattr(spec, key) for key in knobs}}
    doc = {"version": PROBLEM_VERSION, "generator": gen}
    problem_from_doc(doc)  # reject bad knobs before writing anything
    _write_text(args.out, canonical_json(doc))
    return 0


def _cmd_experiment(args) -> int:
    if args.kind == "regret":
        if args.learner is None:
            raise SetupError("regret experiments need --learner")
        report = regret_experiment(args.learner, T=args.t, seeds=args.seeds)
    else:
        if args.eps_ladder is None:
            raise SetupError("scaling experiments need --eps-ladder")
        report = scaling_experiment(_generator_spec(args), args.algo, args.learner,
                                    args.eps_ladder, max_iters=args.max_iters)
    _write_text(args.out, canonical_json(report.to_doc()))
    return 0


def _cmd_verify(args) -> int:
    report = verify_outcome_document(Path(args.outcome).read_text())
    _write_text(args.out, canonical_json(dataclasses.asdict(report)))
    return 0 if report.ok else 1


def _add_knob_flags(p: argparse.ArgumentParser) -> None:
    """The GeneratorSpec knobs that gen and experiment both take."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h-target", type=float, default=1.0)
    p.add_argument("--infeasible", action="store_true")
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--c", type=float, default=0.05)
    p.add_argument("--t-days", type=int, default=5)


def build_parser() -> argparse.ArgumentParser:
    learners = tuple(dict.fromkeys(name for _, names, _, _ in ROUTES.values() for name in names))
    parser = _Parser(prog="feasgame",
                     description="Convex feasibility via repeated games")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem file")
    ps.add_argument("--problem", required=True)
    ps.add_argument("--algo", choices=tuple(ROUTES), default="primal")
    ps.add_argument("--learner", choices=learners, default=None)
    ps.add_argument("--eps", type=float, required=True)
    ps.add_argument("--strictify", type=_strictify_arg, default=None,
                    metavar="DELTA|auto")
    ps.add_argument("--log-transform", action="store_true")
    ps.add_argument("--max-iters", type=int, default=None)
    ps.add_argument("--trace", default=None, metavar="FILE")
    ps.add_argument("--seed", type=int, default=None,
                    help="override the generator seed in the problem file")
    ps.add_argument("--out", default=None, metavar="FILE")
    ps.set_defaults(func=_cmd_solve)

    pg = sub.add_parser("gen", help="write a generator problem file")
    pg.add_argument("--family", choices=sorted(_FAMILY_BY_TAG), required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--m", type=int, default=1)
    _add_knob_flags(pg)
    pg.add_argument("--out", default=None, metavar="FILE")
    pg.set_defaults(func=_cmd_gen)

    pe = sub.add_parser("experiment", help="run a regret or scaling experiment")
    pe.add_argument("--kind", choices=("regret", "scaling"), required=True)
    pe.add_argument("--learner", choices=learners, default=None)
    pe.add_argument("--t", type=int, default=10_000)
    pe.add_argument("--seeds", type=int, default=20)
    pe.add_argument("--family", choices=sorted(_FAMILY_BY_TAG), default="qp")
    pe.add_argument("--algo", choices=tuple(ROUTES), default="primal")
    pe.add_argument("--eps-ladder", type=_eps_ladder_arg, default=None,
                    metavar="E1,E2,...")
    pe.add_argument("--n", type=int, default=10)
    pe.add_argument("--m", type=int, default=20)
    _add_knob_flags(pe)
    pe.add_argument("--max-iters", type=int, default=None)
    pe.add_argument("--out", default=None, metavar="FILE")
    pe.set_defaults(func=_cmd_experiment)

    pv = sub.add_parser("verify", help="re-check an outcome document")
    pv.add_argument("--outcome", required=True)
    pv.add_argument("--out", default=None, metavar="FILE")
    pv.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
