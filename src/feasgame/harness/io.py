"""Problem and outcome documents.

Problem files are JSON with a version tag, a domain, and exactly one of an
explicit constraint list or a generator spec.  Parsing is strict: unknown
fields are rejected by name, with the offending path in the message.
Emission is canonical (sorted keys, two-space indent, trailing newline) so
parse/emit round-trips are byte-stable.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from ..core import (
    Affine,
    Ball,
    Box,
    ConstraintFn,
    Domain,
    LogAffineComposite,
    NegEntropy,
    NegLogBarrier,
    NormDistSq,
    Problem,
    ProblemParams,
    Quadratic,
    Simplex,
    constraint_dim,
    domain_dim,
    make_problem,
)
from ..problems import GeneratorSpec, make_problem_from_spec
from ..solvers import (
    EpsilonInfeasible,
    Exhausted,
    Feasible,
    Infeasible,
    Outcome,
    SolveResult,
)

PROBLEM_VERSION = 1
OUTCOME_VERSION = 1

_PARAM_KEYS = ("G", "H", "omega", "D", "G_inf", "alpha")


class ProblemFileError(ValueError):
    """Malformed document; the message names the offending field."""


# ---------------------------------------------------------------------------
# Low-level field checks


def _check_keys(obj, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ProblemFileError(f"{path}: expected an object")
    extra = sorted(set(obj) - set(required) - set(optional))
    if extra:
        raise ProblemFileError(f"{path}: unknown field(s) {', '.join(extra)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ProblemFileError(f"{path}: missing field(s) {', '.join(missing)}")


def _real(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ProblemFileError(f"{path}: expected a number")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ProblemFileError(f"{path}: expected a finite number, got {v!r}")
    return x


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ProblemFileError(f"{path}: expected an integer")
    return v


def _boolean(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ProblemFileError(f"{path}: expected a boolean")
    return v


def _vector(v, path: str) -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise ProblemFileError(f"{path}: expected a nonempty array of numbers")
    return np.array([_real(e, f"{path}[{i}]") for i, e in enumerate(v)])


def _matrix(v, path: str) -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise ProblemFileError(f"{path}: expected a nonempty array of rows")
    rows = [_vector(r, f"{path}[{i}]") for i, r in enumerate(v)]
    width = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.shape[0] != width:
            raise ProblemFileError(f"{path}[{i}]: ragged row (expected length {width})")
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# Domains


def _parse_domain(obj, path: str) -> Domain:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ProblemFileError(f"{path}: expected an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "simplex":
            _check_keys(obj, path, ("kind", "n"))
            return Simplex(n=_integer(obj["n"], f"{path}.n"))
        if kind == "ball":
            _check_keys(obj, path, ("kind", "center", "radius"))
            return Ball(center=_vector(obj["center"], f"{path}.center"),
                        radius=_real(obj["radius"], f"{path}.radius"))
        if kind == "box":
            _check_keys(obj, path, ("kind", "lo", "hi"))
            return Box(lo=_vector(obj["lo"], f"{path}.lo"),
                       hi=_vector(obj["hi"], f"{path}.hi"))
    except ProblemFileError:
        raise
    except ValueError as e:
        raise ProblemFileError(f"{path}: {e}") from e
    raise ProblemFileError(f"{path}.kind: unknown domain kind {kind!r}")


def _domain_doc(domain: Domain) -> dict:
    if isinstance(domain, Simplex):
        return {"kind": "simplex", "n": domain.n}
    if isinstance(domain, Ball):
        return {"kind": "ball", "center": domain.center.tolist(),
                "radius": float(domain.radius)}
    return {"kind": "box", "lo": domain.lo.tolist(), "hi": domain.hi.tolist()}


# ---------------------------------------------------------------------------
# Constraints


def _parse_constraint(obj, path: str) -> ConstraintFn:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ProblemFileError(f"{path}: expected an object with a 'family' field")
    fam = obj["family"]
    try:
        if fam == "affine":
            _check_keys(obj, path, ("family", "a", "b"))
            return Affine(a=_vector(obj["a"], f"{path}.a"),
                          b=_real(obj["b"], f"{path}.b"))
        if fam == "quadratic":
            _check_keys(obj, path, ("family", "A", "b", "c"))
            A = _matrix(obj["A"], f"{path}.A")
            if A.shape[0] != A.shape[1]:
                raise ProblemFileError(f"{path}.A: expected a square matrix")
            if np.max(np.abs(A - A.T)) > 1e-9 * (1.0 + np.max(np.abs(A))):
                raise ProblemFileError(f"{path}.A: matrix is not symmetric")
            return Quadratic(A=A, b=_vector(obj["b"], f"{path}.b"),
                             c=_real(obj["c"], f"{path}.c"))
        if fam == "log_affine_composite":
            _check_keys(obj, path, ("family", "inner", "omega"))
            inner = _parse_constraint(obj["inner"], f"{path}.inner")
            return LogAffineComposite(inner=inner,
                                      omega=_real(obj["omega"], f"{path}.omega"))
        if fam == "neg_entropy":
            _check_keys(obj, path, ("family", "n"), ("shift",))
            return NegEntropy(n=_integer(obj["n"], f"{path}.n"),
                              shift=_real(obj.get("shift", 0.0), f"{path}.shift"))
        if fam == "norm_dist_sq":
            _check_keys(obj, path, ("family", "center", "c"))
            return NormDistSq(center=_vector(obj["center"], f"{path}.center"),
                              c=_real(obj["c"], f"{path}.c"))
        if fam == "neg_log_barrier":
            _check_keys(obj, path, ("family", "rows", "level"))
            return NegLogBarrier(rows=_matrix(obj["rows"], f"{path}.rows"),
                                 level=_real(obj["level"], f"{path}.level"))
    except ProblemFileError:
        raise
    except ValueError as e:
        raise ProblemFileError(f"{path}: {e}") from e
    raise ProblemFileError(f"{path}.family: unknown constraint family {fam!r}")


def _constraint_doc(f: ConstraintFn) -> dict:
    if isinstance(f, Affine):
        return {"family": "affine", "a": f.a.tolist(), "b": float(f.b)}
    if isinstance(f, Quadratic):
        return {"family": "quadratic", "A": f.A.tolist(), "b": f.b.tolist(),
                "c": float(f.c)}
    if isinstance(f, LogAffineComposite):
        return {"family": "log_affine_composite", "inner": _constraint_doc(f.inner),
                "omega": float(f.omega)}
    if isinstance(f, NegEntropy):
        return {"family": "neg_entropy", "n": f.n, "shift": float(f.shift)}
    if isinstance(f, NormDistSq):
        return {"family": "norm_dist_sq", "center": f.center.tolist(), "c": float(f.c)}
    return {"family": "neg_log_barrier", "rows": f.rows.tolist(), "level": float(f.level)}


# ---------------------------------------------------------------------------
# Generator specs


_GENERATOR_FIELDS = {
    "strict_qp": ("m", "seed", "h_target", "feasible"),
    "perceptron_lp": ("m", "seed", "margin", "feasible"),
    "portfolio_risk": ("m", "seed"),
    "entropy": ("m", "seed", "c"),
    "crp": ("seed", "c", "t_days"),
}


def _parse_generator(obj, path: str) -> GeneratorSpec:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ProblemFileError(f"{path}: expected an object with a 'family' field")
    fam = obj["family"]
    if fam not in _GENERATOR_FIELDS:
        raise ProblemFileError(f"{path}.family: unknown generator family {fam!r}")
    _check_keys(obj, path, ("family", "n"), _GENERATOR_FIELDS[fam])
    kwargs = {}
    for key in _GENERATOR_FIELDS[fam]:
        if key not in obj:
            continue
        if key in ("m", "seed", "t_days"):
            kwargs[key] = _integer(obj[key], f"{path}.{key}")
        elif key == "feasible":
            kwargs[key] = _boolean(obj[key], f"{path}.{key}")
        else:
            kwargs[key] = _real(obj[key], f"{path}.{key}")
    return GeneratorSpec(family=fam, n=_integer(obj["n"], f"{path}.n"), **kwargs)


# ---------------------------------------------------------------------------
# Problems


def problem_from_doc(doc, *, seed_override: int | None = None) -> Problem:
    """Build a Problem from a decoded problem document (strict)."""
    _check_keys(doc, "problem", ("version",),
                ("domain", "constraints", "generator", "params", "sense"))
    version = _integer(doc["version"], "problem.version")
    if version != PROBLEM_VERSION:
        raise ProblemFileError(f"problem.version: unsupported version {version}")
    has_constraints = "constraints" in doc
    has_generator = "generator" in doc
    if has_constraints == has_generator:
        raise ProblemFileError(
            "problem: exactly one of 'constraints' and 'generator' must be present"
        )
    sense = doc.get("sense", "min")
    if sense not in ("min", "max"):
        raise ProblemFileError(f"problem.sense: expected 'min' or 'max', got {sense!r}")

    if has_generator:
        if "domain" in doc:
            raise ProblemFileError("problem.domain: not allowed alongside 'generator'")
        if sense != "min":
            raise ProblemFileError("problem.sense: generator files are always 'min'")
        spec = _parse_generator(doc["generator"], "problem.generator")
        if seed_override is not None:
            spec = dataclasses.replace(spec, seed=seed_override)
        try:
            problem = make_problem_from_spec(spec)
        except ValueError as e:
            raise ProblemFileError(f"problem.generator: {e}") from e
    else:
        if "domain" not in doc:
            raise ProblemFileError("problem.domain: missing")
        domain = _parse_domain(doc["domain"], "problem.domain")
        raw = doc["constraints"]
        if not isinstance(raw, list) or not raw:
            raise ProblemFileError("problem.constraints: expected a nonempty array")
        constraints = [_parse_constraint(obj, f"problem.constraints[{i}]")
                       for i, obj in enumerate(raw)]
        for i, f in enumerate(constraints):
            if constraint_dim(f) != domain_dim(domain):
                raise ProblemFileError(
                    f"problem.constraints[{i}]: dimension {constraint_dim(f)} does "
                    f"not match the domain dimension {domain_dim(domain)}"
                )
        try:
            problem = make_problem(constraints, domain, sense=sense)
        except ValueError as e:
            raise ProblemFileError(f"problem: {e}") from e

    if "params" in doc:
        obj = doc["params"]
        _check_keys(obj, "problem.params", (), _PARAM_KEYS)
        base = problem.params
        merged = {k: getattr(base, k) for k in _PARAM_KEYS}
        for k in obj:
            merged[k] = _real(obj[k], f"problem.params.{k}")
        problem = Problem(constraints=problem.constraints, domain=problem.domain,
                          params=ProblemParams(**merged), sense=problem.sense)
    return problem


def parse_problem_file(text: str, *, seed_override: int | None = None) -> Problem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFileError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    return problem_from_doc(doc, seed_override=seed_override)


def problem_to_doc(problem: Problem) -> dict:
    p = problem.params
    return {
        "version": PROBLEM_VERSION,
        "domain": _domain_doc(problem.domain),
        "sense": problem.sense,
        "constraints": [_constraint_doc(f) for f in problem.constraints],
        "params": {k: float(getattr(p, k)) for k in _PARAM_KEYS},
    }


def canonical_json(doc: dict) -> str:
    """Sorted-key, two-space-indented JSON with a trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def emit_problem_file(problem: Problem) -> str:
    """Canonical JSON for the problem; byte-stable under parse/emit."""
    return canonical_json(problem_to_doc(problem))


# ---------------------------------------------------------------------------
# Outcome documents


def outcome_to_doc(outcome: Outcome) -> dict:
    if isinstance(outcome, Feasible):
        return {"kind": "feasible", "x": outcome.x.tolist(),
                "residuals": outcome.residuals.tolist()}
    if isinstance(outcome, Infeasible):
        return {"kind": "infeasible", "p_bar": outcome.p_bar.tolist()}
    if isinstance(outcome, EpsilonInfeasible):
        return {"kind": "epsilon_infeasible", "p_bar": outcome.p_bar.tolist()}
    return {"kind": "exhausted", "best_x": outcome.best_x.tolist(),
            "best_violation": float(outcome.best_violation)}


def outcome_from_doc(obj) -> Outcome:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ProblemFileError("outcome: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "feasible":
        _check_keys(obj, "outcome", ("kind", "x", "residuals"))
        return Feasible(x=_vector(obj["x"], "outcome.x"),
                        residuals=_vector(obj["residuals"], "outcome.residuals"))
    if kind == "infeasible":
        _check_keys(obj, "outcome", ("kind", "p_bar"))
        return Infeasible(p_bar=_vector(obj["p_bar"], "outcome.p_bar"))
    if kind == "epsilon_infeasible":
        _check_keys(obj, "outcome", ("kind", "p_bar"))
        return EpsilonInfeasible(p_bar=_vector(obj["p_bar"], "outcome.p_bar"))
    if kind == "exhausted":
        _check_keys(obj, "outcome", ("kind", "best_x", "best_violation"))
        return Exhausted(best_x=_vector(obj["best_x"], "outcome.best_x"),
                         best_violation=_real(obj["best_violation"],
                                              "outcome.best_violation"))
    raise ProblemFileError(f"outcome.kind: unknown outcome kind {kind!r}")


def outcome_document(result: SolveResult, problem: Problem, *,
                     original: Problem | None = None,
                     transforms: tuple[dict, ...] = (),
                     eps_original: float | None = None) -> dict:
    """Self-contained record of a solve: outcome, problem, and any transforms.

    The embedded problem is the one the solver actually ran on; when
    transforms were applied, the pre-transform problem rides along so the
    certificate can be interpreted on the original scale without any other
    files.
    """
    doc = {
        "version": OUTCOME_VERSION,
        "algo": result.algo,
        "learner": result.learner,
        "eps": float(result.eps),
        "eps_effective": float(result.eps_effective),
        "iterations": result.iterations,
        "outcome": outcome_to_doc(result.outcome),
        "problem": problem_to_doc(problem),
    }
    if transforms:
        if original is None or eps_original is None:
            raise ProblemFileError("transforms require original problem and eps_original")
        doc["transforms"] = list(transforms)
        doc["original_problem"] = problem_to_doc(original)
        doc["eps_original"] = float(eps_original)
    return doc


def emit_outcome_document(doc: dict) -> str:
    return canonical_json(doc)


def parse_outcome_document(text: str) -> dict:
    """Decode and structurally validate an outcome document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFileError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    _check_keys(doc, "outcome_document",
                ("version", "algo", "learner", "eps", "eps_effective",
                 "iterations", "outcome", "problem"),
                ("transforms", "original_problem", "eps_original"))
    version = _integer(doc["version"], "outcome_document.version")
    if version != OUTCOME_VERSION:
        raise ProblemFileError(f"outcome_document.version: unsupported version {version}")
    for key in ("eps", "eps_effective", "eps_original"):
        if key in doc:
            _real(doc[key], f"outcome_document.{key}")
    outcome_from_doc(doc["outcome"])
    problem_from_doc(doc["problem"])
    if "original_problem" in doc:
        problem_from_doc(doc["original_problem"])
    return doc
