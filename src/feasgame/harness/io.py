"""Problem and outcome documents.

Problem files are JSON with a version tag, a domain, and exactly one of an
explicit constraint list or a generator spec.  Parsing is strict: unknown
fields are rejected by name, with the offending path in the message.  Every
constraint is satisfied where its value is <= 0, and a
log_affine_composite's value is 1 - log(e + inner/omega).  Version 1 files
read it as log(e + inner/omega) under a problem-wide orientation key, so
they are refused (PROBLEM_VERSION is 2), not read with the opposite sign.
Emission is canonical (sorted keys, two-space indent, trailing newline) so
parse/emit round-trips are byte-stable.

canonical_json writes exactly json.dumps(doc, sort_keys=True, indent=2)
plus a newline, but without json's item-by-item walk, which an indent
forces onto its pure-Python encoder.  It writes json's text itself where
that text is known: a dict whose keys are all strings (sorted as json sorts
them), a nonempty list or tuple (a row of finite floats as one join of
float.__repr__, which json uses too), a string (json's own
encode_basestring_ascii) and a finite float.  Every other value (an int, a
bool, None, a NaN or an infinity, an empty container, a dict with a key that
is not a string, a type json does not know) goes to json's encoder, and its
text is re-indented to its depth, so such a value keeps json's output and
json's error.  A cycle or a value too deep to walk goes to json.dumps whole.

A problem document's constants are estimated from its constraints, and
any its params carry then replace their estimates, so a document is
refused exactly where the estimate refuses.  Parsing
reads what emission writes, a matrix of equal-length rows of finite
floats, with one np.array call, and a nonempty list of such rows is
written with one join per row.

One field table serves every tagged object.  A domain's or an outcome's
"kind", and a constraint's "family", picks its class from DOMAINS, OUTCOMES
or FAMILIES; the class's dataclass fields are the object's other fields,
and each field's annotation names its codec in _FIELD_CODECS.  A generator
object's "family" picks a row of GENERATORS, whose knobs are the fields it
may carry besides n, typed by their GeneratorSpec annotations.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from ..core import DOMAINS, FAMILIES, Problem, ProblemParams, SetupError, make_problem
from ..problems import GENERATORS, GeneratorSpec, make_problem_from_spec
from ..solvers import OUTCOMES, ROUTES, Outcome, SolveResult

PROBLEM_VERSION = 2
OUTCOME_VERSION = 1

_PARAM_KEYS = tuple(field.name for field in dataclasses.fields(ProblemParams))


class ProblemFileError(ValueError):
    """Malformed document; the message names the offending field."""


# ---------------------------------------------------------------------------
# Low-level field checks


def _check_keys(obj, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ProblemFileError(f"{path}: expected an object")
    extra = sorted(obj.keys() - {*required, *optional})
    if extra:
        raise ProblemFileError(f"{path}: unknown field(s) {', '.join(extra)}")
    missing = sorted(set(required) - obj.keys())
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
    if set(map(type, v)) == {float}:  # what emission writes: check all at once
        x = np.array(v, float)
        if np.isfinite(x).all():
            return x
    return np.array([_real(e, f"{path}[{i}]") for i, e in enumerate(v)])


def _matrix(v, path: str) -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise ProblemFileError(f"{path}: expected a nonempty array of rows")
    # what emission writes, equal-length rows of floats: one array at once
    if (set(map(type, v)) == {list} and len(set(map(len, v))) == 1
            and set(map(type, itertools.chain.from_iterable(v))) == {float}):
        x = np.array(v, float)
        if np.isfinite(x).all():
            return x
    # anything else row by row, so an error names its row or entry
    rows = [_vector(r, f"{path}[{i}]") for i, r in enumerate(v)]
    width = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.shape[0] != width:
            raise ProblemFileError(f"{path}[{i}]: ragged row (expected length {width})")
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# Tagged objects: a tag field picks the class, whose dataclass fields are
# the other fields of the object


def _tagged(obj, path: str, key: str, table: dict, what: str):
    """The entry of table that the object's tag field names."""
    if not isinstance(obj, dict) or key not in obj:
        raise ProblemFileError(f"{path}: expected an object with a '{key}' field")
    tag = obj[key]
    entry = table.get(tag) if isinstance(tag, str) else None
    if entry is None:
        raise ProblemFileError(f"{path}.{key}: unknown {what} {tag!r}")
    return entry


def _build(cls, obj, path: str):
    kwargs = {name: parse(obj[name], f"{path}.{name}")
              for name, parse, _, _ in _codecs(cls) if name in obj}
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ProblemFileError(f"{path}: {e}") from e


def _parse_tagged(obj, path: str, key: str, table: dict, what: str):
    """A domain or an outcome (key "kind"), or a constraint (key "family")."""
    cls = _tagged(obj, path, key, table, what)
    required, optional, every = _keys(cls, key)
    if obj.keys() != every:
        _check_keys(obj, path, required, optional)
    return _build(cls, obj, path)


_parse_constraint = functools.partial(_parse_tagged, key="family", table=FAMILIES,
                                      what="constraint family")


def _fields_doc(key: str, obj) -> dict:
    """The document of a domain or an outcome (key "kind") or a constraint
    (key "family")."""
    return {key: obj.tag,
            **{name: emit(getattr(obj, name)) for name, _, emit, _ in _codecs(type(obj))}}


@functools.cache
def _codecs(cls) -> tuple:
    """(name, parse, emit, required) for each field of a family's, a
    domain's or an outcome's dataclass."""
    return tuple((f.name, *_FIELD_CODECS[f.type], f.default is dataclasses.MISSING)
                 for f in dataclasses.fields(cls))


@functools.cache
def _keys(cls, key: str) -> tuple:
    """(required, optional, all) keys of an object of cls tagged by key; only
    a constraint ("family") may leave out a field that has a default."""
    codecs = _codecs(cls)
    required = (key,) + tuple(name for name, _, _, req in codecs if req or key == "kind")
    optional = tuple(name for name, _, _, req in codecs if not (req or key == "kind"))
    return required, optional, frozenset(required + optional)


# A field's annotation, in a constraint family, a domain, an outcome or
# GeneratorSpec, names its (parse, emit) pair.
_FIELD_CODECS = {
    "bool": (_boolean, bool),
    "Vector": (_vector, np.ndarray.tolist),
    "Matrix": (_matrix, np.ndarray.tolist),
    "float": (_real, float),
    "int": (_integer, int),
    "ConstraintFn": (_parse_constraint, functools.partial(_fields_doc, "family")),
}


# ---------------------------------------------------------------------------
# Generator specs


def _parse_generator(obj, path: str) -> GeneratorSpec:
    _, knobs = _tagged(obj, path, "family", GENERATORS, "generator family")
    _check_keys(obj, path, ("family", "n"), knobs)
    types = {field.name: field.type for field in dataclasses.fields(GeneratorSpec)}
    kwargs = {key: _FIELD_CODECS[types[key]][0](obj[key], f"{path}.{key}")
              for key in knobs if key in obj}
    return GeneratorSpec(family=obj["family"], n=_integer(obj["n"], f"{path}.n"), **kwargs)


# ---------------------------------------------------------------------------
# Problems


def problem_from_doc(doc, *, seed_override: int | None = None) -> Problem:
    """Build a Problem from a decoded problem document (strict)."""
    _check_keys(doc, "problem", ("version",),
                ("domain", "constraints", "generator", "params"))
    version = _integer(doc["version"], "problem.version")
    if version != PROBLEM_VERSION:
        raise ProblemFileError(
            f"problem.version: unsupported version {version} (expected {PROBLEM_VERSION})")
    has_generator = "generator" in doc
    if ("constraints" in doc) == has_generator:
        raise ProblemFileError(
            "problem: exactly one of 'constraints' and 'generator' must be present"
        )
    if has_generator:
        if "domain" in doc:
            raise ProblemFileError("problem.domain: not allowed alongside 'generator'")
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
        domain = _parse_tagged(doc["domain"], "problem.domain", "kind", DOMAINS, "domain kind")
        raw = doc["constraints"]
        if not isinstance(raw, list) or not raw:
            raise ProblemFileError("problem.constraints: expected a nonempty array")
        constraints = [_parse_constraint(obj, f"problem.constraints[{i}]")
                       for i, obj in enumerate(raw)]
        for i, f in enumerate(constraints):
            if f.n != domain.n:
                raise ProblemFileError(
                    f"problem.constraints[{i}]: dimension {f.n} does "
                    f"not match the domain dimension {domain.n}"
                )
        try:
            problem = make_problem(constraints, domain)
        except ValueError as e:
            raise ProblemFileError(f"problem: {e}") from e

    if "params" not in doc:
        return problem
    obj = doc["params"]
    _check_keys(obj, "problem.params", (), _PARAM_KEYS)
    given = {}
    for k, v in obj.items():
        try:
            given[k] = ProblemParams.check(k, _real(v, f"problem.params.{k}"))
        except SetupError as e:
            raise ProblemFileError(f"problem.params.{k}: {e}") from e
    return problem.with_params(**given)


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFileError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e


def parse_problem_file(text: str, *, seed_override: int | None = None) -> Problem:
    return problem_from_doc(_decode(text), seed_override=seed_override)


def problem_to_doc(problem: Problem) -> dict:
    p = problem.params
    return {
        "version": PROBLEM_VERSION,
        "domain": _fields_doc("kind", problem.domain),
        "constraints": [_fields_doc("family", f) for f in problem.constraints],
        "params": {k: float(getattr(p, k)) for k in _PARAM_KEYS},
    }


def canonical_json(doc) -> str:
    """Sorted-key, two-space-indented JSON with a trailing newline: exactly
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, errors included."""
    out: list[str] = []
    try:
        _write(doc, "", out)
    except RecursionError:  # a cycle or a very deep value: json's own walk and error
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return "".join(out) + "\n"


# json.dumps(v, sort_keys=True, indent=2) is this encoder's encode(v)
_encode = json.JSONEncoder(sort_keys=True, indent=2).encode


def _write(v, pad: str, out: list[str]) -> None:
    """Append json's text of v, nested at indentation pad, to out."""
    if isinstance(v, str):
        out.append(encode_basestring_ascii(v))
    elif isinstance(v, float) and math.isfinite(v):
        out.append(float.__repr__(v))
    elif isinstance(v, (list, tuple)) and v:
        inner = pad + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        body = _float_row(v, sep) or _float_rows(v, inner)
        if body is None:
            for i, e in enumerate(v):
                if i:
                    out.append(sep)
                _write(e, inner, out)
        else:
            out.append(body)
        out.append("\n" + pad + "]")
    elif isinstance(v, dict) and v and all(isinstance(k, str) for k in v):
        inner = pad + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for i, (k, e) in enumerate(sorted(v.items())):
            if i:
                out.append(sep)
            out.append(encode_basestring_ascii(k) + ": ")
            _write(e, inner, out)
        out.append("\n" + pad + "}")
    else:  # ints, bools, None, non-finite floats, empty containers, other keys or types
        out.append(_encode(v).replace("\n", "\n" + pad))


def _float_row(v, sep: str) -> str | None:
    """The reprs of v's items joined by sep when all are finite floats, else None."""
    try:
        row = sep.join(map(float.__repr__, v))
    except TypeError:  # an item that is not a float
        return None
    # "nan", "inf" and "-inf" hold an n, and no finite float's repr does
    return None if "n" in row else row


def _float_rows(v, pad: str) -> str | None:
    """json's text at indentation pad of v in one pass when each item is a
    nonempty list or tuple of finite floats (a matrix), else None."""
    inner = pad + "  "
    rows = [_float_row(r, ",\n" + inner) if isinstance(r, (list, tuple)) and r else None
            for r in v]
    if None in rows:
        return None
    between = "\n" + pad + "],\n" + pad + "[\n" + inner
    return "[\n" + inner + between.join(rows) + "\n" + pad + "]"


def emit_problem_file(problem: Problem) -> str:
    """Canonical JSON for the problem; byte-stable under parse/emit."""
    return canonical_json(problem_to_doc(problem))


# ---------------------------------------------------------------------------
# Outcome documents


def outcome_to_doc(outcome: Outcome) -> dict:
    return _fields_doc("kind", outcome)


def outcome_from_doc(obj) -> Outcome:
    return _parse_tagged(obj, "outcome", "kind", OUTCOMES, "outcome kind")


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


class _ParsedDocument(dict):
    """An outcome document as parse_outcome_document returns it, with the
    objects built to validate it: outcome, problem, and original (None when
    the document has no original_problem).  They describe the document as
    parsed; a caller that edits it must build them again."""

    outcome: Outcome
    problem: Problem
    original: Problem | None


def parse_outcome_document(doc: str | dict) -> dict:
    """Structurally validate an outcome document, given as text or decoded.

    The returned dict keeps the objects validating built for
    verify_outcome_document, which so builds each of them once.
    """
    if isinstance(doc, str):
        doc = _decode(doc)
    _check_keys(doc, "outcome_document",
                ("version", "algo", "learner", "eps", "eps_effective",
                 "iterations", "outcome", "problem"),
                ("transforms", "original_problem", "eps_original"))
    version = _integer(doc["version"], "outcome_document.version")
    if version != OUTCOME_VERSION:
        raise ProblemFileError(f"outcome_document.version: unsupported version {version}")
    if ("original_problem" in doc) != ("eps_original" in doc):
        raise ProblemFileError("outcome_document: original_problem and eps_original go together")
    _, names, _, _ = _tagged(doc, "outcome_document", "algo", ROUTES, "algo")
    if doc["learner"] not in (None, *names):
        raise ProblemFileError(f"outcome_document.learner: expected {' or '.join(names)} or null")
    for key in ("eps", "eps_effective", "eps_original"):
        if key in doc:
            _real(doc[key], f"outcome_document.{key}")
    parsed = _ParsedDocument(doc)
    parsed.outcome = outcome_from_doc(doc["outcome"])
    parsed.problem = problem_from_doc(doc["problem"])
    parsed.original = (problem_from_doc(doc["original_problem"])
                       if "original_problem" in doc else None)
    return parsed
