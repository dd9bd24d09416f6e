"""Problem model: constraint families, domains, oracles and instance parameters.

A problem is a finite tuple of analytic constraints over a simple convex
domain (simplex, ball or box).  In the default ``sense="min"`` convention a
point is feasible when every constraint value is <= 0 and eps-approximately
feasible when no value exceeds eps.  Log-transformed problems (built by
:mod:`feasgame.reductions`) carry ``sense="max"`` and are satisfied when
every constraint value is >= 1.  The ``residual`` helpers fold both
conventions into a single "<= 0 means satisfied" orientation, which is what
every solver and oracle in the package consumes.

Constraint families form a closed set; there are no black-box callbacks.
Every family knows its value, gradient, and conservative interval/curvature
bounds over a domain, which is what makes the parameter estimates in
:func:`estimate_parameters` sound rather than sampled guesses.

How constraints are evaluated: the scalar :func:`evaluate` and
:func:`gradient` take one constraint at a time and are the reference the
finite-difference tests check.  The solvers and oracles go through the
packed form instead: on first use a problem is packed once
(:class:`Packed`, cached on the problem), its constraints grouped by family
into stacked arrays (affine rows, a quadratic tensor, log-affine rows with
``1/omega`` and ``e`` folded in), so residuals, the mixed gradient
sum_j p_j grad r_j, single-row gradients and batch values over grid points
cost a few vector operations per call.  The remaining families (norm
distances, entropies, log barriers) go one at a time through the scalar
reference inside the pack.  :class:`Mixture` fixes one weight vector and
collapses the affine and quadratic constraints into a single quadratic form
for the optimization oracle and the certificate checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

Array = np.ndarray

# Comparisons against zero use this absolute tolerance unless stated.
ZERO_TOL = 1e-12
# Distribution vectors must sum to 1 within this tolerance.
DIST_TOL = 1e-9
# Floor for boundary-singular terms (entropy/barrier logs) in parameter
# bounds; keeps conservative constants finite.
GRAD_FLOOR = 1e-12


class DimensionMismatch(ValueError):
    """Vector/matrix shapes do not agree with the constraint or domain."""


class EvaluationDomainError(ValueError):
    """Constraint evaluated outside its analytic domain (e.g. log of <= 0)."""


class InvalidDistribution(ValueError):
    """Weight vector is not a probability distribution."""


class SetupError(ValueError):
    """Inconsistent configuration: learner/problem mismatch, bad knobs."""


class ConvergenceError(RuntimeError):
    """An inner iterative solve hit its cap without meeting its contract."""


def _freeze(a, dtype=float) -> Array:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True, eq=False)
class Simplex:
    """Probability simplex in R^n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise SetupError("simplex dimension must be >= 1")


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball of given radius; center defaults to the origin."""

    n: int
    radius: float = 1.0
    center: Array | None = None

    def __post_init__(self):
        if self.n < 1:
            raise SetupError("ball dimension must be >= 1")
        if not self.radius > 0:
            raise SetupError("ball radius must be positive")
        c = np.zeros(self.n) if self.center is None else np.asarray(self.center, float)
        if c.shape != (self.n,):
            raise DimensionMismatch("ball center has wrong dimension")
        object.__setattr__(self, "center", _freeze(c))


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lo <= x <= hi}."""

    lo: Array
    hi: Array

    def __post_init__(self):
        lo = np.asarray(self.lo, float)
        hi = np.asarray(self.hi, float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatch("box bounds must be 1-d and equal length")
        if np.any(lo > hi):
            raise SetupError("box has lo > hi in some coordinate")
        object.__setattr__(self, "lo", _freeze(lo))
        object.__setattr__(self, "hi", _freeze(hi))


Domain = Union[Simplex, Ball, Box]


def domain_dim(domain: Domain) -> int:
    if isinstance(domain, (Simplex, Ball)):
        return domain.n
    return domain.lo.shape[0]


def domain_contains(domain: Domain, x: Array, tol: float = DIST_TOL) -> bool:
    x = np.asarray(x, float)
    if x.shape != (domain_dim(domain),):
        return False
    if isinstance(domain, Simplex):
        return bool((x >= -tol).all() and abs(float(x.sum()) - 1.0) <= tol)
    if isinstance(domain, Ball):
        return bool(np.linalg.norm(x - domain.center) <= domain.radius + tol)
    return bool(np.all(x >= domain.lo - tol) and np.all(x <= domain.hi + tol))


def start_point(domain: Domain) -> Array:
    """Canonical first iterate: uniform point, ball center, or box midpoint."""
    if isinstance(domain, Simplex):
        return np.full(domain.n, 1.0 / domain.n)
    if isinstance(domain, Ball):
        return domain.center.copy()
    return 0.5 * (domain.lo + domain.hi)


def domain_diameter(domain: Domain) -> float:
    if isinstance(domain, Simplex):
        return math.sqrt(2.0) if domain.n > 1 else 0.0
    if isinstance(domain, Ball):
        return 2.0 * domain.radius
    return float(np.linalg.norm(domain.hi - domain.lo))


def bounding_box(domain: Domain) -> tuple[Array, Array]:
    if isinstance(domain, Simplex):
        return np.zeros(domain.n), np.ones(domain.n)
    if isinstance(domain, Ball):
        return domain.center - domain.radius, domain.center + domain.radius
    return domain.lo.copy(), domain.hi.copy()


def max_point_norm(domain: Domain) -> float:
    """sup of ||x||_2 over the domain (exact for these domain shapes)."""
    if isinstance(domain, Simplex):
        return 1.0
    if isinstance(domain, Ball):
        return float(np.linalg.norm(domain.center)) + domain.radius
    return float(np.sqrt(np.sum(np.maximum(domain.lo**2, domain.hi**2))))


def linear_minimum(domain: Domain, c: Array) -> tuple[Array, float]:
    """argmin/min of c.x over the domain, in closed form."""
    c = np.asarray(c, float)
    if c.shape != (domain_dim(domain),):
        raise DimensionMismatch("direction has wrong dimension for domain")
    if isinstance(domain, Simplex):
        i = int(np.argmin(c))
        x = np.zeros(domain.n)
        x[i] = 1.0
        return x, float(c[i])
    if isinstance(domain, Ball):
        nrm = float(np.linalg.norm(c))
        if nrm <= ZERO_TOL:
            x = domain.center.copy()
        else:
            x = domain.center - domain.radius * c / nrm
        return x, float(c @ x)
    x = np.where(c > 0, domain.lo, domain.hi)
    return x.astype(float), float(c @ x)


# ---------------------------------------------------------------------------
# Constraint families


@dataclass(frozen=True, eq=False)
class Affine:
    """f(x) = a.x + b."""

    a: Array
    b: float

    def __post_init__(self):
        a = np.asarray(self.a, float)
        if a.ndim != 1:
            raise DimensionMismatch("affine coefficient vector must be 1-d")
        object.__setattr__(self, "a", _freeze(a))
        object.__setattr__(self, "b", float(self.b))


@dataclass(frozen=True, eq=False)
class Quadratic:
    """f(x) = x.A x + b.x + c with A symmetric (not necessarily PSD)."""

    A: Array
    b: Array
    c: float

    def __post_init__(self):
        A = np.asarray(self.A, float)
        b = np.asarray(self.b, float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("quadratic matrix must be square")
        if b.shape != (A.shape[0],):
            raise DimensionMismatch("quadratic linear term has wrong dimension")
        asym = float(np.max(np.abs(A - A.T))) if A.size else 0.0
        if asym > 1e-9 * (1.0 + float(np.max(np.abs(A)))):
            raise SetupError(f"quadratic matrix not symmetric (max asymmetry {asym:.3g})")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "c", float(self.c))


@dataclass(frozen=True, eq=False)
class LogAffineComposite:
    """f(x) = log(e + inner(x)/omega); concave whenever inner is concave."""

    inner: "ConstraintFn"
    omega: float

    def __post_init__(self):
        if not self.omega > 0:
            raise SetupError("omega must be positive")
        object.__setattr__(self, "omega", float(self.omega))


@dataclass(frozen=True, eq=False)
class NegEntropy:
    """f(x) = sum_i x_i log x_i + shift; requires strictly positive x."""

    n: int
    shift: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise SetupError("dimension must be >= 1")
        object.__setattr__(self, "shift", float(self.shift))


@dataclass(frozen=True, eq=False)
class NormDistSq:
    """f(x) = ||x - center||^2 - c."""

    center: Array
    c: float

    def __post_init__(self):
        center = np.asarray(self.center, float)
        if center.ndim != 1:
            raise DimensionMismatch("center must be a 1-d vector")
        object.__setattr__(self, "center", _freeze(center))
        object.__setattr__(self, "c", float(self.c))


@dataclass(frozen=True, eq=False)
class NegLogBarrier:
    """f(x) = level - sum_k log(rows_k . x); requires rows_k . x > 0."""

    rows: Array
    level: float

    def __post_init__(self):
        rows = np.asarray(self.rows, float)
        if rows.ndim != 2:
            raise DimensionMismatch("rows must be a 2-d matrix")
        object.__setattr__(self, "rows", _freeze(rows))
        object.__setattr__(self, "level", float(self.level))


ConstraintFn = Union[Affine, Quadratic, LogAffineComposite, NegEntropy, NormDistSq, NegLogBarrier]


def constraint_dim(f: ConstraintFn) -> int:
    if isinstance(f, Affine):
        return f.a.shape[0]
    if isinstance(f, Quadratic):
        return f.A.shape[0]
    if isinstance(f, LogAffineComposite):
        return constraint_dim(f.inner)
    if isinstance(f, NegEntropy):
        return f.n
    if isinstance(f, NormDistSq):
        return f.center.shape[0]
    return f.rows.shape[1]


def _rowdot(R: Array, x: Array):
    """R.x for a 1-d R or row by row for a 2-d R, through numpy's own sum.

    A row of a 2-d R gives bitwise the value that row alone gives, which a
    BLAS matrix-vector product does not; the scalar and the packed affine
    paths both use this kernel so they agree exactly.
    """
    return np.add.reduce(R * x, axis=-1)


def _check_point(f: ConstraintFn, x) -> Array:
    x = np.asarray(x, float)
    if x.shape != (constraint_dim(f),):
        raise DimensionMismatch(
            f"point has shape {x.shape}, constraint expects ({constraint_dim(f)},)"
        )
    return x


def evaluate(f: ConstraintFn, x) -> float:
    """Constraint value at x.  Raises EvaluationDomainError off the analytic domain."""
    x = _check_point(f, x)
    if isinstance(f, Affine):
        return float(_rowdot(f.a, x) + f.b)
    if isinstance(f, Quadratic):
        return float(x @ (f.A @ x) + f.b @ x + f.c)
    if isinstance(f, LogAffineComposite):
        arg = math.e + evaluate(f.inner, x) / f.omega
        if arg <= 0:
            raise EvaluationDomainError("log argument is nonpositive")
        return math.log(arg)
    if isinstance(f, NegEntropy):
        if np.any(x <= 0):
            raise EvaluationDomainError("negative entropy needs strictly positive coordinates")
        return float(np.sum(x * np.log(x)) + f.shift)
    if isinstance(f, NormDistSq):
        d = x - f.center
        return float(d @ d - f.c)
    z = f.rows @ x
    if np.any(z <= 0):
        raise EvaluationDomainError("log barrier row inner product is nonpositive")
    return float(f.level - np.sum(np.log(z)))


def gradient(f: ConstraintFn, x) -> Array:
    """Gradient of the constraint at x (same domain rules as evaluate)."""
    x = _check_point(f, x)
    if isinstance(f, Affine):
        return f.a.copy()
    if isinstance(f, Quadratic):
        return 2.0 * (f.A @ x) + f.b
    if isinstance(f, LogAffineComposite):
        arg = math.e + evaluate(f.inner, x) / f.omega
        if arg <= 0:
            raise EvaluationDomainError("log argument is nonpositive")
        return gradient(f.inner, x) / (f.omega * arg)
    if isinstance(f, NegEntropy):
        if np.any(x <= 0):
            raise EvaluationDomainError("negative entropy needs strictly positive coordinates")
        return 1.0 + np.log(x)
    if isinstance(f, NormDistSq):
        return 2.0 * (x - f.center)
    z = f.rows @ x
    if np.any(z <= 0):
        raise EvaluationDomainError("log barrier row inner product is nonpositive")
    return -(f.rows.T @ (1.0 / z))


def evaluate_batch(f: ConstraintFn, X: Array) -> Array:
    """Vectorized evaluate over rows of X (grid and sampling oracles)."""
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != constraint_dim(f):
        raise DimensionMismatch("batch must be (N, n) with matching n")
    if isinstance(f, Affine):
        return X @ f.a + f.b
    if isinstance(f, Quadratic):
        return np.einsum("ni,ij,nj->n", X, f.A, X) + X @ f.b + f.c
    if isinstance(f, LogAffineComposite):
        arg = math.e + evaluate_batch(f.inner, X) / f.omega
        if np.any(arg <= 0):
            raise EvaluationDomainError("log argument is nonpositive")
        return np.log(arg)
    if isinstance(f, NegEntropy):
        if np.any(X <= 0):
            raise EvaluationDomainError("negative entropy needs strictly positive coordinates")
        return np.sum(X * np.log(X), axis=1) + f.shift
    if isinstance(f, NormDistSq):
        D = X - f.center
        return np.sum(D * D, axis=1) - f.c
    Z = X @ f.rows.T
    if np.any(Z <= 0):
        raise EvaluationDomainError("log barrier row inner product is nonpositive")
    return f.level - np.sum(np.log(Z), axis=1)


# ---------------------------------------------------------------------------
# Conservative per-family bounds over a domain (interval arithmetic)


def _affine_interval(a: Array, b: float, domain: Domain) -> tuple[float, float]:
    if isinstance(domain, Simplex):
        return float(np.min(a)) + b, float(np.max(a)) + b
    if isinstance(domain, Ball):
        mid = float(a @ domain.center)
        half = domain.radius * float(np.linalg.norm(a))
        return mid - half + b, mid + half + b
    lo = float(np.sum(np.minimum(a * domain.lo, a * domain.hi)))
    hi = float(np.sum(np.maximum(a * domain.lo, a * domain.hi)))
    return lo + b, hi + b


def _max_dist(center: Array, domain: Domain) -> float:
    lo, hi = bounding_box(domain)
    per = np.maximum(np.abs(lo - center), np.abs(hi - center))
    return float(np.linalg.norm(per))


def _xlogx_interval(lo: float, hi: float) -> tuple[float, float]:
    # t log t on [lo, hi] with lo >= 0; limit value 0 at t = 0
    def val(t):
        return 0.0 if t == 0 else t * math.log(t)

    vmin = min(val(lo), val(hi))
    if lo <= 1.0 / math.e <= hi:
        vmin = min(vmin, -1.0 / math.e)
    return vmin, max(val(lo), val(hi))


def value_interval(f: ConstraintFn, domain: Domain) -> tuple[float, float]:
    """Interval guaranteed to contain f(x) for every x in the domain."""
    if isinstance(f, Affine):
        return _affine_interval(f.a, f.b, domain)
    if isinstance(f, Quadratic):
        M = max_point_norm(domain)
        ev = np.linalg.eigvalsh(f.A)
        qlo = min(0.0, float(ev[0])) * M * M
        qhi = max(0.0, float(ev[-1])) * M * M
        llo, lhi = _affine_interval(f.b, f.c, domain)
        return qlo + llo, qhi + lhi
    if isinstance(f, LogAffineComposite):
        ilo, ihi = value_interval(f.inner, domain)
        lo_arg = max(math.e + ilo / f.omega, GRAD_FLOOR)
        hi_arg = max(math.e + ihi / f.omega, lo_arg)
        return math.log(lo_arg), math.log(hi_arg)
    if isinstance(f, NegEntropy):
        if isinstance(domain, Simplex):
            return -math.log(domain.n) + f.shift if domain.n > 1 else f.shift, f.shift
        lo, hi = bounding_box(domain)
        if np.any(lo < 0):
            raise SetupError("negative entropy over a domain with negative coordinates")
        lo_sum = hi_sum = 0.0
        for li, hi_i in zip(lo, hi):
            a, b = _xlogx_interval(float(li), float(hi_i))
            lo_sum += a
            hi_sum += b
        return lo_sum + f.shift, hi_sum + f.shift
    if isinstance(f, NormDistSq):
        md = _max_dist(f.center, domain)
        return -f.c, md * md - f.c
    # NegLogBarrier
    lo_sum = hi_sum = 0.0
    for k in range(f.rows.shape[0]):
        rlo, rhi = _affine_interval(f.rows[k], 0.0, domain)
        if rhi <= 0:
            raise SetupError("log barrier row is nonpositive over the whole domain")
        lo_sum += math.log(max(rlo, GRAD_FLOOR))
        hi_sum += math.log(rhi)
    return f.level - hi_sum, f.level - lo_sum


def gradient_norm_bound(f: ConstraintFn, domain: Domain) -> float:
    """Conservative upper bound on ||grad f(x)||_2 over the domain."""
    if isinstance(f, Affine):
        return float(np.linalg.norm(f.a))
    if isinstance(f, Quadratic):
        rho = float(np.max(np.abs(np.linalg.eigvalsh(f.A)))) if f.A.size else 0.0
        return 2.0 * rho * max_point_norm(domain) + float(np.linalg.norm(f.b))
    if isinstance(f, LogAffineComposite):
        # |e + inner/omega| >= e - 1 > 1 under the width precondition
        return gradient_norm_bound(f.inner, domain) / f.omega
    if isinstance(f, NegEntropy):
        lo, hi = bounding_box(domain)
        lo = np.maximum(lo, GRAD_FLOOR)
        hi = np.maximum(hi, lo)
        per = np.maximum(np.abs(1.0 + np.log(lo)), np.abs(1.0 + np.log(hi)))
        return float(np.linalg.norm(per))
    if isinstance(f, NormDistSq):
        return 2.0 * _max_dist(f.center, domain)
    total = 0.0
    for k in range(f.rows.shape[0]):
        rlo, _ = _affine_interval(f.rows[k], 0.0, domain)
        total += float(np.linalg.norm(f.rows[k])) / max(rlo, GRAD_FLOOR)
    return total


def smoothness_bound(f: ConstraintFn, domain: Domain) -> float:
    """Upper bound on the Hessian operator norm, or inf where unbounded."""
    if isinstance(f, Affine):
        return 0.0
    if isinstance(f, Quadratic):
        return 2.0 * float(np.max(np.abs(np.linalg.eigvalsh(f.A)))) if f.A.size else 0.0
    if isinstance(f, NormDistSq):
        return 2.0
    if isinstance(f, LogAffineComposite):
        inner_L = smoothness_bound(f.inner, domain)
        if not math.isfinite(inner_L):
            return math.inf
        # |d/dt log(e+t/w)| terms: inner curvature plus rank-one correction
        gi = gradient_norm_bound(f.inner, domain)
        denom = math.e - 1.0
        return inner_L / (f.omega * denom) + (gi / f.omega) ** 2 / (denom * denom)
    return math.inf  # entropy/barrier: unbounded toward the boundary


def curvature_bound(f: ConstraintFn, domain: Domain, sense: str = "min") -> float:
    """Lower bound on the smallest Hessian eigenvalue of the residual form."""
    if sense == "max":
        # residual is 1 - f; convex when f concave, no positive bound claimed
        return 0.0
    if isinstance(f, Affine):
        return 0.0
    if isinstance(f, Quadratic):
        return max(0.0, 2.0 * float(np.min(np.linalg.eigvalsh(f.A))))
    if isinstance(f, NormDistSq):
        return 2.0
    if isinstance(f, NegEntropy):
        _, hi = bounding_box(domain)
        top = float(np.max(hi))
        return 1.0 / top if top > 0 else 0.0
    if isinstance(f, NegLogBarrier):
        # unit rows contribute sum_i e_i e_i^T / x_i^2 >= I when x_i <= 1
        _, hi = bounding_box(domain)
        if float(np.max(hi)) > 1.0 + ZERO_TOL:
            return 0.0
        n = f.rows.shape[1]
        covered = set()
        for k in range(f.rows.shape[0]):
            row = f.rows[k]
            j = int(np.argmax(row))
            if row[j] == 1.0 and np.count_nonzero(row) == 1:
                covered.add(j)
        return 1.0 if len(covered) == n else 0.0
    return 0.0


# ---------------------------------------------------------------------------
# Problems


@dataclass(frozen=True)
class ProblemParams:
    """Conservative instance constants.

    G: euclidean gradient bound over constraints and domain.
    H: strong-convexity modulus common to all constraints (0 when absent).
    omega: width bound, sup |f_j| over the domain.
    D: euclidean diameter of the domain.
    G_inf: entrywise bound on dual payoff gradients (= omega).
    alpha: exp-concavity modulus available to Newton-style learners.
    """

    G: float
    H: float
    omega: float
    D: float
    G_inf: float
    alpha: float

    def __post_init__(self):
        if self.G < 0 or self.H < 0 or self.omega < 0 or self.D < 0:
            raise SetupError("instance constants must be nonnegative")


@dataclass(frozen=True, eq=False)
class Problem:
    """Constraint system over a domain, with its estimated constants."""

    constraints: tuple[ConstraintFn, ...]
    domain: Domain
    params: ProblemParams
    sense: str = "min"

    def __post_init__(self):
        if len(self.constraints) < 1:
            raise SetupError("a problem needs at least one constraint")
        if self.sense not in ("min", "max"):
            raise SetupError("sense must be 'min' or 'max'")
        n = domain_dim(self.domain)
        for j, f in enumerate(self.constraints):
            if constraint_dim(f) != n:
                raise DimensionMismatch(f"constraint {j} has dimension {constraint_dim(f)}, domain has {n}")
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def n(self) -> int:
        return domain_dim(self.domain)

    @cached_property
    def packed(self) -> "Packed":
        """The constraints stacked by family; built on first use, then kept."""
        return Packed(self)


def _estimate(constraints, domain: Domain, sense: str) -> ProblemParams:
    G = max(gradient_norm_bound(f, domain) for f in constraints)
    H = min(curvature_bound(f, domain, sense) for f in constraints)
    widths = []
    for f in constraints:
        lo, hi = value_interval(f, domain)
        if sense == "max":
            lo, hi = 1.0 - hi, 1.0 - lo
        widths.append(max(abs(lo), abs(hi)))
    omega = max(widths)
    D = domain_diameter(domain)
    if sense == "max" and all(
        isinstance(f, LogAffineComposite) and isinstance(f.inner, Affine) for f in constraints
    ):
        alpha = 1.0
    elif H > 0 and G > 0:
        alpha = H / (G * G)
    else:
        alpha = 0.0
    return ProblemParams(G=G, H=H, omega=omega, D=D, G_inf=omega, alpha=alpha)


def estimate_parameters(problem: Problem) -> ProblemParams:
    """Recompute conservative instance constants from the constraints."""
    return _estimate(problem.constraints, problem.domain, problem.sense)


def make_problem(constraints, domain: Domain, params: ProblemParams | None = None,
                 sense: str = "min") -> Problem:
    constraints = tuple(constraints)
    if params is None:
        params = _estimate(constraints, domain, sense)
    return Problem(constraints=constraints, domain=domain, params=params, sense=sense)


# ---------------------------------------------------------------------------
# Packed form: the constraints of a problem stacked by family
#
# A group holds the constraints of one family as stacked arrays; ``idx`` is
# their positions in the problem.  ``values`` and ``rows`` return raw family
# values or gradient rows together with ``bad``: None when every constraint
# is on its analytic domain, otherwise the boolean mask of those off it
# (their entries are NaN).  ``row(i, x)`` is one gradient row and raises
# off the domain.  ``quadratic_form(w)`` gives (M, q, c) with
# sum_i w_i f_i(x) = x.M x + q.x + c (M None when zero), or None for a
# family that is not quadratic.


def _in_order(P: Array) -> Array:
    """Sum over the first axis adding entries in order, with the rounding of
    a plain loop.  Near-tied vertices make the closed-form oracle's choice
    hinge on the last bit of the mixed coefficients, so keep that bit."""
    return np.cumsum(P, axis=0)[-1]


def _positive(z: Array) -> tuple[Array, Array | None]:
    """z with nonpositive entries replaced by 1, and their mask (None if none)."""
    if z.min() > 0:
        return z, None
    bad = z <= 0
    return np.where(bad, 1.0, z), bad


def _mark(values: Array, bad: Array | None) -> tuple[Array, Array | None]:
    """NaN out the rows that are off their domain."""
    if bad is not None:
        values[bad] = np.nan
    return values, bad


class _Group:
    """One family's constraints, stacked; rows are in constraint order.

    ``values``/``rows``/``values_batch`` return the raw values (or gradient
    rows) with a mask of the rows off their analytic domain (None if none).
    Families with such a domain also give ``error(i, x)``, what evaluating
    row i at x (a point or a batch) raises.
    """

    def first(self, x: Array, eps: float, flip: bool) -> tuple[int, float | None] | None:
        """Lowest row whose residual exceeds eps or that is off its domain,
        with its residual (None when off the domain); None if there is none."""
        v, bad = self.values(x)
        r = 1.0 - v if flip else v
        hit = r > eps
        if bad is not None:
            hit |= bad
        i = int(hit.argmax())
        if not hit[i]:
            return None
        return i, None if bad is not None and bad[i] else float(r[i])

    def quadratic_form(self, w):
        return None


class _Affines(_Group):
    """f_j(x) = R_j.x + b_j."""

    def __init__(self, fs):
        self.R = np.array([f.a for f in fs])
        self.b = np.array([f.b for f in fs])

    def values(self, x):
        return _rowdot(self.R, x) + self.b, None

    def rows(self, x):
        return self.R, None

    def row(self, i, x):
        return self.R[i]

    def values_batch(self, X):
        return X @ self.R.T + self.b, None

    def quadratic_form(self, w):
        return None, _in_order(w[:, None] * self.R), float(_in_order(w * self.b))


class _Quadratics(_Group):
    """f_j(x) = x.A_j x + B_j.x + c_j; the A_j also as one (k*n, n) matrix."""

    def __init__(self, fs):
        self.A = np.array([f.A for f in fs])
        self.A_flat = self.A.reshape(-1, self.A.shape[2])
        self.B = np.array([f.b for f in fs])
        self.c = np.array([f.c for f in fs])

    def _Ax(self, x):
        return (self.A_flat @ x).reshape(self.B.shape)

    def values(self, x):
        return (self._Ax(x) + self.B) @ x + self.c, None

    def rows(self, x):
        return 2.0 * self._Ax(x) + self.B, None

    def row(self, i, x):
        return 2.0 * (self.A[i] @ x) + self.B[i]

    def values_batch(self, X):
        return np.einsum("ni,kij,nj->nk", X, self.A, X) + X @ self.B.T + self.c, None

    def quadratic_form(self, w):
        return np.tensordot(w, self.A, 1), w @ self.B, float(w @ self.c)


class _LogAffines(_Group):
    """f_j(x) = log(e + (a_j.x + b_j)/omega_j), stored as log(R_j.x + d_j)
    with R_j = a_j/omega_j and d_j = e + b_j/omega_j folded in once.

    ``row`` instead repeats the scalar gradient's arithmetic on a_j, b_j and
    omega_j: a primal learner steps along the very gradient the reference
    gives, and ONS's inner projection would turn a last-bit change of it into
    a 1e-10 change of the iterate.
    """

    def __init__(self, fs):
        self.a = np.array([f.inner.a for f in fs])
        self.b = np.array([f.inner.b for f in fs])
        self.omega = np.array([f.omega for f in fs])
        self.R = self.a / self.omega[:, None]
        self.d = math.e + self.b / self.omega

    def first(self, x, eps, flip):
        # The residual crosses eps where z = R.x + d meets z* = exp(1 - eps)
        # ("max": violated below it) or exp(eps) ("min": violated above it,
        # and z <= 0 is off the domain).  Rows on the satisfied side of z* by
        # a relative 1e-12 are skipped without a log; the rest are checked in
        # order.
        y = self.R @ x
        if flip:
            cand = y <= math.exp(1.0 - eps) * (1.0 + 1e-12) - self.d
        else:
            cand = (y >= math.exp(eps) * (1.0 - 1e-12) - self.d) | (y <= -self.d)
        for i in cand.nonzero()[0].tolist():
            z = float(y[i] + self.d[i])
            if not z > 0:
                return i, None
            r = 1.0 - math.log(z) if flip else math.log(z)
            if r > eps:
                return i, r
        return None

    def values(self, x):
        z, bad = _positive(self.R @ x + self.d)
        return _mark(np.log(z), bad)

    def rows(self, x):
        z, bad = _positive(self.R @ x + self.d)
        return _mark(self.R / z[:, None], bad)

    def row(self, i, x):
        arg = math.e + float(_rowdot(self.a[i], x) + self.b[i]) / self.omega[i]
        if arg <= 0:
            raise self.error(i, x)
        return self.a[i] / (self.omega[i] * arg)

    def error(self, i, x):
        return EvaluationDomainError("log argument is nonpositive")

    def values_batch(self, X):
        Z, bad = _positive(X @ self.R.T + self.d)
        V = np.log(Z)
        if bad is not None:
            bad = bad.any(axis=0)
            V[:, bad] = np.nan
        return V, bad


class _Scalar(_Group):
    """Constraints with no stacked form, evaluated one at a time through the
    scalar reference: norm distances, entropies, log barriers and log
    composites whose inner is not affine.  None of the solver workloads has
    more than one constraint of these families."""

    def __init__(self, fs):
        self.fs = fs

    def error(self, i, x):
        # evaluate and gradient share their domain rules, so evaluating row i
        # again raises the reference's own error for it
        try:
            (evaluate if x.ndim == 1 else evaluate_batch)(self.fs[i], x)
        except EvaluationDomainError as exc:
            return exc
        raise AssertionError("row is on its domain")

    def _each(self, fn, x, shape):
        out = np.empty((len(self.fs),) + shape)
        bad = np.zeros(len(self.fs), bool)
        for i, f in enumerate(self.fs):
            try:
                out[i] = fn(f, x)
            except EvaluationDomainError:
                out[i], bad[i] = np.nan, True
        return out, bad if bad.any() else None

    def values(self, x):
        return self._each(evaluate, x, ())

    def rows(self, x):
        return self._each(gradient, x, x.shape)

    def row(self, i, x):
        return gradient(self.fs[i], x)

    def values_batch(self, X):
        V, bad = self._each(evaluate_batch, X, X.shape[:1])
        return V.T, bad


def _group_of(f: ConstraintFn) -> type:
    if isinstance(f, LogAffineComposite):
        return _LogAffines if isinstance(f.inner, Affine) else _Scalar
    return {Affine: _Affines, Quadratic: _Quadratics}.get(type(f), _Scalar)


def _as_point(x, n: int) -> Array:
    x = np.asarray(x, float)
    if x.shape != (n,):
        raise DimensionMismatch(f"point has shape {x.shape}, problem expects ({n},)")
    return x


class Packed:
    """A problem's constraints grouped by family into stacked arrays.

    Built once per problem, on first use (``Problem.packed``).  Residuals
    are oriented by the problem's sense: r = f for "min", r = 1 - f for
    "max".  Per-constraint smoothness bounds are computed on first use too,
    which is the optimization oracle's first call.
    """

    def __init__(self, problem: Problem):
        self.constraints = problem.constraints
        self.domain = problem.domain
        self.m, self.n = problem.m, problem.n
        self.flip = problem.sense == "max"
        members: dict[type, list[int]] = {}
        for j, f in enumerate(problem.constraints):
            members.setdefault(_group_of(f), []).append(j)
        self.groups = []
        self.where: list[tuple] = [()] * self.m  # j -> (group, row in group)
        for kind, idx in members.items():
            group = kind([problem.constraints[j] for j in idx])
            group.idx = np.array(idx)
            self.groups.append(group)
            for row, j in enumerate(idx):
                self.where[j] = (group, row)
        # one family yields its values in constraint order as they are
        self._single = self.groups[0] if len(self.groups) == 1 else None
        self.affine = all(isinstance(g, _Affines) for g in self.groups)

    @cached_property
    def smoothness(self) -> Array:
        """smoothness_bound of each constraint (inf where unbounded)."""
        return np.array([smoothness_bound(f, self.domain) for f in self.constraints])

    def gather(self, rows: bool, x: Array) -> tuple[Array, Array | None]:
        """Raw values (or gradient rows) of all constraints, in order."""
        if self._single is not None:
            return self._single.rows(x) if rows else self._single.values(x)
        out = np.empty((self.m, self.n) if rows else self.m)
        bad = None
        for g in self.groups:
            v, b = g.rows(x) if rows else g.values(x)
            out[g.idx] = v
            if b is not None:
                if bad is None:
                    bad = np.zeros(self.m, bool)
                bad[g.idx] = b
        return out, bad

    def off_domain(self, j: int, x: Array) -> EvaluationDomainError:
        group, row = self.where[j]
        return group.error(row, x)

    def gradients(self, x) -> Array:
        """Unoriented gradient rows at x; raises if any is off its domain."""
        x = _as_point(x, self.n)
        G, bad = self.gather(True, x)
        if bad is not None and bad.any():
            raise self.off_domain(int(bad.argmax()), x)
        return G


class Mixture:
    """sum_j p_j r_j(x) for one fixed weight vector p, as a function of x.

    Affine and quadratic constraints collapse into a single quadratic form
    x.M x + q.x + c, so their cost per evaluation does not grow with m.  The
    other families keep their rows.  Constraints of weight
    zero are left out: they are never evaluated, so they cannot raise.
    """

    def __init__(self, problem: Problem, p: Array):
        self.packed = pk = problem.packed
        self.p = p
        w = -p if pk.flip else p
        self.M = None
        self.q = np.zeros(pk.n)
        self.c = float(np.sum(p)) if pk.flip else 0.0
        self.terms = []
        for group in pk.groups:
            wg = w[group.idx]
            if not wg.any():
                continue
            form = group.quadratic_form(wg)
            if form is None:
                self.terms.append((group, wg))
                continue
            M, q, c = form
            if M is not None:
                self.M = M if self.M is None else self.M + M
            self.q = self.q + q
            self.c += c
        self.linear = self.M is None and not self.terms

    @property
    def smoothness(self) -> float | None:
        """sum_j p_j L_j over constraints of nonzero weight, or None when
        some L_j is unbounded or the sum is 0 (use a line search)."""
        active = self.p != 0
        L = sum(self.p[active] * self.packed.smoothness[active], 0.0)
        return L if math.isfinite(L) and L > 0 else None

    @staticmethod
    def _live(x: Array, group, wg: Array, out: Array, bad: Array | None) -> Array:
        """wg @ out, where rows off their domain count only at weight zero."""
        if bad is not None:
            live = bad & (wg != 0)
            if live.any():
                raise group.error(int(live.argmax()), x)
            out = np.where(bad.reshape(bad.shape + (1,) * (out.ndim - 1)), 0.0, out)
        return wg @ out

    def value(self, x: Array) -> float:
        v = self.c + self.q @ x
        if self.M is not None:
            v += x @ (self.M @ x)
        for group, wg in self.terms:
            v += self._live(x, group, wg, *group.values(x))
        return float(v)

    def gradient(self, x: Array) -> Array:
        g = self.q.copy() if self.M is None else 2.0 * (self.M @ x) + self.q
        for group, wg in self.terms:
            g += self._live(x, group, wg, *group.rows(x))
        return g

    def value_batch(self, X: Array) -> Array:
        """The mixed residual at every row of X."""
        v = X @ self.q + self.c
        if self.M is not None:
            v += np.einsum("ni,ij,nj->n", X, self.M, X)
        for group, wg in self.terms:
            V, bad = group.values_batch(X)
            v += self._live(X, group, wg, V.T, bad)
        return v


# ---------------------------------------------------------------------------
# Residual orientation and oracles


def residual(problem: Problem, j: int, x) -> float:
    """Constraint j's value oriented so that <= 0 means satisfied (scalar reference)."""
    v = evaluate(problem.constraints[j], x)
    return v if problem.sense == "min" else 1.0 - v


def residual_gradient(problem: Problem, j: int, x) -> Array:
    """Gradient of residual j at x, from the packed rows of its family."""
    pk = problem.packed
    group, row = pk.where[j]
    g = group.row(row, _as_point(x, pk.n))
    return -g if pk.flip else g.copy()


def residuals(problem: Problem, x) -> Array:
    """All residuals at x; raises EvaluationDomainError if any is off its domain."""
    pk = problem.packed
    x = _as_point(x, pk.n)
    v, bad = pk.gather(False, x)
    if bad is not None and bad.any():
        raise pk.off_domain(int(bad.argmax()), x)
    return 1.0 - v if pk.flip else v


def residual_gradients(problem: Problem, x) -> Array:
    """(m, n) residual gradients at x, one row per constraint."""
    G = problem.packed.gradients(x)
    return -G if problem.packed.flip else np.array(G)


def mixed_gradient(problem: Problem, p: Array, x) -> Array:
    """sum_j p_j grad r_j(x) over all constraints, for any weight vector p."""
    g = p @ problem.packed.gradients(x)
    return -g if problem.packed.flip else g


def residuals_batch(problem: Problem, X) -> Array:
    """(N, m) residuals at the N rows of X; raises if any is off its domain."""
    pk = problem.packed
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != pk.n:
        raise DimensionMismatch("batch must be (N, n) with matching n")
    V = np.empty((X.shape[0], pk.m))
    for group in pk.groups:
        Vg, bad = group.values_batch(X)
        if bad is not None and bad.any():
            raise group.error(int(bad.argmax()), X)
        V[:, group.idx] = Vg
    return 1.0 - V if pk.flip else V


def check_distribution(p, m: int) -> Array:
    p = np.asarray(p, float)
    if p.shape != (m,):
        raise InvalidDistribution(f"weight vector has shape {p.shape}, expected ({m},)")
    if np.any(p < -ZERO_TOL):
        raise InvalidDistribution("weights must be nonnegative")
    if abs(float(np.sum(p)) - 1.0) > DIST_TOL:
        raise InvalidDistribution("weights must sum to 1")
    return np.maximum(p, 0.0)


def game_loss(problem: Problem, x, p) -> float:
    """Mixed constraint value sum_j p_j r_j(x) for a distribution p."""
    p = check_distribution(p, problem.m)
    return float(p @ residuals(problem, x))


@dataclass(frozen=True)
class Violation:
    """Index and oriented value of a violated constraint."""

    index: int
    value: float


def separation_oracle(problem: Problem, x, eps: float) -> Violation | None:
    """First constraint (ascending index) violated by more than eps.

    Returns None when every residual is <= eps, i.e. x is eps-approximately
    feasible; that is the oracle's FAIL answer in the solver loops.  The
    lowest index that is violated or off its analytic domain decides: off
    its domain raises EvaluationDomainError, as evaluating the constraints
    in order and stopping at the first violation would.
    """
    if eps < 0:
        raise SetupError("eps must be nonnegative")
    pk = problem.packed
    x = _as_point(x, pk.n)
    best = None  # (index, residual or None off the domain)
    for group in pk.groups:
        hit = group.first(x, eps, pk.flip)
        if hit is not None and (best is None or group.idx[hit[0]] < best[0]):
            best = (int(group.idx[hit[0]]), hit[1])
    if best is None:
        return None
    j, value = best
    if value is None:
        raise pk.off_domain(j, x)
    return Violation(index=j, value=value)
