"""Problem model: constraint families, domains, oracles and instance parameters.

A problem is a finite tuple of analytic constraints over a simple convex
domain (simplex, ball or box).  A point is feasible when every constraint
value is <= 0 and eps-approximately feasible when no value exceeds eps; a
constraint's value is the residual every solver and oracle consumes.  The
log transform's threshold form log(e + inner/omega) >= 1 (built by
:mod:`feasgame.reductions`) is the family :class:`LogAffineComposite` over
one affine row, whose value is already its residual 1 - log(e + inner/omega).
Certificates assume convex constraints: the certificate routes refuse a
problem with an indefinite quadratic (:attr:`Packed.indefinite`).

Constraint families form a closed set; there are no black-box callbacks.
Each family is one class (:data:`FAMILIES` maps problem-file tags to them)
that knows its file fields, value, gradient and quadratic form if it has
one.  Conservative interval, gradient, smoothness and curvature bounds over
a domain come from the packed groups (:class:`Bounds`), stacked over their
rows; they are what makes the instance constants, estimated once per
problem from them, sound rather than sampled guesses.

Domains are a closed set of classes too (:data:`DOMAINS` maps problem-file
kinds to them): each knows its file fields and answers in closed form all
the solvers and bounds ask of a domain (see _Domain), so a new domain is
one class.

How constraints are evaluated: the family methods, called one constraint at
a time through :func:`evaluate` and :func:`gradient`, are the reference the
finite-difference tests check.  The solvers and oracles go through the
packed form instead: on first use a problem is packed once
(:class:`Packed`, cached on the problem), its constraints grouped by family
into stacked arrays (affine rows, a quadratic tensor, log-affine rows with
``1/omega`` and ``e`` folded in), so the residuals and the mixed gradient
cost a few vector operations per call; norm distances, entropies and log
barriers go through their own methods one at a time.  :class:`Mixture`
fixes one weight vector and collapses the affine and quadratic constraints
into one quadratic form for the optimization oracle and the checks.
At the sizes the solvers run at, a call costs numpy's Python dispatch more
than arithmetic, so the per-round code calls ndarray methods rather than
their ``np.`` wrappers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Union, get_args

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


def _freeze(a) -> Array:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Domains
#
# Each domain is one frozen dataclass holding all the package knows about it
# (see _Domain); DOMAINS maps problem-file kinds to the classes.  Its
# dataclass fields are its file fields, annotated with their file types as a
# family's are.

Vector = Matrix = Array


def _dimension(n, kind: str) -> int:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise SetupError(f"{kind} dimension n must be an integer, got {n!r}")
    if n < 1:
        raise SetupError(f"{kind} dimension n must be >= 1")
    return int(n)


def _direction(c, n: int) -> Array:
    c = np.asarray(c, float)
    if c.shape != (n,):
        raise DimensionMismatch("direction has wrong dimension for domain")
    return c


class _Domain:
    """What a domain provides besides its file ``tag`` and dimension ``n``.

    In closed form: ``contains(x)`` (up to DIST_TOL), the first iterate
    ``start()``, ``diameter()``, ``bounding_box()``, ``max_norm()`` (sup of
    ||x||_2), ``linear_minimum(c)`` (argmin and min of c.x),
    ``affine_intervals(R, b)`` (the ranges of the rows R_j.x + b_j, each
    bit for bit what that row alone gives) and the Euclidean projection
    ``project(y)``; ``minimize_quadratic(M, r, h, x0)`` is the
    exact argmin of x.M x / 2 - (M r + h).x for finite input and a
    positive-definite M.  ``sample`` gives points in any dimension.
    """

    def max_dist(self, center: Array) -> float:
        """Upper bound on ||x - center||_2 over the domain."""
        lo, hi = self.bounding_box()
        per = np.maximum(np.abs(lo - center), np.abs(hi - center))
        return float(np.linalg.norm(per))

    def sample(self, count: int, seed: int | None = None) -> Array:
        """count points drawn uniformly-ish from the domain, any dimension."""
        if count < 1:
            raise SetupError("count must be >= 1")
        return self._sample(np.random.default_rng(seed), count)


def simplex_threshold(y) -> float:
    """Shift a with sum_i max(y_i - a, 0) = 1; exact up to float arithmetic.

    Sort descending, take the candidates (u_1 + ... + u_k - 1) / k with the
    partial sums added in order, and return the last candidate below its
    entry.  A candidate of -inf, which a partial sum that overflows gives
    (two entries of -1e308), is never taken: input with a finite entry has
    its threshold at or above max(y) - 1.  The scan is a Python loop over
    the sorted list; a NaN, wherever the sort leaves it, makes the sum NaN.

    Raises SetupError where no float shift exists: for input with a NaN or
    +inf, with every entry -inf, or whose largest entries are so large
    (about 2^53 and up) that each candidate shift rounds to the entry it
    should lie below.  project_simplex projects the last kind by shifting
    the input first.
    """
    return _threshold(_nonempty_vector(y))


def _nonempty_vector(y) -> Array:
    y = np.asarray(y, float)
    if y.ndim != 1 or y.size == 0:
        raise DimensionMismatch("expected a nonempty 1-d vector")
    return y


def _threshold(y: Array) -> float:
    """simplex_threshold of a nonempty 1-d float array."""
    u = y.tolist()
    u.sort(reverse=True)
    a = None
    s = 0.0
    for k, v in enumerate(u, 1):
        s += v
        c = (s - 1.0) / k
        if v > c > -math.inf:
            a = c
    if a is None or s != s:  # no entry lies above its candidate, or a NaN
        raise SetupError("no float simplex threshold exists for this input: it has a "
                         "NaN or +inf, no finite entry, or entries too large for a "
                         "shift below them")
    return a


def _finite_point(y, kind: str) -> Array:
    y = np.asarray(y, float)
    if not np.isfinite(y).all():
        raise SetupError(f"{kind} projection needs finite input, without a NaN or an infinity")
    return y


def project_simplex(y) -> Array:
    """Euclidean projection of y onto the probability simplex of its length:
    the exact sort-and-threshold procedure, O(n log n).

    The projection does not change when every entry moves by the same
    amount, so input too large for a float threshold is projected as
    y - max(y).  Raises SetupError for input with a NaN or +inf, or with
    every entry -inf, and DimensionMismatch for input that is not a
    nonempty 1-d vector.
    """
    y = _nonempty_vector(y)
    try:
        a = _threshold(y)
    except SetupError:
        top = y.max()
        if not -np.inf < top < np.inf:  # a NaN or +inf, or every entry -inf
            raise SetupError("simplex projection needs a finite entry and no NaN "
                             "or +inf") from None
        y = y - top
        a = _threshold(y)
    x = y - a
    np.maximum(x, 0.0, out=x)
    return x


# Solves or steps of a domain's minimize_quadratic before it stops.
PROJECT_CAP = 100_000


def _onto_plane(x: Array, F: Array) -> Array:
    """x with 1 - sum x_F, rounded once, added to the least free coordinate,
    or to the largest when the least would fall below 0.

    Solved coordinates near 1 round by up to 2^-54, which leaves their exact
    sum off the plane sum x = 1 by as much; with |x - r| small that costs
    the objective more than a relative 1e-12 (y = (0, 0.99999),
    A = diag(1.0009765625, 1) sums to 1 + 1.4e-17, 1.4e-22 over an optimum
    of 5.0e-11).  On the support the gradient of the objective is the same
    in every coordinate, so moving any free coordinate back onto the plane
    removes that cost, and the least one rounds the sum the finest: the
    exact 1 - sum x_F is a multiple of its ulp, so the move is exact unless
    it crosses a power of 2.
    """
    xF = x[F]
    rest = math.fsum([1.0, *(-xF).tolist()])
    j = xF.argmin()
    if xF[j] + rest < 0:
        j = xF.argmax()
    x[F[j]] += rest
    return x


def _simplex_kkt(M: Array, r: Array, h: Array, x0=None) -> Array:
    """argmin over the simplex of x.M x / 2 - c.x with c = M r + h, M
    positive definite: the projection of y in the M-norm is r = y, h = 0,
    and an ONS step is r = x, h = -g / beta (then c = M y for the Newton
    point y = x - M^-1 g / beta, which is never formed).

    Block principal pivoting on the KKT system (Judice and Pires, 1994).
    With the bound set B held at zero, the free coordinates F are
    x_F = r_F + d_F, where the correction d solves
    [[M_FF, 1], [1^T, 0]] [d_F; nu] = [M_FB r_B + h_F; 1 - sum r_F], and the
    bound ones carry the multipliers mu = M(x - r) - h + nu 1.  Solving for
    the correction from r, not for x_F, keeps the rounding of d relative to
    the size of d rather than of r, and _onto_plane then moves x_F onto the
    plane sum x = 1.  The answer is the first solve with x_F >= 0 and
    mu_B >= 0 (down to the rounding of the multipliers).  Otherwise every
    coordinate that breaks one of them changes side at once, so a few
    solves suffice even when many coordinates move.  Once the number of
    broken coordinates has gone three block changes without falling, only
    the least-indexed one changes side (Murty's rule), which is what keeps
    principal pivoting from cycling.  The first free set is the support of
    x0 when given, else of the Euclidean projection of r.  At a vertex e_f
    nothing is solved: mu = M e_f - c + (c_f - M_ff), which for r = e_f is
    (h_f - h) up to rounding.
    """
    c = M @ r + h
    # a NaN or an infinity in M, r or h (or an overflow) leaves c non-finite
    if not np.isfinite(c).all():
        raise SetupError("simplex projection needs finite input")
    free = (project_simplex(r) if x0 is None else np.asarray(x0, float)) > 0
    floor = None
    fewest, chances = r.size + 1, 3
    for _ in range(PROJECT_CAP):
        F = free.nonzero()[0]
        if F.size == 1:  # a vertex: nothing to solve, M x is a row of M
            f = F[0]
            x = np.zeros(r.size)
            x[f] = 1.0
            mu = M[f] - c + (c[f] - M[f, f])
        else:
            k = F.size
            K = np.ones((k + 1, k + 1))
            K[:k, :k] = M[F[:, None], F]
            K[k, k] = 0.0
            e = -r  # x - r: the correction on F, -r on B
            e[F] = 0.0
            rhs = np.empty(k + 1)
            rhs[:k] = (h - M @ e)[F]  # M_FB r_B + h_F
            rhs[k] = 1.0 - r[F].sum()
            sol = np.linalg.solve(K, rhs)
            e[F] = sol[:k]
            x = _onto_plane(r + e, F)  # r_B + (-r_B) is exactly 0
            mu = M @ e - h + sol[k]
        mu[F] = 0.0
        feasible = F.size == 1 or x.min() >= 0  # a vertex is >= 0
        if feasible and mu.min() >= 0:
            return x
        if floor is None:
            # least multiplier accepted, the size of the rounding in
            # M(x - r) - h; max|M| is on the diagonal of a positive-definite M
            floor = -1e-12 * (float(M.diagonal().max()) * (1.0 + float(abs(r).max()))
                              + float(abs(h).max()))
        if feasible and mu.min() >= floor:
            return x
        broken = (x < 0) | (mu < floor)  # sum x = 1 keeps some x_F > 0 free
        count = int(broken.sum())
        if count < fewest:
            fewest, chances = count, 3
        elif chances > 0:
            chances -= 1
        else:
            broken = broken.nonzero()[0][0]
        free[broken] = ~free[broken]
    raise ConvergenceError(
        f"exact simplex projection did not converge within {PROJECT_CAP} solves"
    )


@dataclass(frozen=True, eq=False)
class Simplex(_Domain):
    """Probability simplex in R^n."""

    tag = "simplex"
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _dimension(self.n, "simplex"))

    def contains(self, x) -> bool:
        x = np.asarray(x, float)
        return x.shape == (self.n,) and bool(
            (x >= -DIST_TOL).all() and abs(float(x.sum()) - 1.0) <= DIST_TOL)

    def start(self) -> Array:
        x = np.empty(self.n)
        x.fill(1.0 / self.n)  # np.full's bits, without its Python wrapper
        return x

    def diameter(self) -> float:
        return math.sqrt(2.0) if self.n > 1 else 0.0

    def bounding_box(self) -> tuple[Array, Array]:
        return np.zeros(self.n), np.ones(self.n)

    def max_norm(self) -> float:
        return 1.0

    def linear_minimum(self, c) -> tuple[Array, float]:
        c = _direction(c, self.n)
        i = int(c.argmin())
        x = np.zeros(self.n)
        x[i] = 1.0
        return x, float(c[i])

    def affine_intervals(self, R: Array, b) -> tuple[Array, Array]:
        return R.min(axis=1) + b, R.max(axis=1) + b

    project = staticmethod(project_simplex)
    minimize_quadratic = staticmethod(_simplex_kkt)

    def _sample(self, rng, count):
        return rng.dirichlet(np.ones(self.n), size=count)


@dataclass(frozen=True, eq=False)
class Ball(_Domain):
    """Euclidean ball of given radius; center defaults to the origin, and n
    to the length of center (files carry center and radius only)."""

    tag = "ball"
    n: InitVar[int | None] = None
    radius: float = 1.0
    center: Vector = None

    def __post_init__(self, n):
        if n is not None or self.center is None:
            n = _dimension(n, "ball")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise SetupError(f"ball radius must be positive and finite, got {self.radius!r}")
        c = np.zeros(n) if self.center is None else np.asarray(self.center, float)
        if c.ndim != 1 or c.size == 0 or (n is not None and c.shape != (n,)):
            raise DimensionMismatch("ball center has wrong dimension")
        if not np.isfinite(c).all():
            raise SetupError("ball center must be finite")
        object.__setattr__(self, "n", c.shape[0])
        object.__setattr__(self, "center", _freeze(c))

    def contains(self, x) -> bool:
        x = np.asarray(x, float)
        return x.shape == (self.n,) and bool(
            np.linalg.norm(x - self.center) <= self.radius + DIST_TOL)

    def start(self) -> Array:
        return self.center.copy()

    def diameter(self) -> float:
        return 2.0 * self.radius

    def bounding_box(self) -> tuple[Array, Array]:
        return self.center - self.radius, self.center + self.radius

    def max_norm(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius

    def max_dist(self, center: Array) -> float:
        """Exact: attained where the ray from center through the ball's
        center leaves the ball."""
        return float(np.linalg.norm(self.center - center)) + self.radius

    def linear_minimum(self, c) -> tuple[Array, float]:
        c = _direction(c, self.n)
        nrm = float(np.linalg.norm(c))
        if nrm <= ZERO_TOL:
            x = self.center.copy()
        else:
            x = self.center - self.radius * c / nrm
        return x, float(c @ x)

    def affine_intervals(self, R: Array, b) -> tuple[Array, Array]:
        mid = (R[:, None, :] @ self.center[:, None]).ravel()  # BLAS's dot per row
        half = self.radius * _row_norms(R)
        return mid - half + b, mid + half + b

    def project(self, y) -> Array:
        """Rescale along the ray from the center; SetupError on a NaN or an inf."""
        y = _finite_point(y, "ball")
        d = y - self.center
        nrm = float(np.linalg.norm(d))
        if nrm <= self.radius:
            return y.copy()
        return self.center + self.radius * d / nrm

    def minimize_quadratic(self, M: Array, r: Array, h: Array, x0=None) -> Array:
        """argmin over the ball of x.M x / 2 - (M r + h).x; x0 plays no part.
        With M = Q diag(d) Q^T (eigh), it is center + Q z for z = b / (d + lam),
        b = d Q^T (r - center) + Q^T h, and lam the root of 1/|z| = 1/radius
        (More and Sorensen, 1983), or 0 when |z| <= radius there.  A d that
        rounds to <= 0 is raised to the least normal float, so d + lam > 0.
        1/|z| is concave in lam, so Newton's method climbs to the root
        without passing it from the lower bound max(0, max |b| / radius - d);
        rounding left outside is scaled onto the sphere."""
        d, Q = np.linalg.eigh(M)
        d = np.maximum(d, np.finfo(float).tiny)
        b = d * ((r - self.center) @ Q) + h @ Q
        R = self.radius
        lam = max(0.0, float((abs(b) / R - d).max()))
        for _ in range(PROJECT_CAP):
            z = b / (d + lam)
            s = float(z @ z)
            if s <= R * R:
                break
            step = (math.sqrt(s) / R - 1.0) * s / float(z @ (z / (d + lam)))
            if not lam + step > lam:
                break
            lam += step
        z = Q @ z
        nrm = float(np.linalg.norm(z))
        return self.center + (z * (R / nrm) if nrm > R else z)

    def _sample(self, rng, count):
        z = rng.standard_normal((count, self.n))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = self.radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / self.n)
        return self.center + r * z


@dataclass(frozen=True, eq=False)
class Box(_Domain):
    """Axis-aligned box {x : lo <= x <= hi}."""

    tag = "box"
    lo: Vector
    hi: Vector

    def __post_init__(self):
        for name in ("lo", "hi"):
            v = np.asarray(getattr(self, name), float)
            if v.ndim != 1 or v.size == 0:
                raise DimensionMismatch(f"box {name} must be a nonempty 1-d vector")
            if not np.isfinite(v).all():
                raise SetupError(f"box {name} must be finite")
            object.__setattr__(self, name, _freeze(v))
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("box lo and hi must have equal length")
        if (self.lo > self.hi).any():
            raise SetupError("box has lo > hi in some coordinate")
        object.__setattr__(self, "n", self.lo.shape[0])

    def contains(self, x) -> bool:
        x = np.asarray(x, float)
        return x.shape == (self.n,) and bool(
            np.all(x >= self.lo - DIST_TOL) and np.all(x <= self.hi + DIST_TOL))

    def start(self) -> Array:
        return 0.5 * (self.lo + self.hi)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def bounding_box(self) -> tuple[Array, Array]:
        return self.lo.copy(), self.hi.copy()

    def max_norm(self) -> float:
        return float(np.sqrt(np.sum(np.maximum(self.lo**2, self.hi**2))))

    def linear_minimum(self, c) -> tuple[Array, float]:
        c = _direction(c, self.n)
        x = np.where(c > 0, self.lo, self.hi)
        return x.astype(float), float(c @ x)

    def affine_intervals(self, R: Array, b) -> tuple[Array, Array]:
        P, Q = R * self.lo, R * self.hi
        return np.minimum(P, Q).sum(axis=1) + b, np.maximum(P, Q).sum(axis=1) + b

    def project(self, y) -> Array:
        """Coordinatewise clamp onto [lo, hi]; SetupError on a NaN or an inf."""
        return np.clip(_finite_point(y, "box"), self.lo, self.hi)

    def minimize_quadratic(self, M: Array, r: Array, h: Array, x0=None) -> Array:
        """argmin over the box of x.M x / 2 - (M r + h).x by block principal
        pivoting (Judice and Pires, 1994), as in _simplex_kkt: with L held at
        lo and U at hi, x_F = r_F + d_F for M_FF d_F = h_F - M_FB (x_B - r_B),
        and g = M (x - r) - h must be >= 0 on L and <= 0 on U, exactly or,
        once a solve fails that, up to its rounding.  Until a solve also has
        lo_F <= x_F <= hi_F, every broken coordinate changes side, or only the
        least-indexed one after three changes that fail to lower their number
        (Murty's rule).  x0, else r, gives the first sets."""
        lo, hi = self.lo, self.hi
        start = r if x0 is None else np.asarray(x0, float)
        at_lo, at_hi = start <= lo, (start >= hi) & (start > lo)
        floor, fewest, chances = None, r.size + 1, 3
        for _ in range(PROJECT_CAP):
            F = (~(at_lo | at_hi)).nonzero()[0]
            x = np.where(at_lo, lo, hi)
            e = x - r
            e[F] = 0.0
            if F.size:
                e[F] = np.linalg.solve(M[F[:, None], F], (h - M @ e)[F])
                x[F] = r[F] + e[F]
            g = M @ e - h
            below, above = x < lo, x > hi  # only a free coordinate can be
            if not (below | above | (at_lo & (g < 0)) | (at_hi & (g > 0))).any():
                return x
            if floor is None:
                # the size of the rounding in g; max|M| is on the diagonal
                reach = float(abs(r).max()) + float(np.maximum(-lo, hi).max())
                floor = -1e-12 * (float(M.diagonal().max()) * reach + float(abs(h).max()))
            broken = below | above | (at_lo & (g < floor)) | (at_hi & (g > -floor))
            count = int(broken.sum())
            if count == 0:
                return x
            if count < fewest:
                fewest, chances = count, 3
            elif chances > 0:
                chances -= 1
            else:
                broken = np.arange(r.size) == broken.argmax()
            # broken bound coordinates go free, free ones to the bound crossed
            at_lo = at_lo ^ (broken & (at_lo | below))
            at_hi = at_hi ^ (broken & (at_hi | above))
        raise ConvergenceError(f"box projection did not converge within {PROJECT_CAP} solves")

    def _sample(self, rng, count):
        return rng.uniform(self.lo, self.hi, size=(count, self.n))


Domain = Union[Simplex, Ball, Box]

# The domains by problem-file kind.
DOMAINS = {cls.tag: cls for cls in get_args(Domain)}


# ---------------------------------------------------------------------------
# Constraint families
#
# Each family is one frozen dataclass holding all the package knows about
# it (see _Family); FAMILIES maps problem-file tags to the classes.  Field
# annotations name the file type of each field: 1-d, 2-d or square
# symmetric arrays, numbers, or a nested (affine) constraint.


def _rowdot(R: Array, x: Array):
    """R.x for a 1-d R or row by row for a 2-d R, through numpy's own sum.

    A row of a 2-d R gives bitwise the value that row alone gives, which a
    BLAS matrix-vector product does not; the scalar and the packed affine
    paths both use this kernel so they agree exactly.
    """
    return np.add.reduce(R * x, axis=-1)


def _row_norms(R: Array) -> Array:
    """||R_j||_2 of each row of a 2-d R, bit for bit np.linalg.norm of the
    row alone: both take BLAS's dot of the row with itself, which a norm
    along an axis does not."""
    return np.sqrt((R[:, None, :] @ R[:, :, None]).ravel())


def _xlogx_interval(lo: float, hi: float) -> tuple[float, float]:
    # t log t on [lo, hi] with lo >= 0; limit value 0 at t = 0
    def val(t):
        return 0.0 if t == 0 else t * math.log(t)

    vmin = min(val(lo), val(hi))
    if lo <= 1.0 / math.e <= hi:
        vmin = min(vmin, -1.0 / math.e)
    return vmin, max(val(lo), val(hi))


class _Family:
    """What a family provides, with the defaults of one that has no Hessian
    bound, curvature, quadratic form or stacked form.

    Every family also has its problem-file ``tag``, its dimension ``n`` (a
    field, or set on construction) and the scalar reference ``value(x)`` and
    ``gradient(x)`` at one point (they raise EvaluationDomainError off the
    analytic domain and trust the shapes, which the module-level evaluate
    functions check).  A family without a stacked form answers _Scalar's
    bounds itself: over a domain an ``interval`` containing every value, a
    ``gradient_bound`` on ||grad f||_2, and the two below.
    """

    def smoothness(self, domain: Domain) -> float:
        """Upper bound on the Hessian operator norm, or inf where unbounded."""
        return math.inf

    def curvature(self, domain: Domain) -> float:
        """Lower bound on the smallest Hessian eigenvalue over the domain."""
        return 0.0

    def as_quadratic(self) -> Quadratic | None:
        """The same function as x.A x + b.x + c, or None if it has no such form."""
        return None

    def packed_group(self) -> type:
        """The group of the packed form this constraint is stacked into."""
        return _Scalar


@dataclass(frozen=True, eq=False)
class Affine(_Family):
    """f(x) = a.x + b."""

    tag = "affine"
    a: Vector
    b: float

    def __post_init__(self):
        a = np.asarray(self.a, float)
        if a.ndim != 1:
            raise DimensionMismatch("affine coefficient vector must be 1-d")
        object.__setattr__(self, "a", _freeze(a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "n", a.shape[0])

    def value(self, x):
        return float(_rowdot(self.a, x) + self.b)

    def gradient(self, x):
        return self.a.copy()

    def as_quadratic(self):
        return Quadratic(A=np.zeros((self.n, self.n)), b=self.a.copy(), c=self.b)

    def packed_group(self):
        return _Affines


@dataclass(frozen=True, eq=False)
class Quadratic(_Family):
    """f(x) = x.A x + b.x + c with A symmetric; an indefinite A gets no certificate."""

    tag = "quadratic"
    A: Matrix
    b: Vector
    c: float

    def __post_init__(self):
        A = np.asarray(self.A, float)
        b = np.asarray(self.b, float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("quadratic matrix A must be square")
        if not np.isfinite(A).all():
            raise SetupError("quadratic matrix A has a NaN or an infinite entry")
        if b.shape != (A.shape[0],):
            raise DimensionMismatch("quadratic linear term has wrong dimension")
        # an A bitwise equal to its transpose, as a file's usually is, passes at once
        asym = 0.0 if A.tobytes() == A.T.tobytes() else float(np.abs(A - A.T).max())
        if asym and asym > 1e-9 * (1.0 + float(np.abs(A).max())):
            raise SetupError(f"quadratic matrix A is not symmetric (max asymmetry {asym:.3g})")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "n", A.shape[0])

    def value(self, x):
        return float(x @ (self.A @ x) + self.b @ x + self.c)

    def gradient(self, x):
        return 2.0 * (self.A @ x) + self.b

    @cached_property
    def spectrum(self) -> Array:
        """The eigenvalues of A in ascending order, computed once and kept (A is
        frozen), read-only: the bounds and the indefiniteness test share them.
        A problem's packed groups fill it by _fill_spectra."""
        ev = np.linalg.eigvalsh(self.A)
        ev.flags.writeable = False
        return ev

    def as_quadratic(self):
        return self

    def packed_group(self):
        return _Quadratics


def _fill_spectra(constraints) -> None:
    """Cache the spectrum of each Quadratic among constraints, all of one
    size, that has none, all from one stacked eigvalsh, which gives each the
    bits of its own."""
    qs = [f for f in constraints if isinstance(f, Quadratic) and "spectrum" not in vars(f)]
    if qs:
        spectra = np.linalg.eigvalsh(np.array([f.A for f in qs]))
        spectra.flags.writeable = False
        for f, ev in zip(qs, spectra):
            vars(f)["spectrum"] = ev


@dataclass(frozen=True, eq=False)
class LogAffineComposite(_Family):
    """f(x) = 1 - log(e + inner(x)/omega), the residual of the threshold
    log(e + inner(x)/omega) >= 1 for an affine inner, so convex."""

    tag = "log_affine_composite"
    inner: ConstraintFn
    omega: float

    def __post_init__(self):
        if type(self.inner) is not Affine:
            raise SetupError(f"a log_affine_composite's inner must be affine, not {self.inner.tag}")
        if not 0 < self.omega < math.inf:
            raise SetupError(f"omega must be positive and finite, got {self.omega!r}")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "n", self.inner.n)

    def log_argument(self, inner_value):
        """e + inner/omega, the argument of the log, for one inner value or an
        array of them; raises where it is <= 0."""
        arg = math.e + inner_value / self.omega
        off = arg <= 0
        if off.any() if isinstance(off, np.ndarray) else off:
            raise EvaluationDomainError("log argument is nonpositive")
        return arg

    def value(self, x):
        return 1.0 - math.log(self.log_argument(self.inner.value(x)))

    def gradient(self, x):
        arg = self.log_argument(self.inner.value(x))
        return -(self.inner.gradient(x) / (self.omega * arg))

    def packed_group(self):
        return _LogAffines


@dataclass(frozen=True, eq=False)
class NegEntropy(_Family):
    """f(x) = sum_i x_i log x_i + shift; requires strictly positive x."""

    tag = "neg_entropy"
    n: int
    shift: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise SetupError("dimension must be >= 1")
        object.__setattr__(self, "shift", float(self.shift))

    @staticmethod
    def _positive(x):
        if np.any(x <= 0):
            raise EvaluationDomainError("negative entropy needs strictly positive coordinates")
        return x

    def value(self, x):
        x = self._positive(x)
        return float(np.sum(x * np.log(x)) + self.shift)

    def gradient(self, x):
        return 1.0 + np.log(self._positive(x))

    def interval(self, domain):
        if isinstance(domain, Simplex):
            return -math.log(domain.n) + self.shift if domain.n > 1 else self.shift, self.shift
        lo, hi = domain.bounding_box()
        if np.any(lo < 0):
            raise SetupError("negative entropy over a domain with negative coordinates")
        lo_sum = hi_sum = 0.0
        for li, hi_i in zip(lo, hi):
            a, b = _xlogx_interval(float(li), float(hi_i))
            lo_sum += a
            hi_sum += b
        return lo_sum + self.shift, hi_sum + self.shift

    def gradient_bound(self, domain):
        lo, hi = domain.bounding_box()
        lo = np.maximum(lo, GRAD_FLOOR)
        hi = np.maximum(hi, lo)
        per = np.maximum(np.abs(1.0 + np.log(lo)), np.abs(1.0 + np.log(hi)))
        return float(np.linalg.norm(per))

    def curvature(self, domain):
        _, hi = domain.bounding_box()
        top = float(np.max(hi))
        return 1.0 / top if top > 0 else 0.0


@dataclass(frozen=True, eq=False)
class NormDistSq(_Family):
    """f(x) = ||x - center||^2 - c."""

    tag = "norm_dist_sq"
    center: Vector
    c: float

    def __post_init__(self):
        center = np.asarray(self.center, float)
        if center.ndim != 1:
            raise DimensionMismatch("center must be a 1-d vector")
        object.__setattr__(self, "center", _freeze(center))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "n", center.shape[0])

    def value(self, x):
        d = x - self.center
        return float(d @ d - self.c)

    def gradient(self, x):
        return 2.0 * (x - self.center)

    def interval(self, domain):
        md = domain.max_dist(self.center)
        return -self.c, md * md - self.c

    def gradient_bound(self, domain):
        return 2.0 * domain.max_dist(self.center)

    def smoothness(self, domain):
        return 2.0

    def curvature(self, domain):
        return 2.0

    def as_quadratic(self):
        # ||x - z||^2 - c = x'Ix - 2z'x + (||z||^2 - c)
        return Quadratic(A=np.eye(self.n), b=-2.0 * self.center,
                         c=float(self.center @ self.center) - self.c)


@dataclass(frozen=True, eq=False)
class NegLogBarrier(_Family):
    """f(x) = level - sum_k log(rows_k . x); requires rows_k . x > 0."""

    tag = "neg_log_barrier"
    rows: Matrix
    level: float

    def __post_init__(self):
        rows = np.asarray(self.rows, float)
        if rows.ndim != 2:
            raise DimensionMismatch("rows must be a 2-d matrix")
        object.__setattr__(self, "rows", _freeze(rows))
        object.__setattr__(self, "level", float(self.level))
        object.__setattr__(self, "n", rows.shape[1])

    @staticmethod
    def _positive(z):
        if np.any(z <= 0):
            raise EvaluationDomainError("log barrier row inner product is nonpositive")
        return z

    def value(self, x):
        return float(self.level - np.sum(np.log(self._positive(self.rows @ x))))

    def gradient(self, x):
        return -(self.rows.T @ (1.0 / self._positive(self.rows @ x)))

    def interval(self, domain):
        lo_sum = hi_sum = 0.0
        rlo, rhi = domain.affine_intervals(self.rows, 0.0)
        for lo, hi in zip(rlo.tolist(), rhi.tolist()):
            if hi <= 0:
                raise SetupError("log barrier row is nonpositive over the whole domain")
            lo_sum += math.log(max(lo, GRAD_FLOOR))
            hi_sum += math.log(hi)
        return self.level - hi_sum, self.level - lo_sum

    def gradient_bound(self, domain):
        rlo, _ = domain.affine_intervals(self.rows, 0.0)
        total = 0.0
        for g in (_row_norms(self.rows) / np.maximum(rlo, GRAD_FLOOR)).tolist():
            total += g
        return total

    def curvature(self, domain):
        # unit rows contribute sum_i e_i e_i^T / x_i^2 >= I when x_i <= 1
        _, hi = domain.bounding_box()
        if float(np.max(hi)) > 1.0 + ZERO_TOL:
            return 0.0
        R = self.rows
        unit = (np.count_nonzero(R, axis=1) == 1) & (R == 1.0).any(axis=1)
        return 1.0 if np.unique(R[unit].argmax(axis=1)).size == self.n else 0.0


ConstraintFn = Union[Affine, Quadratic, LogAffineComposite, NegEntropy, NormDistSq, NegLogBarrier]

# The families by problem-file tag.
FAMILIES = {cls.tag: cls for cls in get_args(ConstraintFn)}


def evaluate(f: ConstraintFn, x) -> float:
    """Constraint value at x.  Raises EvaluationDomainError off the analytic domain."""
    return f.value(_as_point(x, f.n, "constraint"))


def gradient(f: ConstraintFn, x) -> Array:
    """Gradient of the constraint at x (same domain rules as evaluate)."""
    return f.gradient(_as_point(x, f.n, "constraint"))


def smoothness_bound(f: ConstraintFn, domain: Domain) -> float:
    """Upper bound on the Hessian operator norm, or inf where unbounded, from
    f's packed group of one row."""
    return float(f.packed_group()([f]).bounds(domain).L[0])


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
        for name, v in vars(self).items():
            self.check(name, v)

    @staticmethod
    def check(name: str, v: float) -> float:
        """v if it can be the constant called name; SetupError naming it if not."""
        if not math.isfinite(v):
            raise SetupError(f"instance constant {name} must be finite, got {v!r}")
        if v < 0 and name in ("G", "H", "omega", "D"):
            raise SetupError(f"instance constant {name} must be nonnegative, got {v!r}")
        return v


def exp_concavity(H: float, G: float) -> float:
    """alpha = H / G^2, 0 where H or G is 0; SetupError where G^2 underflows to 0."""
    if H > 0 and G > 0 and G * G == 0:
        raise SetupError(f"instance constant alpha = H / G^2 has no float value: G = {G!r}")
    return H / (G * G) if H > 0 and G > 0 else 0.0


@dataclass(frozen=True, eq=False)
class Problem:
    """Constraint system over a domain, with its constants: those given, or
    without params the estimate from the constraints' packed bounds."""

    constraints: tuple[ConstraintFn, ...]
    domain: Domain
    params: ProblemParams | None = None

    def __post_init__(self):
        if len(self.constraints) < 1:
            raise SetupError("a problem needs at least one constraint")
        n = self.domain.n
        for j, f in enumerate(self.constraints):
            if f.n != n:
                raise DimensionMismatch(f"constraint {j} has dimension {f.n}, domain has {n}")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.params is None:
            object.__setattr__(self, "params", _estimate(self.packed))

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def n(self) -> int:
        return self.domain.n

    @cached_property
    def packed(self) -> "Packed":
        """The constraints stacked by family; built on first use, then kept."""
        return Packed(self)

    def with_params(self, **given: float) -> Problem:
        """The same problem with the constants given by name in place of its
        own, sharing its packed form."""
        out = Problem(self.constraints, self.domain, replace(self.params, **given))
        vars(out)["packed"] = self.packed
        return out


def _estimate(packed: Packed) -> ProblemParams:
    """The constants from the packed bounds: G the largest gradient bound, H
    the least curvature, omega the largest value magnitude, and alpha 1 for
    log composites alone (each is 1-exp-concave), else H / G^2."""
    G, H, _, lo, hi = packed.bounds
    nan = np.isnan(abs(G) + abs(H) + abs(lo) + abs(hi))  # a max would skip a NaN
    if nan.any():
        raise SetupError(f"constraint {int(nan.argmax())} has a NaN bound over the domain")
    G, H = float(G.max()), float(H.min())
    omega = float(np.maximum(abs(lo), abs(hi)).max())
    log_affine = all(isinstance(g, _LogAffines) for g in packed.groups)
    alpha = 1.0 if log_affine else exp_concavity(H, G)
    return ProblemParams(G=G, H=H, omega=omega, D=packed.domain.diameter(), G_inf=omega,
                         alpha=alpha)


def estimate_parameters(problem: Problem) -> ProblemParams:
    """Recompute conservative instance constants from the constraints."""
    return _estimate(problem.packed)


def make_problem(constraints, domain: Domain) -> Problem:
    """The problem with the constants estimated from its constraints."""
    return Problem(tuple(constraints), domain)


# ---------------------------------------------------------------------------
# Packed form: the constraints of a problem stacked by family


def _in_order(P: Array) -> Array:
    """Sum over the first axis adding entries in order, with the rounding of
    a plain loop.  Near-tied vertices make the closed-form oracle's choice
    hinge on the last bit of the mixed coefficients, so keep that bit."""
    return np.add.accumulate(P)[-1]


def _dot(v: Array) -> Callable:
    """The product (a, b) -> a @ b for an operand v: ndarray.dot for a
    unit-stride float64 v, which is @ bit for bit and cheaper, else @, which
    sums a reversed or broadcast vector in its own loop."""
    return np.ndarray.dot if v.strides == (8,) and v.dtype.char == "d" else np.matmul


class Bounds(NamedTuple):
    """Bounds over a domain, one entry per constraint: G on ||grad f||_2, H
    the strong-convexity modulus (a positive lower bound on the least Hessian
    eigenvalue, else 0), L on the Hessian operator norm (inf where
    unbounded), and [lo, hi] containing every value."""

    G: Array
    H: Array
    L: Array
    lo: Array
    hi: Array


class _Group:
    """One family's constraints as stacked arrays, rows in constraint
    order; ``idx`` is their positions in the problem.

    ``bounds(domain)`` gives the rows' Bounds over a domain, each row bit
    for bit what it gives alone, and raises SetupError where a row has none
    (a log argument that falls to 0, an entropy or a barrier off its domain).

    ``values(x)``, ``both(x)`` (values and gradient rows from one pass,
    sharing A x or the log argument) and ``first(x, eps)`` (the lowest row
    whose residual exceeds eps, with that residual, or None) raise
    EvaluationDomainError when a row they reach is off its domain.
    ``quadratic_form(w)`` gives (M, q, c) with sum_i w_i f_i(x) =
    x.M x + q.x + c (M None when zero), or None for a family that is not
    quadratic.
    """

    def first(self, x: Array, eps: float) -> tuple[int, float] | None:
        v = self.values(x)
        i = int((v > eps).argmax())
        return (i, float(v[i])) if v[i] > eps else None

    def quadratic_form(self, w):
        return None


class _Affines(_Group):
    """f_j(x) = R_j.x + b_j."""

    def __init__(self, fs):
        self.R = np.array([f.a for f in fs])
        self.b = np.array([f.b for f in fs])

    def bounds(self, domain):
        zero = np.zeros(self.b.size)
        return Bounds(_row_norms(self.R), zero, zero, *domain.affine_intervals(self.R, self.b))

    def values(self, x):
        return _rowdot(self.R, x) + self.b

    def both(self, x):
        return self.values(x), self.R

    def quadratic_form(self, w):
        return None, _in_order(w[:, None] * self.R), float(_in_order(w * self.b))


class _Quadratics(_Group):
    """f_j(x) = x.A_j x + B_j.x + c_j; the A_j also as one (k*n, n) matrix
    and as one (k, n*n) matrix."""

    def __init__(self, fs):
        self.fs = fs
        self.A = np.array([f.A for f in fs])
        self.A_flat = self.A.reshape(-1, self.A.shape[2])
        self.A_rows = self.A.reshape(self.A.shape[0], -1)
        self.B = np.array([f.b for f in fs])
        self.c = np.array([f.c for f in fs])

    def bounds(self, domain):
        # ||2 A x + b|| <= 2 rho(A) ||x|| + ||b||, with 2 rho(A) the smoothness;
        # the where()s are min(0, v) and max(0, v), which never give -0.0
        _fill_spectra(self.fs)
        ev = np.array([f.spectrum for f in self.fs])
        least, top = ev[:, 0], ev[:, -1]
        M = domain.max_norm()
        L = 2.0 * abs(ev).max(axis=1)
        lo, hi = domain.affine_intervals(self.B, self.c)
        return Bounds(G=L * M + _row_norms(self.B), H=np.where(least > 0, 2.0 * least, 0.0),
                      L=L, lo=np.where(least < 0, least, 0.0) * M * M + lo,
                      hi=np.where(top > 0, top, 0.0) * M * M + hi)

    def values(self, x):
        dot = _dot(x)
        return dot(dot(self.A_flat, x).reshape(self.B.shape) + self.B, x) + self.c

    def both(self, x):
        dot = _dot(x)
        Ax = dot(self.A_flat, x).reshape(self.B.shape)
        return dot(Ax + self.B, x) + self.c, 2.0 * Ax + self.B

    def quadratic_form(self, w):
        # the (1, k) x (k, n*n) product np.tensordot(w, A, 1) runs, without
        # its Python wrapper
        M = np.dot(w.reshape(1, -1), self.A_rows).reshape(self.A.shape[1:])
        dot = _dot(w)
        return M, dot(w, self.B), float(dot(w, self.c))


class _LogAffines(_Group):
    """f_j(x) = 1 - log(e + (a_j.x + b_j)/omega_j), stored as
    1 - log(R_j.x + d_j) with R_j = a_j/omega_j and d_j = e + b_j/omega_j
    folded in once; the gradient rows are -R_j/(R_j.x + d_j), with -R_j
    negated once here.  The folded argument can round to 0 where the
    reference's e + (a_j.x + b_j)/omega_j does not, and then raises alone.
    """

    def __init__(self, fs):
        self.a = np.array([f.inner.a for f in fs])
        self.b = np.array([f.inner.b for f in fs])
        self.omega = np.array([f.omega for f in fs])
        self.R = self.a / self.omega[:, None]
        self.d = math.e + self.b / self.omega
        self.neg_R = -self.R

    def bounds(self, domain):
        """Raises SetupError where the least log argument is not positive
        less the rounding of the folded R.x + d, about n + 3 roundings of
        e + (|a| max|x| + |b|)/omega.  The gradient -a / (omega arg) and the
        Hessian a a^T / (omega arg)^2 are bounded with arg capped at 1 and at
        e - 1, which it stays above where |inner| <= omega."""
        omega = self.omega
        ilo, ihi = domain.affine_intervals(self.a, self.b)
        lo_arg, hi_arg = math.e + ilo / omega, math.e + ihi / omega
        gi = _row_norms(self.a)
        top = gi * domain.max_norm() + abs(self.b)
        least = lo_arg - (self.a.shape[1] + 3) * 2.0**-52 * (math.e + top / omega)
        off = ~(least > 0)
        if off.any():
            raise SetupError(f"log argument e + inner/omega falls to {least[off.argmax()]:.6g} "
                             "<= 0 on the domain (omega is too small for the inner's range)")
        # squares and logs through Python floats: libm's pow and log, whose
        # last bit numpy's vector loops do not always share
        slope2 = np.array([s ** 2 for s in (gi / omega).tolist()])
        cap = np.minimum(lo_arg, math.e - 1.0)
        return Bounds(G=gi / (omega * np.minimum(lo_arg, 1.0)), H=np.zeros(gi.size),
                      L=slope2 / (cap * cap),
                      lo=1.0 - np.array([math.log(z) for z in hi_arg.tolist()]),
                      hi=1.0 - np.array([math.log(z) for z in lo_arg.tolist()]))

    def first(self, x, eps):
        # The residual 1 - log z crosses eps where z = R.x + d falls below
        # z* = exp(1 - eps), and z <= 0 is off the domain, below z* too.
        # Rows above z* by a relative 1e-12 are skipped without a log; the
        # rest are checked in order.
        y = self.R @ x
        cand = y <= math.exp(1.0 - eps) * (1.0 + 1e-12) - self.d
        for i in cand.nonzero()[0].tolist():
            z = float(y[i] + self.d[i])
            if not z > 0:
                raise EvaluationDomainError("log argument is nonpositive")
            r = 1.0 - math.log(z)
            if r > eps:
                return i, r
        return None

    def _z(self, x):
        z = self.R @ x + self.d
        if not z.min() > 0 and (z <= 0).any():  # a NaN is not off the domain
            raise EvaluationDomainError("log argument is nonpositive")
        return z

    def values(self, x):
        return 1.0 - np.log(self._z(x))

    def both(self, x):
        z = self._z(x)
        return 1.0 - np.log(z), self.neg_R / z[:, None]


class _Scalar(_Group):
    """Norm distances, entropies and log barriers, which have no stacked form:
    one at a time, in order, through the scalar reference (no solver
    workload has more than one)."""

    def __init__(self, fs):
        self.fs = fs

    def bounds(self, domain):
        return Bounds(*np.array([(f.gradient_bound(domain), f.curvature(domain),
                                  f.smoothness(domain), *f.interval(domain))
                                 for f in self.fs]).T)

    def first(self, x, eps):
        for i, f in enumerate(self.fs):
            v = f.value(x)
            if v > eps:
                return i, v
        return None

    def values(self, x):
        return np.array([f.value(x) for f in self.fs])

    def both(self, x):
        # value and gradient share their domain rules: the values raise first
        return self.values(x), np.array([f.gradient(x) for f in self.fs])


def _as_point(x, n: int, what: str = "problem") -> Array:
    x = np.asarray(x, float)
    if x.shape != (n,):
        raise DimensionMismatch(f"point has shape {x.shape}, {what} expects ({n},)")
    return x


class Packed:
    """A problem's constraints grouped by family into stacked arrays.

    Built once per problem, on first use (``Problem.packed``), as are its
    per-constraint bounds and its list of indefinite quadratics.

    ``values``, ``both`` and ``first`` are the group passes over every
    constraint, in constraint order, and raise as the groups do.  When a
    pass over several families raises, the scalar reference names the
    lowest constraint off its domain at x, with its own error; the group's
    error stands where the reference finds none (a folded log argument
    that rounds to 0).
    """

    def __init__(self, problem: Problem):
        self.constraints = problem.constraints
        self.domain = problem.domain
        self.m, self.n = problem.m, problem.n
        members: dict[type, list[int]] = {}
        for j, f in enumerate(problem.constraints):
            members.setdefault(f.packed_group(), []).append(j)
        self.groups = []
        for kind, idx in members.items():
            group = kind([problem.constraints[j] for j in idx])
            group.idx = np.array(idx)
            self.groups.append(group)
        if len(self.groups) == 1:
            # one family's rows are already in constraint order
            (group,) = self.groups
            self.values, self.both, self.first = group.values, group.both, group.first
        self.affine = all(isinstance(g, _Affines) for g in self.groups)

    @cached_property
    def bounds(self) -> Bounds:
        """Every constraint's bounds over the domain, in constraint order;
        raises what the first group to refuse raises."""
        if len(self.groups) == 1:
            return self.groups[0].bounds(self.domain)
        out = Bounds(*np.empty((5, self.m)))
        for g in self.groups:
            for whole, rows in zip(out, g.bounds(self.domain)):
                whole[g.idx] = rows
        return out

    @property
    def smoothness(self) -> Array:
        """Smoothness bound of each constraint (inf where unbounded)."""
        return self.bounds.L

    @cached_property
    def indefinite(self) -> list[int]:
        """Indices of the quadratics with an eigenvalue below -1e-12 max|eigenvalue|."""
        _fill_spectra(self.constraints)
        return [j for j, f in enumerate(self.constraints) if isinstance(f, Quadratic)
                and f.spectrum[0] < -1e-12 * max(-f.spectrum[0], f.spectrum[-1])]

    def _off_domain(self, x: Array, stop: int) -> EvaluationDomainError | None:
        """The scalar reference's error for the lowest of the first stop
        constraints that is off its domain at x, or None."""
        for f in self.constraints[:stop]:
            try:
                f.value(x)
            except EvaluationDomainError as own:
                return own
        return None

    def values(self, x: Array) -> Array:
        v = np.empty(self.m)
        try:
            for g in self.groups:
                v[g.idx] = g.values(x)
        except EvaluationDomainError as exc:
            raise self._off_domain(x, self.m) or exc from None
        return v

    def both(self, x: Array) -> tuple[Array, Array]:
        v, G = np.empty(self.m), np.empty((self.m, self.n))
        try:
            for g in self.groups:
                v[g.idx], G[g.idx] = g.both(x)
        except EvaluationDomainError as exc:
            raise self._off_domain(x, self.m) or exc from None
        return v, G

    def first(self, x: Array, eps: float) -> tuple[int, float] | None:
        """Lowest constraint whose residual exceeds eps, with its residual,
        or None; raises where one off its domain comes first, as evaluating
        the constraints in order up to the violation would."""
        best, exc = None, None
        for g in self.groups:
            try:
                hit = g.first(x, eps)
            except EvaluationDomainError as e:
                exc = e
                continue
            if hit is not None and (best is None or g.idx[hit[0]] < best[0]):
                best = (int(g.idx[hit[0]]), hit[1])
        if exc is not None:
            own = self._off_domain(x, self.m if best is None else best[0])
            if own is not None or best is None:
                raise own or exc
        return best


class Mixture:
    """sum_j p_j f_j(x) for one fixed weight vector p, as a function of x.

    Affine and quadratic constraints collapse into a single quadratic form
    x.M x + q.x + c, so their cost per evaluation does not grow with m.  The
    other families keep only their rows of nonzero weight, in groups of
    their own: a constraint of weight zero is never evaluated.  A p without
    a zero weight (dense) needs no masks, and one family's rows, which are
    in constraint order, take p itself when it is a unit-stride float64
    vector of one weight per constraint.
    """

    def __init__(self, problem: Problem, p: Array):
        self.packed = pk = problem.packed
        self.p = p
        self.M = None
        self.q = np.zeros(pk.n)
        self.c = 0.0
        self.terms = []
        self.dense = dense = np.count_nonzero(p) == pk.m == p.size
        # a group's products take the contiguous copy p[idx] bit for bit
        # only where _dot(p) is ndarray.dot
        whole = len(pk.groups) == 1 and p.size == pk.m and _dot(p) is np.ndarray.dot
        for group in pk.groups:
            wg = p if whole else p[group.idx]
            if not dense:
                live = wg != 0
                if not live.any():
                    continue
            form = group.quadratic_form(wg)
            if form is None:
                if not dense and not live.all():
                    group = type(group)([pk.constraints[j] for j in group.idx[live]])
                    wg = wg[live]
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
        if self.dense:
            P = self.p * self.packed.smoothness
        else:
            active = self.p != 0
            P = self.p[active] * self.packed.smoothness[active]
            if not P.size:
                return None
        L = float(_in_order(P))
        return L if math.isfinite(L) and L > 0 else None

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        """The mixed value and gradient at x from one pass over the terms;
        ndarray.dot is @ bit for bit, and cheaper, for a unit-stride
        float64 x (see _dot; the check is inline on this hot path)."""
        unit = x.strides == (8,) and x.dtype.char == "d"
        v = self.c + (self.q.dot(x) if unit else self.q @ x)
        if self.M is None:
            g = self.q.copy()
        else:
            Mx = self.M.dot(x) if unit else self.M @ x
            v += x.dot(Mx) if unit else x @ Mx
            g = 2.0 * Mx + self.q
        for group, wg in self.terms:
            values, rows = group.both(x)
            v += wg @ values
            g += wg @ rows
        return float(v), g


# ---------------------------------------------------------------------------
# Residuals and oracles: a constraint's value is its residual


def residual_gradient(problem: Problem, j: int, x) -> Array:
    """Gradient of constraint j at x, from its scalar reference: a primal
    learner steps along it, and ONS's projection would turn a last-bit
    change of it into a 1e-10 change of the iterate."""
    return problem.constraints[j].gradient(_as_point(x, problem.n))


def residuals(problem: Problem, x) -> Array:
    """All residuals at x; raises EvaluationDomainError if any is off its domain."""
    return problem.packed.values(_as_point(x, problem.n))


def residual_gradients(problem: Problem, x) -> Array:
    """(m, n) residual gradients at x, one row per constraint."""
    return np.array(problem.packed.both(_as_point(x, problem.n))[1])


def residuals_and_mixed_gradient(problem: Problem, p: Array, x) -> tuple[Array, Array]:
    """residuals(problem, x) and sum_j p_j grad r_j(x), for any weight vector
    p, from one evaluation pass; raises what residuals raises.

    Bit for bit residuals(problem, x) and p @ residual_gradients(problem, x).
    A primal-dual round needs both at the same point, and the pass shares
    what values and gradient rows have in common.
    """
    v, G = problem.packed.both(_as_point(x, problem.n))
    return v, p @ G


def check_distribution(p, m: int) -> Array:
    """p as a new float array of m weights, those down to -ZERO_TOL raised
    to 0; InvalidDistribution for a weight below that or a sum off 1 by
    more than DIST_TOL."""
    p = np.asarray(p, float)
    if p.shape != (m,):
        raise InvalidDistribution(f"weight vector has shape {p.shape}, expected ({m},)")
    # the least weight off a list is the cheap test, which a NaN at the head
    # of the list hides; the array's comparison decides where it fails
    low = min(p.tolist(), default=0.0)
    if not low >= -ZERO_TOL and (p < -ZERO_TOL).any():
        raise InvalidDistribution("weights must be nonnegative")
    if not abs(float(np.add.reduce(p)) - 1.0) <= DIST_TOL:  # a NaN weight fails here
        raise InvalidDistribution("weights must sum to 1")
    # low is the least weight now, and the raise changes no positive weight
    return p.copy() if low > 0 else np.maximum(p, 0.0)


def game_loss(problem: Problem, x, p) -> float:
    """Mixed constraint value sum_j p_j r_j(x) for a distribution p."""
    p = check_distribution(p, problem.m)
    return float(p @ residuals(problem, x))


@dataclass(frozen=True)
class Violation:
    """Index and value of a violated constraint."""

    index: int
    value: float


def separation_oracle(problem: Problem, x, eps: float) -> Violation | None:
    """First constraint (ascending index) violated by more than eps.

    Returns None when every residual is <= eps, i.e. x is eps-approximately
    feasible; that is the oracle's FAIL answer in the solver loops, which
    it never gives at an x with a NaN or an infinity (SetupError).  The
    lowest index that is violated or off its analytic domain decides: off
    its domain raises EvaluationDomainError, as evaluating the constraints
    in order and stopping at the first violation would.
    """
    if not 0 <= eps < math.inf:
        raise SetupError(f"eps must be nonnegative and finite, got {eps!r}")
    pk = problem.packed
    x = _as_point(x, pk.n)
    if x.dot(x) < math.inf:  # no NaN and no infinity in x, nor an entry past about 1e154
        hit = pk.first(x, eps)
    else:  # 0 * inf makes a NaN row, which exceeds no eps; numpy need not warn
        with np.errstate(invalid="ignore", over="ignore"):
            hit = pk.first(x, eps)
    if hit is None:
        if not np.isfinite(x).all():
            raise SetupError("x must be finite, but has a NaN or an infinite entry")
        return None
    return Violation(index=hit[0], value=hit[1])
