"""Problem model: constraint families, domains, oracles and instance parameters.

A problem is a finite tuple of analytic constraints over a simple convex
domain (simplex, ball or box).  A point is feasible when every constraint
value is <= 0 and eps-approximately feasible when no value exceeds eps; a
constraint's value is the residual every solver and oracle consumes.  The
log transform's threshold form log(e + inner/omega) >= 1 (built by
:mod:`feasgame.reductions`) is the family :class:`LogAffineComposite`,
whose value is already its residual 1 - log(e + inner/omega).

Constraint families form a closed set; there are no black-box callbacks.
Each family is one class (:data:`FAMILIES` maps problem-file tags to them)
that knows its file fields, value, gradient, quadratic form if it has one,
and conservative interval, gradient, smoothness and curvature bounds over a
domain, which is what makes the parameter estimates in
:func:`estimate_parameters` sound rather than sampled guesses.

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
``1/omega`` and ``e`` folded in), so residuals, the mixed gradient, single
rows and batch values cost a few vector operations per call; norm
distances, entropies and log barriers go through their own methods one at a
time.  :class:`Mixture` fixes one weight vector and collapses the affine
and quadratic constraints into one quadratic form for the optimization
oracle and the certificate checks.
At the sizes the solvers run at, a call costs numpy's Python dispatch more
than arithmetic, so the per-round code calls ndarray methods rather than
their ``np.`` wrappers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Union, get_args

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

# Grids beyond this many points refuse to materialize.
MAX_GRID_POINTS = 20_000_000

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


def _mesh(lo: Array, hi: Array, resolution: float) -> Array:
    """Every point of the grid of the given spacing over the box [lo, hi]."""
    axes = []
    total = 1
    for i in range(lo.shape[0]):
        steps = max(int(np.ceil((hi[i] - lo[i]) / resolution)), 1)
        total *= steps + 1
        if total > MAX_GRID_POINTS:
            raise SetupError("grid too large; use a coarser resolution")
        axes.append(np.linspace(lo[i], hi[i], steps + 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


class _Domain:
    """What a domain provides besides its file ``tag`` and dimension ``n``.

    In closed form: ``contains(x)`` (up to DIST_TOL), the first iterate
    ``start()``, ``diameter()``, ``bounding_box()``, ``max_norm()`` (sup of
    ||x||_2), ``linear_minimum(c)`` (argmin and min of c.x),
    ``affine_interval(a, b)`` (the range of a.x + b) and the Euclidean
    projection ``project(y)``.
    ``grid`` and ``sample`` give points for the brute-force oracles.
    """

    def max_dist(self, center: Array) -> float:
        """Upper bound on ||x - center||_2 over the domain."""
        lo, hi = self.bounding_box()
        per = np.maximum(np.abs(lo - center), np.abs(hi - center))
        return float(np.linalg.norm(per))

    def grid(self, resolution: float) -> Array:
        """All domain points on a grid of the given coordinate spacing.

        Only meant for n <= 3 (the size guard trips far earlier than memory
        does).
        """
        if not 0 < resolution <= 1:
            raise SetupError("resolution must lie in (0, 1]")
        if self.n > 3:
            raise SetupError("grids are only supported for n <= 3")
        return self._grid(resolution)

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
        return np.full(self.n, 1.0 / self.n)

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

    def affine_interval(self, a: Array, b: float) -> tuple[float, float]:
        # ndarray methods skip the np.min/np.max wrappers
        return float(a.min()) + b, float(a.max()) + b

    project = staticmethod(project_simplex)

    def _grid(self, resolution):
        # lattice points with coordinates summing to 1
        n, k = self.n, int(round(1.0 / resolution))
        if (k + 1) ** max(n - 1, 1) > MAX_GRID_POINTS:
            raise SetupError("grid too large; use a coarser resolution")
        if n == 1:
            return np.ones((1, 1))
        t = np.arange(k + 1) / k
        if n == 2:
            return np.column_stack([t, 1.0 - t])
        a, b = np.meshgrid(t, t, indexing="ij")
        a, b = a.ravel(), b.ravel()
        keep = a + b <= 1.0 + 1e-12
        a, b = a[keep], b[keep]
        return np.column_stack([a, b, np.maximum(1.0 - a - b, 0.0)])

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

    def affine_interval(self, a: Array, b: float) -> tuple[float, float]:
        mid = float(a @ self.center)
        half = self.radius * float(np.linalg.norm(a))
        return mid - half + b, mid + half + b

    def project(self, y) -> Array:
        """Rescale along the ray from the center; SetupError on a NaN or an inf."""
        y = _finite_point(y, "ball")
        d = y - self.center
        nrm = float(np.linalg.norm(d))
        if nrm <= self.radius:
            return y.copy()
        return self.center + self.radius * d / nrm

    def _grid(self, resolution):
        X = _mesh(*self.bounding_box(), resolution)
        return X[np.linalg.norm(X - self.center, axis=1) <= self.radius + 1e-12]

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

    def affine_interval(self, a: Array, b: float) -> tuple[float, float]:
        lo = float(np.sum(np.minimum(a * self.lo, a * self.hi)))
        hi = float(np.sum(np.maximum(a * self.lo, a * self.hi)))
        return lo + b, hi + b

    def project(self, y) -> Array:
        """Coordinatewise clamp onto [lo, hi]; SetupError on a NaN or an inf."""
        return np.clip(_finite_point(y, "box"), self.lo, self.hi)

    def _grid(self, resolution):
        return _mesh(self.lo, self.hi, resolution)

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
# symmetric arrays, numbers, or a nested constraint.


def _rowdot(R: Array, x: Array):
    """R.x for a 1-d R or row by row for a 2-d R, through numpy's own sum.

    A row of a 2-d R gives bitwise the value that row alone gives, which a
    BLAS matrix-vector product does not; the scalar and the packed affine
    paths both use this kernel so they agree exactly.
    """
    return np.add.reduce(R * x, axis=-1)


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
    field, or set on construction), the scalar reference ``value(x)``,
    ``gradient(x)`` and ``value_batch(X)`` (they raise EvaluationDomainError
    off the analytic domain and trust the shapes, which the module-level
    evaluate functions check), and over a domain an ``interval`` containing
    every value and a ``gradient_bound`` on ||grad f||_2.
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

    def value_batch(self, X):
        return X @ self.a + self.b

    def interval(self, domain):
        return domain.affine_interval(self.a, self.b)

    def gradient_bound(self, domain):
        return float(np.linalg.norm(self.a))

    def smoothness(self, domain):
        return 0.0

    def as_quadratic(self):
        return Quadratic(A=np.zeros((self.n, self.n)), b=self.a.copy(), c=self.b)

    def packed_group(self):
        return _Affines


@dataclass(frozen=True, eq=False)
class Quadratic(_Family):
    """f(x) = x.A x + b.x + c with A symmetric (not necessarily PSD).

    The bounds over a domain all read A's spectrum, which is computed once,
    on first use, and kept: A is frozen.
    """

    tag = "quadratic"
    A: Matrix
    b: Vector
    c: float

    def __post_init__(self):
        A = np.asarray(self.A, float)
        b = np.asarray(self.b, float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("quadratic matrix A must be square")
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

    def value_batch(self, X):
        return np.einsum("ni,ij,nj->n", X, self.A, X) + X @ self.b + self.c

    @cached_property
    def spectrum(self) -> Array:
        """The eigenvalues of A in ascending order (read-only: every bound shares them)."""
        ev = np.linalg.eigvalsh(self.A)
        ev.flags.writeable = False
        return ev

    def interval(self, domain):
        M = domain.max_norm()
        ev = self.spectrum
        qlo = min(0.0, float(ev[0])) * M * M
        qhi = max(0.0, float(ev[-1])) * M * M
        llo, lhi = domain.affine_interval(self.b, self.c)
        return qlo + llo, qhi + lhi

    def gradient_bound(self, domain):
        # ||2 A x + b|| <= 2 rho(A) ||x|| + ||b||, and 2 rho(A) is the smoothness
        return self.smoothness(domain) * domain.max_norm() + float(np.linalg.norm(self.b))

    def smoothness(self, domain):
        return 2.0 * float(np.abs(self.spectrum).max()) if self.A.size else 0.0

    def curvature(self, domain):
        return max(0.0, 2.0 * float(self.spectrum.min()))

    def as_quadratic(self):
        return self

    def packed_group(self):
        return _Quadratics


@dataclass(frozen=True, eq=False)
class LogAffineComposite(_Family):
    """f(x) = 1 - log(e + inner(x)/omega), the residual of the threshold
    log(e + inner(x)/omega) >= 1; convex whenever inner is concave."""

    tag = "log_affine_composite"
    inner: ConstraintFn
    omega: float

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise SetupError(f"omega must be positive and finite, got {self.omega!r}")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "n", self.inner.n)

    def _arg(self, inner_value):
        """e + inner/omega, the argument of the log; raises where it is <= 0."""
        arg = math.e + inner_value / self.omega
        if np.any(arg <= 0):
            raise EvaluationDomainError("log argument is nonpositive")
        return arg

    def value(self, x):
        return 1.0 - math.log(self._arg(self.inner.value(x)))

    def gradient(self, x):
        arg = self._arg(self.inner.value(x))
        return -(self.inner.gradient(x) / (self.omega * arg))

    def value_batch(self, X):
        return 1.0 - np.log(self._arg(self.inner.value_batch(X)))

    def interval(self, domain):
        ilo, ihi = self.inner.interval(domain)
        lo_arg = self._lo_arg(ilo)
        hi_arg = max(math.e + ihi / self.omega, lo_arg)
        return 1.0 - math.log(hi_arg), 1.0 - math.log(lo_arg)

    def _lo_arg(self, ilo):
        """Least argument of the log over the domain, from the least value
        ilo of the inner there; raises where it is not positive."""
        lo_arg = math.e + ilo / self.omega
        if not lo_arg > 0:
            raise SetupError(
                f"log argument e + inner/omega falls to {lo_arg:.6g} <= 0 on the domain "
                "(omega is too small for the inner's range)"
            )
        return lo_arg

    def gradient_bound(self, domain):
        # |inner gradient| / (omega * arg); arg >= e - 1 > 1 when |inner| <= omega
        gi = self.inner.gradient_bound(domain)
        return gi / (self.omega * min(1.0, self._lo_arg(self.inner.interval(domain)[0])))

    def smoothness(self, domain):
        inner_L = self.inner.smoothness(domain)
        if not math.isfinite(inner_L):
            return math.inf
        # |d/dt log(e+t/w)| terms: inner curvature plus rank-one correction,
        # both over the least argument, capped at the e - 1 it has when
        # |inner| <= omega
        gi = self.inner.gradient_bound(domain)
        denom = min(math.e - 1.0, self._lo_arg(self.inner.interval(domain)[0]))
        return inner_L / (self.omega * denom) + (gi / self.omega) ** 2 / (denom * denom)

    def packed_group(self):
        return _LogAffines if isinstance(self.inner, Affine) else _Scalar


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

    def value_batch(self, X):
        X = self._positive(X)
        return np.sum(X * np.log(X), axis=1) + self.shift

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

    def value_batch(self, X):
        D = X - self.center
        return np.sum(D * D, axis=1) - self.c

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

    def value_batch(self, X):
        return self.level - np.sum(np.log(self._positive(X @ self.rows.T)), axis=1)

    def interval(self, domain):
        lo_sum = hi_sum = 0.0
        for k in range(self.rows.shape[0]):
            rlo, rhi = domain.affine_interval(self.rows[k], 0.0)
            if rhi <= 0:
                raise SetupError("log barrier row is nonpositive over the whole domain")
            lo_sum += math.log(max(rlo, GRAD_FLOOR))
            hi_sum += math.log(rhi)
        return self.level - hi_sum, self.level - lo_sum

    def gradient_bound(self, domain):
        total = 0.0
        for k in range(self.rows.shape[0]):
            rlo, _ = domain.affine_interval(self.rows[k], 0.0)
            total += float(np.linalg.norm(self.rows[k])) / max(rlo, GRAD_FLOOR)
        return total

    def curvature(self, domain):
        # unit rows contribute sum_i e_i e_i^T / x_i^2 >= I when x_i <= 1
        _, hi = domain.bounding_box()
        if float(np.max(hi)) > 1.0 + ZERO_TOL:
            return 0.0
        covered = set()
        for k in range(self.rows.shape[0]):
            row = self.rows[k]
            j = int(np.argmax(row))
            if row[j] == 1.0 and np.count_nonzero(row) == 1:
                covered.add(j)
        return 1.0 if len(covered) == self.n else 0.0


ConstraintFn = Union[Affine, Quadratic, LogAffineComposite, NegEntropy, NormDistSq, NegLogBarrier]

# The families by problem-file tag.
FAMILIES = {cls.tag: cls for cls in get_args(ConstraintFn)}


def evaluate(f: ConstraintFn, x) -> float:
    """Constraint value at x.  Raises EvaluationDomainError off the analytic domain."""
    return f.value(_as_point(x, f.n, "constraint"))


def gradient(f: ConstraintFn, x) -> Array:
    """Gradient of the constraint at x (same domain rules as evaluate)."""
    return f.gradient(_as_point(x, f.n, "constraint"))


def evaluate_batch(f: ConstraintFn, X) -> Array:
    """Vectorized evaluate over rows of X (grid and sampling oracles)."""
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != f.n:
        raise DimensionMismatch("batch must be (N, n) with matching n")
    return f.value_batch(X)


def smoothness_bound(f: ConstraintFn, domain: Domain) -> float:
    """Upper bound on the Hessian operator norm, or inf where unbounded."""
    return f.smoothness(domain)


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
            if not math.isfinite(v):
                raise SetupError(f"instance constant {name} must be finite, got {v!r}")
        if self.G < 0 or self.H < 0 or self.omega < 0 or self.D < 0:
            raise SetupError("instance constants must be nonnegative")


@dataclass(frozen=True, eq=False)
class Problem:
    """Constraint system over a domain, with its estimated constants."""

    constraints: tuple[ConstraintFn, ...]
    domain: Domain
    params: ProblemParams

    def __post_init__(self):
        if len(self.constraints) < 1:
            raise SetupError("a problem needs at least one constraint")
        n = self.domain.n
        for j, f in enumerate(self.constraints):
            if f.n != n:
                raise DimensionMismatch(f"constraint {j} has dimension {f.n}, domain has {n}")
        object.__setattr__(self, "constraints", tuple(self.constraints))

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


def _estimate(constraints, domain: Domain) -> ProblemParams:
    G = max(f.gradient_bound(domain) for f in constraints)
    H = min(f.curvature(domain) for f in constraints)
    omega = max(max(abs(lo), abs(hi)) for lo, hi in (f.interval(domain) for f in constraints))
    D = domain.diameter()
    if all(isinstance(f, LogAffineComposite) and isinstance(f.inner, Affine)
           for f in constraints):
        alpha = 1.0
    elif H > 0 and G > 0:
        alpha = H / (G * G)
    else:
        alpha = 0.0
    return ProblemParams(G=G, H=H, omega=omega, D=D, G_inf=omega, alpha=alpha)


def estimate_parameters(problem: Problem) -> ProblemParams:
    """Recompute conservative instance constants from the constraints."""
    return _estimate(problem.constraints, problem.domain)


def make_problem(constraints, domain: Domain) -> Problem:
    """The problem with the constants estimated from its constraints."""
    constraints = tuple(constraints)
    return Problem(constraints=constraints, domain=domain,
                   params=_estimate(constraints, domain))


def check_estimable(constraints, domain: Domain) -> None:
    """Raise what estimating the constants would raise.  Where n <= 2**20,
    log composites wrap affine inners and every number of the constraints
    and the domain is 0 or within 2**-64..2**64 in magnitude, every estimated
    constant is finite (a positive least log argument e + q is at least
    2**-52, by Sterbenz), so only the checks that can refuse run: the log
    arguments first, as the estimate's gradient bounds check them first,
    then the entropy and barrier domains.  Anything else is estimated."""
    logs = [f for f in constraints if isinstance(f, LogAffineComposite)]
    if (domain.n <= 2**20 and all(isinstance(f.inner, Affine) for f in logs)
            and _tame([*constraints, domain])):
        for f in logs + [f for f in constraints if isinstance(f, (NegEntropy, NegLogBarrier))]:
            f.interval(domain)
    else:
        _estimate(constraints, domain)


def _tame(objs: list) -> bool:
    """Whether every number in the fields of objs, and of the constraints
    they wrap, is 0 or of magnitude within 2**-64..2**64."""
    parts, scalars = [], []
    for obj in objs:
        for v in map(obj.__getattribute__, obj.__dataclass_fields__):
            if isinstance(v, _Family):
                objs.append(v)
            elif isinstance(v, np.ndarray):
                parts.append(v.ravel())
            else:
                scalars.append(v)
    _, e = np.frexp(np.concatenate([*parts, np.array(scalars, float)]))
    return bool(e.min() >= -63 and e.max() <= 64)


# ---------------------------------------------------------------------------
# Packed form: the constraints of a problem stacked by family


def _in_order(P: Array) -> Array:
    """Sum over the first axis adding entries in order, with the rounding of
    a plain loop.  Near-tied vertices make the closed-form oracle's choice
    hinge on the last bit of the mixed coefficients, so keep that bit."""
    return P.cumsum(axis=0)[-1]


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
    """One family's constraints as stacked arrays, rows in constraint
    order; ``idx`` is their positions in the problem.

    ``values`` and ``rows`` return raw family values or gradient rows
    together with ``bad``: None when every constraint is on its analytic
    domain, otherwise the boolean mask of those off it (their entries are
    NaN), and such families give ``error(i, x)``, what evaluating row i at x
    raises.  ``both`` returns values, rows and ``bad`` from one pass, sharing
    what the two have in common (A x for quadratics, the log argument for
    log-affines).  ``first`` is the separation oracle's lowest hit.
    ``row(i, x)`` is one gradient row, a new array, and raises off the
    domain.  ``quadratic_form(w)`` gives (M, q, c) with sum_i w_i f_i(x) =
    x.M x + q.x + c (M None when zero), or None for a family that is not
    quadratic.
    """

    def first(self, x: Array, eps: float) -> tuple[int, float | None] | None:
        """Lowest row whose residual exceeds eps or that is off its domain,
        with its residual (None when off the domain); None if there is none."""
        v, bad = self.values(x)
        hit = v > eps
        if bad is not None:
            hit |= bad
        i = int(hit.argmax())
        if not hit[i]:
            return None
        return i, None if bad is not None and bad[i] else float(v[i])

    def both(self, x):
        v, bad = self.values(x)
        return v, self.rows(x)[0], bad

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
        return self.R[i].copy()

    def quadratic_form(self, w):
        return None, _in_order(w[:, None] * self.R), float(_in_order(w * self.b))


class _Quadratics(_Group):
    """f_j(x) = x.A_j x + B_j.x + c_j; the A_j also as one (k*n, n) matrix
    and as one (k, n*n) matrix."""

    def __init__(self, fs):
        self.A = np.array([f.A for f in fs])
        self.A_flat = self.A.reshape(-1, self.A.shape[2])
        self.A_rows = self.A.reshape(self.A.shape[0], -1)
        self.B = np.array([f.b for f in fs])
        self.c = np.array([f.c for f in fs])

    def _Ax(self, x):
        return (self.A_flat @ x).reshape(self.B.shape)

    def values(self, x):
        return (self._Ax(x) + self.B) @ x + self.c, None

    def rows(self, x):
        return 2.0 * self._Ax(x) + self.B, None

    def both(self, x):
        Ax = self._Ax(x)
        return (Ax + self.B) @ x + self.c, 2.0 * Ax + self.B, None

    def row(self, i, x):
        return 2.0 * (self.A[i] @ x) + self.B[i]

    def quadratic_form(self, w):
        # the (1, k) x (k, n*n) product np.tensordot(w, A, 1) runs, without
        # its Python wrapper
        M = np.dot(w.reshape(1, -1), self.A_rows).reshape(self.A.shape[1:])
        return M, w @ self.B, float(w @ self.c)


class _LogAffines(_Group):
    """f_j(x) = 1 - log(e + (a_j.x + b_j)/omega_j), stored as
    1 - log(R_j.x + d_j) with R_j = a_j/omega_j and d_j = e + b_j/omega_j
    folded in once; the gradient rows are -R_j/(R_j.x + d_j), with -R_j
    negated once here.

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
        self.neg_R = -self.R

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
                return i, None
            r = 1.0 - math.log(z)
            if r > eps:
                return i, r
        return None

    def values(self, x):
        z, bad = _positive(self.R @ x + self.d)
        return _mark(1.0 - np.log(z), bad)

    def rows(self, x):
        z, bad = _positive(self.R @ x + self.d)
        return _mark(self.neg_R / z[:, None], bad)

    def both(self, x):
        z, bad = _positive(self.R @ x + self.d)
        return _mark(1.0 - np.log(z), bad)[0], _mark(self.neg_R / z[:, None], bad)[0], bad

    def row(self, i, x):
        arg = math.e + float(_rowdot(self.a[i], x) + self.b[i]) / self.omega[i]
        if arg <= 0:
            raise self.error(i, x)
        return -(self.a[i] / (self.omega[i] * arg))

    def error(self, i, x):
        return EvaluationDomainError("log argument is nonpositive")


class _Scalar(_Group):
    """Constraints with no stacked form, evaluated one at a time through the
    scalar reference: norm distances, entropies, log barriers and log
    composites whose inner is not affine.  None of the solver workloads has
    more than one constraint of these families."""

    def __init__(self, fs):
        self.fs = fs

    def error(self, i, x):
        # value and gradient share their domain rules, so evaluating row i
        # again raises the reference's own error for it
        try:
            self.fs[i].value(x)
        except EvaluationDomainError as exc:
            return exc
        raise AssertionError("row is on its domain")

    def _each(self, method, x, shape):
        out = np.empty((len(self.fs),) + shape)
        bad = np.zeros(len(self.fs), bool)
        for i, f in enumerate(self.fs):
            try:
                out[i] = getattr(f, method)(x)
            except EvaluationDomainError:
                out[i], bad[i] = np.nan, True
        return out, bad if bad.any() else None

    def values(self, x):
        return self._each("value", x, ())

    def rows(self, x):
        return self._each("gradient", x, x.shape)

    def row(self, i, x):
        return self.fs[i].gradient(x)


def _as_point(x, n: int, what: str = "problem") -> Array:
    x = np.asarray(x, float)
    if x.shape != (n,):
        raise DimensionMismatch(f"point has shape {x.shape}, {what} expects ({n},)")
    return x


class Packed:
    """A problem's constraints grouped by family into stacked arrays.

    Built once per problem, on first use (``Problem.packed``).
    Per-constraint smoothness bounds are computed on first use too, which
    is the optimization oracle's first call.

    ``values``, ``both`` and ``first`` are the group passes over every
    constraint, in constraint order; ``values`` and ``both`` return the
    mask of the constraints off their domain last, as the groups do.
    """

    def __init__(self, problem: Problem):
        self.constraints = problem.constraints
        self.domain = problem.domain
        self.m, self.n = problem.m, problem.n
        members: dict[type, list[int]] = {}
        for j, f in enumerate(problem.constraints):
            members.setdefault(f.packed_group(), []).append(j)
        self.groups = []
        self.where: list[tuple] = [()] * self.m  # j -> (group, row in group)
        for kind, idx in members.items():
            group = kind([problem.constraints[j] for j in idx])
            group.idx = np.array(idx)
            self.groups.append(group)
            for row, j in enumerate(idx):
                self.where[j] = (group, row)
        if len(self.groups) == 1:
            # one family's rows are already in constraint order
            (group,) = self.groups
            self.values, self.both, self.first = group.values, group.both, group.first
        self.affine = all(isinstance(g, _Affines) for g in self.groups)

    @cached_property
    def smoothness(self) -> Array:
        """Smoothness bound of each constraint (inf where unbounded)."""
        return np.array([f.smoothness(self.domain) for f in self.constraints])

    def _scatter(self, parts) -> tuple:
        """Each group's pass (arrays..., bad) put in constraint order."""
        outs, bad = None, None
        for g, (*arrays, b) in zip(self.groups, parts):
            if outs is None:
                outs = [np.empty((self.m,) + a.shape[1:]) for a in arrays]
            for out, a in zip(outs, arrays):
                out[g.idx] = a
            if b is not None:
                if bad is None:
                    bad = np.zeros(self.m, bool)
                bad[g.idx] = b
        return (*outs, bad)

    def values(self, x: Array) -> tuple[Array, Array | None]:
        return self._scatter([g.values(x) for g in self.groups])

    def both(self, x: Array) -> tuple[Array, Array, Array | None]:
        return self._scatter([g.both(x) for g in self.groups])

    def first(self, x: Array, eps: float) -> tuple[int, float | None] | None:
        """Lowest constraint whose residual exceeds eps or that is off its
        domain, with its residual (None off the domain); None if none."""
        best = None
        for g in self.groups:
            hit = g.first(x, eps)
            if hit is not None and (best is None or g.idx[hit[0]] < best[0]):
                best = (int(g.idx[hit[0]]), hit[1])
        return best

    def check(self, bad: Array | None, x: Array) -> None:
        """Raise the error of the lowest constraint that bad marks, if any."""
        if bad is not None and bad.any():
            raise self.off_domain(int(bad.argmax()), x)

    def off_domain(self, j: int, x: Array) -> EvaluationDomainError:
        group, row = self.where[j]
        return group.error(row, x)


class Mixture:
    """sum_j p_j f_j(x) for one fixed weight vector p, as a function of x.

    Affine and quadratic constraints collapse into a single quadratic form
    x.M x + q.x + c, so their cost per evaluation does not grow with m.  The
    other families keep their rows.  Constraints of weight
    zero are left out: they are never evaluated, so they cannot raise.
    """

    def __init__(self, problem: Problem, p: Array):
        self.packed = pk = problem.packed
        self.p = p
        self.M = None
        self.q = np.zeros(pk.n)
        self.c = 0.0
        self.terms = []
        for group in pk.groups:
            wg = p[group.idx]
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
        P = self.p[active] * self.packed.smoothness[active]
        if not P.size:
            return None
        L = _in_order(P)
        return L if math.isfinite(L) and L > 0 else None

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        """The mixed value and gradient at x from one pass over the terms,
        where rows off their domain count only at weight zero; ndarray.dot
        is @ bit for bit, and cheaper, for a unit-stride float64 x."""
        unit = x.strides == (8,) and x.dtype.char == "d"
        v = self.c + (self.q.dot(x) if unit else self.q @ x)
        if self.M is None:
            g = self.q.copy()
        else:
            Mx = self.M @ x
            v += x.dot(Mx) if unit else x @ Mx
            g = 2.0 * Mx + self.q
        for group, wg in self.terms:
            values, rows, bad = group.both(x)
            if bad is not None:
                live = bad & (wg != 0)
                if live.any():
                    raise group.error(int(live.argmax()), x)
                values, rows = np.where(bad, 0.0, values), np.where(bad[:, None], 0.0, rows)
            v += wg @ values
            g += wg @ rows
        return float(v), g


# ---------------------------------------------------------------------------
# Residuals and oracles: a constraint's value is its residual


def residual_gradient(problem: Problem, j: int, x) -> Array:
    """Gradient of constraint j at x, from the packed rows of its family."""
    pk = problem.packed
    group, row = pk.where[j]
    return group.row(row, _as_point(x, pk.n))


def residuals(problem: Problem, x) -> Array:
    """All residuals at x; raises EvaluationDomainError if any is off its domain."""
    pk = problem.packed
    x = _as_point(x, pk.n)
    v, bad = pk.values(x)
    pk.check(bad, x)
    return v


def residual_gradients(problem: Problem, x) -> Array:
    """(m, n) residual gradients at x, one row per constraint."""
    pk = problem.packed
    x = _as_point(x, pk.n)
    _, G, bad = pk.both(x)
    pk.check(bad, x)
    return np.array(G)


def residuals_and_mixed_gradient(problem: Problem, p: Array, x) -> tuple[Array, Array]:
    """residuals(problem, x) and sum_j p_j grad r_j(x), for any weight vector
    p, from one evaluation pass; raises what residuals raises.

    Bit for bit residuals(problem, x) and p @ residual_gradients(problem, x).
    A primal-dual round needs both at the same point, and the pass shares
    what values and gradient rows have in common.
    """
    pk = problem.packed
    x = _as_point(x, pk.n)
    v, G, bad = pk.both(x)
    pk.check(bad, x)
    return v, p @ G


def mixed_gradient(problem: Problem, p: Array, x) -> Array:
    """sum_j p_j grad r_j(x) over all constraints, for any weight vector p."""
    return residuals_and_mixed_gradient(problem, p, x)[1]


def residuals_batch(problem: Problem, X) -> Array:
    """(N, m) residuals at the N rows of X, through each constraint's scalar
    reference in constraint order: the lowest constraint off its domain at
    some row raises its own error."""
    pk = problem.packed
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != pk.n:
        raise DimensionMismatch("batch must be (N, n) with matching n")
    return np.column_stack([f.value_batch(X) for f in pk.constraints])


def check_distribution(p, m: int) -> Array:
    p = np.asarray(p, float)
    if p.shape != (m,):
        raise InvalidDistribution(f"weight vector has shape {p.shape}, expected ({m},)")
    if (p < -ZERO_TOL).any():
        raise InvalidDistribution("weights must be nonnegative")
    if not abs(float(p.sum()) - 1.0) <= DIST_TOL:  # a NaN weight fails here
        raise InvalidDistribution("weights must sum to 1")
    return np.maximum(p, 0.0)


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
    hit = pk.first(x, eps)
    if hit is None:
        if not np.isfinite(x).all():  # a NaN exceeds no eps
            raise SetupError("x must be finite, but has a NaN or an infinite entry")
        return None
    j, value = hit
    if value is None:
        raise pk.off_domain(j, x)
    return Violation(index=j, value=value)
