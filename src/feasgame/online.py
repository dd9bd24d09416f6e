"""Online learners and regret accounting.

Three learners, used as the players inside the game solvers:

* OGD: gradient steps of size 1/(H t) for H-strongly-convex costs, with
  Euclidean projection back onto the domain.  Regret O((G^2/H) log T).
* ONS: Newton-style steps for alpha-exp-concave costs.  The conditioning
  matrix accumulates gradient outer products, and the Newton point is
  projected in the matrix norm.  No inverse is kept and the Newton point
  is never formed: the domain's exact projection needs only A times it,
  which is A x - g / beta.
  Regret O((1/alpha + G D) n log T).
* MW: multiplicative weights over the simplex with learning rate eta <= 1/2;
  plays the normalized weight vector.  Regret O(G_inf sqrt(T log n)).

States are immutable; each step returns a fresh state with t advanced by 1.
Each init and step function says what it refuses: a gradient of the wrong
shape (DimensionMismatch), a NaN or an infinity (SetupError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    Affine,
    Array,
    ConstraintFn,
    DimensionMismatch,
    Domain,
    Quadratic,
    SetupError,
    Simplex,
    _simplex_kkt,
    evaluate,
    gradient,
    smoothness_bound,
)
from .descent import minimize_over_domain
from .projections import generalized_project  # noqa: F401 (call-site tracers wrap it here)
from .projections import positive_definite, project_domain

# Largest lam_max / lam_min with which an ONS step's proven bounds send its
# simplex projection straight to the exact solve.
MAX_CONDITION = 1e10


# ---------------------------------------------------------------------------
# Online gradient descent


class OgdState(NamedTuple):
    """Iterate x, round t and strong-convexity modulus H.  A NamedTuple, as
    OnsState is: it costs less to build than a dataclass, compares and
    unpacks as a tuple, and _replace returns a changed copy."""

    x: Array
    t: int
    H: float


def init_ogd(domain: Domain, H: float) -> OgdState:
    """The domain's start point; H that is not a positive finite float
    raises SetupError (an infinite H gives steps of size 0)."""
    if not 0 < H < math.inf:
        raise SetupError(f"OGD needs a positive finite strong-convexity modulus H, got {H!r}")
    return OgdState(x=domain.start(), t=1, H=float(H))


def ogd_step(state: OgdState, grad, domain: Domain) -> OgdState:
    """Move against grad with step 1/(H t), project, advance t.  A gradient
    whose shape is not (n,) raises DimensionMismatch."""
    x, t, H = state
    if not H > 0:
        raise SetupError("OGD needs a positive strong-convexity modulus H")
    g = np.asarray(grad, float)
    if g.shape != (domain.n,):
        raise DimensionMismatch(
            f"OGD gradient has shape {g.shape}; the domain needs ({domain.n},)")
    return OgdState(project_domain(domain, x - g / (H * t)), t + 1, H)


# ---------------------------------------------------------------------------
# Online Newton step


# unit roundoff and smallest subnormal of a float64
_U = 2.0**-53
_ETA = 2.0**-1074
# T' = (T + S + n eta) _UP carries T >= sum C_ii, the exact sum of a proven
# matrix's computed diagonal, through a step adding the diagonal p, with
# S = fsum(p) >= (1 - u) sum p: the new sum, of fl(C_ii + p_i), is at most
# (T + S)(1 + u) / (1 - u) (float sums err only relatively), and T' rounds
# three times, which (1 - u)^3 (1 + 32 u) covers, with n eta for the eta / 2
# a product may lose to underflow.  init_ons starts from (n scale) _UP, which
# is >= n scale (products are exact below 2^-1021).  Overflow gives inf.
_UP = 1.0 + 32.0 * _U


class OnsState(NamedTuple):
    """Iterate, round, step scale beta, Newton matrix A and its bookkeeping.

    A state built by hand proves nothing about A, whatever its scale: its
    spectrum_bounds is None, and ons_step tests A with positive_definite.
    Only the states that init_ons returns, and those that ons_step returns
    from them, carry a proof, because only they are known to hold
    A = scale I + sum of g g^T over the t - 1 gradients seen so far, and
    trace_bound >= the exact sum of its diagonal; spectrum_bounds derives
    bounds on the spectrum of A from that.  _replace returns a state built
    by hand.  A NamedTuple costs less to build than a dataclass, so a state
    compares and unpacks as a tuple; rebuilds is 0, as no inverse is kept.

    last is the memo of the step that built the state, which lets the next
    step with a gradient of the same bytes skip the work that gradient has
    already paid for: a tuple (key, gl, gg, ss, stay) of the gradient's
    bytes g.tobytes(), its entries as a list (checked finite), its outer
    product g[:, None] * g, the math.fsum of its diagonal (inf on overflow),
    and (f, m) when that step stayed at the vertex e_f under the vertex rule
    of ons_step, with m = max|h| for h = -g / beta, else None.  Like the
    spectrum proof, only states that init_ons and ons_step build trust it
    (recall); a state built by hand or by _replace ignores its last.
    """

    x: Array
    t: int
    beta: float
    A: Array
    scale: float = 0.0
    last: tuple | None = None
    trace_bound: float = math.inf
    rebuilds = 0

    def spectrum_bounds(self) -> tuple[float, float] | None:
        """(lam_min, lam_max) bracketing the spectrum of A, or None when
        the state does not prove them, as for every state built by hand."""
        return None

    def recall(self, key: bytes) -> tuple | None:
        """The memo last when built from a gradient of bytes key, else None:
        always None for a state built by hand, which proves nothing of it."""
        return None


class _ProvenOnsState(OnsState):
    """An OnsState built by init_ons and ons_step, which hold the proof
    that OnsState describes (and _UP, for trace_bound)."""

    __slots__ = ()

    def _replace(self, **fields) -> OnsState:
        return OnsState(*self)._replace(**fields)

    def recall(self, key: bytes) -> tuple | None:
        """The memo last when its key equals key, byte for byte: a caller
        may refill one gradient array in place, so identity proves nothing."""
        last = self.last
        return last if last is not None and last[0] == key else None

    def spectrum_bounds(self) -> tuple[float, float] | None:
        """(lam_min, lam_max) = (scale - b, T + b), in O(1), where T is the
        state's trace_bound, b = 8 n t (u T + eta), u = 2^-53 is the unit
        roundoff and eta = 2^-1074 the smallest subnormal.

        The proof compares the computed matrix C = self.A with the exact sum
        A = scale I + sum g g^T of the same float gradients.  Write
        tau = trace(A) = n scale + sum |g|^2 and gamma_m = m u / (1 - m u)
        (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
        ch. 3 and 4).

        * A >= scale I, and lambda_max(A) <= tau, because each term is PSD.
        * C is symmetric bit for bit, so needs no symmetry test: it starts
          as scale I, and each update adds g_i * g_j to entry (i, j) and
          g_j * g_i to entry (j, i), which IEEE multiplication rounds alike.
        * Entry (i, j) of C is a float sum, in order, of t terms (scale or
          0, then t - 1 rounded products), so |C_ij - A_ij| <= gamma_t S_ij
          with S_ij = scale [i = j] + sum |g_i g_j| <= tau, as
          |g_i g_j| <= |g|^2 / 2 for i != j.  By Weyl's inequality the
          eigenvalues of C are those of A moved by at most
          ||C - A||_2 <= ||C - A||_inf <= n gamma_t tau.
        * A diagonal entry sums nonnegative terms, so C_ii >= scale and
          C_ii is within gamma_t of A_ii.  T >= sum C_ii (see _UP), and
          every C_ii is >= 0, so T >= max C_ii >= scale and
          tau <= sum C_ii / (1 - gamma_t) <= T / (1 - gamma_t).
        * Hence lambda_min(C) >= scale - n gamma_t T / (1 - gamma_t)
          and lambda_max(C) <= T (1 + n gamma_t) / (1 - gamma_t).
        * b covers both corrections whenever lam_min > 0.  With T >= scale,
          lam_min > 0 gives t u < 1/8, so gamma_t <= (8/7) t u and
          1 / (1 - gamma_t) <= 7/6: the corrections are at most
          (4/3) n t u T and (4/3)(n + 1) t u T, under the 8 n t u T in b.
        * A product that underflows errs by up to eta/2 in absolute terms
          instead of u relative (sums of subnormals are exact).  Summed over
          the t - 1 updates, and over the n entries of a row or the n
          diagonal entries, that moves the eigenvalues of C by at most
          about n t eta / 2 and lowers sum C_ii below tau by as much, which
          with the factors above stays under the 8 n t eta in b.

        None when lam_min <= 0, where the argument above does not apply,
        as when T is infinite: the diagonal or its bound overflowed.
        """
        trace = self.trace_bound
        b = 8.0 * self.A.shape[0] * self.t * (_U * trace + _ETA)
        lam_min = self.scale - b
        if not lam_min > 0:
            return None
        return lam_min, trace + b


def init_ons(domain: Domain, G: float, D: float) -> OnsState:
    """beta = min(1, 1/(4 G D))/2, A0 = I/(D beta)^2.

    G and D whose scale 1/(D beta)^2 is not a positive finite float raise
    SetupError, since no proof holds for that matrix."""
    if not (G > 0 and D > 0):
        raise SetupError("ONS needs positive G and D bounds")
    beta = 0.5 * min(1.0, 1.0 / (4.0 * G * D))
    d2 = D * D * beta * beta
    scale = 1.0 / d2 if d2 > 0 else math.inf
    if not 0 < scale < math.inf:
        raise SetupError("ONS needs G and D for which 1/(D beta)^2 is a positive finite float")
    return _ProvenOnsState(x=domain.start(), t=1, beta=beta, A=np.eye(domain.n) * scale,
                           scale=scale, trace_bound=domain.n * scale * _UP)


def _vertex_rule(x: Array, g: list[float], beta: float) -> tuple[int, float] | None:
    """(f, max|h|) when x = e_f and h_f >= max h for h = (-1/beta) g; else
    None.  ons_step keeps the vertex when also max|h| + lam_max <= 2^1021,
    and then e_f is _simplex_kkt(A, x, h, x) to the bit.

    x is read off a list, which at small n costs less than numpy's
    reductions, and g is a list of finite floats.  h itself is never built:
    -1/beta < 0 and rounding is monotone, so the largest and least entries
    of h are, to the bit, -1/beta times the least and largest entries of g.
    """
    xl = x.tolist()
    if xl.count(0.0) != len(xl) - 1 or 1.0 not in xl:
        return None
    f = xl.index(1.0)
    c = -1.0 / beta
    hf = c * g[f]
    if not hf >= c * min(g):
        return None
    return f, max(hf, -(c * max(g)))


def ons_step(state: OnsState, grad, domain: Domain) -> OnsState:
    """Newton-style step to y = x - A^-1 grad / beta, projection of y in
    the A-norm, then the rank-one update A + grad grad^T.

    Neither an inverse nor y is formed: the projection is the domain's
    minimize_quadratic(A, x, h, x), h = -grad / beta, whose linear term
    A x + h is A y.  When state.spectrum_bounds() proves
    lam_max <= MAX_CONDITION lam_min (a state of init_ons and ons_step),
    A is used untested, and on a simplex _simplex_kkt is called directly:
    O(n^2), plus O(k^3) per free set of k > 1 coordinates tried.  Any other
    A (a state built by hand, or proven bounds too far apart) is tested by
    projections.positive_definite, whose refusal proves A not positive
    definite or cond(A) > 1e10.  No honest run meets that: with |g| <= G and
    init_ons's beta <= 1/(8 G D), cond(A) <= 1 + t G^2 D^2 beta^2 <= 1 + t/64
    in round t, within 1e10 until t is about 6.4e11.
    A gradient whose shape is not (n,) raises DimensionMismatch; one with a
    NaN or an infinity, an h that overflows and a singular A (on either
    route) raise SetupError.  The gradient is read once as a list, which
    the checks and the vertex rule below share; the array h is built only
    for the projection.  A state built by ons_step is proven if and only if
    the state it stepped from was.

    A step that stays at a vertex costs O(n) plus the rank-one update.  On
    the exact route, with h = -grad / beta and lam_max from
    spectrum_bounds, a step from x = e_f (x_f = 1, every other entry zero)
    with h_f >= max h and max|h| + lam_max <= 2^1021 returns a fresh e_f
    without calling _simplex_kkt, and that is its answer to the bit:

    * _simplex_kkt(A, x, h, x) starts from the support {f} of x, so it
      solves nothing: it returns a fresh e_f (with positive zeros) as soon
      as its vertex multipliers mu_i = A_fi - c_i + (c_f - A_ff), with
      c = A x + h, are at least its floor -1e-12 (2 max A_ii + max|h|).
    * Exactly, mu_i = h_f - h_i >= 0, since A x is column f of A and A is
      symmetric bit for bit.  The gate proved A positive definite, so
      |A_fi| <= max A_ii <= lam_max: the size bound keeps every sum in
      mu_i from overflowing, and four roundings move mu_i by at most about
      u (|A_fi| + |A_ff| + 4 max|h|), u = 2^-53, some 1e-16 of the scale
      on which the floor allows 1e-12.
    * So the computed multipliers pass the floor, and the solve would
      return the same e_f.  Every step this rule declines takes
      _simplex_kkt.

    Each step carries trace_bound forward (see _UP), so spectrum_bounds
    sums no diagonal.  A step from a proven state whose memo
    (OnsState.last) holds a gradient of the same bytes pays only for its
    bookkeeping: the gradient's list, already checked finite, its outer
    product and the fsum S of its diagonal come from the memo, and A + gg
    has the bits of A + g[:, None] * g because both multiply the same
    floats.  When the memo's step stayed at e_f, this step starts from that
    e_f with the same beta and the same h, so h_f >= max h still holds and
    only the size bound is checked again, with this state's lam_max.  The
    route gate runs on every step; when it or the size bound declines, the
    step takes the route above.  The primal solver hands ONS the same
    gradient in every round whose point did not move.
    """
    g = np.asarray(grad, float)
    if g.shape != (domain.n,):
        raise DimensionMismatch(
            f"ONS gradient has shape {g.shape}; the domain needs ({domain.n},)")
    key = g.tobytes()
    memo = state.recall(key)
    if memo is None:
        gl, stay = g.tolist(), None
        if not all(map(math.isfinite, gl)):
            raise SetupError("ONS gradient must be finite")
        # column-times-row products are np.outer without its wrapper
        gg = g[:, None] * g
        try:
            ss = math.fsum(gg.diagonal().tolist())
        except OverflowError:
            ss = math.inf
    else:
        _, gl, gg, ss, stay = memo
    A = state.A
    bounds = state.spectrum_bounds()
    proven = bounds is not None and bounds[1] <= MAX_CONDITION * bounds[0]
    try:
        if proven and isinstance(domain, Simplex):
            if stay is None:
                stay = _vertex_rule(state.x, gl, state.beta)
            if stay is not None and stay[1] + bounds[1] <= 2.0**1021:
                # a fresh array, as the solve's: x itself may hold a -0.0,
                # and the new state then shares no array with the old one
                x_new = np.zeros(domain.n)
                x_new[stay[0]] = 1.0
            else:
                stay = None
                x_new = _simplex_kkt(A, state.x, (-1.0 / state.beta) * g, state.x)
        else:
            stay = None
            h = (-1.0 / state.beta) * g
            if not np.isfinite(h).all():
                raise SetupError("ONS step -grad / beta is not finite")
            M = A if proven else positive_definite(A, domain.n)
            x_new = domain.minimize_quadratic(M, state.x, h, state.x)
    except np.linalg.LinAlgError:
        raise SetupError("ONS matrix A is singular") from None
    return type(state)(x_new, state.t + 1, state.beta, A + gg, state.scale,
                       (key, gl, gg, ss, stay), (state.trace_bound + ss + domain.n * _ETA) * _UP)


# ---------------------------------------------------------------------------
# Multiplicative weights


class MwState(NamedTuple):
    """Weights w, round t, learning rate eta, payoff scale G_inf and
    direction "min" or "max"; a NamedTuple, as OgdState is."""

    w: Array
    t: int
    eta: float
    G_inf: float
    direction: str  # "min" or "max"


def mw_learning_rate(n: int, T: int) -> float:
    """The rate min(1/2, sqrt(log n / T)) that gives MW its regret bound over T rounds."""
    return min(0.5, math.sqrt(math.log(n) / T)) if n > 1 else 0.0


def init_mw(n: int, eta: float, G_inf: float, direction: str = "min") -> MwState:
    """Uniform weights.  A NaN eta or G_inf raises SetupError, as does an
    eta outside [0, 1/2] or an infinite G_inf, whose weights never move."""
    if n < 1:
        raise SetupError("MW needs at least one coordinate")
    if not 0 <= eta <= 0.5:
        raise SetupError(f"MW learning rate eta must lie in [0, 1/2], got {eta!r}")
    if not 0 <= G_inf < math.inf:
        raise SetupError(f"MW G_inf must be a nonnegative finite float, got {G_inf!r}")
    if direction not in ("min", "max"):
        raise SetupError("direction must be 'min' or 'max'")
    return MwState(np.full(n, 1.0 / n), 1, float(eta), float(G_inf), direction)


def mw_point(state: MwState) -> Array:
    """The played point: weights normalized to the simplex."""
    return state.w / float(np.add.reduce(state.w))  # ndarray.sum, without its wrapper


def mw_step(state: MwState, grad) -> MwState:
    """Reweight by (1 -/+ eta grad_i / G_inf) for min/max direction.

    If a gradient entry exceeds the current G_inf in magnitude the scale
    grows to the largest value encountered so far, so weights stay positive
    without a priori knowledge of the payoff range.  A gradient whose shape
    is not that of the weights raises DimensionMismatch, and one with a NaN
    or an infinity SetupError.
    """
    w, t, eta, g_inf, direction = state
    g = np.asarray(grad, float)
    if g.shape != w.shape:
        raise DimensionMismatch(
            f"MW gradient has shape {g.shape}; the weights have shape {w.shape}")
    # numpy's max (the reduction, without ndarray.max's wrapper) passes a
    # NaN on, so one reduction finds max |g| and refuses a NaN or an infinity
    observed = float(np.maximum.reduce(abs(g))) if g.size else 0.0
    if not observed < math.inf:
        raise SetupError("MW gradient must be finite")
    if observed > g_inf:
        g_inf = observed
    if g_inf > 0:
        # the multipliers 1 -/+ (eta / g_inf) g_i, then the new weights, in
        # one array
        scale = g * (eta / g_inf)
        (np.subtract if direction == "min" else np.add)(1.0, scale, out=scale)
        # eta <= 1/2 and |g_i| <= g_inf keep every multiplier in [1/2, 3/2],
        # so a nonpositive weight can only be underflow; floor it.  The
        # exact extremes come off a list at about half the cost of w.max(),
        # and the floor runs only when some weight is below it
        w = np.multiply(w, scale, out=scale)
        wl = w.tolist()
        mx = max(wl)
        if min(wl) < 1e-300:
            np.maximum(w, 1e-300, out=w)
            mx = max(mx, 1e-300)
        if mx > 1e100 or mx < 1e-100:
            # plays are weight ratios, so a common rescale is invisible
            w /= mx
            np.maximum(w, 1e-300, out=w)
    else:
        w = w.copy()
    return MwState(w, t + 1, eta, g_inf, direction)


# ---------------------------------------------------------------------------
# Regret bounds


@dataclass(frozen=True)
class RegretBoundSpec:
    """Algorithm tag plus the constants its worst-case regret bound needs."""

    algorithm: str
    G: float = 0.0
    H: float = 0.0
    D: float = 0.0
    alpha: float = 0.0
    G_inf: float = 0.0
    n: int = 0


def ogd_bound_spec(G: float, H: float) -> RegretBoundSpec:
    if not H > 0:
        raise SetupError("OGD regret bound needs H > 0")
    return RegretBoundSpec(algorithm="ogd", G=float(G), H=float(H))


def ons_bound_spec(G: float, D: float, alpha: float, n: int) -> RegretBoundSpec:
    if not alpha > 0:
        raise SetupError("ONS regret bound needs alpha > 0")
    return RegretBoundSpec(algorithm="ons", G=float(G), D=float(D), alpha=float(alpha), n=int(n))


def mw_bound_spec(G_inf: float, n: int) -> RegretBoundSpec:
    return RegretBoundSpec(algorithm="mw", G_inf=float(G_inf), n=int(n))


def regret_bound_curve(spec: RegretBoundSpec) -> Callable[[int], float]:
    """T -> regret_bound(spec, T) for T >= 1: (G^2/H) log(T + 1) for OGD,
    5 (1/alpha + G D) n log(T + 1) for ONS, 2 G_inf sqrt(T log n) for MW
    (0 when n = 1).  The constant in front, and log n, are computed once:
    each formula, read left to right, multiplies by its factor in T last,
    so a value has the bits of the formula written as one expression."""
    if spec.algorithm == "ogd":
        c = spec.G**2 / spec.H
        return lambda T: c * math.log(T + 1.0)
    if spec.algorithm == "ons":
        c = 5.0 * (1.0 / spec.alpha + spec.G * spec.D) * spec.n
        return lambda T: c * math.log(T + 1.0)
    if spec.algorithm == "mw":
        if spec.n < 2:
            return lambda T: 0.0
        c, log_n = 2.0 * spec.G_inf, math.log(spec.n)
        return lambda T: c * math.sqrt(T * log_n)
    raise SetupError(f"unknown regret bound algorithm {spec.algorithm!r}")


def regret_bound(spec: RegretBoundSpec, T: int) -> float:
    """Worst-case cumulative regret after T rounds, natural log throughout."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return regret_bound_curve(spec)(T)


# ---------------------------------------------------------------------------
# Measured regret


def _combine(costs: Sequence[ConstraintFn], n: int):
    """Sum of costs that have a quadratic form, as one closed form; None
    when some cost has none."""
    A, b, c = np.zeros((n, n)), np.zeros(n), 0.0
    for f in costs:
        q = f.as_quadratic()
        if q is None:
            return None
        A += q.A
        b += q.b
        c += q.c
    return Quadratic(A=A, b=b, c=c) if A.any() else Affine(a=b, b=c)


def hindsight_minimum(costs: Sequence[ConstraintFn], domain: Domain) -> tuple[Array, float]:
    """Best fixed domain point for the summed costs, and its total cost.

    Affine sums have a closed form and quadratic sums take the descent's
    FISTA momentum; every other sum, at any dimension, takes the line-search
    descent to a certified gap of 1e-8.  A cost of another dimension than
    the domain's raises DimensionMismatch.
    """
    if not costs:
        raise SetupError("need at least one cost")
    n = domain.n
    for i, f in enumerate(costs):
        if f.n != n:
            raise DimensionMismatch(f"cost {i} has dimension {f.n}, domain has {n}")
    combined = _combine(costs, n)
    if isinstance(combined, Affine):
        x, v = domain.linear_minimum(combined.a)
        return x, v + combined.b
    terms, smoothness, tol = costs, None, 1e-8
    if combined is not None:
        terms, smoothness = [combined], smoothness_bound(combined, domain)
        tol = 1e-9 * (1.0 + abs(combined.value(domain.start())))

    def fn(x):
        g = np.zeros(n)
        for f in terms:
            g += gradient(f, x)
        return sum(evaluate(f, x) for f in terms), g

    res = minimize_over_domain(fn, domain, smoothness=smoothness, tol=tol)
    return res.x, res.value


def measured_regret(costs: Sequence[ConstraintFn], plays: Sequence[Array],
                    domain: Domain) -> float:
    """Realized regret: cumulative online cost minus best fixed point's cost."""
    if len(costs) != len(plays):
        raise SetupError("costs and plays must have equal length")
    _, best = hindsight_minimum(costs, domain)
    online = sum(evaluate(f, x) for f, x in zip(costs, plays))
    return float(online - best)
