"""Seeded generators for benchmark feasibility instances over the simplex.

Random matrices are built as Q diag(lam) Q^T with an explicitly placed
smallest eigenvalue, so curvature knobs are exact rather than sampled; a
generator draws its m matrices' numbers one matrix at a time, then factors
and multiplies them as one (m, n, n) stack (_psd_stack).  Every generator
returns a Problem with parameters filled in by the conservative estimator,
and the same GeneratorSpec always reproduces the same instance bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Affine,
    Array,
    NegEntropy,
    NegLogBarrier,
    NormDistSq,
    Problem,
    Quadratic,
    SetupError,
    Simplex,
    make_problem,
)

# Relative pad placed on target eigenvalues so numeric eigensolvers report
# the promised lower bound despite rounding.
_EIG_PAD = 1e-10


@dataclass(frozen=True)
class GeneratorSpec:
    """Name plus knobs for one reproducible instance.

    family is a key of GENERATORS, whose row lists the knobs that family's
    builder takes; it ignores the others (crp takes t_days, not m).  A
    field's annotation is its problem-file type.
    """

    family: str
    n: int
    m: int = 1
    seed: int = 0
    h_target: float = 1.0
    feasible: bool = True
    margin: float = 0.1
    c: float = 0.05
    t_days: int = 5


def _check_sizes(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise SetupError("need n >= 1 and m >= 1")


def _psd_stack(rng: np.random.Generator, n: int, m: int, lam_min: float, lam_max: float,
               draw=None) -> tuple[Array, list]:
    """m symmetric PSD matrices Q diag(lam) Q^T with smallest eigenvalue lam_min
    (padded), and draw(rng) after each one's lam and Z, for Q the sign-fixed QR
    factor of Z; the stacked QR and products give each matrix the bits of its own."""
    floor = lam_min * (1.0 + _EIG_PAD) + 1e-12
    lam, Z, drawn = np.full((m, n), floor), np.empty((m, n, n)), []
    for k in range(m):
        lam[k, 1:] = rng.uniform(floor, max(lam_max, floor), n - 1)
        Z[k] = rng.standard_normal((n, n))
        drawn.append(draw(rng) if draw else None)
    q, r = np.linalg.qr(Z)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    A = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
    return 0.5 * (A + A.transpose(0, 2, 1)), drawn


def make_strict_qp(n: int, m: int, h_target: float = 1.0, feasible: bool = True,
                   seed: int = 0) -> Problem:
    """m strongly convex quadratics over Simplex(n).

    Every A_j has smallest eigenvalue >= h_target.  Feasible instances
    shift constants so a sampled witness has f_j(witness) = -0.1 on each
    constraint; infeasible ones shift so f_j >= 0.1 everywhere on the
    simplex (using x'A x >= h_target / n and b'x >= min_i b_i).
    """
    _check_sizes(n, m)
    if not h_target > 0:
        raise SetupError("h_target must be positive")
    rng = np.random.default_rng(seed)
    witness = rng.dirichlet(np.ones(n)) if feasible else None
    constraints = []
    for A, b in zip(*_psd_stack(rng, n, m, h_target, 10.0 * h_target,
                                lambda rng: rng.standard_normal(n))):
        if witness is not None:
            c = -float(witness @ A @ witness + b @ witness) - 0.1
        else:
            c = 0.1 - h_target / n - float(np.min(b))
        constraints.append(Quadratic(A=A, b=b, c=c))
    return make_problem(constraints, Simplex(n))


def _plant_row(a: Array, witness: Array, margin: float) -> Array:
    """Blend a toward the witness until the normalized row clears margin."""

    def score(kappa: float) -> tuple[Array, float]:
        v = a + kappa * witness
        norm = np.linalg.norm(v)
        if not norm:  # a zero blend (a = -witness at n = 1) scores below any margin
            return v, -np.inf
        v = v / norm
        return v, float(v @ witness)

    row, s = score(0.0)
    if s >= margin:
        return row
    hi = 1.0
    while score(hi)[1] < margin:
        hi *= 2.0
        if hi > 2.0**200:
            raise SetupError("margin too large to plant")
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if score(mid)[1] >= margin:
            hi = mid
        else:
            lo = mid
    return score(hi)[0]


def make_perceptron_lp(n: int, m: int, margin: float = 0.1, feasible: bool = True,
                       seed: int = 0) -> Problem:
    """Linear separation feasibility: rows a_j with a_j . x >= 0 on the simplex.

    Constraints are stored in minimization form f_j(x) = -a_j . x.  Feasible
    instances plant a witness with a_j . witness >= margin for every row;
    infeasible ones alternate rows -d, +d, -d, ... for a fixed positive
    direction d, so some row is violated at every simplex point.
    """
    _check_sizes(n, m)
    if margin < 0:
        raise SetupError("margin must be nonnegative")
    rng = np.random.default_rng(seed)
    rows = []
    if feasible:
        witness = rng.dirichlet(np.ones(n))
        if margin >= float(np.linalg.norm(witness)) - 1e-9:
            raise SetupError(
                f"margin {margin:.6g} too large to plant: witness norm is "
                f"{float(np.linalg.norm(witness)):.6g}"
            )
        for _ in range(m):
            a = rng.standard_normal(n)
            a /= np.linalg.norm(a)
            rows.append(_plant_row(a, witness, margin))
    else:
        d = np.abs(rng.standard_normal(n)) + 0.1
        d /= np.linalg.norm(d)
        for j in range(m):
            rows.append(d if j % 2 == 1 else -d)
    constraints = [Affine(a=-row, b=0.0) for row in rows]
    return make_problem(constraints, Simplex(n))


def make_portfolio_risk(n: int, m: int, seed: int = 0) -> Problem:
    """Risk-versus-return scenarios: 0.05 + x' Sigma_j x - p_j . x <= 0.

    Each covariance Sigma_j is positive definite with smallest eigenvalue
    0.1 and expected returns p_j drawn uniformly from [0.05, 0.15].
    """
    _check_sizes(n, m)
    rng = np.random.default_rng(seed)
    sigmas, ps = _psd_stack(rng, n, m, 0.1, 1.0, lambda rng: rng.uniform(0.05, 0.15, n))
    constraints = [Quadratic(A=sigma, b=-p, c=0.05) for sigma, p in zip(sigmas, ps)]
    return make_problem(constraints, Simplex(n))


def make_entropy_problem(n: int, m: int, c: float = 0.05, seed: int = 0) -> Problem:
    """Entropy level constraint plus m ellipsoidal balls around a base point.

    The first constraint asks sum_i x_i log x_i <= tau with tau set 0.1
    above the value at the sampled base point p_tilde, so p_tilde is an
    interior witness; each ball ||A_i (x - p_tilde)||^2 <= c is stored as
    an expanded Quadratic whose value at p_tilde is exactly -c.
    """
    _check_sizes(n, m)
    if not c > 0:
        raise SetupError("c must be positive")
    rng = np.random.default_rng(seed)
    p_tilde = rng.dirichlet(np.ones(n))
    tau = float(p_tilde @ np.log(p_tilde)) + 0.1
    constraints: list = [NegEntropy(n=n, shift=-tau)]
    for M in _psd_stack(rng, n, m, 0.3, 1.0)[0]:
        Mp = M @ p_tilde
        constraints.append(Quadratic(A=M, b=-2.0 * Mp, c=float(p_tilde @ Mp) - c))
    return make_problem(constraints, Simplex(n))


def make_crp_problem(n: int, t_days: int, c: float = 0.05, seed: int = 0) -> Problem:
    """Log-wealth level constraint for constant-rebalanced portfolios.

    Price relatives r_t are sampled in [0.9, 1.1]; the barrier rows are the
    r_t plus the identity (one log p_i term per coordinate).  The level tau
    sits 0.5 below the barrier objective at a sampled base point, which
    also centers the ball constraint ||x - p_tilde||^2 <= c.
    """
    if n < 2:
        raise SetupError("need n >= 2")
    if t_days < 1:
        raise SetupError("need t_days >= 1")
    if not c > 0:
        raise SetupError("c must be positive")
    rng = np.random.default_rng(seed)
    p_tilde = rng.dirichlet(np.ones(n))
    R = rng.uniform(0.9, 1.1, (t_days, n))
    rows = np.vstack([R, np.eye(n)])
    tau = float(np.sum(np.log(rows @ p_tilde))) - 0.5
    constraints = [NegLogBarrier(rows=rows, level=tau),
                   NormDistSq(center=p_tilde, c=c)]
    return make_problem(constraints, Simplex(n))


# The generator families by name: each one's builder and the GeneratorSpec
# knobs it passes to the builder, by keyword, after n.
GENERATORS = {
    "strict_qp": (make_strict_qp, ("m", "seed", "h_target", "feasible")),
    "perceptron_lp": (make_perceptron_lp, ("m", "seed", "margin", "feasible")),
    "portfolio_risk": (make_portfolio_risk, ("m", "seed")),
    "entropy": (make_entropy_problem, ("m", "seed", "c")),
    "crp": (make_crp_problem, ("seed", "c", "t_days")),
}


def make_problem_from_spec(spec: GeneratorSpec) -> Problem:
    if spec.family not in GENERATORS:
        raise SetupError(f"unknown generator family {spec.family!r}")
    build, knobs = GENERATORS[spec.family]
    return build(spec.n, **{key: getattr(spec, key) for key in knobs})
