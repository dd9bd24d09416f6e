"""Projection in the A-norm onto the supported domains.

The Euclidean projections are the domains' own project methods
(core.project_simplex is the simplex's, which rejects input with a NaN or
+inf, or with every entry -inf, with SetupError); project_domain calls them
by domain.

generalized_project minimizes (x - y).A(x - y) over the domain.  On a
simplex with a positive-definite A it is exact: an active-set solve of the
KKT system by block principal pivoting (_simplex_kkt), each step one
bordered solve [[A_FF, 1], [1^T, 0]] on the free coordinates F, which is
nonsingular for positive-definite A.  It needs no eigenvalues.  The solve
takes the linear term of the objective as A r + h and solves for the
correction from the reference point r, so online.ons_step, whose state
proves its matrix positive definite and well conditioned from how that
matrix is built (OnsState.spectrum_bounds), calls it directly
with r = x and h = -g / beta and never forms the Newton point or an
inverse.  Its answer lies on the plane sum x = 1 in rationals up to the
rounding of one small coordinate.  generalized_project tests its matrix:
symmetric bit for bit and with a Cholesky factorization that succeeds it is
positive definite, which is stronger than the PSD test below, and a spread
of the factor's diagonal within 1e5 keeps a numerically singular A out.
Every other input (ball, box, a singular, an ill-conditioned or a merely
near-symmetric A) takes projected gradient descent with the domain's
Euclidean projection (picked once per call) as the inner step.  A descent
step costs one matrix-vector product: A(x - y) serves first as the
objective at x and then as the gradient of the next step.  On that route
A is validated by _psd_spectrum (symmetry and an eigvalsh, both tests
relative to the size of A), and those eigenvalues also decide the fast
path: when they agree to a relative 1e-12, A is a multiple of I (or zero)
and the Euclidean projection is the answer.  The descent's stopping
tolerance is in the objective's absolute units, so a scaled-down A needs
a tolerance scaled down alike; the exact solve has no tolerance to pass,
and its multiplier test is relative to the size of A.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Array,
    ConvergenceError,
    DimensionMismatch,
    Domain,
    SetupError,
    Simplex,
    ZERO_TOL,
    project_simplex,
)

# Descent steps, or bordered solves of the exact simplex path,
# generalized_project takes before it gives up.
PROJECT_CAP = 100_000


def project_domain(domain: Domain, y) -> Array:
    """Euclidean projection of y onto the domain (its project method)."""
    return domain.project(y)


def _psd_spectrum(M: Array) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a square M that is symmetric and PSD,
    both tests relative to the size of M so that a scaled-down M is judged
    like M itself; SetupError otherwise."""
    if float(abs(M - M.T).max()) > 1e-12 * float(abs(M).max()):
        raise SetupError("matrix is not symmetric within 1e-12")
    ev = np.linalg.eigvalsh(M)
    if float(ev[0]) < -1e-10 * float(ev[-1]):
        raise SetupError("matrix is not positive semidefinite")
    return float(ev[0]), float(ev[-1])


def _well_conditioned(M: Array) -> bool:
    """True when M is symmetric bit for bit and has a Cholesky factor whose
    diagonal entries are within a factor 1e-5 of each other.

    The factor proves M positive definite.  A diagonal spread beyond 1e5
    puts the condition number of M above 1e10, and it is
    what a singular M that rounding lets through the factorization looks
    like (0.924 1 1^T on two coordinates gives a last entry of 1.5e-8, the
    root of a rounding error); the bordered system on such an M can be
    singular outright, so it is left to the descent.  False says nothing
    more: _psd_spectrum then decides between a singular PSD matrix, a
    near-symmetric one and one it refuses.
    """
    if not (M == M.T).all():
        return False
    try:
        diag = np.linalg.cholesky(M).diagonal()
    except np.linalg.LinAlgError:
        return False
    return bool(diag.min() > 1e-5 * diag.max())


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


def _simplex_kkt(M: Array, r: Array, h: Array, x0) -> Array:
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


def generalized_project(y, A, domain: Domain, tol: float = 1e-9, x0=None) -> Array:
    """argmin over the domain of (x - y).A(x - y) for symmetric PSD A.

    A is an array; one with a NaN or an infinity is refused before any
    other test on it.  On a simplex, a matrix that is symmetric bit for bit
    and has a Cholesky factor whose diagonal entries are within a factor
    1e-5 of each other (so positive definite and not near singular) takes
    the exact KKT solve of _simplex_kkt from the reference point y.  tol
    plays no part in the exact solve.  Every other input is validated by
    _psd_spectrum, so the matrices accepted and refused are those of
    _psd_spectrum either way, and takes projected gradient descent along
    A(x - y) with step 1/lam_max(A) (the gradient of the half-scaled
    objective, so every eigendirection contracts).  Each descent step
    costs one matrix-vector product: the product that evaluates the
    objective at a point is the gradient for the step from it.  Descent stops when the
    objective decrease falls below tol * 1e-2; tol is in the objective's
    absolute units, so an A scaled down by s needs a tol scaled by s too.
    When the eigenvalues of A agree to a relative 1e-12 (A is a multiple of
    I, zero included), the descent route returns the Euclidean projection
    without descent; every test on A is relative, so a scaled-down A is
    projected like A itself.  x0, when given, must be a domain point and is
    used as the warm start: its support is the first free set of the exact
    solve, and the descent starts from it.
    """
    y = np.asarray(y, float)
    if y.shape != (domain.n,):
        raise DimensionMismatch("point has wrong dimension for domain")
    M = np.asarray(A, float)
    if not np.isfinite(M).all():
        raise SetupError("projection matrix has a non-finite entry")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if M.shape[0] != y.shape[0]:
        raise DimensionMismatch("matrix and point dimensions differ")
    if isinstance(domain, Simplex) and _well_conditioned(M):
        if domain.contains(y):
            return y.copy()
        return _simplex_kkt(M, y, np.zeros(y.size), x0)

    lam_min, lam_max = _psd_spectrum(M)
    if domain.contains(y):
        return y.copy()
    if lam_max - lam_min <= ZERO_TOL * lam_max:  # A = 0 included
        return project_domain(domain, y)

    project = domain.project
    x = project(y) if x0 is None else np.asarray(x0, float)
    d = x - y
    g = M @ d
    fx = float(d @ g)
    step = 1.0 / lam_max
    stop = tol * 1e-2
    for _ in range(PROJECT_CAP):
        x_new = project(x - step * g)
        d = x_new - y
        g_new = M @ d
        f_new = float(d @ g_new)
        if fx - f_new < stop:
            return x_new if f_new <= fx else x
        x, fx, g = x_new, f_new, g_new
    raise ConvergenceError(
        f"generalized projection did not converge within {PROJECT_CAP} iterations"
    )
