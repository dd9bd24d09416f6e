"""Euclidean projections onto the supported domains, plus A-norm projection.

project_simplex is the exact sort-and-threshold procedure: find the unique
shift a with sum_i max(y_i - a, 0) = 1 and clamp.  It is deterministic,
costs O(n log n) and rejects input with a NaN or an infinity (SetupError).

generalized_project minimizes (x - y).A(x - y) over the domain by projected
gradient descent, with the domain's Euclidean projection (picked once per
call) as the inner step.  A step costs one matrix-vector product: A(x - y)
serves first as the objective at x and then as the gradient of the next
step.  A is validated on every call (PsdMatrix.check: symmetry and an
eigvalsh), and those eigenvalues also decide the fast path: when they agree
to a relative 1e-12, A is a multiple of I and the Euclidean projection is
the answer.  The stopping tolerance is in the objective's absolute units,
so a scaled-down A needs a tolerance scaled down alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .core import (
    Array,
    Ball,
    Box,
    ConvergenceError,
    DimensionMismatch,
    Domain,
    SetupError,
    Simplex,
    ZERO_TOL,
    domain_contains,
    domain_dim,
)


def simplex_threshold(y) -> float:
    """Shift a with sum_i max(y_i - a, 0) = 1; exact up to float arithmetic.

    Raises SetupError for input with a NaN or an infinity that leaves no
    shift; finite input always has one.
    """
    y = np.asarray(y, float)
    if y.ndim != 1 or y.size == 0:
        raise DimensionMismatch("expected a nonempty 1-d vector")
    # ndarray methods skip the np.sort/np.cumsum/np.nonzero wrappers
    u = y.copy()
    u.sort()
    u = u[::-1]
    cand = (u.cumsum() - 1.0) / np.arange(1, y.size + 1)
    try:
        rho = (u - cand > 0).nonzero()[0][-1]
    except IndexError:  # only a NaN or an infinity leaves no candidate above
        raise SetupError("simplex projection needs finite input") from None
    return float(cand[rho])


def project_simplex(y) -> Array:
    """Euclidean projection of y onto the probability simplex."""
    y = np.asarray(y, float)
    return np.maximum(y - simplex_threshold(y), 0.0)


def project_ball(y, radius: float = 1.0, center=None) -> Array:
    """Euclidean projection onto the ball: rescale along the ray from center."""
    y = np.asarray(y, float)
    c = np.zeros_like(y) if center is None else np.asarray(center, float)
    d = y - c
    nrm = float(np.linalg.norm(d))
    if nrm <= radius:
        return y.copy()
    return c + radius * d / nrm


def project_box(y, lo, hi) -> Array:
    """Coordinatewise clamp onto [lo, hi]."""
    return np.clip(np.asarray(y, float), lo, hi)


def domain_projector(domain: Domain) -> Callable[[Array], Array]:
    """The Euclidean projection onto domain, as a function of the point."""
    if isinstance(domain, Simplex):
        return project_simplex
    if isinstance(domain, Ball):
        return partial(project_ball, radius=domain.radius, center=domain.center)
    return partial(project_box, lo=domain.lo, hi=domain.hi)


def project_domain(domain: Domain, y) -> Array:
    return domain_projector(domain)(y)


@dataclass(frozen=True)
class PsdMatrix:
    """Validated carrier for a symmetric PSD matrix and its extreme eigenvalues."""

    M: Array
    lam_min: float
    lam_max: float

    @staticmethod
    def check(A) -> "PsdMatrix":
        A = np.asarray(A, float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("matrix must be square")
        if float(abs(A - A.T).max()) > 1e-12 * (1.0 + float(abs(A).max())):
            raise SetupError("matrix is not symmetric within 1e-12")
        ev = np.linalg.eigvalsh(A)
        if float(ev[0]) < -1e-10 * max(1.0, float(ev[-1])):
            raise SetupError("matrix is not positive semidefinite")
        return PsdMatrix(M=A, lam_min=float(ev[0]), lam_max=float(ev[-1]))


def generalized_project(y, A, domain: Domain, tol: float = 1e-9,
                        max_iters: int = 100_000, x0=None) -> Array:
    """argmin over the domain of (x - y).A(x - y) for symmetric PSD A.

    Projected gradient descent along A(x - y) with step 1/lam_max(A) (the
    gradient of the half-scaled objective, so every eigendirection contracts).
    Each step costs one matrix-vector product: the product that evaluates the
    objective at a point is the gradient for the step from it.  Stops when
    the objective decrease falls below tol * 1e-2; tol is in the objective's
    absolute units, so an A scaled down by s needs a tol scaled by s too.
    When the eigenvalues of A agree to a relative 1e-12 (A is a multiple of
    I), or lam_max(A) <= 1e-12 (A counts as zero), the answer is the
    Euclidean projection, returned without descent.  x0, when given, must be
    a domain point and is used as the warm start.
    """
    y = np.asarray(y, float)
    if y.shape != (domain_dim(domain),):
        raise DimensionMismatch("point has wrong dimension for domain")
    psd = PsdMatrix.check(A)
    if psd.M.shape[0] != y.shape[0]:
        raise DimensionMismatch("matrix and point dimensions differ")
    if domain_contains(domain, y):
        return y.copy()
    if psd.lam_max <= ZERO_TOL or psd.lam_max - psd.lam_min <= ZERO_TOL * psd.lam_max:
        return project_domain(domain, y)

    M = psd.M
    project = domain_projector(domain)
    x = project(y) if x0 is None else np.asarray(x0, float)
    d = x - y
    g = M @ d
    fx = float(d @ g)
    step = 1.0 / psd.lam_max
    stop = tol * 1e-2
    for _ in range(max_iters):
        x_new = project(x - step * g)
        d = x_new - y
        g_new = M @ d
        f_new = float(d @ g_new)
        if fx - f_new < stop:
            return x_new if f_new <= fx else x
        x, fx, g = x_new, f_new, g_new
    raise ConvergenceError(
        f"generalized projection did not converge within {max_iters} iterations"
    )
