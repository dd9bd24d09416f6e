"""Euclidean projection (the domain's project) and projection in the A-norm
(one test of A, then the domain's exact minimize_quadratic)."""

from __future__ import annotations

import numpy as np

from .core import Array, DimensionMismatch, Domain, SetupError


def project_domain(domain: Domain, y) -> Array:
    """Euclidean projection of y onto the domain (its project method)."""
    return domain.project(y)


def positive_definite(A, n: int) -> Array:
    """A as a finite n x n float matrix fit for minimize_quadratic, else
    SetupError (DimensionMismatch for a wrong shape).  An A symmetric
    within a relative 1e-12 is used as (A + A^T) / 2, its quadratic form,
    and needs a Cholesky factor L with every L_ii^2 > 1e-10 max A_ii.  As
    lam_min <= L_ii^2 <= A_ii <= lam_max, a refusal proves cond(A) > 1e10
    (up to rounding) or a failed factorization; every Cholesky diagonal
    spread beyond 1e5 is refused."""
    M = np.asarray(A, float)
    if not np.isfinite(M).all():
        raise SetupError("projection matrix has a non-finite entry")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if M.shape[0] != n:
        raise DimensionMismatch("matrix and point dimensions differ")
    if (M != M.T).any():
        if float(abs(M - M.T).max()) > 1e-12 * float(abs(M).max()):
            raise SetupError("matrix is not symmetric within 1e-12")
        M = 0.5 * (M + M.T)
    try:
        pivots = np.linalg.cholesky(M).diagonal()
        fit = float((pivots * pivots).min()) > 1e-10 * float(M.diagonal().max())
    except np.linalg.LinAlgError:
        fit = False
    if not fit:
        raise SetupError("matrix is not positive definite with every squared Cholesky "
                         "pivot above 1e-10 times its largest diagonal entry")
    return M


def generalized_project(y, A, domain: Domain, x0=None) -> Array:
    """argmin over the domain of (x - y).A(x - y), exact up to rounding,
    for a finite y: the Euclidean projection for A = 0, else y itself in
    the domain or domain.minimize_quadratic(A, y, 0, x0), x0 a warm start,
    once A has passed positive_definite."""
    y = np.asarray(y, float)
    if y.shape != (domain.n,):
        raise DimensionMismatch("point has wrong dimension for domain")
    if not np.isfinite(y).all():
        raise SetupError("projection point has a non-finite entry")
    M = np.asarray(A, float)
    if M.shape == (y.size, y.size) and not M.any():  # every domain point minimizes
        return y.copy() if domain.contains(y) else project_domain(domain, y)
    M = positive_definite(M, y.size)
    if domain.contains(y):
        return y.copy()
    return domain.minimize_quadratic(M, y, np.zeros(y.size), x0)
