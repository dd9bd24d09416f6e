"""Brute-force lattice references for the tests: the simplex lattice and
the game value min_x max_j r_j(x) scanned over it.

Grids serve the tests only: a grid scan accepts a feasible system whose
negative values lie between grid points, so the package proves every
certificate by the certified descent instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import feasgame as fg


def grid(domain, resolution: float) -> np.ndarray:
    """The lattice of the given spacing on a simplex of n <= 3, from a mesh
    of <= 2e7 points; SetupError for any other domain."""
    if not isinstance(domain, fg.Simplex):
        raise fg.SetupError(f"a {domain.tag} domain has no grid; only a simplex has one")
    if not 0 < resolution <= 1:
        raise fg.SetupError("resolution must lie in (0, 1]")
    if domain.n > 3:
        raise fg.SetupError("grids are only supported for n <= 3")
    n, k = domain.n, int(round(1.0 / resolution))
    if (k + 1) ** max(n - 1, 1) > 20_000_000:
        raise fg.SetupError("grid too large; use a coarser resolution")
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


@dataclass(frozen=True)
class GridValue:
    """Grid estimate of min_x max_j r_j(x), with a Lipschitz slack radius."""

    value: float
    slack: float
    x: np.ndarray


def brute_force_lambda_star(problem: fg.Problem, resolution: float) -> GridValue:
    """Game value by exhaustive search of the simplex lattice, n <= 3 only.
    The true value lies within slack = resolution * (max sampled residual
    gradient norm) of the reported lattice minimum."""
    X = grid(problem.domain, resolution)
    worst = np.max(np.column_stack([_lattice_values(f, X) for f in problem.constraints]), axis=1)
    k = int(np.argmin(worst))
    sample = X[:: max(1, X.shape[0] // 512)]
    gmax = max(float(np.max(np.linalg.norm(fg.residual_gradients(problem, x), axis=1)))
               for x in sample)
    return GridValue(value=float(worst[k]), slack=resolution * gmax, x=X[k].copy())


def _lattice_values(f, X: np.ndarray) -> np.ndarray:
    """f at each row of X, through its quadratic form or its inner's values,
    else one point at a time; off f's analytic domain, f's own error."""
    q = f.as_quadratic()
    if q is not None:
        return np.einsum("ni,ij,nj->n", X, q.A, X) + X @ q.b + q.c
    if isinstance(f, fg.LogAffineComposite):
        return 1.0 - np.log(f.log_argument(_lattice_values(f.inner, X)))
    return np.array([fg.evaluate(f, x) for x in X])
