"""Shared fixtures and independent numeric oracles for the test suite.

The finite-difference helpers here are deliberately written against
`evaluate` alone so gradient tests do not reuse the code under test.
"""

import numpy as np
import pytest

import feasgame as fg


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a constraint at x."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (fg.evaluate(f, x + e) - fg.evaluate(f, x - e)) / (2.0 * h)
    return out


def fd_hessian(f, x, h=1e-4):
    """Central-difference Hessian (via gradient differences) at x."""
    x = np.asarray(x, float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[:, i] = (fd_gradient(f, x + e, h=h) - fd_gradient(f, x - e, h=h)) / (2.0 * h)
    return 0.5 * (H + H.T)


def interior_simplex(rng, n, count, pull=0.2):
    """Random simplex points pulled toward uniform so every coordinate is
    bounded away from zero (NegEntropy and barrier terms stay finite)."""
    pts = rng.dirichlet(np.ones(n), size=count)
    return (1.0 - pull) * pts + pull / n


def constant_problem(values, n=2):
    """Problem whose j-th constraint is the constant values[j] on Simplex(n)."""
    cons = [fg.Affine(a=np.zeros(n), b=float(v)) for v in values]
    return fg.make_problem(cons, fg.Simplex(n=n))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def family_samples(rng, n):
    """One randomly parameterized constraint per family, with a point sampler
    that stays inside each family's natural domain of definition."""
    A = rng.normal(size=(n, n))
    A = A @ A.T / n + 0.1 * np.eye(n)
    rows = rng.uniform(0.5, 1.5, size=(3, n))
    inner = fg.Affine(a=rng.normal(size=n), b=float(rng.normal()))
    cases = [
        fg.Affine(a=rng.normal(size=n), b=float(rng.normal())),
        fg.Quadratic(A=A, b=rng.normal(size=n), c=float(rng.normal())),
        fg.LogAffineComposite(inner=inner, omega=float(np.abs(inner.a).sum() + abs(inner.b) + 1.0)),
        fg.NegEntropy(n=n, shift=float(rng.normal())),
        fg.NormDistSq(center=rng.normal(size=n), c=float(rng.normal())),
        fg.NegLogBarrier(rows=rows, level=-5.0),
    ]
    return cases


def row_bounds(f, domain):
    """The Bounds (G, H, L, lo, hi) of one constraint over a domain, as
    floats, from its packed group of one row: what the instance constants
    are estimated from."""
    b = f.packed_group()([f]).bounds(domain)
    return type(b)(*(float(v[0]) for v in b))


# Family kinds for randomized tests: the six families.
FAMILY_KINDS = ("affine", "quadratic", "log_affine", "entropy", "norm_dist", "barrier")


def random_domain(kind, rng, n, positive=False):
    """A simplex, ball or box in R^n; positive keeps every point > 0 off the
    boundary so entropy and barrier bounds exist."""
    if kind == "simplex":
        return fg.Simplex(n=n)
    if kind == "ball":
        radius = float(rng.uniform(0.2, 1.0))
        center = rng.uniform(radius + 0.1, 2.0, n) if positive else rng.uniform(-1, 1, n)
        return fg.Ball(n=n, radius=radius, center=center)
    lo = rng.uniform(0.0, 0.5, n) if positive else rng.uniform(-1.0, 0.5, n)
    return fg.Box(lo=lo, hi=lo + rng.uniform(0.1, 2.0, n))


def random_constraint(kind, rng, domain):
    """A random constraint of the kind over the domain.  A log composite gets
    omega above the width of its inner, the precondition of its bounds."""
    n = domain.n
    a, b = rng.uniform(-2, 2, n), float(rng.uniform(-1, 1))
    M = rng.uniform(-1, 1, (n, n))
    quad = fg.Quadratic(A=0.5 * (M + M.T), b=a, c=b)
    if kind == "affine":
        return fg.Affine(a=a, b=b)
    if kind == "quadratic":
        return quad
    if kind == "log_affine":
        inner = fg.Affine(a=a, b=b)
        width = fg.make_problem([inner], domain).params.omega
        return fg.LogAffineComposite(inner=inner, omega=width + 0.1)
    if kind == "entropy":
        return fg.NegEntropy(n=n, shift=b)
    if kind == "norm_dist":
        return fg.NormDistSq(center=rng.uniform(-1, 1, n), c=b)
    return fg.NegLogBarrier(rows=rng.uniform(0.2, 1.5, (int(rng.integers(1, 4)), n)), level=b)
