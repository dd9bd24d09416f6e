"""The packed constraint form against the scalar evaluate/gradient reference.

Every family, both senses and all three domains: residuals, single-row and
mixed gradients, batch values, the fixed-weight Mixture, and the separation
oracle's rule (the lowest index that is violated or off its analytic domain
decides; off the domain raises).
"""

import math

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import feasgame as fg

FAMILIES = ("affine", "quadratic", "log_affine", "log_quadratic", "entropy",
            "norm_dist", "barrier")
TOL = dict(rtol=1e-12, atol=1e-12)
# any params will do: the packed form does not read them
PARAMS = fg.ProblemParams(G=1.0, H=0.0, omega=1.0, D=1.0, G_inf=1.0, alpha=0.0)


def make_constraint(family, rng, n):
    a, b = rng.uniform(-2, 2, n), float(rng.uniform(-1, 1))
    M = rng.uniform(-1, 1, (n, n))
    quad = fg.Quadratic(A=0.5 * (M + M.T), b=a, c=b)
    if family == "affine":
        return fg.Affine(a=a, b=b)
    if family == "quadratic":
        return quad
    if family == "log_affine":
        return fg.LogAffineComposite(inner=fg.Affine(a=a, b=b), omega=float(rng.uniform(0.3, 3)))
    if family == "log_quadratic":
        return fg.LogAffineComposite(inner=quad, omega=float(rng.uniform(0.3, 3)))
    if family == "entropy":
        return fg.NegEntropy(n=n, shift=b)
    if family == "norm_dist":
        return fg.NormDistSq(center=rng.uniform(-1, 1, n), c=b)
    rows = rng.uniform(-0.3, 1.5, (int(rng.integers(1, 4)), n))
    return fg.NegLogBarrier(rows=rows, level=b)


def make_domain(kind, rng, n):
    if kind == "simplex":
        return fg.Simplex(n=n)
    if kind == "ball":
        return fg.Ball(n=n, radius=float(rng.uniform(0.5, 2)), center=rng.uniform(-1, 1, n))
    lo = rng.uniform(-1, 0.5, n)
    return fg.Box(lo=lo, hi=lo + rng.uniform(0.1, 2, n))


def points(domain, rng, count=6):
    """Sampled points plus a corner, where entropy and barriers can be off
    their domains."""
    X = fg.sample_domain(domain, count, seed=int(rng.integers(2**31)))
    if isinstance(domain, fg.Simplex):
        corner = np.eye(domain.n)[0]
    else:
        corner = fg.bounding_box(domain)[0]
    return np.vstack([X, corner])


def scalar(problem, x):
    """(residual or None off the domain, oriented gradient or None) per constraint."""
    sign = 1.0 if problem.sense == "min" else -1.0
    out = []
    for j, f in enumerate(problem.constraints):
        try:
            out.append((fg.residual(problem, j, x), sign * fg.gradient(f, x)))
        except fg.EvaluationDomainError:
            out.append((None, None))
    return out


problems = st.builds(
    lambda fams, kind, n, sense, seed: (fams, kind, n, sense, seed),
    st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=6),
    st.sampled_from(["simplex", "ball", "box"]),
    st.integers(1, 4),
    st.sampled_from(["min", "max"]),
    st.integers(0, 2**32 - 1),
)


def build(spec):
    fams, kind, n, sense, seed = spec
    rng = np.random.default_rng(seed)
    domain = make_domain(kind, rng, n)
    cons = tuple(make_constraint(f, rng, n) for f in fams)
    return fg.Problem(constraints=cons, domain=domain, params=PARAMS, sense=sense), rng


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problems)
def test_packed_matches_scalar_reference(spec):
    problem, rng = build(spec)
    X = points(problem.domain, rng)
    p = rng.dirichlet(np.ones(problem.m))
    p[rng.random(problem.m) < 0.3] = 0.0
    p = p / p.sum() if p.sum() > 0 else np.full(problem.m, 1.0 / problem.m)
    mix = fg.Mixture(problem, p)
    live = p != 0
    for x in X:
        ref = scalar(problem, x)
        off = [r is None for r, _ in ref]
        for j, (r, g) in enumerate(ref):
            if g is None:
                with pytest.raises(fg.EvaluationDomainError):
                    fg.residual_gradient(problem, j, x)
            else:
                got = fg.residual_gradient(problem, j, x)
                np.testing.assert_allclose(got, g, **TOL)
                f = problem.constraints[j]
                if isinstance(f, fg.LogAffineComposite) and isinstance(f.inner, fg.Affine):
                    # the learner steps along exactly the reference gradient
                    np.testing.assert_array_equal(got, g)
        if any(off):
            for fn in (fg.residuals, fg.residual_gradients):
                with pytest.raises(fg.EvaluationDomainError):
                    fn(problem, x)
            with pytest.raises(fg.EvaluationDomainError):
                fg.mixed_gradient(problem, p, x)
        else:
            r = np.array([r for r, _ in ref])
            G = np.array([g for _, g in ref])
            np.testing.assert_allclose(fg.residuals(problem, x), r, **TOL)
            np.testing.assert_allclose(fg.residual_gradients(problem, x), G, **TOL)
            np.testing.assert_allclose(fg.mixed_gradient(problem, p, x), p @ G, **TOL)
        if any(o and w for o, w in zip(off, live)):
            with pytest.raises(fg.EvaluationDomainError):
                mix.value(x)
        else:
            on = [j for j in range(problem.m) if live[j]]
            value = sum(p[j] * ref[j][0] for j in on)
            grad = sum((p[j] * ref[j][1] for j in on), np.zeros(problem.n))
            assert mix.value(x) == pytest.approx(value, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(mix.gradient(x), grad, **TOL)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problems)
def test_batch_values_match_scalar_reference(spec):
    problem, rng = build(spec)
    X = points(problem.domain, rng)
    p = rng.dirichlet(np.ones(problem.m))
    refs = [scalar(problem, x) for x in X]
    if any(r is None for ref in refs for r, _ in ref):
        with pytest.raises(fg.EvaluationDomainError):
            fg.residuals_batch(problem, X)
        with pytest.raises(fg.EvaluationDomainError):
            fg.Mixture(problem, p).value_batch(X)
        return
    V = np.array([[r for r, _ in ref] for ref in refs])
    np.testing.assert_allclose(fg.residuals_batch(problem, X), V, **TOL)
    np.testing.assert_allclose(fg.Mixture(problem, p).value_batch(X), V @ p, **TOL)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problems, st.floats(0.0, 2.0))
def test_separation_oracle_keeps_the_scalar_rule(spec, eps):
    problem, rng = build(spec)
    for x in points(problem.domain, rng):
        ref = scalar(problem, x)
        assume(all(r is None or abs(r - eps) > 1e-9 for r, _ in ref))
        decisive = next((j for j, (r, _) in enumerate(ref) if r is None or r > eps), None)
        if decisive is None:
            assert fg.separation_oracle(problem, x, eps) is None
        elif ref[decisive][0] is None:
            with pytest.raises(fg.EvaluationDomainError):
                fg.separation_oracle(problem, x, eps)
        else:
            hit = fg.separation_oracle(problem, x, eps)
            assert hit.index == decisive
            assert hit.value == pytest.approx(ref[decisive][0], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("late", [
    fg.NegEntropy(n=2),
    fg.NegLogBarrier(rows=np.array([[0.0, 1.0]]), level=0.0),
    fg.LogAffineComposite(inner=fg.Affine(a=np.array([0.0, -10.0]), b=-10.0), omega=1.0),
    fg.LogAffineComposite(inner=fg.NegEntropy(n=2), omega=1.0),
])
def test_off_domain_constraint_after_a_violated_one(sense, late):
    # x = (1, 0) is off the domain of `late`; constraint 0 is violated at x
    level = 5.0 if sense == "min" else -5.0
    first = fg.Affine(a=np.zeros(2), b=level)
    x = np.array([1.0, 0.0])
    with pytest.raises(fg.EvaluationDomainError) as ref:
        fg.evaluate(late, x)
    own = dict(match=f"^{ref.value}$")  # packed paths raise the reference's message
    ahead = fg.Problem(constraints=(first, late), domain=fg.Simplex(n=2),
                       params=PARAMS, sense=sense)
    hit = fg.separation_oracle(ahead, x, 0.1)
    assert hit.index == 0 and hit.value == pytest.approx(abs(level) + (sense == "max"))
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.residuals(ahead, x)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.residual_gradient(ahead, 1, x)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.residuals_batch(ahead, x[None])
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.Mixture(ahead, np.array([0.5, 0.5])).gradient(x)
    behind = fg.Problem(constraints=(late, first), domain=fg.Simplex(n=2),
                        params=PARAMS, sense=sense)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.separation_oracle(behind, x, 0.1)


def test_pack_is_built_once_and_smoothness_on_first_use():
    problem = fg.make_portfolio_risk(4, 3, seed=1)
    packed = problem.packed
    assert problem.packed is packed
    assert "smoothness" not in vars(packed)
    fg.optimization_oracle(problem, np.full(3, 1.0 / 3), tol=0.01)
    L = [fg.smoothness_bound(f, problem.domain) for f in problem.constraints]
    np.testing.assert_array_equal(packed.smoothness, L)
    assert math.isfinite(fg.Mixture(problem, np.full(3, 1.0 / 3)).smoothness)
