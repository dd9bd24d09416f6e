"""Per-constraint bounds over a domain against sampled values.

The interval, gradient-norm, curvature and smoothness bounds of the packed
groups feed the instance constants that fix every solver's horizon, so each
must contain what the scalar reference gives at sampled domain points, on
all three domain kinds, and a group of many rows must give each row the
bits it gives alone.  The closed-form domain methods are checked against
box corners and simplex vertices, and every domain's points against its own
bounds.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import feasgame as fg
from feasgame.harness import problem_from_doc, problem_to_doc
from conftest import FAMILY_KINDS, fd_hessian, random_constraint, random_domain, row_bounds
from lattice import grid

# entropy and barrier terms are only bounded on domains of positive points
POSITIVE = ("entropy", "barrier")


def domain_points(domain, rng, count=40):
    """Sampled points plus the vertices (simplex) or corners (box)."""
    X = domain.sample(count, seed=int(rng.integers(2**31)))
    if isinstance(domain, (fg.Simplex, fg.Box)):
        return np.vstack([X, corners(domain)])
    return X


def corners(domain):
    """The n vertices of a simplex or the 2^n corners of a box."""
    if isinstance(domain, fg.Simplex):
        return np.eye(domain.n)
    return np.array(list(itertools.product(*zip(domain.lo, domain.hi))))


def slack(v):
    return 1e-9 * (1.0 + abs(v))


cases = st.tuples(st.sampled_from(FAMILY_KINDS), st.sampled_from(["simplex", "ball", "box"]),
                  st.integers(1, 3), st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases)
def test_interval_and_gradient_bound_contain_sampled_values(case):
    family, kind, n, seed = case
    rng = np.random.default_rng(seed)
    domain = random_domain(kind, rng, n, family in POSITIVE)
    f = random_constraint(family, rng, domain)
    G, H, L, lo, hi = row_bounds(f, domain)
    assert fg.smoothness_bound(f, domain) == L
    assert lo <= hi
    checked = 0
    for x in domain_points(domain, rng):
        try:
            v, g = fg.evaluate(f, x), fg.gradient(f, x)
        except fg.EvaluationDomainError:
            continue  # a corner where an entropy or barrier term is singular
        assert lo - slack(lo) <= v <= hi + slack(hi)
        assert np.linalg.norm(g) <= G + slack(G)
        checked += 1
    assert checked > 0
    hessian = fd_hessian(f, domain.start())
    if H > 0:  # 0 claims no strong convexity
        assert np.linalg.eigvalsh(hessian)[0] >= H - 1e-4 * (1.0 + H)
    if np.isfinite(L):
        assert np.linalg.norm(hessian, 2) <= L + 1e-4 * (1.0 + L)


@pytest.mark.parametrize("kind", ["simplex", "ball", "box"])
def test_log_composite_smoothness_bounds_its_hessian(kind):
    rng = np.random.default_rng(11)
    for _ in range(10):
        domain = random_domain(kind, rng, 3)
        f = random_constraint("log_affine", rng, domain)
        L = fg.smoothness_bound(f, domain)
        assert 0 < L < np.inf
        for x in domain_points(domain, rng, count=8):
            assert np.linalg.norm(fd_hessian(f, x), 2) <= L + 1e-4 * (1.0 + L)


def test_log_composite_smoothness_of_an_affine_inner_is_its_rank_one_term():
    # |inner| <= 3.5 <= omega on the simplex, so the log argument stays >= e - 1
    a = np.array([3.0, -4.0])
    f = fg.LogAffineComposite(inner=fg.Affine(a=a, b=0.5), omega=4.0)
    expected = (5.0 / 4.0) ** 2 / (np.e - 1.0) ** 2
    assert fg.smoothness_bound(f, fg.Simplex(n=2)) == pytest.approx(expected, rel=1e-15)


def test_log_composite_bounds_hold_where_the_inner_exceeds_omega():
    # the inner -2 x_0 reaches -2 at the vertex (1, 0), twice omega, where the
    # log argument is e - 2; gradient and Hessian norms peak there
    a = np.array([-2.0, 0.0])
    f = fg.LogAffineComposite(inner=fg.Affine(a=a, b=0.0), omega=1.0)
    domain, vertex = fg.Simplex(n=2), np.array([1.0, 0.0])
    grad_norm = np.linalg.norm(fg.gradient(f, vertex))
    hess_norm = (a @ a) / (np.e - 2.0) ** 2  # |a a^T / (omega arg)^2|
    assert grad_norm == pytest.approx(2.0 / (np.e - 2.0), rel=1e-12)
    assert row_bounds(f, domain).G >= grad_norm * (1 - 1e-12)
    assert fg.smoothness_bound(f, domain) >= hess_norm * (1 - 1e-12)


def test_log_composite_bounds_refuse_a_nonpositive_log_argument():
    # with omega = 1/2 the argument e - 4 x_0 is negative near the vertex (1, 0)
    f = fg.LogAffineComposite(inner=fg.Affine(a=np.array([-2.0, 0.0]), b=0.0), omega=0.5)
    domain = fg.Simplex(n=2)
    with pytest.raises(fg.SetupError, match="log argument"):
        row_bounds(f, domain)
    with pytest.raises(fg.SetupError, match="log argument"):
        fg.smoothness_bound(f, domain)
    with pytest.raises(fg.SetupError, match="log argument"):
        fg.make_problem([f], domain)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["simplex", "ball", "box"]), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_domain_operations_keep_to_the_domain(kind, n, seed):
    rng = np.random.default_rng(seed)
    domain = random_domain(kind, rng, n)
    X = domain.sample(40, seed=seed)
    c = rng.normal(size=n)
    x_min, v_min = domain.linear_minimum(c)
    inside = [domain.start(), domain.project(rng.normal(size=n) * 3.0), x_min, *X]
    if kind == "simplex" and n <= 3:
        inside.extend(grid(domain, 0.1))
    for x in inside:
        assert domain.contains(x)
    lo, hi = domain.bounding_box()
    assert (X >= lo - 1e-12).all() and (X <= hi + 1e-12).all()
    norm, diameter = domain.max_norm(), domain.diameter()
    assert np.linalg.norm(X, axis=1).max() <= norm + slack(norm)
    assert np.linalg.norm(X[:, None] - X[None], axis=2).max() <= diameter + slack(diameter)
    assert (v_min <= X @ c + slack(v_min)).all()


@pytest.mark.parametrize("domain", [fg.Ball(n=2), fg.Box(lo=np.zeros(2), hi=np.ones(2))],
                         ids=["ball", "box"])
def test_only_a_simplex_has_a_grid(domain):
    with pytest.raises(fg.SetupError, match=rf"^a {domain.tag} domain has no grid"):
        grid(domain, 0.1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 1.0, 5.0]))
def test_ball_max_dist_is_exact(n, seed, spread):
    rng = np.random.default_rng(seed)
    ball = random_domain("ball", rng, n)
    z = ball.center + spread * rng.normal(size=n)
    bound = ball.max_dist(z)
    X = ball.sample(200, seed=seed)
    assert np.linalg.norm(X - z, axis=1).max() <= bound + slack(bound)
    # attained where the ray from z through the center leaves the ball; any
    # boundary point when z is the center
    d = ball.center - z
    nrm = np.linalg.norm(d)
    u = d / nrm if nrm > 0 else np.eye(n)[0]
    far = ball.center + ball.radius * u
    assert ball.contains(far)
    assert np.linalg.norm(far - z) == pytest.approx(bound, rel=1e-12)


class TestDomainHelpers:
    """The closed-form domain methods on a box, against its 2^n corners, and
    on a simplex, against its n vertices."""

    @pytest.fixture(params=["simplex", *range(5)])
    def domain(self, request):
        if request.param == "simplex":
            return fg.Simplex(n=3)
        rng = np.random.default_rng(request.param)
        lo = rng.uniform(-2, 1, 3)
        return fg.Box(lo=lo, hi=lo + rng.uniform(0.0, 2.0, 3))

    def test_affine_interval_is_attained_at_corners(self, domain):
        rng = np.random.default_rng(1)
        f = fg.Affine(a=rng.normal(size=3), b=0.25)
        vals = [fg.evaluate(f, x) for x in corners(domain)]
        _, _, _, lo, hi = row_bounds(f, domain)
        assert lo == pytest.approx(min(vals), abs=1e-12)
        assert hi == pytest.approx(max(vals), abs=1e-12)

    def test_max_norm_is_the_farthest_corner(self, domain):
        assert domain.max_norm() == pytest.approx(
            max(np.linalg.norm(x) for x in corners(domain)), rel=1e-15)

    def test_linear_minimum_is_the_best_corner(self, domain):
        c = np.random.default_rng(2).normal(size=3)
        x, v = domain.linear_minimum(c)
        assert domain.contains(x)
        assert v == pytest.approx(float(c @ x), abs=1e-15)
        assert v == pytest.approx(min(float(c @ y) for y in corners(domain)), abs=1e-12)

    def test_diameter_is_the_longest_corner_distance(self, domain):
        C = corners(domain)
        far = max(np.linalg.norm(x - y) for x in C for y in C)
        assert domain.diameter() == pytest.approx(far, rel=1e-15)


# ---------------------------------------------------------------------------
# Quadratic spectra: one stacked eigvalsh per problem, the same constants


def counting_eigvalsh(monkeypatch) -> list:
    calls = []
    real = np.linalg.eigvalsh

    def eigvalsh(A, *args, **kwargs):
        calls.append(A.shape)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return calls


def random_quadratics(n: int, m: int) -> list:
    rng = np.random.default_rng(3)
    quadratics = []
    for _ in range(m):
        M = rng.normal(size=(n, n))
        quadratics.append(fg.Quadratic(A=M + M.T, b=rng.normal(size=n), c=0.5))
    return quadratics


def test_one_eigvalsh_per_quadratic(monkeypatch):
    n, m = 4, 7
    quadratics = random_quadratics(n, m)
    calls = counting_eigvalsh(monkeypatch)
    problem = fg.make_problem(quadratics, fg.Simplex(n=n))  # interval, G, L and H of each
    assert problem.packed.smoothness.shape == (m,)
    assert calls == [(m, n, n)]


def test_a_parsed_document_stacks_its_spectra_once(monkeypatch):
    n, m = 4, 7
    constraints = [fg.Affine(a=np.ones(n), b=-2.0), *random_quadratics(n, m)]
    doc = problem_to_doc(fg.make_problem(constraints, fg.Simplex(n=n)))
    calls = counting_eigvalsh(monkeypatch)
    problem = problem_from_doc(doc)  # estimated, then the document's params laid over
    assert calls == [(m, n, n)]
    x = problem.domain.start()
    claim = fg.Feasible(x=x, residuals=fg.residuals(problem, x))
    assert fg.verify_certificate(problem, claim, eps=1e3).ok
    assert problem.packed.smoothness.shape == (m + 1,)
    assert calls == [(m, n, n)]


@pytest.mark.parametrize("sizes", [(2, 3), (3, 2)])
def test_quadratics_of_different_sizes_are_refused(sizes):
    quadratics = [fg.Quadratic(A=np.eye(k), b=np.ones(k), c=0.0) for k in sizes]
    with pytest.raises(fg.DimensionMismatch,
                       match=rf"^constraint {sizes.index(3)} has dimension 3, domain has 2$"):
        fg.make_problem(quadratics, fg.Simplex(n=2))


@pytest.mark.parametrize("family", sorted(fg.GENERATORS))
def test_cached_spectrum_keeps_the_constants_bits(monkeypatch, family):
    def params():
        return [fg.make_problem_from_spec(fg.GeneratorSpec(family=family, n=n, m=m,
                                                           seed=seed)).params
                for seed in range(6) for n, m in ((3, 2), (10, 20))]

    cached = params()
    # every bound with its own eigvalsh, as each computed it before the cache
    monkeypatch.setattr(fg.Quadratic, "spectrum",
                        property(lambda q: np.linalg.eigvalsh(q.A)))
    fresh = params()
    assert [[float(v).hex() for v in dataclasses.astuple(p)] for p in cached] == \
        [[float(v).hex() for v in dataclasses.astuple(p)] for p in fresh]


# ---------------------------------------------------------------------------
# Stacking keeps bits: a group of k rows gives each row what it gives alone


def fresh(f):
    """A copy of f with nothing cached (no spectrum), so its own bounds are
    computed from scratch."""
    return dataclasses.replace(f)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["affine", "quadratic", "log_affine"]),
       st.sampled_from(["simplex", "ball", "box"]), st.integers(1, 6), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_stacked_bounds_are_each_rows_own_bit_for_bit(family, kind, n, k, seed):
    rng = np.random.default_rng(seed)
    domain = random_domain(kind, rng, n)
    fs = [random_constraint(family, rng, domain) for _ in range(k)]
    stacked = fg.make_problem(fs, domain).packed.bounds
    for j, f in enumerate(fs):
        alone = row_bounds(fresh(f), domain)
        assert [float(v[j]).hex() for v in stacked] == [v.hex() for v in alone]
