"""Euclidean and matrix-norm projections onto the three domains."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import feasgame as fg


def grid_argmin(domain, y, resolution=1e-3):
    """Brute-force nearest grid point, the independent oracle for projections."""
    pts = fg.domain_grid(domain, resolution)
    d2 = np.sum((pts - y) ** 2, axis=1)
    return pts[int(np.argmin(d2))]


class TestSimplex:
    def test_fixed_point_on_simplex(self):
        y = np.array([0.2, 0.3, 0.5])
        assert np.array_equal(fg.project_simplex(y), y)

    def test_constant_vector_goes_to_uniform(self):
        for c in (-3.0, 0.0, 7.5):
            x = fg.project_simplex(np.full(4, c))
            assert np.allclose(x, 0.25, atol=1e-12)

    def test_two_dim_shift(self):
        x = fg.project_simplex(np.array([0.9, 0.5]))
        assert np.allclose(x, [0.7, 0.3], atol=1e-12)
        assert fg.simplex_threshold(np.array([0.9, 0.5])) == pytest.approx(0.2, abs=1e-12)

    def test_threshold_identity(self, rng):
        for _ in range(200):
            y = rng.normal(size=rng.integers(1, 7)) * rng.uniform(0.1, 10)
            a = fg.simplex_threshold(y)
            assert abs(np.sum(np.maximum(y - a, 0.0)) - 1.0) <= 1e-12

    def test_matches_grid_small_dims(self, rng):
        for n in (2, 3):
            for _ in range(25):
                y = rng.normal(size=n) * 2.0
                x = fg.project_simplex(y)
                g = grid_argmin(fg.Simplex(n=n), y)
                assert np.linalg.norm(x - g) <= 2e-3
                assert np.sum((x - y) ** 2) <= np.sum((g - y) ** 2) + 1e-12

    def test_idempotent(self, rng):
        for _ in range(100):
            y = rng.normal(size=5) * 3.0
            x = fg.project_simplex(y)
            assert np.linalg.norm(fg.project_simplex(x) - x) <= 1e-10

    def test_nonexpansive(self, rng):
        for _ in range(100):
            y1, y2 = rng.normal(size=4), rng.normal(size=4)
            d = np.linalg.norm(fg.project_simplex(y1) - fg.project_simplex(y2))
            assert d <= np.linalg.norm(y1 - y2) + 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("y", [[np.nan, 0.0], [np.inf, 0.0], [0.0, np.inf], [np.nan]])
    def test_non_finite_input_is_a_setup_error(self, y):
        with pytest.raises(fg.SetupError, match="finite"):
            fg.project_simplex(np.array(y))
        with pytest.raises(fg.SetupError, match="finite"):
            fg.simplex_threshold(np.array(y))

    def test_no_feasible_direction_improves(self, rng):
        # moving from the projection toward any other simplex point cannot
        # bring us closer to y
        for _ in range(100):
            y = rng.normal(size=4) * 2.0
            x = fg.project_simplex(y)
            z = rng.dirichlet(np.ones(4))
            step = x + 1e-4 * (z - x)
            assert np.sum((step - y) ** 2) >= np.sum((x - y) ** 2) - 1e-12


class TestBall:
    def test_interior_unchanged(self):
        y = np.array([0.5, 0.0])
        assert np.array_equal(fg.project_ball(y, 1.0), y)

    def test_boundary_scaling(self):
        assert np.allclose(fg.project_ball(np.array([2.0, 0.0]), 1.0), [1.0, 0.0], atol=1e-15)
        assert np.allclose(fg.project_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], atol=1e-12)

    def test_shifted_center(self):
        c = np.array([1.0, 1.0])
        x = fg.project_ball(np.array([3.0, 1.0]), 0.5, center=c)
        assert np.allclose(x, [1.5, 1.0], atol=1e-12)

    def test_nonexpansive(self, rng):
        for _ in range(100):
            y1, y2 = rng.normal(size=3) * 3, rng.normal(size=3) * 3
            d = np.linalg.norm(fg.project_ball(y1, 1.0) - fg.project_ball(y2, 1.0))
            assert d <= np.linalg.norm(y1 - y2) + 1e-12


class TestBox:
    def test_clamps_componentwise(self):
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        assert np.array_equal(fg.project_box(np.array([2.0, -3.0]), lo, hi), [1.0, -1.0])
        assert np.array_equal(fg.project_box(np.array([0.5, 0.0]), lo, hi), [0.5, 0.0])

    def test_nonexpansive(self, rng):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        for _ in range(100):
            y1, y2 = rng.normal(size=2) * 3, rng.normal(size=2) * 3
            d = np.linalg.norm(fg.project_box(y1, lo, hi) - fg.project_box(y2, lo, hi))
            assert d <= np.linalg.norm(y1 - y2) + 1e-12


class TestGeneralized:
    def test_identity_matrix_agrees_with_euclidean(self, rng):
        for _ in range(30):
            y = rng.normal(size=3) * 2.0
            x = fg.generalized_project(y, np.eye(3), fg.Simplex(n=3))
            assert np.linalg.norm(x - fg.project_simplex(y)) <= 1e-8

    def test_domain_point_is_fixed(self, rng):
        y = rng.dirichlet(np.ones(3))
        x = fg.generalized_project(y, np.diag([4.0, 1.0, 2.0]), fg.Simplex(n=3))
        assert np.array_equal(x, y)

    def test_weighted_pull_toward_heavy_coordinate(self):
        x = fg.generalized_project(np.array([1.5, 0.5]), np.diag([4.0, 1.0]), fg.Simplex(n=2))
        assert np.allclose(x, [1.0, 0.0], atol=1e-6)

    def test_matches_line_search_oracle(self, rng):
        # on Simplex(2) the feasible set is the segment (t, 1-t); scan it
        for _ in range(10):
            y = rng.normal(size=2) * 2.0
            M = rng.normal(size=(2, 2))
            A = M @ M.T + 0.1 * np.eye(2)
            x = fg.generalized_project(y, A, fg.Simplex(n=2))
            ts = np.linspace(0.0, 1.0, 2001)
            pts = np.stack([ts, 1.0 - ts], axis=1)
            diffs = pts - y
            objs = np.einsum("ij,jk,ik->i", diffs, A, diffs)
            best = pts[int(np.argmin(objs))]
            d = x - y
            assert float(d @ A @ d) <= float(np.min(objs)) + 1e-6
            assert np.linalg.norm(x - best) <= 2e-3

    def test_degenerate_matrix_returns_a_minimizer(self):
        x = fg.generalized_project(np.array([2.0, -1.0]), np.zeros((2, 2)), fg.Simplex(n=2))
        assert fg.domain_contains(fg.Simplex(n=2), x)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9])
    def test_scaled_down_matrix_is_not_taken_for_a_multiple_of_identity(self, scale):
        # every entry of 1e-9 * B is below allclose's absolute 1e-8, yet B is
        # far from a multiple of I; with tol scaled alike the answer must not move
        B = np.array([[1.0, -0.437, 0.733], [-0.437, 1.0, -0.738], [0.733, -0.738, 1.0]])
        y = np.array([-0.551, 2.588, 2.013])
        x = fg.generalized_project(y, scale * B, fg.Simplex(n=3), tol=1e-9 * scale)
        assert np.allclose(x, [0.0, 0.97296307, 0.02703693], atol=1e-6)

    def test_psd_matrix_carries_extreme_eigenvalues(self):
        psd = fg.PsdMatrix.check(np.diag([3.0, 0.5, 2.0]))
        assert (psd.lam_min, psd.lam_max) == pytest.approx((0.5, 3.0), abs=1e-14)

    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(fg.SetupError):
            fg.generalized_project(np.array([1.0, 0.0]), np.array([[1.0, 0.5], [0.0, 1.0]]), fg.Simplex(n=2))
        with pytest.raises(fg.SetupError):
            fg.generalized_project(np.array([1.0, 0.0]), np.diag([1.0, -1.0]), fg.Simplex(n=2))


# ---------------------------------------------------------------------------
# Bit identity of generalized_project against the original formulation: two
# matrix-vector products per descent step, np.allclose for the multiple-of-I
# test and the np.sort/np.cumsum/np.nonzero simplex projection.


def _reference_simplex(y):
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    cand = (css - 1.0) / np.arange(1, y.size + 1)
    rho = int(np.nonzero(u - cand > 0)[0][-1])
    return np.maximum(y - float(cand[rho]), 0.0)


def _reference_project_domain(domain, y):
    if isinstance(domain, fg.Simplex):
        return _reference_simplex(y)
    return fg.project_domain(domain, y)


def reference_generalized_project(y, A, domain, tol=1e-9, max_iters=100_000, x0=None):
    M = np.asarray(A, float)
    lam_max = float(np.linalg.eigvalsh(M)[-1])
    if fg.domain_contains(domain, y):
        return y.copy()
    diag = np.diagonal(M)
    if np.allclose(M, np.diag(diag)) and np.ptp(diag) <= 1e-12 * (1.0 + abs(float(diag[0]))):
        return _reference_project_domain(domain, y)
    if lam_max <= 1e-12:
        return _reference_project_domain(domain, y)

    def obj(x):
        d = x - y
        return float(d @ (M @ d))

    x = _reference_project_domain(domain, y) if x0 is None else np.asarray(x0, float)
    fx = obj(x)
    step = 1.0 / lam_max
    for _ in range(max_iters):
        g = M @ (x - y)
        x_new = _reference_project_domain(domain, x - step * g)
        f_new = obj(x_new)
        if fx - f_new < tol * 1e-2:
            return x_new if f_new <= fx else x
        x, fx = x_new, f_new
    raise AssertionError("reference projection did not converge")


def _vector(n, bound):
    return st.lists(st.floats(-bound, bound, allow_nan=False), min_size=n, max_size=n).map(np.array)


@st.composite
def ons_projection_case(draw):
    """A point, an ONS-shaped matrix c I + sum g g^T (|g| >= 1e-3), a domain
    of each kind and an optional warm start inside it."""
    n = draw(st.integers(2, 6))
    A = draw(st.floats(0.1, 100.0)) * np.eye(n)
    for _ in range(draw(st.integers(1, 4))):
        u = draw(_vector(n, 1.0))
        u[draw(st.integers(0, n - 1))] = 1.0  # a nonzero direction
        g = draw(st.floats(1e-3, 3.0)) * u / np.linalg.norm(u)
        A = A + np.outer(g, g)
    kind = draw(st.sampled_from(["simplex", "ball", "box"]))
    if kind == "simplex":
        domain = fg.Simplex(n=n)
    elif kind == "ball":
        domain = fg.Ball(n=n, radius=draw(st.floats(0.1, 3.0)), center=draw(_vector(n, 1.0)))
    else:
        lo = draw(_vector(n, 1.0))
        domain = fg.Box(lo=lo, hi=lo + np.abs(draw(_vector(n, 2.0))))
    y = draw(_vector(n, 5.0))
    x0 = fg.project_domain(domain, draw(_vector(n, 5.0))) if draw(st.booleans()) else None
    return y, A, domain, x0


@settings(max_examples=300, deadline=None)
@given(ons_projection_case())
def test_generalized_project_is_bit_identical_to_reference(case):
    y, A, domain, x0 = case
    new = fg.generalized_project(y, A, domain, x0=x0)
    assert np.array_equal(new, reference_generalized_project(y, A, domain, x0=x0))


def test_project_domain_dispatch():
    assert np.allclose(fg.project_domain(fg.Simplex(n=2), np.array([0.9, 0.5])), [0.7, 0.3])
    ball = fg.Ball(n=2, radius=1.0, center=np.zeros(2))
    assert np.allclose(fg.project_domain(ball, np.array([3.0, 4.0])), [0.6, 0.8])
    box = fg.Box(lo=np.array([0.0]), hi=np.array([1.0]))
    assert np.array_equal(fg.project_domain(box, np.array([1.5])), [1.0])
