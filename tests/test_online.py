"""Learner steps, regret bounds, and measured regret."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import feasgame as fg
import feasgame.online as online
from feasgame.online import MwState, OgdState
from feasgame.projections import _simplex_kkt


SIMPLEX2 = fg.Simplex(n=2)


class TestOgd:
    def test_zero_gradient_keeps_iterate(self):
        s = fg.init_ogd(SIMPLEX2, H=1.0)
        s2 = fg.ogd_step(s, np.zeros(2), SIMPLEX2)
        assert np.array_equal(s2.x, s.x)
        assert s2.t == s.t + 1

    def test_step_then_project_midpoint(self):
        # step size 1/(H t); at H=1, t=2 the raw point (0, 0.5) projects back
        # to (0.25, 0.75)
        s = OgdState(x=np.array([0.5, 0.5]), t=2, H=1.0)
        s2 = fg.ogd_step(s, np.array([1.0, 0.0]), SIMPLEX2)
        assert np.allclose(s2.x, [0.25, 0.75], atol=1e-12)

    def test_step_then_project_quarter(self):
        s = OgdState(x=np.array([0.5, 0.5]), t=2, H=2.0)
        s2 = fg.ogd_step(s, np.array([1.0, 0.0]), SIMPLEX2)
        assert np.allclose(s2.x, [0.375, 0.625], atol=1e-12)

    def test_vertex_pushed_outward_projects_back(self):
        s = OgdState(x=np.array([1.0, 0.0]), t=1, H=1.0)
        s2 = fg.ogd_step(s, np.array([0.0, 1.0]), SIMPLEX2)
        assert np.allclose(s2.x, [1.0, 0.0], atol=1e-12)

    def test_requires_positive_curvature(self):
        with pytest.raises(fg.SetupError):
            fg.init_ogd(SIMPLEX2, H=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("domain", [
        fg.Ball(n=2, radius=1.0, center=np.zeros(2)),
        fg.Box(lo=np.zeros(2), hi=np.ones(2)),
    ], ids=["ball", "box"])
    def test_non_finite_gradient_is_refused_by_the_projection(self, domain, bad):
        # a NaN used to leave a NaN iterate on a ball, and [nan, 0] on a box
        with pytest.raises(fg.SetupError, match="projection needs finite input"):
            fg.ogd_step(fg.init_ogd(domain, 1.0), np.array([bad, 0.0]), domain)

    def test_iterates_stay_on_simplex(self, rng):
        s = fg.init_ogd(fg.Simplex(n=4), H=1.0)
        for _ in range(100):
            s = fg.ogd_step(s, rng.normal(size=4), fg.Simplex(n=4))
            assert abs(np.sum(s.x) - 1.0) <= 1e-9
            assert np.all(s.x >= -1e-12)


class TestOns:
    def test_init_constants(self):
        dom = fg.Ball(n=3, radius=0.5, center=np.zeros(3))
        s = fg.init_ons(dom, G=1.0, D=1.0)
        assert s.beta == 0.125
        assert np.array_equal(s.A, 64.0 * np.eye(3))

    def test_beta_capped_at_half(self):
        dom = fg.Ball(n=2, radius=0.01, center=np.zeros(2))
        s = fg.init_ons(dom, G=0.1, D=0.02)
        assert s.beta == 0.5 * min(1.0, 1.0 / (4 * 0.1 * 0.02))
        assert s.beta == 0.5

    def test_rank_one_update_scalar(self):
        dom = fg.Box(lo=np.array([0.0]), hi=np.array([1.0]))
        s = fg.OnsState(x=np.array([0.5]), t=1, beta=0.25, A=np.array([[1.0]]))
        s2 = fg.ons_step(s, np.array([1.0]), dom)
        assert s2.A[0, 0] == pytest.approx(2.0, abs=1e-12)
        # the Newton step x - A^-1 g / beta = 0.5 - 4 leaves the box at 0
        assert s2.x[0] == 0.0
        assert s2.rebuilds == 0

    def test_iterates_stay_in_domain(self, rng):
        dom = fg.Simplex(n=3)
        s = fg.init_ons(dom, G=2.0, D=math.sqrt(2.0))
        for _ in range(50):
            s = fg.ons_step(s, rng.normal(size=3), dom)
            assert abs(np.sum(s.x) - 1.0) <= 1e-6
            assert np.all(s.x >= -1e-9)

    def test_hand_built_indefinite_matrix_is_refused(self):
        # a state built by hand proves nothing about its matrix, so the
        # projection tests it as before
        s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.25, A=np.diag([1.0, -1.0]))
        assert s.spectrum_bounds() is None
        with pytest.raises(fg.SetupError, match="matrix is not positive semidefinite"):
            fg.ons_step(s, np.array([1.0, 0.0]), fg.Simplex(n=2))

    def test_hand_built_singular_matrix_is_refused(self):
        s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.25, A=np.diag([1.0, 0.0]))
        with pytest.raises(fg.SetupError, match="ONS matrix A is singular"):
            fg.ons_step(s, np.array([1.0, 0.0]), fg.Simplex(n=2))
        s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.25, A=np.ones((2, 3)))
        with pytest.raises(fg.DimensionMismatch, match="ONS matrix A must be square"):
            fg.ons_step(s, np.array([1.0, 0.0]), fg.Simplex(n=2))

    @pytest.mark.parametrize("g", [[1.0, 0.0], [3.0, -1.0], [0.0, 1.0]])
    def test_scale_that_contradicts_the_matrix_proves_nothing(self, g):
        # trace(A) = 0 < scale, which no state built from its scale has: the
        # proven bounds used to be (1.0, 8e-323), and the exact solve then
        # died in np.linalg.solve on a singular bordered matrix
        s = fg.OnsState(x=np.array([1.0, 0.0]), t=1, beta=0.5, A=np.diag([1.0, -1.0]),
                        scale=1.0)
        assert s.spectrum_bounds() is None
        assert not s.takes_exact_simplex_solve()
        with pytest.raises(fg.SetupError, match="matrix is not positive semidefinite"):
            fg.ons_step(s, np.array(g), fg.Simplex(n=2))

    def test_singular_bordered_matrix_on_the_exact_route_is_refused(self):
        # trace 5 >= scale 1 proves bounds, yet A is indefinite: the free set
        # {0, 1} borders diag(1, -1), which is singular
        s = fg.OnsState(x=np.array([0.5, 0.5, 0.0]), t=1, beta=0.5,
                        A=np.diag([1.0, -1.0, 5.0]), scale=1.0)
        assert s.takes_exact_simplex_solve()
        with pytest.raises(fg.SetupError, match="ONS matrix A is singular"):
            fg.ons_step(s, np.array([1.0, 0.0, 0.0]), fg.Simplex(n=3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("domain", [
        fg.Simplex(n=2),  # the exact solve from A x - g / beta
        fg.Ball(n=2, radius=1.0, center=np.zeros(2)),  # a linear solve, then descent
        fg.Box(lo=np.zeros(2), hi=np.ones(2)),
    ])
    def test_non_finite_gradient_is_refused(self, domain, bad):
        s = fg.init_ons(domain, G=1.0, D=2.0)
        with pytest.raises(fg.SetupError, match="ONS gradient must be finite"):
            fg.ons_step(s, np.array([0.5, bad]), domain)
        # a state built by hand takes the linear solve on every domain
        hand = fg.OnsState(x=s.x, t=1, beta=s.beta, A=s.A)
        with pytest.raises(fg.SetupError, match="ONS gradient must be finite"):
            fg.ons_step(hand, np.array([0.5, bad]), domain)

    @pytest.mark.parametrize("g_last", [0.1, -0.2], ids=["least", "tie"])
    def test_vertex_with_the_least_gradient_entry_stays(self, monkeypatch, g_last):
        # at a vertex e_f the multipliers are (g_i - g_f) / beta, so the
        # step stays at e_f exactly when g_f is the least entry of g (ties
        # included), and then it solves nothing
        dom = fg.Simplex(n=3)
        s = fg.init_ons(dom, G=1.0, D=math.sqrt(2.0))
        s = fg.OnsState(x=np.array([0.0, 1.0, 0.0]), t=s.t, beta=s.beta, A=s.A, scale=s.scale)
        assert not np.array_equal(fg.ons_step(s, np.array([0.3, 0.2, 0.1]), dom).x, s.x)

        def refused(*args):
            raise AssertionError("a step that stays at a vertex called the KKT solve")

        monkeypatch.setattr(online, "_simplex_kkt", refused)
        x = fg.ons_step(s, np.array([0.3, -0.2, g_last]), dom).x
        assert x.tobytes() == s.x.tobytes() and x is not s.x

    def test_matrix_not_bitwise_symmetric_takes_the_tested_route(self):
        # a scale > 0 proves bounds, but a matrix symmetric only within
        # 1e-12 still goes through the linear solve and generalized_project,
        # whose descent it gets bit for bit
        A = np.array([[2.0, 0.5], [0.5 * (1 + 2.0**-50), 1.0]])
        s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.25, A=A, scale=0.5)
        assert s.spectrum_bounds() is not None
        assert not s.takes_exact_simplex_solve()
        g = np.array([0.3, 0.1])  # an interior answer, where the routes' bits differ
        y = s.x - np.linalg.solve(A, g) / s.beta
        expected = fg.generalized_project(y, A, fg.Simplex(n=2), x0=s.x)
        assert np.array_equal(fg.ons_step(s, g, fg.Simplex(n=2)).x, expected)

    @pytest.mark.parametrize("top, exact", [(1e3, True), (1e5, False)])
    def test_proven_condition_number_picks_the_route(self, top, exact):
        # proven bounds about 1e-6 and top: a ratio beyond
        # online.MAX_CONDITION = 1e10 leaves the matrix to generalized_project
        A = np.diag([1e-6, top])
        s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.25, A=A, scale=1e-6)
        assert s.spectrum_bounds() is not None
        assert s.takes_exact_simplex_solve() == exact

    def test_negative_gradient_steps_ascend(self):
        # on a fixed linear cost that falls to the right the learner moves up
        dom = fg.Box(lo=np.array([0.0]), hi=np.array([1.0]))
        s = fg.init_ons(dom, G=1.0, D=1.0)
        start = float(s.x[0])
        for _ in range(60):
            s = fg.ons_step(s, np.array([-1.0]), dom)
        assert float(s.x[0]) > start


@st.composite
def ons_stream(draw):
    """Dimension, gradient bound G, round count and a seed for the gradients;
    a near-parallel stream perturbs one direction by a relative 1e-9."""
    return (draw(st.integers(2, 12)), draw(st.floats(1e-3, 1e3)), draw(st.integers(100, 300)),
            draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


def assert_ons_step_kkt(x, y, A):
    """x is the A-norm projection of the Newton point y on the simplex:
    x >= 0, sum x = 1, and A(x - y) + nu 1 - mu = 0 with mu >= 0 zero on the
    support, to a relative 1e-9 of the size of A(x - y)."""
    tol = 1e-9 * float(abs(A).max()) * (1.0 + float(abs(y).max()))
    assert (x >= 0).all()
    assert abs(float(x.sum()) - 1.0) <= 1e-9
    g = A @ (x - y)
    support = x > 0
    nu = -float(g[support].mean())
    assert np.all(abs(g[support] + nu) <= tol)
    assert np.all(g[~support] + nu >= -tol)


@settings(max_examples=40, deadline=None)
@given(ons_stream())
def test_ons_matrix_bounds_hold_along_a_stream(stream):
    # along the stream A stays symmetric bit for bit, the bounds its state
    # proves bracket its eigenvalues, and each step, which never forms the
    # Newton point, is the A-norm projection of it
    n, G, rounds, seed, parallel = stream
    rng = np.random.default_rng(seed)
    dom = fg.Simplex(n=n)
    s = fg.init_ons(dom, G=G, D=math.sqrt(2.0))
    base = rng.normal(size=n)
    for _ in range(rounds):
        g = base + 1e-9 * rng.normal(size=n) if parallel else rng.normal(size=n)
        g *= G * rng.uniform() / np.linalg.norm(g)
        bounds = s.spectrum_bounds()
        assert bounds is not None
        assert (s.A == s.A.T).all()
        ev = np.linalg.eigvalsh(s.A)
        assert bounds[0] <= ev[0] and ev[-1] <= bounds[1]
        assert s.takes_exact_simplex_solve()
        y = s.x - np.linalg.solve(s.A, g) / s.beta
        A = s.A
        s = fg.ons_step(s, g, dom)
        assert_ons_step_kkt(s.x, y, A)


@st.composite
def ons_vertex_step(draw):
    """An ONS state of init_ons plus some steps, moved to a vertex e_f (its
    other entries zeros of either sign), and a gradient with the entries of
    a set of coordinates tied to g_f: "exact" equal, "near" within
    1e-13 max|g|, that is 1e-13 max|h| for h = -g / beta."""
    n = draw(st.integers(2, 12))
    G = draw(st.floats(1e-3, 1e3))
    steps = draw(st.integers(0, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    f = draw(st.integers(0, n - 1))
    ties = draw(st.sampled_from(["none", "exact", "near"]))
    least = draw(st.booleans())  # g_f the least entry of g before the ties
    negative_zeros = draw(st.booleans())
    return n, G, steps, seed, f, ties, least, negative_zeros


@settings(max_examples=200, deadline=None)
@given(ons_vertex_step())
def test_ons_step_from_a_vertex_is_the_exact_solve(case):
    n, G, steps, seed, f, ties, least, negative_zeros = case
    rng = np.random.default_rng(seed)
    dom = fg.Simplex(n=n)
    s = fg.init_ons(dom, G=G, D=math.sqrt(2.0))
    for _ in range(steps):
        g = rng.normal(size=n)
        s = fg.ons_step(s, G * rng.uniform() * g / np.linalg.norm(g), dom)
    x = np.full(n, -0.0 if negative_zeros else 0.0)
    x[f] = 1.0
    s = fg.OnsState(x=x, t=s.t, beta=s.beta, A=s.A, scale=s.scale)
    assert s.takes_exact_simplex_solve()
    g = G * rng.uniform(-1.0, 1.0, size=n)
    if least:
        g[f] = g.min() - G * rng.uniform()
    tied = rng.random(n) < 0.5
    if ties == "exact":
        g[tied] = g[f]
    elif ties == "near":
        g[tied] = g[f] + 1e-13 * float(abs(g).max()) * rng.uniform(-1.0, 1.0, int(tied.sum()))
    expected = _simplex_kkt(s.A, s.x, (-1.0 / s.beta) * g, s.x)
    assert fg.ons_step(s, g, dom).x.tobytes() == expected.tobytes()


class TestMw:
    def test_downweights_hit_coordinate(self):
        s = MwState(w=np.array([1.0, 1.0]), t=1, eta=0.5, G_inf=1.0, direction="min")
        s2 = fg.mw_step(s, np.array([1.0, 0.0]))
        assert np.allclose(s2.w, [0.5, 1.0], atol=1e-15)
        assert np.allclose(fg.mw_point(s2), [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_max_direction_upweights(self):
        s = fg.init_mw(2, eta=0.5, G_inf=1.0, direction="max")
        s2 = fg.mw_step(s, np.array([1.0, 0.0]))
        assert s2.w[0] > s2.w[1]

    def test_learning_rate_at_half_allowed_above_rejected(self):
        fg.init_mw(2, eta=0.5, G_inf=1.0)
        with pytest.raises(fg.SetupError):
            fg.init_mw(2, eta=0.51, G_inf=1.0)

    def test_zero_gradient_keeps_weights(self):
        s = fg.init_mw(3, eta=0.25, G_inf=1.0)
        s2 = fg.mw_step(s, np.zeros(3))
        assert np.array_equal(s2.w, s.w)

    def test_scale_grows_with_observed_gradient(self):
        s = fg.init_mw(2, eta=0.25, G_inf=1.0)
        s2 = fg.mw_step(s, np.array([4.0, 0.0]))
        assert s2.G_inf == 4.0
        assert np.all(s2.w > 0)

    def test_point_is_distribution(self, rng):
        s = fg.init_mw(5, eta=0.3, G_inf=1.0)
        for _ in range(200):
            s = fg.mw_step(s, rng.normal(size=5))
            p = fg.mw_point(s)
            assert abs(np.sum(p) - 1.0) <= 1e-9
            assert np.all(p > 0)

    @pytest.mark.parametrize("direction", ["min", "max"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_finite_gradient_is_refused(self, direction, bad, at):
        # a NaN used to leave a NaN weight, and every played weight NaN
        s = fg.init_mw(3, eta=0.1, G_inf=1.0, direction=direction)
        g = [0.5, -0.2, 0.1]
        g[at] = bad
        with pytest.raises(fg.SetupError, match="MW gradient must be finite"):
            fg.mw_step(s, g)

    def test_long_horizon_does_not_underflow(self):
        s = fg.init_mw(2, eta=0.5, G_inf=1.0)
        for _ in range(5000):
            s = fg.mw_step(s, np.array([1.0, 0.0]))
        p = fg.mw_point(s)
        assert np.all(np.isfinite(p)) and abs(np.sum(p) - 1.0) <= 1e-9


class TestRegretBounds:
    def test_ogd_log_bound(self):
        assert fg.regret_bound(fg.ogd_bound_spec(G=1.0, H=1.0), 1) == math.log(2.0)

    def test_mw_sqrt_bound(self):
        val = fg.regret_bound(fg.mw_bound_spec(G_inf=1.0, n=2), 100)
        assert val == pytest.approx(16.651, abs=1e-3)
        assert val == 2.0 * math.sqrt(100 * math.log(2.0))

    def test_single_expert_mw_is_free(self):
        assert fg.regret_bound(fg.mw_bound_spec(G_inf=5.0, n=1), 1000) == 0.0

    def test_ons_shape(self):
        spec = fg.ons_bound_spec(G=1.0, D=1.0, alpha=1.0, n=3)
        assert fg.regret_bound(spec, 10) == pytest.approx(5 * (1.0 + 1.0) * 3 * math.log(11), rel=1e-12)

    def test_doubling_never_shrinks(self):
        specs = [fg.ogd_bound_spec(2.0, 0.5), fg.mw_bound_spec(1.5, 4),
                 fg.ons_bound_spec(1.0, 2.0, 0.3, 5)]
        for spec in specs:
            for T in (1, 3, 10, 77, 1024):
                assert fg.regret_bound(spec, 2 * T) >= fg.regret_bound(spec, T)


class TestMeasuredRegret:
    def test_constant_optimum_play_has_zero_regret(self):
        f = fg.Affine(a=np.array([1.0, -1.0]), b=0.0)
        plays = [np.array([0.0, 1.0])] * 5
        r = fg.measured_regret([f] * 5, plays, SIMPLEX2)
        assert r == pytest.approx(0.0, abs=1e-9)

    def test_single_round_quadratic(self):
        f = fg.Quadratic(A=np.eye(2), b=np.zeros(2), c=0.0)
        r = fg.measured_regret([f], [np.array([1.0, 0.0])], SIMPLEX2)
        assert r == pytest.approx(0.5, abs=2e-3)

    def test_nonnegative_on_random_streams(self, rng):
        for _ in range(5):
            costs = [fg.Affine(a=rng.normal(size=2), b=0.0) for _ in range(8)]
            plays = [rng.dirichlet(np.ones(2)) for _ in range(8)]
            assert fg.measured_regret(costs, plays, SIMPLEX2) >= -1e-9

    def test_hindsight_minimum_of_affine_costs(self):
        f = fg.Affine(a=np.array([1.0, -1.0]), b=0.0)
        x, val = fg.hindsight_minimum([f, f], SIMPLEX2)
        assert np.allclose(x, [0.0, 1.0], atol=1e-9)
        assert val == pytest.approx(-2.0, abs=1e-9)

    def test_hindsight_minimum_without_closed_form_is_exact(self):
        # sum x_i log x_i over [0.1, 1]^2 is least at x = (1/e, 1/e), where
        # it is -2/e; the descent reaches it to rounding at n = 2, which a
        # grid of spacing 1e-3 misses by about 4e-8
        box = fg.Box(lo=np.array([0.1, 0.1]), hi=np.ones(2))
        x, val = fg.hindsight_minimum([fg.NegEntropy(n=2)], box)
        assert abs(val + 2.0 / math.e) <= 1e-12
        np.testing.assert_allclose(x, np.full(2, 1.0 / math.e), atol=1e-6)
