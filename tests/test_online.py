"""Learner steps, regret bounds, and measured regret."""

import math

import numpy as np
import pytest

import feasgame as fg
from feasgame.online import MwState, OgdState


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
        assert np.array_equal(s.A_inv, np.eye(3) / 64.0)

    def test_beta_capped_at_half(self):
        dom = fg.Ball(n=2, radius=0.01, center=np.zeros(2))
        s = fg.init_ons(dom, G=0.1, D=0.02)
        assert s.beta == 0.5 * min(1.0, 1.0 / (4 * 0.1 * 0.02))
        assert s.beta == 0.5

    def test_rank_one_update_scalar(self):
        dom = fg.Box(lo=np.array([0.0]), hi=np.array([1.0]))
        s = fg.OnsState(x=np.array([0.5]), t=1, beta=0.25,
                        A=np.array([[1.0]]), A_inv=np.array([[1.0]]), rebuilds=0)
        s2 = fg.ons_step(s, np.array([1.0]), dom)
        assert s2.A[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert s2.A_inv[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_inverse_tracks_matrix(self, rng):
        dom = fg.Ball(n=4, radius=50.0, center=np.zeros(4))
        s = fg.init_ons(dom, G=1.0, D=1.0)
        for _ in range(2000):
            g = rng.normal(size=4)
            g /= max(1.0, np.linalg.norm(g))
            s = fg.ons_step(s, g, dom)
        assert np.max(np.abs(s.A @ s.A_inv - np.eye(4))) <= 1e-6

    @pytest.mark.parametrize("A_inv, rebuilt", [
        ([[1.0, 0.0], [0.0, 1.0]], False),
        ([[1.0 + 1e-5, 0.0], [0.0, 1.0]], True),  # drift on the diagonal
        ([[1.0, 1e-5], [1e-5, 1.0]], True),  # drift off the diagonal
    ])
    def test_drifted_inverse_is_rebuilt(self, A_inv, rebuilt):
        dom = fg.Box(lo=np.zeros(2), hi=np.ones(2))
        s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.25,
                        A=np.eye(2), A_inv=np.array(A_inv), rebuilds=0)
        s2 = fg.ons_step(s, np.zeros(2), dom)
        assert s2.rebuilds == int(rebuilt)
        assert np.array_equal(s2.A_inv, np.eye(2) if rebuilt else np.array(A_inv))

    def test_iterates_stay_in_domain(self, rng):
        dom = fg.Simplex(n=3)
        s = fg.init_ons(dom, G=2.0, D=math.sqrt(2.0))
        for _ in range(50):
            s = fg.ons_step(s, rng.normal(size=3), dom)
            assert abs(np.sum(s.x) - 1.0) <= 1e-6
            assert np.all(s.x >= -1e-9)

    def test_max_sense_steps_ascend(self):
        # on a fixed linear payoff the max-sense learner should move up
        dom = fg.Box(lo=np.array([0.0]), hi=np.array([1.0]))
        s = fg.init_ons(dom, G=1.0, D=1.0)
        start = float(s.x[0])
        for _ in range(60):
            s = fg.ons_step(s, np.array([1.0]), dom, sense="max")
        assert float(s.x[0]) > start


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

    def test_hindsight_minimum_scans_grid(self):
        f = fg.Affine(a=np.array([1.0, -1.0]), b=0.0)
        x, val = fg.hindsight_minimum([f, f], SIMPLEX2)
        assert np.allclose(x, [0.0, 1.0], atol=1e-9)
        assert val == pytest.approx(-2.0, abs=1e-9)
