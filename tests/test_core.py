"""Constraint evaluation, gradients, game losses, oracles, and estimates."""

import math

import numpy as np
import pytest

import feasgame as fg
from conftest import constant_problem, family_samples, fd_gradient, interior_simplex


class TestEvaluate:
    def test_affine(self):
        f = fg.Affine(a=np.array([1.0, 0.0]), b=0.0)
        assert fg.evaluate(f, np.array([0.3, 0.7])) == pytest.approx(0.3, abs=1e-15)

    def test_quadratic_identity_at_vertex(self):
        f = fg.Quadratic(A=np.eye(2), b=np.zeros(2), c=0.0)
        assert fg.evaluate(f, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)

    def test_neg_entropy_uniform(self):
        f = fg.NegEntropy(n=2, shift=0.0)
        val = fg.evaluate(f, np.array([0.5, 0.5]))
        assert val == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_neg_entropy_needs_positive_coordinates(self):
        f = fg.NegEntropy(n=2, shift=0.0)
        with pytest.raises(fg.EvaluationDomainError):
            fg.evaluate(f, np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        f = fg.Affine(a=np.array([1.0, 0.0]), b=0.0)
        with pytest.raises(fg.DimensionMismatch):
            fg.evaluate(f, np.array([1.0, 0.0, 0.0]))


class TestGradient:
    def test_affine_gradient_is_coefficient(self):
        a = np.array([2.0, -3.0])
        g = fg.gradient(fg.Affine(a=a, b=1.0), np.array([0.5, 0.5]))
        assert np.array_equal(g, a)

    def test_quadratic_identity(self):
        f = fg.Quadratic(A=np.eye(2), b=np.zeros(2), c=0.0)
        g = fg.gradient(f, np.array([0.2, 0.8]))
        assert np.allclose(g, [0.4, 1.6], atol=1e-15)

    def test_log_composite_at_vertex(self):
        inner = fg.Affine(a=np.array([1.0, 0.0]), b=0.0)
        f = fg.LogAffineComposite(inner=inner, omega=1.0)
        g = fg.gradient(f, np.array([0.0, 1.0]))
        # the gradient of 1 - log(e + x_1) at x_1 = 0
        assert np.allclose(g, [-1.0 / math.e, 0.0], atol=1e-12)

    def test_matches_finite_differences_all_families(self, rng):
        for n in (2, 3, 5):
            for f in family_samples(rng, n):
                for x in interior_simplex(rng, n, 25):
                    g = fg.gradient(f, x)
                    ref = fd_gradient(f, x)
                    assert np.linalg.norm(g - ref) <= 1e-5 * (1.0 + np.linalg.norm(g))


class TestGameLoss:
    def test_point_mass_recovers_constraint_exactly(self, rng):
        prob = fg.make_problem(
            [fg.Affine(a=rng.normal(size=3), b=0.2) for _ in range(4)],
            fg.Simplex(n=3),
        )
        x = interior_simplex(rng, 3, 1)[0]
        for j in range(4):
            p = np.zeros(4)
            p[j] = 1.0
            assert fg.game_loss(prob, x, p) == fg.evaluate(prob.constraints[j], x)

    def test_balanced_constants_cancel(self):
        prob = constant_problem([1.0, -1.0])
        assert fg.game_loss(prob, np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_two_affine_mixture(self):
        prob = fg.make_problem(
            [fg.Affine(a=np.array([1.0, 0.0]), b=0.0),
             fg.Affine(a=np.array([0.0, 1.0]), b=0.0)],
            fg.Simplex(n=2),
        )
        val = fg.game_loss(prob, np.array([0.3, 0.7]), np.array([0.25, 0.75]))
        assert val == pytest.approx(0.6, abs=1e-12)

    def test_mixture_matches_direct_sum(self, rng):
        prob = fg.make_problem(
            [fg.Affine(a=rng.normal(size=2), b=float(rng.normal())) for _ in range(5)],
            fg.Simplex(n=2),
        )
        for x in interior_simplex(rng, 2, 10):
            p = rng.dirichlet(np.ones(5))
            direct = sum(p[j] * fg.evaluate(prob.constraints[j], x) for j in range(5))
            assert fg.game_loss(prob, x, p) == pytest.approx(direct, abs=1e-12)

    def test_rejects_bad_distribution(self):
        prob = constant_problem([0.0, 0.0])
        with pytest.raises(fg.InvalidDistribution):
            fg.game_loss(prob, np.array([0.5, 0.5]), np.array([0.7, 0.7]))
        with pytest.raises(fg.InvalidDistribution):
            fg.game_loss(prob, np.array([0.5, 0.5]), np.array([-0.5, 1.5]))


class TestSeparationOracle:
    def test_all_satisfied_is_fail(self):
        prob = constant_problem([-0.5, 0.0])
        assert fg.separation_oracle(prob, np.array([0.5, 0.5]), 0.0) is None

    def test_returns_violated_index_and_value(self):
        prob = constant_problem([0.05, 0.2])
        hit = fg.separation_oracle(prob, np.array([0.5, 0.5]), 0.1)
        assert hit == fg.Violation(index=1, value=0.2)

    def test_lowest_index_wins(self):
        prob = constant_problem([0.2, 0.3])
        hit = fg.separation_oracle(prob, np.array([0.5, 0.5]), 0.1)
        assert hit.index == 0
        assert hit.value == pytest.approx(0.2, abs=1e-15)

    def test_negative_eps_rejected(self):
        prob = constant_problem([0.0])
        with pytest.raises(fg.SetupError):
            fg.separation_oracle(prob, np.array([0.5, 0.5]), -0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        # at the start point the worst residual is 0.271; a NaN eps used to
        # answer FAIL there, that is "x is eps-feasible"
        prob = fg.make_perceptron_lp(10, 20, feasible=False, seed=0)
        x = prob.domain.start()
        assert fg.separation_oracle(prob, x, 0.0).index == 0
        with pytest.raises(fg.SetupError, match=r"eps must be nonnegative and finite"):
            fg.separation_oracle(prob, x, eps)

    def test_no_fail_at_a_nan_point(self):
        # every residual is NaN there, and a NaN exceeds no eps
        prob = fg.make_perceptron_lp(10, 20, feasible=False, seed=0)
        with pytest.raises(fg.SetupError, match=r"x must be finite"):
            fg.separation_oracle(prob, np.full(10, math.nan), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_no_fail_at_a_non_finite_point(self, bad):
        # the one constraint is met at (0.5, 0.5); its second coefficient is 0,
        # and 0 times a NaN or an infinity is a NaN, which exceeds no eps
        prob = fg.make_problem([fg.Affine(a=np.array([1.0, 0.0]), b=-1.0)],
                               fg.Box(lo=np.zeros(2), hi=np.ones(2)))
        assert fg.separation_oracle(prob, np.array([0.5, 0.5]), 0.1) is None
        with pytest.raises(fg.SetupError, match=r"x must be finite"):
            fg.separation_oracle(prob, np.array([0.5, bad]), 0.1)

    def test_a_violation_at_a_non_finite_point_is_still_named(self):
        prob = fg.make_problem([fg.Affine(a=np.array([1.0, 0.0]), b=0.0)],
                               fg.Box(lo=np.zeros(2), hi=np.ones(2)))
        hit = fg.separation_oracle(prob, np.array([math.inf, 0.0]), 0.1)
        assert (hit.index, hit.value) == (0, math.inf)

    def test_fail_iff_worst_residual_below_eps(self, rng):
        prob = fg.make_problem(
            [fg.Affine(a=rng.normal(size=2), b=float(rng.normal())) for _ in range(6)],
            fg.Simplex(n=2),
        )
        for x in interior_simplex(rng, 2, 50):
            worst = max(fg.residuals(prob, x))
            hit = fg.separation_oracle(prob, x, 0.1)
            assert (hit is None) == (worst <= 0.1)
            if hit is not None:
                assert hit.value > 0.1


class TestOptimizationOracle:
    def test_affine_vertex_minimum(self):
        prob = fg.make_problem([fg.Affine(a=np.array([-1.0, 1.0]), b=0.0)], fg.Simplex(n=2))
        x = fg.optimization_oracle(prob, np.array([1.0]), tol=0.05)
        assert np.allclose(x, [1.0, 0.0], atol=1e-12)
        assert fg.game_loss(prob, x, np.array([1.0])) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_vertex_matches_full_scan(self, rng):
        for _ in range(20):
            cons = [fg.Affine(a=rng.normal(size=4), b=float(rng.normal())) for _ in range(3)]
            prob = fg.make_problem(cons, fg.Simplex(n=4))
            p = rng.dirichlet(np.ones(3))
            combined = sum(p[j] * cons[j].a for j in range(3))
            offset = sum(p[j] * cons[j].b for j in range(3))
            best = min(combined[i] + offset for i in range(4))
            x = fg.optimization_oracle(prob, p, tol=1e-6)
            if best > 0:
                assert x is None
            else:
                assert fg.game_loss(prob, x, p) == pytest.approx(best, abs=1e-12)

    def test_positive_minimum_is_fail(self):
        prob = fg.make_problem([fg.NormDistSq(center=np.zeros(2), c=0.0)], fg.Simplex(n=2))
        assert fg.optimization_oracle(prob, np.array([1.0]), tol=0.05) is None

    def test_satisfiable_returns_domain_point(self):
        prob = constant_problem([-1.0])
        x = fg.optimization_oracle(prob, np.array([1.0]), tol=0.05)
        assert prob.domain.contains(x)
        assert fg.game_loss(prob, x, np.array([1.0])) <= 0.0

    def test_smooth_fail_certified_beyond_tol(self, rng):
        # min over the simplex of ||x - c||^2 with far-away center stays > tol
        prob = fg.make_problem(
            [fg.NormDistSq(center=np.array([3.0, 3.0]), c=0.0)], fg.Simplex(n=2)
        )
        assert fg.optimization_oracle(prob, np.array([1.0]), tol=0.05) is None


class TestMinimizeOverDomain:
    def test_trial_points_off_the_objective_domain_are_rejected_steps(self):
        # 10 sum x log x is defined for x > 0 only; the first trial step
        # from the box center lands on the face x = -0.5
        f = fg.NegEntropy(n=2)

        def fn(x):
            return 10.0 * f.value(x), 10.0 * f.gradient(x)

        res = fg.minimize_over_domain(fn, fg.Box(lo=np.full(2, -0.5), hi=np.full(2, 1.5)))
        assert res.converged
        np.testing.assert_allclose(res.x, np.full(2, 1.0 / math.e), atol=1e-4)
        assert res.lower_bound <= -20.0 / math.e <= res.value <= res.lower_bound + 1e-9

    def test_stalled_line_search_stops_unconverged(self):
        # without its smoothness, at tol 0, the line search stops decreasing
        # f before the certified gap closes; the step used to halve to 0.0
        # and divide by zero
        prob = fg.make_strict_qp(10, 20, feasible=False, seed=0)
        mix = fg.Mixture(prob, np.eye(20)[0])
        res = fg.minimize_over_domain(mix.value_and_gradient, prob.domain, tol=0.0)
        assert not res.converged
        assert res.iterations < 1000
        assert 1.56 < res.lower_bound <= res.value < res.lower_bound + 1e-8


class TestEstimates:
    def test_affine_gradient_norm(self):
        prob = fg.make_problem([fg.Affine(a=np.array([3.0, 4.0]), b=0.0)], fg.Simplex(n=2))
        assert prob.params.G == pytest.approx(5.0, abs=1e-12)

    def test_simplex_diameter(self):
        prob = constant_problem([0.0], n=2)
        assert prob.params.D == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_quadratic_curvature(self):
        prob = fg.make_problem(
            [fg.Quadratic(A=np.eye(2), b=np.zeros(2), c=0.0)], fg.Simplex(n=2)
        )
        assert prob.params.H == pytest.approx(2.0, abs=1e-12)

    def test_sampled_points_respect_bounds(self, rng):
        cons = [
            fg.Affine(a=rng.normal(size=3), b=float(rng.normal())),
            fg.Quadratic(A=np.eye(3) * 0.5, b=rng.normal(size=3), c=0.1),
            fg.NormDistSq(center=rng.normal(size=3) * 0.3, c=0.2),
        ]
        prob = fg.make_problem(cons, fg.Simplex(n=3))
        X = prob.domain.sample(10_000, seed=7)
        for f in prob.constraints:
            vals = np.array([fg.evaluate(f, x) for x in X])
            assert np.max(np.abs(vals)) <= prob.params.omega + 1e-9
        for f in prob.constraints:
            for x in X[:300]:
                assert np.linalg.norm(fg.gradient(f, x)) <= prob.params.G + 1e-9

    def test_check_distribution(self):
        fg.check_distribution(np.array([0.5, 0.5]), 2)
        with pytest.raises(fg.InvalidDistribution):
            fg.check_distribution(np.array([0.5, 0.6]), 2)
        with pytest.raises(fg.InvalidDistribution):
            fg.check_distribution(np.array([0.5, 0.5]), 3)


@pytest.mark.parametrize("p", [[math.nan, 0.5, 0.5], [0.5, 0.5, math.nan], [math.nan] * 3],
                         ids=["first", "last", "all"])
class TestNanWeights:
    """A NaN weight is no distribution, so each consumer refuses it rather
    than answer from a NaN sum (the sum test is the one that catches it)."""

    def test_check_distribution(self, p):
        with pytest.raises(fg.InvalidDistribution, match="sum to 1"):
            fg.check_distribution(np.array(p), 3)

    def test_game_loss(self, p):
        with pytest.raises(fg.InvalidDistribution):
            fg.game_loss(constant_problem([-1.0] * 3), np.array([0.5, 0.5]), np.array(p))

    def test_optimization_oracle(self, p):
        # every constraint is satisfied everywhere, so a FAIL would be a
        # false infeasibility claim
        with pytest.raises(fg.InvalidDistribution):
            fg.optimization_oracle(constant_problem([-1.0] * 3), np.array(p), tol=0.05)

    def test_infeasibility_certificate(self, p):
        with pytest.raises(fg.InvalidDistribution):
            fg.verify_certificate(constant_problem([1.0] * 3), fg.Infeasible(p_bar=np.array(p)),
                                  0.1)


class TestResidualConvention:
    def test_residual_is_value(self, rng):
        base = fg.make_problem([fg.Affine(a=rng.normal(size=2), b=0.1)], fg.Simplex(n=2))
        x = np.array([0.5, 0.5])
        for prob in (base, fg.log_transform(base)):
            assert fg.residuals(prob, x)[0] == fg.evaluate(prob.constraints[0], x)

    def test_log_transformed_residual_is_one_minus_the_log(self):
        base = fg.make_problem([fg.Affine(a=np.array([1.0, -1.0]), b=0.0)], fg.Simplex(n=2))
        prob = fg.log_transform(base)
        x = np.array([0.75, 0.25])
        omega = base.params.omega
        want = 1.0 - math.log(math.e - 0.5 / omega)
        assert fg.evaluate(prob.constraints[0], x) == pytest.approx(want, abs=1e-15)

    def test_residual_gradient_matches_fd(self, rng):
        base = fg.make_problem([fg.Affine(a=np.array([0.5, -0.5]), b=0.0)], fg.Simplex(n=2))
        for prob in (base, fg.log_transform(base)):
            f = prob.constraints[0]
            for x in interior_simplex(rng, 2, 10):
                g = fg.residual_gradient(prob, 0, x)
                h = 1e-6
                ref = np.zeros(2)
                for i in range(2):
                    e = np.zeros(2)
                    e[i] = h
                    ref[i] = (fg.evaluate(f, x + e) - fg.evaluate(f, x - e)) / (2 * h)
                assert np.allclose(g, ref, atol=1e-6)


@pytest.mark.parametrize("build, field", [
    (lambda: fg.Box([], []), "lo"),
    (lambda: fg.Box([np.nan], [1.0]), "lo"),
    (lambda: fg.Box([0.0], [np.inf]), "hi"),
    (lambda: fg.Ball(2, radius=np.inf), "radius"),
    (lambda: fg.Ball(2, center=[np.nan, 0.0]), "center"),
    (lambda: fg.Simplex(2.5), "n"),
    (lambda: fg.Simplex(True), "n"),
], ids=["empty-box", "nan-lo", "inf-hi", "inf-radius", "nan-center", "fractional-n", "bool-n"])
def test_malformed_domain_is_refused_naming_the_field(build, field):
    with pytest.raises((fg.SetupError, fg.DimensionMismatch), match=rf"\b{field}\b"):
        build()


@pytest.mark.parametrize("field", ["G", "H", "omega", "D", "G_inf", "alpha"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_instance_constant_is_refused_by_name(field, bad):
    # ProblemParams(G=inf, ...) used to be accepted, and primal OGD then
    # failed with "no stopping threshold below 2^62"
    values = dict(G=1.0, H=1.0, omega=1.0, D=1.0, G_inf=1.0, alpha=1.0)
    with pytest.raises(fg.SetupError, match=rf"^instance constant {field} must be finite"):
        fg.ProblemParams(**{**values, field: bad})


@pytest.mark.parametrize("field", ["G", "H", "omega", "D"])
def test_negative_instance_constant_is_refused_by_name(field):
    values = dict(G=1.0, H=1.0, omega=1.0, D=1.0, G_inf=1.0, alpha=1.0)
    with pytest.raises(fg.SetupError,
                       match=rf"^instance constant {field} must be nonnegative, got -1\.0$"):
        fg.ProblemParams(**{**values, field: -1.0})


@pytest.mark.parametrize("bad", [fg.Affine(a=np.array([math.nan, 1.0]), b=0.0),
                                 fg.Quadratic(A=np.eye(2), b=np.array([1.0, math.nan]), c=0.0)],
                         ids=["affine", "quadratic"])
@pytest.mark.parametrize("j", [0, 1])
def test_a_nan_bound_is_refused_naming_its_constraint(bad, j):
    # max skips a NaN that is not first: with the NaN row second the estimate
    # used to give G = sqrt(2), and the dual solver then answered Infeasible
    good = fg.Affine(a=np.array([1.0, 1.0]), b=-2.0)
    constraints = [bad, good] if j == 0 else [good, bad]
    with pytest.raises(fg.SetupError, match=rf"^constraint {j} has a NaN bound over the domain$"):
        fg.make_problem(constraints, fg.Simplex(n=2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_quadratic_matrix_is_refused_by_name(bad):
    # LAPACK's eigvalsh reads [[nan, 0], [0, 1]] as [0, -0], which made
    # G = H = omega = 0 while the residual at the centre was nan
    with pytest.raises(fg.SetupError, match="^quadratic matrix A has a NaN or an infinite entry$"):
        fg.Quadratic(A=np.array([[bad, 0.0], [0.0, 1.0]]), b=np.zeros(2), c=0.0)


def test_an_alpha_whose_divisor_underflows_is_refused_by_name():
    # G is about 1.8e-170, so G * G underflows to 0 and H / G^2 has no float
    # value; the estimate used to raise ZeroDivisionError
    f = fg.Quadratic(A=np.array([[7.09e-171]]), b=np.array([-3.57e-171]), c=4.03e-171)
    with pytest.raises(fg.SetupError,
                       match=r"^instance constant alpha = H / G\^2 has no float value"):
        fg.make_problem([f], fg.Simplex(n=1))


@pytest.mark.parametrize("inner", [f for f in family_samples(np.random.default_rng(0), 2)
                                   if not isinstance(f, fg.Affine)],
                         ids=lambda f: f.tag)
def test_a_log_composite_wraps_an_affine_row_only(inner):
    with pytest.raises(fg.SetupError,
                       match=f"^a log_affine_composite's inner must be affine, not {inner.tag}$"):
        fg.LogAffineComposite(inner=inner, omega=1.0)


def test_numpy_integer_dimension_is_accepted():
    assert fg.Simplex(np.int64(3)).n == 3
    assert fg.Ball(np.int32(2)).n == 2
