"""Strong-convexity injection and the exp-concave log rewrite."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import feasgame as fg
from conftest import interior_simplex, random_constraint, random_domain


def affine_problem(rows, offsets, n):
    cons = [fg.Affine(a=np.asarray(a, float), b=float(b)) for a, b in zip(rows, offsets)]
    return fg.make_problem(cons, fg.Simplex(n=n))


class TestStrictify:
    def test_zero_delta_is_identity(self):
        prob = affine_problem([[1.0, -1.0]], [0.0], 2)
        assert fg.strictify(prob, 0.0) is prob

    def test_shift_at_uniform(self):
        prob = affine_problem([[0.0, 0.0]], [0.0], 2)
        out = fg.strictify(prob, 0.1)
        # 0 + 0.1 * ||(0.5, 0.5)||^2 - 0.1 = -0.05
        val = fg.evaluate(out.constraints[0], np.array([0.5, 0.5]))
        assert val == pytest.approx(-0.05, abs=1e-12)

    def test_a_delta_whose_gradient_bound_squares_to_zero_is_refused(self):
        # G' = 2 * delta = 2e-170 squares to 0, so H' / G'^2 has no float
        # value; it used to raise ZeroDivisionError
        prob = fg.make_problem([fg.Affine(a=np.zeros(2), b=-1.0)], fg.Simplex(n=2))
        with pytest.raises(fg.SetupError,
                           match=r"^instance constant alpha = H / G\^2 has no float value"):
            fg.strictify(prob, 1e-170)

    def test_parameters_are_the_estimate(self):
        prob = fg.make_problem(
            [fg.Quadratic(A=np.eye(2), b=np.zeros(2), c=0.0)], fg.Simplex(n=2)
        )
        out = fg.strictify(prob, 0.25)
        assert out.params == fg.estimate_parameters(out)
        # the curvature grows by exactly 2 delta; the width is what the
        # new values reach, 1.25 - 0.25 at a vertex, not omega + delta
        assert out.params.H == prob.params.H + 0.5
        assert out.params.omega == 1.0

    def test_an_indefinite_quadratic_gets_its_true_curvature(self):
        # A = diag(-0.01, 1) plus 0.05 I has least eigenvalue 0.04, so H is
        # 0.08, not the 0.1 that adding 2 delta to H = 0 would claim
        f = fg.Quadratic(A=np.diag([-0.01, 1.0]), b=np.zeros(2), c=-0.1)
        out = fg.strictify(fg.make_problem([f], fg.Simplex(n=2)), 0.05)
        assert out.params == fg.estimate_parameters(out)
        assert out.params.H == 0.08
        assert out.params.omega == 0.9

    def test_guarantee_pair(self):
        assert fg.strictify_guarantee(0.05) == (0.05, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_or_negative_delta_is_refused(self, bad):
        # an infinite delta used to build NaN matrices with a RuntimeWarning
        prob = affine_problem([[1.0, -1.0]], [0.0], 2)
        with pytest.raises(fg.SetupError, match="delta must be a nonnegative finite float"):
            fg.strictify(prob, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_guarantee_refuses_an_eps_that_is_not_positive_and_finite(self, bad):
        with pytest.raises(fg.SetupError, match="eps must be a positive finite float"):
            fg.strictify_guarantee(bad)

    def test_transformed_never_above_original(self, rng):
        prob = affine_problem(rng.normal(size=(3, 3)), rng.normal(size=3), 3)
        out = fg.strictify(prob, 0.2)
        for x in interior_simplex(rng, 3, 1000):
            for f0, f1 in zip(prob.constraints, out.constraints):
                assert fg.evaluate(f1, x) <= fg.evaluate(f0, x) + 1e-12

    def test_solution_transfers_with_delta_slack(self, rng):
        delta, eps = 0.1, 0.05
        prob = affine_problem(rng.normal(size=(4, 3)), rng.normal(size=4), 3)
        out = fg.strictify(prob, delta)
        for x in interior_simplex(rng, 3, 200):
            new_res = max(fg.residuals(out, x))
            if new_res <= eps:
                assert max(fg.residuals(prob, x)) <= delta + eps + 1e-12

    def test_witness_stays_feasible(self, rng):
        # a strictly feasible point of the original stays feasible: the added
        # term is nonpositive on the simplex
        prob = affine_problem([[0.3, -0.2, 0.1]], [-0.5], 3)
        out = fg.strictify(prob, 0.3)
        for x in interior_simplex(rng, 3, 100):
            if max(fg.residuals(prob, x)) <= 0:
                assert max(fg.residuals(out, x)) <= 0

    def test_curvature_becomes_positive(self):
        prob = affine_problem([[1.0, 0.0]], [0.0], 2)
        out = fg.strictify(prob, 0.05)
        assert out.params.H == pytest.approx(0.1, abs=1e-15)
        assert isinstance(out.constraints[0], fg.Quadratic)

    def test_rejects_negative_delta_and_wrong_families(self):
        prob = affine_problem([[1.0, 0.0]], [0.0], 2)
        with pytest.raises(fg.SetupError):
            fg.strictify(prob, -0.1)
        barrier = fg.make_problem(
            [fg.NegEntropy(n=2, shift=0.0)], fg.Simplex(n=2)
        )
        with pytest.raises(fg.SetupError):
            fg.strictify(barrier, 0.1)

    def test_rejects_non_simplex_domain(self):
        ball = fg.Ball(n=2, radius=1.0, center=np.zeros(2))
        prob = fg.make_problem([fg.Affine(a=np.array([1.0, 0.0]), b=0.0)], ball)
        with pytest.raises(fg.SetupError):
            fg.strictify(prob, 0.1)


    @pytest.mark.parametrize("family", ["affine", "quadratic", "norm_dist_sq"])
    def test_adds_exactly_the_curvature_term(self, family, rng):
        # strictify(f) = f + delta * (||x||^2 - 1) for every family it accepts
        n, delta = 3, 0.15
        M = rng.normal(size=(n, n))
        f = {
            "affine": fg.Affine(a=rng.normal(size=n), b=0.2),
            "quadratic": fg.Quadratic(A=M @ M.T, b=rng.normal(size=n), c=-0.4),
            "norm_dist_sq": fg.NormDistSq(center=rng.dirichlet(np.ones(n)), c=0.3),
        }[family]
        out = fg.strictify(fg.make_problem([f], fg.Simplex(n=n)), delta)
        for x in rng.dirichlet(np.ones(n), size=200):
            expected = fg.evaluate(f, x) + delta * (x @ x - 1.0)
            assert fg.evaluate(out.constraints[0], x) == pytest.approx(expected, abs=1e-12)

class TestLogTransform:
    def test_boundary_value_maps_to_zero(self):
        prob = affine_problem([[1.0, -1.0]], [0.0], 2)
        out = fg.log_transform(prob)
        # f = 0 at the uniform point, so the rewritten residual is 1 - log(e) = 0
        val = fg.evaluate(out.constraints[0], np.array([0.5, 0.5]))
        assert val == pytest.approx(0.0, abs=1e-12)
        assert out.params.alpha == 1.0

    def test_estimated_constants_of_a_transformed_problem(self, rng):
        # re-estimated from its constraints alone, as a parsed problem file
        # is: 1-exp-concave, no curvature, and a width that bounds the residuals
        prob = affine_problem(rng.normal(size=(3, 2)), rng.normal(size=3) * 0.3, 2)
        out = fg.log_transform(prob)
        est = fg.estimate_parameters(out)
        assert est.alpha == 1.0 and est.H == 0.0
        for x in interior_simplex(rng, 2, 100):
            assert np.abs(fg.residuals(out, x)).max() <= est.omega

    def test_the_width_is_what_the_rows_reach(self):
        # f = x_0 - x_1 - 2 lies in [-3, -1], so omega = 3 but -f/omega only
        # reaches [1/3, 1]: the residuals stay within |1 - log(e + 1)|, not
        # the |1 - log(e - 1)| an inner of -omega would reach
        prob = affine_problem([[1.0, -1.0]], [-2.0], 2)
        out = fg.log_transform(prob)
        assert out.params == fg.estimate_parameters(out)
        assert out.params.omega == out.params.G_inf == abs(1.0 - math.log(math.e + 1.0))

    def test_gradient_scale_shrinks_by_omega(self):
        prob = affine_problem([[1.0, 0.0]], [0.0], 2)
        out = fg.log_transform(prob, omega=2.0)
        assert out.params.G == 0.5

    def test_satisfied_points_map_below_zero(self, rng):
        prob = affine_problem(rng.normal(size=(2, 2)), [-0.1, -0.2], 2)
        out = fg.log_transform(prob)
        for x in interior_simplex(rng, 2, 200):
            orig = [fg.evaluate(f, x) for f in prob.constraints]
            new = [fg.evaluate(f, x) for f in out.constraints]
            for o, v in zip(orig, new):
                assert (o <= 0) == (v <= 1e-12)

    def test_value_preserved_through_monotone_map(self, rng):
        prob = affine_problem(rng.normal(size=(2, 2)), rng.normal(size=2) * 0.3, 2)
        out = fg.log_transform(prob)
        omega = prob.params.omega
        for x in interior_simplex(rng, 2, 100):
            worst = max(fg.evaluate(f, x) for f in prob.constraints)
            new_max = max(fg.evaluate(f, x) for f in out.constraints)
            assert new_max == pytest.approx(1.0 - math.log(math.e - worst / omega), abs=1e-9)

    def test_midpoint_convexity(self, rng):
        prob = affine_problem(rng.normal(size=(1, 3)), [0.1], 3)
        f = fg.log_transform(prob).constraints[0]
        for _ in range(200):
            x, y = interior_simplex(rng, 3, 2)
            mid = fg.evaluate(f, 0.5 * (x + y))
            assert mid <= 0.5 * (fg.evaluate(f, x) + fg.evaluate(f, y)) + 1e-12

    def test_rejects_small_omega(self):
        prob = affine_problem([[1.0, 0.0]], [0.0], 2)
        with pytest.raises(fg.SetupError):
            fg.log_transform(prob, omega=0.5)

    def test_rejects_non_affine(self):
        prob = fg.make_problem(
            [fg.Quadratic(A=np.eye(2), b=np.zeros(2), c=0.0)], fg.Simplex(n=2)
        )
        with pytest.raises(fg.SetupError):
            fg.log_transform(prob)

    def test_rejects_a_transformed_problem(self):
        prob = affine_problem([[1.0, -1.0]], [0.0], 2)
        out = fg.log_transform(prob)
        with pytest.raises(fg.SetupError, match="needs affine constraints"):
            fg.log_transform(out)

    @pytest.mark.parametrize("omega", [math.inf, math.nan, -math.inf, 0.0])
    def test_rejects_an_omega_that_is_not_positive_and_finite(self, omega):
        # an infinite omega used to give residuals and a G of 0 everywhere,
        # so an infeasible LP came back Feasible with a certificate that verified
        prob = fg.make_perceptron_lp(3, 2, feasible=False)
        with pytest.raises(fg.SetupError, match=r"^omega must be positive and finite"):
            fg.log_transform(prob, omega)
        with pytest.raises(fg.SetupError, match=r"^omega must be positive and finite"):
            fg.LogAffineComposite(inner=prob.constraints[0], omega=omega)


def exact_width(f, domain):
    """max |a.x + b| over the domain, from the points where it is attained:
    the simplex's vertices, the box's corners, or the ball's two points on
    the line through its center along a."""
    if isinstance(domain, fg.Simplex):
        X = np.eye(domain.n)
    elif isinstance(domain, fg.Box):
        X = np.array(list(itertools.product(*zip(domain.lo, domain.hi))))
    else:
        u = f.a / max(np.linalg.norm(f.a), 1e-300)
        X = np.array([domain.center + domain.radius * u, domain.center - domain.radius * u])
    return float(np.max(np.abs(X @ f.a + f.b)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["simplex", "ball", "box"]), st.integers(1, 5), st.integers(1, 3),
       st.sampled_from([0.25, 0.999, 1.0, 1.001, 4.0]), st.integers(0, 2**32 - 1))
def test_log_transform_refuses_exactly_below_the_width(kind, n, m, factor, seed):
    # the exact interval check is the whole width precondition: log_transform
    # refuses omega below the exact width, and on a problem it accepts no
    # sampled domain point has |f_j| above omega
    rng = np.random.default_rng(seed)
    domain = random_domain(kind, rng, n)
    prob = fg.make_problem([random_constraint("affine", rng, domain) for _ in range(m)],
                           domain)
    width = max(exact_width(f, prob.domain) for f in prob.constraints)
    assume(width > 1e-3)
    omega = factor * width
    if factor < 1.0:
        with pytest.raises(fg.SetupError, match="exceeds width omega"):
            fg.log_transform(prob, omega)
        return
    fg.log_transform(prob, omega)
    X = prob.domain.sample(1000, seed=seed)
    for f in prob.constraints:
        assert np.abs(X @ f.a + f.b).max() <= omega * (1 + 1e-9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["simplex", "ball", "box"]), st.integers(1, 5), st.integers(1, 4),
       st.sampled_from([1.0, 1.5, 4.0]), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_log_transformed_residuals_are_one_minus_the_log(kind, n, m, factor, eps, seed):
    # each residual of log_transform(p, omega) is 1 - log(e - f_j(x)/omega):
    # the scalar value is that formula and its gradient is the single-row
    # gradient, bit for bit; the stacked passes fold 1/omega and e into
    # their rows once, so they agree to a few ulps
    rng = np.random.default_rng(seed)
    domain = random_domain(kind, rng, n)
    prob = fg.make_problem([random_constraint("affine", rng, domain) for _ in range(m)],
                           domain)
    width = max(exact_width(f, domain) for f in prob.constraints)
    assume(width > 1e-3)
    omega = factor * width * (1 + 1e-12)
    out = fg.log_transform(prob, omega)
    for x in domain.sample(8, seed=seed):
        hand = [1.0 - math.log(math.e - fg.evaluate(f, x) / omega) for f in prob.constraints]
        ref = np.array([fg.evaluate(f, x) for f in out.constraints])
        G = np.array([fg.gradient(f, x) for f in out.constraints])
        assert ref.tobytes() == np.array(hand).tobytes()
        for j in range(m):
            assert fg.residual_gradient(out, j, x).tobytes() == G[j].tobytes()
        np.testing.assert_allclose(fg.residuals(out, x), ref, rtol=0, atol=2e-15)
        np.testing.assert_allclose(fg.residual_gradients(out, x), G, rtol=2e-15, atol=0)
        if np.abs(ref - eps).min() <= 1e-12:
            continue  # a tie that the last bits decide
        hit = fg.separation_oracle(out, x, eps)
        violated = (ref > eps).nonzero()[0]
        if not violated.size:
            assert hit is None
        else:
            assert hit.index == violated[0]
            assert hit.value == pytest.approx(ref[violated[0]], rel=0, abs=2e-15)


class TestApproxTranslate:
    def test_linear_scaling(self):
        assert fg.approx_translate(0.01, 1.0) == pytest.approx(0.03, abs=1e-15)
        assert fg.approx_translate(0.0, 1.0) == 0.0

    def test_inverse_budget(self):
        # eps = 0.3 in the original units needs eps/(3 omega) = 0.1 after
        assert 0.3 / (3.0 * 1.0) == pytest.approx(0.1, abs=1e-15)
        assert fg.approx_translate(0.1, 1.0) == pytest.approx(0.3, abs=1e-15)

    def test_monotone_in_both_arguments(self):
        assert fg.approx_translate(0.02, 1.0) > fg.approx_translate(0.01, 1.0)
        assert fg.approx_translate(0.01, 2.0) > fg.approx_translate(0.01, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(fg.SetupError):
            fg.approx_translate(-0.01, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_argument_by_name(self, bad):
        # approx_translate(nan, 1.0) used to return nan
        with pytest.raises(fg.SetupError, match=r"^eps_log must be"):
            fg.approx_translate(bad, 1.0)
        with pytest.raises(fg.SetupError, match=r"^omega must be"):
            fg.approx_translate(0.1, bad)


class TestRoundTripLambdaStar:
    def test_optimum_identity_on_grid(self, rng):
        from lattice import brute_force_lambda_star

        prob = affine_problem(rng.normal(size=(2, 2)), rng.normal(size=2) * 0.2, 2)
        out = fg.log_transform(prob)
        omega = prob.params.omega
        orig = brute_force_lambda_star(prob, 1e-3)
        new = brute_force_lambda_star(out, 1e-3)
        rho = -orig.value
        # residual convention: the transformed optimum is 1 - log(e + rho/omega)
        expected = 1.0 - math.log(math.e + rho / omega)
        # the log map contracts by at most 1/(omega (e - 1))
        slack = new.slack + orig.slack / (omega * (math.e - 1.0))
        assert new.value == pytest.approx(expected, abs=slack + 1e-9)


@pytest.mark.parametrize("family", sorted(fg.GENERATORS))
def test_every_constant_is_a_python_float(family):
    # json writes a Python float; the constants never carry a numpy scalar
    problem = fg.make_problem_from_spec(fg.GeneratorSpec(family=family, n=4, m=3, seed=1))
    problems = [problem]
    if all(isinstance(f, fg.Affine) for f in problem.constraints):
        problems.append(fg.log_transform(problem))
    if all(f.as_quadratic() is not None for f in problem.constraints):
        problems.append(fg.strictify(problem, 0.05))
    for p in problems:
        assert [type(v) for v in dataclasses.astuple(p.params)] == [float] * 6
