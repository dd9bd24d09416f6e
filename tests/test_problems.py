"""Instance generators: spectra, planted witnesses, and determinism."""

import math

import numpy as np
import pytest

import feasgame as fg
import feasgame.problems
from feasgame.harness import emit_problem_file, problem_to_doc
from lattice import brute_force_lambda_star
from conftest import fd_hessian


def first_dirichlet(seed, n):
    """The witness/base point every generator draws before anything else."""
    return np.random.default_rng(seed).dirichlet(np.ones(n))


class TestStrictQp:
    def test_eigenvalues_clear_target(self):
        prob = fg.make_strict_qp(4, 6, h_target=1.0, seed=3)
        for f in prob.constraints:
            assert np.linalg.eigvalsh(f.A)[0] >= 1.0

    def test_witness_satisfies_every_constraint(self):
        prob = fg.make_strict_qp(3, 5, feasible=True, seed=11)
        w = first_dirichlet(11, 3)
        assert fg.separation_oracle(prob, w, 0.0) is None
        for f in prob.constraints:
            assert fg.evaluate(f, w) == pytest.approx(-0.1, abs=1e-12)

    def test_infeasible_stays_positive_on_grid(self):
        prob = fg.make_strict_qp(2, 3, feasible=False, seed=5)
        out = brute_force_lambda_star(prob, 1e-3)
        assert out.value > 0.05

    def test_curvature_feeds_estimate(self):
        prob = fg.make_strict_qp(3, 2, h_target=2.0, seed=0)
        assert prob.params.H >= 4.0  # 2 * min eigenvalue >= 2 * h_target

    def test_deterministic(self):
        a = problem_to_doc(fg.make_strict_qp(3, 4, seed=9))
        b = problem_to_doc(fg.make_strict_qp(3, 4, seed=9))
        assert a == b

    def test_seed_changes_instance(self):
        a = problem_to_doc(fg.make_strict_qp(3, 4, seed=1))
        b = problem_to_doc(fg.make_strict_qp(3, 4, seed=2))
        assert a != b


class TestPerceptronLp:
    def test_rows_are_unit_norm(self):
        prob = fg.make_perceptron_lp(4, 7, seed=2)
        for f in prob.constraints:
            assert abs(np.linalg.norm(f.a) - 1.0) <= 1e-12

    def test_planted_witness_has_margin(self):
        margin = 0.15
        prob = fg.make_perceptron_lp(4, 7, margin=margin, seed=2)
        w = first_dirichlet(2, 4)
        for f in prob.constraints:
            # stored minimization form is -row . x
            assert -fg.evaluate(f, w) >= margin - 1e-12

    def test_infeasible_alternation(self):
        prob = fg.make_perceptron_lp(3, 4, feasible=False, seed=8)
        out = brute_force_lambda_star(prob, 1e-3)
        assert out.value > 0.0
        # opposite rows cancel pairwise
        assert np.allclose(prob.constraints[0].a, -prob.constraints[1].a)

    def test_single_row_infeasible_still_positive(self):
        prob = fg.make_perceptron_lp(2, 1, feasible=False, seed=8)
        out = brute_force_lambda_star(prob, 1e-3)
        assert out.value > 0.0

    def test_excessive_margin_rejected(self):
        with pytest.raises(fg.SetupError):
            fg.make_perceptron_lp(9, 3, margin=0.99, seed=0)

    def test_affine_only(self):
        prob = fg.make_perceptron_lp(3, 3, seed=1)
        assert all(isinstance(f, fg.Affine) for f in prob.constraints)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_one_dimensional_rows_are_finite_and_clear_the_margin(self, seed, m):
        # at n = 1 a row a = -1 blends to exactly 0 at kappa = 1, whose 0/0
        # score was taken for a pass: seed 1 planted a [nan] row, seeds 0, 2
        # and 3 were refused for a NaN G
        prob = fg.make_perceptron_lp(1, m, margin=0.1, feasible=True, seed=seed)
        for f in prob.constraints:
            assert np.isfinite(f.a).all() and -f.a[0] >= 0.1


class TestPortfolioRisk:
    def test_covariances_positive_definite(self):
        prob = fg.make_portfolio_risk(4, 5, seed=6)
        for f in prob.constraints:
            assert np.linalg.eigvalsh(f.A)[0] >= 0.1

    def test_curvature_matches_smallest_eigenvalue(self):
        prob = fg.make_portfolio_risk(3, 4, seed=6)
        lam = min(np.linalg.eigvalsh(f.A)[0] for f in prob.constraints)
        assert prob.params.H == pytest.approx(2.0 * lam, rel=1e-9)

    def test_returns_in_band(self):
        prob = fg.make_portfolio_risk(3, 4, seed=6)
        for f in prob.constraints:
            assert np.all(-f.b >= 0.05) and np.all(-f.b <= 0.15)
            assert f.c == 0.05


class TestEntropy:
    def test_entropy_value_at_uniform(self):
        prob = fg.make_entropy_problem(3, 2, seed=4)
        ent = prob.constraints[0]
        assert isinstance(ent, fg.NegEntropy)
        raw = fg.evaluate(fg.NegEntropy(n=3, shift=0.0), np.full(3, 1 / 3))
        assert raw == pytest.approx(-math.log(3.0), abs=1e-12)

    def test_witness_slack(self):
        prob = fg.make_entropy_problem(3, 2, c=0.05, seed=4)
        p_tilde = first_dirichlet(4, 3)
        assert fg.evaluate(prob.constraints[0], p_tilde) == pytest.approx(-0.1, abs=1e-12)
        for f in prob.constraints[1:]:
            assert fg.evaluate(f, p_tilde) == pytest.approx(-0.05, abs=1e-12)

    def test_hessian_at_uniform_is_n_times_identity(self):
        f = fg.NegEntropy(n=3, shift=0.0)
        H = fd_hessian(f, np.full(3, 1 / 3))
        assert np.allclose(H, 3.0 * np.eye(3), atol=1e-4)

    def test_ball_curvature_bounds(self):
        prob = fg.make_entropy_problem(3, 3, seed=4)
        for f in prob.constraints[1:]:
            ev = np.linalg.eigvalsh(f.A)
            assert ev[0] >= 0.3 and ev[-1] <= 1.0 + 1e-9


class TestCrp:
    def test_base_point_slack(self):
        prob = fg.make_crp_problem(3, t_days=5, c=0.05, seed=12)
        p_tilde = first_dirichlet(12, 3)
        assert fg.evaluate(prob.constraints[0], p_tilde) == pytest.approx(-0.5, abs=1e-10)
        assert fg.evaluate(prob.constraints[1], p_tilde) == pytest.approx(-0.05, abs=1e-12)

    def test_barrier_curvature_at_uniform(self):
        # identity rows alone contribute sum_i e_i e_i' / x_i^2 = n^2 I at
        # the uniform point, so the Hessian dominates the identity
        prob = fg.make_crp_problem(3, t_days=2, seed=12)
        H = fd_hessian(prob.constraints[0], np.full(3, 1 / 3), h=1e-5)
        assert np.linalg.eigvalsh(H)[0] >= 1.0

    def test_ball_hessian_constant(self):
        prob = fg.make_crp_problem(3, t_days=2, seed=12)
        H = fd_hessian(prob.constraints[1], first_dirichlet(12, 3))
        assert np.allclose(H, 2.0 * np.eye(3), atol=1e-4)

    def test_price_relatives_in_band(self):
        prob = fg.make_crp_problem(3, t_days=4, seed=12)
        rows = prob.constraints[0].rows
        assert rows.shape == (7, 3)
        assert np.all(rows[:4] >= 0.9) and np.all(rows[:4] <= 1.1)
        assert np.array_equal(rows[4:], np.eye(3))

    def test_argument_validation(self):
        with pytest.raises(fg.SetupError):
            fg.make_crp_problem(1, t_days=3)
        with pytest.raises(fg.SetupError):
            fg.make_crp_problem(3, t_days=0)
        with pytest.raises(fg.SetupError):
            fg.make_crp_problem(3, t_days=3, c=0.0)


class TestDispatchAndBounds:
    def test_spec_dispatch(self):
        spec = fg.GeneratorSpec(family="perceptron_lp", n=3, m=4, seed=5)
        direct = fg.make_perceptron_lp(3, 4, seed=5)
        assert problem_to_doc(fg.make_problem_from_spec(spec)) == problem_to_doc(direct)

    def test_unknown_family_rejected(self):
        with pytest.raises(fg.SetupError):
            fg.make_problem_from_spec(fg.GeneratorSpec(family="mystery", n=3))

    def test_feasible_flag_matches_grid(self):
        for seed in range(3):
            feas = fg.make_strict_qp(2, 2, feasible=True, seed=seed)
            infeas = fg.make_strict_qp(2, 2, feasible=False, seed=seed)
            assert brute_force_lambda_star(feas, 1e-3).value < 0
            assert brute_force_lambda_star(infeas, 1e-3).value > 0

    def test_sampled_points_respect_estimates(self):
        problems = [
            fg.make_strict_qp(3, 2, seed=1),
            fg.make_perceptron_lp(3, 3, seed=1),
            fg.make_portfolio_risk(3, 2, seed=1),
            fg.make_entropy_problem(3, 2, seed=1),
            fg.make_crp_problem(3, t_days=2, seed=1),
        ]
        for prob in problems:
            X = prob.domain.sample(10_000, seed=99)
            # entropy and barrier terms are unbounded at the boundary; the
            # stated bounds hold where they are finite, so sample the interior
            X = 0.98 * X + 0.02 / prob.n
            for f in prob.constraints:
                vals = np.array([fg.evaluate(f, x) for x in X])
                assert np.max(np.abs(vals)) <= prob.params.omega + 1e-9
                for x in X[:200]:
                    g = fg.gradient(f, x)
                    assert np.linalg.norm(g) <= prob.params.G + 1e-9


def reference_psd_stack(rng, n, m, lam_min, lam_max, draw=None):
    """The per-matrix loop that _psd_stack replaced: each matrix's lam, Z and
    draw's numbers, then its own QR, sign fix and product."""
    matrices, drawn = [], []
    for _ in range(m):
        floor = lam_min * (1.0 + 1e-10) + 1e-12
        if n == 1:
            lam = np.array([floor])
        else:
            lam = np.concatenate([[floor], rng.uniform(floor, max(lam_max, floor), n - 1)])
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        A = (q * lam) @ q.T
        matrices.append(0.5 * (A + A.T))
        drawn.append(draw(rng) if draw else None)
    return matrices, drawn


def generated_bits(family):
    """Each instance's problem file, the bytes of every quadratic's spectrum
    and of packed.smoothness, or the error its spec raises."""
    out = []
    for n in (1, 2, 3, 10, 25):
        for m in (1, 3, 20):
            for seed in range(6):
                spec = fg.GeneratorSpec(family=family, n=n, m=m, seed=seed)
                try:
                    prob = fg.make_problem_from_spec(spec)
                except fg.SetupError as e:
                    out.append(str(e))
                    continue
                out.append(emit_problem_file(prob))
                out.extend(f.spectrum.tobytes() for f in prob.constraints
                           if isinstance(f, fg.Quadratic))
                out.append(prob.packed.smoothness.tobytes())
    return out


@pytest.mark.parametrize("family", sorted(fg.GENERATORS))
def test_stacked_matrices_and_spectra_keep_the_per_matrix_bits(monkeypatch, family):
    stacked = generated_bits(family)
    monkeypatch.setattr(feasgame.problems, "_psd_stack", reference_psd_stack)
    # a property is read before the instance's cache, so every spectrum is
    # its own eigvalsh, as before the stacked fill
    monkeypatch.setattr(fg.Quadratic, "spectrum", property(lambda q: np.linalg.eigvalsh(q.A)))
    assert stacked == generated_bits(family)
