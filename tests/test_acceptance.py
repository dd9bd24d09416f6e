"""Acceptance gate: one test per shipped guarantee, run at stated tolerances.

Each test is independent and self-contained; together they pin the
numerical contracts the package advertises: projection exactness, gradient
correctness, learner regret growth, solver scaling in 1/eps, certificate
soundness, reduction accuracy, conditioning stability, and the CLI contract.
"""

import json
import math
import time

import numpy as np
import pytest

import feasgame as fg
from feasgame.harness import (
    mw_signs_regret,
    regret_experiment,
    scaling_experiment,
    verify_outcome_document,
)
from feasgame.harness.cli import main
from conftest import family_samples, fd_gradient, interior_simplex
from lattice import brute_force_lambda_star, grid


def test_criterion_01_projection_matches_brute_force():
    rng = np.random.default_rng(42)
    dims = [2, 3, 4, 5, 6]
    per_dim = 200
    ys = {n: rng.normal(size=(per_dim, n)) * 2.0 for n in dims}

    start = time.perf_counter()
    projected = {n: [fg.project_simplex(y) for y in ys[n]] for n in dims}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    # small dimensions: dense grid is the oracle
    for n in (2, 3):
        pts = grid(fg.Simplex(n=n), 1e-3)
        for y, x in zip(ys[n], projected[n]):
            d2 = np.sum((pts - y) ** 2, axis=1)
            best = pts[int(np.argmin(d2))]
            assert np.linalg.norm(x - best) <= 2e-3
            assert np.sum((x - y) ** 2) <= float(np.min(d2)) + 1e-12

    # larger dimensions: an independent constrained solver is the oracle
    from scipy.optimize import minimize

    for n in (4, 5, 6):
        for y, x in zip(ys[n], projected[n]):
            res = minimize(
                lambda z: np.sum((z - y) ** 2),
                jac=lambda z: 2.0 * (z - y),
                x0=np.full(n, 1.0 / n),
                method="SLSQP",
                bounds=[(0.0, 1.0)] * n,
                constraints={"type": "eq", "fun": lambda z: np.sum(z) - 1.0,
                             "jac": lambda z: np.ones(n)},
            )
            assert res.success
            assert np.sum((x - y) ** 2) <= res.fun + 1e-7
            assert np.linalg.norm(x - res.x) <= 1e-3


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 7))
        for f in family_samples(rng, n):
            x = interior_simplex(rng, n, 1)[0]
            g = fg.gradient(f, x)
            ref = fd_gradient(f, x)
            assert np.linalg.norm(g - ref) <= 1e-5 * (1.0 + np.linalg.norm(g))
            checked += 1


def test_criterion_03_ogd_regret_is_logarithmic():
    rep = regret_experiment("ogd", T=100_000)
    # stream constants: H = 1, G = 2, so 10 G^2 / H = 40
    assert rep.details["regret_over_log_t"] <= 40.0
    assert rep.exponent < 0.3


def test_criterion_04_mw_regret_within_bound_and_nontrivial():
    rep = regret_experiment("mw", T=10_000, seeds=20)
    assert rep.details["max_regret_over_bound"] <= 1.0
    T = 10_000
    mean_regret = float(np.mean([mw_signs_regret(T, s).regret for s in range(100)]))
    assert mean_regret >= 0.3 * math.sqrt(T)


def test_criterion_05_primal_iterations_scale_near_linearly():
    spec = fg.GeneratorSpec(family="strict_qp", n=10, m=20, h_target=1.0,
                            feasible=False, seed=0)
    start = time.perf_counter()
    rep = scaling_experiment(spec, "primal", "ogd", (0.1, 0.05, 0.025))
    assert time.perf_counter() - start < 60.0
    assert not rep.incomplete
    assert 0.8 <= rep.exponent <= 1.3


def test_criterion_06_dual_iterations_scale_near_quadratically():
    spec = fg.GeneratorSpec(family="perceptron_lp", n=10, m=20, margin=0.1,
                            feasible=True, seed=0)
    start = time.perf_counter()
    rep = scaling_experiment(spec, "dual", "mw", (0.1, 0.05, 0.025))
    assert time.perf_counter() - start < 60.0
    assert not rep.incomplete
    assert 1.7 <= rep.exponent <= 2.3


def test_criterion_07_fifty_instances_verify_without_contradiction():
    failures = []

    def run(prob, res, eps):
        rep = fg.verify_certificate(prob, res.outcome, eps)
        if not rep.ok:
            failures.append(rep.message)
        return res.outcome

    # 13 feasible quadratic systems, solved by two primal learners
    for seed in range(13):
        prob = fg.make_strict_qp(3, 3, h_target=1.0, feasible=True, seed=seed)
        group = [run(prob, fg.primal_game_opt(prob, 0.1, learner=lr), 0.1)
                 for lr in ("ogd", "ons")]
        assert all(isinstance(o, fg.Feasible) for o in group)
        fg.assert_no_contradiction(group)

    # 12 infeasible quadratic systems: the mixture minimum is certified > 0
    for seed in range(12):
        prob = fg.make_strict_qp(3, 3, h_target=1.0, feasible=False, seed=100 + seed)
        out = run(prob, fg.dual_game_opt(prob, 0.1), 0.1)
        assert isinstance(out, fg.Infeasible)

    # 13 feasible linear systems, solved from both sides
    for seed in range(13):
        prob = fg.make_perceptron_lp(3, 4, margin=0.1, feasible=True, seed=200 + seed)
        group = [run(prob, fg.dual_game_opt(prob, 0.1), 0.1),
                 run(prob, fg.primal_game_opt(prob, 0.1, learner="mw"), 0.1)]
        assert all(isinstance(o, fg.Feasible) for o in group)
        fg.assert_no_contradiction(group)

    # 12 infeasible linear systems at an eps below every violation depth,
    # where Feasible and Infeasible genuinely exclude each other
    eps = 0.02
    for seed in range(12):
        prob = fg.make_perceptron_lp(3, 4, feasible=False, seed=300 + seed)
        depth = brute_force_lambda_star(prob, 1e-3)
        assert depth.value - depth.slack > eps
        group = [run(prob, fg.dual_game_opt(prob, eps), eps),
                 run(prob, fg.primal_game_opt(prob, eps, learner="mw"), eps)]
        assert all(isinstance(o, fg.Infeasible) for o in group)
        fg.assert_no_contradiction(group)

    assert failures == []


def test_criterion_08_strictified_solutions_transfer_at_twice_eps():
    eps = 0.1
    delta, eps_original = fg.strictify_guarantee(eps)
    for seed in range(20):
        orig = fg.make_perceptron_lp(3, 4, margin=0.15, feasible=True, seed=seed)
        tight = fg.strictify(orig, delta)
        res = fg.primal_game_opt(tight, eps, learner="ogd")
        assert isinstance(res.outcome, fg.Feasible)
        back = fg.residuals(orig, res.outcome.x)
        assert float(np.max(back)) <= eps_original + 1e-12


def test_criterion_09_log_transform_preserves_the_optimum():
    rng = np.random.default_rng(70)
    for _ in range(10):
        prob = fg.make_problem(
            [fg.Affine(a=rng.normal(size=2), b=float(rng.normal()) * 0.2)
             for _ in range(2)],
            fg.Simplex(n=2),
        )
        out = fg.log_transform(prob)
        omega = prob.params.omega
        orig = brute_force_lambda_star(prob, 1e-3)
        new = brute_force_lambda_star(out, 1e-3)
        rho = -orig.value
        expected = 1.0 - math.log(math.e + rho / omega)
        slack = new.slack + orig.slack / (omega * (math.e - 1.0))
        assert new.value == pytest.approx(expected, abs=slack + 1e-9)


def test_criterion_10_primal_dual_finds_the_symmetric_game_value():
    prob = fg.make_problem(
        [fg.Affine(a=np.array([1.0, -1.0]), b=0.0),
         fg.Affine(a=np.array([-1.0, 1.0]), b=0.0)],
        fg.Simplex(n=2),
    )
    res = fg.primal_dual_game_opt(prob, 0.05, learner="mw")
    assert isinstance(res.outcome, fg.Feasible)
    value = float(np.max(fg.residuals(prob, res.outcome.x)))
    assert abs(value) <= 0.05


def _ons_conditioning_run(domain) -> int:
    """10,000 ONS steps on domain, each checked against the projection of
    the Newton point from an explicit inverse; the count of those points
    outside the domain."""
    rng = np.random.default_rng(11)
    state = fg.init_ons(domain, G=1.0, D=1.0)
    assert state.beta == 0.125
    assert np.array_equal(state.A, 64.0 * np.eye(10))
    outside = 0
    for _ in range(10_000):
        g = rng.normal(size=10)
        g /= max(1.0, float(np.linalg.norm(g)))
        # the projection of the Newton point x - A^-1 g / beta, from an
        # explicit inverse that ons_step does not keep
        y = state.x - (np.linalg.inv(state.A) @ g) / state.beta
        outside += not domain.contains(y)
        expected = fg.generalized_project(y, state.A, domain)
        state = fg.ons_step(state, g, domain)
        assert float(np.max(np.abs(state.x - expected))) <= 1e-9
    assert (state.A == state.A.T).all()
    lam_min, lam_max = state.spectrum_bounds()
    ev = np.linalg.eigvalsh(state.A)
    assert lam_min <= ev[0] and ev[-1] <= lam_max
    return outside


def test_criterion_11_ons_conditioning_stays_consistent():
    _ons_conditioning_run(fg.Ball(n=10, radius=100.0, center=np.zeros(10)))


def test_criterion_11_ons_conditioning_stays_consistent_on_a_box():
    # a box of diameter 0.63 <= D, which over a third of the Newton points
    # leave (3,702), so those steps take the box's pivoting solve
    assert _ons_conditioning_run(fg.Box(lo=np.full(10, -0.1), hi=np.full(10, 0.1))) > 3_000


def test_criterion_12_cli_exit_codes_and_standalone_reverification(tmp_path, capsys):
    feasible = {
        "version": 2,
        "domain": {"kind": "simplex", "n": 2},
        "constraints": [{"family": "norm_dist_sq", "center": [1.0, 0.0], "c": 2.0}],
    }
    infeasible = {
        "version": 2,
        "domain": {"kind": "simplex", "n": 2},
        "constraints": [{"family": "norm_dist_sq", "center": [0.0, 0.0], "c": 0.0}],
    }
    f_path, i_path = tmp_path / "f.json", tmp_path / "i.json"
    f_path.write_text(json.dumps(feasible))
    i_path.write_text(json.dumps(infeasible))

    f_out, i_out = tmp_path / "f_out.json", tmp_path / "i_out.json"
    assert main(["solve", "--problem", str(f_path), "--eps", "0.1",
                 "--out", str(f_out)]) == 0
    assert main(["solve", "--problem", str(i_path), "--eps", "0.1",
                 "--out", str(i_out)]) == 2
    assert main(["solve", "--problem", str(i_path), "--eps", "0.1",
                 "--max-iters", "1"]) == 3
    assert main(["solve", "--problem", str(f_path), "--eps", "0.1",
                 "--strictify", "0.1", "--log-transform"]) == 1

    # each emitted document re-verifies on its own content alone
    for path in (f_out, i_out):
        assert verify_outcome_document(path.read_text()).ok
        assert main(["verify", "--outcome", str(path)]) == 0
