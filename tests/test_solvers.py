"""Meta-solvers: stopping rules, the three game loops, and verification."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feasgame as fg
import feasgame.core as core
import feasgame.online as online
import feasgame.solvers as solvers
from feasgame.harness import run_solver
from feasgame.solvers import MAX_THRESHOLD
from conftest import constant_problem, random_constraint
from lattice import brute_force_lambda_star
from test_packed import EDGE


def norm_sq_problem(n=2, c=0.0):
    """Single constraint ||x||^2 - c on Simplex(n); infeasible for c = 0."""
    return fg.make_problem([fg.NormDistSq(center=np.zeros(n), c=c)], fg.Simplex(n=n))


def far_balls_problem(domain):
    """||x - a||^2 <= 0.25 and ||x + a||^2 <= 0.25 with |a| = 0.8 in 3-D:
    two disjoint balls, so infeasible on any domain."""
    a = np.array([0.8, 0.0, 0.0])
    return fg.make_problem([fg.NormDistSq(center=a, c=0.25), fg.NormDistSq(center=-a, c=0.25)],
                           domain)


def caps_problem():
    """Two affine caps x_i <= 0.6 on Simplex(2): feasible, no curvature."""
    return fg.make_problem(
        [fg.Affine(a=np.array([1.0, 0.0]), b=-0.6),
         fg.Affine(a=np.array([0.0, 1.0]), b=-0.6)],
        fg.Simplex(n=2),
    )


ALGOS = ("primal", "dual", "primal-dual")


def play(algo, **kwargs):
    """One solver on a problem that keeps it going for several rounds.

    Returns the problem, the result and the spec behind the trace's bound
    column (the point player's OGD bound, or the dual's MW bound).
    """
    if algo == "dual":
        prob = caps_problem()
        return prob, fg.dual_game_opt(prob, **kwargs), fg.mw_bound_spec(prob.params.G_inf, prob.m)
    prob = norm_sq_problem()
    solve = fg.primal_game_opt if algo == "primal" else fg.primal_dual_game_opt
    return prob, solve(prob, **kwargs), fg.ogd_bound_spec(prob.params.G, prob.params.H)


def scan_threshold(spec, eps, limit=10**6):
    for T in range(1, limit):
        if fg.regret_bound(spec, T) <= eps * T:
            return T
    raise AssertionError("threshold not reached in scan")


class TestStoppingThreshold:
    def test_zero_bound_stops_immediately(self):
        spec = fg.mw_bound_spec(G_inf=1.0, n=1)
        assert fg.stopping_threshold(spec, 0.1) == 1

    def test_log_bound_crossing(self):
        # bound 10 log(T+1) against 0.1 T crosses between 647 and 648
        spec = fg.ogd_bound_spec(G=math.sqrt(10.0), H=1.0)
        assert fg.stopping_threshold(spec, 0.1) == 648

    def test_sqrt_bound_crossing(self):
        spec = fg.mw_bound_spec(G_inf=1.0, n=2)
        assert fg.stopping_threshold(spec, 0.1) == 278

    def test_matches_linear_scan(self):
        specs = [
            fg.ogd_bound_spec(G=1.0, H=1.0),
            fg.ogd_bound_spec(G=3.0, H=0.5),
            fg.mw_bound_spec(G_inf=0.7, n=5),
            fg.ons_bound_spec(G=1.0, D=1.0, alpha=0.5, n=3),
        ]
        for spec in specs:
            for eps in (0.5, 0.1, 0.03):
                assert fg.stopping_threshold(spec, eps) == scan_threshold(spec, eps)

    def test_threshold_is_tight(self):
        # T* satisfies the bound, T* - 1 does not
        spec = fg.mw_bound_spec(G_inf=2.0, n=4)
        eps = 0.02
        T = fg.stopping_threshold(spec, eps)
        assert fg.regret_bound(spec, T) <= eps * T
        assert fg.regret_bound(spec, T - 1) > eps * (T - 1)

    def test_unreachable_threshold_errors(self):
        with pytest.raises(fg.SetupError):
            fg.stopping_threshold(fg.mw_bound_spec(G_inf=1e9, n=2), 1e-12)
        assert MAX_THRESHOLD == 2**62

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(fg.SetupError):
            fg.stopping_threshold(fg.ogd_bound_spec(1.0, 1.0), 0.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_eps(self, eps):
        # an infinite eps used to give T* = 1, and the outcome document then
        # carried "eps": Infinity, which is not JSON and which verify refused
        with pytest.raises(fg.SetupError, match=r"eps must be a positive finite float"):
            fg.stopping_threshold(fg.ogd_bound_spec(1.0, 1.0), eps)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
@pytest.mark.parametrize("algo", ["primal", "dual", "primal-dual"])
def test_every_solver_refuses_a_non_finite_eps(algo, eps):
    with pytest.raises(fg.SetupError, match=r"eps must be a positive finite float"):
        run_solver(norm_sq_problem(), algo, None, eps)


class TestPrimal:
    def test_satisfied_at_start_returns_first_play(self):
        prob = constant_problem([-1.0])
        out = fg.primal_game_opt(prob, eps=0.1, learner="mw")
        assert isinstance(out.outcome, fg.Feasible)
        assert out.iterations == 1
        assert np.allclose(out.outcome.x, [0.5, 0.5], atol=1e-12)
        assert out.outcome.residuals[0] == -1.0

    def test_infeasible_single_constraint(self):
        out = fg.primal_game_opt(norm_sq_problem(), eps=0.1)
        assert isinstance(out.outcome, fg.Infeasible)
        assert np.array_equal(out.outcome.p_bar, [1.0])
        rep = fg.verify_certificate(norm_sq_problem(), out.outcome, 0.1)
        assert rep.ok and rep.value == pytest.approx(0.5, abs=0.01)

    def test_feasible_shifted_ball(self):
        prob = fg.make_problem(
            [fg.NormDistSq(center=np.array([1.0, 0.0]), c=2.0)], fg.Simplex(n=2)
        )
        out = fg.primal_game_opt(prob, eps=0.1)
        assert isinstance(out.outcome, fg.Feasible)
        assert max(fg.residuals(prob, out.outcome.x)) <= 0.1

    def test_average_weights_are_visit_frequencies(self):
        prob = fg.make_problem(
            [fg.NormDistSq(center=np.zeros(2), c=0.0),
             fg.NormDistSq(center=np.zeros(2), c=0.1)],
            fg.Simplex(n=2),
        )
        rows = []
        out = fg.primal_game_opt(prob, eps=0.05, trace_sink=rows.append)
        assert isinstance(out.outcome, fg.Infeasible)
        counts = np.zeros(2)
        for rec in rows:
            counts[rec.violated_index] += 1
        assert np.array_equal(out.outcome.p_bar, counts / out.iterations)

    def test_stops_no_later_than_threshold(self):
        prob = norm_sq_problem()
        spec = fg.ogd_bound_spec(prob.params.G, prob.params.H)
        assert fg.primal_game_opt(prob, eps=0.1).iterations == fg.stopping_threshold(spec, 0.1)

    def test_learner_update_reads_one_constraint(self, monkeypatch):
        # the learner's side must stay O(n): one gradient per round no matter
        # how many constraints the problem has
        cons = [fg.NormDistSq(center=np.zeros(4), c=0.0) for _ in range(30)]
        prob = fg.make_problem(cons, fg.Simplex(n=4))
        calls = {"n": 0}
        real = core.gradient

        def counting(f, x):
            calls["n"] += 1
            return real(f, x)

        monkeypatch.setattr(core, "gradient", counting)
        out = fg.primal_game_opt(prob, eps=0.1, max_iters=50)
        assert calls["n"] <= out.iterations

    def test_ogd_needs_curvature(self):
        prob = fg.make_problem([fg.Affine(a=np.array([1.0, -1.0]), b=0.0)], fg.Simplex(n=2))
        with pytest.raises(fg.SetupError):
            fg.primal_game_opt(prob, eps=0.1, learner="ogd")

    def test_mw_learner_runs_on_simplex(self):
        prob = fg.make_problem([fg.Affine(a=np.array([1.0, 1.0]), b=-2.0)], fg.Simplex(n=2))
        out = fg.primal_game_opt(prob, eps=0.1, learner="mw")
        assert isinstance(out.outcome, fg.Feasible)

    def test_ons_learner_solves_quadratic(self):
        prob = fg.make_problem(
            [fg.NormDistSq(center=np.array([1.0, 0.0]), c=2.0)], fg.Simplex(n=2)
        )
        out = fg.primal_game_opt(prob, eps=0.1, learner="ons")
        assert isinstance(out.outcome, fg.Feasible)

    def test_deterministic_replay(self):
        rows_a, rows_b = [], []
        a = fg.primal_game_opt(norm_sq_problem(), eps=0.07, trace_sink=rows_a.append)
        b = fg.primal_game_opt(norm_sq_problem(), eps=0.07, trace_sink=rows_b.append)
        assert a.iterations == b.iterations
        assert np.array_equal(a.outcome.p_bar, b.outcome.p_bar)
        for ra, rb in zip(rows_a, rows_b):
            assert ra.violation == rb.violation



def primal_asking_every_round(problem, eps, learner, max_iters, trace_sink):
    """primal_game_opt's game with the separation oracle and the violated
    row's gradient asked in every round, as before an unmoved point re-used
    its answer, and the visit counts in a float array, as before they were
    ints; returns what _play_game does."""
    player = solvers._point_learner(problem, learner)
    T_star = fg.stopping_threshold(player.spec, eps)
    state = player.init(T_star)
    counts = np.zeros(problem.m)

    def round_():
        nonlocal state
        x_t = player.play(state)
        hit = core.separation_oracle(problem, x_t, eps)
        if hit is None:
            res = core.residuals(problem, x_t)
            worst = float(res.max())
            return x_t, None, worst, worst, fg.Feasible(x=x_t, residuals=res)
        counts[hit.index] += 1
        state = player.step(state, core.residual_gradient(problem, hit.index, x_t))
        return x_t, hit.index, hit.value, hit.value, None

    return solvers._play_game(problem, player.spec, T_star, round_,
                              lambda T: fg.Infeasible(p_bar=counts / T), max_iters, trace_sink)


def outcome_bits(outcome):
    """An outcome's kind and the bytes of each of its fields."""
    return (type(outcome).__name__,
            *(np.asarray(getattr(outcome, f.name), float).tobytes()
              for f in dataclasses.fields(outcome)))


def ons_oscillating_problem():
    """Three balls on Simplex(2) under which ONS (eps 0.05) reaches e_0 in
    round 14 and then alternates between e_0 and an interior point."""
    return fg.make_problem(
        [fg.NormDistSq(center=np.array([0.6, 0.4]), c=0.22),
         fg.NormDistSq(center=np.array([1.0, -0.8]), c=0.49),
         fg.NormDistSq(center=np.array([0.3, 1.3]), c=0.03)], fg.Simplex(n=2))


def corners_problem():
    """Balls of radius^2 0.3 about the vertices of Simplex(3): primal OGD at
    eps 0.3 ends Infeasible after 91 rounds with weight on all three rows."""
    return fg.make_problem([fg.NormDistSq(center=e, c=0.3) for e in np.eye(3)], fg.Simplex(n=3))


def two_rows_problem():
    """x_1 <= 0.3 and x_2 <= 0.3 on Simplex(2): log-transformed, primal ONS at
    eps 0.1 ends Infeasible after 2,344 rounds with p_bar about (0.51, 0.49)."""
    return fg.make_problem([fg.Affine(a=np.array([1.0, 0.0]), b=-0.3),
                            fg.Affine(a=np.array([0.0, 1.0]), b=-0.3)], fg.Simplex(n=2))


@pytest.mark.parametrize("learner, prob, eps, max_iters", [
    ("ogd", norm_sq_problem(), 0.3, None),
    ("ogd", fg.make_problem([fg.NormDistSq(center=np.array([1.0, 0.0]), c=0.3)],
                            fg.Simplex(n=2)), 0.1, None),
    ("ogd", fg.make_strict_qp(10, 20, feasible=False), 0.3, 2000),
    ("mw", norm_sq_problem(), 0.3, None),
    ("mw", fg.make_strict_qp(10, 20, feasible=False), 0.3, 2000),
    ("ons", norm_sq_problem(), 0.3, 300),
    ("ons", ons_oscillating_problem(), 0.05, 40),
    ("ons", fg.log_transform(fg.make_perceptron_lp(3, 4, feasible=False, seed=2)), 0.1, 400),
    ("ons", fg.log_transform(fg.make_perceptron_lp(10, 20, feasible=False, seed=3)), 0.05, None),
    ("ogd", corners_problem(), 0.3, None),
    ("ons", fg.log_transform(two_rows_problem()), 0.1, None),
], ids=["ogd-norm", "ogd-fail", "ogd-qp", "mw-norm", "mw-qp", "ons-norm", "ons-return",
        "ons-vertex", "ons-fail", "ogd-p-bar", "ons-p-bar"])
def test_unmoved_points_reuse_answers_without_changing_the_run(monkeypatch, learner, prob,
                                                               eps, max_iters):
    # the reference asks the oracle every round, and its ONS steps take the
    # exact KKT solve at a vertex too: the records but their clocks, and the
    # outcome's bits (p_bar's among them, the p-bar cases on several rows),
    # must be the same
    rows = []
    out = fg.primal_game_opt(prob, eps, learner, max_iters=max_iters, trace_sink=rows.append)
    with monkeypatch.context() as m:
        m.setattr(online, "_vertex_rule", lambda x, g, beta: None)
        ref_rows = []
        ref = primal_asking_every_round(prob, eps, learner, max_iters, ref_rows.append)
    assert [repr(r._replace(elapsed_ns=0)) for r in rows] == [
        repr(r._replace(elapsed_ns=0)) for r in ref_rows]
    assert (out.iterations, out.T_star, out.ended_by) == ref[2:]
    assert outcome_bits(out.outcome) == outcome_bits(ref[0])
    assert [repr(r._replace(elapsed_ns=0)) for r in out.trace] == [
        repr(r._replace(elapsed_ns=0)) for r in ref[1]]


def test_only_the_last_point_is_reused(monkeypatch):
    # ONS plays e_0 in every other round from round 14 to 30: e_0 was played
    # two rounds before, not one, so each of those rounds asks the oracle
    calls = []
    real = solvers.separation_oracle
    monkeypatch.setattr(solvers, "separation_oracle",
                        lambda prob, x, eps: calls.append(x.copy()) or real(prob, x, eps))
    out = fg.primal_game_opt(ons_oscillating_problem(), 0.05, "ons", max_iters=40)
    assert out.iterations == len(calls) == 40
    vertex = np.array([1.0, 0.0]).tobytes()
    assert [x.tobytes() == vertex for x in calls[13:30]] == [True, False] * 8 + [True]

class TestDual:
    def test_unsatisfiable_mixture_flags_immediately(self):
        prob = constant_problem([1.0])
        out = fg.dual_game_opt(prob, eps=0.1)
        assert isinstance(out.outcome, fg.Infeasible)
        assert out.iterations == 1
        assert np.array_equal(out.outcome.p_bar, [1.0])
        assert out.eps_effective == 0.1
        assert out.trace[0].violation == math.inf

    def test_two_affine_caps_average_near_center(self):
        prob = fg.make_problem(
            [fg.Affine(a=np.array([1.0, 0.0]), b=-0.6),
             fg.Affine(a=np.array([0.0, 1.0]), b=-0.6)],
            fg.Simplex(n=2),
        )
        out = fg.dual_game_opt(prob, eps=0.05)
        assert isinstance(out.outcome, fg.Feasible)
        assert max(out.outcome.residuals) <= 0.05 + 1e-12
        assert np.allclose(out.outcome.x, [0.5, 0.5], atol=0.15)

    def test_exact_affine_path_keeps_eps(self):
        prob = fg.make_problem(
            [fg.Affine(a=np.array([1.0, 0.0]), b=-0.6)], fg.Simplex(n=2)
        )
        out = fg.dual_game_opt(prob, eps=0.1)
        assert out.eps_effective == 0.1

    def test_smooth_path_widens_eps(self):
        prob = fg.make_problem(
            [fg.NormDistSq(center=np.array([1.0, 0.0]), c=2.0)], fg.Simplex(n=2)
        )
        out = fg.dual_game_opt(prob, eps=0.1)
        assert out.eps_effective == pytest.approx(0.15, abs=1e-12)
        assert isinstance(out.outcome, fg.Feasible)
        assert max(out.outcome.residuals) <= out.eps_effective

    def test_weight_scale_is_value_bound(self):
        prob = fg.make_problem(
            [fg.Affine(a=np.array([1.0, 0.0]), b=-0.6),
             fg.Affine(a=np.array([0.0, 1.0]), b=-0.6)],
            fg.Simplex(n=2),
        )
        assert prob.params.G_inf == prob.params.omega
        rows = []
        fg.dual_game_opt(prob, eps=0.05, trace_sink=rows.append)
        spec = fg.mw_bound_spec(prob.params.G_inf, prob.m)
        for rec in rows:
            assert rec.regret_bound == fg.regret_bound(spec, rec.iteration)

    def test_oracle_iteration_budget_distinct_from_fail(self, monkeypatch):
        # a starved inner solve is a numeric failure, not an infeasibility
        # verdict: the flat direction of this quadratic needs many steps
        prob = fg.make_problem(
            [fg.Quadratic(A=np.diag([100.0, 1.0]), b=np.zeros(2), c=0.05)],
            fg.Simplex(n=2),
        )
        monkeypatch.setattr(fg.descent, "MAX_STEPS", 2)
        with pytest.raises(fg.ConvergenceError):
            fg.optimization_oracle(prob, np.array([1.0]), tol=1e-13)


class TestPrimalDual:
    def test_symmetric_game_value_recovered(self):
        prob = fg.make_problem(
            [fg.Affine(a=np.array([1.0, -1.0]), b=0.0),
             fg.Affine(a=np.array([-1.0, 1.0]), b=0.0)],
            fg.Simplex(n=2),
        )
        out = fg.primal_dual_game_opt(prob, eps=0.05, learner="mw")
        assert isinstance(out.outcome, fg.Feasible)
        x = out.outcome.x
        assert abs(x[0] - x[1]) <= 0.05

    def test_single_constraint_matches_primal_trajectory(self):
        prob = norm_sq_problem()
        rows_pd, rows_pr = [], []
        fg.primal_dual_game_opt(prob, eps=0.1, trace_sink=rows_pd.append)
        fg.primal_game_opt(prob, eps=0.1, trace_sink=rows_pr.append)
        for ra, rb in zip(rows_pd, rows_pr):
            assert ra.violation == rb.violation

    def test_relaxed_infeasibility_certificate(self):
        out = fg.primal_dual_game_opt(norm_sq_problem(), eps=0.1)
        assert isinstance(out.outcome, fg.EpsilonInfeasible)
        assert np.array_equal(out.outcome.p_bar, [1.0])
        rep = fg.verify_certificate(norm_sq_problem(), out.outcome, 0.1)
        assert rep.ok

    def test_trace_reports_point_player_bound(self):
        prob = norm_sq_problem()
        rows = []
        fg.primal_dual_game_opt(prob, eps=0.1, trace_sink=rows.append)
        spec = fg.ogd_bound_spec(prob.params.G, prob.params.H)
        for rec in rows[:20]:
            assert rec.regret_bound == fg.regret_bound(spec, rec.iteration)


# runs of each solver that end by each way a run can end: (learner, problem,
# eps, max_iters, ended_by); the primal-dual game has no oracle to FAIL
ENDINGS = {
    "primal": [
        ("mw", fg.make_problem([fg.Affine(a=np.array([1.0, 0.0]), b=-0.3)], fg.Simplex(n=2)),
         0.1, None, "oracle"),
        ("ogd", norm_sq_problem(), 0.3, None, "horizon"),
        ("ogd", norm_sq_problem(), 0.3, 54, "horizon"),  # a cap at T* is no cap
        ("ogd", norm_sq_problem(), 0.3, 5, "cap"),
    ],
    "dual": [
        (None, fg.make_problem([fg.Affine(a=np.zeros(2), b=0.3),
                                fg.Affine(a=np.array([1.0, 0.0]), b=-1.0)], fg.Simplex(n=2)),
         0.3, None, "oracle"),
        (None, caps_problem(), 0.3, None, "horizon"),
        (None, caps_problem(), 0.3, 5, "cap"),
    ],
    "primal-dual": [
        ("ogd", norm_sq_problem(), 0.3, None, "horizon"),
        ("mw", caps_problem(), 0.3, 5, "cap"),
    ],
}


each_ending = pytest.mark.parametrize(
    "algo, learner, prob, eps, max_iters, ending",
    [(algo, *case) for algo, cases in ENDINGS.items() for case in cases],
    ids=[f"{algo}-{case[-1]}-{i}" for algo, cases in ENDINGS.items()
         for i, case in enumerate(cases)])


def expected_T_star(algo, learner, prob, eps):
    """The horizon from each player's regret bound, computed apart from the solvers."""
    p = prob.params
    weights = fg.mw_bound_spec(p.G_inf, prob.m)
    if algo == "dual":
        return fg.stopping_threshold(weights, eps)
    point = fg.ogd_bound_spec(p.G, p.H) if learner == "ogd" else fg.mw_bound_spec(p.G, prob.n)
    if algo == "primal":
        return fg.stopping_threshold(point, eps)
    return max(fg.stopping_threshold(point, eps / 2), fg.stopping_threshold(weights, eps / 2))


@pytest.mark.parametrize("algo", ALGOS)
class TestTrace:
    def test_iterations_count_from_one(self, algo):
        rows = []
        _, out, _ = play(algo, eps=0.2, trace_sink=rows.append)
        assert out.iterations > 1
        assert [rec.iteration for rec in rows] == list(range(1, out.iterations + 1))

    def test_bound_column_is_exact_recompute(self, algo):
        rows = []
        _, out, spec = play(algo, eps=0.2, trace_sink=rows.append)
        for rec in rows:
            assert rec.regret_bound == fg.regret_bound(spec, rec.iteration)

    def test_sink_sees_every_row(self, algo):
        rows = []
        _, out, _ = play(algo, eps=0.2, trace_sink=rows.append)
        assert len(rows) == out.iterations
        assert all(rec is rows[rec.iteration - 1] for rec in out.trace)

    def test_elapsed_is_positive(self, algo):
        rows = []
        play(algo, eps=0.3, trace_sink=rows.append)
        assert all(rec.elapsed_ns >= 0 for rec in rows)

    def test_sample_is_powers_of_two_and_the_last_round(self, algo):
        _, out, _ = play(algo, eps=0.2)
        powers = [1 << k for k in range(out.iterations.bit_length())]
        assert out.iterations not in powers  # so the last round is an extra record
        assert [rec.iteration for rec in out.trace] == powers + [out.iterations]

    def test_sample_keeps_the_final_round_however_the_run_ends(self, algo):
        for learner, prob, eps, max_iters, ending in ENDINGS[algo]:
            rows = []
            out = run_solver(prob, algo, learner, eps, max_iters=max_iters,
                             trace_sink=rows.append)
            assert out.ended_by == ending
            assert out.iterations == len(rows) > 2
            assert out.trace[-1] is rows[-1]
            assert out.trace[-2].iteration < out.iterations


@each_ending
def test_sample_without_a_sink_is_the_sink_records_it_keeps(algo, learner, prob, eps,
                                                             max_iters, ending):
    # without a sink only the kept rounds' records are built; they must be
    # the records a sink gets, except for the clock
    rows = []
    run_solver(prob, algo, learner, eps, max_iters=max_iters, trace_sink=rows.append)
    out = run_solver(prob, algo, learner, eps, max_iters=max_iters)
    assert out.ended_by == ending and out.iterations == len(rows)
    kept = [t for t in range(1, out.iterations + 1) if not t & (t - 1) or t == out.iterations]
    assert [rec.iteration for rec in out.trace] == kept
    for rec in out.trace:
        assert rec.elapsed_ns >= 0
        assert rec._replace(elapsed_ns=0) == rows[rec.iteration - 1]._replace(elapsed_ns=0)


def test_trace_memory_does_not_grow_with_the_horizon():
    # without a sink, a run capped at 2^15 rounds holds no more than one
    # capped at 2^10: one record per round would be about 8 MB more
    prob = norm_sq_problem()
    peaks = []
    for cap in (2**10, 2**15):
        tracemalloc.start()
        try:
            out = fg.primal_game_opt(prob, eps=0.001, max_iters=cap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert out.ended_by == "cap" and out.T_star > 2**15  # no FAIL ended it early
        assert out.iterations == cap
        assert len(out.trace) <= 64
    assert peaks[1] - peaks[0] <= 64 * 1024


# the layer functions the solvers call through their module, where the
# benchmark's tracer wraps them
LAYERS = ("separation_oracle", "residuals", "residual_gradient", "residuals_and_mixed_gradient",
          "optimization_oracle", "minimize_over_domain", "ons_step", "ogd_step", "mw_step",
          "mw_point")


def expected_layer_calls(algo, learner, out, points):
    """Calls of each layer that the rounds of a finished run imply, given
    the points the primal player played."""
    rounds = out.iterations
    # the round in which an oracle answered FAIL ends the game without a step
    fail = int((algo == "primal" and isinstance(out.outcome, fg.Feasible))
               or (algo == "dual" and isinstance(out.outcome, fg.Infeasible)))
    steps = rounds - fail
    horizon = int(not fail and not isinstance(out.outcome, fg.Exhausted))
    calls = dict.fromkeys(LAYERS, 0)
    if algo == "primal":
        # the oracle and the gradient are asked again only when the point's
        # bits moved; a point that did not move cannot FAIL, as it did not
        # the round before
        assert len(points) == rounds
        moved = 1 + sum(a.tobytes() != b.tobytes() for a, b in zip(points, points[1:]))
        calls.update(separation_oracle=moved, residuals=fail, residual_gradient=moved - fail)
    elif algo == "dual":
        calls.update(optimization_oracle=rounds, mw_point=rounds, mw_step=steps,
                     residuals=steps + horizon)
    else:  # one evaluation pass per round; the horizon's x_bar takes residuals
        calls.update(mw_point=rounds, mw_step=rounds, residuals_and_mixed_gradient=rounds,
                     residuals=horizon)
    if learner == "mw":
        calls["mw_point"] += rounds
        calls["mw_step"] += steps
    elif learner is not None:
        calls[f"{learner}_step"] += steps
    return calls


class TestDriver:
    """What the one game driver does the same way for every solver."""

    @pytest.mark.parametrize("algo", ALGOS)
    def test_max_iters_exhausts_with_best_iterate(self, algo):
        rows = []
        prob, out, _ = play(algo, eps=0.1, max_iters=3, trace_sink=rows.append)
        assert isinstance(out.outcome, fg.Exhausted)
        assert out.iterations == 3
        assert out.outcome.best_violation == min(rec.violation for rec in rows)
        assert out.outcome.best_violation == pytest.approx(
            max(fg.residuals(prob, out.outcome.best_x)), abs=1e-12)
        assert fg.verify_certificate(prob, out.outcome, 0.1).ok

    @each_ending
    def test_result_reports_horizon_and_ending(self, algo, learner, prob, eps, max_iters,
                                               ending):
        out = run_solver(prob, algo, learner, eps, max_iters=max_iters)
        assert out.T_star == expected_T_star(algo, learner, prob, eps)
        assert out.ended_by == ending
        if ending == "oracle":
            assert out.iterations < out.T_star
            kind = fg.Feasible if algo == "primal" else fg.Infeasible
            assert isinstance(out.outcome, kind)
        elif ending == "horizon":
            assert out.iterations == out.T_star
            assert not isinstance(out.outcome, fg.Exhausted)
        else:
            assert out.iterations == max_iters < out.T_star
            assert isinstance(out.outcome, fg.Exhausted)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_max_iters_below_one_is_refused(self, algo):
        with pytest.raises(fg.SetupError, match="max_iters must be >= 1"):
            play(algo, eps=0.1, max_iters=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, 3.0, True, False, "3", -1],
                             ids=["nan", "inf", "2.5", "3.0", "True", "False", "str", "-1"])
    @pytest.mark.parametrize("algo", ALGOS)
    def test_max_iters_that_is_not_an_int_is_refused_before_a_round(self, algo, bad):
        # a NaN cap used to play the full horizon, 2.5 raised a bare
        # TypeError, and True played one round
        rows = []
        with pytest.raises(fg.SetupError, match=r"max_iters must be >= 1 and an int .*, got"):
            play(algo, eps=0.1, max_iters=bad, trace_sink=rows.append)
        assert rows == []

    @pytest.mark.parametrize("algo, learner, prob, eps, max_iters, kind", [
        ("primal", "ogd", norm_sq_problem(), 0.3, None, fg.Infeasible),
        ("primal", "ogd", fg.make_problem([fg.NormDistSq(center=np.array([1.0, 0.0]), c=0.3)],
                                          fg.Simplex(n=2)), 0.1, None, fg.Feasible),
        ("primal", "ons", norm_sq_problem(), 0.3, 30, fg.Exhausted),
        ("primal", "mw", norm_sq_problem(), 0.3, None, fg.Infeasible),
        ("dual", None, caps_problem(), 0.3, None, fg.Feasible),
        ("dual", None, caps_problem(), 0.1, 7, fg.Exhausted),
        ("dual", None, constant_problem([1.0]), 0.1, None, fg.Infeasible),
        ("primal-dual", "ogd", norm_sq_problem(), 0.3, None, fg.EpsilonInfeasible),
        ("primal-dual", "ons", norm_sq_problem(), 0.3, 30, fg.Exhausted),
        ("primal-dual", "mw", fg.make_problem(
            [fg.Affine(a=np.array([1.0, -1.0]), b=0.0), fg.Affine(a=np.array([-1.0, 1.0]), b=0.0)],
            fg.Simplex(n=2)), 0.3, None, fg.Feasible),
    ], ids=["primal-ogd-horizon", "primal-ogd-fail", "primal-ons-cap", "primal-mw-horizon",
            "dual-horizon", "dual-cap", "dual-fail", "primal-dual-ogd-horizon",
            "primal-dual-ons-cap", "primal-dual-mw-horizon"])
    def test_layers_are_looked_up_at_call_time(self, monkeypatch, algo, learner, prob, eps,
                                               max_iters, kind):
        calls = dict.fromkeys(LAYERS, 0)
        for name in LAYERS:
            def counting(*args, _real=getattr(solvers, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(solvers, name, counting)
        points = []
        point_learner = solvers._point_learner

        def recording(*args):
            player = point_learner(*args)
            return player._replace(play=lambda s: points.append(player.play(s)) or points[-1])

        monkeypatch.setattr(solvers, "_point_learner", recording)
        out = run_solver(prob, algo, learner, eps, max_iters=max_iters)
        assert isinstance(out.outcome, kind)
        assert calls == expected_layer_calls(algo, learner, out, points)


# Infeasible instances of each generator family, m = 4; crp's barrier
# certificates can run the descent's full cap from n = 4, so crp stays at n <= 3.
GENERATED = {
    "qp": lambda n, seed: fg.make_strict_qp(n, 4, feasible=False, seed=seed),
    "lp": lambda n, seed: fg.make_perceptron_lp(n, 4, feasible=False, seed=seed),
    "portfolio": lambda n, seed: fg.make_portfolio_risk(n, 4, seed=seed),
    "log_lp": lambda n, seed: fg.log_transform(
        fg.make_perceptron_lp(n, 4, feasible=False, seed=seed)),
    "entropy": lambda n, seed: fg.make_entropy_problem(n, 4, seed=seed),
    "crp": lambda n, seed: fg.make_crp_problem(min(n, 3), 2, seed=seed),
}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(GENERATED)), st.integers(2, 10), st.integers(0, 9),
       st.integers(-1, 3))
def test_every_generated_mixture_gets_a_report(family, n, seed, vertex):
    # vertex -1 draws Dirichlet weights, any other picks one constraint (crp has 2)
    prob = GENERATED[family](n, seed)
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(prob.m)) if vertex < 0 else np.eye(prob.m)[vertex % prob.m]
    rep = fg.verify_certificate(prob, fg.Infeasible(p_bar=p), 0.1)
    assert rep.method == "pgd"
    assert rep.ok == (rep.value > 0.0)


class TestVerification:
    def test_false_feasible_claim_names_witness(self):
        prob = constant_problem([0.11])
        claim = fg.Feasible(x=np.array([0.5, 0.5]), residuals=np.array([0.11]))
        rep = fg.verify_certificate(prob, claim, 0.1)
        assert not rep.ok
        assert rep.witness_index == 0
        assert rep.method == "evaluate"

    def test_true_feasible_claim(self):
        prob = constant_problem([-1.0])
        claim = fg.Feasible(x=np.array([0.5, 0.5]), residuals=np.array([-1.0]))
        assert fg.verify_certificate(prob, claim, 0.0).ok

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("claim", [
        fg.Feasible(x=np.array([0.5, 0.5]), residuals=np.array([-1.0])),
        fg.Infeasible(p_bar=np.array([1.0])),
        fg.EpsilonInfeasible(p_bar=np.array([1.0])),
    ], ids=["feasible", "infeasible", "epsilon_infeasible"])
    def test_a_non_finite_eps_is_refused(self, claim, eps):
        # a NaN eps used to give a report: "residual ... > nan" for a point,
        # "certified lower bound 0 does not exceed nan" for a weight vector
        with pytest.raises(fg.SetupError, match=r"eps must be finite"):
            fg.verify_certificate(constant_problem([-1.0]), claim, eps)

    def test_false_certificate_in_low_dimension_is_refused(self):
        # f = ||x - c||^2 - 2.5e-7 is -2.5e-7 at its center c on the simplex,
        # so the system is feasible, yet f is positive at every point of a
        # grid of spacing 1e-3: a proof must not rest on sampled values
        prob = fg.make_problem([fg.NormDistSq(center=np.array([0.5005, 0.4995]), c=2.5e-7)],
                               fg.Simplex(n=2))
        rep = fg.verify_certificate(prob, fg.Infeasible(p_bar=np.array([1.0])), 0.1)
        assert rep.method == "pgd"
        assert not rep.ok
        assert rep.value <= 0.0

    @pytest.mark.parametrize("domain", [
        fg.Ball(n=3, radius=1.0, center=np.zeros(3)),
        fg.Box(lo=-np.ones(3), hi=np.ones(3)),
    ], ids=["ball", "box"])
    def test_three_dimensional_certificates_verify(self, domain):
        prob = far_balls_problem(domain)
        out = fg.dual_game_opt(prob, 0.1).outcome
        assert isinstance(out, fg.Infeasible)
        rep = fg.verify_certificate(prob, out, 0.1)
        assert rep.method == "pgd"
        assert rep.ok
        # half of each: ||x||^2 + 0.64 - 0.25 is least at 0
        assert rep.value == pytest.approx(0.39, abs=1e-9)

    def test_certificate_descents_close_in_a_few_steps(self, monkeypatch):
        # near the minimum the line search's differences drop below
        # rounding; a step that still doubled there would bounce around the
        # minimizer and run each descent to its 200,000-step cap
        steps = []
        descend = solvers.minimize_over_domain

        def counted(*args, **kwargs):
            res = descend(*args, **kwargs)
            steps.append(res.iterations)
            return res

        # the dual oracle descends through the descent module's own name, so
        # only the certificate descents are counted
        monkeypatch.setattr(solvers, "minimize_over_domain", counted)
        for seed in range(100, 112):
            prob = fg.make_strict_qp(3, 3, h_target=1.0, feasible=False, seed=seed)
            assert fg.verify_certificate(prob, fg.dual_game_opt(prob, 0.1).outcome, 0.1).ok
        assert len(steps) == 12
        assert max(steps) < 100

    def test_primal_ogd_certificate_of_the_infeasible_qp_verifies(self):
        # p_bar = e_0 is what primal OGD plays at eps 0.1 on this instance;
        # its check used to halve the line-search step to 0.0 and divide by it
        prob = fg.make_strict_qp(10, 20, feasible=False, seed=0)
        rep = fg.verify_certificate(prob, fg.Infeasible(p_bar=np.eye(20)[0]), 0.1)
        assert rep.ok
        assert rep.value >= 1.56

    def test_entropy_dual_solve_ends_verified(self):
        # the oracle's line search used to step off the entropy's domain
        prob = fg.make_entropy_problem(5, 4)
        out = fg.dual_game_opt(prob, 0.1).outcome
        assert fg.verify_certificate(prob, out, 0.1).ok

    def test_descent_certificate_for_larger_dimension(self):
        prob = norm_sq_problem(n=4)
        rep = fg.verify_certificate(prob, fg.Infeasible(p_bar=np.array([1.0])), 0.1)
        assert rep.method == "pgd"
        assert rep.ok
        assert rep.value >= 0.2  # min of ||x||^2 on Simplex(4) is 1/4

    def test_bad_weight_vector_rejected(self):
        with pytest.raises(fg.InvalidDistribution):
            fg.verify_certificate(norm_sq_problem(), fg.Infeasible(p_bar=np.array([0.4, 0.4])), 0.1)

    @pytest.mark.parametrize("kind", [fg.Infeasible, fg.EpsilonInfeasible])
    def test_a_weight_vector_for_an_indefinite_quadratic_is_rejected(self, kind):
        # f(1, 0) = -4.5, yet the descent starts at the stationary (1/2, 1/2)
        # where f = 0.5, and a Frank-Wolfe bound there claimed min f = 0.5
        rep = fg.verify_certificate(concave_problem(), kind(p_bar=np.array([0.5, 0.5])), 0.1)
        assert (rep.ok, rep.witness_index, rep.value, rep.steps) == (False, 1, None, None)
        assert rep.message == "constraint 1 is an indefinite quadratic"

    def test_the_report_counts_steps_only_where_a_descent_runs(self, monkeypatch):
        # ||x - (1, 1, 0, 0)||^2 on Simplex(4): its minimum 1/2 is off the start
        prob = fg.make_problem([fg.NormDistSq(center=np.array([1.0, 1.0, 0.0, 0.0]), c=0.0)],
                               fg.Simplex(n=4))
        runs = []
        descend = solvers.minimize_over_domain

        def counted(*args, **kwargs):
            runs.append(descend(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(solvers, "minimize_over_domain", counted)
        rep = fg.verify_certificate(prob, fg.Infeasible(p_bar=np.array([1.0])), 0.1)
        assert rep.ok and len(runs) == 1 and rep.steps == runs[0].iterations >= 1
        x = np.full(4, 0.25)
        for outcome in (fg.Feasible(x=x, residuals=fg.residuals(prob, x)),
                        fg.Exhausted(best_x=x, best_violation=1.0)):
            assert fg.verify_certificate(prob, outcome, 0.1).steps is None
        assert len(runs) == 1

    def test_contradiction_detector(self):
        feas = fg.Feasible(x=np.array([0.5, 0.5]), residuals=np.array([-1.0]))
        infeas = fg.Infeasible(p_bar=np.array([1.0]))
        with pytest.raises(fg.CertificateContradiction):
            fg.assert_no_contradiction([feas, infeas])
        fg.assert_no_contradiction([feas, fg.EpsilonInfeasible(p_bar=np.array([1.0]))])
        fg.assert_no_contradiction([feas, fg.Exhausted(best_x=np.array([0.5, 0.5]),
                                                       best_violation=0.2)])


def concave_problem():
    """A constant row, then -10 |x|^2 + 10 (x_1 + x_2) - 4.5 on Simplex(2):
    feasible at a vertex, where the quadratic is -4.5."""
    return fg.make_problem([fg.Affine(a=np.zeros(2), b=-1.0),
                            fg.Quadratic(A=-10.0 * np.eye(2), b=np.full(2, 10.0), c=-4.5)],
                           fg.Simplex(n=2))


@pytest.mark.parametrize("algo, learner", [("dual", None), ("primal", "mw"), ("primal", "ogd"),
                                           ("primal", "ons"), ("primal-dual", "mw"),
                                           ("primal-dual", "ogd")])
def test_an_indefinite_quadratic_is_refused_before_a_round(algo, learner):
    problem = concave_problem()
    # constants given as if the quadratic were strongly convex, so that
    # neither OGD's H nor ONS's alpha refuses it first
    problem = fg.Problem(problem.constraints, problem.domain,
                         dataclasses.replace(problem.params, H=1.0, alpha=1.0))
    rounds = []
    with pytest.raises(fg.SetupError, match="^constraint 1 is an indefinite quadratic; "
                                            "the solvers need convex constraints$"):
        run_solver(problem, algo, learner, 0.1, trace_sink=rounds.append)
    assert rounds == []


PAIRINGS = [("dual", None), ("primal", "mw"), ("primal", "ogd"), ("primal", "ons"),
            ("primal-dual", "mw"), ("primal-dual", "ogd"), ("primal-dual", "ons")]


@pytest.mark.parametrize("algo, learner", PAIRINGS)
def test_a_problem_its_bounds_refuse_is_refused_before_a_round(algo, learner):
    # on Simplex(1) the folded log argument of EDGE rounds to 0; its complete
    # constants pass every learner's own checks, and the bounds still refuse it
    params = fg.ProblemParams(G=1.0, H=1.0, omega=1.0, D=1.0, G_inf=1.0, alpha=1.0)
    problem = fg.Problem((EDGE,), fg.Simplex(n=1), params)
    rounds = []
    with pytest.raises(fg.SetupError, match="^log argument e [+] inner/omega falls to "):
        run_solver(problem, algo, learner, 0.1, trace_sink=rounds.append)
    assert rounds == []


def scale_problem(b0, b1):
    """Rows x_1 + b0 <= 0 and x_2 + b1 <= 0 on the 2-simplex, every constant 0.001."""
    return fg.Problem((fg.Affine(a=np.array([1.0, 0.0]), b=b0),
                       fg.Affine(a=np.array([0.0, 1.0]), b=b1)), fg.Simplex(n=2),
                      fg.ProblemParams(G=0.001, H=0.001, omega=0.001, D=0.001, G_inf=0.001,
                                       alpha=0.001))


@pytest.mark.parametrize("algo, learner, problem, message", [
    # feasible at (0.45, 0.55); the dual used to report Feasible at (1, 0)
    ("dual", None, scale_problem(-0.5, -0.6), "grew to 0.6 past G_inf = 0.001"),
    ("primal-dual", "ogd", scale_problem(-0.5, -0.6), "grew to 0.09999999999999998 past G_inf"),
    ("primal-dual", "mw", scale_problem(-0.5, -0.6), "grew to 0.5 past G = 0.001"),
    # infeasible: x_1 >= 0.6 and x_2 >= 0.6; the learner meets gradients of norm 1
    ("primal", "mw", scale_problem(0.6, 0.6), "grew to 1.0 past G = 0.001"),
])
def test_a_horizon_past_its_mw_payoff_scale_is_refused(algo, learner, problem, message):
    with pytest.raises(fg.SetupError, match=f"^MW payoff scale {message}"):
        run_solver(problem, algo, learner, 0.01)


def test_an_oracle_fail_certificate_stands_past_the_payoff_scale():
    # the first mixture is positive everywhere: FAIL in round 1, before MW
    # steps at all, and the certificate verifies
    problem = scale_problem(0.6, 0.6)
    result = fg.dual_game_opt(problem, 0.01)
    assert (result.ended_by, type(result.outcome)) == ("oracle", fg.Infeasible)
    assert fg.verify_certificate(problem, result.outcome, 0.01).ok


# Families that the lattice scan of brute_force_lambda_star evaluates at every
# simplex point, and a concave bowl whose top sits at the simplex centre,
# where every certified descent starts
LATTICE_KINDS = ("affine", "quadratic", "log_affine", "norm_dist", "barrier", "bowl")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(LATTICE_KINDS), min_size=1, max_size=3), st.integers(2, 3),
       st.integers(0, 2**32 - 1))
def test_an_accepted_infeasibility_certificate_agrees_with_the_lattice(kinds, n, seed):
    rng = np.random.default_rng(seed)
    domain = fg.Simplex(n=n)
    constraints = []
    for kind in kinds:
        if kind == "bowl":
            M = rng.uniform(-1, 1, (n, n))
            A = -(M @ M.T) - 0.1 * np.eye(n)
            w = domain.start()
            constraints.append(fg.Quadratic(A=A, b=-2.0 * A @ w,
                                            c=float(w @ A @ w) + rng.uniform(0.01, 1.0)))
        else:
            constraints.append(random_constraint(kind, rng, domain))
    problem = fg.make_problem(constraints, domain)
    p = rng.dirichlet(np.ones(problem.m))
    if fg.verify_certificate(problem, fg.Infeasible(p_bar=p), 0.0).ok:
        grid = brute_force_lambda_star(problem, 1e-2)
        assert grid.value > -grid.slack
