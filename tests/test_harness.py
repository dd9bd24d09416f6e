"""Problem files, outcome documents, the CLI, and the experiment drivers."""

import json
import math

import numpy as np
import pytest

import feasgame as fg
from feasgame.harness import (
    ProblemFileError,
    brute_force_lambda_star,
    canonical_json,
    emit_outcome_document,
    emit_problem_file,
    mw_signs_regret,
    outcome_document,
    parse_outcome_document,
    parse_problem_file,
    problem_to_doc,
    regret_experiment,
    run_solver,
    scaling_experiment,
    verify_outcome_document,
)
from feasgame.harness.cli import TRACE_HEADER, main


MINIMAL = {
    "version": 1,
    "domain": {"kind": "simplex", "n": 2},
    "sense": "min",
    "constraints": [{"family": "affine", "a": [1.0, -1.0], "b": 0.0}],
}


def write_problem(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestProblemFiles:
    def test_minimal_file(self):
        prob = parse_problem_file(json.dumps(MINIMAL))
        assert prob.m == 1 and prob.n == 2
        assert isinstance(prob.constraints[0], fg.Affine)

    def test_round_trip_is_byte_stable(self):
        text = emit_problem_file(parse_problem_file(json.dumps(MINIMAL)))
        assert emit_problem_file(parse_problem_file(text)) == text
        assert text.endswith("\n")

    def test_reparse_preserves_values(self):
        prob = fg.make_portfolio_risk(3, 2, seed=4)
        again = parse_problem_file(emit_problem_file(prob))
        assert problem_to_doc(again) == problem_to_doc(prob)
        assert again.params == prob.params

    def test_asymmetric_matrix_rejected_with_path(self):
        doc = dict(MINIMAL)
        doc["constraints"] = [{
            "family": "quadratic",
            "A": [[1.0, 0.001], [0.0, 1.0]],
            "b": [0.0, 0.0],
            "c": 0.0,
        }]
        with pytest.raises(ProblemFileError, match=r"constraints\[0\]\.A"):
            parse_problem_file(json.dumps(doc))

    def test_unknown_field_rejected_by_name(self):
        doc = dict(MINIMAL)
        doc["constraints"] = [{"family": "affine", "a": [1.0, 0.0], "b": 0.0, "oops": 1}]
        with pytest.raises(ProblemFileError, match="oops"):
            parse_problem_file(json.dumps(doc))

    def test_constraints_and_generator_are_exclusive(self):
        doc = dict(MINIMAL)
        doc["generator"] = {"family": "strict_qp", "n": 2}
        with pytest.raises(ProblemFileError, match="exactly one"):
            parse_problem_file(json.dumps(doc))
        with pytest.raises(ProblemFileError, match="exactly one"):
            parse_problem_file(json.dumps({"version": 1}))

    def test_generator_file_with_seed_override(self):
        doc = {"version": 1, "generator": {"family": "strict_qp", "n": 2, "m": 3, "seed": 1}}
        base = parse_problem_file(json.dumps(doc))
        other = parse_problem_file(json.dumps(doc), seed_override=2)
        assert problem_to_doc(base) == problem_to_doc(fg.make_strict_qp(2, 3, seed=1))
        assert problem_to_doc(other) == problem_to_doc(fg.make_strict_qp(2, 3, seed=2))

    def test_params_override_merges(self):
        doc = dict(MINIMAL)
        doc["params"] = {"G": 9.0}
        prob = parse_problem_file(json.dumps(doc))
        assert prob.params.G == 9.0
        assert prob.params.D == pytest.approx(math.sqrt(2.0))

    def test_dimension_mismatch_names_index(self):
        doc = dict(MINIMAL)
        doc["constraints"] = [
            {"family": "affine", "a": [1.0, -1.0], "b": 0.0},
            {"family": "affine", "a": [1.0, -1.0, 0.0], "b": 0.0},
        ]
        with pytest.raises(ProblemFileError, match=r"constraints\[1\]"):
            parse_problem_file(json.dumps(doc))

    def test_bad_json_reports_position(self):
        with pytest.raises(ProblemFileError, match="line"):
            parse_problem_file("{not json")

    def test_bool_is_not_a_number(self):
        doc = dict(MINIMAL)
        doc["constraints"] = [{"family": "affine", "a": [True, False], "b": 0.0}]
        with pytest.raises(ProblemFileError):
            parse_problem_file(json.dumps(doc))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize("where, path", [
        (("constraints", 0, "a", 0), r"problem\.constraints\[0\]\.a\[0\]"),
        (("constraints", 0, "b"), r"problem\.constraints\[0\]\.b"),
        (("params", "G"), r"problem\.params\.G"),
    ])
    def test_non_finite_number_rejected_with_path(self, value, where, path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["params"] = {"G": 1.0}
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        with pytest.raises(ProblemFileError, match=path + ": expected a finite number"):
            parse_problem_file(json.dumps(doc))


class TestOutcomeDocuments:
    def test_round_trip(self):
        prob = parse_problem_file(json.dumps(MINIMAL))
        res = run_solver(prob, "primal", "mw", 0.1)
        doc = outcome_document(res, prob)
        text = emit_outcome_document(doc)
        back = parse_outcome_document(text)
        assert canonical_json(back) == text

    def test_standalone_reverification(self):
        prob = fg.make_problem([fg.NormDistSq(center=np.zeros(2), c=0.0)], fg.Simplex(n=2))
        res = run_solver(prob, "primal", "ogd", 0.1)
        text = emit_outcome_document(outcome_document(res, prob))
        rep = verify_outcome_document(text)
        assert rep.ok

    def test_tampered_point_fails_verification(self):
        prob = fg.make_problem(
            [fg.NormDistSq(center=np.array([1.0, 0.0]), c=0.5)], fg.Simplex(n=2)
        )
        res = run_solver(prob, "primal", "ogd", 0.05)
        doc = outcome_document(res, prob)
        assert doc["outcome"]["kind"] == "feasible"
        doc["outcome"]["x"] = [0.0, 1.0]
        doc["outcome"]["residuals"] = [-1.0]
        rep = verify_outcome_document(doc)
        assert not rep.ok

    def test_transforms_check_original_accuracy(self):
        orig = fg.make_perceptron_lp(3, 4, seed=3)
        eps = 0.1
        tight = fg.strictify(orig, eps)
        res = run_solver(tight, "primal", "ogd", eps)
        doc = outcome_document(
            res, tight, original=orig,
            transforms=({"kind": "strictify", "delta": eps},),
            eps_original=2 * eps,
        )
        rep = verify_outcome_document(doc)
        assert rep.ok

    def test_rejects_malformed_kind(self):
        prob = parse_problem_file(json.dumps(MINIMAL))
        res = run_solver(prob, "primal", "mw", 0.1)
        doc = outcome_document(res, prob)
        doc["outcome"]["kind"] = "mystery"
        with pytest.raises(ProblemFileError):
            parse_outcome_document(canonical_json(doc))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where, path", [
        (("outcome", "x", 0), r"outcome\.x\[0\]"),
        (("outcome", "residuals", 0), r"outcome\.residuals\[0\]"),
        (("eps_effective",), r"outcome_document\.eps_effective"),
        (("problem", "constraints", 0, "a", 1), r"problem\.constraints\[0\]\.a\[1\]"),
    ])
    def test_non_finite_number_rejected_with_path(self, value, where, path):
        prob = parse_problem_file(json.dumps(MINIMAL))
        doc = outcome_document(run_solver(prob, "primal", "mw", 0.1), prob)
        assert doc["outcome"]["kind"] == "feasible"
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        with pytest.raises(ProblemFileError, match=path + ": expected a finite number"):
            parse_outcome_document(json.dumps(doc))


class TestBruteForce:
    def test_quadratic_center_value(self):
        prob = fg.make_problem([fg.NormDistSq(center=np.zeros(2), c=0.0)], fg.Simplex(n=2))
        out = brute_force_lambda_star(prob, 1e-3)
        assert out.value == pytest.approx(0.5, abs=out.slack + 1e-12)
        assert out.slack <= 0.01

    def test_constant_is_exact(self):
        prob = fg.make_problem([fg.Affine(a=np.zeros(2), b=-1.0)], fg.Simplex(n=2))
        assert brute_force_lambda_star(prob, 1e-3).value == -1.0

    def test_symmetric_game_balances_at_zero(self):
        prob = fg.make_problem(
            [fg.Affine(a=np.array([1.0, -1.0]), b=0.0),
             fg.Affine(a=np.array([-1.0, 1.0]), b=0.0)],
            fg.Simplex(n=2),
        )
        out = brute_force_lambda_star(prob, 1e-3)
        assert abs(out.value) <= 1e-12
        assert np.allclose(out.x, [0.5, 0.5], atol=1e-9)

    def test_large_dimension_rejected(self):
        prob = fg.make_problem([fg.NormDistSq(center=np.zeros(4), c=0.0)], fg.Simplex(n=4))
        with pytest.raises(fg.SetupError):
            brute_force_lambda_star(prob, 1e-3)


FEASIBLE_DOC = {
    "version": 1,
    "domain": {"kind": "simplex", "n": 2},
    "sense": "min",
    "constraints": [{"family": "norm_dist_sq", "center": [1.0, 0.0], "c": 2.0}],
}
INFEASIBLE_DOC = {
    "version": 1,
    "domain": {"kind": "simplex", "n": 2},
    "sense": "min",
    "constraints": [{"family": "norm_dist_sq", "center": [0.0, 0.0], "c": 0.0}],
}


class TestCli:
    def test_feasible_exit_zero(self, tmp_path, capsys):
        path = write_problem(tmp_path, FEASIBLE_DOC)
        code = main(["solve", "--problem", path, "--eps", "0.1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"]["kind"] == "feasible"

    def test_infeasible_exit_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, INFEASIBLE_DOC)
        assert main(["solve", "--problem", path, "--eps", "0.1"]) == 2

    def test_exhausted_exit_three(self, tmp_path, capsys):
        path = write_problem(tmp_path, INFEASIBLE_DOC)
        assert main(["solve", "--problem", path, "--eps", "0.1", "--max-iters", "1"]) == 3

    def test_conflicting_transforms_exit_one(self, tmp_path, capsys):
        path = write_problem(tmp_path, FEASIBLE_DOC)
        code = main(["solve", "--problem", path, "--eps", "0.1",
                     "--strictify", "0.1", "--log-transform"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_flat_costs_need_strictify(self, tmp_path, capsys):
        doc = dict(MINIMAL)
        path = write_problem(tmp_path, doc)
        assert main(["solve", "--problem", path, "--eps", "0.1"]) == 1
        assert main(["solve", "--problem", path, "--eps", "0.1",
                     "--strictify", "auto"]) == 0

    def test_missing_file_exit_one(self, capsys):
        assert main(["solve", "--problem", "/nonexistent.json", "--eps", "0.1"]) == 1

    def test_bad_flag_value_exit_one(self, tmp_path, capsys):
        path = write_problem(tmp_path, FEASIBLE_DOC)
        assert main(["solve", "--problem", path, "--eps", "0.1",
                     "--algo", "sideways"]) == 1

    def test_outcome_written_and_verifiable(self, tmp_path, capsys):
        path = write_problem(tmp_path, FEASIBLE_DOC)
        out = tmp_path / "outcome.json"
        assert main(["solve", "--problem", path, "--eps", "0.1",
                     "--out", str(out)]) == 0
        assert verify_outcome_document(out.read_text()).ok
        assert main(["verify", "--outcome", str(out)]) == 0

    def test_verify_flags_tampering(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "domain": {"kind": "simplex", "n": 2},
            "sense": "min",
            "constraints": [{"family": "norm_dist_sq", "center": [1.0, 0.0], "c": 0.5}],
        }
        path = write_problem(tmp_path, doc)
        out = tmp_path / "outcome.json"
        assert main(["solve", "--problem", path, "--eps", "0.05",
                     "--out", str(out)]) == 0
        tampered = json.loads(out.read_text())
        tampered["outcome"]["x"] = [0.0, 1.0]
        tampered["outcome"]["residuals"] = [-1.0]
        out.write_text(json.dumps(tampered))
        assert main(["verify", "--outcome", str(out)]) == 1

    def test_deterministic_output_bytes(self, tmp_path, capsys):
        path = write_problem(tmp_path, INFEASIBLE_DOC)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", "--problem", path, "--eps", "0.1", "--out", str(a)])
        main(["solve", "--problem", path, "--eps", "0.1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_then_solve(self, tmp_path, capsys):
        gen_path = tmp_path / "gen.json"
        assert main(["gen", "--family", "qp", "--n", "3", "--m", "4",
                     "--seed", "7", "--out", str(gen_path)]) == 0
        doc = json.loads(gen_path.read_text())
        assert doc["generator"]["family"] == "strict_qp"
        assert main(["solve", "--problem", str(gen_path), "--eps", "0.1"]) == 0

    def test_gen_seed_override_at_solve_time(self, tmp_path, capsys):
        gen_path = tmp_path / "gen.json"
        main(["gen", "--family", "qp", "--n", "2", "--m", "2", "--seed", "1",
              "--out", str(gen_path)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", "--problem", str(gen_path), "--eps", "0.1", "--out", str(a)])
        main(["solve", "--problem", str(gen_path), "--eps", "0.1", "--seed", "2",
              "--out", str(b)])
        assert a.read_text() != b.read_text()

    def test_trace_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, INFEASIBLE_DOC)
        trace_path = tmp_path / "trace.csv"
        assert main(["solve", "--problem", path, "--eps", "0.2",
                     "--trace", str(trace_path)]) == 2
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == TRACE_HEADER
        prob = parse_problem_file(json.dumps(INFEASIBLE_DOC))
        spec = fg.ogd_bound_spec(prob.params.G, prob.params.H)
        iters = []
        for line in lines[1:]:
            fields = line.split(",")
            t = int(fields[0])
            iters.append(t)
            # repr round-trip keeps the bound column bit-identical
            assert float(fields[4]) == fg.regret_bound(spec, t)
        assert iters == list(range(1, len(iters) + 1))

    def test_log_transform_path(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "domain": {"kind": "simplex", "n": 2},
            "sense": "min",
            "constraints": [{"family": "affine", "a": [1.0, 1.0], "b": -2.0}],
        }
        path = write_problem(tmp_path, doc)
        out = tmp_path / "outcome.json"
        code = main(["solve", "--problem", path, "--eps", "0.3",
                     "--log-transform", "--learner", "ons", "--out", str(out)])
        assert code == 0
        saved = json.loads(out.read_text())
        assert saved["transforms"][0]["kind"] == "log_transform"
        assert verify_outcome_document(out.read_text()).ok

    def test_experiment_regret_cli(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["experiment", "--kind", "regret", "--learner", "mw",
                     "--t", "10000", "--seeds", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert 0.3 <= doc["exponent"] <= 0.7


class TestExperiments:
    def test_fast_path_matches_step_loop(self):
        T, seed = 200, 5
        run = mw_signs_regret(T, seed)
        rng = np.random.default_rng(seed)
        r = rng.integers(0, 2, T) * 2.0 - 1.0
        eta = min(0.5, math.sqrt(math.log(2.0) / T))
        state = fg.init_mw(2, eta, 1.0, "min")
        played = 0.0
        for t in range(T):
            p = fg.mw_point(state)
            g = np.array([r[t], -r[t]])
            played += float(p @ g)
            state = fg.mw_step(state, g)
        loop_regret = played + abs(float(np.sum(r)))
        assert run.regret == pytest.approx(loop_regret, abs=1e-9)

    def test_signed_sum_advantage_monte_carlo(self):
        # E|S_T| = sqrt(2 T / pi): about 79.8 at T = 10^4
        T = 10_000
        mean = np.mean([mw_signs_regret(T, s).advantage for s in range(1000)])
        assert mean == pytest.approx(math.sqrt(2 * T / math.pi), abs=6.0)

    def test_ogd_regret_grows_slower_than_any_power(self):
        rep = regret_experiment("ogd", T=10_000)
        assert rep.exponent < 0.3
        assert rep.details["regret_over_log_t"] <= 40.0

    def test_mw_regret_grows_like_sqrt(self):
        rep = regret_experiment("mw", T=10_000, seeds=5)
        assert 0.4 <= rep.exponent <= 0.6
        assert rep.details["max_regret_over_bound"] <= 1.0

    def test_small_horizon_rejected(self):
        with pytest.raises(fg.SetupError):
            regret_experiment("mw", T=1000, seeds=2)

    def test_scaling_iterations_monotone(self):
        spec = fg.GeneratorSpec(family="strict_qp", n=3, m=3, seed=2, feasible=False)
        rep = scaling_experiment(spec, "primal", "ogd", (0.4, 0.2, 0.1))
        assert not rep.incomplete
        assert list(rep.values) == sorted(rep.values)
        assert rep.values[0] < rep.values[-1]

    def test_scaling_requires_halving_ladder(self):
        spec = fg.GeneratorSpec(family="strict_qp", n=3, m=3, seed=2)
        with pytest.raises(fg.SetupError):
            scaling_experiment(spec, "primal", "ogd", (0.4, 0.3, 0.2))
        with pytest.raises(fg.SetupError):
            scaling_experiment(spec, "primal", "ogd", (0.4, 0.2))

    def test_scaling_flags_truncated_runs(self):
        spec = fg.GeneratorSpec(family="strict_qp", n=3, m=3, seed=2, feasible=False)
        rep = scaling_experiment(spec, "primal", "ogd", (0.4, 0.2, 0.1), max_iters=10)
        assert rep.incomplete

    def test_exponent_fit_recovers_power_law(self):
        xs = [10.0, 20.0, 40.0, 80.0]
        ys = [3.0 * x ** 1.7 for x in xs]
        from feasgame.harness.experiments import fit_exponent

        slope, residual = fit_exponent(xs, ys)
        assert slope == pytest.approx(1.7, abs=1e-9)
        assert residual <= 1e-9
