"""Problem files, outcome documents, the CLI, and the experiment drivers."""

import json
import math

import numpy as np
import pytest

import feasgame as fg
from feasgame.harness import (
    ProblemFileError,
    canonical_json,
    emit_outcome_document,
    emit_problem_file,
    mw_signs_regret,
    outcome_document,
    parse_outcome_document,
    parse_problem_file,
    problem_from_doc,
    problem_to_doc,
    regret_experiment,
    run_solver,
    scaling_experiment,
    verify_outcome_document,
)
from feasgame.harness import io as harness_io
from feasgame.harness.cli import TRACE_HEADER, main
from lattice import brute_force_lambda_star


MINIMAL = {
    "version": 2,
    "domain": {"kind": "simplex", "n": 2},
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

    @pytest.mark.parametrize("changes, message", [
        ({"version": 1}, r"^problem\.version: unsupported version 1 \(expected 2\)$"),
        ({"sense": "min"}, r"^problem: unknown field\(s\) sense$"),
        ({"version": 1, "sense": "max"}, r"^problem: unknown field\(s\) sense$"),
    ], ids=["version-1", "sense", "version-1-sense"])
    def test_a_version_one_document_is_refused_by_name(self, changes, message):
        # version 1 read log_affine_composite as log(e + inner/omega), under
        # a "sense" that version 2 no longer has
        with pytest.raises(ProblemFileError, match=message):
            parse_problem_file(json.dumps({**MINIMAL, **changes}))
        with pytest.raises(ProblemFileError, match=message):
            parse_problem_file(json.dumps({
                **changes, "version": changes.get("version", 2),
                "generator": {"family": "strict_qp", "n": 2}}))
        prob = parse_problem_file(json.dumps(MINIMAL))
        doc = json.loads(emit_outcome_document(
            outcome_document(run_solver(prob, "primal", "mw", 0.1), prob)))
        doc["problem"].update(changes)
        with pytest.raises(ProblemFileError, match=message):
            parse_outcome_document(json.dumps(doc))
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
        # one symmetry test, the constructor's, names the constraint and A
        with pytest.raises(ProblemFileError,
                           match=r"constraints\[0\]: quadratic matrix A is not symmetric"):
            parse_problem_file(json.dumps(doc))
        doc["constraints"][0]["A"] = [[1.0, 0.0]]
        with pytest.raises(ProblemFileError,
                           match=r"constraints\[0\]: quadratic matrix A must be square"):
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
            parse_problem_file(json.dumps({"version": 2}))

    def test_generator_file_with_seed_override(self):
        doc = {"version": 2, "generator": {"family": "strict_qp", "n": 2, "m": 3, "seed": 1}}
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

    def test_transformed_point_is_checked_against_the_original_constraints(self):
        # the point verifies on the strictified problem, so only an
        # eps_original below its worst original residual refuses it, naming
        # that constraint and its value
        orig = fg.make_perceptron_lp(3, 4, seed=3)
        tight = fg.strictify(orig, 0.1)
        res = run_solver(tight, "primal", "ogd", 0.1)
        doc = outcome_document(res, tight, original=orig,
                               transforms=({"kind": "strictify", "delta": 0.1},),
                               eps_original=0.2)
        assert doc["outcome"]["kind"] == "feasible" and verify_outcome_document(doc).ok
        vals = [fg.evaluate(f, np.array(doc["outcome"]["x"])) for f in orig.constraints]
        worst = int(np.argmax(vals))
        doc["eps_original"] = vals[worst] - 1e-3
        rep = verify_outcome_document(doc)
        assert not rep.ok
        assert (rep.witness_index, rep.value) == (worst, pytest.approx(vals[worst], abs=1e-15))
        assert rep.message == (f"original constraint {worst} has value {vals[worst]:.6g} "
                               f"> eps_original {vals[worst] - 1e-3:.6g}")

    def test_transformed_problem_must_match_its_original(self):
        # an infeasible perceptron LP, log-transformed and solved by ONS; its
        # document paired with another original problem must not verify
        base = fg.make_perceptron_lp(3, 4, feasible=False, seed=0)
        omega, eps = base.params.omega, 0.1
        prob = fg.log_transform(base, omega)
        res = run_solver(prob, "primal", "ons", eps)
        doc = outcome_document(
            res, prob, original=base,
            transforms=({"kind": "log_transform", "omega": omega, "eps_log": eps},),
            eps_original=fg.approx_translate(eps, omega),
        )
        assert doc["outcome"]["kind"] == "infeasible"
        assert verify_outcome_document(emit_outcome_document(doc)).ok
        doc["original_problem"] = problem_to_doc(fg.make_perceptron_lp(3, 4, feasible=True, seed=0))
        rep = verify_outcome_document(emit_outcome_document(doc))
        assert not rep.ok
        assert rep.method == "transforms"

    def test_transform_parameters_are_checked(self):
        orig = fg.make_perceptron_lp(3, 4, seed=3)
        tight = fg.strictify(orig, 0.1)
        res = run_solver(tight, "primal", "ogd", 0.1)
        doc = outcome_document(res, tight, original=orig,
                               transforms=({"kind": "strictify", "delta": 0.2},),
                               eps_original=0.3)
        rep = verify_outcome_document(doc)
        assert not rep.ok
        assert "transforms applied" in rep.message
        doc["transforms"] = [{"kind": "shift", "delta": 0.1}]
        with pytest.raises(ProblemFileError, match=r"transforms\[0\]\.kind"):
            verify_outcome_document(doc)

    def test_verify_builds_each_embedded_problem_once(self, monkeypatch):
        orig = fg.make_perceptron_lp(3, 4, seed=3)
        tight = fg.strictify(orig, 0.1)
        res = run_solver(tight, "primal", "ogd", 0.1)
        doc = outcome_document(res, tight, original=orig,
                               transforms=({"kind": "strictify", "delta": 0.1},),
                               eps_original=0.2)
        built = []

        def counted(obj, **kwargs):
            built.append(obj)
            return problem_from_doc(obj, **kwargs)

        monkeypatch.setattr(harness_io, "problem_from_doc", counted)
        assert verify_outcome_document(emit_outcome_document(doc)).ok
        assert built == [doc["problem"], doc["original_problem"]]
        # the problem that is built once is still checked field by field
        doc["original_problem"]["constraints"][0]["a"][1] = math.nan
        with pytest.raises(ProblemFileError,
                           match=r"problem\.constraints\[0\]\.a\[1\]: expected a finite number"):
            verify_outcome_document(json.dumps(doc))

    @pytest.mark.parametrize("as_text", [False, True], ids=["dict", "text"])
    @pytest.mark.parametrize("change, message", [
        ({"version": 99}, r"^outcome_document\.version: unsupported version 99$"),
        ({"eps_effective": None}, r"^outcome_document: missing field\(s\) eps_effective$"),
        ({"original_problem": MINIMAL},
         r"^outcome_document: original_problem and eps_original go together$"),
    ], ids=["version", "no-eps-effective", "original-alone"])
    def test_dicts_and_text_are_validated_alike(self, change, message, as_text):
        # a dict used to skip the checks: version 99 verified, and a missing
        # eps_effective raised KeyError
        prob = parse_problem_file(json.dumps(MINIMAL))
        doc = outcome_document(run_solver(prob, "primal", "mw", 0.1), prob)
        doc.update(change)
        doc = {k: v for k, v in doc.items() if v is not None}
        with pytest.raises(ProblemFileError, match=message):
            verify_outcome_document(json.dumps(doc) if as_text else doc)

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
    "version": 2,
    "domain": {"kind": "simplex", "n": 2},
    "constraints": [{"family": "norm_dist_sq", "center": [1.0, 0.0], "c": 2.0}],
}
INFEASIBLE_DOC = {
    "version": 2,
    "domain": {"kind": "simplex", "n": 2},
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

    def test_strictified_norm_ball_stays_feasible(self, tmp_path, capsys):
        doc = {
            "version": 2,
            "domain": {"kind": "simplex", "n": 2},
            "constraints": [{"family": "norm_dist_sq", "center": [0.5, 0.5], "c": 0.3}],
        }
        path = write_problem(tmp_path, doc)
        out = tmp_path / "outcome.json"
        assert main(["solve", "--problem", path, "--eps", "0.1", "--strictify", "auto",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["outcome"]["kind"] == "feasible"
        assert main(["verify", "--outcome", str(out)]) == 0

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_eps_exits_one_and_writes_nothing(self, tmp_path, capsys, eps):
        # --eps inf used to exit 0 with "eps": Infinity in the outcome, which
        # is not JSON and which verify then refused
        path = write_problem(tmp_path, FEASIBLE_DOC)
        out = tmp_path / "outcome.json"
        assert main(["solve", "--problem", path, "--eps", eps, "--out", str(out)]) == 1
        assert "eps must be a positive finite float" in capsys.readouterr().err
        assert not out.exists()

    def test_an_alpha_without_a_float_value_exits_one(self, tmp_path, capsys):
        # G is about 1.8e-170, so G * G underflows to 0 and H / G^2 has no
        # float value; solve used to die with a ZeroDivisionError traceback
        doc = {"version": 2, "domain": {"kind": "simplex", "n": 1},
               "constraints": [{"family": "quadratic", "A": [[7.09e-171]],
                                "b": [-3.57e-171], "c": 4.03e-171}]}
        path = write_problem(tmp_path, doc)
        assert main(["solve", "--problem", path, "--eps", "0.1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "alpha" in err[0]

    def test_an_mw_scale_past_the_given_g_inf_exits_one(self, tmp_path, capsys):
        # complete params far below the rows' range: T* = 1 from G_inf = 0.001,
        # and MW's scale grows to 0.6 in that round; solve used to exit 0 with
        # a Feasible x = (1, 0) that verify rejected
        params = dict.fromkeys(("G", "H", "omega", "D", "G_inf", "alpha"), 0.001)
        doc = {"version": 2, "domain": {"kind": "simplex", "n": 2}, "params": params,
               "constraints": [{"family": "affine", "a": [1.0, 0.0], "b": -0.5},
                               {"family": "affine", "a": [0.0, 1.0], "b": -0.6}]}
        path = write_problem(tmp_path, doc)
        out = tmp_path / "outcome.json"
        assert main(["solve", "--problem", path, "--algo", "dual", "--eps", "0.01",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: MW payoff scale grew to 0.6 past G_inf = 0.001"]
        assert not out.exists()

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
            "version": 2,
            "domain": {"kind": "simplex", "n": 2},
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

    @pytest.mark.parametrize("tag, family, knobs", [
        ("qp", "strict_qp", {"m": 3, "seed": 4, "h_target": 2.0, "feasible": False}),
        ("lp", "perceptron_lp", {"m": 3, "seed": 4, "margin": 0.05, "feasible": False}),
        ("portfolio", "portfolio_risk", {"m": 3, "seed": 4}),
        ("entropy", "entropy", {"m": 3, "seed": 4, "c": 0.1}),
        ("crp", "crp", {"seed": 4, "c": 0.1, "t_days": 7}),
    ])
    def test_gen_writes_exactly_the_family_fields(self, tmp_path, capsys, tag, family, knobs):
        gen_path = tmp_path / "gen.json"
        assert main(["gen", "--family", tag, "--n", "3", "--m", "3", "--seed", "4",
                     "--h-target", "2", "--infeasible", "--margin", "0.05", "--c", "0.1",
                     "--t-days", "7", "--out", str(gen_path)]) == 0
        doc = json.loads(gen_path.read_text())
        assert doc == {"version": 2, "generator": {"family": family, "n": 3, **knobs}}
        assert parse_problem_file(gen_path.read_text()).n == 3

    def test_gen_seed_override_at_solve_time(self, tmp_path, capsys):
        gen_path = tmp_path / "gen.json"
        main(["gen", "--family", "qp", "--n", "2", "--m", "2", "--seed", "1",
              "--out", str(gen_path)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", "--problem", str(gen_path), "--eps", "0.1", "--out", str(a)])
        main(["solve", "--problem", str(gen_path), "--eps", "0.1", "--seed", "2",
              "--out", str(b)])
        assert a.read_text() != b.read_text()

    BALL = {"kind": "ball", "center": [0.5, -0.5], "radius": 1.0}
    BOX = {"kind": "box", "lo": [0.0, -1.0], "hi": [1.0, 1.0]}

    # outcome kinds and rounds pinned off the simplex, where no benchmark
    # workload runs: the start point is the ball's center or the box's midpoint
    @pytest.mark.parametrize("domain, algo, learner, rounds", [
        (BALL, "dual", None, 1016),
        (BALL, "primal-dual", "ogd", 4064),
        (BALL, "primal", "ogd", 1),
        (BOX, "dual", None, 4437),
        (BOX, "primal-dual", "ogd", 17745),
        (BOX, "primal", "ogd", 3),
    ], ids=["ball-dual", "ball-primal-dual", "ball-primal", "box-dual", "box-primal-dual",
            "box-primal"])
    def test_ball_and_box_solve_then_verify(self, tmp_path, capsys, domain, algo, learner,
                                            rounds):
        doc = {"version": 2, "domain": domain, "constraints": [
            {"family": "norm_dist_sq", "center": [0.0, 0.0], "c": 1.0},
            {"family": "norm_dist_sq", "center": [1.0, -1.0], "c": 1.0},
        ]}
        path = write_problem(tmp_path, doc)
        out = tmp_path / "outcome.json"
        args = ["solve", "--problem", path, "--eps", "0.1", "--algo", algo, "--out", str(out)]
        assert main(args + (["--learner", learner] if learner else [])) == 0
        outcome = json.loads(out.read_text())
        assert (outcome["outcome"]["kind"], outcome["iterations"]) == ("feasible", rounds)
        assert outcome["problem"]["domain"] == domain
        assert main(["verify", "--outcome", str(out)]) == 0

    @pytest.mark.parametrize("domain", [
        {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        {"kind": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
    ], ids=["ball", "box"])
    def test_three_dimensional_certificate_solve_then_verify(self, tmp_path, capsys, domain):
        # two disjoint balls of radius 0.5 around (+-0.8, 0, 0): the dual
        # oracle fails at the first mixture, and verify proves that mixture
        doc = {"version": 2, "domain": domain, "constraints": [
            {"family": "norm_dist_sq", "center": [0.8, 0.0, 0.0], "c": 0.25},
            {"family": "norm_dist_sq", "center": [-0.8, 0.0, 0.0], "c": 0.25},
        ]}
        path = write_problem(tmp_path, doc)
        out, report = tmp_path / "outcome.json", tmp_path / "report.json"
        assert main(["solve", "--problem", path, "--eps", "0.1", "--algo", "dual",
                     "--out", str(out)]) == 2
        assert json.loads(out.read_text())["outcome"]["kind"] == "infeasible"
        assert main(["verify", "--outcome", str(out), "--out", str(report)]) == 0
        verdict = json.loads(report.read_text())
        assert (verdict["ok"], verdict["method"]) == (True, "pgd")
        assert sorted(verdict) == ["message", "method", "ok", "steps", "value", "witness_index"]
        assert isinstance(verdict["steps"], int)

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
        # every round reaches the file, not only the result's sampled trace
        doc = parse_outcome_document(capsys.readouterr().out)
        assert len(iters) == doc["iterations"] > 2

    @pytest.mark.parametrize("existing", [None, "an earlier trace\n"], ids=["new", "existing"])
    def test_refused_solve_leaves_the_trace_file_alone(self, tmp_path, capsys, existing):
        # the solver refuses eps before its first round: no header-only file
        # is created, and an existing one keeps its bytes
        gen_path, trace_path = tmp_path / "pf.json", tmp_path / "t.csv"
        out = tmp_path / "bad.json"
        assert main(["gen", "--family", "portfolio", "--n", "10", "--m", "20",
                     "--out", str(gen_path)]) == 0
        if existing is not None:
            trace_path.write_text(existing)
        assert main(["solve", "--problem", str(gen_path), "--algo", "primal",
                     "--learner", "ogd", "--eps", "inf", "--trace", str(trace_path),
                     "--out", str(out)]) == 1
        assert "eps must be a positive finite float" in capsys.readouterr().err
        assert not out.exists()
        if existing is None:
            assert not trace_path.exists()
        else:
            assert trace_path.read_text() == existing

    def test_log_transform_path(self, tmp_path, capsys):
        doc = {
            "version": 2,
            "domain": {"kind": "simplex", "n": 2},
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

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_scaling_refuses_a_non_finite_ladder(self, eps):
        # the halving test cannot see an infinite or NaN ladder, but every
        # solve takes its horizon from the stopping rule, which refuses it
        spec = fg.GeneratorSpec(family="strict_qp", n=3, m=3, seed=2, feasible=False)
        with pytest.raises(fg.SetupError, match=r"eps must be a positive finite float"):
            scaling_experiment(spec, "primal", "ogd", (eps, eps, eps))

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
