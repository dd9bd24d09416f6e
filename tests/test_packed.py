"""The packed constraint form against the scalar evaluate/gradient reference.

Every family and all three domains: residuals, single-row and
mixed gradients, the fixed-weight Mixture, and the separation
oracle's rule (the lowest index that is violated or off its analytic domain
decides; off the domain raises).  The one-pass residuals and mixed gradient
of a primal-dual round, and the Mixture's one-pass value and gradient, are
pinned bit for bit to the separate passes.
"""

import math
import re

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import feasgame as fg
from feasgame.harness import problem_from_doc, problem_to_doc

FAMILIES = ("affine", "quadratic", "log_affine", "entropy", "norm_dist", "barrier")
TOL = dict(rtol=1e-12, atol=1e-12)
# any params will do: the packed form does not read them
PARAMS = fg.ProblemParams(G=1.0, H=0.0, omega=1.0, D=1.0, G_inf=1.0, alpha=0.0)


def make_constraint(family, rng, n):
    a, b = rng.uniform(-2, 2, n), float(rng.uniform(-1, 1))
    M = rng.uniform(-1, 1, (n, n))
    quad = fg.Quadratic(A=0.5 * (M + M.T), b=a, c=b)
    if family == "affine":
        return fg.Affine(a=a, b=b)
    if family == "quadratic":
        return quad
    if family == "log_affine":
        return fg.LogAffineComposite(inner=fg.Affine(a=a, b=b), omega=float(rng.uniform(0.3, 3)))
    if family == "entropy":
        return fg.NegEntropy(n=n, shift=b)
    if family == "norm_dist":
        return fg.NormDistSq(center=rng.uniform(-1, 1, n), c=b)
    rows = rng.uniform(-0.3, 1.5, (int(rng.integers(1, 4)), n))
    return fg.NegLogBarrier(rows=rows, level=b)


def make_domain(kind, rng, n):
    if kind == "simplex":
        return fg.Simplex(n=n)
    if kind == "ball":
        return fg.Ball(n=n, radius=float(rng.uniform(0.5, 2)), center=rng.uniform(-1, 1, n))
    lo = rng.uniform(-1, 0.5, n)
    return fg.Box(lo=lo, hi=lo + rng.uniform(0.1, 2, n))


def points(domain, rng, count=6):
    """Sampled points plus a corner, where entropy and barriers can be off
    their domains."""
    X = domain.sample(count, seed=int(rng.integers(2**31)))
    if isinstance(domain, fg.Simplex):
        corner = np.eye(domain.n)[0]
    else:
        corner = domain.bounding_box()[0]
    return np.vstack([X, corner])


def scalar(problem, x):
    """(residual or None off the domain, gradient or None) per constraint."""
    out = []
    for f in problem.constraints:
        try:
            out.append((fg.evaluate(f, x), fg.gradient(f, x)))
        except fg.EvaluationDomainError:
            out.append((None, None))
    return out


problems = st.tuples(
    st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=6),
    st.sampled_from(["simplex", "ball", "box"]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)


def build(spec):
    fams, kind, n, seed = spec
    rng = np.random.default_rng(seed)
    domain = make_domain(kind, rng, n)
    cons = tuple(make_constraint(f, rng, n) for f in fams)
    return fg.Problem(constraints=cons, domain=domain, params=PARAMS), rng


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problems)
def test_packed_matches_scalar_reference(spec):
    problem, rng = build(spec)
    X = points(problem.domain, rng)
    p = rng.dirichlet(np.ones(problem.m))
    p[rng.random(problem.m) < 0.3] = 0.0
    p = p / p.sum() if p.sum() > 0 else np.full(problem.m, 1.0 / problem.m)
    mix = fg.Mixture(problem, p)
    live = p != 0
    for x in X:
        ref = scalar(problem, x)
        off = [r is None for r, _ in ref]
        for j, (r, g) in enumerate(ref):
            if g is None:
                with pytest.raises(fg.EvaluationDomainError):
                    fg.residual_gradient(problem, j, x)
            else:
                got = fg.residual_gradient(problem, j, x)
                np.testing.assert_allclose(got, g, **TOL)
                f = problem.constraints[j]
                if isinstance(f, fg.LogAffineComposite):
                    # the learner steps along exactly the reference gradient
                    np.testing.assert_array_equal(got, g)
        if any(off):
            for fn in (fg.residuals, fg.residual_gradients):
                with pytest.raises(fg.EvaluationDomainError):
                    fn(problem, x)
            with pytest.raises(fg.EvaluationDomainError):
                fg.residuals_and_mixed_gradient(problem, p, x)
        else:
            r = np.array([r for r, _ in ref])
            G = np.array([g for _, g in ref])
            np.testing.assert_allclose(fg.residuals(problem, x), r, **TOL)
            np.testing.assert_allclose(fg.residual_gradients(problem, x), G, **TOL)
            np.testing.assert_allclose(fg.residuals_and_mixed_gradient(problem, p, x)[1],
                                       p @ G, **TOL)
        if any(o and w for o, w in zip(off, live)):
            with pytest.raises(fg.EvaluationDomainError):
                mix.value_and_gradient(x)
        else:
            on = [j for j in range(problem.m) if live[j]]
            value = sum(p[j] * ref[j][0] for j in on)
            grad = sum((p[j] * ref[j][1] for j in on), np.zeros(problem.n))
            got_value, got_grad = mix.value_and_gradient(x)
            assert got_value == pytest.approx(value, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(got_grad, grad, **TOL)


def reference_value_and_gradient(mix, x):
    """The mixed value and gradient from separate value and gradient passes
    over the terms, which hold the rows of nonzero weight only."""
    kept = [j for j, f in enumerate(mix.packed.constraints)
            if mix.p[j] != 0 and f.packed_group() in (fg.core._LogAffines, fg.core._Scalar)]
    assert sum(wg.size for _, wg in mix.terms) == len(kept)
    assert all(wg.all() for _, wg in mix.terms)
    v = mix.c + mix.q @ x
    if mix.M is not None:
        v += x @ (mix.M @ x)
    for group, wg in mix.terms:
        v += wg @ group.values(x)
    g = mix.q.copy() if mix.M is None else 2.0 * (mix.M @ x) + mix.q
    for group, wg in mix.terms:
        g += wg @ group.both(x)[1]
    return float(v), g


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problems, st.sampled_from(["dense", "sparse", "signed"]))
def test_one_pass_is_bit_identical_to_the_separate_passes(spec, weights):
    problem, rng = build(spec)
    p = rng.dirichlet(np.ones(problem.m))
    if weights == "sparse":
        p[rng.random(problem.m) < 0.5] = 0.0
    elif weights == "signed":  # any weight vector, not only a distribution
        p = rng.normal(size=problem.m)
    mix = fg.Mixture(problem, p)
    for x in points(problem.domain, rng):
        try:
            value, grad = reference_value_and_gradient(mix, x)
        except fg.EvaluationDomainError as exc:
            with pytest.raises(fg.EvaluationDomainError, match=f"^{re.escape(str(exc))}$"):
                mix.value_and_gradient(x)
        else:
            got_value, got_grad = mix.value_and_gradient(x)
            assert float(got_value).hex() == float(value).hex()
            assert got_grad.tobytes() == grad.tobytes()
        ref = scalar(problem, x)
        off = [j for j, (r, _) in enumerate(ref) if r is None]
        if off:
            # the lowest constraint off its domain decides, with its own message
            with pytest.raises(fg.EvaluationDomainError) as lowest:
                fg.evaluate(problem.constraints[off[0]], x)
            own = dict(match=f"^{re.escape(str(lowest.value))}$")
            with pytest.raises(fg.EvaluationDomainError, **own):
                fg.residuals(problem, x)
            with pytest.raises(fg.EvaluationDomainError, **own):
                fg.residuals_and_mixed_gradient(problem, p, x)
            continue
        r, g = fg.residuals_and_mixed_gradient(problem, p, x)
        assert r.tobytes() == fg.residuals(problem, x).tobytes()
        assert g.tobytes() == (p @ fg.residual_gradients(problem, x)).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problems, st.floats(0.0, 2.0))
def test_separation_oracle_keeps_the_scalar_rule(spec, eps):
    problem, rng = build(spec)
    for x in points(problem.domain, rng):
        ref = scalar(problem, x)
        assume(all(r is None or abs(r - eps) > 1e-9 for r, _ in ref))
        decisive = next((j for j, (r, _) in enumerate(ref) if r is None or r > eps), None)
        if decisive is None:
            assert fg.separation_oracle(problem, x, eps) is None
        elif ref[decisive][0] is None:
            with pytest.raises(fg.EvaluationDomainError):
                fg.separation_oracle(problem, x, eps)
        else:
            hit = fg.separation_oracle(problem, x, eps)
            assert hit.index == decisive
            assert hit.value == pytest.approx(ref[decisive][0], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("late", [
    fg.NegEntropy(n=2),
    fg.NegLogBarrier(rows=np.array([[0.0, 1.0]]), level=0.0),
    fg.LogAffineComposite(inner=fg.Affine(a=np.array([0.0, -10.0]), b=-10.0), omega=1.0),
])
def test_off_domain_constraint_after_a_violated_one(late):
    # x = (1, 0) is off the domain of `late`; constraint 0 is violated at x
    first = fg.Affine(a=np.zeros(2), b=5.0)
    x = np.array([1.0, 0.0])
    with pytest.raises(fg.EvaluationDomainError) as ref:
        fg.evaluate(late, x)
    own = dict(match=f"^{ref.value}$")  # packed paths raise the reference's message
    ahead = fg.Problem(constraints=(first, late), domain=fg.Simplex(n=2), params=PARAMS)
    hit = fg.separation_oracle(ahead, x, 0.1)
    assert hit.index == 0 and hit.value == 5.0
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.residuals(ahead, x)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.residual_gradient(ahead, 1, x)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.Mixture(ahead, np.array([0.5, 0.5])).value_and_gradient(x)
    behind = fg.Problem(constraints=(late, first), domain=fg.Simplex(n=2), params=PARAMS)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.separation_oracle(behind, x, 0.1)


def test_lowest_off_domain_constraint_decides_across_groups():
    # at x = (1, 0) constraints 1 and 2 are both off their domains, and
    # constraint 2 shares its group with constraint 0, which comes first
    cons = (fg.NormDistSq(center=np.zeros(2), c=0.5),
            fg.LogAffineComposite(inner=fg.Affine(a=np.array([0.0, -10.0]), b=-10.0), omega=1.0),
            fg.NegEntropy(n=2))
    problem = fg.Problem(constraints=cons, domain=fg.Simplex(n=2), params=PARAMS)
    x = np.array([1.0, 0.0])
    own = dict(match="^log argument is nonpositive$")
    for fn in (fg.residuals, fg.residual_gradients):
        with pytest.raises(fg.EvaluationDomainError, **own):
            fn(problem, x)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.residuals_and_mixed_gradient(problem, np.full(3, 1.0 / 3), x)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.separation_oracle(problem, x, 1.0)  # constraint 0 is 0.5 <= eps


# on Simplex(1) at x = (1,) the folded argument R.x + d rounds to 0.0 while
# the scalar e + (a.x + b)/omega is 1.8e-15
EDGE = fg.LogAffineComposite(inner=fg.Affine(a=np.array([31.327023920027244]),
                                             b=-32.043627138986636), omega=0.26362359173243805)


@pytest.mark.parametrize("behind", [False, True], ids=["alone", "behind_an_affine_row"])
def test_a_folded_log_argument_that_rounds_to_zero_stays_off_the_domain(behind):
    x = np.ones(1)
    assert EDGE.log_argument(EDGE.inner.value(x)) > 0
    cons = (fg.Affine(a=np.zeros(1), b=-1.0), EDGE) if behind else (EDGE,)
    problem = fg.Problem(constraints=cons, domain=fg.Simplex(n=1), params=PARAMS)
    (group,) = [g for g in problem.packed.groups if isinstance(g, fg.core._LogAffines)]
    assert (group.R @ x + group.d)[0] == 0.0
    own = dict(match="^log argument is nonpositive$")
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.residuals(problem, x)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.residuals_and_mixed_gradient(problem, np.full(len(cons), 1.0 / len(cons)), x)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.separation_oracle(problem, x, 0.1)


def test_a_folded_log_argument_that_rounds_to_zero_is_refused_up_front():
    message = re.escape("log argument e + inner/omega falls to -2.14141e-13 <= 0 on the domain "
                        "(omega is too small for the inner's range)")
    with pytest.raises(fg.SetupError, match=f"^{message}$"):
        fg.make_problem([EDGE], fg.Simplex(n=1))
    # complete params: the estimate runs all the same
    doc = problem_to_doc(fg.Problem((EDGE,), fg.Simplex(n=1), PARAMS))
    with pytest.raises(fg.harness.ProblemFileError, match=f"^problem: {message}$"):
        problem_from_doc(doc)


def test_a_zero_weight_row_is_never_evaluated(monkeypatch):
    # crp's pairing: a norm distance and a log barrier share the scalar group;
    # x = (1, 0) is off the barrier's domain
    calls = []
    for name in ("value", "gradient"):
        method = getattr(fg.NegLogBarrier, name)
        monkeypatch.setattr(fg.NegLogBarrier, name,
                            lambda self, x, method=method: calls.append(self) or method(self, x))
    near = fg.NormDistSq(center=np.array([0.25, 0.75]), c=0.1)
    cons = (near, fg.NegLogBarrier(rows=np.array([[0.0, 1.0]]), level=0.0))
    problem = fg.Problem(constraints=cons, domain=fg.Simplex(n=2), params=PARAMS)
    assert len(problem.packed.groups) == 1
    x = np.array([1.0, 0.0])
    value, grad = fg.Mixture(problem, np.array([1.0, 0.0])).value_and_gradient(x)
    assert calls == []
    assert value == near.value(x)
    assert grad.tobytes() == near.gradient(x).tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_a_gradient_row_is_the_callers_own(family):
    # a learner may write into the gradient it is handed; the pack keeps its rows
    rng = np.random.default_rng(3)
    problem = fg.Problem(constraints=(make_constraint(family, rng, 3),),
                         domain=fg.Simplex(n=3), params=PARAMS)
    x = np.full(3, 1.0 / 3)
    g = fg.residual_gradient(problem, 0, x)
    want = g.copy()
    g += 1.0
    assert fg.residual_gradient(problem, 0, x).tobytes() == want.tobytes()


def test_pack_is_built_once_and_smoothness_on_first_use():
    problem = fg.make_portfolio_risk(4, 3, seed=1)
    packed = problem.packed
    assert problem.packed is packed
    assert "smoothness" not in vars(packed)
    fg.optimization_oracle(problem, np.full(3, 1.0 / 3), tol=0.01)
    L = [fg.smoothness_bound(f, problem.domain) for f in problem.constraints]
    np.testing.assert_array_equal(packed.smoothness, L)
    assert math.isfinite(fg.Mixture(problem, np.full(3, 1.0 / 3)).smoothness)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_quadratic_form_is_bit_identical_to_tensordot(k, n, seed):
    rng = np.random.default_rng(seed)
    cons = [make_constraint("quadratic", rng, n) for _ in range(k)]
    problem = fg.Problem(constraints=tuple(cons), domain=fg.Simplex(n=n), params=PARAMS)
    (group,) = problem.packed.groups
    w = rng.dirichlet(np.ones(k)) * rng.choice([1e-300, 1.0, 1e300])
    M = group.quadratic_form(w)[0]
    assert M.shape == (n, n)
    assert M.tobytes() == np.tensordot(w, group.A, 1).tobytes()


def reference_smoothness(mix):
    """Mixture.smoothness as a builtin sum over the weighted bounds."""
    active = mix.p != 0
    L = sum(mix.p[active] * mix.packed.smoothness[active], 0.0)
    return L if math.isfinite(L) and L > 0 else None


# more than 8 terms with finite bounds, where numpy's pairwise sum would
# round differently from the in-order one
many_terms = st.builds(lambda fams, n, seed: (fams, "simplex", n, seed),
                       st.lists(st.sampled_from(["affine", "quadratic", "norm_dist"]),
                                min_size=9, max_size=40),
                       st.integers(1, 4), st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(problems, many_terms), st.sampled_from(["dense", "sparse", "zero", "finite"]))
def test_mixture_smoothness_is_bit_identical_to_a_builtin_sum(spec, weights):
    # entropies and barriers reach the simplex boundary and ball or box
    # points off their domains, so their bound is often inf; "finite" puts
    # weight only on finite bounds
    problem, rng = build(spec)
    try:
        problem.packed.smoothness
    except fg.SetupError:  # a log composite whose omega is below its inner's range
        assume(False)
    p = rng.dirichlet(np.ones(problem.m))
    if weights == "sparse":
        p[rng.random(problem.m) < 0.5] = 0.0
    elif weights == "zero":
        p[:] = 0.0
    elif weights == "finite":
        p[~np.isfinite(problem.packed.smoothness)] = 0.0
    got, want = fg.Mixture(problem, p).smoothness, reference_smoothness(fg.Mixture(problem, p))
    assert (got is None) == (want is None)
    if want is not None:
        assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("fams, p, finite", [
    (("quadratic", "entropy"), [0.5, 0.5], False),  # inf L on the simplex
    (("quadratic", "entropy"), [1.0, 0.0], True),  # the inf term has weight 0
    (("affine", "affine"), [0.5, 0.5], False),  # sum 0: a line search instead
    (("quadratic", "quadratic"), [0.0, 0.0], False),  # no active term
])
def test_mixture_smoothness_edge_cases(fams, p, finite):
    problem, _ = build((list(fams), "simplex", 3, 4))
    mix = fg.Mixture(problem, np.array(p))
    assert (mix.smoothness is not None) == finite
    assert mix.smoothness == reference_smoothness(mix)


def scattered(problem, p, x, eps):
    """residuals_and_mixed_gradient, residual_gradients and the separation
    oracle through the multi-family passes of Packed, which scatter every
    group's rows by idx and merge the groups' lowest hits."""
    pk = problem.packed
    v, G = fg.core.Packed.both(pk, x)
    return (v, p @ G), G, fg.core.Packed.first(pk, x, eps)


@pytest.mark.parametrize("family", FAMILIES)
def test_one_family_skips_the_scatter_with_its_bits(family, monkeypatch):
    rng = np.random.default_rng(FAMILIES.index(family))
    domain = fg.Simplex(n=3)
    cons = tuple(make_constraint(family, rng, 3) for _ in range(4))
    problem = fg.Problem(constraints=cons, domain=domain, params=PARAMS)
    assert len(problem.packed.groups) == 1
    p = rng.dirichlet(np.ones(4))
    X = points(domain, rng)
    eps = 0.5
    want = []
    for x in X:
        try:
            want.append(scattered(problem, p, x, eps))
        except fg.EvaluationDomainError as exc:  # a barrier or an entropy at a corner
            want.append(exc)

    def refuse(*args):
        raise AssertionError("a one-family problem went through the multi-family passes")

    for name in ("_off_domain", "values", "both", "first"):
        monkeypatch.setattr(fg.core.Packed, name, refuse)
    for x, ref in zip(X, want):
        if isinstance(ref, Exception):
            own = dict(match=f"^{re.escape(str(ref))}$")
            for fn in (fg.residuals, fg.residual_gradients):
                with pytest.raises(fg.EvaluationDomainError, **own):
                    fn(problem, x)
            with pytest.raises(fg.EvaluationDomainError, **own):
                fg.residuals_and_mixed_gradient(problem, p, x)
            continue
        (r_want, g_want), G_want, hit_want = ref
        r, mixed = fg.residuals_and_mixed_gradient(problem, p, x)
        assert r.tobytes() == r_want.tobytes()
        assert mixed.tobytes() == g_want.tobytes()
        assert fg.residuals(problem, x).tobytes() == r_want.tobytes()
        assert fg.residual_gradients(problem, x).tobytes() == G_want.tobytes()
        hit = fg.separation_oracle(problem, x, eps)
        if hit_want is None:
            assert hit is None
        else:
            assert (hit.index, hit.value) == hit_want
    with pytest.raises(fg.DimensionMismatch):
        fg.residuals_and_mixed_gradient(problem, p, np.ones(4) / 4)


def test_one_log_affine_family_off_its_domain_raises_as_residuals():
    # at x = e_1 row 1's argument e + (a.x + b)/omega is e - 12 < 0, row 0's
    # is e: the lowest row off the domain decides, with the reference's message
    cons = (fg.LogAffineComposite(inner=fg.Affine(a=np.zeros(2), b=0.0), omega=1.0),
            fg.LogAffineComposite(inner=fg.Affine(a=np.array([0.0, -12.0]), b=0.0), omega=1.0),
            fg.LogAffineComposite(inner=fg.Affine(a=np.array([0.0, -20.0]), b=0.0), omega=1.0))
    problem = fg.Problem(constraints=cons, domain=fg.Simplex(n=2), params=PARAMS)
    assert len(problem.packed.groups) == 1
    x = np.array([0.0, 1.0])
    with pytest.raises(fg.EvaluationDomainError) as ref:
        fg.evaluate(cons[1], x)
    own = dict(match=f"^{re.escape(str(ref.value))}$")
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.residuals(problem, x)
    with pytest.raises(fg.EvaluationDomainError, **own):
        fg.residuals_and_mixed_gradient(problem, np.full(3, 1.0 / 3), x)
