"""The certified descent against a frozen copy of its plain loop.

minimize_over_domain memoizes the linear minimum of the last gradient and
takes its vector products through ndarray.dot; both are meant to leave every
float where the plain loop puts it.  The plain loop is kept below as it was
before either change, and every result is compared with it bit for bit:
mixtures of every stacked family and the entropy on all three domains, the
fixed step and the line search, with and without stop_below, and custom
objectives whose gradients are strided, reversed, broadcast or rewritten in
place.
"""

import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import feasgame as fg
from feasgame import descent, solvers
from feasgame.projections import project_domain

CAP = 2_000  # steps per descent in the property tests, to keep them quick


def plain_minimize(fn, domain, *, smoothness=None, tol=1e-9, stop_below=None, cap=CAP):
    """minimize_over_domain as it was before the memo and ndarray.dot, with
    its step cap as an argument."""
    x = domain.start()
    fx, g = fn(x)
    best_x, best_f = x, fx
    best_lb = -math.inf
    fixed = smoothness is not None and math.isfinite(smoothness) and smoothness > 0
    step = 1.0 / smoothness if fixed else 1.0
    iters = 0
    for iters in range(1, cap + 1):
        if stop_below is not None and best_f <= stop_below:
            return fg.MinimizeResult(best_x, best_f, best_lb, iters - 1, True)
        _, lin = domain.linear_minimum(g)
        best_lb = max(best_lb, fx + lin - float(g @ x))
        if best_f - best_lb <= tol:
            return fg.MinimizeResult(best_x, best_f, best_lb, iters - 1, True)
        if fixed:
            x_new = project_domain(domain, x - step * g)
            f_new, g_new = fn(x_new)
        else:
            s = step
            while True:
                x_new = project_domain(domain, x - s * g)
                try:
                    f_new, g_new = fn(x_new)
                except fg.EvaluationDomainError:
                    f_new = math.inf
                d = x_new - x
                if f_new <= fx + float(g @ d) + float(d @ d) / (2.0 * s) + 1e-15:
                    break
                s *= 0.5
                if s < 1e-18:
                    x_new, f_new, g_new = x, fx, g
                    break
            if not f_new < fx and s < 1e-18:
                return fg.MinimizeResult(best_x, best_f, best_lb, iters, False)
            step = min(s * 2.0, 1.0) if f_new < fx else s * 0.5
        if f_new < best_f:
            best_x, best_f = x_new, f_new
        x, fx, g = x_new, f_new, g_new
    return fg.MinimizeResult(best_x, best_f, best_lb, iters, False)


def outcome(run):
    """The result of run() as bytes and exact scalars, or the error it raised."""
    try:
        res = run()
    except (fg.EvaluationDomainError, fg.SetupError) as exc:
        return type(exc), str(exc)
    return (res.x.tobytes(), np.float64(res.value).tobytes(),
            np.float64(res.lower_bound).tobytes(), res.iterations, res.converged)


def assert_same_descent(fn, domain, monkeypatch, **kwargs):
    monkeypatch.setattr(descent, "MAX_STEPS", CAP)
    got = outcome(lambda: fg.minimize_over_domain(fn, domain, **kwargs))
    assert got == outcome(lambda: plain_minimize(fn, domain, **kwargs))
    return got


FAMILIES = ("affine", "quadratic", "log_affine", "entropy")
PARAMS = fg.ProblemParams(G=1.0, H=0.0, omega=1.0, D=1.0, G_inf=1.0, alpha=0.0)


def make_constraint(family, rng, n):
    a, b = rng.uniform(-2, 2, n), float(rng.uniform(-1, 1))
    if family == "affine":
        return fg.Affine(a=a, b=b)
    if family == "quadratic":
        M = rng.uniform(-1, 1, (n, n))
        return fg.Quadratic(A=M @ M.T / n, b=a, c=b)
    if family == "log_affine":
        return fg.LogAffineComposite(inner=fg.Affine(a=0.3 * a, b=b),
                                     omega=float(rng.uniform(1, 3)))
    return fg.NegEntropy(n=n, shift=b)


def make_domain(kind, rng, n):
    if kind == "simplex":
        return fg.Simplex(n=n)
    if kind == "ball":
        return fg.Ball(n=n, radius=float(rng.uniform(0.2, 2)), center=rng.uniform(-1, 1, n))
    lo = rng.uniform(-1, 0.5, n)
    return fg.Box(lo=lo, hi=lo + rng.uniform(0.1, 2, n))


mixtures = st.tuples(
    st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=4),
    st.sampled_from(["simplex", "ball", "box"]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["mixture", "line search"]),
    st.sampled_from([None, 0.0, "reachable"]),
    st.sampled_from([1e-9, 1e-4]),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mixtures)
def test_mixture_descents_match_the_plain_loop_bit_for_bit(spec):
    fams, kind, n, seed, step, stop, tol = spec
    rng = np.random.default_rng(seed)
    domain = make_domain(kind, rng, n)
    problem = fg.Problem(constraints=tuple(make_constraint(f, rng, n) for f in fams),
                         domain=domain, params=PARAMS)
    p = rng.dirichlet(np.ones(problem.m))
    mix = fg.Mixture(problem, p)
    smoothness = mix.smoothness if step == "mixture" else None
    if stop == "reachable":  # stops a few steps in, or never
        stop = float(rng.uniform(-1, 1))
    with pytest.MonkeyPatch.context() as mp:
        assert_same_descent(mix.value_and_gradient, domain, mp,
                            smoothness=smoothness, tol=tol, stop_below=stop)


def gradient_view(g, layout):
    """g as a strided, reversed, broadcast or byte-swapped array of its values."""
    n = g.shape[0]
    if layout == "step":
        buf = np.full(3 * n, np.nan)
        buf[::3] = g
        return buf[::3]
    if layout == "reversed":
        return g[::-1].copy()[::-1]
    if layout == "broadcast":
        return np.broadcast_to(g[:1], (n,)) if (g == g[0]).all() else g
    return g.astype(">f8")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["simplex", "ball", "box"]), st.integers(1, 40),
       st.integers(0, 2**32 - 1), st.sampled_from(["step", "reversed", "broadcast", "swapped"]),
       st.sampled_from(["affine", "quadratic"]), st.booleans(), st.sampled_from([None, 0.0]))
def test_custom_gradients_of_any_layout_match_the_plain_loop(kind, n, seed, layout, shape,
                                                            fixed, stop):
    rng = np.random.default_rng(seed)
    domain = make_domain(kind, rng, n)
    c = rng.uniform(-2, 2, n)
    if layout == "broadcast":
        c[:] = c[0]
    w = rng.uniform(0.5, 2, n)
    if shape == "affine":
        def fn(x):
            return float(c @ x) + 0.1, gradient_view(c.copy(), layout)
        smoothness = None
    else:
        def fn(x):
            r = x - c
            return float(w @ (r * r)) - 0.5, gradient_view(2.0 * w * r, layout)
        smoothness = 2.0 * float(w.max()) if fixed else None
    with pytest.MonkeyPatch.context() as mp:
        assert_same_descent(fn, domain, mp, smoothness=smoothness, stop_below=stop)


def counted_linear_minimum(monkeypatch, domain):
    """A list that gets a copy of each direction domain.linear_minimum sees."""
    seen = []
    cls = type(domain)
    original = cls.linear_minimum

    def linear_minimum(self, c):
        seen.append(np.array(c, copy=True))
        return original(self, c)

    monkeypatch.setattr(cls, "linear_minimum", linear_minimum)
    return seen


@pytest.mark.parametrize("fixed", [False, True])
def test_a_gradient_buffer_rewritten_in_place_gets_a_bound_per_gradient(monkeypatch, fixed):
    # fn returns one buffer every time; a memo keyed on the array object
    # would keep the first gradient's linear minimum and certify a wrong bound
    domain = fg.Simplex(n=5)
    c = np.array([0.9, -0.3, 0.4, 0.05, -0.6])
    buf = np.empty(5)

    def fn(x):
        np.subtract(x, c, out=buf)
        np.multiply(buf, 2.0, out=buf)
        return float((x - c) @ (x - c)), buf

    smoothness = 2.0 if fixed else None
    got = assert_same_descent(fn, domain, monkeypatch, smoothness=smoothness)
    seen = counted_linear_minimum(monkeypatch, domain)
    res = fg.minimize_over_domain(fn, domain, smoothness=smoothness)
    assert res.converged
    # a bound for every step's gradient: the gap closed at step iterations + 1
    assert len(seen) == res.iterations + 1
    assert all((a != b).any() for a, b in zip(seen, seen[1:]))
    assert got == outcome(lambda: res)

    def fresh(x):
        value, g = fn(x)
        return value, g.copy()

    exact = fg.minimize_over_domain(fresh, domain, smoothness=smoothness)
    assert res.lower_bound <= exact.value + 1e-12


def test_an_affine_descent_takes_one_linear_minimum(monkeypatch):
    # its gradient is the same vector, in a fresh array, at every step
    prob = fg.make_perceptron_lp(10, 20, feasible=False, seed=0)
    mix = fg.Mixture(prob, np.random.default_rng(3).dirichlet(np.ones(20)))
    assert mix.linear
    seen = counted_linear_minimum(monkeypatch, prob.domain)
    res = fg.minimize_over_domain(mix.value_and_gradient, prob.domain, tol=1e-6)
    assert (res.iterations, res.converged) == (207, True)
    assert len(seen) == 1


def parent_value_and_gradient(mix, x):
    """Mixture.value_and_gradient as it was, with its vector products through @."""
    v = mix.c + mix.q @ x
    if mix.M is None:
        g = mix.q.copy()
    else:
        Mx = mix.M @ x
        v += x @ Mx
        g = 2.0 * Mx + mix.q
    for group, wg in mix.terms:
        values, rows, bad = group.both(x)
        if bad is not None:
            live = bad & (wg != 0)
            if live.any():
                raise group.error(int(live.argmax()), x)
            values, rows = np.where(bad, 0.0, values), np.where(bad[:, None], 0.0, rows)
        v += wg @ values
        g += wg @ rows
    return float(v), g


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(["affine", "quadratic", "log_affine"]), min_size=1, max_size=4),
       st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from(["contiguous", "step", "reversed", "broadcast", "swapped"]))
def test_mixture_value_and_gradient_keeps_its_bits_for_any_point_layout(fams, n, seed, layout):
    rng = np.random.default_rng(seed)
    rows = []
    for f in fams:  # no constant terms, whose sum would round a product's last bits away
        a = rng.uniform(-2, 2, n)
        M = rng.uniform(-1, 1, (n, n))
        rows.append(fg.Affine(a=a, b=0.0) if f == "affine" else
                    fg.Quadratic(A=M @ M.T / n, b=a, c=0.0) if f == "quadratic" else
                    make_constraint(f, rng, n))
    domain = fg.Box(lo=np.full(n, -1.0), hi=np.full(n, 1.0))
    problem = fg.Problem(constraints=tuple(rows), domain=domain, params=PARAMS)
    mix = fg.Mixture(problem, rng.dirichlet(np.ones(problem.m)))
    x = domain.sample(1, seed=seed)[0]
    if layout == "broadcast":
        x[:] = x[0]
    view = x if layout == "contiguous" else gradient_view(x, layout)
    try:
        ref_value, ref_grad = parent_value_and_gradient(mix, view)
    except fg.EvaluationDomainError as exc:
        with pytest.raises(fg.EvaluationDomainError, match=f"^{re.escape(str(exc))}$"):
            mix.value_and_gradient(view)
        return
    value, grad = mix.value_and_gradient(view)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


BAD_TOLS = [math.nan, math.inf, -1e-3, -math.inf]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_a_bad_tol_is_refused_before_the_first_step(tol):
    def fn(x):
        raise AssertionError("the descent evaluated fn")

    with pytest.raises(fg.SetupError, match="tol"):
        fg.minimize_over_domain(fn, fg.Simplex(n=3), tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_the_oracle_refuses_a_bad_tol(tol):
    # a NaN tol used to run the descent to its 200,000-step cap
    prob = fg.make_portfolio_risk(4, 3)
    with pytest.raises(fg.SetupError, match="tol"):
        fg.optimization_oracle(prob, np.full(3, 1 / 3), tol)
    affine = fg.make_perceptron_lp(4, 3, feasible=False, seed=0)
    with pytest.raises(ValueError, match="tol"):  # SetupError is a ValueError
        fg.optimization_oracle(affine, np.full(3, 1 / 3), tol)


def test_the_certify_certificate_is_pinned_to_the_bit(monkeypatch):
    # the benchmark's certify instance: the affine mixture's line search
    # takes 33,539 steps, and its bound is the report's value
    steps = []
    descend = solvers.minimize_over_domain

    def counted(*args, **kwargs):
        res = descend(*args, **kwargs)
        steps.append(res.iterations)
        return res

    monkeypatch.setattr(solvers, "minimize_over_domain", counted)
    prob = fg.make_perceptron_lp(10, 20, feasible=False, seed=0)
    rep = fg.verify_certificate(prob, fg.dual_game_opt(prob, 0.025).outcome, 0.025)
    assert rep.ok and rep.method == "pgd"
    assert rep.value == 0.0002932744809333055
    assert steps == [33_539]
