"""The certified descent against a frozen copy of its plain loop.

minimize_over_domain memoizes the linear minimum of the last gradient and
takes its vector products through ndarray.dot; both are meant to leave every
float where the plain loop puts it.  The plain loop is kept below, with
FISTA's momentum, its function-value restart and the line search's
rejected-trial restart written out, and every result is compared with it
bit for bit: mixtures of every stacked family and the entropy on all three
domains, the fixed step and the line search, with and without stop_below,
and custom objectives whose gradients are strided, reversed, broadcast or
rewritten in place.  The loop as it was before the
momentum, plain_pgd, is the reference for the momentum's bounds and its
unchanged first steps.
"""

import functools
import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import feasgame as fg
from feasgame import descent, solvers
from feasgame.projections import project_domain
from test_packed import FAMILIES as PACKED_FAMILIES, build, problems

CAP = 2_000  # steps per descent in the property tests, to keep them quick


def plain_minimize(fn, domain, *, smoothness=None, tol=1e-9, stop_below=None, cap=CAP,
                   momentum=True):
    """minimize_over_domain without the memo and ndarray.dot, with its step
    cap as an argument; momentum=False is the descent before FISTA's
    momentum (plain_pgd)."""
    x = domain.start()
    fx, g = fn(x)
    best_x, best_f = x, fx
    best_lb = -math.inf
    fixed = smoothness is not None and math.isfinite(smoothness) and smoothness > 0
    step = 1.0 / smoothness if fixed else 1.0
    iters, t = 0, 1.0
    for iters in range(1, cap + 1):
        if stop_below is not None and best_f <= stop_below:
            return fg.MinimizeResult(best_x, best_f, best_lb, iters - 1, True)
        _, lin = domain.linear_minimum(g)
        best_lb = max(best_lb, fx + lin - float(g @ x))
        if best_f - best_lb <= tol:
            return fg.MinimizeResult(best_x, best_f, best_lb, iters - 1, True)
        # FISTA (Beck-Teboulle 2009) from the third step on both branches,
        # with the gradient at its extrapolated point taken as the same
        # extrapolation of the gradient steps u; t restarts at 1 whenever f
        # rises (O'Donoghue-Candes 2015)
        beta = 0.0
        if momentum and iters > 1:
            t_old, t = t, (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            beta = (t_old - 1.0) / t
        if fixed:
            u = x - step * g
            x_new = project_domain(domain, u + beta * (u - u_old) if beta > 0.0 else u)
            f_new, g_new = fn(x_new)
        else:
            s = step
            while True:
                u = x - s * g
                x_new = project_domain(domain, u + beta * (u - u_old) if beta > 0.0 else u)
                try:
                    f_new, g_new = fn(x_new)
                except fg.EvaluationDomainError:
                    f_new = math.inf
                d = x_new - x
                if f_new <= fx + float(g @ d) + float(d @ d) / (2.0 * s) + 1e-15:
                    break
                if beta > 0.0:  # a rejected extrapolation: the plain step at this s
                    beta, t = 0.0, 1.0
                    continue
                s *= 0.5
                if s < 1e-18:
                    x_new, f_new, g_new = x, fx, g
                    break
            if not f_new < fx and s < 1e-18:
                return fg.MinimizeResult(best_x, best_f, best_lb, iters, False)
            step = min(s * 2.0, 1.0) if f_new < fx else s * 0.5
        if f_new > fx:
            t = 1.0
        u_old = u
        if f_new < best_f:
            best_x, best_f = x_new, f_new
        x, fx, g = x_new, f_new, g_new
    return fg.MinimizeResult(best_x, best_f, best_lb, iters, False)


plain_pgd = functools.partial(plain_minimize, momentum=False)


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
    try:
        smoothness = mix.smoothness if step == "mixture" else None
    except fg.SetupError:
        # the bounds refuse an entropy over negative coordinates, whose
        # smoothness bound is inf, so that mixture has no fixed step anyway
        smoothness = None
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
    assert (res.iterations, res.converged) == (38, True)
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
        values, rows = group.both(x)
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
    # takes 514 steps (33,539 without momentum), and its bound is the
    # report's value
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
    assert steps == [514] == [rep.steps]


# ---------------------------------------------------------------------------
# The fixed step's momentum against plain_pgd, the 1/L loop before it


@pytest.mark.parametrize("seed, steps, bound, plain_steps", [
    (0, 38, 0.0551833957678326, 205),
    (1, 25, 0.10907135629586105, 93),
])
def test_primal_ons_certificates_prove_in_their_pinned_steps(seed, steps, bound, plain_steps):
    # the benchmark's primal-ons instance (seed 0) and a held-out one: the
    # momentum proves each log mixture in a fifth of the plain steps, to
    # the plain loop's bound
    prob = fg.log_transform(fg.make_perceptron_lp(10, 20, feasible=False, seed=seed))
    out = fg.primal_game_opt(prob, 0.05, "ons").outcome
    rep = fg.verify_certificate(prob, out, 0.05)
    assert (rep.ok, rep.method, rep.steps, rep.value) == (True, "pgd", steps, bound)
    mix = fg.Mixture(prob, out.p_bar)
    plain = plain_pgd(mix.value_and_gradient, prob.domain, smoothness=mix.smoothness,
                      cap=descent.MAX_STEPS)
    assert (plain.iterations, plain.converged, plain.lower_bound) == (plain_steps, True, bound)


@pytest.mark.parametrize("n, kappa", [(3, 1e3), (5, 1e2), (10, 1e3), (20, 1e4)])
def test_the_restart_keeps_an_ill_conditioned_descent_linear(n, kappa):
    # sum_i w_i (x_i - c_i)^2 in a box, condition number kappa, minimum 0
    # inside: the restarted momentum closes a 1e-9 gap within
    # 2 sqrt(kappa) log(1e9) steps, where without the restart it took 759
    # to 25,205 steps and without momentum 1,535 to 108,212
    w, c = np.geomspace(1.0, 1.0 / kappa, n), np.linspace(-0.5, 0.5, n)

    def fn(x):
        r = x - c
        return float(w @ (r * r)), 2.0 * w * r

    box = fg.Box(lo=np.full(n, -1.0), hi=np.full(n, 1.0))
    res = fg.minimize_over_domain(fn, box, smoothness=2.0, tol=1e-9)
    assert res.converged and -1e-9 <= res.lower_bound <= 0.0 <= res.value <= 1e-9
    assert res.iterations <= 2.0 * math.sqrt(kappa) * math.log(1e9)


def smooth_mixture(kind, n, seed):
    """A mixture of finite smoothness: a log-transformed perceptron LP, a
    portfolio (both on the simplex) or quadratics on the simplex, the ball
    or the box, with Dirichlet weights."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 21))
    if kind == "log lp":
        problem = fg.log_transform(fg.make_perceptron_lp(n, m, feasible=bool(seed % 2),
                                                         seed=seed))
    elif kind == "portfolio":
        problem = fg.make_portfolio_risk(n, m, seed=seed)
    else:
        problem = fg.Problem(constraints=tuple(make_constraint("quadratic", rng, n)
                                               for _ in range(m % 4 + 1)),
                             domain=make_domain(kind, rng, n), params=PARAMS)
    mix = fg.Mixture(problem, rng.dirichlet(np.ones(problem.m)))
    assert mix.smoothness is not None
    return problem.domain, mix


smooth_mixtures = st.tuples(st.sampled_from(["log lp", "portfolio", "simplex", "ball", "box"]),
                            st.integers(2, 20), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(smooth_mixtures)
def test_momentum_converges_at_domain_points_to_the_plain_bound(spec):
    domain, mix = smooth_mixture(*spec)
    tol, inside = 1e-8, []

    def fn(x):
        inside.append(domain.contains(x))
        return mix.value_and_gradient(x)

    res = fg.minimize_over_domain(fn, domain, smoothness=mix.smoothness, tol=tol)
    assert res.converged and res.value - res.lower_bound <= tol
    assert len(inside) == res.iterations + 1 and all(inside)
    plain = plain_pgd(mix.value_and_gradient, domain, smoothness=mix.smoothness, tol=tol,
                      cap=descent.MAX_STEPS)
    assert plain.converged
    assert abs(res.lower_bound - plain.lower_bound) <= 2 * tol


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(smooth_mixtures, st.sampled_from([1, 2]))
def test_a_descent_stopped_within_two_steps_keeps_the_plain_bytes(spec, k):
    # beta is 0 on steps 1 and 2: a dual oracle call that stops at the top
    # of step 2 (every one of the dual-descent benchmark's) or 3 returns
    # the plain loop's point
    domain, mix = smooth_mixture(*spec)
    fn, L = mix.value_and_gradient, mix.smoothness
    stop = plain_pgd(fn, domain, smoothness=L, tol=0.0, cap=k).value
    got = outcome(lambda: fg.minimize_over_domain(fn, domain, smoothness=L, stop_below=stop))
    assert got == outcome(lambda: plain_pgd(fn, domain, smoothness=L, stop_below=stop))
    assert got[3] <= k


# ---------------------------------------------------------------------------
# The line search's momentum against plain_pgd, the loop before it


@pytest.mark.parametrize("n, seed, weights, capped_bound, converged", [
    (4, 1, "dirichlet", -1.1579704122719008, True),
    (8, 0, "dirichlet", -3.361835993487982, False),
    (7, 1, "e0", -5.301165057183718, True),
])
def test_crp_barrier_certificates_end_within_a_thousand_steps(n, seed, weights, capped_bound,
                                                              converged):
    # crp's log barrier has no smoothness bound, so its mixtures take the
    # line search, which without momentum ran these to the 200,000-step
    # cap and stopped unconverged at capped_bound.  n = 8 ends at the
    # stall exit instead: its value is the cap's -3.3618359815215775 to
    # f's rounding, where the projected gradient is too small to move f
    # and the Frank-Wolfe gap stays at the cap's 1.2e-8
    prob = fg.make_crp_problem(n, 2, seed=seed)
    p = np.random.default_rng(0).dirichlet(np.ones(2)) if weights == "dirichlet" else np.eye(2)[0]
    mix = fg.Mixture(prob, p)
    assert mix.smoothness is None
    res = fg.minimize_over_domain(mix.value_and_gradient, prob.domain, tol=1e-9)
    assert res.converged == converged and res.iterations <= 1_000
    assert abs(res.lower_bound - capped_bound) <= 1e-8
    assert res.value - res.lower_bound <= (1e-9 if converged else 2e-8)
    rep = fg.verify_certificate(prob, fg.Infeasible(p_bar=p), 0.1)
    assert (rep.ok, rep.value, rep.steps) == (False, res.lower_bound, res.iterations)


def line_search_mixture(fams, kind, n, seed):
    """An equal-weight mixture of affine, entropy, log-barrier and quadratic
    terms on the simplex, a ball or a box whose start point is inside every
    term's domain (x > 0 for the entropy, rows . x > 0 for the barrier),
    while the ball and the box may reach outside it.  Dirichlet weights
    can give the entropy a small weight and the minimizer coordinates of
    1e-5 to 1e-4, whose uneven curvature (weight / x_i) takes either loop
    thousands of steps or stalls it."""
    rng = np.random.default_rng(seed)
    if kind == "simplex":
        domain = fg.Simplex(n=n)
    elif kind == "ball":
        domain = fg.Ball(n=n, radius=float(rng.uniform(0.2, 2)), center=rng.uniform(0.5, 1.5, n))
    else:
        lo = rng.uniform(-0.5, 0.5, n)
        domain = fg.Box(lo=lo, hi=lo + rng.uniform(1.2, 2, n))
    terms = tuple(fg.NegLogBarrier(rows=rng.uniform(0.1, 1, (int(rng.integers(1, 4)), n)),
                                   level=float(rng.uniform(-1, 1)))
                  if f == "barrier" else make_constraint(f, rng, n) for f in fams)
    problem = fg.Problem(constraints=terms, domain=domain, params=PARAMS)
    return domain, fg.Mixture(problem, np.full(problem.m, 1.0 / problem.m))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(["affine", "entropy", "barrier", "quadratic"]), min_size=1,
                max_size=4),
       st.sampled_from(["simplex", "ball", "box"]), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_line_search_momentum_converges_at_domain_points_to_the_plain_bound(fams, kind, n,
                                                                             seed):
    # no smoothness is passed, so even a quadratic takes the line search;
    # trial points off the entropy's or the barrier's domain are rejected
    domain, mix = line_search_mixture(fams, kind, n, seed)
    tol, inside = 1e-7, []

    def fn(x):
        inside.append(domain.contains(x))
        return mix.value_and_gradient(x)

    res = fg.minimize_over_domain(fn, domain, tol=tol)
    assert res.converged and res.value - res.lower_bound <= tol
    assert all(inside)
    plain = plain_pgd(mix.value_and_gradient, domain, tol=tol, cap=descent.MAX_STEPS)
    assert plain.converged
    assert abs(res.lower_bound - plain.lower_bound) <= 2 * tol


# ---------------------------------------------------------------------------
# The optimization oracle against its plain reference: the oracle, Mixture's
# construction and smoothness, and check_distribution as they were before
# their one-group, dense and ndarray.dot shortcuts, over the packed tests'
# problems (every family, domain and one or several groups)


def plain_check_distribution(p, m):
    p = np.asarray(p, float)
    if p.shape != (m,):
        raise fg.InvalidDistribution(f"weight vector has shape {p.shape}, expected ({m},)")
    if (p < -fg.core.ZERO_TOL).any():
        raise fg.InvalidDistribution("weights must be nonnegative")
    if not abs(float(p.sum()) - 1.0) <= fg.core.DIST_TOL:
        raise fg.InvalidDistribution("weights must sum to 1")
    return np.maximum(p, 0.0)


def plain_form(group, w):
    """group.quadratic_form(w) with its products through @ and cumsum."""
    if isinstance(group, fg.core._Affines):
        return (None, (w[:, None] * group.R).cumsum(axis=0)[-1],
                float((w * group.b).cumsum(axis=0)[-1]))
    if isinstance(group, fg.core._Quadratics):
        return np.tensordot(w, group.A, 1), w @ group.B, float(w @ group.c)
    return None


class PlainMixture:
    """Mixture with a mask and a fancy index per group and every product
    through @."""

    def __init__(self, problem, p):
        pk = problem.packed
        self.packed, self.p, self.M, self.q, self.c, self.terms = pk, p, None, np.zeros(pk.n), 0.0, []
        for group in pk.groups:
            wg = p[group.idx]
            live = wg != 0
            if not live.any():
                continue
            form = plain_form(group, wg)
            if form is None:
                if not live.all():
                    group = type(group)([pk.constraints[j] for j in group.idx[live]])
                    wg = wg[live]
                self.terms.append((group, wg))
                continue
            M, q, c = form
            if M is not None:
                self.M = M if self.M is None else self.M + M
            self.q = self.q + q
            self.c += c
        self.linear = self.M is None and not self.terms

    @property
    def smoothness(self):
        active = self.p != 0
        P = self.p[active] * self.packed.smoothness[active]
        if not P.size:
            return None
        L = P.cumsum(axis=0)[-1]
        return L if math.isfinite(L) and L > 0 else None

    def value_and_gradient(self, x):
        return parent_value_and_gradient(self, x)


def plain_oracle(problem, p, tol):
    """optimization_oracle over PlainMixture, plain_check_distribution and
    plain_minimize."""
    if not 0.0 <= tol < math.inf:
        raise fg.SetupError(f"tol must be a nonnegative finite float, got {tol!r}")
    p = plain_check_distribution(p, problem.m)
    mix = PlainMixture(problem, p)
    if mix.linear:
        x, lin = problem.domain.linear_minimum(mix.q)
        return x if lin + mix.c <= 0 else None
    res = plain_minimize(mix.value_and_gradient, problem.domain, smoothness=mix.smoothness,
                         tol=max(tol, 1e-12) * 0.5, stop_below=0.0)
    if res.value <= 0.0:
        return res.x
    if res.lower_bound > 0.0:
        return None
    if res.value <= tol:
        return res.x
    if not res.converged:
        raise fg.ConvergenceError(
            f"inner minimization stopped unconverged after {res.iterations} steps")
    return None


def answer(run):
    """run()'s result as bytes, or the error it raised."""
    try:
        out = run()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if out is None or isinstance(out, float):
        return None if out is None else out.hex()
    return out.tobytes()


def group_weights(spec, kind):
    """A test_packed problem with weights: "dense", "sparse" (some rows 0)
    or "zero group" (every row of the first constraint's family 0, which
    leaves no distribution where that family is all there is)."""
    problem, rng = build(spec)
    p = rng.dirichlet(np.ones(problem.m))
    if kind == "sparse":
        p[rng.random(problem.m) < 0.5] = 0.0
    elif kind == "zero group":
        p[problem.packed.groups[0].idx] = 0.0
    if p.sum() > 0:
        p /= p.sum()
    return problem, p, rng


one_family = st.builds(lambda fam, k, kind, n, seed: ([fam] * k, kind, n, seed),
                       st.sampled_from(PACKED_FAMILIES), st.integers(1, 12),
                       st.sampled_from(["simplex", "ball", "box"]), st.integers(1, 4),
                       st.integers(0, 2**32 - 1))
weighted_problems = st.tuples(st.one_of(problems, one_family),
                              st.sampled_from(["dense", "sparse", "zero group"]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weighted_problems, st.sampled_from([1e-3, 0.05]))
def test_the_oracle_matches_its_plain_reference(case, tol):
    problem, p, _ = group_weights(*case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(descent, "MAX_STEPS", CAP)
        got = answer(lambda: fg.optimization_oracle(problem, p, tol))
        assert got == answer(lambda: plain_oracle(problem, p, tol))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weighted_problems, st.sampled_from(["contiguous", "step", "reversed", "signed"]))
def test_mixture_forms_and_smoothness_match_the_plain_construction(case, layout):
    problem, p, rng = group_weights(*case)
    if layout == "signed":  # a Mixture takes any weights
        p = rng.normal(size=problem.m)
    elif layout != "contiguous":
        p = gradient_view(p, layout)
    mix, plain = fg.Mixture(problem, p), PlainMixture(problem, p)
    assert answer(lambda: mix.M) == answer(lambda: plain.M)
    assert (mix.q.tobytes(), float(mix.c).hex()) == (plain.q.tobytes(), float(plain.c).hex())
    assert mix.linear == plain.linear
    assert ([(type(g), w.tobytes()) for g, w in mix.terms]
            == [(type(g), w.tobytes()) for g, w in plain.terms])
    for x in (problem.domain.start(), problem.domain.sample(1, seed=0)[0]):
        assert (answer(lambda: mix.value_and_gradient(x)[1])
                == answer(lambda: plain.value_and_gradient(x)[1]))
    with np.errstate(invalid="ignore"):  # a signed weight on an inf bound: inf - inf
        assert answer(lambda: mix.smoothness) == answer(lambda: plain.smoothness)


@pytest.mark.parametrize("p", [
    [0.25, 0.25, 0.5], [0.0, -0.0, 1.0], [-1e-13, 0.5, 0.5 + 1e-13], [-1e-3, 0.5, 0.5],
    [math.nan, -1.0, 2.0], [0.5, math.nan, -1.0], [math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0],
    [-math.inf, 0.5, 0.5], [0.5, 0.5, 0.1], [0.5, 0.5], [[0.5, 0.5, 0.0]], [1, 0, 0],
    np.array([0.5, 0.0, 0.5])[::-1], np.array([0.2, 0.3, 0.5], dtype=">f8"),
])
def test_check_distribution_matches_the_plain_check(p):
    got = answer(lambda: fg.check_distribution(p, 3))
    assert got == answer(lambda: plain_check_distribution(p, 3))
    if not isinstance(got, tuple):  # a new array, never the caller's
        assert fg.check_distribution(p, 3) is not p


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.sampled_from(["contiguous", "step", "reversed", "broadcast", "swapped"]))
def test_quadratic_passes_keep_the_bits_of_their_at_products(k, n, seed, layout):
    # a round's residuals and a primal-dual round's gradient rows at a point
    # of any layout, against the products through @
    rng = np.random.default_rng(seed)
    problem = fg.Problem(constraints=tuple(make_constraint("quadratic", rng, n) for _ in range(k)),
                         domain=fg.Simplex(n=n), params=PARAMS)
    (group,) = problem.packed.groups
    x = rng.dirichlet(np.ones(n))
    if layout == "broadcast":
        x[:] = x[0]
    view = x if layout == "contiguous" else gradient_view(x, layout)
    Ax = (group.A_flat @ view).reshape(group.B.shape)
    values = (Ax + group.B) @ view + group.c
    assert fg.residuals(problem, view).tobytes() == values.tobytes()
    v, G = problem.packed.both(view)
    assert (v.tobytes(), G.tobytes()) == (values.tobytes(), (2.0 * Ax + group.B).tobytes())
