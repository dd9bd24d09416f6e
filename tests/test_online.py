"""Learner steps, regret bounds, and measured regret."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import feasgame as fg
import feasgame.online as online
from feasgame.online import MwState, OgdState
from feasgame.core import _simplex_kkt
from feasgame.projections import positive_definite


SIMPLEX2 = fg.Simplex(n=2)
DOMAINS3 = [fg.Simplex(n=3), fg.Ball(n=3, radius=1.0, center=np.zeros(3)),
            fg.Box(lo=np.zeros(3), hi=np.ones(3))]


def takes_exact_simplex_solve(s):
    """Whether ons_step sends a simplex step straight to the exact KKT
    solve: spectrum_bounds proves lam_max <= MAX_CONDITION lam_min."""
    bounds = s.spectrum_bounds()
    return bounds is not None and bounds[1] <= online.MAX_CONDITION * bounds[0]


def at_vertex(s, f, negative_zeros=False):
    """The proven ONS state s moved to the vertex e_f, its other entries
    zeros of either sign.  The private class keeps the proof about A, which
    a state built by hand would drop."""
    x = np.full(s.x.size, -0.0 if negative_zeros else 0.0)
    x[f] = 1.0
    return online._ProvenOnsState(x=x, t=s.t, beta=s.beta, A=s.A, scale=s.scale,
                                  trace_bound=s.trace_bound)


@pytest.mark.parametrize("bad", [2.0, [5.0], [0.1, 0.2, 0.3, 0.4], [[0.1], [0.2], [0.3]]],
                         ids=["scalar", "one", "n+1", "column"])
@pytest.mark.parametrize("domain", DOMAINS3, ids=["simplex", "ball", "box"])
@pytest.mark.parametrize("learner", ["ogd", "ons"])
def test_gradient_of_the_wrong_shape_is_refused(learner, domain, bad):
    # [5.0] used to broadcast: OGD returned a point, and ONS added 25 to
    # every entry of A; a scalar raised a bare IndexError in ONS
    if learner == "ogd":
        s, step = fg.init_ogd(domain, 1.0), fg.ogd_step
    else:
        s, step = fg.init_ons(domain, G=1.0, D=2.0), fg.ons_step
    shape = np.shape(bad)
    with pytest.raises(fg.DimensionMismatch,
                       match=rf"gradient has shape {re.escape(str(shape))}; .* \(3,\)"):
        step(s, bad, domain)


@pytest.mark.parametrize("bad", [2.0, [5.0], [0.1, 0.2, 0.3, 0.4], [[0.1], [0.2], [0.3]]],
                         ids=["scalar", "one", "n+1", "column"])
def test_mw_gradient_of_the_wrong_shape_is_refused(bad):
    shape = np.shape(bad)
    with pytest.raises(fg.DimensionMismatch,
                       match=rf"gradient has shape {re.escape(str(shape))}; .* \(3,\)"):
        fg.mw_step(fg.init_mw(3, eta=0.1, G_inf=1.0), bad)


class TestStates:
    """OgdState and MwState are NamedTuples, as OnsState is."""

    def test_replace_returns_a_changed_copy(self):
        s = fg.init_ogd(SIMPLEX2, H=1.0)
        s2 = s._replace(t=7)
        assert (s2.t, s2.H, s2.x is s.x, s.t) == (7, 1.0, True, 1)
        w = fg.init_mw(3, eta=0.1, G_inf=1.0)
        w2 = w._replace(G_inf=4.0)
        assert (w2.G_inf, w2.eta, w2.direction, w.G_inf) == (4.0, 0.1, "min", 1.0)
        assert type(s2) is OgdState and type(w2) is MwState

    def test_states_unpack_as_tuples(self):
        x, t, H = fg.init_ogd(SIMPLEX2, H=2.0)
        assert (x.tolist(), t, H) == ([0.5, 0.5], 1, 2.0)
        w, t, eta, G_inf, direction = fg.init_mw(2, eta=0.25, G_inf=3.0, direction="max")
        assert (w.tolist(), t, eta, G_inf, direction) == ([0.5, 0.5], 1, 0.25, 3.0, "max")

    @pytest.mark.parametrize("H", [0.0, -1.0, math.nan])
    def test_hand_built_state_without_positive_H_is_refused(self, H):
        for s in (OgdState(x=np.array([0.5, 0.5]), t=2, H=H),
                  fg.init_ogd(SIMPLEX2, H=1.0)._replace(H=H)):
            with pytest.raises(fg.SetupError, match="positive strong-convexity modulus H"):
                fg.ogd_step(s, np.zeros(2), SIMPLEX2)

    def test_replaced_states_still_refuse_a_gradient_of_the_wrong_shape(self):
        s = fg.init_ogd(SIMPLEX2, H=1.0)._replace(t=5)
        with pytest.raises(fg.DimensionMismatch, match=r"OGD gradient has shape \(3,\)"):
            fg.ogd_step(s, np.zeros(3), SIMPLEX2)
        w = fg.init_mw(2, eta=0.1, G_inf=1.0)._replace(t=5)
        with pytest.raises(fg.DimensionMismatch, match=r"MW gradient has shape \(3,\)"):
            fg.mw_step(w, np.zeros(3))


class TestOgd:
    def test_zero_gradient_keeps_iterate(self):
        s = fg.init_ogd(SIMPLEX2, H=1.0)
        s2 = fg.ogd_step(s, np.zeros(2), SIMPLEX2)
        assert np.array_equal(s2.x, s.x)
        assert s2.t == s.t + 1

    def test_step_then_project_midpoint(self):
        # step size 1/(H t); at H=1, t=2 the raw point (0, 0.5) projects back
        # to (0.25, 0.75)
        s = OgdState(x=np.array([0.5, 0.5]), t=2, H=1.0)
        s2 = fg.ogd_step(s, np.array([1.0, 0.0]), SIMPLEX2)
        assert np.allclose(s2.x, [0.25, 0.75], atol=1e-12)

    def test_step_then_project_quarter(self):
        s = OgdState(x=np.array([0.5, 0.5]), t=2, H=2.0)
        s2 = fg.ogd_step(s, np.array([1.0, 0.0]), SIMPLEX2)
        assert np.allclose(s2.x, [0.375, 0.625], atol=1e-12)

    def test_vertex_pushed_outward_projects_back(self):
        s = OgdState(x=np.array([1.0, 0.0]), t=1, H=1.0)
        s2 = fg.ogd_step(s, np.array([0.0, 1.0]), SIMPLEX2)
        assert np.allclose(s2.x, [1.0, 0.0], atol=1e-12)

    def test_requires_positive_curvature(self):
        with pytest.raises(fg.SetupError):
            fg.init_ogd(SIMPLEX2, H=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_curvature_is_refused(self, bad):
        # an infinite H gave steps of size 0, so the point never moved
        with pytest.raises(fg.SetupError, match=r"finite strong-convexity modulus H, got"):
            fg.init_ogd(fg.Simplex(3), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("domain", [
        fg.Ball(n=2, radius=1.0, center=np.zeros(2)),
        fg.Box(lo=np.zeros(2), hi=np.ones(2)),
    ], ids=["ball", "box"])
    def test_non_finite_gradient_is_refused_by_the_projection(self, domain, bad):
        # a NaN used to leave a NaN iterate on a ball, and [nan, 0] on a box
        with pytest.raises(fg.SetupError, match="projection needs finite input"):
            fg.ogd_step(fg.init_ogd(domain, 1.0), np.array([bad, 0.0]), domain)

    def test_iterates_stay_on_simplex(self, rng):
        s = fg.init_ogd(fg.Simplex(n=4), H=1.0)
        for _ in range(100):
            s = fg.ogd_step(s, rng.normal(size=4), fg.Simplex(n=4))
            assert abs(np.sum(s.x) - 1.0) <= 1e-9
            assert np.all(s.x >= -1e-12)


class TestOns:
    def test_init_constants(self):
        dom = fg.Ball(n=3, radius=0.5, center=np.zeros(3))
        s = fg.init_ons(dom, G=1.0, D=1.0)
        assert s.beta == 0.125
        assert np.array_equal(s.A, 64.0 * np.eye(3))

    def test_beta_capped_at_half(self):
        dom = fg.Ball(n=2, radius=0.01, center=np.zeros(2))
        s = fg.init_ons(dom, G=0.1, D=0.02)
        assert s.beta == 0.5 * min(1.0, 1.0 / (4 * 0.1 * 0.02))
        assert s.beta == 0.5

    def test_rank_one_update_scalar(self):
        dom = fg.Box(lo=np.array([0.0]), hi=np.array([1.0]))
        s = fg.OnsState(x=np.array([0.5]), t=1, beta=0.25, A=np.array([[1.0]]))
        s2 = fg.ons_step(s, np.array([1.0]), dom)
        assert s2.A[0, 0] == pytest.approx(2.0, abs=1e-12)
        # the Newton step x - A^-1 g / beta = 0.5 - 4 leaves the box at 0
        assert s2.x[0] == 0.0
        assert s2.rebuilds == 0

    def test_iterates_stay_in_domain(self, rng):
        dom = fg.Simplex(n=3)
        s = fg.init_ons(dom, G=2.0, D=math.sqrt(2.0))
        for _ in range(50):
            s = fg.ons_step(s, rng.normal(size=3), dom)
            assert abs(np.sum(s.x) - 1.0) <= 1e-6
            assert np.all(s.x >= -1e-9)

    def test_hand_built_indefinite_matrix_is_refused(self):
        # a state built by hand proves nothing about its matrix, so the
        # projection tests it as before, negative-definite matrices included
        for diag in ([1.0, -1.0], [-1.0, -1.0], [-1.0, -2.0]):
            s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.25, A=np.diag(diag))
            assert s.spectrum_bounds() is None
            with pytest.raises(fg.SetupError, match="matrix is not positive definite"):
                fg.ons_step(s, np.array([1.0, 0.0]), fg.Simplex(n=2))

    def test_hand_built_singular_matrix_is_refused(self):
        s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.25, A=np.diag([1.0, 0.0]))
        with pytest.raises(fg.SetupError, match="matrix is not positive definite"):
            fg.ons_step(s, np.array([1.0, 0.0]), fg.Simplex(n=2))
        s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.25, A=np.ones((2, 3)))
        with pytest.raises(fg.DimensionMismatch, match="matrix must be square"):
            fg.ons_step(s, np.array([1.0, 0.0]), fg.Simplex(n=2))

    @pytest.mark.parametrize("g", [[1.0, 0.0], [3.0, -1.0], [0.0, 1.0]])
    def test_scale_that_contradicts_the_matrix_proves_nothing(self, g):
        # trace(A) = 0 < scale, which no state built from its scale has: the
        # proven bounds used to be (1.0, 8e-323), and the exact solve then
        # died in np.linalg.solve on a singular bordered matrix
        s = fg.OnsState(x=np.array([1.0, 0.0]), t=1, beta=0.5, A=np.diag([1.0, -1.0]),
                        scale=1.0)
        assert s.spectrum_bounds() is None
        assert not takes_exact_simplex_solve(s)
        with pytest.raises(fg.SetupError, match="matrix is not positive definite"):
            fg.ons_step(s, np.array(g), fg.Simplex(n=2))

    def test_hand_built_scale_proves_nothing(self):
        # scale = 0.5 with trace 2 >= scale used to prove bounds for
        # diag(3, -1), and the step then returned [0, 1] without a word
        s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.5, A=np.diag([3.0, -1.0]),
                        scale=0.5)
        assert s.spectrum_bounds() is None
        assert not takes_exact_simplex_solve(s)
        with pytest.raises(fg.SetupError, match="matrix is not positive definite"):
            fg.ons_step(s, [1.0, 0.0], SIMPLEX2)

    def test_only_solver_built_states_are_proven(self):
        # a step keeps the class of its state, and a replaced field drops
        # the proof
        s = fg.init_ons(SIMPLEX2, G=1.0, D=1.0)
        assert s.spectrum_bounds() is not None
        s = fg.ons_step(s, [0.5, -0.5], SIMPLEX2)
        assert s.spectrum_bounds() is not None and s.rebuilds == 0
        hand = fg.OnsState(*s)
        assert type(hand) is fg.OnsState and hand.spectrum_bounds() is None
        assert type(fg.ons_step(hand, [0.5, -0.5], SIMPLEX2)) is fg.OnsState
        replaced = s._replace(A=np.diag([3.0, -1.0]))
        assert type(replaced) is fg.OnsState and replaced.spectrum_bounds() is None

    @pytest.mark.parametrize("G, D", [(1e300, 1.0), (1e-300, 1e300), (math.inf, 1.0),
                                      (1.0, math.inf)])
    def test_initial_matrix_that_is_not_a_finite_multiple_of_i_is_refused(self, G, D):
        # (D beta)^2 underflowed to 0 and raised ZeroDivisionError, or
        # overflowed and gave scale 0
        with pytest.raises(fg.SetupError, match="positive finite float"):
            fg.init_ons(SIMPLEX2, G=G, D=D)

    def test_diagonal_sum_that_overflows_proves_nothing(self):
        # scale 1e308 on two coordinates: each diagonal entry is a float but
        # their sum is not, so math.fsum raises OverflowError and the state
        # proves nothing; the step takes the tested route, without a numpy
        # warning
        s = fg.init_ons(SIMPLEX2, G=1e-3, D=2e-154)
        assert s.scale == pytest.approx(1e308, rel=1e-12)
        assert s.spectrum_bounds() is None and not takes_exact_simplex_solve(s)
        s2 = fg.ons_step(s, [1.0, -1.0], SIMPLEX2)
        assert SIMPLEX2.contains(s2.x) and s2.spectrum_bounds() is None

    def test_singular_bordered_matrix_on_the_exact_route_is_refused(self):
        # no state of init_ons and ons_step has this matrix, so the private
        # class stands in for a proof gone wrong: trace 5 proves bounds, yet
        # A is indefinite, and the free set {0, 1} borders diag(1, -1),
        # which is singular
        s = online._ProvenOnsState(x=np.array([0.5, 0.5, 0.0]), t=1, beta=0.5,
                                   A=np.diag([1.0, -1.0, 5.0]), scale=1.0, trace_bound=5.0)
        assert takes_exact_simplex_solve(s)
        with pytest.raises(fg.SetupError, match="ONS matrix A is singular"):
            fg.ons_step(s, np.array([1.0, 0.0, 0.0]), fg.Simplex(n=3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("domain", [
        fg.Simplex(n=2),  # the exact solve from A x - g / beta
        fg.Ball(n=2, radius=1.0, center=np.zeros(2)),  # the domain's minimize_quadratic
        fg.Box(lo=np.zeros(2), hi=np.ones(2)),
    ])
    def test_non_finite_gradient_is_refused(self, domain, bad):
        s = fg.init_ons(domain, G=1.0, D=2.0)
        with pytest.raises(fg.SetupError, match="ONS gradient must be finite"):
            fg.ons_step(s, np.array([0.5, bad]), domain)
        # a state built by hand takes the tested route on every domain
        hand = fg.OnsState(x=s.x, t=1, beta=s.beta, A=s.A)
        with pytest.raises(fg.SetupError, match="ONS gradient must be finite"):
            fg.ons_step(hand, np.array([0.5, bad]), domain)

    @pytest.mark.parametrize("domain", [fg.Ball(n=2, radius=1.0, center=np.zeros(2)),
                                        fg.Box(lo=np.zeros(2), hi=np.ones(2))])
    def test_step_whose_linear_term_overflows_is_refused(self, domain):
        # -grad / beta overflows to an infinity, which no projection can take
        s = fg.OnsState(x=domain.start(), t=1, beta=1e-300, A=np.eye(2))
        with np.errstate(over="ignore"), pytest.raises(
                fg.SetupError, match="ONS step -grad / beta is not finite"):
            fg.ons_step(s, [1e10, 0.0], domain)

    @pytest.mark.parametrize("g_last", [0.1, -0.2], ids=["least", "tie"])
    def test_vertex_with_the_least_gradient_entry_stays(self, monkeypatch, g_last):
        # at a vertex e_f the multipliers are (g_i - g_f) / beta, so the
        # step stays at e_f exactly when g_f is the least entry of g (ties
        # included), and then it solves nothing
        dom = fg.Simplex(n=3)
        s = at_vertex(fg.init_ons(dom, G=1.0, D=math.sqrt(2.0)), 1)
        assert not np.array_equal(fg.ons_step(s, np.array([0.3, 0.2, 0.1]), dom).x, s.x)

        def refused(*args):
            raise AssertionError("a step that stays at a vertex called the KKT solve")

        monkeypatch.setattr(online, "_simplex_kkt", refused)
        x = fg.ons_step(s, np.array([0.3, -0.2, g_last]), dom).x
        assert x.tobytes() == s.x.tobytes() and x is not s.x

    def test_matrix_not_bitwise_symmetric_takes_the_tested_route(self):
        # every proven matrix is symmetric bit for bit, so one symmetric only
        # within 1e-12 is built by hand: its scale > 0 proves nothing, and it
        # is tested and used as (A + A^T) / 2, whose KKT solve it gets bit
        # for bit
        A = np.array([[2.0, 0.5], [0.5 * (1 + 2.0**-50), 1.0]])
        s = fg.OnsState(x=np.array([0.5, 0.5]), t=1, beta=0.25, A=A, scale=0.5)
        assert s.spectrum_bounds() is None
        assert not takes_exact_simplex_solve(s)
        g = np.array([0.3, 0.1])
        expected = _simplex_kkt(0.5 * (A + A.T), s.x, (-1.0 / s.beta) * g, s.x)
        assert fg.ons_step(s, g, fg.Simplex(n=2)).x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("top, exact", [(1e3, True), (1e5, False)])
    def test_proven_condition_number_picks_the_route(self, top, exact):
        # scale 1/(D beta)^2 = 4e-6, then one step adds top to A_11: proven
        # bounds about 4e-6 and top, and a ratio beyond
        # online.MAX_CONDITION = 1e10 leaves the matrix to generalized_project
        s = fg.init_ons(SIMPLEX2, G=2.5e-4, D=1e3)
        s = fg.ons_step(s, np.array([0.0, math.sqrt(top)]), SIMPLEX2)
        assert s.spectrum_bounds() is not None
        assert takes_exact_simplex_solve(s) == exact

    def test_negative_gradient_steps_ascend(self):
        # on a fixed linear cost that falls to the right the learner moves up
        dom = fg.Box(lo=np.array([0.0]), hi=np.array([1.0]))
        s = fg.init_ons(dom, G=1.0, D=1.0)
        start = float(s.x[0])
        for _ in range(60):
            s = fg.ons_step(s, np.array([-1.0]), dom)
        assert float(s.x[0]) > start


@st.composite
def ons_stream(draw):
    """Dimension, gradient bound G, round count and a seed for the gradients;
    a near-parallel stream perturbs one direction by a relative 1e-9."""
    return (draw(st.integers(2, 12)), draw(st.floats(1e-3, 1e3)), draw(st.integers(100, 300)),
            draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


def assert_ons_step_kkt(x, y, A):
    """x is the A-norm projection of the Newton point y on the simplex:
    x >= 0, sum x = 1, and A(x - y) + nu 1 - mu = 0 with mu >= 0 zero on the
    support, to a relative 1e-9 of the size of A(x - y)."""
    tol = 1e-9 * float(abs(A).max()) * (1.0 + float(abs(y).max()))
    assert (x >= 0).all()
    assert abs(float(x.sum()) - 1.0) <= 1e-9
    g = A @ (x - y)
    support = x > 0
    nu = -float(g[support].mean())
    assert np.all(abs(g[support] + nu) <= tol)
    assert np.all(g[~support] + nu >= -tol)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ons_stream())
def test_ons_matrix_bounds_hold_along_a_stream(stream):
    # along the stream A stays symmetric bit for bit, the bounds its state
    # proves bracket its eigenvalues, and each step, which never forms the
    # Newton point, is the A-norm projection of it
    n, G, rounds, seed, parallel = stream
    rng = np.random.default_rng(seed)
    dom = fg.Simplex(n=n)
    s = fg.init_ons(dom, G=G, D=math.sqrt(2.0))
    base = rng.normal(size=n)
    for _ in range(rounds):
        g = base + 1e-9 * rng.normal(size=n) if parallel else rng.normal(size=n)
        g *= G * rng.uniform() / np.linalg.norm(g)
        bounds = s.spectrum_bounds()
        assert bounds is not None
        assert (s.A == s.A.T).all()
        ev = np.linalg.eigvalsh(s.A)
        assert bounds[0] <= ev[0] and ev[-1] <= bounds[1]
        assert takes_exact_simplex_solve(s)
        y = s.x - np.linalg.solve(s.A, g) / s.beta
        A = s.A
        s = fg.ons_step(s, g, dom)
        assert_ons_step_kkt(s.x, y, A)


@st.composite
def ons_vertex_step(draw):
    """An ONS state of init_ons plus some steps, moved to a vertex e_f (its
    other entries zeros of either sign), and a gradient with the entries of
    a set of coordinates tied to g_f: "exact" equal, "near" within
    1e-13 max|g|, that is 1e-13 max|h| for h = -g / beta."""
    n = draw(st.integers(2, 12))
    G = draw(st.floats(1e-3, 1e3))
    steps = draw(st.integers(0, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    f = draw(st.integers(0, n - 1))
    ties = draw(st.sampled_from(["none", "exact", "near"]))
    least = draw(st.booleans())  # g_f the least entry of g before the ties
    negative_zeros = draw(st.booleans())
    return n, G, steps, seed, f, ties, least, negative_zeros


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ons_vertex_step())
def test_ons_step_from_a_vertex_is_the_exact_solve(case):
    n, G, steps, seed, f, ties, least, negative_zeros = case
    rng = np.random.default_rng(seed)
    dom = fg.Simplex(n=n)
    s = fg.init_ons(dom, G=G, D=math.sqrt(2.0))
    for _ in range(steps):
        g = rng.normal(size=n)
        s = fg.ons_step(s, G * rng.uniform() * g / np.linalg.norm(g), dom)
    s = at_vertex(s, f, negative_zeros)
    assert takes_exact_simplex_solve(s)
    g = G * rng.uniform(-1.0, 1.0, size=n)
    if least:
        g[f] = g.min() - G * rng.uniform()
    tied = rng.random(n) < 0.5
    if ties == "exact":
        g[tied] = g[f]
    elif ties == "near":
        g[tied] = g[f] + 1e-13 * float(abs(g).max()) * rng.uniform(-1.0, 1.0, int(tied.sum()))
    expected = _simplex_kkt(s.A, s.x, (-1.0 / s.beta) * g, s.x)
    assert fg.ons_step(s, g, dom).x.tobytes() == expected.tobytes()


def reference_ons_step(s, g, dom):
    """x and A after an ONS step from a proven state s, with the gates the
    step had before its state carried the proof: numpy's finiteness test,
    A.trace() in the bounds, a byte compare of A with A.T, and in the vertex
    rule numpy's h and the row max|A_f.| in place of lam_max.  Also whether
    that rule kept the vertex."""
    g = np.asarray(g, float)
    assert np.isfinite(g).all()
    A = s.A
    trace = float(A.trace())
    b = 8.0 * A.shape[0] * s.t * (2.0**-53 * trace + 2.0**-1074)
    lam_min = s.scale - b
    exact = (lam_min > 0 and trace >= s.scale and trace + b <= online.MAX_CONDITION * lam_min
             and A.tobytes() == A.T.tobytes())
    x, stayed = None, False
    if exact:
        h = (-1.0 / s.beta) * g
        xl, hl = s.x.tolist(), h.tolist()
        if xl.count(0.0) == len(xl) - 1 and 1.0 in xl:
            f = xl.index(1.0)
            if hl[f] >= max(hl) and max(hl[f], -min(hl)) + float(abs(A[f]).max()) <= 2.0**1021:
                x, stayed = np.zeros(len(xl)), True
                x[f] = 1.0
        if x is None:
            x = _simplex_kkt(A, s.x, h, s.x)
    else:
        x = dom.minimize_quadratic(positive_definite(A, dom.n), s.x, (-1.0 / s.beta) * g, s.x)
    return x, A + g[:, None] * g, stayed


ROUNDS = ["interior", "push", "stay", "tie", "near", "zeros", "negative-zero vertex"]


@st.composite
def ons_gated_stream(draw):
    """Dimension, gradient bound G, a seed, and the kinds of the rounds:
    random gradients (interior steps), ones that push to a vertex or keep
    its coordinate least, ties and near-ties with the top coordinate of x,
    signed zeros in the gradient, and a move to a vertex whose other
    entries are -0.0."""
    return (draw(st.integers(2, 8)), draw(st.floats(1e-3, 1e3)), draw(st.integers(0, 2**32 - 1)),
            draw(st.lists(st.sampled_from(ROUNDS), min_size=1, max_size=40)))


def gated_round(kind, s, G, rng):
    """The gradient of one round of ons_gated_stream, and the state the
    round steps from: a "negative-zero vertex" round moves s to a vertex."""
    n = s.x.size
    f = int(np.argmax(s.x))
    g = G * rng.uniform(-1.0, 1.0, n)
    if kind == "push":
        g[f] = -G * (1.0 + 10.0 * rng.uniform())
    elif kind == "stay":
        g[f] = g.min() - G * rng.uniform()
    elif kind in ("tie", "near"):
        tied = rng.random(n) < 0.5
        g[tied] = g[f] + (kind == "near") * 1e-13 * G * rng.uniform(-1.0, 1.0, int(tied.sum()))
    elif kind == "zeros":
        g[rng.random(n) < 0.5] = 0.0
        g[f] = -0.0
    elif kind == "negative-zero vertex":
        s = at_vertex(s, f, negative_zeros=True)
    return g, s


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ons_gated_stream())
def test_ons_step_is_bit_identical_to_the_old_gates(stream):
    n, G, seed, rounds = stream
    rng = np.random.default_rng(seed)
    dom = fg.Simplex(n=n)
    s = fg.init_ons(dom, G=G, D=math.sqrt(2.0))
    for kind in rounds:
        g, s = gated_round(kind, s, G, rng)
        x, A, _ = reference_ons_step(s, g, dom)
        s = fg.ons_step(s, g, dom)
        assert s.x.tobytes() == x.tobytes()
        assert s.A.tobytes() == A.tobytes()


REPEATS = ["fresh", "same", "equal", "refill"]


@st.composite
def ons_repeat_stream(draw):
    """An ons_gated_stream whose rounds also say where the gradient comes
    from: drawn afresh, the previous round's array passed again, a copy of
    it (equal bytes), or that array refilled in place with a fresh draw.  A
    "switch" gradient adds 1.2e10 scale along the all-ones direction, which
    lifts the proven condition number past MAX_CONDITION for good; repeated,
    it lifts A past the Cholesky test of generalized_project, which refuses
    the step."""
    return (draw(st.integers(2, 8)), draw(st.floats(1e-3, 1e3)), draw(st.integers(0, 2**32 - 1)),
            draw(st.lists(st.tuples(st.sampled_from(ROUNDS + ["switch"]),
                                    st.sampled_from(REPEATS)), min_size=1, max_size=40)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ons_repeat_stream())
def test_repeated_gradients_give_the_bits_of_a_step_without_memo(stream):
    # the memo is keyed on the gradient's bytes: the same array or an equal
    # copy hits it, after an interior step, a vertex stay or a route switch
    # alike, and an array refilled in place with new values misses it
    n, G, seed, rounds = stream
    rng = np.random.default_rng(seed)
    dom = fg.Simplex(n=n)
    s = fg.init_ons(dom, G=G, D=math.sqrt(2.0))
    big = np.full(n, math.sqrt(1.2e10 * s.scale / n))
    prev, key, switched = None, None, False
    for kind, repeat in rounds:
        if kind == "switch":
            g = big.copy()
        else:
            g, s = gated_round(kind, s, G, rng)
        if prev is not None and repeat == "same":
            g = prev
        elif prev is not None and repeat == "equal":
            g = prev.copy()
        elif prev is not None and repeat == "refill":
            prev[:] = g
            g = prev
        # a fresh draw may repeat the last bytes too ([0, -0] after [0, -0]),
        # and a vertex moved to by hand keeps no memo
        hit = s.recall(g.tobytes()) is not None
        assert hit == (g.tobytes() == key and kind != "negative-zero vertex")
        switched = switched or g.tobytes() == big.tobytes()
        try:
            x, A, _ = reference_ons_step(s, g, dom)
        except fg.SetupError:
            # only the switch gradient, whose norm is over 1e5 times the G
            # that set beta, can bring that about (ons_step's docstring)
            assert switched
            with pytest.raises(fg.SetupError, match="^matrix is not positive definite with every "
                                                    "squared Cholesky pivot above 1e-10 "
                                                    "times its largest diagonal entry$"):
                fg.ons_step(s, g, dom)
            return
        s = fg.ons_step(s, g, dom)
        assert s.x.tobytes() == x.tobytes()
        assert s.A.tobytes() == A.tobytes()
        assert takes_exact_simplex_solve(s) != switched
        prev, key = g, g.tobytes()


def test_repeated_gradient_after_a_vertex_stay_skips_the_rule(monkeypatch):
    # the memo's verdict keeps the vertex: neither the rule nor the solve
    # runs again while the same gradient bytes come back
    dom = fg.Simplex(n=4)
    s = at_vertex(fg.init_ons(dom, G=1.0, D=math.sqrt(2.0)), 2)
    g = np.array([0.3, -0.1, -0.4, 0.2])
    calls = []
    rule = online._vertex_rule
    monkeypatch.setattr(online, "_vertex_rule", lambda *args: calls.append(1) or rule(*args))
    s = fg.ons_step(s, g, dom)
    assert calls == [1] and s.last[4] == (2, (-1.0 / s.beta) * -0.4)

    def refused(*args):
        raise AssertionError("a repeated vertex stay called the KKT solve")

    monkeypatch.setattr(online, "_simplex_kkt", refused)
    for repeat in (g, g.copy(), g):
        x, A, stayed = reference_ons_step(s, repeat, dom)
        s = fg.ons_step(s, repeat, dom)
        assert stayed and s.x.tobytes() == x.tobytes() and s.A.tobytes() == A.tobytes()
    assert calls == [1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 8), st.data())
def test_repeated_vertex_stay_checks_the_size_bound_again(n, data):
    # beta = 2^-521 and A = 2^1000 I, with max|h| = 2^1021 - k 2^1000 for
    # n < k < n + 1: the first step keeps e_f, but its own rank-one update
    # adds about |v|^2 >= 1 times 2^1000 to lam_max, so the same gradient
    # again fails the size bound and must take the solve, with the bytes of
    # the old rule's vertex
    f = data.draw(st.integers(0, n - 1))
    k = n + data.draw(st.floats(0.01, 0.9))
    v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    v[f] = 1.0
    dom = fg.Simplex(n=n)
    s = fg.init_ons(dom, G=2.0**497, D=2.0**21)
    assert (s.beta, s.scale) == (2.0**-521, 2.0**1000)
    s = at_vertex(s, f, negative_zeros=data.draw(st.booleans()))
    g = -s.beta * (2.0**1021 - k * 2.0**1000) * v
    calls = []

    def counted(*args):
        calls.append(1)
        return _simplex_kkt(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(online, "_simplex_kkt", counted)
        for solves in ([], [1]):
            x, A, stayed = reference_ons_step(s, g, dom)
            assert stayed
            s = fg.ons_step(s, g, dom)
            assert calls == solves
            assert s.x.tobytes() == x.tobytes()
            assert s.A.tobytes() == A.tobytes()


def test_vertex_verdict_does_not_outlive_a_step_off_the_exact_route():
    # the same gradient on a ball moves the point off e_0, so the memo of
    # that step keeps no verdict, and the next simplex step decides afresh
    dom, ball = fg.Simplex(n=3), fg.Ball(n=3, radius=1.0, center=np.zeros(3))
    s = at_vertex(fg.init_ons(dom, G=1.0, D=math.sqrt(2.0)), 0)
    g = np.array([-0.5, 0.2, 0.3])
    s = fg.ons_step(s, g, dom)
    assert s.last[4] is not None
    s = fg.ons_step(s, g, ball)
    assert s.last[4] is None and not np.array_equal(s.x, [1.0, 0.0, 0.0])
    x, A, _ = reference_ons_step(s, g, dom)
    s = fg.ons_step(s, g, dom)
    assert s.x.tobytes() == x.tobytes() and s.A.tobytes() == A.tobytes()


def test_forged_memo_is_ignored_off_the_proven_states():
    # a hand-built state and one returned by _replace prove nothing about
    # their memo: a forged list cannot skip the finiteness check, a forged
    # outer product is not added, and a forged verdict keeps no vertex
    dom = fg.Simplex(n=3)
    s = fg.ons_step(fg.init_ons(dom, G=1.0, D=math.sqrt(2.0)), [0.2, -0.1, 0.4], dom)
    g = np.array([0.5, -0.3, 0.1])
    forged = (g.tobytes(), [0.0, 0.0, 0.0], np.zeros((3, 3)), 0.0, (0, 0.0))
    expected = fg.ons_step(fg.OnsState(*s[:5]), g, dom)
    for state in (fg.OnsState(*s[:5], last=forged), s._replace(last=forged)):
        assert type(state) is fg.OnsState and state.recall(g.tobytes()) is None
        out = fg.ons_step(state, g, dom)
        assert out.x.tobytes() == expected.x.tobytes()
        assert out.A.tobytes() == expected.A.tobytes()
        assert not np.array_equal(out.x, [1.0, 0.0, 0.0])
    bad = np.array([0.5, math.nan, 0.1])
    forged = (bad.tobytes(), [0.5, 0.0, 0.1], np.zeros((3, 3)), 0.0, None)
    for state in (fg.OnsState(*s[:5], last=forged), s._replace(last=forged)):
        with pytest.raises(fg.SetupError, match="ONS gradient must be finite"):
            fg.ons_step(state, bad, dom)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 8), st.data())
def test_vertex_rule_near_the_overflow_bound_hands_over_to_the_solve(n, data):
    # beta = 2^-540 and A = 2^1000 I.  With max|h| = 2^1021 - k 2^1000 for
    # 1 <= k < n the old rule, max|h| + max|A_f.| <= 2^1021, kept the vertex,
    # and the new one, max|h| + lam_max with lam_max >= n 2^1000, declines:
    # the solve must then give the same bytes
    f = data.draw(st.integers(0, n - 1))
    k = data.draw(st.floats(1.0, n - 1.0 + 0.999))
    v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    v[f] = 1.0
    v[np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 1.0  # ties
    dom = fg.Simplex(n=n)
    s = fg.init_ons(dom, G=2.0**497, D=2.0**40)
    assert (s.beta, s.scale) == (2.0**-540, 2.0**1000)
    s = at_vertex(s, f, negative_zeros=data.draw(st.booleans()))
    h = (2.0**1021 - k * 2.0**1000) * v
    g = -s.beta * h  # a power of 2, so (-1 / beta) g is h again
    x, A, stayed = reference_ons_step(s, g, dom)
    assert stayed
    calls = []

    def counted(*args):
        calls.append(1)
        return _simplex_kkt(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(online, "_simplex_kkt", counted)
        s = fg.ons_step(s, g, dom)
    assert calls == [1]
    assert s.x.tobytes() == x.tobytes()
    assert s.A.tobytes() == A.tobytes()


TRACE_SCALES = ["unit", "edge", "tiny"]
TRACE_ROUNDS = ["fresh", "repeat", "copy", "underflow", "mixed"]


@st.composite
def ons_trace_stream(draw):
    """Dimension, a seed, a scale kind for init_ons and the kinds of the
    rounds: a fresh gradient, the last array again or an equal copy of it
    (memo hits), one with every entry near 1e-170, whose squares underflow,
    and one with some entries so.  "unit" scales come from G in
    [1e-3, 1e3], "edge" ones lie in [1e306, 1.7e308], where n scale may
    overflow and prove nothing, and "tiny" ones in [2.3e-308, 1e-300], where
    the products of the diagonal are subnormal."""
    return (draw(st.integers(2, 8)), draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from(TRACE_SCALES)),
            draw(st.lists(st.sampled_from(TRACE_ROUNDS), min_size=1, max_size=40)))


def trace_stream_states(stream):
    """The states of an ons_trace_stream, each with the gradient that
    stepped to it (None for the state of init_ons)."""
    n, seed, scale_kind, rounds = stream
    rng = np.random.default_rng(seed)
    dom = fg.Simplex(n=n)
    if scale_kind == "unit":
        G = 10.0 ** rng.uniform(-3.0, 3.0)
        s = fg.init_ons(dom, G=G, D=math.sqrt(2.0))
    else:
        lo, hi = (306.0, 308.23) if scale_kind == "edge" else (-307.63, -300.0)
        D = 2.0 / math.sqrt(10.0 ** rng.uniform(lo, hi))
        G = 1.0 if scale_kind == "edge" else 0.1 / D  # beta = 1/2, scale = 4 / D^2
        s = fg.init_ons(dom, G=G, D=D)
    yield s, None
    g = None
    for kind in rounds:
        if kind == "fresh" or g is None:
            g = G * rng.uniform(-1.0, 1.0, n)
        elif kind == "copy":
            g = g.copy()
        elif kind in ("underflow", "mixed"):
            g = G * rng.uniform(-1.0, 1.0, n)
            tiny = rng.random(n) < 0.5 if kind == "mixed" else np.ones(n, bool)
            g[tiny] = 1e-170 * rng.uniform(-1.0, 1.0, int(tiny.sum()))
        s = fg.ons_step(s, g, dom)
        yield s, g


def plain_trace_bound(s, g, n):
    """The state's trace bound as the step carries it, from the bound before
    the step and the gradient: (T + fsum(g_i * g_i) + n eta)(1 + 2^-48)."""
    try:
        ss = math.fsum(x * x for x in g.tolist())
    except OverflowError:
        ss = math.inf
    return (s.trace_bound + ss + n * 2.0**-1074) * (1.0 + 2.0**-48)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(ons_trace_stream())
def test_carried_trace_bound_holds_along_a_stream(stream):
    # the bound carried by each step is at least the exact sum of the
    # computed diagonal (in rationals), has the bits of the plain carry, and
    # gives spectrum_bounds the bits of its formula, which bracket eigvalsh
    # (taken on A times 2^k, exact, so a tiny scale keeps its digits)
    n = stream[0]
    prev = None
    for s, g in trace_stream_states(stream):
        T = s.trace_bound
        if g is None:
            assert T == n * s.scale * (1.0 + 2.0**-48)
        else:
            assert T == plain_trace_bound(prev, g, n)
        if T < math.inf:
            assert Fraction(T) >= sum(map(Fraction, s.A.diagonal().tolist()))
        b = 8.0 * n * s.t * (2.0**-53 * T + 2.0**-1074)
        bounds = s.spectrum_bounds()
        assert bounds == ((s.scale - b, T + b) if s.scale - b > 0 else None)
        if bounds is not None:
            k = 2.0 ** (600 if s.scale < 1e-200 else 0)
            ev = np.linalg.eigvalsh(s.A * k)
            assert bounds[0] * k <= ev[0] and ev[-1] <= bounds[1] * k
        prev = s
    assert stream[2] != "unit" or bounds is not None


def parent_ons_step(s, g, dom):
    """x and A after a step from the proven state s on a simplex, by the
    route of ons_step when spectrum_bounds summed the diagonal of A with
    math.fsum on every call and positive_definite tested the spread of a
    Cholesky diagonal."""
    A, n = s.A, dom.n
    try:
        trace = math.fsum(A.diagonal().tolist())
    except OverflowError:
        trace = math.inf
    b = 8.0 * n * s.t * (2.0**-53 * trace + 2.0**-1074)
    lam_min = s.scale - b
    h = (-1.0 / s.beta) * g
    gg = A + g[:, None] * g
    if lam_min > 0 and trace + b <= online.MAX_CONDITION * lam_min:
        xl, hl = s.x.tolist(), h.tolist()
        if xl.count(0.0) == n - 1 and 1.0 in xl:
            f = xl.index(1.0)
            if hl[f] >= max(hl) and max(hl[f], -min(hl)) + trace + b <= 2.0**1021:
                x = np.zeros(n)
                x[f] = 1.0
                return x, gg
        return _simplex_kkt(A, s.x, h, s.x), gg
    pivots = np.linalg.cholesky(A).diagonal()
    assert pivots.min() > 1e-5 * pivots.max()
    return dom.minimize_quadratic(A, s.x, h, s.x), gg


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(ons_trace_stream())
def test_ons_step_has_the_bits_of_the_fsum_route(stream):
    dom = fg.Simplex(n=stream[0])
    prev = None
    for s, g in trace_stream_states(stream):
        if g is not None:
            x, A = parent_ons_step(prev, g, dom)
            assert s.x.tobytes() == x.tobytes()
            assert s.A.tobytes() == A.tobytes()
        prev = s


class TestMw:
    def test_downweights_hit_coordinate(self):
        s = MwState(w=np.array([1.0, 1.0]), t=1, eta=0.5, G_inf=1.0, direction="min")
        s2 = fg.mw_step(s, np.array([1.0, 0.0]))
        assert np.allclose(s2.w, [0.5, 1.0], atol=1e-15)
        assert np.allclose(fg.mw_point(s2), [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_max_direction_upweights(self):
        s = fg.init_mw(2, eta=0.5, G_inf=1.0, direction="max")
        s2 = fg.mw_step(s, np.array([1.0, 0.0]))
        assert s2.w[0] > s2.w[1]

    def test_learning_rate_at_half_allowed_above_rejected(self):
        fg.init_mw(2, eta=0.5, G_inf=1.0)
        with pytest.raises(fg.SetupError):
            fg.init_mw(2, eta=0.51, G_inf=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_are_refused(self, bad):
        # a NaN eta gave NaN weights after one step, and a NaN or infinite
        # G_inf weights that never moved
        with pytest.raises(fg.SetupError, match=r"learning rate eta must lie in \[0, 1/2\], got"):
            fg.init_mw(3, bad, 1.0)
        with pytest.raises(fg.SetupError, match=r"G_inf must be a nonnegative finite float, got"):
            fg.init_mw(3, 0.1, bad)

    def test_zero_gradient_keeps_weights(self):
        s = fg.init_mw(3, eta=0.25, G_inf=1.0)
        s2 = fg.mw_step(s, np.zeros(3))
        assert np.array_equal(s2.w, s.w)

    def test_scale_grows_with_observed_gradient(self):
        s = fg.init_mw(2, eta=0.25, G_inf=1.0)
        s2 = fg.mw_step(s, np.array([4.0, 0.0]))
        assert s2.G_inf == 4.0
        assert np.all(s2.w > 0)

    def test_point_is_distribution(self, rng):
        s = fg.init_mw(5, eta=0.3, G_inf=1.0)
        for _ in range(200):
            s = fg.mw_step(s, rng.normal(size=5))
            p = fg.mw_point(s)
            assert abs(np.sum(p) - 1.0) <= 1e-9
            assert np.all(p > 0)

    @pytest.mark.parametrize("direction", ["min", "max"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_finite_gradient_is_refused(self, direction, bad, at):
        # a NaN used to leave a NaN weight, and every played weight NaN
        s = fg.init_mw(3, eta=0.1, G_inf=1.0, direction=direction)
        g = [0.5, -0.2, 0.1]
        g[at] = bad
        with pytest.raises(fg.SetupError, match="MW gradient must be finite"):
            fg.mw_step(s, g)

    def test_long_horizon_does_not_underflow(self):
        s = fg.init_mw(2, eta=0.5, G_inf=1.0)
        for _ in range(5000):
            s = fg.mw_step(s, np.array([1.0, 0.0]))
        p = fg.mw_point(s)
        assert np.all(np.isfinite(p)) and abs(np.sum(p) - 1.0) <= 1e-9


class TestRegretBounds:
    def test_ogd_log_bound(self):
        assert fg.regret_bound(fg.ogd_bound_spec(G=1.0, H=1.0), 1) == math.log(2.0)

    def test_mw_sqrt_bound(self):
        val = fg.regret_bound(fg.mw_bound_spec(G_inf=1.0, n=2), 100)
        assert val == pytest.approx(16.651, abs=1e-3)
        assert val == 2.0 * math.sqrt(100 * math.log(2.0))

    def test_single_expert_mw_is_free(self):
        assert fg.regret_bound(fg.mw_bound_spec(G_inf=5.0, n=1), 1000) == 0.0

    def test_ons_shape(self):
        spec = fg.ons_bound_spec(G=1.0, D=1.0, alpha=1.0, n=3)
        assert fg.regret_bound(spec, 10) == pytest.approx(5 * (1.0 + 1.0) * 3 * math.log(11), rel=1e-12)

    def test_curve_has_the_bits_of_each_formula(self, rng):
        # the constant is computed once per curve; each value must still be
        # the formula's, evaluated left to right, to the last bit
        formulas = {
            "ogd": lambda s, T: (s.G**2 / s.H) * math.log(T + 1.0),
            "ons": lambda s, T: 5.0 * (1.0 / s.alpha + s.G * s.D) * s.n * math.log(T + 1.0),
            "mw": lambda s, T: 2.0 * s.G_inf * math.sqrt(T * math.log(s.n)) if s.n > 1 else 0.0,
        }
        Ts = list(range(1, 100)) + [18_970, 38_473, 2**40 + 3]
        for _ in range(40):
            G, H, D, alpha = rng.uniform(0.01, 10, 4)
            n = int(rng.integers(1, 50))
            for spec in (fg.ogd_bound_spec(G, H), fg.ons_bound_spec(G, D, alpha, n),
                         fg.mw_bound_spec(G, n)):
                curve, formula = online.regret_bound_curve(spec), formulas[spec.algorithm]
                for T in Ts:
                    want = formula(spec, T)
                    assert curve(T).hex() == want.hex() == fg.regret_bound(spec, T).hex()

    def test_unknown_algorithm_is_refused(self):
        spec = fg.RegretBoundSpec(algorithm="sgd")
        with pytest.raises(fg.SetupError, match="unknown regret bound algorithm 'sgd'"):
            online.regret_bound_curve(spec)
        with pytest.raises(ValueError, match="T must be >= 1"):
            fg.regret_bound(spec, 0)

    def test_doubling_never_shrinks(self):
        specs = [fg.ogd_bound_spec(2.0, 0.5), fg.mw_bound_spec(1.5, 4),
                 fg.ons_bound_spec(1.0, 2.0, 0.3, 5)]
        for spec in specs:
            for T in (1, 3, 10, 77, 1024):
                assert fg.regret_bound(spec, 2 * T) >= fg.regret_bound(spec, T)


class TestMeasuredRegret:
    def test_constant_optimum_play_has_zero_regret(self):
        f = fg.Affine(a=np.array([1.0, -1.0]), b=0.0)
        plays = [np.array([0.0, 1.0])] * 5
        r = fg.measured_regret([f] * 5, plays, SIMPLEX2)
        assert r == pytest.approx(0.0, abs=1e-9)

    def test_single_round_quadratic(self):
        f = fg.Quadratic(A=np.eye(2), b=np.zeros(2), c=0.0)
        r = fg.measured_regret([f], [np.array([1.0, 0.0])], SIMPLEX2)
        assert r == pytest.approx(0.5, abs=2e-3)

    def test_nonnegative_on_random_streams(self, rng):
        for _ in range(5):
            costs = [fg.Affine(a=rng.normal(size=2), b=0.0) for _ in range(8)]
            plays = [rng.dirichlet(np.ones(2)) for _ in range(8)]
            assert fg.measured_regret(costs, plays, SIMPLEX2) >= -1e-9

    def test_hindsight_minimum_of_affine_costs(self):
        f = fg.Affine(a=np.array([1.0, -1.0]), b=0.0)
        x, val = fg.hindsight_minimum([f, f], SIMPLEX2)
        assert np.allclose(x, [0.0, 1.0], atol=1e-9)
        assert val == pytest.approx(-2.0, abs=1e-9)

    @pytest.mark.parametrize("cost", [
        fg.Affine(a=np.ones(3), b=0.0),
        fg.Quadratic(A=np.eye(3), b=np.zeros(3), c=0.0),
        fg.NegEntropy(n=3),
    ])
    def test_a_cost_of_another_dimension_is_refused_by_index(self, cost):
        costs = [fg.Affine(a=np.ones(2), b=0.0), cost]
        own = dict(match=r"^cost 1 has dimension 3, domain has 2$")
        with pytest.raises(fg.DimensionMismatch, **own):
            fg.hindsight_minimum(costs, SIMPLEX2)
        with pytest.raises(fg.DimensionMismatch, **own):
            fg.measured_regret(costs, [np.array([0.5, 0.5])] * 2, SIMPLEX2)

    def test_hindsight_minimum_without_closed_form_is_exact(self):
        # sum x_i log x_i over [0.1, 1]^2 is least at x = (1/e, 1/e), where
        # it is -2/e; the descent reaches it to rounding at n = 2, which a
        # grid of spacing 1e-3 misses by about 4e-8
        box = fg.Box(lo=np.array([0.1, 0.1]), hi=np.ones(2))
        x, val = fg.hindsight_minimum([fg.NegEntropy(n=2)], box)
        assert abs(val + 2.0 / math.e) <= 1e-12
        np.testing.assert_allclose(x, np.full(2, 1.0 / math.e), atol=1e-6)


def plain_mw_step(state, grad):
    """mw_step as it was before its multipliers were formed in place."""
    w, t, eta, g_inf, direction = state
    g = np.asarray(grad, float)
    observed = float(abs(g).max()) if g.size else 0.0
    if not observed < math.inf:
        raise fg.SetupError("MW gradient must be finite")
    if observed > g_inf:
        g_inf = observed
    if g_inf > 0:
        factor = (eta / g_inf) * g
        scale = 1.0 - factor if direction == "min" else 1.0 + factor
        w = w * scale
        wl = w.tolist()
        mx = max(wl)
        if min(wl) < 1e-300:
            np.maximum(w, 1e-300, out=w)
            mx = max(mx, 1e-300)
        if mx > 1e100 or mx < 1e-100:
            w /= mx
            np.maximum(w, 1e-300, out=w)
    else:
        w = w.copy()
    return MwState(w, t + 1, eta, g_inf, direction)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30), st.sampled_from(["min", "max"]), st.floats(0.0, 0.5),
       st.sampled_from([0.0, 1e-3, 1.0]), st.sampled_from([1e-3, 1.0, 1e3]),
       st.sampled_from(["contiguous", "step", "reversed"]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_mw_steps_and_points_keep_their_bits(n, direction, eta, G_inf, size, layout, wide, seed):
    # gradients past G_inf grow the scale; weights from 1e-305 to 1e105
    # reach the floor and the rescale
    rng = np.random.default_rng(seed)
    state = plain = fg.init_mw(n, eta, G_inf, direction)
    if wide:
        state = plain = state._replace(w=10.0 ** rng.uniform(-305, 105, n))
    for _ in range(60):
        g = rng.normal(size=n) * size
        g = g if layout == "contiguous" else (g[::-1].copy()[::-1] if layout == "reversed"
                                               else np.repeat(g, 2)[::2])
        state, plain = fg.mw_step(state, g), plain_mw_step(plain, g)
        assert state.w.tobytes() == plain.w.tobytes()
        assert (state.t, state.G_inf) == (plain.t, plain.G_inf)
        assert fg.mw_point(state).tobytes() == (plain.w / float(plain.w.sum())).tobytes()
