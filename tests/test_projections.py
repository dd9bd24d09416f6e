"""Euclidean and matrix-norm projections onto the three domains."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import feasgame as fg
from lattice import grid


def grid_argmin(domain, y, resolution=1e-3):
    """Brute-force nearest grid point, the independent oracle for projections."""
    pts = grid(domain, resolution)
    d2 = np.sum((pts - y) ** 2, axis=1)
    return pts[int(np.argmin(d2))]


class TestSimplex:
    def test_fixed_point_on_simplex(self):
        y = np.array([0.2, 0.3, 0.5])
        assert np.array_equal(fg.project_simplex(y), y)

    def test_constant_vector_goes_to_uniform(self):
        for c in (-3.0, 0.0, 7.5):
            x = fg.project_simplex(np.full(4, c))
            assert np.allclose(x, 0.25, atol=1e-12)

    def test_two_dim_shift(self):
        x = fg.project_simplex(np.array([0.9, 0.5]))
        assert np.allclose(x, [0.7, 0.3], atol=1e-12)
        assert fg.simplex_threshold(np.array([0.9, 0.5])) == pytest.approx(0.2, abs=1e-12)

    def test_threshold_identity(self, rng):
        for _ in range(200):
            y = rng.normal(size=rng.integers(1, 7)) * rng.uniform(0.1, 10)
            a = fg.simplex_threshold(y)
            assert abs(np.sum(np.maximum(y - a, 0.0)) - 1.0) <= 1e-12

    def test_matches_grid_small_dims(self, rng):
        for n in (2, 3):
            for _ in range(25):
                y = rng.normal(size=n) * 2.0
                x = fg.project_simplex(y)
                g = grid_argmin(fg.Simplex(n=n), y)
                assert np.linalg.norm(x - g) <= 2e-3
                assert np.sum((x - y) ** 2) <= np.sum((g - y) ** 2) + 1e-12

    def test_idempotent(self, rng):
        for _ in range(100):
            y = rng.normal(size=5) * 3.0
            x = fg.project_simplex(y)
            assert np.linalg.norm(fg.project_simplex(x) - x) <= 1e-10

    def test_nonexpansive(self, rng):
        for _ in range(100):
            y1, y2 = rng.normal(size=4), rng.normal(size=4)
            d = np.linalg.norm(fg.project_simplex(y1) - fg.project_simplex(y2))
            assert d <= np.linalg.norm(y1 - y2) + 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("y", [[np.nan, 0.0], [np.inf, 0.0], [0.0, np.inf], [np.nan]])
    def test_non_finite_input_is_a_setup_error(self, y):
        with pytest.raises(fg.SetupError, match="finite"):
            fg.project_simplex(np.array(y))
        with pytest.raises(fg.SetupError, match="finite"):
            fg.simplex_threshold(np.array(y))

    @pytest.mark.parametrize("y", [[], [[0.2, 0.8]], [[0.5], [0.5]], 0.5],
                             ids=["empty", "row", "column", "scalar"])
    def test_input_that_is_not_a_nonempty_vector_is_refused(self, y):
        # project_simplex validates its input once, as simplex_threshold does
        for f in (fg.project_simplex, fg.simplex_threshold):
            with pytest.raises(fg.DimensionMismatch, match="nonempty 1-d vector"):
                f(np.array(y))

    def test_minus_infinity_entries_go_to_zero(self):
        y = np.array([-np.inf, 0.9, 0.5, -np.inf])
        assert fg.simplex_threshold(y) == pytest.approx(0.2, abs=1e-12)
        assert np.allclose(fg.project_simplex(y), [0.0, 0.7, 0.3, 0.0], atol=1e-12)

    def test_no_feasible_direction_improves(self, rng):
        # moving from the projection toward any other simplex point cannot
        # bring us closer to y
        for _ in range(100):
            y = rng.normal(size=4) * 2.0
            x = fg.project_simplex(y)
            z = rng.dirichlet(np.ones(4))
            step = x + 1e-4 * (z - x)
            assert np.sum((step - y) ** 2) >= np.sum((x - y) ** 2) - 1e-12


class TestBall:
    def test_interior_unchanged(self):
        y = np.array([0.5, 0.0])
        assert np.array_equal(fg.Ball(2).project(y), y)

    def test_boundary_scaling(self):
        assert np.allclose(fg.Ball(2).project(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-15)
        assert np.allclose(fg.Ball(2).project(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-12)

    def test_shifted_center(self):
        c = np.array([1.0, 1.0])
        x = fg.Ball(2, 0.5, c).project(np.array([3.0, 1.0]))
        assert np.allclose(x, [1.5, 1.0], atol=1e-12)

    def test_nonexpansive(self, rng):
        for _ in range(100):
            y1, y2 = rng.normal(size=3) * 3, rng.normal(size=3) * 3
            d = np.linalg.norm(fg.Ball(3).project(y1) - fg.Ball(3).project(y2))
            assert d <= np.linalg.norm(y1 - y2) + 1e-12


class TestBox:
    def test_clamps_componentwise(self):
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        assert np.array_equal(fg.Box(lo, hi).project(np.array([2.0, -3.0])), [1.0, -1.0])
        assert np.array_equal(fg.Box(lo, hi).project(np.array([0.5, 0.0])), [0.5, 0.0])

    def test_nonexpansive(self, rng):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        for _ in range(100):
            y1, y2 = rng.normal(size=2) * 3, rng.normal(size=2) * 3
            d = np.linalg.norm(fg.Box(lo, hi).project(y1) - fg.Box(lo, hi).project(y2))
            assert d <= np.linalg.norm(y1 - y2) + 1e-12


class TestGeneralized:
    def test_identity_matrix_agrees_with_euclidean(self, rng):
        for _ in range(30):
            y = rng.normal(size=3) * 2.0
            x = fg.generalized_project(y, np.eye(3), fg.Simplex(n=3))
            assert np.linalg.norm(x - fg.project_simplex(y)) <= 1e-8

    def test_domain_point_is_fixed(self, rng):
        y = rng.dirichlet(np.ones(3))
        x = fg.generalized_project(y, np.diag([4.0, 1.0, 2.0]), fg.Simplex(n=3))
        assert np.array_equal(x, y)

    def test_weighted_pull_toward_heavy_coordinate(self):
        x = fg.generalized_project(np.array([1.5, 0.5]), np.diag([4.0, 1.0]), fg.Simplex(n=2))
        assert np.allclose(x, [1.0, 0.0], atol=1e-6)

    def test_matches_line_search_oracle(self, rng):
        # on Simplex(2) the feasible set is the segment (t, 1-t); scan it
        for _ in range(10):
            y = rng.normal(size=2) * 2.0
            M = rng.normal(size=(2, 2))
            A = M @ M.T + 0.1 * np.eye(2)
            x = fg.generalized_project(y, A, fg.Simplex(n=2))
            ts = np.linspace(0.0, 1.0, 2001)
            pts = np.stack([ts, 1.0 - ts], axis=1)
            diffs = pts - y
            objs = np.einsum("ij,jk,ik->i", diffs, A, diffs)
            best = pts[int(np.argmin(objs))]
            d = x - y
            assert float(d @ A @ d) <= float(np.min(objs)) + 1e-6
            assert np.linalg.norm(x - best) <= 2e-3

    def test_degenerate_matrix_returns_a_minimizer(self):
        x = fg.generalized_project(np.array([2.0, -1.0]), np.zeros((2, 2)), fg.Simplex(n=2))
        assert fg.Simplex(n=2).contains(x)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-13, 1e-15])
    def test_scaled_down_matrix_is_not_taken_for_a_multiple_of_identity(self, scale):
        # every entry of 1e-9 * B is below allclose's absolute 1e-8, yet B is
        # far from a multiple of I; every test on A is relative and the solve
        # has no tolerance to scale, so the answer must not move
        B = np.array([[1.0, -0.437, 0.733], [-0.437, 1.0, -0.738], [0.733, -0.738, 1.0]])
        y = np.array([-0.551, 2.588, 2.013])
        x = fg.generalized_project(y, scale * B, fg.Simplex(n=3))
        assert np.allclose(x, [0.0, 0.97296307, 0.02703693], atol=1e-6)

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-15])
    def test_scaled_down_matrix_from_a_vertex_warm_start(self, scale):
        # the exact simplex solve has no tolerance to scale: from the vertex
        # e_0 its multipliers, of the size of A, still release the optimum
        B = np.array([[1.0, -0.437, 0.733], [-0.437, 1.0, -0.738], [0.733, -0.738, 1.0]])
        y = np.array([-0.551, 2.588, 2.013])
        x = fg.generalized_project(y, scale * B, fg.Simplex(n=3), x0=np.array([1.0, 0.0, 0.0]))
        assert np.allclose(x, [0.0, 0.97296307, 0.02703693], atol=1e-6)

    @pytest.mark.parametrize("domain", [fg.Simplex(n=2), fg.Ball(n=2), fg.Box(lo=-np.ones(2), hi=np.ones(2))])
    def test_singular_matrix_through_cholesky_is_refused(self, domain):
        # c 1 1^T is singular, yet rounding can let its Cholesky factorization
        # through with a last diagonal entry of 1.5e-8; the bordered KKT
        # system on it is exactly singular, and that pivot squared, 2.4e-16
        # of the diagonal, refuses it on every domain
        A = np.full((2, 2), 0.9240309903811073)
        y = np.array([2.7410824520793717, 3.282121275259559])
        with pytest.raises(fg.SetupError, match="squared Cholesky pivot above 1e-10"):
            fg.generalized_project(y, A, domain)

    def test_nearly_indefinite_matrix_is_refused_at_once(self):
        # a determinant of -2.5e-11: the projected gradient descent that used
        # to take this matrix stalled into ConvergenceError after 100,000 steps
        A = np.array([[0.500005, 0.5], [0.5, 0.499995]])
        with pytest.raises(fg.SetupError, match="not positive definite"):
            fg.generalized_project(np.zeros(2), A, fg.Simplex(n=2))

    @pytest.mark.parametrize("domain", [fg.Simplex(n=2), fg.Ball(n=2, radius=0.5),
                                        fg.Box(lo=-0.5 * np.ones(2), hi=0.5 * np.ones(2))])
    def test_nearly_symmetric_matrix_is_its_symmetric_part(self, domain):
        # (A + A^T) / 2 has the quadratic form of A, so it is projected on
        A = np.array([[2.0, 0.5], [0.5 * (1 + 2.0**-50), 1.0]])
        y = np.array([2.0, -1.0])
        x = fg.generalized_project(y, A, domain)
        assert x.tobytes() == fg.generalized_project(y, 0.5 * (A + A.T), domain).tobytes()

    @pytest.mark.parametrize("y, A", [
        (np.array([0.0, 0.99999]), np.diag([1.0009765625, 1.0])),
        (np.array([0.0, 0.2631, 0.73689999]),
         np.array([[2.592, 1.404, 0.218], [1.404, 2.76, -0.438], [0.218, -0.438, 2.086]])),
    ])
    def test_point_near_the_plane_meets_the_optimum(self, y, A):
        # y lies 1e-5 or 1e-8 below the plane sum x = 1 and every coordinate
        # stays free; coordinates near 1 round off that plane by more than
        # the objective allows (relative 2.7e-12 and 2.7e-9 here) unless the
        # answer is moved back onto it
        x = fg.generalized_project(y, A, fg.Simplex(n=y.size))
        assert (x > 0).all()
        _, best = _face_minimum(y, A, x > 0)
        assert abs(_objective_in_rationals(x, y, A) / best - 1) <= 1e-12

    @pytest.mark.parametrize("domain", [fg.Simplex(n=2), fg.Ball(n=2, radius=0.5),
                                        fg.Box(lo=-0.5 * np.ones(2), hi=0.5 * np.ones(2))])
    def test_refusals_name_the_defect(self, domain):
        # every matrix is tested before the solve, a y in the domain included
        for y in (np.array([2.0, -1.0]), domain.start()):
            with pytest.raises(fg.SetupError, match="matrix is not symmetric within 1e-12"):
                fg.generalized_project(y, np.array([[1.0, 0.5], [0.0, 1.0]]), domain)
            # a negative-definite A fails its factorization: no positive
            # diagonal entry may excuse it
            for A in (np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), np.diag([1.0, 1e-11]),
                      -np.eye(2), np.diag([-1.0, -2.0]), -1e-300 * np.eye(2)):
                with pytest.raises(fg.SetupError, match="^matrix is not positive definite with "
                                                        "every squared Cholesky pivot above "
                                                        "1e-10 times its largest diagonal entry$"):
                    fg.generalized_project(y, A, domain)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("domain", [fg.Simplex(n=2), fg.Ball(n=2), fg.Box(lo=-np.ones(2), hi=np.ones(2))])
    def test_a_non_finite_matrix_is_refused_by_name(self, bad, domain):
        for A in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
            with pytest.raises(fg.SetupError, match="^projection matrix has a non-finite entry$"):
                fg.generalized_project(np.array([3.0, 0.0]), np.array(A), domain)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("domain", [fg.Simplex(n=2), fg.Ball(n=2), fg.Box(lo=-np.ones(2), hi=np.ones(2))])
    def test_a_non_finite_point_is_refused_by_name(self, bad, domain):
        with pytest.raises(fg.SetupError, match="^projection point has a non-finite entry$"):
            fg.generalized_project(np.array([bad, 0.0]), np.diag([2.0, 1.0]), domain)

    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(fg.SetupError):
            fg.generalized_project(np.array([1.0, 0.0]), np.array([[1.0, 0.5], [0.0, 1.0]]), fg.Simplex(n=2))
        with pytest.raises(fg.SetupError):
            fg.generalized_project(np.array([1.0, 0.0]), np.diag([1.0, -1.0]), fg.Simplex(n=2))
        # scaled down, they are still asymmetric and indefinite
        with pytest.raises(fg.SetupError):
            fg.generalized_project(np.array([1.0, 0.0]), 1e-13 * np.array([[1.0, 0.5], [0.0, 1.0]]),
                                   fg.Simplex(n=2))
        with pytest.raises(fg.SetupError):
            fg.generalized_project(np.array([1.0, 0.0]), 1e-13 * np.diag([1.0, -1.0]),
                                   fg.Simplex(n=2))


def _solve_in_rationals(A, b):
    """The exact solution of A w = b for float A and b, by Gauss-Jordan
    elimination in rationals."""
    n = len(b)
    rows = [[Fraction(v) for v in A[i]] + [Fraction(b[i])] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _objective_in_rationals(x, y, A):
    d = [Fraction(v) - Fraction(u) for v, u in zip(x, y)]
    return sum(d[i] * Fraction(A[i, j]) * d[j] for i in range(len(d)) for j in range(len(d)))


def _face_minimum(y, A, support):
    """The exact minimizer of (x - y).A(x - y) over the plane sum x = 1 with
    x = 0 off support, in rationals, and its objective: d = x - y is -y off
    support, and on it d_F and nu solve
    [[A_FF, 1], [1^T, 0]] [d_F; nu] = [A_FB y_B; 1 - sum y_F]."""
    F, B = support.nonzero()[0], (~support).nonzero()[0]
    K = [[A[i, j] for j in F] + [1.0] for i in F] + [[1.0] * F.size + [0.0]]
    rhs = ([sum(Fraction(A[i, j]) * Fraction(y[j]) for j in B) for i in F]
           + [1 - sum(Fraction(y[i]) for i in F)])
    d_F = _solve_in_rationals(K, rhs)[:F.size]
    x = [Fraction(0)] * y.size
    for i, v in zip(F, d_F):
        x[i] = Fraction(y[i]) + v
    return x, _objective_in_rationals(x, y, A)


# ---------------------------------------------------------------------------
# The simplex threshold against its original formulation (np.sort, np.cumsum
# and np.nonzero), bit for bit.


def _reference_threshold(y):
    # a -inf candidate comes from a partial sum that overflowed, never from
    # the threshold, which lies at or above max(y) - 1
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    cand = (css - 1.0) / np.arange(1, y.size + 1)
    rho = int(np.nonzero((u - cand > 0) & (cand > -np.inf))[0][-1])
    return float(cand[rho])


def _reference_simplex(y):
    return np.maximum(y - _reference_threshold(y), 0.0)


# entries that stress the threshold: ties, magnitudes whose sums overflow or
# vanish, and -inf (which the projection sends to 0)
_simplex_entry = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e308, -1e308, 5e-324, 1e-300, -np.inf]),
)


# short lists, and arrays of up to 200 entries
_simplex_input = st.one_of(
    st.lists(_simplex_entry, min_size=1, max_size=8).map(np.array),
    hnp.arrays(float, st.integers(1, 200), elements=_simplex_entry),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_simplex_input)
@example(np.array([0.3]))
@example(np.array([-7.0]))
@example(np.array([0.5, 0.5, 0.5]))
@example(np.array([2.0, 2.0, -1.0, -1.0]))
@example(np.array([1e308, 1e308, 1.0]))
@example(np.array([-np.inf, 0.25, -np.inf]))
@example(np.array([-np.inf]))
@example(np.array([1e17]))
@example(np.array([1e16, 0.0]))
@example(np.array([1e16, 1e16]))
@example(np.array([3e300, -3e300, 1.0]))
@example(np.array([0.0, 0.0, -1e308, -1e308]))
@example(np.array([-1e308, -1e308]))
@example(np.full(40, -1e308))
def test_simplex_threshold_is_bit_identical_to_reference(y):
    # the threshold and projection of the sort, cumsum, arange and
    # u - cand > 0 form, bit for bit.  Where that form finds no candidate
    # (every entry -inf, sums that overflow, or entries so large that each
    # candidate rounds to its entry) the threshold refuses, and the
    # projection is the reference projection of y - max(y), which has the
    # same exact answer, unless no entry is finite
    with np.errstate(all="ignore"):
        try:
            want = _reference_threshold(y)
        except IndexError:
            with pytest.raises(fg.SetupError, match="threshold"):
                fg.simplex_threshold(y)
            if np.isneginf(y).all():
                with pytest.raises(fg.SetupError, match="finite"):
                    fg.project_simplex(y)
            else:
                shifted = _reference_simplex(y - y.max())
                assert fg.project_simplex(y).tobytes() == shifted.tobytes()
            return
        assert fg.simplex_threshold(y).hex() == want.hex()
        assert fg.project_simplex(y).tobytes() == _reference_simplex(y).tobytes()


@pytest.mark.parametrize("y, want", [
    ([0.0, 0.0, -1e308, -1e308], [0.5, 0.5, 0.0, 0.0]),
    ([-1e308, -1e308], [0.5, 0.5]),
    ([-1e308] * 40, [1 / 40] * 40),
])
def test_simplex_projection_skips_overflowed_candidates(y, want):
    # a partial sum that overflows to -inf gives a candidate of -inf, which
    # the last-index rule used to take, projecting every entry to inf; the
    # answers here are the exact projections, not the reference's
    assert np.array_equal(fg.project_simplex(np.array(y)), want)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 32, 40, 100, 200])
def test_simplex_threshold_scans_agree_at_every_length(n, rng):
    # the list loop and the cumsum form, on spread, tied and clustered entries
    for y in (rng.normal(size=n) * rng.uniform(0.01, 100), np.full(n, 0.5),
              np.round(rng.normal(size=n), 1), 1e6 + rng.normal(size=n)):
        assert fg.simplex_threshold(y).hex() == _reference_threshold(y).hex()
        assert fg.project_simplex(y).tobytes() == _reference_simplex(y).tobytes()


@pytest.mark.parametrize("n", [3, 10, 40, 200])
@pytest.mark.parametrize("case", ["nan", "+inf", "all -inf", "large", "nan first", "nan last"])
def test_simplex_threshold_refusals_at_every_length(n, case):
    y = np.linspace(-1.0, 1.0, n)
    if case.startswith("nan"):  # the sort may leave a NaN anywhere
        y[{"nan": n // 2, "nan first": 0, "nan last": n - 1}[case]] = np.nan
    elif case == "+inf":
        y[n - 1] = np.inf
    elif case == "all -inf":
        y[:] = -np.inf
    else:  # every candidate rounds to the entry it should lie below
        y[:2], y[2:] = 1e308, 1.0
    # the partial sums overflow, or meet inf - inf, on the way
    with np.errstate(all="ignore"):
        with pytest.raises(IndexError):
            _reference_threshold(y)
        with pytest.raises(fg.SetupError, match="threshold"):
            fg.simplex_threshold(y)
        if case == "large":  # projected as y - max(y), which has the same answer
            want = _reference_simplex(y - y.max())
            assert fg.project_simplex(y).tobytes() == want.tobytes()
            # the shifted tail of -1e308 overflows its partial sums
            assert np.array_equal(want, [0.5, 0.5] + [0.0] * (n - 2))
        else:
            with pytest.raises(fg.SetupError, match="finite"):
                fg.project_simplex(y)


def _vector(n, bound):
    return st.lists(st.floats(-bound, bound, allow_nan=False), min_size=n, max_size=n).map(np.array)


def _ons_matrix(draw, n, c, terms):
    """c I + sum of terms outer products g g^T with |g| >= 1e-3."""
    A = c * np.eye(n)
    for _ in range(terms):
        u = draw(_vector(n, 1.0))
        u[draw(st.integers(0, n - 1))] = 1.0  # a nonzero direction
        g = draw(st.floats(1e-3, 3.0)) * u / np.linalg.norm(u)
        A = A + np.outer(g, g)
    return A


@st.composite
def ons_projection_case(draw):
    """A point, an ONS-shaped matrix c I + sum g g^T, a domain of each kind
    and an optional warm start inside it.  A singular case has c = 0 and
    fewer terms than coordinates; otherwise c >= 0.1 makes A positive
    definite."""
    n = draw(st.integers(2, 6))
    singular = draw(st.booleans())
    if singular:
        A = _ons_matrix(draw, n, 0.0, draw(st.integers(1, n - 1)))
    else:
        A = _ons_matrix(draw, n, draw(st.floats(0.1, 100.0)), draw(st.integers(1, 4)))
    kind = draw(st.sampled_from(["simplex", "ball", "box"]))
    if kind == "simplex":
        domain = fg.Simplex(n=n)
    elif kind == "ball":
        domain = fg.Ball(n=n, radius=draw(st.floats(0.1, 3.0)), center=draw(_vector(n, 1.0)))
    else:
        lo = draw(_vector(n, 1.0))
        domain = fg.Box(lo=lo, hi=lo + np.abs(draw(_vector(n, 2.0))))
    y = draw(_vector(n, 5.0))
    x0 = fg.project_domain(domain, draw(_vector(n, 5.0))) if draw(st.booleans()) else None
    return y, A, domain, x0


def _kkt_tol(A, y, domain):
    """A relative 1e-9 of the size of A(x - y) for x in the ball or box."""
    lo, hi = domain.bounding_box()
    reach = max(float(abs(y).max()), float(abs(lo).max()), float(abs(hi).max()))
    return 1e-9 * float(abs(A).max()) * (1.0 + reach)


def assert_simplex_kkt(x, y, A):
    """x >= 0, sum x = 1, and A(x - y) + nu 1 - mu = 0 with mu >= 0 zero on the
    support, all to a relative 1e-9 of the size of A(x - y); y itself when y
    lies in the simplex (within the domain's tolerance)."""
    domain = fg.Simplex(n=y.size)
    if domain.contains(y):
        assert np.array_equal(x, y)
        return
    tol = 1e-9 * float(abs(A).max()) * (1.0 + float(abs(y).max()))
    assert (x >= 0).all()
    assert abs(float(x.sum()) - 1.0) <= 1e-9
    g = A @ (x - y)
    support = x > 0
    nu = -float(g[support].mean())
    assert np.all(abs(g[support] + nu) <= tol)
    assert np.all(g[~support] + nu >= -tol)


def assert_ball_kkt(x, y, A, ball):
    """For y outside the ball: x on its sphere and A(x - y) = -lam (x - center)
    with lam >= 0, to a relative 1e-9; y itself for y in the ball."""
    if ball.contains(y):
        assert np.array_equal(x, y)
        return
    tol = _kkt_tol(A, y, ball)
    z = x - ball.center
    assert abs(float(np.linalg.norm(z)) / ball.radius - 1.0) <= 1e-12
    g = A @ (x - y)
    lam = -float(g @ z) / ball.radius**2
    assert lam * ball.radius >= -tol
    assert np.all(abs(g + lam * z) <= tol)


def assert_box_kkt(x, y, A, box):
    """lo <= x <= hi, and A(x - y) is 0 on the free coordinates, >= 0 at lo
    and <= 0 at hi, to a relative 1e-9; y itself for y in the box."""
    if box.contains(y):
        assert np.array_equal(x, y)
        return
    tol = _kkt_tol(A, y, box)
    assert (box.lo <= x).all() and (x <= box.hi).all()
    g = A @ (x - y)
    at_lo, at_hi = x == box.lo, x == box.hi
    assert np.all(abs(g[~(at_lo | at_hi)]) <= tol)
    assert np.all(g[at_lo & ~at_hi] >= -tol)
    assert np.all(g[at_hi & ~at_lo] <= tol)


# a matrix drawn as singular that passes the Cholesky test: the projected
# gradient descent that once took other such matrices did not converge on
# it.  Rounded to [[0.5, 0.5, 0], [0.5, 0.5, 1e-5], [0, 1e-5, 1]] it is
# indefinite, and refused
_NEAR_SINGULAR = np.array([[0.4999999999999999, 0.4999999999999999, 0.0],
                           [0.4999999999999999, 0.5000000000999999, 9.999999999e-06],
                           [0.0, 9.999999999e-06, 0.9999999999]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ons_projection_case())
@example((np.zeros(3), _NEAR_SINGULAR, fg.Simplex(n=3), None))
@example((np.zeros(3), _NEAR_SINGULAR.round(5), fg.Simplex(n=3), None))
@example((np.full(3, 2.0), _NEAR_SINGULAR, fg.Ball(n=3), None))
@example((np.full(3, 2.0), _NEAR_SINGULAR, fg.Box(lo=-np.ones(3), hi=np.ones(3)), None))
# x_1 = y_1 + d_1 rounds to a float near 1, so the solved coordinates sum to
# 1 + 1.4e-17 in rationals, 1.4e-22 over the optimum's objective of 5.0e-11,
# until that rounding is moved into x_0
@example((np.array([0.0, 0.99999]), np.diag([1.0009765625, 1.0]), fg.Simplex(n=2), None))
# the exact route meets the minimum over the simplex to 6e-23 here
@example((np.array([0.0, 0.99999]), np.array([[1.5, 0.5], [0.5, 1.5]]), fg.Simplex(n=2), None))
# singular (eigvalsh reads [0, 4.00004]), yet its Cholesky diagonal, 2.0e-8
# and 3.0e-8, spreads within 1e5: the spread test let it through and the
# answer's objective was 1.34 times the face minimum.  Its least squared
# pivot, 4e-16, is 1e-16 of its largest diagonal entry, and it is refused
@example((np.array([0.0, 0.5]), np.array([[4.00004e-16, 4.00004e-08], [4.00004e-08, 4.00004]]),
          fg.Simplex(n=2), None))
def test_generalized_project_is_optimal_or_refused(case):
    # a refused matrix is singular or nearly so: its least squared Cholesky
    # pivot over its largest diagonal entry is at least 1 / cond(A).  Every
    # answer is in the domain and meets its KKT conditions, and on the
    # simplex it is the exact minimum over the face of its support to a
    # relative 1e-12 from above and below
    y, A, domain, x0 = case
    ev = np.linalg.eigvalsh(A)
    try:
        x = fg.generalized_project(y, A, domain, x0=x0)
    except fg.SetupError as e:
        assert "not positive definite" in str(e)
        assert ev[0] <= 1e-9 * ev[-1]
        return
    assert domain.contains(x)
    if isinstance(domain, fg.Simplex):
        assert_simplex_kkt(x, y, A)
        if not domain.contains(y):
            _, best = _face_minimum(y, A, x > 0)
            assert abs(_objective_in_rationals(x, y, A) / best - 1) <= 1e-12
    elif isinstance(domain, fg.Ball):
        assert_ball_kkt(x, y, A, domain)
    else:
        assert_box_kkt(x, y, A, domain)


@st.composite
def ons_simplex_case(draw):
    """A positive-definite ONS-shaped matrix, a point with some coordinates
    tied to its first, and an optional warm start on the simplex."""
    n = draw(st.integers(2, 11))
    A = _ons_matrix(draw, n, draw(st.floats(0.1, 100.0)), draw(st.integers(1, 12)))
    y = draw(_vector(n, 5.0))
    for i in draw(st.lists(st.integers(1, n - 1), max_size=n)):
        y[i] = y[0]
    x0 = fg.project_simplex(draw(_vector(n, 5.0))) if draw(st.booleans()) else None
    return y, A, x0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ons_simplex_case())
def test_exact_simplex_projection_meets_the_kkt_conditions(case):
    y, A, x0 = case
    assert_simplex_kkt(fg.generalized_project(y, A, fg.Simplex(n=y.size), x0=x0), y, A)


def test_project_domain_dispatch():
    assert np.allclose(fg.project_domain(fg.Simplex(n=2), np.array([0.9, 0.5])), [0.7, 0.3])
    ball = fg.Ball(n=2, radius=1.0, center=np.zeros(2))
    assert np.allclose(fg.project_domain(ball, np.array([3.0, 4.0])), [0.6, 0.8])
    box = fg.Box(lo=np.array([0.0]), hi=np.array([1.0]))
    assert np.array_equal(fg.project_domain(box, np.array([1.5])), [1.0])
