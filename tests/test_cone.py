"""Projection calculus on the Lorentz cone: closed forms against the
defining properties and against finite differences."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from socalm import cone
from socalm.cone import ConeRegion

from _util import BAD_TOLERANCES, CONE_VECTOR, SHIFTED, fd_jac, nan_at, rejected


def test_classify_examples():
    assert cone.classify([1.0, 0.5]) is ConeRegion.INTERIOR_Q
    assert cone.classify([0.0, 0.0]) is ConeRegion.ZERO
    assert cone.classify([0.0, 2.0, 0.0]) is ConeRegion.OUTSIDE
    assert cone.classify([1.0, 1.0, 0.0]) is ConeRegion.BOUNDARY_Q_NONZERO
    assert cone.classify([-2.0, 1.0, 0.0]) is ConeRegion.INTERIOR_POLAR
    assert cone.classify([-1.0, 1.0, 0.0]) is ConeRegion.BOUNDARY_POLAR_NONZERO


def test_classify_exhaustive_on_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(500):
        m = int(rng.integers(1, 6))
        y = rng.standard_normal(m + 1) * 10.0 ** rng.integers(-3, 3)
        region = cone.classify(y)
        assert isinstance(region, ConeRegion)


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        cone.classify([np.nan, 1.0])
    with pytest.raises(ValueError):
        cone.classify([1.0])  # m = 0 is not supported
    with pytest.raises(ValueError):
        cone.classify([1.0, 0.0], tol=-1.0)


Y = [1.0, 0.5, 0.0]


@pytest.mark.parametrize("call, message", [
    *rejected("classify", "tol", BAD_TOLERANCES, lambda v: cone.classify([1.0, 0.0, 0.0], v),
              "tol must be nonnegative"),
    *rejected("in_normal_cone", "tol", BAD_TOLERANCES,
              lambda v: cone.in_normal_cone([0.0, 0.0, 0.0], Y, v), "tol must be nonnegative"),
    # an infinite tolerance would pass every point: (5, 0, 0) is not normal at (1, 0, 0)
    *rejected("classify", "tol", [math.inf], lambda v: cone.classify([0.0, 1.0, 0.0], v),
              "tol must be finite"),
    *rejected("in_normal_cone", "tol", [math.inf],
              lambda v: cone.in_normal_cone([5.0, 0.0, 0.0], [1.0, 0.0, 0.0], v),
              "tol must be finite"),
    *rejected("in_normal_cone", "lam", [nan_at(Y)], lambda v: cone.in_normal_cone(v, Y),
              CONE_VECTOR),
    *rejected("in_normal_cone", "y", [nan_at(Y)], lambda v: cone.in_normal_cone(Y, v),
              CONE_VECTOR),
    *[row for name in ("tilde", "classify", "project_q", "project_polar",
                       "jacobian_project_polar")
      for row in rejected(name, "y", [nan_at(Y, 1)], getattr(cone, name),
                          CONE_VECTOR)],
])
def test_kernels_reject_a_bad_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_finite_tolerance_that_overflows_with_the_norm_stands():
    """A finite tolerance whose product with ||y|| overflows is a huge
    tolerance, not an infinite one: every point it covers is within it."""
    assert cone.classify([0.0, 1e300, 0.0], tol=1e300) is ConeRegion.ZERO
    assert cone.in_normal_cone([5.0, 0.0, 0.0], [1e300, 0.0, 0.0], tol=1e300)


def test_project_q_examples():
    assert_allclose(cone.project_q([1.0, 0.5, 0.0]), [1.0, 0.5, 0.0])
    assert_allclose(cone.project_q([-2.0, 1.0, 0.0]), [0.0, 0.0, 0.0])
    assert_allclose(cone.project_q([0.0, 2.0, 0.0]), [1.0, 1.0, 0.0])


def test_project_polar_examples():
    assert_allclose(cone.project_polar([0.0, 2.0, 0.0]), [-1.0, 1.0, 0.0])
    assert_allclose(cone.project_polar([1.0, 0.5, 0.0]), [0.0, 0.0, 0.0])
    assert_allclose(cone.project_polar([-2.0, 1.0, 0.0]), [-2.0, 1.0, 0.0])


def test_projection_properties_random():
    """P1-P3 plus idempotence on random vectors across dimensions."""
    rng = np.random.default_rng(23456)
    for _ in range(400):
        m = int(rng.integers(1, 8))
        y = rng.standard_normal(m + 1) * 3.0
        p = cone.project_q(y)
        polar = cone.project_polar(y)
        # P1: p in Q, complementarity, residual in -Q
        assert cone.classify(p, 1e-10) in (
            ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO)
        assert abs((y - p) @ p) <= 1e-10
        assert np.linalg.norm(cone.project_polar(y - p) - (y - p)) <= 1e-10
        # P2 / P3
        assert np.linalg.norm(p + polar - y) <= 1e-10
        assert abs(p @ polar) <= 1e-10
        # idempotence
        assert np.linalg.norm(cone.project_q(p) - p) <= 1e-12


def test_projection_is_nonexpansive():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        y1 = rng.standard_normal(m + 1) * 2.0
        y2 = rng.standard_normal(m + 1) * 2.0
        lhs = np.linalg.norm(cone.project_q(y1) - cone.project_q(y2))
        assert lhs <= np.linalg.norm(y1 - y2) + 1e-12


def test_jacobian_interior_cases():
    # also within classify's tolerance of a boundary, where the projection
    # is still differentiable
    for y0 in (-3.0, -1.0 - 1e-13):
        assert_allclose(cone.jacobian_project_polar([y0, 1.0, 0.0]), np.eye(3))
    for y0 in (3.0, 1.0 + 1e-13):
        assert_allclose(cone.jacobian_project_polar([y0, 1.0, 0.0]), np.zeros((3, 3)))


def test_jacobian_outside_closed_form():
    expected = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # also within classify's tolerance of the vertex
    for y1 in (2.0, 1e-13):
        assert_allclose(cone.jacobian_project_polar([0.0, y1, 0.0]), expected, atol=1e-15)


def test_jacobian_boundary_selection_is_the_outside_limit():
    # on bd Q the returned element is the block formula evaluated there,
    # i.e. the limit from the region outside both cones
    J = cone.jacobian_project_polar([1.0, 1.0, 0.0])
    expected = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert_allclose(J, expected, atol=1e-15)
    # the vertex takes the selection of Q, the axis below it that of -Q
    assert_allclose(cone.jacobian_project_polar([0.0, 0.0, 0.0]), np.zeros((3, 3)))
    assert_allclose(cone.jacobian_project_polar([-1e-15, 0.0, 0.0]), np.eye(3))


def test_jacobian_symmetric_with_unit_interval_spectrum():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        y = rng.standard_normal(m + 1) * 2.0
        J = cone.jacobian_project_polar(y)
        assert_allclose(J, J.T, atol=1e-14)
        eigs = np.linalg.eigvalsh(J)
        assert eigs.min() >= -1e-12 and eigs.max() <= 1.0 + 1e-12


def test_jacobian_matches_finite_differences_away_from_kinks():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 80:
        m = int(rng.integers(1, 6))
        y = rng.standard_normal(m + 1) * 2.0
        if abs(np.linalg.norm(y[1:]) - abs(y[0])) <= 1e-3:
            continue
        J = cone.jacobian_project_polar(y)
        Jfd = fd_jac(cone.project_polar, y, h=1e-6)
        assert np.abs(J - Jfd).max() <= 1e-6
        checked += 1


@settings(max_examples=200)
@given(seed=st.integers(0, 2**20), m=st.integers(1, 6), log_a=st.floats(-3.0, 3.0),
       c=st.floats(-50.0, 50.0))
def test_jacobian_matches_central_differences_of_the_projection(seed, m, log_a, c):
    """Away from the kinks (the two cone boundaries and the axis yr = 0)
    the polar projection is smooth and jacobian_project_polar is its
    derivative.  y = a (c, w) with ||w|| = 1 reaches every region: inside
    Q for c > 1, inside -Q for c < -1, outside both in between."""
    w = np.random.default_rng(seed).standard_normal(m)
    w /= np.linalg.norm(w)
    y = 10.0 ** log_a * np.r_[c, w]
    ynorm, rnorm = float(np.linalg.norm(y)), float(np.linalg.norm(y[1:]))
    kink = min(abs(rnorm - y[0]) / math.sqrt(2.0), abs(rnorm + y[0]) / math.sqrt(2.0), rnorm)
    assume(kink >= 1e-2 * ynorm)
    Jfd = fd_jac(cone.project_polar, y, h=1e-6 * ynorm)
    assert np.abs(cone.jacobian_project_polar(y) - Jfd).max() <= 1e-6


@settings(max_examples=300)
@given(y=arrays(np.float64, st.integers(2, 8), elements=st.floats(-1e6, 1e6)),
       log_t=st.floats(-6.0, 6.0))
@example(y=np.array([-2.0, -0.0, 1.0]), log_t=0.0)  # a signed zero inside -Q
def test_vector_kernels_give_the_moreau_decomposition(y, log_t):
    """project_q(y) + project_polar(y) = y, the two parts are orthogonal,
    and each lies in its cone (Q and -Q), for the public vector kernels;
    project_polar(y) has the bits of y - project_q(y), signed zeros too."""
    y = y * 10.0 ** log_t
    pq, pp = cone.project_q(y), cone.project_polar(y)
    assert pp.tobytes() == (y - pq).tobytes()
    scale = max(1.0, float(np.linalg.norm(y)))
    assert np.abs(pq + pp - y).max() <= 1e-15 * scale
    assert abs(pq @ pp) <= 1e-14 * scale * scale
    assert np.linalg.norm(pq[1:]) - pq[0] <= 1e-14 * scale
    assert np.linalg.norm(pp[1:]) + pp[0] <= 1e-14 * scale


def test_tilde_is_involution():
    rng = np.random.default_rng(3)
    for _ in range(50):
        y = rng.standard_normal(int(rng.integers(2, 7)))
        assert np.array_equal(cone.tilde(cone.tilde(y)), y)


def test_in_normal_cone_examples():
    assert cone.in_normal_cone([0.0, 0.0, 0.0], [1.0, 0.5, 0.0])
    assert cone.in_normal_cone([-1.0, 1.0, 0.0], [1.0, 1.0, 0.0])
    assert not cone.in_normal_cone([-1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        cone.in_normal_cone([0.0, 0.0, 0.0], [0.0, 2.0, 0.0])  # base not in Q


def test_in_normal_cone_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="dimension mismatch"):
        cone.in_normal_cone([0.0, 0.0], [1.0, 0.5, 0.0])


@pytest.mark.parametrize("y, region, expected", [
    ([2e160, 1e160, 0.0], ConeRegion.INTERIOR_Q, [2e160, 1e160, 0.0]),
    ([-2e160, 1e160, 0.0], ConeRegion.INTERIOR_POLAR, [0.0, 0.0, 0.0]),
    ([0.0, 2e160, 0.0], ConeRegion.OUTSIDE, [1e160, 1e160, 0.0]),
    ([1e300, 1e300, 0.0], ConeRegion.BOUNDARY_Q_NONZERO, [1e300, 1e300, 0.0]),
])
def test_public_kernels_where_the_squared_norm_overflows(y, region, expected):
    """Each y @ y overflows; the kernels still classify and project y,
    without a warning (the test suite turns warnings into errors)."""
    assert cone.classify(y) is region
    assert_allclose(cone.project_q(y), expected, rtol=1e-15)
    assert_allclose(cone.project_polar(y), np.subtract(y, expected), rtol=1e-15, atol=1e145)
    assert np.isfinite(cone.jacobian_project_polar(y)).all()
    assert cone.in_normal_cone(np.zeros(3), expected)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**20), m=st.integers(1, 6),
       case=st.sampled_from([c for c in SHIFTED if c not in ("axis+", "axis-")]),
       k=st.integers(520, 1000))
def test_kernels_commute_with_a_huge_power_of_two(seed, m, case, k):
    """Scaling by 2**k is exact; where it makes y @ y overflow, the region
    is unchanged and the projection scales with y.  (The two axis points
    are left out: their norm is below 1, where the classification
    tolerance does not scale.)"""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    y = SHIFTED[case](1.0, w, rng.uniform(-0.9, 0.9), rng.uniform(0.1, 10.0))
    t = 2.0 ** k
    assert cone.classify(t * y) is cone.classify(y)
    assert_allclose(cone.project_q(t * y) / t, cone.project_q(y), rtol=1e-14, atol=1e-15)


# every region, zero, near-axis and exact axis rows (yr = 0)
ROW_CASES = {
    **SHIFTED,
    "exact axis+": lambda a, w, c, g: np.r_[a, np.zeros(w.size)],
    "exact axis-": lambda a, w, c, g: np.r_[-a, np.zeros(w.size)],
}


@settings(max_examples=200)
@given(seed=st.integers(0, 2**20), m=st.integers(1, 6), k=st.integers(1, 24),
       # beyond 1e154 a row's squared norm overflows
       log_a=st.floats(-3.0, 3.0) | st.floats(150.0, 300.0))
def test_row_kernels_match_the_vector_kernels(seed, m, k, log_a):
    """Every row of a mixed batch is projected as the vector kernels
    project it alone; the rows satisfy Moreau's decomposition and
    projecting twice changes nothing.  Norms are the kernels' `_norm`
    (numpy's where the square is finite), so the scale stays finite."""
    rng = np.random.default_rng(seed)
    cases = list(ROW_CASES)
    rows = []
    for i in range(k):
        w = rng.standard_normal(m)
        w /= np.linalg.norm(w)
        a = 10.0 ** log_a * rng.uniform(0.5, 2.0)
        case = cases[i] if i < len(cases) else cases[int(rng.integers(len(cases)))]
        rows.append(ROW_CASES[case](a, w, rng.uniform(-0.9, 0.9), rng.uniform(0.1, 10.0)))
    Y = np.array(rows)
    with np.errstate(over="ignore"):  # how the kernels detect an overflowing square
        Pq = cone._project_q_rows(Y)
        Pp = Y - Pq
        for y, pq, pp, pq2, pp2 in zip(Y, Pq, Pp, cone._project_q_rows(Pq),
                                       Pp - cone._project_q_rows(Pp)):
            scale, rnorm = max(1.0, cone._norm(y)), cone._checked_rnorm(y, "y")
            assert np.abs(pq - cone._project_q(y, rnorm)).max() <= 1e-15 * scale
            assert np.abs(pp - cone._project_polar(y, rnorm)).max() <= 1e-15 * scale
            # Moreau decomposition: y = pq + pp, pq in Q, pp in -Q, orthogonal
            assert np.abs(pq + pp - y).max() <= 1e-15 * scale
            assert cone._norm(pq[1:]) - pq[0] <= 1e-14 * scale
            assert cone._norm(pp[1:]) + pp[0] <= 1e-14 * scale
            assert abs((pq / scale) @ (pp / scale)) <= 1e-14
            # idempotence
            assert np.abs(pq2 - pq).max() <= 1e-14 * scale
            assert np.abs(pp2 - pp).max() <= 1e-14 * scale


def test_row_kernels_where_the_squared_norm_overflows():
    """Rows whose squared space norm overflows are projected as the
    vector kernels project them, with the bits of the vector kernels,
    beside a row of ordinary size."""
    Y = np.array([[2e160, 1e160, 0.0], [0.0, 2e160, 0.0], [-3e200, 1e200, 2e200],
                  [0.5, 2.0, -1.0]])
    with np.errstate(over="ignore"):
        Pq = cone._project_q_rows(Y)
        Pp = Y - Pq
        for y, pq, pp in zip(Y, Pq, Pp):
            rnorm = cone._checked_rnorm(y, "y")
            assert pq.tobytes() == cone._project_q(y, rnorm).tobytes()
            assert pp.tobytes() == cone._project_polar(y, rnorm).tobytes()
    assert_allclose(Pq[:2], [[2e160, 1e160, 0.0], [1e160, 1e160, 0.0]], rtol=1e-15)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**20), m=st.integers(1, 6), k=st.integers(1, 8),
       # from 1e300 up to the largest float: rows whose ||y_r|| lies near
       # the largest float, on either side
       log_a=st.floats(-3.0, 3.0) | st.floats(300.0, 308.25))
def test_row_kernel_agrees_with_the_checked_norm_row_by_row(seed, m, k, log_a):
    """`_project_q_rows` rejects a batch with NonFiniteError exactly where
    `_checked_rnorm` rejects one of its rows (||y_r|| overflows), and
    otherwise projects each row as `_project_q` projects it with that
    norm, with no floating-point warning but the detected overflow of a
    squared norm."""
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-1.0, 1.0, (k, m + 1)) * 10.0 ** log_a
    with np.errstate(over="ignore"):
        rnorms = []
        for y in Y:
            try:
                rnorms.append(cone._checked_rnorm(y, "point"))
            except cone.NonFiniteError:
                rnorms.append(None)
        if None in rnorms:
            with pytest.raises(cone.NonFiniteError, match="overflows"):
                cone._project_q_rows(Y)
        kept = [i for i, rnorm in enumerate(rnorms) if rnorm is not None]
        Pq = cone._project_q_rows(Y[kept])
        for y, pq, i in zip(Y[kept], Pq, kept):
            expected = cone._project_q(y, rnorms[i])
            assert np.abs(pq - expected).max() <= 4 * np.finfo(float).eps * np.abs(y).max()


@pytest.mark.parametrize("middle", [1e300, 0.0])
def test_projections_where_y0_plus_the_space_norm_overflows(middle):
    """At y = (1.5e308, middle, 1.6e308), outside both cones, y0 + ||yr||
    overflows though both projections are finite: the vector and the row
    kernels halve before they add, and give finite, matching results with
    no warning (the public kernels turn off only the overflow of the
    squared norm they detect)."""
    y = np.array([1.5e308, middle, 1.6e308])
    pq, pp = cone.project_q(y), cone.project_polar(y)
    assert np.isfinite(pq).all() and np.isfinite(pp).all()
    assert_allclose(pq, [1.55e308, 0.96875 * middle, 1.55e308], rtol=1e-14)
    assert pp.tobytes() == (y - pq).tobytes()
    with np.errstate(over="ignore"):
        assert cone._project_q_rows(y[None])[0].tobytes() == pq.tobytes()


@settings(max_examples=300)
@given(y0=st.floats(-1e308, 1e308), rnorm=st.floats(0.0, 1.7e308, exclude_min=True),
       log_scale=st.sampled_from([0.0, -150.0, -300.0, 150.0]))
@example(y0=5e-324, rnorm=1.0, log_scale=0.0)            # a subnormal y0
@example(y0=-1.0 + 2.0 ** -52, rnorm=1.0, log_scale=-160.0)
def test_halved_boundary_coefficient_has_the_bits_of_the_direct_one(y0, rnorm, log_scale):
    """y0/2 + ||yr||/2 has the bits of (y0 + ||yr||)/2 wherever the sum is
    finite, for every ||yr|| a norm can take (0 or at least about 1e-162)
    above |y0|, subnormal y0 included."""
    scale = 10.0 ** log_scale
    y0, rnorm = y0 * scale, rnorm * scale
    assume(rnorm >= 1e-162 and abs(y0) < rnorm < math.inf)
    direct = 0.5 * (y0 + rnorm)   # Python floats: an overflow is inf, not a warning
    assume(math.isfinite(direct))
    assert (0.5 * y0 + 0.5 * rnorm).hex() == direct.hex()


@settings(max_examples=300)
@given(seed=st.integers(0, 2**20), m=st.integers(1, 6), case=st.sampled_from(list(ROW_CASES)),
       # beyond 1e154 the squared space norm overflows
       log_a=st.floats(-3.0, 3.0) | st.floats(150.0, 300.0))
def test_project_polar_is_y_minus_project_q_bit_for_bit(seed, m, case, log_a):
    """The polar projection formed directly (zeros inside Q, a copy of y
    inside -Q) has the bits of y - Pi_Q(y) in every region, on the
    boundaries, the axes and at zero, with ||yr|| from `_norm` or from
    `_checked_rnorm`."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    y = ROW_CASES[case](10.0 ** log_a, w, rng.uniform(-0.9, 0.9), rng.uniform(0.1, 10.0))
    with np.errstate(over="ignore"):  # how the kernels detect an overflowing square
        expected = (y - cone._project_q(y, cone._norm(y[1:]))).tobytes()
        assert cone._project_polar(y, cone._norm(y[1:])).tobytes() == expected
        assert cone._project_polar(y, cone._checked_rnorm(y, "y")).tobytes() == expected


HUGE = st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 1e200, -1e160])


@settings(max_examples=400)
@given(y=arrays(np.float64, st.integers(2, 8), elements=st.floats() | HUGE))
@example(y=np.array([0.0, 1.7e308, 1.7e308]))      # finite, ||yr|| overflows
@example(y=np.array([0.0, 1e200, -1e200]))          # finite, ||yr||^2 overflows
@example(y=np.array([1.0, -math.inf, 1e308]))
@example(y=np.array([math.inf, 0.0, 0.0]))
@example(y=np.array([math.nan, 1e308, 1e308]))
@example(y=np.array([0.0, math.nan]))
def test_checked_rnorm_verdict_is_that_of_isfinite(y):
    """`_checked_rnorm` returns the bits of `_norm(y[1:])` where
    `np.isfinite(y).all()` holds and that norm is finite, and raises
    otherwise: on a NaN or infinite entry, with no invalid-value warning
    (the suite turns warnings into errors), and where ||yr|| overflows."""
    with np.errstate(over="ignore"):  # how the kernels detect an overflowing square
        if np.isfinite(y).all() and math.isfinite(cone._norm(y[1:])):
            assert cone._checked_rnorm(y, "y").hex() == cone._norm(y[1:]).hex()
        else:
            with pytest.raises(cone.NonFiniteError, match="^y$"):
                cone._checked_rnorm(y, "y")


# entries up to the largest float but one step short, so that ||y_r|| lies
# on either side of the largest float
HUGE_ENTRY = st.floats(-1.7e308, 1.7e308) | st.sampled_from([1.7e308, -1.7e308, 1.2e308,
                                                             -1.2e308, 1e154, 0.0])
# finite points whose ||y_r|| overflows, and points on the boundaries of Q
# and of -Q whose ||y|| overflows
OVERFLOWING = [[0.0, 1.7e308, 1.7e308], [1.7e308, 1.7e308, 0.0], [-1.7e308, 1.7e308, 0.0]]


@st.composite
def huge_pairs(draw):
    size = draw(st.integers(2, 5))
    return tuple(draw(arrays(np.float64, size, elements=HUGE_ENTRY)) for _ in range(2))


def _checked_or_none(y):
    try:
        return cone._checked_rnorm(y, "y")
    except cone.NonFiniteError:
        return None


@settings(max_examples=400)
@given(pair=huge_pairs())
@example(pair=(np.array(OVERFLOWING[0]), np.array([1.0, 0.0, 0.0])))
@example(pair=(np.array(OVERFLOWING[1]), np.array([1.0, 0.0, 0.0])))
@example(pair=(np.array(OVERFLOWING[2]), np.array([1.0, 0.0, 0.0])))
def test_public_kernels_take_the_checked_norm_or_reject_the_point(pair):
    """Each public kernel returns the bytes of its twin on `_checked_rnorm`'s
    ||y_r||, or raises NonFiniteError exactly where `_checked_rnorm` does.
    `classify` also raises where ||y|| overflows, and `in_normal_cone`
    where ||y||, ||lam|| or the space norm of y + lam does, at y, at
    Pi_Q(y) and at the Moreau pair (Pi_-Q(y), Pi_Q(y)), which lies in the
    normal cone.  No warning escapes: the suite turns warnings into errors."""
    y, lam = pair
    with np.errstate(over="ignore"):  # how the kernels detect an overflowing square
        rnorm, ynorm = _checked_or_none(y), cone._norm(y)
    if ynorm == math.inf:
        with pytest.raises(cone.NonFiniteError, match="overflows"):
            cone.classify(y)
    else:
        assert isinstance(cone.classify(y), ConeRegion)
    kernels = (cone.project_q, cone.project_polar, cone.jacobian_project_polar)
    if rnorm is None:
        for kernel in kernels:
            with pytest.raises(cone.NonFiniteError, match="overflows"):
                kernel(y)
        tests = [(lam, y)]
    else:
        pq, pp, V = (kernel(y) for kernel in kernels)
        assert pq.tobytes() == cone._project_q(y, rnorm).tobytes()
        assert pp.tobytes() == cone._project_polar(y, rnorm).tobytes()
        alpha, u, r = cone._polar_jacobian_parts(y, rnorm)
        expected = alpha * np.eye(y.size)
        if u is not None:  # alpha I + E C E', E = [e0, (0, u)]
            E = np.zeros((y.size, 2))
            E[0, 0], E[1:, 1] = 1.0, u
            expected += E @ (0.5 * np.array([[r, -1.0], [-1.0, r]])) @ E.T
        assert np.isfinite(V).all()
        assert_allclose(V, expected, rtol=0.0, atol=1e-15)
        tests = [(lam, y), (lam, pq), (pp, pq)]
    for mult, base in tests:
        with np.errstate(over="ignore"):
            rejected = (math.inf in (cone._norm(base), cone._norm(mult))
                        or None in (_checked_or_none(base), _checked_or_none(base + mult)))
        if rejected:
            with pytest.raises(cone.NonFiniteError, match="overflows"):
                cone.in_normal_cone(mult, base)
            continue
        try:
            verdict = cone.in_normal_cone(mult, base)
        except ValueError as exc:  # the base point lies outside Q
            assert not isinstance(exc, cone.NonFiniteError) and base is y
            continue
        if mult is pp:
            assert verdict


@pytest.mark.parametrize("call", [
    lambda: cone.project_q(OVERFLOWING[0]),
    lambda: cone.project_polar(OVERFLOWING[0]),
    lambda: cone.jacobian_project_polar(OVERFLOWING[0]),
    *[lambda y=y: cone.classify(y) for y in OVERFLOWING],
    lambda: cone.in_normal_cone([1.0, 0.0, 0.0], OVERFLOWING[1]),
    lambda: cone.in_normal_cone([-1.7e308, 1.7e308, 0.0], [0.0, 0.0, 0.0]),
], ids=["project_q", "project_polar", "jacobian", "classify-rnorm", "classify-boundary-q",
        "classify-boundary-polar", "normal-cone-y", "normal-cone-lam"])
def test_a_point_whose_norm_overflows_is_rejected(call):
    """Where a norm overflows, the projections return no NaN, `classify`
    calls no point Zero, and `in_normal_cone` accepts no multiplier inside
    Q: each raises NonFiniteError."""
    with pytest.raises(cone.NonFiniteError, match="overflows$"):
        call()


# near-boundary rows: a boundary point of Q or -Q moved by less than the
# classification tolerance, off the boundary in either direction
NEAR_BOUNDARY = {
    "near bd Q": lambda a, w, d: np.r_[a + d, a * w],
    "near bd -Q": lambda a, w, d: np.r_[-a + d, a * w],
}


@settings(max_examples=200)
@given(seed=st.integers(0, 2**20), m=st.integers(1, 6), log_a=st.floats(-3.0, 3.0),
       log_t=st.floats(-6.0, 6.0), nudge=st.floats(-0.9, 0.9))
def test_project_q_is_homogeneous_and_agrees_with_classify(seed, m, log_a, log_t, nudge):
    """Pi_Q(t y) = t Pi_Q(y) for t > 0; inside Q the projection is y,
    inside -Q it is 0, within the classification tolerance of the
    boundary of Q (of -Q) it lies within that tolerance of y (of 0), and
    outside both cones it is a nonzero point of the boundary of Q.

    The polar Jacobian V is homogeneous of degree 0: V(s y) = V(y) for
    the power of two s nearest below t, whose scaling is exact (rounding
    t y can move a boundary point to either side of the projection's
    test), and its spectrum lies in [0, 1] up to the eigensolver's
    rounding, which reaches 2.4e-15 on the m-fold eigenvalue 1 on the
    boundary of -Q."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    a = 10.0 ** log_a
    rows = [make(a, w, rng.uniform(-0.9, 0.9), rng.uniform(0.1, 10.0))
            for make in SHIFTED.values()]
    tol = cone.TAU_CONE * max(1.0, a)
    rows += [make(a, w, nudge * tol) for make in NEAR_BOUNDARY.values()]
    t = 10.0 ** log_t
    s = 2.0 ** math.floor(math.log2(t))
    for y in rows:
        p = cone.project_q(y)
        ynorm = float(np.linalg.norm(y))
        assert np.linalg.norm(cone.project_q(t * y) - t * p) <= 1e-14 * t * ynorm
        V = cone.jacobian_project_polar(y)
        assert np.array_equal(cone.jacobian_project_polar(s * y), V)
        eigs = np.linalg.eigvalsh(V)
        assert eigs.min() >= -1e-14 and eigs.max() <= 1.0 + 1e-14
        region = cone.classify(y)
        bound = cone.TAU_CONE * max(1.0, ynorm)
        if region is ConeRegion.INTERIOR_Q:
            assert np.array_equal(p, y)
        elif region is ConeRegion.INTERIOR_POLAR:
            assert not p.any()
        elif region is ConeRegion.BOUNDARY_Q_NONZERO:
            assert np.linalg.norm(p - y) <= bound
        elif region in (ConeRegion.BOUNDARY_POLAR_NONZERO, ConeRegion.ZERO):
            assert np.linalg.norm(p) <= bound
        else:
            assert cone.classify(p) is ConeRegion.BOUNDARY_Q_NONZERO
