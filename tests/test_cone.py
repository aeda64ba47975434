"""Projection calculus on the Lorentz cone: closed forms against the
defining properties and against finite differences."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from socalm import cone
from socalm.cone import ConeRegion

from _util import SHIFTED, fd_jac


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
    assert_allclose(cone.jacobian_project_polar([-3.0, 1.0, 0.0]), np.eye(3))
    assert_allclose(cone.jacobian_project_polar([3.0, 1.0, 0.0]), np.zeros((3, 3)))


def test_jacobian_outside_closed_form():
    expected = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert_allclose(cone.jacobian_project_polar([0.0, 2.0, 0.0]), expected, atol=1e-15)


def test_jacobian_boundary_selection_is_the_outside_limit():
    # on bd Q the returned element is the block formula evaluated there,
    # i.e. the limit from the region outside both cones
    J = cone.jacobian_project_polar([1.0, 1.0, 0.0])
    expected = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert_allclose(J, expected, atol=1e-15)
    # degenerate axis points fall back to the adjacent interior selection
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
def test_vector_kernels_give_the_moreau_decomposition(y, log_t):
    """project_q(y) + project_polar(y) = y, the two parts are orthogonal,
    and each lies in its cone (Q and -Q), for the public vector kernels."""
    y = y * 10.0 ** log_t
    pq, pp = cone.project_q(y), cone.project_polar(y)
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
       log_a=st.floats(-3.0, 3.0))
def test_row_kernels_match_the_vector_kernels(seed, m, k, log_a):
    """Every row of a mixed batch is projected as the vector kernels
    project it alone; the rows satisfy Moreau's decomposition and
    projecting twice changes nothing."""
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
    Pq, Pp = cone._project_q_rows(Y), cone._project_polar_rows(Y)
    for y, pq, pp, pq2, pp2 in zip(Y, Pq, Pp, cone._project_q_rows(Pq),
                                   cone._project_polar_rows(Pp)):
        scale = max(1.0, float(np.linalg.norm(y)))
        assert np.abs(pq - cone._project_q(y)).max() <= 1e-15 * scale
        assert np.abs(pp - cone._project_polar(y)).max() <= 1e-15 * scale
        # Moreau decomposition: y = pq + pp, pq in Q, pp in -Q, orthogonal
        assert np.abs(pq + pp - y).max() <= 1e-15 * scale
        assert np.linalg.norm(pq[1:]) - pq[0] <= 1e-14 * scale
        assert np.linalg.norm(pp[1:]) + pp[0] <= 1e-14 * scale
        assert abs(pq @ pp) <= 1e-14 * scale * scale
        # idempotence
        assert np.abs(pq2 - pq).max() <= 1e-14 * scale
        assert np.abs(pp2 - pp).max() <= 1e-14 * scale


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
    outside both cones it is a nonzero point of the boundary of Q."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    a = 10.0 ** log_a
    rows = [make(a, w, rng.uniform(-0.9, 0.9), rng.uniform(0.1, 10.0))
            for make in SHIFTED.values()]
    tol = cone.TAU_CONE * max(1.0, a)
    rows += [make(a, w, nudge * tol) for make in NEAR_BOUNDARY.values()]
    t = 10.0 ** log_t
    for y in rows:
        p = cone.project_q(y)
        ynorm = float(np.linalg.norm(y))
        assert np.linalg.norm(cone.project_q(t * y) - t * p) <= 1e-14 * t * ynorm
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
