"""Critical cones, second subderivatives and the two certificates,
cross-checked against the difference-quotient oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import null_space

from socalm import (ConeRegion, builtin, certify_growth, generate_planted, lagrangian_l,
                    quadratic_problem, solvability_estimate)
from socalm.cone import NonFiniteError
from socalm.lagrangian import aug_hessian
from socalm.variational import (TOL, CriticalCone, CriticalConeCase, _bottom_pair,
                                _growth_pair, _kernel_split, _kernel_tol, _kkt_data, _kkt_pairs,
                                _penalty_split, check_dual_qualification, check_sosc,
                                critical_cone, d2_aug_lagrangian, d2_indicator_q,
                                difference_quotient_oracle, dist2_critical,
                                multiplier_calmness, quad_form_q)

from _util import (BAD_PENALTIES, CONE_VECTOR, MULTIPLIER, PRIMAL,
                   constant_phi_problem, counted, curved_problem, nan_at,
                   negative_curvature_problem, rejected, vertex_problem)


def test_critical_cone_case_table():
    full = critical_cone([2.0, 1.0, 0.0], [0.0, 0.0, 0.0])
    assert full.case is CriticalConeCase.FULL_SPACE

    hyper = critical_cone([1.0, 1.0, 0.0], [-1.0, 1.0, 0.0])
    assert hyper.case is CriticalConeCase.HYPERPLANE
    assert_allclose(hyper.vector, [-1.0, 1.0, 0.0])

    half = critical_cone([1.0, 1.0, 0.0], [0.0, 0.0, 0.0])
    assert half.case is CriticalConeCase.HALF_SPACE
    assert_allclose(half.vector, [-1.0, 1.0, 0.0])

    whole = critical_cone([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert whole.case is CriticalConeCase.WHOLE_CONE_Q

    zero_only = critical_cone([0.0, 0.0, 0.0], [-2.0, 1.0, 0.0])
    assert zero_only.case is CriticalConeCase.ZERO_ONLY

    ray = critical_cone([0.0, 0.0, 0.0], [-1.0, 1.0, 0.0])
    assert ray.case is CriticalConeCase.RAY
    assert_allclose(ray.vector, [1.0, 1.0, 0.0])

    # each case again at a scale where the squared norms overflow
    assert critical_cone([2e160, 1e160, 0.0], [0.0, 0.0, 0.0]).case is CriticalConeCase.FULL_SPACE
    big = critical_cone([1e300, 1e300, 0.0], [-1e300, 1e300, 0.0])
    assert big.case is CriticalConeCase.HYPERPLANE
    assert critical_cone([0.0, 0.0, 0.0], [-1e300, 1e300, 0.0]).case is CriticalConeCase.RAY


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.0, 1e160, 1e200])
def test_second_subderivative_squares_through_scaled_norms(scale):
    """At a = (0, 2 scale, 0) projection's pair is scale (1, 1, 0) and
    scale (-1, 1, 0): the Hyperplane normal's square overflows from scale
    1e160 on, yet the second subderivative is that of scale 1, with no
    floating-point warning."""
    p = builtin("projection", a=(0.0, 2.0 * scale, 0.0))
    sol = p.known_solution
    assert d2_aug_lagrangian(p, sol.x, sol.lam, 1.0, [1.0, 0.5, 0.2]) == 1.435
    for case, lam in ((CriticalConeCase.HYPERPLANE, sol.lam), (CriticalConeCase.HALF_SPACE,
                                                              np.zeros(3))):
        K = critical_cone(sol.x, lam)
        assert K.case is case
        assert dist2_critical(K, [-1.0, 1.0, 0.0]) == pytest.approx(2.0, rel=1e-15)


def test_critical_cone_requires_normal_direction():
    with pytest.raises(ValueError):
        critical_cone([2.0, 1.0, 0.0], [1.0, 0.0, 0.0])  # interior, nonzero lam


# Phi = x of a quadratic whose KKT pair sits just outside Q: the normal-cone
# test (sqrt(2) CONE_TOL) accepts it, the region split (CONE_TOL) calls it
# Outside; taken for the vertex it was certified as a Ray
BAND_SHIFT = 1.0000000169705627


def _band_problem(shift):
    """KKT pair (x, lam) = ((1, shift, 0), (-1, 1, 0)), Phi(x) = x."""
    return quadratic_problem(np.diag([1.0, 1.0, -2.0]), [0.0, -(1.0 + shift), 0.0], 0.0,
                             np.eye(3), np.zeros(3))


def test_critical_cone_rejects_a_base_point_outside_q_in_the_tolerance_band():
    lam = np.array([-1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="base point in Outside and a multiplier in Bound"):
        critical_cone([1.0, BAND_SHIFT, 0.0], lam)
    with pytest.raises(ValueError, match="no critical cone case"):
        check_sosc(_band_problem(BAND_SHIFT), [1.0, BAND_SHIFT, 0.0], lam)
    # the exact boundary pair is a Hyperplane, where sufficiency fails
    assert critical_cone([1.0, 1.0, 0.0], lam).case is CriticalConeCase.HYPERPLANE
    report = check_sosc(_band_problem(1.0), [1.0, 1.0, 0.0], lam)
    assert not report.holds and report.modulus == pytest.approx(-1.0)


HYPERPLANE_PAIR = ([1.0, 1.0, 0.0], [-1.0, 1.0, 0.0])
X, LAM = HYPERPLANE_PAIR
W = [1.0, 0.0, 0.0]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda p: critical_cone([1.0, 1.0], [-1.0, 1.0, 0.0]), "dimension mismatch",
                 id="critical_cone"),
    pytest.param(lambda p: dist2_critical(critical_cone(*HYPERPLANE_PAIR), [1.0, 0.0]),
                 "dimension mismatch with the critical cone", id="dist2_critical"),
    pytest.param(lambda p: quad_form_q(p, *HYPERPLANE_PAIR, 0.0, W), "rho must be positive",
                 id="quad_form_q"),
    pytest.param(lambda p: d2_aug_lagrangian(p, *HYPERPLANE_PAIR, -1.0, W),
                 "rho must be positive", id="d2_aug_lagrangian"),
    pytest.param(lambda p: difference_quotient_oracle(p, *HYPERPLANE_PAIR, 1.0, W, 0.0),
                 "t must be positive", id="difference_quotient_oracle"),
    *rejected("quad_form_q", "rho", BAD_PENALTIES[1:],
              lambda v, p: quad_form_q(p, X, LAM, v, W), "rho must be positive"),
    *rejected("d2_aug_lagrangian", "rho", (0.0, math.nan, math.inf),
              lambda v, p: d2_aug_lagrangian(p, X, LAM, v, W), "rho must be positive"),
    *rejected("difference_quotient_oracle", "t", BAD_PENALTIES[1:],
              lambda v, p: difference_quotient_oracle(p, X, LAM, 1.0, W, v),
              "t must be positive"),
    *rejected("difference_quotient_oracle", "rho", BAD_PENALTIES,
              lambda v, p: difference_quotient_oracle(p, X, LAM, v, W, 1e-3),
              "rho must be positive"),
    # one NaN entry in each point argument
    *rejected("quad_form_q", "xbar", [nan_at(X)],
              lambda v, p: quad_form_q(p, v, LAM, 1.0, W), PRIMAL),
    *rejected("quad_form_q", "lambda_bar", [nan_at(LAM)],
              lambda v, p: quad_form_q(p, X, v, 1.0, W), MULTIPLIER),
    *rejected("quad_form_q", "w", [nan_at(W)],
              lambda v, p: quad_form_q(p, X, LAM, 1.0, v), PRIMAL),
    *rejected("d2_aug_lagrangian", "xbar", [nan_at(X)],
              lambda v, p: d2_aug_lagrangian(p, v, LAM, 1.0, W), PRIMAL),
    *rejected("d2_aug_lagrangian", "lambda_bar", [nan_at(LAM)],
              lambda v, p: d2_aug_lagrangian(p, X, v, 1.0, W), MULTIPLIER),
    *rejected("d2_aug_lagrangian", "w", [nan_at(W)],
              lambda v, p: d2_aug_lagrangian(p, X, LAM, 1.0, v), PRIMAL),
    *rejected("difference_quotient_oracle", "x", [nan_at(X)],
              lambda v, p: difference_quotient_oracle(p, v, LAM, 1.0, W, 1e-3), PRIMAL),
    *rejected("difference_quotient_oracle", "lam", [nan_at(LAM)],
              lambda v, p: difference_quotient_oracle(p, X, v, 1.0, W, 1e-3), MULTIPLIER),
    *rejected("difference_quotient_oracle", "w", [nan_at(W)],
              lambda v, p: difference_quotient_oracle(p, X, LAM, 1.0, v, 1e-3), PRIMAL),
    *rejected("check_sosc", "xbar", [nan_at(X)], lambda v, p: check_sosc(p, v, LAM), PRIMAL),
    *rejected("check_sosc", "lambda_bar", [nan_at(LAM)],
              lambda v, p: check_sosc(p, X, v), MULTIPLIER),
    *rejected("check_dual_qualification", "xbar", [nan_at(X)],
              lambda v, p: check_dual_qualification(p, v, LAM), PRIMAL),
    *rejected("check_dual_qualification", "lambda_bar", [nan_at(LAM)],
              lambda v, p: check_dual_qualification(p, X, v), MULTIPLIER),
    *rejected("multiplier_calmness", "xbar", [nan_at(X)],
              lambda v, p: multiplier_calmness(p, v, LAM, False), PRIMAL),
    *rejected("multiplier_calmness", "lambda_bar", [nan_at(LAM)],
              lambda v, p: multiplier_calmness(p, X, v, False), MULTIPLIER),
    *rejected("critical_cone", "phi_xbar", [nan_at(X)],
              lambda v, p: critical_cone(v, LAM), CONE_VECTOR),
    *rejected("critical_cone", "lambda_bar", [nan_at(LAM)],
              lambda v, p: critical_cone(X, v), CONE_VECTOR),
    *rejected("d2_indicator_q", "phi_xbar", [nan_at(X)],
              lambda v, p: d2_indicator_q(v, LAM, W), CONE_VECTOR),
    *rejected("d2_indicator_q", "lambda_bar", [nan_at(LAM)],
              lambda v, p: d2_indicator_q(X, v, W), CONE_VECTOR),
    *rejected("d2_indicator_q", "w", [nan_at(W)],
              lambda v, p: d2_indicator_q(X, LAM, v), CONE_VECTOR),
    *rejected("dist2_critical", "v", [nan_at(W)],
              lambda v, p: dist2_critical(critical_cone(X, LAM), v), CONE_VECTOR),
])
def test_second_order_tools_reject_a_bad_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call(builtin("projection"))


def test_dist2_examples():
    hyper = critical_cone([1.0, 1.0, 0.0], [-1.0, 1.0, 0.0])
    assert dist2_critical(hyper, [1.0, 1.0, 0.0]) == 0.0
    ray = critical_cone([0.0, 0.0, 0.0], [-1.0, 1.0, 0.0])
    assert dist2_critical(ray, [0.0, 0.0, 1.0]) == pytest.approx(1.0)
    whole = critical_cone([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert dist2_critical(whole, [0.0, 2.0, 0.0]) == pytest.approx(2.0)


def test_dist2_zero_iff_membership():
    rng = np.random.default_rng(12)
    ray = critical_cone([0.0, 0.0, 0.0], [-1.0, 1.0, 0.0])
    hyper = critical_cone([1.0, 1.0, 0.0], [-1.0, 1.0, 0.0])
    half = critical_cone([1.0, 1.0, 0.0], [0.0, 0.0, 0.0])
    for _ in range(100):
        v = rng.standard_normal(3) * 2.0
        # ray membership: v = t d, t >= 0
        d = ray.vector
        t = v @ d / (d @ d)
        on_ray = t >= 0 and np.linalg.norm(v - t * d) <= 1e-12
        assert (dist2_critical(ray, v) <= 1e-20) == on_ray
        # hyperplane membership
        in_plane = abs(hyper.vector @ v) <= 1e-12
        assert (dist2_critical(hyper, v) <= 1e-20) == in_plane
        # halfspace membership
        in_half = half.vector @ v <= 1e-12
        assert (dist2_critical(half, v) <= 1e-20) == in_half


def test_d2_indicator_examples():
    assert d2_indicator_q([2.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.3, -0.7, 2.0]) == 0.0
    value = d2_indicator_q([1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    assert value == pytest.approx(1.0)
    assert math.isinf(d2_indicator_q([0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]))


def test_quad_form_examples():
    e32 = builtin("example_3_2")
    sol = e32.known_solution
    rng = np.random.default_rng(0)
    for _ in range(5):
        w = rng.standard_normal(2)
        assert quad_form_q(e32, sol.x, sol.lam, 1.0, w) == pytest.approx(2.0 * w @ w)

    proj = builtin("projection", a=(0.0, 2.0, 0.0))
    ps = proj.known_solution
    assert quad_form_q(proj, ps.x, ps.lam, 1.0, [0.0, 0.0, 1.0]) == pytest.approx(1.5)

    trivial = builtin("interior_trivial")  # zero multiplier: first branch
    w = np.array([0.4, -0.2])
    assert quad_form_q(trivial, np.zeros(2), np.zeros(2), 3.0, w) == pytest.approx(w @ w)


def test_d2_aug_examples():
    e32 = builtin("example_3_2")
    sol = e32.known_solution
    assert d2_aug_lagrangian(e32, sol.x, sol.lam, 1.0, [1.0, 0.0]) == pytest.approx(2.0)
    assert d2_aug_lagrangian(e32, sol.x, sol.lam, 1.0, [0.0, 0.0]) == 0.0
    proj = builtin("projection", a=(0.0, 2.0, 0.0))
    ps = proj.known_solution
    assert d2_aug_lagrangian(proj, ps.x, ps.lam, 1.0, [0.0, 0.0, 1.0]) == pytest.approx(1.5)


def test_d2_positive_homogeneity_degree_two():
    rng = np.random.default_rng(15)
    for p in (builtin("example_3_2"), builtin("projection", a=(0.0, 2.0, 0.0)),
              builtin("scaled_quadratic", seed=2)):
        sol = p.known_solution
        for _ in range(20):
            w = rng.standard_normal(p.n)
            base = d2_aug_lagrangian(p, sol.x, sol.lam, 2.0, w)
            for s in (2.0, 0.5):
                scaled = d2_aug_lagrangian(p, sol.x, sol.lam, 2.0, s * w)
                assert abs(scaled - s * s * base) <= 1e-10 * max(1.0, abs(base))


def test_d2_sign_flip_only_even_for_symmetric_critical_cones():
    # degree-2 homogeneity is one-sided: with a ray-shaped critical cone
    # the distance term is not even, so s = -1 can change the value
    rng = np.random.default_rng(16)
    proj = builtin("projection", a=(0.0, 2.0, 0.0))  # hyperplane cone: even
    sol = proj.known_solution
    for _ in range(20):
        w = rng.standard_normal(proj.n)
        base = d2_aug_lagrangian(proj, sol.x, sol.lam, 2.0, w)
        flipped = d2_aug_lagrangian(proj, sol.x, sol.lam, 2.0, -w)
        assert abs(flipped - base) <= 1e-10 * max(1.0, abs(base))
    e32 = builtin("example_3_2")
    sol = e32.known_solution
    w = np.array([0.3, -1.0])  # constraint image leaves the ray
    base = d2_aug_lagrangian(e32, sol.x, sol.lam, 2.0, w)
    flipped = d2_aug_lagrangian(e32, sol.x, sol.lam, 2.0, -w)
    assert flipped != pytest.approx(base)


def test_difference_quotient_exact_on_smooth_quadratics():
    # deep inside the interior region the augmented Lagrangian is a plain
    # quadratic, so the quotient is t-independent and equals the Hessian form
    rng = np.random.default_rng(4)
    interior = generate_planted(3, 2, ConeRegion.INTERIOR_Q, seed=4)
    x = interior.known_solution.x
    H = interior.f_hess(x)
    for t in (1e-1, 1e-2, 1e-3):
        w = rng.standard_normal(3)
        quot = difference_quotient_oracle(interior, x, np.zeros(3), 1.0, w, t)
        assert quot == pytest.approx(w @ H @ w, rel=1e-6)


def test_difference_quotient_matches_d2():
    cases = [
        (builtin("example_3_2"), np.array([1.0, 0.0])),
        (builtin("projection", a=(0.0, 2.0, 0.0)), np.array([0.0, 0.0, 1.0])),
    ]
    for p, w in cases:
        sol = p.known_solution
        for rho in (1.0, 10.0):
            d2 = d2_aug_lagrangian(p, sol.x, sol.lam, rho, w)
            for t in (1e-3, 1e-4, 1e-5):
                quot = difference_quotient_oracle(p, sol.x, sol.lam, rho, w, t)
                assert abs(quot - d2) <= 10.0 * t


def test_difference_quotient_matches_d2_random_unit_directions():
    rng = np.random.default_rng(19)
    for p in (builtin("example_3_2"), builtin("projection", a=(0.0, 2.0, 0.0))):
        sol = p.known_solution
        for _ in range(10):
            w = rng.standard_normal(p.n)
            w /= np.linalg.norm(w)
            for rho in (1.0, 10.0):
                d2 = d2_aug_lagrangian(p, sol.x, sol.lam, rho, w)
                for t in (1e-3, 1e-4, 1e-5):
                    err = abs(difference_quotient_oracle(p, sol.x, sol.lam, rho, w, t) - d2)
                    assert err <= 10.0 * t


def test_quad_form_monotone_in_rho_and_lower_bound():
    rng = np.random.default_rng(6)
    for p in (builtin("projection", a=(0.0, 2.0, 0.0)), builtin("scaled_quadratic", seed=1)):
        sol = p.known_solution
        H = lagrangian_l(p, sol.x, sol.lam)[2]
        for _ in range(25):
            w = rng.standard_normal(p.n)
            r1 = float(10.0 ** rng.uniform(-1, 1))
            r2 = r1 * (1.0 + rng.random())
            q1 = quad_form_q(p, sol.x, sol.lam, r1, w)
            q2 = quad_form_q(p, sol.x, sol.lam, r2, w)
            assert q2 >= q1 - 1e-10
            assert q1 >= w @ H @ w - 1e-12
            assert (d2_aug_lagrangian(p, sol.x, sol.lam, r2, w)
                    >= d2_aug_lagrangian(p, sol.x, sol.lam, r1, w) - 1e-10)


def test_check_sosc_builtin_cases():
    e32 = builtin("example_3_2")
    sol = e32.known_solution
    report = check_sosc(e32, sol.x, sol.lam)
    assert report.holds and report.method == "ExactEigen"
    assert 1.9 <= report.modulus <= 2.1

    trivial = builtin("interior_trivial")
    report = check_sosc(trivial, np.zeros(2), np.zeros(2))
    assert report.holds and report.method == "ExactEigen"
    assert 0.99 <= report.modulus <= 1.01

    neg = negative_curvature_problem()
    report = check_sosc(neg, np.zeros(2), np.zeros(3))
    assert not report.holds
    assert report.modulus == pytest.approx(-2.0)


def test_check_sosc_rejects_non_kkt():
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    with pytest.raises(ValueError):
        check_sosc(p, np.array([5.0, 0.0, 0.0]), np.zeros(3))
    # ||x||^2 overflows: the tolerance scales by ||x||, not by inf
    with pytest.raises(ValueError, match="not a KKT pair"):
        check_sosc(p, np.array([1e200, 0.0, 0.0]), np.zeros(3))


def test_check_sosc_rejects_a_nan_gradient():
    # a NaN residual compares false against any tolerance; it must not pass
    base = builtin("projection", a=(0.0, 2.0, 0.0))
    p = dataclasses.replace(base, f_grad=lambda x: np.full(3, np.nan))
    sol = base.known_solution
    with pytest.raises(ValueError, match="not a KKT pair"):
        check_sosc(p, sol.x, sol.lam)


def test_check_sosc_rejects_a_nan_hessian():
    base = builtin("projection", a=(0.0, 2.0, 0.0))
    p = dataclasses.replace(base, f_hess=lambda x: np.full((3, 3), np.nan))
    sol = base.known_solution
    with pytest.raises(ValueError, match="Hessian of the Lagrangian has non-finite"):
        check_sosc(p, sol.x, sol.lam)


def test_check_sosc_halfspace_pieces():
    # a = (1, 1, 0) lies on the boundary of Q: zero multiplier, HalfSpace cone
    p = builtin("projection", a=(1.0, 1.0, 0.0))
    sol = p.known_solution
    assert critical_cone(p.phi_value(sol.x), sol.lam).case is CriticalConeCase.HALF_SPACE
    report = check_sosc(p, sol.x, sol.lam)
    assert report.holds and report.method == "ExactEigen"
    assert report.modulus == pytest.approx(1.0)
    assert report.certificate_detail.startswith("HalfSpace: ")


def test_check_sosc_vertex_sampled_cases():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    good = vertex_problem(A, sign=1.0, name="vertex_psd")
    report = check_sosc(good, np.zeros(2), np.zeros(3))
    assert report.method == "SampledPenalty"
    assert report.holds and report.modulus > 0.9

    bad = vertex_problem(np.array([[1.0, 0.0], [0.0, 0.0]]), sign=-1.0, name="vertex_neg")
    report = check_sosc(bad, np.zeros(2), np.zeros(2))
    assert report.method == "SampledPenalty"
    assert not report.holds
    assert report.modulus <= 0.0


def test_check_sosc_planted_problems():
    for region in (ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO):
        p = generate_planted(4, 2, region, seed=8)
        sol = p.known_solution
        report = check_sosc(p, sol.x, sol.lam)
        assert report.holds
        assert report.modulus > 0.5  # P = R'R + I gives at least unit curvature


# (scale, region, seed) of the curved (20, 10) pairs, seeds 0-5 at scales
# 0.5, 2 and 8, at which the sufficiency condition fails
CURVED_FAILS = {(2.0, ConeRegion.BOUNDARY_Q_NONZERO, 3), (8.0, ConeRegion.BOUNDARY_Q_NONZERO, 3),
                (8.0, ConeRegion.BOUNDARY_Q_NONZERO, 5), (8.0, ConeRegion.ZERO, 3),
                (8.0, ConeRegion.ZERO, 5)}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("region", [ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO,
                                    ConeRegion.ZERO], ids=lambda r: r.value)
@pytest.mark.parametrize("scale", [0.5, 2.0, 8.0])
def test_second_order_moduli_of_a_curved_pair_agree(scale, region, seed):
    """As the curved family's scale grows, its <lam, Hess Phi> term turns the
    sufficiency condition off at some planted pairs.  Where `check_sosc`
    holds, growth turns positive at one of rho = 1, 10, 100, 1e4 and the
    solvability modulus at rho = 10 is finite; where it fails, growth is
    positive at none of them and solvability is NaN.  At rho = 10 and a unit
    w, d2_aug_lagrangian agrees with the difference quotient at t = 1e-4
    to 1e-3 relative."""
    p = curved_problem(20, 10, region, seed, scale=scale)
    sol = p.known_solution
    holds = (scale, region, seed) not in CURVED_FAILS
    assert check_sosc(p, sol.x, sol.lam).holds is holds
    assert certify_growth(p, [1.0, 10.0, 100.0, 1e4]).uniform is holds
    assert math.isfinite(solvability_estimate(p, 10.0)) is holds
    w = np.random.default_rng(seed).standard_normal(p.n)
    w /= np.linalg.norm(w)
    d2 = d2_aug_lagrangian(p, sol.x, sol.lam, 10.0, w)
    assert difference_quotient_oracle(p, sol.x, sol.lam, 10.0, w, 1e-4) == pytest.approx(
        d2, rel=1e-3)


def _span_case_pair(case, P, A, rng):
    """(problem, lam) with Phi(x) = A x + b and the KKT pair (0, lam) in
    critical cone `case`: b and lam are placed in the regions of the case
    split, and q = -A'lam makes the Lagrangian's gradient vanish at 0."""
    m1 = A.shape[0]
    u = rng.standard_normal(m1 - 1)
    u /= np.linalg.norm(u)
    r, t = rng.uniform(0.5, 2.0, size=2)
    zero = np.zeros(m1)
    b, lam = {
        "FullSpace": (np.r_[2.0 * r, r * u], zero),
        "HalfSpace": (np.r_[r, r * u], zero),
        "Hyperplane": (np.r_[r, r * u], t * np.r_[-1.0, u]),
        "ZeroOnly": (zero, t * np.r_[-2.0, u]),
        "Ray": (zero, t * np.r_[-1.0, u]),
        "WholeConeQ": (zero, zero),
    }[case]
    return quadratic_problem(P, -A.T @ lam, 0.0, A, b), lam


SPAN_CASES = ["FullSpace", "HalfSpace", "Hyperplane", "ZeroOnly", "Ray"]


def _min_eig(S, basis):
    """Smallest eigenvalue of basis' S basis, symmetrized as `check_sosc` does."""
    reduced = basis.T @ S @ basis
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])


@settings(max_examples=200)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), m=st.integers(1, 4),
       case=st.sampled_from(SPAN_CASES))
def test_sosc_modulus_is_attained_on_the_critical_cone(seed, n, m, case):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    A = rng.standard_normal((m + 1, n))
    p, lam = _span_case_pair(case, R + R.T, A, rng)
    x = np.zeros(n)
    K = critical_cone(p.phi_value(x), lam)
    assert K.case.value == case
    report = check_sosc(p, x, lam)
    assert report.method == "ExactEigen" and report.holds == (report.modulus > 1e-8)
    # the rho = inf form of the penalty split, on ker B = span of the cone
    S, B = _penalty_split(K, p.f_hess(x), A, math.inf)
    basis = np.eye(n) if B is None else null_space(B)
    if basis.shape[1] == 0:
        assert report.modulus == math.inf
        return
    assert report.modulus == pytest.approx(_min_eig(S, basis), rel=1e-12)
    if case == "Hyperplane":
        # the indicator's curvature (||v_r||^2 - v_0^2) ||lam|| / ||Phi||
        # at v = Aw agrees with the tangential form on ker B to rounding
        phi = p.phi_value(x)
        curv = np.linalg.norm(lam) / np.linalg.norm(phi)
        S_sign = p.f_hess(x) + curv * (A.T @ (np.r_[-1.0, np.ones(m)][:, None] * A))
        scale = max(1.0, float(np.linalg.norm(S, 2)))
        assert abs(_min_eig(S_sign, basis) - report.modulus) <= 1e-12 * scale
    if case in ("HalfSpace", "Ray"):
        # the halfspace's boundary and the ray's origin are subspaces of the span
        piece = null_space((A.T @ K.vector)[None]) if case == "HalfSpace" else null_space(A)
        if piece.shape[1] > 0:
            piece_min = _min_eig(S, piece)
            assert report.modulus <= piece_min + 1e-12 * max(1.0, abs(piece_min))
    # the bottom eigenvector, up to sign, is a witness in the critical cone
    reduced = basis.T @ S @ basis
    w = basis @ np.linalg.eigh(0.5 * (reduced + reduced.T))[1][:, 0]
    v = A @ w
    assert (min(dist2_critical(K, v), dist2_critical(K, -v))
            <= 1e-12 * max(1.0, float(v @ v)))
    scale = max(1.0, float(np.linalg.norm(S, 2)))
    assert abs(w @ S @ w / (w @ w) - report.modulus) <= 1e-12 * scale


@settings(max_examples=100)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), m=st.integers(1, 4),
       case=st.sampled_from(["FullSpace", "HalfSpace", "ZeroOnly", "Ray", "WholeConeQ"]),
       log_c=st.floats(-3.0, 3.0))
def test_sosc_modulus_scales_with_the_hessian_without_cone_curvature(seed, n, m, case,
                                                                       log_c):
    """H -> cH scales the modulus by c, and J -> cJ, which leaves the
    critical cone's span (or, on the whole cone, {w : Jw in Q or -Q}) as it
    is, leaves the verdict unchanged."""
    c = 10.0 ** log_c
    R = np.random.default_rng(seed).standard_normal((n, n))
    A = np.random.default_rng(seed + 1).standard_normal((m + 1, n))
    reports = []
    for P, J in ((R + R.T, A), (c * (R + R.T), A), (R + R.T, c * A)):
        p, lam = _span_case_pair(case, P, J, np.random.default_rng(seed + 2))
        reports.append(check_sosc(p, np.zeros(n), lam))
    moduli = [r.modulus for r in reports]
    if math.isinf(moduli[0]):
        assert moduli[1] == math.inf
    else:
        scale = c * max(1.0, float(np.linalg.norm(R + R.T, 2)))
        assert abs(moduli[1] - c * moduli[0]) <= 1e-12 * scale
    assert reports[2].holds == reports[0].holds


def test_check_sosc_rejects_an_overflowing_form():
    # finite data whose Hyperplane curvature term, the tangential part of
    # J'J, overflows
    A = 1e155 * np.eye(3)
    lam = np.array([-1.0, 1.0, 0.0])
    p = quadratic_problem(np.eye(3), -A.T @ lam, 0.0, A, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="growth form has non-finite entries"):
        check_sosc(p, np.zeros(3), lam)


def test_an_overflowing_lagrangian_hessian_forms_without_a_warning():
    """Finite Hessian oracles whose sum overflows (1.5e308 I twice): every
    certificate entry point raises its ValueError, and the two Lagrangian
    Hessians come back non-finite, with no floating-point warning (an
    error under the suite's warnings filter)."""
    base = builtin("example_3_2")
    huge = 1.5e308 * np.eye(2)
    p = dataclasses.replace(base, f_hess=lambda x: huge, phi_hess_contract=lambda x, lam: huge)
    sol, w = p.known_solution, np.ones(2)
    for call in (lambda: solvability_estimate(p, 10.0), lambda: certify_growth(p, [10.0]),
                 lambda: check_sosc(p, sol.x, sol.lam),
                 lambda: quad_form_q(p, sol.x, sol.lam, 10.0, w),
                 lambda: d2_aug_lagrangian(p, sol.x, sol.lam, 10.0, w)):
        with pytest.raises(ValueError, match="Hessian of the Lagrangian has non-finite"):
            call()
    for H in (lagrangian_l(p, sol.x, sol.lam)[2], aug_hessian(p, sol.x, sol.lam, 10.0)):
        assert H.shape == (2, 2) and not np.isfinite(H).all()


# The growth modulus ell(rho) = 0.5 min_{|w| = 1} d2_aug_lagrangian(w).

GROWTH_RHOS = [10.0 ** k for k in range(0, 15, 2)] + [1e300]
GROWTH_KINDS = [(n, m, region) for n, m in ((3, 2), (4, 4), (20, 10))
                for region in (ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO,
                               ConeRegion.ZERO)] + ["example_3_2", "whole_cone"]


def _growth_instance(kind, seed):
    """(problem, x, lam): a KKT pair of the kind."""
    rng = np.random.default_rng(seed)
    if kind == "example_3_2":  # a point of the multiplier ray, 0 (the whole cone) included
        p = builtin("example_3_2")
        return p, p.known_solution.x, rng.choice([0.0, rng.uniform(0.1, 3.0)]) * p.multiplier_ray
    if kind == "whole_cone":  # Phi(xbar) = 0, lam = 0 and an indefinite Hessian
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        R = rng.standard_normal((n, n))
        P = R + R.T + rng.uniform(-1.0, 3.0) * np.eye(n)
        A, x = rng.standard_normal((m + 1, n)), rng.standard_normal(n)
        return quadratic_problem(P, -P @ x, 0.0, A, -A @ x), x, np.zeros(m + 1)
    p = generate_planted(*kind, seed)
    return p, p.known_solution.x, p.known_solution.lam


@settings(max_examples=80)
@given(seed=st.integers(0, 2**20), kind=st.sampled_from(GROWTH_KINDS))
def test_growth_modulus_is_exact_and_nondecreasing(seed, kind):
    """ell bounds half of d2 at sampled unit w, its unit w attains it (w or
    -w), it does not decrease in rho and at rho = 1e300 it is half the
    exact SOSC modulus; P = R'R + I gives ell >= 1/2.  The value alone
    (vector=False, from eigvalsh) agrees with it to rounding."""
    p, x, lam = _growth_instance(kind, seed)
    [(H, J, K)] = _kkt_data(p, x, [lam])
    rng = np.random.default_rng(seed + 1)
    ells = []
    for rho in GROWTH_RHOS:
        ell, w = _growth_pair(H, J, K, rho)
        ells.append(ell)
        tol = 1e-12 * (np.linalg.norm(H) + rho * np.linalg.norm(J) ** 2)
        assert abs(_growth_pair(H, J, K, rho, vector=False)[0] - ell) <= tol
        for v in rng.standard_normal((10, p.n)):
            v /= np.linalg.norm(v)
            assert ell <= 0.5 * d2_aug_lagrangian(p, x, lam, rho, v) + tol
        if rho <= 1e14:  # beyond, rho times the rounding of Jw swamps d2
            attained = 0.5 * min(d2_aug_lagrangian(p, x, lam, rho, s * w) for s in (1.0, -1.0))
            assert abs(attained - ell) <= 1e-9 * max(1.0, abs(ell))
        if isinstance(kind, tuple):
            assert ell >= 0.5 - 1e-12
    scale = 1e-12 * max(1.0, float(np.linalg.norm(H)))
    assert all(b >= a - scale * max(1.0, abs(a)) for a, b in zip(ells, ells[1:]))
    report = check_sosc(p, x, lam)
    if math.isfinite(report.modulus):
        assert abs(ells[-1] - 0.5 * report.modulus) <= 1e-9 * max(1.0, abs(report.modulus))


def test_growth_modulus_on_the_whole_cone_in_closed_form():
    """H = diag(-1, 3) and Jw = (w1, w0, 0), which maps the negative axis
    outside Q and -Q: G(b) = diag(-1 + b/(1 + 2b/rho), 3 - b), whose two
    eigenvalues cross at the maximum, b = sqrt(29) - 3 at rho = 10.  The
    modulus rises from below lambda_min(H)/2 = -1/2 at small rho to the
    S-lemma value max_b lambda_min(H + b diag(1, -1))/2 = 1/2."""
    H = np.diag([-1.0, 3.0])
    J = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    K = CriticalCone(CriticalConeCase.WHOLE_CONE_Q, None, np.zeros(3), np.zeros(3))
    ells = [_growth_pair(H, J, K, rho)[0] for rho in (1e-3, 10.0, 1e300)]
    assert -0.5 < ells[0] < 0.0
    assert ells[1] == pytest.approx(0.5 * (6.0 - math.sqrt(29.0)), rel=1e-12)
    assert ells[2] == pytest.approx(0.5, rel=1e-12)


def test_growth_modulus_pins():
    """Planted (20,10) Zero seed 1 at rho = 10 is 0.5 lambda_min(P + 10 A'A);
    example_3_2, uniformly over its multiplier ray, is 0.5."""
    p = generate_planted(20, 10, ConeRegion.ZERO, 1)
    sol = p.known_solution
    A, P = p.phi_jac(sol.x), p.f_hess(sol.x)
    rep = certify_growth(p, [10.0])
    assert rep.ell_hat == pytest.approx(1.578867051780, rel=1e-9)
    assert rep.ell_hat == pytest.approx(0.5 * np.linalg.eigvalsh(P + 10.0 * A.T @ A)[0], rel=1e-12)
    assert certify_growth(builtin("example_3_2"), [1.0]).ell_hat == pytest.approx(0.5, rel=1e-14)


def _whole_cone_pair(rng, n, m, shift):
    """(problem, x, 0): a quadratic with Phi(x) = 0 at a random x, so that
    the critical cone at the zero multiplier is the whole cone Q."""
    R = rng.standard_normal((n, n))
    P = R.T @ R + shift * np.eye(n)
    A, x = rng.standard_normal((m + 1, n)), rng.standard_normal(n)
    return quadratic_problem(P, -P @ x, 0.0, A, -A @ x), x, np.zeros(m + 1)


@settings(max_examples=80)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), m=st.integers(1, 4),
       shift=st.floats(-4.0, 1.0))
def test_whole_cone_sosc_bounds_every_penalty_and_the_cone(seed, n, m, shift):
    """The whole-cone modulus is the minimum of w'Hw over unit w with Jw in
    Q or -Q (w'Mw <= 0, M = Jr'Jr - J0 J0'): the exact penalized minimum
    at a finite rho lies below it, and no sampled w of that set goes below."""
    rng = np.random.default_rng(seed)
    p, x, lam = _whole_cone_pair(rng, n, m, shift)
    report = check_sosc(p, x, lam)
    [(H, J, K)] = _kkt_data(p, x, [lam])
    assert K.case is CriticalConeCase.WHOLE_CONE_Q
    assert report.method == "SampledPenalty"
    assert report.holds == (report.modulus > TOL)
    for rho in (1.0, 128.0, 1e6):
        tol = 1e-12 * (np.linalg.norm(H) + rho * np.linalg.norm(J) ** 2)
        assert 2.0 * _growth_pair(H, J, K, rho)[0] <= report.modulus + tol
    tol = 1e-12 * max(1.0, float(np.linalg.norm(H)))
    for w in rng.standard_normal((200, n)):
        w /= np.linalg.norm(w)
        v = J @ w
        if v[1:] @ v[1:] <= v[0] ** 2:
            assert w @ H @ w >= report.modulus - tol


def _whole_cone_problem(P, A):
    """The quadratic 0.5 x'Px with Phi(x) = Ax: at x = 0, lam = 0 the
    critical cone is the whole cone Q."""
    A = np.asarray(A, dtype=float)
    return quadratic_problem(P, np.zeros(A.shape[1]), 0.0, A, np.zeros(A.shape[0]))


H_BRANCH = np.array([[2.0, 1.0], [1.0, -3.0]])


@pytest.mark.parametrize("P, A, modulus", [
    # M = I: no w != 0 has Jw in Q or -Q, so the condition holds vacuously
    (-1000.0 * np.eye(2), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], math.inf),
    # M = 0: Jw = w0 (1, 1, 0) lies on the boundary of Q or -Q for every w
    (H_BRANCH, [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]], np.linalg.eigvalsh(H_BRANCH)[0]),
    # M = diag(1, 0): Jw lies in Q or -Q only on ker M = span(e2)
    (H_BRANCH, [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], -3.0),
    # M = diag(1, -1): the closed form of the growth modulus at rho = inf
    (np.diag([-1.0, 3.0]), [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]], 1.0),
], ids=["definite", "zero", "semidefinite", "indefinite"])
def test_whole_cone_sosc_on_each_branch_of_m(P, A, modulus):
    report = check_sosc(_whole_cone_problem(P, A), np.zeros(2), np.zeros(3))
    assert report.method == "SampledPenalty"
    assert report.modulus == pytest.approx(modulus, rel=1e-12)
    assert report.holds == (modulus > TOL)


def test_bottom_pair_at_an_infinite_penalty():
    """B = 0 leaves H0 unpenalized at any rho, rho = inf included; at
    rho = inf a trivial ker B leaves no direction, so the minimum is +inf."""
    H0 = np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 0.5], [0.0, 0.5, 1.0]])
    vals, vecs = np.linalg.eigh(H0)
    for rho in (1.0, math.inf):
        val, w = _bottom_pair(H0, np.zeros((2, 3)), rho)
        assert val == pytest.approx(vals[0], rel=1e-12)
        assert abs(w @ vecs[:, 0]) == pytest.approx(1.0, rel=1e-12)
    val, w = _bottom_pair(H0, np.eye(3), math.inf)
    assert val == math.inf and np.linalg.norm(w) == pytest.approx(1.0)


def test_whole_cone_sosc_where_the_sphere_search_stopped_short():
    """Planted (20,10) whole-cone quadratic with P = R'R - 2I: SOSC fails,
    with modulus -1.580140214925 at rho = inf.  The exact penalized minimum
    at rho = 128, where a penalty sweep stopped, is -1.58077026187, which a
    witness attains; a 64-start sphere search capped at 200 moves had
    reported -1.5625 there."""
    p, x, lam = _whole_cone_pair(np.random.default_rng(4), 20, 10, -2.0)
    report = check_sosc(p, x, lam)
    assert (report.holds, report.method) == (False, "SampledPenalty")
    assert report.modulus == pytest.approx(-1.580140214925, rel=1e-11)
    [(H, J, K)] = _kkt_data(p, x, [lam])
    ell, w = _growth_pair(H, J, K, 128.0)
    assert 2.0 * ell == pytest.approx(-1.58077026187, rel=1e-11)
    attained = min(d2_aug_lagrangian(p, x, lam, 128.0, s * w) for s in (1.0, -1.0))
    assert attained == pytest.approx(2.0 * ell, rel=1e-9)


def test_dual_qualification_cases():
    e32 = builtin("example_3_2")
    sol = e32.known_solution
    holds, witness = check_dual_qualification(e32, sol.x, sol.lam)
    assert not holds
    direction = np.array([-1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert abs(float(witness @ direction)) >= 0.999

    trivial = builtin("interior_trivial")
    holds, witness = check_dual_qualification(trivial, np.zeros(2), np.zeros(2))
    assert holds and witness is None

    full_rank_vertex = generate_planted(4, 2, ConeRegion.ZERO, seed=3)
    sol = full_rank_vertex.known_solution
    holds, witness = check_dual_qualification(full_rank_vertex, sol.x, sol.lam)
    assert holds and witness is None

    boundary = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=5)
    sol = boundary.known_solution
    holds, _ = check_dual_qualification(boundary, sol.x, sol.lam)
    assert holds


def test_dual_qualification_hyperplane_with_a_nontrivial_kernel():
    # n = 1 < m + 1 leaves ker J' two-dimensional, so the polar span{u}
    # of the hyperplane cone is tested against it
    p = generate_planted(1, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=0)
    sol = p.known_solution
    assert (critical_cone(p.phi_value(sol.x), sol.lam).case
            is CriticalConeCase.HYPERPLANE)
    assert check_dual_qualification(p, sol.x, sol.lam) == (True, None)

    # J'lam = 0: the multiplier direction itself lies in ker J'
    p = quadratic_problem([[1.0]], [0.0], 0.0, [[1.0], [1.0], [0.0]], [1.0, 1.0, 0.0])
    lam = np.array([-1.0, 1.0, 0.0])
    assert critical_cone(p.phi_value(np.zeros(1)), lam).case is CriticalConeCase.HYPERPLANE
    holds, witness = check_dual_qualification(p, np.zeros(1), lam)
    assert not holds
    assert_allclose(witness, lam / np.linalg.norm(lam))


def test_dual_qualification_ray_whose_kernel_lies_in_the_boundary_hyperplane():
    # Phi(x) = (x1, x2, 0): ker J' is the third axis, orthogonal to the
    # ray direction (1, 1, 0) of the vertex pair with lam = (-1, 1, 0)
    p = quadratic_problem(np.eye(2), [1.0, -1.0], 0.0, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                          np.zeros(3))
    lam = np.array([-1.0, 1.0, 0.0])
    assert critical_cone(p.phi_value(np.zeros(2)), lam).case is CriticalConeCase.RAY
    holds, witness = check_dual_qualification(p, np.zeros(2), lam)
    assert not holds
    assert_allclose(np.abs(witness), [0.0, 0.0, 1.0])


def test_dual_qualification_rank_deficient_vertex():
    # n < m+1 forces a nontrivial kernel; with an interior multiplier the
    # polar is the whole space and the condition must fail
    p = generate_planted(2, 3, ConeRegion.ZERO, seed=6)
    sol = p.known_solution
    holds, witness = check_dual_qualification(p, sol.x, sol.lam)
    assert not holds
    assert witness is not None
    J = p.phi_jac(sol.x)
    assert np.linalg.norm(J.T @ witness) <= 1e-8



@settings(max_examples=100)
@given(seed=st.integers(0, 2**20), rows=st.integers(1, 12), cols=st.integers(1, 12),
       rank=st.integers(0, 12), log_scale=st.floats(-100.0, 100.0))
def test_rank_from_singular_values_alone_is_the_kernel_splits(seed, rows, cols, rank, log_scale):
    """numpy's `matrix_rank`, which dualqual reads before any basis, counts
    the rank of the full SVD's `_kernel_split` on products of Gaussian
    factors of every rank and scale, so a trivial kernel is decided
    without forming the n x n left vectors."""
    rng = np.random.default_rng(seed)
    k = min(rank, rows, cols)
    B = 10.0 ** log_scale * rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
    kernel, basis, _ = _kernel_split(B)
    assert np.linalg.matrix_rank(B) == basis.shape[1] == cols - kernel.shape[1]
    assert np.linalg.matrix_rank(B.T) == _kernel_split(B.T)[1].shape[1]


def test_dual_qualification_and_calmness_share_the_kernel_threshold():
    # ||J'lam|| = 5e-7 lies below TOL max(1, ||J||) ||lam|| = 2.4e-6, the
    # threshold by which dualqual returns lam/||lam|| as a witness in
    # ker J'; calmness decides J'lam = 0 and grad f = 0 against the same one
    lam = 10.0 * np.array([-1.0, 1.0, 0.0])
    A = np.array([[10.0, 0.0], [10.0 + 5e-8, 0.0], [0.0, 10.0]])
    p = quadratic_problem(np.eye(2), -A.T @ lam, 0.0, A, np.zeros(3))
    x = np.zeros(2)
    holds, witness = check_dual_qualification(p, x, lam)
    assert not holds
    assert_allclose(witness, lam / np.linalg.norm(lam))
    assert multiplier_calmness(p, x, lam, holds) == "unknown"


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_dual_qualification_witness_is_a_unit_vector_at_any_scale(scale):
    """At a vertex with J'lam = 0 the witness is lam/||lam||.  At lam =
    1e200 (-1, 1, 0) the square of ||lam|| overflows; `_norm` scales it, so
    the witness is the unit vector of scale 1, where numpy's norm gave inf
    and the witness (-0, 0, 0)."""
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    lam = scale * np.array([-1.0, 1.0, 0.0])
    p = quadratic_problem(np.eye(2), np.zeros(2), 0.0, A, np.zeros(3))
    holds, witness = check_dual_qualification(p, np.zeros(2), lam)
    assert not holds
    assert_allclose(witness, np.array([-1.0, 1.0, 0.0]) / math.sqrt(2.0), rtol=1e-15)
    assert multiplier_calmness(p, np.zeros(2), lam, holds) == "unknown"


def test_kernel_tolerance_scales_a_jacobian_whose_square_overflows():
    """||J||_F = sqrt(2) 1e160 is finite though its square is not, so the
    kernel threshold is TOL 2e160 for a v of norm sqrt(2); a J whose norm
    itself passes the largest float raises (`_finite_norm`).  Its callers
    ignore the overflow warning of the square, as here."""
    J = np.array([[1e160, 0.0], [0.0, 0.0], [1e160, 0.0]])
    with np.errstate(over="ignore"):
        tol = _kernel_tol(J, np.array([-1.0, 1.0, 0.0]))
        with pytest.raises(NonFiniteError, match="JPhi"):
            _kernel_tol(np.full((3, 2), 1e308), np.ones(3))
    assert math.isclose(tol, TOL * 2e160, rel_tol=1e-15)


def test_multiplier_calmness_classification():
    e32 = builtin("example_3_2")
    sol = e32.known_solution
    holds, _ = check_dual_qualification(e32, sol.x, sol.lam)
    assert multiplier_calmness(e32, sol.x, sol.lam, holds) == "unknown"

    trivial = builtin("interior_trivial")
    assert multiplier_calmness(trivial, np.zeros(2), np.zeros(2), True) == "calm"

    boundary = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=5)
    sol = boundary.known_solution
    assert multiplier_calmness(boundary, sol.x, sol.lam, True) == "calm"

    vertex = generate_planted(4, 2, ConeRegion.ZERO, seed=3)
    sol = vertex.known_solution  # strict complementarity: interior multiplier
    assert multiplier_calmness(vertex, sol.x, sol.lam, False) == "calm"


def _ray_pair(kernel):
    """Vertex KKT pair (0, lam) of a quadratic with a boundary multiplier
    lam of -Q, so the critical cone is a ray; with `kernel` J' lam = 0 and
    grad f(0) = 0, so every point of the ray R_+ lam is a multiplier."""
    lam = np.array([-1.0, 0.6, 0.8])
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    if kernel:
        A = A - np.outer(lam, lam @ A) / (lam @ lam)
    return quadratic_problem(np.eye(2), -A.T @ lam, 0.0, A, np.zeros(3)), np.zeros(2), lam


def _calmness_case(case):
    """(problem, x, lam) whose critical cone is `case`."""
    if case == "RayWholeRay":
        return _ray_pair(kernel=True)
    if case == "Ray":
        return _ray_pair(kernel=False)
    phi, lam = {
        "FullSpace": ([2.0, 1.0, 0.0], [0.0, 0.0, 0.0]),
        "Hyperplane": ([1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]),
        "HalfSpace": ([1.0, 1.0, 0.0], [0.0, 0.0, 0.0]),
        "ZeroOnly": ([0.0, 0.0, 0.0], [-2.0, 1.0, 0.0]),
        "WholeConeQ": ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    }[case]
    return constant_phi_problem(phi), np.zeros(2), np.array(lam)


@pytest.mark.parametrize("case, duq_holds, expected", [
    ("FullSpace", True, "calm"), ("FullSpace", False, "calm"),
    ("Hyperplane", True, "calm"), ("Hyperplane", False, "calm"),
    ("HalfSpace", True, "calm"), ("HalfSpace", False, "calm"),
    ("ZeroOnly", True, "calm"), ("ZeroOnly", False, "calm"),
    ("Ray", True, "calm"), ("Ray", False, "not_calm"),
    ("RayWholeRay", True, "calm"), ("RayWholeRay", False, "unknown"),
    ("WholeConeQ", True, "calm"), ("WholeConeQ", False, "unknown"),
])
def test_multiplier_calmness_over_the_critical_cone_cases(case, duq_holds, expected):
    p, x, lam = _calmness_case(case)
    assert critical_cone(p.phi_value(x), lam).case.value == case.replace("WholeRay", "")
    assert multiplier_calmness(p, x, lam, duq_holds) == expected


@pytest.mark.parametrize("duq_holds", [True, False])
def test_multiplier_outside_the_normal_cone_raises(duq_holds):
    # Phi(0) = 0 is the vertex, whose normal cone is -Q; (1, 0, 0) lies in Q
    p = builtin("projection")
    x, lam = np.zeros(3), np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not a KKT pair"):
        multiplier_calmness(p, x, lam, duq_holds)
    with pytest.raises(ValueError, match="not a KKT pair"):
        quad_form_q(p, x, lam, 1.0, np.array([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("oracle, shape", [("f_grad", (2,)), ("phi_jac", (3, 2))])
def test_multiplier_calmness_rejects_a_nan_oracle(oracle, shape):
    # example_3_2 is a Ray whose whole ray consists of multipliers ('unknown');
    # a NaN gradient gives a NaN KKT residual, which no tolerance accepts
    base = builtin("example_3_2")
    p = dataclasses.replace(base, **{oracle: lambda x: np.full(shape, np.nan)})
    sol = base.known_solution
    assert multiplier_calmness(base, sol.x, sol.lam, False) == "unknown"
    message = "not a KKT pair" if oracle == "f_grad" else "phi_jac has non-finite"
    with pytest.raises(ValueError, match=message):
        multiplier_calmness(p, sol.x, sol.lam, False)


# projection's a = (0, 2, 0): KKT residual 5.1 at the first pair, and a
# multiplier in the normal cone with grad_x L = (-1, 1, 0) at the second
@pytest.mark.parametrize("x, lam", [([5.0, 1.0, 0.0], [0.0, 0.0, 0.0]),
                                    ([1.0, 1.0, 0.0], [-2.0, 2.0, 0.0])])
@pytest.mark.parametrize("fn", [
    lambda p, x, lam: check_dual_qualification(p, x, lam),
    lambda p, x, lam: multiplier_calmness(p, x, lam, True),
    lambda p, x, lam: quad_form_q(p, x, lam, 1.0, np.ones(3)),
    lambda p, x, lam: d2_aug_lagrangian(p, x, lam, 1.0, np.ones(3)),
], ids=["check_dual_qualification", "multiplier_calmness", "quad_form_q", "d2_aug_lagrangian"])
def test_pair_readers_reject_a_pair_that_is_not_kkt(fn, x, lam):
    with pytest.raises(ValueError, match="not a KKT pair"):
        fn(builtin("projection"), np.array(x), np.array(lam))


def _pairs_for_counting():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    e32 = builtin("example_3_2")
    proj = builtin("projection", a=(0.0, 2.0, 0.0))
    boundary = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=5)
    yield e32, e32.known_solution.x, e32.known_solution.lam
    yield proj, proj.known_solution.x, proj.known_solution.lam
    yield boundary, boundary.known_solution.x, boundary.known_solution.lam
    yield vertex_problem(A), np.zeros(2), np.zeros(3)


@pytest.mark.parametrize("fn", [
    lambda p, x, lam: check_sosc(p, x, lam),
    lambda p, x, lam: d2_aug_lagrangian(p, x, lam, 2.0, np.ones(p.n)),
    lambda p, x, lam: quad_form_q(p, x, lam, 2.0, np.ones(p.n)),
    lambda p, x, lam: check_dual_qualification(p, x, lam),
], ids=["check_sosc", "d2_aug_lagrangian", "quad_form_q", "check_dual_qualification"])
def test_one_constraint_evaluation_per_call(fn):
    for p, x, lam in _pairs_for_counting():
        p, calls = counted(p)
        fn(p, x, lam)
        assert calls["phi_value"] <= 1 and calls["phi_jac"] <= 1, (p.name, dict(calls))


def test_dual_qualification_and_calmness_call_no_hessian_oracle():
    """Neither reads a Hessian: the one KKT-checked pair they share calls
    f_grad, phi_value and phi_jac once each, and f_hess and
    phi_hess_contract never."""
    for p, x, lam in _pairs_for_counting():
        p, calls = counted(p)
        pair = _kkt_pairs(p, x, [lam])
        holds, _ = check_dual_qualification(p, x, lam, pair)
        multiplier_calmness(p, x, lam, holds, pair)
        assert calls == {"f_grad": 1, "phi_value": 1, "phi_jac": 1}, (p.name, dict(calls))
        p, calls = counted(p)
        multiplier_calmness(p, x, lam, check_dual_qualification(p, x, lam)[0])
        assert calls == {"f_grad": 2, "phi_value": 2, "phi_jac": 2}, (p.name, dict(calls))


def test_dual_qualification_whole_cone_regression():
    """ker A' meets -Q outside 0 at this vertex, by a margin
    (lambda_min = -7.4e-3) that a sampled search of the kernel sphere
    with 32 starts misses at most seeds."""
    rng = np.random.default_rng(2)
    for trial in range(68):
        n = int(rng.integers(1, 5))
        m1 = int(rng.integers(n + 1, n + 5))
        A = rng.standard_normal((m1, n))
        if trial % 3 == 0:
            A[0] *= 0.1
    assert (n, m1) == (4, 7)
    p = quadratic_problem(np.eye(n), np.zeros(n), 0.0, A, np.zeros(m1))
    holds, witness = check_dual_qualification(p, np.zeros(n), np.zeros(m1))
    assert not holds
    assert np.linalg.norm(A.T @ witness) <= 1e-12
    assert witness[0] <= -0.7
    assert np.linalg.norm(witness[1:]) <= -witness[0]
    assert abs(np.linalg.norm(witness) - 1.0) <= 1e-15


@settings(max_examples=150)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 5), m1=st.integers(2, 8),
       ray=st.booleans(), log_scale=st.floats(-3.0, 3.0))
def test_dual_qualification_witness_and_scale_invariance(seed, n, m1, ray, log_scale):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m1, n))
    lam = np.zeros(m1)
    if ray:  # a boundary multiplier of -Q: the critical cone is a ray
        u = rng.standard_normal(m1 - 1)
        lam = rng.uniform(0.5, 2.0) * np.r_[-1.0, u / np.linalg.norm(u)]
    verdicts = []
    for scale in (1.0, 10.0 ** log_scale):
        # q = -J'lam makes (0, lam) stationary, so that it is a KKT pair
        p = quadratic_problem(np.eye(n), -scale * A.T @ lam, 0.0, scale * A, np.zeros(m1))
        holds, witness = check_dual_qualification(p, np.zeros(n), lam)
        verdicts.append(holds)
        if holds:
            assert witness is None
            continue
        assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12
        assert np.linalg.norm(A.T @ witness) <= 1e-10 * np.linalg.norm(A)
        if ray:  # polar of the ray R_+ tilde(lam): the halfspace tilde(lam)'v <= 0
            assert np.r_[-lam[0], lam[1:]] @ witness <= 1e-10
        else:  # polar of Q is -Q
            assert np.linalg.norm(witness[1:]) + witness[0] <= 1e-8
    assert verdicts[0] == verdicts[1]
