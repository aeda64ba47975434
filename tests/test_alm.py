"""ALM driver: inner solves, multiplier updates, the outer loop and its
trace invariants."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from socalm import (AlmConfig, AlmStatus, ConeRegion, InnerFailure, NonFiniteError, Proportional,
                    SocpProblem, builtin, generate_planted, inner_solve, solve, update_multiplier)
from socalm import alm
from socalm.cone import _norm, classify, project_q
from socalm.diagnostics import dist_to_multiplier_set
from socalm.lagrangian import AugEval, aug_hessian, aug_lagrangian, lagrangian_l, residual
from socalm.model import _read_only, quadratic_problem

from _util import (BAD_PENALTIES, BAD_TOLERANCES, CONE_VECTOR, MULTIPLIER, PRIMAL, counted,
                   curved_problem, fresh_twin, nan_at, rejected, rewritten_twin, writeable_twin)


def perturbed_start(p, scale, seed):
    rng = np.random.default_rng(seed)
    step = rng.standard_normal(p.n + p.m + 1)
    step *= scale / np.linalg.norm(step)
    sol = p.known_solution
    return sol.x + step[:p.n], sol.lam + step[p.n:]


def test_inner_solve_zero_iterations_at_stationary_point():
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    sol = p.known_solution
    x, grad_norm, iters = inner_solve(p, sol.lam, 5.0, sol.x, 1e-10)
    assert iters == 0
    assert grad_norm <= 1e-10
    assert_allclose(x, sol.x)


def test_inner_solve_projection_subproblem():
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    x, grad_norm, _ = inner_solve(p, np.zeros(3), 10.0, np.zeros(3), 1e-8)
    assert grad_norm <= 1e-8
    ev = aug_lagrangian(p, x, np.zeros(3), 10.0)
    assert np.linalg.norm(ev.grad_x) <= 1e-8


def test_inner_solve_quadratic_interior_single_newton_step():
    p = generate_planted(3, 2, ConeRegion.INTERIOR_Q, seed=1)
    rng = np.random.default_rng(0)
    start = p.known_solution.x + 0.05 * rng.standard_normal(3)
    x, grad_norm, iters = inner_solve(p, np.zeros(3), 1.0, start, 1e-8)
    assert iters == 1
    assert grad_norm <= 1e-12


def test_inner_solve_failure_budget():
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    with pytest.raises(InnerFailure):
        inner_solve(p, np.zeros(3), 10.0, np.zeros(3), 1e-8, max_inner=0)


def test_inner_solve_rejects_bad_arguments():
    p = builtin("interior_trivial")
    with pytest.raises(ValueError):
        inner_solve(p, np.zeros(2), -1.0, np.zeros(2), 1e-8)
    with pytest.raises(ValueError):
        inner_solve(p, np.zeros(2), 1.0, np.zeros(2), -1e-8)


TRIVIAL = builtin("interior_trivial")  # n = 2, m = 1
Z2, Z3, PHI = np.zeros(2), np.zeros(3), [1.0, 2.0, 0.0]


def _inner(lam=Z2, rho=1.0, x=Z2, eps=1e-8, max_inner=200):
    return inner_solve(TRIVIAL, lam, rho, x, eps, max_inner=max_inner)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _inner(max_inner=-1), "max_inner must be nonnegative",
                 id="inner_solve-max_inner"),
    pytest.param(lambda: update_multiplier(PHI, Z3, 0.0), "rho_k must be positive",
                 id="update_multiplier-rho_k"),
    *rejected("inner_solve", "rho_k", BAD_PENALTIES, lambda v: _inner(rho=v),
              "rho_k must be positive"),
    *rejected("inner_solve", "eps_k", BAD_TOLERANCES, lambda v: _inner(eps=v),
              "eps_k must be nonnegative"),
    *rejected("inner_solve", "eps_k", [math.inf], lambda v: _inner(eps=v),
              "eps_k must be finite"),
    # a budget is tested for being an integer before its range, so NaN,
    # None and a string are rejected by name rather than by a TypeError
    *rejected("inner_solve", "max_inner", (math.nan, math.inf, 2.5, True, None),
              lambda v: _inner(max_inner=v), "max_inner must be an integer"),
    *rejected("inner_solve", "x_start", [nan_at(Z2)], lambda v: _inner(x=v), PRIMAL),
    *rejected("inner_solve", "lambda_k", [nan_at(Z2)], lambda v: _inner(lam=v), MULTIPLIER),
    *rejected("update_multiplier", "rho_k", BAD_PENALTIES[1:],
              lambda v: update_multiplier(PHI, Z3, v), "rho_k must be positive"),
    *rejected("update_multiplier", "phi_x_next", [nan_at(PHI)],
              lambda v: update_multiplier(v, Z3, 1.0), CONE_VECTOR),
    *rejected("update_multiplier", "lambda_k", [nan_at(Z3)],
              lambda v: update_multiplier(PHI, v, 1.0), "lambda_k must be finite"),
    *rejected("solve", "x0", [nan_at(Z2)], lambda v: solve(TRIVIAL, v, Z2), PRIMAL),
    *rejected("solve", "lambda0", [nan_at(Z2)], lambda v: solve(TRIVIAL, Z2, v), MULTIPLIER),
    *rejected("AlmConfig", "rho0", BAD_PENALTIES, lambda v: AlmConfig(rho0=v),
              "rho0 must be positive"),
    *rejected("AlmConfig", "outer_tol", BAD_PENALTIES, lambda v: AlmConfig(outer_tol=v),
              "outer_tol must be positive"),
    *rejected("AlmConfig", "max_outer", [-1], lambda v: AlmConfig(max_outer=v),
              "max_outer must be nonnegative"),
    *rejected("AlmConfig", "max_inner", [-1], lambda v: AlmConfig(max_inner=v),
              "max_inner must be nonnegative"),
    *rejected("AlmConfig", "max_outer", (2.5, math.inf, math.nan, None),
              lambda v: AlmConfig(max_outer=v), "max_outer must be an integer"),
    *rejected("AlmConfig", "max_inner", (2.5, math.inf, math.nan, "3"),
              lambda v: AlmConfig(max_inner=v), "max_inner must be an integer"),
    *rejected("AlmConfig", "memory", [-1], lambda v: AlmConfig(memory=v),
              "memory must be nonnegative"),
    *rejected("AlmConfig", "memory", (2.5, math.nan, None, "5"),
              lambda v: AlmConfig(memory=v), "memory must be an integer"),
    *rejected("Proportional", "eta", (-0.1, 1.0, math.nan, math.inf),
              lambda v: AlmConfig(eps_rule=Proportional(v)), r"eta must lie in \[0, 1\)"),
    *rejected("aug_lagrangian", "rho", BAD_PENALTIES,
              lambda v: aug_lagrangian(TRIVIAL, Z2, Z2, v), "rho must be positive"),
    *rejected("aug_hessian", "rho", BAD_PENALTIES,
              lambda v: aug_hessian(TRIVIAL, Z2, Z2, v), "rho must be positive"),
    *rejected("aug_lagrangian", "x", [nan_at(Z2)],
              lambda v: aug_lagrangian(TRIVIAL, v, Z2, 1.0), PRIMAL),
    *rejected("aug_lagrangian", "lam", [nan_at(Z2)],
              lambda v: aug_lagrangian(TRIVIAL, Z2, v, 1.0), MULTIPLIER),
    *rejected("lagrangian_l", "x", [nan_at(Z2)], lambda v: lagrangian_l(TRIVIAL, v, Z2), PRIMAL),
    *rejected("lagrangian_l", "lam", [nan_at(Z2)],
              lambda v: lagrangian_l(TRIVIAL, Z2, v), MULTIPLIER),
    *rejected("residual", "x", [nan_at(Z2)], lambda v: residual(TRIVIAL, v, Z2), PRIMAL),
    *rejected("residual", "lam", [nan_at(Z2)], lambda v: residual(TRIVIAL, Z2, v), MULTIPLIER),
])
def test_entry_points_reject_a_bad_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_update_multiplier_examples():
    # scaled interior value with zero multiplier projects to zero
    assert_allclose(update_multiplier([10.0, 1.0, 0.0], np.zeros(3), 5.0), np.zeros(3))
    # fixed point at an exact KKT pair
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    sol = p.known_solution
    for rho in (0.5, 1.0, 10.0):
        out = update_multiplier(p.phi_value(sol.x), sol.lam, rho)
        assert np.linalg.norm(out - sol.lam) <= 1e-12
    # worked projection example
    assert_allclose(update_multiplier([0.0, 2.0, 0.0], np.zeros(3), 1.0), [-1.0, 1.0, 0.0])


@pytest.mark.parametrize("phi, rho", [
    ([1e308, -1e308, 0.0], 1e10),   # rho Phi overflows to +-inf
    ([0.0, 1e308, 1e308], 10.0),     # and to +inf twice in the space block
    ([1e300, 0.0, 0.0], 1e300),      # in the time entry only
])
def test_update_multiplier_overflow_raises_without_a_warning(phi, rho):
    """An overflowing shift ends in NonFiniteError under warnings as
    errors: no overflow warning from rho Phi, and no invalid-value
    warning from a norm formed over an infinite entry."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="shifted point"):
            update_multiplier(phi, np.zeros(3), rho)


def test_update_multiplier_where_the_squared_norm_overflows():
    """A finite shift whose squared space norm overflows is projected
    with the scaled norm, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = update_multiplier([0.0, 1e200, 0.0], np.zeros(3), 1e100)
    assert_allclose(out, [-5e299, 5e299, 0.0], rtol=1e-15)


@pytest.mark.parametrize("middle, expected", [
    (1e300, [-5e306, 3.125e298, 5e306]),
    (0.0, [-5e306, 0.0, 5e306]),
])
def test_update_multiplier_near_overflow_is_finite_without_a_warning(middle, expected):
    """y0 + ||yr|| overflows for y = (1.5e308, middle, 1.6e308) though the
    projection is finite: the boundary coefficient is formed as y0/2 +
    ||yr||/2, so the update is finite (it was -inf and NaN) and prints no
    overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = update_multiplier([1.5e308, middle, 1.6e308], np.zeros(3), 1.0)
    assert np.isfinite(out).all()
    assert_allclose(out, expected, rtol=1e-14)


def test_an_overflowing_space_norm_raises_without_a_warning():
    """Where ||yr|| itself overflows, the multiplier update and the KKT
    residual raise NonFiniteError (the residual was NaN), with no
    floating-point warning."""
    huge = np.array([0.0, 1.7e308, 1.7e308])
    p = quadratic_problem(np.eye(3), np.zeros(3), 0.0, np.eye(3), np.array([0.0, 1.7e308, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="shifted point"):
            update_multiplier(huge, np.zeros(3), 1.0)
        with pytest.raises(NonFiniteError, match=r"point Phi\(x\)\+lam"):
            residual(p, np.zeros(3), np.array([0.0, 0.0, 1.7e308]))


def test_inner_solve_with_a_huge_finite_hessian_prints_no_warning():
    """Hess f = 1e160 I is finite though the sum of its squares, which the
    Newton step's finiteness check forms first, overflows: the step is
    taken with no warning (the suite turns warnings into errors)."""
    p = quadratic_problem(1e160 * np.eye(2), np.ones(2), 0.0,
                          np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0, 0.0]))
    x, grad_norm, iters = inner_solve(p, np.zeros(3), 10.0, np.zeros(2), 0.0)
    assert iters == 1 and grad_norm == 0.0
    assert_allclose(x, [-1e-160, -1e-160], rtol=1e-15)


def test_update_multiplier_rejects_a_wrong_length_multiplier():
    with pytest.raises(ValueError, match="shape"):
        update_multiplier([1.0, 2.0, 0.0], [0.5], 1.0)
    with pytest.raises(ValueError, match="shape"):
        update_multiplier([1.0, 2.0, 0.0], np.zeros((1, 3)), 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        AlmConfig(rho0=0.0)
    for bad in ({"rho0": float("nan")}, {"rho0": float("inf")},
                {"rho_growth": float("nan")}, {"rho_max": float("nan")},
                {"outer_tol": float("nan")}, {"outer_tol": float("inf")},
                {"max_outer": -1}, {"max_inner": -1}):
        with pytest.raises(ValueError):
            AlmConfig(**bad)
    AlmConfig(rho0=0.5)  # no penalty floor: any positive rho0 is valid
    with pytest.raises(ValueError):
        AlmConfig(rho_growth=0.5)
    with pytest.raises(ValueError):
        AlmConfig(outer_tol=0.0)
    with pytest.raises(ValueError):
        Proportional(1.5)


def test_solve_starting_at_solution_stops_immediately():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=2)
    sol = p.known_solution
    point, trace = solve(p, sol.x, sol.lam, AlmConfig(outer_tol=1e-10))
    assert trace.status is AlmStatus.CONVERGED
    assert len(trace) == 1
    assert trace.sigmas[0] <= 1e-10
    assert_allclose(point.x, sol.x)


def test_solve_projection_documented_run():
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    cfg = AlmConfig(rho0=10.0, eps_rule=Proportional(0.1), outer_tol=1e-9, max_outer=40)
    point, trace = solve(p, np.array([0.1, 0.9, 0.05]), np.array([-0.9, 1.1, 0.0]), cfg)
    assert trace.status is AlmStatus.CONVERGED
    assert len(trace) - 1 <= 30
    assert np.linalg.norm(point.x - [1.0, 1.0, 0.0]) <= 1e-7
    assert np.linalg.norm(point.lam - [-1.0, 1.0, 0.0]) <= 1e-7
    # regression: first converged run took 9 outer iterations
    assert len(trace) - 1 == 9


def test_solve_planted_boundary_problem():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    x0, lam0 = perturbed_start(p, 1e-2, seed=42)
    cfg = AlmConfig(rho0=100.0, rho_growth=1.0, rho_max=100.0,
                    eps_rule=Proportional(0.1), outer_tol=1e-9, max_outer=60)
    point, trace = solve(p, x0, lam0, cfg)
    sol = p.known_solution
    assert trace.status is AlmStatus.CONVERGED
    err = np.linalg.norm(point.x - sol.x) + np.linalg.norm(point.lam - sol.lam)
    assert err <= 1e-6


def test_trace_invariants():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    x0, lam0 = perturbed_start(p, 0.5, seed=3)
    cfg = AlmConfig(rho0=10.0, eps_rule=Proportional(0.1), outer_tol=1e-9, max_outer=60)
    _, trace = solve(p, x0, lam0, cfg)
    assert trace.status is AlmStatus.CONVERGED
    # accepted inner solutions meet the requested tolerance
    for k in range(len(trace) - 1):
        assert trace.grad_norms[k] <= max(trace.epss[k], 1e-13)
    # multipliers stay in -Q from the first update on
    for lam in trace.lams[1:]:
        assert np.linalg.norm(project_q(lam)) <= 1e-12
    # sigma entries recompute exactly from the stored iterates
    for k in range(len(trace)):
        assert abs(trace.sigmas[k] - residual(p, trace.xs[k], trace.lams[k])) <= 1e-12
    # residual is nonincreasing after burn-in (soft: at most 2 violations)
    sig = trace.sigmas
    violations = sum(1 for k in range(1, len(sig) - 1) if sig[k + 1] > sig[k])
    assert violations <= 2


def test_kkt_fixed_point_invariant():
    p = generate_planted(4, 2, ConeRegion.ZERO, seed=3)
    sol = p.known_solution
    sigma0 = residual(p, sol.x, sol.lam)
    assert sigma0 <= 1e-12
    # one full ALM step from the solution stays at the solution
    x1, _, _ = inner_solve(p, sol.lam, 10.0, sol.x, 0.0)
    lam1 = update_multiplier(p.phi_value(x1), sol.lam, 10.0)
    assert residual(p, x1, lam1) <= 1e-10


def test_solve_max_iterations():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=4)
    x0, lam0 = perturbed_start(p, 10.0, seed=5)
    cfg = AlmConfig(rho0=1.0, rho_growth=1.0, rho_max=1.0,
                    eps_rule=Proportional(0.5), outer_tol=1e-14, max_outer=2)
    _, trace = solve(p, x0, lam0, cfg)
    assert trace.status is AlmStatus.MAX_ITERATIONS
    assert len(trace) == 3


def test_solve_inner_failure_partial_trace():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=4)
    x0, lam0 = perturbed_start(p, 1.0, seed=6)
    cfg = AlmConfig(rho0=10.0, max_inner=0, outer_tol=1e-12)
    _, trace = solve(p, x0, lam0, cfg)
    assert trace.status is AlmStatus.INNER_FAILURE
    assert len(trace) >= 1


def test_exact_rule_reaches_machine_floor():
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    cfg = AlmConfig(rho0=10.0, eps_rule=Proportional(0.0), outer_tol=1e-9, max_outer=40)
    _, trace = solve(p, np.array([0.1, 0.9, 0.05]), np.array([-0.9, 1.1, 0.0]), cfg)
    assert trace.status is AlmStatus.CONVERGED
    for k in range(len(trace) - 1):
        assert trace.grad_norms[k] <= 1e-13


@pytest.mark.parametrize("region", [ConeRegion.ZERO, ConeRegion.BOUNDARY_Q_NONZERO,
                                    ConeRegion.INTERIOR_Q])
def test_exact_rule_converges_where_the_rounding_floor_exceeds_1e_13(region):
    """At (50, 25) the gradient's rounding floor lies above 1e-13: an
    exact inner solve (eta = 0) stops at the floor worked out at its
    iterate, and the solve converges."""
    p = builtin("scaled_quadratic", seed=1, n=50, m=25, region=region)
    _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1),
                     AlmConfig(eps_rule=Proportional(0.0)))
    assert trace.status is AlmStatus.CONVERGED
    assert all(eps == 0.0 for eps in trace.epss)


@pytest.mark.parametrize("eps_k", [0.0, 1e-300])
def test_exact_inner_solve_stops_at_the_floor_of_a_degenerate_minimizer(eps_k):
    """At lam = 0 example_3_2's inner minimizer is degenerate: each full
    Newton step cuts ||grad|| by about 0.3, so Newton converges linearly
    and ||grad|| reaches its rounding floor long before a tiny eps_k.
    Every inner solve tests the floor at every iteration, so the exact one
    (eps_k = 0) and one whose positive eps_k lies below the floor both
    stop there well inside their budget, and the ALM with eta = eps_k
    converges from every seeded start."""
    p = builtin("example_3_2")
    _, grad_norm, iters = inner_solve(p, np.zeros(3), 10.0, [2.0, 1.0], eps_k)
    assert eps_k < grad_norm <= 1e-20 and iters < 100
    rng = np.random.default_rng(0)
    cfg = AlmConfig(eps_rule=Proportional(eps_k))
    for _ in range(200):
        _, trace = solve(p, rng.standard_normal(2), np.zeros(3), cfg)
        assert trace.status is AlmStatus.CONVERGED


def test_rounding_floor_follows_a_jacobian_rewritten_in_place():
    """The floor's ||JPhi||_F is formed again wherever JPhi is writeable:
    an example_3_2 whose JPhi, which moves with x, is one buffer rewritten
    at each call stops where the one with fresh arrays does, bit for bit.
    From x = (2, 1) ||JPhi||_F falls from 4.2 to sqrt(2), so a floor kept
    from the start would stop the solve at another iteration."""
    p = builtin("example_3_2")
    x, grad_norm, iters = inner_solve(p, np.zeros(3), 10.0, [2.0, 1.0], 0.0)
    twin = inner_solve(rewritten_twin(p, "phi_jac"), np.zeros(3), 10.0, [2.0, 1.0], 0.0)
    assert twin[1:] == (grad_norm, iters) and np.array_equal(twin[0], x)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**20), size=st.sampled_from([(3, 2), (20, 10)]),
       region=st.sampled_from([ConeRegion.ZERO, ConeRegion.BOUNDARY_Q_NONZERO,
                               ConeRegion.INTERIOR_Q]),
       eta=st.sampled_from([0.1, 0.0]), rho_max=st.sampled_from([AlmConfig.rho_max, 1e8]))
# one more step at the measured ratio would converge, so rho is kept
@example(seed=12, size=(3, 2), region=ConeRegion.ZERO, eta=0.1, rho_max=AlmConfig.rho_max)
@example(seed=76, size=(20, 10), region=ConeRegion.BOUNDARY_Q_NONZERO, eta=0.0,
         rho_max=AlmConfig.rho_max)
# at rho = 1e7 eps_k falls below the floor: floor stops hold rho
@example(seed=29, size=(3, 2), region=ConeRegion.ZERO, eta=0.1, rho_max=1e8)
def test_the_penalty_is_raised_exactly_where_a_step_is_not_fast(seed, size, region, eta,
                                                                rho_max):
    """rho grows by rho_growth, up to rho_max, exactly after a step whose
    residual fails to fall to FAST times its old value, unless the inner
    solve stopped at its rounding floor short of a positive eps_k (and the
    step moved (x, lam)) or one more step at the measured ratio would reach
    outer_tol; the planted problems converge from zero under the default
    cap, exact inner solves included."""
    cfg = AlmConfig(eps_rule=Proportional(eta), rho_max=rho_max)
    p = generate_planted(*size, region, seed)
    _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1), cfg)
    if rho_max == AlmConfig.rho_max:
        assert trace.status is AlmStatus.CONVERGED
    s, xs, lams = trace.sigmas, trace.xs, trace.lams
    for k in range(len(trace) - 1):
        still = (s[k + 1] == s[k] and np.array_equal(xs[k + 1], xs[k])
                 and np.array_equal(lams[k + 1], lams[k]))
        held = trace.grad_norms[k] > trace.epss[k] > 0.0 and not still
        raised = s[k + 1] > alm.FAST * s[k] and s[k + 1] * s[k + 1] / s[k] > cfg.outer_tol
        rho = trace.rhos[k]
        expected = min(cfg.rho_max, cfg.rho_growth * rho) if raised and not held else rho
        assert trace.rhos[k + 1] == expected


def test_planted_totals_pin_the_penalty_rule():
    """The 60 planted solves from zero under the default AlmConfig, (3, 2)
    and (20, 10) in all three regions at seeds 0-9, converge in 351 outer
    iterations and 447 Newton steps, at one BLAS thread or more.  The
    rule's constant shows in them: FAST = 0.11 takes 375 and 469."""
    outer = newton = 0
    for size in ((3, 2), (20, 10)):
        for region in (ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO):
            for seed in range(10):
                p = generate_planted(*size, region, seed)
                _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1))
                assert trace.status is AlmStatus.CONVERGED, (size, region, seed)
                outer += len(trace) - 1
                newton += sum(trace.inner_iters)
    assert (outer, newton) == (351, 447)


@pytest.mark.parametrize("rho, totals", [(1.0, (626, 664)), (10.0, (415, 500))])
def test_fixed_penalty_totals_pin_the_extrapolation_rule(rho, totals):
    """At a fixed penalty (rho_growth = 1) no raise follows a slow step, and
    the Anderson shift takes almost every one.  So the 60 planted solves
    from zero, (3, 2) and (20, 10) in all three regions at seeds 0-9, pin
    SLOW in their outer and Newton totals: SLOW = 0.3 takes 619 and 657
    at rho = 1, and 445 and 530 at rho = 10."""
    cfg = AlmConfig(rho0=rho, rho_growth=1.0, rho_max=rho)
    outer = newton = 0
    for size in ((3, 2), (20, 10)):
        for region in (ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO):
            for seed in range(10):
                p = generate_planted(*size, region, seed)
                _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1), cfg)
                assert trace.status is AlmStatus.CONVERGED, (size, region, seed)
                outer += len(trace) - 1
                newton += sum(trace.inner_iters)
    assert (outer, newton) == totals


@pytest.mark.parametrize("excess, accepted", [(6, True), (10, False)])
def test_the_line_search_allows_eight_eps_of_value_noise(excess, accepted):
    """A trial value above the Armijo line by at most 8 eps max(1, |value|),
    the allowance for rounding in the value, is accepted.  f is x^2/2 but
    at the Newton point 0 of the start 1, where the value oracle returns
    the line plus `excess` eps.  Accepted, the solve stops there after one
    step; rejected, it backtracks to 0.5 and has no second step to take."""
    line = 0.5 + alm.ARMIJO * -1.0
    p = SocpProblem(
        n=1, m=1,
        f_value=lambda x: 0.5 * float(x @ x) if x.any() else line + excess * alm.EPS,
        f_grad=lambda x: x.copy(), f_hess=lambda x: np.ones((1, 1)),
        phi_value=lambda x: np.array([1.0, 0.0]), phi_jac=lambda x: np.zeros((2, 1)),
        phi_hess_contract=lambda x, lam: np.zeros((1, 1)))
    args = (p, np.zeros(2), 1.0, np.ones(1), 1e-12)
    if accepted:
        assert inner_solve(*args, max_inner=1)[0].tolist() == [0.0]
    else:
        with pytest.raises(InnerFailure, match="stalled"):
            inner_solve(*args, max_inner=1)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("region", [ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO,
                                    ConeRegion.ZERO])
def test_curved_problem_converges_to_its_planted_pair(region, seed):
    """With a curved Phi, S and JPhi change at every Newton step; the
    solve from zero under the default AlmConfig still converges, within
    1e-6 of the planted pair."""
    p = curved_problem(20, 10, region, seed)
    kkt, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1))
    assert trace.status is AlmStatus.CONVERGED
    sol = p.known_solution
    assert _norm(kkt.x - sol.x) + _norm(kkt.lam - sol.lam) <= 1e-6


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("region", [ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO,
                                    ConeRegion.ZERO])
def test_a_small_curved_problem_converges_to_its_planted_pair(region, seed):
    """At (3, 2), the benchmark's smallest size, a curved solve from zero
    converges within the benchmark's distance (1e-3) of the planted pair.
    The planted pair need not be the only local minimizer: from zero, 13
    of the 900 problems of seeds 0-299 converge to another KKT pair, of
    lower f, where SOSC holds."""
    p = curved_problem(3, 2, region, seed)
    kkt, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1))
    assert trace.status is AlmStatus.CONVERGED
    sol = p.known_solution
    assert _norm(kkt.x - sol.x) + _norm(kkt.lam - sol.lam) <= 1e-3


@pytest.mark.parametrize("seed", [29, 158])
def test_vertex_solves_that_reach_the_rounding_floor_converge(seed):
    """On these planted (3, 2) Zero problems eps_k = 0.1 sigma falls below
    the gradient's rounding floor at rho = 1e7: the inner solve stops at
    the floor, rho is held there, and the multiplier updates converge.
    The plain ALM (memory = 0) with rho_max = 1e8 reaches that floor; the
    default cap of 1e5 stops rho before it, and with the extrapolated
    shift these solves converge before rho does."""
    p = generate_planted(3, 2, ConeRegion.ZERO, seed)
    cfg = AlmConfig(rho0=10.0, rho_max=1e8, eps_rule=Proportional(0.1), outer_tol=1e-9,
                    memory=0)
    _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1), cfg)
    assert trace.status is AlmStatus.CONVERGED
    floor_stops = [k for k in range(len(trace) - 1) if trace.grad_norms[k] > trace.epss[k]]
    assert floor_stops
    assert all(trace.rhos[k + 1] == trace.rhos[k] for k in floor_stops)


def test_solve_stops_where_an_outer_iteration_changes_nothing():
    """rho Phi + lam rounds back to lam = (-1e200, 0) at every rho: once
    rho reaches rho_max the iteration is a fixed point, and the solve ends
    there instead of spending max_outer iterations."""
    p = builtin("interior_trivial")
    _, trace = solve(p, np.zeros(p.n), np.array([-1e200, 0.0]), AlmConfig())
    assert trace.status is AlmStatus.MAX_ITERATIONS
    assert trace.message == "outer iteration 4 left x, lambda and rho=100000 unchanged"
    assert trace.rhos == [10.0 ** (k + 1) for k in range(5)] + [1e5]
    # the same stop at a fixed rho ends the first iteration
    cfg = AlmConfig(rho_growth=1.0)
    _, trace = solve(p, np.zeros(p.n), np.array([-1e200, 0.0]), cfg)
    assert trace.status is AlmStatus.MAX_ITERATIONS and len(trace) == 2


def test_penalty_growth_when_residual_stalls():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=7)
    x0, lam0 = perturbed_start(p, 5.0, seed=8)
    cfg = AlmConfig(rho0=1.0, rho_growth=10.0, rho_max=1e6,
                    eps_rule=Proportional(0.1), outer_tol=1e-9, max_outer=60)
    _, trace = solve(p, x0, lam0, cfg)
    assert trace.status is AlmStatus.CONVERGED
    assert max(trace.rhos) <= 1e6
    assert all(trace.rhos[k + 1] >= trace.rhos[k] for k in range(len(trace) - 1))


def test_one_jacobian_and_gradient_call_per_accepted_iterate():
    total = 0
    for seed in range(20):
        p, calls = counted(generate_planted(20, 10, ConeRegion.BOUNDARY_Q_NONZERO, seed))
        _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1))
        steps = sum(trace.inner_iters)
        assert calls["phi_jac"] == calls["f_grad"] == steps + 1
        assert calls["f_hess"] == calls["phi_hess_contract"] == steps
        # line-search trials evaluate Phi and f only
        assert calls["phi_value"] == calls["f_value"] >= steps + 1
        total += sum(calls.values())
    # 4,696 oracle calls when every public function re-evaluated its point
    assert total <= 1700


@settings(max_examples=30)
@given(seed=st.integers(0, 2**20),
       region=st.sampled_from([ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                               ConeRegion.INTERIOR_Q]),
       n=st.integers(1, 6), m=st.integers(1, 4))
@example(seed=29, region=ConeRegion.ZERO, n=3, m=2)  # one of its shifts is extrapolated
def test_trace_rows_equal_the_public_functions_exactly(seed, region, n, m):
    """Row k's value is L_rho at (x_k, shifts[k]), and lams[k + 1] the
    multiplier update from shifts[k], bit for bit."""
    p = generate_planted(n, m, region, seed)
    _, trace = solve(p, np.zeros(n), np.zeros(m + 1))
    for k in range(len(trace)):
        assert trace.sigmas[k] == residual(p, trace.xs[k], trace.lams[k])
        assert trace.values[k] == aug_lagrangian(p, trace.xs[k], trace.shifts[k],
                                                 trace.rhos[k]).value
    for k in range(len(trace) - 1):
        lam_next = update_multiplier(p.phi_value(trace.xs[k + 1]), trace.shifts[k],
                                     trace.rhos[k])
        assert lam_next.tobytes() == trace.lams[k + 1].tobytes()


SOLVE_SMALL_KINDS = [(n, m, region) for n, m in ((3, 2), (20, 10))
                     for region in (ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                                    ConeRegion.INTERIOR_Q)] + ["projection", "example_3_2"]


@pytest.mark.parametrize("kind", SOLVE_SMALL_KINDS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_trace_residuals_are_the_public_residual_bit_for_bit(kind, seed):
    """Every row's sigma equals `residual` at (x_k, lam_k) bit for bit: the
    outer step reuses the inner solve's gradient norm for the residual's
    gradient term, and that norm has the residual's own bits."""
    rng = np.random.default_rng(seed)
    if kind == "projection":
        p, x0 = builtin("projection", a=2.0 * rng.standard_normal(3)), np.zeros(3)
    elif kind == "example_3_2":
        p = builtin("example_3_2")
        x0 = rng.standard_normal(p.n)
    else:
        p = generate_planted(*kind, seed=seed)
        x0 = np.zeros(p.n)
    _, trace = solve(p, x0, np.zeros(p.m + 1))
    assert len(trace) > 1
    for k in range(len(trace)):
        assert trace.sigmas[k] == residual(p, trace.xs[k], trace.lams[k])


def _trace_digest(trace):
    """sha256 of the status, iterates, residuals and values of a trace."""
    h = hashlib.sha256(trace.status.value.encode())
    for row in trace.xs + trace.lams:
        h.update(row.tobytes())
    h.update(np.array(trace.sigmas).tobytes())
    h.update(np.array(trace.values).tobytes())
    return h.hexdigest()


PLAIN_PINS = [
    ((3, 2, ConeRegion.ZERO), "c3b0479bfc9218b41171b64afe60e030e70952c4b07368051db5942d98461444"),
    ((3, 2, ConeRegion.BOUNDARY_Q_NONZERO),
     "172bdb0e174835b91d814975d358d310018b0ee23ee4c1099918feef39556919"),
    ((3, 2, ConeRegion.INTERIOR_Q),
     "d0478d7dcba3bec58f564ebbf691b98eafce9306858960fafabf6a047a65f799"),
    ((20, 10, ConeRegion.ZERO), "cd26a362b1e19108c2dc4d84cdd6c8804186782d22507fca71fa25b854ce7752"),
    ((20, 10, ConeRegion.BOUNDARY_Q_NONZERO),
     "33e5537d21aadf9c078a73a9a254b12dd257e7107af694d05a4e382507154265"),
    ((20, 10, ConeRegion.INTERIOR_Q),
     "eed77844a0097ae728723f3680d0711d1b50646a82aa6ab4ff4a09f40ad5b04a"),
    ("projection", "c1905b3b0bf613b10486ca032c935e9e4b2a9049d769b92bf6ebc13ff2e308bd"),
    ("example_3_2", "60c5011890f464b4048e5dbe1842f16f4e8c9c3a698ab8fa7c8c85e0542c5e62"),
]


@pytest.mark.parametrize("problem, digest", PLAIN_PINS, ids=lambda v: str(v)[:24])
def test_plain_alm_traces_are_pinned_byte_for_byte(problem, digest):
    """With memory = 0 the solve is the plain ALM: its traces from these
    starts hash to pinned bytes, which the extrapolated shift must not
    move (numpy 2.4 and its OpenBLAS; planted problems of seed 1)."""
    if problem == "projection":
        p, x0 = builtin("projection"), np.zeros(3)
    elif problem == "example_3_2":
        p, x0 = builtin("example_3_2"), np.array([0.5, 0.5])
    else:
        p = generate_planted(*problem, seed=1)
        x0 = np.zeros(p.n)
    _, trace = solve(p, x0, np.zeros(p.m + 1), AlmConfig(memory=0))
    assert _trace_digest(trace) == digest
    assert all(np.array_equal(s, lam) for s, lam in zip(trace.shifts, trace.lams))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**20), size=st.sampled_from([(3, 2), (20, 10)]),
       region=st.sampled_from([ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                               ConeRegion.INTERIOR_Q]),
       rho=st.sampled_from([1e2, 1e3, 1e4]))
def test_extrapolated_shifts_keep_the_multipliers_and_the_fast_traces(seed, size, region, rho):
    """Every reported multiplier of a default solve lies in -Q, whatever
    its shifts; and at a fixed rho where every step cuts the residual by
    at least 1/SLOW = 4, no shift is extrapolated, so the trace is the
    plain ALM's: the rates measured at a fixed rho (`rate`, criterion 7)
    are those of the paper's method."""
    p = generate_planted(*size, region, seed)
    _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1))
    assert trace.status is AlmStatus.CONVERGED
    for lam in trace.lams:
        assert _norm(project_q(lam)) <= 1e-12
    trace, plain = _fixed_rho_traces(p, rho)
    if _every_step_fast(plain):
        assert _trace_digest(trace) == _trace_digest(plain)
        assert trace.inner_iters == plain.inner_iters


def _fixed_rho_traces(p, rho):
    """The default solve and the plain ALM's from zero at a fixed rho."""
    fixed = AlmConfig(rho0=rho, rho_growth=1.0, rho_max=rho)
    zeros = np.zeros(p.n), np.zeros(p.m + 1)
    _, trace = solve(p, *zeros, fixed)
    _, plain = solve(p, *zeros, dataclasses.replace(fixed, memory=0))
    return trace, plain


def _every_step_fast(trace):
    s = trace.sigmas
    return all(s[k + 1] <= alm.SLOW * s[k] for k in range(len(s) - 1))


@pytest.mark.parametrize("rho", [100.0, 200.0])
@pytest.mark.parametrize("n, m, region, seed", [
    (3, 2, ConeRegion.BOUNDARY_Q_NONZERO, 3), (4, 3, ConeRegion.BOUNDARY_Q_NONZERO, 2),
    (5, 4, ConeRegion.BOUNDARY_Q_NONZERO, 4), (4, 2, ConeRegion.ZERO, 3),
    (5, 3, ConeRegion.ZERO, 7)])
def test_fast_traces_at_the_rate_criterions_penalties_are_the_plain_ones(n, m, region, seed,
                                                                         rho):
    """Criterion 7's problems at its penalties: every plain step cuts the
    residual by 4 or more (0.19 at the slowest), so the default solve
    writes the plain ALM's trace byte for byte."""
    trace, plain = _fixed_rho_traces(generate_planted(n, m, region, seed), rho)
    assert plain.status is AlmStatus.CONVERGED and _every_step_fast(plain)
    assert _trace_digest(trace) == _trace_digest(plain)
    assert trace.inner_iters == plain.inner_iters


def test_extrapolated_shifts_cut_the_outer_iterations_of_vertex_solves():
    """The 600 planted (3, 2) Zero problems of seeds 0-599 all converge from
    zero under the default penalty rule, with the extrapolated shift as
    with the plain ALM (8.76 outer iterations on average against 9.05).
    At a fixed rho = 10, where only the shift contracts faster, all 600
    converge with it in 7.09 iterations on average, while the plain ALM
    averages 64.0 and stops at max_outer on 244 of them."""
    outer = {}
    for rho_growth in (AlmConfig.rho_growth, 1.0):
        for memory in (0, AlmConfig.memory):
            cfg = AlmConfig(rho_growth=rho_growth, memory=memory)
            outer[rho_growth, memory] = 0
            for seed in range(600):
                p = generate_planted(3, 2, ConeRegion.ZERO, seed)
                _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1), cfg)
                if rho_growth > 1.0 or memory:
                    assert trace.status is AlmStatus.CONVERGED
                outer[rho_growth, memory] += len(trace) - 1
    assert outer[1.0, AlmConfig.memory] < 0.65 * outer[1.0, 0]


def test_vertex_solve_that_an_extrapolated_shift_stopped_far_from_the_planted_pair():
    """On this ill-conditioned planted (3, 2) Zero problem (the benchmark's
    solve-small seed 81, task 169) an extrapolated shift used to end the
    solve at rho = 10 with a residual below outer_tol, but 3.1e-3 from the
    planted multiplier.  Raising rho after every step that is not fast,
    the default solve converges at rho = 1e5 after 12 outer iterations,
    1.0e-8 from it; the plain ALM stalls at that cap to max_outer."""
    p = generate_planted(3, 2, ConeRegion.ZERO, 2105234341)
    _, trace = solve(p, np.zeros(3), np.zeros(3))
    assert trace.status is AlmStatus.CONVERGED
    assert (len(trace) - 1, trace.rhos[-1]) == (12, 1e5)
    assert _norm(trace.lams[-1] - p.known_solution.lam) < 1.1e-8
    _, plain = solve(p, np.zeros(3), np.zeros(3), AlmConfig(memory=0))
    assert plain.status is AlmStatus.MAX_ITERATIONS and plain.rhos[-1] == 1e5


# planted (3, 2) Zero problems that ended in MaxIterations at rho 1e7-1e8,
# where the inner solve's rounding floor lies above outer_tol, while rho_max
# was 1e8
CAPPED_VERTICES = [1293274076, 826735019, 1006169543, 625968663, 703024645, 1634190911,
                   29803698]


def _gate_distance(p, point):
    """||x - xbar|| + dist(lam, Lambda), the benchmark's distance gate."""
    return _norm(point.x - p.known_solution.x) + dist_to_multiplier_set(p, point.lam)


@pytest.mark.parametrize("seed", CAPPED_VERTICES)
def test_vertex_solves_converge_below_the_penalty_cap(seed):
    """The default cap rho_max = 1e5 keeps the floor below outer_tol: each
    of these solves converges, within 1e-3 of the planted pair."""
    p = generate_planted(3, 2, ConeRegion.ZERO, seed)
    point, trace = solve(p, np.zeros(3), np.zeros(3))
    assert trace.status is AlmStatus.CONVERGED and max(trace.rhos) <= 1e5
    assert _gate_distance(p, point) <= 1e-3


@pytest.mark.parametrize("seed", [1179130161, 268542022])
def test_a_step_that_would_converge_at_its_ratio_keeps_the_penalty(seed):
    """On these planted (400, 200) Zero problems a step near sigma = 1e-9
    fails to cut the residual tenfold.  Raising rho to 1e3 there left every
    later inner solve at its rounding floor with no Newton step, and sigma
    climbed to max_outer; one more step at the measured ratio would
    converge, so rho is kept, and the solve converges with rho <= 100."""
    p = generate_planted(400, 200, ConeRegion.ZERO, seed)
    point, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1))
    assert trace.status is AlmStatus.CONVERGED and max(trace.rhos) <= 100.0
    assert _gate_distance(p, point) <= 1e-3


def test_the_anderson_point_of_an_affine_map_is_its_fixed_point():
    """For g(s) = A s + b on R^3 with I - A invertible, three differences
    span the space: the Anderson point is the fixed point (I - A)^-1 b.
    A non-finite difference gives g_k itself."""
    rng = np.random.default_rng(0)
    A, b = 0.4 * rng.standard_normal((3, 3)), rng.standard_normal(3)
    history = []
    for s in rng.standard_normal((4, 3)):
        g = A @ s + b
        history.append((g - s, _norm(g - s), g))
    assert_allclose(alm._anderson_shift(history), np.linalg.solve(np.eye(3) - A, b),
                    rtol=1e-12, atol=1e-12)
    history[0] = (np.full(3, np.inf), math.inf, history[0][2])
    assert alm._anderson_shift(history) is history[-1][2]


def test_a_shift_whose_shifted_point_overflows_falls_back_to_the_multiplier(monkeypatch):
    """Where the extrapolated shift's rho Phi + s is not finite, the next
    inner solve is shifted by the multiplier: the solve goes on as plain
    ALM steps and converges (planted (3, 2) Zero seed 9 at a fixed rho = 10,
    where 13 shifts are extrapolated)."""
    p = generate_planted(3, 2, ConeRegion.ZERO, 9)
    calls = []
    monkeypatch.setattr(alm, "_anderson_shift",
                        lambda history: calls.append(len(history)) or np.full(3, np.inf))
    fixed = AlmConfig(rho_growth=1.0)
    _, trace = solve(p, np.zeros(3), np.zeros(3), fixed)
    _, plain = solve(p, np.zeros(3), np.zeros(3), dataclasses.replace(fixed, memory=0))
    assert trace.status is AlmStatus.CONVERGED and calls
    assert _trace_digest(trace) == _trace_digest(plain)


def test_non_finite_hessian_is_inner_failure():
    p = dataclasses.replace(builtin("projection"), f_hess=lambda x: np.full((3, 3), np.nan))
    _, trace = solve(p, np.zeros(3), np.zeros(3))
    assert trace.status is AlmStatus.INNER_FAILURE
    assert len(trace) == 1
    assert "non-finite Hessian" in trace.message


def test_non_finite_constraint_value_is_inner_failure():
    base = builtin("projection")

    def phi_value(x):
        return np.full(3, np.nan) if x[0] > 0.3 else base.phi_value(x)

    p = dataclasses.replace(base, phi_value=phi_value)
    _, trace = solve(p, np.zeros(3), np.zeros(3))
    assert trace.status is AlmStatus.INNER_FAILURE
    assert len(trace) >= 1
    assert all(np.all(x[0] <= 0.3) for x in trace.xs)
    assert "non-finite" in trace.message


def test_shift_overflow_after_penalty_increase_is_inner_failure():
    # the second outer step does not cut the residual tenfold, so the penalty
    # jumps from 1 to 1e300 and rho*Phi(x)+lam overflows at the new iterate;
    # the plain ALM (memory = 0), since the extrapolated shift converges in
    # 3 iterations and never raises the penalty
    p = builtin("projection", a=(0.0, 1e10, 0.0))
    cfg = AlmConfig(rho0=1.0, rho_growth=1e300, rho_max=math.inf, outer_tol=1e-15, memory=0)
    point, trace = solve(p, np.zeros(3), np.zeros(3), cfg)
    assert trace.status is AlmStatus.INNER_FAILURE
    assert trace.message.startswith("non-finite shifted point")
    assert trace.rhos[-1] == 1e300 and math.isnan(trace.values[-1])
    assert (trace.epss[-1], trace.inner_iters[-1], trace.grad_norms[-1]) == (0.0, 0, 0.0)
    assert point.x.tobytes() == trace.xs[-1].tobytes()
    assert point.lam.tobytes() == trace.lams[-1].tobytes()
    assert np.isfinite(trace.sigmas).all()


def test_start_whose_kkt_residual_overflows_raises():
    """At x0 = (1e200, 0, 0) the residual of projection is inf: the solve
    stops before its first iteration instead of running max_outer empty ones."""
    with pytest.raises(alm.NonFiniteError, match="non-finite KKT residual inf at the start"):
        solve(builtin("projection"), [1e200, 0.0, 0.0], np.zeros(3))


def test_non_finite_start_raises():
    p = builtin("projection")
    with pytest.raises(ValueError):
        solve(p, [np.nan, 0.0, 0.0], np.zeros(3))
    with pytest.raises(ValueError):
        solve(p, np.zeros(3), [0.0, np.inf, 0.0])


@settings(max_examples=40)
@given(seed=st.integers(0, 2**20), size=st.sampled_from([(3, 2), (20, 10)]),
       region=st.sampled_from([ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                               ConeRegion.INTERIOR_Q]),
       log_scale=st.floats(-3.0, 1.0), rho0=st.sampled_from([0.5, 10.0]),
       rho_growth=st.sampled_from([1.0, 10.0]), rho_max=st.sampled_from([10.0, 1e6]),
       max_outer=st.integers(0, 12), max_inner=st.sampled_from([1, 3, 200]))
def test_solver_trace_properties(seed, size, region, log_scale, rho0, rho_growth, rho_max,
                                 max_outer, max_inner):
    """Every updated multiplier lies in -Q, the penalty never falls and
    never passes rho_max, and the trace length agrees with the status."""
    p = generate_planted(*size, region, seed)
    x0, lam0 = perturbed_start(p, 10.0 ** log_scale, seed)
    cfg = AlmConfig(rho0=min(rho0, rho_max), rho_growth=rho_growth, rho_max=rho_max,
                    eps_rule=Proportional(0.1), outer_tol=1e-9, max_outer=max_outer,
                    max_inner=max_inner)
    _, trace = solve(p, x0, lam0, cfg)
    for lam in trace.lams[1:]:
        assert classify(lam) in (ConeRegion.INTERIOR_POLAR,
                                 ConeRegion.BOUNDARY_POLAR_NONZERO, ConeRegion.ZERO)
    assert all(a <= b for a, b in zip(trace.rhos, trace.rhos[1:]))
    assert max(trace.rhos) <= rho_max
    assert 1 <= len(trace) <= max_outer + 1
    if trace.status is AlmStatus.CONVERGED:
        assert trace.sigmas[-1] <= cfg.outer_tol
    elif trace.status is AlmStatus.MAX_ITERATIONS:
        assert len(trace) == max_outer + 1
        assert trace.sigmas[-1] > cfg.outer_tol
    else:
        assert trace.status is AlmStatus.INNER_FAILURE
        assert trace.message


def triangular_solves(L, b):
    """L^-T (L^-1 b) through scipy's wrapper, from the lower triangle of L."""
    y = scipy.linalg.solve_triangular(L, b, lower=True)
    return scipy.linalg.solve_triangular(L.T, y, lower=False)


def random_spd(n, seed):
    """An exactly symmetric positive definite matrix."""
    M = np.random.default_rng(seed).standard_normal((n, n))
    S = M @ M.T + n * np.eye(n)
    return 0.5 * (S + S.T)


@pytest.mark.parametrize("n", [1, 3, 20, 100, 400])
def test_cholesky_equals_scipy_bitwise(n):
    A = random_spd(n, n)
    b = np.random.default_rng(n + 1).standard_normal(n)
    work = A.copy()   # cho_factor overwrites its argument
    c = alm.cho_factor(work)
    assert np.shares_memory(c, work)
    ref = scipy.linalg.cho_factor(A, lower=True)
    assert c.tobytes() == ref[0].tobytes()
    assert alm.cho_solve(c, b).tobytes() == triangular_solves(ref[0], b).tobytes()


def test_cholesky_raises_on_indefinite_matrix():
    with pytest.raises(scipy.linalg.LinAlgError):
        alm.cho_factor(np.diag([1.0, -1.0, 1.0]))


def rotated(eigenvalues, seed):
    """Q diag(eigenvalues) Q' for a random orthogonal Q."""
    n = len(eigenvalues)
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    return Q @ np.diag(eigenvalues) @ Q.T


def reference_direction(H, g):
    """The regularized Newton direction through scipy's wrappers: factor
    H + mu I, doubling mu from MU0, for at most 80 attempts.  Returns
    (direction, attempts), the direction None when every attempt fails."""
    mu = 0.0
    for attempt in range(1, 81):
        A = H.copy()
        np.fill_diagonal(A, H.diagonal() + mu)
        try:
            return triangular_solves(scipy.linalg.cho_factor(A, lower=True)[0], -g), attempt
        except scipy.linalg.LinAlgError:
            mu = alm.MU0 if mu == 0.0 else 2.0 * mu
    return None, 80


def counted_factorizations(monkeypatch):
    """Count the calls of alm.cho_factor made through the module global."""
    calls = []

    def factor(A):
        calls.append(A)
        return cho_factor(A)

    cho_factor = alm.cho_factor
    monkeypatch.setattr(alm, "cho_factor", factor)
    return calls


@pytest.mark.parametrize("H, attempts", [
    (random_spd(5, 0), 1),
    # attempt k >= 2 adds MU0 * 2**(k-2); that passes 1e-3 at k = 19
    (rotated([3.0, -1e-3, 1.0, 2.0, 5.0], 1), 19),
    # mu reaches only MU0 * 2**78 ~ 3e15: every attempt fails
    (-1e20 * np.eye(4), 80),
])
def test_newton_direction_matches_the_reference_doubling_loop(H, attempts, monkeypatch):
    H = 0.5 * (H + H.T)
    n = H.shape[0]
    g = np.random.default_rng(2).standard_normal(n)
    # f = x'Hx/2 + g'x with Phi = e0 inside Q: at x = 0 the gradient is
    # g and the Hessian is H, bit for bit
    e0 = np.eye(1, 2)[0]
    ev = AugEval(quadratic_problem(H, g, 0.0, np.zeros((2, n)), e0), np.zeros(n),
                 np.zeros(2), 1.0).complete()
    assert ev.grad_x.tobytes() == g.tobytes()
    calls = counted_factorizations(monkeypatch)
    state = alm.NewtonState()
    d = alm._newton_direction(ev, state)
    ref, ref_attempts = reference_direction(H, g)
    if attempts == 80:
        assert d is None and ref is None and state.chol is None
    else:
        assert d.tobytes() == ref.tobytes()
        # the kept factor is the one the direction was solved with
        assert alm.cho_solve(state.chol[1], -g).tobytes() == d.tobytes()
    assert len(calls) == ref_attempts == attempts


def test_solve_without_a_factorizable_hessian_ends_in_inner_failure(monkeypatch):
    # mu stops at MU0 * 2**78 ~ 3e15, far short of the -1e20 eigenvalue
    p = dataclasses.replace(builtin("projection"), f_hess=lambda x: np.diag([-1e20, 1.0, 1.0]))
    calls = counted_factorizations(monkeypatch)
    _, trace = solve(p, np.zeros(3), np.zeros(3))
    assert trace.status is AlmStatus.INNER_FAILURE
    assert trace.message == "no Newton descent direction (iteration 0)"
    assert len(calls) == 80
    assert len(trace) == 1


def steep_sideways(c, b):
    """-g (b = -g) plus 1e12 times a unit vector orthogonal to g: the
    slope is -g'g < 0, but even the 2**-59 trial step raises the value."""
    v = np.roll(b, 1)
    v -= (v @ b) / (b @ b) * b
    return b + 1e12 * v / np.linalg.norm(v)


@pytest.mark.parametrize("newton_solve, message", [
    (lambda c, b: -b, "no Newton descent direction (iteration 0)"),  # g itself: ascent
    (steep_sideways, "line search failed at ||grad||="),
], ids=["ascent", "no-decrease"])
def test_solve_ends_in_inner_failure_on_a_bad_newton_step(newton_solve, message, monkeypatch):
    monkeypatch.setattr(alm, "cho_solve", newton_solve)
    _, trace = solve(builtin("projection"), np.zeros(3), np.zeros(3))
    assert trace.status is AlmStatus.INNER_FAILURE
    assert trace.message.startswith(message)


def solve_bytes(point, trace):
    """(status, message, x, lam, every trace row) of a solve, as bytes."""
    rows = zip(trace.xs, trace.lams, trace.rhos, trace.epss, trace.sigmas,
               trace.inner_iters, trace.grad_norms, trace.values)
    return (trace.status, trace.message, point.x.tobytes(), point.lam.tobytes(),
            [(x.tobytes(), lam.tobytes(), np.array(rest, dtype=float).tobytes())
             for x, lam, *rest in rows])


def zero_solve():
    """A planted (20,10) vertex solve from the origin: the shifted point
    stays inside -Q (V = I) for most Newton steps, and rho grows from 0.1
    to 10, which changes the Newton matrix rho G + S."""
    p = generate_planted(20, 10, ConeRegion.ZERO, 1)
    return p, np.zeros(20), np.zeros(11), AlmConfig(rho0=0.1)


def interior_solve():
    """A planted (20,10) InteriorQ solve from near its solution, with
    f_hess returning twice Hess f as one read-only array: inside Q (V = 0)
    each step halves the gradient, so the inner solve takes many steps on
    one Newton matrix."""
    p = generate_planted(20, 10, ConeRegion.INTERIOR_Q, 1)
    double = _read_only(2.0 * p.f_hess(p.known_solution.x))
    x0, _ = perturbed_start(p, 0.1, 1)
    return dataclasses.replace(p, f_hess=lambda x: double), x0, np.zeros(11), AlmConfig()


@pytest.mark.parametrize("make", [zero_solve, interior_solve], ids=["Zero", "InteriorQ"])
def test_a_repeated_newton_matrix_is_factored_once(make, monkeypatch):
    """Where V = alpha I and rho, G and S repeat, a Newton step solves
    with the kept factor; the solve is the one that factors every step."""
    p, x0, lam0, cfg = make()
    calls = counted_factorizations(monkeypatch)
    kept = solve(p, x0, lam0, cfg)
    steps = sum(kept[1].inner_iters)
    assert kept[1].status is AlmStatus.CONVERGED
    assert 0 < len(calls) < steps
    calls.clear()
    fresh = solve(fresh_twin(p), x0, lam0, cfg)
    assert len(calls) == steps
    assert solve_bytes(*kept) == solve_bytes(*fresh)


def test_a_gram_matrix_formed_again_drops_the_kept_factor(monkeypatch):
    """A writeable Jacobian forms G again at every evaluation, so each
    step inside -Q, where the Newton matrix is rho G + S, factors again,
    though S is one read-only matrix throughout."""
    p, x0, lam0, cfg = zero_solve()
    calls = counted_factorizations(monkeypatch)
    twin = solve(writeable_twin(p), x0, lam0, cfg)
    assert len(calls) == sum(twin[1].inner_iters) > 0
    assert solve_bytes(*twin) == solve_bytes(*solve(p, x0, lam0, cfg))


def test_a_factor_without_the_penalty_term_outlives_a_new_gram_matrix(monkeypatch):
    """Inside Q the Newton matrix is S alone, so the factor kept there
    still serves after a step outside both cones has formed G from the
    same JPhi."""
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, 0)
    x = np.zeros(3)

    def evaluation(shifted):
        lam = np.array(shifted) - p.phi_value(x)
        return AugEval(p, x.copy(), lam, 1.0).complete()

    calls = counted_factorizations(monkeypatch)
    state = alm.NewtonState()
    d = alm._newton_direction(evaluation([2.0, 0.5, 0.0]), state)
    kept = state.chol
    alm._newton_direction(evaluation([0.5, 2.0, 0.0]), state)
    assert state.G is not None and state.chol is kept
    # inside Q the polar projection is 0: the same gradient, the same step
    assert alm._newton_direction(evaluation([3.0, 0.0, 1.0]), state).tobytes() == d.tobytes()
    assert len(calls) == 2


def test_a_curvature_oracle_with_new_arrays_is_factored_every_step(monkeypatch):
    """example_3_2's phi_hess_contract returns a new array at every call,
    so S is formed again and no factor is reused."""
    calls = counted_factorizations(monkeypatch)
    _, trace = solve(builtin("example_3_2"), np.array([0.5, 0.5]), np.zeros(3))
    assert trace.status is AlmStatus.CONVERGED
    assert len(calls) == sum(trace.inner_iters) > 0


def test_a_kept_regularized_factor_gives_the_directions_of_a_new_one(monkeypatch):
    """f_hess returns one read-only matrix 30 below Hess f, so rho G + S
    is indefinite on ker JPhi at rho = 10 and every factor is of
    H + mu I with mu > 0; the kept factors give, bit for bit, the
    directions of the doubling loop run again at every step."""
    base = generate_planted(20, 10, ConeRegion.ZERO, 1)
    shifted_down = _read_only(base.f_hess(np.zeros(20)) - 30.0 * np.eye(20))
    p = dataclasses.replace(base, f_hess=lambda x: shifted_down)
    cfg = AlmConfig(max_outer=4, max_inner=30)
    cho_factor, cho_solve = alm.cho_factor, alm.cho_solve

    def run(q):
        outcomes, directions = [], []

        def factor(A):
            try:
                c = cho_factor(A)
            except scipy.linalg.LinAlgError:
                outcomes.append(False)
                raise
            outcomes.append(True)
            return c

        def solve_with(c, b):
            d = cho_solve(c, b)
            directions.append(d.tobytes())
            return d

        monkeypatch.setattr(alm, "cho_factor", factor)
        monkeypatch.setattr(alm, "cho_solve", solve_with)
        return outcomes, directions, solve(q, np.zeros(20), np.zeros(11), cfg)

    outcomes, directions, kept = run(p)
    fresh_outcomes, fresh_directions, fresh = run(fresh_twin(p))
    # every factorization succeeds only after H itself failed: mu > 0
    assert outcomes[0] is False
    assert all(not prev for prev, ok in zip(outcomes, outcomes[1:]) if ok)
    assert sum(outcomes) < len(directions) == sum(fresh_outcomes)
    assert directions == fresh_directions
    assert solve_bytes(*kept) == solve_bytes(*fresh)


@settings(max_examples=200)
@given(v=arrays(np.float64, st.integers(2, 40),
                elements=st.floats(-1e300, 1e300, allow_nan=False)))
@example(v=np.array([1e200, -1e200, 3.0]))   # v @ v overflows to inf
@example(v=np.array([0.0, -0.0]))
def test_dispatch_free_norms_equal_numpy_bitwise(v):
    """sqrt(v @ v), the hot path's norm, is np.linalg.norm bit for bit,
    overflow included; the cone kernels' `_norm` gives both norms, the
    same bits where the square is finite and the norm scaled by the
    largest entry where it overflows."""
    with np.errstate(over="ignore"):
        nrm, rnorm = np.linalg.norm(v), np.linalg.norm(v[1:])
        assert math.sqrt(v @ v).hex() == float(nrm).hex()
        assert math.sqrt(v[1:] @ v[1:]).hex() == float(rnorm).hex()
        got_nrm, got_rnorm = _norm(v), _norm(v[1:])
    for got, ref, w in ((got_nrm, nrm, v), (got_rnorm, rnorm, v[1:])):
        if math.isfinite(ref):
            assert got.hex() == float(ref).hex()
        else:
            assert math.isfinite(got)
            assert got == pytest.approx(math.hypot(*w), rel=1e-14)


def phi_zero_problem(n, m, seed):
    """The planted (n, m) BoundaryQNonzero problem of the seed with b
    replaced so that Phi(0) = 0: at x = 0 the shifted point is lam."""
    p = generate_planted(n, m, ConeRegion.BOUNDARY_Q_NONZERO, seed)
    x0 = np.zeros(n)
    return quadratic_problem(p.f_hess(x0), p.f_grad(x0), 0.0, p.phi_jac(x0), np.zeros(m + 1))


# shifted points (y0, v): on both boundaries (r = +-1 exactly, alpha = 0
# and 1), in `classify`'s tolerance band beyond them (inside Q and -Q by
# the projection's test), outside both cones, and inside Q and -Q
SIDES = {
    "r=+1": lambda v, c, delta: np.linalg.norm(v),
    "r=-1": lambda v, c, delta: -np.linalg.norm(v),
    "band+": lambda v, c, delta: np.linalg.norm(v) * (1.0 + delta),
    "band-": lambda v, c, delta: -np.linalg.norm(v) * (1.0 + delta),
    "outside": lambda v, c, delta: c * np.linalg.norm(v),
    "Q": lambda v, c, delta: 2.0 * np.linalg.norm(v),
    "-Q": lambda v, c, delta: -2.0 * np.linalg.norm(v),
}


def factor_sizes(calls):
    return [A.shape[0] for A in calls]


@settings(max_examples=300)
@given(seed=st.integers(0, 2**16), dims=st.sampled_from([(3, 1), (5, 2), (8, 4), (12, 7)]),
       side=st.sampled_from(list(SIDES)), c=st.floats(-0.99, 0.99),
       delta=st.floats(1e-15, 1e-12), log_rho=st.floats(-1.0, 8.0), log_a=st.floats(-2.0, 2.0))
@example(seed=0, dims=(5, 2), side="band+", c=0.0, delta=1e-12, log_rho=8.0, log_a=0.0)
def test_multiplier_form_direction_equals_the_dense_one(seed, dims, side, c, delta, log_rho,
                                                        log_a):
    """On every side, where V = alpha I (inside Q and -Q, the band sides
    included) as where it has its rank-2 term, the multiplier-space
    direction d agrees with the dense one through the Newton matrix:
    ||H (d - d_dense)|| <= 1e-12 ||H|| ||d_dense||.  (d - d_dense itself
    is up to cond(H) times that, about rho * 1e-16 relative, as between
    any two backward-stable solvers.)  On every side 0 <= alpha <= 1."""
    n, m = dims
    p = phi_zero_problem(n, m, seed)
    v = np.random.default_rng(seed).standard_normal(m) * 10.0 ** log_a
    rho, lam = 10.0 ** log_rho, np.r_[SIDES[side](v, c, delta), v]
    ev = AugEval(p, np.zeros(n), lam, rho).complete()
    assert ev.shifted.tobytes() == lam.tobytes()
    alpha, u, _ = parts = alm._polar_jacobian_parts(ev.shifted, ev.rnorm)
    assert (u is None) is (side in ("Q", "-Q", "band+", "band-"))
    assert 0.0 <= alpha <= 1.0
    state = alm.NewtonState()
    dense = alm._newton_direction(ev, state)   # n < REDUCED_MIN_N: the dense path
    assert state.reduced is None
    d = alm.MultiplierForm(state.curv[2], ev.jac).direction(rho, parts, ev.grad_x)
    H = aug_hessian(p, ev.x, ev.lam, rho)
    gap = np.linalg.norm(H @ (d - dense))
    assert gap <= 1e-12 * np.linalg.norm(H, 2) * np.linalg.norm(dense)


def test_steps_inside_q_and_minus_q_are_solved_in_the_multiplier_space(monkeypatch):
    """Above the size gate the form built at the first step serves the
    steps inside -Q (V = I) and Q (V = 0) too: the first step inside -Q
    at a rho factors I + rho K ((m+1) x (m+1)), the second at that rho
    factors nothing, and a step inside Q factors nothing.  Each gives the
    bits of a step from a fresh state, and no Gram matrix is formed.  A
    form first built at a step inside Q forms W and K with L."""
    n, m = alm.REDUCED_MIN_N + 10, 40
    p = phi_zero_problem(n, m, 5)
    rng = np.random.default_rng(5)

    def evaluation(y0_over_norm):
        v = rng.standard_normal(m)
        return AugEval(p, np.zeros(n), np.r_[y0_over_norm * np.linalg.norm(v), v],
                       10.0).complete()

    state = alm.NewtonState()
    alm._newton_direction(evaluation(2.0), state)   # inside Q
    form = state.reduced
    assert form is not None and form.W is not None
    alm._newton_direction(evaluation(0.2), state)   # outside both cones
    assert state.reduced is form and form.W is not None
    calls = counted_factorizations(monkeypatch)
    for y0_over_norm, factored in ((-2.0, [m + 1]), (-2.0, []), (2.0, [])):
        ev = evaluation(y0_over_norm)
        d = alm._newton_direction(ev, state)
        assert factor_sizes(calls) == factored
        assert state.reduced is form and state.G is None and state.chol is None
        calls.clear()
        assert d.tobytes() == alm._newton_direction(ev, alm.NewtonState()).tobytes()
        calls.clear()


def path_log(monkeypatch):
    """(steps, builds): per Newton step, whether V had a rank-2 term (a
    step outside both cones) and whether the step was solved in the
    multiplier space; and the number of MultiplierForm constructions,
    raised ones included."""
    steps, builds = [], []
    parts_of, init = alm._polar_jacobian_parts, alm.MultiplierForm.__init__
    direction = alm.MultiplierForm.direction

    def parts(y, rnorm):
        out = parts_of(y, rnorm)
        steps.append([out[1] is not None, False])
        return out

    def build(self, S, jac):
        builds.append(S.shape[0])
        init(self, S, jac)

    def reduced(self, rho, parts, grad):
        d = direction(self, rho, parts, grad)
        steps[-1][1] = d is not None
        return d

    monkeypatch.setattr(alm, "_polar_jacobian_parts", parts)
    monkeypatch.setattr(alm.MultiplierForm, "__init__", build)
    monkeypatch.setattr(alm.MultiplierForm, "direction", reduced)
    return steps, builds


@pytest.mark.parametrize("region", [ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                                    ConeRegion.INTERIOR_Q], ids=lambda r: r.value)
def test_the_multiplier_form_serves_every_step_of_a_large_solve(region, monkeypatch):
    """Above the size gate a solve builds the form at its first Newton
    step, factors S there and solves every step in the multiplier space:
    each later factorization is (m+1) x (m+1).  It ends within the
    benchmark's distance (1e-3) of the planted pair, in the outer and
    Newton steps of the dense solve."""
    n, m1 = 160, 41
    assert n >= alm.REDUCED_MIN_N
    p = generate_planted(n, m1 - 1, region, 2)
    x0, lam0 = np.zeros(n), np.zeros(m1)
    calls = counted_factorizations(monkeypatch)
    steps, builds = path_log(monkeypatch)
    point, trace = solve(p, x0, lam0)
    assert trace.status is AlmStatus.CONVERGED
    assert len(steps) == sum(trace.inner_iters) and all(reduced for _, reduced in steps)
    assert builds == [n]
    sizes = factor_sizes(calls)
    assert sizes[0] == n and set(sizes[1:]) == {m1}
    sol = p.known_solution
    assert np.linalg.norm(point.x - sol.x) + np.linalg.norm(point.lam - sol.lam) <= 1e-3
    monkeypatch.setattr(alm, "REDUCED_MIN_N", n + 1)
    calls.clear()
    _, dense = solve(p, x0, lam0)
    assert set(factor_sizes(calls)) == {n}
    assert len(dense) == len(trace) and dense.inner_iters == trace.inner_iters


@pytest.mark.parametrize("region", [ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                                    ConeRegion.INTERIOR_Q], ids=lambda r: r.value)
def test_a_large_solve_factors_one_n_by_n_matrix(region, monkeypatch):
    """A planted (400, 200) solve, the benchmark's largest, makes exactly
    one n x n factorization in every region, of S; its Newton steps
    factor only (m+1) x (m+1) matrices, and it converges."""
    n, m = 400, 200
    p = generate_planted(n, m, region, 1)
    calls = counted_factorizations(monkeypatch)
    _, trace = solve(p, np.zeros(n), np.zeros(m + 1))
    assert trace.status is AlmStatus.CONVERGED
    sizes = factor_sizes(calls)
    assert sizes.count(n) == 1 and sizes[0] == n
    assert set(sizes[1:]) <= {m + 1}


def _copied(p, read_only):
    """p with its f_hess, phi_jac and phi_hess_contract results copied into
    new arrays at every call, read-only or writeable."""
    def copy(oracle):
        def call(*args):
            out = np.array(oracle(*args))
            return _read_only(out) if read_only else out
        return call

    return dataclasses.replace(p, **{name: copy(getattr(p, name))
                                     for name in ("f_hess", "phi_jac", "phi_hess_contract")})


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("region", [ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                                    ConeRegion.INTERIOR_Q], ids=lambda r: r.value)
@pytest.mark.parametrize("m", [40, 80])
def test_read_only_results_that_change_take_the_steps_of_the_dense_path(m, region, seed,
                                                                       monkeypatch):
    """A curved problem's S and JPhi change at every Newton step.  Handed
    back read-only at n = 160 >= REDUCED_MIN_N, they are new at every call:
    the solve builds the multiplier form and takes the outer and Newton
    steps of the writeable (dense-path) solve, and both end within 1e-6 of
    the planted pair."""
    n = 160
    p = curved_problem(n, m, region, seed)
    sol = p.known_solution
    _, builds = path_log(monkeypatch)
    points, traces = zip(*(solve(_copied(p, read_only), np.zeros(n), np.zeros(m + 1))
                           for read_only in (True, False)))
    assert builds and builds == [n] * len(builds)
    assert traces[0].status is traces[1].status is AlmStatus.CONVERGED
    assert len(traces[0]) == len(traces[1]) and traces[0].inner_iters == traces[1].inner_iters
    for point in points:
        assert _norm(point.x - sol.x) + _norm(point.lam - sol.lam) <= 1e-6


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("region", [ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                                    ConeRegion.INTERIOR_Q], ids=lambda r: r.value)
@pytest.mark.parametrize("m", [40, 80])
def test_read_only_results_that_change_build_one_form_at_the_first_step(m, region, seed,
                                                                      monkeypatch):
    """A curved problem's read-only S and JPhi, new at every Newton step
    at n = 160, build one multiplier form, at the solve's first step, and
    no later step factors an (m+1) x (m+1) matrix: once S or JPhi changes,
    the dense path takes the rest of the solve."""
    n = 160
    p = _copied(curved_problem(n, m, region, seed), read_only=True)
    calls = counted_factorizations(monkeypatch)
    _, builds = path_log(monkeypatch)
    direction, steps = alm._newton_direction, []

    def step(ev, state):
        start = len(calls)
        d = direction(ev, state)
        steps.append((len(builds), factor_sizes(calls[start:])))
        return d

    monkeypatch.setattr(alm, "_newton_direction", step)
    _, trace = solve(p, np.zeros(n), np.zeros(m + 1))
    assert trace.status is AlmStatus.CONVERGED
    assert builds == [n] and steps[0][0] == 1
    assert len(steps) == sum(trace.inner_iters) > 1
    assert all(m + 1 not in sizes for _, sizes in steps[1:])


@pytest.mark.parametrize("region", [ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                                    ConeRegion.INTERIOR_Q], ids=lambda r: r.value)
def test_a_large_curved_problem_converges_from_read_only_and_writeable_results(region):
    """At (200, 100), with the curved problem's Hessian and Jacobian
    results handed back read-only (one multiplier form, then the dense
    path) or writeable (the dense path throughout), the solve from zero
    converges within 1e-6 of the planted pair in the same outer and Newton
    steps."""
    n, m = 200, 100
    p = curved_problem(n, m, region, 0)
    sol = p.known_solution
    points, traces = zip(*(solve(_copied(p, read_only), np.zeros(n), np.zeros(m + 1))
                           for read_only in (True, False)))
    assert traces[0].status is traces[1].status is AlmStatus.CONVERGED
    assert len(traces[0]) == len(traces[1]) and traces[0].inner_iters == traces[1].inner_iters
    for point in points:
        assert _norm(point.x - sol.x) + _norm(point.lam - sol.lam) <= 1e-6


@pytest.mark.parametrize("region, outside", [(ConeRegion.BOUNDARY_Q_NONZERO, True),
                                             (ConeRegion.ZERO, False)],
                         ids=["BoundaryQNonzero", "Zero"])
def test_a_multiplier_form_that_does_not_factor_leaves_the_step_to_the_dense_path(
        region, outside, monkeypatch):
    """Where I + U K U (a step outside both cones) or I + rho alpha K
    (V = alpha I) does not factor, MultiplierForm.direction returns None
    and the dense path takes the step.  With every (m+1) x (m+1)
    factorization failing, each solve reaches the branch it names and
    converges in the outer and Newton steps of the solve without the
    failures (9 and 13 outside both cones, 7 and 8 at the vertex)."""
    n, m = alm.REDUCED_MIN_N + 10, 40
    p = generate_planted(n, m, region, 1)
    _, unforced = solve(p, np.zeros(n), np.zeros(m + 1))
    factor, direction = alm.cho_factor, alm.MultiplierForm.direction
    failed, branches = [], set()

    def failing(A):
        if A.shape == (m + 1, m + 1):
            failed.append(A.shape)
            raise np.linalg.LinAlgError("forced")
        return factor(A)

    def logged(self, rho, parts, grad):
        before = len(failed)
        d = direction(self, rho, parts, grad)
        if len(failed) > before:
            assert d is None
            branches.add(parts[1] is not None)
        return d

    monkeypatch.setattr(alm, "cho_factor", failing)
    monkeypatch.setattr(alm.MultiplierForm, "direction", logged)
    _, forced = solve(p, np.zeros(n), np.zeros(m + 1))
    assert outside in branches
    assert forced.status is unforced.status is AlmStatus.CONVERGED
    assert len(forced) == len(unforced) and forced.inner_iters == unforced.inner_iters
    assert (len(forced) - 1, sum(forced.inner_iters)) == ((9, 13) if outside else (7, 8))


@pytest.mark.parametrize("case", ["below the gate", "example_3_2", "projection", "writeable_twin",
                                  "fresh_twin", "rewritten_twin", "indefinite S"])
def test_the_dense_path_serves_where_the_multiplier_form_does_not(case, monkeypatch):
    """Below the size gate, where S or JPhi is a new or writeable array at
    each step (example_3_2, the twins; the rewritten twin's JPhi is one
    writeable array, written again at each call), where m + 1 = n (projection) and
    where S is not positive definite, every factorization is n x n.  The
    gate is 1 in all but the first case, so that nothing else keeps these
    solves on the dense path."""
    if case == "below the gate":
        p = generate_planted(alm.REDUCED_MIN_N - 1, 40, ConeRegion.BOUNDARY_Q_NONZERO, 2)
    else:
        monkeypatch.setattr(alm, "REDUCED_MIN_N", 1)
        p = generate_planted(20, 5, ConeRegion.BOUNDARY_Q_NONZERO, 2)
    if case in ("example_3_2", "projection"):
        p = builtin(case)
    elif case == "writeable_twin":
        p = writeable_twin(p)
    elif case == "fresh_twin":
        p = fresh_twin(p)
    elif case == "rewritten_twin":
        p = rewritten_twin(p, "phi_jac")
    elif case == "indefinite S":
        shifted_down = _read_only(p.f_hess(np.zeros(p.n)) - 30.0 * np.eye(p.n))
        p = dataclasses.replace(p, f_hess=lambda x: shifted_down)
    calls = counted_factorizations(monkeypatch)
    steps, builds = path_log(monkeypatch)
    x0 = np.array([0.5, 0.5]) if case == "example_3_2" else np.zeros(p.n)
    solve(p, x0, np.zeros(p.m + 1), AlmConfig(max_outer=10))
    assert sum(outside for outside, _ in steps) >= 2
    assert not any(reduced for _, reduced in steps)
    assert set(factor_sizes(calls)) == {p.n}
    # S is factored once, and fails; the solve does not try again
    assert builds == ([p.n] if case == "indefinite S" else [])


@pytest.mark.parametrize("gate, builds_form", [(20, True), (21, False)])
def test_the_size_gate_admits_n_equal_to_it(gate, builds_form, monkeypatch):
    """The multiplier form serves n >= REDUCED_MIN_N: a planted (20, 5)
    solve builds it with the gate at 20 and not at 21."""
    monkeypatch.setattr(alm, "REDUCED_MIN_N", gate)
    p = generate_planted(20, 5, ConeRegion.BOUNDARY_Q_NONZERO, 2)
    _, builds = path_log(monkeypatch)
    _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1))
    assert trace.status is AlmStatus.CONVERGED
    assert builds == ([p.n] if builds_form else [])
