"""ALM driver: inner solves, multiplier updates, the outer loop and its
trace invariants."""

import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from socalm import (AlmConfig, AlmStatus, ConeRegion, InnerFailure, Proportional, builtin,
                    generate_planted, inner_solve, solve, update_multiplier)
from socalm import alm
from socalm.cone import _norm, classify, project_q
from socalm.lagrangian import AugEval, aug_hessian, aug_lagrangian, lagrangian_l, residual
from socalm.model import _read_only, quadratic_problem

from _util import (BAD_PENALTIES, BAD_TOLERANCES, CONE_VECTOR, MULTIPLIER, PRIMAL, counted,
                   fresh_twin, nan_at, rejected, rewritten_twin, writeable_twin)


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


@pytest.mark.parametrize("region", [ConeRegion.ZERO, ConeRegion.BOUNDARY_Q_NONZERO,
                                    ConeRegion.INTERIOR_Q])
def test_exact_rule_raises_the_penalty_where_the_residual_fails_to_halve(region):
    """Every exact inner solve ends at its rounding floor, so that stop
    does not hold rho: wherever the residual fails to halve, rho grows,
    and the planted (3, 2) problems of seeds 0-99 converge from zero."""
    cfg = AlmConfig(eps_rule=Proportional(0.0))
    for seed in range(100):
        p = generate_planted(3, 2, region, seed)
        _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1), cfg)
        assert trace.status is AlmStatus.CONVERGED
        for k in range(len(trace) - 1):
            if trace.sigmas[k + 1] > 0.5 * trace.sigmas[k]:
                assert trace.rhos[k + 1] == min(cfg.rho_max, cfg.rho_growth * trace.rhos[k])


@pytest.mark.parametrize("seed", [29, 158])
def test_vertex_solves_that_reach_the_rounding_floor_converge(seed):
    """On these planted (3, 2) Zero problems eps_k = 0.1 sigma falls below
    the gradient's rounding floor at rho = 1e6: the inner solve stops at
    the floor, rho is held there, and the multiplier updates converge.
    The plain ALM (memory = 0) reaches that floor; with the extrapolated
    shift these solves converge before rho does."""
    p = generate_planted(3, 2, ConeRegion.ZERO, seed)
    cfg = AlmConfig(rho0=10.0, eps_rule=Proportional(0.1), outer_tol=1e-9, memory=0)
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
    assert trace.message == "outer iteration 7 left x, lambda and rho=1e+08 unchanged"
    assert trace.rhos == [10.0 ** (k + 1) for k in range(8)] + [1e8]
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
@example(seed=1, region=ConeRegion.ZERO, n=3, m=2)  # two of its shifts are extrapolated
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


def _trace_digest(trace):
    """sha256 of the status, iterates, residuals and values of a trace."""
    h = hashlib.sha256(trace.status.value.encode())
    for row in trace.xs + trace.lams:
        h.update(row.tobytes())
    h.update(np.array(trace.sigmas).tobytes())
    h.update(np.array(trace.values).tobytes())
    return h.hexdigest()


PLAIN_PINS = [
    ((3, 2, ConeRegion.ZERO), "102ad0c6982a79c214c0cd82a48ead1c45b70e1d9f5d17b0b78921b1fb0ef676"),
    ((3, 2, ConeRegion.BOUNDARY_Q_NONZERO),
     "46e78fe7cdf993acf46dbb355101678dc8ddf067695788997b455df500e348bc"),
    ((3, 2, ConeRegion.INTERIOR_Q),
     "d0478d7dcba3bec58f564ebbf691b98eafce9306858960fafabf6a047a65f799"),
    ((20, 10, ConeRegion.ZERO), "0e511d5ab8664656097a8d09a0bd92bd18914f6b67d150f848849065ab92a20c"),
    ((20, 10, ConeRegion.BOUNDARY_Q_NONZERO),
     "33e5537d21aadf9c078a73a9a254b12dd257e7107af694d05a4e382507154265"),
    ((20, 10, ConeRegion.INTERIOR_Q),
     "eed77844a0097ae728723f3680d0711d1b50646a82aa6ab4ff4a09f40ad5b04a"),
    ("projection", "c1905b3b0bf613b10486ca032c935e9e4b2a9049d769b92bf6ebc13ff2e308bd"),
    ("example_3_2", "8f64eb173cd897609f7acc276f5d66070089afdf4ae95b20a80e64c366bfb5eb"),
]


@pytest.mark.parametrize("problem, digest", PLAIN_PINS, ids=lambda v: str(v)[:24])
def test_plain_alm_traces_are_pinned_byte_for_byte(problem, digest):
    """With memory = 0 the solve is the plain ALM: its traces from these
    starts hash to the bytes the ALM wrote before the extrapolated shift
    existed (numpy 2.4 and its OpenBLAS; planted problems of seed 1)."""
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
    zero, with the extrapolated shift as with the plain ALM, in 9.68 outer
    iterations on average against 16.58."""
    outer = {}
    for memory in (0, AlmConfig.memory):
        cfg = AlmConfig(memory=memory)
        outer[memory] = 0
        for seed in range(600):
            p = generate_planted(3, 2, ConeRegion.ZERO, seed)
            _, trace = solve(p, np.zeros(p.n), np.zeros(p.m + 1), cfg)
            assert trace.status is AlmStatus.CONVERGED
            outer[memory] += len(trace) - 1
    assert outer[AlmConfig.memory] < 0.65 * outer[0]


def test_vertex_solve_where_an_extrapolated_shift_stops_far_from_the_planted_pair():
    """A known fault, pinned so a safeguard shows: on this ill-conditioned
    planted (3, 2) Zero problem (the benchmark's solve-small seed 81, task
    169) an extrapolated shift ends the solve at rho = 10 with a residual
    below outer_tol, but 3.1e-3 from the planted multiplier; the plain ALM
    reaches rho = 1e7 and converges 6e-9 from it."""
    p = generate_planted(3, 2, ConeRegion.ZERO, 2105234341)
    sol = p.known_solution
    far = {}
    for memory in (0, AlmConfig.memory):
        _, trace = solve(p, np.zeros(3), np.zeros(3), AlmConfig(memory=memory))
        assert trace.status is AlmStatus.CONVERGED
        far[memory] = (len(trace) - 1, trace.rhos[-1], _norm(trace.lams[-1] - sol.lam))
    assert far[0][:2] == (48, 1e7) and far[0][2] < 1e-8
    assert far[AlmConfig.memory][:2] == (10, 10.0) and far[AlmConfig.memory][2] > 1e-3


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
    ALM steps and converges."""
    p = generate_planted(3, 2, ConeRegion.ZERO, 1)
    calls = []
    monkeypatch.setattr(alm, "_anderson_shift",
                        lambda history: calls.append(len(history)) or np.full(3, np.inf))
    _, trace = solve(p, np.zeros(3), np.zeros(3))
    _, plain = solve(p, np.zeros(3), np.zeros(3), AlmConfig(memory=0))
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
    # the second outer step does not halve the residual, so the penalty
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
    """Where V has its rank-2 term, the multiplier-space direction d
    agrees with the dense one through the Newton matrix:
    ||H (d - d_dense)|| <= 1e-12 ||H|| ||d_dense||.  (d - d_dense itself
    is up to cond(H) times that, about rho * 1e-16 relative, as between
    any two backward-stable solvers.)  On every side 0 <= alpha <= 1.
    Inside Q and -Q, the band sides included, V = alpha I and the step
    takes the dense path though the form is held: the dense direction bit
    for bit, with one n x n factorization and no (m+1) x (m+1) one."""
    n, m = dims
    p = phi_zero_problem(n, m, seed)
    v = np.random.default_rng(seed).standard_normal(m) * 10.0 ** log_a
    rho, lam = 10.0 ** log_rho, np.r_[SIDES[side](v, c, delta), v]
    ev = AugEval(p, np.zeros(n), lam, rho).complete()
    assert ev.shifted.tobytes() == lam.tobytes()
    alpha, u, _ = parts = alm._polar_jacobian_parts(ev.shifted)
    assert (u is None) is (side in ("Q", "-Q", "band+", "band-"))
    assert 0.0 <= alpha <= 1.0
    state = alm.NewtonState()
    dense = alm._newton_direction(ev, state)   # n < REDUCED_MIN_N: the dense path
    assert state.reduced is None
    form = alm.MultiplierForm(state.curv[2], ev.jac)
    if u is not None:
        d = form.direction(rho, parts, ev.grad_x)
        H = ev.hessian()
        gap = np.linalg.norm(H @ (d - dense))
        assert gap <= 1e-12 * np.linalg.norm(H, 2) * np.linalg.norm(dense)
        return
    calls = []
    cho_factor = alm.cho_factor

    def factor(A):
        calls.append(A.shape[0])
        return cho_factor(A)

    state.reduced, state.chol = form, None
    with mock.patch.object(alm, "cho_factor", factor):
        fallback = alm._newton_direction(ev, state)
    assert calls == [n]
    assert fallback.tobytes() == dense.tobytes()


def test_a_step_inside_minus_q_after_the_switch_is_dense_and_keeps_its_factor(monkeypatch):
    """Above the size gate, once steps outside both cones have moved to
    the multiplier space, a step inside -Q (V = I) factors rho G + S
    (n x n) and gives the bits of a step from a fresh state; the next
    step inside -Q at the same rho factors nothing and gives the bits of
    a fresh state too."""
    n, m = alm.REDUCED_MIN_N + 10, 40
    p = phi_zero_problem(n, m, 5)
    rng = np.random.default_rng(5)

    def evaluation(y0_over_norm):
        v = rng.standard_normal(m)
        return AugEval(p, np.zeros(n), np.r_[y0_over_norm * np.linalg.norm(v), v],
                       10.0).complete()

    state = alm.NewtonState()
    for _ in range(4):   # outside both cones
        alm._newton_direction(evaluation(0.2), state)
    form = state.reduced
    assert form is not None
    calls = counted_factorizations(monkeypatch)
    for factored in ([n], []):
        ev = evaluation(-2.0)
        d = alm._newton_direction(ev, state)
        assert factor_sizes(calls) == factored
        assert state.reduced is form
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

    def parts(y):
        out = parts_of(y)
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


def test_the_multiplier_form_starts_where_the_dense_steps_cost_its_setup(monkeypatch):
    """Above the size gate, a BoundaryQNonzero solve takes dense steps
    until those outside both cones have cost the flops of the set-up,
    factors S once and solves every later step in the multiplier space,
    in the outer and Newton steps of the dense solve and within the
    benchmark's distance (1e-3) of the planted pair."""
    n, m1 = 160, 41
    assert n >= alm.REDUCED_MIN_N
    p = generate_planted(n, m1 - 1, ConeRegion.BOUNDARY_Q_NONZERO, 2)
    x0, lam0 = np.zeros(n), np.zeros(m1)
    calls = counted_factorizations(monkeypatch)
    steps, builds = path_log(monkeypatch)
    point, trace = solve(p, x0, lam0)
    assert trace.status is AlmStatus.CONVERGED
    first = [reduced for _, reduced in steps].index(True)
    assert all(reduced for _, reduced in steps[first:])
    assert builds == [n] and steps[first][0]
    # the dense steps outside both cones before the first reduced step
    # paid for the set-up, and one fewer would not have
    paid = sum(outside for outside, _ in steps[:first])
    assert (paid - 1) * n ** 3 / 3 < alm._setup_flops(n, m1) <= paid * n ** 3 / 3
    # dense factorizations, then S, then only (m+1) x (m+1) ones
    sizes = factor_sizes(calls)
    start = sizes.index(m1)
    assert set(sizes[:start]) == {n} and set(sizes[start:]) == {m1}
    sol = p.known_solution
    assert np.linalg.norm(point.x - sol.x) + np.linalg.norm(point.lam - sol.lam) <= 1e-3
    monkeypatch.setattr(alm, "REDUCED_MIN_N", n + 1)
    calls.clear()
    _, dense = solve(p, x0, lam0)
    assert set(factor_sizes(calls)) == {n}
    assert len(dense) == len(trace) and dense.inner_iters == trace.inner_iters


@pytest.mark.parametrize("case", ["below the gate", "example_3_2", "projection", "writeable_twin",
                                  "fresh_twin", "rewritten_twin", "indefinite S"])
def test_the_dense_path_serves_where_the_multiplier_form_does_not(case, monkeypatch):
    """Below the size gate, where S or JPhi is a new or writeable array at
    each step (example_3_2, the twins; the rewritten twin's JPhi is one
    writeable array, written again at each call), where m + 1 = n (projection) and
    where S is not positive definite, every factorization is n x n.  The
    set-up is made free, and the gate is 1 in all but the first case, so
    that nothing else keeps these solves on the dense path."""
    monkeypatch.setattr(alm, "_setup_flops", lambda n, m1: 0.0)
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
