"""Error-bound, growth, rate and solvability diagnostics."""

import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socalm
from socalm import (AlmConfig, AlmStatus, ConeRegion, KktPoint, Proportional, SocpProblem,
                    builtin, certify_growth, check_sosc, diagnostics, dist_to_multiplier_set,
                    estimate_rate, example32_ratio, generate_planted, inner_solve,
                    jacobian_project_polar, quadratic_problem, solvability_estimate, solve,
                    verify_error_bound)
from socalm.cli import main
from socalm.alm import AlmTrace
from socalm.cone import _norm
from socalm.diagnostics import _ball_rows, dist_to_known_pair
from socalm.lagrangian import residual
from socalm.variational import _growth, _growth_pair, _kkt_data, _kkt_pairs, _solvability

from _util import (BAD_PENALTIES, BAD_SEEDS, MULTIPLIER, counted, nan_at,
                   negative_curvature_problem, rejected, rewritten_twin, uniform_ball)


def test_dist_to_multiplier_set_point_case():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    sol = p.known_solution
    assert dist_to_multiplier_set(p, sol.lam) == 0.0
    shift = np.array([0.1, -0.2, 0.3])
    assert dist_to_multiplier_set(p, sol.lam + shift) == pytest.approx(np.linalg.norm(shift))


def test_dist_to_multiplier_set_ray_case():
    p = builtin("example_3_2")
    sol = p.known_solution
    assert dist_to_multiplier_set(p, sol.lam) <= 1e-15
    assert dist_to_multiplier_set(p, 2.0 * sol.lam) <= 1e-15
    for t in (0.5, 0.9):
        lam_t = np.array([-1.0, t, math.sqrt(1.0 - t * t)])
        expected = math.sqrt((3.0 - 2.0 * t - t * t) / 2.0)
        assert dist_to_multiplier_set(p, lam_t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("problem", [generate_planted(4, 2, ConeRegion.ZERO, seed=1),
                                     builtin("example_3_2")], ids=["point", "ray"])
def test_dist_to_known_pair_is_numpy_norm_bit_for_bit(problem):
    """Where no square overflows, both distances are the bits of numpy's
    norm of x - xbar and of the multiplier set's row path."""
    sol, rng = problem.known_solution, np.random.default_rng(4)
    for scale in 10.0 ** np.arange(-8, 9, 4):
        x = sol.x + scale * rng.standard_normal(problem.n)
        lam = sol.lam + scale * rng.standard_normal(problem.m + 1)
        rows = dist_to_multiplier_set(problem, np.vstack([lam, lam]))
        assert dist_to_known_pair(problem, x, lam) == (float(np.linalg.norm(x - sol.x)),
                                                       float(rows[0]))


def test_dist_to_known_pair_scales_a_square_that_overflows():
    p = builtin("interior_trivial")
    assert dist_to_known_pair(p, np.array([3e200, 4e200]), np.array([-1e200, 0.0])) == (
        pytest.approx(5e200, rel=1e-15), 1e200)


def test_dist_requires_known_solution():
    from _util import constant_phi_problem
    with pytest.raises(ValueError):
        dist_to_multiplier_set(constant_phi_problem([1.0, 0.0]), np.zeros(2))


def test_example32_ratio_values():
    dist2, grad2, ratio = example32_ratio(0.8)
    assert dist2 == pytest.approx(0.38, abs=1e-15)
    assert grad2 == pytest.approx(0.04, abs=1e-15)
    assert ratio == pytest.approx(9.5, rel=1e-12)
    # the ratio blows up towards t = 1
    values = [example32_ratio(t)[2] for t in (0.5, 0.9, 0.99, 0.999)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 1e3


def test_example32_ratio_rejects_edges():
    for t in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            example32_ratio(t)


def test_error_bound_stable_on_planted_problem():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    rep = verify_error_bound(p, 1e-2, 200, seed=7)
    rep_small = verify_error_bound(p, 1e-3, 200, seed=7)
    assert not rep.failed
    assert rep.kappa2_hat < math.inf
    ratio = rep_small.kappa1_hat / rep.kappa1_hat
    assert 0.1 <= ratio <= 10.0


def test_error_bound_fails_on_example32():
    rep = verify_error_bound(builtin("example_3_2"), 1e-2, 200, seed=7)
    assert rep.failed
    assert rep.kappa2_hat < math.inf


def test_error_bound_degenerate_report():
    p = generate_planted(3, 2, ConeRegion.INTERIOR_Q, seed=1)
    for samples in (0, -3):  # an empty sample would pass vacuously
        with pytest.raises(ValueError, match="samples"):
            verify_error_bound(p, 1e-2, samples, seed=0)


def test_error_bound_rejects_a_sampled_point_whose_space_norm_overflows():
    """Phi(x) = (0, 1.2e308 + 3e307 x, 1.2e308 + 3e307 x) has finite entries
    over the unit ball, but ||Phi_r|| passes the largest float for x above
    about 0.24: the sampler stops with NonFiniteError there instead of
    skipping the NaN residual of that row."""
    p = quadratic_problem(np.eye(1), np.zeros(1), 0.0, [[0.0], [3e307], [3e307]],
                          [0.0, 1.2e308, 1.2e308],
                          known_solution=KktPoint(np.zeros(1), np.zeros(3)))
    with pytest.raises(socalm.NonFiniteError, match="overflows"):
        verify_error_bound(p, 1.0, 50, seed=0)


def test_error_bound_rejects_a_sampled_point_that_is_not_finite(capsys):
    """At a radius near the largest float, Phi(x) + lam overflows at the
    sampled points: the sampler stops with NonFiniteError, and no
    floating-point warning is raised or printed on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(socalm.NonFiniteError, match=r"non-finite point Phi\(x\)\+lam"):
            verify_error_bound(builtin("projection"), 1.7e308, 20, 0)
    assert capsys.readouterr() == ("", "")


def test_growth_positive_on_planted_sosc_problem():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    rep = certify_growth(p, [1.0, 10.0])
    assert rep.ell_hat > 0.0
    assert rep.uniform


def test_growth_negative_without_sosc():
    neg = negative_curvature_problem()
    rep = certify_growth(neg, [1.0, 1e2, 1e4, 1e6])
    assert rep.ell_hat <= 0.0
    assert not rep.uniform


@pytest.mark.parametrize("rho", [1.0, 10.0, 100.0, 1e6])
def test_growth_uniform_on_multiplier_ray(rho):
    """example_3_2's multipliers c (-1, 1, 0), c in [0.5, 1.5] around lambar
    (c = 1): the penalty acts on no direction of the critical ray, so
    ell(c) = min(c, 1) at every rho and the minimum 0.5 is the low end's."""
    rep = certify_growth(builtin("example_3_2"), [rho])
    assert (rep.ell_hat, rep.rho_used, rep.multipliers, rep.uniform) == (0.5, rho, 3, True)


def test_growth_calls_each_oracle_at_xbar_once():
    """lambar and the two ends of example_3_2's ray: phi_hess_contract runs
    once per multiplier and every other oracle once."""
    p, calls = counted(builtin("example_3_2"))
    rep = certify_growth(p, [1.0, 10.0, 100.0])
    assert (rep.rho_used, rep.uniform) == (1.0, True)
    assert rep.ell_hat == pytest.approx(0.5, rel=1e-14)
    assert dict(calls) == {"phi_value": 1, "phi_jac": 1, "f_grad": 1, "f_hess": 1,
                           "phi_hess_contract": 3}


def test_growth_where_the_ray_interval_reaches_zero():
    """A known multiplier 0.1 (-1, 1, 0) puts the low end at c = 0, where
    the critical cone is all of Q and example_3_2's curvature in x1, 2c,
    is gone: the modulus is 0, as its limit from c > 0 is."""
    p = builtin("example_3_2")
    p = dataclasses.replace(p, known_solution=KktPoint(np.zeros(2), 0.1 * p.multiplier_ray))
    rep = certify_growth(p, [1.0, 100.0])
    assert (rep.ell_hat, rep.rho_used, rep.multipliers, rep.uniform) == (0.0, 1.0, 3, False)


def test_growth_takes_the_problem_and_penalties_only():
    assert list(inspect.signature(certify_growth).parameters) == ["p", "rho_list"]
    with pytest.raises(ValueError, match="rho_list must not be empty"):
        certify_growth(builtin("example_3_2"), [])


def _ray_family(F, G, a, c_bar):
    """f = x'Fx/2 and Phi = (a'x - x'Gx/2, a'x, 0) at xbar = 0, example_3_2
    for F = diag(0, 2), G = diag(2, 0) and a = e2: the multiplier set is
    the ray R_+ d, d = (-1, 1, 0), and at lam = c d the Hessian of the
    Lagrangian is F + cG.  The known multiplier is c_bar d."""
    n, d = a.size, np.array([-1.0, 1.0, 0.0])
    return SocpProblem(
        n=n, m=2, f_value=lambda x: 0.5 * float(x @ F @ x), f_grad=lambda x: F @ x,
        f_hess=lambda x: F,
        phi_value=lambda x: np.array([a @ x - 0.5 * x @ G @ x, a @ x, 0.0]),
        phi_jac=lambda x: np.vstack([a - G @ x, a, np.zeros(n)]),
        phi_hess_contract=lambda x, lam: -lam[0] * G,
        name="ray_family", known_solution=KktPoint(np.zeros(n), c_bar * d), multiplier_ray=d)


@pytest.mark.parametrize("rho", [1.0, 100.0])
def test_growth_on_a_ray_is_its_minimum_over_the_interval(rho):
    """On the ray family with F = R'R + I and G = +-(S + S'), certify_growth
    equals the least modulus of a 101-point grid of [c_lo, c_hi], which it
    reads only at the two ends; the drawn examples put that least modulus
    at the low end in some and at the high end in others."""
    ends = set()

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**20), n=st.integers(1, 5), c_bar=st.floats(0.05, 3.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def check(seed, n, c_bar, sign):
        rng = np.random.default_rng(seed)
        R, S = rng.standard_normal((2, n, n))
        p = _ray_family(R.T @ R + np.eye(n), sign * (S + S.T), rng.standard_normal(n), c_bar)
        d = p.multiplier_ray
        eps = max(0.5 * float(np.linalg.norm(c_bar * d)), 0.25) / float(np.linalg.norm(d))
        grid = np.linspace(max(0.0, c_bar - eps), c_bar + eps, 101)
        pairs = _kkt_data(p, np.zeros(n), grid[:, None] * d)
        ells = [_growth_pair(*pair, rho)[0] for pair in pairs]
        assert certify_growth(p, [rho]).ell_hat == pytest.approx(min(ells), rel=1e-12)
        if ells[0] != ells[-1]:
            ends.add("low" if ells[0] < ells[-1] else "high")

    check()
    assert ends == {"low", "high"}


def test_growth_monotone_in_rho():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=2)
    ells = [certify_growth(p, [rho]).ell_hat for rho in (0.5, 1.0, 4.0, 16.0)]
    for a, b in zip(ells, ells[1:]):
        assert b >= a - 1e-10


def test_estimate_rate_guards_and_jump():
    p = generate_planted(3, 2, ConeRegion.INTERIOR_Q, seed=1)
    sol = p.known_solution
    # interior problems jump to the solution: the ratio list collapses
    cfg = AlmConfig(rho0=10.0, outer_tol=1e-11, max_outer=20)
    rng = np.random.default_rng(2)
    x0 = sol.x + 1e-3 * rng.standard_normal(p.n)
    _, trace = solve(p, x0, sol.lam, cfg)
    assert trace.status is AlmStatus.CONVERGED
    if len(trace) >= 3:
        qs, geomean = estimate_rate(trace, p)
        assert geomean == 0.0 or geomean <= 0.5
        assert all(q > 0 for q in qs)


def test_estimate_rate_requires_iterations():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    sol = p.known_solution
    _, trace = solve(p, sol.x, sol.lam, AlmConfig(outer_tol=1e-10))
    with pytest.raises(ValueError):
        estimate_rate(trace, p)


def test_estimate_rate_on_a_trace_at_the_solution_is_empty():
    p = builtin("projection")
    trace = AlmTrace()
    for _ in range(3):
        trace.append(p.known_solution.x, p.known_solution.lam, 10.0, 0.0, 0.0, 0, 0.0, 0.0)
    assert estimate_rate(trace, p) == ([], 0.0)


def test_estimate_rate_from_two_rows_is_their_one_ratio():
    p = builtin("projection")
    sol = p.known_solution
    trace = AlmTrace()
    for scale in (0.5, 0.125):
        trace.append(sol.x + scale, sol.lam, 10.0, 0.0, 0.0, 0, 0.0, 0.0)
    assert estimate_rate(trace, p) == ([0.25], 0.25)


def test_estimate_rate_linear_regime():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    rng = np.random.default_rng(42)
    step = rng.standard_normal(p.n + p.m + 1)
    step *= 1e-2 / np.linalg.norm(step)
    sol = p.known_solution
    cfg = AlmConfig(rho0=100.0, rho_growth=1.0, rho_max=100.0,
                    eps_rule=Proportional(0.1), outer_tol=1e-9, max_outer=50)
    _, trace = solve(p, sol.x + step[:p.n], sol.lam + step[p.n:], cfg)
    assert trace.status is AlmStatus.CONVERGED
    qs, geomean = estimate_rate(trace, p)
    assert qs, "expected a nonempty contraction list"
    assert geomean <= 0.5


# The exact solvability modulus against the inner solver: along the top
# singular direction of the largest piece the subproblem solution attains
# it, and no sampled multiplier exceeds it.

def _zero_only_pair():
    """A ZeroOnly pair (Phi(xbar) = 0, lambar inside -Q) with P = diag(-1, 1)
    and J'J = I: sufficiency holds (ker J = 0), but H + rho J'J = diag(rho - 1,
    rho + 1) is positive definite only for rho > 1; at rho = 10 the modulus is
    ||diag(1/9, 1/11) J'|| = 1/9."""
    A, lam = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.array([-2.0, 0.5, 0.0])
    return quadratic_problem(np.diag([-1.0, 1.0]), -A.T @ lam, 0.0, A, np.zeros(3),
                             name="zero_only", known_solution=KktPoint(np.zeros(2), lam))


SOLVABILITY_PROBLEMS = [
    *[builtin("projection", a=a)
      for a in ((0.0, 2.0, 0.0), (1.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (-2.0, 1.0, 0.0))],
    builtin("example_3_2"),
    *[generate_planted(n, m, region, seed=1) for n, m in ((3, 2), (20, 10))
      for region in (ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO, ConeRegion.INTERIOR_Q)],
]
SOLVABILITY_CASES = [pytest.param(p, rho, id=f"{p.name}-{p.n}-{i}-rho{rho:g}")
                     for i, p in enumerate(SOLVABILITY_PROBLEMS) for rho in (1.0, 10.0)]
SOLVABILITY_CASES.append(pytest.param(_zero_only_pair(), 10.0, id="zero_only-rho10"))


def _reference_pieces(p, rho):
    """(H + rho J'VJ)^-1 J'V on each piece V, with V_out taken from
    `jacobian_project_polar` at y itself: on these problems a boundary y
    lies exactly on the boundary, where it returns the outside limit."""
    sol = p.known_solution
    [(H, J, K)] = _kkt_data(p, sol.x, [sol.lam])
    y, eye = rho * K.base_point + K.multiplier, np.eye(p.m + 1)
    pieces = {"FullSpace": [], "ZeroOnly": [eye], "Hyperplane": [jacobian_project_polar(y)],
              "HalfSpace": [jacobian_project_polar(y)],
              "Ray": [jacobian_project_polar(y), eye]}[K.case.value]
    return [np.linalg.solve(H + rho * (J.T @ V @ J), J.T @ V) for V in pieces]


def _solution_ratio(p, rho, dlam):
    """||x(lambar + dlam) - xbar|| / ||dlam||, x from an exact inner solve."""
    sol = p.known_solution
    x = inner_solve(p, sol.lam + dlam, rho, sol.x, 0.0)[0]
    return float(np.linalg.norm(x - sol.x) / np.linalg.norm(dlam))


@pytest.mark.parametrize("p, rho", SOLVABILITY_CASES)
def test_solvability_modulus_is_attained_by_the_inner_solve(p, rho):
    """Along +-v at t = 1e-6, v the top singular vector of the largest
    piece, the better inner-solve ratio is the modulus to 1e-5 relative."""
    modulus = solvability_estimate(p, rho)
    pieces = _reference_pieces(p, rho)
    norms = [np.linalg.norm(D, 2) for D in pieces]
    assert modulus == pytest.approx(max(norms, default=0.0), rel=1e-12, abs=0.0)
    if not pieces:  # FullSpace: x(lam) = xbar near lambar
        assert modulus == 0.0
        return
    v = np.linalg.svd(pieces[int(np.argmax(norms))])[2][0]
    best = max(_solution_ratio(p, rho, sign * 1e-6 * v) for sign in (1.0, -1.0))
    assert best == pytest.approx(modulus, rel=1e-5)


@pytest.mark.parametrize("p, rho", SOLVABILITY_CASES)
def test_no_sampled_multiplier_exceeds_the_solvability_modulus(p, rho):
    modulus = solvability_estimate(p, rho)
    steps = uniform_ball(np.random.default_rng(5), 200, p.m + 1, 1e-3)
    assert max(_solution_ratio(p, rho, step) for step in steps) <= modulus * (1.0 + 1e-6)


def test_solvability_estimate_samples_nothing(monkeypatch):
    """The modulus reads each oracle once at xbar; it draws no random number
    and calls no inner solve."""
    expected = [solvability_estimate(p, 10.0) for p in SOLVABILITY_PROBLEMS]

    def refuse(*args, **kwargs):
        raise AssertionError("solvability_estimate sampled")

    monkeypatch.setattr(diagnostics, "inner_solve", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert [solvability_estimate(p, 10.0) for p in SOLVABILITY_PROBLEMS] == expected
    p, calls = counted(builtin("example_3_2"))
    solvability_estimate(p, 10.0)
    assert dict(calls) == {"phi_value": 1, "phi_jac": 1, "f_grad": 1, "f_hess": 1,
                           "phi_hess_contract": 1}


def test_solvability_estimate_not_applicable_without_growth():
    """NaN unless the growth modulus at rho is positive: without sufficiency
    at any rho, and on the ZeroOnly pair below its growth threshold rho = 1."""
    assert math.isnan(solvability_estimate(negative_curvature_problem(), 10.0))
    p = _zero_only_pair()
    assert check_sosc(p, p.known_solution.x, p.known_solution.lam).holds
    assert math.isnan(solvability_estimate(p, 0.5))
    assert solvability_estimate(p, 10.0) == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_solvability_estimate_on_the_whole_cone_raises():
    with pytest.raises(ValueError, match="infinitely many pieces"):
        solvability_estimate(builtin("projection", a=(0.0, 0.0, 0.0)), 10.0)


@pytest.mark.parametrize("rho", [0.3, 7.0, 1e3])
def test_solvability_on_a_boundary_does_not_depend_on_rounding(rho):
    """Projection onto Q from a point a on its boundary: a HalfSpace pair, H =
    J = I, whose one nonzero piece P/(1 + rho) has norm 1/(1 + rho).  For
    some a the shifted point y = rho xbar + lambar rounds strictly inside Q,
    where the Jacobian at y is 0; the pieces come from the cone's normal, so
    the modulus does not drop to 0 there."""
    rng, inside = np.random.default_rng(11), 0
    for _ in range(40):
        r = rng.standard_normal(4)
        p = builtin("projection", a=np.r_[_norm(r), r])
        sol = p.known_solution
        inside += not jacobian_project_polar(rho * sol.x + sol.lam).any()
        assert solvability_estimate(p, rho) == pytest.approx(1.0 / (1.0 + rho), rel=1e-12)
    assert inside > 0


# the profile's example count: 100 in the suite, 2,000 under socalm-fuzz (conftest.py)
@given(size=st.sampled_from([(3, 2), (20, 10)]), seed=st.integers(0, 2**16),
       region=st.sampled_from([ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO,
                               ConeRegion.ZERO]))
def test_the_pair_a_solve_returns_certifies_as_the_planted_one(size, seed, region):
    """The second-order moduli take any KKT pair: at the (x, lam) a solve
    from zero returns, the critical-cone case is the planted pair's, and the
    SOSC modulus, the growth modulus at rho = 10 and the solvability modulus
    at rho = 10 agree with the planted pair's to 1e-6 relative."""
    n, m = size
    p = generate_planted(n, m, region, seed)
    point, trace = solve(p, np.zeros(n), np.zeros(m + 1))
    assert trace.status is AlmStatus.CONVERGED
    x, lam, sol = point.x, point.lam, p.known_solution
    assert (_kkt_pairs(p, x, [lam])[3][0].case
            is _kkt_pairs(p, sol.x, [sol.lam])[3][0].case)
    sosc, sosc_bar = check_sosc(p, x, lam), check_sosc(p, sol.x, sol.lam)
    assert sosc.holds is sosc_bar.holds
    assert sosc.modulus == pytest.approx(sosc_bar.modulus, rel=1e-6)
    growth, growth_bar = _growth(p, x, [lam], [10.0]), certify_growth(p, [10.0])
    assert (growth.rho_used, growth.multipliers, growth.uniform) == (
        growth_bar.rho_used, growth_bar.multipliers, growth_bar.uniform)
    assert growth.ell_hat == pytest.approx(growth_bar.ell_hat, rel=1e-6)
    assert _solvability(p, x, lam, 10.0) == pytest.approx(solvability_estimate(p, 10.0),
                                                          rel=1e-6)


def test_reports_serialize(tmp_path):
    """A check report is the report's fields after the command and problem."""
    # builtin:scaled_quadratic with seed 1 is the planted (3, 2) problem below
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    problem = ["--problem", "builtin:scaled_quadratic", "--seed", "1"]
    eb_path, gr_path = tmp_path / "eb.json", tmp_path / "gr.json"
    main(["check", "errorbound", *problem, "--radius", "1e-2", "--samples", "50",
          "--report", str(eb_path)])
    main(["check", "growth", *problem, "--rho-list", "1", "--report", str(gr_path)])
    eb = json.loads(eb_path.read_text())
    assert set(eb) == {"command", "problem",
                       "kappa1_hat", "kappa2_hat", "ball_radius", "samples", "failed"}
    assert eb == {"command": "check errorbound", "problem": "scaled_quadratic_1",
                  **dataclasses.asdict(verify_error_bound(p, 1e-2, 50, seed=1))}
    gr = json.loads(gr_path.read_text())
    assert set(gr) == {"command", "problem",
                       "rho_used", "ell_hat", "multipliers", "uniform"}
    assert gr == {"command": "check growth", "problem": "scaled_quadratic_1",
                  **dataclasses.asdict(certify_growth(p, [1.0]))}


@pytest.mark.parametrize("call, message", [
    # every penalty of the list is checked, not only the first
    *rejected("certify_growth", "rho", BAD_PENALTIES,
              lambda v: certify_growth(builtin("projection"), [1.0, v]),
              "rho must be positive"),
    *rejected("solvability_estimate", "rho", BAD_PENALTIES,
              lambda v: solvability_estimate(builtin("projection"), v),
              "rho must be positive"),
    # sample counts are integers, tested before their range, so that
    # None and a string are rejected by name rather than by a TypeError
    *rejected("verify_error_bound", "samples", (2.5, True, None, "2"),
              lambda v: verify_error_bound(builtin("projection"), 1e-2, v, 1),
              "samples must be an integer"),
    # a seed is a nonnegative integer
    *rejected("verify_error_bound", "seed", BAD_SEEDS,
              lambda v: verify_error_bound(builtin("projection"), 1e-2, 5, v), "seed must be"),
    # a multiplier, one vector or the rows of an array, is finite
    *rejected("dist_to_multiplier_set", "lam", [nan_at([0.0, 0.0, 0.0])],
              lambda v: dist_to_multiplier_set(builtin("projection"), v), MULTIPLIER),
    *rejected("dist_to_multiplier_set", "lam_rows", [[np.zeros(3), nan_at(np.zeros(3), 2)]],
              lambda v: dist_to_multiplier_set(builtin("example_3_2"), v), MULTIPLIER),
])
def test_diagnostics_reject_a_bad_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("radius", [0.0, -1e-2, math.inf, math.nan])
@pytest.mark.parametrize("samples", [0, 50])
def test_error_bound_rejects_degenerate_radius(radius, samples):
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    with pytest.raises(ValueError, match="radius"):
        verify_error_bound(p, radius, samples, seed=1)


def test_kappa2_matches_lipschitz_bound_locally():
    """The residual itself is Lipschitz: kappa2_hat stays modest."""
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=9)
    rep = verify_error_bound(p, 1e-2, 100, seed=2)
    sol = p.known_solution
    assert residual(p, sol.x, sol.lam) <= 1e-10
    assert rep.kappa2_hat <= 1e3


# The per-point sampler the batched one replaced, kept as the reference:
# one draw and one residual at a time.

def _kappa_sups_one_point_at_a_time(p, radius, samples, rng):
    sol = p.known_solution
    draws = uniform_ball(rng, samples, p.n + p.m + 1, radius)
    points = [(sol.x + step[:p.n], sol.lam + step[p.n:]) for step in draws]
    if p.hard_path is not None:
        points += [p.hard_path(scale) for scale in (radius, radius / 2.0, radius / 4.0)]
    kappa1 = kappa2 = 0.0
    for x, lam in points:
        sigma = residual(p, x, lam)
        dist_sum = float(np.linalg.norm(np.asarray(x) - sol.x)) + dist_to_multiplier_set(p, lam)
        if sigma > 1e-15:
            kappa1 = max(kappa1, dist_sum / sigma)
        if dist_sum > 1e-15:
            kappa2 = max(kappa2, sigma / dist_sum)
    return draws, kappa1, kappa2


def _error_bound_one_point_at_a_time(p, radius, samples, seed):
    rng = np.random.default_rng(seed)
    draws, kappa1, kappa2 = _kappa_sups_one_point_at_a_time(p, radius, samples, rng)
    draws_small, kappa1_small, _ = _kappa_sups_one_point_at_a_time(p, radius / 10.0,
                                                                   samples, rng)
    failed = kappa1_small > 10.0 * kappa1 if kappa1 > 0 else kappa1_small > 0
    return np.array(draws + draws_small), (kappa1, kappa2, failed)


SAMPLER_CASES = [
    *[("planted", n, m, region) for n, m in ((3, 2), (20, 10))
      for region in (ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO, ConeRegion.INTERIOR_Q)],
    ("example_3_2",), ("negative_curvature",),
]


def _sampler_problem(case, seed):
    if case[0] == "planted":
        return generate_planted(case[1], case[2], case[3], seed)
    return builtin("example_3_2") if case[0] == "example_3_2" else negative_curvature_problem()


def _close(a, b):
    return abs(a - b) <= 1e-12 * abs(b)


def _assert_same_draws(rows, draws):
    # one row's norm and the norms of all rows at once may round apart
    np.testing.assert_allclose(rows, draws, rtol=4 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("case", SAMPLER_CASES, ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize("seed", [1, 2])
def test_batched_samplers_match_one_point_at_a_time(case, seed):
    """Same draws to rounding, same verdict, constants within 1e-12."""
    p = _sampler_problem(case, seed)
    dim = p.n + p.m + 1
    draws, (kappa1, kappa2, failed) = _error_bound_one_point_at_a_time(p, 1e-2, 60, seed)
    rng = np.random.default_rng(seed)
    rows = np.vstack([_ball_rows(rng, 60, dim, 1e-2), _ball_rows(rng, 60, dim, 1e-3)])
    _assert_same_draws(rows, draws)
    rep = verify_error_bound(p, 1e-2, 60, seed)
    assert rep.failed == failed
    assert _close(rep.kappa1_hat, kappa1) and _close(rep.kappa2_hat, kappa2)


@pytest.mark.parametrize("oracle", ["phi_value", "phi_jac", "f_grad"])
def test_samplers_keep_each_result_of_an_oracle_that_rewrites_one_buffer(oracle):
    p = builtin("example_3_2")
    twin = rewritten_twin(p, oracle)
    assert verify_error_bound(twin, 1e-2, 200, 0) == verify_error_bound(p, 1e-2, 200, 0)
    assert certify_growth(twin, [1.0, 10.0]) == certify_growth(p, [1.0, 10.0])


class _ZeroRows:
    """Generator stand-in whose normal draw has the given rows set to zero."""

    def __init__(self, seed, zero_rows=(0,)):
        self.rng, self.zero_rows = np.random.default_rng(seed), list(zero_rows)

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        out[self.zero_rows] = 0.0
        return out

    def random(self, size):
        return self.rng.random(size)


def test_zero_normal_draw_gives_the_zero_row():
    rows = _ball_rows(_ZeroRows(3), 5, 4, 0.5)
    _assert_same_draws(rows, np.array(uniform_ball(_ZeroRows(3), 5, 4, 0.5)))
    assert np.all(rows[0] == 0.0) and np.all(np.linalg.norm(rows[1:], axis=1) > 0.0)


@settings(max_examples=200)
@given(k=st.integers(0, 40), dim=st.integers(1, 40),
       radius=st.floats(1e-100, 1e100), seed=st.integers(0, 2**32 - 1),
       zero_rows=st.sets(st.integers(0, 39), max_size=5))
def test_ball_rows_lie_in_the_ball_and_repeat_by_seed(k, dim, radius, seed, zero_rows):
    rows = _ball_rows(np.random.default_rng(seed), k, dim, radius)
    assert rows.shape == (k, dim)
    # 8 eps: the rounding of a row's scale and of its computed norm
    assert np.all(np.linalg.norm(rows, axis=1) <= radius * (1.0 + 8.0 * np.finfo(float).eps))
    assert rows.tobytes() == _ball_rows(np.random.default_rng(seed), k, dim, radius).tobytes()
    zero_rows = sorted(i for i in zero_rows if i < k)
    zeroed = _ball_rows(_ZeroRows(seed, zero_rows), k, dim, radius)
    kept = np.setdiff1d(np.arange(k), zero_rows)
    assert np.all(zeroed[zero_rows] == 0.0)
    assert zeroed[kept].tobytes() == rows[kept].tobytes()


@pytest.mark.parametrize("dim", [1, 3, 31])
def test_ball_rows_are_uniform_in_the_radius(dim):
    """Half the volume of a ball lies within radius 2**(-1/dim): the share
    of 4,000 rows there is 1/2 to within 4 binomial standard deviations."""
    k, radius = 4000, 0.3
    rows = _ball_rows(np.random.default_rng(dim), k, dim, radius)
    inner = np.count_nonzero(np.linalg.norm(rows, axis=1) <= radius * 2.0 ** (-1.0 / dim))
    assert abs(inner - k / 2) <= 4.0 * math.sqrt(k / 4)


@pytest.mark.parametrize("problem, hard_points", [
    (generate_planted(20, 10, ConeRegion.BOUNDARY_Q_NONZERO, 1), 0),
    (builtin("example_3_2"), 3),
])
def test_error_bound_evaluates_each_sampled_point_once(problem, hard_points):
    p, calls = counted(problem)
    verify_error_bound(p, 1e-2, 50, seed=4)
    points = 2 * (50 + hard_points)  # both radii, each with the hard path
    assert calls == {"phi_value": points, "phi_jac": points, "f_grad": points}


ROW_FORM_CASES = [(n, m, region) for n, m in ((3, 2), (20, 10), (100, 50))
                  for region in (ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                                 ConeRegion.INTERIOR_Q)]


def _raising(rows):
    """A one-argument oracle that raises when called, with the row form rows."""
    def refuse(x):
        raise AssertionError("the per-row oracle was called")
    refuse.rows = rows
    return refuse


@pytest.mark.parametrize("case", ROW_FORM_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2].value}")
def test_error_bound_from_row_forms_equals_the_per_row_report(case):
    """The stacked products (quadratic_problem's row forms) and one oracle
    call per row (the counted twin, which has none) give the same report,
    bit for bit; a twin whose oracles raise shows the row forms are used."""
    p = generate_planted(*case, seed=1)
    twin, calls = counted(p)
    rep = verify_error_bound(p, 1e-2, 200, seed=2)
    assert rep == verify_error_bound(twin, 1e-2, 200, seed=2)
    assert calls["phi_value"] == calls["f_grad"] == 400
    batched = dataclasses.replace(p, phi_value=_raising(p.phi_value.rows),
                                  f_grad=_raising(p.f_grad.rows))
    assert verify_error_bound(batched, 1e-2, 200, seed=2) == rep


def test_a_replaced_oracle_is_sampled_per_row():
    """An oracle swapped in by dataclasses.replace has no row form: it is
    called once per sampled point, and the old oracle's row form is not."""
    p = generate_planted(20, 10, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    shift = np.linspace(0.5, 1.5, p.m + 1)
    calls = []

    def shifted(x):
        calls.append(x)
        return p.phi_value(x) + shift

    rep = verify_error_bound(dataclasses.replace(p, phi_value=shifted), 1e-2, 50, seed=4)
    assert len(calls) == 100
    shifted_rows = _raising(lambda xs: p.phi_value.rows(xs) + shift)
    assert rep == verify_error_bound(dataclasses.replace(p, phi_value=shifted_rows),
                                     1e-2, 50, seed=4)
    assert rep != verify_error_bound(p, 1e-2, 50, seed=4)


def test_check_errorbound_report_is_pinned_byte_for_byte(tmp_path):
    """The report of planted (100,50) Zero seed 1 hashes to the bytes the
    per-row sampler wrote (numpy 2.4 and its OpenBLAS).  It runs the console
    entry in a fresh interpreter with BLAS on one thread, as the rounding of
    the sampler's matrix products depends on the thread count."""
    report = tmp_path / "errorbound.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.path.dirname(socalm.__path__[0])}
    subprocess.run([sys.executable, "-m", "socalm.cli", "check", "errorbound", "--problem",
                    "builtin:scaled_quadratic", "--seed", "1", "--n", "100", "--m", "50",
                    "--region", "Zero", "--report", str(report)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    assert (hashlib.sha256(report.read_bytes()).hexdigest()
            == "3a099fbcf6591b07d5e8c6c9281793f68fe168f2d451395872ba3b94714af6a6")
