"""Error-bound, growth, rate and solvability diagnostics."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socalm import (AlmConfig, AlmStatus, ConeRegion, KktPoint, Proportional, builtin,
                    certify_growth, check_sosc, diagnostics, dist_to_multiplier_set,
                    estimate_rate, example32_ratio, generate_planted, inner_solve,
                    jacobian_project_polar, quadratic_problem, solvability_estimate, solve,
                    verify_error_bound)
from socalm.cli import main
from socalm.alm import AlmTrace
from socalm.cone import _norm
from socalm.diagnostics import _ball_rows, dist_to_known_pair
from socalm.lagrangian import residual
from socalm.variational import _kkt_data

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


def test_growth_positive_on_planted_sosc_problem():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    rep = certify_growth(p, [1.0, 10.0], 1, seed=3)
    assert rep.ell_hat > 0.0
    assert rep.uniform


def test_growth_negative_without_sosc():
    neg = negative_curvature_problem()
    rep = certify_growth(neg, [1.0, 1e2, 1e4, 1e6], 1, seed=3)
    assert rep.ell_hat <= 0.0
    assert not rep.uniform


def test_growth_uniform_on_multiplier_ray():
    rep = certify_growth(builtin("example_3_2"), [1.0, 10.0, 100.0], 5, seed=3)
    assert rep.ell_hat > 0.0
    assert rep.multiplier_samples == 5
    assert rep.uniform


def test_growth_calls_each_oracle_at_xbar_once():
    """Five multipliers of example_3_2's ray: phi_hess_contract runs once
    per multiplier and every other oracle once; the modulus is the one it
    had with one set of oracle calls per multiplier."""
    p, calls = counted(builtin("example_3_2"))
    rep = certify_growth(p, [1.0, 10.0, 100.0], 5, seed=3)
    assert (rep.rho_used, rep.uniform) == (1.0, True)
    assert rep.ell_hat == pytest.approx(0.5856491671436244, rel=1e-14)
    assert dict(calls) == {"phi_value": 1, "phi_jac": 1, "f_grad": 1, "f_hess": 1,
                           "phi_hess_contract": 5}


def test_growth_monotone_in_rho():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=2)
    ells = [certify_growth(p, [rho], 1, seed=5).ell_hat for rho in (0.5, 1.0, 4.0, 16.0)]
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


def test_reports_serialize(tmp_path):
    """A check report is the report's fields after the command and problem."""
    # builtin:scaled_quadratic with seed 1 is the planted (3, 2) problem below
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    problem = ["--problem", "builtin:scaled_quadratic", "--seed", "1"]
    eb_path, gr_path = tmp_path / "eb.json", tmp_path / "gr.json"
    main(["check", "errorbound", *problem, "--radius", "1e-2", "--samples", "50",
          "--report", str(eb_path)])
    main(["check", "growth", *problem, "--rho-list", "1", "--lambda-samples", "1",
          "--report", str(gr_path)])
    eb = json.loads(eb_path.read_text())
    assert set(eb) == {"command", "problem",
                       "kappa1_hat", "kappa2_hat", "ball_radius", "samples", "failed"}
    assert eb == {"command": "check errorbound", "problem": "scaled_quadratic_1",
                  **dataclasses.asdict(verify_error_bound(p, 1e-2, 50, seed=1))}
    gr = json.loads(gr_path.read_text())
    assert set(gr) == {"command", "problem",
                       "rho_used", "ell_hat", "multiplier_samples", "uniform"}
    assert gr == {"command": "check growth", "problem": "scaled_quadratic_1",
                  **dataclasses.asdict(certify_growth(p, [1.0], 1, seed=1))}


@pytest.mark.parametrize("lambda_samples", [0, -2])
def test_growth_rejects_empty_samples(lambda_samples):
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    with pytest.raises(ValueError, match="lambda_samples must be at least 1"):
        certify_growth(p, [1.0], lambda_samples, seed=1)


@pytest.mark.parametrize("call, message", [
    # every penalty of the list is checked, not only the first
    *rejected("certify_growth", "rho", BAD_PENALTIES,
              lambda v: certify_growth(builtin("projection"), [1.0, v], 1, seed=1),
              "rho must be positive"),
    *rejected("solvability_estimate", "rho", BAD_PENALTIES,
              lambda v: solvability_estimate(builtin("projection"), v),
              "rho must be positive"),
    # sample counts are integers, tested before their range, so that
    # None and a string are rejected by name rather than by a TypeError
    *rejected("verify_error_bound", "samples", (2.5, True, None, "2"),
              lambda v: verify_error_bound(builtin("projection"), 1e-2, v, 1),
              "samples must be an integer"),
    *rejected("certify_growth", "lambda_samples", (2.5, None, "2"),
              lambda v: certify_growth(builtin("projection"), [1.0], v, seed=1),
              "lambda_samples must be an integer"),
    # a seed is a nonnegative integer
    *rejected("verify_error_bound", "seed", BAD_SEEDS,
              lambda v: verify_error_bound(builtin("projection"), 1e-2, 5, v), "seed must be"),
    *rejected("certify_growth", "seed", BAD_SEEDS,
              lambda v: certify_growth(builtin("projection"), [1.0], 1, v), "seed must be"),
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
    assert (certify_growth(twin, [1.0, 10.0], 5, seed=3)
            == certify_growth(p, [1.0, 10.0], 5, seed=3))


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
