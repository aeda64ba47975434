"""Error-bound, growth, rate and solvability diagnostics."""

import dataclasses
import json
import math

import numpy as np
import pytest

from socalm import (AlmConfig, AlmStatus, ConeRegion, Proportional, builtin,
                    certify_growth, dist_to_multiplier_set, estimate_rate,
                    example32_ratio, generate_planted, solvability_estimate, solve,
                    verify_error_bound)
from socalm.cli import main
from socalm.diagnostics import _ball_rows, _multiplier_samples
from socalm.lagrangian import AugEval, residual

from _util import counted, negative_curvature_problem, rewritten_twin, uniform_ball


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
    rep = certify_growth(p, [1.0, 10.0], 60, 1, seed=3)
    assert rep.ell_hat > 0.0
    assert rep.uniform


def test_growth_negative_without_sosc():
    neg = negative_curvature_problem()
    rep = certify_growth(neg, [1.0, 1e2, 1e4, 1e6], 60, 1, seed=3)
    assert rep.ell_hat <= 0.0
    assert not rep.uniform


def test_growth_uniform_on_multiplier_ray():
    rep = certify_growth(builtin("example_3_2"), [1.0, 10.0, 100.0], 60, 5, seed=3)
    assert rep.ell_hat > 0.0
    assert rep.multiplier_samples == 5
    assert rep.uniform


def test_growth_monotone_in_rho():
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=2)
    ells = [certify_growth(p, [rho], 40, 1, seed=5).ell_hat for rho in (0.5, 1.0, 4.0, 16.0)]
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


def test_solvability_estimate_stable():
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    wide = solvability_estimate(p, 10.0, 50, seed=1)
    narrow = solvability_estimate(p, 10.0, 50, seed=1, radius=1e-3)
    assert 0.0 < wide < math.inf
    assert 0.0 < narrow < math.inf
    assert 0.1 <= wide / narrow <= 10.0


def test_solvability_estimate_not_applicable_without_sosc():
    assert math.isnan(solvability_estimate(negative_curvature_problem(), 10.0, 5, seed=1))


def test_reports_serialize(tmp_path):
    """A check report is the report's fields after the command and problem."""
    # builtin:scaled_quadratic with seed 1 is the planted (3, 2) problem below
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    problem = ["--problem", "builtin:scaled_quadratic", "--seed", "1"]
    eb_path, gr_path = tmp_path / "eb.json", tmp_path / "gr.json"
    main(["check", "errorbound", *problem, "--radius", "1e-2", "--samples", "50",
          "--report", str(eb_path)])
    main(["check", "growth", *problem, "--rho-list", "1", "--x-samples", "20",
          "--lambda-samples", "1", "--report", str(gr_path)])
    eb = json.loads(eb_path.read_text())
    assert set(eb) == {"command", "problem",
                       "kappa1_hat", "kappa2_hat", "ball_radius", "samples", "failed"}
    assert eb == {"command": "check errorbound", "problem": "scaled_quadratic_1",
                  **dataclasses.asdict(verify_error_bound(p, 1e-2, 50, seed=1))}
    gr = json.loads(gr_path.read_text())
    assert set(gr) == {"command", "problem",
                       "rho_used", "ell_hat", "gamma_hat", "multiplier_samples", "uniform"}
    assert gr == {"command": "check growth", "problem": "scaled_quadratic_1",
                  **dataclasses.asdict(certify_growth(p, [1.0], 20, 1, seed=1))}


@pytest.mark.parametrize("x_samples, lambda_samples", [(0, 1), (-2, 1), (20, 0)])
def test_growth_rejects_empty_samples(x_samples, lambda_samples):
    p = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    with pytest.raises(ValueError, match="samples"):
        certify_growth(p, [1.0], x_samples, lambda_samples, seed=1)


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


# The per-point samplers the batched ones replaced, kept as the reference:
# one draw, one residual or one augmented-Lagrangian value at a time.

def _kappa_sups_one_point_at_a_time(p, radius, samples, rng):
    sol = p.known_solution
    draws = [uniform_ball(rng, p.n + p.m + 1, radius) for _ in range(samples)]
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


def _growth_one_point_at_a_time(p, rho_list, x_samples, lambda_samples, seed):
    sol = p.known_solution
    rng = np.random.default_rng(seed)
    radii = [0.2, 0.1, 0.05, 0.025, 0.0125]
    x_steps = {gamma: [uniform_ball(rng, p.n, gamma) for _ in range(x_samples)]
               for gamma in radii}
    lams = _multiplier_samples(p, lambda_samples, rng)
    f_bar = p.f_value(sol.x)

    def moduli_at(rho, gamma):
        per_lam = []
        for lam in lams:
            worst = math.inf
            for step in x_steps[gamma]:
                x = sol.x + step
                realized = x - sol.x
                r2 = float(realized @ realized)
                if r2 < 1e-24:
                    continue
                worst = min(worst, (AugEval(p, x, lam, rho).value - f_bar) / r2)
            per_lam.append(worst)
        return per_lam

    best = None
    for rho in rho_list:
        chosen = None
        for gamma in radii:
            per_lam = moduli_at(rho, gamma)
            ell = min(per_lam)
            if ell > 0.0:
                chosen = (rho, gamma, ell, all(v > 0.0 for v in per_lam))
                break
            if chosen is None or ell > chosen[2]:
                chosen = (rho, gamma, ell, False)
        if best is None or chosen[2] > best[2]:
            best = chosen
        if best[2] > 0.0:
            break
    draws = np.array([step for gamma in radii for step in x_steps[gamma]])
    return draws, lams, best


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


@pytest.mark.parametrize("case", SAMPLER_CASES, ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize("seed", [1, 2])
def test_batched_samplers_match_one_point_at_a_time(case, seed):
    """Same draws bit for bit, same verdicts, constants within 1e-12."""
    p = _sampler_problem(case, seed)
    dim = p.n + p.m + 1
    draws, (kappa1, kappa2, failed) = _error_bound_one_point_at_a_time(p, 1e-2, 60, seed)
    rng = np.random.default_rng(seed)
    rows = np.vstack([_ball_rows(rng, 60, dim, 1e-2), _ball_rows(rng, 60, dim, 1e-3)])
    assert rows.tobytes() == draws.tobytes()
    rep = verify_error_bound(p, 1e-2, 60, seed)
    assert rep.failed == failed
    assert _close(rep.kappa1_hat, kappa1) and _close(rep.kappa2_hat, kappa2)

    rho_list = [1.0, 10.0, 100.0]
    draws, lams, (rho, gamma, ell, uniform) = _growth_one_point_at_a_time(p, rho_list, 40, 4,
                                                                         seed)
    rng = np.random.default_rng(seed)
    rows = np.vstack([_ball_rows(rng, 40, p.n, gamma) for gamma in (0.2, 0.1, 0.05, 0.025,
                                                                    0.0125)])
    assert rows.tobytes() == draws.tobytes()
    assert [v.tobytes() for v in _multiplier_samples(p, 4, rng)] == [v.tobytes() for v in lams]
    rep = certify_growth(p, rho_list, 40, 4, seed)
    assert (rep.rho_used, rep.gamma_hat, rep.multiplier_samples, rep.uniform) == \
        (rho, gamma, len(lams), uniform)
    assert _close(rep.ell_hat, ell)


@pytest.mark.parametrize("oracle", ["phi_value", "phi_jac", "f_grad"])
def test_samplers_keep_each_result_of_an_oracle_that_rewrites_one_buffer(oracle):
    p = builtin("example_3_2")
    twin = rewritten_twin(p, oracle)
    assert verify_error_bound(twin, 1e-2, 200, 0) == verify_error_bound(p, 1e-2, 200, 0)
    assert (certify_growth(twin, [1.0, 10.0], 60, 5, seed=3)
            == certify_growth(p, [1.0, 10.0], 60, 5, seed=3))


class _ZeroFirstNormal:
    """Generator stand-in whose first normal draw is the zero vector."""

    def __init__(self, seed):
        self.rng, self.uniforms, self.first = np.random.default_rng(seed), 0, True

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        if self.first:
            out[...] = 0.0
            self.first = False
        return out

    def random(self):
        self.uniforms += 1
        return self.rng.random()


def test_zero_normal_draw_gives_the_zero_row_and_no_radius_draw():
    rows, gen = _ball_rows(_ZeroFirstNormal(3), 5, 4, 0.5), _ZeroFirstNormal(3)
    ref = np.array([uniform_ball(gen, 4, 0.5) for _ in range(5)])
    assert rows.tobytes() == ref.tobytes()
    assert np.all(rows[0] == 0.0) and gen.uniforms == 4


@pytest.mark.parametrize("problem, hard_points", [
    (generate_planted(20, 10, ConeRegion.BOUNDARY_Q_NONZERO, 1), 0),
    (builtin("example_3_2"), 3),
])
def test_error_bound_evaluates_each_sampled_point_once(problem, hard_points):
    p, calls = counted(problem)
    verify_error_bound(p, 1e-2, 50, seed=4)
    points = 2 * (50 + hard_points)  # both radii, each with the hard path
    assert calls == {"phi_value": points, "phi_jac": points, "f_grad": points}


@pytest.mark.parametrize("problem, rho_list, lambda_samples", [
    (negative_curvature_problem(), [1.0, 1e2, 1e4, 1e6], 1),   # every radius of every rho
    (builtin("example_3_2"), [1e-3, 1.0, 10.0, 100.0], 5),
    (generate_planted(20, 10, ConeRegion.BOUNDARY_Q_NONZERO, 1), [1.0, 10.0], 1),
])
def test_growth_evaluates_each_step_once_per_visited_radius(problem, rho_list,
                                                            lambda_samples):
    p, calls = counted(problem)
    certify_growth(p, rho_list, 30, lambda_samples, seed=2)
    assert set(calls) == {"phi_value", "f_value"}
    assert calls["phi_value"] == calls["f_value"] - 1  # and f(xbar) once
    assert calls["phi_value"] in (30, 60, 90, 120, 150)  # 30 steps per radius, 5 radii
    if problem.name == "negative_curvature":
        assert calls["phi_value"] == 150
