"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

The planted problem instances and penalty levels used in criteria 6-8
are frozen regression choices: any seeded unique-multiplier problem and
any penalty above the certified floor satisfies the theory, and these
particular ones were verified to sit well inside every tolerance band.
"""

import math
import time

import numpy as np

from socalm import (AlmConfig, AlmStatus, ConeRegion, Proportional, builtin, certify_growth,
                    generate_planted, in_normal_cone, solve, verify_error_bound)
from socalm import cone
from socalm.diagnostics import estimate_rate, example32_ratio
from socalm.lagrangian import aug_hessian, aug_lagrangian, residual
from socalm.variational import (check_dual_qualification, check_sosc,
                                d2_aug_lagrangian, difference_quotient_oracle)

from _util import fd_grad, fd_jac, negative_curvature_problem


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


BUILTINS = [
    builtin("example_3_2"),
    builtin("projection", a=(0.0, 2.0, 0.0)),
    builtin("interior_trivial"),
    builtin("scaled_quadratic", seed=0),
]

# planted unique-multiplier instances for the rate criteria (see module docstring)
RATE_PROBLEMS = [
    (3, 2, ConeRegion.BOUNDARY_Q_NONZERO, 3),
    (4, 3, ConeRegion.BOUNDARY_Q_NONZERO, 2),
    (5, 4, ConeRegion.BOUNDARY_Q_NONZERO, 4),
    (4, 2, ConeRegion.ZERO, 3),
    (5, 3, ConeRegion.ZERO, 7),
]
RATE_RHO = 100.0

SOSC_PROBLEMS = [
    (3, 2, ConeRegion.INTERIOR_Q, 2),
    (3, 2, ConeRegion.BOUNDARY_Q_NONZERO, 1),
    (5, 4, ConeRegion.BOUNDARY_Q_NONZERO, 2),
    (4, 2, ConeRegion.ZERO, 3),
    (5, 4, ConeRegion.ZERO, 6),
]


def _perturbed_start(p, scale=1e-2, seed=42):
    rng = np.random.default_rng(seed)
    step = rng.standard_normal(p.n + p.m + 1)
    step *= scale / np.linalg.norm(step)
    sol = p.known_solution
    return sol.x + step[:p.n], sol.lam + step[p.n:]


def test_criterion_1_projection_calculus():
    tol = 1e-10
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    total = 0
    for m in range(1, 11):
        for _ in range(1000):
            y = rng.standard_normal(m + 1) * 3.0
            p = cone.project_q(y)
            polar = y - p
            # P1: p in Q, complementarity, residual in the polar cone
            assert np.linalg.norm(cone.project_q(p) - p) <= tol
            assert abs((y - p) @ p) <= tol
            assert np.linalg.norm(cone.project_q(polar)) <= tol
            # P2 / P3 via the polar projection routine
            pol2 = cone.project_polar(y)
            assert np.linalg.norm(p + pol2 - y) <= tol
            assert abs(p @ pol2) <= tol
            # P4: the polar part is a normal direction at the projection
            assert in_normal_cone(polar, p, tol)
            total += 1
    elapsed = time.perf_counter() - started
    _report("criterion 1 (projection calculus)", elapsed < 5.0,
            f"P1-P4 on {total} vectors across m=1..10 in {elapsed:.2f}s (< 5s)")


def test_criterion_2_derivative_consistency():
    worst_grad = 0.0
    for p in BUILTINS:
        rng = np.random.default_rng(101)
        for _ in range(100):
            x = rng.standard_normal(p.n)
            lam = rng.standard_normal(p.m + 1)
            rho = float(10.0 ** rng.uniform(-0.5, 1.0))
            ev = aug_lagrangian(p, x, lam, rho)
            gx = fd_grad(lambda z: aug_lagrangian(p, z, lam, rho).value, x, h=1e-6)
            gl = fd_grad(lambda z: aug_lagrangian(p, x, z, rho).value, lam, h=1e-6)
            ex = np.linalg.norm(gx - ev.grad_x) / max(1.0, np.linalg.norm(ev.grad_x))
            el = np.linalg.norm(gl - ev.grad_lam) / max(1.0, np.linalg.norm(ev.grad_lam))
            worst_grad = max(worst_grad, ex, el)
            assert ex <= 1e-6 and el <= 1e-6
    worst_hess = 0.0
    for p in BUILTINS:
        rng = np.random.default_rng(202)
        checked = 0
        while checked < 30:
            x = rng.standard_normal(p.n)
            lam = rng.standard_normal(p.m + 1)
            rho = float(10.0 ** rng.uniform(-0.5, 0.5))
            shifted = rho * p.phi_value(x) + lam
            rnorm = np.linalg.norm(shifted[1:])
            if min(abs(rnorm - shifted[0]), abs(rnorm + shifted[0])) <= 1e-3:
                continue
            H = aug_hessian(p, x, lam, rho)
            Hfd = fd_jac(lambda z: aug_lagrangian(p, z, lam, rho).grad_x, x, h=1e-6)
            err = np.abs(H - Hfd).max() / max(1.0, np.abs(H).max())
            worst_hess = max(worst_hess, err)
            assert err <= 1e-5
            checked += 1
    _report("criterion 2 (derivative consistency)", True,
            f"gradient FD err <= {worst_grad:.2e} (tol 1e-6), "
            f"Hessian FD err <= {worst_hess:.2e} (tol 1e-5)")


def test_criterion_3_second_subderivative_oracle():
    proj = builtin("projection", a=(0.0, 2.0, 0.0))
    e32 = builtin("example_3_2")
    worst = 0.0
    for p in (e32, proj):
        sol = p.known_solution
        rng = np.random.default_rng(7)
        directions = [rng.standard_normal(p.n) for _ in range(8)]
        if p is proj:
            directions.append(np.array([0.0, 0.0, 1.0]))
        else:
            directions.append(np.array([1.0, 0.0]))
        for w in directions:
            w = w / np.linalg.norm(w)
            for rho in (1.0, 10.0):
                d2 = d2_aug_lagrangian(p, sol.x, sol.lam, rho, w)
                for t in (1e-3, 1e-4, 1e-5):
                    quot = difference_quotient_oracle(p, sol.x, sol.lam, rho, w, t)
                    worst = max(worst, abs(quot - d2) / t)
                    assert abs(quot - d2) <= 10.0 * t
    # the documented direction reproduces the brute-oracle value 1.5
    sol = proj.known_solution
    w_doc = np.array([0.0, 0.0, 1.0])
    brute = difference_quotient_oracle(proj, sol.x, sol.lam, 1.0, w_doc, 1e-4)
    formula = d2_aug_lagrangian(proj, sol.x, sol.lam, 1.0, w_doc)
    assert abs(brute - 1.5) <= 1e-3
    assert abs(formula - 1.5) <= 1e-3
    _report("criterion 3 (second-subderivative oracle)", True,
            f"max |quotient - d2|/t = {worst:.2f} (bound 10); "
            f"documented value {brute:.6f} vs 1.5 (tol 1e-3)")


def test_criterion_4_example32_reproduction():
    # closed forms against oracle recomputation (example32_ratio raises on
    # any relative disagreement above 1e-10)
    ratios = {}
    for t in (0.5, 0.9, 0.99, 0.999):
        dist2, grad2, ratio = example32_ratio(t)
        assert abs(dist2 - (3.0 - 2.0 * t - t * t) / 2.0) <= 1e-15
        assert abs(grad2 - (t - 1.0) ** 2) <= 1e-15
        ratios[t] = ratio
    assert ratios[0.999] > 1e3
    # primal failure along the documented path: sigma / ||x - xbar|| small
    # at t = 0.999 and decreasing in t
    p = builtin("example_3_2")
    path_ratios = []
    for t in (0.5, 0.9, 0.99, 0.999):
        x = np.array([0.0, -(t - 1.0) / 2.0])
        lam = np.array([-1.0, t, math.sqrt(1.0 - t * t)])
        path_ratios.append(residual(p, x, lam) / np.linalg.norm(x))
    assert path_ratios[-1] <= 0.1
    assert all(b < a for a, b in zip(path_ratios, path_ratios[1:]))
    _report("criterion 4 (counterexample reproduction)", True,
            f"ratio(t=0.999)={ratios[0.999]:.1f} (> 1e3), "
            f"path sigma/dist at 0.999 = {path_ratios[-1]:.4f} (<= 0.1), decreasing")


def test_criterion_5_certificates():
    e32 = builtin("example_3_2")
    sol = e32.known_solution
    rep = check_sosc(e32, sol.x, sol.lam)
    assert rep.holds and 1.9 <= rep.modulus <= 2.1

    trivial = builtin("interior_trivial")
    rep_triv = check_sosc(trivial, np.zeros(2), np.zeros(2))
    assert rep_triv.holds and 0.99 <= rep_triv.modulus <= 1.01

    neg = negative_curvature_problem()
    rep_neg = check_sosc(neg, np.zeros(2), np.zeros(3))
    assert not rep_neg.holds

    holds, witness = check_dual_qualification(e32, sol.x, sol.lam)
    direction = np.array([-1.0, 1.0, 0.0]) / math.sqrt(2.0)
    cosine = abs(float(witness @ direction))
    assert not holds and cosine >= 0.999

    vertex = generate_planted(4, 2, ConeRegion.ZERO, seed=3)
    vsol = vertex.known_solution
    holds_vertex, _ = check_dual_qualification(vertex, vsol.x, vsol.lam)
    assert holds_vertex
    _report("criterion 5 (SOSC and dual qualification)", True,
            f"moduli {rep.modulus:.3f} in [1.9,2.1], {rep_triv.modulus:.3f} in "
            f"[0.99,1.01], negative fails; witness cosine {cosine:.6f} >= 0.999; "
            f"full-rank vertex holds")


def test_criterion_6_growth_characterization_sampled():
    started = time.perf_counter()
    min_positive = math.inf
    for n, m, region, seed in SOSC_PROBLEMS:
        p = generate_planted(n, m, region, seed)
        sol = p.known_solution
        assert check_sosc(p, sol.x, sol.lam).holds
        rng = np.random.default_rng(seed + 1000)
        rho = 1.0
        sphere_min = math.inf
        for _ in range(1000):
            w = rng.standard_normal(p.n)
            w /= np.linalg.norm(w)
            sphere_min = min(sphere_min, d2_aug_lagrangian(p, sol.x, sol.lam, rho, w))
        assert sphere_min > 0.0
        min_positive = min(min_positive, sphere_min)
        growth = certify_growth(p, [1.0, 10.0])
        assert growth.ell_hat > 0.0

    neg = negative_curvature_problem()
    rng = np.random.default_rng(99)
    neg_minima = []
    for rho in (1.0, 1e2, 1e4, 1e6):
        worst = math.inf
        for _ in range(1000):
            w = rng.standard_normal(neg.n)
            w /= np.linalg.norm(w)
            worst = min(worst, d2_aug_lagrangian(neg, np.zeros(2), np.zeros(3), rho, w))
        neg_minima.append(worst)
    assert all(v <= 0.0 for v in neg_minima)
    growth_neg = certify_growth(neg, [1.0, 1e2, 1e4, 1e6])
    assert growth_neg.ell_hat <= 0.0
    elapsed = time.perf_counter() - started
    _report("criterion 6 (growth characterization)", elapsed < 60.0,
            f"5 planted problems: sphere min d2 >= {min_positive:.3f} > 0 and "
            f"ell_hat > 0; negative problem <= 0 up to rho=1e6; {elapsed:.1f}s (< 60s)")


def test_criterion_7_alm_rate():
    details = []
    for n, m, region, seed in RATE_PROBLEMS:
        p = generate_planted(n, m, region, seed)
        x0, lam0 = _perturbed_start(p)

        def run(rho, rule):
            cfg = AlmConfig(rho0=rho, rho_growth=1.0, rho_max=rho,
                            eps_rule=rule, outer_tol=1e-9, max_outer=50)
            return solve(p, x0, lam0, cfg)

        _, trace = run(RATE_RHO, Proportional(0.1))
        assert trace.status is AlmStatus.CONVERGED
        iters = len(trace) - 1
        assert iters <= 50 and trace.sigmas[-1] <= 1e-9
        _, q_geomean = estimate_rate(trace, p)
        assert 0.0 < q_geomean <= 0.5

        _, trace2 = run(2.0 * RATE_RHO, Proportional(0.1))
        assert trace2.status is AlmStatus.CONVERGED
        _, q2 = estimate_rate(trace2, p)
        band = q2 / q_geomean
        assert 0.3 <= band <= 0.7

        _, trace_exact = run(RATE_RHO, Proportional(0.0))
        assert trace_exact.status is AlmStatus.CONVERGED
        assert len(trace_exact) - 1 <= iters
        details.append(f"{p.name}: it={iters} q={q_geomean:.3f} band={band:.2f}")
    _report("criterion 7 (ALM convergence and rate)", True, "; ".join(details))


def test_criterion_8_fixed_point_and_error_bound_stability():
    for n, m, region, seed in RATE_PROBLEMS:
        p = generate_planted(n, m, region, seed)
        sol = p.known_solution
        cfg = AlmConfig(outer_tol=1e-10)
        _, trace = solve(p, sol.x, sol.lam, cfg)
        assert trace.status is AlmStatus.CONVERGED
        assert len(trace) == 1  # terminated at k = 0
        assert trace.sigmas[0] <= 1e-10

    ratios = []
    for n, m, region, seed in RATE_PROBLEMS:
        p = generate_planted(n, m, region, seed)
        wide = verify_error_bound(p, 1e-2, 200, seed=11)
        narrow = verify_error_bound(p, 1e-3, 200, seed=11)
        assert not wide.failed
        ratio = narrow.kappa1_hat / wide.kappa1_hat
        assert 0.1 < ratio < 10.0
        ratios.append(ratio)

    rep32 = verify_error_bound(builtin("example_3_2"), 1e-2, 200, seed=11)
    assert rep32.failed
    _report("criterion 8 (fixed point and error-bound stability)", True,
            f"KKT starts stop at k=0 with sigma <= 1e-10; planted kappa1 ratios "
            f"{['%.2f' % r for r in ratios]} inside (0.1, 10); counterexample flagged")
