"""Metamorphic tests of the certificates on planted quadratics
f(x) = x'Px/2 + q'x, Phi(x) = Ax + b with a known KKT pair (xbar, lam) in
each of the six critical-cone cases.

- Translation: x -> x - t (q -> q + P t, b -> b + A t, xbar -> xbar - t)
  leaves P, A and lam as they are, so every verdict stays and every
  constant moves only by rounding.  The same holds for any problem whose
  oracles are composed with x + t (`_util.translated`), which the test
  runs on the curved family too.
- Scaling: f -> c f and lam -> c lam with c > 0 keep the critical cone;
  L_{c rho}(x, c lam) = c L_rho(x, lam), so the SOSC and growth moduli
  scale by c and the solution map's modulus at c rho by 1/c.  The
  error-bound residual adds a term of f's scale to one of Phi's, so its
  constants and its verdict have no such rule and are left out there.

The tolerances come from rounding: a modulus is an eigenvalue of a matrix
whose entries sum at most n + m + 1 rounded products, so it moves by
about (n + m + 1) eps times that matrix's norm (Weyl); the solvability
modulus by the same relative amount times the condition of H + rho J'VJ,
whose least eigenvalue is at least 2 ell(rho); and a sampled error-bound
ratio by eps times the magnitude of the terms it sums over the smallest
ball radius the sampler draws from."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest
from socalm import (ConeRegion, KktPoint, certify_growth, check_sosc, lagrangian_l,
                    quadratic_problem, solvability_estimate, verify_error_bound)
from socalm.variational import EPS, CriticalConeCase, check_dual_qualification, critical_cone

from _util import _on_boundary, curved_problem, translated

RHO = 10.0
RADIUS = 1e-2
CASES = list(CriticalConeCase)
SLACK = 16.0   # the constant factor of every rounding bound below


def _planted(case, n, m, convex, rng):
    """(P, q, A, b, xbar, lam, Phi(xbar)) with (xbar, lam) a KKT pair whose
    critical cone is `case`; P positive definite where `convex`, else an
    indefinite symmetric Gaussian, so that either SOSC verdict occurs."""
    R = rng.standard_normal((n, n))
    P = R.T @ R + np.eye(n) if convex else R + R.T
    A = rng.standard_normal((m + 1, n))
    xbar = rng.standard_normal(n)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    a, s = 0.5 + rng.random(), 0.5 + rng.random()
    z, lam = np.zeros(m + 1), np.zeros(m + 1)
    if case is CriticalConeCase.FULL_SPACE:
        z = np.r_[2.0 * a, a * w]
    elif case in (CriticalConeCase.HYPERPLANE, CriticalConeCase.HALF_SPACE):
        z = _on_boundary(1.0, a * w)
        if case is CriticalConeCase.HYPERPLANE:
            lam = s * np.r_[-z[0], z[1:]]
    elif case is CriticalConeCase.ZERO_ONLY:
        lam = np.r_[-2.0 * s, s * w]
    elif case is CriticalConeCase.RAY:
        lam = _on_boundary(-1.0, s * w)
    b = z - A @ xbar
    q = -P @ xbar - A.T @ lam
    return P, q, A, b, xbar, lam, z


def _certificates(P, q, A, b, xbar, lam, rho):
    """`_problem_certificates` of one planted quadratic."""
    return _problem_certificates(
        quadratic_problem(P, q, 0.0, A, b, known_solution=KktPoint(xbar, lam)), rho)


def _problem_certificates(p, rho):
    """(SOSC report, dualqual verdict, growth report, error-bound report,
    solvability modulus or None on the whole cone) of a problem at its
    known pair."""
    xbar, lam = p.known_solution.x, p.known_solution.lam
    try:
        solvability = solvability_estimate(p, rho)
    except ValueError:   # the whole cone Q: infinitely many pieces
        solvability = None
    return (check_sosc(p, xbar, lam), check_dual_qualification(p, xbar, lam)[0],
            certify_growth(p, [rho]), verify_error_bound(p, RADIUS, 50, seed=3), solvability)


def _verdicts(out):
    """Every verdict but the error bound's."""
    sosc, dualqual, growth, _, solvability = out
    return (sosc.holds, sosc.method, dualqual, growth.uniform,
            solvability is None or math.isnan(solvability))


def _close(a, b, tol):
    assert a == b or abs(a - b) <= tol, (a, b, tol)


def _norms(P, A, lam, z, rho):
    """Bounds on the norms of the matrices whose least eigenvalues are the
    SOSC modulus (H plus, on a Hyperplane, ||lam||/||Phi|| times a part of
    J'J) and the growth modulus at rho (H plus rho times a part of J'J)."""
    p_norm, a_sq = np.linalg.norm(P), np.linalg.norm(A) ** 2
    curvature = np.linalg.norm(lam) / np.linalg.norm(z) if z.any() else 0.0
    return p_norm + curvature * a_sq, p_norm + rho * a_sq


PLANTED = dict(case=st.sampled_from(CASES), n=st.integers(1, 6), m=st.integers(1, 4),
               convex=st.booleans(), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60)
@given(**PLANTED)
def test_translation_keeps_every_verdict_and_constant(case, n, m, convex, seed):
    rng = np.random.default_rng(seed)
    P, q, A, b, xbar, lam, z = _planted(case, n, m, convex, rng)
    t = rng.standard_normal(n)
    base = _certificates(P, q, A, b, xbar, lam, RHO)
    moved = _certificates(P, q + P @ t, A, b + A @ t, xbar - t, lam, RHO)
    _assert_moved_by_rounding(base, moved, P, A, xbar, lam, z, t)


def _assert_moved_by_rounding(base, moved, H, A, xbar, lam, z, t):
    """Certificates of a problem and of its translate by t: every verdict
    the same and every constant within rounding, for the Lagrangian
    Hessian H, JPhi = A and Phi = z at the pair (xbar, lam)."""
    assert _verdicts(moved) == _verdicts(base)
    assert moved[3].failed == base[3].failed

    unit = SLACK * (H.shape[0] + A.shape[0]) * EPS
    sosc_norm, growth_norm = _norms(H, A, lam, z, RHO)
    _close(moved[0].modulus, base[0].modulus, unit * sosc_norm)
    _close(moved[2].ell_hat, base[2].ell_hat, unit * growth_norm)
    if base[4] is not None and not math.isnan(base[4]):
        condition = growth_norm / (2.0 * base[2].ell_hat)
        _close(moved[4], base[4], unit * condition * base[4])
    # each residual and distance sums terms of at most this size
    size = ((1.0 + np.linalg.norm(xbar) + np.linalg.norm(t))
            * (np.linalg.norm(H) + np.linalg.norm(A)) + np.linalg.norm(lam))
    errorbound_rtol = SLACK * EPS * size / (RADIUS / 10.0)
    for name in ("kappa1_hat", "kappa2_hat"):
        value = getattr(base[3], name)
        _close(getattr(moved[3], name), value, errorbound_rtol * value)


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("region", [ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO,
                                    ConeRegion.ZERO])
def test_translation_keeps_every_verdict_and_constant_of_a_curved_problem(region, seed, scale):
    """The translation rule on the curved family (Phi not affine, its
    contracted Hessian nonzero), moved by `translated`: the bounds take
    the Lagrangian Hessian at the pair for P.  SOSC fails at scale 2, seed
    2, on BoundaryQNonzero and Zero, and holds on the others."""
    p = curved_problem(6, 3, region, seed, scale=scale)
    t = np.random.default_rng(seed).standard_normal(p.n)
    xbar, lam = p.known_solution.x, p.known_solution.lam
    H = lagrangian_l(p, xbar, lam)[2]
    _assert_moved_by_rounding(_problem_certificates(p, RHO),
                              _problem_certificates(translated(p, t), RHO),
                              H, p.phi_jac(xbar), xbar, lam, p.phi_value(xbar), t)


@settings(max_examples=60)
@given(**PLANTED, log_c=st.floats(-3.0, 3.0))
def test_scaling_f_and_lam_scales_each_modulus(case, n, m, convex, seed, log_c):
    c = 10.0 ** log_c
    P, q, A, b, xbar, lam, z = _planted(case, n, m, convex, np.random.default_rng(seed))
    base = _certificates(P, q, A, b, xbar, lam, RHO)
    scaled = _certificates(c * P, c * q, A, b, xbar, c * lam, c * RHO)
    assert _verdicts(scaled) == _verdicts(base)

    unit = SLACK * (n + m + 1) * EPS
    sosc_norm, growth_norm = _norms(P, A, lam, z, RHO)
    _close(scaled[0].modulus, c * base[0].modulus, c * unit * sosc_norm)
    _close(scaled[2].ell_hat, c * base[2].ell_hat, c * unit * growth_norm)
    assert scaled[2].rho_used == c * RHO
    if base[4] is not None and not math.isnan(base[4]):
        condition = growth_norm / (2.0 * base[2].ell_hat)
        _close(scaled[4], base[4] / c, unit * condition * base[4] / c)


def test_the_planted_cases_are_the_six_critical_cones():
    """The planting above lands in the case it names."""
    rng = np.random.default_rng(0)
    for case in CASES:
        *_, lam, z = _planted(case, 3, 2, True, rng)
        assert critical_cone(z, lam).case is case
