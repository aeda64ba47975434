"""Second-order variational objects: critical cones, second subderivatives,
sufficiency certificates and the dual qualification test.

The critical cone to Q at a feasible point for a normal direction is one
of six exactly-representable sets, enumerated from the joint location of
the constraint value and the multiplier in `critical_cone`, the one
place that makes the split.  On top of it sit closed-form squared
distances, the second subderivative of the cone indicator, the penalized
quadratic form and the second subderivative of the augmented Lagrangian,
plus a brute-force difference-quotient oracle used to cross-check them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import null_space

from .cone import (ConeRegion, _classify, _in_normal_cone, _project_polar_rows, _tilde,
                   as_cone_vec, project_polar)
from .lagrangian import _kkt_residual, aug_lagrangian, hessian_lagrangian
from .model import SocpProblem

# Tolerances and the size of the whole-cone sphere search.
CONE_TOL = 1e-8     # normal-cone test and region split of a KKT pair
KKT_TOL = 1e-8      # relative KKT residual check_sosc accepts
TOL = 1e-8          # certificate threshold: moduli, eigenvalues, the whole-ray test
MEMBER_TOL = 1e-10  # distance to the critical cone that counts as membership
STARTS = 64         # sphere-search starts per penalty
RHO0 = 1.0          # first penalty of the sphere search, doubled up to
DOUBLINGS = 8       # DOUBLINGS times


class CriticalConeCase(enum.Enum):
    FULL_SPACE = "FullSpace"
    ZERO_ONLY = "ZeroOnly"
    HYPERPLANE = "Hyperplane"
    HALF_SPACE = "HalfSpace"
    RAY = "Ray"
    WHOLE_CONE_Q = "WholeConeQ"


@dataclass(frozen=True)
class CriticalCone:
    """Exact representation of the critical cone K_Q(base_point, multiplier).

    `vector` carries the case data: the hyperplane/halfspace normal or
    the ray direction; None for the remaining cases.
    """

    case: CriticalConeCase
    vector: Optional[np.ndarray]
    base_point: np.ndarray
    multiplier: np.ndarray


@np.errstate(over="ignore")
def critical_cone(phi_xbar, lambda_bar) -> CriticalCone:
    """Enumerate the critical cone from the locations of the two vectors.

    Requires lambda_bar in N_Q(phi_xbar) within CONE_TOL (projection
    test); the same tolerance drives the region classification so that
    approximate KKT data lands in the intended case; a pair no case fits
    raises ValueError.
    """
    phi = as_cone_vec(phi_xbar)
    lam = as_cone_vec(lambda_bar)
    if lam.size != phi.size:
        raise ValueError("dimension mismatch between lam and y")
    if not _in_normal_cone(lam, phi, CONE_TOL):
        raise ValueError("multiplier is not in the normal cone at the base point")
    region_phi = _classify(phi, CONE_TOL)[0]
    region_lam = _classify(lam, CONE_TOL)[0]
    if region_phi is ConeRegion.INTERIOR_Q:
        return CriticalCone(CriticalConeCase.FULL_SPACE, None, phi, lam)
    if region_phi is ConeRegion.BOUNDARY_Q_NONZERO:
        if region_lam is ConeRegion.ZERO:
            return CriticalCone(CriticalConeCase.HALF_SPACE, _tilde(phi), phi, lam)
        return CriticalCone(CriticalConeCase.HYPERPLANE, lam.copy(), phi, lam)
    if region_phi is ConeRegion.ZERO:  # the vertex
        if region_lam is ConeRegion.ZERO:
            return CriticalCone(CriticalConeCase.WHOLE_CONE_Q, None, phi, lam)
        if region_lam is ConeRegion.INTERIOR_POLAR:
            return CriticalCone(CriticalConeCase.ZERO_ONLY, None, phi, lam)
        if region_lam is ConeRegion.BOUNDARY_POLAR_NONZERO:
            return CriticalCone(CriticalConeCase.RAY, _tilde(lam), phi, lam)
    # e.g. a base point outside Q by less than the normal-cone test's sqrt(2) CONE_TOL
    raise ValueError(f"no critical cone case for a base point in {region_phi.value} "
                     f"and a multiplier in {region_lam.value}")


def dist2_critical(K: CriticalCone, v) -> float:
    """Exact squared Euclidean distance from v to the critical cone."""
    v = as_cone_vec(v)
    if v.size != K.base_point.size:
        raise ValueError("dimension mismatch with the critical cone")
    if K.case is CriticalConeCase.FULL_SPACE:
        return 0.0
    if K.case is CriticalConeCase.ZERO_ONLY:
        return float(v @ v)
    if K.case is CriticalConeCase.HYPERPLANE:
        u = K.vector
        return float((u @ v) ** 2 / (u @ u))
    if K.case is CriticalConeCase.HALF_SPACE:
        u = K.vector
        return float(max(0.0, u @ v) ** 2 / (u @ u))
    if K.case is CriticalConeCase.RAY:
        d = K.vector
        return float(max(0.0, v @ v - max(0.0, d @ v) ** 2 / (d @ d)))
    # whole cone Q
    w = project_polar(v)
    return float(w @ w)


def _pair(p: SocpProblem, xbar, lambda_bar, w=None):
    """(x, lam, w, Phi(x), JPhi(x)): the inputs checked against p's
    dimensions once, as float arrays, each constraint oracle called once
    and a non-finite JPhi(x) rejected (`critical_cone` checks Phi(x))."""
    x, lam = p.check_dims(xbar, lambda_bar)
    if w is not None:
        w = p.check_dims(w)[0]
    phi, J = p.phi_value(x), p.phi_jac(x)
    if not np.isfinite(J).all():
        raise ValueError("phi_jac has non-finite entries")
    return x, lam, w, phi, J


def _curvature(K: CriticalCone) -> float:
    """||lam|| / ||Phi(xbar)||, the cone's curvature in the Hyperplane case."""
    return float(np.linalg.norm(K.multiplier) / np.linalg.norm(K.base_point))


def d2_indicator_q(phi_xbar, lambda_bar, w) -> float:
    """Second subderivative of the indicator of Q at phi_xbar for lambda_bar.

    Returns the curvature term (||lam|| / ||phi||) (||w_r||^2 - w_0^2) in
    the Hyperplane case, 0 in the others, and +inf when w falls outside
    the critical cone (distance > MEMBER_TOL).
    """
    K = critical_cone(phi_xbar, lambda_bar)
    w = as_cone_vec(w)
    if np.sqrt(dist2_critical(K, w)) > MEMBER_TOL:
        return float("inf")
    if K.case is CriticalConeCase.HYPERPLANE:
        return float(_curvature(K) * (w[1:] @ w[1:] - w[0] ** 2))
    return 0.0


def _quad_form(p: SocpProblem, x, lam, w, J, K: CriticalCone, rho: float) -> float:
    base = float(w @ hessian_lagrangian(p, x, lam) @ w)
    if K.case is not CriticalConeCase.HYPERPLANE:
        return base
    v = J @ w
    lam_r = lam[1:]
    lam_norm = np.linalg.norm(lam)
    phi_norm = np.linalg.norm(K.base_point)
    coeff = rho * lam_norm / (rho * phi_norm + lam_norm)
    tang = v[1:] @ v[1:] - (lam_r @ v[1:]) ** 2 / (lam_r @ lam_r)
    return base + float(coeff * tang)


def quad_form_q(p: SocpProblem, xbar, lambda_bar, rho: float, w) -> float:
    """Penalized quadratic form of the augmented Lagrangian at a KKT pair.

    Equals <w, Hess_xx L w> plus, in the hyperplane case (boundary point,
    nonzero multiplier), the rho-weighted tangential curvature of the cone.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    x, lam, w, phi, J = _pair(p, xbar, lambda_bar, w)
    return _quad_form(p, x, lam, w, J, critical_cone(phi, lam), rho)


def d2_aug_lagrangian(p: SocpProblem, xbar, lambda_bar, rho: float, w) -> float:
    """Second subderivative of x -> L_rho(x, lambda_bar) at xbar for 0.

    quad_form_q plus rho times the squared distance of JPhi(xbar) w to
    the critical cone; always finite.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    x, lam, w, phi, J = _pair(p, xbar, lambda_bar, w)
    K = critical_cone(phi, lam)
    return _quad_form(p, x, lam, w, J, K, rho) + rho * dist2_critical(K, J @ w)


def difference_quotient_oracle(p: SocpProblem, x, lam, rho: float, w, t: float) -> float:
    """Second-order difference quotient of the augmented Lagrangian in x.

    [L_rho(x + t w, lam) - L_rho(x, lam) - t <grad_x L_rho(x, lam), w>] / (t^2 / 2).
    Serves as the independent oracle for d2_aug_lagrangian as t -> 0.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    base = aug_lagrangian(p, x, lam, rho)
    ahead = aug_lagrangian(p, x + t * w, lam, rho)
    return (ahead.value - base.value - t * float(base.grad_x @ w)) / (0.5 * t * t)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class SoscReport:
    """check_sosc's verdict, holds iff modulus > TOL; method ExactEigen or SampledPenalty."""
    holds: bool
    modulus: float
    rho_used: float
    method: str
    certificate_detail: str


def _reduced_min_eig(S: np.ndarray, basis: np.ndarray) -> float:
    """Smallest eigenvalue of basis' S basis (basis columns orthonormal)."""
    reduced = basis.T @ S @ basis
    if not np.isfinite(reduced).all():
        raise ValueError("sufficiency form has non-finite entries")
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", A, B)


def _minimize_on_sphere(fun_grad, points: np.ndarray, iters: int = 200) -> np.ndarray:
    """Projected gradient descent on the unit sphere from each row of
    `points` (k, dim), all rows in one lockstep batch; returns the final
    value of each row.  fun_grad maps unit rows (j, dim) to values (j,)
    and gradients (j, dim), and is called on the running rows only.  Each
    row has its own step: a strict decrease is accepted and doubles it
    (capped at 1), anything else halves it; a row stops at a tangential
    gradient norm <= 1e-14, a step <= 1e-16 or after `iters` moves.
    """
    W = points / np.linalg.norm(points, axis=1, keepdims=True)
    val, grad = fun_grad(W)
    step = np.ones(W.shape[0])
    moves = np.zeros(W.shape[0], dtype=int)
    # gradient on the sphere: remove the radial component
    tang = grad - _rowdot(grad, W)[:, None] * W
    running = (np.linalg.norm(tang, axis=1) > 1e-14) & (iters > 0)
    while running.any():
        idx = np.flatnonzero(running)
        cand = W[idx] - step[idx, None] * tang[idx]
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cand_val, cand_grad = fun_grad(cand)
        accept = cand_val < val[idx] - 1e-16
        acc, rej = idx[accept], idx[~accept]
        W[acc], val[acc], grad[acc] = cand[accept], cand_val[accept], cand_grad[accept]
        step[acc] = np.minimum(step[acc] * 2.0, 1.0)
        moves[acc] += 1
        tang[acc] = grad[acc] - _rowdot(grad[acc], W[acc])[:, None] * W[acc]
        running[acc] = (moves[acc] < iters) & (np.linalg.norm(tang[acc], axis=1) > 1e-14)
        step[rej] *= 0.5
        running[rej] = step[rej] > 1e-16
    return val


def _sosc_form(K: CriticalCone, H, J, n: int):
    """(form, orthonormal basis of span C) for the critical cone C; outside the whole
    cone span C = C u -C, on which the even form has the same minimum as on C."""
    if K.case in (CriticalConeCase.FULL_SPACE, CriticalConeCase.HALF_SPACE):
        return H, np.eye(n)
    if K.case is CriticalConeCase.ZERO_ONLY:
        return H, null_space(J)
    if K.case is CriticalConeCase.HYPERPLANE:
        # rho -> infinity limit of the penalized form: the indicator's curvature
        sign = np.r_[-1.0, np.ones(J.shape[0] - 1)]
        return (H + _curvature(K) * (J.T @ (sign[:, None] * J)),
                null_space((J.T @ K.vector)[None]))
    d = K.vector  # Ray: C u -C = {w : Jw in span d}
    proj_perp = np.eye(J.shape[0]) - np.outer(d, d) / (d @ d)
    return H, null_space(proj_perp @ J)


def _whole_cone_search(H, J, seed: int) -> SoscReport:
    """Sampled, non-certifying sufficiency test on the whole cone Q:
    copositivity of <w, H w> + rho dist^2(Jw; Q).  At each penalty
    RHO0 * 2^j, one seeded block of STARTS normal starts descends on the
    unit sphere as a lockstep batch (`_minimize_on_sphere`)."""
    rng = np.random.default_rng(seed)

    def objective(W, rho):
        polar = _project_polar_rows(W @ J.T)
        HW = W @ H
        return (_rowdot(W, HW) + rho * _rowdot(polar, polar),
                2.0 * HW + (2.0 * rho) * (polar @ J))

    for j in range(DOUBLINGS):
        rho = RHO0 * (2.0 ** j)
        best = float(_minimize_on_sphere(lambda W: objective(W, rho),
                                         rng.standard_normal((STARTS, H.shape[0]))).min())
        if best > TOL:
            return SoscReport(True, best, rho, "SampledPenalty",
                              f"WholeConeQ: sampled sphere minimum {best:.3e} at "
                              f"rho={rho:g} ({STARTS} starts, non-certifying)")
    return SoscReport(False, best, rho, "SampledPenalty",
                      f"WholeConeQ: sampled sphere minimum stayed <= {TOL:.1e} "
                      f"up to rho={rho:g} ({STARTS} starts, non-certifying)")


@np.errstate(all="ignore")
def check_sosc(p: SocpProblem, xbar, lambda_bar, seed: int = 0) -> SoscReport:
    """Certify the second-order sufficient condition at a KKT pair.

    Outside the whole cone the modulus is one exact eigenvalue of the
    (limit) curvature form on the span of the critical cone (ExactEigen).
    The vertex case with zero multiplier is a genuine copositivity problem
    and falls back to a sampled, non-certifying penalty sweep
    (`_whole_cone_search`, seeded by `seed`; SampledPenalty).
    """
    x, lam, _, phi, J = _pair(p, xbar, lambda_bar)
    res = _kkt_residual(phi, J, p.f_grad(x), lam)
    if not res <= KKT_TOL * max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(lam))):
        raise ValueError(f"not a KKT pair: residual {res:.3e} exceeds {KKT_TOL:.1e}")
    H = hessian_lagrangian(p, x, lam)
    if not np.isfinite(H).all():
        raise ValueError("Hessian of the Lagrangian has non-finite entries")
    K = critical_cone(phi, lam)
    if K.case is CriticalConeCase.WHOLE_CONE_Q:
        return _whole_cone_search(H, J, seed)

    S, B = _sosc_form(K, H, J, p.n)
    if B.shape[1] == 0:
        return SoscReport(True, float("inf"), float("inf"), "ExactEigen",
                          f"critical subspace is trivial ({K.case.value})")
    modulus = _reduced_min_eig(S, B)
    return SoscReport(modulus > TOL, modulus, float("inf"), "ExactEigen",
                      f"{K.case.value}: min eigenvalue on a {B.shape[1]}-dim subspace of R^{p.n}")


def _kernel_tol(J: np.ndarray, v: np.ndarray) -> float:
    """TOL max(1, ||J||) ||v||, below which J'v (and grad f for v = lam) is 0."""
    return TOL * max(1.0, float(np.linalg.norm(J))) * float(np.linalg.norm(v))


@np.errstate(all="ignore")
def check_dual_qualification(p: SocpProblem, xbar, lambda_bar):
    """Test whether the polar of the critical cone meets ker JPhi(xbar)'
    only at the origin.

    Returns (holds, witness), the witness a unit vector in the
    intersection when the condition fails.  Every case is exact linear
    algebra on a kernel basis K: a ray's polar is a halfspace, which any
    nonzero subspace meets; the whole cone's polar -Q meets span K iff
    M = K[1:]'K[1:] - K[0]K[0]' has an eigenvalue <= TOL (c'Mc is
    ||v_r||^2 - v_0^2 at v = K c), whose eigenvector gives the witness.
    """
    _, lam, _, phi, J = _pair(p, xbar, lambda_bar)
    K = critical_cone(phi, lam)

    if K.case is CriticalConeCase.FULL_SPACE:
        return True, None  # polar is {0}

    kernel = null_space(J.T)  # subspace of R^(m+1)
    if kernel.shape[1] == 0:
        return True, None

    if K.case in (CriticalConeCase.HYPERPLANE, CriticalConeCase.HALF_SPACE):
        # polar is span{u} (hyperplane) or the ray R_+ u (halfspace)
        u = K.vector
        if np.linalg.norm(J.T @ u) <= _kernel_tol(J, u):
            return False, u / np.linalg.norm(u)
        return True, None

    if K.case is CriticalConeCase.ZERO_ONLY:
        # polar is all of R^(m+1): any kernel direction violates the condition
        return False, kernel[:, 0]

    if K.case is CriticalConeCase.RAY:
        # polar is the halfspace {v : <K.vector, v> <= 0}
        if np.linalg.norm(J.T @ lam) <= _kernel_tol(J, lam):
            # the multiplier direction itself lies in the halfspace polar
            return False, lam / np.linalg.norm(lam)
        c = -kernel.T @ K.vector
        c_norm = np.linalg.norm(c)
        if c_norm == 0.0:
            return False, kernel[:, 0]  # the kernel lies in the boundary hyperplane
        witness = kernel @ (c / c_norm)
        return False, witness / np.linalg.norm(witness)

    # WHOLE_CONE_Q: polar is -Q
    M = kernel[1:].T @ kernel[1:] - np.outer(kernel[0], kernel[0])
    eigvals, eigvecs = np.linalg.eigh(M)
    if eigvals[0] > TOL:
        return True, None
    witness = kernel @ eigvecs[:, 0]
    if witness[0] > 0:
        witness = -witness
    return False, witness / np.linalg.norm(witness)


@np.errstate(all="ignore")
def multiplier_calmness(p: SocpProblem, xbar, lambda_bar, duq_holds: bool) -> str:
    """Classify the calmness of the multiplier mapping: 'calm',
    'not_calm' or 'unknown'.

    Away from the cone vertex the mapping is always calm (polyhedral
    multiplier sets); at the vertex, strict complementarity or a holding
    dual qualification give calmness, a boundary multiplier whose whole
    ray consists of multipliers is the open configuration and is reported
    as 'unknown' rather than guessed, as is a zero multiplier.  A
    non-finite JPhi(x) or gradient raises ValueError.
    """
    x, lam, _, phi, J = _pair(p, xbar, lambda_bar)
    case = critical_cone(phi, lam).case
    if duq_holds or case not in (CriticalConeCase.RAY, CriticalConeCase.WHOLE_CONE_Q):
        return "calm"
    if case is CriticalConeCase.RAY:
        tol = _kernel_tol(J, lam)  # the whole ray R_+ lam: J'lam = 0 = grad f
        if not np.linalg.norm(J.T @ lam) <= tol:
            return "not_calm"
        grad_norm = np.linalg.norm(p.f_grad(x))
        if not np.isfinite(grad_norm):
            raise ValueError("f_grad has non-finite entries")
        return "unknown" if grad_norm <= tol else "not_calm"
    return "unknown"
