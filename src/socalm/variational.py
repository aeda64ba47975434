"""Second-order variational objects: critical cones, second subderivatives,
sufficiency certificates and the dual qualification test.

The critical cone to Q at a feasible point for a normal direction is one
of six exactly-representable sets, enumerated from the joint location of
the constraint value and the multiplier.  On top of that enumeration sit
closed-form squared distances, the second subderivative of the cone
indicator, the penalized quadratic form and the second subderivative of
the augmented Lagrangian, plus a brute-force difference-quotient oracle
used to cross-check all of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import null_space

from .cone import ConeRegion, as_cone_vec, classify, in_normal_cone, project_polar, project_q, tilde
from .lagrangian import aug_lagrangian, hessian_lagrangian, residual
from .model import SocpProblem


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


def critical_cone(phi_xbar, lambda_bar, tol: float = 1e-8) -> CriticalCone:
    """Enumerate the critical cone from the locations of the two vectors.

    Requires lambda_bar in N_Q(phi_xbar) within tol (projection test);
    the same tol drives the region classification so that approximate
    KKT data lands in the intended case.
    """
    phi = as_cone_vec(phi_xbar)
    lam = as_cone_vec(lambda_bar)
    if not in_normal_cone(lam, phi, tol):
        raise ValueError("multiplier is not in the normal cone at the base point")
    region_phi = classify(phi, tol)
    region_lam = classify(lam, tol)
    if region_phi is ConeRegion.INTERIOR_Q:
        return CriticalCone(CriticalConeCase.FULL_SPACE, None, phi, lam)
    if region_phi is ConeRegion.BOUNDARY_Q_NONZERO:
        if region_lam is ConeRegion.ZERO:
            return CriticalCone(CriticalConeCase.HALF_SPACE, tilde(phi), phi, lam)
        return CriticalCone(CriticalConeCase.HYPERPLANE, lam.copy(), phi, lam)
    # vertex: phi = 0
    if region_lam is ConeRegion.ZERO:
        return CriticalCone(CriticalConeCase.WHOLE_CONE_Q, None, phi, lam)
    if region_lam is ConeRegion.INTERIOR_POLAR:
        return CriticalCone(CriticalConeCase.ZERO_ONLY, None, phi, lam)
    if region_lam is ConeRegion.BOUNDARY_POLAR_NONZERO:
        return CriticalCone(CriticalConeCase.RAY, tilde(lam), phi, lam)
    raise ValueError("multiplier location is inconsistent with the normal cone")


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


def d2_indicator_q(phi_xbar, lambda_bar, w, member_tol: float = 1e-10,
                   cone_tol: float = 1e-8) -> float:
    """Second subderivative of the indicator of Q at phi_xbar for lambda_bar.

    Returns the curvature term (||lam|| / ||phi||) (||w_r||^2 - w_0^2)
    on the boundary case, 0 on the interior/vertex cases, and +inf when
    w falls outside the critical cone (distance > member_tol).
    """
    phi = as_cone_vec(phi_xbar)
    w = as_cone_vec(w)
    K = critical_cone(phi, lambda_bar, cone_tol)
    if np.sqrt(dist2_critical(K, w)) > member_tol:
        return float("inf")
    region = classify(phi, cone_tol)
    if region is ConeRegion.BOUNDARY_Q_NONZERO:
        lam = as_cone_vec(lambda_bar)
        coeff = np.linalg.norm(lam) / np.linalg.norm(phi)
        return float(coeff * (w[1:] @ w[1:] - w[0] ** 2))
    return 0.0


def quad_form_q(p: SocpProblem, xbar, lambda_bar, rho: float, w,
                cone_tol: float = 1e-8) -> float:
    """Penalized quadratic form of the augmented Lagrangian at a KKT pair.

    Equals <w, Hess_xx L w> plus, in the boundary case with a nonzero
    multiplier, the rho-weighted tangential curvature of the cone.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    p.check_dims(w)
    x = np.asarray(xbar, dtype=float)
    lam = np.asarray(lambda_bar, dtype=float)
    w = np.asarray(w, dtype=float)
    H = hessian_lagrangian(p, x, lam)
    base = float(w @ H @ w)
    phi = p.phi_value(x)
    region = classify(phi, cone_tol)
    lam_zero = np.linalg.norm(lam) <= cone_tol * max(1.0, float(np.linalg.norm(lam)))
    if region is not ConeRegion.BOUNDARY_Q_NONZERO or lam_zero:
        return base
    v = p.phi_jac(x) @ w
    lam_r = lam[1:]
    lam_norm = np.linalg.norm(lam)
    phi_norm = np.linalg.norm(phi)
    coeff = rho * lam_norm / (rho * phi_norm + lam_norm)
    tang = v[1:] @ v[1:] - (lam_r @ v[1:]) ** 2 / (lam_r @ lam_r)
    return base + float(coeff * tang)


def d2_aug_lagrangian(p: SocpProblem, xbar, lambda_bar, rho: float, w,
                      cone_tol: float = 1e-8) -> float:
    """Second subderivative of x -> L_rho(x, lambda_bar) at xbar for 0.

    quad_form_q plus rho times the squared distance of JPhi(xbar) w to
    the critical cone; always finite.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    p.check_dims(w)
    x = np.asarray(xbar, dtype=float)
    w = np.asarray(w, dtype=float)
    K = critical_cone(p.phi_value(x), lambda_bar, cone_tol)
    v = p.phi_jac(x) @ w
    return quad_form_q(p, x, lambda_bar, rho, w, cone_tol) + rho * dist2_critical(K, v)


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
    holds: bool
    modulus: float
    rho_used: float
    method: str  # ExactEigen | PiecewiseEigen | SampledPenalty
    certificate_detail: str


def _reduced_min_eig(S: np.ndarray, basis: np.ndarray) -> float:
    """Smallest eigenvalue of basis' S basis (basis columns orthonormal)."""
    reduced = basis.T @ S @ basis
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])


def _row_null_space(row: np.ndarray) -> np.ndarray:
    if np.linalg.norm(row) == 0.0:
        return np.eye(row.size)
    return null_space(row.reshape(1, -1))


def _minimize_on_sphere(fun_grad, dim: int, starts: int, rng,
                        extra_starts=(), iters: int = 200) -> tuple:
    """Multi-start projected gradient descent over the unit sphere.

    fun_grad maps a unit vector to (value, gradient).  Deterministic for
    a given rng state and start list; returns (best value, best point).
    """
    best_val = np.inf
    best_pt = None
    points = [np.asarray(s, dtype=float) for s in extra_starts if np.linalg.norm(s) > 0]
    points += [rng.standard_normal(dim) for _ in range(starts)]
    for pt in points:
        w = pt / np.linalg.norm(pt)
        val, grad = fun_grad(w)
        step = 1.0
        for _ in range(iters):
            # gradient on the sphere: remove the radial component
            tangential = grad - (grad @ w) * w
            if np.linalg.norm(tangential) <= 1e-14:
                break
            moved = False
            while step > 1e-16:
                cand = w - step * tangential
                cand /= np.linalg.norm(cand)
                cand_val, cand_grad = fun_grad(cand)
                if cand_val < val - 1e-16:
                    w, val, grad = cand, cand_val, cand_grad
                    step = min(step * 2.0, 1.0)
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break
        if val < best_val:
            best_val, best_pt = val, w
    return best_val, best_pt


def check_sosc(p: SocpProblem, xbar, lambda_bar, tol: float = 1e-8,
               kkt_tol: float = 1e-8, starts: int = 64, rho0: float = 1.0,
               doublings: int = 8, seed: int = 0,
               cone_tol: float = 1e-8) -> SoscReport:
    """Certify the second-order sufficient condition at a KKT pair.

    Subspace-constrained cases reduce to an exact eigenvalue problem of
    the (limit) curvature form; halfspace/ray cases are handled piecewise
    (the quadratic is even, so the piece minima are still eigenvalues).
    The vertex case with zero multiplier is a genuine copositivity
    problem and falls back to a sampled, non-certifying penalty sweep.
    """
    x = np.asarray(xbar, dtype=float)
    lam = np.asarray(lambda_bar, dtype=float)
    p.check_dims(x, lam)
    res = residual(p, x, lam)
    if res > kkt_tol * max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(lam))):
        raise ValueError(f"not a KKT pair: residual {res:.3e} exceeds {kkt_tol:.1e}")
    phi = p.phi_value(x)
    J = p.phi_jac(x)
    H = hessian_lagrangian(p, x, lam)
    n = p.n
    K = critical_cone(phi, lam, cone_tol)

    if K.case in (CriticalConeCase.FULL_SPACE, CriticalConeCase.ZERO_ONLY,
                  CriticalConeCase.HYPERPLANE):
        S = H.copy()
        if K.case is CriticalConeCase.HYPERPLANE:
            # rho -> infinity limit of the penalized form: the curvature
            # coefficient of the cone indicator's second subderivative.
            coeff = np.linalg.norm(lam) / np.linalg.norm(phi)
            sign = np.ones(p.m + 1)
            sign[0] = -1.0
            S = S + coeff * (J.T @ (sign[:, None] * J))
            basis = _row_null_space(J.T @ K.vector)
        elif K.case is CriticalConeCase.ZERO_ONLY:
            basis = null_space(J)
        else:
            basis = np.eye(n)
        if basis.shape[1] == 0:
            return SoscReport(True, float("inf"), float("inf"), "ExactEigen",
                              f"critical subspace is trivial ({K.case.value})")
        modulus = _reduced_min_eig(S, basis)
        return SoscReport(modulus > tol, modulus, float("inf"), "ExactEigen",
                          f"{K.case.value}: min eigenvalue on a "
                          f"{basis.shape[1]}-dim subspace of R^{n}")

    if K.case in (CriticalConeCase.HALF_SPACE, CriticalConeCase.RAY):
        # Both cases have zero cone curvature (zero multiplier or vertex),
        # so the form is plain <w, H w> on a halfspace slice of a subspace;
        # evenness makes each piece minimum an eigenvalue problem.
        pieces = []
        if K.case is CriticalConeCase.HALF_SPACE:
            pieces.append(("inactive inequality", np.eye(n)))
            pieces.append(("boundary", _row_null_space(J.T @ K.vector)))
        else:
            d = K.vector
            proj_perp = np.eye(p.m + 1) - np.outer(d, d) / (d @ d)
            pieces.append(("ray span", null_space(proj_perp @ J)))
            pieces.append(("ray origin", null_space(J)))
        moduli = [(_reduced_min_eig(H, B), label, B.shape[1])
                  for label, B in pieces if B.shape[1] > 0]
        if not moduli:
            return SoscReport(True, float("inf"), float("inf"), "PiecewiseEigen",
                              f"critical subspace is trivial ({K.case.value})")
        modulus, label, dim = min(moduli)
        return SoscReport(modulus > tol, modulus, float("inf"), "PiecewiseEigen",
                          f"{K.case.value}: min over pieces attained on "
                          f"'{label}' ({dim}-dim)")

    # whole-cone case: copositivity of <w, H w> + rho dist^2(Jw; Q); sampled.
    rng = np.random.default_rng(seed)

    def make_objective(rho):
        def fun_grad(w):
            polar = project_polar(J @ w)
            val = float(w @ H @ w + rho * (polar @ polar))
            grad = 2.0 * (H @ w) + 2.0 * rho * (J.T @ polar)
            return val, grad
        return fun_grad

    best = -np.inf
    rho_used = rho0
    for j in range(doublings):
        rho = rho0 * (2.0 ** j)
        val, _ = _minimize_on_sphere(make_objective(rho), n, starts, rng)
        rho_used = rho
        best = val
        if val > tol:
            return SoscReport(True, val, rho, "SampledPenalty",
                              f"WholeConeQ: sampled sphere minimum {val:.3e} at "
                              f"rho={rho:g} ({starts} starts, non-certifying)")
    return SoscReport(False, best, rho_used, "SampledPenalty",
                      f"WholeConeQ: sampled sphere minimum stayed <= {tol:.1e} "
                      f"up to rho={rho_used:g} ({starts} starts, non-certifying)")


def check_dual_qualification(p: SocpProblem, xbar, lambda_bar, tol: float = 1e-8,
                             starts: int = 32, seed: int = 0, cone_tol: float = 1e-8):
    """Test whether the polar of the critical cone meets ker JPhi(xbar)'
    only at the origin.

    Returns (holds, witness); the witness is a unit vector in the
    intersection when one is found.  Subspace and ray polars are decided
    by exact linear algebra; the halfspace and -Q polars are searched by
    seeded multi-start descent over the unit sphere of the kernel, with
    the multiplier direction tried first (it certifies the degenerate
    ray configuration outright).
    """
    x = np.asarray(xbar, dtype=float)
    lam = np.asarray(lambda_bar, dtype=float)
    p.check_dims(x, lam)
    phi = p.phi_value(x)
    J = p.phi_jac(x)
    K = critical_cone(phi, lam, cone_tol)
    jac_scale = max(1.0, float(np.linalg.norm(J)))

    if K.case is CriticalConeCase.FULL_SPACE:
        return True, None  # polar is {0}

    kernel = null_space(J.T)  # subspace of R^(m+1)
    kdim = kernel.shape[1]
    if kdim == 0:
        return True, None

    if K.case in (CriticalConeCase.HYPERPLANE, CriticalConeCase.HALF_SPACE):
        # polar is span{u} (hyperplane) or the ray R_+ u (halfspace)
        u = K.vector
        if np.linalg.norm(J.T @ u) <= tol * jac_scale * np.linalg.norm(u):
            return False, u / np.linalg.norm(u)
        return True, None

    if K.case is CriticalConeCase.ZERO_ONLY:
        # polar is all of R^(m+1): any kernel direction violates the condition
        return False, kernel[:, 0]

    # Cone-valued polars searched on the kernel sphere.
    rng = np.random.default_rng(seed)
    if K.case is CriticalConeCase.RAY:
        d = K.vector
        lam_norm = np.linalg.norm(lam)
        if lam_norm > 0 and np.linalg.norm(J.T @ lam) <= tol * jac_scale * lam_norm:
            # the multiplier direction itself lies in the halfspace polar
            return False, lam / lam_norm

        def fun_grad_c(c):
            v = kernel @ c
            viol = max(0.0, float(d @ v))
            val = viol * viol / float(d @ d)
            grad = (2.0 * viol / float(d @ d)) * (kernel.T @ d)
            if viol == 0.0:
                grad = np.zeros_like(c)
            return val, grad

        feasible_start = -kernel.T @ d
        extra = [feasible_start] if np.linalg.norm(feasible_start) > 0 else []
    else:  # WHOLE_CONE_Q: polar is -Q

        def fun_grad_c(c):
            v = kernel @ c
            pos = project_q(v)
            return float(pos @ pos), 2.0 * (kernel.T @ pos)

        extra = []

    best, c_best = _minimize_on_sphere(fun_grad_c, kdim, starts, rng, extra_starts=extra)
    if best <= tol:
        witness = kernel @ c_best
        return False, witness / np.linalg.norm(witness)
    return True, None


def multiplier_calmness(p: SocpProblem, xbar, lambda_bar, duq_holds: bool,
                        tol: float = 1e-8, cone_tol: float = 1e-8) -> str:
    """Classify the calmness of the multiplier mapping: 'calm',
    'not_calm' or 'unknown'.

    Away from the cone vertex the mapping is always calm (polyhedral
    multiplier sets); at the vertex, strict complementarity or a holding
    dual qualification give calmness, a boundary multiplier whose whole
    ray consists of multipliers is the open configuration and is reported
    as 'unknown' rather than guessed.
    """
    x = np.asarray(xbar, dtype=float)
    lam = np.asarray(lambda_bar, dtype=float)
    p.check_dims(x, lam)
    region_phi = classify(p.phi_value(x), cone_tol)
    if region_phi in (ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO):
        return "calm"
    region_lam = classify(lam, cone_tol)
    if region_lam is ConeRegion.INTERIOR_POLAR:
        return "calm"
    if duq_holds:
        return "calm"  # isolated calmness in particular
    if region_lam is ConeRegion.BOUNDARY_POLAR_NONZERO:
        J = p.phi_jac(x)
        scale = max(1.0, float(np.linalg.norm(J)), float(np.linalg.norm(lam)))
        whole_ray = (np.linalg.norm(J.T @ lam) <= tol * scale
                     and np.linalg.norm(p.f_grad(x)) <= tol * scale)
        return "unknown" if whole_ray else "not_calm"
    return "unknown"
