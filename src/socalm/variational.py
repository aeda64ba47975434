"""Second-order variational objects: critical cones, second subderivatives,
sufficiency certificates, the second-order moduli and the dual qualification test.

The critical cone to Q at a feasible point for a normal direction is one
of six exactly-representable sets, enumerated from the joint location of
the constraint value and the multiplier in `critical_cone`, the one
place that makes the split.  On top of it sit closed-form squared
distances, the second subderivative of the cone indicator, the penalized
quadratic form and the second subderivative of the augmented Lagrangian,
plus a brute-force difference-quotient oracle used to cross-check them.
Every minimum over the unit sphere is exact linear algebra in one place,
`_growth_pair`: an eigenvalue of a penalty split, or on the whole cone Q
an S-lemma search.  The growth modulus reads it at finite penalties and
the sufficiency check at rho = inf.  Every certificate, modulus and form
takes its pair (`diagnostics` supplies the known one) to `_kkt_pairs`, which
raises ValueError where it is not a KKT pair; `_kkt_data` adds the Hessian.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cone import (ConeRegion, _classify, _finite_norm, _norm, _positive, _tilde,
                   as_cone_vec, in_normal_cone, jacobian_project_polar, project_polar)
from .lagrangian import _kkt_residual, aug_lagrangian, curvature
from .model import SocpProblem

# Tolerances.
CONE_TOL = 1e-8     # normal-cone test and region split of a KKT pair
KKT_TOL = 1e-8      # relative KKT residual check_sosc accepts
TOL = 1e-8          # certificate threshold: moduli, eigenvalues, the whole-ray test
MEMBER_TOL = 1e-10  # distance to the critical cone that counts as membership
EPS = np.finfo(float).eps


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
    phi, lam = as_cone_vec(phi_xbar), as_cone_vec(lambda_bar)
    if not in_normal_cone(lam, phi, CONE_TOL):
        raise ValueError("multiplier is not in the normal cone at the base point")
    region_phi = _classify(phi, CONE_TOL)
    region_lam = _classify(lam, CONE_TOL)
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


@np.errstate(over="ignore")  # `_norm` detects an overflowing square by forming it
def dist2_critical(K: CriticalCone, v) -> float:
    """Exact squared Euclidean distance from v to the critical cone; a
    normal is scaled to unit length first (`_norm`), so that its square
    cannot overflow."""
    v = as_cone_vec(v)
    if v.size != K.base_point.size:
        raise ValueError("dimension mismatch with the critical cone")
    if K.case is CriticalConeCase.FULL_SPACE:
        return 0.0
    if K.case is CriticalConeCase.ZERO_ONLY:
        return float(v @ v)
    if K.case is CriticalConeCase.HYPERPLANE:
        return float((K.vector / _norm(K.vector) @ v) ** 2)
    if K.case is CriticalConeCase.HALF_SPACE:
        return float(max(0.0, K.vector / _norm(K.vector) @ v) ** 2)
    if K.case is CriticalConeCase.RAY:
        d = K.vector
        return float(max(0.0, v @ v - max(0.0, d @ v) ** 2 / (d @ d)))
    # whole cone Q
    w = project_polar(v)
    return float(w @ w)


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
        return _norm(K.multiplier) / _norm(K.base_point) * float(w[1:] @ w[1:] - w[0] ** 2)
    return 0.0


@np.errstate(over="ignore")  # `_norm` detects an overflowing square by forming it
def _penalty_split(K: CriticalCone, H, J, rho: float):
    """(H0, B), with B None where no penalty is left: w'H0w is `quad_form_q`,
    and outside the whole cone min_{|w| = 1} d2 L_rho(xbar, lam; w) is
    lambda_min(H0 + rho B'B) (HalfSpace and Ray: on w or -w, the less
    penalized).  Every norm is scaled where its square overflows."""
    if K.case is CriticalConeCase.HYPERPLANE:
        lam_norm = _norm(K.multiplier)
        # rho ||lam|| / (rho ||Phi|| + ||lam||): the indicator's curvature at rho = inf
        coeff = lam_norm / (_norm(K.base_point) + lam_norm / rho)
        u = K.multiplier[1:] / _norm(K.multiplier[1:])
        tang = J[1:] - np.outer(u, u @ J[1:])  # the part of J[1:] across lam[1:]
        return H + coeff * (tang.T @ tang), (K.multiplier / lam_norm @ J)[None]
    if K.case is CriticalConeCase.ZERO_ONLY:
        return H, J
    if K.case is CriticalConeCase.RAY:
        d = K.vector / np.abs(K.vector).max()  # d'd cannot overflow
        return H, (np.eye(d.size) - np.outer(d, d) / (d @ d)) @ J
    return H, None


def quad_form_q(p: SocpProblem, xbar, lambda_bar, rho: float, w) -> float:
    """Penalized quadratic form of the augmented Lagrangian at a KKT pair.

    Equals <w, Hess_xx L w> plus, in the hyperplane case (boundary point,
    nonzero multiplier), the rho-weighted tangential curvature of the cone.
    A pair that is not a KKT pair raises ValueError (`_kkt_pairs`).
    """
    _positive("rho", rho)
    w = p.check_dims(w)[0]
    [(H, J, K)] = _kkt_data(p, xbar, [lambda_bar])
    return float(w @ _penalty_split(K, H, J, rho)[0] @ w)


def d2_aug_lagrangian(p: SocpProblem, xbar, lambda_bar, rho: float, w) -> float:
    """Second subderivative of x -> L_rho(x, lambda_bar) at xbar for 0,
    at a KKT pair (else ValueError, `_kkt_pairs`).

    quad_form_q plus rho times the squared distance of JPhi(xbar) w to
    the critical cone; always finite.
    """
    _positive("rho", rho)
    w = p.check_dims(w)[0]
    [(H, J, K)] = _kkt_data(p, xbar, [lambda_bar])
    return float(w @ _penalty_split(K, H, J, rho)[0] @ w) + rho * dist2_critical(K, J @ w)


def difference_quotient_oracle(p: SocpProblem, x, lam, rho: float, w, t: float) -> float:
    """Second-order difference quotient of the augmented Lagrangian in x.

    [L_rho(x + t w, lam) - L_rho(x, lam) - t <grad_x L_rho(x, lam), w>] / (t^2 / 2).
    Serves as the independent oracle for d2_aug_lagrangian as t -> 0.
    """
    _positive("t", t)
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    base = aug_lagrangian(p, x, lam, rho)
    ahead = aug_lagrangian(p, x + t * w, lam, rho)
    return (ahead.value - base.value - t * float(base.grad_x @ w)) / (0.5 * t * t)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class SoscReport:
    """check_sosc's verdict, holds iff modulus > TOL: an exact minimum at
    rho = inf, so either verdict certifies.  The method is ExactEigen,
    or on the whole cone Q SampledPenalty, the name the benchmark gates on."""
    holds: bool
    modulus: float
    method: str
    certificate_detail: str


@dataclass(frozen=True)
class GrowthReport:
    rho_used: float
    ell_hat: float
    multipliers: int    # 1, or 3 on a multiplier ray: lambar and the ray's two ends
    uniform: bool


def _floor(s: np.ndarray, shape) -> float:
    """numpy `matrix_rank`'s rule: below it |s| counts as 0 in a `shape` matrix."""
    return float(np.abs(s).max(initial=0.0)) * EPS * max(shape)


def _kernel_split(B: np.ndarray):
    """(kernel, rows, s): orthonormal column bases of ker B and of B's row
    space, and B's singular values on the latter, from one full SVD (numpy's
    `svd`, rank by `_floor`); a non-finite B raises ValueError."""
    _, s, vh = np.linalg.svd(np.asarray_chkfinite(B))
    rank = np.count_nonzero(s > _floor(s, B.shape))
    return vh[rank:].T, vh[:rank].T, s[:rank]


def _lowest(A, vector: bool):
    """(lambda_min(A), a unit eigenvector of it); without the vector
    (None) where vector is False, from `eigvalsh`, which computes no
    eigenvector and agrees with `eigh` to rounding."""
    if vector:
        vals, vecs = np.linalg.eigh(A)
        return float(vals[0]), vecs[:, 0]
    return float(np.linalg.eigvalsh(A)[0]), None


def _bottom_pair(H0, B, rho: float, vector: bool = True):
    """(lambda_min(H0 + rho B'B), a unit eigenvector, None where vector is
    False), from one symmetric eigensolve; at rho = inf, of the
    symmetrized H0 on ker B: all of R^n where B = 0, and +inf where
    ker B = {0}.  A finite rho with ker B nontrivial and
    rho sigma_min(B)^2 > 4 ||H0||_F would swamp H0 in rounding: there, with
    H0 = [[A00, A01], [A10, A11]] on ker B and B's row space and
    G = (rho diag(sigma)^2)^(-1/2), it is the fixed point of
    s <- lambda_min(A00 - A01 G (I + G (A11 - s I) G)^-1 G A10) from
    s = lambda_min(A00), the rho = inf value; a step contracts by 1/4."""
    basis = None
    if B is not None:
        kernel, rows, sigma = _kernel_split(B)
        h, k = float(np.linalg.norm(H0)), kernel.shape[1]
        if rho == math.inf:
            if not k:
                return math.inf, rows[:, 0]
            reduced = kernel.T @ H0 @ kernel
            basis, H0 = kernel, 0.5 * (reduced + reduced.T)
        elif k and sigma.size and sigma[-1] ** 2 > 4.0 * h / rho:
            g = 1.0 / (math.sqrt(rho) * sigma)
            basis = np.hstack([kernel, rows])
            A = basis.T @ H0 @ basis
            C, T = g[:, None] * A[k:, :k], g[:, None] * A[k:, k:] * g + np.eye(g.size)
            s = np.linalg.eigvalsh(A[:k, :k])[0]
            for _ in range(60):
                Y = np.linalg.solve(T - np.diag(s * g * g), C)
                last = s
                s, v = _lowest(A[:k, :k] - C.T @ Y, vector)
                if abs(s - last) <= EPS * h:
                    break
            if v is None:
                return s, None
            w = kernel @ v - rows @ (g * (Y @ v))
            return s, w / np.linalg.norm(w)
        else:
            H0 = H0 + rho * (B.T @ B)
    if not np.isfinite(H0).all():
        raise ValueError("growth form has non-finite entries")
    val, v = _lowest(H0, vector)
    return val, v if v is None or basis is None else basis @ v


@np.errstate(all="ignore")  # a b whose G(b) overflows reads as past the maximum
def _growth_pair(H, J, K: CriticalCone, rho: float, vector: bool = True):
    """(ell, w): the growth modulus 0.5 min_{|w| = 1} d2 L_rho(xbar, lam; w)
    at a KKT pair and a unit w at which w or -w attains it.  On the whole
    cone, 2 ell = max_{b >= 0} lambda_min(H - b J0 J0' + b/(1 + 2b/rho) Jr'Jr),
    J0 and Jr the rows of J: the S-lemma dual of min w'Hw + rho |Jw - z|^2
    over |w| = 1, z in Q, exact as three quadratic forms in n + m + 1 >= 3
    variables have a convex joint range (Polyak, JOTA 99, 1998); it is
    concave in b, so the sign of its slope at the bottom eigenvector bisects b.
    At rho = inf, with M = Jr'Jr - J0 J0', the minimum is over w'Mw <= 0 (Jw
    in Q or -Q): ker M where M is semidefinite, else exact for any n by the
    two-form S-lemma (Polik and Terlaky, SIAM Review 49, 2007).

    With vector False, for callers that read only ell, w is None wherever
    ell is one eigenvalue, which then comes from `eigvalsh`; the
    whole-cone bisection steers by its w and returns it anyway."""
    if K.case is not CriticalConeCase.WHOLE_CONE_Q:
        val, w = _bottom_pair(*_penalty_split(K, H, J, rho), rho, vector)
        return 0.5 * val, w
    J0, Jr = np.outer(J[0], J[0]), J[1:].T @ J[1:]
    if rho == math.inf:
        M = Jr - J0
        spectrum = np.linalg.eigvalsh(M)
        if spectrum[0] >= -_floor(spectrum, M.shape):  # semidefinite: w'Mw <= 0 on ker M
            val, w = _bottom_pair(H, M, rho, vector)
            return 0.5 * val, w

    def at(b):
        scale = 1.0 + 2.0 * b / rho
        vals, vecs = np.linalg.eigh(H - b * J0 + (b / scale) * Jr)
        v = J @ vecs[:, 0]
        return 0.5 * float(vals[0]), vecs[:, 0], v[1:] @ v[1:] > (scale * v[0]) ** 2

    rising = at(0.0)
    # the bit patterns of the floats b in [0, inf] are ordered as integers, so
    # 63 halvings of their range put b within one ulp of the maximum at any scale
    lo, hi = 0, 0x7FF0000000000000 if rising[2] else 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        trial = at(float(np.int64(mid).view(np.float64)))
        lo, hi, rising = (mid, hi, trial) if trial[2] else (lo, mid, rising)
    return rising[:2]


@np.errstate(over="ignore")  # `_finite_norm` detects an overflowing norm by forming it
def _kkt_pairs(p: SocpProblem, xbar, lams):
    """(x, grad f(x), JPhi(x), [critical cone of (x, lam) for lam in lams])
    of the KKT pairs (xbar, lam), from one call of phi_value, phi_jac and
    f_grad; ValueError on a non-finite JPhi(x) and where the KKT residual,
    NaN included, exceeds KKT_TOL max(1, ||x||, ||lam||)."""
    x, lam = p.check_dims(xbar, lams[0])
    lams = [lam] + [p.check_dims(x, other)[1] for other in lams[1:]]
    phi, J = p.phi_value(x), p.phi_jac(x)
    if not np.isfinite(J).all():
        raise ValueError("phi_jac has non-finite entries")
    grad = p.f_grad(x)
    x_norm = _finite_norm(x, "the norm ||x|| of the primal point overflows")
    for lam in lams:
        res = _kkt_residual(phi, J, grad, lam)
        lam_norm = _finite_norm(lam, "the norm ||lam|| of the multiplier overflows")
        if not res <= KKT_TOL * max(1.0, x_norm, lam_norm):
            raise ValueError(f"not a KKT pair: residual {res:.3e} exceeds {KKT_TOL:.1e}")
    return x, grad, J, [critical_cone(phi, lam) for lam in lams]


def _kkt_data(p: SocpProblem, xbar, lams):
    """[(Hess_xx L, JPhi, critical cone)] of `_kkt_pairs`, for the readers
    of the Hessian: f_hess is called once, after every pair passed."""
    x, _, J, cones = _kkt_pairs(p, xbar, lams)
    f_hess, out = p.f_hess(x), []
    for K in cones:
        H = curvature(f_hess, p.phi_hess_contract(x, K.multiplier))
        if not np.isfinite(H).all():
            raise ValueError("Hessian of the Lagrangian has non-finite entries")
        out.append((H, J, K))
    return out


@np.errstate(all="ignore")
def check_sosc(p: SocpProblem, xbar, lambda_bar) -> SoscReport:
    """Certify the second-order sufficient condition at a KKT pair: the
    modulus is 2 `_growth_pair` at rho = inf, the exact minimum of the
    sufficiency form over unit w with Jw in the critical cone, so either
    verdict certifies (an eigenvalue on the cone's span, or on the whole
    cone Q the S-lemma value of a copositivity problem)."""
    [(H, J, K)] = _kkt_data(p, xbar, [lambda_bar])
    modulus = 2.0 * _growth_pair(H, J, K, math.inf, vector=False)[0]
    method = "SampledPenalty" if K.case is CriticalConeCase.WHOLE_CONE_Q else "ExactEigen"
    return SoscReport(modulus > TOL, modulus, method,
                      f"{K.case.value}: exact minimum over unit w in R^{p.n} "
                      "with Jw in the critical cone")


def _growth(p: SocpProblem, xbar, lams, rho_list) -> GrowthReport:
    """Growth of L_rho at the KKT pairs (xbar, lam), lam in lams (else ValueError):
    at rho the least `_growth_pair` ell over them, uniform iff positive.  Over
    rho_list in order the first positive one is reported, else the first largest."""
    if not rho_list:
        raise ValueError("rho_list must not be empty")
    for rho in rho_list:
        _positive("rho", rho)
    pairs = _kkt_data(p, xbar, lams)
    moduli = []  # (ell, rho) up to the first positive ell
    for rho in rho_list:
        moduli.append((min(_growth_pair(*pair, rho, vector=False)[0] for pair in pairs), rho))
        if moduli[-1][0] > 0.0:
            break
    ell_hat, rho_used = max(moduli, key=lambda item: item[0])  # the first largest
    return GrowthReport(float(rho_used), ell_hat, len(pairs), ell_hat > 0.0)


def _solvability(p: SocpProblem, xbar, lam, rho: float) -> float:
    """Exact Lipschitz modulus of the subproblem solution map lam -> x(lam) at
    the KKT pair (xbar, lam) (else ValueError): max ||(H + rho J'VJ)^-1 J'V||_2
    over the pieces V of Pi_{-Q}'s derivative at y = rho Phi(xbar) + lam.
    V_out, its limit from outside both cones, is the piece of a Hyperplane and
    a HalfSpace (whose other, 0, adds nothing); ZeroOnly has I, a Ray both,
    FullSpace none (0.0).  A piece's dlam form a half-space holding v or -v, v
    its top singular vector: the modulus is attained.  NaN unless 2 ell(rho) >
    TOL, which makes each H + rho J'VJ positive definite; so NaN wherever
    `check_sosc` fails, as ell(rho) <= ell(inf).  ValueError on the whole cone
    Q (y = 0): infinitely many pieces."""
    _positive("rho", rho)
    [(H, J, K)] = _kkt_data(p, xbar, [lam])
    if K.case is CriticalConeCase.WHOLE_CONE_Q:
        raise ValueError("at y = 0 (whole cone Q) the solution map has infinitely many pieces")
    if not 2.0 * _growth_pair(H, J, K, rho, vector=False)[0] > TOL:
        return math.nan
    pieces = [np.eye(p.m + 1)] if K.case is CriticalConeCase.ZERO_ONLY else []  # FullSpace: none
    if K.case is CriticalConeCase.HYPERPLANE:
        pieces = [jacobian_project_polar(rho * K.base_point + K.multiplier)]
    elif K.case in (CriticalConeCase.HALF_SPACE, CriticalConeCase.RAY):
        d = K.vector / _norm(K.vector)  # V_out from the normal: y may round to either side
        P, eye = np.outer(d, d), np.eye(d.size)
        pieces = [P] if K.case is CriticalConeCase.HALF_SPACE else [eye - P, eye]
    return max((float(np.linalg.norm(np.linalg.solve(H + rho * (J.T @ V @ J), J.T @ V), 2))
                for V in pieces), default=0.0)


def _kernel_tol(J: np.ndarray, v: np.ndarray) -> float:
    """TOL max(1, ||J||) ||v||, below which J'v (and grad f for v = lam) is 0."""
    return TOL * max(1.0, float(np.linalg.norm(J))) * float(np.linalg.norm(v))


@np.errstate(all="ignore")
def check_dual_qualification(p: SocpProblem, xbar, lambda_bar, pair=None):
    """Test whether the polar of the critical cone meets ker JPhi(xbar)'
    only at the origin, at a KKT pair (else ValueError).

    Returns (holds, witness), the witness a unit vector in the
    intersection when the condition fails.  Every case is exact linear
    algebra on a kernel basis K: a ray's polar is a halfspace, which any
    nonzero subspace meets; the whole cone's polar -Q meets span K iff
    M = K[1:]'K[1:] - K[0]K[0]' has an eigenvalue <= TOL (c'Mc is
    ||v_r||^2 - v_0^2 at v = K c), whose eigenvector gives the witness.
    `pair` is `_kkt_pairs(p, xbar, [lambda_bar])` where the caller has
    built it; otherwise it is built here.
    """
    _, _, J, [K] = _kkt_pairs(p, xbar, [lambda_bar]) if pair is None else pair

    if K.case is CriticalConeCase.FULL_SPACE:
        return True, None  # polar is {0}

    # the rank first, from the singular values alone: ker JPhi' = {0} is
    # the common case, and the full SVD would form n x n left vectors
    if np.linalg.matrix_rank(J.T) == J.shape[0]:
        return True, None

    if K.case in (CriticalConeCase.HYPERPLANE, CriticalConeCase.HALF_SPACE):
        # polar is span{u} (hyperplane) or the ray R_+ u (halfspace)
        u = K.vector
        if np.linalg.norm(J.T @ u) <= _kernel_tol(J, u):
            return False, u / np.linalg.norm(u)
        return True, None

    kernel = _kernel_split(J.T)[0]  # subspace of R^(m+1)
    if K.case is CriticalConeCase.ZERO_ONLY:
        # polar is all of R^(m+1): any kernel direction violates the condition
        return False, kernel[:, 0]

    if K.case is CriticalConeCase.RAY:
        # polar is the halfspace {v : <K.vector, v> <= 0}
        lam = K.multiplier
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
def multiplier_calmness(p: SocpProblem, xbar, lambda_bar, duq_holds: bool,
                        pair=None) -> str:
    """Classify the calmness of the multiplier mapping at a KKT pair (else
    ValueError): 'calm', 'not_calm' or 'unknown'.

    Away from the cone vertex the mapping is always calm (polyhedral
    multiplier sets); at the vertex, strict complementarity or a holding
    dual qualification give calmness, a boundary multiplier whose whole
    ray consists of multipliers is the open configuration and is reported
    as 'unknown' rather than guessed, as is a zero multiplier.  `pair` is
    `_kkt_pairs(p, xbar, [lambda_bar])` where the caller has built it.
    """
    _, grad, J, [K] = _kkt_pairs(p, xbar, [lambda_bar]) if pair is None else pair
    case, lam = K.case, K.multiplier
    if duq_holds or case not in (CriticalConeCase.RAY, CriticalConeCase.WHOLE_CONE_Q):
        return "calm"
    if case is CriticalConeCase.RAY:
        tol = _kernel_tol(J, lam)  # the whole ray R_+ lam: J'lam = 0 = grad f
        if not np.linalg.norm(J.T @ lam) <= tol:
            return "not_calm"
        return "unknown" if np.linalg.norm(grad) <= tol else "not_calm"
    return "unknown"
