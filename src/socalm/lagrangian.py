"""Lagrangian, augmented Lagrangian and the KKT residual.

The augmented Lagrangian with penalty rho > 0 is

    L_rho(x, lam) = f(x) + (rho/2) dist^2(Phi(x) + lam/rho; Q) - ||lam||^2/(2 rho),

with gradients

    grad_x  = grad f(x) + JPhi(x)' Pi_{-Q}(rho Phi(x) + lam),
    grad_lam = (Pi_{-Q}(rho Phi(x) + lam) - lam) / rho.

Both follow from Pi_{-Q}(rho v) = rho Pi_{-Q}(v).  An `AugEval` is the
evaluation at one point x for one (lam, rho): it keeps the oracle
results Phi(x), f(x), JPhi(x) and grad f(x), the shifted point
rho Phi(x) + lam, its polar projection, the value and grad_x, so the
value, the derivatives, the generalized Hessian and the KKT residual at
x all come from one call of each oracle.  An evaluation starts
value-only (Phi and f, which is all a line-search trial needs);
`complete` adds JPhi(x), grad f(x) and grad_x on acceptance.  The
shifted point is checked for finiteness once, when it is formed; the
cone kernels below that check run unchecked.

The generalized Hessian Hess_xx L(x, mu) + rho JPhi' V JPhi, with mu the
polar projection of the shifted point and V a generalized Jacobian of
Pi_{-Q} there, is assembled from the structure of V (a multiple alpha of
the identity plus a rank-2 term) as (rho alpha) G + S + rho B C B', with
the Gram matrix G = JPhi' JPhi and S = sym(Hess f + <mu, Hess Phi>).
The first two terms are exactly symmetric; the rank-2 term is added in
place, by one BLAS syr2k, to the upper triangle only, which is the
triangle the Cholesky factorization reads.  So a Newton step costs about
two n x n passes beyond the oracles and the factorization instead of the
O(n^2 m) triple product.  `hessian_upper` is that one assembly, from G
and S given; `AugEval.hessian` forms them at x, and the solver's Newton
step (`alm._newton_direction`) keeps them, and the last factor, from
step to step.  At large n a step outside both cones assembles no n x n
matrix once a solve has paid for the multiplier-space form of S and
JPhi (`alm.MultiplierForm`), whose directions solve the same system up
to rounding; a step where V = alpha I is assembled and factored as
above, or solved with the kept factor.

The hand-on rule.  `AugEval(p, x, lam, rho, prev)` takes prev's oracle
results when prev.x is x: the next outer iteration evaluates the same x
at a new (lam, rho) without calling an oracle again.  Nothing is cached
on the problem, which may be shared between concurrent solves.
"""

from __future__ import annotations

import math

import numpy as np

from ._lapack import dsyr2k
from .cone import NonFiniteError, _polar_jacobian_parts, _positive, _project_polar, _project_q
from .model import SocpProblem


def shift(phi: np.ndarray, lam: np.ndarray, rho: float):
    """(rho Phi + lam, Pi_{-Q}(rho Phi + lam)); rejects a non-finite shift."""
    shifted = rho * phi + lam
    if not np.isfinite(shifted).all():
        raise NonFiniteError("non-finite shifted point rho*Phi(x)+lam")
    return shifted, _project_polar(shifted)


def _kkt_residual(phi, jac, fgrad, lam) -> float:
    grad_l = fgrad + jac.T @ lam
    pushed = phi + lam
    if not np.isfinite(pushed).all():
        raise NonFiniteError("non-finite point Phi(x)+lam")
    gap = phi - _project_q(pushed)
    return math.sqrt(grad_l.dot(grad_l)) + math.sqrt(gap.dot(gap))


def curvature(f_hess, phi_hess) -> np.ndarray:
    """S = sym(Hess f + <mu, Hess Phi>) from the two Hessian oracle
    results, as a new array."""
    S = np.add(f_hess, phi_hess, dtype=float)
    S = S + S.T
    S *= 0.5
    return S


def hessian_upper(rho: float, parts, jac, G, S) -> np.ndarray:
    """A new array whose upper triangle is that of the generalized
    Hessian (rho alpha) G + S + rho B C B': the triangle `alm.cho_factor`
    reads.  Its strict lower triangle lacks the rank-2 term.

    parts is the (alpha, u, r) of V at the shifted point
    (`cone._polar_jacobian_parts`), with V = alpha I + [e0, (0, u)] C
    [e0, (0, u)]', C = (1/2) [[r, -1], [-1, r]], and B = [JPhi[0],
    JPhi[1:]' u]; G = JPhi' JPhi is read only where alpha is nonzero.
    The penalty term is absent inside Q and at y = 0, and rho G inside -Q.
    """
    alpha, u, r = parts
    if alpha:
        H = (rho * alpha) * G
        H += S
    else:
        H = S.copy()
    if u is not None:
        Bt = np.stack((jac[0], jac[1:].T @ u))
        C = (0.5 * rho) * np.array([[r, -1.0], [-1.0, r]])
        # 0.5 (B (C B') + (C B')' B') = B C B' into the lower triangle
        # of the Fortran-ordered view H.T, which is H's upper triangle
        dsyr2k(0.5, Bt, C @ Bt, beta=1.0, c=H.T, trans=1, lower=1, overwrite_c=1)
    return H


class AugEval:
    """The augmented Lagrangian at x for fixed (lam, rho), taking prev's
    oracle results by the module's hand-on rule.

    Oracle results (phi, f, jac, fgrad) are computed once and shared with
    every quantity derived at x.  `jac`, `fgrad` and `grad_x` are None
    until `complete` runs.  Nothing here writes into an oracle result.
    """

    __slots__ = ("p", "x", "lam", "rho", "phi", "f", "jac", "fgrad", "shifted",
                 "polar_proj", "value", "grad_x")

    def __init__(self, p: SocpProblem, x, lam, rho: float, prev: AugEval | None = None):
        """Value-only evaluation."""
        same = prev is not None and prev.x is x
        self.p, self.x, self.lam, self.rho = p, x, lam, rho
        self.phi = prev.phi if same else p.phi_value(x)
        self.shifted, polar = shift(self.phi, lam, rho)
        self.polar_proj = polar
        self.f = prev.f if same else p.f_value(x)
        # (rho/2) dist^2(Phi + lam/rho; Q) - ||lam||^2/(2 rho) = (||polar||^2
        # - ||lam||^2) / (2 rho); where a square overflows, the difference
        # of squares is factored, and it is halved after the division,
        # since 2 rho overflows for rho near the largest float
        gap = polar.dot(polar) - lam.dot(lam)
        if not math.isfinite(gap):
            gap = (polar - lam).dot(polar + lam)
        self.value = float(self.f + gap / rho / 2.0)
        self.jac, self.fgrad = (prev.jac, prev.fgrad) if same else (None, None)
        self.grad_x = None

    def complete(self) -> "AugEval":
        """Add JPhi(x), grad f(x) and grad_x (once); returns self."""
        if self.grad_x is None:
            if self.jac is None:
                self.jac = self.p.phi_jac(self.x)
            if self.fgrad is None:
                self.fgrad = self.p.f_grad(self.x)
            self.grad_x = self.fgrad + self.jac.T @ self.polar_proj
        return self

    @property
    def grad_lam(self) -> np.ndarray:
        return (self.polar_proj - self.lam) / self.rho

    def hessian(self) -> np.ndarray:
        """Generalized Hessian of x -> L_rho(x, lam) at x, exactly
        symmetric: the upper triangle of `hessian_upper`, mirrored, with
        G and S formed here.

        H = Hess_xx L(x, mu) + rho * JPhi(x)' V JPhi(x) with mu the polar
        projection of the shifted point and V a generalized Jacobian of
        Pi_{-Q} there (the cone module's selection).
        """
        jac = self.complete().jac
        S = curvature(self.p.f_hess(self.x), self.p.phi_hess_contract(self.x, self.polar_proj))
        parts = _polar_jacobian_parts(self.shifted)
        T = hessian_upper(self.rho, parts, jac, jac.T @ jac if parts[0] else None, S)
        return np.triu(T) + np.triu(T, 1).T

    def kkt_residual(self, lam) -> float:
        """KKT residual at (x, lam) from the oracle results held here."""
        self.complete()
        return _kkt_residual(self.phi, self.jac, self.fgrad, lam)


def hessian_lagrangian(p: SocpProblem, xbar, lam_bar) -> np.ndarray:
    """Symmetric Hessian of the ordinary Lagrangian in x at checked float arrays."""
    return curvature(p.f_hess(xbar), p.phi_hess_contract(xbar, lam_bar))


def lagrangian_l(p: SocpProblem, x, lam):
    """Ordinary Lagrangian: value, x-gradient and x-Hessian."""
    x, lam = p.check_dims(x, lam)
    phi = p.phi_value(x)
    value = p.f_value(x) + float(lam @ phi)
    grad_x = p.f_grad(x) + p.phi_jac(x).T @ lam
    return value, grad_x, hessian_lagrangian(p, x, lam)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing square is detected
def aug_lagrangian(p: SocpProblem, x, lam, rho: float) -> AugEval:
    """Evaluate the augmented Lagrangian and its first derivatives."""
    _positive("rho", rho)
    return AugEval(p, *p.check_dims(x, lam), rho).complete()


def aug_hessian(p: SocpProblem, x, lam, rho: float) -> np.ndarray:
    """Generalized Hessian of x -> L_rho(x, lam).

    This is the exact Hessian whenever the shifted point avoids the cone
    boundaries; on a kink the cone module's deterministic selection is
    inherited.
    """
    return aug_lagrangian(p, x, lam, rho).hessian()


def residual(p: SocpProblem, x, lam) -> float:
    """KKT residual ||grad_x L(x, lam)|| + ||Phi(x) - Pi_Q(Phi(x) + lam)||."""
    x, lam = p.check_dims(x, lam)
    return _kkt_residual(p.phi_value(x), p.phi_jac(x), p.f_grad(x), lam)
