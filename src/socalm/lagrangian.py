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
`complete` adds JPhi(x), grad f(x) and grad_x on acceptance, and `at`
moves the evaluation to a new (lam, rho) without calling an oracle
again.  The shifted point is checked for finiteness once, when it is
formed; the cone kernels below that check run unchecked.
"""

from __future__ import annotations

import numpy as np

from .cone import _jacobian_project_polar, _project_polar, _project_q
from .model import SocpProblem


class NonFiniteError(ValueError):
    """An evaluated point produced a NaN or infinite value."""


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
    return float(np.linalg.norm(grad_l) + np.linalg.norm(phi - _project_q(pushed)))


class AugEval:
    """The augmented Lagrangian at x for fixed (lam, rho).

    Oracle results (phi, f, jac, fgrad) are computed once and shared with
    every quantity derived at x.  `jac`, `fgrad` and `grad_x` are None
    until `complete` runs.  Nothing here writes into an oracle result.
    """

    __slots__ = ("p", "x", "lam", "rho", "phi", "f", "jac", "fgrad",
                 "shifted", "polar_proj", "value", "grad_x")

    def __init__(self, p: SocpProblem, x, lam, rho: float,
                 phi=None, f=None, jac=None, fgrad=None):
        """Value-only evaluation; oracle results known at x are reused."""
        self.p, self.x, self.lam, self.rho = p, x, lam, rho
        self.phi = p.phi_value(x) if phi is None else phi
        self.shifted, polar = shift(self.phi, lam, rho)
        self.polar_proj = polar
        self.f = p.f_value(x) if f is None else f
        # (rho/2) dist^2(Phi + lam/rho; Q) = ||polar||^2 / (2 rho)
        self.value = float(self.f + (polar @ polar - lam @ lam) / (2.0 * rho))
        self.jac, self.fgrad, self.grad_x = jac, fgrad, None

    def complete(self) -> "AugEval":
        """Add JPhi(x), grad f(x) and grad_x (once); returns self."""
        if self.grad_x is None:
            if self.jac is None:
                self.jac = self.p.phi_jac(self.x)
            if self.fgrad is None:
                self.fgrad = self.p.f_grad(self.x)
            self.grad_x = self.fgrad + self.jac.T @ self.polar_proj
        return self

    def at(self, lam, rho: float) -> "AugEval":
        """The evaluation at the same x for a new (lam, rho)."""
        return AugEval(self.p, self.x, lam, rho, self.phi, self.f, self.jac, self.fgrad)

    @property
    def grad_lam(self) -> np.ndarray:
        return (self.polar_proj - self.lam) / self.rho

    def hessian(self) -> np.ndarray:
        """Generalized Hessian of x -> L_rho(x, lam) at x.

        H = Hess_xx L(x, mu) + rho * JPhi(x)' V JPhi(x) with mu the polar
        projection of the shifted point and V a generalized Jacobian of
        Pi_{-Q} there.
        """
        x, jac = self.x, self.complete().jac
        V = _jacobian_project_polar(self.shifted)
        H = (self.p.f_hess(x) + self.p.phi_hess_contract(x, self.polar_proj)
             + self.rho * (jac.T @ V @ jac))
        return 0.5 * (H + H.T)

    def kkt_residual(self, lam) -> float:
        """KKT residual at (x, lam) from the oracle results held here."""
        self.complete()
        return _kkt_residual(self.phi, self.jac, self.fgrad, lam)


def lagrangian_l(p: SocpProblem, x, lam):
    """Ordinary Lagrangian: value, x-gradient and x-Hessian."""
    p.check_dims(x, lam)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    phi = p.phi_value(x)
    value = p.f_value(x) + float(lam @ phi)
    grad_x = p.f_grad(x) + p.phi_jac(x).T @ lam
    hess_xx = p.f_hess(x) + p.phi_hess_contract(x, lam)
    return value, grad_x, 0.5 * (hess_xx + hess_xx.T)


def aug_lagrangian(p: SocpProblem, x, lam, rho: float) -> AugEval:
    """Evaluate the augmented Lagrangian and its first derivatives."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    p.check_dims(x, lam)
    return AugEval(p, np.asarray(x, dtype=float), np.asarray(lam, dtype=float), rho).complete()


def aug_hessian(p: SocpProblem, x, lam, rho: float) -> np.ndarray:
    """Generalized Hessian of x -> L_rho(x, lam).

    This is the exact Hessian whenever the shifted point avoids the cone
    boundaries; on a kink the cone module's deterministic selection is
    inherited.
    """
    return aug_lagrangian(p, x, lam, rho).hessian()


def residual(p: SocpProblem, x, lam) -> float:
    """KKT residual ||grad_x L(x, lam)|| + ||Phi(x) - Pi_Q(Phi(x) + lam)||."""
    p.check_dims(x, lam)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    return _kkt_residual(p.phi_value(x), p.phi_jac(x), p.f_grad(x), lam)
