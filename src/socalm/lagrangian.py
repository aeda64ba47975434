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

The penalty term rho JPhi' V JPhi of the generalized Hessian is
assembled from the structure of V (a multiple of the identity plus a
rank-2 term) as rho (alpha G + B C B') with the Gram matrix
G = JPhi' JPhi, so a Newton step costs O(n^2) beyond the oracles and the
Cholesky factorization instead of the O(n^2 m) triple product.  An
evaluation hands its (JPhi, G) pair on to `at` and to line-search trials,
and G is formed again only when `phi_jac` returns a different array or a
writeable one; for the quadratic and builtin problems, which return one
read-only JPhi, that is once per solve.  Nothing is cached on the
problem, which may be shared between concurrent solves.
"""

from __future__ import annotations

import math

import numpy as np

from .cone import _polar_jacobian_parts, _project_polar, _project_q
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
    gap = phi - _project_q(pushed)
    return math.sqrt(grad_l @ grad_l) + math.sqrt(gap @ gap)


class AugEval:
    """The augmented Lagrangian at x for fixed (lam, rho).

    Oracle results (phi, f, jac, fgrad) are computed once and shared with
    every quantity derived at x.  `jac`, `fgrad` and `grad_x` are None
    until `complete` runs.  `gram` is the last (JPhi, JPhi' JPhi) pair
    formed along the solve, or None.  Nothing here writes into an oracle
    result.
    """

    __slots__ = ("p", "x", "lam", "rho", "phi", "f", "jac", "fgrad",
                 "shifted", "polar_proj", "value", "grad_x", "gram")

    def __init__(self, p: SocpProblem, x, lam, rho: float,
                 phi=None, f=None, jac=None, fgrad=None, gram=None):
        """Value-only evaluation; oracle results known at x are reused,
        and so is the Gram pair `gram` if JPhi(x) turns out to be its
        read-only Jacobian."""
        self.p, self.x, self.lam, self.rho = p, x, lam, rho
        self.phi = p.phi_value(x) if phi is None else phi
        self.shifted, polar = shift(self.phi, lam, rho)
        self.polar_proj = polar
        self.f = p.f_value(x) if f is None else f
        # (rho/2) dist^2(Phi + lam/rho; Q) = ||polar||^2 / (2 rho)
        self.value = float(self.f + (polar @ polar - lam @ lam) / (2.0 * rho))
        self.jac, self.fgrad, self.grad_x, self.gram = jac, fgrad, None, gram

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
        return AugEval(self.p, self.x, lam, rho, self.phi, self.f, self.jac, self.fgrad,
                       self.gram)

    @property
    def grad_lam(self) -> np.ndarray:
        return (self.polar_proj - self.lam) / self.rho

    def hessian(self) -> np.ndarray:
        """Generalized Hessian of x -> L_rho(x, lam) at x, exactly symmetric.

        H = Hess_xx L(x, mu) + rho * JPhi(x)' V JPhi(x) with mu the polar
        projection of the shifted point and V a generalized Jacobian of
        Pi_{-Q} there (the cone module's selection).  With V = alpha I +
        [e0, (0, u)] C [e0, (0, u)]', the penalty term is
        rho (alpha G + B C B') with G = JPhi' JPhi and
        B = [JPhi[0], JPhi[1:]' u].  It is absent inside Q and rho G inside
        -Q and on the axis fallback with y0 < 0.  G comes from `gram` when
        JPhi(x) is its read-only Jacobian.
        """
        x, jac = self.x, self.complete().jac
        f_hess = self.p.f_hess(x)
        phi_hess = self.p.phi_hess_contract(x, self.polar_proj)
        alpha, u, r = _polar_jacobian_parts(self.shifted)
        # sums are formed in place, so each term costs no n x n temporary
        if alpha:
            if self.gram is None or self.gram[0] is not jac or jac.flags.writeable:
                self.gram = (jac, jac.T @ jac)
            H = (self.rho * alpha) * self.gram[1]
            H += f_hess
            H += phi_hess
        else:
            H = np.add(f_hess, phi_hess, dtype=float)
        if u is not None:
            Bt = np.stack((jac[0], jac[1:].T @ u))
            C = (0.5 * self.rho) * np.array([[r, -1.0], [-1.0, r]])
            H += Bt.T @ (C @ Bt)
        H = H + H.T
        H *= 0.5
        return H

    def kkt_residual(self, lam) -> float:
        """KKT residual at (x, lam) from the oracle results held here."""
        self.complete()
        return _kkt_residual(self.phi, self.jac, self.fgrad, lam)


def hessian_lagrangian(p: SocpProblem, xbar, lam_bar) -> np.ndarray:
    """Symmetric Hessian of the ordinary Lagrangian in x."""
    x = np.asarray(xbar, dtype=float)
    lam = np.asarray(lam_bar, dtype=float)
    H = p.f_hess(x) + p.phi_hess_contract(x, lam)
    return 0.5 * (H + H.T)


def lagrangian_l(p: SocpProblem, x, lam):
    """Ordinary Lagrangian: value, x-gradient and x-Hessian."""
    x, lam = p.check_dims(x, lam)
    phi = p.phi_value(x)
    value = p.f_value(x) + float(lam @ phi)
    grad_x = p.f_grad(x) + p.phi_jac(x).T @ lam
    return value, grad_x, hessian_lagrangian(p, x, lam)


def aug_lagrangian(p: SocpProblem, x, lam, rho: float) -> AugEval:
    """Evaluate the augmented Lagrangian and its first derivatives."""
    if rho <= 0:
        raise ValueError("rho must be positive")
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
