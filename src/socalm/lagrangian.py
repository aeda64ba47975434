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

The generalized Hessian Hess_xx L(x, mu) + rho JPhi' V JPhi, with mu the
polar projection of the shifted point and V a generalized Jacobian of
Pi_{-Q} there, is assembled from the structure of V (a multiple alpha of
the identity plus a rank-2 term) as (rho alpha) G + S + rho B C B', with
the Gram matrix G = JPhi' JPhi and S = sym(Hess f + <mu, Hess Phi>).
The first two terms are exactly symmetric; the rank-2 term is added in
place, by one BLAS syr2k, to the upper triangle only, which is the
triangle the Cholesky factorization reads.  So a Newton step costs about
two n x n passes beyond the oracles and the factorization instead of the
O(n^2 m) triple product.  An evaluation hands three values on to `at`
and to line-search trials: the (JPhi, G) pair, the
(Hess f, <mu, Hess Phi>, S) triple and the last Newton factor with its
key (rho alpha, G, S).  G is formed again only when `phi_jac` returns a
different array or a writeable one, and S only when either Hessian
oracle does; for the quadratic and builtin problems, which return the
same read-only arrays, each is formed once per solve.  Where V = alpha I
(inside either cone and on the axis fallback) the Hessian is
(rho alpha) G + S, fixed by its key, so a Newton step whose key is the
carried one costs one triangular solve with the carried factor and no
assembly or factorization; the key changes with rho, with a new G or S,
and with alpha.  Nothing is cached on the problem, which may be shared
between concurrent solves.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dsyr2k

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
    until `complete` runs.  `gram` is the last (JPhi, JPhi' JPhi) pair and
    `curv` the last (Hess f, <mu, Hess Phi>, S) triple formed along the
    solve, or None; `sym` is S at this evaluation and `parts` the
    (alpha, u, r) of V at its shifted point, both None until the first
    Hessian or `newton_key`.  `chol` is the last Newton factor kept along
    the solve with its key, (rho alpha, G, S, factor), or None: the
    solver reuses the factor for a step whose `newton_key` matches it.
    Nothing here writes into an oracle result.
    """

    __slots__ = ("p", "x", "lam", "rho", "phi", "f", "jac", "fgrad", "shifted",
                 "polar_proj", "value", "grad_x", "gram", "curv", "sym", "parts", "chol")

    def __init__(self, p: SocpProblem, x, lam, rho: float, phi=None, f=None,
                 jac=None, fgrad=None, gram=None, curv=None, chol=None):
        """Value-only evaluation; oracle results known at x are reused,
        and so are the Gram pair `gram` and the curvature triple `curv` if
        the oracles at x turn out to return their read-only arrays; `chol`
        is handed on as it is."""
        self.p, self.x, self.lam, self.rho = p, x, lam, rho
        self.phi = p.phi_value(x) if phi is None else phi
        self.shifted, polar = shift(self.phi, lam, rho)
        self.polar_proj = polar
        self.f = p.f_value(x) if f is None else f
        # (rho/2) dist^2(Phi + lam/rho; Q) = ||polar||^2 / (2 rho)
        self.value = float(self.f + (polar @ polar - lam @ lam) / (2.0 * rho))
        self.jac, self.fgrad, self.grad_x = jac, fgrad, None
        self.gram, self.curv, self.sym, self.parts, self.chol = gram, curv, None, None, chol

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
                       self.gram, self.curv, self.chol)

    @property
    def grad_lam(self) -> np.ndarray:
        return (self.polar_proj - self.lam) / self.rho

    def hessian_upper(self) -> np.ndarray:
        """A new array whose upper triangle is that of the generalized
        Hessian of x -> L_rho(x, lam) at x: the triangle `alm.cho_factor`
        reads.  Its strict lower triangle lacks the rank-2 term.

        H = Hess_xx L(x, mu) + rho * JPhi(x)' V JPhi(x) with mu the polar
        projection of the shifted point and V a generalized Jacobian of
        Pi_{-Q} there (the cone module's selection).  With V = alpha I +
        [e0, (0, u)] C [e0, (0, u)]', H = (rho alpha) G + S + rho B C B'
        with G = JPhi' JPhi, S = sym(Hess f + <mu, Hess Phi>) and
        B = [JPhi[0], JPhi[1:]' u].  The penalty term is absent inside Q
        and rho G inside -Q and on the axis fallback with y0 < 0.  The
        Hessian oracles are called on the first call only; G and S come
        from `gram` and `curv` when the oracles return their read-only
        arrays again.
        """
        alpha, u, r = self._penalty_parts()
        jac = self.jac
        if alpha:
            H = (self.rho * alpha) * self.gram[1]
            H += self.sym
        else:
            H = self.sym.copy()
        if u is not None:
            Bt = np.stack((jac[0], jac[1:].T @ u))
            C = (0.5 * self.rho) * np.array([[r, -1.0], [-1.0, r]])
            # 0.5 (B (C B') + (C B')' B') = B C B' into the lower triangle
            # of the Fortran-ordered view H.T, which is H's upper triangle
            dsyr2k(0.5, Bt, C @ Bt, beta=1.0, c=H.T, trans=1, lower=1, overwrite_c=1)
        return H

    def newton_key(self):
        """(rho alpha, G, S) where V = alpha I at the shifted point, the
        three values that fix the Hessian (rho alpha) G + S, with G None
        when alpha = 0; None outside both cones, where the Hessian also
        has the rank-2 term.  Compared with `==` on rho alpha and `is` on
        G and S: G and S are new arrays whenever their oracles' results
        may have changed."""
        alpha, u, _ = self._penalty_parts()
        if u is not None:
            return None
        return self.rho * alpha, (self.gram[1] if alpha else None), self.sym

    def _penalty_parts(self):
        """(alpha, u, r) of V at the shifted point, computed once per
        evaluation, with S and, where alpha is nonzero, the Gram pair
        brought up to date for it."""
        if self.parts is None:
            jac = self.complete().jac
            if self.sym is None:
                self.sym = self._curvature()
            self.parts = _polar_jacobian_parts(self.shifted)
            if self.parts[0] and (self.gram is None or self.gram[0] is not jac
                                  or jac.flags.writeable):
                self.gram = (jac, jac.T @ jac)
        return self.parts

    def _curvature(self) -> np.ndarray:
        """S = sym(Hess f(x) + <mu, Hess Phi(x)>), taken from `curv` when
        both oracles return its read-only arrays."""
        f_hess = self.p.f_hess(self.x)
        phi_hess = self.p.phi_hess_contract(self.x, self.polar_proj)
        c = self.curv
        if (c is None or c[0] is not f_hess or c[1] is not phi_hess
                or f_hess.flags.writeable or phi_hess.flags.writeable):
            S = np.add(f_hess, phi_hess, dtype=float)
            S = S + S.T
            S *= 0.5
            self.curv = c = (f_hess, phi_hess, S)
        return c[2]

    def hessian(self) -> np.ndarray:
        """Generalized Hessian of x -> L_rho(x, lam) at x, exactly
        symmetric: the upper triangle of `hessian_upper`, mirrored."""
        T = self.hessian_upper()
        return np.triu(T) + np.triu(T, 1).T

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
