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
value, the derivatives, the generalized Hessian (`aug_hessian`, the
solver's Newton step) and the KKT residual (`_kkt_residual` of its
oracle results, at the solver's start) at x all come from one call of
each oracle.  An evaluation starts value-only (Phi and f, which is all a
line-search trial needs); `complete` adds JPhi(x), grad f(x) and grad_x
on acceptance.  The shifted point y is checked for finiteness once, when
it is formed, in the pass that forms its space-block norm ||yr||
(`cone._checked_rnorm`); the evaluation keeps that norm, and the polar
projection and, at every Newton step, the generalized Jacobian's parts
are derived from it by the unchecked cone kernels, so no later step
forms it again.

The generalized Hessian Hess_xx L(x, mu) + rho JPhi' V JPhi, with mu the
polar projection of the shifted point and V a generalized Jacobian of
Pi_{-Q} there, is assembled from the structure of V (a multiple alpha of
the identity plus a rank-2 term) as (rho alpha) G + S + rho B C B', with
the Gram matrix G = JPhi' JPhi and S = sym(Hess f + <mu, Hess Phi>).
`curvature` forms S, and hands the oracle's own read-only array back
where that is S already (a quadratic problem's P, whose contraction is
zero), so S may be read-only: nothing here or in the solver
writes into it.  The first two terms are exactly symmetric; the rank-2
term is added in place, by one BLAS syr2k, to the upper triangle only,
which is the triangle the Cholesky factorization reads.  So a Newton step
costs about two n x n passes beyond the oracles and the factorization
instead of the O(n^2 m) triple product.  `hessian_upper` is that one
assembly, from G and S given; `aug_hessian` forms them at x, and the
solver's Newton step (`alm._newton_direction`) keeps them, and the last
factor, from step to step.  At large n, where S and JPhi repeat, no step
assembles an n x n matrix or forms G: every step is solved in the
multiplier space of S and JPhi (`alm.MultiplierForm`), whose directions
solve the same system up to rounding, and this assembly serves only a
step that form cannot solve.

The hand-on rule.  `AugEval(p, x, lam, rho, prev)` takes prev's oracle
results when prev.x is x: the next outer iteration evaluates the same x
at a new (lam, rho) without calling an oracle again.  Nothing is cached
on the problem, which may be shared between concurrent solves, and a
result repeats one from another point only by `model._held`'s rule.
"""

from __future__ import annotations

import math

import numpy as np

from ._lapack import dsyr2k
from .cone import _checked_rnorm, _polar_jacobian_parts, _positive, _project_polar, _project_q
from .model import SocpProblem


def shift(phi: np.ndarray, lam: np.ndarray, rho: float):
    """(y, ||yr||, Pi_{-Q}(y)) for the shifted point y = rho Phi + lam;
    NonFiniteError where y is not finite or ||yr|| overflows.  The caller
    turns numpy's overflow warning off (the solver does), since forming
    ||yr||^2 is how an overflow is detected."""
    shifted = rho * phi + lam
    rnorm = _checked_rnorm(shifted, "non-finite shifted point rho*Phi(x)+lam")
    return shifted, rnorm, _project_polar(shifted, rnorm)


def _gap_norm(phi, lam) -> float:
    """||Phi - Pi_Q(Phi + lam)||, the KKT residual's cone term; rejects,
    as `shift` does, a Phi + lam that is not finite or the norm of whose
    space block overflows."""
    pushed = phi + lam
    gap = phi - _project_q(pushed, _checked_rnorm(pushed, "non-finite point Phi(x)+lam"))
    return math.sqrt(gap.dot(gap))


def _kkt_residual(phi, jac, fgrad, lam) -> float:
    grad_l = fgrad + jac.T @ lam
    return math.sqrt(grad_l.dot(grad_l)) + _gap_norm(phi, lam)


def curvature(f_hess, phi_hess) -> np.ndarray:
    """S = sym(Hess f + <mu, Hess Phi>) from the two Hessian oracle
    results.  Where every entry of phi_hess is zero (a quadratic
    problem's) and f_hess is a read-only float array equal to its
    transpose, S is f_hess itself, returned unchanged and read-only: no
    n x n array is formed.  Otherwise S is a new array, (A + A')/2 of the
    sum A.  Both give the values of the second formula, to the sign of a
    zero, and the first keeps an entry above half the largest float
    finite."""
    if (isinstance(f_hess, np.ndarray) and f_hess.dtype == float
            and not f_hess.flags.writeable and isinstance(phi_hess, np.ndarray)
            and f_hess.shape == phi_hess.shape and not phi_hess.any()
            and np.array_equal(f_hess, f_hess.T)):
        return f_hess
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
        Bt = np.empty((2, jac.shape[1]))
        Bt[0] = jac[0]
        Bt[1] = jac[1:].T @ u
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

    __slots__ = ("p", "x", "lam", "rho", "phi", "f", "jac", "fgrad", "shifted", "rnorm",
                 "polar_proj", "value", "grad_x")

    def __init__(self, p: SocpProblem, x, lam, rho: float, prev: AugEval | None = None):
        """Value-only evaluation."""
        same = prev is not None and prev.x is x
        self.p, self.x, self.lam, self.rho = p, x, lam, rho
        self.phi = prev.phi if same else p.phi_value(x)
        self.shifted, self.rnorm, polar = shift(self.phi, lam, rho)
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


def lagrangian_l(p: SocpProblem, x, lam):
    """Ordinary Lagrangian: value, x-gradient and x-Hessian.  The Hessian
    is `curvature`'s, symmetric, and for a quadratic problem the oracle's
    read-only P itself, so a caller that writes into it copies it first."""
    x, lam = p.check_dims(x, lam)
    phi = p.phi_value(x)
    value = p.f_value(x) + float(lam @ phi)
    grad_x = p.f_grad(x) + p.phi_jac(x).T @ lam
    return value, grad_x, curvature(p.f_hess(x), p.phi_hess_contract(x, lam))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing square is detected
def aug_lagrangian(p: SocpProblem, x, lam, rho: float) -> AugEval:
    """Evaluate the augmented Lagrangian and its first derivatives."""
    _positive("rho", rho)
    return AugEval(p, *p.check_dims(x, lam), rho).complete()


def aug_hessian(p: SocpProblem, x, lam, rho: float) -> np.ndarray:
    """Generalized Hessian of x -> L_rho(x, lam), exactly symmetric: the
    upper triangle of `hessian_upper`, mirrored, with G and S formed here.

    H = Hess_xx L(x, mu) + rho * JPhi(x)' V JPhi(x) with mu the polar
    projection of the shifted point and V a generalized Jacobian of
    Pi_{-Q} there (the cone module's selection).  This is the exact
    Hessian whenever the shifted point avoids the cone boundaries; on a
    kink the cone module's deterministic selection is inherited.
    """
    ev = aug_lagrangian(p, x, lam, rho)
    S = curvature(p.f_hess(ev.x), p.phi_hess_contract(ev.x, ev.polar_proj))
    parts = _polar_jacobian_parts(ev.shifted, ev.rnorm)
    T = hessian_upper(rho, parts, ev.jac, ev.jac.T @ ev.jac if parts[0] else None, S)
    return np.triu(T) + np.triu(T, 1).T


@np.errstate(over="ignore")  # an overflowing square is detected
def residual(p: SocpProblem, x, lam) -> float:
    """KKT residual ||grad_x L(x, lam)|| + ||Phi(x) - Pi_Q(Phi(x) + lam)||;
    NonFiniteError where Phi(x) + lam is not finite or the norm of its
    space block overflows."""
    x, lam = p.check_dims(x, lam)
    return _kkt_residual(p.phi_value(x), p.phi_jac(x), p.f_grad(x), lam)
