"""Augmented Lagrangian method: inexact inner solves, multiplier updates,
penalty scheduling and a per-iteration trace.

Each outer iteration minimizes the augmented Lagrangian in x
(regularized semismooth Newton with Armijo backtracking) until the
gradient norm is at most eps_k = eta sigma_k (`Proportional`) or at most
its rounding floor, whichever is larger; one rule, tested at every
Newton iteration, serves every eta, and eta = 0, the exact method, is
the case where only the floor stops.  It then projects the shifted
constraint value onto the polar cone to update the multiplier.  The
penalty starts at rho0 and never decreases; it grows, up to rho_max,
after each outer step that fails to cut the KKT residual to FAST times
its old value, since the outer map contracts faster at a larger rho.

Near a strictly complementary pair the outer map lam -> Pi_{-Q}(rho
Phi(x(lam)) + lam) is a contraction at a fixed rho, and where it is slow
the next inner solve is shifted by its type-II Anderson extrapolation
instead (Walker and Ni, SIAM J. Numer. Anal. 49, 2011): from the last
memory + 1 pairs (g - s, g) of the steps at the current rho, s the shift
an inner solve used and g its polar projection, the shift g_k - dG gamma
with gamma the least-squares solution of dF gamma = g_k - s_k (dF, dG the
differences of consecutive g - s and g).  Only the shift moves: the
reported multiplier is always the projection g_k, which lies in -Q, and
the residual and the penalty rule are those of the plain ALM, which is
memory = 0.

The Newton step (`_newton_direction`) solves with the generalized
Hessian H = S + rho JPhi' V JPhi in one of two spaces.  At large n, where
S and JPhi repeat at every step (the rule in `model.SocpProblem`), S is
positive definite and m + 1 < n, every step is solved in the (m+1)-dimensional
multiplier space (`MultiplierForm`), whose directions equal the dense
ones up to rounding, and no n x n matrix but S is factored.  That gains
where a solve takes many steps outside both cones, and costs up to a
quarter of the solve where it takes few (`REDUCED_MIN_N`).  Elsewhere,
and for a step the form cannot solve, the dense path assembles and
factors H, or reuses the kept factor where V = alpha I; its directions
are bit for bit those of factoring every step.  Either way a solve is
deterministic at a fixed BLAS thread count.  LAPACK's potrf and trtrs
and BLAS's syr2k come from `_lapack`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import dpotrf, dsyr2k, dtrtrs
from .cone import (NonFiniteError, _at_least, _finite, _nonnegative, _norm,
                   _polar_jacobian_parts, _positive, as_cone_vec)
from .lagrangian import AugEval, _gap_norm, _kkt_residual, curvature, hessian_upper, shift
from .model import KktPoint, SocpProblem, _held


@dataclass(frozen=True)
class Proportional:
    """eps_k = eta * sigma_k; keeps the tolerance a fixed fraction of the
    residual, which is what the linear-rate analysis consumes.  eta = 0 is
    the exact method: each inner solve runs to the gradient's rounding
    floor (`_inner_solve`)."""

    eta: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {self.eta!r}")


MU0 = 1e-8                # initial Newton regularization
ARMIJO = 1e-4             # sufficient-decrease constant
BACKTRACK = 0.5           # step shrink factor
MAX_LINESEARCH = 60       # backtracking steps per Newton step
EPS = np.finfo(float).eps  # machine epsilon, scales the Armijo noise allowance and the floor
SLOW = 0.25               # residual ratio above which the next shift is extrapolated
FAST = 0.1                # residual ratio above which the penalty is raised


@dataclass(frozen=True)
class AlmConfig:
    """Penalty schedule, inner-tolerance rule, iteration budgets and the
    number of differences the extrapolated shift keeps (0: the plain ALM)."""

    rho0: float = 10.0
    rho_growth: float = 10.0
    rho_max: float = 1e5
    eps_rule: Proportional = Proportional(0.1)
    outer_tol: float = 1e-9
    max_outer: int = 100
    max_inner: int = 200      # Newton steps per inner solve
    memory: int = 5           # Anderson differences kept at one rho

    def __post_init__(self):
        _positive("rho0", self.rho0)
        # written as `not <valid>` so that a NaN setting is rejected too
        if not self.rho_growth >= 1.0:
            raise ValueError(f"rho_growth must be >= 1, got {self.rho_growth!r}")
        if not self.rho_max >= self.rho0:
            raise ValueError(f"rho_max must be >= rho0, got {self.rho_max!r}")
        _positive("outer_tol", self.outer_tol)
        _at_least("max_outer", self.max_outer)
        _at_least("max_inner", self.max_inner)
        _at_least("memory", self.memory)


class AlmStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    INNER_FAILURE = "InnerFailure"


class InnerFailure(RuntimeError):
    """Inner solver stopped short of its tolerance: iteration budget spent,
    no Newton descent direction, failed line search or non-finite oracle."""

    def __init__(self, message, x, grad_norm, iters):
        super().__init__(message)
        self.x = x
        self.grad_norm = grad_norm
        self.iters = iters


@dataclass
class AlmTrace:
    """Per-iteration history; row k describes the iterate (x_k, lam_k)
    and the controls of the step taken from it (zeros on the last row).
    shifts[k] is the multiplier row k's inner solve was shifted by, lam_k
    unless that shift was extrapolated; values[k] is L_rho at (x_k,
    shifts[k]), and lams[k + 1] the projection of rho_k Phi(x_{k+1}) +
    shifts[k]."""

    xs: List[np.ndarray] = field(default_factory=list)
    lams: List[np.ndarray] = field(default_factory=list)
    shifts: List[np.ndarray] = field(default_factory=list)
    rhos: List[float] = field(default_factory=list)
    epss: List[float] = field(default_factory=list)
    sigmas: List[float] = field(default_factory=list)
    inner_iters: List[int] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    status: Optional[AlmStatus] = None
    message: str = ""   # why the run stopped early (InnerFailure, or a fixed point)

    def append(self, x, lam, rho, eps, sigma, inner, grad_norm, value, shift=None):
        """Add a row; shift None is lam."""
        self.xs.append(np.array(x, dtype=float))
        self.lams.append(np.array(lam, dtype=float))
        self.shifts.append(self.lams[-1] if shift is None else np.array(shift, dtype=float))
        self.rhos.append(float(rho))
        self.epss.append(float(eps))
        self.sigmas.append(float(sigma))
        self.inner_iters.append(int(inner))
        self.grad_norms.append(float(grad_norm))
        self.values.append(float(value))

    def __len__(self):
        return len(self.sigmas)


def cho_factor(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric matrix A (LAPACK potrf),
    computed in place: overwrites A; raises LinAlgError when A is not
    positive definite, with A's upper triangle partly overwritten.

    LAPACK reads A's transpose, a Fortran-ordered view of a C-ordered A,
    and of that only the lower triangle, which is A's upper triangle; the
    returned factor is that view, whose strict upper triangle keeps A's
    strict lower triangle.  LAPACK is called directly, through the potrf
    of `_lapack`: the high-level Cholesky wrappers convert and check
    their input first, which costs more than the factorization at
    n <= 20.  This and `cho_solve` stay module-level functions that the
    Newton step looks up by name, so that a profiler or the benchmark's tracer
    (`perfbench/tracer.py`) can wrap them in place and count raised
    calls as failed factorizations: every factorization of the step goes
    through them, the n x n ones of the dense path and of S, and the
    (m+1) x (m+1) ones of the multiplier-space path.
    """
    c, info = dpotrf(A.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = b from the factor c = cho_factor(A): two triangular
    solves (LAPACK trtrs), L^-T (L^-1 b), for b a vector or a matrix of
    right-hand sides.  OpenBLAS's potrs takes up to 4x longer with one
    right-hand side at n = 400; at n <= 20 it is faster by about 1 us."""
    return dtrtrs(c, dtrtrs(c, b, lower=1)[0], lower=1, trans=1)[0]


# Smallest n at which a solve takes its Newton steps in the multiplier
# space.  Timed on one BLAS thread of a shared 2-core x86-64 host at
# m + 1 = n/2 + 1 (S = R'R + I, Gaussian JPhi), a step outside both cones
# takes 0.05 against 0.05 ms at n = 100, 0.07 against 0.11 at n = 150
# and 0.30 against 1.0 at n = 400; a step inside -Q or Q with its kept
# factor takes about twice (-Q) or once (Q) the dense one's 0.01-0.04
# ms; and the set-up beyond the factor of S (W and K, about two dense
# steps outside both cones at n = 400) replaces the Gram matrix and a
# dense factorization at each new rho.  Whole planted solves (mean of 6
# seeds) in the multiplier space over solves on the dense path take 0.98
# (BoundaryQNonzero), 1.21 (Zero) and 1.35 (InteriorQ) at n = 100; 0.90,
# 1.12 and 1.23 at n = 150; 0.76, 1.07 and 1.04 at n = 200; 0.58, 1.05
# and 1.12 at n = 400.  So above the gate a solve with many steps outside
# both cones (BoundaryQNonzero: 12-17 at n = 200-400) gains, and one with
# one or two, then steps inside -Q or Q (Zero, InteriorQ), pays up to
# 23% more than on the dense path: forming W = L^-1 JPhi' alone (1.7 ms at
# n = 400) costs more than G and one dense factorization.  Every planted
# kind's first step lies outside both cones, so the first step does not
# tell the two apart.
REDUCED_MIN_N = 150


class MultiplierForm:
    """The Newton matrix H = S + rho JPhi' V JPhi solved in the
    (m+1)-dimensional multiplier space, from S = LL', W = L^-1 JPhi'
    (n x (m+1)) and K = W'W, formed once for one S and JPhi: L when the
    form is built, W and K at the first step with V nonzero, so that a
    solve whose steps all lie inside Q (V = 0) factors S and nothing else.

    Since 0 <= V <= I, rho V = U U with U = sqrt(rho) V^1/2, and
    H = L (I + (WU)(WU)') L'.  Sherman-Morrison-Woodbury then gives, with
    z = L^-1 (-g),

        d = H^-1 (-g) = L^-T (z - W U A^-1 U W'z),   A = I + U K U,

    one factorization of the (m+1) x (m+1) matrix A and no n x n one.
    Where V = alpha I (inside Q or -Q), U = s I with s = sqrt(rho alpha):
    at alpha = 0, H = S and d = L^-T z factors nothing; otherwise A =
    I + s^2 K is factored once per s^2 and kept, as the dense path keeps
    its factor.  Outside both cones, V has the eigenvalues 1 on a =
    (e0 - w)/sqrt 2, 0 on b = (e0 + w)/sqrt 2 (w = (0, u)) and alpha on
    the rest (`cone._polar_jacobian_parts`), so U = s I + P Gamma P' with
    P = [a, b] and Gamma = diag(sqrt(rho) - s, -s), and A = I + s^2 K + a
    rank-4 term, added by one BLAS syr2k to the triangle `cho_factor`
    reads.  The construction raises LinAlgError when S is not positive
    definite.  The factorizations and the solves with A go through the
    module-level `cho_factor` and `cho_solve`.
    """

    __slots__ = ("L", "jac", "W", "K", "chol")

    def __init__(self, S: np.ndarray, jac: np.ndarray):
        self.L = cho_factor(S.copy())
        self.jac, self.W, self.K = jac, None, None
        self.chol = None   # (s^2, Cholesky factor of I + s^2 K) of the last V = alpha I step

    def direction(self, rho: float, parts, grad: np.ndarray):
        """The Newton direction -H^-1 grad for V = parts at the penalty
        rho; None where A does not factor or the direction is not finite,
        which leaves the step to the dense path."""
        alpha, u, _ = parts
        L = self.L
        z = dtrtrs(L, -grad, lower=1)[0]
        s2 = rho * alpha
        if self.W is None and (u is not None or s2):
            W = dtrtrs(L, self.jac.T, lower=1)[0]
            self.W, self.K = W, W.T @ W
        W, K = self.W, self.K
        if u is not None:
            t = W.T @ z
            A = s2 * K
            s, h = math.sqrt(s2), math.sqrt(0.5)
            Pt = np.zeros((2, K.shape[0]))
            Pt[:, 0], Pt[0, 1:], Pt[1, 1:] = h, -h * u, h * u
            Xt = np.array([[math.sqrt(rho) - s], [-s]]) * Pt
            Qt = Pt @ K
            # U K U = s^2 K + X Y' + Y X' with X = P Gamma, Y = s K P + X (P'KP)/2
            Yt = s * Qt + 0.5 * (Qt @ Pt.T) @ Xt
            dsyr2k(1.0, Xt, Yt, beta=1.0, c=A.T, trans=1, lower=1, overwrite_c=1)
            A.flat[::A.shape[0] + 1] += 1.0
            try:
                c = cho_factor(A)
            except LinAlgError:
                return None
            # U v = s v + X P'v
            Uq = cho_solve(c, s * t + (Pt @ t) @ Xt)
            z -= W @ (s * Uq + (Pt @ Uq) @ Xt)
        elif s2:   # V = alpha I with alpha > 0; at alpha = 0, H = S
            if self.chol is None or self.chol[0] != s2:
                A = s2 * K
                A.flat[::A.shape[0] + 1] += 1.0
                try:
                    self.chol = (s2, cho_factor(A))
                except LinAlgError:
                    return None
            z -= W @ (s2 * cho_solve(self.chol[1], W.T @ z))
        d = dtrtrs(L, z, lower=1, trans=1)[0]
        return d if np.isfinite(d).all() else None


class NewtonState:
    """The Newton data one solve keeps from step to step: the curvature
    triple (Hess f, <mu, Hess Phi>, S = sym(Hess f + <mu, Hess Phi>)) and
    the held JPhi (`model._held`), and what is formed from that S and JPhi:
    the `MultiplierForm` where it applies, and for the dense path the
    Gram matrix G = JPhi' JPhi and the kept dense factor (rho alpha,
    Cholesky factor of (rho alpha) G + S), each None until formed.
    `_newton_direction` alone reads and writes them."""

    __slots__ = ("curv", "jac", "G", "chol", "reduced")

    def __init__(self):
        self.curv = self.jac = self.G = self.chol = self.reduced = None


def _newton_direction(ev: AugEval, state: NewtonState):
    """The regularized Newton direction at the evaluation ev: the
    solution d of (H + mu I) d = -grad_x for the generalized Hessian H,
    with mu = 0 first and then doubling from MU0, for at most 80
    attempts; None when every attempt fails.  Raises NonFiniteError on a
    non-finite Hessian.

    S is formed again unless both Hessian oracle results repeat the held
    ones, and JPhi is new unless the `phi_jac` result repeats the held
    JPhi, by the rule in `model.SocpProblem` (`model._held`).  A new S or
    JPhi drops everything formed from the old ones: the multiplier form,
    G and the kept factor.

    At n >= REDUCED_MIN_N, with S and JPhi read-only and m + 1 < n, the
    step that finds them new builds the `MultiplierForm` of S and JPhi,
    and every step until they change is solved there: outside both cones
    with one (m+1) x (m+1) factorization, inside -Q with the factor of
    I + rho K kept across the steps at one rho, and inside Q with L
    alone.  Where S is not positive definite the form is not built, and a
    step it cannot solve takes the dense path.

    The dense path builds H = (rho alpha) G + S + rho B C B'
    (`lagrangian.hessian_upper`) from the S and JPhi held in state, and
    the G formed from that JPhi where alpha is nonzero.  Where V = alpha I
    with the kept factor's rho alpha, d is solved with that factor and
    nothing is assembled or factored.  Otherwise H is assembled and
    factored in place; each regularized attempt assembles it again and
    adds mu to the diagonal, and where V = alpha I the factor found is
    kept.  Each factorization, dense or not, is one call of the
    module-level `cho_factor`, looked up by name so that a wrapper
    installed on the module (the benchmark's tracer) sees it.
    """
    p, x, jac = ev.p, ev.x, ev.complete().jac
    f_hess, phi_hess = p.f_hess(x), p.phi_hess_contract(x, ev.polar_proj)
    parts = alpha, u, _ = _polar_jacobian_parts(ev.shifted, ev.rnorm)
    m1, n = jac.shape
    curv = state.curv
    if curv is None or not (_held(f_hess, curv[0]) and _held(phi_hess, curv[1])):
        state.curv = curv = (f_hess, phi_hess, curvature(f_hess, phi_hess))
        state.jac = None   # drops, below, what the old S formed
    if not _held(jac, state.jac):
        state.jac, state.G, state.chol, state.reduced = jac, None, None, None
        # the set-up costs more than a dense step, so it is built only for
        # an S and a JPhi that can repeat
        if (n >= REDUCED_MIN_N and m1 < n and not (
                jac.flags.writeable or f_hess.flags.writeable or phi_hess.flags.writeable)):
            try:
                state.reduced = MultiplierForm(curv[2], jac)
            except LinAlgError:
                pass
    if state.reduced is not None:
        d = state.reduced.direction(ev.rho, parts, ev.grad_x)
        if d is not None:
            return d
    if alpha and state.G is None:
        state.G = jac.T @ jac
    key = None if u is not None else ev.rho * alpha
    if state.chol is not None and state.chol[0] == key:
        return cho_solve(state.chol[1], -ev.grad_x)
    G, S = state.G, curv[2]
    H = hessian_upper(ev.rho, parts, jac, G, S)
    # the strict lower triangle is finite wherever the upper one is; a
    # finite sum of squares makes every entry finite, so H is tested entry
    # by entry only where that sum is not finite
    h = H.ravel()
    if not h.dot(h) < math.inf and not np.isfinite(h).all():
        raise NonFiniteError("non-finite Hessian")
    mu = 0.0
    for _ in range(80):
        if mu:
            H = hessian_upper(ev.rho, parts, jac, G, S)
            H.flat[::H.shape[0] + 1] += mu
        try:
            c = cho_factor(H)
            break
        except LinAlgError:
            mu = 2.0 * mu if mu else MU0
    else:
        return None
    if key is not None:
        state.chol = (key, c)
    return cho_solve(c, -ev.grad_x)


def _inner_solve(ev: AugEval, state: NewtonState, eps_k: float, max_inner: int):
    """Minimize x -> L_rho(x, lam) from the evaluation ev at the start,
    with Newton steps that keep S and what is formed from it in state, until
    ||grad|| <= eps_k or ||grad|| is at most its rounding floor (a floor
    stop: grad_norm > eps_k), both tested at every iteration for every
    eps_k >= 0; eps_k = 0 is the exact method.  The floor is the rounding
    error of grad_x = grad f + JPhi' Pi_{-Q}(rho Phi + lam),

        4 eps (||grad f|| + ||JPhi||_F (rho (||JPhi||_F ||x|| + ||Phi||) + ||lam||)),

    with ||lam|| formed once per solve and ||JPhi||_F again only for a
    new JPhi (`model._held`), so each test costs three vector norms.

    Returns (evaluation at the final x, grad_norm, iters); each accepted
    point is evaluated once, and a line-search trial only by value.  A
    non-finite evaluation, no Newton descent direction or a failed line
    search ends the solve with InnerFailure.
    """
    p, lam, rho = ev.p, ev.lam, ev.rho
    ev.complete()
    lam_norm, jac, jac_norm = _norm(lam), None, 0.0
    for it in range(max_inner + 1):
        x = ev.x
        grad_norm = math.sqrt(ev.grad_x.dot(ev.grad_x))
        if not math.isfinite(grad_norm):
            raise InnerFailure(f"non-finite gradient (iteration {it})", x, grad_norm, it)
        if not _held(ev.jac, jac):
            jac, jac_norm = ev.jac, _norm(ev.jac.ravel())
        if grad_norm <= eps_k or grad_norm <= 4.0 * EPS * (_norm(ev.fgrad) + jac_norm * (
                rho * (jac_norm * _norm(x) + _norm(ev.phi)) + lam_norm)):
            return ev, grad_norm, it
        if it == max_inner:
            raise InnerFailure(
                f"inner solve stalled at ||grad||={grad_norm:.3e} after {it} iterations",
                x, grad_norm, it)
        try:
            d = _newton_direction(ev, state)
        except NonFiniteError as exc:
            raise InnerFailure(f"{exc} (iteration {it})", x, grad_norm, it) from exc
        slope = math.nan if d is None else float(ev.grad_x.dot(d))
        if not slope < 0.0:
            raise InnerFailure(f"no Newton descent direction (iteration {it})", x, grad_norm, it)
        # allowance for roundoff in the value: near the minimum the true
        # decrease is below machine noise and a strict Armijo test stalls
        noise = 8.0 * EPS * max(1.0, abs(ev.value))
        step = 1.0
        for _ in range(MAX_LINESEARCH):
            try:
                cand = AugEval(p, x + step * d, lam, rho)
            except NonFiniteError as exc:
                raise InnerFailure(f"{exc} in the line search (iteration {it})",
                                   x, grad_norm, it) from exc
            if cand.value <= ev.value + ARMIJO * step * slope + noise:
                break
            step *= BACKTRACK
        else:
            raise InnerFailure(
                f"line search failed at ||grad||={grad_norm:.3e} (iteration {it})",
                x, grad_norm, it)
        ev = cand.complete()


@np.errstate(over="ignore")  # an overflowing square is detected
def inner_solve(p: SocpProblem, lambda_k, rho_k: float, x_start, eps_k: float,
                max_inner: int = 200):
    """Minimize x -> L_rho(x, lambda_k) until its gradient norm is at most
    max(eps_k, its rounding floor), tested at every iteration, in at most
    max_inner Newton steps; eps_k = 0 stops at the floor.

    Returns (x, grad_norm, iters).  The step is regularized Newton on the
    generalized Hessian with Armijo backtracking on the value; a step that
    is not a descent direction ends the solve with InnerFailure.
    """
    _nonnegative("eps_k", eps_k)
    _positive("rho_k", rho_k)
    _at_least("max_inner", max_inner)
    x, lam = p.check_dims(x_start, lambda_k)
    ev, grad_norm, iters = _inner_solve(AugEval(p, x.copy(), lam, rho_k), NewtonState(), eps_k,
                                        max_inner)
    return ev.x, grad_norm, iters


@np.errstate(over="ignore")  # an overflowing shift is detected
def update_multiplier(phi_x_next, lambda_k, rho_k: float) -> np.ndarray:
    """Multiplier update: project rho_k * Phi(x_next) + lambda_k onto -Q;
    NonFiniteError, with no floating-point warning, where that point is
    not finite or the norm of its space block overflows."""
    _positive("rho_k", rho_k)
    phi = as_cone_vec(phi_x_next)
    lam = np.asarray(lambda_k, dtype=float)
    if lam.shape != phi.shape:
        raise ValueError(f"lambda_k has shape {lam.shape}, Phi(x_next) has {phi.shape}")
    _finite("lambda_k", lam)
    return shift(phi, lam, rho_k)[2]


def _anderson_shift(history) -> np.ndarray:
    """The type-II Anderson point g_k - dG gamma of the pairs (f, ||f||, g),
    f = g - s, in history, oldest first: gamma is the least-squares
    solution, of least norm, of dF gamma = f_k, and dF, dG hold the
    differences of consecutive f and g.  g_k itself where a difference or
    the point is not finite."""
    g = history[-1][2]
    dF = np.diff([f for f, _, _ in history], axis=0)
    if not np.isfinite(dF).all():  # LAPACK would print to stderr
        return g
    gamma = np.linalg.lstsq(dF.T, history[-1][0], rcond=None)[0]
    point = g - gamma @ np.diff([g for _, _, g in history], axis=0)
    return point if np.isfinite(point).all() else g


@np.errstate(all="ignore")
def solve(p: SocpProblem, x0, lambda0, cfg: AlmConfig = AlmConfig()):
    """Run the ALM from (x0, lambda0); returns (KktPoint, AlmTrace).

    Stops when the KKT residual drops to cfg.outer_tol (Converged), the
    outer budget is exhausted or an outer iteration, which would then
    repeat, leaves x, lam and rho unchanged (MaxIterations, the second with
    trace.message), or an inner solve fails (InnerFailure, with the
    partial trace and trace.message), including on a non-finite oracle
    result and on a shifted point that overflows at a new iterate; that
    iterate is the last trace row, with a NaN value.  The penalty is
    raised by rho_growth, capped at rho_max, whenever a step fails to cut
    the residual to FAST times its old value (sigma_{k+1} > FAST sigma_k),
    except after an inner solve that stopped at its rounding floor short
    of a positive eps_k and moved (x, lam), and where one more step at the
    measured ratio would reach the tolerance (sigma_{k+1}^2 / sigma_k <=
    cfg.outer_tol): a raise there can leave every later inner solve at its
    rounding floor.  The default rho_max = 1e5 keeps that floor below
    outer_tol on ill-conditioned vertex problems.  Every inner solve
    stops at max(eps_k, its rounding floor), whatever eta; with eta = 0
    (the exact method) eps_k is 0.  A non-finite start (x0, lambda0, or
    the shifted point or the KKT residual there) raises NonFiniteError, a
    ValueError.  No floating-point warning is printed: every overflow or
    invalid value surfaces as one of these outcomes.

    The multiplier shift.  Each step at the current rho adds its pair
    (g - s, g), s the shift of its inner solve and g the updated
    multiplier, to a history of the last cfg.memory + 1.  Where a step was
    slow (sigma_{k+1} > SLOW sigma_k) and did not converge, and at least
    two pairs are held, the next inner solve is shifted by the Anderson
    point (`_anderson_shift`), or by g where that point is not finite or
    the shifted point overflows there.  The history is cleared where rho
    changes, after a floor stop, after an inner solve of no step and where
    ||g - s|| grows.  With cfg.memory = 0 every shift is the multiplier:
    the plain ALM.

    Each outer iteration reuses the inner solve's final evaluation: its
    polar projection is the multiplier update, its oracle results give
    the residual and start the next inner solve.  The residual's gradient
    term at the new multiplier is the norm of that evaluation's grad_x
    (grad f + JPhi' lam_{k+1}, the same operands), which the inner solve
    returned, so only the cone term ||Phi - Pi_Q(Phi + lam_{k+1})|| is
    formed.  One NewtonState serves every inner solve, so S, the
    multiplier form, G and a kept factor outlive an outer step.
    """
    x, lam = map(np.copy, p.check_dims(x0, lambda0))
    rho, eta = cfg.rho0, cfg.eps_rule.eta
    trace = AlmTrace()
    ev, state = AugEval(p, x, lam, rho).complete(), NewtonState()
    history = []   # (g - s, ||g - s||, g) of the last steps at rho, oldest first
    sigma = _kkt_residual(ev.phi, ev.jac, ev.fgrad, lam)
    if not math.isfinite(sigma):
        raise NonFiniteError(f"non-finite KKT residual {sigma} at the start")
    for k in range(cfg.max_outer + 1):
        converged = sigma <= cfg.outer_tol
        if converged or k == cfg.max_outer or trace.message:
            trace.append(x, lam, rho, 0.0, sigma, 0, 0.0, ev.value, ev.lam)
            trace.status = AlmStatus.CONVERGED if converged else AlmStatus.MAX_ITERATIONS
            break
        eps_k = eta * sigma if eta else 0.0   # not 0 * inf where sigma overflows
        try:
            end, grad_norm, iters = _inner_solve(ev, state, eps_k, cfg.max_inner)
        except InnerFailure as failure:
            trace.append(x, lam, rho, eps_k, sigma, failure.iters, failure.grad_norm, ev.value,
                         ev.lam)
            trace.status = AlmStatus.INNER_FAILURE
            trace.message = str(failure)
            break
        trace.append(x, lam, rho, eps_k, sigma, iters, grad_norm, ev.value, ev.lam)
        lam_next = end.polar_proj
        sigma_next = grad_norm + _gap_norm(end.phi, lam_next)
        # sigma is unchanged wherever (x, lam) is, and cheaper to compare
        still = sigma_next == sigma and np.array_equal(end.x, x) and np.array_equal(lam_next, lam)
        raised = min(cfg.rho_max, rho * cfg.rho_growth)
        if still and raised == rho:
            trace.message = f"outer iteration {k} left x, lambda and rho={rho:g} unchanged"
        rho_k = rho
        # raise on a step that is not fast, unless one more at its ratio would converge
        if (sigma_next > FAST * sigma and sigma_next * sigma_next / sigma > cfg.outer_tol
                and (grad_norm <= eps_k or not eps_k or still)):
            rho = raised
        shift_next = lam_next
        if cfg.memory:
            resid = lam_next - ev.lam
            resid_norm = _norm(resid)
            # a new rho, a floor stop, no Newton step or a growing ||g - s||
            if (rho != rho_k or grad_norm > eps_k > 0.0 or not iters
                    or history and resid_norm > history[-1][1]):
                history.clear()
            if rho == rho_k:
                history.append((resid, resid_norm, lam_next))
                del history[:-cfg.memory - 1]
            if sigma_next > SLOW * sigma and sigma_next > cfg.outer_tol and len(history) >= 2:
                shift_next = _anderson_shift(history)
        x, lam, sigma = end.x, lam_next, sigma_next
        ev = None
        if shift_next is not lam:
            try:
                ev = AugEval(p, x, shift_next, rho, end)
            except NonFiniteError:
                pass   # shifted by lam below
        if ev is None:
            try:
                ev = AugEval(p, x, lam, rho, end)
            except NonFiniteError as exc:
                # the value at the new (lam, rho) is what overflowed
                trace.append(x, lam, rho, 0.0, sigma, 0, 0.0, math.nan)
                trace.status = AlmStatus.INNER_FAILURE
                trace.message = f"{exc} at outer iteration {k + 1} (rho={rho:g})"
                break
    return KktPoint(x, lam), trace
