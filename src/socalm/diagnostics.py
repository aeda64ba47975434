"""Verification of the quantitative claims: error-bound constants,
second-order growth, subproblem solvability and linear rates.

Growth and solvability are exact linear algebra at the known KKT pair.  The
error bound samples a seeded ball, drawn in one call, with one oracle call
per point and all rows reduced at once: evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .alm import inner_solve  # noqa: F401 -- like check_sosc, kept for perfbench/tracer.py to wrap
from .cone import _at_least, _finite, _norm, _positive, _project_q_rows, jacobian_project_polar
from .lagrangian import NonFiniteError, lagrangian_l
from .model import SocpProblem, builtin
from .variational import TOL, CriticalConeCase, _growth_pair, _kkt_data, check_sosc  # noqa: F401


@dataclass(frozen=True)
class ErrorBoundReport:
    kappa1_hat: float   # sup of (||x - xbar|| + dist(lam; L)) / sigma
    kappa2_hat: float   # sup of sigma / (||x - xbar|| + dist(lam; L))
    ball_radius: float
    samples: int
    failed: bool        # kappa1 grew by > 10x when the radius shrank 10x


@dataclass(frozen=True)
class GrowthReport:
    rho_used: float
    ell_hat: float
    multiplier_samples: int
    uniform: bool


def _require_solution(p: SocpProblem):
    if p.known_solution is None:
        raise ValueError(f"problem {p.name!r} carries no known solution")
    return p.known_solution


def dist_to_multiplier_set(p: SocpProblem, lam):
    """Exact distance of lam to the multiplier set of the known solution.

    Supports the two structures the cone geometry produces: a single
    multiplier, or a ray recorded as a direction on the problem.  lam is
    one vector (a float, scaled where its square overflows as in
    `cone._norm`) or the rows of a (k, m+1) array (one per row); a
    non-finite entry raises NonFiniteError.
    """
    sol = _require_solution(p)
    lam = np.asarray(lam, dtype=float)
    _finite("multiplier", lam)
    if p.multiplier_ray is None:
        diff = lam - sol.lam
    else:
        d = np.asarray(p.multiplier_ray, dtype=float)
        coef = np.maximum(0.0, np.vecdot(lam, d) / (d @ d))
        diff = lam - coef[..., None] * d
    return _norm(diff) if diff.ndim == 1 else np.sqrt(np.vecdot(diff, diff))


@np.errstate(over="ignore")  # _norm detects an overflowing square
def dist_to_known_pair(p: SocpProblem, x, lam) -> Tuple[float, float]:
    """(||x - xbar||, dist(lam; L)) of one iterate to the known solution,
    both finite for a finite iterate: a norm whose square overflows is
    scaled by the largest entry (`cone._norm`)."""
    return _norm(x - _require_solution(p).x), dist_to_multiplier_set(p, lam)


def _ball_rows(rng, k: int, dim: int, radius: float) -> np.ndarray:
    """k uniform draws from the ball of the given radius around the origin,
    as the rows of a (k, dim) array: k normal directions, then k uniforms
    for their lengths.  A zero direction gives the zero row."""
    rows = rng.standard_normal((k, dim))
    nrm = np.sqrt(np.vecdot(rows, rows))
    rows *= np.divide(radius * rng.random(k) ** (1.0 / dim), nrm,
                      out=np.zeros(k), where=nrm > 0.0)[:, None]
    return rows


def _oracle_rows(oracle, xs, shape) -> np.ndarray:
    """oracle(x) for each row x of xs, written into one new array as it
    returns: an oracle may hand back one buffer that it rewrites."""
    rows = np.empty((len(xs),) + shape)
    for i, x in enumerate(xs):
        rows[i] = oracle(x)
    return rows


def _sup_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """max(0, largest num/den over den > 1e-15), skipping NaN ratios.

    Raises ValueError when none of those ratios is finite: a sup over no
    sampled point would pass vacuously."""
    kept = den > 1e-15
    ratio = np.divide(num, den, out=np.zeros_like(den), where=kept)
    if not np.isfinite(ratio[kept]).any():
        raise ValueError("no sampled error-bound ratio is finite: the residuals and "
                         "distances overflow or vanish at this radius")
    return float(np.fmax.reduce(ratio, initial=0.0))


@np.errstate(all="ignore")
def _kappa_sups(p: SocpProblem, radius: float, samples: int, rng) -> Tuple[float, float]:
    sol = p.known_solution
    steps = _ball_rows(rng, samples, p.n + p.m + 1, radius)
    xs, lams = sol.x + steps[:, :p.n], sol.lam + steps[:, p.n:]
    if p.hard_path is not None:
        # include the problem's adversarial primal-dual family at scales
        # inside the current ball; this is where known failures live.
        path = [p.hard_path(scale) for scale in (radius, radius / 2.0, radius / 4.0)]
        xs = np.vstack([xs, [x for x, _ in path]])
        lams = np.vstack([lams, [lam for _, lam in path]])
    phis = _oracle_rows(p.phi_value, xs, (p.m + 1,))
    # a writeable Jacobian may be one buffer that the next call rewrites
    jacs = [jac.copy() if jac.flags.writeable else jac for jac in map(p.phi_jac, xs)]
    fgrads = _oracle_rows(p.f_grad, xs, (p.n,))
    pushed = phis + lams
    if not np.isfinite(pushed).all():
        raise NonFiniteError("non-finite point Phi(x)+lam")
    shared = all(jac is jacs[0] for jac in jacs)  # then no (k, m+1, n) stack
    grads = fgrads + (lams @ jacs[0] if shared else np.einsum("ki,kij->kj", lams, np.array(jacs)))
    sigmas = np.linalg.norm(grads, axis=1) + np.linalg.norm(phis - _project_q_rows(pushed), axis=1)
    dist_sums = np.linalg.norm(xs - sol.x, axis=1) + dist_to_multiplier_set(p, lams)
    return _sup_ratio(dist_sums, sigmas), _sup_ratio(sigmas, dist_sums)


def verify_error_bound(p: SocpProblem, radius: float, samples: int, seed: int) -> ErrorBoundReport:
    """Estimate both error-bound constants over a primal-dual ball.

    The ratio sup is recomputed at one tenth of the radius; growth of the
    primal-dual constant by more than 10x across that decade is flagged
    as a failure of the bound (a heuristic, not a theorem).  A sample in
    which no ratio is finite (every residual and distance overflowed or
    fell below 1e-15) raises ValueError, as does a non-finite sampled
    Phi(x) + lam (NonFiniteError); no floating-point warning is printed.
    """
    _require_solution(p)
    _positive("radius", radius)
    _at_least("samples", samples, 1)
    _at_least("seed", seed)
    rng = np.random.default_rng(seed)
    kappa1, kappa2 = _kappa_sups(p, radius, samples, rng)
    kappa1_small, _ = _kappa_sups(p, radius / 10.0, samples, rng)
    failed = bool(kappa1_small > 10.0 * kappa1 if kappa1 > 0 else kappa1_small > 0)
    return ErrorBoundReport(kappa1, kappa2, radius, samples, failed)


def example32_ratio(t: float) -> Tuple[float, float, float]:
    """Closed-form multiplier distance and stationarity gap of the
    counterexample along lam_t = (-1, t, sqrt(1 - t^2)).

    Returns (dist^2, ||grad_x L||^2, their ratio) and cross-checks both
    numbers against the problem oracles to 1e-10 relative.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    dist2 = (3.0 - 2.0 * t - t * t) / 2.0
    grad2 = (t - 1.0) ** 2
    p = builtin("example_3_2")
    sol = p.known_solution
    lam_t = np.array([-1.0, t, math.sqrt(1.0 - t * t)])
    dist2_num = dist_to_multiplier_set(p, lam_t) ** 2
    _, grad_l, _ = lagrangian_l(p, sol.x, lam_t)
    grad2_num = float(grad_l @ grad_l)
    if abs(dist2_num - dist2) > 1e-10 * max(1.0, dist2):
        raise AssertionError(f"oracle distance {dist2_num!r} disagrees with closed form {dist2!r}")
    if abs(grad2_num - grad2) > 1e-10 * max(1.0, grad2):
        raise AssertionError(f"oracle gradient {grad2_num!r} disagrees with closed form {grad2!r}")
    return dist2, grad2, dist2 / grad2


def _multiplier_samples(p: SocpProblem, count: int, seed: int) -> List[np.ndarray]:
    sol = p.known_solution
    if p.multiplier_ray is None or count <= 1:
        return [sol.lam.copy()]
    rng = np.random.default_rng(seed)
    d = np.asarray(p.multiplier_ray, dtype=float)
    c_bar = max(0.0, float(sol.lam @ d) / float(d @ d))
    eps = max(0.5 * float(np.linalg.norm(sol.lam)), 0.25) / float(np.linalg.norm(d))
    cs = np.maximum(0.0, c_bar + rng.uniform(-eps, eps, count - 1))
    return [sol.lam.copy()] + [c * d for c in cs]


@np.errstate(all="ignore")
def certify_growth(p: SocpProblem, rho_list: Sequence[float], lambda_samples: int,
                   seed: int) -> GrowthReport:
    """Exact second-order growth certificate for the augmented Lagrangian.

    The modulus at rho is the largest ell with L_rho(xbar + w, lam) >=
    f(xbar) + (ell - o(1)) |w|^2 (`variational._growth_pair`), minimized
    over the known multiplier and, on a multiplier ray, lambda_samples - 1
    seeded points of it, so uniform iff ell_hat > 0.  Over rho_list in
    order the first positive one is reported, else the first largest.  A
    known pair that is not a KKT pair raises ValueError."""
    sol = _require_solution(p)
    if not rho_list:
        raise ValueError("rho_list must not be empty")
    for rho in rho_list:
        _positive("rho", rho)
    _at_least("lambda_samples", lambda_samples, 1)
    _at_least("seed", seed)
    pairs = _kkt_data(p, sol.x, _multiplier_samples(p, lambda_samples, seed))
    moduli = []  # (ell, rho) up to the first positive ell
    for rho in rho_list:
        moduli.append((min(_growth_pair(*pair, rho)[0] for pair in pairs), rho))
        if moduli[-1][0] > 0.0:
            break
    ell_hat, rho_used = max(moduli, key=lambda item: item[0])  # the first largest
    return GrowthReport(float(rho_used), ell_hat, len(pairs), ell_hat > 0.0)


def estimate_rate(trace, p: SocpProblem) -> Tuple[List[float], float]:
    """Per-iteration primal-dual contraction factors from a solve trace.

    q_k compares ||x - xbar|| + dist(lam; L) at consecutive iterates;
    ratios touching the numerical floor (either side below 1e-14) are
    dropped.  The geometric mean is taken over the last half of the
    surviving ratios (one from 2 rows); an empty list yields 0.
    """
    _require_solution(p)
    if len(trace) < 2:
        raise ValueError("trace needs at least 2 iterations to estimate a rate")
    dists = [sum(dist_to_known_pair(p, x, lam)) for x, lam in zip(trace.xs, trace.lams)]
    qs = [dists[k + 1] / dists[k]
          for k in range(len(dists) - 1)
          if dists[k] > 1e-14 and dists[k + 1] > 1e-14]
    if not qs:
        return [], 0.0
    tail = qs[len(qs) // 2:]
    geomean = math.exp(sum(math.log(v) for v in tail) / len(tail))
    return qs, geomean


def solvability_estimate(p: SocpProblem, rho: float) -> float:
    """Exact Lipschitz modulus of the subproblem solution map lam -> x(lam) at
    the known KKT pair: max ||(H + rho J'VJ)^-1 J'V||_2 over the pieces V of
    Pi_{-Q}'s derivative at y = rho Phi(xbar) + lambar.  V_out, its limit from
    outside both cones, is the piece of a Hyperplane and a HalfSpace (whose
    other, 0, adds nothing); ZeroOnly has I, a Ray both, FullSpace none (0.0).
    A piece's dlam form a half-space holding v or -v, v its top singular
    vector: the modulus is attained.  NaN unless 2 ell(rho) > TOL, which makes
    each H + rho J'VJ positive definite; so NaN wherever `check_sosc` fails, as
    ell(rho) <= ell(inf).  ValueError on the whole cone Q (y = 0): infinitely many pieces."""
    sol = _require_solution(p)
    _positive("rho", rho)
    [(H, J, K)] = _kkt_data(p, sol.x, [sol.lam])
    if K.case is CriticalConeCase.WHOLE_CONE_Q:
        raise ValueError("at y = 0 (whole cone Q) the solution map has infinitely many pieces")
    if not 2.0 * _growth_pair(H, J, K, rho)[0] > TOL:
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
