"""Verification of the quantitative claims: error-bound constants,
second-order growth, subproblem solvability and linear rates.

Growth and solvability are exact linear algebra in `variational`, read at
the known KKT pair (growth also at the ends of a multiplier ray).  The error bound
samples a seeded ball, drawn in one call, evaluates it with one oracle
call per point (or one stacked product where the oracle has a row form)
and reduces all rows at once: evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .alm import inner_solve  # noqa: F401 -- like check_sosc, kept for perfbench/tracer.py to wrap
from .cone import NonFiniteError, _at_least, _finite, _norm, _positive, _project_q_rows
from .lagrangian import lagrangian_l
from .model import SocpProblem, _held, builtin
from .variational import _growth, _solvability, check_sosc  # noqa: F401


@dataclass(frozen=True)
class ErrorBoundReport:
    kappa1_hat: float   # sup of (||x - xbar|| + dist(lam; L)) / sigma
    kappa2_hat: float   # sup of sigma / (||x - xbar|| + dist(lam; L))
    ball_radius: float
    samples: int
    failed: bool        # kappa1 grew by > 10x when the radius shrank 10x


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
    """oracle(x) for each row x of xs as one new array: oracle.rows(xs)
    where the oracle has that row form (`SocpProblem`), which equals the
    per-row results bit for bit; else one call per row, each result
    written into the array as it returns, since an oracle may hand back
    one buffer that it rewrites."""
    if hasattr(oracle, "rows"):
        return oracle.rows(xs)
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
    # a writeable Jacobian, or a view, may be one buffer that the next call rewrites
    jacs = [jac.copy() if jac.flags.writeable or jac.base is not None else jac
            for jac in map(p.phi_jac, xs)]
    fgrads = _oracle_rows(p.f_grad, xs, (p.n,))
    pushed = phis + lams
    if not np.isfinite(pushed).all():
        raise NonFiniteError("non-finite point Phi(x)+lam")
    shared = all(_held(jac, jacs[0]) for jac in jacs[1:])  # then no (k, m+1, n) stack
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


@np.errstate(all="ignore")
def certify_growth(p: SocpProblem, rho_list: Sequence[float]):
    """Exact uniform second-order growth certificate for the augmented
    Lagrangian at the known pair, a `GrowthReport` (`variational._growth`):
    minimized over the known multiplier and, on a multiplier ray lam = c d,
    over c in [c_lo, c_hi] = c_bar +- max(0.5 ||lambar||, 0.25) / ||d||, c_lo
    clipped at 0.  That minimum is at an end: for c > 0 the critical-cone case
    and penalty rows are fixed, the Hessian is affine in c and a Hyperplane's
    curvature weight concave, so 2 ell(c) is the least eigenvalue of a concave
    matrix family, concave in c; at c = 0 the critical cone only grows."""
    sol = _require_solution(p)
    lams = [sol.lam]
    if p.multiplier_ray is not None:
        d = np.asarray(p.multiplier_ray, dtype=float)
        c_bar = max(0.0, float(sol.lam @ d) / float(d @ d))
        eps = max(0.5 * _norm(sol.lam), 0.25) / _norm(d)
        lams += [max(0.0, c_bar - eps) * d, (c_bar + eps) * d]
    return _growth(p, sol.x, lams, rho_list)


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
    """Exact Lipschitz modulus of the subproblem solution map at the known
    KKT pair (`variational._solvability`), NaN where growth at rho fails."""
    sol = _require_solution(p)
    return _solvability(p, sol.x, sol.lam, rho)
