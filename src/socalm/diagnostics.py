"""Empirical verification of the quantitative claims: error-bound
constants, second-order growth, subproblem stability and linear rates.

Every sampler is seeded and records its sample counts, so reports are
reproducible bit for bit.  A sample is drawn row by row in the
generator's order, the oracles are called once per sampled point, and the
rest is reduced over all rows at once, so a constant can differ from a
one-point-at-a-time evaluation in its last bits (about 1e-14 relative).
These checks are evidence, not proofs: they bound constants over finite
samples and flag instability heuristically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .alm import inner_solve
from .cone import _project_polar_rows, _project_q_rows
from .lagrangian import NonFiniteError, lagrangian_l
from .model import SocpProblem, builtin
from .variational import check_sosc


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
    gamma_hat: float
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
    one vector (a float) or the rows of a (k, m+1) array (one per row).
    """
    sol = _require_solution(p)
    lam = np.asarray(lam, dtype=float)
    if p.multiplier_ray is None:
        diff = lam - sol.lam
    else:
        d = np.asarray(p.multiplier_ray, dtype=float)
        coef = np.maximum(0.0, np.vecdot(lam, d) / (d @ d))
        diff = lam - coef[..., None] * d
    dist = np.sqrt(np.vecdot(diff, diff))
    return dist if dist.ndim else float(dist)


def _ball_rows(rng, k: int, dim: int, radius: float) -> np.ndarray:
    """k uniform draws from the ball of the given radius around the origin,
    as the rows of a (k, dim) array.  Each row draws a normal direction and
    then, unless that is zero (the zero row), one uniform for its length."""
    rows, scale = np.empty((k, dim)), np.zeros(k)
    for i, row in enumerate(rows):
        rng.standard_normal(out=row)
        nrm = math.sqrt(row @ row)
        if nrm > 0.0:
            scale[i] = radius * rng.random() ** (1.0 / dim) / nrm
    rows *= scale[:, None]
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
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
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


def _multiplier_samples(p: SocpProblem, count: int, rng) -> List[np.ndarray]:
    sol = p.known_solution
    if p.multiplier_ray is None or count <= 1:
        return [sol.lam.copy()]
    d = np.asarray(p.multiplier_ray, dtype=float)
    d_norm = float(np.linalg.norm(d))
    c_bar = max(0.0, float(sol.lam @ d) / float(d @ d))
    eps = max(0.5 * float(np.linalg.norm(sol.lam)), 0.25) / d_norm
    cs = np.maximum(0.0, c_bar + rng.uniform(-eps, eps, count - 1))
    return [sol.lam.copy()] + [c * d for c in cs]


@np.errstate(over="ignore")  # the row kernels detect an overflowing squared norm
def certify_growth(p: SocpProblem, rho_list: Sequence[float], x_samples: int,
                   lambda_samples: int, seed: int) -> GrowthReport:
    """Sampled second-order growth certificate for the augmented Lagrangian.

    For each penalty value the growth modulus is the smallest sampled
    value of (L_rho(x, lam) - f(xbar)) / ||x - xbar||^2 over shrinking
    balls around xbar and over multipliers near the known one (the whole
    segment when the multiplier set is a ray).  Over (penalty, radius) in
    order, the first positive modulus is reported, else the first largest;
    as a minimum over the multipliers it is uniform iff ell_hat > 0.
    x - xbar is the step that xbar + step realizes in floating point;
    sampled points it moves by less than 1e-12 are dropped, and a radius
    at which none is left raises ValueError.
    """
    sol = _require_solution(p)
    if not rho_list:
        raise ValueError("rho_list must not be empty")
    if not all(0.0 < rho < math.inf for rho in rho_list):
        raise ValueError("rho must be positive and finite")
    if x_samples < 1 or lambda_samples < 1:
        raise ValueError("x_samples and lambda_samples must be at least 1")
    rng = np.random.default_rng(seed)
    radii = [0.2, 0.1, 0.05, 0.025, 0.0125]
    x_steps = {gamma: _ball_rows(rng, x_samples, p.n, gamma) for gamma in radii}
    lams = _multiplier_samples(p, lambda_samples, rng)
    f_bar = p.f_value(sol.x)
    evaluated = {}  # gamma -> (squared step norms, Phi and f at xbar + step)

    def modulus_at(rho, gamma):
        if gamma not in evaluated:
            xs = sol.x + x_steps[gamma]
            # the step xbar + step realizes, which rounding shrinks where
            # xbar is large against the radius
            realized = xs - sol.x
            r2 = np.vecdot(realized, realized)
            kept = r2 >= 1e-24
            if not kept.any():
                raise ValueError(f"no sampled step of radius {gamma:g} moves xbar: its entries "
                                 "are too large for the radius")
            xs = xs[kept]
            evaluated[gamma] = (r2[kept], _oracle_rows(p.phi_value, xs, (p.m + 1,)),
                                _oracle_rows(p.f_value, xs, ()))
        r2, phis, fs = evaluated[gamma]
        per_lam = []
        for lam in lams:
            shifted = rho * phis + lam
            if not np.isfinite(shifted).all():
                raise NonFiniteError("non-finite shifted point rho*Phi(x)+lam")
            polar = _project_polar_rows(shifted)
            # L_rho = f + (||polar||^2 - ||lam||^2) / (2 rho), as in AugEval
            vals = fs + (np.vecdot(polar, polar) - lam @ lam) / (2.0 * rho)
            per_lam.append(float(np.fmin.reduce((vals - f_bar) / r2, initial=math.inf)))
        return min(per_lam)

    best = None  # (ell, rho, gamma)
    for rho, gamma in itertools.product(rho_list, radii):
        ell = modulus_at(rho, gamma)
        if best is None or ell > best[0]:
            best = (ell, rho, gamma)
        if ell > 0.0:
            break
    ell_hat, rho_used, gamma_hat = best
    return GrowthReport(float(rho_used), ell_hat, float(gamma_hat), len(lams), ell_hat > 0.0)


def estimate_rate(trace, p: SocpProblem) -> Tuple[List[float], float]:
    """Per-iteration primal-dual contraction factors from a solve trace.

    q_k compares ||x - xbar|| + dist(lam; L) at consecutive iterates;
    ratios touching the numerical floor (either side below 1e-14) are
    dropped.  The geometric mean is taken over the last half of the
    surviving ratios; an empty list yields 0 (immediate convergence).
    """
    _require_solution(p)
    if len(trace) < 3:
        raise ValueError("trace needs at least 3 iterations to estimate a rate")
    dists = [float(np.linalg.norm(x - p.known_solution.x)) + dist_to_multiplier_set(p, lam)
             for x, lam in zip(trace.xs, trace.lams)]
    qs = [dists[k + 1] / dists[k]
          for k in range(len(dists) - 1)
          if dists[k] > 1e-14 and dists[k + 1] > 1e-14]
    if not qs:
        return [], 0.0
    tail = qs[len(qs) // 2:]
    geomean = math.exp(sum(math.log(v) for v in tail) / len(tail))
    return qs, geomean


def solvability_estimate(p: SocpProblem, rho: float, lambda_samples: int, seed: int,
                         radius: float = 1e-2) -> float:
    """Empirical Lipschitz modulus of the subproblem solution map.

    Solves the inner problem to tight tolerance for multipliers sampled
    around the known one and reports sup ||x(lam) - xbar|| / ||lam - lambar||.
    Returns NaN when the sufficiency certificate does not hold (the
    estimate is then meaningless); inner failures propagate.
    """
    sol = _require_solution(p)
    report = check_sosc(p, sol.x, sol.lam)
    if not report.holds:
        return float("nan")
    rng = np.random.default_rng(seed)
    sup = 0.0
    for lam in sol.lam + _ball_rows(rng, lambda_samples, p.m + 1, radius):
        gap = float(np.linalg.norm(lam - sol.lam))
        if gap < 1e-14:
            continue
        x_lam, _, _ = inner_solve(p, lam, rho, sol.x, 1e-10, max_inner=400)
        ratio = float(np.linalg.norm(x_lam - sol.x)) / gap
        if not math.isfinite(ratio):
            raise AssertionError("unbounded subproblem solution ratio")
        sup = max(sup, ratio)
    return sup
