"""Empirical verification of the quantitative claims: error-bound
constants, second-order growth, subproblem stability and linear rates.

Every sampler is seeded and records its sample counts, so reports are
reproducible bit for bit.  These checks are evidence, not proofs: they
bound constants over finite samples and flag instability heuristically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .alm import inner_solve
from .lagrangian import AugEval, lagrangian_l, residual
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


def dist_to_multiplier_set(p: SocpProblem, lam) -> float:
    """Exact distance of lam to the multiplier set of the known solution.

    Supports the two structures the cone geometry produces: a single
    multiplier, or a ray recorded as a direction on the problem.
    """
    sol = _require_solution(p)
    lam = np.asarray(lam, dtype=float)
    if p.multiplier_ray is None:
        return float(np.linalg.norm(lam - sol.lam))
    d = np.asarray(p.multiplier_ray, dtype=float)
    coef = max(0.0, float(lam @ d) / float(d @ d))
    return float(np.linalg.norm(lam - coef * d))


def _uniform_ball(rng, dim: int, radius: float) -> np.ndarray:
    """Uniform draw from the ball of the given radius around the origin."""
    g = rng.standard_normal(dim)
    nrm = np.linalg.norm(g)
    if nrm == 0.0:
        return np.zeros(dim)
    return (radius * rng.random() ** (1.0 / dim) / nrm) * g


def _kappa_sups(p: SocpProblem, radius: float, samples: int, rng) -> Tuple[float, float]:
    sol = p.known_solution
    dim = p.n + p.m + 1
    points = []
    for _ in range(samples):
        step = _uniform_ball(rng, dim, radius)
        points.append((sol.x + step[:p.n], sol.lam + step[p.n:]))
    if p.hard_path is not None:
        # include the problem's adversarial primal-dual family at scales
        # inside the current ball; this is where known failures live.
        for scale in (radius, radius / 2.0, radius / 4.0):
            points.append(p.hard_path(scale))
    kappa1 = 0.0
    kappa2 = 0.0
    for x, lam in points:
        sigma = residual(p, x, lam)
        dist_sum = float(np.linalg.norm(np.asarray(x) - sol.x)) + dist_to_multiplier_set(p, lam)
        if sigma > 1e-15:
            kappa1 = max(kappa1, dist_sum / sigma)
        if dist_sum > 1e-15:
            kappa2 = max(kappa2, sigma / dist_sum)
    return kappa1, kappa2


def verify_error_bound(p: SocpProblem, radius: float, samples: int, seed: int) -> ErrorBoundReport:
    """Estimate both error-bound constants over a primal-dual ball.

    The ratio sup is recomputed at one tenth of the radius; growth of the
    primal-dual constant by more than 10x across that decade is flagged
    as a failure of the bound (a heuristic, not a theorem).
    """
    _require_solution(p)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if samples == 0:
        return ErrorBoundReport(0.0, 0.0, radius, 0, False)
    rng = np.random.default_rng(seed)
    kappa1, kappa2 = _kappa_sups(p, radius, samples, rng)
    kappa1_small, _ = _kappa_sups(p, radius / 10.0, samples, rng)
    failed = bool(kappa1_small > 10.0 * kappa1) if kappa1 > 0 else bool(kappa1_small > 0 and samples > 0)
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
    out = [sol.lam.copy()]
    for _ in range(count - 1):
        c = max(0.0, c_bar + rng.uniform(-eps, eps))
        out.append(c * d)
    return out


def certify_growth(p: SocpProblem, rho_list: Sequence[float], x_samples: int,
                   lambda_samples: int, seed: int) -> GrowthReport:
    """Sampled second-order growth certificate for the augmented Lagrangian.

    For each penalty value the growth modulus is the smallest sampled
    value of (L_rho(x, lam) - f(xbar)) / ||x - xbar||^2 over shrinking
    balls around xbar and over multipliers near the known one (the whole
    segment when the multiplier set is a ray).  The first penalty with a
    positive modulus is reported; uniform means one modulus works for
    every sampled multiplier at the reported radius.
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
    x_steps = {gamma: [_uniform_ball(rng, p.n, gamma) for _ in range(x_samples)]
               for gamma in radii}
    lams = _multiplier_samples(p, lambda_samples, rng)
    f_bar = p.f_value(sol.x)

    def moduli_at(rho, gamma):
        per_lam = []
        for lam in lams:
            worst = math.inf
            for step in x_steps[gamma]:
                r2 = float(step @ step)
                if r2 < 1e-24:
                    continue
                val = AugEval(p, sol.x + step, lam, rho).value  # value only
                worst = min(worst, (val - f_bar) / r2)
            per_lam.append(worst)
        return per_lam

    best = None  # (rho, gamma, ell, uniform)
    for rho in rho_list:
        chosen = None
        for gamma in radii:
            per_lam = moduli_at(rho, gamma)
            ell = min(per_lam)
            if ell > 0.0:
                chosen = (rho, gamma, ell, all(v > 0.0 for v in per_lam))
                break
            if chosen is None or ell > chosen[2]:
                chosen = (rho, gamma, ell, False)
        if best is None or chosen[2] > best[2]:
            best = chosen
        if best[2] > 0.0:
            break
    rho_used, gamma_hat, ell_hat, uniform = best
    return GrowthReport(float(rho_used), float(ell_hat), float(gamma_hat),
                        len(lams), bool(uniform))


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
    for _ in range(lambda_samples):
        lam = sol.lam + _uniform_ball(rng, p.m + 1, radius)
        gap = float(np.linalg.norm(lam - sol.lam))
        if gap < 1e-14:
            continue
        x_lam, _, _ = inner_solve(p, lam, rho, sol.x, 1e-10, max_inner=400)
        ratio = float(np.linalg.norm(x_lam - sol.x)) / gap
        if not math.isfinite(ratio):
            raise AssertionError("unbounded subproblem solution ratio")
        sup = max(sup, ratio)
    return sup
