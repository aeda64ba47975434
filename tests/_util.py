"""Shared helpers for the test suite: finite differences, ball sampling,
oracle call counting and a couple of hand-rolled problems used across
modules."""

import dataclasses
import functools
import math
from collections import Counter

import numpy as np
import pytest

from socalm import ConeRegion, KktPoint, SocpProblem, generate_planted
from socalm.cone import TAU_CONE, _norm


@np.errstate(over="ignore")  # `_norm` detects an overflowing square by forming it
def _on_boundary(sign, v):
    """(sign ||v||, v), with ||v|| as the cone kernels compute it."""
    return np.r_[sign * _norm(v), v]


# Shifted points y = (y0, a w), ||w|| = 1, in each region of the cone
# module's case split; c in (-0.9, 0.9) and g >= 0.1 keep them clear of
# the classification tolerance.  The boundary points take y0 = +-||a w||
# as the kernels compute it, so that the projection's exact comparisons
# put them on the boundary rather than strictly inside Q or -Q.  The
# two axis points, within TAU_CONE of the vertex, lie inside Q and -Q,
# where V is 0 and I; `classify` puts them on the boundaries of Q and -Q.
SHIFTED = {
    ConeRegion.INTERIOR_Q: lambda a, w, c, g: np.r_[a * (1.0 + g), a * w],
    ConeRegion.BOUNDARY_Q_NONZERO: lambda a, w, c, g: _on_boundary(1.0, a * w),
    ConeRegion.ZERO: lambda a, w, c, g: np.zeros(w.size + 1),
    ConeRegion.INTERIOR_POLAR: lambda a, w, c, g: np.r_[-a * (1.0 + g), a * w],
    ConeRegion.BOUNDARY_POLAR_NONZERO: lambda a, w, c, g: _on_boundary(-1.0, a * w),
    ConeRegion.OUTSIDE: lambda a, w, c, g: np.r_[c * a, a * w],
    "axis+": lambda a, w, c, g: np.r_[1.2 * TAU_CONE, 0.5 * TAU_CONE * w],
    "axis-": lambda a, w, c, g: np.r_[-1.2 * TAU_CONE, 0.5 * TAU_CONE * w],
}


def fd_grad(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return out


def fd_jac(fun, x, h=1e-6):
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x), dtype=float)
    out = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[:, j] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * h)
    return out


def uniform_ball(rng, k, dim, radius):
    """k uniform draws from the ball around the origin, scaled one row at a
    time: the reference for the diagnostics' row sampler.  All k normal
    directions are drawn first, then the k uniforms for their lengths; a
    zero direction gives the zero point."""
    normals, lengths = rng.standard_normal((k, dim)), rng.random(k)
    points = []
    for g, u in zip(normals, lengths):
        nrm = np.linalg.norm(g)
        points.append(np.zeros(dim) if nrm == 0.0 else (radius * u ** (1.0 / dim) / nrm) * g)
    return points


ORACLES = ("f_value", "f_grad", "f_hess", "phi_value", "phi_jac", "phi_hess_contract")


def counted(p):
    """Copy of p whose six oracles count their calls."""
    calls = Counter()

    def wrap(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    return dataclasses.replace(p, **{o: wrap(o, getattr(p, o)) for o in ORACLES}), calls


def translated(p, t):
    """p in the variable x - t: every oracle composed with x + t, and the
    known pair and the points of a hard path moved to (x - t, lam).  The
    oracles are wrappers, so they carry no `rows`."""
    t = np.asarray(t, dtype=float)
    sol, path = p.known_solution, p.hard_path

    def shifted(oracle):
        return lambda x, *lam: oracle(x + t, *lam)

    def moved(scale):
        x, lam = path(scale)
        return x - t, lam

    return dataclasses.replace(
        p, name=f"{p.name}_translated", **{o: shifted(getattr(p, o)) for o in ORACLES},
        known_solution=None if sol is None else KktPoint(sol.x - t, sol.lam),
        hard_path=None if path is None else moved)


def writeable_twin(p):
    """p with phi_jac returning a fresh writeable copy on every call, so
    that no evaluation can reuse the Gram matrix of another."""
    return dataclasses.replace(p, phi_jac=lambda x: np.array(p.phi_jac(x)))


def fresh_twin(p):
    """p with phi_jac and f_hess returning fresh writeable copies, so that
    no Newton step can reuse a factor: G and S are new arrays at every
    evaluation."""
    return dataclasses.replace(writeable_twin(p), f_hess=lambda x: np.array(p.f_hess(x)))


def rewritten_twin(p, oracle):
    """p with the named one-argument oracle writing every result into one
    writeable buffer, rewritten in place at the next call."""
    inner, buf = getattr(p, oracle), []

    def rewritten(x):
        value = inner(x)
        if not buf:
            buf.append(np.empty_like(value, dtype=float))
        buf[0][...] = value
        return buf[0]

    return dataclasses.replace(p, **{oracle: rewritten})


def negative_curvature_problem(n=2, m=2):
    """f(x) = -||x||^2 with a constant strictly feasible constraint;
    the origin is a KKT point where sufficiency fails outright."""
    e0 = np.zeros(m + 1)
    e0[0] = 1.0
    return SocpProblem(
        n=n, m=m,
        f_value=lambda x: float(-x @ x),
        f_grad=lambda x: -2.0 * x,
        f_hess=lambda x: -2.0 * np.eye(n),
        phi_value=lambda x: e0.copy(),
        phi_jac=lambda x: np.zeros((m + 1, n)),
        phi_hess_contract=lambda x, lam: np.zeros((n, n)),
        name="negative_curvature",
        known_solution=KktPoint(np.zeros(n), np.zeros(m + 1)),
    )


def vertex_problem(A, sign=1.0, name="vertex"):
    """f(x) = sign * ||x||^2 / 2 with Phi(x) = A x; the origin is a KKT
    point with zero multiplier sitting at the cone vertex, so the
    critical cone is all of Q and sufficiency is a copositivity question."""
    A = np.asarray(A, dtype=float)
    mp1, n = A.shape
    return SocpProblem(
        n=n, m=mp1 - 1,
        f_value=lambda x: float(0.5 * sign * (x @ x)),
        f_grad=lambda x: sign * x,
        f_hess=lambda x: sign * np.eye(n),
        phi_value=lambda x: A @ x,
        phi_jac=lambda x: A.copy(),
        phi_hess_contract=lambda x, lam: np.zeros((n, n)),
        name=name,
        known_solution=KktPoint(np.zeros(n), np.zeros(mp1)),
    )


def constant_phi_problem(value, name="constant_phi"):
    """f identically zero with a constant constraint value; isolates the
    penalty term of the augmented Lagrangian."""
    value = np.asarray(value, dtype=float)
    mp1 = value.size
    n = 2
    return SocpProblem(
        n=n, m=mp1 - 1,
        f_value=lambda x: 0.0,
        f_grad=lambda x: np.zeros(n),
        f_hess=lambda x: np.zeros((n, n)),
        phi_value=lambda x: value.copy(),
        phi_jac=lambda x: np.zeros((mp1, n)),
        phi_hess_contract=lambda x, lam: np.zeros((n, n)),
        name=name,
    )


def curved_problem(n, m, region, seed, scale=0.5):
    """`generate_planted(n, m, region, seed)` with a curved constraint
    Phi(x) = A x + b + (1/2) c * (U (x - xbar))^2, entrywise: U an
    (m+1) x n Gaussian matrix over sqrt(n) and c a Gaussian vector times
    scale.
    Phi(xbar), JPhi(xbar) and stationarity there do not change, so the
    planted pair stays a KKT pair.  phi_jac = A + diag(c U (x - xbar)) U
    and phi_hess_contract = U' diag(lam c) U, a new writeable array at
    every call."""
    p = generate_planted(n, m, region, seed)
    rng = np.random.default_rng([32, seed])
    U = rng.standard_normal((m + 1, n)) / math.sqrt(n)
    c = scale * rng.standard_normal(m + 1)
    x_bar = p.known_solution.x
    A = p.phi_jac(x_bar)

    def phi_value(x):
        z = U @ (x - x_bar)
        return p.phi_value(x) + 0.5 * c * z * z

    return dataclasses.replace(
        p, name=f"curved_{region.value}_{seed}", phi_value=phi_value,
        phi_jac=lambda x: A + (c * (U @ (x - x_bar)))[:, None] * U,
        phi_hess_contract=lambda x, lam: U.T @ ((lam * c)[:, None] * U))


# The values each argument rule rejects (`socalm.cone`), NaN included.
BAD_PENALTIES = (0.0, -1.0, math.nan, math.inf)   # also steps and radii
BAD_TOLERANCES = (-1.0, math.nan)
BAD_SEEDS = (None, True, 1.5, -1)  # None would seed from the OS, a new draw every call
# what the finite-point rule says of each kind of point
PRIMAL, MULTIPLIER = "primal point must be finite", "multiplier must be finite"
CONE_VECTOR = "cone vector must be finite"


def nan_at(point, i=0):
    """A float copy of point with NaN as entry i."""
    out = np.array(point, dtype=float)
    out[i] = math.nan
    return out


def rejected(entry, argument, values, call, message):
    """Table rows (call bound to each value, message) with the id
    entry-argument-value ("nan" for a point); call takes the value first."""
    return [pytest.param(functools.partial(call, value), message,
                         id=f"{entry}-{argument}-{'nan' if np.ndim(value) else value}")
            for value in values]
