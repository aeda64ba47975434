"""Exact geometry of the second-order (Lorentz) cone.

The cone lives in R^(m+1) with m >= 1 and consists of the vectors
y = (y0, yr) with ||yr|| <= y0.  Vectors are plain 1-D numpy arrays of
length m+1; the first entry is the "time" component y0 and the rest is
the "space" block yr.  Everything here is a pure function of its inputs.

The public kernels validate their input through `as_cone_vec`.  Only
where an internal caller needs it (the solver's hot path, which checks
each evaluated point once, and the certificates) does a kernel have an
unchecked twin (leading underscore) that expects a finite float vector of
length >= 2; the `_*_rows` twins take the rows of a (k, m+1) array.  The
generalized Jacobian of the polar projection is also available by
structure (`_polar_jacobian_parts`: a multiple of the identity plus a
rank-2 term), from which the dense matrix is built.

Norms are finite for every finite vector: where the square of a norm
overflows, the kernels scale by the largest entry (`_norm`).  The public
kernels run with numpy's overflow warning off, since forming that
square is how the overflow is detected.
"""

from __future__ import annotations

import enum
import math

import numpy as np

# Absolute classification tolerance, scaled by max(1, ||y||).
TAU_CONE = 1e-12


class ConeRegion(enum.Enum):
    INTERIOR_Q = "InteriorQ"
    BOUNDARY_Q_NONZERO = "BoundaryQNonzero"
    ZERO = "Zero"
    INTERIOR_POLAR = "InteriorPolar"
    BOUNDARY_POLAR_NONZERO = "BoundaryPolarNonzero"
    OUTSIDE = "Outside"


def as_cone_vec(y) -> np.ndarray:
    """Validate and return y as a float array of length m+1 >= 2.

    Length-1 vectors (m = 0, where the cone degenerates to the half line)
    are rejected because the projection calculus divides by ||yr||.
    """
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"cone vector must be 1-D with length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cone vector has non-finite entries")
    return arr


def _norm(v: np.ndarray) -> float:
    """||v|| of a finite 1-D v: sqrt(v @ v), numpy's own `norm`
    computation without its dispatch, bit for bit, whenever v @ v is
    finite; when it overflows, the norm scaled by the largest absolute
    entry, which is finite."""
    sq = v @ v
    if sq != math.inf:
        return math.sqrt(sq)
    s = np.abs(v).max()
    w = v / s
    return float(s * math.sqrt(w @ w))


def tilde(y) -> np.ndarray:
    """Reflection (y0, yr) -> (-y0, yr); an involution."""
    return _tilde(as_cone_vec(y))


def _tilde(y: np.ndarray) -> np.ndarray:
    out = y.copy()
    out[0] = -out[0]
    return out


@np.errstate(over="ignore")
def classify(y, tol: float = TAU_CONE) -> ConeRegion:
    """Locate y relative to the cone Q and its polar -Q.

    The six regions are decided from the signs of ||yr|| - y0 and
    ||yr|| + y0 against tol * max(1, ||y||); exactly one region matches.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return _classify(as_cone_vec(y), tol)[0]


def _classify(y: np.ndarray, tol: float):
    """(region, ||y||, ||yr||): the region with the two norms it is
    decided from."""
    nrm = _norm(y)
    rnorm = _norm(y[1:])
    t = tol * max(1.0, nrm)
    if nrm <= t:
        return ConeRegion.ZERO, nrm, rnorm
    a = rnorm - y[0]  # <= 0 inside Q
    b = rnorm + y[0]  # <= 0 inside -Q
    if a < -t:
        return ConeRegion.INTERIOR_Q, nrm, rnorm
    if a <= t:
        return ConeRegion.BOUNDARY_Q_NONZERO, nrm, rnorm
    if b < -t:
        return ConeRegion.INTERIOR_POLAR, nrm, rnorm
    if b <= t:
        return ConeRegion.BOUNDARY_POLAR_NONZERO, nrm, rnorm
    return ConeRegion.OUTSIDE, nrm, rnorm


@np.errstate(over="ignore")
def project_q(y) -> np.ndarray:
    """Euclidean projection onto Q (closed form).

    Returns y inside Q, 0 inside -Q and otherwise the boundary point
    ((y0 + ||yr||) / 2) * (1, yr / ||yr||).
    """
    return _project_q(as_cone_vec(y))


def _project_q(y: np.ndarray) -> np.ndarray:
    rnorm = _norm(y[1:])
    if rnorm <= y[0]:
        return y.copy()
    if rnorm <= -y[0]:
        return np.zeros_like(y)
    coef = 0.5 * (y[0] + rnorm)
    out = np.empty_like(y)
    out[0] = coef
    out[1:] = (coef / rnorm) * y[1:]
    return out


@np.errstate(over="ignore")
def project_polar(y) -> np.ndarray:
    """Euclidean projection onto -Q, computed as y - project_q(y)."""
    return _project_polar(as_cone_vec(y))


def _project_polar(y: np.ndarray) -> np.ndarray:
    return y - _project_q(y)


def _project_q_rows(Y: np.ndarray) -> np.ndarray:
    """`_project_q` applied to every row of a finite (k, m+1) array."""
    y0 = Y[:, 0]
    rnorm = np.linalg.norm(Y[:, 1:], axis=1)
    out = Y.copy()
    out[(rnorm > y0) & (rnorm <= -y0)] = 0.0
    outside = rnorm > np.abs(y0)
    coef = 0.5 * (y0[outside] + rnorm[outside])
    out[outside, 0] = coef
    out[outside, 1:] = (coef / rnorm[outside])[:, None] * Y[outside, 1:]
    return out


def _project_polar_rows(Y: np.ndarray) -> np.ndarray:
    """`_project_polar` applied to every row of a finite (k, m+1) array."""
    return Y - _project_q_rows(Y)


@np.errstate(over="ignore")
def jacobian_project_polar(y) -> np.ndarray:
    """A generalized Jacobian of the polar projection at y.

    Identity inside -Q, zero inside Q, and the smooth-Jacobian block
    matrix elsewhere.  On the cone boundaries the limit from the outside
    region is returned, which keeps semismooth Newton steps reproducible;
    when ||yr|| <= TAU_CONE the formula degenerates and the adjacent
    interior-region matrix is used instead.  The region split is made by
    `_polar_jacobian_parts`, which also gives the matrix's
    identity-plus-rank-2 structure to the Hessian assembly.
    """
    y = as_cone_vec(y)
    alpha, u, r = _polar_jacobian_parts(y)
    out = alpha * np.eye(y.size)
    if u is not None:
        out[0, 0] = 0.5
        out[0, 1:] = -0.5 * u
        out[1:, 0] = -0.5 * u
        out[1:, 1:] += (0.5 * r) * np.outer(u, u)
    return out


def _polar_jacobian_parts(y: np.ndarray):
    """The generalized Jacobian V of the polar projection at y, returned
    by structure as (alpha, u, r).

    When u is None, V = alpha I and r is None too: alpha = 1 inside -Q,
    0 inside Q, and on the axis fallback (||yr|| <= TAU_CONE max(1, ||y||))
    the value of the adjacent interior.  Otherwise (outside both cones
    and, as their outside limit, on the boundaries) u = yr / ||yr||,
    r = y0 / ||yr||, alpha = (1 - r)/2 and

        V = alpha I + [e0, (0, u)] C [e0, (0, u)]',  C = (1/2) [[r, -1], [-1, r]],

    an identity-plus-rank-2 matrix (Kanzow, Ferenczi and Fukushima, SIAM
    J. Optim. 20, 2009).  This is the one place where the region split and
    the kink selection are decided.
    """
    region, nrm, rnorm = _classify(y, TAU_CONE)
    if region is ConeRegion.INTERIOR_POLAR:
        return 1.0, None, None
    if region is ConeRegion.INTERIOR_Q:
        return 0.0, None, None
    if rnorm <= TAU_CONE * max(1.0, nrm):
        # y ~ (y0, 0): the outside region is not adjacent, fall back to
        # the interior selection on either side of the axis.
        return (0.0 if y[0] >= 0 else 1.0), None, None
    r = y[0] / rnorm
    return 0.5 * (1.0 - r), y[1:] / rnorm, r


@np.errstate(over="ignore")
def in_normal_cone(lam, y, tol: float = 1e-10) -> bool:
    """Whether lam lies in the normal cone to Q at y (projection test).

    Uses the characterization lam in N_Q(y) iff project_q(y + lam) = y.
    Raises if y itself is farther than tol from Q.
    """
    lam = as_cone_vec(lam)
    y = as_cone_vec(y)
    if lam.size != y.size:
        raise ValueError("dimension mismatch between lam and y")
    return _in_normal_cone(lam, y, tol)


def _in_normal_cone(lam: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """`in_normal_cone` for two finite float vectors of one length."""
    scale = max(1.0, _norm(y))
    if _norm(y - _project_q(y)) > tol * scale:
        raise ValueError("base point is not in the cone within tolerance")
    return _norm(_project_q(y + lam) - y) <= tol * max(scale, _norm(lam))
