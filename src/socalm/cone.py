"""Exact geometry of the second-order (Lorentz) cone.

The cone lives in R^(m+1) with m >= 1 and consists of the vectors
y = (y0, yr) with ||yr|| <= y0.  Vectors are plain 1-D numpy arrays of
length m+1; the first entry is the "time" component y0 and the rest is
the "space" block yr.  Everything here is a pure function of its inputs.

The package's argument rules live here; every public function applies them
once, at its entry.  Penalties, steps, radii and the outer tolerance are
positive and finite, other tolerances nonnegative and finite, iteration
budgets and seeds nonnegative integers, counts integers at least their
floor (1 for samples, n and m) and points finite.  NaN fails each; a
ValueError (`NonFiniteError` for a point) names the argument.  A finite
tolerance whose product with a norm overflows is only a huge tolerance,
and stands.

The public kernels validate their input through `as_cone_vec` and form
||yr|| once, checked (`_checked_rnorm`).  Where an internal caller
needs it (the solver's hot path and the certificates), a kernel has an
unchecked twin (leading underscore) that takes a finite float vector of
length >= 2 and, where it reads ||yr||, that checked norm;
`_project_q_rows` checks the rows of a (k, m+1) array itself, and
`_polar_jacobian_parts` gives the generalized Jacobian of the polar
projection by structure (identity plus rank 2).  The projections and
that Jacobian split y by exact comparisons of ||yr|| with +-y0; only
`classify` and `in_normal_cone` have a tolerance.

Norms are finite for every finite vector whose norm is below the largest
float: where the square of a norm overflows, the kernels scale by the
largest entry (`_norm`).  A point whose ||yr|| overflows is rejected
(NonFiniteError), and so is one whose ||y|| scales a tolerance and
overflows (`_finite_norm`).  The projections halve y0 and ||yr|| before
adding them, so every projection of an accepted point is finite.  The
public kernels run with numpy's overflow warning off, since forming that
square is how the overflow is detected.
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np

# `classify`'s default absolute tolerance, scaled by max(1, ||y||).
TAU_CONE = 1e-12
_RNORM_OVERFLOWS = "the space norm ||y_r|| of a cone vector overflows"


class ConeRegion(enum.Enum):
    INTERIOR_Q = "InteriorQ"
    BOUNDARY_Q_NONZERO = "BoundaryQNonzero"
    ZERO = "Zero"
    INTERIOR_POLAR = "InteriorPolar"
    BOUNDARY_POLAR_NONZERO = "BoundaryPolarNonzero"
    OUTSIDE = "Outside"


class NonFiniteError(ValueError):
    """A given point or an evaluated value has a NaN or infinite entry."""


def _positive(name: str, value) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _nonnegative(name: str, value) -> None:
    if not value >= 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")


def _at_least(name: str, value, floor: int = 0) -> None:
    """An integer (tested first, so that None fails it too) at least floor."""
    _integer(name, value)
    if floor == 0:
        _nonnegative(name, value)
    elif not value >= floor:
        raise ValueError(f"{name} must be at least {floor}, got {value!r}")


def _integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} must be finite")


def as_cone_vec(y) -> np.ndarray:
    """Validate and return y as a float array of length m+1 >= 2.

    Length-1 vectors (m = 0, where the cone degenerates to the half line)
    are rejected because the projection calculus divides by ||yr||.
    """
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"cone vector must be 1-D with length >= 2, got shape {arr.shape}")
    _finite("cone vector", arr)
    return arr


def _norm(v: np.ndarray) -> float:
    """||v|| of a finite 1-D v: sqrt(v.dot(v)), numpy's own `norm`
    computation without its dispatch, bit for bit, whenever the square is
    finite; when it overflows, the norm scaled by the largest absolute
    entry, which is finite unless ||v|| itself exceeds the largest float
    (entries near 1e308).  `ndarray.dot` gives the bits of `v @ v` at
    half its call overhead (0.7 against 1.4 us for 3 to 200 entries on a
    shared 2-core x86-64 host).  v must be finite: on an infinite entry
    the scaling divides inf by inf, so a point not yet known to be finite
    goes through `_checked_rnorm`, which tests before it scales."""
    sq = v.dot(v)
    if sq != math.inf:
        return math.sqrt(sq)
    s = np.abs(v).max()
    w = v / s
    return float(s * math.sqrt(w.dot(w)))


def _checked_rnorm(y: np.ndarray, message: str) -> float:
    """||yr|| of a 1-D float y of length >= 2, bit for bit `_norm(y[1:])`,
    or NonFiniteError(message) where y has a NaN or infinite entry (the
    verdict of `np.isfinite(y).all()`) or ||yr|| itself overflows.  A
    finite yr.dot(yr) and y0 make every entry finite, so y is tested entry
    by entry only where that square is not finite, which finite entries
    reach by overflow."""
    yr = y[1:]
    sq = yr.dot(yr)
    if sq < math.inf and math.isfinite(y[0]):
        return math.sqrt(sq)
    if sq == math.inf and np.isfinite(y).all():
        rnorm = _norm(yr)
        if rnorm < math.inf:
            return rnorm
    raise NonFiniteError(message)


def _finite_norm(v: np.ndarray, message: str) -> float:
    """`_norm(v)` of a finite v, or NonFiniteError(message) where it overflows."""
    nrm = _norm(v)
    if nrm == math.inf:
        raise NonFiniteError(message)
    return nrm


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
    A y whose norm ||y|| overflows raises NonFiniteError.
    """
    _nonnegative("tol", tol)
    return _classify(as_cone_vec(y), tol)


def _classify(y: np.ndarray, tol: float) -> ConeRegion:
    nrm = _finite_norm(y, "the norm ||y|| of a cone vector overflows")
    t = tol * max(1.0, nrm)
    if nrm <= t:
        return ConeRegion.ZERO
    rnorm = _norm(y[1:])
    a = rnorm - y[0]  # <= 0 inside Q
    b = rnorm + y[0]  # <= 0 inside -Q
    if a < -t:
        return ConeRegion.INTERIOR_Q
    if a <= t:
        return ConeRegion.BOUNDARY_Q_NONZERO
    if b < -t:
        return ConeRegion.INTERIOR_POLAR
    if b <= t:
        return ConeRegion.BOUNDARY_POLAR_NONZERO
    return ConeRegion.OUTSIDE


@np.errstate(over="ignore")
def project_q(y) -> np.ndarray:
    """Euclidean projection onto Q (closed form).

    Returns y inside Q, 0 inside -Q and otherwise the boundary point
    ((y0 + ||yr||) / 2) * (1, yr / ||yr||).
    """
    y = as_cone_vec(y)
    return _project_q(y, _checked_rnorm(y, _RNORM_OVERFLOWS))


def _project_q(y: np.ndarray, rnorm: float) -> np.ndarray:
    """`project_q` of a finite y with rnorm = ||yr||.  The boundary
    point's coefficient (y0 + ||yr||)/2 is formed as y0/2 + ||yr||/2,
    which cannot overflow.  It has the bits of the direct formula
    wherever that sum is finite: halving is exact but for |y0| below twice
    the smallest normal float, and such a y0 lies below half an ulp of
    ||yr||, which outside both cones is nonzero and so at least about
    1e-162."""
    if rnorm <= y[0]:
        return y.copy()
    if rnorm <= -y[0]:
        return np.zeros_like(y)
    coef = 0.5 * y[0] + 0.5 * rnorm
    out = np.empty_like(y)
    out[0] = coef
    out[1:] = (coef / rnorm) * y[1:]
    return out


@np.errstate(over="ignore")
def project_polar(y) -> np.ndarray:
    """Euclidean projection onto -Q, with the bits of y - project_q(y)."""
    y = as_cone_vec(y)
    return _project_polar(y, _checked_rnorm(y, _RNORM_OVERFLOWS))


def _project_polar(y: np.ndarray, rnorm: float) -> np.ndarray:
    """`project_polar` of a finite y with rnorm = ||yr||: bit for bit
    y - _project_q(y, rnorm), formed directly as zeros inside Q, a copy of
    y inside -Q and y minus the boundary point elsewhere."""
    if rnorm <= y[0]:
        return np.zeros(y.size)
    if rnorm <= -y[0]:
        return y.copy()
    coef = 0.5 * y[0] + 0.5 * rnorm
    out = y.copy()
    out[0] -= coef
    out[1:] -= (coef / rnorm) * y[1:]
    return out


def _project_q_rows(Y: np.ndarray) -> np.ndarray:
    """`_project_q` applied to every row of a finite (k, m+1) array.  A
    row whose squared space norm overflows takes `_checked_rnorm`'s scaled
    norm, or NonFiniteError where ||y_r|| itself overflows; the other rows
    keep numpy's."""
    y0 = Y[:, 0]
    rnorm = np.linalg.norm(Y[:, 1:], axis=1)
    for i in np.flatnonzero(rnorm == math.inf):
        rnorm[i] = _checked_rnorm(Y[i], "the space norm ||y_r|| of a row overflows")
    out = Y.copy()
    out[(rnorm > y0) & (rnorm <= -y0)] = 0.0
    outside = rnorm > np.abs(y0)
    coef = 0.5 * y0[outside] + 0.5 * rnorm[outside]   # as in `_project_q`
    out[outside, 0] = coef
    out[outside, 1:] = (coef / rnorm[outside])[:, None] * Y[outside, 1:]
    return out


@np.errstate(over="ignore")
def jacobian_project_polar(y) -> np.ndarray:
    """A generalized Jacobian V of the polar projection at y, 0 <= V <= I.

    Identity inside -Q, zero inside Q and at y = 0, and the smooth-Jacobian
    block matrix elsewhere.  On the cone boundaries the limit from the
    outside region is returned, which keeps semismooth Newton steps
    reproducible.  The region split is made by `_polar_jacobian_parts`,
    which also gives the matrix's identity-plus-rank-2 structure to the
    Hessian assembly.
    """
    y = as_cone_vec(y)
    alpha, u, r = _polar_jacobian_parts(y, _checked_rnorm(y, _RNORM_OVERFLOWS))
    out = alpha * np.eye(y.size)
    if u is not None:
        out[0, 0] = 0.5
        out[0, 1:] = -0.5 * u
        out[1:, 0] = -0.5 * u
        out[1:, 1:] += (0.5 * r) * np.outer(u, u)
    return out


def _polar_jacobian_parts(y: np.ndarray, rnorm: float):
    """The generalized Jacobian V of the polar projection at a finite y
    with rnorm = ||yr||, returned by structure as (alpha, u, r).

    The region is decided by the comparisons `_project_q` makes.  When u
    is None, V = alpha I and r is None too: alpha = 1 inside -Q and 0
    inside Q and at y = 0.  Otherwise (outside both cones and, as their
    outside limit, on the boundaries) u = yr / ||yr||, r = y0 / ||yr|| in
    [-1, 1], alpha = (1 - r)/2 in [0, 1] and

        V = alpha I + [e0, (0, u)] C [e0, (0, u)]',  C = (1/2) [[r, -1], [-1, r]],

    an identity-plus-rank-2 matrix (Kanzow, Ferenczi and Fukushima, SIAM
    J. Optim. 20, 2009) with eigenvalues alpha, 0 and 1.  This is the one
    place where the kink selection is decided.
    """
    if rnorm < -y[0]:
        return 1.0, None, None
    if rnorm < y[0] or rnorm == 0.0:
        return 0.0, None, None
    r = y[0] / rnorm
    return 0.5 * (1.0 - r), y[1:] / rnorm, r


@np.errstate(over="ignore")
def in_normal_cone(lam, y, tol: float = 1e-10) -> bool:
    """Whether lam lies in the normal cone to Q at y (projection test).

    Uses the characterization lam in N_Q(y) iff project_q(y + lam) = y,
    with both tests scaled by max(1, ||y||) (the second by ||lam|| too).
    Raises ValueError if y is farther than tol from Q, after a
    NonFiniteError where ||y||, ||lam|| or ||(y + lam)_r|| overflows.
    """
    _nonnegative("tol", tol)
    lam, y = as_cone_vec(lam), as_cone_vec(y)
    if lam.size != y.size:
        raise ValueError("dimension mismatch between lam and y")
    scale = max(1.0, _finite_norm(y, "the norm ||y|| of the base point overflows"))
    lam_norm = _finite_norm(lam, "the norm ||lam|| of the multiplier overflows")
    shifted = y + lam
    shifted_rnorm = _checked_rnorm(shifted, "the point y + lam overflows")
    if _norm(y - _project_q(y, _checked_rnorm(y, _RNORM_OVERFLOWS))) > tol * scale:
        raise ValueError("base point is not in the cone within tolerance")
    return _norm(_project_q(shifted, shifted_rnorm) - y) <= tol * max(scale, lam_norm)
