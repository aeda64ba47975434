"""Problem representation and the built-in problem library.

A problem couples a smooth objective f : R^n -> R with a constraint map
Phi : R^n -> R^(m+1) whose value must lie in the Lorentz cone.  All
oracles are callables over plain numpy arrays; second-order information
enters through the contracted Hessian (x, lam) -> sum_i lam_i * Hess Phi_i(x).

Besides hand-written builtins (including the counterexample problem with
a ray of multipliers), a seeded generator plants convex quadratic
problems with a known KKT pair in a requested cone region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .cone import (ConeRegion, _at_least, _finite, _integer, _norm, _sym, as_cone_vec, project_q,
                   tilde)


@dataclass(frozen=True)
class KktPoint:
    """Primal-dual pair; arrays are copied defensively on construction."""

    x: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.array(self.x, dtype=float))
        object.__setattr__(self, "lam", np.array(self.lam, dtype=float))


@dataclass(frozen=True)
class SocpProblem:
    """Oracle bundle for minimize f(x) s.t. Phi(x) in Q.

    phi_hess_contract(x, lam) must return the n x n matrix of second
    derivatives of x -> <lam, Phi(x)>.  Oracles must be pure so that a
    problem instance can be shared between concurrent solves; the solver
    and the diagnostics never write into an oracle result.  One rule
    (`_held`) says when an f_hess, phi_hess_contract or phi_jac result
    repeats the held one, so that what was formed from it is kept: it is
    read-only and is the held array (as the quadratic and builtin problems
    return), or the held array is read-only too, shares no memory with it
    (a view of one rewritten buffer does) and equals it entry for entry.

    phi_value and f_grad may carry a `rows` attribute: rows(X) for a (k, n)
    array X returns the (k, m+1) or (k, n) array of oracle(x) for each row
    x of X, equal row for row to the oracle, bit for bit.  It is optional
    and read only by the error-bound sampler (`diagnostics._oracle_rows`);
    a wrapper of an oracle has no `rows` and is sampled one row at a time.
    """

    n: int
    m: int
    f_value: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    f_hess: Callable[[np.ndarray], np.ndarray]
    phi_value: Callable[[np.ndarray], np.ndarray]
    phi_jac: Callable[[np.ndarray], np.ndarray]
    phi_hess_contract: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "socp"
    known_solution: Optional[KktPoint] = None
    # Direction d such that the full multiplier set is the ray R_+ d;
    # None means the known multiplier is (believed) unique.
    multiplier_ray: Optional[np.ndarray] = None
    # Optional family of adversarial primal-dual points, parameterized by
    # the distance scale at which the point should sit (used by the
    # error-bound diagnostic to probe known failure paths).
    hard_path: Optional[Callable[[float], tuple]] = None

    def check_dims(self, x, lam=None):
        """(x, lam) as finite float arrays of checked shapes; lam may be None."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"primal point must have shape ({self.n},), got {x.shape}")
        _finite("primal point", x)
        if lam is not None:
            lam = np.asarray(lam, dtype=float)
            if lam.shape != (self.m + 1,):
                raise ValueError(f"multiplier must have shape ({self.m + 1},), got {lam.shape}")
            _finite("multiplier", lam)
        return x, lam


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _held(new: np.ndarray, old) -> bool:   # the rule in `SocpProblem`; old None: none held
    return old is not None and not new.flags.writeable and (new is old or not (
        old.flags.writeable or np.may_share_memory(new, old)) and np.array_equal(new, old))


def quadratic_problem(P, q, c, A, b, name="quadratic", known_solution=None) -> SocpProblem:
    """Problem with f(x) = x'Px/2 + q'x + c and Phi(x) = Ax + b.

    f_hess, phi_jac and phi_hess_contract return the same read-only arrays
    P, A and 0 on every call; the 0 is a stride-0 view of one float, which
    holds no n x n buffer.  `lagrangian.curvature` hands P itself to the
    solver as S, since the contraction is zero.  phi_value and f_grad carry `rows`
    (see `SocpProblem`): one stacked product over all rows, a
    matrix-vector product per row as the oracle makes it, so each row
    rounds as the oracle does (a single matrix product X @ A.T may not).
    Non-finite data raises ValueError.  P is kept as `cone._sym(P)`.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    c = float(c)
    A = np.array(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("P must be square")
    n = P.shape[0]
    if q.shape != (n,):
        raise ValueError("q has wrong length for P")
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError("A column count does not match P")
    if A.shape[0] < 2:
        raise ValueError("A must have at least 2 rows (m >= 1)")
    if b.shape != (A.shape[0],):
        raise ValueError("b has wrong length for A")
    for field, value in (("P", P), ("q", q), ("c", c), ("A", A), ("b", b)):
        if not np.isfinite(value).all():
            raise ValueError(f"{field} has non-finite entries")
    m = A.shape[0] - 1
    P = _read_only(_sym(P))
    _read_only(A)
    zero_h = np.broadcast_to(0.0, (n, n))   # read-only

    def f_grad(x):
        return P @ x + q

    def phi_value(x):
        return A @ x + b

    f_grad.rows = lambda xs: np.matmul(P, xs[:, :, None])[:, :, 0] + q
    phi_value.rows = lambda xs: np.matmul(A, xs[:, :, None])[:, :, 0] + b
    return SocpProblem(
        n=n, m=m,
        f_value=lambda x: float(0.5 * x @ P @ x + q @ x + c),
        f_grad=f_grad,
        f_hess=lambda x: P,
        phi_value=phi_value,
        phi_jac=lambda x: A,
        phi_hess_contract=lambda x, lam: zero_h,
        name=name,
        known_solution=known_solution,
    )


def _example_3_2() -> SocpProblem:
    """Counterexample with f(x) = x2^2 and Phi(x) = (-x1^2 + x2, x2, 0).

    At xbar = 0 the multiplier set is the ray R_+ (-1, 1, 0) and the
    primal-dual error bound fails along lam_t = (-1, t, sqrt(1 - t^2)),
    x_t = (0, (1 - t)/2) as t -> 1.
    """
    hess0 = np.array([[-2.0, 0.0], [0.0, 0.0]])
    f_hess = _read_only(np.array([[0.0, 0.0], [0.0, 2.0]]))
    lam_bar = np.array([-1.0, 1.0, 0.0])

    def hard_path(scale: float):
        # Distance of (x_t, lam_t) to the solution is ~ sqrt(2(1-t)).
        s = min(0.5, 0.5 * scale * scale)
        t = 1.0 - s
        x = np.array([0.0, 0.5 * s])
        lam = np.array([-1.0, t, np.sqrt(max(0.0, 1.0 - t * t))])
        return x, lam

    return SocpProblem(
        n=2, m=2,
        f_value=lambda x: float(x[1] ** 2),
        f_grad=lambda x: np.array([0.0, 2.0 * x[1]]),
        f_hess=lambda x: f_hess,
        phi_value=lambda x: np.array([-x[0] ** 2 + x[1], x[1], 0.0]),
        phi_jac=lambda x: np.array([[-2.0 * x[0], 1.0], [0.0, 1.0], [0.0, 0.0]]),
        phi_hess_contract=lambda x, lam: lam[0] * hess0,
        name="example_3_2",
        known_solution=KktPoint(np.zeros(2), lam_bar),
        multiplier_ray=lam_bar.copy(),
        hard_path=hard_path,
    )


def _projection_problem(a=(0.0, 2.0, 0.0)) -> SocpProblem:
    """f(x) = ||x - a||^2 / 2 with Phi(x) = x; solution is the projection."""
    a = as_cone_vec(a)
    n = a.size
    x_star = project_q(a)
    lam_star = a - x_star  # stationarity x - a + lam = 0
    eye = _read_only(np.eye(n))
    zero = np.broadcast_to(0.0, (n, n))   # read-only, as quadratic_problem's
    return SocpProblem(
        n=n, m=n - 1,
        f_value=lambda x: float(0.5 * np.sum((x - a) ** 2)),
        f_grad=lambda x: x - a,
        f_hess=lambda x: eye,
        phi_value=lambda x: x.copy(),
        phi_jac=lambda x: eye,
        phi_hess_contract=lambda x, lam: zero,
        name="projection",
        known_solution=KktPoint(x_star, lam_star),
    )


def _interior_trivial(n: int = 2, m: int = 1) -> SocpProblem:
    """f(x) = ||x||^2 / 2 with a constant, strictly feasible Phi = e0."""
    _at_least("n", n, 1)
    _at_least("m", m, 1)
    e0 = np.zeros(m + 1)
    e0[0] = 1.0
    return quadratic_problem(np.eye(n), np.zeros(n), 0.0, np.zeros((m + 1, n)), e0,
                             name="interior_trivial",
                             known_solution=KktPoint(np.zeros(n), np.zeros(m + 1)))


def generate_planted(n: int, m: int, region: ConeRegion, seed: int) -> SocpProblem:
    """Convex quadratic problem with a planted KKT pair.

    Draws P = R'R + I, a Gaussian A and (xbar, lambar), then sets b so
    that Phi(xbar) lands in the requested region and q so that the pair
    is stationary.  Deterministic per seed.
    """
    _at_least("n", n, 1)
    _at_least("m", m, 1)
    _at_least("seed", seed)
    if region not in (ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO):
        raise ValueError(f"unsupported region {region}")
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    P = R.T @ R + np.eye(n)
    A = rng.standard_normal((m + 1, n))
    x_bar = rng.standard_normal(n)

    if region is ConeRegion.INTERIOR_Q:
        u = rng.standard_normal(m)
        z = np.concatenate(([_norm(u) + 1.0 + abs(rng.standard_normal())], u))
        lam_bar = np.zeros(m + 1)
    elif region is ConeRegion.BOUNDARY_Q_NONZERO:
        u = rng.standard_normal(m)
        while _norm(u) < 1e-3:
            u = rng.standard_normal(m)
        z = np.concatenate(([_norm(u)], u))
        t = 0.5 + abs(rng.standard_normal())
        lam_bar = t * tilde(z)
    else:  # vertex: Phi(xbar) = 0, lambar strictly inside -Q
        z = np.zeros(m + 1)
        v = rng.standard_normal(m)
        s = 0.5 + abs(rng.standard_normal())
        lam_bar = np.concatenate(([-(_norm(v) + s)], v))

    b = z - A @ x_bar
    q = -P @ x_bar - A.T @ lam_bar
    return quadratic_problem(
        P, q, 0.0, A, b,
        name=f"planted_{region.value}_{seed}",
        known_solution=KktPoint(x_bar, lam_bar),
    )


def _scaled_quadratic(seed=0, n=3, m=2, region=ConeRegion.BOUNDARY_Q_NONZERO) -> SocpProblem:
    """A seeded planted quadratic (`generate_planted`) named by its seed."""
    return replace(generate_planted(n, m, ConeRegion(region), seed),
                   name=f"scaled_quadratic_{seed}")


# name -> (constructor, the parameters it takes)
_BUILTINS = {"example_3_2": (_example_3_2, ()), "projection": (_projection_problem, ("a",)),
             "interior_trivial": (_interior_trivial, ("n", "m")),
             "scaled_quadratic": (_scaled_quadratic, ("seed", "n", "m", "region"))}


def builtin(name: str, **params) -> SocpProblem:
    """Look up a registered problem by name.

    Supported names: example_3_2, projection (param a, default (0, 2, 0)),
    interior_trivial (params n, m), scaled_quadratic (params seed, n, m,
    region -- a seeded planted quadratic).  An unknown name raises
    KeyError; a parameter the problem does not take, a non-integer
    n, m or seed, or an n or m below 1, raises ValueError.
    """
    if not isinstance(name, str) or name not in _BUILTINS:
        raise KeyError(f"unknown builtin problem {name!r}")
    make, accepted = _BUILTINS[name]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"builtin problem {name!r} takes no parameter "
                         f"{', '.join(unknown)} (it takes: {', '.join(accepted) or 'none'})")
    for key in sorted(set(params) & {"n", "m", "seed"}):
        _integer(f"parameter {key!r}", params[key])
    return make(**params)


def load_problem(path) -> SocpProblem:
    """Read a problem from a JSON file.

    The file holds either {"builtin": name, "params": {...}} or
    {"quadratic": {"P": [[...]], "q": [...], "c": 0.0, "A": [[...]], "b": [...]}}
    with row-major matrices and an optional "name".  Errors, an unknown
    key among them, name the offending field.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("problem file must hold a JSON object")
    allowed = {"builtin", "params"} if "builtin" in data else {"quadratic"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"problem file takes no field {', '.join(unknown)} "
                         f"(it takes: {', '.join(sorted(allowed))})")
    if "builtin" in data:
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("field 'params' must be an object")
        try:
            return builtin(data["builtin"], **params)
        except KeyError as exc:
            raise ValueError(f"field 'builtin': {exc.args[0]}") from exc
        except TypeError as exc:  # a parameter of the wrong JSON type
            raise ValueError(f"field 'params': {exc}") from exc
    if "quadratic" in data:
        spec = data["quadratic"]
        if not isinstance(spec, dict):
            raise ValueError("field 'quadratic' must be an object")
        for key in ("P", "q", "A", "b"):
            if key not in spec:
                raise ValueError(f"field 'quadratic.{key}' is missing")
        unknown = sorted(set(spec) - {"P", "q", "c", "A", "b", "name"})
        if unknown:
            raise ValueError(f"field 'quadratic' takes no key {', '.join(unknown)}")
        try:
            return quadratic_problem(spec["P"], spec["q"], spec.get("c", 0.0),
                                     spec["A"], spec["b"], name=spec.get("name", "quadratic"))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field 'quadratic': {exc}") from exc
    raise ValueError("problem file needs a 'builtin' or 'quadratic' field")
