"""Augmented Lagrangian values, gradients, generalized Hessians and the
KKT residual, checked against finite differences and the fixed-point
characterization of KKT pairs."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from socalm import ConeRegion, SocpProblem, alm, builtin, generate_planted, solve
from socalm.cone import classify, jacobian_project_polar, project_q
from socalm.lagrangian import (AugEval, aug_hessian, aug_lagrangian, lagrangian_l,
                               residual)
from socalm.model import _read_only

from _util import (SHIFTED, constant_phi_problem, fd_grad, fd_jac, fresh_twin,
                   writeable_twin)


BUILTINS = [
    builtin("example_3_2"),
    builtin("projection", a=(0.0, 2.0, 0.0)),
    builtin("interior_trivial"),
    builtin("scaled_quadratic", seed=0),
]


def test_lagrangian_examples():
    p = builtin("interior_trivial")
    value, grad, hess = lagrangian_l(p, np.zeros(2), np.zeros(2))
    assert value == 0.0
    assert_allclose(grad, np.zeros(2))
    assert_allclose(hess, np.eye(2))

    e32 = builtin("example_3_2")
    sol = e32.known_solution
    _, grad, hess = lagrangian_l(e32, sol.x, sol.lam)
    assert np.linalg.norm(grad) <= 1e-14
    assert_allclose(hess, 2.0 * np.eye(2))

    proj = builtin("projection", a=(0.0, 2.0, 0.0))
    _, grad, _ = lagrangian_l(proj, np.array([1.0, 1.0, 0.0]), np.array([-1.0, 1.0, 0.0]))
    assert np.linalg.norm(grad) <= 1e-14


def test_aug_value_at_kkt_pairs():
    for p in BUILTINS:
        sol = p.known_solution
        f_bar = p.f_value(sol.x)
        for rho in (0.5, 1.0, 10.0):
            ev = aug_lagrangian(p, sol.x, sol.lam, rho)
            assert abs(ev.value - f_bar) <= 1e-10 * max(1.0, abs(f_bar))
            assert np.linalg.norm(ev.grad_x) <= 1e-10
            assert np.linalg.norm(ev.grad_lam) <= 1e-10


def test_aug_value_constant_phi():
    p = constant_phi_problem([0.0, 2.0, 0.0])
    ev = aug_lagrangian(p, np.zeros(2), np.zeros(3), rho=2.0)
    assert abs(ev.value - 2.0) <= 1e-14


def test_aug_value_feasible_zero_multiplier():
    p = builtin("interior_trivial")
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(2)
        ev = aug_lagrangian(p, x, np.zeros(2), rho=3.0)
        assert abs(ev.value - p.f_value(x)) <= 1e-14


def test_aug_value_where_a_squared_norm_overflows():
    """||lam||^2 and ||polar||^2 overflow inside -Q, where polar = lam:
    the value factors their difference and is f, with no warning."""
    p = builtin("projection")
    ev = aug_lagrangian(p, np.zeros(3), np.array([-1e200, 1e199, 0.0]), 10.0)
    assert ev.value == p.f_value(np.zeros(3)) == 2.0


def test_aug_grad_lambda_identity():
    p = builtin("scaled_quadratic", seed=4)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(p.n)
        lam = rng.standard_normal(p.m + 1)
        rho = float(10.0 ** rng.uniform(-1, 1))
        ev = aug_lagrangian(p, x, lam, rho)
        assert np.array_equal(ev.grad_lam, (ev.polar_proj - lam) / rho)


def test_aug_rejects_nonpositive_rho():
    p = builtin("interior_trivial")
    with pytest.raises(ValueError):
        aug_lagrangian(p, np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        aug_hessian(p, np.zeros(2), np.zeros(2), -1.0)


@pytest.mark.parametrize("p", BUILTINS, ids=lambda p: p.name)
def test_aug_gradients_match_finite_differences(p):
    rng = np.random.default_rng(33)
    for _ in range(100):
        x = rng.standard_normal(p.n)
        lam = rng.standard_normal(p.m + 1)
        rho = float(10.0 ** rng.uniform(-0.5, 1.0))
        ev = aug_lagrangian(p, x, lam, rho)
        gx = fd_grad(lambda z: aug_lagrangian(p, z, lam, rho).value, x)
        gl = fd_grad(lambda z: aug_lagrangian(p, x, z, rho).value, lam)
        assert np.linalg.norm(gx - ev.grad_x) <= 1e-6 * max(1.0, np.linalg.norm(ev.grad_x))
        assert np.linalg.norm(gl - ev.grad_lam) <= 1e-6 * max(1.0, np.linalg.norm(ev.grad_lam))


def test_monotone_in_rho():
    rng = np.random.default_rng(8)
    for p in BUILTINS:
        for _ in range(25):
            x = rng.standard_normal(p.n)
            lam = rng.standard_normal(p.m + 1)
            r1 = float(10.0 ** rng.uniform(-1, 1))
            r2 = r1 * (1.0 + abs(rng.standard_normal()))
            v1 = aug_lagrangian(p, x, lam, r1).value
            v2 = aug_lagrangian(p, x, lam, r2).value
            assert v2 >= v1 - 1e-12


def test_concave_in_lambda():
    rng = np.random.default_rng(9)
    for p in BUILTINS:
        for _ in range(25):
            x = rng.standard_normal(p.n)
            lam1 = rng.standard_normal(p.m + 1)
            lam2 = rng.standard_normal(p.m + 1)
            t = rng.random()
            rho = float(10.0 ** rng.uniform(-1, 1))
            mid = aug_lagrangian(p, x, t * lam1 + (1 - t) * lam2, rho).value
            v1 = aug_lagrangian(p, x, lam1, rho).value
            v2 = aug_lagrangian(p, x, lam2, rho).value
            assert mid >= t * v1 + (1 - t) * v2 - 1e-10


def test_fixed_point_characterization_both_directions():
    rhos = (0.5, 1.0, 10.0)
    for seed, region in ((1, ConeRegion.BOUNDARY_Q_NONZERO), (2, ConeRegion.INTERIOR_Q),
                         (3, ConeRegion.ZERO)):
        p = generate_planted(4, 2, region, seed=seed)
        sol = p.known_solution
        # KKT pair => both gradients vanish for every rho
        assert residual(p, sol.x, sol.lam) <= 1e-10
        for rho in rhos:
            ev = aug_lagrangian(p, sol.x, sol.lam, rho)
            assert np.linalg.norm(ev.grad_x) + np.linalg.norm(ev.grad_lam) <= 1e-8
        # definitely-not-KKT points must show up in some gradient
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x = sol.x + rng.standard_normal(p.n) * 0.1
            lam = sol.lam + rng.standard_normal(p.m + 1) * 0.1
            if residual(p, x, lam) <= 1e-6:
                continue
            worst = max(np.linalg.norm(aug_lagrangian(p, x, lam, rho).grad_x)
                        + np.linalg.norm(aug_lagrangian(p, x, lam, rho).grad_lam)
                        for rho in rhos)
            assert worst > 1e-8


def test_residual_examples():
    e32 = builtin("example_3_2")
    sol = e32.known_solution
    assert residual(e32, sol.x, sol.lam) <= 1e-12
    # frozen value computed independently with a brute-force projection
    value = residual(e32, np.array([0.0, 0.1]), np.array([-1.0, 0.8, 0.6]))
    assert abs(value - 0.05673749951495176) <= 1e-10

    # far outside feasibility with lam = 0 the residual is the plain sum
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    x = np.array([-5.0, 3.0, 1.0])
    phi = p.phi_value(x)
    expected = np.linalg.norm(p.f_grad(x)) + np.linalg.norm(phi - project_q(phi))
    assert abs(residual(p, x, np.zeros(3)) - expected) <= 1e-14


def _kink_margin(y):
    rnorm = np.linalg.norm(y[1:])
    return min(abs(rnorm - y[0]), abs(rnorm + y[0]))


@pytest.mark.parametrize("p", BUILTINS, ids=lambda p: p.name)
def test_aug_hessian_matches_fd_jacobian_off_kinks(p):
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 30:
        x = rng.standard_normal(p.n)
        lam = rng.standard_normal(p.m + 1)
        rho = float(10.0 ** rng.uniform(-0.5, 0.5))
        shifted = rho * p.phi_value(x) + lam
        if _kink_margin(shifted) <= 1e-3:
            continue
        H = aug_hessian(p, x, lam, rho)
        Hfd = fd_jac(lambda z: aug_lagrangian(p, z, lam, rho).grad_x, x)
        assert np.abs(H - Hfd).max() <= 1e-5 * max(1.0, np.abs(H).max())
        checked += 1


def test_aug_hessian_documented_cases():
    trivial = builtin("interior_trivial")
    H = aug_hessian(trivial, np.zeros(2), np.zeros(2), 1.0)
    assert_allclose(H, np.eye(2))

    proj = builtin("projection", a=(0.0, 2.0, 0.0))
    x = np.array([1.0, 1.0, 0.0])
    lam = np.array([-1.0, 1.0, 0.0])
    expected = np.eye(3) + 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert_allclose(aug_hessian(proj, x, lam, 1.0), expected, atol=1e-14)

    # At the counterexample's KKT pair the shifted point lands exactly on
    # the polar boundary, so the gradient has a kink there: the returned
    # element is the deterministic outside-limit selection (here 2 I), while
    # central differences would average the two one-sided limits.
    e32 = builtin("example_3_2")
    sol = e32.known_solution
    H = aug_hessian(e32, sol.x, sol.lam, 1.0)
    assert_allclose(H, 2.0 * np.eye(2), atol=1e-12)


def _nonlinear_problem(n, m, seed):
    """f(x) = x'Px/2 + q'x with a slightly asymmetric Hessian oracle and
    Phi_i(x) = (Ax + b)_i + x'Q_i x/2, so that phi_hess_contract is not
    zero and phi_jac returns a fresh writeable array on every call."""
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    P = R @ R.T + np.eye(n)
    f_hess = P + 1e-3 * rng.standard_normal((n, n))
    q = rng.standard_normal(n)
    A = rng.standard_normal((m + 1, n))
    b = rng.standard_normal(m + 1)
    Q = rng.standard_normal((m + 1, n, n))
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    return SocpProblem(
        n=n, m=m,
        f_value=lambda x: float(0.5 * x @ P @ x + q @ x),
        f_grad=lambda x: P @ x + q,
        f_hess=lambda x: f_hess,
        phi_value=lambda x: A @ x + b + 0.5 * np.einsum("i,kij,j->k", x, Q, x),
        phi_jac=lambda x: A + Q @ x,
        phi_hess_contract=lambda x, lam: np.einsum("k,kij->ij", lam, Q),
        name="nonlinear")


USES_GRAM = {ConeRegion.INTERIOR_POLAR, ConeRegion.BOUNDARY_POLAR_NONZERO,
             ConeRegion.OUTSIDE, "axis-"}
AXIS_REGION = {"axis+": ConeRegion.BOUNDARY_Q_NONZERO,
               "axis-": ConeRegion.BOUNDARY_POLAR_NONZERO}


def _eval_with_shift(p, case, x, rho, a, w, c, g):
    """AugEval at x whose shifted point rho Phi(x) + lam is SHIFTED[case]."""
    target = SHIFTED[case](a, w, c, g)
    lam = target - rho * p.phi_value(x)
    ev = AugEval(p, x, lam, rho).complete()
    assert classify(ev.shifted) is AXIS_REGION.get(case, case)
    return ev


@settings(max_examples=200)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), m=st.integers(1, 4),
       nonlinear=st.booleans(), case=st.sampled_from(list(SHIFTED)),
       log_rho=st.floats(-1.0, 1.0), log_a=st.floats(-2.0, 2.0),
       c=st.floats(-0.9, 0.9), g=st.floats(0.1, 10.0))
def test_structured_hessian_equals_dense_triple_product(seed, n, m, nonlinear, case,
                                                        log_rho, log_a, c, g):
    if nonlinear:
        p = _nonlinear_problem(n, m, seed)
    else:
        p = generate_planted(n, m, ConeRegion.BOUNDARY_Q_NONZERO, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    rho = 10.0 ** log_rho
    ev = _eval_with_shift(p, case, x, rho, 10.0 ** log_a, w, c, g)
    H = aug_hessian(p, x, ev.lam, rho)
    assert np.array_equal(H, H.T)
    assert np.array_equal(ev.hessian(), H)

    J = p.phi_jac(x)
    f_hess, phi_hess = p.f_hess(x), p.phi_hess_contract(x, ev.polar_proj)
    dense = f_hess + phi_hess + rho * (J.T @ jacobian_project_polar(ev.shifted) @ J)
    dense = 0.5 * (dense + dense.T)
    scale = 1.0 + np.abs(f_hess).max() + np.abs(phi_hess).max() + rho * np.sum(J * J)
    assert np.abs(H - dense).max() <= 1e-12 * scale


def factored_in_step(ev, state):
    """Copies of the matrices alm._newton_direction(ev, state) hands to
    alm.cho_factor, in order: none where a kept factor serves, else H and
    then H + mu I for each regularized attempt."""
    cho_factor, factored = alm.cho_factor, []

    def factor(A):
        factored.append(A.copy())
        return cho_factor(A)

    with mock.patch.object(alm, "cho_factor", factor):
        alm._newton_direction(ev, state)
    return factored


@settings(max_examples=200)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), m=st.integers(1, 4),
       nonlinear=st.booleans(), case=st.sampled_from(list(SHIFTED)),
       log_rho=st.floats(-1.0, 1.0), log_a=st.floats(-2.0, 2.0),
       c=st.floats(-0.9, 0.9), g=st.floats(0.1, 10.0))
def test_solver_triangle_is_the_upper_triangle_of_the_hessian(seed, n, m, nonlinear, case,
                                                               log_rho, log_a, c, g):
    """The triangle the Newton step factors is that of the exactly
    symmetric hessian(), also when G and S are kept from a step at
    another point, and each regularized attempt builds it again with the
    same bits after a factorization has overwritten it."""
    if nonlinear:
        p = _nonlinear_problem(n, m, seed)
    else:
        p = generate_planted(n, m, ConeRegion.BOUNDARY_Q_NONZERO, seed)
    rng = np.random.default_rng(seed)
    x0, x = rng.standard_normal(n), rng.standard_normal(n)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    rho = 10.0 ** log_rho
    # outside both cones: G and S are formed and no factor is kept
    state = alm.NewtonState()
    alm._newton_direction(_eval_with_shift(p, ConeRegion.OUTSIDE, x0, rho, 1.0, w, 0.0, 1.0),
                          state)
    curv = state.curv
    ev = _eval_with_shift(p, case, x, rho, 10.0 ** log_a, w, c, g)
    factored = factored_in_step(ev, state)
    if not nonlinear:  # read-only oracle results: S is formed once
        assert state.curv is curv
    H = aug_hessian(p, x, ev.lam, rho)
    assert np.array_equal(H, H.T)
    assert np.array_equal(ev.hessian(), H)
    assert np.array_equal(np.triu(factored[0]), np.triu(H))
    for k, A in enumerate(factored[1:]):
        expected = factored[0].copy()
        expected.flat[::n + 1] += alm.MU0 * 2.0 ** k
        assert np.array_equal(A, expected)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), m=st.integers(1, 4),
       case=st.sampled_from(list(SHIFTED)), oracle=st.sampled_from(["f_hess", "phi_hess_contract"]),
       in_place=st.booleans())
def test_curvature_follows_a_hessian_buffer_rewritten_in_place(seed, n, m, case, oracle,
                                                               in_place):
    """S is formed again, and the kept factor dropped, when a Hessian
    oracle returns a writeable array, whether a fresh one or one buffer
    rewritten in place, while the other oracle returns its one read-only
    array."""
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    P = _read_only(R @ R.T + np.eye(n))
    Q0 = rng.standard_normal((n, n))
    Q0 = Q0 + Q0.T
    zero = _read_only(np.zeros((n, n)))
    if oracle == "f_hess":
        def fresh(x):
            return P + np.outer(x, x)
    else:
        def fresh(x, lam):
            return lam[0] * Q0
    buf = np.empty((n, n))

    def rewritten(*args):
        buf[...] = fresh(*args)
        return buf

    base = dataclasses.replace(generate_planted(n, m, ConeRegion.BOUNDARY_Q_NONZERO, seed),
                               f_hess=lambda x: P, phi_hess_contract=lambda x, lam: zero)
    ref = dataclasses.replace(base, **{oracle: fresh})
    p = dataclasses.replace(base, **{oracle: rewritten if in_place else fresh})
    x0, x1 = rng.standard_normal(n), rng.standard_normal(n)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    state = alm.NewtonState()
    alm._newton_direction(
        _eval_with_shift(p, ConeRegion.INTERIOR_POLAR, x0, 1.0, 1.0, w, 0.0, 1.0), state)
    curv = state.curv
    ev = _eval_with_shift(p, case, x1, 1.0, 1.0, w, 0.3, 1.0)
    factored = factored_in_step(ev, state)
    assert state.curv is not curv
    assert np.array_equal(np.triu(factored[0]), np.triu(aug_hessian(ref, x1, ev.lam, 1.0)))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), m=st.integers(1, 4),
       case=st.sampled_from(list(SHIFTED)), log_rho=st.floats(-1.0, 1.0))
def test_gram_matrix_reuse_matches_a_writeable_jacobian(seed, n, m, case, log_rho):
    p = generate_planted(n, m, ConeRegion.BOUNDARY_Q_NONZERO, seed)
    twin = writeable_twin(p)
    rng = np.random.default_rng(seed)
    x0, x1 = rng.standard_normal(n), rng.standard_normal(n)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    rho = 10.0 ** log_rho
    directions = []
    for q in (p, twin):
        # the JPhi and G of a step at x0 (inside -Q, where G is used) are
        # kept for the step at x1, as the next inner iteration does
        state = alm.NewtonState()
        alm._newton_direction(
            _eval_with_shift(q, ConeRegion.INTERIOR_POLAR, x0, rho, 1.0, w, 0.0, 1.0), state)
        G = state.G
        ev = _eval_with_shift(q, case, x1, rho, 1.0, w, 0.3, 1.0)
        d = alm._newton_direction(ev, state)
        directions.append(None if d is None else d.tobytes())
        if q is p:  # one read-only Jacobian: G is never formed again
            assert state.G is G
        else:  # a writeable Jacobian drops G; it is formed again where used
            assert state.jac is ev.jac
            assert state.G is not G and (state.G is None) is (case not in USES_GRAM)
    assert directions[0] == directions[1]


@settings(max_examples=40)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), m=st.integers(1, 4),
       case=st.sampled_from(sorted(USES_GRAM, key=str)))
def test_gram_matrix_follows_a_jacobian_buffer_rewritten_in_place(seed, n, m, case):
    base = _nonlinear_problem(n, m, seed)
    buf = np.empty((m + 1, n))

    def phi_jac(x):
        buf[...] = base.phi_jac(x)
        return buf

    p = dataclasses.replace(base, phi_jac=phi_jac)
    rng = np.random.default_rng(seed)
    x0, x1 = rng.standard_normal(n), rng.standard_normal(n)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    state = alm.NewtonState()
    alm._newton_direction(
        _eval_with_shift(p, ConeRegion.INTERIOR_POLAR, x0, 1.0, 1.0, w, 0.0, 1.0), state)
    ev = _eval_with_shift(p, case, x1, 1.0, 1.0, w, 0.3, 1.0)
    factored = factored_in_step(ev, state)
    assert np.array_equal(np.triu(factored[0]), np.triu(aug_hessian(base, x1, ev.lam, 1.0)))


@settings(max_examples=20)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), m=st.integers(1, 4),
       region=st.sampled_from([ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                               ConeRegion.INTERIOR_Q]))
def test_solve_with_a_writeable_jacobian_is_identical(seed, n, m, region):
    """A solve that reuses G, S and factors has the bits of one whose
    twins form G (writeable_twin) or G, S and every factor (fresh_twin)
    again at every step."""
    p = generate_planted(n, m, region, seed)
    pt_a, tr_a = solve(p, np.zeros(n), np.zeros(m + 1))
    for twin in (writeable_twin(p), fresh_twin(p)):
        pt_b, tr_b = solve(twin, np.zeros(n), np.zeros(m + 1))
        assert tr_a.status is tr_b.status
        assert tr_a.sigmas == tr_b.sigmas and tr_a.values == tr_b.values
        assert tr_a.inner_iters == tr_b.inner_iters
        assert pt_a.x.tobytes() == pt_b.x.tobytes()
        assert pt_a.lam.tobytes() == pt_b.lam.tobytes()
