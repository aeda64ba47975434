"""Built-in problems, the planted generator and the file loader."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from socalm import (ConeRegion, builtin, check_sosc, generate_planted, in_normal_cone,
                    load_problem, quadratic_problem)
from socalm.cone import classify, tilde
from socalm.lagrangian import lagrangian_l, residual

from _util import BAD_SEEDS, fd_grad, fd_jac, rejected


def all_reference_problems():
    return [
        builtin("example_3_2"),
        builtin("projection", a=(0.0, 2.0, 0.0)),
        builtin("interior_trivial"),
        builtin("scaled_quadratic", seed=0),
        generate_planted(3, 2, ConeRegion.INTERIOR_Q, seed=2),
        generate_planted(4, 2, ConeRegion.ZERO, seed=3),
    ]


def test_example_3_2_data():
    p = builtin("example_3_2")
    sol = p.known_solution
    _, grad, hess = lagrangian_l(p, sol.x, sol.lam)
    assert np.linalg.norm(grad) <= 1e-12
    assert_allclose(hess, 2.0 * np.eye(2))
    assert_allclose(p.multiplier_ray, [-1.0, 1.0, 0.0])


def test_projection_builtin_solution():
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    assert_allclose(p.known_solution.x, [1.0, 1.0, 0.0])
    assert_allclose(p.known_solution.lam, [-1.0, 1.0, 0.0])


def test_interior_trivial_solution():
    p = builtin("interior_trivial")
    assert_allclose(p.known_solution.x, np.zeros(2))
    assert_allclose(p.known_solution.lam, np.zeros(2))


def test_unknown_builtin_rejected():
    with pytest.raises(KeyError):
        builtin("nonsense")


@pytest.mark.parametrize("name, params, unknown", [
    ("projection", {"n": 7, "region": "Zero"}, "n, region"),
    ("example_3_2", {"seed": 1}, "seed"),
    ("interior_trivial", {"a": (1.0, 0.0)}, "a"),
    ("scaled_quadratic", {"seed": 1, "eta": 0.5}, "eta"),
])
def test_builtin_rejects_parameters_it_does_not_take(name, params, unknown, tmp_path):
    with pytest.raises(ValueError, match=f"takes no parameter {unknown} "):
        builtin(name, **params)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"builtin": name, "params": params}))
    with pytest.raises(ValueError, match=f"takes no parameter {unknown} "):
        load_problem(path)


def test_builtin_accepts_each_documented_parameter():
    assert builtin("projection", a=(0.0, 3.0, 0.0)).known_solution is not None
    assert builtin("interior_trivial", n=3, m=2).n == 3
    p = builtin("scaled_quadratic", seed=4, n=5, m=3, region="Zero")
    assert (p.n, p.m, p.name) == (5, 3, "scaled_quadratic_4")


@pytest.mark.parametrize("key", ["n", "m", "seed"])
@pytest.mark.parametrize("value", [3.5, 3.0, "3", True])
def test_builtin_integer_parameters_must_be_integers(key, value, tmp_path):
    name = "interior_trivial" if key != "seed" else "scaled_quadratic"
    with pytest.raises(ValueError, match=f"parameter '{key}' must be an integer"):
        builtin(name, **{key: value})
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"builtin": name, "params": {key: value}}))
    with pytest.raises(ValueError, match=f"parameter '{key}' must be an integer"):
        load_problem(path)
    assert builtin(name, **{key: np.int64(3)}).name.startswith(name)


@pytest.mark.parametrize("name", ["interior_trivial", "scaled_quadratic"])
@pytest.mark.parametrize("key, value", [("n", 0), ("m", 0), ("n", -1)])
def test_builtin_dimensions_are_at_least_one(name, key, value, tmp_path):
    with pytest.raises(ValueError, match=f"^{key} must be at least 1, got {value}$"):
        builtin(name, **{key: value})
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"builtin": name, "params": {key: value}}))
    with pytest.raises(ValueError, match=f"^{key} must be at least 1, got {value}$"):
        load_problem(path)


def test_load_problem_unknown_builtin_is_a_value_error(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"builtin": "nonsense"}))
    with pytest.raises(ValueError, match="field 'builtin': unknown builtin problem 'nonsense'"):
        load_problem(path)


@pytest.mark.parametrize("p", all_reference_problems(), ids=lambda p: p.name)
def test_known_solutions_satisfy_kkt(p):
    sol = p.known_solution
    _, grad, _ = lagrangian_l(p, sol.x, sol.lam)
    assert np.linalg.norm(grad) <= 1e-10
    assert in_normal_cone(sol.lam, p.phi_value(sol.x), 1e-8)
    assert residual(p, sol.x, sol.lam) <= 1e-9


@pytest.mark.parametrize("p", all_reference_problems(), ids=lambda p: p.name)
def test_oracles_match_finite_differences(p):
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.standard_normal(p.n)
        lam = rng.standard_normal(p.m + 1)
        g = p.f_grad(x)
        assert np.linalg.norm(g - fd_grad(p.f_value, x)) <= 1e-6 * max(1.0, np.linalg.norm(g))
        H = p.f_hess(x)
        Hfd = fd_jac(p.f_grad, x)
        assert np.abs(H - Hfd).max() <= 1e-6 * max(1.0, np.abs(H).max())
        J = p.phi_jac(x)
        Jfd = fd_jac(p.phi_value, x)
        assert np.abs(J - Jfd).max() <= 1e-6 * max(1.0, np.abs(J).max())
        C = p.phi_hess_contract(x, lam)
        Cfd = fd_jac(lambda z: p.phi_jac(z).T @ lam, x)
        assert np.abs(C - Cfd).max() <= 1e-6 * max(1.0, np.abs(C).max())
        assert_allclose(C, C.T, atol=1e-12)


def test_planted_regions_and_multipliers():
    interior = generate_planted(3, 2, ConeRegion.INTERIOR_Q, seed=1)
    sol = interior.known_solution
    assert classify(interior.phi_value(sol.x), 1e-8) is ConeRegion.INTERIOR_Q
    assert np.linalg.norm(sol.lam) == 0.0
    assert np.linalg.norm(interior.f_grad(sol.x)) <= 1e-10

    boundary = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=1)
    sol = boundary.known_solution
    phi = boundary.phi_value(sol.x)
    assert classify(phi, 1e-8) is ConeRegion.BOUNDARY_Q_NONZERO
    direction = tilde(phi)
    t = sol.lam @ direction / (direction @ direction)
    assert t >= 0.0
    assert np.linalg.norm(sol.lam - t * direction) <= 1e-10

    vertex = generate_planted(4, 2, ConeRegion.ZERO, seed=5)
    sol = vertex.known_solution
    assert np.linalg.norm(vertex.phi_value(sol.x)) <= 1e-10
    assert classify(sol.lam, 1e-8) is ConeRegion.INTERIOR_POLAR


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_planted_residual_by_construction(seed):
    p = generate_planted(4, 3, ConeRegion.BOUNDARY_Q_NONZERO, seed=seed)
    sol = p.known_solution
    assert residual(p, sol.x, sol.lam) <= 1e-10


def test_planted_boundary_redraws_a_near_zero_space_part():
    """At seed 104 the first draw of Phi(xbar)'s space part u has |u| =
    5.4e-4 < 1e-3; the generator draws it again, and the pair it returns
    is a KKT pair on the boundary of Q where sufficiency holds."""
    rng = np.random.default_rng(104)
    for shape in ((1, 1), (2, 1), 1):   # the draws of R, A and xbar
        rng.standard_normal(shape)
    assert np.linalg.norm(rng.standard_normal(1)) < 1e-3
    p = generate_planted(1, 1, ConeRegion.BOUNDARY_Q_NONZERO, 104)
    sol = p.known_solution
    phi = p.phi_value(sol.x)
    assert classify(phi, 1e-8) is ConeRegion.BOUNDARY_Q_NONZERO
    assert np.linalg.norm(phi[1:]) >= 1e-3
    assert residual(p, sol.x, sol.lam) == 0.0
    assert check_sosc(p, sol.x, sol.lam).holds


def test_planted_deterministic_per_seed():
    a = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=9)
    b = generate_planted(3, 2, ConeRegion.BOUNDARY_Q_NONZERO, seed=9)
    x = np.linspace(-1.0, 1.0, 3)
    assert np.array_equal(a.f_hess(x), b.f_hess(x))
    assert np.array_equal(a.f_grad(x), b.f_grad(x))
    assert np.array_equal(a.phi_value(x), b.phi_value(x))
    assert np.array_equal(a.known_solution.x, b.known_solution.x)
    assert np.array_equal(a.known_solution.lam, b.known_solution.lam)


def test_planted_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_planted(0, 2, ConeRegion.INTERIOR_Q, seed=0)
    with pytest.raises(ValueError, match="n must be an integer"):
        generate_planted(2.5, 2, ConeRegion.INTERIOR_Q, seed=0)
    with pytest.raises(ValueError, match="m must be an integer"):
        generate_planted(3, 2.5, ConeRegion.INTERIOR_Q, seed=0)
    with pytest.raises(ValueError):
        generate_planted(3, 2, ConeRegion.OUTSIDE, seed=0)


@pytest.mark.parametrize("call, message", rejected(
    "generate_planted", "seed", BAD_SEEDS,
    lambda v: generate_planted(3, 2, ConeRegion.INTERIOR_Q, v), "seed must be"))
def test_planted_rejects_a_bad_seed(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_load_problem_builtin_dispatch(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"builtin": "example_3_2"}))
    p = load_problem(path)
    assert p.name == "example_3_2"


def test_load_problem_quadratic(tmp_path):
    path = tmp_path / "q.json"
    payload = {"quadratic": {
        "P": np.eye(3).tolist(), "q": [0.0, 0.0, 0.0], "c": 0.0,
        "A": np.eye(3).tolist(), "b": [0.0, -2.0, 0.0],
    }}
    path.write_text(json.dumps(payload))
    p = load_problem(path)
    assert (p.n, p.m) == (3, 2)
    x = np.array([1.0, 2.0, 3.0])
    assert_allclose(p.phi_value(x), x + np.array([0.0, -2.0, 0.0]))


def test_load_problem_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    payload = {"quadratic": {
        "P": np.eye(2).tolist(), "q": [0.0, 0.0],
        "A": [[1.0, 0.0]], "b": [0.0],
    }}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="quadratic"):
        load_problem(path)


def test_load_problem_rejects_an_unknown_quadratic_key(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"quadratic": {
        "P": np.eye(2).tolist(), "q": [0.0, 0.0], "A": np.eye(3, 2).tolist(),
        "b": [0.0, 0.0, 0.0], "xbar": [0.0, 0.0]}}))
    with pytest.raises(ValueError, match="field 'quadratic' takes no key xbar"):
        load_problem(path)


@pytest.mark.parametrize("field", ["P", "q", "c", "A", "b"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_quadratic_problem_rejects_non_finite_data(field, bad):
    data = {"P": np.eye(2), "q": np.zeros(2), "c": 0.0, "A": np.eye(3, 2), "b": np.zeros(3)}
    if field == "c":
        data["c"] = bad
    else:
        data[field] = data[field].copy()
        data[field].flat[0] = bad
    with pytest.raises(ValueError, match=f"^{field} "):
        quadratic_problem(**data)


def _quadratic_hessian(P):
    n = len(P)
    return quadratic_problem(P, np.zeros(n), 0.0, np.eye(n + 1, n), np.zeros(n + 1)).f_hess(
        np.zeros(n))


def test_quadratic_problem_symmetrizes_a_huge_p_without_overflow():
    """P + P' overflows for a finite P near the largest float; the halves
    do not, so the Hessian stays finite, with no floating-point warning."""
    H = _quadratic_hessian(np.array([[1.5e308, 1.0], [3.0, 1.5e308]]))
    assert H.tolist() == [[1.5e308, 2.0], [2.0, 1.5e308]]
    assert not H.flags.writeable


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), log_scale=st.floats(-300.0, 300.0),
       symmetric=st.booleans())
def test_quadratic_problem_symmetrizes_as_the_sum_where_that_is_finite(seed, n, log_scale,
                                                                       symmetric):
    """Wherever 0.5 (P + P') is finite and neither it nor 0.5 P has a
    subnormal entry, the Hessian has its bits: each halving is exact."""
    P = np.random.default_rng(seed).standard_normal((n, n)) * 10.0 ** log_scale
    if symmetric:
        P = np.triu(P) + np.triu(P, 1).T
    with np.errstate(over="ignore"):
        old = 0.5 * (P + P.T)
    subnormal = [np.abs(a[a != 0.0]) < np.finfo(float).tiny for a in (old, 0.5 * P)]
    if np.isfinite(old).all() and not any(s.any() for s in subnormal):
        assert _quadratic_hessian(P).tobytes() == old.tobytes()


@pytest.mark.parametrize("data, unknown", [
    ({"builtin": "projection", "parms": {"a": [0.0, 5.0, 0.0]}}, "parms"),
    ({"builtin": "projection", "quadratic": {}}, "quadratic"),
    ({"quadratic": {}, "params": {}}, "params"),
])
def test_load_problem_rejects_an_unknown_top_level_field(data, unknown, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"problem file takes no field {unknown} "):
        load_problem(path)


def test_load_problem_wrongly_typed_quadratic_field_is_a_value_error(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"quadratic": {
        "P": np.eye(2).tolist(), "q": [0.0, 0.0], "c": [1.0], "A": np.eye(3, 2).tolist(),
        "b": [0.0, 0.0, 0.0]}}))
    with pytest.raises(ValueError, match="field 'quadratic': "):
        load_problem(path)


def test_load_problem_missing_field(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    with pytest.raises(ValueError, match="builtin"):
        load_problem(path)


def test_quadratic_oracle_arrays_are_read_only():
    A = np.ones((3, 2))
    p = quadratic_problem(np.eye(2), np.zeros(2), 0.0, A, np.array([1.0, 0.0, 0.0]))
    x = np.zeros(2)
    for out in (p.phi_jac(x), p.f_hess(x), p.phi_hess_contract(x, np.zeros(3))):
        with pytest.raises(ValueError):
            out[0, 0] = 5.0
    A[0, 0] = 2.0  # the caller's array stays writable and is not shared
    assert p.phi_jac(x)[0, 0] == 1.0


ROW_FORM_CASES = [*[(n, m, region) for n, m in ((1, 1), (3, 2), (20, 10), (100, 50))
                    for region in (ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                                   ConeRegion.INTERIOR_Q)],
                  "interior_trivial", "file"]


def _row_form_problem(case, tmp_path_factory):
    if case == "interior_trivial":
        return builtin("interior_trivial", n=4, m=3)
    if case == "file":
        rng = np.random.default_rng(5)
        path = tmp_path_factory.mktemp("rows") / "q.json"
        path.write_text(json.dumps({"quadratic": {
            "P": (rng.standard_normal((4, 4)) + 4.0 * np.eye(4)).tolist(),
            "q": rng.standard_normal(4).tolist(), "c": 1.5,
            "A": rng.standard_normal((3, 4)).tolist(), "b": rng.standard_normal(3).tolist()}}))
        return load_problem(path)
    return generate_planted(*case, seed=1)


@pytest.mark.parametrize("case", ROW_FORM_CASES,
                         ids=lambda c: c if isinstance(c, str) else f"{c[0]}-{c[1]}-{c[2].value}")
@pytest.mark.parametrize("k", [1, 2, 203])
@settings(max_examples=5)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_quadratic_row_forms_equal_the_oracles_bit_for_bit(case, k, seed, scale,
                                                          tmp_path_factory):
    """phi_value.rows and f_grad.rows give each row's oracle value, bit for
    bit: one stacked matrix-vector product per row, as the oracle makes it."""
    p = _row_form_problem(case, tmp_path_factory)
    xs = scale * np.random.default_rng(seed).standard_normal((k, p.n))
    for oracle in (p.phi_value, p.f_grad):
        rows = oracle.rows(xs)
        assert rows.tobytes() == np.array([oracle(x) for x in xs]).tobytes()
        assert rows.flags.writeable and not np.shares_memory(rows, xs)


def test_only_the_quadratic_oracles_have_a_row_form():
    assert not any(hasattr(getattr(builtin(name), o), "rows")
                   for name in ("example_3_2", "projection")
                   for o in ("f_value", "f_grad", "f_hess", "phi_value", "phi_jac",
                             "phi_hess_contract"))
    p = builtin("scaled_quadratic", seed=3)  # a renamed copy keeps the row forms
    assert hasattr(p.phi_value, "rows") and hasattr(p.f_grad, "rows")
