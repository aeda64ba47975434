"""The rule for a repeated oracle result (`model._held`, stated in
`SocpProblem`): the Newton step keeps S, JPhi and what it formed from them
(G, the kept factor, the multiplier-space form) exactly while the Hessian
and Jacobian oracles return a read-only array that is the held one or an
equal copy in memory of its own; the inner solve's floor and the
error-bound sampler apply the same rule."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from socalm import AlmStatus, ConeRegion, alm, builtin, generate_planted, solve
from socalm.diagnostics import verify_error_bound
from socalm.lagrangian import AugEval
from socalm.model import _read_only, quadratic_problem

from _util import SHIFTED

# what an oracle returns at its second call; the first two repeat the first result
KINDS = ("same array", "read-only copy", "writeable copy", "read-only view of a rewritten buffer",
         "unequal read-only array")
HELD = KINDS[:2]
NEWTON_ORACLES = ("f_hess", "phi_hess_contract", "phi_jac")


def _read_only_view(buf):
    view = buf.view()
    view.flags.writeable = False
    return view


def _evaluation(p, case, x, rho, w):
    """AugEval at x whose shifted point rho Phi(x) + lam is SHIFTED[case]."""
    return AugEval(p, x, SHIFTED[case](1.0, w, 0.3, 1.0) - rho * p.phi_value(x), rho).complete()


# the profile's example count: 100 in the suite, 2,000 under socalm-fuzz (conftest.py)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), m=st.integers(1, 4),
       oracle=st.sampled_from(NEWTON_ORACLES), kind=st.sampled_from(KINDS),
       case=st.sampled_from(list(SHIFTED)), log_rho=st.floats(-1.0, 1.0))
def test_newton_state_survives_exactly_a_repeated_result(seed, n, m, oracle, kind, case,
                                                          log_rho):
    """A Newton step inside -Q forms S, G and the kept factor; at the next
    step the oracle returns one of KINDS.  S (where a Hessian oracle
    repeats, or JPhi is the one tested), G and the kept factor (where the
    step does not factor anew) survive the held kinds alone, and the
    direction from the kept state has the bits of the one from a fresh
    state for every kind: the read-only view of a buffer rewritten with
    new values is new, although its memory is the held array's."""
    rng = np.random.default_rng(seed)
    base = generate_planted(n, m, ConeRegion.BOUNDARY_Q_NONZERO, seed)
    x0, x1 = rng.standard_normal(n), rng.standard_normal(n)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    rho = 10.0 ** log_rho
    first = {"f_hess": base.f_hess, "phi_jac": base.phi_jac,
             "phi_hess_contract": lambda x: base.phi_hess_contract(x, np.zeros(m + 1))}[oracle](x0)
    if oracle == "f_hess":
        v = rng.standard_normal(n)
        other = first + np.outer(v, v)
    elif oracle == "phi_hess_contract":
        B = rng.standard_normal((n, n))
        other = 0.1 * (B + B.T)
    else:
        other = first + 0.1 * rng.standard_normal(first.shape)
    buf = np.array(first)
    results = [_read_only_view(buf) if kind == KINDS[3] else first]

    def oracle_result(*args):
        return results[-1]

    p = dataclasses.replace(base, **{oracle: oracle_result})
    state = alm.NewtonState()
    alm._newton_direction(_evaluation(p, ConeRegion.INTERIOR_POLAR, x0, rho, w), state)
    curv, G, chol = state.curv, state.G, state.chol
    assert G is not None and chol is not None
    if kind == KINDS[3]:
        buf[...] = other
    results.append({KINDS[0]: first, KINDS[1]: _read_only(np.array(first)),
                    KINDS[2]: np.array(first), KINDS[3]: _read_only_view(buf),
                    KINDS[4]: _read_only(other)}[kind])
    ev = _evaluation(p, case, x1, rho, w)
    d = alm._newton_direction(ev, state)
    fresh = alm._newton_direction(ev, alm.NewtonState())
    assert (d is None and fresh is None) or d.tobytes() == fresh.tobytes()
    kept = kind in HELD
    assert (state.curv is curv) is (kept or oracle == "phi_jac")
    assert (state.G is G) is kept
    alpha, u, _ = alm._polar_jacobian_parts(ev.shifted, ev.rnorm)
    if u is not None or rho * alpha == chol[0]:   # a step that leaves the factor, or uses it
        assert (state.chol is chol) is kept


def _counted_builds(monkeypatch):
    builds, init = [], alm.MultiplierForm.__init__

    def build(self, S, jac):
        builds.append(S.shape[0])
        init(self, S, jac)

    monkeypatch.setattr(alm.MultiplierForm, "__init__", build)
    return builds


def _fresh_copies(p, *oracles):
    """p with the named one-argument oracles returning a fresh read-only
    copy of their result at every call."""
    return dataclasses.replace(p, **{name: (lambda f: lambda x: _read_only(np.array(f(x))))(
        getattr(p, name)) for name in oracles})


@pytest.mark.parametrize("region", [ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO,
                                    ConeRegion.INTERIOR_Q], ids=lambda r: r.value)
def test_fresh_read_only_copies_build_one_multiplier_form(region, monkeypatch):
    """Above the size gate, Hessian and Jacobian oracles that return a fresh
    read-only copy at every call build one multiplier-space form per solve,
    as the same arrays do, and the solve keeps its bits and counts."""
    n, m = alm.REDUCED_MIN_N + 10, 40
    p = generate_planted(n, m, region, 3)
    builds = _counted_builds(monkeypatch)
    runs = []
    for q in (p, _fresh_copies(p, "f_hess", "phi_jac")):
        builds.clear()
        point, trace = solve(q, np.zeros(n), np.zeros(m + 1))
        assert builds == [n]
        runs.append((trace.status, point.x.tobytes(), point.lam.tobytes(), len(trace),
                     trace.inner_iters, trace.sigmas))
    assert runs[0][0] is AlmStatus.CONVERGED
    assert runs[0] == runs[1]


def test_error_bound_sampler_shares_an_equal_read_only_jacobian(monkeypatch):
    """A phi_jac that returns a fresh read-only copy gets the report of the
    same-array problem, and no (k, m+1, n) stack of Jacobians is formed."""
    p = generate_planted(6, 3, ConeRegion.BOUNDARY_Q_NONZERO, 4)
    expected = verify_error_bound(p, 1e-2, 50, seed=2)

    def no_stack(*args, **kwargs):
        raise AssertionError("a stack of Jacobians was formed")

    monkeypatch.setattr(np, "einsum", no_stack)
    assert verify_error_bound(_fresh_copies(p, "phi_jac"), 1e-2, 50, seed=2) == expected


def test_error_bound_sampler_copies_a_view_of_a_rewritten_buffer():
    """A phi_jac that rewrites one buffer and returns a read-only view of it
    gets the report of the problem whose phi_jac returns new arrays: each
    sampled Jacobian is copied before the next call rewrites it."""
    p = builtin("example_3_2")
    buf = np.empty((3, 2))

    def phi_jac(x):
        buf[...] = p.phi_jac(x)
        return _read_only_view(buf)

    assert (verify_error_bound(dataclasses.replace(p, phi_jac=phi_jac), 1.0, 200, seed=1)
            == verify_error_bound(p, 1.0, 200, seed=1))


def _repeat_traffic():
    """The problems whose Newton oracles return one read-only object, by name."""
    problems = {"quadratic": lambda: quadratic_problem(
                    [[2.0, 1.0], [1.0, 3.0]], [1.0, 0.0], 0.0,
                    [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]], [1.0, 0.0, 0.0]),
                "projection": lambda: builtin("projection"),
                "projection-4": lambda: builtin("projection", a=(0.0, 2.0, 1.0, -1.0)),
                "interior_trivial": lambda: builtin("interior_trivial", n=3, m=2)}
    for region in (ConeRegion.INTERIOR_Q, ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO):
        for n, m in ((3, 2), (20, 10), (200, 100)):
            problems[f"planted-{region.value}-{n}"] = (
                lambda n=n, m=m, region=region: generate_planted(n, m, region, 9))
        problems[f"scaled_quadratic-{region.value}"] = (
            lambda region=region: builtin("scaled_quadratic", region=region.value))
    return problems


def _newton_results(p, x):
    lam = np.linspace(-1.0, 1.0, p.m + 1)
    return p.f_hess(x), p.phi_hess_contract(x, lam), p.phi_jac(x)


@pytest.mark.parametrize("name", list(_repeat_traffic()))
def test_builtin_and_planted_oracles_return_one_read_only_object(name):
    """The benchmark's problems answer the rule's first test (`new is
    old`), so no solve of theirs pays for a value comparison."""
    p = _repeat_traffic()[name]()
    rng = np.random.default_rng(0)
    first = _newton_results(p, rng.standard_normal(p.n))
    second = _newton_results(p, rng.standard_normal(p.n))
    for a, b in zip(first, second):
        assert a is b and not a.flags.writeable


def test_example_3_2_is_the_builtin_whose_jacobian_and_contraction_are_new():
    p = builtin("example_3_2")
    first, second = _newton_results(p, np.array([0.5, 0.5])), _newton_results(p, np.ones(2))
    assert first[0] is second[0] and not first[0].flags.writeable
    for a, b in zip(first[1:], second[1:]):
        assert a is not b and a.flags.writeable
