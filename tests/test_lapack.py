"""The LAPACK and BLAS routines of `socalm._lapack`: the package runs every
command without importing `scipy.linalg`, and each routine of the Newton
step returns the bits of the one `scipy.linalg` exports.  The kernel
bases of `variational` come from numpy's SVD, checked here by the
properties the certificates read."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
from hypothesis import given
from hypothesis import strategies as st

import socalm
from socalm import _lapack
from socalm.variational import EPS, _kernel_split

# Each command once, with its expected exit code; WHOLE_CONE stands for a
# problem file whose critical cone at --x and a zero multiplier is all of Q.
COMMANDS = [
    (["solve", "--problem", "builtin:scaled_quadratic", "--seed", "1", "--n", "20",
      "--m", "10", "--region", "Zero"], 0),
    (["rate", "--problem", "builtin:scaled_quadratic", "--seed", "1", "--rho-list", "10,100"], 0),
    (["check", "sosc", "--problem", "builtin:example_3_2"], 0),
    (["check", "sosc", "--problem", "WHOLE_CONE", "--x=1,-1,0.5", "--lambda=0,0,0"], 0),
    (["check", "dualqual", "--problem", "builtin:example_3_2"], 1),
    (["check", "growth", "--problem", "builtin:example_3_2"], 0),
    (["check", "errorbound", "--problem", "builtin:example_3_2", "--radius", "1e-2",
      "--samples", "100", "--seed", "3"], 1),
    (["check", "example32", "--problem", "builtin:example_3_2", "--t", "0.8"], 0),
]

RUN_ALL = """
import contextlib, io, json, sys
import socalm.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(socalm.cli.main(argv))
print(json.dumps({"codes": codes,
                  "linalg": sorted(m for m in sys.modules if m.startswith("scipy.linalg"))}))
"""


def test_no_command_imports_scipy_linalg(tmp_path):
    """A fresh interpreter runs every command in-process and never loads
    `scipy.linalg` or any of its submodules."""
    whole_cone = tmp_path / "wholecone.json"
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [3.0, 0.0, 1.0]])
    P, x_bar = np.diag([2.0, 1.0, 3.0]), np.array([1.0, -1.0, 0.5])
    whole_cone.write_text(json.dumps({"quadratic": {
        "P": P.tolist(), "q": (-P @ x_bar).tolist(), "c": 0.0, "A": A.tolist(),
        "b": (-A @ x_bar).tolist(), "name": "wholecone"}}))
    argvs = [[str(whole_cone) if a == "WHOLE_CONE" else a for a in argv]
             for argv, _ in COMMANDS]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(socalm.__path__[0])}
    out = subprocess.run([sys.executable, "-c", RUN_ALL, json.dumps(argvs)], env=env,
                         cwd=tmp_path, check=True, capture_output=True, text=True).stdout
    result = json.loads(out)
    assert result == {"codes": [code for _, code in COMMANDS], "linalg": []}


def test_only_lapack_module_names_scipy():
    package = pathlib.Path(socalm.__path__[0])
    naming = sorted(path.name for path in package.rglob("*.py") if "scipy" in path.read_text())
    assert naming == ["_lapack.py"]


@pytest.mark.parametrize("module, names", [
    (scipy.linalg.lapack, ["dpotrf", "dtrtrs"]),
    (scipy.linalg.blas, ["dsyr2k"]),
])
def test_scipy_still_exports_each_routine(module, names):
    """A scipy that renames a wrapper fails here with its name."""
    for name in names:
        assert hasattr(module, name), f"{module.__name__} has no {name}"
        assert hasattr(_lapack, name)


def test_lapack_holds_only_the_newton_steps_routines():
    routines = sorted(name for name, value in vars(_lapack).items()
                      if type(value).__name__ == "fortran")   # f2py's routine type
    assert routines == ["dpotrf", "dsyr2k", "dtrtrs"]


def test_numpy_linalg_error_is_scipys():
    assert np.linalg.LinAlgError is scipy.linalg.LinAlgError


sizes = st.integers(1, 40)
orders = st.sampled_from("CF")
seeds = st.integers(0, 2**32 - 1)


def _matrix(rows, cols, order, rng):
    return np.asarray(rng.standard_normal((rows, cols)), order=order)


def _bits(out):
    """The bytes of each output of a routine that returns one or several."""
    return [np.asarray(a).tobytes() for a in (out if isinstance(out, tuple) else [out])]


def _same(name, *args, **kwargs):
    """The outputs of `name` from `_lapack`, checked to have the bits of
    scipy.linalg's on copies of the same arguments (f2py may overwrite)."""
    reference = getattr(scipy.linalg.blas if name == "dsyr2k" else scipy.linalg.lapack, name)
    outputs = [routine(*(a.copy(order="K") if isinstance(a, np.ndarray) else a for a in args),
                       **kwargs)
               for routine in (getattr(_lapack, name), reference)]
    assert _bits(outputs[0]) == _bits(outputs[1])
    return outputs[0]


@given(sizes, orders, seeds)
def test_potrf_and_trtrs_match_scipy_bitwise(n, order, seed):
    rng = np.random.default_rng(seed)
    M = _matrix(n, n, order, rng)
    A = np.asarray(M @ M.T + n * np.eye(n), order=order)
    c, info = _same("dpotrf", A, lower=1, clean=0)
    assert info == 0
    for b in (rng.standard_normal(n), _matrix(n, 3, order, rng)):
        for trans in (0, 1):
            _same("dtrtrs", c, b, lower=1, trans=trans)


@given(sizes, st.integers(1, 4), orders, seeds)
def test_syr2k_matches_scipy_bitwise(n, k, order, seed):
    rng = np.random.default_rng(seed)
    X, Y, C = _matrix(k, n, order, rng), _matrix(k, n, order, rng), _matrix(n, n, order, rng)
    _same("dsyr2k", 0.5, X, Y, beta=1.0, c=C, trans=1, lower=1)


@given(sizes, sizes, st.integers(0, 40), orders, seeds)
def test_kernel_split_is_an_orthonormal_split_of_b(m, n, rank, order, seed):
    """Tall, wide and one-row B, of full rank, of rank at most `rank`, and
    zero: the kernel and row bases together are an orthonormal basis of
    R^n, the rank is numpy's `matrix_rank` and the singular values are
    scipy's to rounding.  B maps the kernel to at most its SVD's backward
    error plus the dropped singular values, each a multiple of
    max(m, n) eps ||B||_2, which holds for any LAPACK build."""
    rng = np.random.default_rng(seed)
    rank = min(rank, m, n)
    B = np.asarray(_matrix(m, rank, "C", rng) @ _matrix(rank, n, "C", rng), order=order)
    for case in (B, _matrix(m, n, order, rng), _matrix(1, n, order, rng),
                 np.zeros((m, n), order=order)):
        kernel, rows, s = _kernel_split(case)
        basis = np.hstack([kernel, rows])
        bound = 4.0 * max(case.shape) * EPS
        assert basis.shape == (n, n)
        assert np.abs(basis.T @ basis - np.eye(n)).max() <= bound
        reference = scipy.linalg.svd(case, compute_uv=False)
        top = reference[0]
        assert np.linalg.norm(case @ kernel, 2) <= bound * top
        assert s.size == np.linalg.matrix_rank(case)
        assert np.abs(s - reference[:s.size]).max(initial=0.0) <= bound * top


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_split_rejects_a_non_finite_matrix(bad):
    B = np.ones((2, 3))
    B[1, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        _kernel_split(B)
