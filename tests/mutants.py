"""Mutation runner: each mutant changes one rule of `src/socalm`, and
names the tests that must fail where that rule is broken.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the runner copies `src/` into a temporary directory,
replaces the mutant's old text, which must occur exactly once in its
file, with the new text, and runs the mutant's tests on that copy with
`pytest -x`, at one BLAS thread.  The mutant is killed where a test
fails and survives where all pass.  The exit code is 1 where a mutant
survives or its tests cannot run.

pytest does not collect this file (its name does not start with
`test_`); `tests/test_mutants.py` checks in tier-1 that every old text
occurs exactly once in `src/`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str      # path under src/
    old: str
    new: str
    tests: tuple   # pytest node ids, from the repository root


# the body of `cone._sym`, which two mutants replace
_SYM_BODY = ("    h = 0.5 * a\n"
             "    h += h.T   # numpy copies h.T first, as it overlaps h\n"
             "    return h")

MUTANTS = (
    Mutant("first-step-gate", "socalm/alm.py",
           "if (first and n >= REDUCED_MIN_N", "if (n >= REDUCED_MIN_N",
           ("tests/test_alm.py::test_read_only_results_that_change_build_one_form_at_the_first_step"
            "[40-BoundaryQNonzero-0]",)),
    Mutant("size-gate", "socalm/alm.py",
           "n >= REDUCED_MIN_N and m1 < n", "n > REDUCED_MIN_N and m1 < n",
           ("tests/test_alm.py::test_the_size_gate_admits_n_equal_to_it",)),
    Mutant("kept-factor-key", "socalm/alm.py",
           "key = None if u is not None else ev.rho * alpha",
           "key = None if u is not None else alpha",
           ("tests/test_alm.py::test_planted_totals_pin_the_penalty_rule",)),
    Mutant("fast", "socalm/alm.py", "FAST = 0.1 ", "FAST = 0.11",
           ("tests/test_alm.py::test_planted_totals_pin_the_penalty_rule",)),
    Mutant("kkt-data-error-state", "socalm/variational.py",
           '@np.errstate(over="ignore", invalid="ignore")  # a non-finite Hessian is detected\n'
           "def _kkt_data", "def _kkt_data",
           ("tests/test_variational.py::"
            "test_an_overflowing_lagrangian_hessian_forms_without_a_warning",)),
    Mutant("halved-symmetrization", "socalm/cone.py",
           _SYM_BODY, "    return 0.5 * (a + a.T)",
           ("tests/test_model.py::test_quadratic_problem_symmetrizes_a_huge_p_without_overflow",)),
    Mutant("symmetrization-sum-first", "socalm/cone.py",
           _SYM_BODY, "    return (a + a.T) * 0.5",
           ("tests/test_lagrangian.py::"
            "test_curvature_symmetrizes_a_huge_writeable_hessian_without_overflow",)),
    Mutant("kernel-tol-scaled-norm", "socalm/variational.py",
           '_finite_norm(J.ravel(order="K"), "||JPhi||_F overflows")', "float(np.linalg.norm(J))",
           ("tests/test_cli.py::test_check_dualqual_verdict_does_not_depend_on_the_scale",)),
    Mutant("f-grad-rows", "socalm/model.py",
           "f_grad.rows = lambda xs: np.matmul(P, xs[:, :, None])[:, :, 0] + q",
           "f_grad.rows = lambda xs: xs @ P.T + q",
           ("tests/test_model.py::test_quadratic_row_forms_equal_the_oracles_bit_for_bit",)),
    Mutant("ray-identity-piece", "socalm/variational.py", "[eye - P, eye]", "[eye - P]",
           ("tests/test_diagnostics.py::"
            "test_solvability_modulus_is_attained_by_the_inner_solve",)),
    Mutant("rho-max", "socalm/alm.py", "rho_max: float = 1e5", "rho_max: float = 1e6",
           ("tests/test_alm.py::test_solve_stops_where_an_outer_iteration_changes_nothing",)),
    Mutant("slow", "socalm/alm.py", "SLOW = 0.25 ", "SLOW = 0.3  ",
           ("tests/test_alm.py::test_fixed_penalty_totals_pin_the_extrapolation_rule",)),
    Mutant("armijo-noise", "socalm/alm.py", "noise = 8.0 * EPS", "noise = 16.0 * EPS",
           ("tests/test_alm.py::test_the_line_search_allows_eight_eps_of_value_noise",)),
    Mutant("held-memory-guard", "socalm/model.py",
           "old.flags.writeable or np.may_share_memory(new, old)", "old.flags.writeable",
           ("tests/test_held.py::test_newton_state_survives_exactly_a_repeated_result",)),
    Mutant("checked-rnorm-overflow", "socalm/cone.py",
           "        if rnorm < math.inf:\n            return rnorm",
           "        return rnorm",
           ("tests/test_cone.py::test_checked_rnorm_verdict_is_that_of_isfinite",)),
)


def _pytest(src: Path, tests) -> int:
    """Exit code of pytest on the tests, importing the package from src."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    # -o pythonpath replaces pyproject's `src`, which would shadow the copy
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error' (the tests could not run)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "error"
        path.write_text(text.replace(mutant.old, mutant.new))
        code = _pytest(src, mutant.tests)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(argv) -> int:
    names = set(argv)
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
