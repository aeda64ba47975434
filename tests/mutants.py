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
    Mutant("halved-symmetrization", "socalm/model.py",
           "0.5 * P + 0.5 * P.T", "0.5 * (P + P.T)",
           ("tests/test_model.py::test_quadratic_problem_symmetrizes_a_huge_p_without_overflow",)),
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
