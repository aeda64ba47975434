"""Seeded task pools of the three benchmark workloads and their
correctness gates.

A pool is a fixed list of tasks built from the workload seed; the worker
runs it in passes, one task after another (a closed loop with one
client).  Every task is called through a module attribute of the
package (`socalm.alm.solve`, `socalm.cli.main`, `socalm.model.*`), so the
traced run sees it; the gates use functions bound here at import time and
are never traced.

Outcome of a task:
  ok     -- the gate passed;
  failed -- the gate did not pass (counted in `failed`);
  wrong  -- the program claimed a success that the gate refutes, or an
            output was not reproducible (makes the run incorrect).
A solve that honestly stops with MaxIterations or InnerFailure, or that
converges (its residual verified) far from the planted pair, and a check
that exits 1 where theory expects 0, fail without being wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import socalm.alm
import socalm.cli
import socalm.model
from socalm import AlmConfig, AlmStatus, ConeRegion, Proportional
from socalm.diagnostics import dist_to_multiplier_set
from socalm.lagrangian import residual

WORKLOADS = ("solve-small", "solve-large", "check")

SOLVE_CONFIG = AlmConfig(rho0=10.0, eps_rule=Proportional(0.1), outer_tol=1e-9)
# ||x - xbar|| + dist(lam, Lambda) allowed for a converged solve.  The
# worst converged distance seen over 1,200 small planted instances was
# 1.5e-4 (ill-conditioned vertex instances).
DIST_TOL = 1e-3
REGIONS = (ConeRegion.BOUNDARY_Q_NONZERO, ConeRegion.ZERO, ConeRegion.INTERIOR_Q)

# Tasks per kind in one pass (instances per size and command group in
# `check`); sized so that a pass takes 1.2-5 s and the seed-to-seed change
# of the mix stays small.  A quick pool (the self-test) has one of each.
PER_KIND = {"solve-small": 40, "solve-large": 5, "check": 9}


@dataclass
class Outcome:
    ok: bool
    wrong: bool = False
    detail: str = ""
    outer: int = 0          # ALM outer iterations run by the task
    newton: int = 0         # Newton steps, sum(trace.inner_iters)
    solving: bool = False   # whether it counts toward the iteration means
    report_bytes: int = 0   # size of the report a CLI task wrote
    fingerprint: object = None  # output compared across passes


@dataclass
class SolveTask:
    kind: str
    problem: object
    x0: np.ndarray
    lam0: np.ndarray

    def run(self):
        return socalm.alm.solve(self.problem, self.x0, self.lam0, SOLVE_CONFIG)

    def gate(self, out) -> Outcome:
        if isinstance(out, Exception):
            return Outcome(False, True, f"raised {out!r}")
        point, trace = out
        outer, newton = len(trace) - 1, sum(trace.inner_iters)
        fp = (trace.status, point.x.tobytes(), point.lam.tobytes())
        done = Outcome(True, outer=outer, newton=newton, solving=True, fingerprint=fp)
        if trace.status is not AlmStatus.CONVERGED:
            done.ok, done.detail = False, trace.status.value
            return done
        sigma = residual(self.problem, point.x, point.lam)
        dist = (float(np.linalg.norm(point.x - self.problem.known_solution.x))
                + dist_to_multiplier_set(self.problem, point.lam))
        if sigma > SOLVE_CONFIG.outer_tol or dist > DIST_TOL:
            # `Converged` claims the residual only, so only a residual above
            # outer_tol makes it wrong; on an ill-conditioned instance a true
            # claim can still leave the pair far from the planted one
            done.ok, done.wrong = False, sigma > SOLVE_CONFIG.outer_tol
            done.detail = f"Converged but residual {sigma:.3e}, distance {dist:.3e}"
        return done


class AlmCounter:
    """Sums the iteration counts of every `socalm.alm.solve` made inside a
    CLI call (the `rate` command), since the CLI does not return traces."""

    def __init__(self):
        self.outer = self.newton = self.solves = 0
        self.solve = socalm.alm.solve

    @classmethod
    def install(cls) -> "AlmCounter":
        counter = cls()
        socalm.alm.solve = counter
        return counter

    def __call__(self, *args, **kwargs):
        point, trace = self.solve(*args, **kwargs)
        self.outer += len(trace) - 1
        self.newton += sum(trace.inner_iters)
        self.solves += 1
        return point, trace

    def take(self):
        counts = (self.outer, self.newton, self.solves)
        self.outer = self.newton = self.solves = 0
        return counts


@dataclass
class CheckTask:
    kind: str
    argv: list
    report: str
    expected_code: int
    expected_method: str = ""
    counter: AlmCounter = None
    # `rate` on (3,2) vertex instances needs 12-91 outer iterations (q near
    # 0.99 at a fixed penalty) and fails 4 times in 10, so a single one moves
    # the mean by more than its bound; solve-small measures those instances
    count_iterations: bool = True
    sink: io.StringIO = field(default_factory=io.StringIO)

    def run(self):
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            code = socalm.cli.main(self.argv)
        return code, self.counter.take()

    def gate(self, out) -> Outcome:
        if isinstance(out, Exception):
            self.counter.take()
            return Outcome(False, True, f"raised {out!r}")
        code, (outer, newton, solves) = out
        try:
            with open(self.report, "rb") as fh:
                data = fh.read()
            os.unlink(self.report)
        except FileNotFoundError:
            data = b""
        done = Outcome(True, outer=outer, newton=newton,
                       solving=solves > 0 and self.count_iterations,
                       report_bytes=len(data), fingerprint=(code, data))
        if code != self.expected_code:
            # exit 1 where 0 was expected is a failure to certify or to
            # converge; 0 where 1 was expected asserts what theory denies
            done.ok, done.wrong = False, not (code == 1 and self.expected_code == 0)
            done.detail = f"exit {code}, expected {self.expected_code}"
        elif self.expected_method:
            method = json.loads(data or b"{}").get("method")
            if method != self.expected_method:
                done.ok, done.wrong = False, True
                done.detail = f"method {method}, expected {self.expected_method}"
        return done


def _vec(v) -> str:
    return ",".join(repr(float(a)) for a in v)


def _solve_tasks(kinds, per_kind, rng):
    tasks = []
    for kind in kinds:
        for _ in range(per_kind):
            s = int(rng.integers(2**31))
            if kind == "projection":
                p = socalm.model.builtin("projection", a=2.0 * rng.standard_normal(3))
                x0 = np.zeros(p.n)
            elif kind == "example_3_2":
                p = socalm.model.builtin("example_3_2")
                x0 = rng.standard_normal(p.n)
            else:
                n, m, region = kind
                p = socalm.model.generate_planted(n, m, region, s)
                x0 = np.zeros(n)
            name = kind if isinstance(kind, str) else f"planted({kind[0]},{kind[1]},{kind[2].value})"
            tasks.append(SolveTask(name, p, x0, np.zeros(p.m + 1)))
    return tasks


def _wholecone_file(path, n, m, rng):
    """Planted quadratic with Phi(xbar) = 0 and lambar = 0: the critical
    cone is all of Q, so `check sosc` takes the sampled SampledPenalty path.
    P is positive definite, so the condition holds (expected exit 0)."""
    R = rng.standard_normal((n, n))
    P = R.T @ R + np.eye(n)
    A = rng.standard_normal((m + 1, n))
    x_bar = rng.standard_normal(n)
    spec = {"P": P.tolist(), "q": (-P @ x_bar).tolist(), "c": 0.0,
            "A": A.tolist(), "b": (-A @ x_bar).tolist(), "name": "wholecone"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"quadratic": spec}, fh)
    return x_bar


def _check_tasks(per_size, rng, tmpdir, counter):
    specs = []  # (kind, argv without --report, expected code, expected method)
    checks = [["check", c] for c in ("sosc", "dualqual", "growth", "errorbound")]
    rate = ["rate", "--rho-list", "10,100"]
    for n, m in ((3, 2), (20, 10), (100, 50)):
        # Every instance of the first group gets all five commands; further
        # instances get only some of them.  The weights put the latency
        # median inside the sosc/dualqual cluster and the 90th percentile
        # inside the errorbound cluster, whose costs do not depend on the
        # instance, instead of on a gap between clusters; and at n >= 20
        # they average the rate iteration counts over enough solves.
        groups = [(checks + [rate], 1), (checks[:2], 2), (checks[3:], 1)]
        if n >= 20:
            groups.append(([rate], 2))
        for commands, weight in groups:
            offset = int(rng.integers(3))
            for i in range(weight * per_size):
                s = int(rng.integers(2**31))
                region = REGIONS[(i + offset) % 3].value
                problem = ["--problem", "builtin:scaled_quadratic", "--seed", str(s),
                           "--n", str(n), "--m", str(m), "--region", region]
                for cmd in commands:
                    name = cmd[1] if cmd[0] == "check" else "rate"
                    specs.append((f"{name}({n},{m})", cmd + problem, 0, ""))
    s = int(rng.integers(2**31))
    problem = ["--problem", "builtin:example_3_2", "--seed", str(s)]
    expected = {"sosc": 0, "dualqual": 1, "growth": 0, "errorbound": 1}
    for cmd in checks:
        specs.append((f"{cmd[1]}(example_3_2)", cmd + problem, expected[cmd[1]], ""))
    ts = _vec(rng.uniform(0.05, 0.95, size=3))
    specs.append(("example32", ["check", "example32", "--t", ts] + problem, 0, ""))
    # two whole-cone instances (about 1 s each, about half of a pass)
    for k in range(2):
        path = os.path.join(tmpdir, f"wholecone-{k}.json")
        x_bar = _wholecone_file(path, 20, 10, rng)
        specs.append(("sosc(wholecone)",
                      ["check", "sosc", "--problem", path, f"--x={_vec(x_bar)}",
                       f"--lambda={_vec(np.zeros(11))}",
                       "--seed", str(int(rng.integers(2**31)))],
                      0, "SampledPenalty"))
    tasks = []
    for i, (kind, argv, code, method) in enumerate(specs):
        report = os.path.join(tmpdir, f"report-{i}.json")
        tasks.append(CheckTask(kind, argv + ["--report", report], report, code, method,
                               counter, kind != "rate(3,2)"))
    return tasks


def build(workload: str, seed: int, tmpdir: str, quick: bool = False,
          counter: AlmCounter = None) -> list:
    """The task pool of one pass, in its seeded order.  `check` tasks
    report their ALM iterations through `counter`, which the caller has
    installed as `socalm.alm.solve`."""
    rng = np.random.default_rng(seed)
    per_kind = 1 if quick else PER_KIND[workload]
    if workload == "solve-small":
        kinds = [(n, m, r) for n, m in ((3, 2), (20, 10)) for r in REGIONS]
        tasks = _solve_tasks(kinds + ["projection", "example_3_2"], per_kind, rng)
    elif workload == "solve-large":
        # vertex instances of both sizes twice over: three kinds cost less
        # than (200,100) Zero and three more, so the latency median falls
        # in the middle of its cluster rather than at an edge, and the
        # 90th percentile inside the (400,200) Zero cluster
        kinds = [(n, m, r) for n, m in ((200, 100), (400, 200)) for r in REGIONS]
        kinds += [(200, 100, ConeRegion.ZERO), (400, 200, ConeRegion.ZERO)]
        tasks = _solve_tasks(kinds, per_kind, rng)
    elif workload == "check":
        if counter is None:
            raise ValueError("the check workload needs an installed AlmCounter")
        tasks = _check_tasks(per_kind, rng, tmpdir, counter)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [tasks[i] for i in rng.permutation(len(tasks))]
