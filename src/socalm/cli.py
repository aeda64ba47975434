"""Command-line front end: solve problems, run certificates and
diagnostics, write traces and reports.

Exit codes: 0 converged / check passed, 1 algorithmic failure or a
failing check, 2 usage or parse error.  Vectors on the command line are
comma-separated decimals with no empty entry; identical arguments and
seeds produce bit-identical CSV and JSON outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import alm, diagnostics
from .cone import _nonnegative
from .model import SocpProblem, builtin, load_problem
from .variational import (check_dual_qualification, check_sosc, critical_pair,
                          multiplier_calmness)


def _parse_vector(text: str) -> np.ndarray:
    """The comma-separated decimals of text; an empty entry, and so an
    empty text, is a usage error."""
    parts = text.split(",")
    if "" in parts:
        raise ValueError(f"could not parse vector {text!r}: empty entry")
    try:
        return np.array([float(part) for part in parts])
    except ValueError as exc:
        raise ValueError(f"could not parse vector {text!r}: {exc}") from exc


def _parse_float_list(text: str):
    return [float(v) for v in _parse_vector(text)]


def _load_problem(args) -> SocpProblem:
    """The problem of --problem with the parameters --a, --n, --m, --region
    and --seed, none of which a problem file takes.  --seed is checked
    here, once for every command.  `check` and `rate` also seed their
    sampling with --seed, so they hand it only to builtin:scaled_quadratic,
    the one problem that takes a seed; `solve` samples nothing and hands it
    to every problem."""
    _nonnegative("seed", args.seed or 0)
    spec = args.problem
    params = {key: getattr(args, key) for key in ("a", "n", "m", "seed", "region")
              if getattr(args, key) is not None}
    if args.command != "solve" and spec != "builtin:scaled_quadratic":
        params.pop("seed", None)
    if spec.startswith("builtin:"):
        if "a" in params:
            params["a"] = _parse_vector(params["a"])
        try:
            return builtin(spec[len("builtin:"):], **params)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from exc
    if params:
        raise ValueError(f"a problem file takes no {', '.join('--' + key for key in params)}")
    try:
        return load_problem(spec)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load problem file {spec!r}: {exc}") from exc


def _point(args, problem: SocpProblem):
    """Reference point for the check commands: explicit flags (both of
    them) win over the problem's known solution."""
    if (args.x is None) != (args.lam is None):
        raise ValueError("--x and --lambda must be given together")
    if args.x is not None:
        return _parse_vector(args.x), _parse_vector(args.lam)
    if problem.known_solution is None:
        raise ValueError("problem has no known solution; pass --x and --lambda")
    return problem.known_solution.x, problem.known_solution.lam


def _start(args, x0, lam0):
    """Start point of a solve: --x0 and --lambda0 where given, else x0 and
    lam0; `alm.solve` checks its shape."""
    if args.x0 is not None:
        x0 = _parse_vector(args.x0)
    if args.lambda0 is not None:
        lam0 = _parse_vector(args.lambda0)
    return x0, lam0


def _finite_json(value):
    """value with each non-finite float as None (null): RFC 8259 has no inf or NaN."""
    if isinstance(value, dict):
        return {key: _finite_json(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite_json(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path, payload) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_finite_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def _write_trace_csv(path, trace: alm.AlmTrace, problem: SocpProblem) -> None:
    if not path:
        return
    header = ["k", "sigma", "eps_k", "rho_k", "inner_iters", "grad_norm", "value"]
    columns = [range(len(trace)), trace.sigmas, trace.epss, trace.rhos, trace.inner_iters,
               trace.grad_norms, trace.values]
    if problem.known_solution is not None:
        header += ["dist_x", "dist_lambda"]
        columns += zip(*(diagnostics.dist_to_known_pair(problem, x, lam)
                         for x, lam in zip(trace.xs, trace.lams)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _alm_config(args, rho0: float, rho_growth: float, rho_max: float,
                **fields) -> alm.AlmConfig:
    return alm.AlmConfig(rho0=rho0, rho_growth=rho_growth, rho_max=rho_max,
                         eps_rule=alm.Proportional(args.eps_eta), outer_tol=args.tol,
                         max_outer=args.max_outer, **fields)


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    cfg = _alm_config(args, args.rho0, args.rho_growth, args.rho_max)
    x0, lam0 = _start(args, np.zeros(problem.n), np.zeros(problem.m + 1))
    point, trace = alm.solve(problem, x0, lam0, cfg)
    _write_trace_csv(args.trace, trace, problem)
    _write_json(args.report, {
        "command": "solve",
        "problem": problem.name,
        "config": dataclasses.asdict(cfg),
        "status": trace.status.value,
        "iters": len(trace) - 1,
        "sigma": trace.sigmas[-1],
        "x": point.x.tolist(),
        "lambda": point.lam.tolist(),
    })
    print(f"status={trace.status.value} sigma={trace.sigmas[-1]:.6e} iters={len(trace) - 1}")
    if trace.message:
        print(f"failure: {trace.message}", file=sys.stderr)
    return 0 if trace.status is alm.AlmStatus.CONVERGED else 1


def cmd_check(args) -> int:
    """Run `check <name>`, a subcommand with only its own flags besides the
    problem flags and --report; --seed seeds what growth and errorbound sample."""
    problem = _load_problem(args)

    if args.check == "example32":
        # the table is Example 3.2's closed form: no other problem has one
        if args.problem != "builtin:example_3_2":
            raise ValueError(f"check example32 takes --problem builtin:example_3_2 only, "
                             f"not {args.problem!r}")
        ts = _parse_float_list(args.t)
        rows = []
        for t in ts:
            dist2, grad2, ratio = diagnostics.example32_ratio(t)
            rows.append({"t": t, "dist2": dist2, "grad2": grad2, "ratio": ratio})
        _write_json(args.report, {"command": "check example32", "rows": rows})
        for row in rows:
            print(f"t={row['t']:g} dist2={row['dist2']:.12g} "
                  f"grad2={row['grad2']:.12g} ratio={row['ratio']:.12g}")
        return 0

    # every other check: (report fields, summary line, exit code)
    if args.check == "errorbound":
        r = diagnostics.verify_error_bound(problem, args.radius, args.samples, args.seed or 0)
        fields = dataclasses.asdict(r)
        line = (f"errorbound kappa1_hat={r.kappa1_hat:.6e} "
                f"kappa2_hat={r.kappa2_hat:.6e} failed={r.failed}")
        code = 1 if r.failed else 0
    elif args.check == "growth":
        r = diagnostics.certify_growth(problem, _parse_float_list(args.rho_list),
                                       args.lambda_samples, args.seed or 0)
        fields = dataclasses.asdict(r)
        line = f"growth ell_hat={r.ell_hat:.6e} rho={r.rho_used:g} uniform={r.uniform}"
        code = 0 if r.ell_hat > 0 else 1
    elif args.check == "sosc":
        x, lam = _point(args, problem)
        r = check_sosc(problem, x, lam)
        fields = dataclasses.asdict(r)
        line = f"sosc holds={r.holds} modulus={r.modulus:.6e} method={r.method}"
        code = 0 if r.holds else 1
    else:  # dualqual
        x, lam = _point(args, problem)
        pair = critical_pair(problem, x, lam)
        holds, witness = check_dual_qualification(problem, x, lam, pair)
        calmness = multiplier_calmness(problem, x, lam, holds, pair)
        witness = None if witness is None else [float(v) for v in witness]
        fields = {"holds": holds, "witness": witness, "multiplier_calmness": calmness}
        line = (f"dualqual holds={holds} calmness={calmness}"
                + ("" if witness is None else f" witness={','.join(map(repr, witness))}"))
        code = 0 if holds else 1
    _write_json(args.report, {"command": f"check {args.check}", "problem": problem.name,
                              **fields})
    print(line)
    return code


def cmd_rate(args) -> int:
    if args.offset is not None and args.x0 is not None and args.lambda0 is not None:
        raise ValueError("--offset moves no start: --x0 and --lambda0 are both given")
    problem = _load_problem(args)
    rho_list = _parse_float_list(args.rho_list)
    # the plain ALM (memory 0), whose rate at a fixed rho the paper proves
    configs = [_alm_config(args, rho, 1.0, rho, memory=0) for rho in rho_list]
    sol = problem.known_solution
    if sol is None:
        raise ValueError("rate estimation needs a problem with a known solution")
    rng = np.random.default_rng(args.seed or 0)
    step = rng.standard_normal(problem.n + problem.m + 1)
    step *= (1e-2 if args.offset is None else args.offset) / np.linalg.norm(step)
    x0, lam0 = _start(args, sol.x + step[:problem.n], sol.lam + step[problem.n:])

    rows = []
    for rho, cfg in zip(rho_list, configs):
        _, trace = alm.solve(problem, x0, lam0, cfg)
        q_geomean = diagnostics.estimate_rate(trace, problem)[1] if len(trace) >= 2 else 0.0
        rows.append({"rho": rho, "status": trace.status.value,
                     "outer_iters": len(trace) - 1,
                     "sigma_final": trace.sigmas[-1], "q_geomean": q_geomean})
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    _write_json(args.report, {"command": "rate", "problem": problem.name, "rows": rows})
    for row in rows:
        print(f"rho={row['rho']:g} status={row['status']} "
              f"iters={row['outer_iters']} q_geomean={row['q_geomean']:.6e}")
    converged = alm.AlmStatus.CONVERGED.value
    return 0 if all(row["status"] == converged for row in rows) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes no abbreviated flag and raises each
    usage error as a ValueError, for `main` to report on one line."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _add_problem_args(parser) -> None:
    """The flags of every command: the problem, its parameters and the report."""
    parser.add_argument("--problem", required=True,
                        help="path to a JSON problem file or builtin:<name>")
    parser.add_argument("--a", help="cone point for builtin:projection (comma-separated)")
    parser.add_argument("--n", type=int, help="primal dimension for parametrized builtins")
    parser.add_argument("--m", type=int, help="cone parameter for parametrized builtins")
    parser.add_argument("--region", help="region for builtin:scaled_quadratic "
                                         "(InteriorQ, BoundaryQNonzero, Zero)")
    parser.add_argument("--seed", type=int, help="seed (problem generation and sampling)")
    parser.add_argument("--report", help="write the JSON report here")


def _add_solver_args(parser) -> None:
    """The problem flags and the solver flags of `solve` and `rate`; the
    defaults are those of `alm.AlmConfig`."""
    _add_problem_args(parser)
    parser.add_argument("--eps-eta", dest="eps_eta", type=float, default=alm.Proportional.eta,
                        help="inner tolerance as a fraction of the residual (0: exact "
                             "inner solves, to the gradient's rounding floor)")
    parser.add_argument("--tol", type=float, default=alm.AlmConfig.outer_tol,
                        help="outer residual tolerance")
    parser.add_argument("--max-outer", dest="max_outer", type=int,
                        default=alm.AlmConfig.max_outer)
    parser.add_argument("--x0", help="starting primal point (default: zeros for solve, "
                                     "--offset from the known solution for rate)")
    parser.add_argument("--lambda0", help="starting multiplier (default: as for --x0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call in it; each parse returns a fresh namespace.  Each check is
    a subcommand of `check` that takes only the flags it reads."""
    parser = _Parser(
        prog="socalm",
        description="Augmented Lagrangian method and second-order diagnostics "
                    "for second-order cone programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="run the ALM on a problem")
    _add_solver_args(solve_p)
    solve_p.add_argument("--rho0", type=float, default=alm.AlmConfig.rho0)
    solve_p.add_argument("--rho-growth", dest="rho_growth", type=float,
                         default=alm.AlmConfig.rho_growth)
    solve_p.add_argument("--rho-max", dest="rho_max", type=float,
                         default=alm.AlmConfig.rho_max)
    solve_p.add_argument("--trace", help="write the per-iteration CSV here")
    solve_p.set_defaults(func=cmd_solve)

    check_p = sub.add_parser("check", help="run a certificate or diagnostic")
    check_p.set_defaults(func=cmd_check)
    checks = check_p.add_subparsers(dest="check", required=True)
    check = {name: checks.add_parser(name) for name in
             ("sosc", "dualqual", "growth", "errorbound", "example32")}
    for check_q in check.values():
        _add_problem_args(check_q)
    for name in ("sosc", "dualqual"):
        check[name].add_argument("--x", help="primal point (defaults to the known solution)")
        check[name].add_argument("--lambda", dest="lam", help="multiplier at the point")
    check["growth"].add_argument("--rho-list", dest="rho_list", default="1,10,100",
                                 help="penalties, in the order they are tried")
    check["growth"].add_argument("--lambda-samples", dest="lambda_samples", type=int,
                                 default=5)
    check["errorbound"].add_argument("--radius", type=float, default=1e-2)
    check["errorbound"].add_argument("--samples", type=int, default=200)
    check["example32"].add_argument("--t", default="0.8", help="comma-separated t in (0, 1)")

    rate_p = sub.add_parser("rate", help="estimate linear rates for several penalties")
    _add_solver_args(rate_p)
    rate_p.add_argument("--rho-list", dest="rho_list", required=True)
    rate_p.add_argument("--offset", type=float, help="distance of the seeded start from "
                                                      "the known solution (default 0.01)")
    rate_p.add_argument("--out", help="write the per-penalty CSV table here")
    rate_p.set_defaults(func=cmd_rate)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  This is the one place
    that maps an exception to an exit code: a ValueError (NonFiniteError
    and every argparse usage error included), an OSError (an unwritable
    output) or a MemoryError (a sample too large to allocate) is a usage
    error, 2, reported on one `error:` line; --help prints the usage and returns 0."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # argparse exits only after printing --help
            return 0
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
