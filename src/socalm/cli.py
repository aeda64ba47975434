"""Command-line front end: solve problems, run certificates and
diagnostics, write traces and reports.

Exit codes: 0 converged / check passed, 1 algorithmic failure or a
failing check, 2 usage or parse error.  Vectors on the command line are
comma-separated decimals; identical arguments and seeds produce
bit-identical CSV and JSON outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys

import numpy as np

from . import alm, diagnostics
from .lagrangian import NonFiniteError, residual
from .model import SocpProblem, builtin, load_problem
from .variational import check_dual_qualification, check_sosc, multiplier_calmness


class CliError(Exception):
    """Usage-level error; maps to exit code 2."""


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",") if part != ""])
    except ValueError as exc:
        raise CliError(f"could not parse vector {text!r}: {exc}") from exc


def _parse_float_list(text: str):
    return [float(v) for v in _parse_vector(text)]


def _load_problem(args) -> SocpProblem:
    spec = args.problem
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        params = {}
        if getattr(args, "a", None) is not None:
            params["a"] = _parse_vector(args.a)
        for key in ("n", "m", "seed", "region"):
            value = getattr(args, key, None)
            if value is not None and (key != "seed" or name == "scaled_quadratic"):
                params[key] = value
        try:
            return builtin(name, **params)
        except (KeyError, ValueError) as exc:
            raise CliError(str(exc)) from exc
    try:
        return load_problem(spec)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load problem file {spec!r}: {exc}") from exc


def _point(args, problem: SocpProblem):
    """Reference point for the check commands: explicit flags (both of
    them) win over the problem's known solution."""
    if (args.x is None) != (args.lam is None):
        raise CliError("--x and --lambda must be given together")
    if args.x is not None:
        return _parse_vector(args.x), _parse_vector(args.lam)
    if problem.known_solution is None:
        raise CliError("problem has no known solution; pass --x and --lambda")
    return problem.known_solution.x, problem.known_solution.lam


def _checked(fn, *args, **kwargs):
    """Call a check function; a ValueError from its input validation
    (wrong dimensions, not a KKT pair, bad sample counts) is a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _solve(problem, x0, lam0, cfg):
    """alm.solve with a wrong-sized or non-finite start reported as a
    usage error."""
    if x0.shape != (problem.n,) or lam0.shape != (problem.m + 1,):
        raise CliError(f"start point dimensions do not match problem "
                       f"(n={problem.n}, m+1={problem.m + 1})")
    try:
        return alm.solve(problem, x0, lam0, cfg)
    except NonFiniteError as exc:
        raise CliError(str(exc)) from exc


def _write_json(path, payload) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_trace_csv(path, trace: alm.AlmTrace, problem: SocpProblem) -> None:
    if not path:
        return
    have_solution = problem.known_solution is not None
    header = ["k", "sigma", "eps_k", "rho_k", "inner_iters", "grad_norm", "value"]
    if have_solution:
        header += ["dist_x", "dist_lambda"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(trace)):
            row = [k, repr(trace.sigmas[k]), repr(trace.epss[k]), repr(trace.rhos[k]),
                   trace.inner_iters[k], repr(trace.grad_norms[k]), repr(trace.values[k])]
            if have_solution:
                dx = float(np.linalg.norm(trace.xs[k] - problem.known_solution.x))
                dl = diagnostics.dist_to_multiplier_set(problem, trace.lams[k])
                row += [repr(dx), repr(dl)]
            writer.writerow(row)


def _alm_config(args, rho0: float, rho_growth: float, rho_max: float) -> alm.AlmConfig:
    """The solver settings of a command; an invalid one is a usage error."""
    try:
        rule = alm.Exact() if getattr(args, "exact", False) else alm.Proportional(args.eps_eta)
        return alm.AlmConfig(rho0=rho0, rho_growth=rho_growth, rho_max=rho_max, eps_rule=rule,
                             outer_tol=args.tol, max_outer=args.max_outer)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    cfg = _alm_config(args, args.rho0, args.rho_growth, args.rho_max)
    x0 = _parse_vector(args.x0) if args.x0 else np.zeros(problem.n)
    lam0 = _parse_vector(args.lambda0) if args.lambda0 else np.zeros(problem.m + 1)
    point, trace = _solve(problem, x0, lam0, cfg)
    _write_trace_csv(args.trace, trace, problem)
    config = dataclasses.asdict(cfg)
    config["eps_rule"]["kind"] = type(cfg.eps_rule).__name__
    _write_json(args.report, {
        "command": "solve",
        "problem": problem.name,
        "config": config,
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
    problem = _load_problem(args)

    if args.check == "example32":
        ts = _parse_float_list(args.t)
        if not ts:
            raise CliError("--t needs at least one value")
        rows = []
        for t in ts:
            if not 0.0 < t < 1.0:
                raise CliError(f"--t values must lie in (0, 1), got {t}")
            dist2, grad2, ratio = diagnostics.example32_ratio(t)
            rows.append({"t": t, "dist2": dist2, "grad2": grad2, "ratio": ratio})
        _write_json(args.report, {"command": "check example32", "rows": rows})
        for row in rows:
            print(f"t={row['t']:g} dist2={row['dist2']:.12g} "
                  f"grad2={row['grad2']:.12g} ratio={row['ratio']:.12g}")
        return 0

    if args.check == "errorbound":
        report = _checked(diagnostics.verify_error_bound, problem, args.radius,
                          args.samples, args.seed or 0)
        _write_json(args.report, {"command": "check errorbound", "problem": problem.name,
                                  **dataclasses.asdict(report)})
        print(f"errorbound kappa1_hat={report.kappa1_hat:.6e} "
              f"kappa2_hat={report.kappa2_hat:.6e} failed={report.failed}")
        return 1 if report.failed else 0

    if args.check == "growth":
        rho_list = _parse_float_list(args.rho_list)
        if not rho_list:
            raise CliError("--rho-list needs at least one value")
        report = _checked(diagnostics.certify_growth, problem, rho_list, args.x_samples,
                          args.lambda_samples, args.seed or 0)
        _write_json(args.report, {"command": "check growth", "problem": problem.name,
                                  **dataclasses.asdict(report)})
        print(f"growth ell_hat={report.ell_hat:.6e} gamma_hat={report.gamma_hat:g} "
              f"rho={report.rho_used:g} uniform={report.uniform}")
        return 0 if report.ell_hat > 0 else 1

    x, lam = _point(args, problem)
    if args.check == "sosc":
        report = _checked(check_sosc, problem, x, lam, seed=args.seed or 0)
        _write_json(args.report, {"command": "check sosc", "problem": problem.name,
                                  **dataclasses.asdict(report)})
        print(f"sosc holds={report.holds} modulus={report.modulus:.6e} "
              f"method={report.method}")
        return 0 if report.holds else 1

    if args.check == "dualqual":
        holds, witness = _checked(check_dual_qualification, problem, x, lam)
        calmness = _checked(multiplier_calmness, problem, x, lam, holds)
        payload = {
            "command": "check dualqual",
            "problem": problem.name,
            "holds": holds,
            "witness": None if witness is None else [float(v) for v in witness],
            "multiplier_calmness": calmness,
        }
        _write_json(args.report, payload)
        print(f"dualqual holds={holds} calmness={calmness}"
              + ("" if witness is None else
                 f" witness={','.join(repr(float(v)) for v in witness)}"))
        return 0 if holds else 1

    raise CliError(f"unknown check {args.check!r}")


def cmd_rate(args) -> int:
    problem = _load_problem(args)
    rho_list = _parse_float_list(args.rho_list)
    if not rho_list:
        raise CliError("--rho-list needs at least one value")
    configs = [_alm_config(args, rho, 1.0, rho) for rho in rho_list]
    if problem.known_solution is None:
        raise CliError("rate estimation needs a problem with a known solution")
    sol = problem.known_solution
    rng = np.random.default_rng(args.seed or 0)
    step = rng.standard_normal(problem.n + problem.m + 1)
    step *= args.offset / np.linalg.norm(step)
    x0 = _parse_vector(args.x0) if args.x0 else sol.x + step[:problem.n]
    lam0 = _parse_vector(args.lambda0) if args.lambda0 else sol.lam + step[problem.n:]

    rows = []
    any_failure = False
    for rho, cfg in zip(rho_list, configs):
        point, trace = _solve(problem, x0, lam0, cfg)
        converged = trace.status is alm.AlmStatus.CONVERGED
        any_failure = any_failure or not converged
        if len(trace) >= 3:
            _, q_geomean = diagnostics.estimate_rate(trace, problem)
        else:
            q_geomean = 0.0
        rows.append({"rho": rho, "status": trace.status.value,
                     "outer_iters": len(trace) - 1,
                     "sigma_final": trace.sigmas[-1], "q_geomean": q_geomean})
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rho", "status", "outer_iters", "sigma_final", "q_geomean"])
            for row in rows:
                writer.writerow([repr(row["rho"]), row["status"], row["outer_iters"],
                                 repr(row["sigma_final"]), repr(row["q_geomean"])])
    _write_json(args.report, {"command": "rate", "problem": problem.name, "rows": rows})
    for row in rows:
        print(f"rho={row['rho']:g} status={row['status']} "
              f"iters={row['outer_iters']} q_geomean={row['q_geomean']:.6e}")
    return 1 if any_failure else 0


def _add_problem_args(parser) -> None:
    parser.add_argument("--problem", required=True,
                        help="path to a JSON problem file or builtin:<name>")
    parser.add_argument("--a", help="cone point for builtin:projection (comma-separated)")
    parser.add_argument("--n", type=int, help="primal dimension for parametrized builtins")
    parser.add_argument("--m", type=int, help="cone parameter for parametrized builtins")
    parser.add_argument("--region", help="region for builtin:scaled_quadratic "
                                         "(InteriorQ, BoundaryQNonzero, Zero)")
    parser.add_argument("--seed", type=int, help="seed (problem generation and sampling)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call in it; each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="socalm",
        description="Augmented Lagrangian method and second-order diagnostics "
                    "for second-order cone programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="run the ALM on a problem")
    _add_problem_args(solve_p)
    solve_p.add_argument("--rho0", type=float, default=10.0)
    solve_p.add_argument("--rho-growth", dest="rho_growth", type=float, default=10.0)
    solve_p.add_argument("--rho-max", dest="rho_max", type=float, default=1e8)
    solve_p.add_argument("--eps-eta", dest="eps_eta", type=float, default=0.1,
                         help="inner tolerance as a fraction of the residual")
    solve_p.add_argument("--exact", action="store_true",
                         help="solve inner problems to the machine floor")
    solve_p.add_argument("--tol", type=float, default=1e-9, help="outer residual tolerance")
    solve_p.add_argument("--max-outer", dest="max_outer", type=int, default=100)
    solve_p.add_argument("--x0", help="starting primal point (default zeros)")
    solve_p.add_argument("--lambda0", help="starting multiplier (default zeros)")
    solve_p.add_argument("--trace", help="write the per-iteration CSV here")
    solve_p.add_argument("--report", help="write the JSON run report here")
    solve_p.set_defaults(func=cmd_solve)

    check_p = sub.add_parser("check", help="run a certificate or diagnostic")
    check_p.add_argument("check", choices=["sosc", "dualqual", "growth",
                                           "errorbound", "example32"])
    _add_problem_args(check_p)
    check_p.add_argument("--x", help="primal point (defaults to the known solution)")
    check_p.add_argument("--lambda", dest="lam", help="multiplier at the point")
    check_p.add_argument("--rho-list", dest="rho_list", default="1,10,100",
                         help="penalties for the growth check")
    check_p.add_argument("--x-samples", dest="x_samples", type=int, default=100)
    check_p.add_argument("--lambda-samples", dest="lambda_samples", type=int, default=5)
    check_p.add_argument("--radius", type=float, default=1e-2)
    check_p.add_argument("--samples", type=int, default=200)
    check_p.add_argument("--t", default="0.8", help="parameters for check example32")
    check_p.add_argument("--report", help="write the JSON report here")
    check_p.set_defaults(func=cmd_check)

    rate_p = sub.add_parser("rate", help="estimate linear rates for several penalties")
    _add_problem_args(rate_p)
    rate_p.add_argument("--rho-list", dest="rho_list", required=True)
    rate_p.add_argument("--eps-eta", dest="eps_eta", type=float, default=0.1)
    rate_p.add_argument("--tol", type=float, default=1e-9)
    rate_p.add_argument("--max-outer", dest="max_outer", type=int, default=100)
    rate_p.add_argument("--offset", type=float, default=1e-2,
                        help="distance of the seeded start from the known solution")
    rate_p.add_argument("--x0", help="explicit starting primal point")
    rate_p.add_argument("--lambda0", help="explicit starting multiplier")
    rate_p.add_argument("--out", help="write the per-penalty CSV table here")
    rate_p.add_argument("--report", help="write the JSON report here")
    rate_p.set_defaults(func=cmd_rate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (alm.InnerFailure,) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
