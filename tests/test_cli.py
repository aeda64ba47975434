"""End-to-end CLI runs: exit codes, file outputs and determinism."""

import csv
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from socalm import AlmConfig, Proportional, alm, builtin, solve
from socalm import cli
from socalm.cli import _write_trace_csv, main
from socalm.lagrangian import residual

from _util import counted


def run_cli(*argv):
    return main(list(argv))


def test_solve_projection_exit_zero(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.json"
    code = run_cli("solve", "--problem", "builtin:projection", "--a", "0,2,0",
                   "--tol", "1e-9", "--trace", str(trace), "--report", str(report))
    out = capsys.readouterr().out
    assert code == 0
    assert "status=Converged" in out
    payload = json.loads(report.read_text())
    assert payload["status"] == "Converged"
    assert payload["sigma"] <= 1e-9
    with trace.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and float(rows[-1]["sigma"]) <= 1e-9
    assert set(rows[0]) == {"k", "sigma", "eps_k", "rho_k", "inner_iters",
                            "grad_norm", "value", "dist_x", "dist_lambda"}


@pytest.mark.parametrize("region", ["Zero", "BoundaryQNonzero"])
def test_check_dualqual_evaluates_its_pair_once(region, monkeypatch, capsys):
    """`check dualqual` runs the dual qualification and the calmness test
    on one evaluation of its KKT pair."""
    argv = ["check", "dualqual", "--problem", "builtin:scaled_quadratic", "--seed", "1",
            "--n", "20", "--m", "10", "--region", region]
    assert run_cli(*argv) in (0, 1)
    expected = capsys.readouterr().out
    p, calls = counted(builtin("scaled_quadratic", seed=1, n=20, m=10, region=region))
    monkeypatch.setattr(cli, "builtin", lambda name, **params: p)
    assert run_cli(*argv) in (0, 1)
    assert capsys.readouterr().out == expected
    assert calls["phi_value"] == 1 and calls["phi_jac"] == 1, dict(calls)


def test_solve_interior_trivial_converges_at_start(tmp_path):
    report = tmp_path / "report.json"
    code = run_cli("solve", "--problem", "builtin:interior_trivial", "--x0", "0,0",
                   "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["iters"] == 0


def test_solve_missing_file_exit_two(capsys):
    code = run_cli("solve", "--problem", "missing.json")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solve_bad_vector_exit_two():
    code = run_cli("solve", "--problem", "builtin:projection", "--a", "0,zwei,0")
    assert code == 2


def test_solve_failure_exit_one(tmp_path):
    # tiny penalty cap plus one outer iteration cannot reach the tolerance
    code = run_cli("solve", "--problem", "builtin:projection", "--a", "0,2,0",
                   "--rho0", "1", "--rho-max", "1",
                   "--max-outer", "1", "--tol", "1e-12",
                   "--x0", "5,5,5", "--lambda0", "0,0,0")
    assert code == 1


def test_check_sosc_exit_codes(tmp_path):
    report = tmp_path / "sosc.json"
    assert run_cli("check", "sosc", "--problem", "builtin:example_3_2",
                   "--report", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["holds"] is True
    assert 1.9 <= payload["modulus"] <= 2.1


def test_check_dualqual_reports_witness(tmp_path, capsys):
    report = tmp_path / "dq.json"
    code = run_cli("check", "dualqual", "--problem", "builtin:example_3_2",
                   "--report", str(report))
    capsys.readouterr()
    assert code == 1  # the condition fails on this problem
    payload = json.loads(report.read_text())
    assert payload["holds"] is False
    witness = np.array(payload["witness"])
    direction = np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert abs(witness @ direction) >= 0.999
    assert payload["multiplier_calmness"] == "unknown"


def test_check_example32(tmp_path, capsys):
    report = tmp_path / "e32.json"
    code = run_cli("check", "example32", "--problem", "builtin:example_3_2",
                   "--t", "0.8", "--report", str(report))
    out = capsys.readouterr().out
    assert code == 0
    assert "ratio=9.5" in out
    payload = json.loads(report.read_text())
    assert payload["rows"][0]["ratio"] == pytest.approx(9.5)


def test_check_example32_rejects_bad_t():
    assert run_cli("check", "example32", "--problem", "builtin:example_3_2",
                   "--t", "1.5") == 2


def test_check_growth_and_errorbound(tmp_path):
    assert run_cli("check", "growth", "--problem", "builtin:scaled_quadratic",
                   "--seed", "1", "--rho-list", "1,10") == 0
    # the counterexample problem trips the error-bound stability check
    assert run_cli("check", "errorbound", "--problem", "builtin:example_3_2",
                   "--radius", "1e-2", "--samples", "100", "--seed", "3") == 1
    assert run_cli("check", "errorbound", "--problem", "builtin:scaled_quadratic",
                   "--seed", "1", "--radius", "1e-2", "--samples", "100",
                   "--seed", "3") == 0


@pytest.mark.parametrize("seed", ["0", "4", "1000"])
def test_check_growth_on_a_ray_reads_no_seed(seed, tmp_path, capsys):
    """growth reads example_3_2's ray at its two ends and samples nothing,
    so --seed changes no byte of the report."""
    reports = []
    for argv in ([], ["--seed", seed]):
        path = tmp_path / f"growth{len(argv)}.json"
        assert run_cli("check", "growth", "--problem", "builtin:example_3_2", *argv,
                       "--report", str(path)) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0]) == {"command": "check growth", "problem": "example_3_2",
                                      "rho_used": 1.0, "ell_hat": 0.5, "multipliers": 3,
                                      "uniform": True}
    assert capsys.readouterr().out == "growth ell_hat=5.000000e-01 rho=1 uniform=True\n" * 2


def test_solve_exact_mode(tmp_path):
    report = tmp_path / "exact.json"
    code = run_cli("solve", "--problem", "builtin:projection", "--a", "0,2,0",
                   "--eps-eta", "0", "--tol", "1e-9", "--report", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["config"]["eps_rule"] == {"eta": 0.0}


def test_rate_table(tmp_path):
    out = tmp_path / "rate.csv"
    code = run_cli("rate", "--problem", "builtin:scaled_quadratic", "--seed", "1",
                   "--rho-list", "100,200,400", "--out", str(out))
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["Converged"] * 3
    qs = [float(row["q_geomean"]) for row in rows]
    assert qs[0] > qs[1] > qs[2]


def test_rate_runs_the_plain_alm(monkeypatch):
    """Each rate solve runs at memory 0, the method whose rate the paper
    proves, whatever AlmConfig's default."""
    built = []
    real_solve = alm.solve

    def spy(p, x0, lam0, cfg):
        built.append(cfg)
        return real_solve(p, x0, lam0, cfg)

    monkeypatch.setattr(alm, "solve", spy)
    assert run_cli("rate", "--problem", "builtin:scaled_quadratic", "--seed", "1",
                   "--rho-list", "10,100") == 0
    assert [cfg.memory for cfg in built] == [0, 0]


def test_rate_empty_rho_list_exit_two():
    assert run_cli("rate", "--problem", "builtin:scaled_quadratic", "--rho-list", "") == 2


def test_rate_partial_table_on_failure(tmp_path):
    out = tmp_path / "rate.csv"
    code = run_cli("rate", "--problem", "builtin:scaled_quadratic", "--seed", "1",
                   "--rho-list", "100", "--offset", "100.0", "--max-outer", "2",
                   "--out", str(out))
    assert code == 1
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["status"] != "Converged"


def test_outputs_bit_identical_across_runs(tmp_path):
    args = ["solve", "--problem", "builtin:scaled_quadratic", "--seed", "3",
            "--tol", "1e-9"]
    first = (tmp_path / "a.csv", tmp_path / "a.json")
    second = (tmp_path / "b.csv", tmp_path / "b.json")
    for trace, report in (first, second):
        assert run_cli(*args, "--trace", str(trace), "--report", str(report)) == 0
    assert first[0].read_bytes() == second[0].read_bytes()
    assert first[1].read_bytes() == second[1].read_bytes()


def test_trace_csv_sigma_roundtrip(tmp_path):
    p = builtin("projection", a=(0.0, 2.0, 0.0))
    cfg = AlmConfig(rho0=10.0, eps_rule=Proportional(0.1), outer_tol=1e-9)
    _, trace = solve(p, np.array([0.1, 0.9, 0.05]), np.array([-0.9, 1.1, 0.0]), cfg)
    path = tmp_path / "trace.csv"
    _write_trace_csv(str(path), trace, p)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trace)
    for k, row in enumerate(rows):
        recomputed = residual(p, trace.xs[k], trace.lams[k])
        assert abs(float(row["sigma"]) - recomputed) <= 1e-12


def test_check_sosc_not_a_kkt_pair_exit_two(capsys):
    code = run_cli("check", "sosc", "--problem", "builtin:projection",
                   "--x", "0,0,0", "--lambda", "1,0,0")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "not a KKT pair" in err
    assert err.count("\n") == 1


# projection's a = (0, 2, 0): the first pair has KKT residual 5.1, the
# second a multiplier in the normal cone that leaves grad_x L = (-1, 1, 0),
# and the third a residual that overflows
@pytest.mark.parametrize("x, lam", [("5,1,0", "0,0,0"), ("1,1,0", "-2,2,0"),
                                    ("1e308,0,0", "0,0,0")])
def test_check_dualqual_not_a_kkt_pair_exit_two(x, lam, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("check", "dualqual", "--problem", "builtin:projection",
                       f"--x={x}", f"--lambda={lam}")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: not a KKT pair: residual ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", [["--x", "5,0,0"], ["--lambda", "0,0,0"]])
def test_check_point_flags_must_come_together(flag, capsys):
    code = run_cli("check", "sosc", "--problem", "builtin:projection", *flag)
    assert code == 2
    assert "--x and --lambda" in capsys.readouterr().err


def test_solve_non_finite_oracle_exit_one(monkeypatch, capsys):
    broken = dataclasses.replace(builtin("projection"),
                                 f_hess=lambda x: np.full((3, 3), np.nan))
    monkeypatch.setattr(cli, "builtin", lambda name, **params: broken)
    assert run_cli("solve", "--problem", "builtin:projection") == 1
    captured = capsys.readouterr()
    assert "status=InnerFailure" in captured.out
    assert "failure: non-finite Hessian" in captured.err


def test_solve_non_finite_start_exit_two(capsys):
    assert run_cli("solve", "--problem", "builtin:projection", "--x0", "nan,0,0") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["rate", "--problem", "builtin:scaled_quadratic", "--rho-list", "10", "--x0", "1,2"],
    ["rate", "--problem", "builtin:scaled_quadratic", "--rho-list", "10", "--lambda0", "1"],
    ["solve", "--problem", "builtin:projection", "--x0", "1,2"],
])
def test_wrong_start_length_exit_two(argv, capsys):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must have shape" in err
    assert err.count("\n") == 1


E32 = ["--problem", "builtin:example_3_2"]
# the flags each check reads, besides the problem flags and --report;
# --x-samples and --lambda-samples, flags no command reads since growth
# stopped sampling, are rejected by every check
READS = {"sosc": ("--x", "--lambda"), "dualqual": ("--x", "--lambda"),
         "growth": ("--rho-list",),
         "errorbound": ("--radius", "--samples"), "example32": ("--t",)}
VALUES = {"--x": "0,0", "--lambda": "-1,1,0", "--rho-list": "5", "--x-samples": "3",
          "--lambda-samples": "3", "--radius": "0.01", "--samples": "20", "--t": "0.5"}
# stands for a problem file holding builtin:projection, written by the test
PROBLEM_FILE = "<projection.json>"

# (an argv the parser accepts, a flag that the command would not read there)
UNREAD_FLAGS = [(["check", name, *E32], f"{flag}={VALUES[flag]}")
                for name in READS for flag in VALUES
                if flag not in READS[name] and (name, flag) != ("growth", "--x-samples")] + [
    *[(["solve", "--problem", PROBLEM_FILE], flag)
      for flag in ("--a=0,2,0", "--n=3", "--m=2", "--region=Zero", "--seed=3")],
    (["check", "sosc", "--problem", PROBLEM_FILE, "--seed=3"], "--a=0,2,0"),
    (["rate", "--problem", PROBLEM_FILE, "--rho-list=10", "--seed=3"], "--n=3"),
    (["solve", "--problem", "builtin:projection"], "--exact"),
    (["solve", "--problem", "builtin:projection"], "--seed=3"),
    (["solve", "--problem", "builtin:example_3_2"], "--seed=3"),
    (["rate", "--problem", "builtin:projection", "--rho-list=10", "--seed=3",
      "--x0=1,1,0", "--lambda0=-1,1,0"], "--offset=0.1"),
    # the --x-samples row of growth, listed apart from the rows above
    (["check", "growth", *E32], "--x-samples=3"),
]


def _with_problem_file(argv, tmp_path):
    path = tmp_path / "projection.json"
    path.write_text('{"builtin": "projection"}')
    return [str(path) if arg == PROBLEM_FILE else arg for arg in argv]


@pytest.mark.parametrize("argv, flag", UNREAD_FLAGS)
def test_a_flag_the_command_does_not_read_is_the_only_fault(argv, flag, tmp_path, capsys):
    """Each argv runs (exit 0 or 1); the flag added to it exits 2 on one
    `error:` line that names the flag (a builtin names its parameter)."""
    argv = _with_problem_file(argv, tmp_path)
    assert run_cli(*argv) in (0, 1)
    capsys.readouterr()
    assert run_cli(*argv, flag) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    name = flag.split("=")[0].removeprefix("--")
    assert re.search(rf"\b{name}\b", captured.err) and captured.out == ""


@pytest.mark.parametrize("name", READS)
def test_each_check_accepts_and_lists_only_its_own_flags(name, capsys):
    flags = [f"{flag}={VALUES[flag]}" for flag in READS[name]]
    assert run_cli("check", name, *E32, *flags) in (0, 1)
    capsys.readouterr()
    assert run_cli("check", name, "--help") == 0
    listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    assert listed == {"--help", "--problem", "--a", "--n", "--m", "--region", "--seed",
                      "--report", *READS[name]}


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "builtin:projection", "--rho0", "0"],
    ["solve", "--problem", "builtin:projection", "--eps-eta", "1.5"],
    ["solve", "--problem", "builtin:projection", "--rho-growth", "0.5"],
    ["solve", "--problem", "builtin:projection", "--tol", "0"],
    ["solve", "--problem", "builtin:projection", "--tol", "nan"],
    ["solve", "--problem", "builtin:projection", "--tol", "inf"],
    ["solve", "--problem", "builtin:projection", "--rho0", "inf", "--rho-max", "inf"],
    ["solve", "--problem", "builtin:projection", "--max-outer", "-1"],
    ["rate", "--problem", "builtin:scaled_quadratic", "--rho-list=-1"],
    ["rate", "--problem", "builtin:scaled_quadratic", "--rho-list", "10,nan"],
    ["check", "growth", "--problem", "builtin:scaled_quadratic", "--rho-list", "1,inf"],
    ["check", "errorbound", "--problem", "builtin:scaled_quadratic", "--radius", "0"],
    ["check", "errorbound", "--problem", "builtin:scaled_quadratic", "--radius", "-1"],
    ["check", "errorbound", "--problem", "builtin:scaled_quadratic", "--samples", "0"],
    # 2^55 rows of 6 entries ask for 1.5 EiB, past any x86-64 address space
    # yet within numpy's size limit: the allocation fails at once, touching no memory
    ["check", "errorbound", "--problem", "builtin:projection", "--samples",
     str(2 ** 55)],
    # every sampled residual and distance overflows, or falls below 1e-15
    ["check", "errorbound", "--problem", "builtin:scaled_quadratic", "--seed", "1",
     "--radius", "1e300"],
    ["check", "errorbound", "--problem", "builtin:scaled_quadratic", "--seed", "1",
     "--radius", "1e-300"],
    ["check", "sosc", "--problem", "builtin:nope"],
    ["check", "sosc", "--problem", "builtin:projection", "--x=1,2", "--lambda=0,0,0"],
    ["check", "sosc", "--problem", "builtin:projection", "--x=0,0,0", "--lambda=1"],
    # an overflow inside a certificate, or a non-finite point, is a usage
    # error with no floating-point warning
    ["check", "sosc", "--problem", "builtin:scaled_quadratic", "--region", "Zero",
     "--x=1e200,0,0", "--lambda=-1,1,0"],
    ["check", "dualqual", "--problem", "builtin:projection", "--x=1e308,1e308,1e308",
     "--lambda=0,0,0"],
    ["check", "sosc", "--problem", "builtin:example_3_2", "--x=1e200,0", "--lambda=-1,1,0"],
    ["check", "sosc", "--problem", "builtin:projection", "--x=nan,0,0", "--lambda=inf,0,0"],
    # example32 is a table of example_3_2 alone
    ["check", "example32", "--problem", "builtin:projection", "--t", "0.5"],
    ["check", "example32", "--problem", "builtin:scaled_quadratic", "--seed", "3", "--t", "0.5"],
    ["check", "growth", "--problem", "builtin:projection", "--rho-list="],
    ["check", "example32", "--problem", "builtin:example_3_2", "--t="],
    # an empty vector entry, or an empty vector flag
    ["solve", "--problem", "builtin:projection", "--x0=1,,2,0"],
    ["solve", "--problem", "builtin:projection", "--x0="],
    ["solve", "--problem", "builtin:projection", "--lambda0="],
    ["solve", "--problem", "builtin:projection", "--a=0,2,0,"],
    ["rate", "--problem", "builtin:scaled_quadratic", "--rho-list", "10", "--x0="],
    ["rate", "--problem", "builtin:scaled_quadratic", "--rho-list", "10", "--lambda0="],
    ["rate", "--problem", "builtin:scaled_quadratic", "--rho-list", ",10"],
    ["check", "example32", "--problem", "builtin:example_3_2", "--t=0.5,"],
    ["check", "sosc", "--problem", "builtin:projection", "--a", "2,1,0", "--x=2,1,0",
     "--lambda=0,,0,0"],
    # a start whose KKT residual overflows
    ["solve", "--problem", "builtin:projection", "--x0", "1e200,0,0"],
    ["rate", "--problem", "builtin:projection", "--rho-list", "10", "--offset", "1e200"],
    # argparse's own usage errors
    ["solve"],
    ["check", "nope", "--problem", "builtin:projection"],
    ["check", "--problem", "builtin:projection"],
    ["solve", "--problem", "builtin:scaled_quadratic", "--n", "abc"],
    ["solve", "--problem", "builtin:projection", "--x", "0,2,0"],  # no abbreviated --x0
    ["check", "growth", "--problem", "builtin:projection", "--x", "5"],
] + [argv + [flag] for argv, flag in UNREAD_FLAGS])
def test_invalid_settings_exit_two(argv, tmp_path, capsys):
    argv = _with_problem_file(argv, tmp_path)
    report = tmp_path / "report.json"
    assert run_cli(*argv, "--report", str(report)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("argv, message", [
    (["rate", "--problem", "builtin:projection", "--rho-list", "10", f"--offset={offset}"],
     f"offset must be positive and finite, got {float(offset)!r}")
    for offset in ("0", "-1", "nan", "inf")] + [
    (["solve", "--problem", "builtin:projection", "--rho0", "1e6"],
     "rho_max must be >= rho0, got 100000.0"),
])
def test_a_setting_out_of_range_is_named(argv, message, capsys):
    """A rate run from no distance is no contraction: --offset must be
    positive and finite.  The default rho_max is 1e5, so a larger --rho0
    needs its --rho-max, and runs with it."""
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    if argv[0] == "solve":
        assert run_cli(*argv, "--rho-max", "1e6") == 0
        assert capsys.readouterr().out.startswith("status=Converged ")


@pytest.mark.parametrize("check", ["sosc", "growth"])
@pytest.mark.parametrize("params, message", [
    (["--n", "0"], "n must be at least 1, got 0"),
    (["--m", "0"], "m must be at least 1, got 0"),
    (["--n", "-1"], "n must be at least 1, got -1"),
    ("file", "n must be at least 1, got 0"),
], ids=["n0", "m0", "n-1", "file-n0"])
def test_interior_trivial_without_a_dimension_exit_two(check, params, message, tmp_path,
                                                       capsys):
    if params == "file":
        path = tmp_path / "p.json"
        path.write_text('{"builtin": "interior_trivial", "params": {"n": 0}}')
        problem = ["--problem", str(path)]
    else:
        problem = ["--problem", "builtin:interior_trivial", *params]
    assert run_cli("check", check, *problem) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "builtin:scaled_quadratic"],
    ["check", "sosc", "--problem", "builtin:projection"],
    ["check", "errorbound", "--problem", "builtin:projection"],
    ["rate", "--problem", "builtin:example_3_2", "--rho-list", "10"],
    ["check", "dualqual", "--problem", "builtin:projection"],
    ["check", "example32", "--problem", "builtin:example_3_2"],
])
def test_a_negative_seed_exit_two(argv, capsys):
    assert run_cli(*argv, "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be nonnegative, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "builtin:projection", "--n", "7", "--region", "Zero"],
    ["check", "sosc", "--problem", "builtin:example_3_2", "--a", "1,0,0"],
    ["rate", "--problem", "builtin:scaled_quadratic", "--rho-list", "10", "--a", "1,0,0"],
])
def test_builtin_parameter_the_problem_does_not_take_exit_two(argv, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: builtin problem ")
    assert "takes no parameter" in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--report", "--trace", "--out"])
def test_unwritable_output_path_exit_two(flag, tmp_path, capsys):
    path = str(tmp_path / "missing-dir" / "out")
    command = (["rate", "--problem", "builtin:scaled_quadratic", "--rho-list", "10"]
               if flag == "--out" else ["solve", "--problem", "builtin:projection"])
    assert run_cli(*command, flag, path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err
    assert err.count("\n") == 1


def test_shift_overflow_after_penalty_increase_exit_one(tmp_path, capsys, monkeypatch):
    # the plain ALM (memory 0) raises the penalty to 1e300 and overflows;
    # the extrapolated shift converges in 3 iterations
    real_solve = alm.solve
    monkeypatch.setattr(alm, "solve", lambda p, x0, lam0, cfg:
                        real_solve(p, x0, lam0, dataclasses.replace(cfg, memory=0)))
    report = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    code = run_cli("solve", "--problem", "builtin:projection", "--a", "0,1e10,0",
                   "--rho0", "1", "--rho-growth", "1e300", "--rho-max", "inf",
                   "--tol", "1e-15", "--report", str(report), "--trace", str(trace))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("status=InnerFailure")
    assert captured.err.startswith("failure: non-finite shifted point")
    assert captured.err.count("\n") == 1
    assert json.loads(report.read_text())["status"] == "InnerFailure"
    with trace.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["rho_k"] == "1e+300" and rows[-1]["value"] == "nan"


@pytest.mark.parametrize("flags, expected", [
    ([], AlmConfig()),
    (["--eps-eta", "0"], AlmConfig(eps_rule=Proportional(0.0))),
    (["--eps-eta", "0.25", "--rho0", "0.5", "--rho-growth", "3", "--rho-max", "1e4",
      "--tol", "1e-8", "--max-outer", "50"],
     AlmConfig(rho0=0.5, rho_growth=3.0, rho_max=1e4, eps_rule=Proportional(0.25),
               outer_tol=1e-8, max_outer=50)),
])
def test_solve_report_config_round_trips(flags, expected, tmp_path, monkeypatch):
    built = []
    real_solve = alm.solve

    def spy(p, x0, lam0, cfg):
        built.append(cfg)
        return real_solve(p, x0, lam0, cfg)

    monkeypatch.setattr(alm, "solve", spy)
    report = tmp_path / "report.json"
    run_cli("solve", "--problem", "builtin:projection", *flags, "--report", str(report))
    config = json.loads(report.read_text())["config"]
    assert set(config) == {f.name for f in dataclasses.fields(AlmConfig)}
    rebuilt = AlmConfig(**{**config, "eps_rule": Proportional(**config["eps_rule"])})
    assert rebuilt == built[0] == expected


def test_penalty_overflow_ends_in_inner_failure_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("solve", "--problem", "builtin:projection", "--a", "0,2,0",
                       "--rho0", "1", "--rho-growth", "1e300", "--rho-max", "inf",
                       "--x0", "5,5,5", "--tol", "1e-15")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("status=InnerFailure")
    assert captured.err.startswith("failure: non-finite") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command, line", [
    ("sosc", "sosc holds=True modulus=1.000000e+00 method=ExactEigen"),
    ("dualqual", "dualqual holds=True calmness=calm"),
])
def test_check_a_point_whose_squared_norm_overflows(command, line, capsys):
    # a = (2e160, 1e160, 0) lies inside Q, but a @ a overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("check", command, "--problem", "builtin:projection",
                       "--a", "2e160,1e160,0")
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [line] and captured.err == ""


@pytest.mark.parametrize("a", ["0,2,0", "0,2e160,0", "0,2e200,0", "-2e160,2e160,0"])
def test_check_sosc_where_the_cone_norms_overflow(a, capsys):
    """The Hyperplane and Ray forms scale every cone norm whose square
    overflows: modulus 1 at every scale of a, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("check", "sosc", "--problem", "builtin:projection", f"--a={a}")
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == "sosc holds=True modulus=1.000000e+00 method=ExactEigen\n"


# A = 0 and b = (1.7e308, 1.7e308, 0): Phi(x) = b lies on the boundary of Q,
# and ||b|| overflows
HUGE_B_FILE = ('{"quadratic": {"P": [[1, 0], [0, 1]], "q": [0, 0], '
               '"A": [[0, 0], [0, 0], [0, 0]], "b": [1.7e308, 1.7e308, 0]}}')
PROJECTION = ["--problem", "builtin:projection"]


@pytest.mark.parametrize("argv, message", [
    # not a KKT pair: the residual (1.7e308, 1.7e308, 0) was tested against
    # KKT_TOL ||x|| = inf
    (["check", "sosc", *PROJECTION, "--x=1.7e308,1.7e308,0", "--lambda=0,0,0"],
     "the norm ||x|| of the primal point overflows"),
    # a boundary point of Q was classified Zero, a WholeConeQ case
    (["check", "sosc", *PROJECTION, "--a=1.7e308,1.7e308,0"],
     "the norm ||x|| of the primal point overflows"),
    *[(["check", name, "--problem", "<huge-b.json>", "--x=0,0", "--lambda=0,0,0"],
       "the norm ||y|| of the base point overflows") for name in ("sosc", "dualqual")],
    # ||a_r|| overflows: the projection of a was NaN, with a warning
    *[([*command, *PROJECTION, "--a", "0,1.7e308,1.7e308"],
       "the space norm ||y_r|| of a cone vector overflows")
      for command in (["solve"], ["rate", "--rho-list", "1"],
                      *[["check", name] for name in ("sosc", "dualqual", "growth", "errorbound")])],
], ids=["sosc-not-a-kkt-pair", "sosc-boundary-a", "sosc-file", "dualqual-file",
        *[f"{name}-rnorm" for name in ("solve", "rate", "sosc", "dualqual", "growth",
                                       "errorbound")]])
def test_a_point_whose_norm_overflows_exit_two(argv, message, tmp_path, capsys):
    """A point whose ||y_r||, or whose norm a tolerance scales by,
    overflows is rejected on one `error:` line, with no warning."""
    path = tmp_path / "huge-b.json"
    path.write_text(HUGE_B_FILE)
    argv = [str(path) if arg == "<huge-b.json>" else arg for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_check_growth_where_a_sample_row_norm_overflows(capsys):
    """At a = (2e160, 1e160, 0) the squared norms overflow; the modulus
    stays finite, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("check", "growth", "--problem", "builtin:projection",
                       "--a", "2e160,1e160,0", "--rho-list", "1")
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    ell_hat = float(captured.out.split()[1].removeprefix("ell_hat="))
    assert 0.0 < ell_hat < math.inf


@pytest.mark.parametrize("a, code, out", [
    ("2,1,0", 0, "ell_hat=5.000000e-01"),
    ("2e10,1e10,0", 0, "ell_hat=5.000000e-01"),
    ("2e100,1e100,0", 0, "ell_hat=5.000000e-01"),
    ("2e160,1e160,0", 0, "ell_hat=5.000000e-01"),
    # every entry of xbar lies far above a unit step
    ("2e100,1e100,1e100", 0, "ell_hat=5.000000e-01"),
    # the Hyperplane, Ray and whole-cone cases, the first two where the
    # squares of the cone norms overflow
    ("0,2,0", 0, "ell_hat=5.000000e-01"),
    ("0,2e160,0", 0, "ell_hat=5.000000e-01"),
    ("-2e160,2e160,0", 0, "ell_hat=5.000000e-01"),
    ("0,0,0", 0, "ell_hat=5.000000e-01"),
])
def test_check_growth_divides_by_the_realized_step(a, code, out, capsys):
    """The projection problem grows with modulus 1/2 at every scale of a.
    The modulus is exact, not a quotient over steps that rounding could
    absorb into a large xbar."""
    assert run_cli("check", "growth", "--problem", "builtin:projection", f"--a={a}",
                   "--rho-list", "1") == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.split()[1] == out and captured.err == ""
    else:
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


def test_check_growth_where_every_value_overflows(capsys):
    """f overflows near a = (0, 2e200, 0), but the exact modulus reads no
    value of f: it is 1/2, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("check", "growth", "--problem", "builtin:projection",
                       "--a", "0,2e200,0", "--rho-list", "1")
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.split()[1] == "ell_hat=5.000000e-01"


def test_check_growth_at_the_largest_penalty(capsys):
    """At rho = 1e308 the penalty term rho B'B would swamp the Hessian in
    rounding; the Schur complement on ker B keeps the modulus at 1/2."""
    assert run_cli("check", "growth", "--problem", "builtin:projection",
                   "--rho-list", "1e308") == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("growth ell_hat=5.000000e-01 ") and captured.err == ""


def test_distances_of_a_multiplier_whose_square_overflows(tmp_path, capsys):
    """||lam||^2 overflows at lambda0 = (-1e200, 0): the trace's values,
    its dist_lambda and rate's contraction factor stay finite, and no
    warning shows.  rho Phi + lam rounds back to lam at every rho, so the
    solve ends once an iteration at rho_max changes nothing."""
    trace = tmp_path / "far.csv"
    far = ["--problem", "builtin:interior_trivial", "--lambda0=-1e200,0"]
    assert run_cli("solve", *far, "--trace", str(trace)) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("status=MaxIterations")
    assert captured.err == "failure: outer iteration 4 left x, lambda and rho=100000 unchanged\n"
    with trace.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) <= 10
    assert {row["dist_lambda"] for row in rows} == {"1e+200"}
    assert all(math.isfinite(float(row["value"])) for row in rows)
    assert run_cli("rate", *far, "--rho-list", "10") == 1
    assert capsys.readouterr().out.endswith("q_geomean=1.000000e+00\n")


def test_rate_reports_the_ratio_of_a_one_iteration_run(capsys):
    """A run cut after one outer iteration has one measured ratio, and
    rate reports it rather than a contraction of 0."""
    assert run_cli("rate", "--problem", "builtin:scaled_quadratic", "--seed", "1",
                   "--rho-list", "10", "--max-outer", "1") == 1
    out = capsys.readouterr().out
    assert out.startswith("rho=10 status=MaxIterations iters=1 ")
    assert 0.0 < float(out.split("q_geomean=")[1]) < 1.0


def test_parser_is_built_once_and_leaks_nothing_between_calls(tmp_path, monkeypatch):
    """main() reuses one parser; each parse equals a fresh parser's, so no
    flag or default of one call shows up in the next."""
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    parsed = []
    real_parse = parser.parse_args

    def spy(argv):
        parsed.append((argv, real_parse(argv)))
        return parsed[-1][1]

    monkeypatch.setattr(parser, "parse_args", spy)
    report = str(tmp_path / "report.json")
    e32 = ["--problem", "builtin:example_3_2"]
    calls = [
        (["check", "sosc", *e32, "--seed", "5", "--report", report], 0),
        (["check", "dualqual", *e32], 1),
        (["check", "example32", *e32, "--t", "0.3,0.6"], 0),
        (["check", "growth", *e32, "--rho-list", "5"], 0),
        (["solve", "--problem", "builtin:projection", "--a", "0,2,0", "--eps-eta", "0",
          "--rho0", "100", "--report", report], 0),
        (["solve", "--problem", "builtin:projection", "--a", "0,2,0"], 0),
        (["solve", "--rho0", "1"], 2),  # usage error: --problem is missing
        (["rate", "--problem", "builtin:scaled_quadratic", "--rho-list", "10"], 0),
        (["check", "sosc", *e32], 0),
    ]
    for argv, code in calls:
        assert main(argv) == code
    assert [argv for argv, _ in parsed] == [argv for argv, code in calls if code != 2]
    for argv, namespace in parsed:
        assert namespace == cli.build_parser.__wrapped__().parse_args(argv)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "builtin:projection", "--a", "0,1e10,0", "--rho0", "1",
     "--rho-growth", "1e300", "--rho-max", "inf", "--tol", "1e-15"],
    ["check", "sosc", "--problem", "builtin:scaled_quadratic", "--seed", "3"],
    ["check", "sosc", "--problem", "builtin:interior_trivial"],
    ["check", "dualqual", "--problem", "builtin:example_3_2"],
    ["check", "growth", "--problem", "builtin:example_3_2", "--rho-list", "5"],
    ["check", "errorbound", "--problem", "builtin:scaled_quadratic", "--samples", "20"],
    ["check", "example32", "--problem", "builtin:example_3_2"],
    ["rate", "--problem", "builtin:scaled_quadratic", "--rho-list", "10"],
])
def test_every_report_is_strict_json(argv, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run_cli(*argv, "--report", str(report)) in (0, 1)
    capsys.readouterr()
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    if argv[:2] == ["check", "sosc"]:  # the exact certificate names no penalty
        assert set(payload) == {"command", "problem", "holds", "modulus", "method",
                                "certificate_detail"}
    if argv[0] == "solve":
        assert payload["config"]["rho_max"] is None


QUADRATIC = '"q": [0, 0], "A": [[1, 0], [0, 1], [0, 0]], "b": [0, 0, 0]'


@pytest.mark.parametrize("text, message", [
    ('{"quadratic": {"P": [[1e400, 0], [0, 1]], ' + QUADRATIC + '}}', "P has non-finite"),
    ('{"quadratic": {"P": [[NaN, 0], [0, 1]], ' + QUADRATIC + '}}', "P has non-finite"),
    ('{"quadratic": {"P": [[1, 0], [0, 1]], ' + QUADRATIC + ', "xbar": [0, 0]}}',
     "takes no key xbar"),
    ('{"builtin": "scaled_quadratic", "params": {"n": 3.5}}', "'n' must be an integer"),
    ('{"quadratic": {"P": [[1, 0]], ' + QUADRATIC + '}}', "P must be square"),
    ('{"quadratic": {"P": [[1, 0], [0, 1]], "q": [0], "A": [[1, 0], [0, 1], [0, 0]], '
     '"b": [0, 0, 0]}}', "q has wrong length"),
    ('{"quadratic": {"P": [[1, 0], [0, 1]], "q": [0, 0], "A": [[1], [0], [0]], '
     '"b": [0, 0, 0]}}', "A column count"),
    ('{"quadratic": {"P": [[1, 0], [0, 1]], "q": [0, 0], "A": [[1, 0], [0, 1], [0, 0]], '
     '"b": [0, 0]}}', "b has wrong length"),
    ('{"quadratic": ', "invalid JSON"),
    ('[1, 2]', "must hold a JSON object"),
    ('{"builtin": "projection", "params": [0, 2, 0]}', "'params' must be an object"),
    ('{"builtin": "projection", "params": {"a": {"x": 1}}}', "field 'params': float()"),
    ('{"builtin": "projection", "params": {"a": null}}', "cone vector must be 1-D"),
    ('{"quadratic": [1, 2]}', "'quadratic' must be an object"),
    ('{"quadratic": {"P": [[1, 0], [0, 1]], "q": [0, 0], "b": [0, 0, 0]}}',
     "'quadratic.A' is missing"),
])
@pytest.mark.parametrize("command", [["solve"], ["check", "sosc", "--x", "0,0",
                                                  "--lambda", "0,0,0"]])
def test_bad_problem_file_exit_two_without_warnings(text, message, command, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(*command, "--problem", str(path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


BAND_FILE = ('{"quadratic": {"P": [[1, 0, 0], [0, 1, 0], [0, 0, -2]], '
             '"q": [0, -2.0000000169705627, 0], "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
             '"b": [0, 0, 0]}}')


@pytest.mark.parametrize("text, argv, message", [
    ('{"quadratic": {"P": [[1, 0], [0, 1]], ' + QUADRATIC + '}}', ["check", "sosc"],
     "problem has no known solution"),
    ('{"quadratic": {"P": [[1, 0], [0, 1]], ' + QUADRATIC + '}}',
     ["rate", "--rho-list", "10"], "needs a problem with a known solution"),
    # a KKT pair just outside Q, inside the normal-cone test's tolerance
    (BAND_FILE, ["check", "sosc", "--x=1.0,1.0000000169705627,0.0", "--lambda=-1,1,0"],
     "no critical cone case for a base point in Outside"),
], ids=["sosc-no-solution", "rate-no-solution", "sosc-outside-q"])
def test_problem_file_the_command_cannot_use_exit_two(text, argv, message, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(text)
    assert run_cli(*argv, "--problem", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
