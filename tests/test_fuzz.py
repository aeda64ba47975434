"""Fuzz of the command line's no-traceback contract: every problem file
and argv exits 0, 1 or 2; exit 2 writes nothing to stdout and one
`error:` line to stderr; no exception and no warning escapes.

The cases are drawn by hypothesis under the suite's derandomized profile
(tests/conftest.py), so each run checks the same ones; the `socalm-fuzz`
profile draws more of them (`pytest tests/test_fuzz.py
--hypothesis-profile socalm-fuzz`).  Dimensions stay at most 4 and
--samples at most 1,000, apart from one count too large to allocate, so
that no case allocates more than a few MB.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import example, given
from hypothesis import strategies as st

from socalm.cli import main

# stands for the problem file each case writes
FILE = "<problem.json>"

SMALL = st.floats(-10.0, 10.0) | st.integers(-3, 3)
SPECIAL = st.sampled_from([0.0, math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 1e308,
                           1e200, -1e160])
JUNK = st.none() | st.booleans() | st.text(max_size=3) | st.just([]) | st.just({})
ENTRY = SMALL | SPECIAL | JUNK
BUILTINS = ["projection", "example_3_2", "interior_trivial", "scaled_quadratic"]
REGIONS = ["InteriorQ", "BoundaryQNonzero", "Zero", "Outside"]


def _vector(size):
    """A JSON list of size entries: small numbers, or huge and non-finite
    ones among them, or entries of any JSON type."""
    return st.sampled_from([SMALL, SMALL, SMALL | SPECIAL, ENTRY]).flatmap(
        lambda elements: st.lists(elements, min_size=size, max_size=size))


@st.composite
def _quadratic(draw):
    n, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4))  # rows = m + 1, 1 is too few

    def near(k):  # mostly the right length, sometimes one off
        return max(0, k + draw(st.sampled_from([0, 0, 0, -1, 1])))

    spec = {"P": [draw(_vector(near(n))) for _ in range(near(n))], "q": draw(_vector(near(n))),
            "A": [draw(_vector(near(n))) for _ in range(rows)], "b": draw(_vector(near(rows)))}
    if draw(st.booleans()):
        spec["c"] = draw(ENTRY)
    if draw(st.booleans()):
        spec["name"] = draw(st.text(max_size=4) | JUNK)
    for key in draw(st.lists(st.sampled_from(["P", "q", "A", "b", "c"]), max_size=2)):
        if draw(st.booleans()):
            spec.pop(key, None)         # a missing key
        else:
            spec[key] = draw(ENTRY)     # a field of the wrong JSON type
    if draw(st.integers(0, 9)) == 0:
        spec["xbar"] = [0.0]            # a key the file does not take
    return {"quadratic": spec}


@st.composite
def _builtin(draw):
    params = {}
    for key in draw(st.lists(st.sampled_from(["a", "n", "m", "seed", "region", "x"]),
                             max_size=3, unique=True)):
        params[key] = draw({"a": st.integers(1, 4).flatmap(_vector) | JUNK,
                            "n": st.integers(-1, 4) | ENTRY, "m": st.integers(-1, 4) | ENTRY,
                            "seed": st.integers(-1, 2**40) | ENTRY,
                            "region": st.sampled_from(REGIONS) | JUNK,
                            "x": ENTRY}[key])
    spec = {"builtin": draw(st.sampled_from([*BUILTINS, "nope"]) | JUNK)}
    if params or draw(st.booleans()):
        spec["params"] = params if draw(st.integers(0, 9)) else draw(JUNK)
    return spec


PROBLEM_TEXT = (
    (_quadratic() | _builtin()).map(lambda spec: json.dumps(spec))
    | st.sampled_from(['{"quadratic": ', "[1, 2]", "{}", '{"builtin": "projection", "x": 1}']))

TOKEN = (st.sampled_from(["0", "1", "-1", "2", "0.5", "1e-8", "nan", "inf", "-inf", "1.7e308",
                          "-1.7e308", "1e200", "abc", ""])
         | st.floats(-10.0, 10.0).map(repr))
VECTOR_TEXT = st.lists(TOKEN, min_size=1, max_size=4).map(",".join)
BAD_COUNT = ["-1", "2.5", "x", "36028797018963968"]   # the last is too large to allocate
DIM_TEXT = st.sampled_from(["0", "1", "2", "4", *BAD_COUNT])
COUNT_TEXT = st.sampled_from(["0", "1", "5", "20", "200", "1000", *BAD_COUNT])

# each command's own flags, with the values they may take
PROBLEM_FLAGS = {"--a": VECTOR_TEXT, "--n": DIM_TEXT, "--m": DIM_TEXT,
                 "--region": st.sampled_from(REGIONS + ["x"]), "--seed": COUNT_TEXT}
SOLVER_FLAGS = {"--eps-eta": TOKEN, "--tol": TOKEN,
                "--max-outer": st.sampled_from(["0", "1", "5", "20", *BAD_COUNT[:3]]),
                "--x0": VECTOR_TEXT, "--lambda0": VECTOR_TEXT}
POINT_FLAGS = {"--x": VECTOR_TEXT, "--lambda": VECTOR_TEXT}
FLAGS = {
    ("solve",): {**SOLVER_FLAGS, "--rho0": TOKEN, "--rho-growth": TOKEN, "--rho-max": TOKEN},
    ("rate",): {**SOLVER_FLAGS, "--rho-list": VECTOR_TEXT, "--offset": TOKEN},
    ("check", "sosc"): POINT_FLAGS,
    ("check", "dualqual"): POINT_FLAGS,
    ("check", "growth"): {"--rho-list": VECTOR_TEXT},
    ("check", "errorbound"): {"--radius": TOKEN, "--samples": COUNT_TEXT},
    ("check", "example32"): {"--t": VECTOR_TEXT},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(list(FLAGS)))
    flags = {**PROBLEM_FLAGS, **FLAGS[command]}
    problem = draw(st.just(FILE) | st.sampled_from([*BUILTINS, "nope"]).map("builtin:".__add__))
    argv = [*command, "--problem", problem]
    if command == ("rate",) and draw(st.integers(0, 4)):
        argv.append("--rho-list=" + draw(VECTOR_TEXT))   # rate's required flag
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True)):
        argv.append(f"{flag}={draw(flags[flag])}")
    return argv


def _run(argv):
    """(exit code, stdout, stderr) of one in-process run, warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(argv=_argv(), text=PROBLEM_TEXT)
# a finite cone point whose ||y_r|| overflows
@example(argv=["check", "errorbound", "--problem", "builtin:projection",
               "--a=0,1.7e308,1.7e308"], text="{}")
# an offset whose step, offset / ||step|| times a unit normal draw, overflows
@example(argv=["rate", "--problem", "builtin:interior_trivial", "--rho-list=1",
               "--offset=1.7e308"], text="{}")
def test_the_cli_exits_0_1_or_2_with_no_traceback_or_warning(argv, text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz-problem.json"
    path.write_text(text)
    code, out, err = _run([str(path) if arg == FILE else arg for arg in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
