"""Fast self-test of the benchmark (about a minute; not part of tier-1).

    python3 perfbench/selftest.py

For each workload it runs run.py on a quick pool (one task per kind),
untraced twice and traced twice with the same seed, and checks that
  - the result line names every metric of BENCHMARK.json with its unit,
    and the human-readable lines print each of them;
  - the runs are correct and the exact counts agree between the two runs
    of a seed;
  - the correctness gate trips on a deliberately wrong expected exit code;
  - run.py fails, without a result, where the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "10", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def check_run(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload} trace={trace}: incorrect\n{proc.stdout}"
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, sorted(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        printed = [ln.split() for ln in lines[:-1]]
        assert [m["name"], m["unit"]] in [[p[0], p[-1]] for p in printed if p], m["name"]
    return result["metrics"]


def exact_counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "bytes") or k.endswith("_per_task")}


def test_workloads():
    for workload in ("solve-small", "solve-large", "check"):
        for trace in (0, 1):
            first = exact_counts(check_run(workload, trace))
            second = exact_counts(check_run(workload, trace))
            assert first == second, f"{workload} trace={trace}: counts differ {first} {second}"
        print(f"ok  {workload}: metrics, units, correctness and exact counts")


def test_gate_trips():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    counter = workloads.AlmCounter.install()
    with tempfile.TemporaryDirectory(dir=HERE / ".out") as tmp:
        tasks = {t.kind: t for t in workloads.build("check", SEED, tmp, True, counter)}
        task = tasks["dualqual(example_3_2)"]
        assert task.gate(task.run()).ok, "dualqual on example_3_2 should exit 1 as expected"
        task.expected_code = 0  # theory says the dual qualification fails here
        outcome = task.gate(task.run())
        assert not outcome.ok and not outcome.wrong, outcome
        task = tasks["sosc(example_3_2)"]
        task.expected_code = 1  # SOSC holds, so exit 0 contradicts this expectation
        outcome = task.gate(task.run())
        assert not outcome.ok and outcome.wrong, outcome
    print("ok  correctness gate trips on a wrong expected exit code")


def test_needs_source():
    with tempfile.TemporaryDirectory(dir=HERE / ".out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns(".out"))
        proc = run("solve-small", 0, cwd=tmp)
        assert proc.returncode != 0, "run.py succeeded without the package source"
        assert not proc.stdout.strip(), proc.stdout
    print("ok  run.py fails without the package source")


if __name__ == "__main__":
    (HERE / ".out").mkdir(exist_ok=True)
    test_gate_trips()
    test_needs_source()
    test_workloads()
    print("selftest passed")
