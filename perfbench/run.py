"""Benchmark of the socalm package: one workload, one seed, one run.

    python3 perfbench/run.py --workload {solve-small,solve-large,check} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Every process starts a fresh interpreter with BLAS
pinned to one thread (the environment of this process is left alone):
the measuring process, and SETUP_PROBES processes that only import the
package and build the inputs, half of them before the measuring process
and half after it, so that the median set-up time spans the whole run.
Each process scales its set-up time, like the timing metrics, by the
host's slowdown (see worker.py).
The metrics printed are the ones BENCHMARK.json names: its `end_to_end`
list with --trace 0 and its `per_layer` list with --trace 1.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_EXPONENT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6   # half before the measuring process, half after it
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("solve-small", "solve-large", "check"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true",
                    help="one task per kind, two passes, one set-up probe (for selftest.py)")
    return ap.parse_args(argv)


def _worker(args, *extra, timeout):
    """Run worker.py to completion and return its JSON line."""
    env = {**os.environ, **PINNED, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), *(["--quick"] if args.quick else []), *extra]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_probes(args, k):
    return [_worker(args, "--setup-only", timeout=120)["setup"] for _ in range(k)]


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "socalm" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'socalm'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        before = _setup_probes(args, 1 if args.quick else SETUP_PROBES // 2)
        run = _worker(args, timeout=3 * args.seconds + 60)
        after = _setup_probes(args, 0 if args.quick else SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups = before + [run["setup"]] + after
    metrics = dict(run["metrics"])
    metrics["setup_s"] = {"value": statistics.median(
        s["setup_s"] / s["slowdown"] ** REF_EXPONENT for s in setups), "unit": "s"}
    metrics["raw.setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups),
                              "unit": "s"}
    metrics["cli.import_s"] = {"value": statistics.median(s["import_s"] for s in setups),
                               "unit": "s"}
    for name in sorted(metrics):
        print(f"{name:<46} {metrics[name]['value']:<24.6g} {metrics[name]['unit']}")
    print(f"{'task kind':<30} {'per pass':>8} {'median ms':>10} {'ms per pass':>12}")
    for kind, (count, median_ms, pass_ms) in run["mix"].items():
        print(f"{kind:<30} {count:>8} {median_ms:>10.3f} {pass_ms:>12.1f}")
    print(f"failed {run['failed']} of {run['attempted']} attempted tasks "
          f"({run['wrong']} with a wrong or irreproducible output)")
    for what, times in sorted(run["failures"].items()):
        print(f"  failed x{times}: {what}")
    for problem in run["problems"]:
        print(f"  self-check: {problem}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    wrong_unit = [m["name"] for m in wanted
                  if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]]
    if missing or wrong_unit:
        print(f"error: metrics missing {missing}, with another unit {wrong_unit}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run["wrong"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
