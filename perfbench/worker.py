"""One benchmark process: import the package, build a workload's task
pool from its seed, run the pool for a fixed number of passes as a
closed loop and print the measured figures as one JSON line.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
With --setup-only it stops after the pool is built, which is how run.py
samples set-up time.  With --trace 1 it first runs a quarter of the
passes untraced, then installs the tracer, builds the pool again under it
and runs the rest traced; the per-layer figures come from the traced
passes.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"
UNTRACED_SHARE = 0.25   # of the passes, in a traced run
MIN_PASSES = 3
# Host speed.  Between tasks, about every REF_EVERY_S seconds, the worker
# times a fixed reference loop that calls nothing of the package.  Its
# median time over REF_S, its median on a quiet shared 2-core x86-64 host
# (BLAS on one thread), is the host's slowdown during the run, and the
# timing metrics are scaled by the slowdown to the power REF_EXPONENT:
# they are then in seconds of that quiet host.  Co-tenants of a shared
# host slow a run by a share that changes from minute to minute, by up to
# 50%; timing the loop between chunks of tasks for two minutes per
# workload, the log of a chunk's time followed the log of the loop's with
# slopes 0.86 (solve-small), 0.68 (solve-large) and 0.82 (check).
REF_EVERY_S = 1.0
REF_S = 0.040
REF_EXPONENT = 0.75


@functools.lru_cache(maxsize=None)
def _reference_inputs():
    # numpy is imported here, so that `import_s` still times its import
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 20))
    return np, a @ a.T + 20.0 * np.eye(20), rng.standard_normal((400, 200))


def reference_loop() -> float:
    """Seconds of a fixed piece of work of the benchmark's kind: small
    numpy calls from Python loops, then dense products and Cholesky."""
    np, a, b = _reference_inputs()
    t0 = time.perf_counter()
    for _ in range(2000):
        x = np.linalg.solve(a, a[0])
        s = 0.0
        for v in x.tolist():
            s += v * v
        np.linalg.norm(np.concatenate(([s], x[1:])))
    for _ in range(8):
        np.linalg.cholesky(b.T @ b)
    return time.perf_counter() - t0


# Seconds one pass takes on a shared 2-core x86-64 host (BLAS on one
# thread); a run makes --seconds / PASS_S passes, however long they take,
# so that `attempted` and `failed` depend on the seed only.
PASS_S = {"solve-small": 1.3, "solve-large": 3.2, "check": 4.5}


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one task per kind, two passes (self-test)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    return ap.parse_args(argv)


class Pass:
    def __init__(self, span_lo):
        self.latencies = []
        self.outcomes = []
        self.ref_s = []     # times of the reference loop during the pass
        self.span = (span_lo, span_lo)

    @property
    def ok(self):
        return sum(o.ok for o in self.outcomes)


def pass_count(workload, seconds, quick=False) -> int:
    """Passes of one run: a fixed amount of work per workload and
    --seconds, so that `attempted` and `failed` depend on the seed only."""
    if quick:
        return 2
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


class Loop:
    """Runs a pool in passes and gates every task after its pass.

    `refs` holds, per pool index, the counts and output fingerprint of the
    first run of that task in this process; later runs must match them
    exactly (the exact-count self-check), traced or not.
    """

    def __init__(self):
        self.refs = {}
        self.problems = []          # self-check violations, for the report
        self.failures = Counter()   # "kind: detail" of every failed task
        self.task_id = 0

    def run(self, tasks, passes, tracer=None):
        """Run `passes` whole passes."""
        clock = time.perf_counter
        call = (lambda t: t.run()) if tracer is None else tracer.wrap(lambda t: t.run(), "bench.task")
        done = []
        next_ref = clock()
        while len(done) < passes:
            cur = Pass(len(tracer.start) if tracer else 0)
            outputs = []
            for task in tasks:
                if clock() >= next_ref:
                    cur.ref_s.append(reference_loop())
                    next_ref = clock() + REF_EVERY_S
                if tracer:
                    tracer.task_id = self.task_id
                self.task_id += 1
                t0 = clock()
                try:
                    out = call(task)
                except Exception as exc:  # the gate records it as a failure
                    out = exc
                cur.latencies.append(clock() - t0)
                outputs.append(out)
            if tracer:
                from tracer import GATE_TASK
                cur.span = (cur.span[0], len(tracer.start))
                tracer.task_id = GATE_TASK
            for i, (task, out) in enumerate(zip(tasks, outputs)):
                outcome = task.gate(out)
                self._compare(i, task, outcome)
                if not outcome.ok:
                    self.failures[f"{task.kind}: {outcome.detail}"] += 1
                cur.outcomes.append(outcome)
            done.append(cur)
        return done

    def _compare(self, i, task, outcome):
        key = ((outcome.outer, outcome.newton), outcome.fingerprint)
        ref = self.refs.setdefault(i, key)
        if ref[0] != key[0]:
            outcome.ok, outcome.wrong = False, True
            self.problems.append(f"{task.kind}: counts {key[0]} differ from first run {ref[0]}")
        elif ref[1] != key[1]:
            outcome.ok, outcome.wrong = False, True
            self.problems.append(f"{task.kind}: output differs from its first run")


def end_to_end(passes, tasks) -> dict:
    # each task's median over the passes: a pass slowed by the host moves
    # the estimate of one sample per task, not the whole run
    task_s = [statistics.median(p.latencies[i] for p in passes) for i in range(len(tasks))]
    lat = [t for p in passes for t in p.latencies]
    # iterations to a solution: tasks that ran the ALM and passed the gate
    solving = [o for o in passes[0].outcomes if o.solving and o.ok]
    n_solving = max(1, len(solving))
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(not o.ok for p in passes for o in p.outcomes)
    rate = statistics.mean(p.ok for p in passes) / sum(task_s)
    p50 = 1e3 * statistics.median(lat)
    p90 = 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8]
    slowdown = statistics.median(r for p in passes for r in p.ref_s) / REF_S
    scale = slowdown ** REF_EXPONENT
    out = {
        "tasks_per_s": (rate * scale, "1/s"),
        "latency_p50_ms": (p50 / scale, "ms"),
        "latency_p90_ms": (p90 / scale, "ms"),
        "host.slowdown": (slowdown, "ratio"),
        "raw.tasks_per_s": (rate, "1/s"),
        "raw.latency_p50_ms": (p50, "ms"),
        "raw.latency_p90_ms": (p90, "ms"),
        "failed_share": (failed / attempted, "ratio"),
        "outer_iters_per_task": (sum(o.outer for o in solving) / n_solving, "count"),
        "newton_steps_per_task": (sum(o.newton for o in solving) / n_solving, "count"),
        "completed_tasks": (len(lat), "count"),
        "passes": (len(passes), "count"),
    }
    by_kind = {}
    for task, t in zip(tasks, task_s):
        by_kind.setdefault(task.kind, []).append(t)
    out["mix"] = {k: (len(v), 1e3 * statistics.median(v), 1e3 * sum(v))
                  for k, v in sorted(by_kind.items())}
    heavy = [i for i, t in enumerate(tasks) if getattr(t, "expected_method", "")]
    if heavy:
        out["wholecone_share"] = (sum(task_s[i] for i in heavy) / sum(task_s), "ratio")
    return out


def per_layer(tracer, passes, setup_build_s, problems) -> dict:
    """Per-layer figures of one traced pass: medians over the passes
    for times; counts come from the first pass, and a pass whose counts
    differ is reported in `problems`."""
    from tracer import summarize
    per_pass = [_pass_layers(summarize(tracer, *p.span), p) for p in passes]
    out = {}
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit in ("count", "bytes"):
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: {values}")
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(values), unit)
    out["model.build_s"] = (out["model.build_s"][0] + setup_build_s, "s")
    return out


def _pass_layers(s, p) -> dict:
    from tracer import CONE_KERNELS, LAYERS, ORACLES
    calls, self_s, total_s = s["calls"], s["self_s"], s["total_s"]

    def c(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    newton = sum(o.newton for o in p.outcomes)
    outer = sum(o.outer for o in p.outcomes)
    cone = [f"cone.{k}" for k in CONE_KERNELS]
    oracles = [f"model.{o}" for o in ORACLES]
    out = {
        "cone.calls": (sum(c(n) for n in cone), "count"),
        "cone.self_s": (t(*cone), "s"),
        "cone.us_per_call": (1e6 * ratio(t(*cone), sum(c(n) for n in cone)), "us"),
    }
    out.update({f"model.calls.{o}": (c(f"model.{o}"), "count") for o in ORACLES})
    builds = [n for n in calls if n.startswith("model.build.")]
    out.update({
        "model.self_s": (t(*oracles), "s"),
        "model.build_s": (t(*builds), "s"),
        "model.oracle_calls_per_newton_step": (ratio(sum(c(n) for n in oracles), newton), "ratio"),
    })
    for fn in ("aug_lagrangian", "residual", "aug_hessian"):
        out[f"lagrangian.{fn}.calls"] = (c(f"lagrangian.{fn}"), "count")
        out[f"lagrangian.{fn}.self_s"] = (t(f"lagrangian.{fn}"), "s")
    attempts = c("alm.cho_factor")
    trials = s["linesearch_evals"] - c("alm.inner_solve")
    out.update({
        "alm.outer_iters": (outer, "count"),
        "alm.newton_steps": (newton, "count"),
        "alm.self_s": (t("alm.solve", "alm.inner_solve", "alm.update_multiplier"), "s"),
        "alm.factorizations": (attempts - s["cho_failures"], "count"),
        "alm.factor_s": (t("alm.cho_factor", "alm.cho_solve"), "s"),
        "alm.factor_attempts_per_newton_step": (ratio(attempts, newton), "ratio"),
        "alm.linesearch_accept_ratio": (ratio(newton, trials), "ratio"),
        "variational.check_sosc.self_s": (t("variational.check_sosc"), "s"),
        "variational.check_dual_qualification.self_s":
            (t("variational.check_dual_qualification"), "s"),
        "variational.sampled_calls": (s["sampled_sosc"], "count"),
    })
    for fn in ("certify_growth", "verify_error_bound", "estimate_rate", "example32_ratio"):
        out[f"diagnostics.{fn}.self_s"] = (t(f"diagnostics.{fn}"), "s")
    sampler_s = (total_s.get("diagnostics.certify_growth", 0.0)
                 + total_s.get("diagnostics.verify_error_bound", 0.0))
    out["diagnostics.points_per_s"] = (ratio(s["sampled_points"], sampler_s), "1/s")
    out["cli.main.self_s"] = (t("cli.main"), "s")
    out["cli.bytes_written"] = (sum(o.report_bytes for o in p.outcomes), "bytes")
    task_s = total_s.get("bench.task", 0.0)
    for layer in LAYERS + ("bench",):
        layer_s = sum(v for n, v in self_s.items() if n.split(".", 1)[0] == layer)
        out[f"share.{layer}"] = (ratio(layer_s, task_s), "ratio")
    return out


def main(argv=None) -> int:
    args = _args(argv)
    t0 = time.perf_counter()
    import socalm.cli  # imports the whole package, as a CLI call does
    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(socalm.cli.__file__).resolve().parents:
        print(f"error: socalm was imported from {socalm.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    counter = workloads.AlmCounter.install() if args.workload == "check" else None
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        t0 = time.perf_counter()
        tasks = workloads.build(args.workload, args.seed, tmpdir, args.quick, counter)
        build_s = time.perf_counter() - t0
        setup = {"setup_s": time.monotonic() - args.spawned_at,
                 "import_s": import_s, "build_s": build_s}
        # the host's slowdown right after set-up, by which run.py scales it
        setup["slowdown"] = statistics.median(reference_loop() for _ in range(5)) / REF_S
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0

        loop = Loop()
        total = pass_count(args.workload, args.seconds, args.quick)
        untraced = max(1, round(total * UNTRACED_SHARE)) if args.trace else total
        passes = loop.run(tasks, untraced)
        metrics = end_to_end(passes, tasks)
        mix = metrics.pop("mix")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        if args.trace:
            from tracer import Tracer, setup_build_s
            tracer = Tracer()
            tracer.install()
            try:
                tasks = workloads.build(args.workload, args.seed, tmpdir, args.quick, counter)
                traced = loop.run(tasks, max(1, total - untraced), tracer)
            finally:
                tracer.uninstall()
            passes += traced
            untraced_rate = metrics["tasks_per_s"][0]
            metrics = per_layer(tracer, traced, setup_build_s(tracer), loop.problems)
            traced_e2e = end_to_end(traced, tasks)
            mix = traced_e2e["mix"]
            metrics["trace.overhead"] = (untraced_rate / traced_e2e["tasks_per_s"][0], "ratio")
            metrics["trace.spans"] = (len(tracer.start), "count")
            tracer.save(OUT_DIR / f"{args.workload}.spans.npz")

    outcomes = [o for p in passes for o in p.outcomes]
    print(json.dumps({
        "setup": setup,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "wrong": sum(o.wrong for o in outcomes),
        "problems": loop.problems[:20],
        "failures": dict(loop.failures),
        "mix": mix,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
