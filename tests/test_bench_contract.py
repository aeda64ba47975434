"""Smoke test of the contract between the package and the benchmark in
`perfbench/`: every module attribute the benchmark's tracer binds exists,
and the quick `solve-small` pool passes its correctness gates, untraced
and traced, with the same counts and outputs.  The benchmark's files are
imported as they are, through sys.path."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer as bench_tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _run_pool(tmp_path):
    """Gate outcomes of one pass of the quick solve-small pool, run the
    way the benchmark's worker runs it (an exception goes to the gate)."""
    tasks = workloads.build("solve-small", SEED, str(tmp_path), quick=True)
    outcomes = []
    for task in tasks:
        try:
            out = task.run()
        except Exception as exc:
            out = exc
        outcomes.append(task.gate(out))
    return [t.kind for t in tasks], outcomes


def test_tracer_binds_every_attribute():
    tracer = bench_tracer.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.names, "the tracer bound nothing"


def test_quick_solve_small_pool_passes_its_gates(tmp_path):
    kinds, plain = _run_pool(tmp_path)
    assert kinds and not [(k, o.detail) for k, o in zip(kinds, plain) if o.wrong]
    tracer = bench_tracer.Tracer()
    tracer.install()
    tracer.task_id = 0  # spans count as a measured task's
    try:
        traced_kinds, traced = _run_pool(tmp_path)
    finally:
        tracer.uninstall()
    assert traced_kinds == kinds
    assert not [(k, o.detail) for k, o in zip(kinds, traced) if o.wrong]
    for kind, a, b in zip(kinds, plain, traced):
        assert (a.ok, a.outer, a.newton, a.fingerprint) == \
            (b.ok, b.outer, b.newton, b.fingerprint), kind
    spans = bench_tracer.summarize(tracer, 0, len(tracer.start))
    assert spans["calls"].get("alm.cho_factor", 0) > 0
