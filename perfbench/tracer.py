"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side only: the tracer replaces
module attributes of the installed `socalm` package with wrappers, so a
call is traced exactly where a consumer module looks the function up.
No file of the package changes.  Every span stores its name, start, end,
parent span and task id in flat arrays kept in memory; `save` writes them
once the run has ended.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested (one thread), so the children never
overlap and that difference is exactly the uncovered part of the span.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

import socalm.alm
import socalm.cli
import socalm.diagnostics
import socalm.lagrangian
import socalm.model
import socalm.variational

CONE_KERNELS = ("project_q", "project_polar", "classify", "jacobian_project_polar")
LAGRANGIAN_FNS = ("aug_lagrangian", "aug_hessian", "residual", "lagrangian_l")
ORACLES = ("f_value", "f_grad", "f_hess", "phi_value", "phi_jac", "phi_hess_contract")
BUILDERS = ("generate_planted", "builtin", "load_problem")
DIAGNOSTICS_FNS = ("certify_growth", "verify_error_bound", "estimate_rate",
                   "example32_ratio", "dist_to_multiplier_set")
VARIATIONAL_FNS = ("check_sosc", "check_dual_qualification", "multiplier_calmness")
LAYERS = ("cone", "model", "lagrangian", "alm", "variational", "diagnostics", "cli")

# Task ids of spans recorded outside a measured task.
SETUP_TASK = -1
GATE_TASK = -2


def _bindings():
    """(module, attribute, span name) for every call site the tracer wraps.

    Cone kernels are traced as bound in their consumers, so calls inside
    the cone module stay part of the calling kernel.  The alm entry points
    are also traced inside alm, because `solve` reaches `inner_solve` and
    `update_multiplier` through alm's own globals.
    """
    alm, cli, diag = socalm.alm, socalm.cli, socalm.diagnostics
    lag, model, var = socalm.lagrangian, socalm.model, socalm.variational
    out = []
    for mod in (lag, alm, var, diag):
        out += [(mod, fn, f"cone.{fn}") for fn in CONE_KERNELS if hasattr(mod, fn)]
    for mod in (alm, var, diag, cli):
        out += [(mod, fn, f"lagrangian.{fn}") for fn in LAGRANGIAN_FNS if hasattr(mod, fn)]
    out += [(alm, fn, f"alm.{fn}") for fn in ("solve", "inner_solve", "update_multiplier",
                                             "cho_factor", "cho_solve")]
    out.append((diag, "inner_solve", "alm.inner_solve"))
    out += [(cli, fn, f"variational.{fn}") for fn in VARIATIONAL_FNS]
    out.append((diag, "check_sosc", "variational.check_sosc"))
    out += [(diag, fn, f"diagnostics.{fn}") for fn in DIAGNOSTICS_FNS]
    out += [(mod, fn, f"model.build.{fn}") for mod in (model, cli, diag)
            for fn in BUILDERS if hasattr(mod, fn)]
    out.append((cli, "main", "cli.main"))
    return out


class Tracer:
    """In-memory span recorder that patches the package while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("q")    # spans that ended with an exception
        self.sampled = array("q")   # check_sosc spans on the SampledPenalty path
        self.stack = [-1]
        self.task_id = SETUP_TASK
        self._saved = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)
        names, parents, tasks = self.name, self.parent, self.task
        starts, ends, stack, raised = self.start, self.end, self.stack, self.raised
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tasks.append(tracer.task_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_problem(self, p):
        """Copy of problem p whose six oracles are traced."""
        if hasattr(p.f_value, "__wrapped__"):
            return p
        return dataclasses.replace(
            p, **{o: self.wrap(getattr(p, o), f"model.{o}") for o in ORACLES})

    def _builder(self, fn, span_name):
        traced = self.wrap(fn, span_name)

        def build(*args, **kwargs):
            return self.wrap_problem(traced(*args, **kwargs))

        build.__wrapped__ = fn
        return build

    def _sosc(self, fn):
        traced = self.wrap(fn, "variational.check_sosc")
        starts, sampled = self.start, self.sampled

        def check_sosc(*args, **kwargs):
            idx = len(starts)
            report = traced(*args, **kwargs)
            if report.method == "SampledPenalty":
                sampled.append(idx)
            return report

        check_sosc.__wrapped__ = fn
        return check_sosc

    def install(self):
        for mod, attr, span_name in _bindings():
            original = getattr(mod, attr)
            if span_name.startswith("model.build."):
                patched = self._builder(original, span_name)
            elif span_name == "variational.check_sosc":
                patched = self._sosc(original)
            else:
                patched = self.wrap(original, span_name)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, patched)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def arrays(self):
        """Span arrays as numpy views (valid until more spans are recorded)."""
        return (np.frombuffer(self.name, dtype=np.intc),
                np.frombuffer(self.parent, dtype=np.intc),
                np.frombuffer(self.task, dtype=np.intc),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        name, parent, task, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 task=task, start=start, end=end)


def summarize(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-name counts, self and total times of spans lo..hi-1 that belong
    to measured tasks, plus the derived counters the report needs."""
    name, parent, task, start, end = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child
    sel = np.zeros(dur.size, dtype=bool)
    sel[lo:hi] = True
    sel &= task >= 0
    k = len(tracer.names)
    calls = np.bincount(name[sel], minlength=k)
    self_s = np.bincount(name[sel], weights=self_t[sel], minlength=k)
    total_s = np.bincount(name[sel], weights=dur[sel], minlength=k)
    ids = tracer._ids

    def spans_of(span_name):
        return sel & (name == ids.get(span_name, -1))

    def parent_is(mask, span_name):
        pid = ids.get(span_name, -1)
        return mask & has_parent & (name[np.where(has_parent, parent, 0)] == pid)

    cho = spans_of("alm.cho_factor")
    raised_cho = sum(1 for i in tracer.raised if lo <= i < hi and cho[i])
    linesearch_evals = int(np.count_nonzero(parent_is(spans_of("lagrangian.aug_lagrangian"),
                                                      "alm.inner_solve")))
    samplers = ("diagnostics.certify_growth", "diagnostics.verify_error_bound")
    sampled_points = sum(
        int(np.count_nonzero(parent_is(spans_of(fn), s)))
        for fn in ("lagrangian.aug_lagrangian", "lagrangian.residual") for s in samplers)
    return {
        "calls": {n: int(calls[i]) for i, n in enumerate(tracer.names)},
        "self_s": {n: float(self_s[i]) for i, n in enumerate(tracer.names)},
        "total_s": {n: float(total_s[i]) for i, n in enumerate(tracer.names)},
        "cho_failures": raised_cho,
        "linesearch_evals": linesearch_evals,
        "sampled_sosc": sum(1 for i in tracer.sampled if sel[i]),
        "sampled_points": sampled_points,
    }


def setup_build_s(tracer: Tracer) -> float:
    """Seconds spent in the problem builders while the pool was built."""
    name, parent, task, start, end = tracer.arrays()
    build = [i for i, n in enumerate(tracer.names) if n.startswith("model.build.")]
    sel = (task == SETUP_TASK) & np.isin(name, build)
    # builders nest (builtin -> generate_planted); count outermost spans only
    outer = sel & ~((parent >= 0) & np.isin(name[np.maximum(parent, 0)], build))
    return float((end - start)[outer].sum())
