"""In-memory span tracer that wraps kinfp's public callables from outside.

Each wrapper replaces a callable at the module attribute its caller looks it
up from, records a span (name, start, end, parent) around the call, and is
removed again when the traced operation ends.  Nothing under ``src/`` knows
about it.  Spans stay in a preallocated buffer until ``Tracer.write``
dumps them once, at the end of the run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    # Spans go into one buffer allocated before the first traced call and kept
    # for the whole run, so recording a span allocates nothing on the C heap:
    # a growing Python list there would change where the stepper's temporaries
    # land and so its page faults, which are part of what is measured.
    CAPACITY = 1 << 20  # spans; the pages are touched only as spans fill them

    def __init__(self):
        # one row: name code, start, end, parent row, op index, extra a, extra b
        self._buf = np.empty((self.CAPACITY, 7))
        self._n = 0
        self.names: list[str] = []
        self._stack: list[int] = []
        self.op = -1
        self.op_bounds: list[tuple[float, float]] = []
        self.run_ends: list[float] = []  # when each cli.run call returned
        self.finalize_s: list[float] = []  # per command: run return -> command return
        self.snapshot_bytes: list[int] = []  # size of each snapshot file written
        self.missing: list[str] = []  # wrap targets the package no longer has

    # -- recording -------------------------------------------------------
    def _open(self, code: int) -> int:
        idx = self._n
        if idx == self.CAPACITY:
            raise RuntimeError("span buffer full")
        self._n = idx + 1
        buf = self._buf
        buf[idx, 0] = code
        buf[idx, 3] = self._stack[-1] if self._stack else -1
        buf[idx, 4] = self.op
        self._stack.append(idx)
        buf[idx, 1] = time.perf_counter()
        return idx

    def _close(self, idx: int, a=None, b=None) -> None:
        buf = self._buf
        buf[idx, 2] = time.perf_counter()
        buf[idx, 5] = math.nan if a is None else a
        buf[idx, 6] = math.nan if b is None else b
        self._stack.pop()

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def timed(self, name: str, fn, extra_fn=None):
        """Wrap ``fn`` so each call records a span; ``extra_fn(args, kwargs)``
        may attach one number to it (bytes written, points evaluated)."""
        code = self._code(name)

        def wrapper(*args, **kwargs):
            idx = self._open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, extra_fn(args, kwargs) if extra_fn else None)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_step(self, fn):
        """Like ``timed`` but also records minor faults and system time."""
        code = self._code("solver.step")

        def wrapper(*args, **kwargs):
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            idx = self._open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                r1 = resource.getrusage(resource.RUSAGE_SELF)
                self._close(idx, r1.ru_minflt - r0.ru_minflt, r1.ru_stime - r0.ru_stime)

        wrapper.__wrapped__ = fn
        return wrapper

    @property
    def spans(self) -> list[list]:
        """Recorded spans as [name, start, end, parent, extra, op] rows, where
        extra is None, one number, or the (faults, system s) pair of a step."""
        rows = []
        for code, start, end, parent, op, a, b in self._buf[: self._n].tolist():
            extra = None if a != a else (a if b != b else (a, b))  # NaN means unset
            rows.append([self.names[int(code)], start, end, int(parent), extra, int(op)])
        return rows

    @contextmanager
    def operation(self):
        """Bracket one benchmark operation (command, solve or search pass)."""
        self.op = len(self.op_bounds)
        start = time.perf_counter()
        self.op_bounds.append((start, 0.0))
        try:
            yield
        finally:
            end = time.perf_counter()
            self.op_bounds[self.op] = (start, end)
            run_ends = [t for t in self.run_ends if t >= start]
            if run_ends:
                self.finalize_s.append(end - run_ends[-1])

    # -- installation ----------------------------------------------------
    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        import kinfp.cli as cli
        import kinfp.diagnostics as diagnostics
        import kinfp.kernels as kernels
        import kinfp.solver as solver
        import kinfp.verify as verify

        def checkpoint_bytes(args, kwargs):  # write_checkpoint(field, step, path)
            return os.path.getsize(kwargs.get("path") or args[2])

        def npoints(args, kwargs):  # apply_Lstar_exact(x, v, ...)
            return int(args[0].size)

        def wrap_run(fn):
            def run(config, field0=None, sinks=None, start_step=0):
                if sinks is not None:
                    sinks = dataclasses.replace(
                        sinks,
                        snapshot=sinks.snapshot
                        and self.timed("cli.snapshot", sinks.snapshot),
                        diagnostics=sinks.diagnostics
                        and self.timed("cli.diagnostics_cb", sinks.diagnostics),
                    )
                try:
                    return fn(config, field0, sinks, start_step)
                finally:
                    self.run_ends.append(time.perf_counter())

            return self.timed("cli.run", run)

        targets = [
            (kernels, "transport_rhs_kernel", lambda f: self.timed("kernels.transport", f)),
            (kernels, "velocity_rhs_kernel", lambda f: self.timed("kernels.velocity", f)),
            (solver.Stepper, "step", self.timed_step),
            (cli, "run", wrap_run),
            (cli, "write_checkpoint",
             lambda f: self.timed("solver.checkpoint", f, checkpoint_bytes)),
            (cli, "density", lambda f: self.timed("cli.density", f)),
            (cli, "steady_state_reference", lambda f: self.timed("solver.steady", f)),
            (diagnostics, "mass", lambda f: self.timed("diagnostics.mass", f)),
            (diagnostics, "l1_distance", lambda f: self.timed("diagnostics.l1", f)),
            (verify, "find_certified_spec", lambda f: self.timed("verify.search", f)),
            (verify, "scan_drift_inequality", lambda f: self.timed("verify.scan", f)),
            (verify, "apply_Lstar_exact", lambda f: self.timed("model.lstar", f, npoints)),
            (verify, "lyapunov_weight", lambda f: self.timed("model.weight", f)),
            (verify, "phi", lambda f: self.timed("model.phi", f)),
        ]
        saved = []
        try:
            for owner, attr, make in targets:
                if not hasattr(owner, attr):
                    label = f"{getattr(owner, '__name__', owner)}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path, spans: list[list]) -> None:
        """Dump every span once, at the end of the run."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "extra", "op"],
                    "spans": spans,
                    "ops": self.op_bounds,
                },
                fh,
            )


# -- aggregation -------------------------------------------------------------


def _median(values, default=0.0):
    return float(statistics.median(values)) if values else default


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def layer_metrics(tracer: Tracer, spans: list[list], parse_ms: list[float],
                  overhead_s: float) -> dict:
    """Per-layer metrics of one traced run.

    Per-operation figures (calls, self time, bytes, counts) are medians over
    the traced operations; latency percentiles pool every span of the run.
    Self time is a span's duration minus the time its direct children cover.
    Each entry carries its sample count.
    """
    n_ops = len(tracer.op_bounds)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_t(i):
        return dur(i) - child_time[i]

    def n(name):
        return len(by_name.get(name, ()))

    def per_op(name, value_fn=lambda i: 1.0):
        """Median over operations of sum(value_fn(span)) for spans of name."""
        totals = [0.0] * n_ops
        for i in by_name.get(name, ()):
            totals[spans[i][5]] += value_fn(i)
        return _median(totals)

    def pooled_ms(name):
        return [1e3 * dur(i) for i in by_name.get(name, ())]

    out: dict[str, tuple[float, str, int]] = {}

    def put(key, value, unit, samples):
        out[key] = (float(value), unit, int(samples))

    for name in ("kernels.transport", "kernels.velocity"):
        put(f"{name}.calls", per_op(name), "count", n(name))
        put(f"{name}.ms_p50", _median(pooled_ms(name)), "ms", n(name))
        put(f"{name}.self_s", per_op(name, self_t), "s", n(name))

    step_ms = pooled_ms("solver.step")
    n_steps = len(step_ms)
    faults = sum(spans[i][4][0] for i in by_name.get("solver.step", ()))
    sys_s = sum(spans[i][4][1] for i in by_name.get("solver.step", ()))
    put("solver.step.ms_p50", _median(step_ms), "ms", n_steps)
    put("solver.step.ms_p90", _p90(step_ms), "ms", n_steps)
    put("solver.step.self_s", per_op("solver.step", self_t), "s", n_steps)
    put("solver.step.minflt_per_step", faults / n_steps if n_steps else 0.0, "count", n_steps)
    put("solver.step.sys_ms_per_step", 1e3 * sys_s / n_steps if n_steps else 0.0, "ms", n_steps)

    # steps and windows of a steady solve are the step and l1 spans nested in it
    steady_ids = set(by_name.get("solver.steady", ()))
    inside = {"solver.step": [0] * n_ops, "diagnostics.l1": [0] * n_ops}
    for s in spans:
        if s[0] in inside:
            p = s[3]
            while p >= 0 and p not in steady_ids:
                p = spans[p][3]
            if p >= 0:
                inside[s[0]][s[5]] += 1
    n_steady = n("solver.steady")
    put("solver.steady.steps", _median(inside["solver.step"]), "count", n_steady)
    put("solver.steady.windows", _median(inside["diagnostics.l1"]), "count", n_steady)
    put("solver.steady.self_s", per_op("solver.steady", self_t), "s", n_steady)

    ck = by_name.get("solver.checkpoint", [])
    put("solver.checkpoint.ms_p50", _median(pooled_ms("solver.checkpoint")), "ms", len(ck))
    put("solver.checkpoint.bytes", _median([spans[i][4] for i in ck]), "B", len(ck))

    # a diagnostics emission is the mass/l1 calls since the last callback,
    # closed by the Sinks.diagnostics callback that receives the record
    emit_ms: list[float] = []
    emit_self = [0.0] * n_ops
    emit_calls = [0] * n_ops
    pending = 0.0
    for i, s in enumerate(spans):
        if s[0] in ("diagnostics.mass", "diagnostics.l1"):
            pending += dur(i)
        elif s[0] == "solver.step":
            pending = 0.0
        elif s[0] == "cli.diagnostics_cb":
            emit_ms.append(1e3 * (pending + dur(i)))
            emit_self[s[5]] += pending
            emit_calls[s[5]] += 1
            pending = 0.0
    put("diagnostics.emit.calls", _median(emit_calls), "count", len(emit_ms))
    put("diagnostics.emit.ms_p50", _median(emit_ms), "ms", len(emit_ms))
    put("diagnostics.emit.self_s", _median(emit_self), "s", len(emit_ms))

    name = "cli.snapshot"
    put(f"{name}.calls", per_op(name), "count", n(name))
    put(f"{name}.ms_p50", _median(pooled_ms(name)), "ms", n(name))
    put(f"{name}.self_s", per_op(name, self_t), "s", n(name))
    put(f"{name}.bytes", _median(tracer.snapshot_bytes), "B", len(tracer.snapshot_bytes))
    put("cli.finalize_s", _median(tracer.finalize_s), "s", len(tracer.finalize_s))

    put("verify.scan.calls", per_op("verify.scan"), "count", n("verify.scan"))
    put("verify.scan.ms_p50", _median(pooled_ms("verify.scan")), "ms", n("verify.scan"))
    put("verify.search.self_s", per_op("verify.search", self_t), "s", n("verify.search"))
    for name in ("model.lstar", "model.weight", "model.phi"):
        put(f"{name}.self_s", per_op(name, self_t), "s", n(name))
    put("model.points", per_op("model.lstar", lambda i: spans[i][4]), "count", n("model.lstar"))

    put("config.parse_ms", _median(parse_ms), "ms", len(parse_ms))
    put("trace.overhead_s", overhead_s, "s", n_ops)
    return out
