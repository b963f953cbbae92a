"""Spans around calls into the enstro modules, recorded from outside.

The traced run replaces each target function, in every enstro module that
binds it and in ``numpy.fft``, with a wrapper that records one span per
call: label, start, end, parent span, op id and thread.  Spans live in
flat arrays in memory and are written out once, at the end of the run.
The originals are put back when the ``patched`` block exits.

A span's self time is its duration minus the durations of its direct
children.  Children run inside their parent on one thread, or, for a
sweep point on a ``--jobs 1`` worker thread, while the parent waits for
it, so self time is never negative and never exceeds the duration.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

import numpy as np

# label of the root span of every op, one enstro.cli.main call
OP = "cli"


@dataclasses.dataclass(frozen=True)
class Target:
    label: str
    module: str
    attr: str
    # probe(tracer, args, kwargs, result) -> result, run after the call
    probe: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.label = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.thread = array("i")
        self.counters: Counter[str] = Counter()
        self.missing: list[str] = []
        self.n_ops = 0
        self._op_span = -1
        self._stacks: dict[int, list[int]] = {}
        self._threads: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _open(self, label_id: int) -> tuple[int, list[int]]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
            self._threads[ident] = len(self._threads)
        idx = len(self.start)
        self.label.append(label_id)
        self.parent.append(stack[-1] if stack else self._op_span)
        self.op_id.append(self.n_ops - 1)
        self.thread.append(self._threads[ident])
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx, stack

    def wrap(self, fn: Callable, label: str, probe: Callable | None = None):
        label_id = self._label_id(label)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, stack = tracer._open(label_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                result = probe(tracer, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self):
        """Root span of one op; spans opened inside carry its op id."""
        self.n_ops += 1
        idx, stack = self._open(self._label_id(OP))
        self._op_span = idx
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            stack.pop()
            self._op_span = -1

    @contextmanager
    def patched(self, targets=None):
        """Wrap every target for the duration of the block, then restore."""
        try:
            for target in TARGETS if targets is None else targets:
                self._patch(target)
            yield self
        finally:
            for module, attr, original in reversed(self._restore):
                setattr(module, attr, original)
            self._restore.clear()

    def _patch(self, target: Target) -> None:
        home = sys.modules.get(target.module)
        original = getattr(home, target.attr, None)
        if original is None:
            name = f"{target.module}.{target.attr}"
            if name not in self.missing:
                self.missing.append(name)
            return
        wrapper = self.wrap(original, target.label, target.probe)
        enstro = [
            m for n, m in sys.modules.items() if n == "enstro" or n.startswith("enstro.")
        ]
        for module in [home, *enstro]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns; the live arrays keep growing."""
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "label": np.array(self.label, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op_id, dtype=np.int32),
            "thread": np.array(self.thread, dtype=np.int32),
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) of every span."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        children = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(children, a["parent"][has_parent], duration[has_parent])
        return duration, np.maximum(duration - children, 0.0)

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())


# ----------------------------------------------------------------------
# probes: counts read from arguments and results at the layer boundary
# ----------------------------------------------------------------------


def _fft_bytes(tracer, args, kwargs, result):
    tracer.counters["fft.bytes_computed"] += np.asarray(args[0]).nbytes + result.nbytes
    return result


def _snapshot_bytes(tracer, args, kwargs, result):
    trajectory = result[0]
    tracer.counters["burgers_solver.snapshot_bytes"] += sum(
        f.values.nbytes for f in trajectory.snapshots
    )
    return result


def _march_steps(tracer, args, kwargs, result):
    # only the gradient's march keeps checkpoints, and it always keeps step 0
    kind = "steps_gradient" if result[2] else "steps_objective"
    tracer.counters[f"extremizers.march_forward.{kind}"] += len(result[1])
    return result


def _accepted_steps(tracer, args, kwargs, result):
    record = result[2]
    tracer.counters["extremizers.accepted"] += len(record) - 1
    return result


def _traced_flux(tracer, args, kwargs, result):
    return dataclasses.replace(
        result,
        eval=tracer.wrap(result.eval, "conslaw_nd.flux"),
        deriv=tracer.wrap(result.deriv, "conslaw_nd.flux"),
    )


TARGETS = (
    *(Target("fft", "numpy.fft", name, _fft_bytes) for name in ("fft", "ifft", "rfft", "irfft")),
    Target("burgers_solver.simulate", "enstro.burgers_solver", "simulate", _snapshot_bytes),
    Target("burgers_solver.step_spectral", "enstro.burgers_solver", "step_spectral"),
    Target("burgers_solver.nonlinear", "enstro.burgers_solver", "_nonlinear"),
    Target("burgers_solver.diagnostics_row", "enstro.burgers_solver", "_diagnostics_row"),
    Target("field_core.norms", "enstro.field_core", "norms"),
    Target("field_core.derivative", "enstro.field_core", "derivative"),
    Target("extremizers.ascend", "enstro.extremizers", "_ascend", _accepted_steps),
    Target("extremizers.objective", "enstro.extremizers", "finite_time_objective"),
    Target("extremizers.objective", "enstro.extremizers", "rate_functional"),
    Target("extremizers.march_forward", "enstro.extremizers", "_march_forward", _march_steps),
    Target("extremizers.adjoint_step", "enstro.extremizers", "_adjoint_step"),
    Target("conslaw_nd.simulate_nd", "enstro.conslaw_nd", "simulate_nd"),
    Target("conslaw_nd.get_flux", "enstro.conslaw_nd", "get_flux", _traced_flux),
    Target("conslaw_nd.sweep", "enstro.conslaw_nd", "_sweep"),
    Target("conslaw_nd.laplacian", "enstro.conslaw_nd", "_laplacian"),
    Target("conslaw_nd.diagnostics_row_nd", "enstro.conslaw_nd", "_diagnostics_row_nd"),
    Target("conslaw_nd.write_field_nd", "enstro.conslaw_nd", "write_field_nd"),
    Target("exact_oracles.hopf_cole_solution", "enstro.exact_oracles", "hopf_cole_solution"),
    Target("bounds_lab.build_lower_bound_datum", "enstro.bounds_lab", "build_lower_bound_datum"),
)

# labels reported as <label>.calls, <label>.self_s and <label>.us_per_call
TIMED = (
    "burgers_solver.simulate",
    "burgers_solver.step_spectral",
    "burgers_solver.nonlinear",
    "burgers_solver.diagnostics_row",
    "field_core.norms",
    "field_core.derivative",
    "extremizers.ascend",
    "extremizers.march_forward",
    "extremizers.adjoint_step",
    "conslaw_nd.simulate_nd",
    "conslaw_nd.sweep",
    "conslaw_nd.flux",
    "conslaw_nd.laplacian",
    "conslaw_nd.diagnostics_row_nd",
    "conslaw_nd.write_field_nd",
    "exact_oracles.hopf_cole_solution",
    "bounds_lab.build_lower_bound_datum",
)

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("fft.calls", "count", "lower"),
    ("fft.self_s", "s", "lower"),
    ("fft.bytes_computed", "bytes", "lower"),
    ("fft.calls_per_step", "calls/step", "lower"),
    *(
        row
        for label in TIMED
        for row in (
            (f"{label}.calls", "count", "lower"),
            (f"{label}.self_s", "s", "lower"),
            (f"{label}.us_per_call", "us", "lower"),
        )
    ),
    ("burgers_solver.snapshot_bytes", "bytes", "lower"),
    ("extremizers.march_forward.steps_objective", "count", "lower"),
    ("extremizers.march_forward.steps_gradient", "count", "lower"),
    ("extremizers.armijo_backtracks", "count", "lower"),
    ("extremizers.accept_ratio", "ratio", "higher"),
    ("conslaw_nd.simulate_nd.steps", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Every LAYER_METRICS value, per traced op unless it is a ratio."""
    duration, self_s = tracer.self_times()
    a = tracer.arrays()
    label, parent = a["label"], a["parent"]
    ids = tracer._label_ids
    n_ops = max(tracer.n_ops, 1)

    def mask(name: str) -> np.ndarray:
        return label == ids.get(name, -1)

    def child_count(name: str, of: str) -> int:
        under = np.zeros(len(label), dtype=bool)
        has_parent = parent >= 0
        under[has_parent] = mask(of)[parent[has_parent]]
        return int(np.count_nonzero(mask(name) & under))

    out: dict[str, float] = {}
    for name in ("fft", *TIMED):
        m = mask(name)
        calls = int(np.count_nonzero(m))
        out[f"{name}.calls"] = calls / n_ops
        out[f"{name}.self_s"] = float(self_s[m].sum()) / n_ops
        out[f"{name}.us_per_call"] = 1e6 * float(duration[m].sum()) / calls if calls else 0.0
    steps = out["burgers_solver.step_spectral.calls"]
    out["fft.calls_per_step"] = out["fft.calls"] / steps if steps else 0.0
    out.pop("fft.us_per_call")
    c = tracer.counters
    for name in (
        "fft.bytes_computed",
        "burgers_solver.snapshot_bytes",
        "extremizers.march_forward.steps_objective",
        "extremizers.march_forward.steps_gradient",
        "cli.bytes_written",
    ):
        out[name] = c[name] / n_ops
    # the first objective call of an ascent evaluates its start, not a trial
    trials = child_count("extremizers.objective", of="extremizers.ascend") - int(
        np.count_nonzero(mask("extremizers.ascend"))
    )
    accepted = c["extremizers.accepted"]
    out["extremizers.armijo_backtracks"] = (trials - accepted) / n_ops
    out["extremizers.accept_ratio"] = accepted / trials if trials else 0.0
    out["conslaw_nd.simulate_nd.steps"] = (
        child_count("conslaw_nd.laplacian", of="conslaw_nd.simulate_nd") / n_ops
    )
    out["cli.self_s"] = float(self_s[mask(OP)].sum()) / n_ops
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _, _ in LAYER_METRICS}
