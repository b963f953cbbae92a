"""Tests of the benchmark's own machinery: spans, patching and the gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

cli = workloads.import_program()

import run  # noqa: E402
import spans  # noqa: E402

# 128 points resolve the default simulate datum; about 15 steps
TINY = workloads.Workload(
    "tiny",
    ("simulate", "--n-points", "128", "--t-end", "0.05"),
    "test op",
    lambda run_dir: {
        "enstrophy": workloads._csv_columns(run_dir / "diagnostics.csv")["enstrophy"][-1:]
    },
)


@pytest.fixture
def tiny_reference(tmp_path_factory):
    """TINY's key results, read from one plain CLI run."""
    runs = tmp_path_factory.mktemp("reference")
    assert cli.main([*TINY.argv, "--runs-dir", str(runs), "--seed", "1"]) == 0
    (run_dir,) = runs.iterdir()
    return TINY.results(run_dir)


def _bindings() -> dict[tuple[str, str], object]:
    names = ["numpy.fft", *(n for n in sys.modules if n == "enstro" or n.startswith("enstro."))]
    return {(n, attr): v for n in names for attr, v in vars(sys.modules[n]).items()}


def test_self_time_never_exceeds_span_duration(tmp_path, tiny_reference):
    tracer = spans.Tracer()
    with tracer.patched():
        result = workloads.run_op(cli.main, TINY, 1, tmp_path, tiny_reference, span=tracer.op)
    assert result.failure == ""
    duration, self_s = tracer.self_times()
    assert len(duration) > 100
    assert (self_s >= 0.0).all()
    assert (self_s <= duration).all()
    root = np.flatnonzero(tracer.arrays()["parent"] < 0)
    assert len(root) == 1
    # every span hangs under the op, so self times add up to its duration
    assert self_s.sum() == pytest.approx(duration[root[0]], rel=1e-9)
    metrics = spans.layer_metrics(tracer, 1.0)
    assert metrics["burgers_solver.step_spectral.calls"] > 0
    assert metrics["fft.calls"] > metrics["burgers_solver.step_spectral.calls"]


def test_patched_functions_are_restored(tmp_path, tiny_reference):
    import enstro.burgers_solver
    import enstro.extremizers

    before = _bindings()
    original = enstro.burgers_solver.step_spectral
    tracer = spans.Tracer()
    missing = spans.Target("gone", "enstro.burgers_solver", "no_such_function")
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.patched((*spans.TARGETS, missing)):
            assert enstro.extremizers.step_spectral is not original
            assert np.fft.rfft is not before[("numpy.fft", "rfft")]
            workloads.run_op(cli.main, TINY, 1, tmp_path, tiny_reference, span=tracer.op)
            raise RuntimeError("raised inside the traced block")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert enstro.extremizers.step_spectral is original
    assert tracer.missing == ["enstro.burgers_solver.no_such_function"]


def test_gate_rejects_perturbed_result(tmp_path, tiny_reference):
    assert workloads.run_op(cli.main, TINY, 1, tmp_path, tiny_reference).failure == ""
    perturbed = {"enstrophy": [tiny_reference["enstrophy"][0] * (1 + 1e-7)]}
    failure = workloads.run_op(cli.main, TINY, 1, tmp_path, perturbed).failure
    assert failure.startswith("result differs from reference")
    assert not list(tmp_path.iterdir())  # run directories are deleted

    for name, ref in workloads.load_reference().items():
        tol = workloads.WORKLOADS[name].rel_tol
        assert workloads.compare(ref, ref, tol) == []
        key = sorted(ref)[0]
        bad = {**ref, key: [v * 3.0 + 1e-300 for v in ref[key]]}
        assert workloads.compare(bad, ref, tol)
        assert workloads.compare({**ref, key: ref[key][:-1]}, ref, tol)


def test_program_outside_the_checkout_is_refused(tmp_path):
    with pytest.raises(workloads.ProgramMissing):
        workloads.import_program(tmp_path)


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS
    )
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }

