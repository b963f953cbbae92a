"""Benchmark of the enstro command-line laboratory.

    python3 perfbench/run.py --workload sweep_nu --seed 1 --seconds 15 --trace 0

Runs ops of one workload (see ``workloads.py``) in this process, with one
BLAS thread, for at least ``--seconds`` seconds after one warm-up op, and
checks every op against the reference results.

``--trace 0`` reports the end-to-end metrics:

* ``op_s``: median wall time of one op;
* ``setup_s``: median time a fresh interpreter takes to import
  ``enstro.cli``, which every CLI call pays;
* ``peak_rss_mb``: peak resident set size of this process.

``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics of ``spans.LAYER_METRICS``, averaged per traced op, and
the tracing overhead (traced over untraced median op time).  The spans are
written to ``.perfbench_out/trace_<workload>.npz``.

Every metric is printed by name with its unit, together with the machine,
the commit, the seed and the reason the workload was chosen; the same
record goes to ``.perfbench_out/report_<workload>_trace<0|1>.json``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failed ops count
in ``failed`` (``fail_frac`` = failed / attempted) and are never dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

workloads.pin_blas_threads()

import numpy as np  # noqa: E402  (after pinning BLAS threads)

import spans  # noqa: E402

OUT_DIR = workloads.ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
MIN_TIMED_OPS = 3
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

_IMPORT_TIMER = (
    "import time; t0 = time.perf_counter(); import enstro.cli; "
    "print(time.perf_counter() - t0, enstro.cli.__file__)"
)


def setup_seconds(root: Path) -> float:
    """Time a fresh interpreter takes to import enstro.cli from root/src."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, path = proc.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to((root / "src").resolve()):
        raise workloads.ProgramMissing(f"enstro.cli imported from {path.strip()}")
    return float(seconds)


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine() -> dict:
    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def git_commit(root: Path) -> str:
    """HEAD of root, or 'unknown' when root is not a git checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Runs ops of one workload and keeps every result, failed or not."""

    def __init__(self, cli_main, workload, seed: int, tmp_root: Path, ref: dict):
        self.args = (cli_main, workload, seed, tmp_root, ref)
        self.results: list[workloads.OpResult] = []

    def __call__(self, span=contextlib.nullcontext) -> workloads.OpResult:
        result = workloads.run_op(*self.args, span=span)
        self.results.append(result)
        if result.failure:
            print(f"op failed: {result.failure}", file=sys.stderr)
        return result


def median_seconds(results) -> float:
    ok = [r.seconds for r in results if not r.failure]
    return statistics.median(ok) if ok else float("nan")


def untraced_run(run: Runner, seconds: float) -> tuple[dict, dict]:
    setup = [setup_seconds(workloads.ROOT) for _ in range(SETUP_SAMPLES + 1)]
    run()  # warm-up: imports, first-use caches
    timed = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(timed) < MIN_TIMED_OPS:
        timed.append(run())
    metrics = {
        "op_s": median_seconds(timed),
        # the first import also compiles bytecode, which users pay once
        "setup_s": statistics.median(setup[1:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "op_s_samples": [r.seconds for r in timed],
        "setup_s_samples": setup[1:],
    }
    return metrics, detail


def traced_run(run: Runner, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    run()  # warm-up
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not traced:
        plain.append(run())
        with tracer.patched():
            result = run(span=tracer.op)
        tracer.counters["cli.bytes_written"] += result.bytes_written
        traced.append(result)
    overhead = median_seconds(traced) / median_seconds(plain)
    metrics = spans.layer_metrics(tracer, overhead)
    tracer.save(trace_path)
    detail = {
        "untraced_op_s_samples": [r.seconds for r in plain],
        "traced_op_s_samples": [r.seconds for r in traced],
        "missing_functions": tracer.missing,
        "spans": len(tracer.start),
        "trace_file": str(trace_path.relative_to(workloads.ROOT)),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = workloads.import_program()
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tmp_root = OUT_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    run = Runner(cli.main, workload, args.seed, tmp_root, workloads.load_reference()[workload.name])

    if args.trace:
        values, detail = traced_run(run, args.seconds, OUT_DIR / f"trace_{workload.name}.npz")
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    else:
        values, detail = untraced_run(run, args.seconds)
        units = dict(END_TO_END)

    failed = sum(1 for r in run.results if r.failure)
    attempted = len(run.results)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "op": ["enstro", *workload.argv, "--seed", str(args.seed)],
        "seed": args.seed,
        "commit": git_commit(workloads.ROOT),
        "machine": machine(),
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": [r.failure for r in run.results if r.failure],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        **detail,
    }
    (OUT_DIR / f"report_{workload.name}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    for key in ("workload", "why", "op", "seed", "commit", "machine", *detail):
        print(f"{key}: {record[key]}")
    print(f"ops: {attempted} attempted, {failed} failed, fail_frac {record['fail_frac']:g}")
    for name, entry in record["metrics"].items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    if args.trace:
        print(
            "self-check: fft.calls_per_step is 21 at the reference commit on "
            f"sweep_nu and oracle_fine; here {values['fft.calls_per_step']:.3f}"
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
