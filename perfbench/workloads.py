"""Workloads of the enstro benchmark, the op that runs one, and its gate.

An op is one in-process call of ``enstro.cli.main`` with a fresh
temporary ``--runs-dir`` and the workload seed as ``--seed``.  It fails
when the exit code is not 0, when any manifest assertion fails, or when a
key result differs from the value recorded in ``reference.json``.

The four configurations below do not read the seed: their inputs are
fixed analytic data, and ``sweep-e0 --seeds 1`` keeps only the first,
deterministic multi-start field.  One recorded reference therefore serves
every seed; ``record_reference.py`` checks this by running two seeds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance of the gate.  The program is deterministic, so at the
# reference commit every result repeats bit for bit; 1e-9 admits only
# last-digit changes from a reordered sum or a batched FFT.
REL_TOL = 1e-9

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no enstro sources to benchmark."""


def pin_blas_threads() -> None:
    """One BLAS thread, so an op never uses more than one core.

    Must run before numpy is first imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program(root: Path = ROOT):
    """Import ``enstro.cli`` from ``<root>/src``, never from elsewhere."""
    src = root / "src"
    if not (src / "enstro" / "cli.py").is_file():
        raise ProgramMissing(f"no enstro sources under {src}")
    sys.path.insert(0, str(src))
    import enstro.cli

    if Path(enstro.cli.__file__).resolve().parent != (src / "enstro").resolve():
        raise ProgramMissing(f"enstro was imported from {enstro.cli.__file__}")
    return enstro.cli


# ----------------------------------------------------------------------
# key results read back from a run directory
# ----------------------------------------------------------------------


def _csv_columns(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [float(r[name]) for r in rows] for name in rows[0]}


def _sweep_nu_results(run_dir: Path) -> dict[str, list[float]]:
    summary = json.loads((run_dir / "summary.json").read_text())
    return {
        "slope": [summary["slope"]],
        "c_hat": [summary["c_hat"]],
        "C_hat": [summary["C_hat"]],
        "e_star": _csv_columns(run_dir / "sweep.csv")["e_star"],
    }


def _oracle_results(run_dir: Path) -> dict[str, list[float]]:
    report = json.loads((run_dir / "report.json").read_text())
    return {"rel_l2_error": [report["rel_l2_error"]]}


def _finite_time_results(run_dir: Path) -> dict[str, list[float]]:
    return _csv_columns(run_dir / "sweep.csv")


def _fv2d_results(run_dir: Path) -> dict[str, list[float]]:
    cols = _csv_columns(run_dir / "diagnostics.csv")
    return {name: values[-1:] for name, values in cols.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    why: str
    results: Callable[[Path], dict[str, list[float]]]
    # per-key relative tolerance where REL_TOL does not apply
    rel_tol: dict[str, float] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_nu",
            ("sweep-nu",),
            "default sweep-nu: 6 small-N (1024) 1-D runs with a diagnostics "
            "row every step; per-call FFT overhead dominates",
            _sweep_nu_results,
        ),
        Workload(
            "oracle_fine",
            ("oracle-check", "--nu", "0.01", "--t", "0.25", "--n-points", "4096"),
            "one long large-N (4096) 1-D run keeping every snapshot, checked "
            "against the exact oracle; FFT throughput and memory",
            _oracle_results,
            # The error sits near the oracle's FFT round-off floor: a 1e-14
            # change of the datum amplitude moves it by up to 15%.
            rel_tol={"rel_l2_error": 0.5},
        ),
        Workload(
            "finite_time",
            ("sweep-e0", "--count", "4", "--prefactors", "1", "--seeds", "1"),
            "finite-time adjoint ascent (N=256, 4 enstrophy levels): forward "
            "marches, checkpointed adjoint and Armijo search, no diagnostics",
            _finite_time_results,
        ),
        Workload(
            "fv2d",
            ("conslaw-nd", "--n-points", "256", "--t-end", "0.025"),
            "2-D finite-volume Burgers at 256^2: MUSCL sweeps, flux copies and "
            "field writing, no FFT; control for spectral changes",
            _fv2d_results,
        ),
    )
}


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())["workloads"]


def compare(
    got: dict[str, list[float]],
    ref: dict[str, list[float]],
    rel_tol: dict[str, float] | None = None,
) -> list[str]:
    """Every key result that differs from its reference value."""
    rel_tol = rel_tol or {}
    if set(got) != set(ref):
        return [f"result keys {sorted(got)} differ from {sorted(ref)}"]
    bad = []
    for key, expected in ref.items():
        values = got[key]
        if len(values) != len(expected):
            bad.append(f"{key}: {len(values)} values, expected {len(expected)}")
            continue
        tol = rel_tol.get(key, REL_TOL)
        for i, (v, e) in enumerate(zip(values, expected)):
            if not math.isclose(v, e, rel_tol=tol, abs_tol=0.0):
                bad.append(f"{key}[{i}] = {v!r}, reference {e!r} (rel tol {tol:g})")
    return bad


def check_run(workload: Workload, code: int, runs_root: Path, ref: dict) -> str:
    """Why the op failed, or the empty string when it passed."""
    if code != 0:
        return f"exit code {code}"
    run_dirs = [p for p in runs_root.iterdir() if p.is_dir()]
    if len(run_dirs) != 1:
        return f"expected one run directory, found {len(run_dirs)}"
    run_dir = run_dirs[0]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
    if failed or not manifest["passed"]:
        return f"manifest assertions failed: {failed}"
    mismatches = compare(workload.results(run_dir), ref, workload.rel_tol)
    if mismatches:
        return "result differs from reference: " + "; ".join(mismatches)
    return ""


@dataclass(frozen=True)
class OpResult:
    seconds: float
    failure: str
    bytes_written: int


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_op(
    cli_main,
    workload: Workload,
    seed: int,
    tmp_root: Path,
    ref: dict,
    span=contextlib.nullcontext,
) -> OpResult:
    """Run, time and check one op; its run directory is deleted after."""
    runs_root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
    argv = [*workload.argv, "--runs-dir", str(runs_root), "--seed", str(seed)]
    seconds = math.nan
    written = 0
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            with span():
                code = cli_main(argv)
            seconds = perf_counter() - t0
        written = _bytes_under(runs_root)
        failure = check_run(workload, code, runs_root, ref)
    except Exception as exc:  # an op that crashes is counted, not raised
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(runs_root, ignore_errors=True)
    return OpResult(seconds, failure, written)
