"""Record the key results of every workload into reference.json.

    python3 perfbench/record_reference.py

Runs each workload's op with two seeds, requires both to pass their
manifest assertions and to give identical results (the configurations do
not read the seed), and writes the results with the commit they came from.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

workloads.pin_blas_threads()

from run import OUT_DIR, git_commit  # noqa: E402  (after pinning BLAS threads)


def record(cli_main, workload, seed: int, tmp_root: Path) -> dict:
    runs_root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
    try:
        code = cli_main([*workload.argv, "--runs-dir", str(runs_root), "--seed", str(seed)])
        (run_dir,) = [p for p in runs_root.iterdir() if p.is_dir()]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if code != 0 or not manifest["passed"]:
            raise SystemExit(f"{workload.name}: exit code {code}, manifest {manifest}")
        return workload.results(run_dir)
    finally:
        shutil.rmtree(runs_root, ignore_errors=True)


def main() -> int:
    cli = workloads.import_program()
    tmp_root = OUT_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    results = {}
    for workload in workloads.WORKLOADS.values():
        first, second = (record(cli.main, workload, seed, tmp_root) for seed in (1, 2))
        if first != second:
            raise SystemExit(f"{workload.name}: results depend on the seed")
        results[workload.name] = first
    reference = {"commit": git_commit(workloads.ROOT), "workloads": results}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
