"""Command-line laboratory driver.

Every experiment the package supports is reachable as a subcommand.  A
run creates ``runs/<timestamp>_<command>/`` (root overridable via the
``ENSTRO_RUNS_DIR`` environment variable or ``--runs-dir``), fills it
with CSV/field/JSON outputs, and finishes by atomically writing
``manifest.json`` naming every output file, the fully resolved
configuration, and a pass/fail entry per assertion in scope.

Exit codes: 0 all assertions passed, 1 an assertion or run failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds_lab import (
    SWEEP_COLUMNS,
    SweepAbortedError,
    auto_grid,
    build_lower_bound_datum,
    characteristics_report,
    datum_family,
    dissipation_window,
    fit_power_law,
    nu_sweep,
)
from .burgers_solver import DIAGNOSTIC_COLUMNS, SolverConfig, simulate
from .conslaw_nd import GridSpecND, get_flux, nd_initial_datum, simulate_nd, write_field_nd
from .exact_oracles import heat_estimate_ratios, hopf_cole_solution
from .extremizers import (
    RECORD_COLUMNS,
    OptimConfig,
    default_seeds,
    finite_time_maximize,
    instantaneous_maximize,
)
from .field_core import Field1D, GridSpec1D, enstrophy, write_csv, write_field


class ConfigFileError(ValueError):
    """A configuration file entry is malformed, unknown, or mistyped."""


# ----------------------------------------------------------------------
# option schemas: name -> (type, default, help, least).  Before the run an
# int must be at least ``least``, a float finite and, where least is 0,
# positive; the library checks the bounds it owns (power-of-two grids, ...)
# ----------------------------------------------------------------------

_INIT_CHOICES = ("sine", "sine2", "mix", "lower-bound", "smoothed-step")

SCHEMAS: dict[str, dict[str, tuple[type, object, str, int | None]]] = {
    "simulate": {
        "nu": (float, 0.05, "viscosity", 0),
        "init": (str, "sine", f"initial datum, one of {_INIT_CHOICES}", None),
        "amp": (float, 0.9, "amplitude scale for the datum", None),
        "n_points": (int, 512, "grid points (power of two)", 8),
        "t_end": (float, 0.5, "final time", 0),
        "cfl": (float, 0.4, "CFL number", 0),
    },
    "oracle-check": {
        "nu": (float, 0.05, "viscosity", 0),
        "t": (float, 0.5, "comparison time", 0),
        "n_points": (int, 1024, "grid points", 8),
        "amp": (float, 1.0, "sine amplitude", None),
        "tol": (float, 1e-6, "relative L2 error tolerance", 0),
    },
    "heat-estimates": {
        "n_points": (int, 4096, "grid points for the test family", 8),
        "nu": (float, 1.0, "diffusivity", 0),
        "t_count": (int, 25, "log-spaced times in [1e-6, 1]", 1),
        "bound": (float, 0.75, "single constant both ratios must stay under", 0),
    },
    "sweep-nu": {
        "family": (str, "lower-bound", "datum family: lower-bound or sine", None),
        "nu_min": (float, 1e-3, "smallest viscosity", 0),
        "nu_max": (float, 10 ** -1.5, "largest viscosity", 0),
        "count": (int, 6, "number of log-spaced viscosities", 4),
        "t_end": (float, 2.0, "horizon for each run", 0),
        "n_points": (int, 0, "grid points; 0 = auto from the finest nu", 0),
    },
    "sweep-e0": {
        "nu": (float, 1.0, "viscosity", 0),
        "e0_min": (float, 16.0, "smallest initial enstrophy", 0),
        "e0_max": (float, 1024.0, "largest initial enstrophy", 0),
        "count": (int, 7, "number of log-spaced enstrophy levels", 1),
        "prefactors": (str, "0.5,1,2", "comma list: T = p / sqrt(E0)", None),
        "n_points": (int, 256, "grid points", 8),
        "max_iters": (int, 80, "ascent iterations per start", 1),
        "seeds": (int, 2, "multi-start seeds per (E0, prefactor)", 1),
    },
    "maximize-instant": {
        "e0": (float, 1.0, "enstrophy level of the sphere", 0),
        "nu": (float, 0.1, "viscosity", 0),
        "n_points": (int, 512, "grid points", 8),
        "max_iters": (int, 500, "ascent iterations", 1),
        "grad_tol": (float, 1e-7, "relative gradient-norm stop", 0),
    },
    "maximize-finite": {
        "e0": (float, 1.0, "enstrophy level of the sphere", 0),
        "nu": (float, 0.05, "viscosity", 0),
        "horizon": (float, 0.15, "objective time T", 0),
        "n_points": (int, 256, "grid points", 8),
        "max_iters": (int, 60, "ascent iterations", 1),
        "grad_tol": (float, 1e-6, "relative gradient-norm stop", 0),
        "seed_index": (int, 0, "which deterministic seed to start from", 0),
    },
    "lower-bound": {
        "n_points": (int, 1024, "grid points", 8),
    },
    "dissipation": {
        "nu": (float, 1e-3, "viscosity", 0),
        "eps": (float, 0.02, "window margin", 0),
        "n_points": (int, 0, "grid points; 0 = auto", 0),
    },
    "conslaw-nd": {
        "dim": (int, 2, "space dimension, 1 or 2", 1),
        "n_points": (int, 64, "cells per axis (power of two)", 8),
        "flux": (str, "", "flux name from the registry; empty = burgers<dim>d", None),
        "nu": (float, 0.01, "viscosity", 0),
        "t_end": (float, 0.1, "final time", 0),
        "init": (str, "product", "datum: product, diag, or mixed", None),
        "stride": (int, 1, "diagnostics thinning stride", 1),
    },
    "report": {},
}

_COMMON = {
    "config": (str, "", "key = value config file; flags override it", None),
    "runs_dir": (str, "", "run-directory root (default ./runs or ENSTRO_RUNS_DIR)", None),
    "seed": (int, 2025, "seed for deterministic multi-start fields", 0),
}


def load_config(path: str | Path, schema: dict) -> dict:
    """Parse a flat ``key = value`` file against the command's schema."""
    resolved: dict[str, object] = {}
    text = Path(path).read_text()
    valid = ", ".join(sorted(schema))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in schema:
            raise ConfigFileError(
                f"{path}:{lineno}: unknown config key {key!r}; "
                f"valid keys: {valid}"
            )
        typ = schema[key][0]
        try:
            resolved[key] = typ(value)
        except ValueError:
            raise ConfigFileError(
                f"{path}:{lineno}: could not parse {value!r} as "
                f"{typ.__name__} for key {key!r}"
            ) from None
    return resolved


# ----------------------------------------------------------------------
# run-directory and manifest plumbing
# ----------------------------------------------------------------------


def _make_run_dir(root: Path, command: str) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = root / f"{stamp}_{command}"
    path = base
    counter = 1
    while path.exists():
        path = Path(f"{base}-{counter}")
        counter += 1
    path.mkdir(parents=True)
    return path


class _RunDir:
    """A run directory that records the name of each output written to it."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.outputs: list[str] = []

    def file(self, name: str) -> Path:
        self.outputs.append(name)
        return self.path / name

    def json(self, name: str, obj) -> None:
        _write_json(self.file(name), obj)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, default=float) + "\n")


def _write_manifest(
    out: _RunDir,
    command: str,
    config: dict,
    seed: int,
    started: str,
    assertions: list[dict],
) -> None:
    for name in out.outputs:
        if not (out.path / name).exists():
            raise FileNotFoundError(
                f"manifest names missing output file {name!r}"
            )
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "seed": seed,
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "outputs": sorted(out.outputs),
        "assertions": assertions,
        "passed": all(a["passed"] for a in assertions),
    }
    tmp = out.path / "manifest.json.tmp"
    _write_json(tmp, manifest)
    os.replace(tmp, out.path / "manifest.json")


def _assertion(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _require(cfg: dict, name: str, ok: bool, rule: str) -> None:
    """Reject the value of flag ``name`` as a usage error unless ``ok``."""
    if not ok:
        raise ValueError(f"--{name.replace('_', '-')} {rule}, got {cfg[name]!r}")


def _check_ranges(cfg: dict, schema: dict) -> None:
    """Reject the first value outside the range its schema row declares."""
    for name, (typ, _, _, least) in schema.items():
        if typ is float:
            _require(cfg, name, math.isfinite(cfg[name]), "must be finite")
            _require(cfg, name, least is None or cfg[name] > least, "must be positive")
        elif typ is int:
            _require(cfg, name, cfg[name] >= least, f"must be at least {least}")


def _range_help(typ: type, least: int | None) -> str:
    """The range of a schema row, in the words of its errors."""
    if typ is not float:
        return "" if least is None else f"; must be at least {least}"
    return "; must be finite" + ("" if least is None else " and positive")


# ----------------------------------------------------------------------
# data constructors shared by subcommands
# ----------------------------------------------------------------------


def _initial_field(init: str, amp: float, grid: GridSpec1D) -> Field1D:
    x = grid.x
    if init == "sine":
        return Field1D(grid, amp * np.sin(2 * np.pi * x))
    if init == "sine2":
        return Field1D(grid, amp * np.sin(4 * np.pi * x))
    if init == "mix":
        vals = amp * (
            np.sin(2 * np.pi * x)
            + 0.5 * np.sin(4 * np.pi * x)
            + 0.25 * np.sin(6 * np.pi * x)
        )
        return Field1D(grid, vals)
    if init == "smoothed-step":
        vals = amp * np.tanh(np.sin(2 * np.pi * x) / 0.1)
        return Field1D(grid, vals - vals.mean())
    if init == "lower-bound":
        u0, _ = build_lower_bound_datum(grid)
        return Field1D(grid, amp * u0.values)
    raise ConfigFileError(
        f"unknown init {init!r}; valid: {', '.join(_INIT_CHOICES)}"
    )


def _monotone_assertions(diag) -> list[dict]:
    linf_ok = bool(
        np.all(np.diff(diag.linf) <= diag.linf[:-1] * 1e-8 + 1e-14)
    )
    tv_ok = bool(np.all(np.diff(diag.tv) <= 1e-6))
    return [
        _assertion(
            "sup_norm_nonincreasing",
            linf_ok,
            f"max |u| start {float(diag.linf[0])!r}",
        ),
        _assertion("tv_nonincreasing", tv_ok, f"TV start {float(diag.tv[0])!r}"),
    ]


# ----------------------------------------------------------------------
# subcommand implementations: (cfg, run directory, seed) -> assertions
# ----------------------------------------------------------------------


def _cmd_simulate(cfg: dict, out: _RunDir, seed: int):
    grid = GridSpec1D(cfg["n_points"])
    u0 = _initial_field(cfg["init"], cfg["amp"], grid)
    sim_cfg = SolverConfig(nu=cfg["nu"], t_end=cfg["t_end"], cfl=cfg["cfl"])
    traj, diag = simulate(u0, sim_cfg)
    write_field(u0, out.file("initial.dat"))
    write_field(traj.final, out.file("final.dat"))
    write_csv(out.file("diagnostics.csv"), DIAGNOSTIC_COLUMNS, diag.rows())
    checks = _monotone_assertions(diag)
    mean_ok = abs(float(traj.final.values.mean())) <= 1e-11
    checks.append(_assertion("mean_preserved", mean_ok, "zero mean at t_end"))
    return checks


def _cmd_oracle_check(cfg: dict, out: _RunDir, seed: int):
    grid = GridSpec1D(cfg["n_points"])
    u0 = Field1D(grid, cfg["amp"] * np.sin(2 * np.pi * grid.x))
    sim_cfg = SolverConfig(nu=cfg["nu"], t_end=cfg["t"])
    traj, diag = simulate(u0, sim_cfg)
    exact = hopf_cole_solution(u0, cfg["nu"], cfg["t"])
    error = float(np.sqrt(np.mean((traj.final.values - exact.values) ** 2)))
    scale = float(np.sqrt(np.mean(exact.values**2)))
    # a zero exact solution has no relative error; report the absolute one
    rel = error / scale if scale > 0.0 else error
    label = "relative L2 error" if scale > 0.0 else "L2 error (zero exact solution)"
    write_csv(out.file("diagnostics.csv"), DIAGNOSTIC_COLUMNS, diag.rows())
    out.json("report.json", {"rel_l2_error": rel, "tol": cfg["tol"]})
    return [
        _assertion(
            "matches_heat_kernel_solution",
            rel < cfg["tol"],
            f"{label} {rel:.3e} vs tol {cfg['tol']:.1e}",
        )
    ]


def _heat_family(grid: GridSpec1D, seed: int):
    x = grid.x
    rng = np.random.default_rng(seed)
    fields = [(f"mode{k}", np.sin(2 * np.pi * k * x)) for k in (1, 2, 5, 16)]
    fields.append(
        (
            "mix",
            np.sin(2 * np.pi * x)
            + 0.5 * np.sin(6 * np.pi * x)
            + 0.2 * np.cos(10 * np.pi * x),
        )
    )
    fields += [(f"step{w:g}", np.tanh(np.sin(2 * np.pi * x) / w)) for w in (0.02, 0.1)]
    for i in range(3):
        coeffs = rng.normal(size=8) / np.arange(1, 9)
        vals = np.zeros_like(x)
        for j, c in enumerate(coeffs):
            vals += c * np.sin(2 * np.pi * (j + 1) * x + rng.uniform(0, 2 * np.pi))
        fields.append((f"random{i}", vals))
    return [(name, Field1D(grid, v - v.mean())) for name, v in fields]


def _cmd_heat_estimates(cfg: dict, out: _RunDir, seed: int):
    grid = GridSpec1D(cfg["n_points"])
    family = _heat_family(grid, seed)
    ts = np.logspace(-6.0, 0.0, cfg["t_count"])
    rows = []
    worst1 = worst2 = 0.0
    for name, field in family:
        for t in ts:
            r1, r2 = heat_estimate_ratios(field, cfg["nu"], float(t))
            worst1, worst2 = max(worst1, r1), max(worst2, r2)
            rows.append((name, t, r1, r2))
    write_csv(out.file("ratios.csv"), ("field", "t", "r1", "r2"), rows)

    # closed-form single-mode anchor on a fine grid
    fine = GridSpec1D(16384)
    mode = Field1D(fine, np.sin(2 * np.pi * fine.x))
    cf_err = 0.0
    for t in (1e-4, 1e-3, 1e-2, 0.1):
        r1, r2 = heat_estimate_ratios(mode, 1.0, t)
        c1 = (np.pi / np.sqrt(2.0)) * np.exp(-4 * np.pi**2 * t) * t**0.25
        c2 = np.sqrt(2.0) * np.pi**2 * np.exp(-4 * np.pi**2 * t) * t**0.75
        cf_err = max(cf_err, abs(r1 - c1) / c1, abs(r2 - c2) / c2)
    report = {
        "max_r1": worst1,
        "max_r2": worst2,
        "bound": cfg["bound"],
        "closed_form_rel_err": cf_err,
    }
    out.json("report.json", report)
    return [
        _assertion(
            "ratios_bounded_by_one_constant",
            max(worst1, worst2) <= cfg["bound"],
            f"max r1 {worst1:.4f}, max r2 {worst2:.4f}, bound {cfg['bound']}",
        ),
        _assertion(
            "single_mode_closed_form",
            cf_err < 1e-8,
            f"worst relative deviation {cf_err:.3e}",
        ),
    ]


def _cmd_sweep_nu(cfg: dict, out: _RunDir, seed: int):
    nus = list(
        np.logspace(np.log10(cfg["nu_max"]), np.log10(cfg["nu_min"]), cfg["count"])
    )
    grid = GridSpec1D(cfg["n_points"]) if cfg["n_points"] else None
    run_cfg = SolverConfig(nu=cfg["nu_max"], t_end=cfg["t_end"])
    try:
        result = nu_sweep(cfg["family"], nus, run_cfg, grid)
    except SweepAbortedError as exc:
        write_csv(out.file("sweep.csv"), SWEEP_COLUMNS, exc.partial_rows)
        return [_assertion("all_sweep_points_ran", False, str(exc))]
    write_csv(out.file("sweep.csv"), SWEEP_COLUMNS, result.rows())
    out.json("summary.json", result.summary())
    return [
        _assertion("all_sweep_points_ran", True, f"{len(result)} viscosities"),
        _assertion(
            "lower_constant_positive",
            result.c_hat > 0.0,
            f"c_hat {result.c_hat:.6g}",
        ),
    ]


def run_sweep_e0(cfg: dict, seed: int) -> list[tuple[float, float, float]]:
    """Finite-time sweep rows (e0, best max E(T), best T), one per level."""
    try:
        prefactors = [float(tok) for tok in str(cfg["prefactors"]).split(",") if tok]
    except ValueError:
        prefactors = []  # rejected just below, naming the flag
    _require(cfg, "prefactors", min(prefactors, default=0) > 0, "must be positive")
    _require(cfg, "prefactors", math.isfinite(sum(prefactors)), "must be finite")
    e0s = np.logspace(np.log10(cfg["e0_min"]), np.log10(cfg["e0_max"]), cfg["count"])
    grid = GridSpec1D(cfg["n_points"])
    # every (level, prefactor, seed) ascent, marched as one stack
    levels, opt_cfgs, starts = [], [], []
    for level, e0 in enumerate(map(float, e0s)):
        seeds = default_seeds(grid, e0, count=cfg["seeds"], rng_seed=seed)
        for p in prefactors:
            opt_cfg = OptimConfig(
                e0=e0,
                nu=cfg["nu"],
                T=p / np.sqrt(e0),
                max_iters=cfg["max_iters"],
            )
            levels.extend([level] * len(seeds))
            opt_cfgs.extend([opt_cfg] * len(seeds))
            starts.extend(seeds)
    rows = [(float(e0), -np.inf, 0.0) for e0 in e0s]
    results = finite_time_maximize(opt_cfgs, grid, starts)
    for level, opt_cfg, (_, objective, _) in zip(levels, opt_cfgs, results):
        if objective > rows[level][1]:
            rows[level] = (opt_cfg.e0, float(objective), float(opt_cfg.T))
    return rows


def _cmd_sweep_e0(cfg: dict, out: _RunDir, seed: int):
    rows = run_sweep_e0(cfg, seed)
    write_csv(out.file("sweep.csv"), SWEEP_COLUMNS, rows)
    if len(rows) >= 4:
        slope, intercept, residual = fit_power_law([(r[0], r[1]) for r in rows])
    else:
        slope = intercept = residual = None  # too few points for a fit
    summary = {
        "slope": slope,
        "intercept": intercept,
        "residual": residual,
        "nu": cfg["nu"],
    }
    out.json("summary.json", summary)
    return [
        _assertion("all_sweep_points_ran", True, f"{len(rows)} enstrophy levels"),
        _assertion(
            "objectives_positive",
            all(r[1] > 0 for r in rows),
            "max E(T) positive on every row",
        ),
    ]


def _write_ascent(out: _RunDir, e0: float, optimum, key: str, value, record) -> dict:
    """Write an ascent's optimum, record and report; check its constraint."""
    write_field(optimum, out.file("optimum.dat"))
    write_csv(out.file("record.csv"), RECORD_COLUMNS, record.rows())
    report = {key: value, "converged": record.converged, "iterations": len(record)}
    out.json("report.json", report)
    e = enstrophy(np.fft.rfft(optimum.values), optimum.grid.n_points)
    residual = abs(e - e0) / e0
    return _assertion(
        "stays_on_enstrophy_sphere",
        residual <= 1e-8,
        f"relative constraint residual {residual:.2e}",
    )


def _optim_config(cfg: dict, horizon: float | None = None) -> OptimConfig:
    """The ascent settings of a maximize command."""
    return OptimConfig(
        e0=cfg["e0"],
        nu=cfg["nu"],
        T=horizon,
        max_iters=cfg["max_iters"],
        grad_tol=cfg["grad_tol"],
    )


def _cmd_maximize_instant(cfg: dict, out: _RunDir, seed: int):
    grid = GridSpec1D(cfg["n_points"])
    seeds = default_seeds(grid, cfg["e0"], rng_seed=seed)
    results = instantaneous_maximize([_optim_config(cfg)] * len(seeds), grid, seeds)
    optimum, rate, record = max(results, key=lambda r: r[1])  # first highest rate wins
    return [
        _write_ascent(out, cfg["e0"], optimum, "rate", rate, record),
        _assertion(
            "ascent_never_decreases",
            bool(np.all(np.diff(record.objective) >= -1e-12)),
            f"{len(record)} accepted steps",
        ),
    ]


def _cmd_maximize_finite(cfg: dict, out: _RunDir, seed: int):
    grid = GridSpec1D(cfg["n_points"])
    opt_cfg = _optim_config(cfg, cfg["horizon"])
    index = cfg["seed_index"]
    start = default_seeds(grid, cfg["e0"], count=index + 1, rng_seed=seed)[index]
    ((optimum, objective, record),) = finite_time_maximize([opt_cfg], grid, [start])
    first = float(np.asarray(record.objective)[0])
    return [
        _write_ascent(out, cfg["e0"], optimum, "objective", objective, record),
        _assertion(
            "never_worse_than_seed",
            objective >= first - 1e-12,
            f"objective {objective:.6g} vs seed {first:.6g}",
        ),
    ]


def _cmd_lower_bound(cfg: dict, out: _RunDir, seed: int):
    grid = GridSpec1D(cfg["n_points"])
    u0, capital_u = build_lower_bound_datum(grid)
    profile = Field1D(grid, u0.values / capital_u)
    rows = characteristics_report(profile)
    write_field(u0, out.file("datum.dat"))
    write_csv(
        out.file("characteristics.csv"),
        ("alpha", "t_star", "t_s", "admissible", "skipped"),
        ((r.alpha, r.t_star, r.t_s, int(r.admissible), int(r.skipped)) for r in rows),
    )
    e = float(enstrophy(np.fft.rfft(u0.values), grid.n_points))
    out.json("report.json", {"U": capital_u, "enstrophy": e})
    return [
        _assertion(
            "characteristics_admissible",
            all(r.admissible for r in rows),
            f"{len(rows)} sampled labels",
        )
    ]


def _cmd_dissipation(cfg: dict, out: _RunDir, seed: int):
    if cfg["n_points"]:
        grid = GridSpec1D(cfg["n_points"])
    else:
        grid = auto_grid("lower-bound", cfg["nu"])
    u0, capital_u = datum_family("lower-bound", grid)
    measured, reference = dissipation_window(u0, capital_u, cfg["nu"], cfg["eps"])
    report = {
        "measured": measured,
        "reference": reference,
        "ratio": measured / reference,
    }
    out.json("report.json", report)
    return [
        _assertion(
            "window_captures_dissipation",
            measured > 0.0,
            f"measured {measured:.6g}, ideal {reference:.6g}",
        )
    ]


def _cmd_conslaw_nd(cfg: dict, out: _RunDir, seed: int):
    # the manifest records the flux that ran
    cfg["flux"] = cfg["flux"] or f"burgers{cfg['dim']}d"
    grid = GridSpecND(cfg["dim"], cfg["n_points"])
    u0 = nd_initial_datum(cfg["init"], grid)
    flux = get_flux(cfg["flux"])
    sim_cfg = SolverConfig(
        nu=cfg["nu"], t_end=cfg["t_end"], sample_stride=cfg["stride"]
    )
    final, diag = simulate_nd(u0, flux, sim_cfg)
    write_field_nd(u0, out.file("initial.dat"))
    write_field_nd(final, out.file("final.dat"))
    # the 1-D schema extended by constant dim, L columns
    write_csv(
        out.file("diagnostics.csv"),
        (*DIAGNOSTIC_COLUMNS, "dim", "L"),
        (row + (grid.dim, 1.0) for row in diag.rows()),
    )
    return _monotone_assertions(diag)


def _cmd_report(cfg: dict, out: _RunDir, seed: int):
    entries = []
    for manifest_path in sorted(out.path.parent.glob("*/manifest.json")):
        if manifest_path.parent == out.path:
            continue
        data = json.loads(manifest_path.read_text())
        entries.append(
            {
                "run": manifest_path.parent.name,
                "command": data.get("command", "?"),
                "passed": bool(data.get("passed", False)),
                "failed_assertions": [
                    a["name"]
                    for a in data.get("assertions", [])
                    if not a.get("passed", False)
                ],
            }
        )
    out.json("report.json", entries)
    for entry in entries:
        status = "pass" if entry["passed"] else "FAIL"
        print(f"{status}  {entry['run']}  ({entry['command']})")
    return [
        _assertion(
            "all_recorded_runs_passed",
            all(e["passed"] for e in entries),
            f"{len(entries)} runs scanned",
        )
    ]


_COMMANDS = {
    "simulate": _cmd_simulate,
    "oracle-check": _cmd_oracle_check,
    "heat-estimates": _cmd_heat_estimates,
    "sweep-nu": _cmd_sweep_nu,
    "sweep-e0": _cmd_sweep_e0,
    "maximize-instant": _cmd_maximize_instant,
    "maximize-finite": _cmd_maximize_finite,
    "lower-bound": _cmd_lower_bound,
    "dissipation": _cmd_dissipation,
    "conslaw-nd": _cmd_conslaw_nd,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enstro",
        description="numerical laboratory for extremal enstrophy growth",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command, help=f"run the {command} experiment")
        for name, (typ, default, help_text, least) in {**_COMMON, **schema}.items():
            flag = "--" + name.replace("_", "-")
            p.add_argument(
                flag,
                type=typ,
                default=None,
                help=f"{help_text} (default: {default}{_range_help(typ, least)})",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    command = args.command
    schema = {**_COMMON, **SCHEMAS[command]}
    resolved = {name: spec[1] for name, spec in schema.items()}
    try:
        if args.config:
            resolved.update(load_config(args.config, schema))
        flags = {name: getattr(args, name) for name in schema}
        resolved.update({k: v for k, v in flags.items() if v is not None})
        root = resolved.pop("runs_dir") or os.environ.get("ENSTRO_RUNS_DIR") or "runs"
        out = _RunDir(_make_run_dir(Path(root), command))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    seed = int(resolved.pop("seed"))
    resolved.pop("config")
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    failure = 0
    try:
        _check_ranges({**resolved, "seed": seed}, schema)
        assertions = _COMMANDS[command](resolved, out, seed)
    except Exception as exc:
        # a ValueError or KeyError is a usage error, anything else a failed run
        usage = isinstance(exc, (ValueError, KeyError))
        detail = str(exc) if usage else f"{type(exc).__name__}: {exc}"
        print(f"error: {exc}" if usage else f"run failed: {exc}", file=sys.stderr)
        out.outputs.clear()
        assertions = [_assertion("run_completed", False, detail)]
        failure = 2 if usage else 1
    _write_manifest(out, command, resolved, seed, started, assertions)
    if failure:
        return failure
    for a in assertions:
        status = "pass" if a["passed"] else "FAIL"
        print(f"{status}  {a['name']}: {a['detail']}")
    print(f"run directory: {out.path}")
    return 0 if all(a["passed"] for a in assertions) else 1


if __name__ == "__main__":
    sys.exit(main())
