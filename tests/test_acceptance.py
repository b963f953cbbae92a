"""Acceptance gate: one test per shipped claim, tolerances pinned.

Each test prints a single ``[PASS]``/``[FAIL]`` verdict line naming the
criterion and the measured numbers, then asserts.  Claims the current
method does not attain at the prescribed parameter ranges are left red
with the measurement in the message rather than loosened; the analysis
behind each red entry lives in the project notes, and the library-level
behavior backing it is covered by the per-module test suites.
"""

import time

import numpy as np
import pytest

from enstro.bounds_lab import datum_family, dissipation_window, fit_power_law, nu_sweep
from enstro.burgers_solver import SolverConfig, required_points, simulate, sup_enstrophy
from enstro.cli import run_sweep_e0
from enstro.conslaw_nd import GridSpecND, get_flux, nd_initial_datum, simulate_nd
from enstro.exact_oracles import heat_estimate_ratios, hopf_cole_solution
from enstro.extremizers import (
    OptimConfig,
    default_seeds,
    finite_time_gradient,
    finite_time_objective,
    instantaneous_maximize,
)
from enstro.field_core import Field1D, GridSpec1D

# Pinned verdict tolerances, stated once so every test reads the same way.
LINF_STEP_TOL = 1e-8  # relative per-step slack for the maximum principle
TV_STEP_TOL = 1e-6  # relative per-step slack for total variation


def _verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    print(line)
    return line


def _monotone(series, step_tol):
    return bool(np.all(np.diff(series) <= np.abs(series[:-1]) * step_tol + 1e-14))


@pytest.fixture(scope="module")
def sandwich_sweeps():
    """Viscosity sweep of the lower-bound datum at base and doubled N."""
    nus = [float(v) for v in np.logspace(-3.0, -1.5, 6)]
    cfg = SolverConfig(nu=nus[0], t_end=2.0)
    t0 = time.perf_counter()
    base = nu_sweep("lower-bound", nus, cfg)
    elapsed = time.perf_counter() - t0
    doubled = nu_sweep(
        "lower-bound", nus, cfg, grid=GridSpec1D(2 * required_points(min(nus), 0.1942))
    )
    return {"base": base, "doubled": doubled, "elapsed": elapsed}


class TestAcceptance:
    """The eleven shipped claims, strongest-form, pinned."""

    def test_criterion_01_oracle_equivalence(self):
        """sin(2 pi x), nu = 0.05, t = 0.5 on N = 1024: numerical vs exact."""
        grid = GridSpec1D(1024)
        u0 = Field1D(grid, np.sin(2 * np.pi * grid.x))
        t0 = time.perf_counter()
        traj, _ = simulate(u0, SolverConfig(nu=0.05, t_end=0.5))
        elapsed = time.perf_counter() - t0
        exact = hopf_cole_solution(u0, 0.05, 0.5)
        rel = float(
            np.sqrt(np.mean((traj.final.values - exact.values) ** 2))
            / np.sqrt(np.mean(exact.values**2))
        )
        ok = rel < 1e-6 and elapsed < 5.0
        detail = f"relative L2 error {rel:.3e} (< 1e-6), runtime {elapsed:.2f}s (< 5s)"
        assert _verdict(1, "oracle equivalence", ok, detail) and ok, detail

    def test_criterion_02_monotone_quantities(self):
        """20 runs (5 shapes x 4 viscosities): sup-norm and TV never increase."""
        shapes = {}
        grid0 = GridSpec1D(512)
        x = grid0.x
        shapes["mode1"] = np.sin(2 * np.pi * x)
        shapes["mode3"] = 0.5 * np.sin(6 * np.pi * x)
        shapes["mix"] = 0.6 * (
            np.sin(2 * np.pi * x)
            + 0.5 * np.sin(4 * np.pi * x)
            + 0.25 * np.sin(6 * np.pi * x)
        )
        step = np.tanh(np.sin(2 * np.pi * x) / 0.1)
        shapes["step"] = step - step.mean()
        failures = []
        cases = 0
        for nu in (1.0, 0.1, 0.01, 1e-3):
            for name in (*shapes, "lower-bound"):
                if name == "lower-bound":
                    linf = 0.1942
                else:
                    linf = float(np.abs(shapes[name]).max())
                grid = GridSpec1D(required_points(nu, linf))
                if name == "lower-bound":
                    u0, _ = datum_family("lower-bound", grid)
                else:
                    xs = grid.x
                    vals = np.interp(xs, x, shapes[name], period=1.0)
                    u0 = Field1D(grid, vals - vals.mean())
                _, diag = simulate(u0, SolverConfig(nu=nu, t_end=0.25))
                cases += 1
                if not _monotone(diag.linf, LINF_STEP_TOL):
                    failures.append(f"sup-norm up at ({name}, nu={nu:g})")
                if not _monotone(diag.tv, TV_STEP_TOL):
                    failures.append(f"TV up at ({name}, nu={nu:g})")
        ok = cases == 20 and not failures
        detail = (
            f"{cases} runs, per-step slack linf {LINF_STEP_TOL:g} / tv "
            f"{TV_STEP_TOL:g}; violations: {failures or 'none'}"
        )
        assert _verdict(2, "monotone quantities", ok, detail) and ok, detail

    def test_criterion_03_sharp_bound_sandwich(self, sandwich_sweeps):
        """Six log-spaced nu in [1e-3, 10^-1.5]: slope of e* vs 1/nu and c_hat."""
        result = sandwich_sweeps["base"]
        elapsed = sandwich_sweeps["elapsed"]
        _, capital_u = datum_family("lower-bound", GridSpec1D(512))
        floor = 0.1 * (2.0 / 3.0) * capital_u**3
        slope_ok = 0.85 <= result.slope <= 1.15
        chat_ok = result.c_hat > floor
        ok = slope_ok and chat_ok and elapsed < 600.0
        detail = (
            f"slope {result.slope:.4f} (target [0.85, 1.15]), c_hat "
            f"{result.c_hat:.4e} vs floor {floor:.4e}, sweep {elapsed:.0f}s"
        )
        assert _verdict(3, "sharp-bound sandwich", ok, detail) and ok, detail

    def test_criterion_04_dissipation_rate(self):
        """Window dissipation at nu = 1e-3, eps = 0.02 vs the ideal (2/3)U^3."""
        grid = GridSpec1D(required_points(1e-3, 0.1942))
        u0, capital_u = datum_family("lower-bound", grid)
        measured, reference = dissipation_window(u0, capital_u, 1e-3, 0.02)
        ratio = measured / reference
        ok = abs(ratio - 1.0) <= 0.10
        detail = (
            f"measured {measured:.4e}, ideal {reference:.4e}, ratio "
            f"{ratio:.4f} (target within 10%)"
        )
        assert _verdict(4, "dissipation rate", ok, detail) and ok, detail

    def test_criterion_05_gronwall_two_regime(self):
        """E below the short-time exponential envelope; nu*E bounded late."""
        early_worst = 0.0
        late_constant = 0.0
        for family in ("lower-bound", "sine"):
            for nu in (1.0, 0.1, 0.01, 1e-3):
                probe, _ = datum_family(family, GridSpec1D(512))
                linf = float(np.abs(probe.values).max())
                grid = GridSpec1D(required_points(nu, linf))
                u0, _ = datum_family(family, grid)
                # dense sampling of [0, nu]: force about eight steps
                cfl = min(0.4, max(nu * linf * grid.n_points / 8.0, 1e-3))
                _, diag = simulate(u0, SolverConfig(nu=nu, t_end=nu, cfl=cfl))
                e0 = float(diag.enstrophy[0])
                envelope = e0 * np.exp(diag.t / nu) * (1.0 + 1e-3)
                early_worst = max(
                    early_worst, float(np.max(diag.enstrophy / envelope))
                )
                _, diag_late = simulate(u0, SolverConfig(nu=nu, t_end=2.0))
                tail = diag_late.t > nu
                late_constant = max(
                    late_constant,
                    nu * float(np.max(diag_late.enstrophy[tail])),
                )
        ok = early_worst <= 1.0 and late_constant <= 1.0
        detail = (
            f"worst E / envelope {early_worst:.6f} (<= 1), late constant "
            f"sup nu*E {late_constant:.4f} (<= 1.0 pinned)"
        )
        assert _verdict(5, "gronwall + two-regime", ok, detail) and ok, detail

    def test_criterion_06_heat_estimates(self):
        """r1, r2 under one constant over family x t-grid; closed form to 1e-8."""
        grid = GridSpec1D(4096)
        x = grid.x
        rng = np.random.default_rng(2025)
        family = [np.sin(2 * np.pi * k * x) for k in (1, 2, 5, 16)]
        family.append(
            np.sin(2 * np.pi * x)
            + 0.5 * np.sin(6 * np.pi * x)
            + 0.2 * np.cos(10 * np.pi * x)
        )
        for w in (0.02, 0.1):
            family.append(np.tanh(np.sin(2 * np.pi * x) / w))
        for _ in range(3):
            v = np.zeros_like(x)
            for k in range(1, 9):
                v += rng.normal() / k * np.sin(
                    2 * np.pi * k * x + rng.uniform(0, 2 * np.pi)
                )
            family.append(v)
        worst = 0.0
        for vals in family:
            field = Field1D(grid, vals - vals.mean())
            for t in np.logspace(-6.0, 0.0, 25):
                r1, r2 = heat_estimate_ratios(field, 1.0, float(t))
                worst = max(worst, r1, r2)
        fine = GridSpec1D(16384)
        mode = Field1D(fine, np.sin(2 * np.pi * fine.x))
        closed_err = 0.0
        for t in (1e-4, 1e-3, 1e-2, 0.1):
            r1, r2 = heat_estimate_ratios(mode, 1.0, t)
            c1 = (np.pi / np.sqrt(2.0)) * np.exp(-4 * np.pi**2 * t) * t**0.25
            c2 = np.sqrt(2.0) * np.pi**2 * np.exp(-4 * np.pi**2 * t) * t**0.75
            closed_err = max(closed_err, abs(r1 - c1) / c1, abs(r2 - c2) / c2)
        ok = worst <= 0.75 and closed_err <= 1e-8
        detail = (
            f"max ratio {worst:.4f} (<= 0.75 pinned), closed-form deviation "
            f"{closed_err:.2e} (<= 1e-8)"
        )
        assert _verdict(6, "heat estimates", ok, detail) and ok, detail

    def test_criterion_07_adjoint_correctness(self):
        """Adjoint gradient vs central differences: 10 directions x 3 cases."""
        cases = [
            (256, lambda y: np.sin(2 * np.pi * y), 0.15, 0.05),
            (256, lambda y: np.sin(2 * np.pi * y) + 0.3 * np.sin(4 * np.pi * y), 0.10, 0.10),
            (128, lambda y: 0.4 * np.sin(4 * np.pi * y), 0.05, 0.02),
        ]
        rng = np.random.default_rng(17)
        worst = 0.0
        for n, shape, horizon, nu in cases:
            grid = GridSpec1D(n)
            v = shape(grid.x)
            v = 0.5 * v / np.abs(v).max()
            g = finite_time_gradient(Field1D(grid, v), horizon, nu).values
            eps = 1e-5
            for _ in range(10):
                phi = np.zeros(n)
                for k in range(1, 7):
                    phi += rng.normal() / k * np.sin(2 * np.pi * k * grid.x)
                    phi += rng.normal() / k * np.cos(2 * np.pi * k * grid.x)
                phi -= phi.mean()
                phi /= np.abs(phi).max()
                jp = finite_time_objective(Field1D(grid, v + eps * phi), horizon, nu)
                jm = finite_time_objective(Field1D(grid, v - eps * phi), horizon, nu)
                fd = (jp - jm) / (2 * eps)
                ip = float(np.sum(g * phi) * grid.dx)
                worst = max(worst, abs(fd - ip) / max(abs(fd), 1e-300))
        ok = worst < 1e-5
        detail = f"worst relative error over 30 probes {worst:.2e} (< 1e-5)"
        assert _verdict(7, "adjoint correctness", ok, detail) and ok, detail

    def test_criterion_08_instantaneous_rate_scaling(self):
        """Best rate over E0 in {1,4,16,64} x nu in {0.5,0.1}: power-law fit."""
        grid = GridSpec1D(512)
        e0s = (1.0, 4.0, 16.0, 64.0)
        nus = (0.5, 0.1)
        # every (E0, nu) point x 5 default seeds, ascended as one stack
        cfgs, seeds = [], []
        for e0 in e0s:
            starts = default_seeds(grid, e0)
            for nu in nus:
                cfgs += [OptimConfig(e0=e0, nu=nu, max_iters=600)] * len(starts)
                seeds += starts
        rates = {}
        for cfg, (_, rate, _) in zip(cfgs, instantaneous_maximize(cfgs, grid, seeds)):
            rates[(cfg.e0, cfg.nu)] = max(rates.get((cfg.e0, cfg.nu), -np.inf), rate)
        positive = all(r > 0 for r in rates.values())
        if positive:
            logs = np.array(
                [
                    (np.log(e0), np.log(nu), np.log(rates[(e0, nu)]))
                    for e0 in e0s
                    for nu in nus
                ]
            )
            design = np.column_stack(
                [logs[:, 0], -logs[:, 1], np.ones(len(logs))]
            )
            (a, b, _), *_ = np.linalg.lstsq(design, logs[:, 2], rcond=None)
            fit_ok = abs(a - 5.0 / 3.0) <= 0.15 and abs(b - 1.0 / 3.0) <= 0.1
            detail = f"fit a {a:.3f} (5/3 +- 0.15), b {b:.3f} (1/3 +- 0.1)"
        else:
            fit_ok = False
            table = ", ".join(
                f"(E0={e0:g}, nu={nu:g}): {rates[(e0, nu)]:.4g}"
                for e0 in e0s
                for nu in nus
            )
            detail = (
                "power-law fit needs positive rates but every maximizer on "
                f"this grid is in the decay regime: {table}"
            )
        ok = positive and fit_ok
        assert _verdict(8, "instantaneous-rate scaling", ok, detail) and ok, detail

    def test_criterion_09_finite_time_scaling(self):
        """E0 from 2^4 to 2^10 at nu = 1, T = p/sqrt(E0): slope 1.5 +- 0.2."""
        cfg = {
            "nu": 1.0,
            "e0_min": 16.0,
            "e0_max": 1024.0,
            "count": 7,
            "prefactors": "0.5,1,2",
            "n_points": 256,
            "max_iters": 80,
            "seeds": 2,
        }
        t0 = time.perf_counter()
        rows = run_sweep_e0(cfg, seed=2025)
        elapsed = time.perf_counter() - t0
        slope, _, _ = fit_power_law([(r[0], r[1]) for r in rows])
        ok = abs(slope - 1.5) <= 0.2 and elapsed < 1200.0
        detail = (
            f"slope {slope:.3f} (target 1.5 +- 0.2), {len(rows)} levels, "
            f"runtime {elapsed:.0f}s (< 1200s)"
        )
        assert _verdict(9, "finite-time scaling", ok, detail) and ok, detail

    def test_criterion_10_multi_dimensional(self):
        """3 data x 3 viscosities at 256^2: invariants plus one C_hat."""
        grid = GridSpecND(2, 256)
        flux = get_flux("burgers2d")
        t0 = time.perf_counter()
        failures = []
        c_hat = 0.0
        for init in ("product", "diag", "mixed"):
            for nu in (0.05, 0.02, 0.01):
                u0 = nd_initial_datum(init, grid)
                cfg = SolverConfig(nu=nu, t_end=0.1, sample_stride=10)
                _, diag = simulate_nd(u0, flux, cfg)
                if not _monotone(diag.linf, LINF_STEP_TOL):
                    failures.append(f"max principle at ({init}, nu={nu:g})")
                if not _monotone(diag.tv, TV_STEP_TOL):
                    failures.append(f"TV up at ({init}, nu={nu:g})")
                c_hat = max(
                    c_hat, float(np.max(diag.enstrophy)) / (1.0 + 1.0 / nu)
                )
        elapsed = time.perf_counter() - t0
        ok = not failures and c_hat <= 1.0 and elapsed < 600.0
        detail = (
            f"9 runs, violations: {failures or 'none'}; C_hat {c_hat:.4f} "
            f"(<= 1.0 pinned), runtime {elapsed:.0f}s (< 600s)"
        )
        assert _verdict(10, "multi-dimensional bound", ok, detail) and ok, detail

    def test_criterion_11_convergence(self, sandwich_sweeps):
        """Doubling N moves every reported e_star by less than 0.5%."""
        base = sandwich_sweeps["base"]
        doubled = sandwich_sweeps["doubled"]
        rel = np.abs(doubled.e_star - base.e_star) / np.abs(base.e_star)
        worst = float(np.max(rel))
        ok = worst < 5e-3
        detail = f"worst relative e_star change {worst:.2e} (< 5e-3)"
        assert _verdict(11, "resolution convergence", ok, detail) and ok, detail
