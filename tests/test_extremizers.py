"""Tests for sphere-constrained enstrophy-production maximization.

The gradients are the load-bearing pieces: both the instantaneous-rate
gradient and the adjoint-based finite-time gradient are checked against
central finite differences of their own discrete objectives.
"""

import numpy as np
import pytest

from enstro.extremizers import (
    OptimConfig,
    OptimRecord,
    RECORD_COLUMNS,
    default_seeds,
    finite_time_gradient,
    finite_time_maximize,
    finite_time_objective,
    instantaneous_maximize,
    rate_functional,
    rate_gradient,
)
from enstro.field_core import Field1D, GridSpec1D, derivative, enstrophy, write_csv


def band_limited(grid: GridSpec1D, rng, kmax: int = 8) -> np.ndarray:
    v = np.zeros(grid.n_points)
    for k in range(1, kmax + 1):
        v += rng.normal() / k * np.sin(2 * np.pi * k * grid.x)
        v += rng.normal() / k * np.cos(2 * np.pi * k * grid.x)
    return v - v.mean()


class TestOptimConfig:
    """Constructor validation."""

    def test_defaults(self):
        cfg = OptimConfig(e0=1.0, nu=0.1)
        assert cfg.inner_product == "h1"
        assert cfg.armijo_factor == 0.5
        assert cfg.armijo_decrease == 1e-4
        assert cfg.grad_tol == 1e-6
        assert cfg.T is None

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="e0 must be positive"):
            OptimConfig(e0=0.0, nu=0.1)
        with pytest.raises(ValueError, match="T must be positive"):
            OptimConfig(e0=1.0, nu=0.1, T=-0.5)
        with pytest.raises(ValueError, match="inner_product"):
            OptimConfig(e0=1.0, nu=0.1, inner_product="sobolev")


class TestRateGradient:
    """Exact discrete gradient of the production-rate functional."""

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        grid = GridSpec1D(256)
        v = band_limited(grid, rng)
        u = Field1D(grid, v)
        g = rate_gradient(u, nu=0.07).values
        eps = 1e-5
        for _ in range(6):
            phi = band_limited(grid, rng)
            jp = rate_functional(Field1D(grid, v + eps * phi), 0.07)
            jm = rate_functional(Field1D(grid, v - eps * phi), 0.07)
            fd = (jp - jm) / (2 * eps)
            ip = float(np.sum(g * phi) * grid.dx)
            assert abs(fd - ip) / max(abs(fd), 1e-12) < 1e-6

    def test_single_mode_closed_form(self):
        # grad = -2 nu (2pi)^4 A sin(2pi x) - (3/2)(2pi)^3 A^2 sin(4pi x)
        A, nu = 0.6, 0.02
        grid = GridSpec1D(256)
        u = Field1D(grid, A * np.sin(2 * np.pi * grid.x))
        g = rate_gradient(u, nu).values
        expect = -2 * nu * (2 * np.pi) ** 4 * A * np.sin(2 * np.pi * grid.x)
        expect += -1.5 * (2 * np.pi) ** 3 * A**2 * np.sin(4 * np.pi * grid.x)
        # roundoff is amplified by the k^4 multiplier at the grid's top mode
        assert np.max(np.abs(g - expect)) < 1e-7 * np.max(np.abs(expect))

    def test_zero_mean_output(self):
        grid = GridSpec1D(128)
        u = Field1D(grid, band_limited(grid, np.random.default_rng(1), 5))
        assert abs(rate_gradient(u, 0.1).values.mean()) < 1e-10


class TestInstantaneousMaximize:
    """Projected ascent for the rate functional."""

    def test_large_viscosity_single_mode_limit(self):
        # when the cubic term is negligible the optimum sits on the lowest
        # wavenumber and R = -(2 pi)^2 nu e0
        grid = GridSpec1D(256)
        cfg = OptimConfig(e0=1.0, nu=10.0, max_iters=300)
        u_star, rate, record = instantaneous_maximize(cfg, grid)
        target = -((2 * np.pi) ** 2) * 10.0
        assert rate >= target  # optimizer may only improve on pure mode 1
        assert abs(rate - target) / abs(target) < 1e-5
        assert abs(enstrophy(u_star) - 1.0) < 1e-10

    def test_moderate_viscosity_negative_rate(self):
        # dissipation dominates on this part of the parameter plane; the
        # optimum is well below zero but far above the pure mode-1 value
        grid = GridSpec1D(256)
        cfg = OptimConfig(e0=1.0, nu=0.5, max_iters=400)
        _, rate, _ = instantaneous_maximize(cfg, grid)
        assert -21.0 < rate < -18.0

    def test_objective_monotone_and_constraint_held(self):
        grid = GridSpec1D(128)
        cfg = OptimConfig(e0=2.0, nu=0.3, max_iters=80)
        _, _, record = instantaneous_maximize(cfg, grid)
        assert np.all(np.diff(record.objective) >= -1e-12)
        assert np.all(record.constraint_residual <= 1e-10)

    def test_nonconvergence_flagged(self):
        grid = GridSpec1D(128)
        cfg = OptimConfig(e0=1.0, nu=0.2, max_iters=2)
        _, _, record = instantaneous_maximize(cfg, grid)
        assert record.converged is False


class TestFiniteTimeGradient:
    """Discrete-adjoint gradient of u0 -> E(u(T))."""

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        grid = GridSpec1D(256)
        v = band_limited(grid, rng)
        v *= 0.5 / np.abs(v).max()
        T, nu = 0.15, 0.05
        g = finite_time_gradient(Field1D(grid, v), T, nu).values
        eps = 1e-5
        for _ in range(10):
            phi = band_limited(grid, rng)
            phi /= np.abs(phi).max()
            jp = finite_time_objective(Field1D(grid, v + eps * phi), T, nu)
            jm = finite_time_objective(Field1D(grid, v - eps * phi), T, nu)
            fd = (jp - jm) / (2 * eps)
            ip = float(np.sum(g * phi) * grid.dx)
            assert abs(fd - ip) / max(abs(fd), 1e-300) < 1e-5

    def test_zero_horizon_limit(self):
        # as T -> 0 the gradient tends to -2 u0_xx
        grid = GridSpec1D(256)
        v = band_limited(grid, np.random.default_rng(5))
        v *= 0.5 / np.abs(v).max()
        u0 = Field1D(grid, v)
        g = finite_time_gradient(u0, T=1e-8, nu=0.05).values
        ref = -2.0 * derivative(u0, 2).values
        assert np.max(np.abs(g - ref)) / np.max(np.abs(ref)) < 1e-5

    def test_zero_field_zero_gradient(self):
        grid = GridSpec1D(128)
        g = finite_time_gradient(Field1D(grid, np.zeros(128)), T=0.1, nu=0.1)
        assert np.max(np.abs(g.values)) == 0.0

    def test_checkpoint_fallback_bitwise_identical(self):
        grid = GridSpec1D(256)
        v = band_limited(grid, np.random.default_rng(9))
        v *= 0.5 / np.abs(v).max()
        u0 = Field1D(grid, v)
        g_full = finite_time_gradient(u0, 0.15, 0.05)
        spectrum_bytes = (256 // 2 + 1) * 16
        g_thin = finite_time_gradient(u0, 0.15, 0.05, budget_bytes=8 * spectrum_bytes)
        assert np.array_equal(g_full.values, g_thin.values)

    def test_rejects_nonzero_mean(self):
        grid = GridSpec1D(64)
        u0 = Field1D(grid, np.sin(2 * np.pi * grid.x) + 0.01)
        with pytest.raises(ValueError, match="zero mean"):
            finite_time_gradient(u0, 0.1, 0.1)


class TestFiniteTimeMaximize:
    """Riemannian ascent on E(u(T))."""

    def test_never_worse_than_seed(self):
        grid = GridSpec1D(256)
        seed = default_seeds(grid, 1.0)[0]
        cfg = OptimConfig(e0=1.0, nu=0.05, T=0.2, max_iters=40)
        _, e_t, record = finite_time_maximize(cfg, grid, seed)
        assert e_t >= finite_time_objective(seed, 0.2, 0.05)
        assert np.all(record.constraint_residual <= 1e-10)

    def test_scale_covariance(self):
        # (e0, nu, T) -> (lam^2 e0, lam nu, T/lam) rescales the objective
        # by lam^2; with lam = 2 the discrete trajectories are exactly
        # conjugate, so the ratio is exact to roundoff
        lam = 2.0
        grid = GridSpec1D(256)
        s1 = default_seeds(grid, 1.0)[0]
        s2 = Field1D(grid, lam * s1.values)
        c1 = OptimConfig(e0=1.0, nu=0.3, T=0.2, max_iters=25)
        c2 = OptimConfig(e0=lam**2, nu=lam * 0.3, T=0.2 / lam, max_iters=25)
        _, j1, _ = finite_time_maximize(c1, grid, s1)
        _, j2, _ = finite_time_maximize(c2, grid, s2)
        assert abs(j2 / j1 - lam**2) / lam**2 < 1e-9

    def test_requires_horizon_and_nonzero_seed(self):
        grid = GridSpec1D(64)
        seed = default_seeds(grid, 1.0)[0]
        with pytest.raises(ValueError, match="cfg.T"):
            finite_time_maximize(OptimConfig(e0=1.0, nu=0.1), grid, seed)
        with pytest.raises(ValueError, match="nonzero"):
            finite_time_maximize(
                OptimConfig(e0=1.0, nu=0.1, T=0.1),
                grid,
                Field1D(grid, np.zeros(64)),
            )


class TestSeedsAndRecord:
    """Seed generation and ascent-history serialization."""

    def test_default_seeds_on_sphere(self):
        grid = GridSpec1D(128)
        seeds = default_seeds(grid, e0=3.0)
        assert len(seeds) == 5
        for s in seeds:
            assert abs(enstrophy(s) - 3.0) < 1e-10
            assert abs(s.values.mean()) < 1e-13
        flat = [s.values for s in seeds]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.allclose(flat[i], flat[j])

    def test_seeds_deterministic(self):
        grid = GridSpec1D(128)
        a = default_seeds(grid, 1.0)[4].values
        b = default_seeds(grid, 1.0)[4].values
        assert np.array_equal(a, b)

    def test_record_csv(self, tmp_path):
        rec = OptimRecord(
            np.array([1.0, 2.0]),
            np.array([0.1, 0.2]),
            np.array([0.0, 1e-12]),
            np.array([np.nan, 0.5]),
            converged=True,
        )
        p = tmp_path / "rec.csv"
        write_csv(p, RECORD_COLUMNS, rec.rows())
        lines = p.read_text().strip().split("\n")
        assert lines[0] == ",".join(RECORD_COLUMNS)
        assert lines[1].startswith("0,1.0,")
        assert len(lines) == 3

    def test_record_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="inconsistent length"):
            OptimRecord(
                np.array([1.0]),
                np.array([0.1, 0.2]),
                np.array([0.0]),
                np.array([0.0]),
                converged=False,
            )
