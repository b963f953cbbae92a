"""Tests for the finite-volume conservation-law solver.

Accuracy is cross-validated against two independent references: the
spectral Burgers integrator in 1D, and exact translated-heat solutions
for linear flux in 1D and 2D.  Structural properties (TVD, maximum
principle, conservation) are asserted on shock-forming runs.
"""

import numpy as np
import pytest

from enstro.burgers_solver import (
    _CFL_FLOOR,
    DIAGNOSTIC_COLUMNS,
    DiagnosticsSeries,
    SolverConfig,
    simulate,
)
from enstro.cli import main
from enstro.conslaw_nd import (
    FieldND,
    GridSpecND,
    _gradient_centered,
    _laplacian,
    _sweep,
    anisotropic_tv,
    flux_registry,
    get_flux,
    nd_initial_datum,
    simulate_nd,
    write_field_nd,
)
from enstro.field_core import ConfigurationError, Field1D, GridSpec1D, heat_propagate


def spectral_shift(vals: np.ndarray, s: float) -> np.ndarray:
    """Periodic translation by s via the FFT phase factor."""
    n = len(vals)
    k = np.fft.fftfreq(n) * n
    return np.fft.ifft(np.fft.fft(vals) * np.exp(2j * np.pi * k * s)).real


class TestGridAndField:
    """ND grid and field value types."""

    def test_grid_properties(self):
        g = GridSpecND(dim=2, points=64)
        assert g.dx == 1.0 / 64
        assert g.shape == (64, 64)
        assert g.axis_coords()[0] == pytest.approx(0.5 * g.dx)

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError, match="dim must be 1 or 2"):
            GridSpecND(dim=3, points=64)
        with pytest.raises(ConfigurationError, match="power of two"):
            GridSpecND(dim=1, points=100)

    def test_field_shape_and_finiteness(self):
        g = GridSpecND(dim=2, points=8)
        with pytest.raises(ValueError, match="shape"):
            FieldND(g, np.zeros((8, 4)))
        bad = np.zeros((8, 8))
        bad[3, 3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            FieldND(g, bad)
        f = FieldND(g, np.ones((8, 8)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0  # read-only


class TestFluxRegistry:
    """Built-in fluxes and their invariants."""

    def test_all_entries_validate(self):
        # deriv is g' (central differences of eval), and the Euclidean
        # |f'| = sqrt(dim) |g'| is at most 1 on [-1, 1]
        u = np.linspace(-1.0, 1.0, 201)
        h = 1e-6
        for spec in flux_registry():
            fd = (spec.eval(u + h) - spec.eval(u - h)) / (2.0 * h)
            assert np.max(np.abs(fd - spec.deriv(u))) <= 1e-6, spec.name
            speed = np.sqrt(spec.dim) * np.max(np.abs(spec.deriv(u)))
            assert speed <= 1.0 + 1e-9, spec.name

    def test_burgers_2d_axis_normalization(self):
        # the per-axis profile u^2/(2 sqrt 2) keeps the Euclidean |f'| = |u|
        fx = get_flux("burgers2d")
        u = np.array([0.5])
        f = fx.eval(u)
        assert f.shape == (1,)
        assert f[0] == pytest.approx(0.25 / (2 * np.sqrt(2.0)))
        d = fx.deriv(u)
        assert np.hypot(d[0], d[0]) == pytest.approx(0.5)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="burgers1d"):
            get_flux("kpz")


class TestScalarProfiles:
    """simulate_nd against the full (dim, N, N) per-axis flux it replaced."""

    @staticmethod
    def _widened(profile, dim):
        # the old registry's flux: every axis component is the profile
        def per_axis(u):
            u = np.asarray(u, dtype=float)
            return np.broadcast_to(profile(u), (dim,) + u.shape).copy()

        return per_axis

    @classmethod
    def _reference_run(cls, u0, flux, cfg):
        dim, dx, nu = u0.grid.dim, u0.grid.dx, cfg.nu
        f = cls._widened(flux.eval, dim)
        fp = cls._widened(flux.deriv, dim)

        def row(u, t):
            vol = dx**dim
            grads = _gradient_centered(u, dx)
            lap = _laplacian(u, dx)
            fprime = fp(u)
            advect = sum(fprime[ax] * grads[ax] for ax in range(dim))
            return (
                t,
                0.5 * float(np.sum(u**2) * vol),
                float(sum(np.sum(g**2) for g in grads) * vol),
                anisotropic_tv(u, dx),
                float(np.abs(u).max()),
                float(min(np.min(g) for g in grads)),
                -nu * float(np.sum(lap**2) * vol),
                float(np.sum(advect * lap) * vol),
            )

        u, t, step = u0.values.copy(), 0.0, 0
        rows = [row(u, t)]
        while t < cfg.t_end:
            speed = max(float(np.abs(fp(u)).max()), _CFL_FLOOR)
            dt = cfg.cfl * min(dx / speed, dx**2 / (2.0 * dim * nu))
            last = dt >= cfg.t_end - t
            if last:
                dt = cfg.t_end - t
            axes = range(dim) if step % 2 == 0 else reversed(range(dim))
            for ax in axes:
                comp = lambda v, ax=ax: f(v)[ax]
                comp_deriv = lambda v, ax=ax: fp(v)[ax]
                u = _sweep(u, ax, comp, comp_deriv, dt, dx)
            u = u + dt * nu * _laplacian(u, dx)
            t = cfg.t_end if last else t + dt
            step += 1
            if last or step % cfg.sample_stride == 0:
                rows.append(row(u, t))
        return u, DiagnosticsSeries.from_rows(rows)

    @pytest.mark.parametrize("name", [s.name for s in flux_registry()])
    def test_bit_identical_to_per_axis_flux(self, name):
        flux = get_flux(name)
        grid = GridSpecND(dim=flux.dim, points=32 if flux.dim == 1 else 16)
        u0 = nd_initial_datum("product" if flux.dim == 1 else "mixed", grid)
        cfg = SolverConfig(nu=0.005, t_end=0.6, sample_stride=2)
        final, diag = simulate_nd(u0, flux, cfg)
        ref_u, ref_diag = self._reference_run(u0, flux, cfg)
        assert len(diag) > 4
        assert np.array_equal(final.values, ref_u)
        assert len(diag) == len(ref_diag)
        for col in DIAGNOSTIC_COLUMNS:
            assert np.array_equal(getattr(diag, col), getattr(ref_diag, col)), col


class TestCrossValidation:
    """Agreement with independent references on smooth data."""

    def test_burgers_1d_matches_spectral(self):
        n, nu, T = 512, 0.01, 0.1
        gnd = GridSpecND(dim=1, points=n)
        xc = gnd.axis_coords()
        u0 = FieldND(gnd, 0.8 * np.sin(2 * np.pi * xc))
        final, _ = simulate_nd(u0, get_flux("burgers1d"), SolverConfig(nu=nu, t_end=T))

        gsp = GridSpec1D(n)
        us = Field1D(gsp, 0.8 * np.sin(2 * np.pi * gsp.x))
        traj, _ = simulate(us, SolverConfig(nu=nu, t_end=T))
        ref = spectral_shift(traj.final.values, gsp.dx / 2)  # nodes -> centers
        rel = np.linalg.norm(final.values - ref) / np.linalg.norm(ref)
        assert rel < 1e-3

    def test_linear_1d_matches_translated_heat(self):
        n, nu, T = 512, 0.01, 0.1
        gnd = GridSpecND(dim=1, points=n)
        xc = gnd.axis_coords()
        u0 = FieldND(gnd, 0.9 * np.sin(2 * np.pi * xc))
        final, _ = simulate_nd(u0, get_flux("linear(c=1)"), SolverConfig(nu=nu, t_end=T))

        gsp = GridSpec1D(n)
        heat = heat_propagate(Field1D(gsp, 0.9 * np.sin(2 * np.pi * gsp.x)), nu * T)
        ref = spectral_shift(heat.values, gsp.dx / 2 - T)
        rel = np.linalg.norm(final.values - ref) / np.linalg.norm(ref)
        assert rel < 1e-3

    def test_linear_2d_matches_split_reference(self):
        # for product data and linear flux the exact solution factorizes
        # into 1D translated-heat evolutions along each axis
        n, nu, T = 128, 0.01, 0.05
        g2 = GridSpecND(dim=2, points=n)
        xc = g2.axis_coords()
        u0 = FieldND(g2, np.outer(0.7 * np.sin(2 * np.pi * xc), np.cos(2 * np.pi * xc)))
        final, _ = simulate_nd(u0, get_flux("linear2d(c=1)"), SolverConfig(nu=nu, t_end=T))

        damp = np.exp(-nu * T * (2 * np.pi) ** 2)
        s = T / np.sqrt(2.0)  # per-axis speed of the unit-Lipschitz flux
        ref = np.outer(
            damp * 0.7 * np.sin(2 * np.pi * (xc - s)),
            damp * np.cos(2 * np.pi * (xc - s)),
        )
        rel = np.linalg.norm(final.values - ref) / np.linalg.norm(ref)
        assert rel < 1e-3


@pytest.fixture(scope="module")
def shock_run_2d():
    g2 = GridSpecND(dim=2, points=64)
    xc = g2.axis_coords()
    u0 = FieldND(g2, np.sin(2 * np.pi * xc)[:, None] * np.cos(2 * np.pi * xc)[None, :])
    nu = 0.005
    return simulate_nd(u0, get_flux("burgers2d"), SolverConfig(nu=nu, t_end=0.4))


class TestStructuralProperties:
    """Monotone quantities of the TVD scheme."""

    def test_maximum_principle(self, shock_run_2d):
        _, diag = shock_run_2d
        assert np.all(np.diff(diag.linf) <= diag.linf[:-1] * 1e-10)

    def test_tv_diminishing(self, shock_run_2d):
        _, diag = shock_run_2d
        assert np.all(np.diff(diag.tv) <= diag.tv[:-1] * 1e-8)

    def test_cubic_2d_is_monotone(self):
        # the cubic profile evaluates u*u*u, not pow, and the run keeps
        # both monotone properties of the scheme
        spec = get_flux("cubic2d")
        u = np.linspace(-1.0, 1.0, 201)
        want = u**3 / (3.0 * np.sqrt(2.0))
        assert np.all(np.abs(spec.eval(u) - want) <= 1e-15 * np.abs(want))
        g2 = GridSpecND(dim=2, points=64)
        xc = g2.axis_coords()
        u0 = FieldND(g2, np.sin(2 * np.pi * xc)[:, None] * np.cos(2 * np.pi * xc)[None, :])
        _, diag = simulate_nd(u0, spec, SolverConfig(nu=0.005, t_end=0.4))
        assert len(diag) > 10
        assert np.all(np.diff(diag.linf) <= diag.linf[:-1] * 1e-10)
        assert np.all(np.diff(diag.tv) <= diag.tv[:-1] * 1e-8)

    def test_mean_conserved(self, shock_run_2d):
        final, _ = shock_run_2d
        assert abs(final.values.mean()) < 1e-12

    def test_zero_field_trivial(self):
        g = GridSpecND(dim=1, points=64)
        final, diag = simulate_nd(
            FieldND(g, np.zeros(64)),
            get_flux("burgers1d"),
            SolverConfig(nu=0.01, t_end=0.01),
        )
        assert np.all(final.values == 0.0)
        assert np.all(diag.enstrophy == 0.0)
        assert np.all(diag.tv == 0.0)

    def test_sup_norm_hypothesis_warning(self):
        g = GridSpecND(dim=1, points=64)
        xc = g.axis_coords()
        u0 = FieldND(g, 1.5 * np.sin(2 * np.pi * xc))
        with pytest.warns(RuntimeWarning, match="sup-norm"):
            simulate_nd(u0, get_flux("burgers1d"), SolverConfig(nu=0.05, t_end=0.005))

    def test_flux_dimension_mismatch_rejected(self):
        g = GridSpecND(dim=1, points=64)
        u0 = FieldND(g, np.zeros(64))
        with pytest.raises(ValueError, match="dimensional"):
            simulate_nd(u0, get_flux("burgers2d"), SolverConfig(nu=0.01, t_end=0.1))


class TestTVHelpers:
    """Anisotropic total variation."""

    def test_anisotropic_tv_reduces_to_1d_tv(self):
        g = GridSpecND(dim=1, points=64)
        xc = g.axis_coords()
        u = np.sin(2 * np.pi * xc)
        assert anisotropic_tv(u, g.dx) == pytest.approx(4.0, abs=1e-2)

    def test_anisotropic_tv_2d_square_wave(self):
        # an axis-aligned stripe of height 1 and two jumps per row:
        # TV = 2 jumps * 64 rows * cell area / dx = 2
        u = np.zeros((64, 64))
        u[:, 16:32] = 1.0
        assert anisotropic_tv(u, 1.0 / 64) == pytest.approx(2.0, abs=1e-12)


class TestSerializationND:
    """Dump format and extended CSV."""

    def test_field_round_trip_2d(self, tmp_path, read_table):
        g = GridSpecND(dim=2, points=16)
        rng = np.random.default_rng(4)
        f = FieldND(g, rng.normal(size=(16, 16)))
        p = tmp_path / "f.dat"
        write_field_nd(f, p)
        back = read_table(p, "DIM=2 N=16 L=1.0")
        assert np.array_equal(back.reshape(g.shape), f.values)

    def test_diagnostics_csv_has_dim_and_length(self, tmp_path):
        """conslaw-nd writes one row per step plus constant dim, L columns."""
        argv = ["conslaw-nd", "--n-points", "16", "--t-end", "0.02"]
        assert main([*argv, "--runs-dir", str(tmp_path)]) == 0
        (run_dir,) = tmp_path.iterdir()
        lines = (run_dir / "diagnostics.csv").read_text().strip().split("\n")
        g2 = GridSpecND(dim=2, points=16)
        _, diag = simulate_nd(
            nd_initial_datum("product", g2),
            get_flux("burgers2d"),
            SolverConfig(nu=0.01, t_end=0.02),
        )
        assert lines[0].endswith(",dim,L")
        assert all(ln.endswith(",2,1.0") for ln in lines[1:])
        assert len(lines) == len(diag) + 1
