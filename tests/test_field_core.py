"""Spectral calculus on the unit circle: derivatives, norms, heat flow."""

import numpy as np
import pytest

from enstro.field_core import (
    ConfigurationError,
    Field1D,
    GridSpec1D,
    derivative,
    enstrophy,
    heat_propagate,
    norms,
    spectral_ops,
    write_csv,
    write_field,
)


def sin_field(n=256, mode=1, amp=1.0):
    grid = GridSpec1D(n)
    return Field1D(grid, amp * np.sin(2 * np.pi * mode * grid.x))


def random_smooth_field(n, rng, kmax=12):
    """Band-limited random field with zero mean."""
    grid = GridSpec1D(n)
    x = grid.x
    u = np.zeros(n)
    for k in range(1, kmax + 1):
        a, b = rng.normal(size=2)
        u += (a * np.sin(2 * np.pi * k * x) + b * np.cos(2 * np.pi * k * x)) / k
    return Field1D(grid, u - u.mean())


class TestGridSpec:
    def test_dx_times_n_is_length(self):
        grid = GridSpec1D(512)
        assert grid.dx * grid.n_points == 1.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            GridSpec1D(300)

    def test_rejects_non_integer(self):
        with pytest.raises(ConfigurationError, match="n_points must be an integer"):
            GridSpec1D(64.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            GridSpec1D(4)

    def test_sample_locations(self):
        grid = GridSpec1D(8)
        assert np.allclose(grid.x, np.arange(8) / 8.0, atol=0)


class TestTransform:
    def test_parseval(self):
        """dx * sum(u^2) equals sum |c_k|^2 for normalized coefficients."""
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = random_smooth_field(512, rng)
            coeffs = np.fft.fft(f.values) / f.grid.n_points
            lhs = norms(f).l2 ** 2
            rhs = float(np.sum(np.abs(coeffs) ** 2))
            assert abs(lhs - rhs) < 1e-12 * max(lhs, 1.0)


class TestSpectralOps:
    def test_advect_is_the_dealiased_half_derivative(self):
        for n in (8, 256, 1024):
            ops = spectral_ops(n)
            assert np.array_equal(ops.advect, -0.5 * ops.ik * ops.dealias)
            for arr in (ops.ik, ops.k2, ops.k4, ops.dealias, ops.advect):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0


class TestDerivative:
    def test_sine_derivative_exact(self):
        f = sin_field(128)
        df = derivative(f)
        expected = 2 * np.pi * np.cos(2 * np.pi * f.grid.x)
        assert np.abs(df.values - expected).max() < 1e-10

    def test_second_derivative_is_twice_first_symbolically(self):
        f = sin_field(128, mode=3)
        d2 = derivative(derivative(f))
        expected = -(6 * np.pi) ** 2 * f.values
        assert np.abs(d2.values - expected).max() < 1e-8

    def test_annihilates_constants(self):
        grid = GridSpec1D(64)
        f = Field1D(grid, np.full(64, 3.7))
        assert np.abs(derivative(f).values).max() < 1e-12

    def test_output_has_zero_mean(self):
        rng = np.random.default_rng(11)
        f = random_smooth_field(256, rng)
        assert abs(derivative(f).values.mean()) < 1e-13


class TestHeatPropagate:
    def test_single_mode_decay(self):
        """Mode k decays by exp(-nu_t * (2 pi k)^2) exactly."""
        f = sin_field(128, mode=2)
        nu_t = 3e-3
        g = heat_propagate(f, nu_t)
        expected = np.exp(-nu_t * (4 * np.pi) ** 2) * f.values
        assert np.abs(g.values - expected).max() < 1e-13

    def test_identity_at_zero(self):
        f = sin_field(64)
        g = heat_propagate(f, 0.0)
        assert np.array_equal(g.values, f.values)

    def test_semigroup(self):
        rng = np.random.default_rng(5)
        f = random_smooth_field(256, rng)
        one = heat_propagate(f, 0.007)
        two = heat_propagate(heat_propagate(f, 0.004), 0.003)
        assert np.abs(one.values - two.values).max() < 1e-12

    def test_preserves_mean_and_contracts_l2(self):
        rng = np.random.default_rng(9)
        f = Field1D(GridSpec1D(128), random_smooth_field(128, rng).values + 0.8)
        g = heat_propagate(f, 0.01)
        assert abs(norms(g).mean - norms(f).mean) < 1e-13
        assert norms(g).l2 <= norms(f).l2 + 1e-13

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            heat_propagate(sin_field(), -1e-6)


class TestNorms:
    def test_sine_oracle_values(self):
        """For u = sin(2 pi x): ||u||_2 = 1/sqrt(2), TV = 4, E = 2 pi^2."""
        f = sin_field(1024)
        ns = norms(f)
        assert abs(ns.l2 - np.sqrt(0.5)) < 1e-12
        assert abs(ns.tv - 4.0) < 1e-10
        assert abs(ns.mean) < 1e-14
        assert ns.linf == pytest.approx(1.0, abs=1e-12)
        assert abs(ns.enstrophy - 2 * np.pi**2) < 1e-9

    def test_enstrophy_scales_quadratically(self):
        f = sin_field(256)
        g = Field1D(f.grid, 3.0 * f.values)
        e_f, e_g = (enstrophy(np.fft.rfft(h.values), 256) for h in (f, g))
        assert e_g == pytest.approx(9.0 * e_f, rel=1e-12)

    def test_enstrophy_of_a_stack_is_each_rows(self):
        rng = np.random.default_rng(3)
        stack = np.fft.rfft([random_smooth_field(64, rng).values for _ in range(3)])
        rows = [enstrophy(uh, 64) for uh in stack]
        assert np.array_equal(enstrophy(stack, 64), rows)

    def test_tv_wraps_around(self):
        """A single step up and down across the seam is counted twice."""
        grid = GridSpec1D(8)
        v = np.zeros(8)
        v[0] = 1.0
        assert norms(Field1D(grid, v)).tv == pytest.approx(2.0)


class TestIO:
    def test_round_trip_is_exact(self, tmp_path, read_table):
        rng = np.random.default_rng(21)
        f = random_smooth_field(128, rng)
        path = tmp_path / "field.dat"
        write_field(f, path)
        assert np.array_equal(read_table(path, "N=128 L=1.0"), f.values)

    def test_header_format(self, tmp_path):
        path = tmp_path / "field.dat"
        write_field(sin_field(64), path)
        first = path.read_text().splitlines()[0]
        assert first == "N=64 L=1.0"

    def test_csv_cells(self, tmp_path):
        """Floats are written as repr (exact round trip), ints and strings as str."""
        path = tmp_path / "t.csv"
        third = np.float64(1.0) / 3.0
        write_csv(path, ("name", "i", "x"), [("a", 2, third), ("b", 0, np.inf)])
        assert path.read_text() == "name,i,x\na,2,0.3333333333333333\nb,0,inf\n"


class TestFieldValueSemantics:
    def test_values_are_read_only(self):
        f = sin_field(64)
        with pytest.raises(ValueError):
            f.values[0] = 99.0
