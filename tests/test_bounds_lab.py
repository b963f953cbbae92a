"""Tests for the bounds experiment harness.

The datum construction is certified against closed-form geometry: the
ramp slope is 48/7 at the shoulder radius 1/48, so every
characteristic leaving the falling ramp reaches the origin at exactly
t = 7/48, and the plateau point alpha = -1/4 arrives at t = 1/4.
"""

import collections
import dataclasses

import numpy as np
import pytest

from enstro import burgers_solver
from enstro.burgers_solver import BlowUpError, SolverConfig, simulate, sup_enstrophy
from enstro.bounds_lab import (
    SWEEP_COLUMNS,
    SweepAbortedError,
    _kink_correction,
    auto_grid,
    build_lower_bound_datum,
    characteristics_report,
    datum_family,
    dissipation_window,
    fit_power_law,
    nu_sweep,
)
from enstro.exact_oracles import shock_enstrophy
from enstro.field_core import Field1D, GridSpec1D, enstrophy, norms, write_csv

DELTA = 1.0 / 48.0
RAMP_SLOPE = 1.0 / (1.0 / 6.0 - DELTA)  # 48/7
# zero, negative and non-finite: none is a viscosity or an amplitude
NOT_POSITIVE = [0.0, -1.0, float("nan"), float("inf")]


@pytest.fixture(scope="module")
def datum():
    grid = GridSpec1D(1024)
    u0, capital_u = build_lower_bound_datum(grid)
    return u0, capital_u


@pytest.fixture(scope="module")
def profile(datum):
    u0, capital_u = datum
    return Field1D(u0.grid, u0.values / capital_u)


class TestDatumConstruction:
    def test_unit_enstrophy_and_zero_mean(self, datum):
        u0, _ = datum
        assert abs(enstrophy(np.fft.rfft(u0.values), u0.grid.n_points) - 1.0) <= 1e-10
        assert abs(float(u0.values.mean())) <= 1e-14

    def test_normalization_constant_resolution_independent(self, datum):
        """The scale factor converges spectrally; 512 vs 1024 agree."""
        _, capital_u = datum
        coarse = GridSpec1D(512)
        _, capital_u_coarse = build_lower_bound_datum(coarse)
        assert capital_u == pytest.approx(capital_u_coarse, abs=1e-8)
        assert capital_u == pytest.approx(0.194139, abs=1e-5)

    def test_plateau_is_exactly_one(self, profile):
        grid = profile.grid
        x = grid.x - 1.0
        plateau = (x >= -1.0 / 3.0) & (x <= -1.0 / 6.0)
        assert np.max(np.abs(profile.values[plateau] - 1.0)) <= 1e-12

    def test_oddness_is_exact(self, profile):
        v = profile.values
        n = len(v)
        mirrored = v[(-np.arange(n)) % n]
        assert np.max(np.abs(v + mirrored)) == 0.0

    def test_linear_through_origin(self, profile):
        """No kink at x = 0: the profile is -slope*x on a neighbourhood."""
        grid = profile.grid
        x = np.where(grid.x > 0.5, grid.x - 1.0, grid.x)
        near = (np.abs(x) < 1.0 / 6.0 - 2.0 * DELTA) & (np.abs(x) > 0)
        expected = -RAMP_SLOPE * x[near]
        assert np.max(np.abs(profile.values[near] - expected)) <= 1e-12

    @pytest.mark.parametrize("n", [1024, 16384])
    def test_concave_on_left_half(self, n):
        u0, capital_u = build_lower_bound_datum(GridSpec1D(n))
        left = u0.values[n // 2 :] / capital_u
        second = left[:-2] - 2.0 * left[1:-1] + left[2:]
        assert np.max(second) <= 1e-14

    def test_spectrum_is_smooth_to_round_off(self):
        """A smooth datum has no tail: every mode from N/4 up sits at
        round-off relative to the largest (a quadrature error in the
        kink windows would show here as a flat floor)."""
        n = 16384
        u0, _ = build_lower_bound_datum(GridSpec1D(n))
        mag = np.abs(np.fft.rfft(u0.values))
        assert np.max(mag[n // 4 :]) <= 1e-14 * np.max(mag)

    def test_construction_is_deterministic(self, datum):
        u0, capital_u = datum
        again, capital_u_again = build_lower_bound_datum(u0.grid)
        assert capital_u_again == capital_u
        assert np.array_equal(again.values, u0.values)

    def test_kink_correction_matches_leggauss_nodes(self):
        """The Newton-built nodes give h(s) of the 128-node rule of
        np.polynomial.legendre.leggauss to 2e-16 absolute."""
        t, w = np.polynomial.legendre.leggauss(128)
        s = np.linspace(0.0, 1.0, 400, endpoint=False)
        half = 0.5 * (1.0 - s)
        rise = np.outer(half, 1.0 + t)
        bump = np.exp(-1.0 / (rise * (2.0 - rise)))
        mass = np.exp(-1.0 / (1.0 - t * t)) @ w
        want = half**2 * ((bump * (1.0 - t)) @ w) / mass
        assert np.max(np.abs(_kink_correction(s) - want)) <= 2e-16


class TestCharacteristics:
    def test_quarter_point_arrival_time(self, profile):
        """From the plateau midpoint the origin is reached at t = 1/4."""
        rows = characteristics_report(profile)
        row = next(r for r in rows if abs(r.alpha + 0.25) < 1e-12)
        assert not row.skipped
        assert row.t_s == pytest.approx(0.25, abs=1e-12)
        assert np.isinf(row.t_star)
        assert row.admissible

    def test_every_sampled_point_admissible(self, profile):
        rows = characteristics_report(profile)
        assert all(r.admissible for r in rows)
        assert sum(r.skipped for r in rows) == 1  # only the zero at -1/2

    def test_plateau_never_steepens(self, profile):
        """Plateau slopes are spectral-tail ripple (about 1.6e-5 at 1024
        points), so turnover happens at least 1e4 arrival times late."""
        rows = characteristics_report(profile)
        plateau = [
            r for r in rows if -1.0 / 3.0 <= r.alpha <= -1.0 / 6.0
        ]
        assert plateau
        assert all(r.t_star > 1e4 * r.t_s for r in plateau)

    def test_ramp_arrival_time_is_inverse_slope(self, profile):
        """On the linear ramp t_s = 7/48 exactly, independent of alpha."""
        grid = profile.grid
        rows = characteristics_report(profile)
        inner = [
            r
            for r in rows
            if -1.0 / 6.0 + 2.0 * DELTA < r.alpha < -2.0 * grid.dx
        ]
        assert len(inner) > 50
        for r in inner:
            assert r.t_s == pytest.approx(7.0 / 48.0, rel=1e-10)
            assert r.t_star >= r.t_s * (1.0 - 1e-4)


class TestFitPowerLaw:
    def test_exact_quadratic(self):
        rows = [(x, 3.0 * x**2) for x in (1.0, 2.0, 4.0, 8.0, 16.0)]
        slope, intercept, residual = fit_power_law(rows)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert residual < 1e-12

    def test_constant_data_has_zero_slope(self):
        rows = [(x, 5.0) for x in (1.0, 2.0, 3.0, 4.0)]
        slope, _, residual = fit_power_law(rows)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert residual < 1e-12

    def test_noisy_linear_recovered(self):
        rng = np.random.default_rng(7)
        xs = np.geomspace(1.0, 100.0, 12)
        rows = [
            (float(x), float(2.0 * x * (1.0 + rng.uniform(-0.05, 0.05))))
            for x in xs
        ]
        slope, _, _ = fit_power_law(rows)
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_closed_form_matches_polyfit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            xs = np.sort(rng.uniform(1e-3, 1e3, rng.integers(4, 12)))
            noise = rng.uniform(0.5, 2.0, len(xs))
            ys = rng.uniform(0.1, 10.0) * xs ** rng.uniform(-2.0, 2.0) * noise
            slope, intercept, residual = fit_power_law(list(zip(xs, ys)))
            want_slope, want_intercept = np.polyfit(np.log(xs), np.log(ys), 1)
            assert slope == pytest.approx(want_slope, rel=1e-12)
            assert intercept == pytest.approx(want_intercept, rel=1e-12)
            fit_y = np.exp(want_intercept + want_slope * np.log(xs))
            assert residual == pytest.approx(np.max(np.abs(fit_y - ys) / ys), rel=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_power_law([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])

    def test_nonpositive_rejected(self):
        rows = [(1.0, 1.0), (2.0, -2.0), (3.0, 3.0), (4.0, 4.0)]
        with pytest.raises(ValueError, match="positive"):
            fit_power_law(rows)


@pytest.fixture(scope="module")
def coarse_sweep():
    cfg = SolverConfig(nu=1.0, t_end=1.0)
    return nu_sweep(
        "lower-bound", [0.03, 0.02, 0.015, 0.01], cfg, grid=GridSpec1D(512)
    )


class TestNuSweep:
    def test_row_count_and_order(self, coarse_sweep):
        assert len(coarse_sweep) == 4
        assert np.all(np.diff(coarse_sweep.param) < 0)  # descending nu

    def test_constants_sandwich_the_rows(self, coarse_sweep):
        res = coarse_sweep
        assert res.c_hat > 0.0
        upper = res.big_c_hat * (1.0 + 1.0 / res.param)
        assert np.all(res.e_star <= upper * (1.0 + 1e-12))
        assert np.all(res.param * res.e_star >= res.c_hat * (1.0 - 1e-12))

    def test_shock_ratios_span_the_rows(self, coarse_sweep):
        """e_star over (2/3) U^3 / nu, U the datum's sup norm."""
        res = coarse_sweep
        u0, capital_u = datum_family("lower-bound", GridSpec1D(512))
        assert capital_u == np.abs(u0.values).max()
        ratios = res.e_star * res.param / ((2.0 / 3.0) * capital_u**3)
        assert res.shock_ratio_min == pytest.approx(ratios.min(), rel=1e-14)
        assert res.shock_ratio_max == pytest.approx(ratios.max(), rel=1e-14)
        assert 0.0 < res.shock_ratio_min < res.shock_ratio_max

    def test_csv_format(self, coarse_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(path, SWEEP_COLUMNS, coarse_sweep.rows())
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "param,e_star,t_star"
        assert len(lines) == 5
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == coarse_sweep.param[0]

    def test_summary_keys(self, coarse_sweep):
        summary = coarse_sweep.summary()
        assert list(summary) == [
            "slope",
            "intercept",
            "residual",
            "C_hat",
            "c_hat",
            "shock_ratio_min",
            "shock_ratio_max",
        ]

    def test_peak_scales_as_the_shock_enstrophy(self):
        """sup_t E ~ 1/nu once the shock forms, at the steady shock's value."""
        nus = list(np.logspace(-3.5, -3.0, 4))
        res = nu_sweep("lower-bound", nus, SolverConfig(nu=1e-3, t_end=1.5))
        assert abs(res.slope - 1.0) <= 0.05
        assert 0.95 <= res.shock_ratio_min <= res.shock_ratio_max <= 1.05

    def test_failed_run_aborts_with_partial_rows(self):
        """An under-resolved viscosity aborts but keeps finished rows."""
        cfg = SolverConfig(nu=1.0, t_end=0.2)
        with pytest.raises(SweepAbortedError, match="nu = 1e-05") as info:
            nu_sweep(
                "lower-bound",
                [0.03, 0.02, 1e-5, 0.015],
                cfg,
                grid=GridSpec1D(512),
            )
        assert len(info.value.partial_rows) == 3

    @staticmethod
    def sequential_rows(nus, cfg, grid):
        """One simulate run per viscosity, largest first, as rows."""
        u0, _ = datum_family("lower-bound", grid)
        rows, steps = [], []
        for nu in sorted(nus, reverse=True):
            _, diag = simulate(u0, dataclasses.replace(cfg, nu=nu))
            t_star, e_star = sup_enstrophy(diag.t, diag.enstrophy)
            rows.append((nu, e_star, t_star))
            steps.append(len(diag))
        return rows, steps

    def test_rows_equal_sequential_runs(self, coarse_sweep):
        nus = [0.03, 0.02, 0.015, 0.01]
        rows, steps = self.sequential_rows(
            nus, SolverConfig(nu=1.0, t_end=1.0), GridSpec1D(512)
        )
        # the members leave the stack after different numbers of steps
        assert len(set(steps)) == len(nus)
        assert list(coarse_sweep.rows()) == rows

    @staticmethod
    def poison(monkeypatch, at):
        """Make the step of the member with viscosity nu NaN on its
        ``at[nu]``-th step, counted over every march of the test."""
        real = burgers_solver.step_spectral
        calls = collections.Counter()

        def step(uh, dt, nu, n, vals=None):
            out, stages = real(uh, dt, nu, n, vals)
            for row, value in enumerate(np.ravel(nu)):
                calls[value] += 1
                if calls[value] == at.get(value):
                    out[row] = np.nan
            return out, stages

        monkeypatch.setattr(burgers_solver, "step_spectral", step)

    def test_blow_up_aborts_with_the_larger_rows(self, monkeypatch):
        nus = [0.03, 0.02, 0.015, 0.01]
        cfg = SolverConfig(nu=1.0, t_end=0.2)
        rows, _ = self.sequential_rows(nus, cfg, GridSpec1D(512))
        self.poison(monkeypatch, {0.02: 10})
        with pytest.raises(SweepAbortedError, match="run at nu = 0.02 failed") as info:
            nu_sweep("lower-bound", nus, cfg, grid=GridSpec1D(512))
        assert isinstance(info.value.__cause__, BlowUpError)
        assert info.value.partial_rows == rows[:1]

    def test_largest_failing_viscosity_is_named(self, monkeypatch):
        # nu = 0.01 fails first; the re-march of the larger three then
        # fails at nu = 0.02, which the error names
        nus = [0.03, 0.02, 0.015, 0.01]
        cfg = SolverConfig(nu=1.0, t_end=0.2)
        rows, _ = self.sequential_rows(nus, cfg, GridSpec1D(512))
        self.poison(monkeypatch, {0.01: 5, 0.02: 20})
        with pytest.raises(SweepAbortedError, match="run at nu = 0.02 failed") as info:
            nu_sweep("lower-bound", nus, cfg, grid=GridSpec1D(512))
        assert info.value.partial_rows == rows[:1]

    def test_needs_four_viscosities(self):
        cfg = SolverConfig(nu=1.0, t_end=0.2)
        with pytest.raises(ValueError, match="at least 4"):
            nu_sweep("lower-bound", [0.03, 0.02, 0.015], cfg)

    def test_zero_viscosity_names_nu(self):
        # the auto grid divides by the finest nu; zero is a usage error
        with pytest.raises(ValueError, match="nu must be positive and finite, got 0.0"):
            auto_grid("lower-bound", 0.0)
        cfg = SolverConfig(nu=1.0, t_end=0.2)
        with pytest.raises(ValueError, match="nu must be positive and finite, got 0.0"):
            nu_sweep("lower-bound", [0.03, 0.02, 0.015, 0.0], cfg)

    def test_sine_family(self):
        grid = GridSpec1D(512)
        u0, capital_u = datum_family("sine", grid)
        assert abs(enstrophy(np.fft.rfft(u0.values), 512) - 1.0) <= 1e-12
        assert norms(u0).linf == pytest.approx(capital_u, rel=1e-10)

    def test_unknown_family(self):
        with pytest.raises(KeyError, match="unknown datum family"):
            datum_family("mystery", GridSpec1D(512))


class TestDissipationWindow:
    def test_zero_datum_gives_zero(self):
        grid = GridSpec1D(512)
        zero = Field1D(grid, np.zeros(512))
        measured, reference = dissipation_window(zero, 0.2, 0.01, 0.1)
        assert measured == 0.0
        assert reference == pytest.approx((2.0 / 3.0) * 0.2**3, rel=1e-12)

    def test_ideal_is_the_shock_dissipation(self):
        # the ideal is nu times the steady shock's enstrophy
        zero = Field1D(GridSpec1D(512), np.zeros(512))
        for capital_u, nu in ((0.2, 0.01), (0.7, 1e-3)):
            _, reference = dissipation_window(zero, capital_u, nu, 0.1)
            ideal = nu * shock_enstrophy(capital_u, nu)
            assert ideal == pytest.approx(reference, rel=1e-15)

    def test_captures_the_shock_dissipation_at_small_nu(self):
        """Criterion 4's law where the window is wider than the shock layer:
        at nu = 1e-4 (auto N = 8192) the ratio is 0.9973."""
        grid = auto_grid("lower-bound", 1e-4)
        u0, capital_u = datum_family("lower-bound", grid)
        measured, reference = dissipation_window(u0, capital_u, 1e-4, 0.02)
        assert abs(measured / reference - 1.0) <= 0.01

    def test_capture_grows_as_nu_shrinks(self, datum):
        """The origin window collects more dissipation at smaller nu."""
        u0, capital_u = datum
        coarse, ref = dissipation_window(u0, capital_u, 1e-2, 0.02)
        fine, ref2 = dissipation_window(u0, capital_u, 3e-3, 0.02)
        assert ref == ref2
        assert 0.0 < coarse < ref
        assert fine > 2.0 * coarse

    def test_window_validation(self, datum):
        u0, capital_u = datum
        with pytest.raises(ValueError, match="eps"):
            dissipation_window(u0, capital_u, 0.01, 1.0 / (12.0 * capital_u))
        with pytest.raises(ValueError, match="U must be positive"):
            dissipation_window(u0, 0.0, 0.01, 0.01)
        with pytest.raises(ValueError, match="nu must be positive"):
            dissipation_window(u0, capital_u, 0.0, 0.01)

    @pytest.mark.parametrize("bad", NOT_POSITIVE)
    @pytest.mark.parametrize("name", ["U", "nu"])
    def test_rejects_non_positive_or_non_finite(self, datum, name, bad):
        u0, capital_u = datum
        args = {"U": capital_u, "nu": 0.01, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
            dissipation_window(u0, eps=0.01, **args)
