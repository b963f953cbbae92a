"""Tests for the closed-form reference solutions.

Every derived constant here is double-checked against an independent
quadrature oracle before being frozen into an assertion, so the module
under test and the check never share a code path.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from enstro.exact_oracles import (
    UnderflowError,
    heat_estimate_ratios,
    hopf_cole_solution,
    shock_enstrophy,
)
from enstro.field_core import Field1D, GridSpec1D, heat_propagate, norms


# zero, negative and non-finite: none is a viscosity, time or amplitude
NOT_POSITIVE = [0.0, -1.0, float("nan"), float("inf")]


def sin_field(n: int = 256, mode: int = 1, amp: float = 1.0) -> Field1D:
    grid = GridSpec1D(n)
    return Field1D(grid, amp * np.sin(2.0 * np.pi * mode * grid.x))


@dataclass(frozen=True)
class ShockProfile:
    """Stationary viscous shock ``u(x) = -U tanh(x / (2 nu/U))`` on the line."""

    U: float
    nu: float

    @property
    def width(self) -> float:
        return 2.0 * self.nu / self.U

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return -self.U * np.tanh(np.asarray(x) / self.width)


class TestShockEnstrophy:
    """(2/3) U^3 / nu against direct numerical integration of the profile."""

    def test_sech4_integral(self):
        # the only nontrivial ingredient of the closed form
        val, err = quad(lambda s: 1.0 / np.cosh(s) ** 4, -40.0, 40.0)
        assert err < 1e-6
        assert abs(val - 4.0 / 3.0) < 1e-12

    def test_against_quadrature(self):
        U, nu = 0.7, 1e-2
        prof = ShockProfile(U=U, nu=nu)
        ell = prof.width
        x = np.linspace(-40.0 * ell, 40.0 * ell, 400_001)
        u = prof(x)
        ux = np.gradient(u, x)
        direct = np.trapezoid(ux**2, x)
        assert abs(direct - shock_enstrophy(U, nu)) / direct < 1e-6

    def test_scaling(self):
        # cubic in U, inverse in nu
        base = shock_enstrophy(1.0, 1e-3)
        assert abs(shock_enstrophy(2.0, 1e-3) / base - 8.0) < 1e-12
        assert abs(shock_enstrophy(1.0, 5e-4) / base - 2.0) < 1e-12
        assert abs(base - (2.0 / 3.0) * 1e3) < 1e-9

    def test_profile_is_steady(self):
        # u u_x = nu u_xx by second-order differences; a width of nu/U
        # leaves a residual as large as u u_x itself
        prof = ShockProfile(U=0.7, nu=1e-2)
        x = np.linspace(-0.5, 0.5, 200_001)
        u = prof(x)
        ux = np.gradient(u, x)
        residual = np.abs(u * ux - prof.nu * np.gradient(ux, x))
        assert np.max(residual) < 1e-6 * np.max(np.abs(u * ux))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="U must be positive and finite, got -1.0"):
            shock_enstrophy(-1.0, 1e-3)
        with pytest.raises(ValueError, match="nu must be positive and finite, got 0.0"):
            shock_enstrophy(1.0, 0.0)

    @pytest.mark.parametrize("bad", NOT_POSITIVE)
    @pytest.mark.parametrize("name", ["U", "nu"])
    def test_rejects_non_positive_or_non_finite(self, name, bad):
        args = {"U": 1.0, "nu": 1e-3, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
            shock_enstrophy(**args)


class TestHopfCole:
    """Exact solution via the logarithmic potential substitution."""

    def test_identity_at_time_zero(self):
        u0 = sin_field(512, mode=2, amp=0.8)
        out = hopf_cole_solution(u0, nu=0.05, t=0.0)
        assert np.max(np.abs(out.values - u0.values)) < 1e-10

    def test_small_amplitude_matches_heat_flow(self):
        # the transformation linearizes to the heat equation as amp -> 0;
        # the leading correction is quadratic in the amplitude
        nu, t, amp = 0.08, 0.3, 1e-5
        u0 = sin_field(256, mode=1, amp=amp)
        exact = hopf_cole_solution(u0, nu, t)
        linear = heat_propagate(u0, nu * t)
        assert np.max(np.abs(exact.values - linear.values)) < 1e-10

    def test_mean_preserved(self):
        rng = np.random.default_rng(7)
        grid = GridSpec1D(512)
        v = np.zeros(512)
        for k in range(1, 9):
            v += rng.normal() / k * np.sin(2 * np.pi * k * grid.x)
            v += rng.normal() / k * np.cos(2 * np.pi * k * grid.x)
        v -= v.mean()
        u0 = Field1D(grid, v)
        out = hopf_cole_solution(u0, nu=0.05, t=0.4)
        assert abs(out.values.mean()) < 1e-12

    def test_total_variation_never_grows(self):
        u0 = sin_field(1024, mode=1, amp=1.0)
        tv0 = norms(u0).tv
        for t in (0.05, 0.2, 0.8):
            tvt = norms(hopf_cole_solution(u0, nu=0.02, t=t)).tv
            assert tvt <= tv0 + 1e-10

    def test_long_time_decay(self):
        u0 = sin_field(256, mode=1, amp=0.5)
        late = hopf_cole_solution(u0, nu=0.1, t=5.0)
        assert np.max(np.abs(late.values)) < 1e-6

    def test_underflow_guard(self):
        u0 = sin_field(256, mode=1, amp=10.0)
        with pytest.raises(UnderflowError, match="increase nu"):
            hopf_cole_solution(u0, nu=1e-5, t=0.0)

    def test_rejects_nonzero_mean(self):
        grid = GridSpec1D(64)
        u0 = Field1D(grid, np.ones(64))
        with pytest.raises(ValueError, match="zero mean"):
            hopf_cole_solution(u0, nu=0.1, t=0.1)

    def test_rejects_bad_time_and_viscosity(self):
        u0 = sin_field(64)
        with pytest.raises(ValueError, match="nonnegative"):
            hopf_cole_solution(u0, nu=0.1, t=-1.0)
        with pytest.raises(ValueError, match="positive"):
            hopf_cole_solution(u0, nu=0.0, t=0.1)

    @pytest.mark.parametrize(
        "name, bad, rule",
        [("nu", v, "positive") for v in NOT_POSITIVE]
        # t = 0 is the initial datum itself
        + [("t", v, "nonnegative") for v in NOT_POSITIVE[1:]],
    )
    def test_refuses_instead_of_returning_nan(self, name, bad, rule):
        args = {"nu": 0.05, "t": 0.1, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be {rule} and finite, got"):
            hopf_cole_solution(sin_field(64), **args)


class TestHeatEstimateRatios:
    """Dimensionless smoothing ratios of the heat semigroup."""

    # single mode sin(2 pi x), closed form:
    #   ||d_x e^{nu t D} v||_2   = 2 pi e^{-4 pi^2 nu t} / sqrt(2)
    #   ||d_x^2 e^{nu t D} v||_2 = 4 pi^2 e^{-4 pi^2 nu t} / sqrt(2)
    #   ||v||_inf = 1, ||d_x v||_L1 = 4
    # so r1 = (pi/sqrt(2)) e^{-4 pi^2 nu t} (nu t)^{1/4}
    #    r2 = sqrt(2) pi^2 e^{-4 pi^2 nu t} (nu t)^{3/4}

    def test_single_mode_closed_form(self):
        # tolerance reflects the O(dx^2) quadrature error picked up by the
        # discrete L1 norm at the kinks of |cos|
        nu, t = 0.05, 0.2
        v0 = sin_field(512)
        r1, r2 = heat_estimate_ratios(v0, nu, t)
        s = nu * t
        damp = np.exp(-4.0 * np.pi**2 * s)
        assert abs(r1 - (np.pi / np.sqrt(2.0)) * damp * s**0.25) < 1e-5
        assert abs(r2 - np.sqrt(2.0) * np.pi**2 * damp * s**0.75) < 1e-5

    def test_closed_form_against_quadrature(self):
        # independent check of the constants used above
        nu, t = 0.05, 0.2
        damp = np.exp(-4.0 * np.pi**2 * nu * t)
        xq = np.linspace(0.0, 1.0, 200_001)
        wx = 2.0 * np.pi * damp * np.cos(2.0 * np.pi * xq)
        l2 = np.sqrt(np.trapezoid(wx**2, xq))
        assert abs(l2 - 2.0 * np.pi * damp / np.sqrt(2.0)) < 1e-9
        grad_l1 = np.trapezoid(np.abs(2.0 * np.pi * np.cos(2.0 * np.pi * xq)), xq)
        assert abs(grad_l1 - 4.0) < 1e-8

    def test_bounded_over_modes_and_times(self):
        # for mode m the ratio r1 = sqrt(m) (pi/sqrt 2) e^{-4 pi^2 m^2 s} s^{1/4}
        # peaks at s = 1/(16 pi^2 m^2) with the mode-independent value
        # sqrt(pi/8) e^{-1/4} ~ 0.48804; r2 peaks analogously at ~ 0.33752
        worst1 = worst2 = 0.0
        for mode in (1, 2, 4, 8):
            v0 = sin_field(1024, mode=mode)
            for s in np.logspace(-5, 0, 40):
                r1, r2 = heat_estimate_ratios(v0, nu=s, t=1.0)
                worst1 = max(worst1, r1)
                worst2 = max(worst2, r2)
        assert worst1 < np.sqrt(np.pi / 8.0) * np.exp(-0.25) + 1e-4
        assert worst2 < 0.34
        # and the sup is actually approached, not vacuously small
        assert worst1 > 0.48
        assert worst2 > 0.33

    def test_degenerate_input_rejected(self):
        grid = GridSpec1D(64)
        v0 = Field1D(grid, np.full(64, 0.3))
        with pytest.raises(ValueError, match="degenerate"):
            heat_estimate_ratios(v0, nu=0.1, t=0.1)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError, match="t must be positive and finite, got 0.0"):
            heat_estimate_ratios(sin_field(64), nu=0.1, t=0.0)

    @pytest.mark.parametrize("bad", NOT_POSITIVE)
    @pytest.mark.parametrize("name", ["nu", "t"])
    def test_rejects_non_positive_or_non_finite(self, name, bad):
        args = {"nu": 0.1, "t": 0.1, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
            heat_estimate_ratios(sin_field(64), **args)
