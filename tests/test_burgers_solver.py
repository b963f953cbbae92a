"""Tests for the integrating-factor RK4 Burgers integrator.

The solver is validated three independent ways: against the exact
logarithmic-potential solution, against conserved/monotone quantities of
the PDE, and against finite differences in time of its own diagnostics.
"""

import numpy as np
import pytest

from enstro import burgers_solver
from enstro.burgers_solver import (
    _CFL_FLOOR,
    _MAX_STEPS,
    BlowUpError,
    DIAGNOSTIC_COLUMNS,
    DiagnosticsSeries,
    ResolutionError,
    SolverConfig,
    Trajectory,
    _nonlinear,
    _rate_terms,
    march,
    required_points,
    simulate,
    step_spectral,
    sup_enstrophy,
)
from enstro.exact_oracles import hopf_cole_solution
from enstro.extremizers import _march_forward, rate_functional
from enstro.field_core import (
    Field1D,
    GridSpec1D,
    derivative,
    norms,
    spectral_ops,
    write_csv,
)


# zero, negative and non-finite: none is a viscosity, time or amplitude
NOT_POSITIVE = [0.0, -1.0, float("nan"), float("inf")]


def sin_field(n: int = 256, mode: int = 1, amp: float = 1.0) -> Field1D:
    grid = GridSpec1D(n)
    return Field1D(grid, amp * np.sin(2.0 * np.pi * mode * grid.x))


def rel_l2(a: Field1D, b: Field1D) -> float:
    diff = a.values - b.values
    return float(np.linalg.norm(diff) / max(np.linalg.norm(b.values), 1e-300))


class TestSolverConfig:
    """Constructor validation."""

    def test_defaults(self):
        cfg = SolverConfig(nu=0.05, t_end=1.0)
        assert cfg.cfl == 0.4
        assert cfg.sample_stride == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="nu must be positive"):
            SolverConfig(nu=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="t_end must be positive"):
            SolverConfig(nu=0.1, t_end=-1.0)
        with pytest.raises(ValueError, match="cfl"):
            SolverConfig(nu=0.1, t_end=1.0, cfl=1.5)
        with pytest.raises(ValueError, match="sample_stride"):
            SolverConfig(nu=0.1, t_end=1.0, sample_stride=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_values(self, bad):
        # an infinite t_end would march forever, a NaN nu lose the field
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            SolverConfig(nu=bad, t_end=1.0)
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            SolverConfig(nu=0.1, t_end=bad)
        with pytest.raises(ValueError, match="cfl"):
            SolverConfig(nu=0.1, t_end=1.0, cfl=bad)


class TestStep:
    """Single-step contract of the spectral kernel and its marching loop."""

    def test_zero_field_fixed_point(self):
        out, _ = step_spectral(np.zeros(33, dtype=complex), 1e-3, 0.1, 64)
        assert np.max(np.abs(np.fft.irfft(out, 64))) == 0.0

    def test_first_order_taylor(self):
        # u(dt) = u0 - dt (u0 u0_x - nu u0_xx) + O(dt^2); halving dt must
        # shrink the defect against this expansion by about 4
        u0 = sin_field(256)
        nu = 0.05
        u0_xx = np.fft.irfft(-spectral_ops(256).k2 * np.fft.rfft(u0.values), 256)
        rhs = -(u0.values * derivative(u0).values) + nu * u0_xx

        def defect(dt: float) -> float:
            out = np.fft.irfft(step_spectral(np.fft.rfft(u0.values), dt, nu, 256)[0], 256)
            return float(np.max(np.abs(out - (u0.values + dt * rhs))))

        d1, d2 = defect(1e-4), defect(5e-5)
        assert d1 / d2 == pytest.approx(4.0, rel=0.15)

    def test_mean_exactly_zero(self):
        rng = np.random.default_rng(3)
        grid = GridSpec1D(128)
        v = np.zeros(128)
        for k in range(1, 7):
            v += rng.normal() / k * np.sin(2 * np.pi * k * grid.x)
        v -= v.mean()
        out, _ = step_spectral(np.fft.rfft(v), 1e-3, 0.05, 128)
        assert out[0] == 0.0
        assert abs(np.fft.irfft(out, 128).mean()) < 1e-15

    @staticmethod
    def stage_case(n=128):
        rng = np.random.default_rng(5)
        x = GridSpec1D(n).x
        v = sum(rng.normal() / k * np.sin(2 * np.pi * k * x + k) for k in range(1, 9))
        return np.fft.rfft(v - v.mean()), 2e-3, 0.03

    def test_stages_are_the_rk4_stage_samples(self):
        n = 128
        uh, dt, nu = self.stage_case(n)
        ops = spectral_ops(n)
        e1 = np.exp(-0.5 * dt * nu * ops.k2)
        e2 = e1 * e1

        def stage(vh):
            u = np.fft.irfft(vh, n)
            return u, dt * (ops.advect * np.fft.rfft(u * u))

        u1, k1 = stage(uh)
        u2, k2 = stage(e1 * (uh + 0.5 * k1))
        u3, k3 = stage(e1 * uh + 0.5 * k2)
        u4, k4 = stage(e2 * uh + e1 * k3)
        want = e2 * uh + (e2 * k1 + 2.0 * e1 * (k2 + k3) + k4) / 6.0
        want[0] = 0.0
        out, stages = step_spectral(uh, dt, nu, n)
        assert stages.shape == (4, n)
        assert np.array_equal(stages, np.stack([u1, u2, u3, u4]))
        assert np.array_equal(out, want)

    def test_stages_same_with_or_without_vals(self):
        n = 128
        uh, dt, nu = self.stage_case(n)
        out, stages = step_spectral(uh, dt, nu, n)
        vals = np.fft.irfft(uh, n)
        out_v, stages_v = step_spectral(uh, dt, nu, n, vals)
        assert np.array_equal(out_v, out) and np.array_equal(stages_v, stages)
        assert not np.shares_memory(stages_v, vals)

    def test_transform_counts(self, fft_calls):
        n = 128
        uh, dt, nu = self.stage_case(n)
        vals = np.fft.irfft(uh, n)
        for call, count in (
            (lambda: _nonlinear(vals, n), 1),
            (lambda: step_spectral(uh, dt, nu, n, vals), 7),
            (lambda: step_spectral(uh, dt, nu, n), 8),
        ):
            fft_calls[0] = 0
            call()
            assert fft_calls[0] == count

    def test_stack_equals_row_calls(self, fft_calls):
        # three members with their own dt and nu, stepped as one stack
        n = 128
        rng = np.random.default_rng(11)
        x = GridSpec1D(n).x
        modes = np.arange(1, 9)[:, None]
        amps = rng.normal(size=(3, 8, 1)) / modes
        uh = np.fft.rfft((amps * np.sin(2 * np.pi * modes * x + modes)).sum(axis=1))
        uh[:, 0] = 0.0
        dt = np.array([[2e-3], [7e-4], [1.3e-3]])
        nu = np.array([[0.03], [0.011], [0.2]])
        vals = np.fft.irfft(uh, n)
        for given in (None, vals):
            fft_calls[0] = 0
            out, stages = step_spectral(uh, dt, nu, n, given)
            # one transform of each kind serves the whole stack
            assert fft_calls[0] == (8 if given is None else 7)
            assert out.shape == uh.shape and stages.shape == (4, 3, n)
            for j in range(3):
                row_vals = None if given is None else vals[j]
                want, want_stages = step_spectral(
                    uh[j], dt[j, 0], nu[j, 0], n, row_vals
                )
                assert np.array_equal(out[j], want)
                assert np.array_equal(stages[:, j], want_stages)

    def test_march_stack_equals_single_marches(self):
        # members differ in data, nu, t_end and cfl, so each finishes
        # after its own number of steps and then leaves the stack
        n = 128
        dx = 1.0 / n
        data = [sin_field(n, amp=a).values for a in (0.9, 0.5, 0.7)]
        cfgs = [
            SolverConfig(nu=0.05, t_end=0.3),
            SolverConfig(nu=0.02, t_end=0.2, cfl=0.3),
            SolverConfig(nu=0.1, t_end=0.4),
        ]
        singles = [list(march(np.fft.rfft(v), n, dx, c)) for v, c in zip(data, cfgs)]
        assert len({len(s) for s in singles}) == 3
        got = [[] for _ in cfgs]
        stack = np.fft.rfft(np.stack(data))
        for live, t, dt, uh, vals, stages in march(stack, n, dx, cfgs):
            assert len(t) == len(dt) == len(uh) == len(vals) == stages.shape[1]
            for i, j in enumerate(live):
                got[j].append((t[i], dt[i], uh[i], vals[i], stages[:, i]))
        for mine, want in zip(got, singles):
            assert len(mine) == len(want)
            for a, b in zip(mine, want):
                assert a[0] == b[0] and a[1] == b[1]
                assert all(np.array_equal(p, q) for p, q in zip(a[2:], b[2:]))

    def test_stack_blow_up_names_the_member(self, monkeypatch):
        n = 64
        data = np.stack([sin_field(n, amp=a).values for a in (0.5, 1e200, 0.5)])
        cfgs = [SolverConfig(nu=1e-3, t_end=1.0)] * 3
        with pytest.raises(BlowUpError) as info:
            for _ in march(np.fft.rfft(data), n, 1.0 / n, cfgs):
                pass
        assert info.value.member == 1 and info.value.t_last == 0.0
        # member 0 leaves after one step; member 2 then fails as the
        # second of the two still marching, and is named by its index
        real = burgers_solver.step_spectral

        def step(uh, dt, nu, n, vals=None):
            out, stages = real(uh, dt, nu, n, vals)
            if len(uh) == 2:
                out[1] = np.nan
            return out, stages

        monkeypatch.setattr(burgers_solver, "step_spectral", step)
        cfgs = [SolverConfig(nu=0.1, t_end=1e-3), *cfgs[1:]]
        data[1] = data[2]
        steps = march(np.fft.rfft(data), n, 1.0 / n, cfgs)
        (live, t, _, _, _, _) = next(steps)
        assert list(live) == [0, 1, 2] and t[0] == 1e-3
        with pytest.raises(BlowUpError) as info:
            next(steps)
        assert info.value.member == 2 and info.value.t_last == t[2]

    def test_step_budget(self):
        # t_end / dt of the first step bounds the step count by the
        # maximum principle; past _MAX_STEPS the march refuses to go on
        u = sin_field(256, amp=0.9)
        uh = np.fft.rfft(u.values)
        tiny = SolverConfig(nu=0.05, t_end=0.5, cfl=1e-300)
        steps = march(uh, 256, u.grid.dx, tiny)
        with pytest.raises(ValueError, match=r"first step is 1\.15e\+302, more"):
            next(steps)
        fine = SolverConfig(nu=0.05, t_end=0.5, cfl=0.4)
        slow = SolverConfig(nu=0.05, t_end=0.5, cfl=1e-9)
        with pytest.raises(ValueError, match=r"first step is 1\.15e\+11, more"):
            next(march(np.stack([uh, uh]), 256, u.grid.dx, [fine, slow]))
        count = 0.5 / (0.4 * u.grid.dx / np.abs(np.fft.irfft(uh, 256)).max())
        assert count < _MAX_STEPS
        assert len(list(march(uh, 256, u.grid.dx, fine))) <= int(count) + 1

    def test_blow_up_detected(self):
        # a state whose nonlinear term overflows must make the marching
        # loop raise, never yield NaN silently
        u = sin_field(64, amp=1e200)
        cfg = SolverConfig(nu=1e-3, t_end=1.0)
        steps = march(np.fft.rfft(u.values), 64, u.grid.dx, cfg)
        with pytest.raises(BlowUpError):
            for _, _, _, vals, _ in steps:
                assert np.all(np.isfinite(vals))


class TestSimulateExactness:
    """Cross-validation against the logarithmic-potential exact solution."""

    def test_matches_exact_solution(self):
        u0 = sin_field(1024)
        cfg = SolverConfig(nu=0.05, t_end=0.5)
        traj, _ = simulate(u0, cfg)
        exact = hopf_cole_solution(u0, nu=0.05, t=0.5)
        assert rel_l2(traj.final, exact) < 1e-6

    def test_grid_refinement_converged(self):
        outs = []
        for n in (512, 1024):
            u0 = sin_field(n)
            traj, _ = simulate(u0, SolverConfig(nu=0.05, t_end=0.5))
            outs.append(traj.final.values)
        # project the fine run onto the coarse grid
        fine_on_coarse = outs[1][::2]
        err = np.linalg.norm(outs[0] - fine_on_coarse) / np.linalg.norm(outs[1][::2])
        assert err < 1e-6

    def test_time_rescaling_covariance(self):
        # u -> lam u(lam t), nu -> lam nu is a symmetry of the equation
        lam = 2.0
        u0 = sin_field(256, amp=0.5)
        scaled0 = Field1D(u0.grid, lam * u0.values)
        traj_a, _ = simulate(scaled0, SolverConfig(nu=lam * 0.05, t_end=0.3))
        traj_b, _ = simulate(u0, SolverConfig(nu=0.05, t_end=lam * 0.3))
        target = Field1D(u0.grid, lam * traj_b.final.values)
        assert rel_l2(traj_a.final, target) < 1e-5


@pytest.fixture(scope="module")
def run():
    u0 = sin_field(512, amp=0.9)
    return simulate(u0, SolverConfig(nu=0.02, t_end=0.6))


class TestSimulateInvariants:
    """PDE structure the discrete flow must preserve."""

    def test_first_row_matches_initial_norms(self, run):
        _, diag = run
        u0 = sin_field(512, amp=0.9)
        nm = norms(u0)
        assert diag.t[0] == 0.0
        assert diag.energy[0] == pytest.approx(0.5 * nm.l2**2, rel=1e-12)
        assert diag.enstrophy[0] == pytest.approx(nm.enstrophy, rel=1e-12)
        assert diag.tv[0] == pytest.approx(nm.tv, rel=1e-12)
        assert diag.linf[0] == pytest.approx(nm.linf, rel=1e-12)

    def test_maximum_principle(self, run):
        _, diag = run
        assert np.all(diag.linf <= diag.linf[0] * (1.0 + 1e-8))

    def test_tv_monotone(self, run):
        _, diag = run
        assert np.all(np.diff(diag.tv) <= diag.tv[:-1] * 1e-6)

    def test_mean_conserved(self):
        u0 = sin_field(512, amp=0.9)
        cfg = SolverConfig(nu=0.02, t_end=0.6)
        states = march(np.fft.rfft(u0.values), 512, u0.grid.dx, cfg)
        for _, _, uh, vals, _ in states:
            assert uh[0] == 0.0
            assert abs(vals.mean()) < 1e-12

    def test_energy_balance(self, run):
        # d/dt (energy) = -nu * enstrophy; centered differences on the
        # adaptive time grid against the midpoint column value
        _, diag = run
        t, en, ens = diag.t, diag.energy, diag.enstrophy
        sl = slice(10, len(t) - 10, 25)
        idx = np.arange(len(t))[sl]
        for i in idx:
            fd = (en[i + 1] - en[i - 1]) / (t[i + 1] - t[i - 1])
            model = -0.02 * ens[i]
            assert abs(fd - model) / abs(model) < 1e-4

    def test_gronwall_envelope_short_time(self):
        u0 = sin_field(512, amp=1.0)
        nu = 0.05
        _, diag = simulate(u0, SolverConfig(nu=nu, t_end=nu))
        bound = diag.enstrophy[0] * np.exp(diag.t / nu) * (1.0 + 1e-3)
        assert np.all(diag.enstrophy <= bound)


class TestSimulateValidation:
    """Precondition errors."""

    def test_zero_field_trivial_run(self):
        grid = GridSpec1D(64)
        traj, diag = simulate(Field1D(grid, np.zeros(64)), SolverConfig(nu=0.1, t_end=0.2))
        assert len(diag) == 2  # initial row plus the single capped step
        for c in DIAGNOSTIC_COLUMNS[1:]:
            assert np.all(getattr(diag, c) == 0.0)
        assert np.max(np.abs(traj.final.values)) == 0.0

    def test_rejects_nonzero_mean(self):
        grid = GridSpec1D(64)
        u0 = Field1D(grid, np.sin(2 * np.pi * grid.x) + 1e-6)
        with pytest.raises(ValueError, match="zero mean"):
            simulate(u0, SolverConfig(nu=0.1, t_end=0.1))

    @pytest.mark.parametrize("bad", NOT_POSITIVE)
    @pytest.mark.parametrize("name", ["nu", "linf"])
    def test_required_points_rejects_bad_parameters(self, name, bad):
        args = {"nu": 1e-3, "linf": 0.5, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
            required_points(**args)

    def test_resolution_error_carries_required_n(self):
        u0 = sin_field(64)
        with pytest.raises(ResolutionError) as exc:
            simulate(u0, SolverConfig(nu=1e-3, t_end=0.1))
        required = exc.value.required_n
        assert required >= 4 * 1.0 / 1e-3
        assert required & (required - 1) == 0  # power of two


class TestEnstrophyRate:
    """The production identity (1/2) dE/dt = rate_diss + rate_cubic."""

    @staticmethod
    def addends(u: Field1D, nu: float) -> tuple[float, float]:
        """(dissipation, cubic) of the field u, by ``_rate_terms``."""
        _, dissipation, cubic = _rate_terms(
            np.fft.rfft(u.values), u.grid.n_points, u.grid.dx, nu
        )
        return dissipation, cubic

    def test_single_mode_closed_form(self):
        # u = A sin(2 pi x): the cubic term vanishes by symmetry and
        # -nu int u_xx^2 = -8 pi^4 A^2 nu
        A, nu = 0.7, 0.03
        u = sin_field(256, amp=A)
        dissipation, cubic = self.addends(u, nu)
        assert cubic == pytest.approx(0.0, abs=1e-12)
        assert dissipation == pytest.approx(-8.0 * np.pi**4 * A**2 * nu, rel=1e-10)
        assert rate_functional(u, nu) == dissipation + cubic

    def test_cubic_term_asymmetric_field(self):
        # u = sin(2 pi x) + 0.3 sin(4 pi x):
        # int (u_x)^3 = 3.6 pi^3 exactly, so the cubic part is -1.8 pi^3
        grid = GridSpec1D(512)
        u = Field1D(
            grid,
            np.sin(2 * np.pi * grid.x) + 0.3 * np.sin(4 * np.pi * grid.x),
        )
        _, cubic = self.addends(u, nu=0.01)
        assert cubic == pytest.approx(-1.8 * np.pi**3, rel=1e-10)
        # independent quadrature check of the same integral
        xq = np.linspace(0.0, 1.0, 100_001)
        uxq = 2 * np.pi * np.cos(2 * np.pi * xq) + 1.2 * np.pi * np.cos(4 * np.pi * xq)
        assert np.trapezoid(uxq**3, xq) == pytest.approx(3.6 * np.pi**3, rel=1e-8)

    def test_zero_field(self):
        zero = Field1D(GridSpec1D(64), np.zeros(64))
        assert self.addends(zero, nu=0.1) == (0.0, 0.0)
        assert rate_functional(zero, nu=0.1) == 0.0

    def test_matches_time_derivative_along_run(self):
        # the definitive sign check: (1/2) dE/dt from the diagnostics
        # columns must match centered differences of E(t); the small cfl
        # keeps the O(dt^2) truncation of the difference below the bound
        u0 = sin_field(512, amp=0.8)
        _, diag = simulate(u0, SolverConfig(nu=0.02, t_end=0.5, cfl=0.15))
        t, e = diag.t, diag.enstrophy
        rate = diag.rate_diss + diag.rate_cubic
        for i in range(20, len(t) - 20, 40):
            fd = 0.5 * (e[i + 1] - e[i - 1]) / (t[i + 1] - t[i - 1])
            assert abs(fd - rate[i]) / max(abs(rate[i]), 1.0) < 1e-4


class TestRateTerms:
    """The two rate columns against their sample-space formulas."""

    @staticmethod
    def sample_space(uh, n, nu):
        # u_xx by an inverse transform, u_x**3 by pow
        ops = spectral_ops(n)
        ux = np.fft.irfft(ops.ik * uh, n)
        uxx = np.fft.irfft(-ops.k2 * uh, n)
        dissipation = -nu * float(np.sum(uxx**2) * (1.0 / n))
        cubic = -0.5 * float(np.sum(ux**3) * (1.0 / n))
        return dissipation, cubic, 0.5 * float(np.sum(np.abs(ux) ** 3) / n)

    def assert_close(self, uh, n, nu, dissipation, cubic):
        want_diss, want_cubic, scale = self.sample_space(uh, n, nu)
        assert abs(dissipation - want_diss) <= 2e-15 * abs(want_diss)
        assert abs(cubic - want_cubic) <= 1e-15 * scale

    def test_random_state_with_every_mode(self):
        # white noise: every mode past the mean has nonzero real and
        # imaginary parts, the Nyquist mode's imaginary part added below
        n, nu = 256, 0.03
        vals = np.random.default_rng(5).standard_normal(n)
        uh = np.fft.rfft(vals - vals.mean())
        uh[-1] += 0.5j  # irfft ignores it, and so must the dissipation
        assert np.all(uh[1:].real != 0.0) and np.all(uh[1:].imag != 0.0)
        ux, dissipation, cubic = _rate_terms(uh, n, 1.0 / n, nu)
        assert np.array_equal(ux, np.fft.irfft(spectral_ops(n).ik * uh, n))
        self.assert_close(uh, n, nu, dissipation, cubic)

    def test_every_row_of_a_run(self):
        nu, n = 0.01, 512
        u0 = sin_field(n, amp=0.8)
        cfg = SolverConfig(nu=nu, t_end=0.2)
        _, diag = simulate(u0, cfg)
        uh0 = np.fft.rfft(u0.values)
        states = [uh0] + [uh for _, _, uh, _, _ in march(uh0, n, u0.grid.dx, cfg)]
        assert len(states) == len(diag) > 20
        for uh, diss, cubic in zip(states, diag.rate_diss, diag.rate_cubic):
            self.assert_close(uh, n, nu, diss, cubic)

    def test_enstrophy_rate_makes_two_transforms(self, fft_calls):
        u = sin_field(256, amp=0.8)
        fft_calls[0] = 0
        rate_functional(u, 0.01)
        assert fft_calls[0] == 2

    @pytest.mark.parametrize("nu", [float("nan"), float("inf"), 0.0, -1.0])
    def test_enstrophy_rate_rejects_bad_nu(self, nu):
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            rate_functional(sin_field(64), nu)


class TestSupEnstrophy:
    """Peak extraction with quadratic refinement."""

    def test_exact_parabola_vertex(self):
        t = np.linspace(0.0, 1.0, 11)
        e = 3.0 - 5.0 * (t - 0.437) ** 2
        t_star, e_star = sup_enstrophy(t, e)
        assert t_star == pytest.approx(0.437, abs=1e-12)
        assert e_star == pytest.approx(3.0, abs=1e-12)

    def test_monotone_decreasing_returns_first_row(self):
        t = np.linspace(0.0, 1.0, 9)
        e = np.exp(-3.0 * t)
        t_star, e_star = sup_enstrophy(t, e)
        assert t_star == 0.0
        assert e_star == 1.0

    def test_transient_growth_small_viscosity(self):
        # steepening beats dissipation before the shock forms near
        # t = 1/(2 pi); the peak must exceed the initial enstrophy
        u0 = sin_field(1024)
        _, diag = simulate(u0, SolverConfig(nu=0.004, t_end=0.35))
        t_star, e_star = sup_enstrophy(diag.t, diag.enstrophy)
        assert e_star > diag.enstrophy[0] * 1.5
        assert 0.05 < t_star < 0.3


class TestSerialization:
    """Diagnostics CSV format and trajectory invariants."""

    def test_csv_round_trip(self, tmp_path, read_table):
        u0 = sin_field(256, amp=0.6)
        _, diag = simulate(u0, SolverConfig(nu=0.05, t_end=0.05))
        p = tmp_path / "diag.csv"
        write_csv(p, DIAGNOSTIC_COLUMNS, diag.rows())
        back = read_table(p, "t,energy,enstrophy,tv,linf,min_ux,rate_diss,rate_cubic")
        assert np.array_equal(back, np.array(list(diag.rows())))

    def test_from_rows_and_header_guard(self):
        # rows must follow the DIAGNOSTIC_COLUMNS header, at increasing t
        with pytest.raises(ValueError, match="strictly increasing"):
            DiagnosticsSeries.from_rows([(0.0,) * 8, (0.0,) * 8])
        with pytest.raises(ValueError, match="expected rows of 8 values"):
            DiagnosticsSeries.from_rows([(0.0,) * 7])

    def test_trajectory_grid_consistency(self):
        f1 = sin_field(64)
        f2 = sin_field(128)
        with pytest.raises(ValueError, match="one grid"):
            Trajectory((0.0, 1.0), (f1, f2))


class TestSpectralCore:
    """The marching generator against the loop and formulas it replaced."""

    def test_simulate_fft_calls_per_step(self, fft_calls):
        u0 = sin_field(256, amp=0.8)
        fft_calls[0] = 0
        _, diag = simulate(u0, SolverConfig(nu=0.02, t_end=0.2))
        steps = len(diag) - 1
        assert steps > 50
        # 7 for RK4 (the first stage reuses the samples), 1 for the
        # samples, 1 for the diagnostics row's u_x; before the first step,
        # 1 forward transform of u0, 1 for row 0 and 1 for the first samples
        assert fft_calls[0] == 9 * steps + 3

    def test_march_forward_fft_calls_per_step(self, fft_calls):
        u0 = sin_field(256, amp=0.8)
        fft_calls[0] = 0
        _, (dts,), checkpoints, tape = _march_forward(
            u0.values[None], [0.2], [0.02], 256, u0.grid.dx, tape_bytes=2**30
        )
        assert len(dts) > 50
        assert checkpoints == {} and len(tape) == len(dts)
        # recording the stage tape costs no transform
        assert fft_calls[0] <= 8 * len(dts) + 2

    def test_diagnostics_match_sample_space_formulas(self):
        # each row against the per-field formulas: u_x by transforming the
        # samples again, the Nyquist mode dropped only for the enstrophy
        nu = 0.01
        u0 = Field1D(
            GridSpec1D(512),
            0.8 * np.sin(2 * np.pi * GridSpec1D(512).x)
            + 0.3 * np.cos(6 * np.pi * GridSpec1D(512).x),
        )
        _, diag = simulate(u0, SolverConfig(nu=nu, t_end=0.3))
        n, dx = 512, u0.grid.dx
        k = np.fft.rfftfreq(n, d=1.0 / n)
        states = [(0.0, u0.values)] + [
            (t, vals)
            for t, _, _, vals, _ in march(
                np.fft.rfft(u0.values), n, dx, SolverConfig(nu=nu, t_end=0.3)
            )
        ]
        assert len(states) == len(diag)
        rows = []
        for t, vals in states:
            c = np.fft.rfft(vals) * (2j * np.pi * k)
            c[-1] = 0.0
            ux_nyq0 = np.fft.irfft(c, n)
            uh = np.fft.rfft(vals)
            ux = np.fft.irfft(2j * np.pi * k * uh, n)
            uxx = np.fft.irfft(-((2.0 * np.pi * k) ** 2) * uh, n)
            l2 = float(np.sqrt(np.sum(vals * vals) * dx))
            rows.append(
                (
                    t,
                    0.5 * l2**2,
                    float(np.sum(ux_nyq0 * ux_nyq0) * dx),
                    float(np.abs(np.diff(vals, append=vals[:1])).sum()),
                    float(np.abs(vals).max()),
                    float(ux.min()),
                    -nu * float(np.sum(uxx**2) * dx),
                    -0.5 * float(np.sum(ux**3) * dx),
                )
            )
        ref = DiagnosticsSeries.from_rows(rows)
        for col in ("t", "energy", "tv", "linf"):
            assert np.array_equal(getattr(diag, col), getattr(ref, col)), col
        for col in ("enstrophy", "min_ux", "rate_diss", "rate_cubic"):
            got, want = getattr(diag, col), getattr(ref, col)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), col

    def test_final_state_matches_hand_loop(self):
        u0 = sin_field(512, amp=0.9)
        cfg = SolverConfig(nu=0.02, t_end=0.4)
        traj, diag = simulate(u0, cfg)
        n, dx = 512, u0.grid.dx
        uh = np.fft.rfft(u0.values)
        t, times = 0.0, [0.0]
        while t < cfg.t_end:
            amp = max(float(np.abs(np.fft.irfft(uh, n)).max()), _CFL_FLOOR)
            dt = cfg.cfl * dx / amp
            last = dt >= cfg.t_end - t
            if last:
                dt = cfg.t_end - t
            uh, _ = step_spectral(uh, dt, cfg.nu, n)
            t = cfg.t_end if last else t + dt
            times.append(t)
        assert np.array_equal(diag.t, times)
        assert np.array_equal(traj.final.values, np.fft.irfft(uh, n))
        assert traj.times == (0.0, cfg.t_end)
        assert traj.snapshots[0] is u0
