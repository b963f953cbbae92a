"""Tests for sphere-constrained enstrophy-production maximization.

The gradients are the load-bearing pieces: both the instantaneous-rate
gradient and the adjoint-based finite-time gradient are checked against
central finite differences of their own discrete objectives.
"""

import tracemalloc

import numpy as np
import pytest

import enstro.extremizers as extremizers
from enstro.burgers_solver import SolverConfig, march, step_spectral
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
from enstro.field_core import (
    Field1D,
    GridSpec1D,
    derivative,
    enstrophy,
    spectral_ops,
    write_csv,
)


# zero, negative and non-finite: none is a viscosity, time or amplitude
NOT_POSITIVE = [0.0, -1.0, float("nan"), float("inf")]


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
        assert cfg.grad_tol == 1e-6
        assert cfg.T is None

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="e0 must be positive"):
            OptimConfig(e0=0.0, nu=0.1)
        with pytest.raises(ValueError, match="T must be positive"):
            OptimConfig(e0=1.0, nu=0.1, T=-0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="e0 must be positive and finite"):
            OptimConfig(e0=bad, nu=0.1)
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            OptimConfig(e0=1.0, nu=bad)
        with pytest.raises(ValueError, match="T must be positive and finite"):
            OptimConfig(e0=1.0, nu=0.1, T=bad)

    def test_nan_max_iters_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            OptimConfig(e0=1.0, nu=0.1, max_iters=float("nan"))


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

    @pytest.mark.parametrize("nu", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_nu(self, nu):
        u = Field1D(GridSpec1D(64), np.sin(2 * np.pi * GridSpec1D(64).x))
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            rate_gradient(u, nu)

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
        assert abs(enstrophy(np.fft.rfft(u_star.values), 256) - 1.0) < 1e-10

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

    def test_stationary_exit_counts_as_converged(self):
        # maximize-finite's default config from seed 1: the Armijo search
        # backtracks to round-off while the gradient ratio is still above
        # grad_tol, well before max_iters
        grid = GridSpec1D(256)
        cfg = OptimConfig(e0=1.0, nu=0.05, T=0.15, max_iters=60, grad_tol=1e-6)
        seed = default_seeds(grid, 1.0, count=2)[1]
        ((u_star, _, record),) = finite_time_maximize([cfg], grid, [seed])
        assert len(record) - 1 < cfg.max_iters
        g = finite_time_gradient(u_star, cfg.T, cfg.nu).values
        _, _, gnorm = extremizers._tangent_direction(u_star.values, g, 256, grid.dx)
        assert gnorm > cfg.grad_tol * record.grad_norm[1]
        assert record.converged is True


def round_trip_direction(u, g, n, dx):
    """The projection written out through the constraint gradient -2 u_xx,
    both gradients preconditioned by (-d_xx)^-1."""
    k2 = spectral_ops(n).k2

    def precondition(v):
        vh = np.fft.rfft(v)
        return np.fft.irfft(np.where(k2 > 0, vh / np.where(k2 > 0, k2, 1.0), 0.0), n)

    c = -2.0 * np.fft.irfft(-k2 * np.fft.rfft(u), n)
    pg, pc = precondition(g), precondition(c)
    return pg - (np.sum(pg * c) * dx / (np.sum(pc * c) * dx)) * pc


class TestTangentDirection:
    """The ascent step: the H1 gradient projected along the sphere's normal u."""

    @staticmethod
    def case(seed):
        """Band-limited u on {E = 1} and a gradient g with a nonzero mean."""
        grid = GridSpec1D(256)
        rng = np.random.default_rng(seed)
        u = extremizers._retract(band_limited(grid, rng), 1.0, 256)
        return grid, u, band_limited(grid, rng, kmax=20) + 0.3

    @pytest.mark.parametrize("seed", range(4))
    def test_tangent_and_slope_is_squared_norm(self, seed):
        grid, u, g = self.case(seed)
        d, slope, metric_norm = extremizers._tangent_direction(u, g, 256, grid.dx)
        assert abs(d.mean()) <= 1e-15 * np.abs(d).max()
        d_x = derivative(Field1D(grid, d)).values
        u_x = derivative(Field1D(grid, u)).values
        u_norm = np.sqrt(enstrophy(np.fft.rfft(u), 256))
        assert abs(np.sum(d_x * u_x) * grid.dx) <= 1e-13 * metric_norm * u_norm
        assert metric_norm == pytest.approx(np.sqrt(np.sum(d_x**2) * grid.dx), rel=1e-14)
        assert abs(slope / metric_norm**2 - 1.0) <= 1e-12
        want = round_trip_direction(u, g, 256, grid.dx)
        assert np.abs(d - want).max() <= 1e-13 * np.abs(want).max()

    def test_six_transforms(self, fft_calls):
        grid, u, g = self.case(0)
        fft_calls[0] = 0
        extremizers._tangent_direction(u, g, 256, grid.dx)
        # P g: 2; E(u): 2; the H1 norm of d: 2
        assert fft_calls[0] == 6


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
        ref = 2.0 * np.fft.irfft(spectral_ops(256).k2 * np.fft.rfft(v), 256)
        assert np.max(np.abs(g - ref)) / np.max(np.abs(ref)) < 1e-5

    def test_zero_field_zero_gradient(self):
        grid = GridSpec1D(128)
        g = finite_time_gradient(Field1D(grid, np.zeros(128)), T=0.1, nu=0.1)
        assert np.max(np.abs(g.values)) == 0.0

    def test_checkpoint_fallback_bitwise_identical(self, monkeypatch):
        grid = GridSpec1D(256)
        v = band_limited(grid, np.random.default_rng(9))
        v *= 0.5 / np.abs(v).max()
        u0 = Field1D(grid, v)
        g_full = finite_time_gradient(u0, 0.15, 0.05)
        spectrum_bytes = (256 // 2 + 1) * 16
        monkeypatch.setattr(extremizers, "ADJOINT_STORAGE_BUDGET_BYTES", 8 * spectrum_bytes)
        g_thin = finite_time_gradient(u0, 0.15, 0.05)
        assert np.array_equal(g_full.values, g_thin.values)
        # budgets below the one-step floor, between it and a one-level
        # plan, and just short of the whole tape
        for spectra in (4, 12, 40, 120, 300):
            budget = spectra * spectrum_bytes
            monkeypatch.setattr(extremizers, "ADJOINT_STORAGE_BUDGET_BYTES", budget)
            g = finite_time_gradient(u0, 0.15, 0.05)
            assert np.array_equal(g_full.values, g.values), spectra

    def test_rejects_nonzero_mean(self):
        grid = GridSpec1D(64)
        u0 = Field1D(grid, np.sin(2 * np.pi * grid.x) + 0.01)
        with pytest.raises(ValueError, match="zero mean"):
            finite_time_gradient(u0, 0.1, 0.1)

    @pytest.mark.parametrize(
        "call, name, bad, rule",
        [(finite_time_objective, "nu", v, "positive") for v in NOT_POSITIVE]
        # the objective at T = 0 is E(u0) itself
        + [(finite_time_objective, "T", v, "nonnegative") for v in NOT_POSITIVE[1:]]
        + [
            (finite_time_gradient, name, v, "positive")
            for name in ("nu", "T")
            for v in NOT_POSITIVE
        ],
    )
    def test_rejects_non_positive_or_non_finite(self, call, name, bad, rule):
        grid = GridSpec1D(64)
        u0 = Field1D(grid, np.sin(2 * np.pi * grid.x))
        args = {"T": 0.1, "nu": 0.1, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be {rule} and finite, got"):
            call(u0, **args)


def recompute_gradient(u0: Field1D, T: float, nu: float) -> np.ndarray:
    """The adjoint that recomputes its stages, written out in full.

    States are re-marched with ``step_spectral`` along the forward march's
    steps; each backward step recomputes the four RK4 stage states and
    transposes the conservative nonlinearity -(1/2) (u^2)_x with three
    transforms.
    """
    n, dx = u0.grid.n_points, u0.grid.dx
    ops = spectral_ops(n)
    cfg = SolverConfig(nu=nu, t_end=T, cfl=0.4)
    dts = [dt for _, dt, _, _, _ in march(np.fft.rfft(u0.values), n, dx, cfg)]
    states = [np.fft.rfft(u0.values)]
    for dt in dts:
        states.append(step_spectral(states[-1], dt, nu, n)[0])

    def nonlinear(a_hat):
        a = np.fft.irfft(a_hat, n)
        return -0.5 * ops.ik * np.fft.rfft(a * a) * ops.dealias

    def nonlinear_adjoint(a_hat, v_hat):
        a = np.fft.irfft(a_hat, n)
        return np.fft.rfft(a * np.fft.irfft(ops.ik * ops.dealias * v_hat, n))

    lam = 2.0 * ops.k2 * states[-1]
    for uh, dt in zip(reversed(states[:-1]), reversed(dts)):
        e1 = np.exp(-0.5 * dt * nu * ops.k2)
        e2 = e1 * e1
        k1 = dt * nonlinear(uh)
        u2 = e1 * (uh + 0.5 * k1)
        k2 = dt * nonlinear(u2)
        u3 = e1 * uh + 0.5 * k2
        k3 = dt * nonlinear(u3)
        u4 = e2 * uh + e1 * k3
        w = lam.copy()
        w[0] = 0.0
        l_k1 = (dt / 6.0) * (e2 * w)
        l_k2 = (dt / 3.0) * (e1 * w)
        l_k3 = (dt / 3.0) * (e1 * w)
        l_k4 = (dt / 6.0) * w
        l_u = e2 * w
        v4 = nonlinear_adjoint(u4, l_k4)
        l_u += e2 * v4
        l_k3 += dt * (e1 * v4)
        v3 = nonlinear_adjoint(u3, l_k3)
        l_u += e1 * v3
        l_k2 += 0.5 * dt * v3
        v2 = nonlinear_adjoint(u2, l_k2)
        l_u += e1 * v2
        l_k1 += 0.5 * dt * (e1 * v2)
        l_u += nonlinear_adjoint(uh, l_k1)
        lam = l_u
    lam[0] = 0.0
    return np.fft.irfft(lam, n)


def spy(monkeypatch, name: str, results: list) -> None:
    """Record every result of ``extremizers.<name>``."""
    original = getattr(extremizers, name)

    def wrapped(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(extremizers, name, wrapped)


def tape_bytes(tape) -> int:
    return sum(stages.nbytes for _, _, stages in tape or ())


def solo_ascent(cfg: OptimConfig, grid: GridSpec1D, seed: Field1D):
    """One ascent alone, written out as the scalar Armijo loop over the
    public objective and gradient: ``(optimum, objective, record rows,
    converged, stop rule)``."""
    n, dx = grid.n_points, grid.dx

    def objective(v):
        return finite_time_objective(Field1D(grid, v), cfg.T, cfg.nu)

    def residual(v):
        return abs(enstrophy(np.fft.rfft(v), n) - cfg.e0) / cfg.e0

    u = extremizers._retract(seed.values - seed.values.mean(), cfg.e0, n)
    j = objective(u)
    rows = [(j, 0.0, residual(u), np.nan)]
    eta, norm0 = 0.5, None
    for _ in range(cfg.max_iters):
        g = finite_time_gradient(Field1D(grid, u), cfg.T, cfg.nu).values
        d, slope, gnorm = extremizers._tangent_direction(u, g, n, dx)
        if norm0 is None:
            norm0 = max(gnorm, 1e-300)
        if gnorm <= cfg.grad_tol * norm0:
            return u, j, rows, True, "grad_tol"
        while eta * gnorm > 1e-16 * max(1.0, np.sqrt(cfg.e0)):
            trial = extremizers._retract(u + eta * d, cfg.e0, n)
            j_trial = objective(trial)
            if j_trial >= j + 1e-4 * eta * slope:
                break
            eta *= 0.5
        else:
            return u, j, rows, True, "stationary"
        u, j = trial, j_trial
        rows.append((j, eta, residual(u), gnorm))
        eta = min(eta / 0.5, 32.0)
    return u, j, rows, False, "max_iters"


class TestBatchedAdjoint:
    """A stack of adjoints steps as its rows would alone."""

    @staticmethod
    def stacked_step_case(n=128):
        rng = np.random.default_rng(3)
        stages = rng.normal(size=(4, 3, n))
        lam = np.fft.rfft(rng.normal(size=(3, n)))
        return stages, lam, np.array([[1e-3], [2.5e-3], [7e-4]]), np.array([[0.05], [1.0], [0.3]])

    def test_stacked_step_rows_equal_row_calls(self):
        stages, lam, dt, nu = self.stacked_step_case()
        got = extremizers._adjoint_step(stages, lam, dt, nu, 128)
        for b in range(3):
            want = extremizers._adjoint_step(stages[:, b], lam[b], dt[b, 0], nu[b, 0], 128)
            assert np.array_equal(got[b], want), b

    def test_stacked_step_makes_eight_transforms(self, fft_calls):
        stages, lam, dt, nu = self.stacked_step_case()
        fft_calls[0] = 0
        extremizers._adjoint_step(stages, lam, dt, nu, 128)
        # two per RK4 stage, whatever the stack's size
        assert fft_calls[0] == 8

    def test_pull_back_rows_equal_their_own_walks(self):
        grid = GridSpec1D(128)
        n, dx = 128, grid.dx
        stack = np.array([s.values for s in default_seeds(grid, 64.0, count=3)])
        T, nu = [0.0625, 0.125, 0.2], [1.0, 0.5, 2.0]
        uh_T, dts, _, tape = extremizers._march_forward(stack, T, nu, n, dx, 2**30)
        assert len({len(d) for d in dts}) == 3  # tapes of three lengths
        lam = 2.0 * spectral_ops(n).k2 * uh_T
        nu_col = np.array(nu)[:, None]
        for rows in ([0, 1, 2], [0, 2], [1]):
            got = extremizers._pull_back(tape, lam[rows], nu_col[rows], n, rows)
            for i, r in enumerate(rows):
                _, (steps,), _, alone = extremizers._march_forward(
                    stack[r : r + 1], [T[r]], [nu[r]], n, dx, 2**30
                )
                assert steps == dts[r]
                want = lam[r]
                for _, dt, stages in reversed(alone):
                    want = extremizers._adjoint_step(stages[:, 0], want, dt[0], nu[r], n)
                assert np.array_equal(got[i], want), (rows, r)


class TestStageTape:
    """The adjoint reads its stage samples from the forward march's tape."""

    @staticmethod
    def prototype_cases():
        """(u0, T, nu): 18, 83 and about 100 forward steps."""
        g256, g1024 = GridSpec1D(256), GridSpec1D(1024)
        x = g1024.x
        v = 0.5 * np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x) + 0.1 * np.sin(10 * np.pi * x)
        return [
            (default_seeds(g256, 16.0)[0], 0.25, 1.0),
            (default_seeds(g256, 1024.0)[0], 1.0 / 32.0, 1.0),
            (Field1D(g1024, v - v.mean()), 0.3, 0.01),
        ]

    @staticmethod
    def ascent_case():
        """Two ascents at N = 256; alone, the first rejects 7 Armijo trials."""
        grid = GridSpec1D(256)
        cfg = OptimConfig(e0=1024.0, nu=1.0, T=1.0 / 32.0, max_iters=12)
        seeds = default_seeds(grid, 1024.0, count=3)
        return grid, [cfg, cfg], [seeds[0], seeds[2]]

    def test_bit_identical_to_recompute_adjoint(self, monkeypatch):
        cases = self.prototype_cases()
        wants = [recompute_gradient(u0, T, nu) for u0, T, nu in cases]
        for (u0, T, nu), want in zip(cases, wants):
            assert np.array_equal(finite_time_gradient(u0, T, nu).values, want)
        # the first two march as one stack and walk back as one
        T, nu = [cases[0][1], cases[1][1]], [cases[0][2], cases[1][2]]
        stack = np.array([cases[0][0].values, cases[1][0].values])
        dx = cases[0][0].grid.dx
        monkeypatch.setattr(extremizers, "ADJOINT_STORAGE_BUDGET_BYTES", 2**30)
        marched = extremizers._march_forward(stack, T, nu, 256, dx, 2**30)
        got = extremizers._gradients(stack, T, nu, marched, [0, 1], 256, dx)
        assert np.array_equal(got[0], wants[0]) and np.array_equal(got[1], wants[1])

    def test_gradient_after_objective_reads_the_tape(self, monkeypatch, fft_calls):
        grid, cfgs, seeds = self.ascent_case()
        marches: list = []
        walks: list = []
        spy(monkeypatch, "_march_forward", marches)
        gradients = extremizers._gradients

        def counted(points, T, nu, marched, rows, *args):
            made, calls = len(marches), fft_calls[0]
            g = gradients(points, T, nu, marched, rows, *args)
            walks.append((len(marches) - made, fft_calls[0] - calls, marched[3], len(rows)))
            return g

        monkeypatch.setattr(extremizers, "_gradients", counted)
        finite_time_maximize(cfgs, grid, seeds)
        assert max(rows for *_, rows in walks) == 2  # both members in one walk
        for made, calls, tape, _ in walks:
            assert made == 0 and tape is not None
            # 8 per stacked adjoint step, and the final inverse transform
            assert calls <= 8 * len(tape) + 1

    def test_objective_frees_the_old_tape_before_marching(self, monkeypatch):
        grid, cfgs, seeds = self.ascent_case()
        sizes: list = []
        march_forward = extremizers._march_forward

        def sized(*args, **kwargs):
            result = march_forward(*args, **kwargs)
            sizes.append(tape_bytes(result[3]))  # keeps no reference to it
            return result

        monkeypatch.setattr(extremizers, "_march_forward", sized)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            finite_time_maximize(cfgs, grid, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sizes) > 10 and min(sizes) > 0
        # one tape is alive at a time, not the old one beside the new
        assert peak - before < 1.5 * max(sizes)

    def test_ascent_marches_once_per_objective(self, monkeypatch):
        grid, cfgs, seeds = self.ascent_case()
        marched: list = []  # members of each march
        march_forward = extremizers._march_forward
        monkeypatch.setattr(
            extremizers,
            "_march_forward",
            lambda *args, **kwargs: marched.append(len(args[1])) or march_forward(*args, **kwargs),
        )
        alone, records = [], []
        for cfg, seed in zip(cfgs, seeds):
            marched.clear()
            ((_, _, record),) = finite_time_maximize([cfg], grid, [seed])
            alone.append(len(marched))
            records.append(record)
            assert set(marched) == {1}
        # the first: its start, 12 accepted and 7 rejected trials
        assert len(records[0]) == 13 and alone[0] == 20
        marched.clear()
        finite_time_maximize(cfgs, grid, seeds)
        # one march per round, holding every member's next objective
        assert len(marched) == max(alone)
        assert sum(marched) == sum(alone)

    def test_fallback_live_bytes_within_budget(self, monkeypatch):
        # 117 steps at N = 256; one step's tape is about 4.0 spectra
        grid = GridSpec1D(256)
        u0, T, nu = default_seeds(grid, 1024.0)[0], 0.125, 1.0
        want = finite_time_gradient(u0, T, nu).values
        spectrum_bytes = (256 // 2 + 1) * 16
        floor = spectrum_bytes + 32 * 256  # a checkpoint and one step's tape
        marches: list = []
        tapes: list = []
        plans: list = []
        plan = extremizers._checkpoint_plan
        monkeypatch.setattr(
            extremizers, "_checkpoint_plan", lambda *args: plans.append(args) or plan(*args)
        )
        spy(monkeypatch, "_march_forward", marches)
        spy(monkeypatch, "_retape", tapes)
        for spectra in (4, 8, 24, 60, 200, 400):
            budget = spectra * spectrum_bytes
            monkeypatch.setattr(extremizers, "ADJOINT_STORAGE_BUDGET_BYTES", budget)
            marches.clear()
            tapes.clear()
            got = finite_time_gradient(u0, T, nu).values
            assert np.array_equal(got, want), spectra
            assert len(marches[0][1][0]) == 117
            assert all(tape_bytes(m[3]) <= budget for m in marches)
            checkpoints = sum(uh.nbytes for m in marches for uh in m[2].values())
            live = checkpoints + max(tape_bytes(t) for t in tapes)
            assert live <= max(budget, floor), spectra
        # every plan is made for the size of one step of the tape itself
        assert {args[3] for args in plans} == {tapes[0][0][2].nbytes}

    def test_checkpoint_plan_fits_its_budget(self):
        spectrum_bytes, step_bytes = 2064, 16384
        floor = spectrum_bytes + step_bytes
        for n_steps in (1, 2, 7, 117, 400):
            for budget in (0, floor, 3 * floor, 40 * floor, n_steps * step_bytes):
                stride, block = extremizers._checkpoint_plan(
                    n_steps, budget, spectrum_bytes, step_bytes
                )
                assert 1 <= block <= stride <= n_steps
                count = -(-n_steps // stride)
                assert count * spectrum_bytes + block * step_bytes <= max(budget, floor)


class TestFiniteTimeMaximize:
    """Riemannian ascent on E(u(T))."""

    def test_never_worse_than_seed(self):
        grid = GridSpec1D(256)
        seed = default_seeds(grid, 1.0)[0]
        cfg = OptimConfig(e0=1.0, nu=0.05, T=0.2, max_iters=40)
        ((_, e_t, record),) = finite_time_maximize([cfg], grid, [seed])
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
        ((_, j1, _),) = finite_time_maximize([c1], grid, [s1])
        ((_, j2, _),) = finite_time_maximize([c2], grid, [s2])
        assert abs(j2 / j1 - lam**2) / lam**2 < 1e-9

    def test_requires_horizon_and_nonzero_seed(self):
        grid = GridSpec1D(64)
        seed = default_seeds(grid, 1.0)[0]
        cfg = OptimConfig(e0=1.0, nu=0.1, T=0.1)
        with pytest.raises(ValueError, match="cfg.T"):
            finite_time_maximize([cfg, OptimConfig(e0=1.0, nu=0.1)], grid, [seed, seed])
        with pytest.raises(ValueError, match="nonzero"):
            finite_time_maximize([cfg, cfg], grid, [seed, Field1D(grid, np.zeros(64))])
        with pytest.raises(ValueError, match="one seed per config"):
            finite_time_maximize([cfg, cfg], grid, [seed])


class TestSeedsAndRecord:
    """Seed generation and ascent-history serialization."""

    def test_default_seeds_on_sphere(self):
        grid = GridSpec1D(128)
        seeds = default_seeds(grid, e0=3.0)
        assert len(seeds) == 5
        for s in seeds:
            assert abs(enstrophy(np.fft.rfft(s.values), 128) - 3.0) < 1e-10
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


# (e0, nu, T, max_iters, grad_tol, seed index, the rule that stops it alone)
LOCKSTEP_MEMBERS = (
    (16.0, 1.0, 0.25, 12, 1e-6, 0, "max_iters"),
    (1024.0, 1.0, 1.0 / 32.0, 80, 1e-6, 0, "grad_tol"),
    (1.0, 0.05, 0.15, 60, 1e-9, 0, "stationary"),
    (4.0, 0.2, 0.3, 40, 1e-2, 3, "grad_tol"),
    (1024.0, 1.0, 1.0 / 32.0, 80, 1e-9, 2, "stationary"),
)


class TestLockstepAscent:
    """Ascents run as one stack take the steps they would take alone."""

    @staticmethod
    def members():
        grid = GridSpec1D(64)
        cfgs, seeds = [], []
        for e0, nu, T, iters, tol, k, _ in LOCKSTEP_MEMBERS:
            cfgs.append(OptimConfig(e0=e0, nu=nu, T=T, max_iters=iters, grad_tol=tol))
            seeds.append(default_seeds(grid, e0, count=k + 1)[k])
        return grid, cfgs, seeds

    @pytest.mark.parametrize("budget", [None, 4 * 64 * 8])
    def test_each_member_equals_its_ascent_alone(self, monkeypatch, budget):
        grid, cfgs, seeds = self.members()
        alone = [solo_ascent(cfg, grid, seed) for cfg, seed in zip(cfgs, seeds)]
        assert [a[4] for a in alone] == [m[-1] for m in LOCKSTEP_MEMBERS]
        stack = np.array([seed.values for seed in seeds])
        T, nu = [c.T for c in cfgs], [c.nu for c in cfgs]
        _, dts, _, _ = extremizers._march_forward(stack, T, nu, 64, grid.dx)
        assert len({len(d) for d in dts}) >= 4  # tapes of different lengths
        retapes: list = []
        if budget is not None:
            # one step of one member's tape: every gradient re-marches
            monkeypatch.setattr(extremizers, "ADJOINT_STORAGE_BUDGET_BYTES", budget)
            spy(monkeypatch, "_retape", retapes)
        results = finite_time_maximize(cfgs, grid, seeds)
        assert bool(retapes) == (budget is not None)
        assert len(results) == len(cfgs)
        for (u, j, record), (u_alone, j_alone, rows, converged, _) in zip(results, alone):
            assert np.array_equal(u.values, u_alone)
            assert j == j_alone
            cols = np.asarray(rows)
            for k, name in enumerate(("objective", "step", "constraint_residual", "grad_norm")):
                assert np.array_equal(getattr(record, name), cols[:, k], equal_nan=True), name
            assert record.converged is converged
