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

    def test_grid_rejects_non_integer_points(self):
        # the grid rule of GridSpec1D, with its own parameter name
        with pytest.raises(ConfigurationError, match="points must be an integer"):
            GridSpecND(2, 64.0)

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
        with pytest.raises(ConfigurationError, match="burgers1d"):
            get_flux("kpz")


# ----------------------------------------------------------------------
# Frozen reference: the roll-based profiles, step and diagnostics row the
# solver had before its step loop wrote into a preallocated work set,
# copied verbatim apart from the names, so that the bit-identity test
# below cannot follow a change to the module's kernels.
# ----------------------------------------------------------------------


def _frozen_profiles() -> dict:
    entries = {}
    for dim in (1, 2):
        s = np.sqrt(float(dim))
        tag = "2d" if dim == 2 else ""
        rows = (
            (f"burgers{dim}d", lambda u, s=s: u**2 / (2.0 * s), lambda u, s=s: u / s),
            (f"linear{tag}(c=1)", lambda u, s=s: u / s, lambda u, s=s: np.ones_like(u) / s),
            (f"cubic{tag}", lambda u, s=s: u * u * u / (3.0 * s), lambda u, s=s: u**2 / s),
        )
        entries.update((name, (g, dg)) for name, g, dg in rows)
    return entries


def _frozen_minmod(a, b):
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _frozen_sweep(u, axis, g, dg, dt, dx):
    up = np.roll(u, -1, axis=axis)
    um = np.roll(u, 1, axis=axis)
    sigma = _frozen_minmod(u - um, up - u)
    sigma_p = np.roll(sigma, -1, axis=axis)
    # interface i+1/2: left state from cell i, right state from cell i+1
    ul = u + 0.5 * sigma
    ur = up - 0.5 * sigma_p
    a = np.maximum(np.abs(dg(ul)), np.abs(dg(ur)))
    f_face = 0.5 * (g(ul) + g(ur)) - 0.5 * a * (ur - ul)
    return u - (dt / dx) * (f_face - np.roll(f_face, 1, axis=axis))


def _frozen_laplacian(u, dx):
    out = np.zeros_like(u)
    for ax in range(u.ndim):
        out += np.roll(u, -1, axis=ax) - 2.0 * u + np.roll(u, 1, axis=ax)
    return out / dx**2


def _frozen_gradient_centered(u, dx):
    return [
        (np.roll(u, -1, axis=ax) - np.roll(u, 1, axis=ax)) / (2.0 * dx)
        for ax in range(u.ndim)
    ]


def _frozen_anisotropic_tv(u, dx):
    vol = dx**u.ndim
    total = 0.0
    for ax in range(u.ndim):
        total += float(np.sum(np.abs(np.roll(u, -1, axis=ax) - u))) * (vol / dx)
    return total


def _frozen_row(u, t, nu, deriv, dx):
    vol = dx**u.ndim
    grads = _frozen_gradient_centered(u, dx)
    lap = _frozen_laplacian(u, dx)
    fprime = deriv(u)
    advect = sum(fprime * g for g in grads)
    enstrophy = float(sum(np.sum(g**2) for g in grads) * vol)
    return (
        t,
        0.5 * float(np.sum(u**2) * vol),
        enstrophy,
        _frozen_anisotropic_tv(u, dx),
        float(np.abs(u).max()),
        float(min(np.min(g) for g in grads)),
        -nu * float(np.sum(lap**2) * vol),
        float(np.sum(advect * lap) * vol),
    )


def _frozen_run(u0, name, cfg):
    g, dg = _frozen_profiles()[name]
    dim, dx, nu = u0.grid.dim, u0.grid.dx, cfg.nu
    u = u0.values.copy()
    t = 0.0
    rows = [_frozen_row(u, t, nu, dg, dx)]
    step_index = 0
    while t < cfg.t_end:
        speed = max(float(np.abs(dg(u)).max()), _CFL_FLOOR)
        dt = cfg.cfl * min(dx / speed, dx**2 / (2.0 * dim * nu))
        last = dt >= cfg.t_end - t
        if last:
            dt = cfg.t_end - t
        axes = range(dim) if step_index % 2 == 0 else reversed(range(dim))
        for ax in axes:
            u = _frozen_sweep(u, ax, g, dg, dt, dx)
        u = u + dt * nu * _frozen_laplacian(u, dx)
        t = cfg.t_end if last else t + dt
        step_index += 1
        if last or step_index % cfg.sample_stride == 0:
            rows.append(_frozen_row(u, t, nu, dg, dx))
    return u, DiagnosticsSeries.from_rows(rows)


class TestFrozenReference:
    """simulate_nd, bit for bit, against the frozen roll-based solver."""

    CASES = [
        (spec.name, init)
        for spec in flux_registry()
        for init in (("product",) if spec.dim == 1 else ("product", "diag", "mixed"))
    ]

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("name,init", CASES)
    def test_bit_identical_to_frozen_reference(self, name, init, stride):
        flux = get_flux(name)
        grid = GridSpecND(dim=flux.dim, points=32 if flux.dim == 1 else 16)
        u0 = nd_initial_datum(init, grid)
        cfg = SolverConfig(nu=0.005, t_end=0.6, sample_stride=stride)
        final, diag = simulate_nd(u0, flux, cfg)
        ref_u, ref_diag = _frozen_run(u0, name, cfg)
        assert len(diag) > 4
        # bytes, which unlike np.array_equal also compare the sign of zeros
        assert final.values.tobytes() == ref_u.tobytes()
        assert len(diag) == len(ref_diag)
        for col in DIAGNOSTIC_COLUMNS:
            assert getattr(diag, col).tobytes() == getattr(ref_diag, col).tobytes(), col

    def test_profiles_write_into_out(self):
        # with `out` a profile returns that array, with the values it
        # returns without one
        u = np.linspace(-1.0, 1.0, 65)
        for spec in flux_registry():
            for profile in (spec.eval, spec.deriv):
                out = np.empty_like(u)
                assert profile(u, out=out) is out
                assert np.array_equal(out, profile(u)), spec.name


def _frozen_datum(init, grid):
    """nd_initial_datum as first written: meshgrid coordinates and a
    Python sum of the squared gradients."""
    coords = grid.axis_coords()
    if grid.dim == 1:
        vals = np.sin(2 * np.pi * coords)
    else:
        xx, yy = np.meshgrid(coords, coords, indexing="ij")
        if init == "product":
            vals = np.sin(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
        elif init == "diag":
            vals = np.sin(2 * np.pi * (xx + yy))
        else:
            vals = np.sin(2 * np.pi * xx) * np.sin(2 * np.pi * yy) + 0.5 * np.sin(
                4 * np.pi * xx
            ) * np.cos(2 * np.pi * yy)
    grad_sq = sum(np.square(g) for g in _frozen_gradient_centered(vals, grid.dx))
    return vals / np.sqrt(float(grad_sq.mean()))


class TestFrozenDatum:
    """nd_initial_datum, bit for bit, against the frozen meshgrid datum."""

    @pytest.mark.parametrize("points", [16, 64, 256])
    @pytest.mark.parametrize(
        "dim,init", [(1, "product"), (2, "product"), (2, "diag"), (2, "mixed")]
    )
    def test_bit_identical_to_frozen_datum(self, dim, init, points):
        grid = GridSpecND(dim=dim, points=points)
        got = nd_initial_datum(init, grid).values
        assert got.tobytes() == _frozen_datum(init, grid).tobytes()


class TestWorkSet:
    """Traced peaks, in fields of 256^2 float64s: a run holds its work set
    and no full-grid temporary besides."""

    FIELD = 256 * 256 * 8

    @pytest.mark.parametrize("init", ["product", "diag", "mixed"])
    def test_datum_holds_four_fields(self, traced_peak, init):
        # the datum and three for its enstrophy: the sum, a gradient and a roll
        peak, _ = traced_peak(lambda: nd_initial_datum(init, GridSpecND(dim=2, points=256)))
        assert peak <= 4.1 * self.FIELD

    def test_run_holds_its_work_set(self, traced_peak):
        u0 = nd_initial_datum("product", GridSpecND(dim=2, points=256))
        flux, cfg = get_flux("burgers2d"), SolverConfig(nu=0.01, t_end=0.002)
        # a small run first, so the peak leaves out what a first run loads once
        simulate_nd(nd_initial_datum("product", GridSpecND(dim=2, points=16)), flux, cfg)
        peak, (_, diag) = traced_peak(lambda: simulate_nd(u0, flux, cfg))
        assert len(diag) > 10
        # the state, five scratch fields and two boolean masks: 6.25
        assert peak <= 6.3 * self.FIELD


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

    @pytest.mark.parametrize("nu", [0.05, 0.01])
    def test_burgers_2d_diag_is_second_order(self, nu):
        # on the diag datum u = v(x + y, t), and w = sqrt(2) v solves 1-D
        # Burgers at viscosity 2 nu: burgers2d's per-axis flux is
        # u^2 / (2 sqrt(2)).  A cell average of mode k of v(x + y) is its
        # value at the center times sinc(k dx)^2, and every center's x + y
        # is a point of the 1-D grid, (i + j + 1) dx
        T, m = 0.1, 2048
        g1 = GridSpec1D(m)
        errors = []
        for n in (64, 128):
            g2 = GridSpecND(dim=2, points=n)
            u0 = nd_initial_datum("diag", g2)
            final, _ = simulate_nd(u0, get_flux("burgers2d"), SolverConfig(nu=nu, t_end=T))
            amp = np.sqrt(2.0 * np.mean(u0.values**2))  # sin^2 averages 1/2 on the grid
            w0 = Field1D(g1, np.sqrt(2.0) * amp * np.sin(2 * np.pi * g1.x))
            traj, _ = simulate(w0, SolverConfig(nu=2.0 * nu, t_end=T))
            k = np.arange(m // 2 + 1)
            w_avg = np.fft.irfft(np.fft.rfft(traj.final.values) * np.sinc(k / n) ** 2, m)
            i = np.arange(n)
            exact = w_avg[(i[:, None] + i[None, :] + 1) * (m // n) % m] / np.sqrt(2.0)
            errors.append(np.linalg.norm(final.values - exact) / np.linalg.norm(exact))
        order = np.log2(errors[0] / errors[1])
        assert order >= 1.9, (errors, order)


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

    @pytest.mark.parametrize("init", ["product", "diag", "mixed"])
    def test_criterion_10_runs_monotone_at_every_step(self, init):
        # criterion 10's runs at 64^2, sampled at every step: the sup norm
        # and the anisotropic TV never rise
        grid = GridSpecND(dim=2, points=64)
        for nu in (0.05, 0.02, 0.01):
            cfg = SolverConfig(nu=nu, t_end=0.1, sample_stride=1)
            _, diag = simulate_nd(nd_initial_datum(init, grid), get_flux("burgers2d"), cfg)
            assert len(diag) > 40
            assert np.all(np.diff(diag.linf) <= 0.0), nu
            assert np.all(np.diff(diag.tv) <= 0.0), nu

    def test_step_loop_faults_do_not_grow_with_steps(self):
        # the step loop writes into a work set allocated once per run, so
        # extra steps fault in (almost) no new pages; a loop that allocates
        # fresh full-grid temporaries faults its heap back in at every step
        resource = pytest.importorskip("resource")
        u0 = nd_initial_datum("product", GridSpecND(dim=2, points=256))
        flux = get_flux("burgers2d")

        def run(t_end):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            _, diag = simulate_nd(u0, flux, SolverConfig(nu=0.05, t_end=t_end))
            return len(diag) - 1, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        steps, faults = run(0.002)
        more_steps, more_faults = run(0.004)
        assert more_steps >= 2 * steps - 1
        assert more_faults - faults < 50 * (more_steps - steps)

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
