"""Finite-volume solver for viscous scalar conservation laws in 1D/2D.

    u_t + div f(u) = nu * Laplace(u)   on a periodic box [0, L]^dim

Advection uses dimension-by-dimension MUSCL reconstruction with the
minmod limiter and a local Lax-Friedrichs numerical flux; the sweep
order alternates every step to cancel splitting bias.  Diffusion is
explicit second-order centered, applied unsplit after the sweeps.  The
combined time step obeys both the advective and the diffusive CFL
conditions, so the scheme keeps the discrete maximum principle and is
total-variation diminishing in the anisotropic (axis-summed) sense.

Diagnostics reuse the 1D series type; the gradient-based columns use
centered differences, with the production split generalizing to

    (1/2) dE/dt  ~  int (f'(u) . grad u) Lap u  -  nu * int (Lap u)^2.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .burgers_solver import _CFL_FLOOR, BlowUpError, DiagnosticsSeries, SolverConfig
from .field_core import ConfigurationError


@dataclass(frozen=True)
class GridSpecND:
    """Uniform periodic box: `points` cells per axis, side length `length`."""

    dim: int
    points: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if self.points < 8 or (self.points & (self.points - 1)) != 0:
            raise ConfigurationError(
                f"points must be a power of two >= 8, got {self.points}"
            )
        if self.length < 1.0:
            raise ConfigurationError(
                f"box side must be at least 1, got {self.length}"
            )

    @property
    def dx(self) -> float:
        return self.length / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    def axis_coords(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.points) + 0.5) * self.dx

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim


@dataclass(frozen=True, eq=False)
class FieldND:
    """Cell-average values on a GridSpecND."""

    grid: GridSpecND
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class FluxSpec:
    """A flux f: R -> R^dim with its derivative and unit-ball Lipschitz bound."""

    name: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    lip_on_unit: float

    def validate(self, samples: int = 201) -> None:
        """Check deriv against finite differences of eval on [-1, 1]."""
        u = np.linspace(-1.0, 1.0, samples)
        h = 1e-6
        fd = (self.eval(u + h) - self.eval(u - h)) / (2.0 * h)
        an = self.deriv(u)
        if an.shape != (self.dim,) + u.shape:
            raise ValueError(
                f"flux {self.name!r}: deriv shape {an.shape} is not "
                f"{(self.dim,) + u.shape}"
            )
        if np.max(np.abs(fd - an)) > 1e-6:
            raise ValueError(f"flux {self.name!r}: deriv inconsistent with eval")
        speeds = np.sqrt(np.sum(an**2, axis=0))
        if self.lip_on_unit < np.max(speeds) - 1e-9:
            raise ValueError(
                f"flux {self.name!r}: lip_on_unit {self.lip_on_unit} below "
                f"sampled |f'| = {np.max(speeds):.6f}"
            )


def _axis_flux(name: str, dim: int, scale_fn, deriv_fn, lip: float) -> FluxSpec:
    def ev(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        one = scale_fn(u)
        return np.broadcast_to(one, (dim,) + u.shape).copy()

    def dv(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        one = deriv_fn(u)
        return np.broadcast_to(one, (dim,) + u.shape).copy()

    return FluxSpec(name=name, dim=dim, eval=ev, deriv=dv, lip_on_unit=lip)


def flux_registry() -> list[FluxSpec]:
    """Built-in fluxes; per-axis components carry 1/sqrt(dim) so the
    Euclidean Lipschitz constant on [-1, 1] is 1 in every dimension."""
    entries = []
    for dim, suffix in ((1, "1d"), (2, "2d")):
        s = np.sqrt(float(dim))
        entries.append(
            _axis_flux(
                f"burgers{suffix}", dim,
                lambda u, s=s: u**2 / (2.0 * s),
                lambda u, s=s: u / s,
                1.0,
            )
        )
        cname = f"linear{suffix}(c=1)" if dim == 2 else "linear(c=1)"
        entries.append(
            _axis_flux(
                cname, dim,
                lambda u, s=s: u / s,
                lambda u, s=s: np.ones_like(u) / s,
                1.0,
            )
        )
        kname = f"cubic{suffix}" if dim == 2 else "cubic"
        entries.append(
            _axis_flux(
                kname, dim,
                lambda u, s=s: u**3 / (3.0 * s),
                lambda u, s=s: u**2 / s,
                1.0,
            )
        )
    return entries


def get_flux(name: str) -> FluxSpec:
    registry = flux_registry()
    for spec in registry:
        if spec.name == name:
            return spec
    known = ", ".join(sorted(s.name for s in registry))
    raise KeyError(f"unknown flux {name!r}; available: {known}")


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _sweep(u: np.ndarray, axis: int, comp, comp_deriv, dt: float, dx: float) -> np.ndarray:
    """One MUSCL/minmod + local Lax-Friedrichs Euler sweep along `axis`."""
    up = np.roll(u, -1, axis=axis)
    um = np.roll(u, 1, axis=axis)
    sigma = _minmod(u - um, up - u)
    sigma_p = np.roll(sigma, -1, axis=axis)
    # interface i+1/2: left state from cell i, right state from cell i+1
    ul = u + 0.5 * sigma
    ur = up - 0.5 * sigma_p
    a = np.maximum(np.abs(comp_deriv(ul)), np.abs(comp_deriv(ur)))
    f_face = 0.5 * (comp(ul) + comp(ur)) - 0.5 * a * (ur - ul)
    return u - (dt / dx) * (f_face - np.roll(f_face, 1, axis=axis))


def _laplacian(u: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(u)
    for ax in range(u.ndim):
        out += np.roll(u, -1, axis=ax) - 2.0 * u + np.roll(u, 1, axis=ax)
    return out / dx**2


def _gradient_centered(u: np.ndarray, dx: float) -> list[np.ndarray]:
    return [
        (np.roll(u, -1, axis=ax) - np.roll(u, 1, axis=ax)) / (2.0 * dx)
        for ax in range(u.ndim)
    ]


def anisotropic_tv(u: np.ndarray, dx: float) -> float:
    """Axis-summed discrete total variation (the TVD-controlled quantity)."""
    vol = dx**u.ndim
    total = 0.0
    for ax in range(u.ndim):
        total += float(np.sum(np.abs(np.roll(u, -1, axis=ax) - u))) * (vol / dx)
    return total


def boundary_band_tv(f: FieldND, band: int = 2) -> float:
    """Anisotropic TV restricted to cells within `band` of the box edge.

    Used to certify that a compactly supported solution never feels the
    periodic boundary when the box stands in for the whole space.
    """
    u = f.values
    dx = f.grid.dx
    mask = np.zeros(u.shape, dtype=bool)
    for ax in range(u.ndim):
        sl_lo = [slice(None)] * u.ndim
        sl_hi = [slice(None)] * u.ndim
        sl_lo[ax] = slice(0, band)
        sl_hi[ax] = slice(-band, None)
        mask[tuple(sl_lo)] = True
        mask[tuple(sl_hi)] = True
    vol = dx**u.ndim
    total = 0.0
    for ax in range(u.ndim):
        jump = np.abs(np.roll(u, -1, axis=ax) - u)
        total += float(np.sum(jump[mask])) * (vol / dx)
    return total


def _diagnostics_row_nd(u: np.ndarray, t: float, nu: float, flux: FluxSpec, dx: float) -> tuple:
    vol = dx**u.ndim
    grads = _gradient_centered(u, dx)
    lap = _laplacian(u, dx)
    fprime = flux.deriv(u)
    advect = sum(fprime[ax] * grads[ax] for ax in range(u.ndim))
    enstrophy = float(sum(np.sum(g**2) for g in grads) * vol)
    return (
        t,
        0.5 * float(np.sum(u**2) * vol),
        enstrophy,
        anisotropic_tv(u, dx),
        float(np.abs(u).max()) if u.size else 0.0,
        float(min(np.min(g) for g in grads)),
        -nu * float(np.sum(lap**2) * vol),
        float(np.sum(advect * lap) * vol),
    )


def simulate_nd(
    u0: FieldND, flux: FluxSpec, nu: float, cfg: SolverConfig
) -> tuple[FieldND, DiagnosticsSeries]:
    """March u0 to cfg.t_end; returns the terminal field and diagnostics."""
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if abs(cfg.nu - nu) > 1e-15 * max(1.0, nu):
        raise ValueError(
            f"cfg.nu ({cfg.nu}) disagrees with the nu argument ({nu})"
        )
    if flux.dim != u0.grid.dim:
        raise ValueError(
            f"flux {flux.name!r} is {flux.dim}-dimensional but the grid "
            f"has dim {u0.grid.dim}"
        )
    if float(np.abs(u0.values).max()) > 1.0 + 1e-12:
        warnings.warn(
            "initial data exceeds the unit sup-norm hypothesis",
            RuntimeWarning,
            stacklevel=2,
        )
    dim = u0.grid.dim
    dx = u0.grid.dx
    u = u0.values.copy()
    t = 0.0
    rows = [_diagnostics_row_nd(u, t, nu, flux, dx)]
    step_index = 0
    while t < cfg.t_end:
        speed = max(float(np.abs(flux.deriv(u)).max()), _CFL_FLOOR)
        dt = cfg.cfl * min(dx / speed, dx**2 / (2.0 * dim * nu))
        last = dt >= cfg.t_end - t
        if last:
            dt = cfg.t_end - t
        axes = range(dim) if step_index % 2 == 0 else reversed(range(dim))
        for ax in axes:
            comp = lambda v, ax=ax: flux.eval(v)[ax]
            comp_deriv = lambda v, ax=ax: flux.deriv(v)[ax]
            u = _sweep(u, ax, comp, comp_deriv, dt, dx)
        u = u + dt * nu * _laplacian(u, dx)
        if not np.all(np.isfinite(u)):
            raise BlowUpError(t)
        t = cfg.t_end if last else t + dt
        step_index += 1
        if last or step_index % cfg.sample_stride == 0:
            rows.append(_diagnostics_row_nd(u, t, nu, flux, dx))
    return FieldND(u0.grid, u), DiagnosticsSeries.from_rows(rows)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

_ND_HEADER = re.compile(r"^DIM=(\d+) N=(\d+) L=([0-9eE+.\-]+)$")


def write_field_nd(f: FieldND, path: str | Path) -> None:
    g = f.grid
    lines = [f"DIM={g.dim} N={g.points} L={g.length}"]
    lines.extend(repr(float(v)) for v in f.values.ravel(order="C"))
    Path(path).write_text("\n".join(lines) + "\n")


def read_field_nd(path: str | Path) -> FieldND:
    lines = Path(path).read_text().strip().split("\n")
    m = _ND_HEADER.match(lines[0])
    if m is None:
        raise ValueError(f"bad field header {lines[0]!r}")
    dim, points, length = int(m.group(1)), int(m.group(2)), float(m.group(3))
    grid = GridSpecND(dim=dim, points=points, length=length)
    data = np.array([float(tok) for tok in lines[1:]])
    expected = points**dim
    if data.size != expected:
        raise ValueError(f"expected {expected} samples, found {data.size}")
    return FieldND(grid, data.reshape(grid.shape, order="C"))

