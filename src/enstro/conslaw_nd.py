"""Finite-volume solver for viscous scalar conservation laws in 1D/2D.

    u_t + div f(u) = nu * Laplace(u)   on the periodic unit box [0, 1]^dim

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

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .burgers_solver import (
    _CFL_FLOOR,
    BlowUpError,
    DiagnosticsSeries,
    SolverConfig,
    _check_step_budget,
)
from .field_core import ConfigurationError, _require_grid_size


@dataclass(frozen=True)
class GridSpecND:
    """Uniform periodic unit box: `points` cells per axis."""

    dim: int
    points: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        _require_grid_size("points", self.points)

    @property
    def dx(self) -> float:
        return 1.0 / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    def axis_coords(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.points) + 0.5) * self.dx


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
    """A flux f(u) = g(u) (1, ..., 1) on R^dim.

    `eval` is the scalar per-axis profile g and `deriv` its derivative g'.
    """

    name: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]


def flux_registry() -> list[FluxSpec]:
    """Built-in fluxes; the profiles carry 1/sqrt(dim) so the Euclidean
    Lipschitz constant on [-1, 1] is 1 in every dimension."""
    entries = []
    for dim in (1, 2):
        s = np.sqrt(float(dim))
        tag = "2d" if dim == 2 else ""
        rows = (
            (f"burgers{dim}d", lambda u, s=s: u**2 / (2.0 * s), lambda u, s=s: u / s),
            (f"linear{tag}(c=1)", lambda u, s=s: u / s, lambda u, s=s: np.ones_like(u) / s),
            (f"cubic{tag}", lambda u, s=s: u * u * u / (3.0 * s), lambda u, s=s: u**2 / s),
        )
        entries.extend(FluxSpec(name, dim, g, dg) for name, g, dg in rows)
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


def _sweep(u: np.ndarray, axis: int, g, dg, dt: float, dx: float) -> np.ndarray:
    """One MUSCL/minmod + local Lax-Friedrichs Euler sweep along `axis`
    for the flux profile g with derivative dg."""
    up = np.roll(u, -1, axis=axis)
    um = np.roll(u, 1, axis=axis)
    sigma = _minmod(u - um, up - u)
    sigma_p = np.roll(sigma, -1, axis=axis)
    # interface i+1/2: left state from cell i, right state from cell i+1
    ul = u + 0.5 * sigma
    ur = up - 0.5 * sigma_p
    a = np.maximum(np.abs(dg(ul)), np.abs(dg(ur)))
    f_face = 0.5 * (g(ul) + g(ur)) - 0.5 * a * (ur - ul)
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


def nd_initial_datum(init: str, grid: GridSpecND) -> FieldND:
    """A sine datum of the named family, scaled to unit discrete enstrophy."""
    coords = grid.axis_coords()
    if grid.dim == 1:
        if init != "product":
            raise ConfigurationError(f"unknown init {init!r} in 1-D; valid: product")
        vals = np.sin(2 * np.pi * coords)
    else:
        xx, yy = np.meshgrid(coords, coords, indexing="ij")
        if init == "product":
            vals = np.sin(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
        elif init == "diag":
            vals = np.sin(2 * np.pi * (xx + yy))
        elif init == "mixed":
            vals = np.sin(2 * np.pi * xx) * np.sin(2 * np.pi * yy) + 0.5 * np.sin(
                4 * np.pi * xx
            ) * np.cos(2 * np.pi * yy)
        else:
            raise ConfigurationError(
                f"unknown init {init!r}; valid: product, diag, mixed"
            )
    grad_sq = sum(d * d for d in _gradient_centered(vals, grid.dx))
    e0 = float(grad_sq.mean())  # the box has unit volume
    return FieldND(grid, vals / np.sqrt(e0))


def _diagnostics_row_nd(u: np.ndarray, t: float, nu: float, flux: FluxSpec, dx: float) -> tuple:
    vol = dx**u.ndim
    grads = _gradient_centered(u, dx)
    lap = _laplacian(u, dx)
    fprime = flux.deriv(u)
    advect = sum(fprime * g for g in grads)
    enstrophy = float(sum(np.sum(g**2) for g in grads) * vol)
    return (
        t,
        0.5 * float(np.sum(u**2) * vol),
        enstrophy,
        anisotropic_tv(u, dx),
        float(np.abs(u).max()),
        float(min(np.min(g) for g in grads)),
        -nu * float(np.sum(lap**2) * vol),
        float(np.sum(advect * lap) * vol),
    )


def simulate_nd(
    u0: FieldND, flux: FluxSpec, cfg: SolverConfig
) -> tuple[FieldND, DiagnosticsSeries]:
    """March u0 with viscosity cfg.nu to cfg.t_end; returns the terminal
    field and diagnostics.

    As in :func:`march`, a run whose first step predicts more steps,
    t_end / dt, than :func:`_check_step_budget` allows raises ValueError
    after that step.  The count bounds the steps taken: every registry
    flux has |g'(u)| nondecreasing in |u|, so by the maximum principle dt
    never falls below its first value.
    """
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
    nu = cfg.nu
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
            u = _sweep(u, ax, flux.eval, flux.deriv, dt, dx)
        u = u + dt * nu * _laplacian(u, dx)
        if not np.all(np.isfinite(u)):
            raise BlowUpError(t)
        if step_index == 0:
            _check_step_budget(cfg.t_end / dt)
        t = cfg.t_end if last else t + dt
        step_index += 1
        if last or step_index % cfg.sample_stride == 0:
            rows.append(_diagnostics_row_nd(u, t, nu, flux, dx))
    return FieldND(u0.grid, u), DiagnosticsSeries.from_rows(rows)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def write_field_nd(f: FieldND, path: str | Path) -> None:
    g = f.grid
    lines = [f"DIM={g.dim} N={g.points} L=1.0"]
    lines.extend(repr(float(v)) for v in f.values.ravel(order="C"))
    Path(path).write_text("\n".join(lines) + "\n")
