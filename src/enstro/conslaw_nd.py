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

A run allocates its work set once: the state, five scratch fields and two
masks.  Every kernel of the step loop writes into them with ufunc ``out=``,
keeping the operands and rounding of the plain array expression.  The run
frees the scratch before it copies the final field, and the datum builder
works on per-axis coordinate vectors, so neither goes past the work set.
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
    _Rows,
)
from .field_core import _GRID_MISMATCH, ConfigurationError, _frozen_array
from .field_core import _require_grid_size, _write_samples


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
        vals = _frozen_array(self.values, self.grid.shape, _GRID_MISMATCH)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class FluxSpec:
    """A flux f(u) = g(u) (1, ..., 1) on R^dim.

    `eval` is the scalar per-axis profile g and `deriv` its derivative g'.
    Both write into an optional `out` array, else into a new one.
    """

    name: str
    dim: int
    eval: Callable[..., np.ndarray]
    deriv: Callable[..., np.ndarray]


def _monomial(power: int, denom: float) -> Callable[..., np.ndarray]:
    """The profile u**power / denom, with the power taken as products."""

    def profile(u, out=None):
        num = 1.0 if power == 0 else u
        for _ in range(power - 1):
            num = np.multiply(num, u, out=out)
        return np.divide(num, denom, out=np.empty_like(u) if out is None else out)

    return profile


def flux_registry() -> list[FluxSpec]:
    """Built-in fluxes; the profiles carry 1/sqrt(dim) so the Euclidean
    Lipschitz constant on [-1, 1] is 1 in every dimension."""
    entries = []
    for dim in (1, 2):
        s = np.sqrt(float(dim))
        tag = "2d" if dim == 2 else ""
        rows = (
            (f"burgers{dim}d", _monomial(2, 2.0 * s), _monomial(1, s)),
            (f"linear{tag}(c=1)", _monomial(1, s), _monomial(0, s)),
            (f"cubic{tag}", _monomial(3, 3.0 * s), _monomial(2, s)),
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


def _roll(u: np.ndarray, shift: int, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """np.roll(u, shift, axis) for shift = +-1, written into `out`."""
    lead = (slice(None),) * axis
    head, tail = u[lead + (slice(-shift, None),)], u[lead + (slice(None, -shift),)]
    return np.concatenate((head, tail), axis=axis, out=out)


def _sweep(u: np.ndarray, axis: int, flux: FluxSpec, dt: float, dx: float, work, masks) -> None:
    """One MUSCL/minmod + local Lax-Friedrichs Euler sweep along `axis`,
    applied to u in place; `work` holds five scratch fields, `masks` two."""
    (w0, w1, w2, w3, w4), (positive, smaller) = work, masks
    _roll(u, -1, axis, w0)  # u[i+1]
    np.subtract(u, _roll(u, 1, axis, w1), out=w1)  # a = u[i] - u[i-1]
    np.subtract(w0, u, out=w2)  # b = u[i+1] - u[i]
    # minmod into w2: a where |a| < |b|, else b; 0 unless a*b > 0
    np.greater(np.multiply(w1, w2, out=w3), 0.0, out=positive)
    np.less(np.abs(w1, out=w3), np.abs(w2, out=w4), out=smaller)
    np.copyto(w2, w1, where=smaller)
    np.copyto(w2, 0.0, where=np.logical_not(positive, out=positive))
    # interface i+1/2: left state from cell i, right state from cell i+1;
    # ur reads 0.5 * sigma from w2 before ul overwrites it
    ur = np.subtract(w0, _roll(np.multiply(w2, 0.5, out=w2), -1, axis, w1), out=w1)
    ul = np.add(u, w2, out=w2)
    # 0.5 * a * (ur - ul) with a = max(|g'(ul)|, |g'(ur)|)
    a = np.abs(flux.deriv(ul, out=w3), out=w3)
    np.maximum(a, np.abs(flux.deriv(ur, out=w4), out=w4), out=a)
    np.multiply(np.multiply(a, 0.5, out=a), np.subtract(ur, ul, out=w4), out=a)
    # f_face = 0.5 * (g(ul) + g(ur)) - 0.5 * a * (ur - ul)
    f_face = np.add(flux.eval(ul, out=w0), flux.eval(ur, out=w4), out=w0)
    np.subtract(np.multiply(f_face, 0.5, out=f_face), a, out=f_face)
    jump = np.subtract(f_face, _roll(f_face, 1, axis, w1), out=w1)
    np.subtract(u, np.multiply(jump, dt / dx, out=jump), out=u)


def _laplacian(u: np.ndarray, dx: float, out: np.ndarray, work) -> np.ndarray:
    """The centered Laplacian of u into `out`; `work` holds two scratch fields."""
    t, s = work
    out.fill(0.0)
    for ax in range(u.ndim):
        np.subtract(_roll(u, -1, ax, t), np.multiply(u, 2.0, out=s), out=t)
        np.add(out, np.add(t, _roll(u, 1, ax, s), out=t), out=out)
    # dx is a power of two, so this product equals the division exactly, at half its cost
    return np.multiply(out, 1.0 / dx**2, out=out)


def _gradient_centered(u: np.ndarray, ax: int, dx: float, out=None, tmp=None) -> np.ndarray:
    """Centered difference of u along `ax`, written into `out`."""
    d = _roll(u, -1, ax, out)
    # dx is a power of two, so this product equals the division exactly, at half its cost
    return np.multiply(np.subtract(d, _roll(u, 1, ax, tmp), out=d), 0.5 / dx, out=d)


def anisotropic_tv(u: np.ndarray, dx: float, out: np.ndarray | None = None) -> float:
    """Axis-summed discrete total variation (the TVD-controlled quantity)."""
    vol = dx**u.ndim
    total = 0.0
    for ax in range(u.ndim):
        d = _roll(u, -1, ax, out)
        total += float(np.sum(np.abs(np.subtract(d, u, out=d), out=d))) * (vol / dx)
    return total


def nd_initial_datum(init: str, grid: GridSpecND) -> FieldND:
    """A sine datum of the named family, scaled to unit discrete enstrophy."""
    coords = grid.axis_coords()
    if grid.dim == 1:
        if init != "product":
            raise ConfigurationError(f"unknown init {init!r} in 1-D; valid: product")
        vals = np.sin(2 * np.pi * coords)
    else:
        # axis vectors that broadcast to the grid: each sine runs on one axis,
        # and only the datum itself is a full grid
        xx, yy = coords[:, None], coords[None, :]
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
    # sum of squared gradients in Python sum's order, (0 + g0^2) + g1^2
    grad_sq, grad, tmp = np.zeros_like(vals), np.empty_like(vals), np.empty_like(vals)
    for ax in range(grid.dim):
        _gradient_centered(vals, ax, grid.dx, grad, tmp)
        np.add(grad_sq, np.square(grad, out=grad), out=grad_sq)
    e0 = float(grad_sq.mean())  # the box has unit volume
    del grad_sq, grad, tmp  # before FieldND copies the datum
    return FieldND(grid, np.divide(vals, np.sqrt(e0), out=vals))


def _diagnostics_row_nd(u: np.ndarray, t: float, nu: float, flux: FluxSpec, dx: float, work):
    """One diagnostics row of u; `work` holds five scratch fields."""
    vol = dx**u.ndim
    lap, fprime, advect, grad, tmp = work
    _laplacian(u, dx, lap, (grad, tmp))
    flux.deriv(u, out=fprime)
    # sums start from 0 as Python's sum does, which turns -0.0 into +0.0
    advect.fill(0.0)
    grad_sq, grad_mins = 0, []
    for ax in range(u.ndim):
        _gradient_centered(u, ax, dx, grad, tmp)
        grad_sq += np.sum(np.multiply(grad, grad, out=tmp))
        grad_mins.append(np.min(grad))
        np.add(advect, np.multiply(fprime, grad, out=tmp), out=advect)
    return (
        t,
        0.5 * float(np.sum(np.multiply(u, u, out=tmp)) * vol),
        float(grad_sq * vol),
        anisotropic_tv(u, dx, tmp),
        float(np.abs(u, out=tmp).max()),
        float(min(grad_mins)),
        -nu * float(np.sum(np.multiply(lap, lap, out=tmp)) * vol),
        float(np.sum(np.multiply(advect, lap, out=tmp)) * vol),
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
    # the work set: the state, updated in place, and the scratch fields
    u = u0.values.copy()
    work = np.empty((5, *u.shape))
    masks = np.empty((2, *u.shape), dtype=bool)
    t = 0.0
    rows = _Rows(_diagnostics_row_nd(u, t, nu, flux, dx, work))
    step_index = 0
    while t < cfg.t_end:
        speed = max(float(np.abs(flux.deriv(u, out=work[0]), out=work[0]).max()), _CFL_FLOOR)
        dt = cfg.cfl * min(dx / speed, dx**2 / (2.0 * dim * nu))
        last = dt >= cfg.t_end - t
        if last:
            dt = cfg.t_end - t
        axes = range(dim) if step_index % 2 == 0 else reversed(range(dim))
        for ax in axes:
            _sweep(u, ax, flux, dt, dx, work, masks)
        # u + dt * nu * lap, as (dt * nu) * lap + u
        lap = _laplacian(u, dx, work[0], work[1:3])
        np.add(u, np.multiply(lap, dt * nu, out=lap), out=u)
        if not np.isfinite(u, out=masks[0]).all():
            raise BlowUpError(t)
        if step_index == 0:
            _check_step_budget(cfg.t_end / dt)
        t = cfg.t_end if last else t + dt
        step_index += 1
        if last or step_index % cfg.sample_stride == 0:
            rows.append(_diagnostics_row_nd(u, t, nu, flux, dx, work))
    # lap is a view of work, so it too must go before the final copy
    del work, masks, lap
    return FieldND(u0.grid, u), rows.series()


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def write_field_nd(f: FieldND, path: str | Path) -> None:
    """Plain-text dump: ``DIM=<dim> N=<points> L=1.0`` header, one cell
    average per line in C order."""
    _write_samples(path, f"DIM={f.grid.dim} N={f.grid.points} L=1.0", f.values)
