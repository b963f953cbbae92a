"""Pseudospectral integrator for viscous Burgers flow on the unit torus.

The viscous term is integrated exactly through an integrating factor in
Fourier space, so the time step is limited only by the advective CFL
condition.  The quadratic nonlinearity, in conservative form
-(1/2) (u^2)_x, is evaluated pseudospectrally with 2/3-rule dealiasing,
and the mean is projected out after every step.

Diagnostics track the quantities that drive the extremal-growth study:
energy, enstrophy, total variation, sup norm, the most negative slope,
and the two terms of the enstrophy production identity

    (1/2) dE/dt = -nu * int (u_xx)^2  -  (1/2) * int (u_x)^3,

stored as ``rate_diss`` and ``rate_cubic`` so the two columns sum to the
instantaneous growth rate.  A row costs one inverse transform, for u_x:
the cubic term multiplies the samples of u_x, and the dissipation is read
off the spectrum by Parseval.  A :func:`simulate` step makes 9 FFTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .field_core import ConfigurationError, Field1D, _frozen_array, _require_count
from .field_core import _require_positive, _require_zero_mean, spectral_ops

# smallest amplitude a CFL rule divides by, so a zero state takes finite steps
_CFL_FLOOR = 1e-12
# most steps a run may predict from its first step, t_end / dt; see march
_MAX_STEPS = 10**7
# grid points required across the viscous shock width nu / max|u0|
_MIN_RESOLUTION_PER_SHOCK = 4.0


class BlowUpError(FloatingPointError):
    """The state stopped being finite; carries the last valid time."""

    def __init__(self, t_last: float, member: int = 0):
        self.t_last = float(t_last)
        self.member = member  # index of the failing member of a marched stack
        super().__init__(f"solution lost finiteness after t = {t_last:.6g}")


def required_points(nu: float, linf: float, floor: int = 512) -> int:
    """Smallest power-of-two grid, at least ``floor``, that puts
    ``_MIN_RESOLUTION_PER_SHOCK`` points across the viscous shock width
    nu / linf."""
    _require_positive("nu", nu)
    _require_positive("linf", linf)
    return max(
        floor, 2 ** math.ceil(math.log2(_MIN_RESOLUTION_PER_SHOCK * linf / nu))
    )


def _check_step_budget(count: float) -> None:
    """Refuse a run whose first step predicts ``count`` = t_end / dt steps,
    more than ``_MAX_STEPS``."""
    if count > _MAX_STEPS:
        raise ConfigurationError(
            f"t_end / dt of the first step is {count:.3g}, more than "
            f"the {_MAX_STEPS:.0e} steps a run may take"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of a single viscous Burgers run."""

    nu: float
    t_end: float
    cfl: float = 0.4
    sample_stride: int = 1  # diagnostics thinning of the finite-volume solver

    def __post_init__(self) -> None:
        _require_positive("nu", self.nu)
        _require_positive("t_end", self.t_end)
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigurationError(f"cfl must lie in (0, 1], got {self.cfl}")
        _require_count("sample_stride", self.sample_stride)


@dataclass(frozen=True, eq=False)
class DiagnosticsSeries:
    """Per-step scalar diagnostics of a run, column-oriented."""

    t: np.ndarray
    energy: np.ndarray
    enstrophy: np.ndarray
    tv: np.ndarray
    linf: np.ndarray
    min_ux: np.ndarray
    rate_diss: np.ndarray
    rate_cubic: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in DIAGNOSTIC_COLUMNS:
            message = f"column {name!r} has inconsistent length"
            arr = _frozen_array(getattr(self, name), (n,), message)
            object.__setattr__(self, name, arr)
        if n == 0:
            raise ValueError("diagnostics series must be nonempty")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("t must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def from_rows(cls, rows: list[tuple]) -> "DiagnosticsSeries":
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != len(DIAGNOSTIC_COLUMNS):
            raise ValueError(
                f"expected rows of {len(DIAGNOSTIC_COLUMNS)} values"
            )
        return cls(*(arr[:, j] for j in range(arr.shape[1])))

    def rows(self) -> Iterator[tuple]:
        """Rows in DIAGNOSTIC_COLUMNS order; the inverse of :meth:`from_rows`."""
        return zip(*(getattr(self, c) for c in DIAGNOSTIC_COLUMNS))


DIAGNOSTIC_COLUMNS = tuple(f.name for f in fields(DiagnosticsSeries))


class _Rows:
    """Diagnostics rows kept as float64 as they are made, 64 B a row."""

    def __init__(self, first: Sequence[float]):
        from array import array  # a run loads it, not the import of the package

        self._flat = array("d", first)

    def append(self, row: Sequence[float]) -> None:
        self._flat.extend(row)

    def series(self) -> DiagnosticsSeries:
        flat = np.frombuffer(self._flat)
        return DiagnosticsSeries.from_rows(flat.reshape(-1, len(DIAGNOSTIC_COLUMNS)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Field snapshots of a run; :func:`simulate` keeps the first and last."""

    times: tuple[float, ...]
    snapshots: tuple[Field1D, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.snapshots) or not self.times:
            raise ValueError("times and snapshots must align and be nonempty")
        grid = self.snapshots[0].grid
        for f in self.snapshots:
            if f.grid != grid:
                raise ValueError("snapshots must share one grid")

    @property
    def final(self) -> Field1D:
        return self.snapshots[-1]


def _nonlinear(u: np.ndarray, n: int) -> np.ndarray:
    """Dealiased rfft data of -u u_x = -(1/2) (u^2)_x from the samples ``u``."""
    return spectral_ops(n).advect * np.fft.rfft(u * u)


def _integrating_factors(dt: float | np.ndarray, nu: float | np.ndarray, n: int) -> tuple:
    """exp(-dt nu k^2 / 2) and its square; the adjoint is exact only with the step's."""
    e1 = np.exp(-0.5 * dt * nu * spectral_ops(n).k2)
    return e1, e1 * e1


def step_spectral(
    uh: np.ndarray,
    dt: float | np.ndarray,
    nu: float | np.ndarray,
    n: int,
    vals: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One integrating-factor RK4 step on unnormalized rfft coefficients.

    Returns ``(next_uh, stages)``: ``stages`` is the (4, n) array of the
    samples u of each RK4 stage, one step of the stage tape the discrete
    adjoint reads.  ``vals``, if given, are the samples of ``uh``; they
    become row 0 in place of an inverse transform, so the step makes 7
    transforms instead of 8.

    :func:`march` passes a (B, n//2+1) stack, with ``dt`` and ``nu`` (B, 1)
    columns, one row per member, and gets (4, B, n) stages; a single state
    with scalar ``dt`` and ``nu`` gets (4, n).  The transforms run along
    the last axis and every expression keeps its scalar order, so each
    member's result equals its own row call bit for bit.
    """
    e1, e2 = _integrating_factors(dt, nu, n)
    stages = np.empty((4, *uh.shape[:-1], n))
    # overflow here means blow-up, which callers detect via isfinite
    with np.errstate(over="ignore", invalid="ignore"):
        if vals is None:
            np.fft.irfft(uh, n, out=stages[0])
        else:
            stages[0] = vals
        dtc = np.asarray(dt, complex)  # cast once, not in each product
        k1 = dtc * _nonlinear(stages[0], n)
        k2 = dtc * _nonlinear(np.fft.irfft(e1 * (uh + 0.5 * k1), n, out=stages[1]), n)
        k3 = dtc * _nonlinear(np.fft.irfft(e1 * uh + 0.5 * k2, n, out=stages[2]), n)
        k4 = dtc * _nonlinear(np.fft.irfft(e2 * uh + e1 * k3, n, out=stages[3]), n)
        out = e2 * uh + (e2 * k1 + 2.0 * e1 * (k2 + k3) + k4) / 6.0
    out[..., 0] = 0.0
    return out, stages


def march(
    uh: np.ndarray, n: int, dx: float, cfgs: Sequence[SolverConfig]
) -> Iterator[tuple]:
    """Advance the (B, n//2+1) stack of rfft data ``uh``, member i to
    ``cfgs[i].t_end``, with adaptive advective steps; a single run is a
    stack of one.

    Each member steps at its own dt, as it would alone, but all members
    still marching share one :func:`step_spectral` call and one transform
    of each kind; a member that reaches its ``t_end`` leaves the stack.
    Yields ``(live, t, dt, uh, vals, stages)`` after every step: ``live``
    holds the indices of the members that took the step, and the other
    fields have a leading axis over them, ``vals`` being the samples of
    ``uh`` and ``stages`` the step's (4, len(live), n) stage samples (see
    :func:`step_spectral`).  Each step's CFL amplitude is read from the
    samples the previous step yielded, and its first RK4 stage uses them
    too, so a step costs the RK4 transforms less one, plus one inverse
    transform: 8 in all.  Nothing is retained between steps.  A member
    that loses finiteness raises :class:`BlowUpError` naming it.

    When the predicted step count t_end / dt of a member's first step
    exceeds ``_MAX_STEPS``, :func:`_check_step_budget` raises ConfigurationError
    after that step; by the maximum principle the count bounds the steps
    the run would take.  The first step comes before the check so that
    data that cannot be stepped at all report :class:`BlowUpError`.
    """
    # a stack steps with (B, 1) columns of dt and nu, one row per member
    nu = np.array([[c.nu] for c in cfgs])
    live = list(range(len(cfgs)))
    t = [0.0] * len(cfgs)
    vals = np.fft.irfft(uh, n)
    amps = np.abs(vals).max(axis=1).tolist()
    first = True
    while True:
        dts, lasts = [], []
        for j, amp in zip(live, amps):
            c = cfgs[j]
            dt = c.cfl * dx / max(amp, _CFL_FLOOR)
            lasts.append(dt >= c.t_end - t[j])
            dts.append(c.t_end - t[j] if lasts[-1] else dt)
        uh, stages = step_spectral(uh, np.array(dts)[:, None], nu, n, vals)
        vals = np.fft.irfft(uh, n)
        # not finite unless every sample of the member is
        amps = np.abs(vals).max(axis=1).tolist()
        for j, amp in zip(live, amps):
            if not math.isfinite(amp):
                raise BlowUpError(t[j], member=j)
        if first:
            first = False
            _check_step_budget(max(cfgs[j].t_end / dt for j, dt in zip(live, dts)))
        for j, dt, last in zip(live, dts, lasts):
            t[j] = cfgs[j].t_end if last else t[j] + dt
        t_live = [t[j] for j in live]
        yield np.array(live), np.array(t_live), np.array(dts), uh, vals, stages
        if all(lasts):
            return
        if any(lasts):
            keep = [i for i, last in enumerate(lasts) if not last]
            live, amps = [live[i] for i in keep], [amps[i] for i in keep]
            uh, vals, nu = uh[keep], vals[keep], nu[keep]


def _rate_terms(
    uh: np.ndarray, n: int, dx: float, nu: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u_x, dissipation, cubic) of the state with rfft data ``uh``; a stack of
    states along the last axis, at one ``nu`` or one per state, gives one each.

    The dissipation reads int u_xx^2 off the spectrum by Parseval, with no
    transform: the interior modes count twice and the Nyquist mode once,
    by its real part only, as ``irfft`` reads it.
    """
    ops = spectral_ops(n)
    ux = np.fft.irfft(ops.ik * uh, n)
    re, im = uh.real[..., :-1], uh.imag[..., :-1]
    uxx_sq = 2.0 * np.sum(ops.k4[:-1] * (re * re + im * im), axis=-1)
    uxx_sq += ops.k4[-1] * uh.real[..., -1] * uh.real[..., -1]
    dissipation = -nu * (uxx_sq * dx / n)
    cubic = -0.5 * (np.sum(ux * ux * ux, axis=-1) * dx)
    return ux, dissipation, cubic


def _diagnostics_row(
    t: float, uh: np.ndarray, vals: np.ndarray, nu: float, dx: float
) -> tuple:
    """One DIAGNOSTIC_COLUMNS row of a state given as rfft data and samples."""
    ux, dissipation, cubic = _rate_terms(uh, vals.size, dx, nu)
    l2 = float(np.sqrt(np.sum(vals * vals) * dx))
    return (
        t,
        0.5 * l2**2,
        float(np.sum(ux * ux) * dx),
        float(np.abs(np.diff(vals, append=vals[:1])).sum()),
        float(np.abs(vals).max()),
        float(ux.min()),
        dissipation,
        cubic,
    )


def validate_initial(u0: Field1D, cfg: SolverConfig) -> None:
    """Reject data with nonzero mean or a grid too coarse for its shock."""
    _require_zero_mean(u0.values)
    linf0 = float(np.abs(u0.values).max())
    if linf0 > 0:
        width = cfg.nu / linf0
        if u0.grid.dx > width / _MIN_RESOLUTION_PER_SHOCK:
            raise ConfigurationError(
                f"grid spacing {u0.grid.dx:.3e} cannot resolve shock width {width:.3e}; "
                f"use at least n_points = {required_points(cfg.nu, linf0, floor=8)}"
            )


def simulate(u0: Field1D, cfg: SolverConfig) -> tuple[Trajectory, DiagnosticsSeries]:
    """Integrate u0 to cfg.t_end with adaptive advective time steps.

    Records a diagnostics row at t = 0 and after every step, kept as 64 B
    of float64s; the returned trajectory holds the initial and final
    states only.
    """
    validate_initial(u0, cfg)
    grid = u0.grid
    uh = np.fft.rfft(u0.values)
    rows = _Rows(_diagnostics_row(0.0, uh, u0.values, cfg.nu, grid.dx))
    for _, (t,), _, (uh,), (vals,), _ in march(uh[None], grid.n_points, grid.dx, [cfg]):
        rows.append(_diagnostics_row(t, uh, vals, cfg.nu, grid.dx))
    return (
        Trajectory((0.0, cfg.t_end), (u0, Field1D(grid, vals))),
        rows.series(),
    )


def sup_enstrophy(t: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Time and value of the peak of the enstrophy samples ``e`` at times
    ``t``, refined by local quadratics.

    The discrete argmax is sharpened by the parabola through the three
    samples around it, in Newton form: divided differences d1 and a, vertex
    t* = (t0 + t1)/2 - d1/(2a) clipped to [t0, t2], and e* = e0 + (t* - t0)
    (d1 + a (t* - t1)).  Interior maxima of smooth E(t) are thereby
    recovered to second order in the step size.  A parabola that does not
    open downwards, or a maximum at either end, gives the discrete maximum.
    """
    i = int(np.argmax(e))
    if i == 0 or i == len(e) - 1:
        return float(t[i]), float(e[i])
    (t0, t1, t2), (e0, e1, e2) = t[i - 1 : i + 2].tolist(), e[i - 1 : i + 2].tolist()
    d1 = (e1 - e0) / (t1 - t0)
    a = ((e2 - e1) / (t2 - t1) - d1) / (t2 - t0)
    if a >= 0:
        return t1, e1
    t_star = min(max(0.5 * (t0 + t1) - d1 / (2.0 * a), t0), t2)
    e_star = e0 + (t_star - t0) * (d1 + a * (t_star - t1))
    return t_star, max(e_star, e1)
