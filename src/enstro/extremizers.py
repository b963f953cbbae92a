"""Constrained maximization of enstrophy production.

Two ascent problems over the sphere {zero-mean u : E(u) = e0} with
E(u) = int (u_x)^2:

* the instantaneous problem maximizes the production rate
  R(u) = -nu int (u_xx)^2 - (1/2) int (u_x)^3;
* the finite-time problem maximizes E(u(T)) along the viscous Burgers
  flow, with gradients from the exact discrete adjoint of the
  integrating-factor RK4 march.  The forward march keeps the stage tape
  each RK4 step returns, the samples u of its four stages, and the adjoint
  reads it back; the ascent's gradient reuses the tape of the objective's
  march at the same point, so each iterate marches forward once.  Above
  ``ADJOINT_STORAGE_BUDGET_BYTES`` the gradient keeps checkpoints instead
  and rebuilds the tape block by block by re-marching from them.

Ascent is Riemannian: the L2 gradient is preconditioned by the inverse
Laplacian (H1-seminorm metric), in which the constraint sphere's normal
at u is u itself; it is projected along u onto the sphere's tangent
space, so the slope along the step is its squared H1 seminorm, and
iterates are retracted back by amplitude rescaling.  Armijo backtracking
keeps the objective monotone across accepted steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .burgers_solver import (
    SolverConfig,
    _require_nu,
    enstrophy_rate,
    march,
    step_spectral,
)
from .field_core import Field1D, GridSpec1D, enstrophy, spectral_ops

ADJOINT_STORAGE_BUDGET_BYTES = 256 * 2**20

RECORD_COLUMNS = ("iter", "objective", "step", "constraint_residual", "grad_norm")

# Armijo search: first trial step, backtracking factor, sufficient increase
_STEP0 = 0.5
_ARMIJO_FACTOR = 0.5
_ARMIJO_DECREASE = 1e-4


@dataclass(frozen=True)
class OptimConfig:
    """Knobs shared by both sphere-constrained ascent problems."""

    e0: float
    nu: float
    T: float | None = None
    max_iters: int = 200
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.e0 < np.inf:
            raise ValueError(f"e0 must be positive and finite, got {self.e0}")
        _require_nu(self.nu)
        if self.T is not None and not 0.0 < self.T < np.inf:
            raise ValueError(f"T must be positive and finite where used, got {self.T}")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True, eq=False)
class OptimRecord:
    """Per-accepted-iteration ascent history plus a convergence flag.

    ``converged`` is True when the ascent stopped before ``max_iters``: the
    relative gradient norm fell to ``grad_tol``, or no Armijo step survived
    backtracking to round-off, which makes the point stationary.
    """

    objective: np.ndarray
    step: np.ndarray
    constraint_residual: np.ndarray
    grad_norm: np.ndarray
    converged: bool

    def __post_init__(self) -> None:
        n = len(self.objective)
        for name in ("objective", "step", "constraint_residual", "grad_norm"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            if arr.shape != (n,):
                raise ValueError(f"column {name!r} has inconsistent length")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.objective)

    def rows(self) -> Iterator[tuple]:
        """Rows in RECORD_COLUMNS order."""
        return zip(
            range(len(self)),
            self.objective,
            self.step,
            self.constraint_residual,
            self.grad_norm,
        )


# ----------------------------------------------------------------------
# instantaneous problem: functional and its exact discrete gradient
# ----------------------------------------------------------------------


def rate_functional(u: Field1D, nu: float) -> float:
    """R(u) = -nu int (u_xx)^2 - (1/2) int (u_x)^3 on the grid."""
    return enstrophy_rate(u, nu).total


def rate_gradient(u: Field1D, nu: float) -> Field1D:
    """Exact L2 gradient of the discrete rate functional.

    delta R / delta u = -2 nu d_x^4 u + (3/2) d_x((u_x)^2); because the
    discrete functional uses the spectral derivative matrix, this formula
    with pointwise squaring is its exact gradient (the derivative matrix
    is anti-self-adjoint), so finite differences match to roundoff.
    """
    _require_nu(nu)
    n = u.grid.n_points
    ops = spectral_ops(n)
    uh = np.fft.rfft(u.values)
    ux = np.fft.irfft(ops.ik * uh, n)
    fourth = np.fft.irfft(ops.k4 * uh, n)
    dsq = np.fft.irfft(ops.ik * np.fft.rfft(ux**2), n)
    return Field1D(u.grid, -2.0 * nu * fourth + 1.5 * dsq)


# ----------------------------------------------------------------------
# sphere geometry
# ----------------------------------------------------------------------


def _retract(vals: np.ndarray, e0: float, n: int) -> np.ndarray:
    e = enstrophy(np.fft.rfft(vals), n)
    if e <= 0:
        raise ValueError("cannot retract a field with zero enstrophy")
    return vals * np.sqrt(e0 / e)


def _tangent_direction(
    u_vals: np.ndarray, g_vals: np.ndarray, n: int, dx: float
) -> tuple[np.ndarray, float, float]:
    """Preconditioned gradient projected tangent to {E = const}.

    With P = (-d_xx)^-1 on the mean-free part, P g is the gradient in the
    H1-seminorm metric, where the sphere's normal at u is u itself and
    <P g, u>_H1 = <g, u>_L2.  So d = P g - (<g, u>_L2 / E(u)) u.  Returns
    (direction, slope, metric_norm) where slope = <g, d>_L2 = ||d||_H1^2 >= 0
    is the directional derivative along d and metric_norm = ||d||_H1.
    """
    gh = np.fft.rfft(g_vals)
    gh[0] = 0.0
    gh[1:] /= spectral_ops(n).k2[1:]
    coef = float(np.sum(g_vals * u_vals) * dx) / enstrophy(np.fft.rfft(u_vals), n)
    d = np.fft.irfft(gh, n) - coef * u_vals
    slope = float(np.sum(g_vals * d) * dx)
    return d, slope, float(np.sqrt(enstrophy(np.fft.rfft(d), n)))


def _ascend(
    start_vals: np.ndarray,
    grid: GridSpec1D,
    cfg: OptimConfig,
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, float, OptimRecord]:
    """Riemannian Armijo ascent on the enstrophy sphere {E = cfg.e0}."""
    n, dx = grid.n_points, grid.dx
    u = _retract(start_vals - start_vals.mean(), cfg.e0, n)
    j = objective(u)
    rows = [(j, 0.0, abs(enstrophy(np.fft.rfft(u), n) - cfg.e0) / cfg.e0, np.nan)]
    eta = _STEP0
    norm0 = None
    converged = True
    for _ in range(cfg.max_iters):
        g = gradient(u)
        d, slope, gnorm = _tangent_direction(u, g, n, dx)
        if norm0 is None:
            norm0 = max(gnorm, 1e-300)
        if gnorm <= cfg.grad_tol * norm0:
            break
        while eta * gnorm > 1e-16 * max(1.0, np.sqrt(cfg.e0)):
            trial = _retract(u + eta * d, cfg.e0, n)
            j_trial = objective(trial)
            if j_trial >= j + _ARMIJO_DECREASE * eta * slope:
                break
            eta *= _ARMIJO_FACTOR
        else:
            break  # no ascent direction survives backtracking: stationary
        u, j = trial, j_trial
        resid = abs(enstrophy(np.fft.rfft(u), n) - cfg.e0) / cfg.e0
        rows.append((j, eta, resid, gnorm))
        eta = min(eta / _ARMIJO_FACTOR, 64.0 * _STEP0)
    else:
        converged = False
    cols = np.asarray(rows, dtype=float)
    record = OptimRecord(cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3], converged)
    return u, j, record


def default_seeds(
    grid: GridSpec1D, e0: float, count: int = 5, rng_seed: int = 2025
) -> list[Field1D]:
    """Low modes plus seeded band-limited perturbations, all on {E = e0}."""
    if count < 1:
        raise ValueError("count must be at least 1")
    n, x = grid.n_points, grid.x
    rng = np.random.default_rng(rng_seed)
    raw = [
        np.sin(2.0 * np.pi * x),
        np.sin(4.0 * np.pi * x),
        np.sin(2.0 * np.pi * x) + 0.5 * np.sin(4.0 * np.pi * x) + 0.25 * np.sin(6.0 * np.pi * x),
    ]
    while len(raw) < count:
        v = np.zeros(n)
        for k in range(1, 7):
            v += rng.normal() / k * np.sin(2.0 * np.pi * k * x)
            v += rng.normal() / k * np.cos(2.0 * np.pi * k * x)
        raw.append(v)
    out = []
    for v in raw[:count]:
        out.append(Field1D(grid, _retract(v - v.mean(), e0, n)))
    return out


def instantaneous_maximize(
    cfg: OptimConfig, grid: GridSpec1D, rng_seed: int = 2025
) -> tuple[Field1D, float, OptimRecord]:
    """Maximize the production rate R over the sphere, best of multi-start."""
    best = None
    for seed in default_seeds(grid, cfg.e0, rng_seed=rng_seed):
        u, j, record = _ascend(
            seed.values,
            grid,
            cfg,
            objective=lambda v: rate_functional(Field1D(grid, v), cfg.nu),
            gradient=lambda v: rate_gradient(Field1D(grid, v), cfg.nu).values,
        )
        if best is None or j > best[1]:
            best = (u, j, record)
    u, j, record = best
    return Field1D(grid, u), j, record


# ----------------------------------------------------------------------
# finite-time problem: forward march, discrete adjoint, ascent
# ----------------------------------------------------------------------


def _march_forward(
    u0_vals: np.ndarray,
    T: float,
    nu: float,
    n: int,
    dx: float,
    tape_bytes: int = 0,
    stride: int = 0,
) -> tuple[np.ndarray, list[float], dict[int, np.ndarray], list | None]:
    """March to time T; return ``(uh_T, dts, checkpoints, tape)``.

    With ``tape_bytes > 0`` it keeps the stage tape, one ``(dt, stages)``
    entry per step, while it fits in ``tape_bytes``; a tape that outgrows
    them is dropped and returned as None.  With
    ``stride > 0`` it keeps the spectra at steps 0, stride, 2*stride, ...
    before the last step instead.
    """
    uh = np.fft.rfft(u0_vals)
    dts: list[float] = []
    checkpoints: dict[int, np.ndarray] = {0: uh} if stride else {}
    tape: list | None = [] if tape_bytes > 0 else None
    cfg = SolverConfig(nu=nu, t_end=T)
    for i, (_, dt, uh, _, stages) in enumerate(march(uh, n, dx, cfg), start=1):
        dts.append(dt)
        if stride and i % stride == 0:
            checkpoints[i] = uh
        if tape is not None:
            if (len(tape) + 1) * stages.nbytes > tape_bytes:
                tape = None
            else:
                tape.append((dt, stages))
    checkpoints.pop(len(dts), None)  # the final state starts no step
    return uh, dts, checkpoints, tape


def _checkpoint_plan(
    n_steps: int, budget_bytes: int, spectrum_bytes: int, step_bytes: int
) -> tuple[int, int]:
    """``(stride, block)`` of the re-march path, re-marching fewest steps.

    The path keeps a checkpoint every ``stride`` steps and rebuilds the
    tape of at most ``block`` steps of a segment at a time; together they
    fit in ``budget_bytes``, or in one checkpoint and one step's tape when
    the budget is smaller than that floor.  A block shorter than its
    segment is re-marched from the segment's checkpoint.
    """
    budget = max(budget_bytes, spectrum_bytes + step_bytes)

    def remarched(length: int, block: int) -> int:
        blocks = -(-length // block)
        return blocks * length - block * blocks * (blocks - 1) // 2

    best = None
    for stride in range(1, n_steps + 1):
        count = -(-n_steps // stride)
        block = min(stride, (budget - count * spectrum_bytes) // step_bytes)
        if block < 1:
            continue
        last = n_steps - (count - 1) * stride
        cost = (count - 1) * remarched(stride, block) + remarched(last, block)
        key = (cost, count * spectrum_bytes + block * step_bytes)
        if best is None or key < best[0]:
            best = (key, stride, block)
    return best[1], best[2]


def _retape(uh: np.ndarray, dts: list[float], skip: int, nu: float, n: int) -> list:
    """Re-march ``uh`` through ``dts``; the stage tape of all but the first
    ``skip`` steps."""
    tape = []
    for j, dt in enumerate(dts):
        uh, stages = step_spectral(uh, dt, nu, n)
        if j >= skip:
            tape.append((dt, stages))
    return tape


def _nonlinear_adjoint(a: np.ndarray, v_hat: np.ndarray, n: int) -> np.ndarray:
    """Transpose of the linearized dealiased advection -(a v)_x about the
    state with samples ``a``."""
    return np.fft.rfft(a * np.fft.irfft(-2.0 * spectral_ops(n).advect * v_hat, n))


def _adjoint_step(
    stages: np.ndarray, lam_hat: np.ndarray, dt: float, nu: float, n: int
) -> np.ndarray:
    """Pull the objective gradient back through one forward RK4 step, whose
    stage samples ``stages`` the forward march recorded."""
    ops = spectral_ops(n)
    e1 = np.exp(-0.5 * dt * nu * ops.k2)
    e2 = e1 * e1
    s1, s2, s3, s4 = stages

    w = lam_hat.copy()
    w[0] = 0.0  # transpose of the mean projection
    l_k1 = (dt / 6.0) * (e2 * w)
    l_k2 = (dt / 3.0) * (e1 * w)
    l_k3 = (dt / 3.0) * (e1 * w)
    l_k4 = (dt / 6.0) * w
    l_u = e2 * w

    v4 = _nonlinear_adjoint(s4, l_k4, n)
    l_u += e2 * v4
    l_k3 += dt * (e1 * v4)

    v3 = _nonlinear_adjoint(s3, l_k3, n)
    l_u += e1 * v3
    l_k2 += 0.5 * dt * v3

    v2 = _nonlinear_adjoint(s2, l_k2, n)
    l_u += e1 * v2
    l_k1 += 0.5 * dt * (e1 * v2)

    l_u += _nonlinear_adjoint(s1, l_k1, n)
    return l_u


def _pull_back(tape: list, lam: np.ndarray, nu: float, n: int) -> np.ndarray:
    """Walk the adjoint back through a stage tape, last step first."""
    for dt, stages in reversed(tape):
        lam = _adjoint_step(stages, lam, dt, nu, n)
    return lam


@dataclass(eq=False)
class _LastMarch:
    """The last forward march of an objective, kept for the gradient at the
    same point: ``key`` is ``(T, nu, bytes of u0)``, ``result`` is
    ``(uh_T, dts, tape)``."""

    key: tuple | None = None
    result: tuple | None = None


def finite_time_objective(
    u0: Field1D, T: float, nu: float, last: _LastMarch | None = None
) -> float:
    """E(u(T)) for the discrete forward march started at u0.

    With ``last``, the march records its stage tape there (within
    ``ADJOINT_STORAGE_BUDGET_BYTES``) for :func:`finite_time_gradient` at
    the same u0, after dropping the tape it held before.
    """
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    n, dx = u0.grid.n_points, u0.grid.dx
    if T == 0:
        return float(enstrophy(np.fft.rfft(u0.values), n))
    budget = 0
    if last is not None:
        last.key = last.result = None  # free the old tape before marching
        budget = ADJOINT_STORAGE_BUDGET_BYTES
    uh, dts, _, tape = _march_forward(u0.values, T, nu, n, dx, budget)
    if last is not None:
        last.key, last.result = (T, nu, u0.values.tobytes()), (uh, dts, tape)
    return float(enstrophy(uh, n))


def finite_time_gradient(
    u0: Field1D,
    T: float,
    nu: float,
    budget_bytes: int = ADJOINT_STORAGE_BUDGET_BYTES,
    last: _LastMarch | None = None,
) -> Field1D:
    """Exact L2 gradient of u0 -> E(u(T)) via the discrete adjoint.

    The backward pass transposes, step by step, exactly the arithmetic of
    the forward march, reading each RK4 stage's samples from the stage
    tape the march recorded, so central finite differences of the discrete
    objective match the result to roundoff-limited accuracy.  The march is
    the one ``last`` holds when it started from u0 (its tape was recorded
    within ``ADJOINT_STORAGE_BUDGET_BYTES``), and one this call makes
    otherwise.  When the tape does not fit in the budget, the gradient
    keeps checkpoints instead and rebuilds the tape block by block by
    re-marching from them, checkpoints and tape together within
    ``budget_bytes`` (see :func:`_checkpoint_plan`); the result is bit for
    bit the same.
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    n, dx = u0.grid.n_points, u0.grid.dx
    if abs(float(u0.values.mean())) > 1e-12:
        raise ValueError("initial data must have zero mean")
    if last is not None and last.key == (T, nu, u0.values.tobytes()):
        uh_T, dts, tape = last.result
    else:
        uh_T, dts, _, tape = _march_forward(u0.values, T, nu, n, dx, budget_bytes)
    # terminal condition: L2 gradient of E at u(T) is -2 u_xx(T)
    lam = 2.0 * spectral_ops(n).k2 * uh_T
    if tape is not None:
        lam = _pull_back(tape, lam, nu, n)
    else:
        step_bytes = 4 * n * np.dtype(float).itemsize  # one step's (4, n) stage samples
        stride, block = _checkpoint_plan(len(dts), budget_bytes, uh_T.nbytes, step_bytes)
        _, _, checkpoints, _ = _march_forward(u0.values, T, nu, n, dx, stride=stride)
        hi = len(dts)  # step j maps state j to state j + 1
        while hi > 0:
            seg = (hi - 1) // stride * stride
            lo = max(seg, hi - block)
            # a block's tape lives only while it is pulled back
            lam = _pull_back(
                _retape(checkpoints[seg], dts[seg:hi], lo - seg, nu, n), lam, nu, n
            )
            hi = lo
    lam[0] = 0.0
    return Field1D(u0.grid, np.fft.irfft(lam, n))


def finite_time_maximize(
    cfg: OptimConfig, grid: GridSpec1D, seed: Field1D
) -> tuple[Field1D, float, OptimRecord]:
    """Maximize E(u(T)) over the sphere {E(u0) = e0} from one seed."""
    if cfg.T is None:
        raise ValueError("finite_time_maximize needs cfg.T")
    if float(np.abs(seed.values).max()) == 0.0:
        raise ValueError("seed must be nonzero")
    # each gradient is taken at the point the objective marched last
    last = _LastMarch()
    u, j, record = _ascend(
        seed.values,
        grid,
        cfg,
        objective=lambda v: finite_time_objective(Field1D(grid, v), cfg.T, cfg.nu, last),
        gradient=lambda v: finite_time_gradient(
            Field1D(grid, v), cfg.T, cfg.nu, last=last
        ).values,
    )
    return Field1D(grid, u), j, record
